"""Multi-target ridge regression over sparse features.

Each target is solved independently on the regularized normal equations with
conjugate gradients; the intercept rides along as an appended, unpenalized
bias coordinate so the design matrix is never densified or centered.
Predictions clamp at zero because nutrient quantities cannot be negative.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import SCORED_NUTRIENTS, NutrientVector
from .kernels import CsrMatrix
from .util import atomic_write

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RidgeConfig:
    alpha: float = 1.0
    fit_intercept: bool = True
    solver_tol: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class NutrientPrediction:
    """The four scored nutrients, grams per 100 g."""

    fat: float
    protein: float
    saturates: float
    sugars: float

    def __post_init__(self) -> None:
        for name in SCORED_NUTRIENTS:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"prediction {name!r} must be finite and >= 0, got {value!r}")

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in SCORED_NUTRIENTS}

    @classmethod
    def from_dict(cls, d: dict) -> "NutrientPrediction":
        return cls(**{name: float(d[name]) for name in SCORED_NUTRIENTS})


@dataclass
class RidgeModel:
    targets: list[str]
    weights: np.ndarray  # (n_targets, feature_dim)
    intercepts: np.ndarray  # (n_targets,)
    feature_dim: int
    config: RidgeConfig
    vectorizer_fingerprint: str | None = None
    warnings: list[str] = field(default_factory=list)

    def target_index(self, name: str) -> int:
        try:
            return self.targets.index(name)
        except ValueError:
            raise KeyError(f"model has no target {name!r}; targets: {self.targets}") from None


def _cg_solve(apply_op, rhs: np.ndarray, tol: float, max_iterations: int) -> tuple[np.ndarray, bool, float]:
    """Conjugate gradients on an SPD operator; returns (solution, converged, rel_residual)."""
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), True, 0.0
    z = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(max_iterations):
        if math.sqrt(rs) <= tol * rhs_norm:
            return z, True, math.sqrt(rs) / rhs_norm
        ap = apply_op(p)
        step = rs / float(p @ ap)
        z += step * p
        r -= step * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return z, math.sqrt(rs) <= tol * rhs_norm, math.sqrt(rs) / rhs_norm


def train(matrix: CsrMatrix,
          labels: Sequence[NutrientVector],
          targets: Sequence[str] = SCORED_NUTRIENTS,
          config: RidgeConfig = RidgeConfig()) -> RidgeModel:
    """Fit one ridge weight vector per target over the rows of ``matrix``.

    Minimizes ||X w + b - y||^2 + alpha ||w||^2 per target (b unpenalized when
    fit_intercept). Non-convergence is recorded as a model warning, not an
    error: the normal-equations system is positive definite.
    """
    n, d = matrix.shape
    if n != len(labels):
        raise ValueError(f"got {n} rows but {len(labels)} labels")
    if n < 1:
        raise ValueError("need at least one training row")
    targets = list(targets)

    alpha = config.alpha

    def make_operator(with_bias: bool):
        if with_bias:
            def apply_op(z):
                u = matrix.matvec(z[:-1]) + z[-1]
                out = np.empty_like(z)
                out[:-1] = matrix.rmatvec(u) + alpha * z[:-1]
                out[-1] = float(u.sum())
                return out
        else:
            def apply_op(z):
                return matrix.rmatvec(matrix.matvec(z)) + alpha * z
        return apply_op

    apply_op = make_operator(config.fit_intercept)
    weights = np.zeros((len(targets), d), dtype=np.float64)
    intercepts = np.zeros(len(targets), dtype=np.float64)
    warnings: list[str] = []

    for t_index, target in enumerate(targets):
        y = np.asarray([getattr(lv, target) for lv in labels], dtype=np.float64)
        if config.fit_intercept:
            rhs = np.empty(d + 1, dtype=np.float64)
            rhs[:-1] = matrix.rmatvec(y)
            rhs[-1] = float(y.sum())
        else:
            rhs = matrix.rmatvec(y)
        solution, converged, residual = _cg_solve(
            apply_op, rhs, config.solver_tol, config.max_iterations)
        if not converged:
            warnings.append(
                f"target {target!r}: cg stopped after {config.max_iterations} iterations "
                f"with relative residual {residual:.3e}")
        if config.fit_intercept:
            weights[t_index] = solution[:-1]
            intercepts[t_index] = solution[-1]
        else:
            weights[t_index] = solution

    return RidgeModel(targets=targets, weights=weights, intercepts=intercepts,
                      feature_dim=d, config=config, warnings=warnings)


def predict_raw(model: RidgeModel, x: CsrMatrix) -> dict[str, float]:
    """Unclamped per-target linear outputs dot(w, x) + intercept for a one-row matrix."""
    if x.shape != (1, model.feature_dim):
        raise ValueError(f"expected one row of dim {model.feature_dim}, got shape {x.shape}")
    raw = model.weights[:, x.indices] @ x.data + model.intercepts
    return {target: float(value) for target, value in zip(model.targets, raw)}


def predict(model: RidgeModel, x: CsrMatrix) -> NutrientPrediction:
    """The scored nutrients for a one-row matrix, clamped at zero from below."""
    values = predict_raw(model, x)
    try:
        return NutrientPrediction(**{name: max(0.0, values[name]) for name in SCORED_NUTRIENTS})
    except KeyError as exc:
        raise KeyError(f"model lacks scored target {exc}; targets: {model.targets}") from exc


def predict_batch(model: RidgeModel, matrix: CsrMatrix) -> np.ndarray:
    """Clamped predictions for every row; returns (n_rows, n_targets)."""
    if matrix.shape[1] != model.feature_dim:
        raise ValueError(f"matrix dim {matrix.shape[1]} does not match model dim {model.feature_dim}")
    out = np.empty((matrix.shape[0], len(model.targets)), dtype=np.float64)
    for t_index in range(len(model.targets)):
        out[:, t_index] = matrix.matvec(model.weights[t_index]) + model.intercepts[t_index]
    np.maximum(out, 0.0, out=out)
    return out


def _encode(array: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, shape: tuple[int, ...]) -> np.ndarray:
    raw = base64.b64decode(text.encode("ascii"))
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise ValueError(f"array payload has {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def save_model(model: RidgeModel, path: str | Path) -> None:
    """Write a versioned model container, atomically; arrays are base64 float64 (bit-exact)."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "targets": model.targets,
        "feature_dim": model.feature_dim,
        "config": asdict(model.config),
        "weights_b64": _encode(model.weights),
        "intercepts_b64": _encode(model.intercepts),
        "vectorizer_fingerprint": model.vectorizer_fingerprint,
        "warnings": model.warnings,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)


def load_model(path: str | Path) -> RidgeModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupted model file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version "
                         f"{payload.get('format_version') if isinstance(payload, dict) else None!r}")
    try:
        targets = [str(t) for t in payload["targets"]]
        feature_dim = int(payload["feature_dim"])
        weights = _decode(payload["weights_b64"], (len(targets), feature_dim))
        intercepts = _decode(payload["intercepts_b64"], (len(targets),))
        config = RidgeConfig(**payload["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: corrupted model file: {exc}") from exc
    return RidgeModel(targets=targets, weights=weights, intercepts=intercepts,
                      feature_dim=feature_dim, config=config,
                      vectorizer_fingerprint=payload.get("vectorizer_fingerprint"),
                      warnings=[str(w) for w in payload.get("warnings", [])])
