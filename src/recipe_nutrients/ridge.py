"""Multi-target ridge regression over sparse features.

Each target is solved on the regularized normal equations of the column-centred
design matrix with conjugate gradients; the centring is implicit, so the sparse
matrix is never densified, and the unpenalized intercept follows from the means.
One multi-shift CG sequence per target solves a whole grid of penalties, and
the targets' solves run side by side on a thread pool, one worker per usable
CPU: numpy releases the GIL in the sparse products, so the solves overlap.
CG runs on the design matrix's distinct columns: each group of m exactly
equal columns (char grams that only occur inside one word, say) is solved as
one column scaled by sqrt(m), whose weight over sqrt(m) goes to each of them.
That is the same minimiser, since equal columns get equal ridge weights and
the penalty m u^2 of the group is the merged column's w'^2.
Predictions clamp at zero because nutrient quantities cannot be negative.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import SCORED_NUTRIENTS, NutrientPrediction, NutrientVector
from .kernels import REPEAT_ROWS, CsrMatrix
from .util import atomic_write, checked, read_json

MODEL_FORMAT_VERSION = 2

# slots of the (row, group) table that checks a block's grouped columns
_TABLE_SLOTS = 1 << 16


@dataclass(frozen=True)
class RidgeConfig:
    alpha: float = 1.0
    fit_intercept: bool = True
    solver_tol: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha!r}")
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ValueError(f"solver_tol must be finite and > 0, got {self.solver_tol!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SolverStats:
    """How CG ended for one target at the model's alpha."""

    iterations: int
    relative_residual: float


@dataclass
class RidgeModel:
    targets: list[str]
    weights: np.ndarray  # (n_targets, feature_dim)
    intercepts: np.ndarray  # (n_targets,)
    feature_dim: int
    config: RidgeConfig
    vectorizer_fingerprint: str | None = None
    warnings: list[str] = field(default_factory=list)
    solver_stats: dict[str, SolverStats] = field(default_factory=dict)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by numpy's own sum of products, not BLAS ddot.

    Its summation order is fixed by the length alone, so CG's bits do not
    depend on the BLAS build or its threads; and a threaded BLAS would spin its
    own threads between calls on the CPUs the side-by-side solves need.
    """
    return float(np.einsum("i,i->", a, b))


def _multishift_cg(apply_op, rhs: np.ndarray, shifts: Sequence[float], tol: float,
                   max_iterations: int) -> tuple[np.ndarray, list[int], list[float]]:
    """Solve ``(A + s I) z = rhs`` for every shift ``s >= 0`` from one CG sequence on ``A``.

    CG runs on the system whose shift is 0. The residual of every shifted
    system stays collinear with the base residual, ``r_s = zeta_s r``, so each
    shifted iterate and direction follows from scalar recurrences (Jegerlehner,
    hep-lat/9612014). A system stops updating once ``|zeta_s| ||r|| <= tol
    ||rhs||``. Returns the solutions (one row per shift), and for each shift
    the iterations it took and its final relative residual.
    """
    k = len(shifts)
    z = np.zeros((k, len(rhs)), dtype=np.float64)
    iterations = [0] * k
    residuals = [0.0] * k
    rhs_norm = math.sqrt(_dot(rhs, rhs))
    if rhs_norm == 0.0:
        return z, iterations, residuals
    base = shifts.index(0.0)
    p = np.empty_like(z)
    p[:] = rhs
    r = rhs.copy()
    rs = _dot(r, r)
    zeta = [1.0] * k
    zeta_prev = [1.0] * k
    step_prev, beta_prev = 1.0, 0.0
    active = range(k)
    for iteration in range(max_iterations + 1):
        r_norm = math.sqrt(rs)
        for i in active:
            iterations[i] = iteration
            residuals[i] = abs(zeta[i]) * r_norm / rhs_norm
        active = [i for i in active if residuals[i] > tol]
        if base not in active or iteration == max_iterations:
            break
        ap = apply_op(p[base])
        step = rs / _dot(p[base], ap)
        r -= step * ap
        rs_new = _dot(r, r)
        beta = rs_new / rs
        for i in active:
            zeta_next = (zeta[i] * zeta_prev[i] * step_prev
                         / (step * beta_prev * (zeta_prev[i] - zeta[i])
                            + zeta_prev[i] * step_prev * (1.0 + shifts[i] * step)))
            ratio = zeta_next / zeta[i]
            z[i] += (step * ratio) * p[i]
            p[i] *= beta * ratio * ratio
            p[i] += zeta_next * r
            zeta_prev[i], zeta[i] = zeta[i], zeta_next
        step_prev, beta_prev, rs = step, beta, rs_new
    return z, iterations, residuals


def _row_blocks(matrix: CsrMatrix, size: int = REPEAT_ROWS):
    """(start, stop, lo, hi) for each block of ``size`` rows and its entry range."""
    rows = matrix.shape[0]
    for start in range(0, rows, size):
        stop = min(start + size, rows)
        yield start, stop, int(matrix.indptr[start]), int(matrix.indptr[stop])


def _column_hashes(matrix: CsrMatrix, col_nnz: np.ndarray) -> np.ndarray:
    """Each column's nnz and two fixed-seed random projections, as a (3, d) array.

    Equal columns get equal bits: bincount adds each column's entries in row
    order, and each block's sums are added in the same order.
    """
    n, d = matrix.shape
    counts = np.diff(matrix.indptr)
    projections = np.random.default_rng(0).random((2, n))
    keys = np.zeros((3, d), dtype=np.float64)
    keys[0] = col_nnz
    for start, stop, lo, hi in _row_blocks(matrix):
        for key, p in zip(keys[1:], projections):
            key += np.bincount(matrix.indices[lo:hi], minlength=d,
                               weights=np.repeat(p[start:stop], counts[start:stop])
                               * matrix.data[lo:hi])
    return keys


def _split_unequal(matrix: CsrMatrix, leader: np.ndarray, col_nnz: np.ndarray) -> None:
    """Make each column that is not equal to ``leader[column]`` lead itself, in place.

    A member is equal to its leader when their nnz agree and each of the
    member's entries has the same row and value as one of the leader's. A
    column with an entry in a block of rows that do not each hold their
    column indices strictly increasing leads itself too: a repeated index
    would defeat that test.
    """
    d = matrix.shape[1]
    alone = col_nnz != col_nnz[leader]
    leader[alone] = np.flatnonzero(alone)
    # a block's entries of the grouped leaders go into a (row, group) table,
    # where each member's entry looks up its value; NaN marks a slot left
    # empty and equals nothing, and each block clears what it wrote
    multi = np.bincount(leader, minlength=d) > 1
    width = int(multi.sum())
    if not width:
        return
    slot = np.cumsum(multi) - 1
    rows_per_block = max(1, min(REPEAT_ROWS, _TABLE_SLOTS // width))
    table = np.full(rows_per_block * width, np.nan)
    counts = np.diff(matrix.indptr)
    for start, stop, lo, hi in _row_blocks(matrix, rows_per_block):
        cols, data = matrix.indices[lo:hi], matrix.data[lo:hi]
        rows = np.repeat(np.arange(stop - start), counts[start:stop])
        entries = rows * d + cols
        if not (entries[1:] > entries[:-1]).all():
            leader[cols] = cols
            continue
        leads = np.flatnonzero(multi[cols])
        members = np.flatnonzero(leader[cols] != cols)
        at = rows[leads] * width + slot[cols[leads]]
        table[at] = data[leads]
        differ = cols[members[table[rows[members] * width + slot[leader[cols[members]]]]
                              != data[members]]]
        table[at] = np.nan
        leader[differ] = differ


def _merge_equal_columns(matrix: CsrMatrix) -> tuple[CsrMatrix, np.ndarray, np.ndarray]:
    """``matrix`` with each group of m exactly equal columns held once, scaled by sqrt(m).

    Returns the merged matrix, each column's group (its column in the merged
    matrix; groups are numbered in the order of their lowest columns) and
    each column's sqrt(m). The columns whose hashes (:func:`_column_hashes`)
    are equal form a group led by the lowest of them, and a member that is
    not equal to its leader (:func:`_split_unequal`) stays a column of its
    own. The merged matrix is built a block of rows at a time, so no
    temporary is nnz long; with no two columns merged, it is ``matrix``.
    """
    n, d = matrix.shape
    col_nnz = np.bincount(matrix.indices, minlength=d)
    keys = _column_hashes(matrix, col_nnz)
    # stable, so each run of equal keys starts with its lowest column
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    starts = np.ones(d, dtype=bool)
    starts[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    leader = np.empty(d, dtype=np.int64)
    leader[order] = order[np.maximum.accumulate(np.where(starts, np.arange(d), 0))]
    _split_unequal(matrix, leader, col_nnz)
    is_leader = leader == np.arange(d)
    if is_leader.all():
        return matrix, np.arange(d), np.ones(d)

    group = (np.cumsum(is_leader) - 1)[leader]
    root = np.sqrt(np.bincount(group))
    indptr = np.zeros(n + 1, dtype=np.int64)
    nnz = int(col_nnz[is_leader].sum())
    indices, data = np.empty(nnz, dtype=np.int64), np.empty(nnz, dtype=np.float64)
    pos = 0
    for start, stop, lo, hi in _row_blocks(matrix):
        cols = matrix.indices[lo:hi]
        keep = np.flatnonzero(is_leader[cols])
        end = pos + len(keep)
        indices[pos:end] = group[cols[keep]]
        np.multiply(matrix.data[lo:hi][keep], root[indices[pos:end]], out=data[pos:end])
        indptr[start + 1:stop + 1] = pos + np.searchsorted(
            keep, matrix.indptr[start + 1:stop + 1] - lo)
        pos = end
    return (CsrMatrix(data=data, indices=indices, indptr=indptr, shape=(n, len(root))),
            group, root[group])


def train_path(matrix: CsrMatrix | Callable[[], CsrMatrix],
               labels: Sequence[NutrientVector],
               targets: Sequence[str] = SCORED_NUTRIENTS,
               alphas: Sequence[float] = (1.0,),
               config: RidgeConfig = RidgeConfig()) -> list[RidgeModel]:
    """Fit one model per alpha, in the order of ``alphas``; ``config.alpha`` is unused.

    Each model minimizes ||X w + b - y||^2 + alpha ||w||^2 per target (b
    unpenalized when fit_intercept). X is centred implicitly by its column
    means mu, so the normal operator X_c^T X_c + alpha I differs between
    alphas by a multiple of I only and one multi-shift CG sequence per target,
    run at the smallest alpha, serves every alpha; then b = mean(y) - mu . w.
    Non-convergence is recorded as a model warning, not an error: each system
    is positive definite.

    The targets' solves run on a pool of ``min(len(targets), usable CPUs)``
    threads. Each solve writes its own row of every model's weights and
    intercepts, and uses one of the pool's product buffers for its whole run;
    the buffers are allocated here, one per worker, before the pool starts.
    Solver stats and warnings are filled afterwards in target order, so the
    models do not depend on which solve finishes first. If one solve raises,
    the solves not yet started are cancelled (``Executor.map`` does so as its
    results iterator unwinds), so only those running are waited for.

    ``matrix`` is the design matrix or a function of no arguments that
    builds it. Once its distinct columns are merged, this function releases
    its reference to the unmerged matrix. Only a builder
    (``train_path(lambda: transform_batch(...), ...)``) guarantees that no
    caller holds that matrix beside the merged one during the solves: a
    matrix passed directly is still referenced by the calling frame on
    Python 3.10, and a caller that keeps its own reference also keeps the
    matrix alive.
    """
    # imported here, as predict and bench load this module but start no pool
    import queue
    from concurrent.futures import ThreadPoolExecutor

    if callable(matrix):
        matrix = matrix()
    n, d = matrix.shape
    if n != len(labels):
        raise ValueError(f"got {n} rows but {len(labels)} labels")
    if n < 1:
        raise ValueError("need at least one training row")
    if not alphas:
        raise ValueError("need at least one alpha")
    targets = list(targets)
    configs = [replace(config, alpha=float(alpha)) for alpha in alphas]
    base_alpha = min(c.alpha for c in configs)
    shifts = [c.alpha - base_alpha for c in configs]
    # the solve runs on the distinct columns; each column's weight is then
    # its group's weight over sqrt(m). The unmerged matrix is not needed
    # again, so this frame lets go of it before the solves
    merged, group, scale = _merge_equal_columns(matrix)
    del matrix
    mu = (merged.rmatvec(np.ones(n)) / n if config.fit_intercept
          else np.zeros(merged.shape[1], dtype=np.float64))

    def apply_op(z, work):
        u = merged.matvec(z, work)
        u -= _dot(mu, z)
        out = merged.rmatvec(u, work)
        out -= u.sum() * mu
        out += base_alpha * z
        return out

    models = [RidgeModel(targets=targets, weights=np.zeros((len(targets), d)),
                         intercepts=np.zeros(len(targets)), feature_dim=d, config=c)
              for c in configs]
    workers = max(1, min(len(targets), _usable_cpus()))
    # one nnz-long product buffer per worker, allocated on this thread: the
    # nnz-sized temporaries a worker would allocate per product stay in its
    # own malloc arena after they are freed, which raises the peak RSS
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(merged.nnz, dtype=np.float64))

    def solve(t_index):
        y = np.asarray([getattr(lv, targets[t_index]) for lv in labels], dtype=np.float64)
        y_mean = float(y.mean()) if config.fit_intercept else 0.0
        y -= y_mean
        work = buffers.get()
        try:
            rhs = merged.rmatvec(y, work)
            rhs -= y.sum() * mu
            solutions, iterations, residuals = _multishift_cg(
                lambda z: apply_op(z, work), rhs, shifts, config.solver_tol,
                config.max_iterations)
        finally:
            buffers.put(work)
        for model, w in zip(models, solutions):
            model.weights[t_index] = w[group] / scale
            model.intercepts[t_index] = y_mean - _dot(mu, w)
        return iterations, residuals

    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(solve, range(len(targets))))
    for target, (iterations, residuals) in zip(targets, outcomes):
        for model, its, residual in zip(models, iterations, residuals):
            model.solver_stats[target] = SolverStats(iterations=its, relative_residual=residual)
            if residual > config.solver_tol:
                model.warnings.append(
                    f"target {target!r}: cg stopped after {its} iterations "
                    f"with relative residual {residual:.3e}")
    return models


def _usable_cpus() -> int:
    # sched_getaffinity exists on Linux only; elsewhere count every CPU
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def train(matrix: CsrMatrix,
          labels: Sequence[NutrientVector],
          targets: Sequence[str] = SCORED_NUTRIENTS,
          config: RidgeConfig = RidgeConfig()) -> RidgeModel:
    """Fit one ridge weight vector per target at ``config.alpha`` (see :func:`train_path`)."""
    return train_path(matrix, labels, targets, [config.alpha], config)[0]


def scored_rows(model: RidgeModel) -> list[int]:
    """The rows of ``model``'s targets that hold the scored nutrients, in
    ``SCORED_NUTRIENTS`` order."""
    missing = [name for name in SCORED_NUTRIENTS if name not in model.targets]
    if missing:
        raise KeyError(f"model lacks scored target {missing[0]!r}; targets: {model.targets}")
    return list(map(model.targets.index, SCORED_NUTRIENTS))


def predict(model: RidgeModel, x: CsrMatrix) -> NutrientPrediction:
    """The scored nutrients for a one-row matrix, dot(w, x) + intercept clamped at
    zero from below."""
    if x.shape != (1, model.feature_dim):
        raise ValueError(f"expected one row of dim {model.feature_dim}, got shape {x.shape}")
    # take gathers the row's columns of every target without indexing's
    # general path; the rows of the scored targets are chosen from the result
    raw = (np.take(model.weights, x.indices, axis=1) @ x.data + model.intercepts).tolist()
    return NutrientPrediction(*[max(0.0, raw[row]) for row in scored_rows(model)])


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
        "solver_stats": {target: asdict(stats) for target, stats in model.solver_stats.items()},
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)


def load_model(path: str | Path) -> RidgeModel:
    payload, _ = read_json(path, "corrupted model file")
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != MODEL_FORMAT_VERSION:
        hint = "; retrain it with `train`" if version == 1 else ""
        raise ValueError(f"{path}: unsupported model format version {version!r} "
                         f"(this release reads version {MODEL_FORMAT_VERSION}){hint}")
    with checked(path, "corrupted model file"):
        targets = [str(t) for t in payload["targets"]]
        feature_dim = int(payload["feature_dim"])
        weights = _decode(payload["weights_b64"], (len(targets), feature_dim))
        intercepts = _decode(payload["intercepts_b64"], (len(targets),))
        config = RidgeConfig(**payload["config"])
        solver_stats = {str(target): SolverStats(iterations=int(stats["iterations"]),
                                                 relative_residual=float(stats["relative_residual"]))
                        for target, stats in payload["solver_stats"].items()}
        warnings = payload.get("warnings", [])
        if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
            raise ValueError(f"warnings must be a list of strings, got {warnings!r}")
        fingerprint = payload.get("vectorizer_fingerprint")
        if not (fingerprint is None or isinstance(fingerprint, str)):
            raise ValueError(f"vectorizer_fingerprint must be a string or null, got {fingerprint!r}")
        if not (np.isfinite(weights).all() and np.isfinite(intercepts).all()):
            raise ValueError("weights or intercepts are not finite")
    return RidgeModel(targets=targets, weights=weights, intercepts=intercepts,
                      feature_dim=feature_dim, config=config, vectorizer_fingerprint=fingerprint,
                      warnings=warnings, solver_stats=solver_stats)
