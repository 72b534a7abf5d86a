"""Tolerance-band scoring and latency measurement.

A prediction counts as correct when it falls inside the regulator-accepted
band around the labeled value: an absolute margin for small amounts, a
relative one for larger amounts. Bands live in an editable json file
(data/eu_tolerances.json ships as the default) and are selected by the label,
which plays the declared-value role. Accuracy is the percentage of samples
within the band, per nutrient.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .dataset import SCORED_NUTRIENTS, NutrientPrediction, NutrientVector
from .util import checked, dump_jsonl, load_jsonl, read_json

MARGIN_KINDS = ("absolute_g", "relative_fraction")


@dataclass(frozen=True)
class Band:
    lower: float  # inclusive
    upper: float | None  # exclusive; None = unbounded
    margin_kind: str
    margin: float


@dataclass(frozen=True)
class ToleranceRule:
    nutrient: str
    bands: tuple[Band, ...]

    def __post_init__(self) -> None:
        if not self.bands:
            raise ValueError(f"rule for {self.nutrient!r} has no bands")
        expected_lower = 0.0
        for band in self.bands:
            if band.margin_kind not in MARGIN_KINDS:
                raise ValueError(f"unknown margin kind {band.margin_kind!r}")
            if not (math.isfinite(band.margin) and band.margin > 0):
                raise ValueError(f"margins must be finite and > 0, got {band.margin!r}")
            if band.lower != expected_lower:
                raise ValueError(
                    f"bands for {self.nutrient!r} do not partition [0, inf): "
                    f"expected lower {expected_lower}, got {band.lower}")
            if band.upper is not None and band.upper <= band.lower:
                raise ValueError(f"band upper {band.upper} must exceed lower {band.lower}")
            expected_lower = band.upper if band.upper is not None else float("inf")
        if expected_lower != float("inf"):
            raise ValueError(f"bands for {self.nutrient!r} do not cover [0, inf)")

    def band_for(self, reference: float) -> Band:
        if reference < 0:
            raise ValueError(f"reference must be >= 0, got {reference}")
        for band in self.bands:
            if band.upper is None or reference < band.upper:
                return band
        raise AssertionError("unreachable: bands cover [0, inf)")


def load_rules(path: str | Path | None = None) -> dict[str, ToleranceRule]:
    """Load tolerance rules from json; None loads the packaged defaults."""
    if path is None:
        with resources.as_file(resources.files("recipe_nutrients.data")
                               / "eu_tolerances.json") as packaged:
            return load_rules(packaged)
    raw, _ = read_json(path, "bad tolerance rules")
    rules: dict[str, ToleranceRule] = {}
    with checked(path, "bad tolerance rules"):
        if not isinstance(raw, dict):
            raise ValueError("rules must be a json object of nutrient -> bands")
        for nutrient, bands in raw.items():
            if nutrient.startswith("_"):
                continue
            rules[nutrient] = ToleranceRule(
                nutrient=nutrient,
                bands=tuple(
                    Band(lower=float(b["lower"]),
                         upper=None if b["upper"] is None else float(b["upper"]),
                         margin_kind=str(b["margin_kind"]),
                         margin=float(b["margin"]))
                    for b in bands
                ),
            )
    return rules


def tolerance_interval(rule: ToleranceRule, reference: float) -> tuple[float, float]:
    """Accepted interval around a labeled value; lower end clamps at 0."""
    band = rule.band_for(reference)
    margin = band.margin if band.margin_kind == "absolute_g" else band.margin * reference
    return max(0.0, reference - margin), reference + margin


def within_tolerance(rule: ToleranceRule, reference: float, predicted: float) -> bool:
    lo, hi = tolerance_interval(rule, reference)
    return lo <= predicted <= hi


@dataclass(frozen=True)
class NutrientScore:
    n_samples: int
    n_within: int

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.n_within / self.n_samples if self.n_samples else 0.0


@dataclass(frozen=True)
class EvalReport:
    per_nutrient: dict[str, NutrientScore]
    n_missing: int

    def to_dict(self) -> dict:
        """Each nutrient's scores, and the count of labels without a prediction."""
        return {
            **{nutrient: {"n": score.n_samples, "within": score.n_within,
                          "accuracy": round(score.accuracy_percent, 2)}
               for nutrient, score in self.per_nutrient.items()},
            "n_missing": self.n_missing,
        }

    def format_table(self) -> str:
        lines = [f"{'nutrient':<12}{'n':>8}{'within':>8}{'accuracy':>10}"]
        for nutrient, score in self.per_nutrient.items():
            lines.append(f"{nutrient:<12}{score.n_samples:>8}{score.n_within:>8}"
                         f"{score.accuracy_percent:>10.2f}")
        if self.n_missing:
            lines.append(f"missing predictions: {self.n_missing} (scored as failures)")
        return "\n".join(lines)


def evaluate(preds: Mapping[str, NutrientPrediction],
             labels: Mapping[str, NutrientVector],
             rules: Mapping[str, ToleranceRule]) -> EvalReport:
    """Binary tolerance accuracy per scored nutrient over all labeled samples.

    Label ids without a prediction count as failures for every nutrient and
    are reported in the missing count. Prediction ids without a label are an
    error.
    """
    if not preds:
        raise ValueError("prediction set is empty")
    unknown = set(preds) - set(labels)
    if unknown:
        some = ", ".join(sorted(unknown)[:5])
        raise ValueError(f"{len(unknown)} prediction ids have no label (e.g. {some})")
    for nutrient in SCORED_NUTRIENTS:
        if nutrient not in rules:
            raise ValueError(f"no tolerance rule for nutrient {nutrient!r}")

    n_missing = 0
    within: dict[str, int] = {n: 0 for n in SCORED_NUTRIENTS}
    for sample_id, label in labels.items():
        pred = preds.get(sample_id)
        if pred is None:
            n_missing += 1
            continue
        for nutrient in SCORED_NUTRIENTS:
            if within_tolerance(rules[nutrient], getattr(label, nutrient),
                                getattr(pred, nutrient)):
                within[nutrient] += 1

    return EvalReport(
        per_nutrient={n: NutrientScore(n_samples=len(labels), n_within=within[n])
                      for n in SCORED_NUTRIENTS},
        n_missing=n_missing,
    )


@dataclass(frozen=True)
class LatencyStats:
    n: int
    mean: float
    median: float
    p95: float
    p99: float
    wall_clock_total: float

    def format_line(self) -> str:
        return (f"n={self.n}  mean={self.mean * 1e3:.3f} ms  median={self.median * 1e3:.3f} ms  "
                f"p95={self.p95 * 1e3:.3f} ms  p99={self.p99 * 1e3:.3f} ms  "
                f"total={self.wall_clock_total:.3f} s")


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ascending ``ordered``: the smallest value
    with a share ``q`` of the values at or below it."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def bench_latency(predict_fn: Callable, samples: Sequence, warmup: int = 0) -> LatencyStats:
    """Time predict_fn per sample (sequential, monotonic clock) after warmup."""
    if not samples:
        raise ValueError("need at least one sample")
    for i in range(warmup):
        predict_fn(samples[i % len(samples)])
    durations = []
    wall_start = time.perf_counter()
    for sample in samples:
        start = time.perf_counter()
        predict_fn(sample)
        durations.append(time.perf_counter() - start)
    wall_total = time.perf_counter() - wall_start
    ordered = sorted(durations)
    return LatencyStats(
        n=len(durations),
        mean=statistics.fmean(durations),
        median=statistics.median(durations),
        p95=_percentile(ordered, 0.95),
        p99=_percentile(ordered, 0.99),
        wall_clock_total=wall_total,
    )


def save_predictions(path: str | Path,
                     preds: Mapping[str, NutrientPrediction]
                     | Iterable[tuple[str, NutrientPrediction]]) -> int:
    """Prediction interchange: json-lines of {id, fat, protein, saturates, sugars}.

    ``preds`` maps ids to predictions, or yields (id, prediction) pairs, each
    written as it comes.
    """
    pairs = preds.items() if isinstance(preds, Mapping) else preds
    return dump_jsonl(path, ({"id": sample_id, **pred.to_dict()} for sample_id, pred in pairs))


def load_predictions(path: str | Path) -> dict[str, NutrientPrediction]:
    """Read the prediction interchange file; ids must be unique within it."""
    preds: dict[str, NutrientPrediction] = {}
    record = checked(path, lambda: f"bad prediction record {index}")
    for index, row in enumerate(load_jsonl(path)):
        with record:
            sample_id = str(row["id"])
            pred = NutrientPrediction.from_dict(row)
        if sample_id in preds:
            raise ValueError(f"{path}: record {index} has duplicate id {sample_id!r}")
        preds[sample_id] = pred
    return preds
