"""Output checks for the pipeline benchmark.

Each check compares a stage's output with a computation done apart from the
program, or with a property the method must have. None of them calls the
program's ``kernels``, ``ridge`` or ``evaluate`` code:

* the design matrix is rebuilt from the saved vocabulary file with the
  documented TF-IDF conventions and assembled with ``scipy.sparse``;
* model files are decoded from their json/base64 container directly;
* tolerance accuracy is recomputed from ``eu_tolerances.json``.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import base64
import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp

SCORED = ("fat", "protein", "saturates", "sugars")

# Ridge optimality: CG stops at a residual of 1e-8 of the right-hand side, so a
# converged model's gradient is far below these; a perturbed one is far above.
GRADIENT_RTOL = 1e-6
INTERCEPT_RTOL = 1e-6
# batch and single-sample predictions against max(0, Xw + b); summation order differs
PREDICTION_TOL = 1e-9

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def read_jsonl(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --- independent TF-IDF ---------------------------------------------------------

def _grams(text: str, cfg: dict, stopwords: frozenset) -> list[str]:
    if cfg["lowercase"]:
        text = text.lower()
    lo, hi = cfg["ngram_min"], cfg["ngram_max"]
    grams: list[str] = []
    if cfg["mode"] == "word":
        tokens = [t for t in _TOKEN.findall(text) if len(t) >= 2]
        if cfg["remove_stopwords"]:
            tokens = [t for t in tokens if t not in stopwords]
        for n in range(lo, hi + 1):
            grams.extend(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
        return grams
    for word in text.split():
        padded = f" {word} "
        for n in range(lo, hi + 1):
            if len(padded) <= n:
                grams.append(padded)
                break
            grams.extend(padded[i:i + n] for i in range(len(padded) - n + 1))
    return grams


def design_matrix(vocab_path: str | Path, texts: list[str],
                  stopwords: frozenset) -> sp.csr_matrix:
    """Word and char_wb TF-IDF rows, each block L2-normalised, as scipy CSR."""
    with open(vocab_path, encoding="utf-8") as fh:
        saved = json.load(fh)
    blocks = []
    offset = 0
    for part in ("word", "char"):
        vocab = saved[part]
        cfg = vocab["config"]
        index = vocab["term_to_index"]
        idf = vocab["idf"]
        blocks.append((cfg, index, idf, offset))
        offset += len(index)
    data, cols, indptr = [], [], [0]
    for text in texts:
        for cfg, index, idf, block_offset in blocks:
            weights = {}
            for term, tf in Counter(_grams(text, cfg, stopwords)).items():
                col = index.get(term)
                if col is not None:
                    weights[col] = ((1.0 + math.log(tf)) if cfg["sublinear_tf"] else tf) * idf[col]
            norm = math.sqrt(sum(w * w for w in weights.values()))
            for col, w in weights.items():
                cols.append(block_offset + col)
                data.append(w / norm)
        indptr.append(len(cols))
    return sp.csr_matrix((np.asarray(data), np.asarray(cols), np.asarray(indptr)),
                         shape=(len(texts), offset))


def decode_model(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    targets = raw["targets"]
    dim = raw["feature_dim"]

    def array(key, shape):
        return np.frombuffer(base64.b64decode(raw[key]), dtype="<f8").reshape(shape)

    return {"targets": targets, "alpha": float(raw["config"]["alpha"]),
            "weights": array("weights_b64", (len(targets), dim)),
            "intercepts": array("intercepts_b64", (len(targets),))}


# --- checks ---------------------------------------------------------------------

def check_split(unique: dict, ratio: float, train: list[dict], val: list[dict]) -> list[str]:
    """Dedup kept exactly the generated unique rows; the split has the stated sizes."""
    failures = []
    n = len(unique)
    n_train = math.floor(Fraction(repr(ratio)) * n)
    if (len(train), len(val)) != (n_train, n - n_train):
        failures.append(f"split sizes {len(train)}/{len(val)}, expected {n_train}/{n - n_train}")
    train_ids = [r["id"] for r in train]
    val_ids = [r["id"] for r in val]
    if set(train_ids) & set(val_ids):
        failures.append("train and validation share ids")
    if len(set(train_ids)) + len(set(val_ids)) != len(train_ids) + len(val_ids):
        failures.append("an id repeats within a split")
    if set(train_ids) | set(val_ids) != set(unique):
        failures.append("the splits do not cover exactly the generated unique ids")
    for row in train + val:
        expected = unique.get(row["id"])
        if expected is not None and (row["ingredient_text"], row["labels"]) != expected:
            failures.append(f"sample {row['id']}: text or labels differ from the generated row")
            break
    return failures


def check_optimality(model: dict, x: sp.csr_matrix, rows: list[dict]) -> list[str]:
    """Gradient of ||Xw + b - y||^2 + alpha ||w||^2 vanishes at the stored w, b."""
    failures = []
    for t, target in enumerate(model["targets"]):
        y = np.array([r["labels"][target] for r in rows])
        w = model["weights"][t]
        residual = x @ w + model["intercepts"][t] - y
        grad = x.T @ residual + model["alpha"] * w
        scale = float(np.linalg.norm(x.T @ y))
        if float(np.linalg.norm(grad)) > GRADIENT_RTOL * scale:
            failures.append(f"{target}: |grad w| = {np.linalg.norm(grad):.3e} exceeds "
                            f"{GRADIENT_RTOL:g} x |X^T y| = {scale:.3e}")
        intercept_grad = float(residual.sum())
        if abs(intercept_grad) > INTERCEPT_RTOL * float(np.abs(y).sum()):
            failures.append(f"{target}: residuals sum to {intercept_grad:.3e}, not zero")
    return failures


def expected_predictions(model: dict, x: sp.csr_matrix) -> np.ndarray:
    return np.maximum(0.0, (x @ model["weights"].T) + model["intercepts"])


def check_predictions(model: dict, x: sp.csr_matrix, ids: list[str], preds: list[dict],
                      label: str) -> list[str]:
    """Every prediction equals max(0, Xw + b) for its row."""
    expected = expected_predictions(model, x)
    if [p["id"] for p in preds] != ids:
        return [f"{label}: prediction ids differ from the sample ids"]
    for i, pred in enumerate(preds):
        for t, target in enumerate(model["targets"]):
            if target not in pred:
                continue
            want = expected[i, t]
            if abs(pred[target] - want) > PREDICTION_TOL * (1.0 + abs(want)):
                return [f"{label}: {pred['id']} {target} = {pred[target]!r}, "
                        f"expected {float(want)!r}"]
    return []


def load_rules(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {k: v for k, v in json.load(fh).items() if not k.startswith("_")}


def within(bands: list[dict], reference: float, predicted: float) -> bool:
    """EU band selected by the label; margins absolute or relative; ends inclusive."""
    band = next(b for b in bands if b["upper"] is None or reference < b["upper"])
    margin = band["margin"] if band["margin_kind"] == "absolute_g" else band["margin"] * reference
    return max(0.0, reference - margin) <= predicted <= reference + margin


def accuracy(rules: dict, labels: dict, preds: dict) -> dict[str, tuple[int, int]]:
    """(n, within) per scored nutrient; a missing prediction counts as outside."""
    counts = {}
    for nutrient in SCORED:
        hits = sum(1 for sid, lab in labels.items()
                   if sid in preds and within(rules[nutrient], lab[nutrient], preds[sid][nutrient]))
        counts[nutrient] = (len(labels), hits)
    return counts


def mean_accuracy_pct(counts: dict[str, tuple[int, int]]) -> float:
    return sum(100.0 * hits / n for n, hits in counts.values()) / len(counts)


def check_report(counts: dict[str, tuple[int, int]], report: dict) -> list[str]:
    """``evaluate --json-out`` agrees with the recomputed accuracy."""
    failures = []
    for nutrient, (n, hits) in counts.items():
        got = report.get(nutrient, {})
        want = {"n": n, "within": hits, "accuracy": round(100.0 * hits / n, 2)}
        if got != want:
            failures.append(f"evaluate report for {nutrient}: {got}, recomputed {want}")
    return failures


def check_beats_constant(rules: dict, train: list[dict], labels: dict,
                         preds: dict) -> list[str]:
    """The selected model beats predicting the training mean for every sample."""
    means = {n: sum(r["labels"][n] for r in train) / len(train) for n in SCORED}
    constant = mean_accuracy_pct(accuracy(rules, labels, {sid: means for sid in labels}))
    model = mean_accuracy_pct(accuracy(rules, labels, preds))
    if model <= constant:
        return [f"model mean accuracy {model:.2f} does not beat the train-mean "
                f"predictor's {constant:.2f}"]
    return []


def check_stub_values(rows: list[dict], expected: dict[str, dict], requested: list[str],
                      label: str) -> list[str]:
    """Every requested sample comes back, in order, with the values the stub sent.

    A sample the program dropped, or answered with anything but the stub's
    values (a fallback to its input prediction, say), fails the check.
    """
    got_ids = [row["id"] for row in rows]
    if got_ids != requested:
        missing = [i for i in requested if i not in set(got_ids)]
        return [f"{label}: returned {len(got_ids)} of {len(requested)} requested samples"
                + (f", missing {missing[:3]}" if missing else ", not in request order")]
    for row in rows:
        want = expected.get(row["id"])
        got = {n: row[n] for n in SCORED}
        if got != want:
            return [f"{label}: {row['id']} is {got}, the stub sent {want}"]
    return []


def check_replay(live: bytes, replays: list[bytes], requests_during_replay: int) -> list[str]:
    """Each replay from the transcript is byte-identical to the live run and stays offline."""
    failures = [f"replay {i} output differs from the live output"
                for i, out in enumerate(replays) if out != live]
    if requests_during_replay:
        failures.append(f"the stub received {requests_during_replay} requests during replay")
    return failures
