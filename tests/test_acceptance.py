"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1 and 2 compare
against the published ingredients corpus, which this repository does not ship;
point RECIPE_NUTRIENTS_T11_RAW at a local jsonl/csv copy (prompt/answer rows)
to activate them, otherwise they skip with an explanation.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from conftest import Scripted, completion_body, make_raw_rows, write_jsonl

from recipe_nutrients import cli
from recipe_nutrients.dataset import NutrientVector, parse_answer, render_answer
from recipe_nutrients.evaluate import load_rules, within_tolerance
from recipe_nutrients.features import (
    CombinedVectorizer, VectorizerConfig, char_config, fit, transform_combined,
)
from recipe_nutrients.kernels import from_dense
from recipe_nutrients.llm import (
    EndpointConfig, FewShotBank, ChatRequest, complete, complete_many, merge_predictions,
    parse_llm_nutrients, parse_refine_json, parse_replies, render_direct_prompt,
    render_refine_prompt,
)
from recipe_nutrients.ridge import (
    NutrientPrediction, RidgeConfig, RidgeModel, load_model, predict,
    save_model, train,
)
from recipe_nutrients.evaluate import bench_latency

T11_RAW = os.environ.get("RECIPE_NUTRIENTS_T11_RAW")
T11_SKIP = ("published ingredients corpus not available (offline sandbox); "
            "set RECIPE_NUTRIENTS_T11_RAW to a local prompt/answer jsonl or csv to run")

TABLE2_BASELINE = {"sugars": 50.26, "protein": 64.62, "fat": 40.58, "saturates": 50.33}
BASELINE_TOLERANCE = 3.0


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL")
        raise
    print(f"\n[criterion {number}] {name}: PASS")


# --- criterion 1: dataset fidelity -------------------------------------------

def test_criterion_1_dataset_fidelity_structural(tmp_path, capsys):
    """Split arithmetic and prepare runtime at the corpus scale (synthetic)."""
    with criterion(1, "dataset fidelity (structural, synthetic corpus)"):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, make_raw_rows(14_512, seed=1, n_duplicates=800))
        start = time.perf_counter()
        assert cli.run(["prepare", "--in", str(raw), "--out", str(tmp_path / "data"),
                        "--ratio", "0.8", "--seed", "42"]) == 0
        elapsed = time.perf_counter() - start
        output = capsys.readouterr().out
        assert "after dedup:      14512" in output
        assert "train:            11609" in output
        assert "validation:       2903" in output
        assert elapsed < 30.0, f"prepare took {elapsed:.1f}s (budget 30s)"


@pytest.mark.skipif(not T11_RAW, reason=T11_SKIP)
def test_criterion_1_dataset_fidelity_published_corpus(tmp_path, capsys):
    with criterion(1, "dataset fidelity (published corpus)"):
        fmt = "csv" if T11_RAW.endswith(".csv") else "jsonl"
        start = time.perf_counter()
        assert cli.run(["prepare", "--in", T11_RAW, "--format", fmt,
                        "--out", str(tmp_path / "data"),
                        "--ratio", "0.8", "--seed", "42"]) == 0
        elapsed = time.perf_counter() - start
        output = capsys.readouterr().out
        counts = {}
        for line in output.splitlines():
            if ":" in line:
                key, _, value = line.partition(":")
                counts[key.strip()] = value.strip()
        deduped = int(counts["after dedup"])
        train_n = int(counts["train"])
        val_n = int(counts["validation"])
        print(f"published corpus: dedup {deduped}, split {train_n}/{val_n}")
        assert abs(deduped - 14_512) <= 0.005 * 14_512, (
            f"dedup count {deduped} is outside the +/-0.5% band around 14,512; "
            "the official dedup criterion must differ, document the delta")
        if deduped != 14_512:
            print(f"CONDITIONAL: dedup count {deduped} != 14,512 but within +/-0.5%; "
                  "the normalization key likely differs from the official tool")
        else:
            assert (train_n, val_n) == (11_609, 2_903)
        assert elapsed < 30.0


# --- criterion 2: baseline reproduction ---------------------------------------

@pytest.mark.skipif(not T11_RAW, reason=T11_SKIP)
def test_criterion_2_baseline_reproduction(tmp_path, capsys):
    with criterion(2, "baseline accuracy within +/-3.0 of reported values"):
        fmt = "csv" if T11_RAW.endswith(".csv") else "jsonl"
        start = time.perf_counter()
        data_dir = tmp_path / "data"
        assert cli.run(["prepare", "--in", T11_RAW, "--format", fmt,
                        "--out", str(data_dir), "--ratio", "0.8", "--seed", "42"]) == 0
        model_path = tmp_path / "model.bin"
        assert cli.run(["train", "--train", str(data_dir / "train.jsonl"),
                        "--out", str(model_path),
                        "--alpha-grid", "0.1,1,10,100",
                        "--val", str(data_dir / "val.jsonl")]) == 0
        preds_path = tmp_path / "preds.jsonl"
        assert cli.run(["predict", "--model", str(model_path),
                        "--in", str(data_dir / "val.jsonl"),
                        "--out", str(preds_path)]) == 0
        report_path = tmp_path / "report.json"
        assert cli.run(["evaluate", "--pred", str(preds_path),
                        "--labels", str(data_dir / "val.jsonl"),
                        "--json-out", str(report_path)]) == 0
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        for nutrient, expected in TABLE2_BASELINE.items():
            actual = report[nutrient]["accuracy"]
            print(f"{nutrient}: {actual:.2f} (reported {expected}, +/-{BASELINE_TOLERANCE})")
            assert abs(actual - expected) <= BASELINE_TOLERANCE, (
                f"{nutrient} accuracy {actual:.2f} outside {expected}+/-{BASELINE_TOLERANCE}"
                " (split-seed mismatch is the acknowledged noise source)")
        assert elapsed < 600.0, f"train+evaluate took {elapsed:.0f}s (budget 600s)"


# --- criterion 3: solver oracle ------------------------------------------------

def test_criterion_3_solver_matches_closed_form():
    with criterion(3, "cg solver matches closed-form ridge on 100 dense systems"):
        rng = np.random.default_rng(12345)
        start = time.perf_counter()
        for case in range(100):
            n = int(rng.integers(5, 51))
            d = int(rng.integers(2, 21))
            alpha = (0.1, 1.0, 10.0)[case % 3]
            X = rng.normal(size=(n, d))
            y = rng.random(n) * 10
            labels = [NutrientVector(energy=0, fat=v, protein=0, salt=0,
                                     saturates=0, sugars=0) for v in y]
            model = train(from_dense(X), labels, ["fat"],
                          RidgeConfig(alpha=alpha, fit_intercept=False,
                                      solver_tol=1e-12, max_iterations=10_000))
            closed = np.linalg.solve(X.T @ X + alpha * np.eye(d), X.T @ y)
            worst = np.abs(model.weights[0] - closed).max()
            assert worst <= 1e-6, f"case {case}: max coordinate error {worst:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"solver oracle took {elapsed:.1f}s (budget 10s)"


# --- criterion 4: tf-idf oracle -------------------------------------------------

# hand computation, 4 docs, word 1-2-grams, min_df=1, max_df=1.0, sublinear tf:
# df counts: oil in 3 docs, olive/"olive oil" in 2, the rest in 1
# idf = ln((1+4)/(1+df)) + 1
ORACLE_IDF = {
    "butter": 1.916290731874155, "butter stick": 1.916290731874155,
    "corn": 1.916290731874155, "corn oil": 1.916290731874155,
    "extra": 1.916290731874155, "extra virgin": 1.916290731874155,
    "oil": 1.2231435513142097, "oil extra": 1.916290731874155,
    "olive": 1.5108256237659907, "olive oil": 1.5108256237659907,
    "stick": 1.916290731874155, "virgin": 1.916290731874155,
}
# "olive oil oil corn": tf(oil)=2 -> (1+ln 2) * idf; others tf=1; L2-normalized
ORACLE_TRANSFORM = {
    "corn": 0.5414408239532889,
    "oil": 0.5851426315233474,
    "olive": 0.42687816466218764,
    "olive oil": 0.42687816466218764,
}


def test_criterion_4_tfidf_matches_hand_computation():
    with criterion(4, "tf-idf fit/transform match hand computation at 1e-9"):
        corpus = ["olive oil", "olive oil, extra virgin", "corn oil", "butter stick"]
        config = VectorizerConfig(mode="word", ngram_min=1, ngram_max=2, min_df=1,
                                  max_df=1.0, max_features=100, sublinear_tf=True,
                                  remove_stopwords=False)
        vocab = fit(corpus, config)
        assert set(vocab.term_to_index) == set(ORACLE_IDF)
        for term, expected in ORACLE_IDF.items():
            assert abs(vocab.idf[vocab.term_to_index[term]] - expected) <= 1e-9, term

        # the row predict and bench build; its word part is columns [0, len(vocab))
        cv = CombinedVectorizer(word=vocab, char=fit(corpus, char_config(min_df=1)))
        vec = transform_combined("olive oil oil corn", cv)
        by_term = {term: 0.0 for term in vocab.term_to_index}
        for index, value in zip(vec.indices, vec.data):
            if index < len(vocab):
                term = next(t for t, i in vocab.term_to_index.items() if i == int(index))
                by_term[term] = float(value)
        for term, expected in ORACLE_TRANSFORM.items():
            assert abs(by_term[term] - expected) <= 1e-9, term
        for term, value in by_term.items():
            if term not in ORACLE_TRANSFORM:
                assert value == 0.0, term


# --- criterion 5: tolerance oracle ----------------------------------------------

def _oracle_band_table() -> dict[str, list[dict]]:
    """Independent read of the shipped band file, bypassing the eval module."""
    ref = resources.files("recipe_nutrients.data") / "eu_tolerances.json"
    raw = json.loads(ref.read_text(encoding="utf-8"))
    return {name: bands for name, bands in raw.items() if not name.startswith("_")}


def _oracle_within(bands: list[dict], reference: float, predicted: float) -> bool:
    chosen = None
    for band in bands:
        upper = math.inf if band["upper"] is None else band["upper"]
        if band["lower"] <= reference < upper:
            chosen = band
            break
    assert chosen is not None
    if chosen["margin_kind"] == "absolute_g":
        margin = chosen["margin"]
    else:
        margin = chosen["margin"] * reference
    lo = max(0.0, reference - margin)
    hi = reference + margin
    return lo <= predicted <= hi


def test_criterion_5_tolerance_oracle_agreement():
    with criterion(5, "tolerance checks agree with brute-force oracle on 10,000-point grid"):
        rules = load_rules()
        table = _oracle_band_table()
        grid = np.linspace(0.0, 100.0, 100)
        for nutrient in ("fat", "saturates", "sugars", "protein", "salt"):
            rule = rules[nutrient]
            bands = table[nutrient]
            disagreements = 0
            for reference in grid:
                for predicted in grid:
                    a = within_tolerance(rule, float(reference), float(predicted))
                    b = _oracle_within(bands, float(reference), float(predicted))
                    disagreements += a != b
            assert disagreements == 0, f"{nutrient}: {disagreements} grid disagreements"


# --- criterion 6: format round-trips --------------------------------------------

def test_criterion_6_answer_and_model_round_trips(tmp_path):
    with criterion(6, "answer-string and model-file round-trips on 1,000 instances each"):
        rng = random.Random(99)
        names = ("energy", "fat", "protein", "salt", "saturates", "sugars")
        for _ in range(1000):
            v = NutrientVector(**{n: round(rng.uniform(0, 10_000), rng.randint(0, 5))
                                  for n in names})
            parsed = parse_answer(render_answer(v))
            for n in names:
                assert abs(getattr(parsed, n) - getattr(v, n)) <= 0.005 + 1e-9

        np_rng = np.random.default_rng(77)
        path = tmp_path / "model.bin"
        for i in range(1000):
            dim = int(np_rng.integers(1, 40))
            n_targets = int(np_rng.integers(1, 5))
            model = RidgeModel(
                targets=["fat", "protein", "saturates", "sugars"][:n_targets],
                weights=np_rng.normal(size=(n_targets, dim)),
                intercepts=np_rng.normal(size=n_targets),
                feature_dim=dim, config=RidgeConfig(),
                vectorizer_fingerprint=f"sha256:{i}")
            save_model(model, path)
            loaded = load_model(path)
            assert np.array_equal(loaded.weights, model.weights)
            assert np.array_equal(loaded.intercepts, model.intercepts)
            assert (loaded.targets, loaded.feature_dim, loaded.config,
                    loaded.vectorizer_fingerprint) == (
                model.targets, model.feature_dim, model.config,
                model.vectorizer_fingerprint)

        wide = RidgeModel(targets=["fat", "protein", "saturates", "sugars"],
                          weights=np_rng.normal(size=(4, 20_000)),
                          intercepts=np_rng.normal(size=4),
                          feature_dim=20_000, config=RidgeConfig())
        save_model(wide, path)
        assert np.array_equal(load_model(path).weights, wide.weights)


# --- criterion 7: llm tier, offline ---------------------------------------------

FIG1_ANSWER1 = "Nutrient values per 100 g: fat - 8.55, protein - 12.31, saturates - 1.72, sugars - 14.17"
FIG1_ANSWER2 = "Nutrient values per 100 g: fat - 14.20, protein - 3.10, saturates - 2.15, sugars - 0.50"


def test_criterion_7_llm_tier_offline(endpoint_stub):
    with criterion(7, "llm render/parse/refine/merge contracts against scripted stubs"):
        # the printed exemplar answers parse exactly
        assert parse_llm_nutrients(FIG1_ANSWER1) == NutrientPrediction(
            fat=8.55, protein=12.31, saturates=1.72, sugars=14.17)
        assert parse_llm_nutrients(FIG1_ANSWER2) == NutrientPrediction(
            fat=14.20, protein=3.10, saturates=2.15, sugars=0.50)

        # the default bank renders those exact strings as assistant turns
        req = render_direct_prompt("1 cup oats", FewShotBank.default())
        assert req.messages[1]["content"] == FIG1_ANSWER1
        assert req.messages[3]["content"] == FIG1_ANSWER2

        # retry contract: 429 twice then success
        endpoint_stub.script(Scripted(429, b""), Scripted(429, b""),
                             Scripted(200, completion_body("ok")))
        ep = EndpointConfig(base_url=endpoint_stub.base_url, model_name="stub",
                            timeout=5.0, max_retries=2, backoff_base=0.01)
        assert complete(ChatRequest(system="s",
                                    messages=({"role": "user", "content": "u"},)), ep) == "ok"

        # refinement, through the calls the refine command makes, falls back
        # on garbage and adopts valid json
        base = NutrientPrediction(fat=1, protein=2, saturates=3, sugars=4)

        def refine(text: str) -> NutrientPrediction:
            items = [("s1", render_refine_prompt(text, base))]
            refined = parse_replies(complete_many(items, ep), parse_refine_json)
            return merge_predictions({"s1": base}, refined, set(refined))["s1"]

        endpoint_stub.default = Scripted(200, completion_body("no numbers here"))
        assert refine("1 cup oats") == base
        endpoint_stub.default = Scripted(200, completion_body(
            '{"protein_g": 9, "fat_g": 8, "sugars_g": 7, "saturates_g": 6}'))
        assert refine("1 cup oats") == NutrientPrediction(
            fat=8, protein=9, saturates=6, sugars=7)

        # merge changes exactly the given id set
        base_preds = {str(i): NutrientPrediction(fat=float(i), protein=0, saturates=0,
                                                 sugars=0) for i in range(100)}
        ids = {str(i) for i in range(0, 100, 7)}
        override = {i: NutrientPrediction(fat=500.0, protein=0, saturates=0, sugars=0)
                    for i in ids}
        merged = merge_predictions(base_preds, override, ids)
        assert {k for k in base_preds if merged[k] != base_preds[k]} == ids


# --- criterion 8: latency --------------------------------------------------------

def test_criterion_8_predict_latency(trained_pipeline):
    with criterion(8, "mean predict latency <= 10 ms per sample over >= 1,000 samples"):
        from recipe_nutrients.dataset import load_samples
        model = load_model(trained_pipeline["model"])
        cv = CombinedVectorizer.load(f"{trained_pipeline['model']}.vocab.json")
        texts = [s.ingredient_text for s in load_samples(trained_pipeline["val"])]
        assert len(texts) >= 1000

        def predict_one(text: str) -> NutrientPrediction:
            return predict(model, transform_combined(text, cv))

        stats = bench_latency(predict_one, texts, warmup=50)
        print(f"\nlatency: {stats.format_line()}")
        assert stats.n >= 1000
        assert stats.mean <= 0.010, f"mean latency {stats.mean * 1e3:.2f} ms exceeds 10 ms"


# --- criterion 9: hybrid merge semantics ------------------------------------------

def test_criterion_9_hybrid_merge_700_of_2000():
    with criterion(9, "700-id override changes exactly those 700 of 2,000 entries"):
        rng = random.Random(42)
        base = {f"s{i:04d}": NutrientPrediction(fat=float(i % 50), protein=1.0,
                                                saturates=0.5, sugars=2.0)
                for i in range(2000)}
        ids = set(rng.sample(sorted(base), 700))
        override = {i: NutrientPrediction(fat=999.0, protein=999.0, saturates=999.0,
                                          sugars=999.0) for i in ids}
        merged = merge_predictions(base, override, ids)
        assert len(merged) == 2000
        changed = {k for k in base if merged[k] != base[k]}
        assert changed == ids
        assert len(changed) == 700
        assert all(merged[k] == base[k] for k in set(base) - ids)
