import json
import math
import re
import time
from importlib import resources

import pytest

from recipe_nutrients.dataset import NutrientVector
from recipe_nutrients.evaluate import (
    Band,
    ToleranceRule,
    bench_latency,
    evaluate,
    load_predictions,
    load_rules,
    save_predictions,
    tolerance_interval,
    within_tolerance,
)
from recipe_nutrients.ridge import NutrientPrediction


@pytest.fixture(scope="module")
def rules():
    return load_rules()


def label(fat=0, protein=0, saturates=0, sugars=0, energy=0, salt=0):
    return NutrientVector(energy=energy, fat=fat, protein=protein, salt=salt,
                          saturates=saturates, sugars=sugars)


def pred(fat=0, protein=0, saturates=0, sugars=0):
    return NutrientPrediction(fat=fat, protein=protein, saturates=saturates, sugars=sugars)


class TestToleranceInterval:
    def test_fat_small_band_absolute(self, rules):
        assert tolerance_interval(rules["fat"], 5.0) == (3.5, 6.5)

    def test_fat_mid_band_relative(self, rules):
        assert tolerance_interval(rules["fat"], 20.0) == (16.0, 24.0)

    def test_at_zero_clamps_lower(self, rules):
        for name, rule in rules.items():
            lo, hi = tolerance_interval(rule, 0.0)
            assert lo == 0.0
            first = rule.bands[0]
            if first.margin_kind == "absolute_g":
                assert hi == first.margin

    def test_negative_reference_rejected(self, rules):
        with pytest.raises(ValueError, match=">= 0"):
            tolerance_interval(rules["fat"], -1.0)

    def test_relative_band_width_grows_linearly(self, rules):
        # fat band [10, 40) is relative: width == 2 * 0.2 * reference
        for reference in (10.0, 15.0, 25.0, 39.0):
            lo, hi = tolerance_interval(rules["fat"], reference)
            assert hi - lo == pytest.approx(2 * 0.2 * reference)


class TestWithinTolerance:
    def test_exact_prediction_always_passes(self, rules):
        for rule in rules.values():
            for reference in [0.0, 0.5, 3.99, 4.0, 9.99, 10.0, 25.0, 40.0, 120.0]:
                assert within_tolerance(rule, reference, reference)

    def test_fat_20_25_fails(self, rules):
        assert not within_tolerance(rules["fat"], 20.0, 25.0)

    def test_protein_50_57_passes(self, rules):
        assert within_tolerance(rules["protein"], 50.0, 57.0)

    def test_endpoints_inclusive(self, rules):
        assert within_tolerance(rules["fat"], 5.0, 6.5)
        assert within_tolerance(rules["fat"], 5.0, 3.5)
        assert not within_tolerance(rules["fat"], 5.0, 6.5000001)


class TestBandPartition:
    def test_exactly_one_band_matches_on_grid(self, rules):
        for rule in rules.values():
            for i in range(0, 20_001):
                reference = i * 0.01
                hits = sum(
                    1 for band in rule.bands
                    if band.lower <= reference and (band.upper is None or reference < band.upper))
                assert hits == 1, (rule.nutrient, reference)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            ToleranceRule("x", (Band(0, 10, "absolute_g", 1), Band(12, None, "absolute_g", 1)))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            ToleranceRule("x", (Band(0, 10, "absolute_g", 1), Band(8, None, "absolute_g", 1)))

    def test_unbounded_tail_required(self):
        with pytest.raises(ValueError, match="cover"):
            ToleranceRule("x", (Band(0, 10, "absolute_g", 1),))

    def test_bad_margin_kind_rejected(self):
        with pytest.raises(ValueError, match="margin kind"):
            ToleranceRule("x", (Band(0, None, "percent", 1),))


class TestEvaluate:
    def test_identical_predictions_score_100(self, rules):
        labels = {str(i): label(fat=i + 1, protein=2 * i + 1, saturates=i + 0.5, sugars=3.0)
                  for i in range(10)}
        preds = {k: pred(fat=v.fat, protein=v.protein, saturates=v.saturates, sugars=v.sugars)
                 for k, v in labels.items()}
        report = evaluate(preds, labels, rules)
        assert all(s.accuracy_percent == 100.0 for s in report.per_nutrient.values())

    def test_single_fat_miss(self, rules):
        labels = {"a": label(fat=5.0, protein=3.0, saturates=1.0, sugars=2.0)}
        preds = {"a": pred(fat=7.0, protein=3.0, saturates=1.0, sugars=2.0)}
        report = evaluate(preds, labels, rules)
        assert report.per_nutrient["fat"].accuracy_percent == 0.0
        for name in ("protein", "saturates", "sugars"):
            assert report.per_nutrient[name].accuracy_percent == 100.0

    def test_fifty_fifty(self, rules):
        labels = {"a": label(fat=5, protein=5, saturates=2, sugars=5),
                  "b": label(fat=30, protein=30, saturates=30, sugars=30)}
        preds = {"a": pred(fat=5, protein=5, saturates=2, sugars=5),
                 "b": pred(fat=90, protein=90, saturates=90, sugars=90)}
        report = evaluate(preds, labels, rules)
        assert all(s.accuracy_percent == 50.0 for s in report.per_nutrient.values())

    def test_missing_predictions_fail_and_are_counted(self, rules):
        labels = {"a": label(fat=5, protein=5, saturates=2, sugars=5),
                  "b": label(fat=5, protein=5, saturates=2, sugars=5)}
        preds = {"a": pred(fat=5, protein=5, saturates=2, sugars=5)}
        report = evaluate(preds, labels, rules)
        assert report.n_missing == 1
        assert all(s.accuracy_percent == 50.0 for s in report.per_nutrient.values())

    def test_unknown_prediction_id_rejected(self, rules):
        labels = {"a": label(fat=5, protein=5, saturates=2, sugars=5)}
        preds = {"zz": pred(fat=5, protein=5, saturates=2, sugars=5)}
        with pytest.raises(ValueError, match="no label"):
            evaluate(preds, labels, rules)

    def test_empty_predictions_rejected(self, rules):
        with pytest.raises(ValueError, match="empty"):
            evaluate({}, {"a": label()}, rules)

    def test_permutation_invariant(self, rules):
        labels = {f"s{i}": label(fat=i, protein=i, saturates=i / 2, sugars=i) for i in range(1, 30)}
        preds = {k: pred(fat=v.fat + 1, protein=v.protein, saturates=v.saturates,
                         sugars=v.sugars + 3) for k, v in labels.items()}
        forward = evaluate(preds, labels, rules)
        shuffled_labels = dict(reversed(labels.items()))
        shuffled_preds = dict(reversed(preds.items()))
        backward = evaluate(shuffled_preds, shuffled_labels, rules)
        assert forward.to_dict() == backward.to_dict()

    def test_scored_nutrient_without_rule_rejected(self, rules):
        partial = {n: rule for n, rule in rules.items() if n != "sugars"}
        with pytest.raises(ValueError, match="no tolerance rule for nutrient 'sugars'"):
            evaluate({"a": pred(fat=5)}, {"a": label(fat=5)}, partial)

    def test_report_table_format(self, rules):
        labels = {"a": label(fat=5, protein=5, saturates=2, sugars=5)}
        preds = {"a": pred(fat=5, protein=5, saturates=2, sugars=5)}
        table = evaluate(preds, labels, rules).format_table()
        assert "fat" in table and "100.00" in table


class TestRulesFile:
    def test_packaged_defaults_cover_all_six(self, rules):
        assert set(rules) == {"fat", "saturates", "sugars", "protein", "salt", "energy"}

    def test_custom_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({
            "fat": [{"lower": 0, "upper": None, "margin_kind": "absolute_g", "margin": 1.0}]}))
        custom = load_rules(path)
        assert within_tolerance(custom["fat"], 50.0, 51.0)
        assert not within_tolerance(custom["fat"], 50.0, 51.5)

    def test_notes_keys_ignored(self, rules):
        assert "_notes" not in rules

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_names_file(self, tmp_path, margin):
        packaged = resources.files("recipe_nutrients.data") / "eu_tolerances.json"
        raw = json.loads(packaged.read_text(encoding="utf-8"))
        raw["fat"][0]["margin"] = margin
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*finite"):
            load_rules(path)


class TestBenchLatency:
    def test_constant_stub(self):
        stats = bench_latency(lambda s: time.sleep(0.001), [0] * 30, warmup=3)
        assert 0.0005 < stats.mean < 0.02
        assert stats.median <= stats.p95 <= stats.p99
        assert stats.wall_clock_total >= stats.mean * stats.n * 0.5

    def test_single_sample(self):
        stats = bench_latency(lambda s: None, [1], warmup=0)
        assert stats.n == 1
        assert stats.mean == stats.median == stats.p95 == stats.p99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bench_latency(lambda s: None, [], warmup=0)


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        preds = {"a": pred(fat=1.25, protein=2.5, saturates=0.5, sugars=9.75),
                 "b": pred(fat=0, protein=0, saturates=0, sugars=0)}
        path = tmp_path / "preds.jsonl"
        save_predictions(path, preds)
        assert load_predictions(path) == preds

    def test_bad_record_reported(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a", "fat": 1}\n')
        with pytest.raises(ValueError, match="record 0"):
            load_predictions(path)

    def test_duplicate_id_names_file_and_record(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        row = {"fat": 1, "protein": 2, "saturates": 0.5, "sugars": 3}
        path.write_text("".join(json.dumps({"id": i, **row}) + "\n" for i in ("a", "b", "a")))
        with pytest.raises(ValueError, match=r"preds\.jsonl: record 2 has duplicate id 'a'"):
            load_predictions(path)
