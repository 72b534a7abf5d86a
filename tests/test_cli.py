import ast
import json
import logging
import math
import pkgutil
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import Scripted, ScriptedServer, completion_body, make_raw_rows, write_jsonl

from recipe_nutrients import cli, features, ridge
from recipe_nutrients.evaluate import load_predictions
from recipe_nutrients.dataset import SCORED_NUTRIENTS, RecipeSample, load_samples, save_samples
from recipe_nutrients.features import CombinedVectorizer, transform_batch
from recipe_nutrients.util import atomic_write


def run(*argv):
    return cli.run(list(argv))


def stub_config(tmp_path, stub, **profile):
    """A config file whose "local" profile points at the scripted endpoint."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"endpoints": {"local": {
        "base_url": stub.base_url, "model_name": "stub", "timeout": 5.0, "backoff_base": 0.01,
        **profile}}}))
    return str(path)


def refine_inputs(trained_pipeline, tmp_path, n):
    """n validation samples and a --pred file for them in reverse sample order."""
    samples = load_samples(trained_pipeline["val"])[:n]
    subset = tmp_path / "subset.jsonl"
    save_samples(subset, samples)
    rows = [{"id": s.id, "fat": float(i), "protein": 1.0, "saturates": 0.5, "sugars": 2.0}
            for i, s in enumerate(reversed(samples))]
    preds_path = tmp_path / "preds.jsonl"
    write_jsonl(preds_path, rows)
    return subset, preds_path, [row["id"] for row in rows]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("prepare", "--out", "x") == 2
        capsys.readouterr()

    def test_missing_file_is_operational_error(self, tmp_path, capsys):
        assert run("prepare", "--in", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "out")) == 1
        assert "error:" in capsys.readouterr().err


class TestPrepare:
    def test_counts_and_outputs(self, raw_corpus, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert run("prepare", "--in", str(raw_corpus), "--out", str(out_dir),
                   "--ratio", "0.8", "--seed", "42") == 0
        output = capsys.readouterr().out
        assert "raw records:      440" in output
        assert "after dedup:      400" in output
        assert "train:            320" in output
        assert "validation:       80" in output
        train = load_samples(out_dir / "train.jsonl")
        val = load_samples(out_dir / "val.jsonl")
        assert len(train) == 320 and len(val) == 80
        assert all(s.labels is not None for s in train)

    def test_no_partial_output_on_bad_input(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"prompt": "ingredients: x", "answer": "no numbers"}\n')
        out_dir = tmp_path / "data"
        assert run("prepare", "--in", str(bad), "--out", str(out_dir)) == 1
        assert not out_dir.exists()

    def test_bad_answer_names_file_record_and_id(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, [
            {"id": "a1", "prompt": "ingredients: oats",
             "answer": "energy - 1, fat - 2, protein - 1, salt - 0, saturates - 1, sugars - 1"},
            {"id": "b2", "prompt": "ingredients: rye",
             "answer": "energy - 1, fat - 1e, protein - 1, salt - 0, saturates - 1, sugars - 1"}])
        assert run("prepare", "--in", str(raw), "--out", str(tmp_path / "data")) == 1
        err = capsys.readouterr().err
        assert f"{raw}: record 1 (id 'b2'): " in err and "'fat'" in err

    def test_empty_split_refused_before_writing(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, make_raw_rows(3, seed=1))
        out_dir = tmp_path / "data"
        assert run("prepare", "--in", str(raw), "--out", str(out_dir), "--ratio", "0.3") == 1
        assert ("error: ratio 0.3 of 3 samples leaves an empty split (train 0, validation 3)"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("case, message", [
        ("not_utf8", "'utf-8' codec can't decode"),
        ("huge_field", "field larger than field limit")], ids=["not_utf8", "huge_field"])
    def test_bad_csv_names_file(self, tmp_path, capsys, case, message):
        raw, out_dir = tmp_path / "raw.csv", tmp_path / "data"
        answer = "fat - 1, protein - 1, saturates - 0, sugars - 1, energy - 9, salt - 0"
        # the second record's prompt holds a byte that is not utf-8, or a
        # field over the csv module's limit of 131,072 characters
        rye = b"rye \xff" if case == "not_utf8" else b"rye " + b"x" * 200_000
        raw.write_bytes(f"id,prompt,answer\na,ingredients: oats,{answer}\n".encode()
                        + b"b,ingredients: " + rye + f",{answer}\n".encode())
        assert run("prepare", "--format", "csv", "--in", str(raw), "--out", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {raw}: ") and message in err and err.count("\n") == 1
        assert not out_dir.exists()

    def test_deterministic_across_runs(self, raw_corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("prepare", "--in", str(raw_corpus), "--out", str(out),
                       "--ratio", "0.8", "--seed", "7") == 0
        assert (a / "train.jsonl").read_bytes() == (b / "train.jsonl").read_bytes()
        assert (a / "val.jsonl").read_bytes() == (b / "val.jsonl").read_bytes()


class TestTrainPredictEvaluate:
    def test_predict_writes_predictions(self, trained_pipeline, tmp_path, capsys):
        preds_path = tmp_path / "preds.jsonl"
        assert run("predict", "--model", str(trained_pipeline["model"]),
                   "--in", str(trained_pipeline["val"]), "--out", str(preds_path)) == 0
        capsys.readouterr()
        preds = load_predictions(preds_path)
        val = load_samples(trained_pipeline["val"])
        assert set(preds) == {s.id for s in val}

    def test_predictions_byte_identical_across_runs(self, trained_pipeline, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("predict", "--model", str(trained_pipeline["model"]),
                       "--in", str(trained_pipeline["val"]), "--out", str(out)) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_evaluate_reports_scores(self, trained_pipeline, tmp_path, capsys):
        preds_path = tmp_path / "preds.jsonl"
        run("predict", "--model", str(trained_pipeline["model"]),
            "--in", str(trained_pipeline["val"]), "--out", str(preds_path))
        json_out = tmp_path / "report.json"
        assert run("evaluate", "--pred", str(preds_path),
                   "--labels", str(trained_pipeline["val"]),
                   "--json-out", str(json_out)) == 0
        output = capsys.readouterr().out
        assert "fat" in output and "accuracy" in output
        report = json.loads(json_out.read_text())
        assert set(report) == {"fat", "protein", "saturates", "sugars", "n_missing"}
        assert report["n_missing"] == 0
        # synthetic labels are near-linear in the features: far better than chance
        assert sum(report[n]["accuracy"] for n in SCORED_NUTRIENTS) / 4 > 30.0

    def test_evaluate_report_counts_missing_predictions(self, trained_pipeline, tmp_path,
                                                        capsys):
        preds_path = tmp_path / "preds.jsonl"
        run("predict", "--model", str(trained_pipeline["model"]),
            "--in", str(trained_pipeline["val"]), "--out", str(preds_path))
        # the first label id loses its prediction
        rows = preds_path.read_text().splitlines(keepends=True)
        preds_path.write_text("".join(rows[1:]))
        json_out = tmp_path / "report.json"
        assert run("evaluate", "--pred", str(preds_path),
                   "--labels", str(trained_pipeline["val"]),
                   "--json-out", str(json_out)) == 0
        assert "missing predictions: 1" in capsys.readouterr().out
        report = json.loads(json_out.read_text())
        assert report["n_missing"] == 1
        assert all(report[n]["n"] == len(rows) for n in SCORED_NUTRIENTS)

    def test_fingerprint_mismatch_refused(self, trained_pipeline, tmp_path, capsys):
        # retrain a vectorizer on different data and pair the model with it
        other_raw = tmp_path / "other.jsonl"
        write_jsonl(other_raw, make_raw_rows(120, seed=99))
        other_dir = tmp_path / "other"
        run("prepare", "--in", str(other_raw), "--out", str(other_dir))
        other_model = tmp_path / "other.bin"
        assert run("train", "--train", str(other_dir / "train.jsonl"),
                   "--out", str(other_model)) == 0
        capsys.readouterr()
        model_path = tmp_path / "model.bin"
        shutil.copyfile(trained_pipeline["model"], model_path)
        shutil.copyfile(f"{other_model}.vocab.json", f"{model_path}.vocab.json")
        assert run("predict", "--model", str(model_path),
                   "--in", str(trained_pipeline["val"]),
                   "--out", str(tmp_path / "p.jsonl")) == 1
        assert "fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_model_lacking_scored_nutrient_refused(self, trained_pipeline, tmp_path, capsys,
                                                    command):
        full = ridge.load_model(trained_pipeline["model"])
        fat_only = ridge.RidgeModel(
            targets=["fat"], weights=full.weights[:1], intercepts=full.intercepts[:1],
            feature_dim=full.feature_dim, config=full.config,
            vectorizer_fingerprint=full.vectorizer_fingerprint)
        model_path = tmp_path / "fat.bin"
        ridge.save_model(fat_only, model_path)
        shutil.copyfile(f"{trained_pipeline['model']}.vocab.json", f"{model_path}.vocab.json")
        out = tmp_path / "p.jsonl"
        argv = [command, "--model", str(model_path), "--in", str(trained_pipeline["val"])]
        assert run(*argv, *(["--out", str(out)] if command == "predict" else [])) == 1
        err = capsys.readouterr().err
        assert f"{model_path}: model lacks scored nutrients protein, saturates, sugars" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_model_without_fingerprint_refused(self, trained_pipeline, tmp_path, capsys,
                                               command):
        # a null fingerprint pairs with no vocabulary, not even the model's own
        model = ridge.load_model(trained_pipeline["model"])
        model.vectorizer_fingerprint = None
        model_path = tmp_path / "unpaired.bin"
        ridge.save_model(model, model_path)
        shutil.copyfile(f"{trained_pipeline['model']}.vocab.json", f"{model_path}.vocab.json")
        out = tmp_path / "p.jsonl"
        argv = [command, "--model", str(model_path), "--in", str(trained_pipeline["val"])]
        assert run(*argv, *(["--out", str(out)] if command == "predict" else [])) == 1
        captured = capsys.readouterr()
        assert f"error: {model_path}: vectorizer fingerprint mismatch: model expects None" \
            in captured.err
        assert not out.exists() and "mean=" not in captured.out

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_model_of_another_dim_refused(self, trained_pipeline, tmp_path, capsys, command):
        # the fingerprint matches, but the weights have one column too many
        model = ridge.load_model(trained_pipeline["model"])
        dim = model.feature_dim
        model.weights = np.hstack([model.weights, np.zeros((len(model.targets), 1))])
        model.feature_dim = dim + 1
        model_path = tmp_path / "wide.bin"
        ridge.save_model(model, model_path)
        shutil.copyfile(f"{trained_pipeline['model']}.vocab.json", f"{model_path}.vocab.json")
        out = tmp_path / "p.jsonl"
        argv = [command, "--model", str(model_path), "--in", str(trained_pipeline["val"])]
        assert run(*argv, *(["--out", str(out)] if command == "predict" else [])) == 1
        captured = capsys.readouterr()
        assert (f"error: {model_path}: model has {dim + 1} features but "
                f"{model_path}.vocab.json has {dim}; retrain it") in captured.err
        assert not out.exists() and "mean=" not in captured.out

    def test_alpha_grid_selects_and_trains(self, trained_pipeline, tmp_path, capsys):
        model_path = tmp_path / "grid.bin"
        assert run("train", "--train", str(trained_pipeline["train"]),
                   "--out", str(model_path), "--alpha-grid", "0.1,1",
                   "--val", str(trained_pipeline["val"])) == 0
        output = capsys.readouterr().out
        assert "alpha=0.1" in output and "alpha=1" in output
        assert "selected alpha=" in output
        assert model_path.exists()

    def test_grid_model_matches_single_alpha_model(self, trained_pipeline, tmp_path, capsys):
        grid_path, single_path = tmp_path / "grid.bin", tmp_path / "single.bin"
        assert run("train", "--train", str(trained_pipeline["train"]), "--out", str(grid_path),
                   "--alpha-grid", "10,0.1,1", "--val", str(trained_pipeline["val"])) == 0
        output = capsys.readouterr().out
        # scored in the order given
        assert [line.split(":")[0] for line in output.splitlines() if line.startswith("alpha=")] \
            == ["alpha=10", "alpha=0.1", "alpha=1"]
        selected = re.search(r"selected alpha=(\S+)", output).group(1)
        assert run("train", "--train", str(trained_pipeline["train"]), "--out", str(single_path),
                   "--alpha", selected) == 0
        preds = []
        for model in (grid_path, single_path):
            out = tmp_path / f"{model.stem}.jsonl"
            assert run("predict", "--model", str(model), "--in", str(trained_pipeline["val"]),
                       "--out", str(out)) == 0
            preds.append(np.array([[row[n] for n in ("fat", "protein", "saturates", "sugars")]
                                   for row in map(json.loads, out.read_text().splitlines())]))
        capsys.readouterr()
        assert np.abs(preds[0] - preds[1]).max() <= 1e-6 * np.abs(preds[1]).max()

    @pytest.mark.parametrize("grid, message", [
        (",", "empty"), ("", "empty"), ("1,nan", "finite"), ("inf", "finite"),
        ("0.1,0", "> 0"), ("-1", "> 0"), ("1,10,1.0", "more than once"), ("1,x", "float")])
    def test_bad_alpha_grid_rejected_before_work(self, trained_pipeline, tmp_path, capsys,
                                                 grid, message):
        model_path = tmp_path / "grid.bin"
        assert run("train", "--train", str(trained_pipeline["train"]), "--out", str(model_path),
                   "--alpha-grid", grid, "--val", str(trained_pipeline["val"])) == 1
        captured = capsys.readouterr()
        assert "--alpha-grid" in captured.err and message in captured.err
        assert "fitting" not in captured.out
        assert not model_path.exists()

    def test_alpha_and_alpha_grid_exclude_each_other(self, trained_pipeline, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        assert run("train", "--train", str(trained_pipeline["train"]), "--out", str(model_path),
                   "--alpha", "5", "--alpha-grid", "10,100",
                   "--val", str(trained_pipeline["val"])) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not model_path.exists()

    def test_predict_writes_scored_nutrients_of_any_target_order(self, trained_pipeline,
                                                                  tmp_path, capsys):
        vocab_path = f"{trained_pipeline['model']}.vocab.json"
        cv = CombinedVectorizer.load(vocab_path)
        samples = load_samples(trained_pipeline["train"])
        matrix = transform_batch([s.ingredient_text for s in samples], cv)
        model = ridge.train(matrix, [s.labels for s in samples],
                            targets=["sugars", "energy", "fat", "protein", "saturates"])
        model.vectorizer_fingerprint = cv.fingerprint()
        permuted_path = tmp_path / "permuted.bin"
        ridge.save_model(model, permuted_path)
        shutil.copyfile(vocab_path, f"{permuted_path}.vocab.json")
        rows = []
        for name, model_path in [("canonical", trained_pipeline["model"]),
                                 ("permuted", permuted_path)]:
            out = tmp_path / f"{name}.jsonl"
            assert run("predict", "--model", str(model_path),
                       "--in", str(trained_pipeline["val"]), "--out", str(out)) == 0
            rows.append([json.loads(line) for line in out.read_text().splitlines()])
        capsys.readouterr()
        canonical, permuted = rows
        scored = ["fat", "protein", "saturates", "sugars"]
        assert [list(row) for row in permuted] == [["id", *scored]] * len(canonical)
        assert [row["id"] for row in permuted] == [row["id"] for row in canonical]
        values = [np.array([[row[n] for n in scored] for row in part]) for part in rows]
        assert np.abs(values[0] - values[1]).max() <= 1e-9

    @pytest.mark.parametrize("case", ["rules", "vocab", "term_to_index", "idf"])
    def test_malformed_data_file_names_file(self, trained_pipeline, tmp_path, capsys, case):
        bad, out = tmp_path / "bad.json", tmp_path / "out.jsonl"
        if case == "rules":
            bad.write_text("[]")
            preds = tmp_path / "preds.jsonl"
            assert run("predict", "--model", str(trained_pipeline["model"]),
                       "--in", str(trained_pipeline["val"]), "--out", str(preds)) == 0
            argv = ["evaluate", "--pred", str(preds), "--labels", str(trained_pipeline["val"]),
                    "--rules", str(bad), "--json-out", str(out)]
        else:
            vocab = json.loads(Path(f"{trained_pipeline['model']}.vocab.json").read_text())
            if case == "vocab":
                vocab = [1, 2]
            elif case == "term_to_index":
                vocab["word"]["term_to_index"] = []
            else:
                vocab["word"]["idf"][0] = math.inf
            model_path = tmp_path / "model.bin"
            shutil.copyfile(trained_pipeline["model"], model_path)
            bad = tmp_path / "model.bin.vocab.json"
            bad.write_text(json.dumps(vocab))
            argv = ["predict", "--model", str(model_path), "--in", str(trained_pipeline["val"]),
                    "--out", str(out)]
        capsys.readouterr()
        assert run(*argv) == 1
        assert f"error: {bad}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_empty_samples_file_names_file(self, trained_pipeline, tmp_path, capsys, command):
        empty, model_path = tmp_path / "empty.jsonl", tmp_path / "model.bin"
        empty.write_text("")
        if command == "train":
            argv = ["train", "--train", str(empty), "--out", str(model_path)]
        else:
            argv = ["bench", "--model", str(trained_pipeline["model"]), "--in", str(empty)]
        assert run(*argv) == 1
        assert f"error: {empty}: no samples" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("case, message", [("empty", "no samples"),
                                               ("unlabeled", "has no labels")])
    def test_grid_validation_file_checked_before_fit(self, trained_pipeline, tmp_path, capsys,
                                                     monkeypatch, case, message):
        def no_fit(texts):
            raise AssertionError("fit_combined called")

        monkeypatch.setattr(features, "fit_combined", no_fit)
        val, model_path = tmp_path / "val.jsonl", tmp_path / "grid.bin"
        samples = load_samples(trained_pipeline["val"])[:3] if case == "unlabeled" else []
        save_samples(val, [replace(s, labels=None) for s in samples])
        assert run("train", "--train", str(trained_pipeline["train"]), "--out", str(model_path),
                   "--alpha-grid", "10,100", "--val", str(val)) == 1
        captured = capsys.readouterr()
        assert f"error: {val}: " in captured.err and message in captured.err
        assert "fitting" not in captured.out
        assert not model_path.exists()

    def test_evaluate_empty_predictions_names_file(self, trained_pipeline, tmp_path, capsys):
        empty = tmp_path / "preds.jsonl"
        empty.write_text("")
        assert run("evaluate", "--pred", str(empty),
                   "--labels", str(trained_pipeline["val"])) == 1
        assert f"error: {empty}: no predictions" in capsys.readouterr().err

    def test_evaluate_empty_labels_names_file(self, trained_pipeline, tmp_path, capsys):
        preds, empty = tmp_path / "preds.jsonl", tmp_path / "labels.jsonl"
        assert run("predict", "--model", str(trained_pipeline["model"]),
                   "--in", str(trained_pipeline["val"]), "--out", str(preds)) == 0
        empty.write_text("")
        capsys.readouterr()
        assert run("evaluate", "--pred", str(preds), "--labels", str(empty)) == 1
        assert f"error: {empty}: no samples" in capsys.readouterr().err

    def test_failed_model_write_keeps_last_good_pair(self, tmp_path, capsys, monkeypatch):
        data = {}
        for seed in (5, 6):
            raw = tmp_path / f"raw{seed}.jsonl"
            write_jsonl(raw, make_raw_rows(150, seed=seed))
            assert run("prepare", "--in", str(raw), "--out", str(tmp_path / f"d{seed}")) == 0
            data[seed] = tmp_path / f"d{seed}"
        out_dir = tmp_path / "model"
        out_dir.mkdir()
        model_path = out_dir / "model.bin"
        vocab_path = out_dir / "model.bin.vocab.json"
        assert run("train", "--train", str(data[5] / "train.jsonl"), "--out", str(model_path)) == 0
        before = model_path.read_bytes(), vocab_path.read_bytes()

        def full_disk(model, path):
            with atomic_write(path) as fh:
                fh.write("{")
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(ridge, "save_model", full_disk)
        assert run("train", "--train", str(data[6] / "train.jsonl"), "--out", str(model_path)) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert (model_path.read_bytes(), vocab_path.read_bytes()) == before
        assert sorted(p.name for p in out_dir.iterdir()) == ["model.bin", "model.bin.vocab.json"]
        assert run("predict", "--model", str(model_path), "--in", str(data[5] / "val.jsonl"),
                   "--out", str(tmp_path / "p.jsonl")) == 0

    def test_grid_flags_need_alpha_grid(self, tmp_path, capsys):
        # rejected before any file is read: none of these paths exists
        model_path = tmp_path / "model.bin"
        assert run("train", "--train", str(tmp_path / "train.jsonl"), "--out", str(model_path),
                   "--val", str(tmp_path / "val.jsonl"), "--rules", str(tmp_path / "r.json")) == 1
        captured = capsys.readouterr()
        assert "error: --val and --rules apply only with --alpha-grid" in captured.err
        assert "fitting" not in captured.out
        assert run("train", "--train", str(tmp_path / "train.jsonl"), "--out", str(model_path),
                   "--rules", str(tmp_path / "r.json")) == 1
        assert "error: --val and --rules apply only with --alpha-grid" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0"])
    def test_bad_alpha_rejected_before_work(self, trained_pipeline, tmp_path, capsys, alpha):
        model_path = tmp_path / "model.bin"
        assert run("train", "--train", str(trained_pipeline["train"]), "--out", str(model_path),
                   "--alpha", alpha) == 1
        captured = capsys.readouterr()
        assert "alpha must be finite and > 0" in captured.err
        assert "fitting" not in captured.out
        assert not model_path.exists()


class TestBench:
    def test_bench_prints_stats(self, trained_pipeline, capsys):
        assert run("bench", "--model", str(trained_pipeline["model"]),
                   "--in", str(trained_pipeline["val"])) == 0
        output = capsys.readouterr().out
        assert "mean=" in output and "p95=" in output and "p99=" in output


class TestLlmCommands:
    def test_llm_predict_with_cache(self, trained_pipeline, endpoint_stub, tmp_path, capsys):
        endpoint_stub.reply_with(
            "Nutrient values per 100 g: fat - 4.00, protein - 3.00, saturates - 2.00, sugars - 1.00")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "endpoints": {"local": {"base_url": endpoint_stub.base_url,
                                    "model_name": "stub", "max_concurrency": 4,
                                    "timeout": 5.0, "backoff_base": 0.01}}}))
        # a small input slice
        subset = tmp_path / "subset.jsonl"
        val = load_samples(trained_pipeline["val"])[:8]
        from recipe_nutrients.dataset import save_samples
        save_samples(subset, val)

        preds_path = tmp_path / "llm_preds.jsonl"
        cache_path = tmp_path / "transcripts.jsonl"
        assert run("--config", str(config_path), "llm-predict", "--endpoint", "local",
                   "--in", str(subset), "--out", str(preds_path),
                   "--cache", str(cache_path)) == 0
        capsys.readouterr()
        preds = load_predictions(preds_path)
        assert len(preds) == 8
        assert all(p.fat == 4.0 for p in preds.values())
        traffic_after_first = len(endpoint_stub.requests)

        # replay from cache: no new requests
        assert run("--config", str(config_path), "llm-predict", "--endpoint", "local",
                   "--in", str(subset), "--out", str(preds_path),
                   "--cache", str(cache_path)) == 0
        capsys.readouterr()
        assert len(endpoint_stub.requests) == traffic_after_first

    def test_cache_transcripts_byte_identical_across_runs(self, trained_pipeline, endpoint_stub,
                                                          tmp_path, capsys):
        endpoint_stub.reply_with(
            "Nutrient values per 100 g: fat - 4.00, protein - 3.00, saturates - 2.00, sugars - 1.00")
        config = stub_config(tmp_path, endpoint_stub)
        subset, _, _ = refine_inputs(trained_pipeline, tmp_path, 3)
        transcripts = []
        for name in ("first", "second"):
            cache = tmp_path / f"{name}.transcript.jsonl"
            assert run("--config", config, "llm-predict", "--endpoint", "local", "--in",
                       str(subset), "--out", str(tmp_path / f"{name}.jsonl"),
                       "--cache", str(cache)) == 0
            transcripts.append(cache.read_bytes())
        capsys.readouterr()
        assert len(endpoint_stub.requests) == 6
        assert transcripts[0] == transcripts[1]
        rows = [json.loads(line) for line in transcripts[0].decode("utf-8").splitlines()]
        assert [list(row) for row in rows] == [["id", "request_hash", "response"]] * 3

    def test_reply_cut_short_is_one_warning_and_missing_prediction(
            self, trained_pipeline, endpoint_stub, tmp_path, capsys, caplog):
        config = stub_config(tmp_path, endpoint_stub, max_retries=1)
        subset, _, _ = refine_inputs(trained_pipeline, tmp_path, 2)
        first, second = (s.id for s in load_samples(subset))
        endpoint_stub.reply_with(
            "Nutrient values per 100 g: fat - 4.00, protein - 3.00, saturates - 2.00, sugars - 1.00")
        # the first sample's two attempts each end 94 bytes short of their body
        cut = Scripted(200, b'{"cho', content_length=100)
        endpoint_stub.script(cut, cut)
        out = tmp_path / "out.jsonl"
        with caplog.at_level(logging.WARNING, logger="recipe_nutrients.llm"):
            assert run("--config", config, "llm-predict", "--endpoint", "local",
                       "--in", str(subset), "--out", str(out)) == 0
        assert f"(1 failed: {first})" in capsys.readouterr().out
        assert list(load_predictions(out)) == [second]
        assert len(endpoint_stub.requests) == 3
        [record] = caplog.records
        assert record.getMessage().startswith(f"{first}: request failed: ")
        assert "ChunkedEncodingError" in record.getMessage()

    @pytest.mark.parametrize("case", ["transcript_missing_key", "transcript_null_response",
                                      "transcript_not_utf8", "shots_missing_nutrient",
                                      "config_not_json", "samples_not_utf8"])
    def test_bad_input_names_file(self, trained_pipeline, endpoint_stub, tmp_path, capsys,
                                  case):
        config = stub_config(tmp_path, endpoint_stub)
        subset, _, _ = refine_inputs(trained_pipeline, tmp_path, 2)
        bad, out = tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
        argv = ["--config", config, "llm-predict", "--endpoint", "local", "--in", str(subset)]
        if case == "transcript_missing_key":
            bad.write_text(json.dumps({"id": "x", "request_hash": "sha256:0"}) + "\n")
            argv += ["--cache", str(bad)]
        elif case == "transcript_null_response":
            bad.write_text(json.dumps({"id": "x", "request_hash": "sha256:0",
                                       "response": None}) + "\n")
            argv += ["--cache", str(bad)]
        elif case == "transcript_not_utf8":
            bad.write_bytes(b'{"id": "\xff"}\n')
            argv += ["--cache", str(bad)]
        elif case == "shots_missing_nutrient":
            bad.write_text(json.dumps({"ingredient_text": "1 cup oats", "protein": 1.0,
                                       "saturates": 0.1, "sugars": 1.0}) + "\n")
            argv += ["--shots", str(bad)]
        elif case == "config_not_json":
            bad.write_text("{endpoints: 1}")
            argv[1] = str(bad)
        else:
            bad.write_bytes(b'{"id": "\xff"}\n')
            argv = ["predict", "--model", str(trained_pipeline["model"]), "--in", str(bad)]
        assert run(*argv, "--out", str(out)) == 1
        assert f"error: {bad}: " in capsys.readouterr().err
        assert not out.exists()
        assert endpoint_stub.requests == []

    def test_blank_ingredient_text_names_file_and_sample(self, endpoint_stub, tmp_path,
                                                         capsys):
        # the cache is not json, so reading it first would name it instead
        config = stub_config(tmp_path, endpoint_stub)
        samples, cache, out = (tmp_path / name for name in ("in.jsonl", "cache.jsonl",
                                                            "out.jsonl"))
        write_jsonl(samples, [{"id": "a", "ingredient_text": "1 cup oats"},
                              {"id": "b", "ingredient_text": " \t "}])
        cache.write_bytes(b"not json\n")
        assert run("--config", config, "llm-predict", "--endpoint", "local", "--in",
                   str(samples), "--cache", str(cache), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {samples}: sample 'b' has a blank ingredient_text\n")
        assert not out.exists()
        assert cache.read_bytes() == b"not json\n"
        assert endpoint_stub.requests == []

    @pytest.mark.parametrize("command", ["predict", "llm-predict", "refine"])
    def test_empty_input_refused_before_writing(self, trained_pipeline, endpoint_stub,
                                                tmp_path, capsys, command):
        config = stub_config(tmp_path, endpoint_stub)
        subset, preds, _ = refine_inputs(trained_pipeline, tmp_path, 2)
        empty, out = tmp_path / "empty.jsonl", tmp_path / "out.jsonl"
        empty.write_text("\n")
        argv = {"predict": ["predict", "--model", str(trained_pipeline["model"]),
                            "--in", str(empty)],
                "llm-predict": ["--config", config, "llm-predict", "--endpoint", "local",
                                "--in", str(empty)],
                "refine": ["--config", config, "refine", "--endpoint", "local",
                           "--pred", str(empty), "--in", str(subset)]}[command]
        assert run(*argv, "--out", str(out)) == 1
        message = "no predictions" if command == "refine" else "no samples"
        assert f"error: {empty}: {message}" in capsys.readouterr().err
        assert not out.exists()
        assert endpoint_stub.requests == []

    @pytest.mark.parametrize("command", ["predict", "bench", "llm-predict", "refine"])
    @pytest.mark.parametrize("text", [5, None])
    def test_ingredient_text_not_string_names_file(self, trained_pipeline, endpoint_stub,
                                                   tmp_path, capsys, command, text):
        config = stub_config(tmp_path, endpoint_stub)
        bad, out, preds_path = tmp_path / "bad.jsonl", tmp_path / "out.jsonl", tmp_path / "p.jsonl"
        write_jsonl(bad, [{"id": "a", "ingredient_text": "1 cup oats"},
                          {"id": "b", "ingredient_text": text}])
        write_jsonl(preds_path, [{"id": i, "fat": 1.0, "protein": 1.0, "saturates": 0.5,
                                  "sugars": 2.0} for i in "ab"])
        model = trained_pipeline["model"]
        argv = {"predict": ["predict", "--model", model, "--in", bad, "--out", out],
                "bench": ["bench", "--model", model, "--in", bad],
                "llm-predict": ["--config", config, "llm-predict", "--endpoint", "local",
                                "--in", bad, "--out", out],
                "refine": ["--config", config, "refine", "--endpoint", "local",
                           "--pred", preds_path, "--in", bad, "--out", out]}[command]
        assert run(*map(str, argv)) == 1
        assert (f"error: {bad}: bad sample record 1: ingredient_text must be a string"
                in capsys.readouterr().err)
        assert not out.exists()
        assert endpoint_stub.requests == []

    def test_llm_predict_skips_unparseable(self, trained_pipeline, endpoint_stub, tmp_path, capsys):
        endpoint_stub.reply_with("I refuse.")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "endpoints": {"local": {"base_url": endpoint_stub.base_url, "model_name": "stub",
                                    "timeout": 5.0, "backoff_base": 0.01}}}))
        subset = tmp_path / "subset.jsonl"
        from recipe_nutrients.dataset import save_samples
        save_samples(subset, load_samples(trained_pipeline["val"])[:3])
        preds_path = tmp_path / "llm_preds.jsonl"
        assert run("--config", str(config_path), "llm-predict", "--endpoint", "local",
                   "--in", str(subset), "--out", str(preds_path)) == 0
        assert "3 failed" in capsys.readouterr().out
        assert load_predictions(preds_path) == {}

    def test_refine_round_trip(self, trained_pipeline, endpoint_stub, tmp_path, capsys):
        endpoint_stub.reply_with('{"protein_g": 5, "fat_g": 6, "sugars_g": 7, "saturates_g": 8}')
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "endpoints": {"local": {"base_url": endpoint_stub.base_url, "model_name": "stub",
                                    "timeout": 5.0, "backoff_base": 0.01}}}))
        preds_path = tmp_path / "preds.jsonl"
        run("predict", "--model", str(trained_pipeline["model"]),
            "--in", str(trained_pipeline["val"]), "--out", str(preds_path))
        refined_path = tmp_path / "refined.jsonl"
        assert run("--config", str(config_path), "refine", "--endpoint", "local",
                   "--pred", str(preds_path), "--in", str(trained_pipeline["val"]),
                   "--out", str(refined_path)) == 0
        capsys.readouterr()
        refined = load_predictions(refined_path)
        assert all(p.fat == 6.0 and p.saturates == 8.0 for p in refined.values())

    def test_refine_mixed_replies(self, trained_pipeline, endpoint_stub, tmp_path, capsys):
        config = stub_config(tmp_path, endpoint_stub, max_concurrency=1, max_retries=0)
        subset, preds_path, ids = refine_inputs(trained_pipeline, tmp_path, 4)
        valid = completion_body('{"protein_g": 5, "fat_g": 6, "sugars_g": 7, "saturates_g": 8}')
        outputs = []
        for name in ("first.jsonl", "second.jsonl"):
            # one worker answers the queue in --pred order
            endpoint_stub.script(Scripted(200, valid), Scripted(200, completion_body("no idea")),
                                 Scripted(500, b"oops"), Scripted(200, valid))
            out = tmp_path / name
            assert run("--config", config, "refine", "--endpoint", "local", "--pred",
                       str(preds_path), "--in", str(subset), "--out", str(out)) == 0
            assert "(2 changed)" in capsys.readouterr().out
            outputs.append(out.read_bytes())
        assert len(endpoint_stub.requests) == 8
        assert outputs[0] == outputs[1]

        before = load_predictions(preds_path)
        after = load_predictions(tmp_path / "first.jsonl")
        assert list(after) == ids
        assert [i for i in ids if after[i] == before[i]] == ids[1:3]
        assert after[ids[0]].fat == after[ids[3]].fat == 6.0

    def test_refine_cache_replays_without_requests(self, trained_pipeline, endpoint_stub,
                                                   tmp_path, capsys):
        endpoint_stub.reply_with('{"protein_g": 5, "fat_g": 6, "sugars_g": 7, "saturates_g": 8}')
        config = stub_config(tmp_path, endpoint_stub)
        subset, preds_path, ids = refine_inputs(trained_pipeline, tmp_path, 3)
        argv = ["--config", config, "refine", "--endpoint", "local", "--pred", str(preds_path),
                "--in", str(subset), "--cache", str(tmp_path / "transcripts.jsonl")]
        assert run(*argv, "--out", str(tmp_path / "live.jsonl")) == 0
        assert len(endpoint_stub.requests) == len(ids)
        assert run(*argv, "--out", str(tmp_path / "replay.jsonl")) == 0
        assert len(endpoint_stub.requests) == len(ids)
        assert (tmp_path / "replay.jsonl").read_bytes() == (tmp_path / "live.jsonl").read_bytes()
        assert "(3 changed)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["llm-predict", "refine"])
    def test_missing_api_key_fails_once(self, trained_pipeline, endpoint_stub, tmp_path, capsys,
                                        monkeypatch, command):
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        config = stub_config(tmp_path, endpoint_stub, api_key_env="NO_SUCH_KEY")
        subset, preds_path, _ = refine_inputs(trained_pipeline, tmp_path, 2)
        out = tmp_path / "out.jsonl"
        argv = ["--config", config, command, "--endpoint", "local", "--in", str(subset),
                "--out", str(out)]
        if command == "refine":
            argv += ["--pred", str(preds_path)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("error: environment variable 'NO_SUCH_KEY' is not set") == 1
        assert not out.exists()
        assert endpoint_stub.requests == []

    def test_cache_replay_needs_no_api_key(self, trained_pipeline, endpoint_stub, tmp_path,
                                           capsys, monkeypatch):
        endpoint_stub.reply_with(
            "Nutrient values per 100 g: fat - 4.00, protein - 3.00, saturates - 2.00, sugars - 1.00")
        config = stub_config(tmp_path, endpoint_stub, api_key_env="STUB_KEY")
        subset, _, _ = refine_inputs(trained_pipeline, tmp_path, 2)
        argv = ["--config", config, "llm-predict", "--endpoint", "local", "--in", str(subset),
                "--cache", str(tmp_path / "transcripts.jsonl")]
        monkeypatch.setenv("STUB_KEY", "sekrit")
        assert run(*argv, "--out", str(tmp_path / "live.jsonl")) == 0
        monkeypatch.delenv("STUB_KEY")
        assert run(*argv, "--out", str(tmp_path / "replay.jsonl")) == 0
        assert "(0 failed)" in capsys.readouterr().out
        assert len(endpoint_stub.requests) == 2
        assert (tmp_path / "replay.jsonl").read_bytes() == (tmp_path / "live.jsonl").read_bytes()

    def test_unknown_endpoint_profile(self, trained_pipeline, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"endpoints": {}}))
        assert run("--config", str(config_path), "llm-predict", "--endpoint", "gone",
                   "--in", str(trained_pipeline["val"]),
                   "--out", str(tmp_path / "x.jsonl")) == 1
        assert "profile" in capsys.readouterr().err

    def test_profile_with_unknown_key_names_file_and_profile(self, trained_pipeline, tmp_path,
                                                             capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"endpoints": {"local": {
            "base_url": "http://localhost:1", "model_name": "m", "timeut": 5}}}))
        out = tmp_path / "x.jsonl"
        assert run("--config", str(config_path), "llm-predict", "--endpoint", "local",
                   "--in", str(trained_pipeline["val"]), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"error: {config_path}: endpoint profile 'local': " in err and "'timeut'" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        pytest.param(key, value, message, id=f"{key}-{value}") for key, value, message in [
            ("timeout", math.nan, "must be finite"), ("timeout", math.inf, "must be finite"),
            ("backoff_base", -1.0, "must be finite"), ("backoff_base", math.nan, "must be finite"),
            ("base_url", 5, "must be a string, got 5"),
            ("model_name", None, "must be a string, got None"),
            ("api_key_env", 5, "must be a string or null, got 5"),
            ("max_retries", 1.5, "must be an integer, got 1.5"),
            ("max_concurrency", True, "must be an integer, got True")]])
    def test_bad_timing_names_file_and_profile(self, trained_pipeline, endpoint_stub, tmp_path,
                                               capsys, key, value, message):
        config = stub_config(tmp_path, endpoint_stub, **{key: value})
        out = tmp_path / "x.jsonl"
        assert run("--config", config, "llm-predict", "--endpoint", "local",
                   "--in", str(trained_pipeline["val"]), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"error: {config}: endpoint profile 'local': {key} {message}" in err
        assert not out.exists()
        assert endpoint_stub.requests == []

    def test_endpoints_must_be_object(self, trained_pipeline, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"endpoints": ["local"]}))
        assert run("--config", str(config_path), "llm-predict", "--endpoint", "local",
                   "--in", str(trained_pipeline["val"]), "--out", str(tmp_path / "x.jsonl")) == 1
        assert f"error: {config_path}: 'endpoints' must be a json object" in \
            capsys.readouterr().err


class TestMergeCommand:
    def test_merge(self, tmp_path, capsys):
        base = {str(i): {"id": str(i), "fat": 1.0, "protein": 1.0, "saturates": 1.0,
                         "sugars": 1.0} for i in range(10)}
        override = {str(i): {"id": str(i), "fat": 9.0, "protein": 9.0, "saturates": 9.0,
                             "sugars": 9.0} for i in range(0, 10, 2)}
        base_path, override_path = tmp_path / "base.jsonl", tmp_path / "override.jsonl"
        write_jsonl(base_path, list(base.values()))
        write_jsonl(override_path, list(override.values()))
        ids_path = tmp_path / "ids.txt"
        ids_path.write_text("\n".join(["0", "2", "4"]) + "\n")
        out_path = tmp_path / "merged.jsonl"
        assert run("merge", "--base", str(base_path), "--override", str(override_path),
                   "--ids", str(ids_path), "--out", str(out_path)) == 0
        capsys.readouterr()
        merged = load_predictions(out_path)
        assert merged["0"].fat == 9.0 and merged["2"].fat == 9.0 and merged["4"].fat == 9.0
        assert merged["6"].fat == 1.0 and merged["1"].fat == 1.0


    def test_ids_not_utf8_names_file(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{"id": "0", "fat": 1.0, "protein": 1.0, "saturates": 1.0,
                             "sugars": 1.0}])
        ids_path, out_path = tmp_path / "ids.txt", tmp_path / "merged.jsonl"
        ids_path.write_bytes(b"0\n\xff\n")
        assert run("merge", "--base", str(preds), "--override", str(preds),
                   "--ids", str(ids_path), "--out", str(out_path)) == 1
        assert f"error: {ids_path}: not utf-8 text: " in capsys.readouterr().err
        assert not out_path.exists()


class TestPredictStreams:
    @pytest.mark.parametrize("rows", [1, 3, cli.SCORE_ROWS])
    def test_output_same_at_any_block_size(self, trained_pipeline, tmp_path, capsys,
                                           monkeypatch, rows):
        model_path = trained_pipeline["model"]
        cv = CombinedVectorizer.load(f"{model_path}.vocab.json")
        model = ridge.load_model(model_path)
        samples = load_samples(trained_pipeline["val"])[:7]
        long_text = " ".join(s.ingredient_text for s in load_samples(trained_pipeline["train"]))
        assert len(long_text) > features._BLOCK_CHARS
        assert transform_batch(["qx zzq"], cv).nnz == 0
        samples[2:2] = [RecipeSample(id="none", ingredient_text="qx zzq", labels=None),
                        RecipeSample(id="long", ingredient_text=long_text, labels=None)]
        # the reference scores every row in one batch
        batch = ridge.predict_batch(model, transform_batch([s.ingredient_text for s in samples],
                                                           cv))
        expected = "".join(json.dumps({"id": s.id, **{n: float(row[model.targets.index(n)])
                                                       for n in SCORED_NUTRIENTS}}) + "\n"
                           for s, row in zip(samples, batch))
        infile, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        save_samples(infile, samples)
        monkeypatch.setattr(cli, "SCORE_ROWS", rows)
        assert run("predict", "--model", str(model_path), "--in", str(infile),
                   "--out", str(out)) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8") == expected

    def test_peak_does_not_grow_with_the_file(self, trained_pipeline, tmp_path, capsys):
        # long recipes, so a row's matrix entries far outweigh its text, and
        # more of them than one block holds, so both files fill whole blocks
        model_path = trained_pipeline["model"]
        texts = [" ".join(s.ingredient_text for s in group) for group in
                 zip(*[iter(load_samples(trained_pipeline["train"]))] * 5)]
        assert len(texts) > cli.SCORE_ROWS
        peaks, inputs = [], []
        for copies in (1, 10):
            infile = tmp_path / f"in{copies}.jsonl"
            save_samples(infile, [RecipeSample(id=f"{k}-{i}", ingredient_text=text, labels=None)
                                  for k in range(copies) for i, text in enumerate(texts)])
            inputs.append(infile)
        argv = ["predict", "--model", str(model_path), "--out", str(tmp_path / "p.jsonl")]
        assert run(*argv, "--in", str(inputs[0])) == 0
        for infile in inputs:
            tracemalloc.start()
            try:
                assert run(*argv, "--in", str(infile)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        # stacking the whole file's rows from their blocks' parts, as one batch
        # does, grows by at least twice the added rows' matrix
        cv = CombinedVectorizer.load(f"{model_path}.vocab.json")
        matrix = transform_batch(texts, cv)
        stacked = 2 * 9 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
        assert peaks[1] - peaks[0] < stacked / 4


DEEP_JSON = "[" * 100_000 + "]" * 100_000

# a number no float holds, for a field read as a float
HUGE = 10 ** 400


def huge_file(role: str, bad: Path, config: str) -> None:
    """Write a valid file for ``role`` but for one number that overflows where
    it is read: 400 digits in a float field (on line 2 of a json-lines file; in
    a transcript, which has none, in a string field), or Infinity where the
    model and the vocabulary read an integer."""
    if role in ("model", "vocab", "rules", "config"):
        rules = Path(cli.__file__).parent / "data" / "eu_tolerances.json"
        raw = json.loads(Path({"rules": rules, "config": config}.get(role, bad)).read_text())
        if role == "model":
            raw["feature_dim"] = math.inf
        elif role == "vocab":
            raw["word"]["n_docs"] = math.inf
        elif role == "rules":
            raw["fat"][0]["margin"] = HUGE
        else:
            raw["endpoints"]["local"]["timeout"] = HUGE
        bad.write_text(json.dumps(raw))
        return
    fields = {name: 1.0 for name in SCORED_NUTRIENTS}
    sample = {"id": "a", "ingredient_text": "oats",
              "labels": {"energy": 1.0, "salt": 1.0, **fields}}
    row = {"pred": {"id": "a", **fields}, "shots": {"ingredient_text": "oats", **fields},
           "cache": {"id": "a", "request_hash": "h", "response": "r"}}.get(role, sample)
    if role in ("train", "labels"):
        huge = {**row, "labels": {**row["labels"], "fat": HUGE}}
    else:
        huge = {**row, "response" if role == "cache" else "fat": HUGE}
    write_jsonl(bad, [row, huge])


class TestDeeplyNestedInput:
    @pytest.mark.parametrize("role, corruption", [
        pytest.param(role, corruption, id=role if corruption == "deep" else f"{role}-huge")
        for corruption in ("deep", "huge")
        for role in ("train", "labels", "pred", "model", "vocab", "rules", "config", "shots",
                     "cache")])
    def test_refused_naming_file(self, trained_pipeline, endpoint_stub, tmp_path, capsys,
                                 role, corruption):
        out, preds = tmp_path / "out.jsonl", tmp_path / "preds.jsonl"
        val, model = str(trained_pipeline["val"]), tmp_path / "model.bin"
        shutil.copyfile(trained_pipeline["model"], model)
        shutil.copyfile(f"{trained_pipeline['model']}.vocab.json", f"{model}.vocab.json")
        assert run("predict", "--model", str(model), "--in", val, "--out", str(preds)) == 0
        capsys.readouterr()
        config = stub_config(tmp_path, endpoint_stub)
        llm_predict = ["--config", config, "llm-predict", "--endpoint", "local", "--in", val,
                       "--out", str(out)]
        evaluate = ["evaluate", "--pred", str(preds), "--labels", val, "--json-out", str(out)]
        bad = {"model": model, "vocab": Path(f"{model}.vocab.json")}.get(role,
                                                                        tmp_path / "bad.json")
        lines = role in ("train", "labels", "pred", "shots", "cache")
        if corruption == "huge":
            huge_file(role, bad, config)
        else:
            # in a json-lines file the deep line is line 2
            bad.write_text(f"{{}}\n{DEEP_JSON}\n" if lines else DEEP_JSON)
        argv = {
            "train": ["train", "--train", str(bad), "--out", str(out)],
            "labels": ["evaluate", "--pred", str(preds), "--labels", str(bad)],
            "pred": ["evaluate", "--pred", str(bad), "--labels", val],
            "model": ["predict", "--model", str(model), "--in", val, "--out", str(out)],
            "vocab": ["predict", "--model", str(model), "--in", val, "--out", str(out)],
            "rules": [*evaluate, "--rules", str(bad)],
            "config": ["--config", str(bad), *llm_predict[2:]],
            "shots": [*llm_predict, "--shots", str(bad)],
            "cache": [*llm_predict, "--cache", str(bad)],
        }[role]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        if corruption == "deep":
            assert "recursion" in err
        if lines:
            assert ("line 2" if corruption == "deep" else "record 1") in err
        assert not out.exists()
        assert endpoint_stub.requests == []

    def test_deep_unterminated_last_transcript_line_is_torn(self, trained_pipeline,
                                                            endpoint_stub, tmp_path, capsys,
                                                            caplog):
        config = stub_config(tmp_path, endpoint_stub)
        subset, _, _ = refine_inputs(trained_pipeline, tmp_path, 2)
        cache, out = tmp_path / "transcript.jsonl", tmp_path / "out.jsonl"
        cache.write_text(json.dumps({"id": "x", "request_hash": "h", "response": "r"}) + "\n"
                         + "[" * 100_000)
        endpoint_stub.reply_with(
            "Nutrient values per 100 g: fat - 4.00, protein - 3.00, saturates - 2.00, sugars - 1.00")
        with caplog.at_level(logging.WARNING, logger="recipe_nutrients.llm"):
            assert run("--config", config, "llm-predict", "--endpoint", "local",
                       "--in", str(subset), "--out", str(out), "--cache", str(cache)) == 0
        capsys.readouterr()
        assert "torn last line (100000 bytes)" in caplog.text
        assert len(load_predictions(out)) == 2
        assert len(cache.read_text().splitlines()) == 3


class TestConfigFile:
    def test_flags_supply_stage_settings(self, raw_corpus, tmp_path, capsys):
        # an endpoints-only config leaves prepare at its flag defaults
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"endpoints": {}}))
        assert run("--config", str(config_path), "prepare",
                   "--in", str(raw_corpus), "--out", str(tmp_path / "data")) == 0
        assert "ratio/seed:       0.8/42" in capsys.readouterr().out

    @pytest.mark.parametrize("section", ["prepare", "train"])
    def test_stage_sections_rejected(self, raw_corpus, tmp_path, capsys, section):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"endpoints": {}, section: {"seed": 1.7}}))
        out_dir = tmp_path / "data"
        assert run("--config", str(config_path), "prepare", "--in", str(raw_corpus),
                   "--out", str(out_dir)) == 1
        assert f"{config_path}: unknown config keys: {section} " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_must_be_object(self, raw_corpus, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(["endpoints"]))
        assert run("--config", str(config_path), "prepare", "--in", str(raw_corpus),
                   "--out", str(tmp_path / "data")) == 1
        assert f"{config_path}: config must be a json object" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--targets", "fat"], ["train", "--tol", "1e-6"], ["train", "--max-iter", "10"],
    ["train", "--word-features", "100"], ["train", "--char-features", "100"],
    ["evaluate", "--pred", "p.jsonl", "--labels", "v.jsonl", "--nutrients", "fat"],
    ["train", "--vectorizer-out", "v.json"],
    ["predict", "--model", "m.bin", "--in", "v.jsonl", "--out", "p.jsonl", "--vectorizer", "v.json"],
    ["bench", "--model", "m.bin", "--in", "v.jsonl", "--vectorizer", "v.json"],
    ["bench", "--model", "m.bin", "--in", "v.jsonl", "--warmup", "5"]])
def test_removed_flags_are_usage_errors(argv, capsys):
    if argv[0] == "train":
        argv = [*argv, "--train", "t.jsonl", "--out", "m.bin"]
    assert run(*argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _package_imports(path: Path) -> set[str]:
    """The package modules a source file imports, at module level or inside a
    function; imports made only for type checking do not count."""
    found = set()
    nodes = [ast.parse(path.read_text(encoding="utf-8"))]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            nodes.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # from .x import y, or from . import x, y
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        nodes.extend(ast.iter_child_nodes(node))
    return found


def test_modules_parse_as_oldest_supported_python():
    # syntax newer than requires-python fails here, not only under that Python
    root = Path(cli.__file__).parents[2]
    oldest = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    feature_version = (3, int(oldest.group(1)))
    for path in sorted(Path(cli.__file__).parent.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=feature_version)


def test_cli_imports_every_module():
    # a module that no pipeline stage imports is dead code; stages import some
    # modules inside their own functions, so follow the source, not sys.modules
    package = Path(cli.__file__).parent
    modules = {m.name for m in pkgutil.iter_modules([str(package)])}
    reached, pending = set(), ["cli"]
    while pending:
        module = pending.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        pending.extend(_package_imports(package / f"{module}.py"))
    assert sorted(modules - reached) == []


@pytest.mark.parametrize("module", ["cli", "dataset", "evaluate", "llm"])
def test_module_loads_neither_numpy_nor_model_code(module):
    # the label, prediction and llm stages need no numerical code, and no HTTP
    # client until a request is sent
    script = (f"import sys, recipe_nutrients.{module}\n"
              "print(' '.join(m for m in ('numpy', 'requests', 'recipe_nutrients.ridge',\n"
              "                           'recipe_nutrients.features') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True)
    assert result.stdout.split() == []


@pytest.fixture(scope="module")
def stage_inputs(trained_pipeline, tmp_path_factory):
    """Small inputs for every stage; the llm-predict and refine transcripts are
    recorded against a stub that is stopped before any replay."""
    root = tmp_path_factory.mktemp("stages")
    train, val = root / "train.jsonl", root / "val.jsonl"
    save_samples(train, load_samples(trained_pipeline["train"])[:40])
    save_samples(val, load_samples(trained_pipeline["val"])[:4])
    preds = root / "preds.jsonl"
    assert run("predict", "--model", str(trained_pipeline["model"]), "--in", str(val),
               "--out", str(preds)) == 0
    (root / "ids.txt").write_text(load_samples(val)[0].id + "\n")
    stub = ScriptedServer()
    try:
        # one reply that both parsers read
        stub.reply_with('{"protein_g": 5, "fat_g": 6, "sugars_g": 7, "saturates_g": 8} '
                        "fat - 4, protein - 3, saturates - 2, sugars - 1")
        config = stub_config(root, stub)
        for command in ("llm-predict", "refine"):
            argv = ["--config", config, command, "--endpoint", "local", "--in", str(val),
                    "--out", str(root / f"{command}.jsonl"),
                    "--cache", str(root / f"{command}.transcript.jsonl")]
            assert run(*argv, *(["--pred", str(preds)] if command == "refine" else [])) == 0
    finally:
        stub.stop()
    return {"root": root, "train": train, "val": val, "preds": preds, "config": config,
            "raw": trained_pipeline["raw"], "model": trained_pipeline["model"]}


# the package modules each stage loads besides cli, dataset and util; "data"
# is the packaged rules and few-shot bank, read when no file is given
MODEL = ["features", "kernels", "ridge", "stopwords"]
STAGE_MODULES = {
    "prepare": [],
    "evaluate": ["data", "evaluate"],
    "merge": ["evaluate", "llm"],
    "llm-predict": ["data", "evaluate", "llm"],
    "refine": ["evaluate", "llm"],
    "train": MODEL,
    "predict": ["evaluate", *MODEL],
    "bench": ["evaluate", *MODEL],
}


@pytest.mark.parametrize("command", list(STAGE_MODULES))
def test_stage_loads_only_what_it_uses(stage_inputs, command):
    # each stage in a fresh interpreter, as a user runs it; the llm stages
    # answer every sample from --cache, and only the model stages load numpy.
    # train runs at one alpha, so neither it nor prepare loads evaluate or llm
    inp, root = stage_inputs, stage_inputs["root"]
    loaded = ["numpy"] if command in ("train", "predict", "bench") else []
    llm_args = ["--config", inp["config"], command, "--endpoint", "local",
                "--in", str(inp["val"]), "--out", str(root / f"replayed-{command}.jsonl"),
                "--cache", str(root / f"{command}.transcript.jsonl")]
    argv = {
        "prepare": ["prepare", "--in", str(inp["raw"]), "--out", str(root / "data")],
        "evaluate": ["evaluate", "--pred", str(inp["preds"]), "--labels", str(inp["val"])],
        "merge": ["merge", "--base", str(inp["preds"]), "--override", str(inp["preds"]),
                  "--ids", str(root / "ids.txt"), "--out", str(root / "merged.jsonl")],
        "llm-predict": llm_args,
        "refine": [*llm_args, "--pred", str(inp["preds"])],
        "train": ["train", "--train", str(inp["train"]), "--out", str(root / "m.bin")],
        "predict": ["predict", "--model", str(inp["model"]), "--in", str(inp["val"]),
                    "--out", str(root / "p.jsonl")],
        "bench": ["bench", "--model", str(inp["model"]), "--in", str(inp["val"])],
    }[command]
    script = ("import sys\n"
              "from recipe_nutrients import cli\n"
              "code = cli.run(sys.argv[1:])\n"
              "print(code, *(m for m in ('numpy', 'requests') if m in sys.modules))\n"
              "print(*sorted(m.split('.', 1)[1] for m in sys.modules\n"
              "              if m.startswith('recipe_nutrients.')))")
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                            text=True, check=True)
    *_, status, package = result.stdout.splitlines()
    assert status.split() == ["0", *loaded], result.stderr
    assert package.split() == sorted(["cli", "dataset", "util", *STAGE_MODULES[command]])
