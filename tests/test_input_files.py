"""Every command, every input file: a corrupted input is refused with one
``error:`` line that names it, or is read as valid; never a traceback, and a
refused run writes nothing.

Each example copies a valid set of inputs into a fresh directory, applies one
corruption to the file of one input role of one command, and runs the command
in process through ``cli.run``. The llm commands answer from transcripts
recorded for the valid inputs, and a corruption that changes a prompt is
answered by a local stub endpoint.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from conftest import ScriptedServer, make_raw_rows, write_jsonl
from hypothesis import HealthCheck, given, settings, strategies as st

from recipe_nutrients import cli
from recipe_nutrients.dataset import load_samples, save_samples

DATA = Path(cli.__file__).parent / "data"

# each command's argv: "{role}" stands for the file of an input role and
# "{out}" for the output; every command also reads --config, and one that reads
# a model also reads its vocabulary
COMMANDS = {
    "prepare": ["prepare", "--in", "{in}", "--out", "{out}"],
    "prepare-csv": ["prepare", "--format", "csv", "--in", "{in}", "--out", "{out}"],
    "train": ["train", "--train", "{train}", "--out", "{out}"],
    "train-grid": ["train", "--train", "{train}", "--alpha-grid", "1,10", "--val", "{val}",
                   "--rules", "{rules}", "--out", "{out}"],
    "predict": ["predict", "--model", "{model}", "--in", "{in}", "--out", "{out}"],
    "bench": ["bench", "--model", "{model}", "--in", "{in}"],
    "llm-predict": ["llm-predict", "--endpoint", "local", "--in", "{in}", "--shots", "{shots}",
                    "--cache", "{cache}", "--out", "{out}"],
    "refine": ["refine", "--endpoint", "local", "--pred", "{pred}", "--in", "{in}",
               "--cache", "{cache}", "--out", "{out}"],
    "merge": ["merge", "--base", "{base}", "--override", "{override}", "--ids", "{ids}",
              "--out", "{out}"],
    "evaluate": ["evaluate", "--pred", "{pred}", "--labels", "{labels}", "--rules", "{rules}",
                 "--json-out", "{out}"],
}

# each role's file among the valid inputs; --in and --cache differ by command
FILES = {"in": "val.jsonl", "train": "train.jsonl", "val": "val.jsonl", "pred": "preds.jsonl",
         "labels": "val.jsonl", "rules": "rules.json", "model": "model.bin",
         "vocab": "model.bin.vocab.json", "shots": "shots.jsonl", "base": "preds.jsonl",
         "override": "override.jsonl", "ids": "ids.txt", "config": "config.json"}
IN_FILES = {"prepare": "raw.jsonl", "prepare-csv": "raw.csv"}
CACHES = {"llm-predict": "llm-predict.transcript.jsonl", "refine": "refine.transcript.jsonl"}

DEEP = "[" * 100_000 + "]" * 100_000
WRONG_TYPES = [5, 1.5, "x", None, True, [1], {"k": 1}]


def roles(command: str) -> list[str]:
    found = re.findall(r"\{(\w+)\}", " ".join(COMMANDS[command]))
    return [role for role in found if role != "out"] + ["config"] + (
        ["vocab"] if "model" in found else [])


def role_file(command: str, role: str) -> str:
    if role == "in" and command in IN_FILES:
        return IN_FILES[command]
    return CACHES[command] if role == "cache" else FILES[role]


@pytest.fixture(scope="module")
def stub():
    server = ScriptedServer()
    # a reply that both the direct and the refine parser read
    server.reply_with('{"protein_g": 5, "fat_g": 6, "sugars_g": 7, "saturates_g": 8} '
                      "fat - 4, protein - 3, saturates - 2, sugars - 1")
    yield server
    server.stop()


@pytest.fixture(scope="module")
def valid(trained_pipeline, stub, tmp_path_factory):
    """A directory of valid inputs for every command; each llm command's
    transcript answers every request it makes on them."""
    root = tmp_path_factory.mktemp("valid")
    save_samples(root / "train.jsonl", load_samples(trained_pipeline["train"])[:30])
    val = load_samples(trained_pipeline["val"])[:4]
    save_samples(root / "val.jsonl", val)
    raw = make_raw_rows(20, seed=3)
    write_jsonl(root / "raw.jsonl", raw)
    with open(root / "raw.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["id", "prompt", "answer"])
        writer.writeheader()
        writer.writerows(raw)
    shutil.copyfile(DATA / "eu_tolerances.json", root / "rules.json")
    shutil.copyfile(DATA / "fewshot_bank.jsonl", root / "shots.jsonl")
    (root / "ids.txt").write_text(f"{val[0].id}\n{val[2].id}\n")
    (root / "config.json").write_text(json.dumps({"endpoints": {"local": {
        "base_url": stub.base_url, "model_name": "stub", "timeout": 5.0,
        "backoff_base": 0.01}}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["train", "--train", str(root / "train.jsonl"),
                        "--out", str(root / "model.bin")]) == 0
        assert cli.run(["predict", "--model", str(root / "model.bin"),
                        "--in", str(root / "val.jsonl"), "--out", str(root / "preds.jsonl")]) == 0
        for command in CACHES:
            argv = [part.format(**{role: root / role_file(command, role)
                                   for role in roles(command)}, out=root / "out.jsonl")
                    for part in COMMANDS[command]]
            assert cli.run(["--config", str(root / "config.json"), *argv]) == 0
    (root / "out.jsonl").unlink()
    shutil.copyfile(root / "preds.jsonl", root / "override.jsonl")
    stub.requests.clear()
    return root


def _fields(value, path=()):
    """The paths to ``value`` and its parts; only a container's first three
    entries are entered, so no large file is all vocabulary or weights."""
    yield path
    if isinstance(value, dict):
        for key in list(value)[:3]:
            yield from _fields(value[key], (*path, key))
    elif isinstance(value, list):
        for index in range(min(3, len(value))):
            yield from _fields(value[index], (*path, index))


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def corrupted(draw, data: bytes, kind: str):
    """``data``, the bytes of a file of ``kind`` (json, jsonl, csv or text),
    with one corruption; and the corruption's name."""
    byte_level = ["not_utf8", "bom", "crlf", "truncated", "empty"]
    name = draw(st.sampled_from(byte_level + (["wrong_type", "deep", "nonfinite", "huge"]
                                              if kind in ("json", "jsonl") else [])))
    if name == "not_utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:], name
    if name == "bom":
        return b"\xef\xbb\xbf" + data, name
    if name == "crlf":
        return data.replace(b"\n", b"\r\n"), name
    if name == "truncated":
        body, _, last = data.rstrip(b"\n").rpartition(b"\n")
        cut = draw(st.integers(1, max(1, len(last) - 1)))
        return body + b"\n" * bool(body) + last[:cut], name
    if name == "empty":
        return b"", name
    rows = ([json.loads(line) for line in data.decode("utf-8").splitlines()]
            if kind == "jsonl" else [json.loads(data)])
    index = draw(st.integers(0, len(rows) - 1))
    path = draw(st.sampled_from(list(_fields(rows[index]))))
    old = _get(rows[index], path)
    value = draw({"wrong_type": st.sampled_from([v for v in WRONG_TYPES
                                                 if type(v) is not type(old)]),
                  "deep": st.just("@@deep@@"),
                  "nonfinite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                  "huge": st.sampled_from([10 ** 400, -10 ** 400])}[name])
    rows[index] = _replaced(rows[index], path, value)
    text = "".join(json.dumps(row, ensure_ascii=False) + "\n" * (kind == "jsonl")
                   for row in rows)
    return text.replace('"@@deep@@"', DEEP).encode("utf-8"), name


def _snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _names(line: str, path: Path) -> bool:
    # model.bin is not named by model.bin.vocab.json
    return re.search(re.escape(str(path)) + r"(?![\w.])", line) is not None


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_corrupted_input_is_refused_naming_it_or_read(valid, stub, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    role = data.draw(st.sampled_from(roles(command)), label="role")
    work = Path(tempfile.mkdtemp(dir=valid.parent))
    try:
        for path in valid.iterdir():
            shutil.copyfile(path, work / path.name)
        name = role_file(command, role)
        kind = {".json": "json", ".jsonl": "jsonl", ".csv": "csv", ".txt": "text",
                ".bin": "json"}[Path(name).suffix]
        bad, corruption = data.draw(corrupted((work / name).read_bytes(), kind),
                                    label="corruption")
        (work / name).write_bytes(bad)
        argv = ["--config", str(work / "config.json")] + [
            part.format(**{r: work / role_file(command, r) for r in roles(command)},
                        out=work / "out") for part in COMMANDS[command]]
        before = _snapshot(work)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2)
        if (role, corruption) == ("cache", "truncated"):
            # a torn last line is what a crash mid-append leaves: it is skipped
            assert code == 0, err.getvalue()
        if code != 0:
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and _names(errors[0], work / name), err.getvalue()
            assert _snapshot(work) == before
    finally:
        shutil.rmtree(work)
