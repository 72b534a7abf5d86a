#!/usr/bin/env python3
"""Stage-by-stage benchmark of the recipe-nutrients pipeline.

One round runs a workload end to end through the CLI, each stage in its own
process with a user's defaults (BLAS pinned to one thread, no ``--workers``):

    prepare -> train --alpha 1 -> train --alpha-grid -> predict -> evaluate
    -> set-up probes and a single-sample latency loop (perfbench/probe.py)
    -> llm-predict --cache (live, against the stub) -> the same, replayed
    -> refine

The LLM stages talk to perfbench/stub.py, started in its own process before
the first round and excluded from every metric. After each round every
stage's output is checked (perfbench/checks.py). Rounds repeat while the next
one is expected to end within ``--seconds`` (always at least one), and each
metric is the median over rounds.

With ``--trace 1`` the rounds run in this process instead: once plainly and
once with the package's public functions wrapped by perfbench/tracing.py. The
per-layer metrics come from the traced pass; their overhead is the traced
pass's stage time over the plain pass's.

Usage, from the repository root::

    python3 perfbench/run.py --workload wide_vocab --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one json object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# pin BLAS before numpy is imported here or in any stage process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import corpus  # noqa: E402

REPS = 3  # runs of train and of each cheap stage per untraced round; metrics take the median
SETUP_ONLY_PROBES = 2  # per repetition, on top of the set-up each latency-loop probe makes

END_TO_END = {
    "setup_s": "s",
    "prepare_s": "s",
    "train_s": "s",
    "grid_s": "s",
    "predict_rows_per_s": "rows/s",
    "single_p99_ms": "ms",
    "llm_replay_rps": "samples/s",
    "val_acc_pct": "%",
    "peak_rss_mb": "MB",
}


class StageError(RuntimeError):
    pass


# --- executors: how a stage runs ------------------------------------------------

class Subprocesses:
    """Each stage in a fresh process; records wall time and peak RSS."""

    def __init__(self, logdir: Path) -> None:
        self.logdir = logdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.peak_rss_mb = 0.0

    def _start(self, stage: str, argv: list[str]) -> subprocess.Popen:
        with open(self.logdir / f"{stage}.err", "ab") as err:
            return subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                    stderr=err, env=self.env, cwd=ROOT)

    def _finish(self, stage: str, proc: subprocess.Popen) -> bytes:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            tail = (self.logdir / f"{stage}.err").read_text(errors="replace")[-2000:]
            raise StageError(f"stage {stage} exited with {proc.returncode}:\n{tail}")
        return out

    def write_text(self, path: Path, text: str) -> None:
        path.write_text(text, encoding="utf-8")

    def cli(self, stage: str, argv: list[str]) -> float:
        start = time.perf_counter()
        self._finish(stage, self._start(stage, ["-m", "recipe_nutrients.cli", *argv]))
        return time.perf_counter() - start

    def probe(self, model: Path, samples: Path, loop: bool) -> tuple[float, dict | None]:
        """Set-up time of a fresh probe process, and its latency loop when asked."""
        stage = "single" if loop else "setup"
        argv = [str(HERE / "probe.py"), "--model", str(model), "--samples", str(samples)]
        start = time.perf_counter()
        proc = self._start(stage, argv + (["--loop"] if loop else []))
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        out = self._finish(stage, proc)
        if ready.strip() != b"ready":
            raise StageError(f"stage {stage}: probe printed {ready!r} instead of ready")
        return elapsed, json.loads(out) if loop else None


class InProcess:
    """Each stage as a call in this process, optionally as a traced stage."""

    def __init__(self, tracer=None) -> None:
        from recipe_nutrients import cli

        import probe

        self._cli_run = cli.run
        self._probe = probe
        self.tracer = tracer
        self.peak_rss_mb = 0.0
        self.total_s = 0.0

    def _call(self, stage: str, fn, *args):
        start = time.perf_counter()
        if self.tracer is None:
            result = fn(*args)
        else:
            self.tracer.install()
            try:
                result = self.tracer.run_stage(stage, fn, *args)
            finally:
                self.tracer.uninstall()
        elapsed = time.perf_counter() - start
        self.total_s += elapsed
        return elapsed, result

    def write_text(self, path: Path, text: str) -> None:
        path.write_text(text, encoding="utf-8")

    def cli(self, stage: str, argv: list[str]) -> float:
        with contextlib.redirect_stdout(io.StringIO()):
            elapsed, code = self._call(f"cli.{stage}", self._cli_run, argv)
        if code != 0:
            raise StageError(f"stage {stage} returned {code}")
        return elapsed

    def probe(self, model: Path, samples: Path, loop: bool) -> tuple[float, dict | None]:
        text = self._probe.first_text(str(samples))
        elapsed, predictor = self._call("bench.setup", self._probe.load_predictor, str(model), text)
        if not loop:
            return elapsed, None
        return elapsed, self._call("bench.single", self._probe.latency_loop, *predictor,
                                   str(samples))[1]


class Paired:
    """Runs each stage twice in this process, plainly and traced, in alternating order.

    The plain run reads and writes under ``shadow`` what the traced run reads and
    writes under ``work``, so the two passes do the same work side by side and
    machine drift during the round reaches both alike.
    """

    def __init__(self, tracer, work: Path, shadow: Path) -> None:
        self.plain = InProcess()
        self.traced = InProcess(tracer)
        self.peak_rss_mb = 0.0
        self._work, self._shadow_root = str(work), str(shadow)
        self._calls = 0
        shadow.mkdir(parents=True)

    def _shadow(self, arg):
        if isinstance(arg, list):
            return [self._shadow(a) for a in arg]
        text = str(arg)
        if not text.startswith(self._work):
            return arg
        return type(arg)(self._shadow_root + text[len(self._work):])

    def _twice(self, method: str, *args):
        shadowed = [self._shadow(a) for a in args]
        self._calls += 1
        if self._calls % 2:
            getattr(self.plain, method)(*shadowed)
            return getattr(self.traced, method)(*args)
        result = getattr(self.traced, method)(*args)
        getattr(self.plain, method)(*shadowed)
        return result

    def write_text(self, path: Path, text: str) -> None:
        path.write_text(text, encoding="utf-8")
        self._shadow(path).write_text(text, encoding="utf-8")

    def cli(self, stage: str, argv: list[str]) -> float:
        return self._twice("cli", stage, argv)

    def probe(self, model: Path, samples: Path, loop: bool) -> tuple[float, dict | None]:
        return self._twice("probe", model, samples, loop)


# --- the stub process ------------------------------------------------------------

class StubProcess:
    def __init__(self, workdir: Path, table: dict) -> None:
        table_path = workdir / "stub_table.json"
        port_path = workdir / "stub_port.txt"
        table_path.write_text(json.dumps(table), encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--table", str(table_path),
             "--port-file", str(port_path)],
            stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not port_path.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise StageError("the chat stub did not start")
            time.sleep(0.05)
        self.base = f"http://127.0.0.1:{port_path.read_text().strip()}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/stats", timeout=10) as resp:
            return json.load(resp)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# --- one round -------------------------------------------------------------------

@dataclasses.dataclass
class Context:
    seed: int
    shape: corpus.Shape
    corpus: corpus.Corpus
    raw: Path
    config: Path
    stub: StubProcess
    rules: dict


@dataclasses.dataclass
class Round:
    metrics: dict[str, float]
    ops: dict[str, tuple[int, int]]  # stage -> (attempted, failed)
    failures: dict[str, list[str]]  # check -> messages
    artifacts: dict  # what the checks read, for the self-test
    times: dict[str, list[float]]  # stage -> wall time of each run of it


def run_round(exe, work: Path, ctx: Context, reps: int) -> Round:
    """Run every stage into ``work``, then check every output.

    The grid, the live LLM pass and refine run once. train and the cheap
    stages run ``reps`` times, placed before, between and after the grid, so
    their samples spread over the round and a slow spell of the machine
    reaches few of them. The samples taken before the grid serve the train
    model, whose vocabulary and size are the grid model's; the later train
    runs write a model of their own, which is checked like the first.
    """
    work.mkdir(parents=True)
    data = work / "data"
    train, val = data / "train.jsonl", data / "val.jsonl"
    model_a1, model = work / "model_a1.bin", work / "model.bin"
    model_a1_rep = work / "model_a1_rep.bin"
    report = work / "eval.json"
    llm_in, llm_preds = work / "llm_in.jsonl", work / "llm_preds.jsonl"
    transcript, live, replay = work / "transcript.jsonl", work / "live.jsonl", work / "replay.jsonl"
    refined = work / "refined.jsonl"
    llm_args = ["--config", str(ctx.config)]
    predict_llm = llm_args + ["llm-predict", "--endpoint", "stub", "--in", str(llm_in),
                              "--cache", str(transcript), "--out"]
    times: dict[str, list[float]] = {}
    loops, replays = [], []
    replay_requests = 0

    def timed(stage: str, argv: list[str]) -> None:
        times.setdefault(stage, []).append(exe.cli(stage, argv))

    def prepare_and_replay() -> None:
        """prepare, then llm-predict answered from the live pass's transcript."""
        nonlocal replay_requests
        timed("prepare", ["prepare", "--in", str(ctx.raw), "--out", str(data),
                          "--ratio", str(ctx.shape.ratio), "--seed", str(ctx.seed)])
        if not replays:
            exe.write_text(llm_in, _head(val, ctx.shape.llm_samples))
            timed("llm-live", predict_llm + [str(live)])
        before = ctx.stub.stats()
        timed("llm-replay", predict_llm + [str(replay)])
        replay_requests += ctx.stub.stats()["requests"] - before["requests"]
        replays.append(replay.read_bytes())

    def serve(model_path: Path) -> None:
        """predict and the probes; with the grid model, evaluate and refine once."""
        preds = _preds_path(model_path)
        timed("predict", ["predict", "--model", str(model_path), "--in", str(val),
                          "--out", str(preds)])
        if model_path == model and not report.exists():
            exe.cli("evaluate", ["evaluate", "--pred", str(preds), "--labels", str(val),
                                 "--json-out", str(report)])
            exe.write_text(llm_preds, _head(preds, ctx.shape.llm_samples))
            timed("refine", llm_args + ["refine", "--endpoint", "stub", "--pred", str(llm_preds),
                                        "--in", str(llm_in), "--out", str(refined)])
        setup_s, loop = exe.probe(model_path, val, loop=True)
        loops.append((model_path.name, loop))
        times.setdefault("setup", []).append(setup_s)
        times["setup"].extend(exe.probe(model_path, val, loop=False)[0]
                              for _ in range(SETUP_ONLY_PROBES))

    def train_a1(out: Path) -> None:
        timed("train", ["train", "--train", str(train), "--out", str(out), "--alpha", "1"])

    prepare_and_replay()
    train_a1(model_a1)
    if reps > 1:
        serve(model_a1)
    timed("grid", ["train", "--train", str(train), "--out", str(model),
                   "--alpha-grid", ctx.shape.alpha_grid, "--val", str(val)])
    for _ in range(max(1, reps - 1)):
        if reps > 1:
            prepare_and_replay()
            train_a1(model_a1_rep)
        serve(model)

    # --- checks
    train_rows, val_rows = checks.read_jsonl(train), checks.read_jsonl(val)
    stopwords = _stopwords()
    if Path(f"{model}.vocab.json").read_bytes() != Path(f"{model_a1}.vocab.json").read_bytes():
        raise StageError("train and the grid fitted different vocabularies on the same data")
    labels = {r["id"]: r["labels"] for r in val_rows}
    art = {
        "unique": ctx.corpus.unique, "ratio": ctx.shape.ratio,
        "train": train_rows, "val": val_rows, "labels": labels, "rules": ctx.rules,
        "x_train": checks.design_matrix(f"{model}.vocab.json",
                                        [r["ingredient_text"] for r in train_rows], stopwords),
        "x_val": checks.design_matrix(f"{model}.vocab.json",
                                      [r["ingredient_text"] for r in val_rows], stopwords),
        "models": {path.name: checks.decode_model(path)
                   for path in (model_a1, model_a1_rep, model) if path.exists()},
        "preds": checks.read_jsonl(_preds_path(model)),
        "preds_a1": checks.read_jsonl(_preds_path(model_a1)) if reps > 1 else [],
        "singles": [(name, [{"id": i, **p} for i, p in zip(loop["ids"], loop["predictions"])])
                    for name, loop in loops],
        "report": json.loads(report.read_text()),
        "live": live.read_bytes(), "replays": replays, "replay_requests": replay_requests,
        "refined": checks.read_jsonl(refined),
        "llm_ids": [r["id"] for r in val_rows[:ctx.shape.llm_samples]],
        "stub_sent": {i: {n: float(corpus.format_2dp(lab[n])) for n in checks.SCORED}
                      for i, lab in labels.items()},
    }
    failures = verify(art)

    n, k = len(val_rows), ctx.shape.llm_samples
    ops = {
        "prepare": (reps, 0), "train": (reps, 0), "grid": (1, 0), "predict": (reps, 0),
        "evaluate": (1, 0), "setup": (len(times["setup"]), 0),
        "single": (sum(len(loop["ids"]) for _, loop in loops), 0),
        "llm-live": (k, k - art["live"].count(b"\n")),
        "llm-replay": (reps * k, sum(k - out.count(b"\n") for out in replays)),
        "refine": (k, len(_refine_fallbacks(art))),
    }
    med = {stage: statistics.median(values) for stage, values in times.items()}
    metrics = {
        "setup_s": med["setup"],
        "prepare_s": med["prepare"],
        "train_s": med["train"],
        "grid_s": med["grid"],
        "predict_rows_per_s": n / med["predict"],
        "single_p99_ms": statistics.median(
            _percentile(loop["latencies_ns"], 0.99) for _, loop in loops) / 1e6,
        "llm_replay_rps": k / med["llm-replay"],
        "val_acc_pct": checks.mean_accuracy_pct(
            checks.accuracy(ctx.rules, labels, {p["id"]: p for p in art["preds"]})),
        "peak_rss_mb": exe.peak_rss_mb,
    }
    return Round(metrics=metrics, ops=ops, failures=failures, artifacts=art, times=times)


def _preds_path(model_path: Path) -> Path:
    return model_path.with_name(f"preds_{model_path.stem}.jsonl")


def _head(path: Path, n: int) -> str:
    with open(path, encoding="utf-8") as fh:
        return "".join(line for _, line in zip(range(n), fh))


def _stopwords() -> frozenset:
    from recipe_nutrients.stopwords import ENGLISH_STOPWORDS
    return frozenset(ENGLISH_STOPWORDS)


def _percentile(values: list, q: float):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _values(row: dict) -> dict:
    return {n: row[n] for n in checks.SCORED}


def _refine_fallbacks(art: dict) -> set[str]:
    """Refined rows that kept the input prediction instead of the stub's answer."""
    base = {r["id"]: _values(r) for r in art["preds"]}
    return {r["id"] for r in art["refined"]
            if _values(r) != art["stub_sent"].get(r["id"]) and _values(r) == base.get(r["id"])}


def verify(art: dict) -> dict[str, list[str]]:
    """Every output check over one round's artifacts; check name -> failures."""
    model = art["models"]["model.bin"]
    by_id = {p["id"]: p for p in art["preds"]}
    counts = checks.accuracy(art["rules"], art["labels"], by_id)
    val_ids = [r["id"] for r in art["val"]]
    return {
        "split": checks.check_split(art["unique"], art["ratio"], art["train"], art["val"]),
        "optimality": [f"{name}: {msg}" for name, m in art["models"].items()
                       for msg in checks.check_optimality(m, art["x_train"], art["train"])],
        "predictions": checks.check_predictions(model, art["x_val"], val_ids, art["preds"],
                                                "predict") + (checks.check_predictions(
            art["models"]["model_a1.bin"], art["x_val"], val_ids, art["preds_a1"],
            "predict with model_a1.bin") if art["preds_a1"] else []),
        "single": [msg for name, single in art["singles"] for msg in checks.check_predictions(
            art["models"][name], art["x_val"], val_ids, single, f"single-sample loop ({name})")],
        "report": checks.check_report(counts, art["report"]),
        "beats-constant": checks.check_beats_constant(art["rules"], art["train"],
                                                      art["labels"], by_id),
        "llm-live": checks.check_stub_values(
            [json.loads(line) for line in art["live"].splitlines()], art["stub_sent"],
            art["llm_ids"], "llm-predict"),
        "refine": checks.check_stub_values(art["refined"], art["stub_sent"], art["llm_ids"],
                                           "refine"),
        "replay": checks.check_replay(art["live"], art["replays"], art["replay_requests"]),
    }


# --- a run -----------------------------------------------------------------------

def make_context(workload: str, seed: int, workdir: Path, shape: corpus.Shape) -> Context:
    generated = corpus.generate(workload, seed, shape)
    raw = workdir / "raw.jsonl"
    corpus.write_jsonl(raw, generated.raw_rows)
    table = {text: labels for text, labels in generated.unique.values()}
    stub_proc = StubProcess(workdir, table)
    config = workdir / "pipeline.json"
    nproc = len(os.sched_getaffinity(0))
    config.write_text(json.dumps({"endpoints": {"stub": {
        "base_url": stub_proc.base + "/v1", "model_name": "stub", "timeout": 30,
        "max_retries": 0, "max_concurrency": nproc}}}), encoding="utf-8")
    rules = checks.load_rules(SRC / "recipe_nutrients" / "data" / "eu_tolerances.json")
    return Context(seed=seed, shape=shape, corpus=generated, raw=raw,
                   config=config, stub=stub_proc, rules=rules)


def _warm_bytecode(workdir: Path) -> None:
    """Import every module once so no timed stage pays for compiling bytecode."""
    Subprocesses(workdir).cli("warm", ["--help"])


def measure(ctx: Context, workdir: Path, seconds: float, trace: bool):
    """Whole rounds while the next is expected to fit in ``seconds``; at least one."""
    rounds, layers, absent = [], [], set()
    start = time.monotonic()
    while True:
        index = len(rounds)
        if trace:
            rnd, values, missing = traced_round(ctx, workdir / f"round{index}")
            layers.append(values)
            absent.update(missing)
        else:
            logdir = workdir / f"round{index}-logs"
            logdir.mkdir()
            rnd = run_round(Subprocesses(logdir), workdir / f"round{index}", ctx, REPS)
        rounds.append(rnd)
        if any(rnd.failures.values()):
            break
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    return rounds, layers, sorted(absent)


def traced_round(ctx: Context, work: Path):
    """Each stage plainly and traced, alternating; per-layer values from the traced runs.

    The stub serves both, so connections per request cover both passes alike.
    """
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    paired = Paired(tracer, work / "traced", work / "plain")
    before = ctx.stub.stats()
    rnd = run_round(paired, work / "traced", ctx, 1)
    after = ctx.stub.stats()
    plain_s, traced_s = paired.plain.total_s, paired.traced.total_s
    values, absent = layer_metrics(tracer, after["requests"] - before["requests"],
                                   after["connections"] - before["connections"],
                                   100.0 * (traced_s - plain_s) / plain_s)
    return rnd, values, absent


def report(rounds: list[Round], layers: list[dict], absent: list[str], trace: bool,
           elapsed: float) -> dict:
    failures = {name: msgs for r in rounds for name, msgs in r.failures.items() if msgs}
    for name, msgs in failures.items():
        for msg in msgs[:5]:
            print(f"check {name} FAILED: {msg}")
    stages = {}
    for r in rounds:
        for stage, (attempted, failed) in r.ops.items():
            a, f = stages.get(stage, (0, 0))
            stages[stage] = (a + attempted, f + failed)
    for stage, (attempted, failed) in stages.items():
        samples = " ".join(f"{t:.3f}" for r in rounds for t in r.times.get(stage, ()))
        print(f"stage {stage:<11} attempted {attempted:>6} failed {failed:>6}"
              + (f"  times {samples} s" if samples else ""))
    print(f"{len(rounds)} round(s) in {elapsed:.1f} s")
    if trace:
        from tracing import LAYER_METRICS
        metrics = {name: {"value": statistics.median(v[name] for v in layers), "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        if absent:
            print("absent (read as 0): " + ", ".join(absent))
    else:
        metrics = {name: {"value": statistics.median(r.metrics[name] for r in rounds),
                          "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    return {"correct": not failures,
            "attempted": sum(a for a, _ in stages.values()),
            "failed": sum(f for _, f in stages.values()),
            "metrics": metrics}


def self_test(workdir: Path) -> int:
    """Run a small round, then show each check failing on a corrupted output."""
    import copy

    import numpy as np

    shape = dataclasses.replace(corpus.WORKLOADS["wide_vocab"], n_unique=500, n_duplicates=25,
                                alpha_grid="1,10", llm_samples=40)
    ctx = make_context("wide_vocab", 5, workdir, shape)
    try:
        logdir = workdir / "logs"
        logdir.mkdir()
        rnd = run_round(Subprocesses(logdir), workdir / "round", ctx, 2)
    finally:
        ctx.stub.stop()
    clean = {name: msgs for name, msgs in rnd.failures.items() if msgs}
    if clean:
        print(f"self-test: checks fail on the uncorrupted round: {clean}")
        return 1

    def scale_weights(art):
        m = art["models"]["model.bin"]
        m["weights"] = m["weights"] * 1.001

    def shift_intercept(art):
        m = art["models"]["model_a1.bin"]
        m["intercepts"] = m["intercepts"] + np.array([0.5] + [0.0] * (len(m["intercepts"]) - 1))

    def bump(rows, key="fat"):
        rows[3] = dict(rows[3], **{key: rows[3][key] + 0.01})

    def constant_preds(art):
        means = {n: sum(r["labels"][n] for r in art["train"]) / len(art["train"])
                 for n in checks.SCORED}
        art["preds"] = [{"id": p["id"], **means} for p in art["preds"]]

    def bump_live(art):
        rows = [json.loads(line) for line in art["live"].splitlines()]
        bump(rows)
        art["live"] = b"".join(json.dumps(r).encode() + b"\n" for r in rows)

    def drop_val_row(art):
        art["val"].pop()

    def bump_pred(art):
        bump(art["preds"])

    def bump_single(art):
        bump(art["singles"][1][1], "protein")

    def bump_refined(art):
        bump(art["refined"], "sugars")

    def drop_live(art):
        art["live"] = b"".join(art["live"].splitlines(keepends=True)[1:])

    def refine_fallback(art):
        base = {p["id"]: p for p in art["preds"]}
        row = art["refined"][3]
        art["refined"][3] = dict(row, **_values(base[row["id"]]))

    def miscount(art):
        art["report"]["fat"]["within"] += 1

    def extra_line(art):
        art["replays"][1] += b"\n"

    def online(art):
        art["replay_requests"] = 1

    # (check, text its failure must contain, corruption)
    corruptions = [
        ("split", "split sizes", drop_val_row),
        ("optimality", "grad w", scale_weights),
        ("optimality", "residuals sum", shift_intercept),
        ("predictions", "expected", bump_pred),
        ("single", "expected", bump_single),
        ("report", "recomputed", miscount),
        ("beats-constant", "does not beat", constant_preds),
        ("llm-live", "the stub sent", bump_live),
        ("llm-live", "requested samples", drop_live),
        ("refine", "the stub sent", bump_refined),
        ("refine", "the stub sent", refine_fallback),
        ("replay", "differs", extra_line),
        ("replay", "during replay", online),
    ]
    missed = 0
    for check, needle, corrupt in corruptions:
        art = copy.deepcopy(rnd.artifacts)
        corrupt(art)
        hits = [msg for msg in verify(art)[check] if needle in msg]
        missed += not hits
        status = f"fails as it should: {hits[0]}" if hits else "DID NOT FAIL"
        print(f"self-test {check:<15} {corrupt.__name__:<15} {status}")
    print(f"self-test: {len(corruptions) - missed}/{len(corruptions)} corruptions caught")
    return 1 if missed else 0


def machine_line() -> str:
    import platform

    import numpy
    import scipy

    try:
        from recipe_nutrients import kernels
        backend = getattr(kernels, "BACKEND", "absent")
    except ImportError:
        backend = "absent"
    return (f"machine: nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, kernels.BACKEND {backend}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="recipe-nutrients pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show every output check failing on a corrupted output")
    args = parser.parse_args(argv)
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not (SRC / "recipe_nutrients" / "cli.py").is_file():
        print(f"error: no recipe_nutrients package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(machine_line())

    name = "self-test" if args.self_test else f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = ROOT / ".perfbench_runs" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.self_test:
            code = self_test(workdir)
        else:
            _warm_bytecode(workdir)
            ctx = make_context(args.workload, args.seed, workdir, corpus.WORKLOADS[args.workload])
            try:
                start = time.monotonic()
                rounds, layers, absent = measure(ctx, workdir, args.seconds, bool(args.trace))
                result = report(rounds, layers, absent, bool(args.trace),
                                time.monotonic() - start)
            finally:
                ctx.stub.stop()
            print(json.dumps(result))
            code = 0 if result["correct"] else 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"outputs kept in {workdir}", file=sys.stderr)
        return 1
    if code == 0:
        shutil.rmtree(workdir)
    else:
        print(f"outputs kept in {workdir}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
