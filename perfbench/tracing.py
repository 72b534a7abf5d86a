"""In-memory span tracer for the traced pipeline run.

The tracer wraps the public functions listed in ``TARGETS`` from outside the
program: every module of the package that holds a reference to a target gets
the wrapper instead, and methods are replaced on their class. Each call
records a span (name, start, end, parent) plus whatever its hook notes about
arguments or result. Spans stay in memory until the run ends; ``uninstall``
restores the original functions.

A call made on a thread with no open span (a worker of a thread pool) takes
the current stage as its parent. A stage's self time is its duration minus the
union of its children's intervals.

A target the program no longer has is recorded in ``absent``; the metrics
built on it then read 0 and are reported as absent.
"""

from __future__ import annotations

import bisect
import functools
import os
import sys
import threading
import time

PACKAGE = "recipe_nutrients"


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _config_arg(args, kwargs, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _note_fit(span, args, kwargs, result):
    span.attrs["mode"] = _config_arg(args, kwargs, 1, "config").mode
    span.attrs["size"] = len(result)


def _note_train(span, args, kwargs, result):
    config = _config_arg(args, kwargs, 3, "config")
    span.attrs["alpha"] = config.alpha if config is not None else 1.0
    matrix = args[0]
    arrays = [getattr(matrix, a, None) for a in ("data", "indices", "indptr")]
    if all(a is not None for a in arrays):
        rows = matrix.shape[0]
        nnz = len(arrays[0])
        # one X z: read data, indices, indptr and the gathered x entries; write y
        span.attrs["matvec_bytes"] = sum(a.nbytes for a in arrays) + 8 * nnz + 8 * rows
        span.attrs["nnz_per_row"] = nnz / rows
    span.attrs["unconverged"] = len(result.warnings)


def _note_file_size(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _note_lookup(span, args, kwargs, result):
    span.attrs["hit"] = result is not None


# (module, attribute path, hook); the span is named "<module>.<attribute path>"
TARGETS = (
    ("dataset", "load_raw", None),
    ("dataset", "extract_ingredients", None),
    ("dataset", "parse_answer", None),
    ("dataset", "deduplicate", None),
    ("dataset", "split", None),
    ("dataset", "save_samples", None),
    ("dataset", "load_samples", None),
    ("features", "fit", _note_fit),
    ("features", "analyze", None),
    ("features", "transform", None),
    ("features", "CombinedVectorizer.load", None),
    ("features", "CombinedVectorizer.fingerprint", None),
    ("kernels", "stack_rows", None),
    ("kernels", "CsrMatrix.matvec", None),
    ("kernels", "CsrMatrix.rmatvec", None),
    ("ridge", "train", _note_train),
    ("ridge", "predict", None),
    ("ridge", "predict_batch", None),
    ("ridge", "save_model", None),
    ("ridge", "load_model", None),
    ("llm", "render_direct_prompt", None),
    ("llm", "render_refine_prompt", None),
    ("llm", "request_hash", None),
    ("llm", "complete", None),
    ("llm", "TranscriptCache.__init__", None),
    ("llm", "TranscriptCache.lookup", _note_lookup),
    ("llm", "TranscriptCache.record", None),
    ("llm", "parse_llm_nutrients", None),
    ("llm", "parse_refine_json", None),
    ("llm", "refine", None),
    ("evaluate", "evaluate", None),
    ("evaluate", "load_predictions", None),
    ("evaluate", "save_predictions", None),
    ("util", "load_jsonl", _note_file_size),
    ("util", "dump_jsonl", _note_file_size),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.stage: Span | None = None
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else tracer.stage)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.absent = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, path, hook in TARGETS:
            name = f"{module_name}.{path}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, hook))
            else:
                wrapped = self._wrap(original, name, hook)
            if owner_name:
                self._replace(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_stage(self, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of a pipeline stage."""
        span = Span(name, None)
        self.stage = span
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self.stage = None
            self.spans.append(span)


def self_time(stage: Span, spans: list[Span]) -> float:
    """Stage duration not covered by any of its child spans."""
    intervals = sorted((s.start, s.end) for s in spans if s.parent is stage)
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return stage.duration - covered


ALPHAS = ("0.1", "1", "10", "100")
CLI_STAGES = ("prepare", "train", "grid", "predict", "evaluate", "llm-live", "llm-replay", "refine")

# name -> (unit, better). Times ending in _s are totals over the traced run;
# _ms and _us are means per call.
LAYER_METRICS = {
    "dataset.load_raw_s": ("s", "lower"),
    "dataset.parse_s": ("s", "lower"),
    "dataset.dedup_s": ("s", "lower"),
    "dataset.split_s": ("s", "lower"),
    "dataset.save_samples_s": ("s", "lower"),
    "dataset.load_samples_s": ("s", "lower"),
    "features.fit_word_s": ("s", "lower"),
    "features.fit_char_s": ("s", "lower"),
    "features.analyze_calls": ("count", "lower"),
    "features.analyze_s": ("s", "lower"),
    "features.transform_calls": ("count", "lower"),
    "features.transform_s": ("s", "lower"),
    "features.word_dim": ("count", "higher"),
    "features.char_dim": ("count", "higher"),
    "features.nnz_per_row": ("count", "lower"),
    "features.vectorizer_load_s": ("s", "lower"),
    "features.fingerprint_s": ("s", "lower"),
    "kernels.stack_rows_s": ("s", "lower"),
    "kernels.matvec_calls": ("count", "lower"),
    "kernels.matvec_ms": ("ms", "lower"),
    "kernels.rmatvec_calls": ("count", "lower"),
    "kernels.rmatvec_ms": ("ms", "lower"),
    "kernels.matvec_bytes": ("bytes-computed", "lower"),
    **{f"ridge.cg_iterations.alpha-{a}": ("count", "lower") for a in ALPHAS},
    **{f"ridge.solve_s.alpha-{a}": ("s", "lower") for a in ALPHAS},
    "ridge.unconverged_targets": ("count", "lower"),
    "ridge.predict_batch_s": ("s", "lower"),
    "ridge.predict_us": ("us", "lower"),
    "ridge.save_model_s": ("s", "lower"),
    "ridge.load_model_s": ("s", "lower"),
    "llm.render_us": ("us", "lower"),
    "llm.request_hash_us": ("us", "lower"),
    "llm.requests": ("count", "lower"),
    "llm.complete_ms": ("ms", "lower"),
    "llm.connections_per_request": ("conn/req", "lower"),
    "llm.cache_load_s": ("s", "lower"),
    "llm.cache_hits": ("count", "higher"),
    "llm.cache_misses": ("count", "lower"),
    "llm.cache_record_us": ("us", "lower"),
    "llm.parse_us": ("us", "lower"),
    "llm.refine_ms": ("ms", "lower"),
    "evaluate.evaluate_s": ("s", "lower"),
    "evaluate.load_predictions_s": ("s", "lower"),
    "evaluate.save_predictions_s": ("s", "lower"),
    "util.load_jsonl_s": ("s", "lower"),
    "util.dump_jsonl_s": ("s", "lower"),
    "util.bytes_read": ("bytes", "lower"),
    "util.bytes_written": ("bytes", "lower"),
    **{f"cli.{stage}.self_s": ("s", "lower") for stage in CLI_STAGES},
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(tracer: Tracer, stub_requests: int, stub_connections: int,
                  overhead_pct: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the recorded spans, and the names that are absent."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s in spans(*names))

    def mean(scale, *names):
        found = spans(*names)
        return scale * total(*names) / len(found) if found else 0.0

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans(name))

    fits = {s.attrs["mode"]: s for s in spans("features.fit")}
    trains = spans("ridge.train")
    first_train = trains[0].attrs if trains else {}
    matvec_starts = sorted(s.start for s in spans("kernels.CsrMatrix.matvec"))
    lookups = spans("llm.TranscriptCache.lookup")
    values = {
        "dataset.load_raw_s": total("dataset.load_raw"),
        "dataset.parse_s": total("dataset.parse_answer", "dataset.extract_ingredients"),
        "dataset.dedup_s": total("dataset.deduplicate"),
        "dataset.split_s": total("dataset.split"),
        "dataset.save_samples_s": total("dataset.save_samples"),
        "dataset.load_samples_s": total("dataset.load_samples"),
        "features.fit_word_s": sum(s.duration for s in spans("features.fit")
                                   if s.attrs["mode"] == "word"),
        "features.fit_char_s": sum(s.duration for s in spans("features.fit")
                                   if s.attrs["mode"] == "char_wb"),
        "features.analyze_calls": len(spans("features.analyze")),
        "features.analyze_s": total("features.analyze"),
        "features.transform_calls": len(spans("features.transform")),
        "features.transform_s": total("features.transform"),
        "features.word_dim": fits["word"].attrs["size"] if "word" in fits else 0,
        "features.char_dim": fits["char_wb"].attrs["size"] if "char_wb" in fits else 0,
        "features.nnz_per_row": first_train.get("nnz_per_row", 0),
        "features.vectorizer_load_s": total("features.CombinedVectorizer.load"),
        "features.fingerprint_s": total("features.CombinedVectorizer.fingerprint"),
        "kernels.stack_rows_s": total("kernels.stack_rows"),
        "kernels.matvec_calls": len(matvec_starts),
        "kernels.matvec_ms": mean(1e3, "kernels.CsrMatrix.matvec"),
        "kernels.rmatvec_calls": len(spans("kernels.CsrMatrix.rmatvec")),
        "kernels.rmatvec_ms": mean(1e3, "kernels.CsrMatrix.rmatvec"),
        "kernels.matvec_bytes": first_train.get("matvec_bytes", 0),
        "ridge.unconverged_targets": attr_sum("ridge.train", "unconverged"),
        "ridge.predict_batch_s": total("ridge.predict_batch"),
        "ridge.predict_us": mean(1e6, "ridge.predict"),
        "ridge.save_model_s": total("ridge.save_model"),
        "ridge.load_model_s": total("ridge.load_model"),
        "llm.render_us": mean(1e6, "llm.render_direct_prompt", "llm.render_refine_prompt"),
        "llm.request_hash_us": mean(1e6, "llm.request_hash"),
        "llm.requests": len(spans("llm.complete")),
        "llm.complete_ms": mean(1e3, "llm.complete"),
        "llm.connections_per_request": stub_connections / stub_requests if stub_requests else 0.0,
        "llm.cache_load_s": total("llm.TranscriptCache.__init__"),
        "llm.cache_hits": sum(1 for s in lookups if s.attrs["hit"]),
        "llm.cache_misses": sum(1 for s in lookups if not s.attrs["hit"]),
        "llm.cache_record_us": mean(1e6, "llm.TranscriptCache.record"),
        "llm.parse_us": mean(1e6, "llm.parse_llm_nutrients", "llm.parse_refine_json"),
        "llm.refine_ms": mean(1e3, "llm.refine"),
        "evaluate.evaluate_s": total("evaluate.evaluate"),
        "evaluate.load_predictions_s": total("evaluate.load_predictions"),
        "evaluate.save_predictions_s": total("evaluate.save_predictions"),
        "util.load_jsonl_s": total("util.load_jsonl"),
        "util.dump_jsonl_s": total("util.dump_jsonl"),
        "util.bytes_read": attr_sum("util.load_jsonl", "bytes"),
        "util.bytes_written": attr_sum("util.dump_jsonl", "bytes"),
        "trace.overhead_pct": overhead_pct,
    }
    # the first ridge.train at each alpha: X z applications inside it, and its time
    absent = []
    for alpha in ALPHAS:
        train = next((s for s in trains if f"{s.attrs['alpha']:g}" == alpha), None)
        iterations = solve = 0.0
        if train is None:
            absent += [f"ridge.cg_iterations.alpha-{alpha}", f"ridge.solve_s.alpha-{alpha}"]
        else:
            iterations = (bisect.bisect_right(matvec_starts, train.end)
                          - bisect.bisect_left(matvec_starts, train.start))
            solve = train.duration
        values[f"ridge.cg_iterations.alpha-{alpha}"] = iterations
        values[f"ridge.solve_s.alpha-{alpha}"] = solve
    for stage in CLI_STAGES:
        values[f"cli.{stage}.self_s"] = sum(self_time(s, tracer.spans)
                                            for s in spans(f"cli.{stage}"))
    # a metric that reads 0 in a module that lost a wrapped function is absent, not zero
    lost_modules = {name.split(".")[0] for name in tracer.absent}
    absent += [name for name, value in values.items()
               if value == 0 and name.split(".")[0] in lost_modules and name not in absent]
    return values, absent
