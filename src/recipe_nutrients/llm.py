"""Chat-model tier: prompt rendering, transport, output parsing, merging.

Two prompt styles are supported: direct inference (few-shot, answer in a
fixed one-line format) and refinement (the model adjusts an existing
prediction and returns JSON). Transport speaks the common chat-completions
HTTP+JSON protocol so both local inference servers and cloud APIs work; all
endpoint specifics live in EndpointConfig. Every request or parse failure is
one logged warning and a missing prediction, never an exception; transient
ones (connection errors, timeouts, bodies cut short, HTTP 429/5xx) retry first.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .dataset import NutrientPrediction, ParseError, render_answer, scan_nutrient_pairs
from .util import checked, format_decimal, load_jsonl, parse_jsonl

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

REFINE_JSON_KEYS = ("protein_g", "fat_g", "sugars_g", "saturates_g")

DIRECT_SYSTEM_PROMPT = """\
You are a specialized nutritional data analyst. Your task is to calculate the nutrient profile per 100g for recipes provided in [INST] format.

Instructions:
Unit Conversion: Convert all units (e.g., pounds, cups, tablespoons, ml) to grams (g) using standard conversion factors (e.g., 1 cup water ≈ 236.6g, 1 tablespoon butter ≈ 14.2g).
Calculation: Sum the total weight and total nutrients of all ingredients, then normalize the values to a 100g portion.
Output Format: You must only provide the final result in this specific format:
Nutrient values per 100 g: fat - [value], protein - [value], saturates - [value], sugars - [value]"""

REFINE_SYSTEM_PROMPT = "You are a nutrition expert."

REFINE_USER_TEMPLATE = """\
Food:
{text}

Predicted nutrients per 100g:
Protein: {protein}
Fat: {fat}
Sugar: {sugars}
Saturates: {saturates}

Return JSON only with keys:
protein_g, fat_g, sugars_g, saturates_g"""


class TransportError(RuntimeError):
    """Request never produced a usable response (retries exhausted)."""


class EndpointError(RuntimeError):
    """The endpoint answered with a terminal error or malformed body."""


@dataclass(frozen=True)
class ChatRequest:
    system: str
    messages: tuple[dict, ...]  # alternating user/assistant, final user

    def __post_init__(self) -> None:
        if not self.system:
            raise ValueError("system message must be non-empty")
        if not self.messages or self.messages[-1]["role"] != "user":
            raise ValueError("final message must be a user message")
        for i, message in enumerate(self.messages):
            expected = "user" if i % 2 == 0 else "assistant"
            if message["role"] != expected:
                raise ValueError(f"messages must alternate user/assistant (message {i})")

    def to_payload(self, model_name: str) -> dict:
        # fixed sampling settings; they are part of request_hash, so cached
        # transcripts replay only while these bytes stay the same
        return {
            "model": model_name,
            "messages": [{"role": "system", "content": self.system},
                         *({"role": m["role"], "content": m["content"]} for m in self.messages)],
            "temperature": 0.0,
            "max_tokens": 256,
        }


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    api_key_env: str | None = None
    timeout: float = 60.0
    max_retries: int = 2
    max_concurrency: int = 1
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        for name, kind, noun in [("base_url", str, "a string"), ("model_name", str, "a string"),
                                 ("api_key_env", (str, type(None)), "a string or null"),
                                 ("max_retries", int, "an integer"),
                                 ("max_concurrency", int, "an integer")]:
            value = getattr(self, name)
            # isinstance counts a bool as an int
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{name} must be {noun}, got {value!r}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if not (math.isfinite(self.backoff_base) and self.backoff_base >= 0):
            raise ValueError(f"backoff_base must be finite and >= 0, got {self.backoff_base!r}")


@dataclass(frozen=True)
class FewShotBank:
    """Worked examples for the direct prompt; every exemplar is one shot."""

    exemplars: tuple[tuple[str, NutrientPrediction], ...]

    @classmethod
    def from_file(cls, path: str | Path) -> "FewShotBank":
        exemplars = []
        record = checked(path, lambda: f"bad few-shot record {index}")
        for index, row in enumerate(load_jsonl(path)):
            with record:
                exemplars.append((str(row["ingredient_text"]), NutrientPrediction.from_dict(row)))
        return cls(exemplars=tuple(exemplars))

    @classmethod
    def default(cls) -> "FewShotBank":
        ref = resources.files("recipe_nutrients.data") / "fewshot_bank.jsonl"
        with resources.as_file(ref) as path:
            return cls.from_file(path)


def render_direct_prompt(ingredient_text: str, bank: FewShotBank) -> ChatRequest:
    """Few-shot direct-inference request; exemplars become worked turns."""
    if not ingredient_text.strip():
        raise ValueError("ingredient_text must be non-empty")
    messages: list[dict] = []
    for text, pred in bank.exemplars:
        messages.append({"role": "user", "content": f"[INST] {text} [/INST]"})
        messages.append({"role": "assistant", "content": render_answer(pred)})
    messages.append({"role": "user", "content": f"[INST] {ingredient_text} [/INST]"})
    return ChatRequest(system=DIRECT_SYSTEM_PROMPT, messages=tuple(messages))


def render_refine_prompt(ingredient_text: str, pred: NutrientPrediction) -> ChatRequest:
    """Refinement request: the text plus current predictions, JSON answer."""
    user = REFINE_USER_TEMPLATE.format(
        text=ingredient_text, **{key: format_decimal(v) for key, v in pred.to_dict().items()})
    return ChatRequest(system=REFINE_SYSTEM_PROMPT, messages=({"role": "user", "content": user},))


def request_hash(req: ChatRequest, ep: EndpointConfig) -> str:
    payload = req.to_payload(ep.model_name)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


_thread_state = threading.local()


def _session() -> requests.Session:
    """This thread's HTTP session, so its requests reuse kept-alive connections."""
    import requests  # here and in complete() only, so a replay from --cache never loads it

    session = getattr(_thread_state, "session", None)
    if session is None:
        session = _thread_state.session = requests.Session()
        weakref.finalize(threading.current_thread(), session.close)
    return session


def _api_key(ep: EndpointConfig) -> str | None:
    """The endpoint's API key (None if it needs none); ValueError if its variable is unset."""
    if not ep.api_key_env:
        return None
    key = os.environ.get(ep.api_key_env)
    if not key:
        raise ValueError(f"environment variable {ep.api_key_env!r} is not set")
    return key


def complete(req: ChatRequest, ep: EndpointConfig) -> str:
    """POST the request to {base_url}/chat/completions and return the reply text.

    Each thread sends over its own keep-alive session. Transient failures
    (connection errors, timeouts, a body cut short, HTTP 429/5xx) retry with
    exponential backoff up to max_retries; other non-2xx statuses and any
    other failure of the request (a body that does not decode) fail
    immediately with EndpointError.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    key = _api_key(ep)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    url = ep.base_url.rstrip("/") + "/chat/completions"
    payload = req.to_payload(ep.model_name)

    last_failure = "no attempt made"
    for attempt in range(ep.max_retries + 1):
        if attempt:
            time.sleep(ep.backoff_base * 2 ** (attempt - 1))
        try:
            response = _session().post(url, json=payload, headers=headers, timeout=ep.timeout)
        except (requests.ConnectionError, requests.Timeout,
                requests.exceptions.ChunkedEncodingError) as exc:
            last_failure = f"{type(exc).__name__}: {exc}"
            logger.debug("attempt %d failed: %s", attempt + 1, last_failure)
            continue
        except requests.RequestException as exc:
            raise EndpointError(f"request failed: {type(exc).__name__}: {exc}") from exc
        if response.status_code == 429 or response.status_code >= 500:
            last_failure = f"HTTP {response.status_code}"
            logger.debug("attempt %d failed: %s", attempt + 1, last_failure)
            continue
        if not 200 <= response.status_code < 300:
            raise EndpointError(
                f"endpoint returned HTTP {response.status_code}: {response.text[:200]}")
        try:
            body = response.json()
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise EndpointError(
                f"malformed completion body ({exc}): {response.text[:200]}") from exc
        if not isinstance(content, str):
            raise EndpointError(f"completion content is not text: {content!r}")
        return content
    raise TransportError(
        f"request failed after {ep.max_retries + 1} attempts; last failure: {last_failure}")


class TranscriptCache:
    """Append-only json-lines transcript enabling offline replay of runs.

    Each record is ``{id, request_hash, response}``, three strings. A final
    line cut short by a crash mid-append is skipped with a warning and cut
    off before the next record is appended; a malformed line or record
    anywhere else raises ValueError.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], str] = {}
        # (offset, prefix): before the next append, cut the file at offset and
        # write prefix, so that the new record starts on a line of its own
        self._repair: tuple[int, bytes] | None = None
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        body, _, tail = data.rpartition(b"\n")
        rows = list(parse_jsonl(body.split(b"\n"), self.path))
        if tail:
            try:
                rows += parse_jsonl([tail], self.path)
                self._repair = (len(data), b"\n")
            except ValueError:
                logger.warning("%s: skipping the torn last line (%d bytes)", self.path, len(tail))
                self._repair = (len(data) - len(tail), b"")
        record = checked(self.path, lambda: f"malformed transcript record {index}")
        for index, row in enumerate(rows):
            with record:
                values = [row.get(key) for key in ("id", "request_hash", "response")]
                if not all(isinstance(value, str) for value in values):
                    raise TypeError("id, request_hash and response must all be strings")
            sample_id, req_hash, response = values
            self._entries[(sample_id, req_hash)] = response

    def lookup(self, sample_id: str, req_hash: str) -> str | None:
        return self._entries.get((sample_id, req_hash))

    def record(self, sample_id: str, req_hash: str, response: str) -> None:
        row = {"id": sample_id, "request_hash": req_hash, "response": response}
        line = (json.dumps(row, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            self._entries[(sample_id, req_hash)] = response
            with open(self.path, "ab") as fh:
                if self._repair is not None:
                    offset, prefix = self._repair
                    fh.truncate(offset)
                    line = prefix + line
                    self._repair = None
                fh.write(line)


def complete_many(items: Sequence[tuple[str, ChatRequest]], ep: EndpointConfig,
                  cache: TranscriptCache | None = None) -> dict[str, str | None]:
    """Bounded-concurrency map over (id, request) pairs.

    Returns response text per id, in the order of items (None for ids whose
    request failed). Cached responses are replayed without touching the
    network. A failed request is logged as one warning. If a request must be
    sent and the endpoint's key variable is unset, raises ValueError before
    sending any.
    """
    results: dict[str, str | None] = {}
    pending: list[tuple[str, ChatRequest, str]] = []
    for sample_id, req in items:
        req_hash = request_hash(req, ep)
        results[sample_id] = cache.lookup(sample_id, req_hash) if cache is not None else None
        if results[sample_id] is None:
            pending.append((sample_id, req, req_hash))
    if pending:
        _api_key(ep)  # raises once, before any request, not once per sample

    def run_one(item: tuple[str, ChatRequest, str]) -> str | None:
        sample_id, req, req_hash = item
        try:
            response = complete(req, ep)
        except (TransportError, EndpointError, ValueError) as exc:
            logger.warning("%s: request failed: %s", sample_id, exc)
            return None
        if cache is not None:
            cache.record(sample_id, req_hash, response)
        return response

    with ThreadPoolExecutor(max_workers=ep.max_concurrency) as pool:
        for (sample_id, _, _), response in zip(pending, pool.map(run_one, pending)):
            results[sample_id] = response
    return results


def parse_replies(replies: Mapping[str, str | None],
                  parse: Callable[[str], NutrientPrediction]) -> dict[str, NutrientPrediction]:
    """parse() each reply; the ids whose request failed (None, logged by
    complete_many) or whose reply does not parse (logged here) are left out."""
    preds: dict[str, NutrientPrediction] = {}
    for sample_id, reply in replies.items():
        if reply is not None:
            try:
                preds[sample_id] = parse(reply)
            except ParseError as exc:
                logger.warning("%s: %s", sample_id, exc)
    return preds


def parse_llm_nutrients(text: str) -> NutrientPrediction:
    """Scan free text for the four "key - number" pairs (see dataset.scan_nutrient_pairs)."""
    return NutrientPrediction(**scan_nutrient_pairs(text, NutrientPrediction.KEYS))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj and obj[key] != value:
            raise ValueError(f"key {key!r} is given twice with different values")
        obj[key] = value
    return obj


def _first_json_object(text: str) -> dict:
    decoder = json.JSONDecoder(object_pairs_hook=_unique_keys)
    for index, char in enumerate(text):
        if char != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text, index)
        except json.JSONDecodeError:
            continue
        except (ValueError, RecursionError) as exc:  # repeated key, too many digits, too deep
            raise ParseError(f"unreadable json object ({exc}): {text[:120]!r}") from None
        if isinstance(obj, dict):
            return obj
    raise ParseError(f"no json object found in output: {text[:120]!r}")


def parse_refine_json(text: str) -> NutrientPrediction:
    """Read the reply's first json object (code fences and prose tolerated)."""
    obj = _first_json_object(text)
    values: dict[str, float] = {}
    for key in REFINE_JSON_KEYS:
        if key not in obj:
            raise ParseError(f"refinement json is missing key {key!r}: {text[:120]!r}")
        value = obj[key]
        # the bound is false for NaN, infinities and integers past the float range
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ParseError(f"refinement key {key!r} is not a finite number: {value!r:.40}")
        values[key.removesuffix("_g")] = max(0.0, float(value))
    return NutrientPrediction(**values)


def merge_predictions(base: Mapping[str, NutrientPrediction],
                      override: Mapping[str, NutrientPrediction],
                      ids: set[str]) -> dict[str, NutrientPrediction]:
    """Replace exactly the entries in ids with override's values."""
    outside = ids - set(base)
    if outside:
        some = ", ".join(sorted(outside)[:5])
        raise ValueError(f"{len(outside)} ids are not in the base predictions (e.g. {some})")
    unavailable = ids - set(override)
    if unavailable:
        some = ", ".join(sorted(unavailable)[:5])
        raise ValueError(f"{len(unavailable)} ids have no override prediction (e.g. {some})")
    return {sample_id: override[sample_id] if sample_id in ids else pred
            for sample_id, pred in base.items()}
