"""Recipe dataset ingestion: prompt/answer parsing, dedup, and splitting.

Input rows pair a natural-language prompt (which embeds the ingredient list)
with an answer string listing six nutrient values per 100 g. This module
extracts the ingredient text, parses the labels, removes duplicate recipes,
and produces deterministic train/validation splits. Both nutrient records,
the labels and the predictions, live here with their one-line answer format.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Iterable, Sequence

from .util import dump_jsonl, format_decimal, load_jsonl

NUTRIENT_NAMES = ("energy", "fat", "protein", "salt", "saturates", "sugars")
SCORED_NUTRIENTS = ("fat", "protein", "saturates", "sugars")


@dataclass(frozen=True)
class NutrientRecord:
    """Nutrient values per 100 g: one field per name in ``KEYS``, in that order, each
    finite and >= 0."""

    KEYS: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for name in self.KEYS:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"nutrient {name!r} must be finite and >= 0, got {value!r}")

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.KEYS}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "NutrientRecord":
        return cls(**{name: float(d[name]) for name in cls.KEYS})


@dataclass(frozen=True)
class NutrientVector(NutrientRecord):
    """The six labeled nutrient values per 100 g.

    Units: fat/protein/saturates/sugars are grams per 100 g. The energy and
    salt units are carried opaquely as they appear in the source data; both
    fields are parsed and stored but never trained or scored.
    """

    KEYS = NUTRIENT_NAMES

    energy: float
    fat: float
    protein: float
    salt: float
    saturates: float
    sugars: float

    @property
    def saturates_exceeds_fat(self) -> bool:
        """Data-quality flag; source rows may violate saturates <= fat."""
        return self.saturates > self.fat


@dataclass(frozen=True)
class NutrientPrediction(NutrientRecord):
    """The four scored nutrients, grams per 100 g, as a model predicts them."""

    KEYS = SCORED_NUTRIENTS

    fat: float
    protein: float
    saturates: float
    sugars: float


@dataclass(frozen=True)
class RawSample:
    id: str
    prompt: str
    answer: str | None = None


@dataclass(frozen=True)
class RecipeSample:
    id: str
    ingredient_text: str
    labels: NutrientVector | None = None


@dataclass(frozen=True)
class DatasetSplit:
    train: list[RecipeSample]
    validation: list[RecipeSample]


def load_raw(path: str | Path, format: str = "jsonl") -> list[RawSample]:
    """Load raw prompt/answer rows from a json-lines or csv file.

    Ids come from an ``id`` field when present, else the zero-based record
    index as a string. Ids must be unique within the file.
    """
    if format == "jsonl":
        records: list[dict[str, Any]] = load_jsonl(path)
    elif format == "csv":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            records = list(csv.DictReader(fh))
    else:
        raise ValueError(f"unknown format {format!r}; expected 'jsonl' or 'csv'")

    samples: list[RawSample] = []
    seen_ids: set[str] = set()
    for index, record in enumerate(records):
        prompt = record.get("prompt")
        if prompt is None or str(prompt).strip() == "":
            raise ValueError(f"{path}: record {index} is missing a non-empty 'prompt' field")
        answer = record.get("answer")
        if answer is not None:
            answer = str(answer)
            if answer.strip() == "":
                answer = None
        raw_id = record.get("id")
        sample_id = str(raw_id) if raw_id not in (None, "") else str(index)
        if sample_id in seen_ids:
            raise ValueError(f"{path}: record {index} has duplicate id {sample_id!r}")
        seen_ids.add(sample_id)
        samples.append(RawSample(id=sample_id, prompt=str(prompt), answer=answer))
    return samples


_INGREDIENTS_MARKER = re.compile(r"ingredients\s*:", re.IGNORECASE)


def extract_ingredients(prompt: str) -> str:
    """Return the ingredient list embedded in a prompt.

    Takes the text after the last "ingredients:" marker (case-insensitive,
    optional whitespace before the colon). Prompts without the marker, or
    with nothing after it, fall back to the whole prompt, trimmed.
    """
    last = None
    for match in _INGREDIENTS_MARKER.finditer(prompt):
        last = match
    if last is not None:
        tail = prompt[last.end():].strip()
        if tail:
            return tail
    return prompt.strip()


class ParseError(ValueError):
    """Text did not contain the required nutrient values."""


# Words that, put before a key, name another quantity ("saturated fat" is not fat).
_KEY_QUALIFIERS = frozenset({"saturated", "unsaturated", "monounsaturated", "polyunsaturated",
                             "trans", "added"})

# what may not follow a number, as it would have been read cut short: "1e",
# "1.e5", "1.2.3"
_TRUNCATED = re.compile(r"\.?[\deE]")


@functools.lru_cache(maxsize=None)
def _pair_pattern(keys: tuple[str, ...]) -> re.Pattern:
    # "key - number": the word before the key, if any, is captured so that a
    # qualified key can be told apart; a key joined to a word before it
    # ("low-fat", "xfat") is no key. The number may carry an exponent.
    return re.compile(
        rf"(?:\b([a-z]+)\s+)?(?<![\w-])({'|'.join(keys)})\s*-\s*"
        r"(\d+(?:\.\d+)?(?:e[+-]?\d+)?)",
        flags=re.IGNORECASE)


def scan_nutrient_pairs(text: str, keys: tuple[str, ...]) -> dict[str, float]:
    """Read one value per key from "key - number" pairs in free text, any order.

    Keys are case-insensitive; a key qualified by a word such as "saturated"
    is skipped. A key repeated with another value, a missing key, or a number
    that would have to be cut short to be read or overflows raises ParseError
    rather than yield a guess.
    """
    values: dict[str, float] = {}
    for match in _pair_pattern(keys).finditer(text):
        qualifier, key, number = match.groups()
        if qualifier is not None and qualifier.lower() in _KEY_QUALIFIERS:
            continue
        if _TRUNCATED.match(text, match.end()):
            raise ParseError(f"malformed number after {key!r}: {text[match.start(3):][:20]!r}")
        key, value = key.lower(), float(number)
        if not math.isfinite(value):
            raise ParseError(f"{key!r} is out of range: {number[:20]!r}")
        if values.setdefault(key, value) != value:
            raise ParseError(f"text gives {key!r} twice with different values: {text[:120]!r}")
    missing = [key for key in keys if key not in values]
    if missing:
        raise ParseError(f"text is missing nutrient keys {missing}: {text[:120]!r}")
    return values


def parse_answer(answer: str) -> NutrientVector:
    """Parse the six nutrient labels out of an answer string.

    Uses the same "key - number" rules as model output (:func:`scan_nutrient_pairs`).
    """
    return NutrientVector(**scan_nutrient_pairs(answer, NUTRIENT_NAMES))


def render_answer(record: NutrientRecord) -> str:
    """Render a record in the canonical answer format (its keys, two decimals, half-up)."""
    parts = ", ".join(f"{key} - {format_decimal(v)}" for key, v in record.to_dict().items())
    return f"Nutrient values per 100 g: {parts}"


def _dedup_key(text: str) -> str:
    return " ".join(text.lower().split())


def deduplicate(samples: Sequence[RecipeSample]) -> list[RecipeSample]:
    """Drop later samples whose normalized ingredient text was already seen.

    The normalization key is the lowercased text with whitespace runs
    collapsed to single spaces; input order is preserved.
    """
    seen: set[str] = set()
    kept: list[RecipeSample] = []
    for sample in samples:
        key = _dedup_key(sample.ingredient_text)
        if key in seen:
            continue
        seen.add(key)
        kept.append(sample)
    return kept


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic PRNG (splitmix64) so splits reproduce anywhere.

    state' = state + 0x9E3779B97F4A7C15;  output mixes the new state with
    two xor-shift-multiply rounds. Reference: Steele, Lea & Flood (2014).
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def _shuffled_indices(n: int, seed: int) -> list[int]:
    # Fisher-Yates driven by splitmix64; modulo bias is negligible at 2**64.
    rng = SplitMix64(seed)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_uint64() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def split(samples: Sequence[RecipeSample], ratio: float, seed: int) -> DatasetSplit:
    """Deterministically shuffle and partition samples into train/validation.

    The first floor(ratio * n) shuffled samples form the train set; neither
    set may be empty.
    """
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    n = len(samples)
    # tiny epsilon corrects float representation error (e.g. 0.7 * 10 -> 6.999...)
    n_train = math.floor(ratio * n + 1e-9)
    if not 0 < n_train < n:
        raise ValueError(f"ratio {ratio} of {n} samples leaves an empty split "
                         f"(train {n_train}, validation {n - n_train})")
    order = _shuffled_indices(n, seed)
    train = [samples[i] for i in order[:n_train]]
    validation = [samples[i] for i in order[n_train:]]
    return DatasetSplit(train=train, validation=validation)


def save_samples(path: str | Path, samples: Iterable[RecipeSample]) -> int:
    """Write samples as the canonical json-lines dump (id, ingredient_text, labels)."""
    def rows():
        for s in samples:
            row: dict[str, Any] = {"id": s.id, "ingredient_text": s.ingredient_text}
            if s.labels is not None:
                row["labels"] = s.labels.to_dict()
            yield row

    return dump_jsonl(path, rows())


def load_samples(path: str | Path) -> list[RecipeSample]:
    """Read a canonical json-lines dump written by :func:`save_samples`.

    Ids must be unique within the file.
    """
    samples = []
    seen_ids: set[str] = set()
    for index, row in enumerate(load_jsonl(path)):
        try:
            text = row["ingredient_text"]
            if not isinstance(text, str):
                raise TypeError("ingredient_text must be a string")
            labels = NutrientVector.from_dict(row["labels"]) if row.get("labels") else None
            sample = RecipeSample(id=str(row["id"]), ingredient_text=text, labels=labels)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad sample record {index}: {exc}") from exc
        if sample.id in seen_ids:
            raise ValueError(f"{path}: record {index} has duplicate id {sample.id!r}")
        seen_ids.add(sample.id)
        samples.append(sample)
    return samples
