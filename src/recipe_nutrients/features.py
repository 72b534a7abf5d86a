"""Dual TF-IDF text representation: word 1-2-grams plus char_wb 3-5-grams.

Word-level n-grams capture ingredient terms and combinations; word-boundary
character n-grams absorb spelling variation. Each fitted vocabulary maps
terms to dense column indices with smooth idf weights; a document transforms
to an L2-normalized row per vocabulary, and the two rows sit side by side in
one row of the feature matrix, built in one pass straight to CSR.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .kernels import CsrMatrix
from .stopwords import ENGLISH_STOPWORDS
from .util import atomic_write

FORMAT_VERSION = 1

# maximal runs of >= 2 alphanumeric characters (underscore excluded)
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class VectorizerConfig:
    mode: str  # "word" | "char_wb"
    ngram_min: int
    ngram_max: int
    min_df: int
    max_df: float
    max_features: int
    sublinear_tf: bool = True
    remove_stopwords: bool = False
    lowercase: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("word", "char_wb"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise ValueError("require 1 <= ngram_min <= ngram_max")
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")
        if not 0 < self.max_df <= 1:
            raise ValueError("max_df must be in (0, 1]")
        if self.max_features < 1:
            raise ValueError("max_features must be >= 1")
        if self.mode == "char_wb" and self.remove_stopwords:
            raise ValueError("stopword removal applies to word mode only")


def word_config(**overrides) -> VectorizerConfig:
    """Word-level defaults: 1-2-grams, min_df 2, max_df 0.9, 8000 features."""
    base = dict(mode="word", ngram_min=1, ngram_max=2, min_df=2, max_df=0.9,
                max_features=8000, sublinear_tf=True, remove_stopwords=True)
    base.update(overrides)
    return VectorizerConfig(**base)


def char_config(**overrides) -> VectorizerConfig:
    """Char-level defaults: word-boundary 3-5-grams, min_df 2, max_df 0.95, 12000 features."""
    base = dict(mode="char_wb", ngram_min=3, ngram_max=5, min_df=2, max_df=0.95,
                max_features=12000, sublinear_tf=False, remove_stopwords=False)
    base.update(overrides)
    return VectorizerConfig(**base)


def tokenize_words(text: str, config: VectorizerConfig) -> list[str]:
    """Word n-grams: tokenize, drop stopwords, emit space-joined n-grams."""
    if config.lowercase:
        text = text.lower()
    tokens = [t for t in _TOKEN.findall(text) if len(t) >= 2]
    if config.remove_stopwords:
        tokens = [t for t in tokens if t not in ENGLISH_STOPWORDS]
    grams: list[str] = []
    for n in range(config.ngram_min, config.ngram_max + 1):
        if n == 1:
            grams.extend(tokens)
        else:
            grams.extend(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return grams


def char_wb_ngrams(text: str, config: VectorizerConfig) -> list[str]:
    """Character n-grams padded to word boundaries; grams never span words.

    Each whitespace-separated word is padded with one leading and trailing
    space. A word whose padded length is at most n contributes the single
    padded whole-word gram and nothing for larger n.
    """
    if config.lowercase:
        text = text.lower()
    grams: list[str] = []
    for word in text.split():
        padded = f" {word} "
        length = len(padded)
        for n in range(config.ngram_min, config.ngram_max + 1):
            if length <= n:
                grams.append(padded)
                break
            grams.extend(padded[i:i + n] for i in range(length - n + 1))
    return grams


def analyze(text: str, config: VectorizerConfig) -> list[str]:
    if config.mode == "word":
        return tokenize_words(text, config)
    return char_wb_ngrams(text, config)


@dataclass
class Vocabulary:
    term_to_index: dict[str, int]
    idf: np.ndarray
    n_docs: int
    config: VectorizerConfig

    def __len__(self) -> int:
        return len(self.term_to_index)

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "config": asdict(self.config),
            "term_to_index": self.term_to_index,
            "idf": self.idf.tolist(),
            "n_docs": self.n_docs,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Vocabulary":
        if raw.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported vocabulary format version {raw.get('format_version')!r}")
        vocab = cls(
            term_to_index={str(t): int(i) for t, i in raw["term_to_index"].items()},
            idf=np.asarray(raw["idf"], dtype=np.float64),
            n_docs=int(raw["n_docs"]),
            config=VectorizerConfig(**raw["config"]),
        )
        vocab.validate()
        return vocab

    def validate(self) -> None:
        size = len(self.term_to_index)
        indices = sorted(self.term_to_index.values())
        if indices != list(range(size)):
            raise ValueError("vocabulary indices are not dense in [0, size)")
        if len(self.idf) != size:
            raise ValueError("idf length does not match vocabulary size")
        if size and not np.all(self.idf > 0):
            raise ValueError("idf values must be > 0")
        if size > self.config.max_features:
            raise ValueError("vocabulary exceeds max_features")


def fit(corpus: list[str], config: VectorizerConfig) -> Vocabulary:
    """Fit a vocabulary: df filtering, feature cap, smooth idf.

    Terms survive when min_df <= df(t) and df(t)/n_docs <= max_df. Above
    max_features, the highest total-count terms win (ties lexicographic).
    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    df: Counter[str] = Counter()
    totals: Counter[str] = Counter()
    for doc in corpus:
        counts = Counter(analyze(doc, config))
        totals.update(counts)
        df.update(counts.keys())

    n_docs = len(corpus)
    surviving = [t for t, d in df.items()
                 if d >= config.min_df and d / n_docs <= config.max_df]
    if len(surviving) > config.max_features:
        surviving.sort(key=lambda t: (-totals[t], t))
        surviving = surviving[:config.max_features]
    if not surviving:
        raise ValueError("no terms survived document-frequency filtering")

    surviving.sort()
    term_to_index = {t: i for i, t in enumerate(surviving)}
    idf = np.empty(len(surviving), dtype=np.float64)
    for term, index in term_to_index.items():
        idf[index] = math.log((1 + n_docs) / (1 + df[term])) + 1.0
    return Vocabulary(term_to_index=term_to_index, idf=idf, n_docs=n_docs, config=config)


def transform(doc: str, vocab: Vocabulary) -> CsrMatrix:
    """TF-IDF weights of one document as a 1 x len(vocab) row, L2-normalized
    (a document with no vocabulary term is an empty row)."""
    counts = Counter(analyze(doc, vocab.config))
    columns = np.fromiter(map(vocab.term_to_index.get, counts, repeat(-1)),
                          dtype=np.int64, count=len(counts))
    tf = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    known = columns >= 0
    columns, tf = columns[known], tf[known]
    order = np.argsort(columns)
    columns, tf = columns[order], tf[order]
    weights = (1.0 + np.log(tf)) if vocab.config.sublinear_tf else tf
    weights *= vocab.idf[columns]
    norm = math.sqrt(weights @ weights)
    if norm > 0:
        weights /= norm
    return CsrMatrix(data=weights, indices=columns, indptr=np.array([0, len(columns)]),
                     shape=(1, len(vocab)))


@dataclass
class CombinedVectorizer:
    word: Vocabulary
    char: Vocabulary
    # the file bytes that save writes or load read, kept once known
    _file_bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.word) + len(self.char)

    def _contents(self) -> bytes:
        """The vectorizer file's contents (utf-8 json)."""
        if self._file_bytes is None:
            payload = {"format_version": FORMAT_VERSION,
                       "word": self.word.to_dict(), "char": self.char.to_dict()}
            self._file_bytes = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        return self._file_bytes

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            fh.write(self._contents().decode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "CombinedVectorizer":
        with open(path, "rb") as fh:
            file_bytes = fh.read()
        raw = json.loads(file_bytes)
        if raw.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported vectorizer format version {raw.get('format_version')!r}")
        cv = cls(word=Vocabulary.from_dict(raw["word"]), char=Vocabulary.from_dict(raw["char"]))
        cv._file_bytes = file_bytes
        return cv

    def fingerprint(self) -> str:
        """sha256 of the vectorizer file's bytes."""
        return f"sha256:{hashlib.sha256(self._contents()).hexdigest()}"


def fit_combined(corpus: list[str],
                 word_cfg: VectorizerConfig | None = None,
                 char_cfg: VectorizerConfig | None = None) -> CombinedVectorizer:
    return CombinedVectorizer(
        word=fit(corpus, word_cfg or word_config()),
        char=fit(corpus, char_cfg or char_config()),
    )


def transform_batch(docs: Sequence[str], cv: CombinedVectorizer) -> CsrMatrix:
    """The n x cv.dim TF-IDF matrix of ``docs``: each row is the document's word
    row followed by its char row (each normalized on its own)."""
    offset = len(cv.word)
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for doc in docs:
        word = transform(doc, cv.word)
        char = transform(doc, cv.char)
        indices += (word.indices, char.indices + offset)
        data += (word.data, char.data)
    part_ends = np.cumsum(np.fromiter(map(len, data), dtype=np.int64, count=len(data)))
    indptr = np.concatenate(([0], part_ends[1::2]))
    return CsrMatrix(data=np.concatenate(data or [np.empty(0)]),
                     indices=np.concatenate(indices or [np.empty(0, dtype=np.int64)]),
                     indptr=indptr, shape=(len(docs), cv.dim))


def transform_combined(doc: str, cv: CombinedVectorizer) -> CsrMatrix:
    """The 1 x cv.dim row of one document (see :func:`transform_batch`)."""
    return transform_batch([doc], cv)
