"""Dual TF-IDF text representation: word 1-2-grams plus char_wb 3-5-grams.

Word-level n-grams capture ingredient terms and combinations; word-boundary
character n-grams absorb spelling variation. Each fitted vocabulary maps
terms to dense column indices with smooth idf weights; a document transforms
to an L2-normalized row per vocabulary, and the two rows sit side by side in
one row of the feature matrix.

char_wb grams never cross whitespace, so a document's char grams are the
concatenation of its words' grams: ``fit`` analyses each distinct word of the
corpus once, and a ``CombinedVectorizer`` keeps a bounded table of word ->
in-vocabulary char columns, so a word is analysed once for all the documents
it turns up in. Documents become rows in blocks of at most ``_BLOCK_CHARS``
characters: each block's (row, column) occurrences are counted, weighted and
normalized in numpy, and the blocks' rows are stacked into one CSR matrix.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .kernels import CsrMatrix
from .stopwords import ENGLISH_STOPWORDS
from .util import atomic_write

FORMAT_VERSION = 1

# maximal runs of >= 2 alphanumeric characters (underscore excluded)
_TOKEN = re.compile(r"[^\W_]{2,}", re.UNICODE)

# documents become rows in blocks of at most this many characters of text (a
# longer document is a block of its own); this bounds a block's key arrays
_BLOCK_CHARS = 16_384

# bound on a CombinedVectorizer's word table: each entry is charged its column
# ids, its word's length and _ENTRY_CHARGE for the entry itself
_TABLE_CAP = 1 << 20
_ENTRY_CHARGE = 16


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
    tokens = _TOKEN.findall(text)
    if config.remove_stopwords:
        tokens = [t for t in tokens if t not in ENGLISH_STOPWORDS]
    grams: list[str] = []
    for n in range(config.ngram_min, config.ngram_max + 1):
        if n == 1:
            grams.extend(tokens)
        else:
            grams.extend(map(" ".join, zip(*(tokens[k:] for k in range(n)))))
    return grams


def word_grams(word: str, config: VectorizerConfig) -> list[str]:
    """The char_wb n-grams of one word.

    The word is padded with one leading and trailing space and enumerated for
    each n in the config's range in turn. A padded word of length at most n is
    the single whole-word gram for that n, and no larger n follows.
    """
    padded = f" {word} "
    length = len(padded)
    return [padded[i:i + n]
            for n in range(min(config.ngram_min, length), min(config.ngram_max, length) + 1)
            for i in range(length - n + 1)]


def _char_words(text: str, config: VectorizerConfig) -> list[str]:
    """The whitespace-separated words whose grams make up a char_wb document."""
    return (text.lower() if config.lowercase else text).split()


@dataclass
class Vocabulary:
    term_to_index: dict[str, int]
    idf: np.ndarray
    n_docs: int
    config: VectorizerConfig

    def __len__(self) -> int:
        return len(self.term_to_index)

    def __eq__(self, other: object) -> bool:
        # the generated __eq__ would compare the idf arrays with ==
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return (self.term_to_index == other.term_to_index and self.n_docs == other.n_docs
                and self.config == other.config and np.array_equal(self.idf, other.idf))

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
        if size and not np.all(np.isfinite(self.idf) & (self.idf > 0)):
            raise ValueError("idf values must be finite and > 0")
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
    if config.mode == "char_wb":
        # grams never cross whitespace: analyse each distinct word of the corpus once
        grams = cache(partial(word_grams, config=config))
        doc_terms = (list(chain.from_iterable(map(grams, _char_words(doc, config))))
                     for doc in corpus)
    else:
        doc_terms = (tokenize_words(doc, config) for doc in corpus)
    df: Counter[str] = Counter()
    totals: Counter[str] = Counter()
    for terms in doc_terms:
        totals.update(terms)
        df.update(set(terms))

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


def _tfidf_rows(keys: np.ndarray, n_rows: int, vocabs: Sequence[Vocabulary]) -> CsrMatrix:
    """The TF-IDF rows of term occurrences given as ``row * width + column``,
    with the vocabularies' columns side by side in a row of ``width`` columns.

    A term's tf is its number of occurrences in the row. Each (row, vocabulary)
    part is L2-normalized on its own, summing its squares in column order, so
    a row comes out the same in any batch. Sorts ``keys`` in place.
    """
    ends = np.cumsum([len(vocab) for vocab in vocabs])
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    tf = np.diff(starts, append=len(keys)).astype(np.float64)
    rows, columns = np.divmod(keys[starts], ends[-1])
    part = np.searchsorted(ends, columns, side="right")  # each column's vocabulary
    sublinear = np.array([vocab.config.sublinear_tf for vocab in vocabs])
    weights = np.where(sublinear[part], 1.0 + np.log(tf), tf)
    weights *= np.concatenate([vocab.idf for vocab in vocabs])[columns]
    group = rows * len(vocabs) + part
    norms = np.sqrt(np.bincount(group, weights=weights * weights,
                                minlength=n_rows * len(vocabs)))
    weights /= norms[group]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return CsrMatrix(data=weights, indices=columns, indptr=indptr, shape=(n_rows, int(ends[-1])))


@dataclass
class CombinedVectorizer:
    """A word vocabulary and a char_wb vocabulary, side by side.

    Rows are built through a table that maps each lower-cased word to its
    in-vocabulary char columns, in gram order. The ids are vocabulary-local
    and are the int objects of ``char.term_to_index``, so a stored id costs
    one 8-byte reference. Each entry is charged its ids, its word's length
    and ``_ENTRY_CHARGE`` for itself. When an entry would take the total
    charge past ``_TABLE_CAP``, the table is emptied first, and a word
    charged more than the cap on its own is never stored: a flood of long
    unseen words cannot grow the table. Its key strings, id tuples and dict
    slots take at most ~6 bytes per unit of charge (measured with
    one-character words, the costliest per unit), so at worst ~6 MiB. A
    new or loaded vectorizer starts with an empty table; the table takes no
    part in equality or the fingerprint. Building rows updates the table, so
    a vectorizer serves one thread at a time.
    """
    word: Vocabulary
    char: Vocabulary
    # the file bytes that save writes or load read, kept once known
    _file_bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)
    # lower-cased word -> its in-vocabulary char columns, and the table's charge
    _char_table: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _char_table_charge: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.word.config.mode, self.char.config.mode) != ("word", "char_wb"):
            raise ValueError("a combined vectorizer pairs a word and a char_wb vocabulary")

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
        try:
            raw = json.loads(file_bytes)
            version = raw.get("format_version") if isinstance(raw, dict) else None
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported vectorizer format version {version!r}")
            cv = cls(word=Vocabulary.from_dict(raw["word"]), char=Vocabulary.from_dict(raw["char"]))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad vectorizer file: {exc}") from exc
        cv._file_bytes = file_bytes
        return cv

    def fingerprint(self) -> str:
        """sha256 of the vectorizer file's bytes."""
        return f"sha256:{hashlib.sha256(self._contents()).hexdigest()}"

    def _char_columns(self, word: str) -> tuple[int, ...]:
        """The char columns of ``word``'s in-vocabulary grams, through the table."""
        ids = self._char_table.get(word)
        if ids is None:
            get = self.char.term_to_index.get
            ids = tuple(i for i in map(get, word_grams(word, self.char.config)) if i is not None)
            charge = _ENTRY_CHARGE + len(word) + len(ids)
            if charge <= _TABLE_CAP:
                if self._char_table_charge + charge > _TABLE_CAP:
                    self._char_table.clear()
                    self._char_table_charge = 0
                self._char_table[word] = ids
                self._char_table_charge += charge
        return ids

    def _block_rows(self, docs: list[str]) -> CsrMatrix:
        """The rows of one block of documents (see :func:`transform_batch`)."""
        n_docs, width, offset = len(docs), self.dim, len(self.word)
        terms = [tokenize_words(doc, self.word.config) for doc in docs]
        n_terms = np.fromiter(map(len, terms), dtype=np.int64, count=n_docs)
        word_cols = np.fromiter(map(self.word.term_to_index.get, chain.from_iterable(terms),
                                    repeat(-1)), dtype=np.int64, count=int(n_terms.sum()))
        word_keys = np.repeat(np.arange(n_docs) * width, n_terms) + word_cols
        word_keys = word_keys[word_cols >= 0]

        words = [_char_words(doc, self.char.config) for doc in docs]
        n_words = np.fromiter(map(len, words), dtype=np.int64, count=n_docs)
        columns = list(map(self._char_columns, chain.from_iterable(words)))
        n_columns = np.fromiter(map(len, columns), dtype=np.int64, count=len(columns))
        char_cols = np.fromiter(chain.from_iterable(columns), dtype=np.int64,
                                count=int(n_columns.sum()))
        char_keys = np.repeat(np.repeat(np.arange(n_docs) * width + offset, n_words), n_columns)
        char_keys += char_cols
        return _tfidf_rows(np.concatenate((word_keys, char_keys)), n_docs, (self.word, self.char))


def fit_combined(corpus: list[str]) -> CombinedVectorizer:
    """The paper's word and char_wb vocabularies, fitted on ``corpus``."""
    return CombinedVectorizer(word=fit(corpus, word_config()), char=fit(corpus, char_config()))


def _blocks(docs: Sequence[str]):
    """Consecutive runs of ``docs`` of at most ``_BLOCK_CHARS`` characters in
    all; a longer document is a block of its own, and no documents one empty
    block."""
    block: list[str] = []
    size = 0
    for doc in docs:
        if block and size + len(doc) > _BLOCK_CHARS:
            yield block
            block, size = [], 0
        block.append(doc)
        size += len(doc)
    yield block


def transform_batch(docs: Sequence[str], cv: CombinedVectorizer) -> CsrMatrix:
    """The n x cv.dim TF-IDF matrix of ``docs``: each row is the document's word
    row followed by its char row (each normalized on its own). The rows are
    built a block of documents at a time and stacked."""
    parts = [cv._block_rows(block) for block in _blocks(docs)]
    if len(parts) == 1:
        return parts[0]
    ends = np.cumsum([part.nnz for part in parts])
    indptr = np.concatenate([[0]] + [part.indptr[1:] + (end - part.nnz)
                                     for part, end in zip(parts, ends)])
    return CsrMatrix(data=np.concatenate([part.data for part in parts]),
                     indices=np.concatenate([part.indices for part in parts]),
                     indptr=indptr, shape=(len(docs), cv.dim))


def transform_combined(doc: str, cv: CombinedVectorizer) -> CsrMatrix:
    """The 1 x cv.dim row of one document (see :func:`transform_batch`)."""
    return transform_batch([doc], cv)
