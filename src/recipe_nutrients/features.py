"""Dual TF-IDF text representation: word 1-2-grams plus char_wb 3-5-grams.

Word-level n-grams capture ingredient terms and combinations; word-boundary
character n-grams absorb spelling variation. Each fitted vocabulary maps
terms to dense column indices with smooth idf weights; a document transforms
to an L2-normalized row per vocabulary, and the two rows sit side by side in
one row of the feature matrix.

Neither a word token nor a char_wb gram crosses whitespace, so a document's
tokens and char grams are the concatenation of its words': the char-mode
``fit`` analyses each distinct word of the corpus once, and a
``CombinedVectorizer`` keeps one bounded table from each whitespace-separated
word to its in-vocabulary columns (word unigrams and char grams) and the ids of
its tokens in the word vocabulary's bigrams, in int64 arrays, so a word is
analysed once, for both vocabularies, for the documents it turns up in. Rows
are built in blocks of at most ``_BLOCK_CHARS`` characters: a block's words
are looked up in the table, their columns gathered in numpy, its bigrams
matched from adjacent token ids, and its (row, column) occurrences counted,
weighted and normalized in numpy; the blocks' rows are stacked into one CSR
matrix.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property, partial
from itertools import chain, count, repeat
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

# bound on a CombinedVectorizer's word table, dropped after a block that passes
# it: each entry is charged its ids, its word's length and _ENTRY_CHARGE
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


def _tokens(text: str, config: VectorizerConfig) -> list[str]:
    """The word tokens of ``text``, stopwords dropped."""
    if config.lowercase:
        text = text.lower()
    tokens = _TOKEN.findall(text)
    if config.remove_stopwords:
        tokens = [t for t in tokens if t not in ENGLISH_STOPWORDS]
    return tokens


def tokenize_words(text: str, config: VectorizerConfig) -> list[str]:
    """Word n-grams: tokenize, drop stopwords, emit space-joined n-grams."""
    tokens = _tokens(text, config)
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


class _WordTable:
    """Whitespace-separated words -> entries in flat int64 arrays.

    Entry ``e`` holds ``columns[column_ptr[e]:column_ptr[e + 1]]`` and
    ``tokens[token_ptr[e]:token_ptr[e + 1]]``, laid out as in a CSR matrix.
    ``charge`` is the sum over entries of ``_ENTRY_CHARGE``, the word's length
    and its ids.
    """

    def __init__(self) -> None:
        self.entries: dict[str, int] = {}
        self.charge = 0
        self.columns = array("q")
        self.tokens = array("q")
        self.column_ptr = array("q", [0])
        self.token_ptr = array("q", [0])


def _runs(values: array, ptr: array, entries: np.ndarray,
          base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``values[ptr[e]:ptr[e + 1]]`` of ``entries`` end to end, and
    each entry's ``base`` repeated along its run."""
    # an array cannot grow while a numpy view of it is alive (BufferError), so
    # the views are only indexed here, and no view outlives the call
    ptr_view = np.frombuffer(ptr, dtype=np.int64)
    starts = ptr_view[entries]
    lengths = ptr_view[entries + 1] - starts
    offsets = (starts - lengths.cumsum() + lengths).repeat(lengths)
    offsets += np.arange(len(offsets))
    return np.frombuffer(values, dtype=np.int64)[offsets], base.repeat(lengths)


@dataclass
class CombinedVectorizer:
    """A word vocabulary and a char_wb vocabulary, side by side.

    Rows are built through one table keyed by the whitespace-separated word.
    Neither a word token nor a char_wb gram crosses whitespace, so a
    document's tokens and grams are its words' tokens and grams in order, and
    a word is analysed once for every document it turns up in. An entry holds
    the word's in-vocabulary columns (its word unigrams', then its char
    grams' shifted by ``len(self.word)``) and the ids of its tokens in the
    word vocabulary's bigrams. A row's bigrams are its adjacent token ids,
    across words with no token (``1/2``), looked up in the vocabulary's
    sorted bigram keys; so a word config may ask for word n-grams of at most
    2 words.

    Each entry is charged its ids, its word's length and ``_ENTRY_CHARGE``
    for itself. A block whose new entries take the charge past
    ``_TABLE_CAP`` is built through the table, which is then dropped; the
    next block starts an empty one. So between blocks the charge is at most
    the cap, and while a block is built at most the cap plus that block's
    own charge: a flood of long unseen words cannot grow the table. Its key
    strings, dict slots, entry numbers and arrays take ~9.1 bytes per unit
    of charge (measured with one-character words, the costliest per unit),
    so ~9 MiB at the cap. A new or loaded vectorizer starts with an empty
    table; the table takes no part in equality or the fingerprint. Building
    rows updates the table, so a vectorizer serves one thread at a time.
    """
    word: Vocabulary
    char: Vocabulary
    # the file bytes that save writes or load read, kept once known
    _file_bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _table: _WordTable = field(default_factory=_WordTable, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.word.config.mode, self.char.config.mode) != ("word", "char_wb"):
            raise ValueError("a combined vectorizer pairs a word and a char_wb vocabulary")
        if self.word.config.ngram_max > 2:
            raise ValueError("a combined vectorizer builds word n-grams of at most 2 words, "
                             f"not {self.word.config.ngram_max}")

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

    @cached_property
    def _bigrams(self) -> tuple[dict[str, int], np.ndarray, np.ndarray] | None:
        """The word vocabulary's bigrams, or None when it has none: each of
        their tokens' id, and their keys ``t1 * (n + 1) + t2`` sorted, with
        their columns. A token in no bigram has id ``n``, so no pair holding
        it has a bigram's key."""
        config = self.word.config
        if not config.ngram_min <= 2 <= config.ngram_max:
            return None
        index = self.word.term_to_index
        bigrams = [term for term in index if term.count(" ") == 1]
        if not bigrams:
            return None
        # each bigram holds one space, so the joined bigrams split into their
        # two tokens each, in turn
        tokens = " ".join(bigrams).split(" ")
        ids = dict(zip(dict.fromkeys(tokens), range(len(tokens))))
        token_ids = np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        keys = token_ids[0::2] * (len(ids) + 1) + token_ids[1::2]
        columns = np.fromiter(map(index.__getitem__, bigrams), dtype=np.int64, count=len(bigrams))
        order = keys.argsort()
        return ids, keys[order], columns[order]

    def _add(self, table: _WordTable, words: list[str]) -> None:
        """Append an entry for each of ``words`` (distinct, and none of them in
        ``table``) to ``table``, and add the entries to its charge."""
        word_get, char_get = self.word.term_to_index.get, self.char.term_to_index.get
        word_cfg, char_cfg = self.word.config, self.char.config
        offset, unigrams, bigrams = len(self.word), word_cfg.ngram_min == 1, self._bigrams
        columns, tokens = table.columns, table.tokens
        ids_before = len(columns) + len(tokens)
        for word in words:
            # lower-casing a word on its own is lower-casing it in its text:
            # the result splits at the same whitespace
            word_tokens = _tokens(word, word_cfg)
            if unigrams:
                columns.extend(i for i in map(word_get, word_tokens) if i is not None)
            grams = word_grams(word.lower() if char_cfg.lowercase else word, char_cfg)
            columns.extend(i + offset for i in map(char_get, grams) if i is not None)
            if bigrams is not None:
                token_ids = bigrams[0]
                tokens.extend(map(token_ids.get, word_tokens, repeat(len(token_ids))))
            table.column_ptr.append(len(columns))
            table.token_ptr.append(len(tokens))
        table.entries.update(zip(words, count(len(table.entries))))
        table.charge += (_ENTRY_CHARGE * len(words) + sum(map(len, words))
                         + len(columns) + len(tokens) - ids_before)

    def _entries(self, words: list[str]) -> tuple[_WordTable, np.ndarray]:
        """A table holding every one of ``words``, and each word's entry in it;
        the table is dropped after the block if this takes it past the cap."""
        table = self._table
        found = list(map(table.entries.get, words))
        if None in found:
            self._add(table, list(dict.fromkeys(w for w, e in zip(words, found) if e is None)))
            found = list(map(table.entries.get, words))
            if table.charge > _TABLE_CAP:
                self._table = _WordTable()
        return table, np.array(found, dtype=np.int64)

    def _block_rows(self, docs: list[str]) -> CsrMatrix:
        """The rows of one block of documents (see :func:`transform_batch`)."""
        words = list(map(str.split, docs))
        n_words = np.fromiter(map(len, words), dtype=np.int64, count=len(docs))
        table, entries = self._entries(list(chain.from_iterable(words)))
        # each word's row as the key of the row's column 0
        bases = (np.arange(len(docs), dtype=np.int64) * self.dim).repeat(n_words)
        columns, keys = _runs(table.columns, table.column_ptr, entries, bases)
        keys += columns
        if self._bigrams is not None:
            token_ids, bigram_keys, bigram_columns = self._bigrams
            tokens, token_bases = _runs(table.tokens, table.token_ptr, entries, bases)
            same_row = token_bases[1:] == token_bases[:-1]
            pairs = tokens[:-1][same_row] * (len(token_ids) + 1) + tokens[1:][same_row]
            at = np.minimum(bigram_keys.searchsorted(pairs), len(bigram_keys) - 1)
            hit = bigram_keys[at] == pairs
            keys = np.concatenate((keys, token_bases[:-1][same_row][hit] + bigram_columns[at[hit]]))
        return _tfidf_rows(keys, len(docs), (self.word, self.char))


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
