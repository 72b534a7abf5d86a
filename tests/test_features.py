import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from recipe_nutrients import features
from recipe_nutrients.features import (
    CombinedVectorizer,
    VectorizerConfig,
    char_config,
    fit,
    tokenize_words,
    transform_batch,
    transform_combined,
    word_config,
    word_grams,
)
from recipe_nutrients.kernels import CsrMatrix


def wcfg(**kw):
    base = dict(mode="word", ngram_min=1, ngram_max=1, min_df=1, max_df=1.0,
                max_features=1000, sublinear_tf=True, remove_stopwords=False)
    base.update(kw)
    return VectorizerConfig(**base)


def ccfg(n_min=3, n_max=5, **kw):
    base = dict(mode="char_wb", ngram_min=n_min, ngram_max=n_max, min_df=1,
                max_df=1.0, max_features=10_000, sublinear_tf=False)
    base.update(kw)
    return VectorizerConfig(**base)


def tiny_cv(corpus):
    """The paper's two vocabularies on a tiny corpus, keeping terms seen once."""
    return CombinedVectorizer(word=fit(corpus, word_config(min_df=1)),
                              char=fit(corpus, char_config(min_df=1)))


class TestTokenizeWords:
    def test_short_tokens_dropped(self):
        assert tokenize_words("2 teaspoons Corn, sweet", wcfg()) == [
            "teaspoons", "corn", "sweet"]

    def test_empty(self):
        assert tokenize_words("", wcfg()) == []

    def test_bigram_enumeration(self):
        assert tokenize_words("olive oil", wcfg(ngram_max=2)) == [
            "olive", "oil", "olive oil"]

    def test_stopword_removal_before_ngrams(self):
        grams = tokenize_words("cream of tartar", wcfg(ngram_max=2, remove_stopwords=True))
        assert grams == ["cream", "tartar", "cream tartar"]

    def test_lowercase_toggle(self):
        assert tokenize_words("Corn", wcfg(lowercase=False)) == ["Corn"]


class TestCharWbNgrams:
    def test_two_letter_word(self):
        assert word_grams("ab", ccfg(3, 3)) == [" ab", "ab "]

    def test_empty(self):
        # a document without words has no grams
        with pytest.raises(ValueError, match="survived"):
            fit(["", " \t "], ccfg())

    def test_word_shorter_than_n(self):
        assert word_grams("oil", ccfg(5, 5)) == [" oil "]

    def test_short_word_emitted_once_across_sizes(self):
        # padded " ab " has length 4: full enumeration at n=3, whole word at n=4, stop
        assert word_grams("ab", ccfg(3, 5)) == [" ab", "ab ", " ab "]

    def test_never_spans_words(self):
        terms = fit(["olive oil, raw"], ccfg(3, 5)).term_to_index
        assert " raw " in terms and "oil, " in terms
        for gram in terms:
            assert " " not in gram[1:-1], gram

    def test_punctuation_stays_inside_words(self):
        terms = fit(["corn,"], ccfg(3, 3)).term_to_index
        assert " co" in terms and "n, " in terms
        assert "rn, " not in terms


class TestFit:
    def test_idf_values(self):
        vocab = fit(["aa bb", "aa cc"], wcfg())
        assert set(vocab.term_to_index) == {"aa", "bb", "cc"}
        assert vocab.idf[vocab.term_to_index["aa"]] == pytest.approx(1.0, abs=1e-12)
        assert vocab.idf[vocab.term_to_index["bb"]] == pytest.approx(1.4054651081081644, abs=1e-12)

    def test_min_df_filters(self):
        vocab = fit(["aa bb", "aa cc"], wcfg(min_df=2))
        assert set(vocab.term_to_index) == {"aa"}

    def test_max_features_keeps_highest_count(self):
        vocab = fit(["aa bb", "aa cc"], wcfg(max_features=1))
        assert set(vocab.term_to_index) == {"aa"}

    def test_max_features_tie_breaks_lexicographically(self):
        vocab = fit(["zz aa"], wcfg(max_features=1))
        assert set(vocab.term_to_index) == {"aa"}

    def test_max_df_strictly_greater_excluded(self):
        # "cc" in 10/10 docs -> excluded at max_df 0.9; "aa" in 9/10 kept (9/10 <= 0.9)
        corpus = [f"cc aa t{i}{i}" for i in range(9)] + ["cc dd"]
        vocab = fit(corpus, wcfg(max_df=0.9, min_df=1))
        assert "cc" not in vocab.term_to_index
        assert "aa" in vocab.term_to_index

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit([], wcfg())

    def test_all_filtered_rejected(self):
        with pytest.raises(ValueError, match="survived"):
            fit(["aa", "bb"], wcfg(min_df=3))

    def test_order_insensitive(self):
        docs = ["aa bb cc", "bb cc dd", "cc dd ee", "aa ee"]
        forward = fit(docs, wcfg())
        backward = fit(list(reversed(docs)), wcfg())
        assert forward.term_to_index == backward.term_to_index
        assert np.allclose(forward.idf, backward.idf)

    def test_df_bounds_hold_by_rescan(self):
        rng = random.Random(0)
        words = [f"w{i:02d}" for i in range(30)]
        docs = [" ".join(rng.sample(words, rng.randint(2, 8))) for _ in range(40)]
        config = wcfg(min_df=2, max_df=0.5)
        vocab = fit(docs, config)
        for term in vocab.term_to_index:
            df = sum(term in set(doc.split()) for doc in docs)
            assert config.min_df <= df <= config.max_df * len(docs)


def word_row(doc, vocab):
    """The word part, columns [0, len(vocab)), of ``doc``'s row, built by
    transform_combined with ``vocab`` as the word vocabulary."""
    cv = CombinedVectorizer(word=vocab, char=fit(["aa bb cc"], ccfg()))
    row = transform_combined(doc, cv)
    n = int(np.count_nonzero(row.indices < len(vocab)))
    return CsrMatrix(data=row.data[:n], indices=row.indices[:n],
                     indptr=np.array([0, n]), shape=(1, len(vocab)))


class TestTransform:
    def test_out_of_vocabulary_doc_is_zero(self):
        vocab = fit(["aa bb", "aa cc"], wcfg())
        vec = word_row("zz yy", vocab)
        assert vec.nnz == 0 and vec.shape == (1, 3)

    def test_single_term_is_unit(self):
        vocab = fit(["aa bb", "aa cc"], wcfg())
        vec = word_row("bb", vocab)
        assert vec.data.tolist() == [1.0]

    def test_frozen_weights(self):
        # oracle: weights before norm {aa: 1*1.0, bb: (1+ln 2) * (ln(3/2)+1)}
        vocab = fit(["aa bb", "aa cc"], wcfg())
        vec = word_row("aa bb bb", vocab)
        expected = {vocab.term_to_index["aa"]: 0.3874113305052739,
                    vocab.term_to_index["bb"]: 0.9219069698164416}
        assert vec.nnz == 2
        for index, value in zip(vec.indices, vec.data):
            assert value == pytest.approx(expected[int(index)], abs=1e-12)

    def test_norm_is_one_or_zero(self):
        vocab = fit(["aa bb cc", "bb cc dd", "ee ff"], wcfg())
        for doc in ["aa bb", "ee", "zz", "aa aa bb cc dd ee ff"]:
            norm = np.linalg.norm(word_row(doc, vocab).data)
            assert norm == pytest.approx(1.0, abs=1e-12) or norm == 0.0

    def test_deterministic(self):
        vocab = fit(["aa bb", "aa cc"], wcfg())
        a, b = word_row("aa bb", vocab), word_row("aa bb", vocab)
        assert a.indices.tolist() == b.indices.tolist()
        assert a.data.tolist() == b.data.tolist()

    def test_indices_strictly_increasing(self):
        vocab = fit(["aa bb cc dd ee", "bb dd"], wcfg())
        vec = word_row("ee dd cc bb aa", vocab)
        assert all(a < b for a, b in zip(vec.indices, vec.indices[1:]))


class TestCombined:
    def test_dims_add(self):
        cv = tiny_cv(["olive oil", "corn oil", "raw corn"])
        assert cv.dim == len(cv.word) + len(cv.char)

    def test_empty_doc_zero(self):
        cv = tiny_cv(["olive oil", "corn oil"])
        assert transform_combined("", cv).nnz == 0

    def test_squared_norm_in_0_1_2(self):
        cv = tiny_cv(["olive oil", "corn oil", "butter, raw"])
        for doc in ["olive oil", "zzqq", "butter", "olive zzqq"]:
            sq = np.linalg.norm(transform_combined(doc, cv).data) ** 2
            assert min(abs(sq - k) for k in (0.0, 1.0, 2.0)) < 1e-9

    def test_char_block_offset(self):
        cv = tiny_cv(["olive oil", "corn oil", "raw corn"])
        vec = transform_combined("oil", cv)
        word_part = vec.indices < len(cv.word)
        assert word_part.any() and (~word_part).any()

    def test_paper_caps_bound_dim(self):
        cv = tiny_cv(["olive oil and corn", "corn oil, raw", "butter and salt"])
        assert cv.dim <= 8000 + 12000


# "qx" and "zz" share no word or char gram with the fitted corpus, so a document
# made only of them is an empty row
PROPERTY_CV = tiny_cv(["olive oil", "corn oil, raw", "butter and corn"])
PROPERTY_WORDS = ["olive", "oil", "Oil,", "corn", "raw", "butter", "and", "of", "qx", "zz"]


def reference_word_grams(word, config):
    """The char_wb grams of one word, enumerated size by size."""
    padded = f" {word} "
    grams = []
    for n in range(config.ngram_min, config.ngram_max + 1):
        if len(padded) <= n:
            grams.append(padded)
            break
        grams.extend(padded[i:i + n] for i in range(len(padded) - n + 1))
    return grams


def reference_terms(doc, config):
    """A document's terms: its word n-grams, or the char_wb grams of each of
    its whitespace-separated words in turn."""
    if config.mode == "word":
        return tokenize_words(doc, config)
    text = doc.lower() if config.lowercase else doc
    return [gram for word in text.split() for gram in reference_word_grams(word, config)]


def dense_tfidf(doc, vocab):
    """Reference row: TF-IDF from the term counts, one dense column per vocabulary term."""
    row = np.zeros(len(vocab))
    for term, tf in Counter(reference_terms(doc, vocab.config)).items():
        if term in vocab.term_to_index:
            weight = 1.0 + math.log(tf) if vocab.config.sublinear_tf else float(tf)
            row[vocab.term_to_index[term]] = weight * vocab.idf[vocab.term_to_index[term]]
    norm = np.linalg.norm(row)
    return row / norm if norm > 0 else row


@given(st.lists(st.lists(st.sampled_from(PROPERTY_WORDS), max_size=8).map(" ".join), max_size=6))
@example([])
@example(["", "qx zz", "olive oil oil"])  # empty rows first, an in-vocabulary row last
@example(["corn", "zz", "zz qx"])  # empty rows in the middle and at the end
def test_batch_matches_stacked_rows_and_dense_reference(docs):
    cv = PROPERTY_CV
    matrix = transform_batch(docs, cv)
    rows = [transform_combined(doc, cv) for doc in docs]
    assert matrix.shape == (len(docs), cv.dim)
    assert matrix.indptr.tolist() == np.cumsum([0] + [r.nnz for r in rows]).tolist()
    for i, row in enumerate(rows):
        start, stop = matrix.indptr[i], matrix.indptr[i + 1]
        assert matrix.indices[start:stop].tolist() == row.indices.tolist()
        assert matrix.data[start:stop].tolist() == row.data.tolist()
        assert np.all(np.diff(row.indices) > 0)
    dense = np.array([np.concatenate([dense_tfidf(d, cv.word), dense_tfidf(d, cv.char)])
                      for d in docs]).reshape(len(docs), cv.dim)
    np.testing.assert_allclose(matrix.toarray(), dense, rtol=0, atol=1e-12)


# words whose lower-casing changes their length or depends on their position,
# plus separators str.split treats as whitespace (tab, no-break space)
UNICODE_WORDS = ["İstanbul", "İ", "ΟΔΟΣ", "ΣΑΛΣΑ,", "Σ", "σοσ", "naïve", "ǅem", "ﬁg",
                 "olive", "oil", "Oil,", "corn", "qx"]
UNICODE_CV = tiny_cv(["İstanbul ΟΔΟΣ olive oil", "σαλσα naïve corn", "ǅem ﬁg oil ΣΑΛΣΑ",
                      "İ corn\tΣ olive\u00a0oil"])
unicode_docs = st.lists(
    st.lists(st.tuples(st.sampled_from(UNICODE_WORDS), st.sampled_from([" ", "\t", "\u00a0", "  "])),
             max_size=10).map(lambda pairs: "".join(w + sep for w, sep in pairs)),
    max_size=8)


def reference_fit(corpus, config):
    """term_to_index and idf from counting each document's reference terms."""
    df, totals = Counter(), Counter()
    for doc in corpus:
        counts = Counter(reference_terms(doc, config))
        totals.update(counts)
        df.update(counts.keys())
    n = len(corpus)
    kept = [t for t, d in df.items() if d >= config.min_df and d / n <= config.max_df]
    kept = sorted(sorted(kept, key=lambda t: (-totals[t], t))[:config.max_features])
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in kept])
    return {t: i for i, t in enumerate(kept)}, idf


def assert_same_rows(matrix, rows):
    """``matrix`` is ``rows`` stacked, bit for bit."""
    assert matrix.indptr.tolist() == np.cumsum([0] + [r.nnz for r in rows]).tolist()
    assert matrix.indices.tolist() == [i for r in rows for i in r.indices.tolist()]
    assert matrix.data.tobytes() == b"".join(r.data.tobytes() for r in rows)


@given(st.text(alphabet="ab İΣσ\u00a0", max_size=9), st.integers(1, 6), st.integers(0, 4))
def test_word_grams_enumerate_size_by_size(word, n_min, extra):
    config = ccfg(n_min, n_min + extra)
    assert word_grams(word, config) == reference_word_grams(word, config)


@given(unicode_docs, st.integers(1, 40))
@example(["İstanbul ΣΑΛΣΑ,\tΣ σοσ", "", "qx\u00a0oil"], 1)
def test_batch_across_blocks_matches_single_rows(docs, block_chars):
    cv = UNICODE_CV
    rows = [transform_combined(doc, CombinedVectorizer(cv.word, cv.char)) for doc in docs]
    with patch.object(features, "_BLOCK_CHARS", block_chars):
        matrix = transform_batch(docs, cv)
    assert matrix.shape == (len(docs), cv.dim)
    assert_same_rows(matrix, rows)
    dense = np.array([np.concatenate([dense_tfidf(d, cv.word), dense_tfidf(d, cv.char)])
                      for d in docs]).reshape(len(docs), cv.dim)
    np.testing.assert_allclose(matrix.toarray(), dense, rtol=0, atol=1e-12)


@given(unicode_docs)
def test_rows_same_with_cold_and_warm_table(docs):
    warm = UNICODE_CV
    transform_batch(docs[::-1], warm)
    cold = CombinedVectorizer(warm.word, warm.char)
    assert_same_rows(transform_batch(docs, warm), [transform_combined(d, cold) for d in docs])


# half the profile's examples: 50 by default, 500 under the ci profile
@settings(max_examples=settings.default.max_examples // 2)
@given(st.lists(unicode_docs.map(" ".join), min_size=1, max_size=6),
       st.sampled_from([ccfg(min_df=1), ccfg(min_df=2, max_df=0.7), ccfg(2, 4, max_features=7),
                        ccfg(1, 3, lowercase=False), wcfg(ngram_max=2, max_features=5)]))
def test_fit_matches_counting_analyze_output(corpus, config):
    term_to_index, idf = reference_fit(corpus, config)
    if not term_to_index:
        with pytest.raises(ValueError, match="survived"):
            fit(corpus, config)
        return
    vocab = fit(corpus, config)
    assert list(vocab.term_to_index.items()) == list(term_to_index.items())
    assert vocab.idf.tobytes() == idf.tobytes()


# bigrams that span a stopword ("cream of tartar"), a word with no token
# ("1/2", "-") and the words of a hyphenated or bracketed word
BIGRAM_CORPUS = ["cream of tartar", "1/2 cup low-fat milk", "soy sauce (tamari)",
                 "olive oil - corn", "Oil, 1/2 raw", "the milk and the OIL"]
BIGRAM_WORD_VOCABS = [fit(BIGRAM_CORPUS, config)
                      for config in (word_config(min_df=1), word_config(min_df=1, ngram_min=2),
                                     word_config(min_df=1, remove_stopwords=False),
                                     word_config(min_df=1, lowercase=False),
                                     word_config(min_df=1, ngram_max=1))]
# vocabularies holding terms that their config never emits: unigrams without
# ngram_min 1, bigrams without ngram_max 2, trigrams
BIGRAM_WORD_VOCABS += [replace(BIGRAM_WORD_VOCABS[0], config=word_config(min_df=1, ngram_min=2)),
                       replace(BIGRAM_WORD_VOCABS[0], config=word_config(min_df=1, ngram_max=1)),
                       replace(fit(BIGRAM_CORPUS, word_config(min_df=1, ngram_max=3)),
                               config=word_config(min_df=1))]
BIGRAM_CVS = [CombinedVectorizer(word=word, char=fit(BIGRAM_CORPUS, char_config(min_df=1)))
              for word in BIGRAM_WORD_VOCABS]
BIGRAM_CV = BIGRAM_CVS[0]
BIGRAM_WORDS = ["1/2", "-", "of", "and", "the", "low-fat", "(tamari)", "Oil,", "oil", "OIL",
                "olive", "Olive", "soy", "sauce", "cream", "tartar", "cup", "corn", "raw",
                "milk", "qx"]
bigram_docs = st.lists(
    st.lists(st.tuples(st.sampled_from(BIGRAM_WORDS),
                       st.sampled_from([" ", "\t", "\n", "\u00a0", "  ", " \t"])),
             max_size=12).map(lambda pairs: "".join(w + sep for w, sep in pairs)),
    max_size=8)


def test_bigram_vocabulary_spans_stopwords_and_tokenless_words():
    terms = BIGRAM_CV.word.term_to_index
    assert {"cream tartar", "cup low", "low fat", "sauce tamari", "oil corn", "oil raw",
            "milk oil"} <= set(terms)
    assert "of tartar" in BIGRAM_CVS[2].word.term_to_index


@given(bigram_docs, st.sampled_from(BIGRAM_CVS), st.integers(1, 60), st.booleans(),
       st.sampled_from([1, 64, 400, features._TABLE_CAP]))
@example(["cream of\ttartar 1/2 cup", "", "Oil, - corn\u00a0olive OIL"], BIGRAM_CV, 1, False, 64)
@example(["low-fat milk the OIL", "qx", "soy sauce (tamari)"], BIGRAM_CVS[2], 60, True, 1)
def test_table_rows_match_dense_reference_and_single_rows(docs, fitted, block_chars, warm, cap):
    cv = CombinedVectorizer(fitted.word, fitted.char)
    with patch.object(features, "_TABLE_CAP", cap):
        if warm:
            transform_batch(docs[::-1] + ["olive oil 1/2 cream"], cv)
            assert cv._table.charge == recounted_charge(cv._table) <= cap
        rows = [transform_combined(doc, CombinedVectorizer(cv.word, cv.char)) for doc in docs]
        with patch.object(features, "_BLOCK_CHARS", block_chars):
            matrix = transform_batch(docs, cv)
        assert cv._table.charge == recounted_charge(cv._table) <= cap
    assert_same_rows(matrix, rows)
    dense = np.array([np.concatenate([dense_tfidf(d, cv.word), dense_tfidf(d, cv.char)])
                      for d in docs]).reshape(len(docs), cv.dim)
    np.testing.assert_allclose(matrix.toarray(), dense, rtol=0, atol=1e-12)


@given(st.text())
def test_lowercased_text_splits_into_its_lowercased_words(text):
    # the word table is keyed by the word as written, and lower-cases each word
    # on its own
    assert text.lower().split() == [word.lower() for word in text.split()]


def table_entry(table, word):
    """The column ids and token ids of ``word``'s entry in a word table."""
    e = table.entries[word]
    return (table.columns[table.column_ptr[e]:table.column_ptr[e + 1]].tolist(),
            table.tokens[table.token_ptr[e]:table.token_ptr[e + 1]].tolist())


def recounted_charge(table):
    """The table's charge, summed entry by entry from its buffers."""
    return sum(features._ENTRY_CHARGE + len(word) + sum(map(len, table_entry(table, word)))
               for word in table.entries)


def assert_dense_row(doc, cv):
    row = transform_combined(doc, cv)
    expected = np.concatenate([dense_tfidf(doc, cv.word), dense_tfidf(doc, cv.char)])
    np.testing.assert_allclose(row.toarray()[0], expected, rtol=0, atol=1e-12)


class TestWordTable:
    def test_charge_stays_within_cap(self):
        cv = CombinedVectorizer(BIGRAM_CV.word, BIGRAM_CV.char)
        cap = 400
        with patch.object(features, "_TABLE_CAP", cap):
            sizes = []
            for i in range(60):
                # long, mostly unseen words that still hit some columns and bigrams
                doc = f"{'olive' * (i % 7 + 1)}{i:03d}qx oil 1/2 butter{'z' * i} {'corn ' * (i % 3)}"
                assert_dense_row(doc, cv)
                table = cv._table
                assert table.charge == recounted_charge(table) <= cap
                sizes.append(len(table.entries))
            assert max(sizes) > 1 and min(sizes) < max(sizes)  # in use, and dropped
            # a word charged more than the cap on its own still goes through
            # the table, which is dropped after its block
            huge = "olive" * 100
            assert_dense_row(f"corn {huge} oil", cv)
            assert not cv._table.entries and cv._table.charge == 0

    def test_block_past_cap_drops_table_after_it(self):
        cv = CombinedVectorizer(BIGRAM_CV.word, BIGRAM_CV.char)
        transform_combined("olive oil", cv)
        table, cap = cv._table, cv._table.charge + 30
        with patch.object(features, "_TABLE_CAP", cap):
            # the block's entries take the charge past the cap: its row is
            # built through the table, which is then dropped
            assert_dense_row("corn oil, raw", cv)
            assert set(table.entries) == {"olive", "oil", "corn", "oil,", "raw"}
            assert table.charge == recounted_charge(table) > cap
            assert not cv._table.entries and cv._table.charge == 0
            # blocks that keep the charge within the cap keep the table
            assert_dense_row("raw oil", cv)
            kept = cv._table
            assert_dense_row("corn", cv)
            assert cv._table is kept and set(kept.entries) == {"raw", "oil", "corn"}
            assert kept.charge == recounted_charge(kept) <= cap

    def test_entry_holds_columns_and_token_ids(self):
        cv = CombinedVectorizer(BIGRAM_CV.word, BIGRAM_CV.char)
        transform_combined("1/2 Oil, olive", cv)
        assert set(cv._table.entries) == {"1/2", "Oil,", "olive"}
        columns, tokens = table_entry(cv._table, "Oil,")
        grams = [g for g in word_grams("oil,", cv.char.config) if g in cv.char.term_to_index]
        assert columns == [cv.word.term_to_index["oil"]] + [
            len(cv.word) + cv.char.term_to_index[g] for g in grams]
        ids, _, _ = cv._bigrams
        assert tokens == [ids["oil"]]
        # a word with no token holds no token id, so bigrams span it
        assert table_entry(cv._table, "1/2")[1] == []

    def test_table_is_not_state(self, tmp_path):
        cv = tiny_cv(["olive oil", "corn oil", "raw corn"])
        fingerprint = cv.fingerprint()
        cv.save(tmp_path / "vocab.json")
        loaded = CombinedVectorizer.load(tmp_path / "vocab.json")
        cold = CombinedVectorizer(cv.word, cv.char)
        transform_batch(["olive oil", "corn, raw"], cv)
        assert cv._table.entries and not loaded._table.entries and not cold._table.entries
        assert cv == cold
        assert cv.fingerprint() == loaded.fingerprint() == fingerprint
        assert "_table" not in repr(cv) and "_bigrams" not in repr(cv)

    def test_modes_must_pair_word_and_char(self):
        cv = PROPERTY_CV
        with pytest.raises(ValueError, match="char_wb"):
            CombinedVectorizer(word=cv.char, char=cv.word)

    def test_word_ngrams_longer_than_two_refused(self):
        corpus = ["olive oil, raw", "corn oil"]
        word = fit(corpus, word_config(min_df=1, ngram_max=3))
        with pytest.raises(ValueError, match="at most 2 words, not 3"):
            CombinedVectorizer(word=word, char=PROPERTY_CV.char)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cv = tiny_cv(["olive oil", "corn oil", "raw corn"])
        path = tmp_path / "vocab.json"
        cv.save(path)
        loaded = CombinedVectorizer.load(path)
        assert loaded.word.term_to_index == cv.word.term_to_index
        assert np.allclose(loaded.char.idf, cv.char.idf)
        assert loaded.fingerprint() == cv.fingerprint()

    def test_equality_compares_idf_by_value(self, tmp_path):
        cv = tiny_cv(["olive oil", "corn oil", "raw corn"])
        path = tmp_path / "vocab.json"
        cv.save(path)
        assert cv == CombinedVectorizer.load(path)
        other = replace(cv, word=replace(cv.word, idf=cv.word.idf + 1.0))
        assert other.word != cv.word and other != cv
        assert cv.word != cv.char

    def test_transforms_agree_after_reload(self, tmp_path):
        cv = tiny_cv(["olive oil", "corn oil", "raw corn"])
        path = tmp_path / "vocab.json"
        cv.save(path)
        loaded = CombinedVectorizer.load(path)
        a = transform_combined("corn oil", cv)
        b = transform_combined("corn oil", loaded)
        assert a.indices.tolist() == b.indices.tolist()
        assert a.data.tolist() == b.data.tolist()

    def test_version_check(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="version"):
            CombinedVectorizer.load(path)

    def test_tampered_indices_rejected(self, tmp_path):
        cv = tiny_cv(["olive oil", "corn oil"])
        path = tmp_path / "vocab.json"
        cv.save(path)
        raw = json.loads(path.read_text())
        first = next(iter(raw["word"]["term_to_index"]))
        raw["word"]["term_to_index"][first] = 9999
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="dense"):
            CombinedVectorizer.load(path)

    def test_fingerprint_hashes_file_bytes(self, tmp_path):
        cv = tiny_cv(["olive oil", "corn oil", "raw corn"])
        path = tmp_path / "vocab.json"
        cv.save(path)
        digest = f"sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}"
        assert cv.fingerprint() == digest
        assert CombinedVectorizer.load(path).fingerprint() == digest

    def test_fingerprint_tracks_content(self):
        a = tiny_cv(["olive oil", "corn oil"])
        b = tiny_cv(["olive oil", "corn meal"])
        assert a.fingerprint() != b.fingerprint()


class TestConfigValidation:
    def test_bad_ngram_range(self):
        with pytest.raises(ValueError):
            wcfg(ngram_min=3, ngram_max=2)

    def test_char_mode_rejects_stopwords(self):
        with pytest.raises(ValueError, match="word mode"):
            ccfg(remove_stopwords=True)

    def test_defaults_match_stated_hyperparameters(self):
        w, c = word_config(), char_config()
        assert (w.ngram_min, w.ngram_max, w.min_df, w.max_df, w.max_features) == (1, 2, 2, 0.9, 8000)
        assert w.sublinear_tf and w.remove_stopwords
        assert (c.ngram_min, c.ngram_max, c.min_df, c.max_df, c.max_features) == (3, 5, 2, 0.95, 12000)
