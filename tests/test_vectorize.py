import itertools
import math
import tracemalloc
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import litclust.vectorize as vec_mod
from litclust.corpus import Corpus, Document, tokenize
from litclust.errors import AllTermsRemoved, ConfigError, EmptyCorpus
from litclust.vectorize import (
    CorpusVectorizer,
    SharedWeighing,
    TermDocMatrix,
    WeightedMatrix,
    ablate_singletons,
    apply_df_threshold,
    apply_rank_cutoff,
    build_weighted_matrix,
    count_matrix,
    df_threshold,
    dump_matrix_market,
    dump_vocabulary,
    l2_normalize,
    load_weighted_matrix,
    tfidf,
    weigh,
)

from helpers import make_planted_corpus, make_zipf_corpus, oracle_tokens, random_word_corpus


def corpus_of(*texts, labels=None):
    docs = [
        Document(id=f"d{i}", text=text, label=None if labels is None else labels[i])
        for i, text in enumerate(texts)
    ]
    return Corpus(docs)


def reference_count_matrix(corpus):
    """The per-token pass that per-document tallies replaced: one code
    per token, one (row, col, 1) entry per token, and the CSR
    constructor sums the duplicates, all in int32."""
    index = defaultdict(itertools.count().__next__)
    codes = array("q")
    lengths = array("q")
    for doc in corpus:
        tokens = tokenize(doc).tokens
        codes.extend(map(index.__getitem__, tokens))
        lengths.append(len(tokens))
    by_code = list(index)
    order = sorted(range(len(by_code)), key=by_code.__getitem__)
    vocab = tuple(by_code[c] for c in order)
    rank = np.empty(len(vocab), dtype=np.int32)
    rank[order] = np.arange(len(vocab))
    rows = rank[np.frombuffer(codes, dtype=np.int64)]
    cols = np.repeat(np.arange(len(corpus), dtype=np.int32), np.frombuffer(lengths, dtype=np.int64))
    counts = sparse.csr_array(
        (np.ones(len(rows), dtype=np.int32), (rows, cols)),
        shape=(len(vocab), len(corpus)),
    )
    return TermDocMatrix(terms=vocab, docs=corpus.doc_ids(), counts=counts)


def counter_count_matrix(corpus):
    """Terms and the CSR (indptr, indices, data) lists from a ``Counter``
    of each document's oracle tokens, built row by row in term order."""
    tallies = [Counter(oracle_tokens(doc.text)) for doc in corpus]
    vocab = sorted(set().union(*tallies))
    indptr, indices, data = [0], [], []
    for term in vocab:
        for j, tally in enumerate(tallies):
            if tally[term]:
                indices.append(j)
                data.append(tally[term])
        indptr.append(len(indices))
    return tuple(vocab), indptr, indices, data


def assert_same_counts(got, want):
    """Equal terms, docs and shape, and CSR arrays equal byte for byte in
    the same dtypes, both in canonical format."""
    assert got.terms == want.terms
    assert got.docs == want.docs
    assert got.counts.shape == want.counts.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.counts, name), getattr(want.counts, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.counts.has_canonical_format and want.counts.has_canonical_format


WORDS = (
    "aa", "bb", "Aa", "AA", "a", "b", "x1", "1x", "42", "gene-1", "Gene-1", "-", "--",
    "-ab", "p53", "tp53", "her2", "HER2", "x_y", "ab_cd", "_", "naïve", "ÉCOLE", "ß", "ǅx",
)
# Lowering İ gives i and a combining dot, a separator; ß stays one
# character and ẞ lowers to it.
EDGE_WORDS = (*WORDS, "İ", "İİ", "İstanbul", "STRASSE", "straße", "ẞẞ", "x-", "a-b", "__init__", "q")
SHORT_WORDS = ("a", "Q", "7", "ß", "ẞ", "İ", "İİ", "é", "-", "_", ".", "")


def documents(words, separators):
    """Texts of words, each repeated 1-60 times in a row, joined by one
    of ``separators``; a text may have no token."""
    runs = st.lists(st.tuples(st.sampled_from(words), st.integers(1, 60)), max_size=6)
    return st.builds(
        lambda runs, sep: sep.join(word for word, times in runs for _ in range(times)),
        runs, st.sampled_from(separators),
    )


def weighted_from_dense(dense, terms=None, docs=None):
    dense = np.asarray(dense, dtype=float)
    terms = terms or tuple(f"t{i:02d}" for i in range(dense.shape[0]))
    docs = docs or tuple(f"d{j}" for j in range(dense.shape[1]))
    return WeightedMatrix(
        terms=tuple(terms),
        docs=tuple(docs),
        weights=sparse.csr_array(dense),
    )


class TestCountMatrix:
    def test_hand_counts(self):
        # Single-letter tokens are dropped by the tokenizer, so the
        # {"a b a", "b"} shape uses two-letter terms.
        corpus = corpus_of("aa bb aa", "bb")
        m = count_matrix(corpus)
        assert m.terms == ("aa", "bb")
        dense = m.counts.toarray()
        assert dense.tolist() == [[2, 0], [1, 1]]
        assert m.doc_freq.tolist() == [1, 2]

    def test_empty_token_document_gives_zero_column(self):
        corpus = corpus_of("aa bb", "...")
        m = count_matrix(corpus)
        assert m.counts.toarray()[:, 1].sum() == 0

    def test_input_order_irrelevant(self):
        docs = [
            Document(id="d2", text="bb cc"),
            Document(id="d0", text="aa bb aa"),
            Document(id="d1", text="cc"),
        ]
        a = count_matrix(Corpus(docs))
        b = count_matrix(Corpus(list(reversed(docs))))
        assert a.terms == b.terms
        assert a.docs == b.docs
        assert (a.counts.toarray() == b.counts.toarray()).all()

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            count_matrix(Corpus([]))

    def test_vocabulary_sorted(self):
        m = count_matrix(corpus_of("zz yy", "yy xx"))
        assert list(m.terms) == sorted(m.terms)

    def test_equals_reference_tally(self):
        rng = np.random.default_rng(5)
        for case in range(120):
            words = rng.choice(WORDS, size=int(rng.integers(1, len(WORDS))), replace=False)
            # Unique words give singleton tokens.
            words = [*words, *(f"solo{case}x{i}" for i in range(int(rng.integers(0, 3))))]
            corpus = random_word_corpus(rng, words, n_docs=int(rng.integers(1, 9)))
            assert_same_counts(count_matrix(corpus), reference_count_matrix(corpus))

    def test_equals_reference_on_larger_corpora(self):
        for corpus in (make_zipf_corpus(n_docs=300, seed=2), make_planted_corpus(docs_per_topic=30)):
            assert_same_counts(count_matrix(corpus), reference_count_matrix(corpus))

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(
        st.lists(st.sampled_from(WORDS) | st.text(max_size=6), max_size=12).map(" ".join),
        min_size=1, max_size=8,
    ))
    def test_equals_counter_over_oracle_tokens(self, texts):
        corpus = corpus_of(*texts)
        m = count_matrix(corpus)
        terms, indptr, indices, data = counter_count_matrix(corpus)
        assert m.terms == terms
        assert m.counts.shape == (len(terms), len(texts))
        assert {a.dtype for a in (m.counts.indptr, m.counts.indices, m.counts.data)} == {np.dtype(np.int32)}
        assert m.counts.indptr.tolist() == indptr
        assert m.counts.indices.tolist() == indices
        assert m.counts.data.tolist() == data

    def test_empty_vocabulary_equals_reference(self, caplog):
        corpus = corpus_of("a b c", "...", "x _ -", "", "ß ẞ İ İİ ﬁ 7")
        with caplog.at_level("WARNING", logger="litclust.vectorize"):
            m = count_matrix(corpus)
        assert m.shape == (0, 5)
        assert_same_counts(m, reference_count_matrix(corpus))
        assert [r.getMessage() for r in caplog.records] == [
            "corpus produced an empty vocabulary (no tokens of length >= 2)"
        ]

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(documents(EDGE_WORDS, " _-\n,"), min_size=1, max_size=8)
           | st.lists(documents(SHORT_WORDS, " _\n,"), min_size=1, max_size=4))
    def test_equals_per_token_reference_byte_for_byte(self, texts):
        corpus = corpus_of(*texts)
        m = count_matrix(corpus)
        assert_same_counts(m, reference_count_matrix(corpus))
        assert m.counts.data.sum() == sum(len(tokenize(doc).tokens) for doc in corpus)

    def test_peak_memory_follows_nonzeros_not_tokens(self):
        # 999,900 tokens but 300 nonzeros: one int64 per token alone
        # would take 8 MB.
        corpus = corpus_of(*[" ".join(["alpha beta gamma"] * 3333)] * 100)
        tracemalloc.start()
        try:
            m = count_matrix(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.counts.nnz == 300 and m.counts.data.sum() == 999_900
        assert peak < 8_000_000, peak

    @pytest.mark.parametrize("times", [2**31 - 1, 2**31])
    def test_a_count_past_int32_raises_instead_of_wrapping(self, monkeypatch, times):
        # Each term tallied as if it occurred ``times`` times.
        monkeypatch.setattr(vec_mod, "Counter", lambda tokens: Counter(dict.fromkeys(tokens, times)))
        corpus = corpus_of("aa bb", "bb")
        if times > np.iinfo(np.int32).max:
            with pytest.raises(OverflowError):
                count_matrix(corpus)
        else:
            assert count_matrix(corpus).counts.toarray().tolist() == [[times, 0], [times, times]]


class TestHeldCounts:
    def test_equal_to_count_matrix(self):
        corpus = make_zipf_corpus(n_docs=200, seed=3)
        fresh = count_matrix(corpus)
        assert_same_counts(corpus.term_counts, fresh)

    def test_built_once_per_corpus(self, monkeypatch):
        from litclust.probe import DictionaryEntry, GeneDictionary, count_occurrences
        from litclust.sweep import SweepSpec, run_sweep

        calls = []
        real = vec_mod.count_matrix
        monkeypatch.setattr(vec_mod, "count_matrix", lambda c: calls.append(c) or real(c))
        corpus = make_planted_corpus(n_topics=2, docs_per_topic=20, vocab_per_topic=15)
        build_weighted_matrix(corpus)
        build_weighted_matrix(corpus, d_percent=0.8, rank_cutoff=6)
        CorpusVectorizer().fit(corpus)
        run_sweep(corpus, SweepSpec(d_values=(0.5,), r_values=(5,), n_values=(2,), k_values=(2,)))
        dictionary = GeneDictionary([DictionaryEntry("topic0term01", (), "")])
        count_occurrences(corpus, [0] * len(corpus), dictionary, mode="gene")
        assert len(calls) == 1 and calls[0] is corpus
        # Another Corpus object, even an equal one, counts its own.
        build_weighted_matrix(Corpus(list(corpus)))
        assert len(calls) == 2

    def test_writing_into_held_counts_raises(self):
        corpus = corpus_of("aa bb aa", "bb cc")
        counts = corpus.term_counts.counts
        for array in (counts.indptr, counts.indices, counts.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            counts.data *= 2
        assert counts.toarray().tolist() == [[2, 0], [1, 1], [0, 1]]

    def test_counting_and_weighing_peak_under_a_multiple_of_the_held_counts(self):
        # Python 3.11 peaks at 3.1x and 3.4x.  Weighing reads 4.4x when
        # the ablated counts stay alive through weigh, as the caller's
        # frame keeps them before Python 3.11.
        corpus = make_zipf_corpus(n_docs=3000, tokens_per_doc=200, exponent=1.6, seed=1)
        counts = corpus.term_counts.counts
        arrays = (counts.indptr, counts.indices, counts.data)
        assert {a.dtype for a in arrays} == {np.dtype(np.int32)}
        held = sum(a.nbytes for a in arrays)
        for build, multiple in ((count_matrix, 4), (build_weighted_matrix, 5)):
            tracemalloc.start()
            try:
                build(corpus)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < multiple * held, (build.__name__, peak / held)

    def test_read_only_counts_feed_every_reader(self):
        corpus = make_zipf_corpus(n_docs=120, seed=4)
        held = corpus.term_counts
        fresh = count_matrix(corpus)
        assert fresh.counts.data.flags.writeable
        a = weigh(ablate_singletons(held), 0.5, 5)
        b = weigh(ablate_singletons(fresh), 0.5, 5)
        assert np.array_equal(a.weights.toarray(), b.weights.toarray())


class TestTfidf:
    def test_term_in_every_document_dropped_from_storage(self):
        corpus = corpus_of("aa bb", "aa cc", "aa bb cc")
        m = count_matrix(corpus)
        w = tfidf(m)
        aa = w.terms.index("aa")
        assert w.weights.toarray()[aa].sum() == 0.0
        assert (w.weights.toarray() > 0).sum() == w.weights.nnz

    def test_frozen_hand_value(self):
        # t_c=2, 100 docs, term in 10 of them: 2 * ln(10) = 4.605170185988092
        n_docs = 100
        texts = []
        for j in range(n_docs):
            if j == 0:
                texts.append("gene gene " + "filler ")
            elif j < 10:
                texts.append("gene filler")
            else:
                texts.append("filler")
        corpus = corpus_of(*texts)
        w = tfidf(count_matrix(corpus))
        g = w.terms.index("gene")
        col0 = w.docs.index("d0")
        assert w.weights.toarray()[g, col0] == pytest.approx(4.605170185988092, abs=1e-12)

    def test_linear_in_count(self):
        base = corpus_of("gene filler", "gene gene filler", "filler other")
        w = tfidf(count_matrix(base)).weights.toarray()
        g = 1  # vocabulary: filler, gene, other
        assert w[g, 1] == pytest.approx(2 * w[g, 0], rel=1e-12)

    def test_sparsity_pattern_preserved_except_ubiquitous_terms(self):
        corpus = corpus_of("aa bb cc", "aa dd", "aa bb ee")
        m = count_matrix(corpus)
        w = tfidf(m)
        counts = m.counts.toarray()
        weights = w.weights.toarray()
        everywhere = m.doc_freq == len(m.docs)
        for t in range(len(m.terms)):
            for d in range(len(m.docs)):
                if everywhere[t]:
                    assert weights[t, d] == 0.0
                else:
                    assert (weights[t, d] > 0) == (counts[t, d] > 0)


class TestAblateSingletons:
    def test_removes_exactly_df1_terms(self):
        corpus = corpus_of("aa bb solo", "aa bb", "aa cc")
        m = count_matrix(corpus)
        out = ablate_singletons(m)
        assert "solo" not in out.terms
        assert "cc" not in out.terms
        assert set(out.terms) == {t for t, df in zip(m.terms, m.doc_freq) if df >= 2}
        assert out.docs == m.docs

    def test_single_document_corpus_degenerates(self):
        with pytest.raises(AllTermsRemoved):
            ablate_singletons(count_matrix(corpus_of("aa bb cc")))

    def test_zipf_corpus_sheds_roughly_half_the_vocabulary(self):
        corpus = make_zipf_corpus(n_docs=1000, tokens_per_doc=60, seed=0)
        m = count_matrix(corpus)
        out = ablate_singletons(m)
        removed = 1 - len(out.terms) / len(m.terms)
        assert 0.40 <= removed <= 0.60


class TestDfThreshold:
    def test_threshold_at_half_percent(self):
        # 1000 docs, D=0.5% -> min doc freq 5; a term in 4 docs is dropped.
        texts = []
        for j in range(1000):
            parts = ["common"]
            if j < 4:
                parts.append("rare4")
            if j < 5:
                parts.append("edge5")
            texts.append(" ".join(parts))
        m = count_matrix(corpus_of(*texts))
        out = apply_df_threshold(m, 0.5)
        assert "rare4" not in out.terms
        assert "edge5" in out.terms

    def test_floor_of_two_equals_singleton_ablation(self):
        # 100 docs, D=0.1% -> ceil(0.1) = 1 but the floor keeps it at 2.
        texts = ["shared common" if j % 2 else "common solo%d" % j for j in range(100)]
        m = count_matrix(corpus_of(*texts))
        via_threshold = apply_df_threshold(m, 0.1)
        via_ablation = ablate_singletons(m)
        assert via_threshold.terms == via_ablation.terms

    def test_brute_force_filter_oracle_at_one_percent(self):
        rng = np.random.default_rng(42)
        vocab = [f"term{i:03d}" for i in range(120)]
        texts = [
            " ".join(rng.choice(vocab, size=8)) for _ in range(1400)
        ]
        m = count_matrix(corpus_of(*texts))
        out = apply_df_threshold(m, 1.0)
        threshold = max(2, math.ceil(1.0 / 100 * 1400))
        assert threshold == 14
        expected = {t for t, df in zip(m.terms, m.doc_freq) if df >= threshold}
        assert set(out.terms) == expected

    def test_monotone_filtering(self):
        corpus = make_zipf_corpus(n_docs=300, tokens_per_doc=40, seed=3)
        m = count_matrix(corpus)
        previous = None
        for d in (0.1, 0.3, 0.5, 0.8, 1.0):
            kept = set(apply_df_threshold(m, d).terms)
            if previous is not None:
                assert kept <= previous
            previous = kept

    def test_any_d_percent_accepted(self):
        # The documented range is checked by SweepSpec and the CLI.
        m = count_matrix(corpus_of("aa bb", "aa bb"))
        out = apply_df_threshold(m, 5.0)
        assert out.terms == ("aa", "bb")

    def test_all_terms_removed(self):
        texts = ["only%d here%d" % (j, j) for j in range(50)]
        m = count_matrix(corpus_of(*texts))
        with pytest.raises(AllTermsRemoved):
            apply_df_threshold(m, 1.0)

    @settings(max_examples=500, deadline=None)
    @given(
        d=st.floats(0.0, 1e6) | st.sampled_from([0.1, 0.3, 0.7, 0.9, 1e-5]),
        n_docs=st.integers(0, 10**7),
    )
    def test_threshold_equals_the_fraction_of_the_printed_value(self, d, n_docs):
        assert df_threshold(d, n_docs) == max(2, math.ceil(Fraction(repr(d)) * n_docs / 100))

    # In binary floating point 0.9 / 100 * n_docs lands just above the
    # integer for these sizes, and its ceiling one above the rule's.
    @pytest.mark.parametrize("n_docs", [1000, 2000, 3000, 4000, 5000])
    def test_threshold_is_exact_in_decimal(self, n_docs):
        threshold = n_docs * 9 // 1000
        assert df_threshold(0.9, n_docs) == threshold
        # "edge" is in exactly `threshold` documents, "under" in one fewer.
        rows = [0] * threshold + [1] * (threshold - 1)
        cols = list(range(threshold)) + list(range(threshold - 1))
        m = TermDocMatrix(
            terms=("edge", "under"),
            docs=tuple(f"d{j:04d}" for j in range(n_docs)),
            counts=sparse.csr_array((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(2, n_docs)),
        )
        assert apply_df_threshold(m, 0.9).terms == ("edge",)
        with pytest.raises(AllTermsRemoved, match=rf"0\.9% \(min {threshold} docs\)"):
            apply_df_threshold(TermDocMatrix(m.terms[1:], m.docs, sparse.csr_array(m.counts[1:])), 0.9)


class TestRankCutoff:
    def test_under_cutoff_unchanged(self):
        # The second matrix stores no entry at all.
        for w in (weighted_from_dense([[1.0], [2.0], [0.5]]), weighted_from_dense(np.zeros((3, 2)))):
            out = apply_rank_cutoff(w, 5)
            assert out.weights.shape == w.weights.shape
            assert (out.weights.toarray() == w.weights.toarray()).all()

    def test_hand_ranking(self):
        # weights x:3 y:2 z:2 w:1, keep 3 -> w dropped
        dense = np.array([[3.0], [2.0], [2.0], [1.0]])
        w = weighted_from_dense(dense, terms=("x_t", "y_t", "z_t", "w_t"))
        out = apply_rank_cutoff(w, 3)
        col = out.weights.toarray()[:, 0]
        assert col.tolist() == [3.0, 2.0, 2.0, 0.0]

    def test_tie_prefers_lexicographically_smaller_term(self):
        dense = np.array([[2.0], [2.0], [2.0]])
        w = weighted_from_dense(dense, terms=("aaa", "bbb", "ccc"))
        out = apply_rank_cutoff(w, 2)
        assert out.weights.toarray()[:, 0].tolist() == [2.0, 2.0, 0.0]

    def test_r_equals_one_leaves_one_term_per_nonempty_doc(self):
        rng = np.random.default_rng(0)
        dense = rng.random((12, 9)) * (rng.random((12, 9)) > 0.4)
        dense[:, 3] = 0.0  # an empty document column
        w = weighted_from_dense(dense)
        out = apply_rank_cutoff(w, 1)
        nnz_per_doc = (out.weights.toarray() > 0).sum(axis=0)
        expected = [1 if dense[:, j].any() else 0 for j in range(9)]
        assert nnz_per_doc.tolist() == expected

    def test_keeps_min_r_nnz_entries(self):
        rng = np.random.default_rng(1)
        dense = rng.random((30, 15)) * (rng.random((30, 15)) > 0.5)
        w = weighted_from_dense(dense)
        out = apply_rank_cutoff(w, 7)
        before = (dense > 0).sum(axis=0)
        after = (out.weights.toarray() > 0).sum(axis=0)
        assert after.tolist() == np.minimum(before, 7).tolist()

    def test_weights_one_ulp_apart_rank_by_weight(self):
        # d0 and d1 tie across documents at 2.0 and one ulp above it;
        # within each, the later term holds the larger weight.  d2 is empty.
        up = np.nextafter(2.0, 3.0)
        w = weighted_from_dense([[2.0, 2.0, 0.0], [up, 2.0, 0.0], [1.0, up, 0.0]])
        assert apply_rank_cutoff(w, 1).weights.toarray().tolist() == [[0.0, 0.0, 0.0], [up, 0.0, 0.0], [0.0, up, 0.0]]
        assert apply_rank_cutoff(w, 2).weights.toarray().tolist() == [[2.0, 2.0, 0.0], [up, 0.0, 0.0], [0.0, up, 0.0]]
        for r in (1, 2, 3):
            assert_same_weights(apply_rank_cutoff(w, r), reference_rank_cutoff(w, r))

    def test_any_positive_r_accepted(self):
        w = weighted_from_dense(np.ones((3, 2)))
        out = apply_rank_cutoff(w, 99)
        assert out.weights.nnz == w.weights.nnz
        with pytest.raises(ConfigError):
            apply_rank_cutoff(w, 0)


def test_l2_normalize_unit_columns():
    rng = np.random.default_rng(2)
    dense = rng.random((10, 6)) * (rng.random((10, 6)) > 0.3)
    dense[:, 2] = 0.0
    w = l2_normalize(weighted_from_dense(dense))
    norms = np.linalg.norm(w.weights.toarray(), axis=0)
    for j, n in enumerate(norms):
        if dense[:, j].any():
            assert n == pytest.approx(1.0, abs=1e-12)
        else:
            assert n == 0.0


def reference_l2_normalize(w):
    """The per-document loop that the blocked norms replaced."""
    csc = w.weights.tocsc().copy()
    for j in range(len(w.docs)):
        lo, hi = csc.indptr[j], csc.indptr[j + 1]
        if hi > lo:
            norm = np.sqrt(np.sum(csc.data[lo:hi] ** 2))
            csc.data[lo:hi] /= norm
    return WeightedMatrix(terms=w.terms, docs=w.docs, weights=sparse.csr_array(csc))


def reference_rank_cutoff(w, r):
    """The per-document sort loop that the shared ranking replaced."""
    csc = w.weights.tocsc()
    indptr, indices, data = csc.indptr, csc.indices, csc.data
    keep_mask = np.zeros(len(data), dtype=bool)
    for j in range(len(w.docs)):
        lo, hi = indptr[j], indptr[j + 1]
        if hi - lo <= r:
            keep_mask[lo:hi] = True
            continue
        # Primary key: weight descending; tiebreak: term index ascending.
        order = np.lexsort((indices[lo:hi], -data[lo:hi]))
        keep_mask[lo + order[:r]] = True
    col_of_entry = np.repeat(np.arange(len(w.docs)), np.diff(indptr))
    out = sparse.csr_array(
        (data[keep_mask], (indices[keep_mask], col_of_entry[keep_mask])),
        shape=csc.shape,
    )
    return WeightedMatrix(terms=w.terms, docs=w.docs, weights=out)


def assert_same_weights(got, want):
    assert got.terms == want.terms and got.docs == want.docs
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.weights, name), getattr(want.weights, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("seed", range(40))
def test_l2_normalize_is_bit_identical_to_the_loop(seed):
    # Column lengths from 0 to past numpy's 8-entry pairwise unroll and
    # its 128-entry block, with weights over many magnitudes.
    rng = np.random.default_rng(seed)
    n_terms, n_docs = int(rng.integers(1, 300)), int(rng.integers(1, 60))
    density = rng.choice([0.02, 0.1, 0.5, 1.0])
    dense = rng.random((n_terms, n_docs)) * (rng.random((n_terms, n_docs)) < density)
    dense *= 10.0 ** rng.integers(-8, 8, size=(n_terms, n_docs))
    w = weighted_from_dense(dense)
    assert_same_weights(l2_normalize(w), reference_l2_normalize(w))


@pytest.mark.parametrize("d,r", [(0.1, 5), (0.5, 9), (1.0, 14), (3.0, 200)])
def test_l2_normalize_matches_the_loop_inside_weigh(d, r):
    ablated = ablate_singletons(count_matrix(make_zipf_corpus(n_docs=400, tokens_per_doc=60, seed=7)))
    cut = apply_rank_cutoff(tfidf(apply_df_threshold(ablated, d)), r)
    assert_same_weights(l2_normalize(cut), reference_l2_normalize(cut))
    assert_same_weights(weigh(ablated, d, r), reference_l2_normalize(cut))


@st.composite
def ablated_matrices(draw):
    """Singleton-ablated count matrices with ties, short and empty
    documents and, when drawn, terms in every document (idf 0)."""
    n_terms, n_docs = draw(st.integers(1, 25)), draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Counts of 1 and 2 make equal weights common within a document.
    dense = rng.integers(1, 3, size=(n_terms, n_docs)) * (rng.random((n_terms, n_docs)) < draw(st.floats(0.05, 0.9)))
    dense[:, rng.random(n_docs) < draw(st.sampled_from([0.0, 0.2]))] = 0  # empty documents
    dense[rng.random(n_terms) < draw(st.sampled_from([0.0, 0.2]))] = 1  # idf 0
    dense[0, -2:] = np.maximum(dense[0, -2:], 1)  # so the ablation keeps a term
    return ablate_singletons(
        TermDocMatrix(
            terms=tuple(f"t{i:02d}" for i in range(n_terms)),
            docs=tuple(f"d{j:02d}" for j in range(n_docs)),
            counts=sparse.csr_array(dense),
        )
    )


def weighing_outcome(weighing, d, r):
    try:
        return weighing(d, r)
    except AllTermsRemoved as exc:
        return str(exc)


D_VALUES = (0.1, 0.5, 0.9, 1.0, 10.0, 40.0, 75.0, 100.0, 1000.0)


@settings(max_examples=300, deadline=None)
@given(
    ablated=ablated_matrices(),
    d_min=st.sampled_from((None, *D_VALUES)),
    grid=st.lists(st.tuples(st.sampled_from(D_VALUES), st.integers(1, 8)), min_size=1, max_size=6),
)
def test_shared_weighing_is_bit_identical_to_weigh(ablated, d_min, grid):
    """``weigh`` at every grid point, and the shared weighing over the
    ablated matrix or, as the sweep builds it, over the terms that the
    lowest floor ``d_min`` keeps, at every point from d_min up."""
    if d_min is None:
        shared, d_min = SharedWeighing(ablated), 0.0
    else:
        try:
            shared = SharedWeighing(apply_df_threshold(ablated, d_min))
        except AllTermsRemoved:
            shared = None  # every floor from d_min up removes every term
    for d, r in grid:
        want = weighing_outcome(
            lambda d, r: l2_normalize(reference_rank_cutoff(tfidf(apply_df_threshold(ablated, d)), r)), d, r
        )
        outcomes = [weighing_outcome(lambda d, r: weigh(ablated, d, r), d, r)]
        if d >= d_min and shared is None:
            assert isinstance(want, str)
        elif d >= d_min:
            outcomes.append(weighing_outcome(shared.at, d, r))
        for got in outcomes:
            if isinstance(want, str):
                # A D floor above every document frequency removes every term.
                assert got == want
            else:
                assert_same_weights(got, want)


# Equal weights within and across documents, and weights one ulp apart.
TIE_WEIGHTS = (0.5, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 2.0, 1e-300, 1e300)


@st.composite
def weighted_matrices(draw):
    """Weighted matrices with tied and one-ulp-apart weights, empty
    documents and, at density 0, no stored entry at all."""
    n_terms, n_docs = draw(st.integers(1, 25)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.concatenate([TIE_WEIGHTS, rng.random(3)])
    dense = rng.choice(values, size=(n_terms, n_docs)) * (rng.random((n_terms, n_docs)) < draw(st.floats(0.0, 1.0)))
    dense[:, rng.random(n_docs) < draw(st.sampled_from([0.0, 0.2]))] = 0  # empty documents
    return weighted_from_dense(dense)


@settings(max_examples=300, deadline=None)
@given(w=weighted_matrices(), r=st.integers(1, 30), chunk=st.sampled_from([1, 2, 7, vec_mod._CHUNK_ENTRIES]))
def test_rank_cutoff_is_bit_identical_to_the_loop(w, r, chunk):
    with mock.patch.object(vec_mod, "_CHUNK_ENTRIES", chunk):
        assert_same_weights(apply_rank_cutoff(w, r), reference_rank_cutoff(w, r))


def whole_matrix_ranking(w):
    """Every entry in one stable argsort of (document - 1j * weight): the
    ranking before it was sorted by chunks of documents."""
    csc = w.weights.tocsc()
    key = np.repeat(np.arange(len(w.docs), dtype=np.complex128), np.diff(csc.indptr))
    key.imag = -csc.data
    order = np.argsort(key, kind="stable")
    return csc.indices[order], csc.data[order]


@pytest.mark.parametrize("chunk", [1, 3, 5, 8, 13, 1000])
def test_chunked_ranking_equals_one_whole_matrix_sort(chunk):
    # Weights tie within and across documents, so chunk boundaries fall
    # inside runs of equal weights; document 7 is empty.
    rng = np.random.default_rng(chunk)
    dense = rng.choice([1.0, 1.0, 1.0, 2.0], size=(6, 40)) * (rng.random((6, 40)) < 0.7)
    dense[:, 7] = 0.0
    w = weighted_from_dense(dense)
    with mock.patch.object(vec_mod, "_CHUNK_ENTRIES", chunk):
        ranking = vec_mod._Ranking(w)
        if chunk < 1000:
            assert len(ranking._chunks) > 1
        terms, data = whole_matrix_ranking(w)
        assert np.array_equal(ranking._terms, terms) and np.array_equal(ranking._data, data)
        keep = np.array([True, False, True, True, False, True])
        for r in (1, 2, 3, 6):
            assert_same_weights(ranking.top(np.ones(6, dtype=bool), r), reference_rank_cutoff(w, r))
            kept = weighted_from_dense(dense[keep], terms=tuple(itertools.compress(w.terms, keep)))
            assert_same_weights(ranking.top(keep, r), reference_rank_cutoff(kept, r))


def test_shared_weighing_covers_the_edge_cases():
    # t0, t1 and t2 tie at ln 2 in d0; t3 is in every document, so d3
    # is empty and d2 holds one entry.
    counts = np.array([
        [1, 2, 0, 0],
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 1],
    ])
    ablated = TermDocMatrix(
        terms=("t0", "t1", "t2", "t3"), docs=("d0", "d1", "d2", "d3"), counts=sparse.csr_array(counts)
    )
    shared = SharedWeighing(ablated)
    for d, r in [(0.1, 1), (0.1, 2), (0.1, 3), (60.0, 1), (60.0, 5)]:
        assert_same_weights(shared.at(d, r), weigh(ablated, d, r))
    # Of the three tied terms in d0, r = 2 keeps the two smaller ones.
    assert shared.at(0.1, 2).weights.toarray()[:, 0].tolist() == [math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0]
    with pytest.raises(AllTermsRemoved, match=r"min 5 docs"):
        shared.at(101.0, 5)
    with pytest.raises(ConfigError):
        shared.at(0.1, 0)
    # Terms in every document weigh 0, so no entry is stored at all.
    everywhere = TermDocMatrix(terms=ablated.terms[3:], docs=ablated.docs, counts=sparse.csr_array(counts[3:]))
    nothing = SharedWeighing(everywhere).at(0.1, 1)
    assert nothing.weights.nnz == 0
    assert_same_weights(nothing, weigh(everywhere, 0.1, 1))


def test_pipeline_order_is_counts_ablate_threshold_tfidf_cutoff():
    corpus = make_zipf_corpus(n_docs=200, tokens_per_doc=30, seed=5)
    via_helper = build_weighted_matrix(corpus, d_percent=0.5, rank_cutoff=5)
    manual = l2_normalize(
        apply_rank_cutoff(
            tfidf(apply_df_threshold(ablate_singletons(count_matrix(corpus)), 0.5)), 5
        )
    )
    assert via_helper.terms == manual.terms
    assert (via_helper.weights.toarray() == manual.weights.toarray()).all()


def test_dumps_roundtrip(tmp_path):
    """The reader that the CLI's embed uses gives back exactly the terms
    and weights that were dumped."""
    corpus = make_zipf_corpus(n_docs=60, tokens_per_doc=20, seed=2)
    w = build_weighted_matrix(corpus)
    dump_matrix_market(w, tmp_path / "weights.mtx")
    dump_vocabulary(w, tmp_path / "vocab.tsv")
    lines = (tmp_path / "vocab.tsv").read_text().splitlines()
    assert lines == [f"{t}\t{i}" for i, t in enumerate(w.terms)]
    back = load_weighted_matrix(tmp_path / "weights.mtx", tmp_path / "vocab.tsv", w.docs)
    assert back.terms == w.terms and back.docs == w.docs
    assert np.array_equal(back.weights.toarray(), w.weights.toarray())


class TestCorpusVectorizer:
    def test_fit_transform_matches_function(self):
        corpus = make_zipf_corpus(n_docs=150, tokens_per_doc=25, seed=9)
        est = CorpusVectorizer(d_percent=0.5, rank_cutoff=5)
        w1 = est.fit_transform(corpus)
        w2 = build_weighted_matrix(corpus, d_percent=0.5, rank_cutoff=5)
        assert (w1.weights.toarray() == w2.weights.toarray()).all()
        assert est.vocabulary_ == w2.terms

    def test_get_set_params(self):
        est = CorpusVectorizer(d_percent=0.3)
        params = est.get_params()
        assert params["d_percent"] == 0.3
        est.set_params(rank_cutoff=8)
        assert est.rank_cutoff == 8
        with pytest.raises(ConfigError):
            est.set_params(nope=1)
