"""Sparse term-document counts, tf-idf weighting, and the upstream
feature-selection controls.

The pipeline order is fixed: counts -> singleton ablation -> document
frequency floor -> tf-idf -> per-document rank cutoff -> L2
normalization.  ``weigh`` runs every step after the ablation, so the
single pipeline and the CLI share one order; ``CorpusVectorizer``
packages it behind a fit surface, and ``SharedWeighing`` gives the sweep
the same matrices for many (d, r) from one tf-idf and one ranking, in
the rank cutoff's order, which ``apply_rank_cutoff`` also cuts from.
The steps are plain functions on the matrix types and accept any
parameter value: the documented ranges are checked by the sweep spec
and the CLI.
"""

from __future__ import annotations

import itertools
import logging
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import io as spio
from scipy import sparse

from litclust.base import BaseEstimator, check_positive_int
from litclust.corpus import Corpus, tokenize
from litclust.errors import AllTermsRemoved, DataError, EmptyCorpus, ParseError

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class TermDocMatrix:
    """Sparse nonnegative integer counts, terms on rows, documents on columns.

    ``doc_freq[t]`` is the number of documents containing term ``t``
    (the row's nonzero count).
    """

    terms: tuple[str, ...]
    docs: tuple[str, ...]
    counts: sparse.csr_array

    @property
    def doc_freq(self) -> np.ndarray:
        return np.diff(self.counts.indptr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape


@dataclass(frozen=True, eq=False)
class WeightedMatrix:
    """Sparse positive real weights, terms on rows, documents on columns."""

    terms: tuple[str, ...]
    docs: tuple[str, ...]
    weights: sparse.csr_array

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape


def count_matrix(corpus: Corpus) -> TermDocMatrix:
    """Tokenize every document and tally term occurrences.

    Each document is tallied on its own, so besides the result counting
    holds one code and one count per nonzero and the longest document's
    tokens: its memory follows the nonzeros, not the tokens.

    The result's ``indptr``, ``indices`` and ``data`` are int32.  A corpus
    past that range (more than 2**31 - 1 nonzeros or terms, or a term
    occurring that often in one document) raises ``OverflowError``
    instead of wrapping.

    Vocabulary is sorted lexicographically; the document axis follows
    corpus order (already sorted by id), so the result is independent of
    input record order.  ``Corpus.term_counts`` holds this matrix for a
    corpus, so callers that have the corpus read it from there.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot build a count matrix from an empty corpus")
    # One pass: each document's distinct terms are interned to codes in
    # order of first appearance (a missing key takes the next count) and
    # stored with their tallies as that document's column.  array("i")
    # holds C ints, 32 bits wide, and raises on a value past them.
    index: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    codes = array("i")
    tallies = array("i")
    indptr = array("i", [0])
    for doc in corpus:
        tally = Counter(tokenize(doc).tokens)
        codes.extend(map(index.__getitem__, tally))
        tallies.extend(tally.values())
        indptr.append(len(codes))
    by_code = list(index)
    order = sorted(range(len(by_code)), key=by_code.__getitem__)
    vocab = tuple(by_code[c] for c in order)
    if not vocab:
        log.warning("corpus produced an empty vocabulary (no tokens of length >= 2)")
    # The codes fit in int32, so the ranks of the terms they count do.
    rank = np.empty(len(vocab), dtype=np.int32)
    rank[order] = np.arange(len(vocab))
    rows = rank[np.frombuffer(codes, dtype=np.int32)]
    del codes  # freed before the CSR conversion below

    # Each document's tallies are its column; converting to CSR lists
    # each term's documents in order, with no duplicates to sum.
    counts = sparse.csc_array(
        (np.frombuffer(tallies, dtype=np.int32), rows, np.frombuffer(indptr, dtype=np.int32)),
        shape=(len(vocab), len(corpus)),
    ).tocsr()
    return TermDocMatrix(terms=vocab, docs=corpus.doc_ids(), counts=counts)


def ablate_singletons(m: TermDocMatrix) -> TermDocMatrix:
    """Drop every term that occurs in exactly one document."""
    keep = m.doc_freq >= 2
    if not np.any(keep):
        raise AllTermsRemoved(
            "every term occurs in a single document; the corpus is too small or too diverse"
        )
    return _keep_terms(m, keep)


def df_threshold(d_percent: float, n_docs: int) -> int:
    """The D floor's minimum document frequency, max(2, ceil(d% of docs)).

    The product is taken exactly, in integers, on the decimal value
    that ``d_percent`` prints as: in binary floating point 0.9% of 1,000
    docs is 9.000000000000002, whose ceiling is 10, not 9.  (``Fraction``
    would do the same, but importing it loads ``decimal``, 3 ms and
    0.3 MB.)  The hard floor of 2 means the threshold can never readmit
    singleton terms, whatever ``d_percent`` is.
    """
    mantissa, _, exponent = repr(float(d_percent)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    # d_percent = digits / 10**shift
    digits, shift = int(whole + fraction), len(fraction) - int(exponent or 0)
    numerator = digits * n_docs * 10 ** max(-shift, 0)
    return max(2, -(-numerator // (100 * 10 ** max(shift, 0))))


def apply_df_threshold(m: TermDocMatrix, d_percent: float) -> TermDocMatrix:
    """Keep terms whose document frequency is at least ``df_threshold``."""
    return _keep_terms(m, _df_keep(m.doc_freq, len(m.docs), d_percent))


def tfidf(m: TermDocMatrix) -> WeightedMatrix:
    """Map each count c to c * ln(n_docs / doc_freq), natural log.

    Terms present in every document weigh exactly zero and their entries
    are removed from storage; all stored weights are positive.
    """
    if len(m.terms) == 0 or len(m.docs) == 0:
        raise EmptyCorpus("cannot weight an empty matrix")
    n_docs = len(m.docs)
    idf = np.log(n_docs / m.doc_freq.astype(np.float64))
    # Row t's idf once per stored entry, scaled in place by the counts.
    data = np.repeat(idf, m.doc_freq)
    data *= m.counts.data
    # eliminate_zeros compacts the index arrays in place, and the
    # counts' own may be read-only or held by the caller.
    weights = sparse.csr_array(
        (data, m.counts.indices.copy(), m.counts.indptr.copy()), shape=m.counts.shape
    )
    weights.eliminate_zeros()
    return WeightedMatrix(terms=m.terms, docs=m.docs, weights=weights)


def apply_rank_cutoff(w: WeightedMatrix, r: int) -> WeightedMatrix:
    """Per document, keep only the ``r`` highest-weight terms.

    Any r >= 1 is accepted (the documented range is checked by the sweep
    spec and the CLI, not here).  Ties are broken by lexicographic term
    order (the smaller term wins), which is term-index order because the
    vocabulary is sorted.
    """
    return _Ranking(w).top(np.ones(len(w.terms), dtype=bool), r)


def l2_normalize(w: WeightedMatrix) -> WeightedMatrix:
    """Scale each document column to unit Euclidean norm (empty columns stay empty).

    The columns with m entries are summed as the rows of one (docs, m)
    block, which numpy sums bit for bit as it would each column alone.
    """
    # The weights are CSR, so tocsc builds new arrays to scale in place.
    csc = w.weights.tocsc()
    lengths = np.diff(csc.indptr)
    for m in np.unique(lengths[lengths > 0]):
        entries = csc.indptr[:-1][lengths == m][:, None] + np.arange(m)
        block = csc.data[entries]
        csc.data[entries] = block / np.sqrt(np.sum(block**2, axis=1, keepdims=True))
    return WeightedMatrix(terms=w.terms, docs=w.docs, weights=sparse.csr_array(csc))


def weigh(ablated: TermDocMatrix, d_percent: float, rank_cutoff: int) -> WeightedMatrix:
    """Every step after the singleton ablation: D floor, tf-idf, R cutoff, L2.

    Each matrix is dropped once the next step has read it, so weigh
    holds none of them longer than its caller does.
    """
    floored = apply_df_threshold(ablated, d_percent)
    del ablated
    weighted = tfidf(floored)
    del floored
    return l2_normalize(apply_rank_cutoff(weighted, rank_cutoff))


class SharedWeighing:
    """``weigh`` for many (d, r) over one matrix, from one ranking.

    tf-idf runs once, over every term of the matrix: idf depends only on
    a term's document frequency and the document count, and the D floor
    changes neither for the terms it keeps.  The weighted entries are
    ranked once, in the order ``apply_rank_cutoff`` cuts by, and dropping
    the terms under a floor leaves the rest in that order, so
    ``at(d, r)`` returns exactly what ``weigh(m, d, r)`` returns.

    Built over ``apply_df_threshold(ablated, d_min)``, it ranks only the
    terms over the lowest floor a caller needs: the floor only rises with
    d, so for every d >= d_min ``at(d, r)`` is ``weigh(ablated, d, r)``.
    """

    def __init__(self, m: TermDocMatrix):
        # The ranking replaces the counts, which are not held.
        self.terms, self.docs = m.terms, m.docs
        self._doc_freq = m.doc_freq
        self._ranking = _Ranking(tfidf(m))

    def at(self, d_percent: float, rank_cutoff: int) -> WeightedMatrix:
        """The D floor, the R cutoff and L2 over the shared tf-idf entries."""
        keep = _df_keep(self._doc_freq, len(self.docs), d_percent)
        return l2_normalize(self._ranking.top(keep, rank_cutoff))


def build_weighted_matrix(
    corpus: Corpus, d_percent: float = 0.5, rank_cutoff: int = 5
) -> WeightedMatrix:
    """Run the fixed pipeline order on a corpus's held counts."""
    return weigh(ablate_singletons(corpus.term_counts), d_percent, rank_cutoff)


class CorpusVectorizer(BaseEstimator):
    """Corpus -> weighted matrix, as a fit estimator.

    The document-frequency controls are corpus-global, so the vectorizer
    has no transform for unseen documents: ``fit_transform`` returns the
    weighted matrix of the corpus it was fit on.
    """

    def __init__(self, d_percent: float = 0.5, rank_cutoff: int = 5):
        self.d_percent = d_percent
        self.rank_cutoff = rank_cutoff

    def fit(self, corpus: Corpus, y=None) -> "CorpusVectorizer":
        self.weighted_ = build_weighted_matrix(
            corpus, d_percent=self.d_percent, rank_cutoff=self.rank_cutoff
        )
        self.vocabulary_ = self.weighted_.terms
        return self

    def fit_transform(self, corpus: Corpus, y=None) -> WeightedMatrix:
        return self.fit(corpus).weighted_


# The ranking sorts, and cuts, whole documents at a time, about this
# many entries (more only by one document's length): its sort key,
# argsort and running counts are bounded by that, not by the matrix.
# On 30,000 documents, chunks of 2**12 to 2**16 entries weigh in the
# same time and peak; from about 2**18 the chunk's arrays raise the peak.
_CHUNK_ENTRIES = 1 << 14


class _Ranking:
    """A weighted matrix's entries in the R cutoff's order: by document,
    then weight descending, then term ascending.  numpy sorts complex
    numbers by real part, then imaginary part, so one stable sort of
    (document - 1j * weight) gives that order: the CSC form lists each
    document's entries in term order.  The order never crosses a
    document, so each chunk of whole documents is sorted on its own."""

    def __init__(self, w: WeightedMatrix):
        self.terms, self.docs = w.terms, w.docs
        # The weights are CSR, so tocsc builds new arrays to sort in place:
        # each document keeps its csc span in the sorted order.
        csc = w.weights.tocsc()
        self._indptr, self._terms, self._data = csc.indptr, csc.indices, csc.data
        starts = np.searchsorted(
            self._indptr, np.arange(_CHUNK_ENTRIES, self._indptr[-1], _CHUNK_ENTRIES), side="right"
        ) - 1
        bounds = np.unique(np.concatenate(([0], starts, [len(self.docs)]))).tolist()
        # The first and one past the last document of each chunk.
        self._chunks = list(zip(bounds[:-1], bounds[1:]))
        for first, last in self._chunks:
            ptr = self._indptr[first : last + 1]
            span = slice(ptr[0], ptr[-1])
            key = np.repeat(np.arange(last - first, dtype=np.complex128), np.diff(ptr))
            key.imag = -self._data[span]
            order = np.argsort(key, kind="stable")
            self._terms[span] = self._terms[span][order]
            self._data[span] = self._data[span][order]

    def top(self, keep: np.ndarray, r: int) -> WeightedMatrix:
        """Each document's first ``r`` entries of the terms in ``keep``,
        over those terms only."""
        check_positive_int(r, "r")
        # Rank each kept entry within its document by counting the kept
        # entries up to it in the sorted order.  The leading 0 of the
        # output's indptr starts its list of column lengths.
        picked, lengths = [np.empty(0, dtype=np.intp)], [np.zeros(1, dtype=np.intp)]
        for first, last in self._chunks:
            ptr = self._indptr[first : last + 1]
            alive = keep[self._terms[ptr[0] : ptr[-1]]]
            seen = np.concatenate(([0], np.cumsum(alive)))
            before = seen[ptr - ptr[0]]
            rank = seen[1:] - np.repeat(before[:-1], np.diff(ptr))
            picked.append(ptr[0] + np.flatnonzero(alive & (rank <= r)))
            lengths.append(np.minimum(np.diff(before), r))
        picked = np.concatenate(picked)
        row = np.cumsum(keep) - 1
        terms = tuple(itertools.compress(self.terms, keep))
        # The CSR conversion puts each document's entries back in term
        # order, the order l2_normalize sums them in.
        weights = sparse.csc_array(
            (self._data[picked], row[self._terms[picked]], np.cumsum(np.concatenate(lengths))),
            shape=(len(terms), len(self.docs)),
        )
        return WeightedMatrix(terms=terms, docs=self.docs, weights=sparse.csr_array(weights))


def _df_keep(doc_freq: np.ndarray, n_docs: int, d_percent: float) -> np.ndarray:
    """The terms the D floor keeps; AllTermsRemoved when it keeps none."""
    threshold = df_threshold(d_percent, n_docs)
    keep = doc_freq >= threshold
    if not np.any(keep):
        raise AllTermsRemoved(
            f"document-frequency floor {d_percent}% (min {threshold} docs) removed all terms"
        )
    return keep


def _keep_terms(m: TermDocMatrix, keep: np.ndarray) -> TermDocMatrix:
    terms = tuple(itertools.compress(m.terms, keep))
    counts = sparse.csr_array(m.counts[keep])
    return TermDocMatrix(terms=terms, docs=m.docs, counts=counts)


def dump_matrix_market(w: WeightedMatrix, path: str | Path) -> None:
    """MatrixMarket coordinate dump of the weights, for ``load_weighted_matrix``."""
    spio.mmwrite(str(path), sparse.coo_array(w.weights))


def dump_vocabulary(w: WeightedMatrix, path: str | Path) -> None:
    """Two-column TSV: term, row index."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for i, term in enumerate(w.terms):
            fh.write(f"{term}\t{i}\n")


def load_weighted_matrix(
    weights_path: str | Path, vocab_path: str | Path, docs: tuple[str, ...]
) -> WeightedMatrix:
    """Read back the weights and vocabulary that ``dump_matrix_market`` and
    ``dump_vocabulary`` wrote, over the documents ``docs``.  A file that
    does not parse, or a matrix whose shape is not (terms, docs), raises
    ``DataError``."""
    try:
        lines = Path(vocab_path).read_text(encoding="utf-8").splitlines()
        weights = sparse.csr_array(spio.mmread(str(weights_path)))
    except ValueError as exc:
        raise ParseError(f"{weights_path} or {vocab_path}: {exc}") from exc
    terms = tuple(line.split("\t")[0] for line in lines)
    if weights.shape != (len(terms), len(docs)):
        raise DataError(
            f"{weights_path} has shape {weights.shape}, but {vocab_path} and the corpus "
            f"give {(len(terms), len(docs))}"
        )
    return WeightedMatrix(terms=terms, docs=docs, weights=weights)
