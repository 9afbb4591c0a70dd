"""K-means over document embeddings.

The reported quantities are the within-cluster sums of squared Euclidean
distances to the centroid (one per cluster) and their total, which is
the objective the Lloyd iterations minimize.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from litclust.base import BASELINE_PRESET, BaseEstimator, check_positive_int, check_vectors, tsv_rows
from litclust.errors import ComputeError, ConfigError, EmptyCluster, KTooLarge, ParseError

logger = logging.getLogger(__name__)

MAX_ITER = 300
# Candidate draws per k-means++ center (greedy variant); 1 recovers the
# plain sampling rule.
INIT_CANDIDATES = 3


@dataclass(frozen=True, eq=False)
class Clustering:
    """Result of one k-means run (the best restart).

    Every one of the ``k`` clusters holds at least one point, so
    ``empty_clusters`` is always ``()``; it stays until the benchmark
    stops reading it.
    """

    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    variabilities: np.ndarray
    dissimilarity: float
    iterations: int
    restarts_used: int
    objective_trace: tuple[float, ...]
    empty_clusters: tuple[int, ...] = ()


def variability(points) -> float:
    """Sum of squared Euclidean distances of the points from their mean."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] == 0:
        raise EmptyCluster("variability of an empty point set is undefined")
    center = pts.mean(axis=0)
    return float(np.sum((pts - center) ** 2))


def kmeans(vectors, k: int, seed: int = 0, restarts: int = 1) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` runs.

    Deterministic for fixed (seed, restarts): restart ``i`` draws from an
    rng derived from (seed, i), so adding restarts never changes the
    earlier runs, and the minimum-dissimilarity result (ties to the
    earliest restart) is returned.
    """
    x = check_vectors(vectors, "vectors")
    check_positive_int(k, "k")
    check_positive_int(restarts, "restarts")
    n = x.shape[0]
    if k > n:
        raise KTooLarge(f"k={k} exceeds the number of points {n}")

    # Seeding happens against a canonically ordered copy of the points so
    # the chosen centers are a function of the point VALUES, never of the
    # input order; that is what makes the output permutation-invariant.
    canon = x[_canonical_order(x)]
    # Two tables every restart shares.  ``norms`` repeats each point's
    # squared norm across the k distance columns, so adding it is one
    # contiguous pass where broadcasting a column along a short row is
    # numpy's slow path; the sums are the same.  ``codes`` holds the
    # bincount bin of each (cluster, coordinate), so a point's bins are
    # one row gathered by its label.
    norms = np.repeat(np.sum(x**2, axis=1)[:, None], k, axis=1)
    codes = np.arange(k * x.shape[1]).reshape(k, x.shape[1])

    # min keeps the first of equal minima, so ties go to the earliest restart.
    best = min(
        (
            _lloyd(x, norms, codes, canon, k, np.random.default_rng([seed, restart]), restart)
            for restart in range(restarts)
        ),
        key=lambda result: result.dissimilarity,
    )
    return replace(best, restarts_used=restarts)


def _canonical_order(x: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort(x.T)`` gives: rows by the last column,
    ties broken by the columns before it from right to left, stably.

    One stable sort of the last column places every row; only the rows
    whose last value is tied are then re-sorted by the full key, in one
    ``lexsort`` whose primary key (the last column) keeps the runs apart.
    """
    order = np.argsort(x[:, -1], kind="stable")
    last = x[order, -1]
    equal = last[1:] == last[:-1]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = equal
    tied[:-1] |= equal
    runs = order[tied]
    order[tied] = runs[np.lexsort(x[runs].T)]
    return order


def _lloyd(
    x: np.ndarray, norms: np.ndarray, codes: np.ndarray, canon: np.ndarray, k: int, rng, restart: int
) -> Clustering:
    """One Lloyd run from a k-means++ seeding; ``restarts_used`` is set by the caller.

    ``norms`` and ``codes`` are the per-call tables ``kmeans`` builds.
    The loop stops as soon as the repaired labels repeat, and the objective
    of that last step is the one before it: equal labels give equal sums
    and sizes, so the centers, the offsets and the objective would come
    out the same bits.
    """
    centers = _kmeanspp(canon, k, rng)
    labels = np.full(x.shape[0], -1, dtype=np.int64)
    trace: list[float] = []
    repaired = 0

    for _ in range(MAX_ITER):
        nearest = np.argmin(_sq_dists(x, norms, centers), axis=1)
        new_labels, sizes = _repair_empty(x, nearest, k)
        if new_labels is not nearest:
            # Each repair moves one point into an empty cluster, and no later
            # repair of the pass moves it again, so the changed labels count them.
            repaired += int(np.count_nonzero(new_labels != nearest))
        if np.array_equal(new_labels, labels):
            trace.append(trace[-1])
            break
        labels = new_labels
        centers = _means(x, labels, sizes, codes)
        # ``take`` gathers whole rows by label; fancy indexing gives the
        # same rows through a slower path.
        sq = x - centers.take(labels, axis=0)
        np.square(sq, out=sq)
        trace.append(float(np.add.reduce(sq, axis=None)))

    # Lloyd's objective can never go up between iterations; tolerate only
    # float accumulation noise.
    if np.any(np.diff(trace) > 1e-9 * (1.0 + trace[0])):
        raise ComputeError("objective increased during Lloyd iterations")

    # ``sq`` holds each point's squared offsets from its centroid, the
    # mean ``_means`` took of its members, so a cluster's rows of it sum
    # to the cluster's variability.
    variabilities = np.zeros(k)
    for c in range(k):
        variabilities[c] = np.sum(sq[labels == c])
    logger.debug(
        "kmeans: restart %d, %d Lloyd iterations, %d empty clusters repaired, objective %r",
        restart, len(trace), repaired, trace[-1],
    )
    return Clustering(
        k=k,
        assignments=labels,
        centroids=centers,
        variabilities=variabilities,
        dissimilarity=float(variabilities.sum()),
        iterations=len(trace),
        restarts_used=1,
        objective_trace=tuple(trace),
    )


def _kmeanspp(x: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding, greedy variant (Arthur & Vassilvitskii, SODA 2007).

    Each new center is the best of ``INIT_CANDIDATES`` draws made with
    probability proportional to squared distance from the nearest chosen
    center ("best" = smallest resulting potential).  One candidate is
    the plain k-means++ rule.

    ``_draw_candidates`` takes from the rng exactly what ``rng.choice(p=)``
    takes, draw for draw.  The squared distances are summed over a
    feature-major copy of the points, one long vector per feature, added
    in feature order: reducing a 4- to 20-wide axis per point is numpy's
    slow path.  The sums only steer the draws and the best-of-candidates
    choice, so their rounding matters only at a near-tie.
    """
    n = x.shape[0]
    features = np.ascontiguousarray(x.T)

    def sq_dists_to(rows):
        diffs = features[:, None, :] - features[:, rows, None]
        return np.add.reduce(np.square(diffs, out=diffs), axis=0)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = sq_dists_to(chosen[:1])[0]
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            candidates = _draw_candidates(d2, total, rng)
            cand_d2 = np.minimum(d2, sq_dists_to(candidates))
            # argmin keeps the first of equal potentials, the earliest draw.
            best = int(np.argmin(cand_d2.sum(axis=1)))
            idx, d2 = int(candidates[best]), cand_d2[best]
        else:
            # All remaining mass is on duplicates of chosen centers; take
            # the first index not yet used to keep k centers distinct.
            used = set(chosen[:i].tolist())
            idx = next(j for j in range(n) if j not in used)
            d2 = np.minimum(d2, sq_dists_to([idx])[0])
        chosen[i] = idx
    return x[chosen].copy()


def _draw_candidates(d2: np.ndarray, total: float, rng) -> np.ndarray:
    """``INIT_CANDIDATES`` indices drawn with probability ``d2 / total``.

    The same indices, from the same draws, as ``rng.choice(len(d2),
    INIT_CANDIDATES, p=d2 / total)``: this is the inverse-CDF step that
    ``Generator.choice`` runs after validating ``p``, which ``d2`` (finite,
    non-negative, positive ``total``) needs no check for.
    """
    cdf = np.cumsum(d2 / total)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(INIT_CANDIDATES), side="right")


def _sq_dists(x: np.ndarray, norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of ``x`` to ``centers``; ``norms`` holds
    the rows' squared norms, as an (n, k) table or an (n, 1) column.

    ``x_sq - 2 x.c + |c|^2``, formed in place: scaling by -2 is exact, so
    ``x @ (-2 c)`` is ``-2 (x @ c)`` bit for bit, and adding it to the
    norms gives the bits subtracting it would.  The table and the column
    add the same numbers; the table does it in one contiguous pass.
    """
    d2 = x @ (-2.0 * centers).T
    d2 += norms
    d2 += np.sum(centers**2, axis=1)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _repair_empty(x: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Move the farthest point of the largest cluster into each empty one.

    Keeps k fixed, and leaves no cluster empty when k <= n, as ``kmeans``
    requires: with a cluster empty, the other k - 1 hold all n >= k points,
    so the largest holds at least two and can give one up, after every
    move too.  Returns the repaired labels and the cluster sizes they give,
    all positive; with no cluster empty, the labels are returned as given,
    not copied.
    """
    sizes = np.bincount(labels, minlength=k)
    if sizes.all():
        return labels, sizes
    labels = labels.copy()
    for empty in np.flatnonzero(sizes == 0):
        largest = int(np.argmax(sizes))
        if sizes[largest] <= 1:
            raise EmptyCluster(
                f"cluster {empty} is empty: {len(labels)} points cannot fill k={k} clusters"
            )
        members = np.flatnonzero(labels == largest)
        centroid = x[members].mean(axis=0)
        farthest = members[int(np.argmax(np.sum((x[members] - centroid) ** 2, axis=1)))]
        labels[farthest] = empty
        sizes[largest] -= 1
        sizes[empty] += 1
    return labels, sizes


def _means(x: np.ndarray, labels: np.ndarray, sizes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Member means of the clusters of ``labels``, whose sizes ``sizes``
    are all positive.  ``codes`` is the (k, n_dims) table of bincount
    bins, ``codes[c, j] = c * n_dims + j``.

    One ``bincount`` adds each cluster's coordinates over its members in
    point order, at every width, and each mean is one division of its
    sum by its size.
    """
    bins = codes.take(labels, axis=0).ravel()
    sums = np.bincount(bins, weights=x.ravel(), minlength=codes.size).reshape(codes.shape)
    return sums / sizes[:, None]


class KMeans(BaseEstimator):
    """Estimator facade over :func:`kmeans` with predict for new points."""

    def __init__(self, k: int = BASELINE_PRESET["k"], seed: int = 0, restarts: int = 4):
        self.k = k
        self.seed = seed
        self.restarts = restarts

    def fit(self, x, y=None) -> "KMeans":
        self.clustering_ = kmeans(x, self.k, seed=self.seed, restarts=self.restarts)
        self.labels_ = self.clustering_.assignments
        self.centroids_ = self.clustering_.centroids
        self.dissimilarity_ = self.clustering_.dissimilarity
        return self

    def predict(self, x) -> np.ndarray:
        if not hasattr(self, "clustering_"):
            raise ConfigError("KMeans is not fitted; call fit first")
        pts = check_vectors(x, "x")
        if pts.shape[1] != self.centroids_.shape[1]:
            raise ConfigError(
                f"x has {pts.shape[1]} columns but the centroids were fitted on {self.centroids_.shape[1]}"
            )
        return np.argmin(_sq_dists(pts, np.sum(pts**2, axis=1)[:, None], self.centroids_), axis=1)

    def fit_predict(self, x, y=None) -> np.ndarray:
        return self.fit(x).labels_


def assignment_lines(clustering: Clustering, docs) -> Iterator[bytes]:
    """TSV lines: doc id, cluster index."""
    for doc_id, label in zip(docs, clustering.assignments):
        yield f"{doc_id}\t{int(label)}\n".encode()


def load_assignments(path: str | Path) -> dict[str, int]:
    """Read a TSV dump.  A line that is not ``id<TAB>cluster index``, with
    the index in plain ASCII digits, or a document id given twice raises
    ParseError naming the file and line."""
    out: dict[str, int] = {}
    for lineno, fields in tsv_rows(path):
        try:
            doc_id, label = fields
            if not (label.isascii() and label.isdigit()):
                raise ValueError(f"not plain ASCII digits: {label!r}")
            index = int(label)  # a ValueError too past int's digit limit
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: expected '<doc id>\\t<cluster index>'") from exc
        if doc_id in out:
            raise ParseError(f"{path}:{lineno}: document {doc_id!r} is assigned a second time")
        out[doc_id] = index
    return out


def run_metadata(clustering: Clustering, seed: int) -> str:
    """JSON blob describing a clustering run."""
    return json.dumps(
        {
            "k": clustering.k,
            "seed": seed,
            "restarts": clustering.restarts_used,
            "dissimilarity": clustering.dissimilarity,
            "iterations": clustering.iterations,
            "empty_clusters": list(clustering.empty_clusters),
        },
        sort_keys=True,
        indent=2,
    )
