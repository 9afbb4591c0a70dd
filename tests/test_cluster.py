import itertools
import logging
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import litclust.cluster as cluster_mod
from litclust.base import replace_file
from litclust.cluster import (
    KMeans,
    assignment_lines,
    kmeans,
    load_assignments,
    run_metadata,
    variability,
)
from litclust.errors import ComputeError, ConfigError, EmptyCluster, KTooLarge, ParseError

from helpers import subprocess_env


def blobs(n_per, centers, spread, seed=0):
    rng = np.random.default_rng(seed)
    parts, truth = [], []
    for i, center in enumerate(centers):
        pts = rng.normal(loc=center, scale=spread, size=(n_per, len(center)))
        parts.append(pts)
        truth.extend([i] * n_per)
    return np.vstack(parts), np.array(truth)


def partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(i)
    return {frozenset(g) for g in groups.values()}


class TestVariability:
    def test_single_point_zero(self):
        assert variability([[3.0, 4.0]]) == 0.0

    def test_symmetric_pair(self):
        assert variability([[0.0], [2.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        # Independent recomputation: explicit mean then per-point loop.
        mean = [sum(p[d] for p in pts) / len(pts) for d in range(3)]
        expected = sum(
            sum((p[d] - mean[d]) ** 2 for d in range(3)) for p in pts
        )
        assert variability(pts) == pytest.approx(expected, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCluster):
            variability(np.empty((0, 2)))


class TestKmeans:
    def test_k_equals_n_gives_zero_dissimilarity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 5))
        result = kmeans(x, k=40, seed=0)
        assert result.dissimilarity == pytest.approx(0.0, abs=1e-12)
        assert sorted(result.assignments.tolist()) == list(range(40))

    def test_separated_blobs_recovered(self):
        x, truth = blobs(30, centers=[(0.0, 0.0), (10.0, 10.0)], spread=1.0, seed=2)
        result = kmeans(x, k=2, seed=0, restarts=3)
        assert partition(result.assignments) == partition(truth)

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 6))
        for seed in range(5):
            result = kmeans(x, k=7, seed=seed)
            trace = np.array(result.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9 * (1 + trace[0]))

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 4))
        result = kmeans(x, k=5, seed=1)
        for c in range(5):
            members = x[result.assignments == c]
            assert len(members) > 0
            assert np.allclose(result.centroids[c], members.mean(axis=0), atol=1e-9)

    def test_dissimilarity_is_sum_of_variabilities(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 3))
        result = kmeans(x, k=4, seed=2)
        assert result.dissimilarity == pytest.approx(
            float(result.variabilities.sum()), abs=1e-9
        )
        recomputed = sum(
            variability(x[result.assignments == c])
            for c in range(4)
            if np.any(result.assignments == c)
        )
        assert result.dissimilarity == pytest.approx(recomputed, abs=1e-9)

    def test_point_order_invariance_up_to_relabeling(self):
        x, _ = blobs(25, centers=[(0, 0), (8, 0), (0, 8)], spread=0.8, seed=6)
        perm = np.random.default_rng(7).permutation(len(x))
        a = kmeans(x, k=3, seed=3, restarts=2)
        b = kmeans(x[perm], k=3, seed=3, restarts=2)
        relabeled = {frozenset(perm[list(g)].tolist()) for g in partition(b.assignments)}
        original = {frozenset(g) for g in partition(a.assignments)}
        assert relabeled == original

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(100, 4))
        base = kmeans(x, k=6, seed=4, restarts=1).dissimilarity
        for restarts in (2, 4, 8):
            improved = kmeans(x, k=6, seed=4, restarts=restarts).dissimilarity
            assert improved <= base + 1e-12
            base = improved

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeans(np.zeros((3, 2)), k=4)

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 3))
        a = kmeans(x, k=4, seed=11, restarts=2)
        b = kmeans(x, k=4, seed=11, restarts=2)
        assert (a.assignments == b.assignments).all()
        assert a.dissimilarity == b.dissimilarity

    def test_duplicate_points_still_fill_all_clusters(self):
        # Three distinct locations but k=4: the repair step splits one
        # duplicate off into the empty cluster at zero cost, so every
        # cluster ends up populated as long as k <= n.
        x = np.repeat(np.array([[0.0], [5.0], [10.0]]), 10, axis=0)
        result = kmeans(x, k=4, seed=0)
        filled = {int(c) for c in result.assignments}
        assert len(filled) == 4
        assert result.empty_clusters == ()
        assert result.dissimilarity == pytest.approx(0.0, abs=1e-12)

    def test_restarts_used_recorded(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 2))
        assert kmeans(x, k=3, seed=0, restarts=5).restarts_used == 5


    def test_rising_objective_raises_compute_error(self, monkeypatch):
        # Centers that drift further from every point on each update make
        # the objective rise, which Lloyd's iterations can never do.
        means, step = cluster_mod._means, itertools.count(1)
        monkeypatch.setattr(
            cluster_mod, "_means",
            lambda x, labels, sizes, codes: means(x, labels, sizes, codes) + 10.0 * next(step),
        )
        x = np.random.default_rng(15).random((30, 2))
        with pytest.raises(ComputeError, match="objective increased"):
            kmeans(x, k=3, seed=0)

    def test_rising_objective_check_survives_python_O(self):
        script = textwrap.dedent("""
            import itertools
            import numpy as np
            from litclust import cluster
            from litclust.errors import ComputeError
            means, step = cluster._means, itertools.count(1)
            cluster._means = lambda x, labels, sizes, codes: (
                means(x, labels, sizes, codes) + 10.0 * next(step)
            )
            try:
                cluster.kmeans(np.random.default_rng(15).random((30, 2)), k=3, seed=0)
            except ComputeError as exc:
                print(__debug__, exc)
        """)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=subprocess_env(), timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False objective increased during Lloyd iterations"

    def test_repair_with_fewer_points_than_clusters_raises(self):
        # kmeans refuses k > n, so only a direct call can ask the repair
        # to fill more clusters than there are points.
        x = np.arange(6.0).reshape(3, 2)
        with pytest.raises(EmptyCluster, match=r"cluster 3 is empty: 3 points cannot fill k=5"):
            cluster_mod._repair_empty(x, np.array([0, 0, 1]), 5)

    def test_repair_check_survives_python_O(self):
        script = textwrap.dedent("""
            import numpy as np
            from litclust import cluster
            from litclust.errors import EmptyCluster
            try:
                cluster._repair_empty(np.arange(6.0).reshape(3, 2), np.array([0, 0, 1]), 5)
            except EmptyCluster as exc:
                print(__debug__, exc)
        """)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=subprocess_env(), timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False cluster 3 is empty: 3 points cannot fill k=5 clusters"


def reference_mean(members):
    """The mean of the rows of ``members``: the rows added one by one in
    point order, divided by their count."""
    total = np.zeros(members.shape[1])
    for i in range(len(members)):
        total = total + members[i]
    return total / len(members)


def reference_means(x, labels, sizes, fallback):
    """The per-cluster loop that ``_means`` replaced, on ``reference_mean``."""
    centers = fallback.copy()
    for c in range(len(sizes)):
        members = x[labels == c]
        if len(members):
            centers[c] = reference_mean(members)
    return centers


def reference_sq_dists_to(x, center):
    """Squared distances of the rows of ``x`` to ``center``, summed feature
    by feature in index order."""
    d2 = (x[:, 0] - center[0]) ** 2
    for j in range(1, x.shape[1]):
        d2 = d2 + (x[:, j] - center[j]) ** 2
    return d2


def reference_kmeanspp(x, k, rng):
    """The k-means++ seeding with the per-candidate loop that ``_kmeanspp`` replaced."""
    n = x.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = reference_sq_dists_to(x, x[chosen[0]])
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            candidates = rng.choice(n, size=cluster_mod.INIT_CANDIDATES, p=d2 / total)
            idx = -1
            best_d2 = None
            for cand in candidates:
                cand_d2 = np.minimum(d2, reference_sq_dists_to(x, x[cand]))
                if best_d2 is None or cand_d2.sum() < best_d2.sum():
                    idx, best_d2 = int(cand), cand_d2
            d2 = best_d2
        else:
            used = set(chosen[:i].tolist())
            idx = next(j for j in range(n) if j not in used)
            d2 = np.minimum(d2, reference_sq_dists_to(x, x[idx]))
        chosen[i] = idx
    return x[chosen].copy()


def reference_sq_dists(x, x_sq, centers):
    """The three-term distance expression that ``_sq_dists`` forms in place."""
    d2 = x_sq[:, None] - 2.0 * (x @ centers.T) + np.sum(centers**2, axis=1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def reference_repair_empty(x, labels, k):
    """The empty-cluster repair on a copy of the labels, whatever the sizes."""
    labels = labels.copy()
    sizes = np.bincount(labels, minlength=k)
    for empty in np.flatnonzero(sizes == 0):
        largest = int(np.argmax(sizes))
        if sizes[largest] <= 1:
            break
        members = np.flatnonzero(labels == largest)
        centroid = x[members].mean(axis=0)
        farthest = members[int(np.argmax(np.sum((x[members] - centroid) ** 2, axis=1)))]
        labels[farthest] = empty
        sizes[largest] -= 1
        sizes[empty] += 1
    return labels, sizes


def reference_lloyd(x, x_sq, canon, k, rng):
    """Lloyd's loop before the per-call tables: fancy-indexed gathers, a
    repair on copied labels, and a last iteration that recomputes the
    means and the objective of labels that did not change.  Also lists
    the iterations after the first in which a repair moved a point."""
    centers = reference_kmeanspp(canon, k, rng)
    labels = np.full(x.shape[0], -1, dtype=np.int64)
    trace, repaired_at = [], []
    for iteration in range(cluster_mod.MAX_ITER):
        nearest = np.argmin(reference_sq_dists(x, x_sq, centers), axis=1)
        new_labels, sizes = reference_repair_empty(x, nearest, k)
        if iteration and not np.array_equal(new_labels, nearest):
            repaired_at.append(iteration)
        centers = reference_means(x, new_labels, sizes, centers)
        sq = x - centers[new_labels]
        np.square(sq, out=sq)
        trace.append(float(np.sum(sq)))
        converged = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        if converged:
            break
    if np.any(np.diff(trace) > 1e-9 * (1.0 + trace[0])):
        raise ComputeError("objective increased during Lloyd iterations")
    variabilities = np.zeros(k)
    for c in np.flatnonzero(sizes):
        variabilities[c] = np.sum(sq[labels == c])
    return {
        "assignments": labels,
        "centroids": centers,
        "variabilities": variabilities,
        "dissimilarity": float(variabilities.sum()),
        "iterations": len(trace),
        "objective_trace": tuple(trace),
        "empty_clusters": tuple(int(c) for c in np.flatnonzero(sizes == 0)),
        "repaired_at": tuple(repaired_at),
    }


def reference_kmeans(x, k, seed, restarts):
    """``kmeans`` on the loops above: the best of ``restarts`` reference runs."""
    canon = x[np.lexsort(x.T)]
    x_sq = np.sum(x**2, axis=1)
    runs = [reference_lloyd(x, x_sq, canon, k, np.random.default_rng([seed, r])) for r in range(restarts)]
    return {**min(runs, key=lambda run: run["dissimilarity"]), "restarts_used": restarts}


CLUSTERING_FIELDS = ("assignments", "centroids", "variabilities", "dissimilarity",
                     "objective_trace", "iterations", "empty_clusters", "restarts_used")


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def points(kind, n, n_dims, rng):
    if kind == "normal":
        return rng.normal(size=(n, n_dims))
    if kind == "scaled":
        # Features whose scales span 12 orders of magnitude, so summing
        # them in any other order rounds differently somewhere.
        return rng.normal(size=(n, n_dims)) * 10.0 ** rng.uniform(-6, 6, size=n_dims)
    # Duplicates: a few distinct rows repeated, so seeding runs out of
    # mass (the ``total == 0`` branch) and clusters tie.
    distinct = rng.normal(size=(-(-n // 6), n_dims))
    return np.repeat(distinct, 6, axis=0)[:n]


class TestArrayFormsMatchLoops:
    """The array forms give the same bits as the loops they replaced."""

    @pytest.mark.parametrize("n_dims", [1, 2, 5, 16])
    @pytest.mark.parametrize("kind", ["normal", "duplicates"])
    def test_means_of_filled_clusters(self, n_dims, kind):
        # The repair leaves no cluster empty, so ``_means`` is only given
        # filled ones.
        rng = np.random.default_rng(n_dims)
        for n, k in [(1, 1), (7, 3), (40, 40), (300, 9), (900, 25)]:
            x = points(kind, n, n_dims, rng)
            # Every cluster takes one point, the rest go anywhere.
            labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)]))
            sizes = np.bincount(labels, minlength=k)
            codes = np.arange(k * n_dims).reshape(k, n_dims)
            expected = reference_means(x, labels, sizes, np.full((k, n_dims), np.nan))
            got = cluster_mod._means(x, labels, sizes, codes)
            assert np.array_equal(got, expected)
            assert same_bits(got, expected)

    @pytest.mark.parametrize("n_dims", [1, 3, 7, 8, 9, 16, 20, 130])
    @pytest.mark.parametrize("kind", ["normal", "duplicates", "scaled"])
    def test_kmeanspp_with_candidate_loop(self, n_dims, kind):
        rng = np.random.default_rng(100 + n_dims)
        for n, k in [(1, 1), (12, 12), (60, 9), (400, 20)]:
            x = points(kind, n, n_dims, rng)
            k = min(k, len(x))
            for seed in range(3):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = cluster_mod._kmeanspp(x, k, ours)
                expected = reference_kmeanspp(x, k, theirs)
                assert np.array_equal(got, expected)
                assert same_bits(got, expected)
                # The same draws were taken from the stream.
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_candidate_draw_equals_choice(self):
        rng = np.random.default_rng(18)
        for trial in range(300):
            n = int(rng.integers(1, 60))
            d2 = rng.random(n) * 10.0 ** rng.integers(-5, 6, size=n)
            # Zero mass, at the ends too: such an index is never drawn.
            d2[rng.random(n) < 0.4] = 0.0
            if trial % 3 == 0:
                d2[[0, -1]] = 0.0
            if not d2.any():
                d2[n // 2] = 1.0
            total = d2.sum()
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(3):
                got = cluster_mod._draw_candidates(d2, total, ours)
                expected = theirs.choice(n, size=cluster_mod.INIT_CANDIDATES, p=d2 / total)
                assert same_bits(got, expected)
                assert np.all(d2[got] > 0)
                assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("side", [-1, 1])
    def test_candidate_draw_at_a_cdf_boundary(self, side):
        # A cdf step placed 1e-12 (relative) to one side of the uniform the
        # rng will draw: rounding the cdf any coarser than float64 moves the
        # step across it for one of the two sides, and so the drawn index.
        for seed in range(20):
            u = np.random.default_rng(seed).random()
            step = u * (1.0 + side * 1e-12)
            d2 = np.array([0.0, step, 0.0, 1.0 - step, 0.0])
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = cluster_mod._draw_candidates(d2, d2.sum(), ours)
            expected = theirs.choice(len(d2), size=cluster_mod.INIT_CANDIDATES, p=d2 / d2.sum())
            assert same_bits(got, expected)
            assert got[0] == (1 if side > 0 else 3)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("n,n_dims", [(1, 1), (1, 6), (40, 1), (500, 4), (3000, 20)])
    @pytest.mark.parametrize("kind", ["normal", "duplicates", "last_column_ties", "signed_zeros"])
    def test_canonical_order_equals_lexsort(self, n, n_dims, kind):
        rng = np.random.default_rng(n * n_dims)
        if kind == "last_column_ties":
            # Every other column distinct; the last takes three values.
            x = rng.normal(size=(n, n_dims))
            x[:, -1] = rng.integers(0, 3, size=n)
        elif kind == "signed_zeros":
            # -0.0 equals 0.0, so both sorts must keep such rows in input order.
            x = rng.choice([-0.0, 0.0, 1.0], size=(n, n_dims))
        else:
            x = points(kind, n, n_dims, rng)
        assert np.array_equal(cluster_mod._canonical_order(x), np.lexsort(x.T))

    def test_distances_use_the_point_norms(self, monkeypatch):
        # The norms are computed once per call, as a table of one column
        # per center; a row constant does not move the argmin, so only
        # their bits show a wrong expression.
        x = np.random.default_rng(16).normal(size=(40, 3))
        sq_dists, seen = cluster_mod._sq_dists, []

        def checked(pts, norms, centers):
            table = np.repeat(np.sum(pts**2, axis=1)[:, None], len(centers), axis=1)
            seen.append((id(norms), same_bits(norms, table)))
            return sq_dists(pts, norms, centers)

        monkeypatch.setattr(cluster_mod, "_sq_dists", checked)
        kmeans(x, k=4, seed=0, restarts=2)
        assert seen and all(ok for _, ok in seen)
        assert len({table for table, _ in seen}) == 1

    def test_distances_equal_the_three_term_form(self):
        rng = np.random.default_rng(19)
        for n, n_dims, k in [(1, 1, 1), (40, 3, 4), (300, 8, 20), (200, 20, 7)]:
            x, centers = rng.normal(size=(n, n_dims)), rng.normal(size=(k, n_dims))
            x_sq = np.sum(x**2, axis=1)
            expected = reference_sq_dists(x, x_sq, centers)
            table = np.repeat(x_sq[:, None], k, axis=1)
            assert same_bits(cluster_mod._sq_dists(x, table, centers), expected)
            assert same_bits(cluster_mod._sq_dists(x, x_sq[:, None], centers), expected)

    @pytest.mark.parametrize(
        "n,n_dims,k,restarts,kind",
        [
            (50, 1, 4, 3, "normal"),
            (200, 3, 7, 2, "normal"),
            (150, 15, 20, 2, "normal"),
            (30, 2, 30, 1, "normal"),
            (60, 4, 12, 2, "duplicates"),
            # The shape of one sweep_k row: 8 dimensions, 4 restarts.
            (300, 8, 12, 4, "normal"),
            # k = 1, and k = n with one column.
            (40, 3, 1, 2, "normal"),
            (25, 1, 25, 2, "normal"),
            # Five copies of each of 12 points and k near n: clusters
            # empty and are refilled on most iterations.
            (60, 2, 58, 2, "duplicates"),
            (60, 1, 40, 2, "duplicates"),
        ],
    )
    def test_kmeans_equals_a_run_on_the_loops(self, n, n_dims, k, restarts, kind):
        x = points(kind, n, n_dims, np.random.default_rng(n))
        assert_kmeans_equals_the_reference(x, k, seed=7, restarts=restarts)

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_kmeans_equals_the_loops_with_a_repair_mid_run(self, n_dims):
        # Duplicated points at k = 20 of 80: a cluster empties after the
        # first iteration and is refilled by the repair.
        x = points("duplicates", 80, n_dims, np.random.default_rng(80))
        expected = assert_kmeans_equals_the_reference(x, 20, seed=0, restarts=1)
        assert expected["repaired_at"]

    def test_kmeans_equals_the_loops_at_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(cluster_mod, "MAX_ITER", 3)
        x = np.random.default_rng(21).normal(size=(400, 4))
        expected = assert_kmeans_equals_the_reference(x, 12, seed=3, restarts=2)
        # Both runs were cut, so the last labels are no repeat.
        assert expected["iterations"] == 3
        assert expected["objective_trace"][-1] < expected["objective_trace"][-2]


def assert_kmeans_equals_the_reference(x, k, seed, restarts):
    """Every ``Clustering`` field of ``kmeans`` has the bits ``reference_kmeans``
    gives; return the reference's fields."""
    got = kmeans(x, k, seed=seed, restarts=restarts)
    expected = reference_kmeans(x, k, seed, restarts)
    for field in CLUSTERING_FIELDS:
        assert same_bits(getattr(got, field), expected[field]), field
    # Each variability as the sum over its members' offsets from their mean.
    variabilities = np.zeros(k)
    for c in range(k):
        members = x[got.assignments == c]
        if len(members):
            variabilities[c] = np.sum((members - reference_mean(members)) ** 2)
    assert same_bits(got.variabilities, variabilities)
    return expected


def test_kmeans_logs_each_restart(caplog):
    # Duplicates at k near n, so the restarts repair empty clusters.
    x = points("duplicates", 60, 2, np.random.default_rng(60))
    with caplog.at_level(logging.DEBUG, logger="litclust.cluster"):
        result = kmeans(x, k=40, seed=7, restarts=3)
    messages = [r.getMessage() for r in caplog.records if r.name == "litclust.cluster"]
    assert len(messages) == 3
    for restart, message in enumerate(messages):
        assert message.startswith(f"kmeans: restart {restart}, ")
    best = [m for m in messages if f"{result.iterations} Lloyd iterations" in m
            and m.endswith(f"objective {result.objective_trace[-1]!r}")]
    assert best
    assert any(" 0 empty clusters repaired" not in m for m in messages)
    # Logging at DEBUG changes no result.
    again = kmeans(x, k=40, seed=7, restarts=3)
    for field in CLUSTERING_FIELDS:
        assert same_bits(getattr(result, field), getattr(again, field)), field


class TestEstimator:
    def test_fit_predict_roundtrip(self):
        x, _ = blobs(20, centers=[(0, 0), (9, 9)], spread=0.5, seed=11)
        est = KMeans(k=2, seed=0, restarts=2)
        labels = est.fit_predict(x)
        assert (est.predict(x) == labels).all()
        assert est.dissimilarity_ == est.clustering_.dissimilarity

    def test_predict_new_points_nearest_centroid(self):
        x, _ = blobs(20, centers=[(0.0, 0.0), (10.0, 10.0)], spread=0.5, seed=12)
        est = KMeans(k=2, seed=0).fit(x)
        probe = np.array([[0.2, -0.1], [9.5, 10.4]])
        labels = est.predict(probe)
        assert labels[0] != labels[1]

    def test_predict_rejects_another_width(self):
        x, _ = blobs(20, centers=[(0.0, 0.0), (10.0, 10.0)], spread=0.5, seed=12)
        est = KMeans(k=2, seed=0).fit(x)
        with pytest.raises(ConfigError, match="3 columns .* fitted on 2"):
            est.predict(np.zeros((4, 3)))

    def test_predict_requires_fit(self):
        with pytest.raises(ConfigError):
            KMeans().predict(np.zeros((2, 2)))

    def test_params(self):
        est = KMeans(k=7, seed=3)
        assert est.get_params()["k"] == 7
        est.set_params(restarts=9)
        assert est.restarts == 9


def test_assignment_dump_roundtrip(tmp_path):
    x, _ = blobs(10, centers=[(0, 0), (5, 5)], spread=0.3, seed=13)
    clustering = kmeans(x, k=2, seed=0)
    docs = [f"doc{i:02d}" for i in range(len(x))]
    path = tmp_path / "assignments.tsv"
    replace_file(path, assignment_lines(clustering, docs))
    back = load_assignments(path)
    assert [back[d] for d in docs] == clustering.assignments.tolist()


@pytest.mark.parametrize("bad", [b"doc01\tone", b"doc01 1", b"doc01\t1\t2", b"doc01\t\xff"])
def test_malformed_assignment_line_names_file_and_line(tmp_path, bad):
    path = tmp_path / "assignments.tsv"
    path.write_bytes(b"doc00\t0\n" + bad + b"\n")
    with pytest.raises(ParseError, match=r"assignments\.tsv:2:"):
        load_assignments(path)


def test_blank_assignment_lines_are_skipped(tmp_path):
    path = tmp_path / "assignments.tsv"
    path.write_bytes(b"doc00\t0\n\n\ndoc01\t1\n\n")
    assert load_assignments(path) == {"doc00": 0, "doc01": 1}
    path.write_bytes(b"doc00\t0\n\ndoc01\n")
    with pytest.raises(ParseError, match=r"assignments\.tsv:3:"):
        load_assignments(path)


def test_a_repeated_id_names_the_file_line_and_id(tmp_path):
    path = tmp_path / "assignments.tsv"
    path.write_bytes(b"a\t1\nb\t0\na\t2\n")
    with pytest.raises(ParseError, match=r"assignments\.tsv:3: document 'a' is assigned a second time"):
        load_assignments(path)


@pytest.mark.parametrize(
    "index", ["1_0", " 1", "1 ", "+1", "-1", "1.0", "\u0661", "\uff11", "1\r", "",
              pytest.param("1" * 5000, id="past-int-digit-limit")]
)
def test_a_cluster_index_is_plain_ascii_digits(tmp_path, index):
    path = tmp_path / "assignments.tsv"
    path.write_bytes(f"a\t1\nc\t{index}\n".encode("utf-8"))
    with pytest.raises(ParseError, match=r"assignments\.tsv:2:"):
        load_assignments(path)
    path.write_bytes(b"a\t1\nc\t007\n")
    assert load_assignments(path) == {"a": 1, "c": 7}


def test_run_metadata_fields():
    import json

    x = np.random.default_rng(14).normal(size=(20, 2))
    clustering = kmeans(x, k=2, seed=5, restarts=3)
    meta = json.loads(run_metadata(clustering, seed=5))
    assert meta["k"] == 2
    assert meta["seed"] == 5
    assert meta["restarts"] == 3
    assert meta["dissimilarity"] == pytest.approx(clustering.dissimilarity)
