import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from litclust.errors import NoLabeledDocuments
from litclust.evaluate import (
    ContingencyTable,
    contingency,
    metrics,
    metrics_json,
    score_clustering,
)

from helpers import oracle_metrics, random_contingency


def table_from(cells):
    counts = np.asarray(cells, dtype=np.int64)
    return ContingencyTable(
        classes=tuple(f"C{i}" for i in range(counts.shape[0])),
        clusters=tuple(range(counts.shape[1])),
        counts=counts,
        total=int(counts.sum()),
    )


class TestContingency:
    def test_diagonal_case(self):
        t = contingency([0, 0, 1, 1], ["A", "A", "B", "B"])
        assert t.counts.tolist() == [[2, 0], [0, 2]]
        assert t.classes == ("A", "B")
        assert t.clusters == (0, 1)
        assert t.total == 4

    def test_single_cluster(self):
        t = contingency([0, 0], ["A", "B"])
        assert t.counts.tolist() == [[1], [1]]

    def test_unlabeled_excluded_with_count(self):
        t = contingency([0, 1, 0, 1], ["A", None, "B", None])
        assert t.total == 2
        assert t.unlabeled == 2

    def test_no_labels_raises(self):
        with pytest.raises(NoLabeledDocuments):
            contingency([0, 1], [None, None])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency([0], ["A", "B"])

    def test_random_pairs_match_tally_oracle(self):
        rng = np.random.default_rng(0)
        labels = [f"L{i}" for i in rng.integers(0, 4, size=100)]
        clusters = [int(c) for c in rng.integers(0, 5, size=100)]
        t = contingency(clusters, labels)
        # Independent tally: count pairs one by one.
        for i, lab in enumerate(t.classes):
            for j, clu in enumerate(t.clusters):
                expected = sum(
                    1 for l, c in zip(labels, clusters) if l == lab and c == clu
                )
                assert t.counts[i, j] == expected

    def test_row_and_column_sums(self):
        rng = np.random.default_rng(1)
        labels = [f"L{i}" for i in rng.integers(0, 3, size=60)]
        clusters = [int(c) for c in rng.integers(0, 4, size=60)]
        t = contingency(clusters, labels)
        assert int(t.counts.sum()) == t.total
        for i, lab in enumerate(t.classes):
            assert t.counts[i].sum() == labels.count(lab)
        for j, clu in enumerate(t.clusters):
            assert t.counts[:, j].sum() == clusters.count(clu)


def reference_contingency(assignments, labels):
    """The pair tally that ``contingency``'s bincount replaced."""
    pairs = [(lab, int(a)) for a, lab in zip(assignments, labels) if lab is not None]
    classes = tuple(sorted({lab for lab, _ in pairs}))
    clusters = tuple(sorted({c for _, c in pairs}))
    row = {lab: i for i, lab in enumerate(classes)}
    col = {c: j for j, c in enumerate(clusters)}
    counts = np.zeros((len(classes), len(clusters)), dtype=np.int64)
    for lab, c in pairs:
        counts[row[lab], col[c]] += 1
    return classes, clusters, counts, len(pairs), len(labels) - len(pairs)


@pytest.mark.parametrize("seed", range(5))
def test_contingency_equals_pair_tally(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    labels = [None if rng.random() < 0.2 else f"L{i}" for i in rng.integers(0, 6, size=n)]
    labels[0] = "L9"
    # Cluster ids with gaps, as numpy integers and as Python ints.
    assignments = rng.choice([0, 2, 3, 7, 11], size=n)
    if seed % 2:
        assignments = assignments.tolist()
    t = contingency(assignments, labels)
    classes, clusters, counts, total, unlabeled = reference_contingency(assignments, labels)
    assert (t.classes, t.clusters, t.total, t.unlabeled) == (classes, clusters, total, unlabeled)
    assert all(type(c) is int for c in t.clusters)
    assert t.counts.dtype == counts.dtype
    assert np.array_equal(t.counts, counts)


class TestMetrics:
    def test_perfect_clustering(self):
        rep = metrics(table_from([[5, 0], [0, 5]]))
        assert rep.homogeneity == 1.0
        assert rep.completeness == 1.0
        assert rep.v_measure == 1.0

    def test_everything_in_one_cluster(self):
        rep = metrics(table_from([[5], [5]]))
        assert rep.homogeneity == 0.0
        assert rep.completeness == 1.0
        assert rep.v_measure == 0.0

    def test_symmetric_table_frozen_value(self):
        # Brute-force oracle gives h = c = v = 0.18872187554086717.
        rep = metrics(table_from([[3, 1], [1, 3]]))
        assert rep.homogeneity == pytest.approx(0.18872187554086717, abs=1e-6)
        assert rep.completeness == pytest.approx(0.18872187554086717, abs=1e-6)
        assert rep.v_measure == pytest.approx(0.18872187554086717, abs=1e-6)

    def test_single_class_is_fully_homogeneous(self):
        rep = metrics(table_from([[3, 4, 2]]))
        assert rep.homogeneity == 1.0
        assert rep.completeness < 1.0

    def test_single_class_single_cluster(self):
        rep = metrics(table_from([[7]]))
        assert (rep.homogeneity, rep.completeness, rep.v_measure) == (1.0, 1.0, 1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        cells = rng.integers(0, 10, size=(4, 5))
        cells[0, 0] += 1  # nonempty
        base = metrics(table_from(cells))
        for _ in range(10):
            rows = rng.permutation(4)
            cols = rng.permutation(5)
            shuffled = metrics(table_from(cells[np.ix_(rows, cols)]))
            assert shuffled.homogeneity == pytest.approx(base.homogeneity, abs=1e-12)
            assert shuffled.completeness == pytest.approx(base.completeness, abs=1e-12)

    def test_splitting_pure_cluster(self):
        # Split a pure cluster column into two pure halves: homogeneity
        # must not drop, completeness must not rise.
        rng = np.random.default_rng(3)
        for _ in range(25):
            cells = rng.integers(0, 8, size=(3, 3)).tolist()
            pure_class = int(rng.integers(0, 3))
            cells = [row + [0] for row in cells]
            cells[pure_class][3] = 6  # pure cluster, 6 docs of one class
            before = metrics(table_from(cells))
            split = [row + [0] for row in cells]
            split[pure_class][3] = 4
            split[pure_class][4] = 2
            after = metrics(table_from(split))
            assert after.homogeneity >= before.homogeneity - 1e-12
            assert after.completeness <= before.completeness + 1e-12

    def test_v_bounds_and_extremes(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            cells = random_contingency(rng)
            rep = metrics(table_from(cells))
            assert 0.0 <= rep.v_measure <= (rep.homogeneity + rep.completeness) / 2 + 1e-12
            assert -1e-12 <= rep.homogeneity <= 1 + 1e-12
            assert -1e-12 <= rep.completeness <= 1 + 1e-12
            if rep.v_measure == 1.0:
                assert rep.homogeneity == pytest.approx(1.0, abs=1e-12)
                assert rep.completeness == pytest.approx(1.0, abs=1e-12)

    def test_agreement_with_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            cells = random_contingency(rng)
            rep = metrics(table_from(cells))
            h, c, v = oracle_metrics(cells)
            assert abs(rep.homogeneity - h) <= 1e-9
            assert abs(rep.completeness - c) <= 1e-9
            assert abs(rep.v_measure - v) <= 1e-9


def test_score_clustering_composes():
    rep = score_clustering([0, 0, 1, 1], ["A", "A", "B", "B"])
    assert rep.v_measure == 1.0


def test_metrics_json_holds_full_precision():
    rep = score_clustering([0, 0, 0, 1], ["A", "A", "B", "B"])
    full = json.loads(metrics_json(rep))
    assert full == {"homogeneity": rep.homogeneity, "completeness": rep.completeness,
                    "v_measure": rep.v_measure}


# Cluster indices in 0..4 and class labels "0".."3", paired per document.
LABELINGS = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.sampled_from("0123"), min_size=n, max_size=n),
    )
)


@settings(max_examples=200, deadline=None)
@given(labeling=LABELINGS, relabel=st.permutations(range(5)), reclass=st.permutations("0123"))
# Exactly independent: the conditional entropy rounds one ulp above the
# entropy, which scored h = c = V = -2.2e-16 before the clip.
@example(
    labeling=([i % 3 for i in range(36)], [str((i // 3) % 4) for i in range(36)]),
    relabel=[0, 1, 2, 3, 4],
    reclass=["0", "1", "2", "3"],
)
def test_metric_bounds_symmetry_and_relabelling(labeling, relabel, reclass):
    assignments, labels = labeling
    rep = score_clustering(assignments, labels)
    h, c, v = rep.homogeneity, rep.completeness, rep.v_measure
    assert 0.0 <= h <= 1.0 and 0.0 <= c <= 1.0 and 0.0 <= v <= 1.0
    assert v == (0.0 if h + c == 0.0 else 2.0 * h * c / (h + c))
    swapped = score_clustering([int(lab) for lab in labels], [str(a) for a in assignments])
    assert swapped.homogeneity == pytest.approx(c, abs=1e-12)
    assert swapped.completeness == pytest.approx(h, abs=1e-12)
    renamed = score_clustering(
        [relabel[a] for a in assignments], [reclass[int(lab)] for lab in labels]
    )
    assert renamed.homogeneity == pytest.approx(h, abs=1e-12)
    assert renamed.completeness == pytest.approx(c, abs=1e-12)
    assert renamed.v_measure == pytest.approx(v, abs=1e-12)
