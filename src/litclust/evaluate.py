"""External cluster validity scoring against gold-standard class labels.

Homogeneity and completeness are normalized conditional entropies of the
class-by-cluster contingency table; their harmonic mean is the v-measure.
All entropies are in nats (any base cancels in the ratios).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from litclust.errors import NoLabeledDocuments


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Exact class-by-cluster counts over the labeled documents.

    Rows follow sorted class labels, columns follow ascending cluster
    indices; ``unlabeled`` counts documents excluded for missing labels.
    """

    classes: tuple[str, ...]
    clusters: tuple[int, ...]
    counts: np.ndarray
    total: int
    unlabeled: int = 0


@dataclass(frozen=True)
class MetricsReport:
    homogeneity: float
    completeness: float
    v_measure: float


def contingency(
    assignments: Sequence[int], labels: Sequence[str | None]
) -> ContingencyTable:
    """Tally (class, cluster) pairs, excluding unlabeled documents."""
    if len(assignments) != len(labels):
        raise ValueError(
            f"length mismatch: {len(assignments)} assignments vs {len(labels)} labels"
        )
    classes = tuple(sorted(set(labels) - {None}))
    if not classes:
        raise NoLabeledDocuments("no document carries a class label")
    row_of = {lab: i for i, lab in enumerate(classes)}
    rows = np.array([row_of.get(lab, -1) for lab in labels], dtype=np.int64)
    labeled = rows >= 0
    clusters, cols = np.unique(
        np.asarray(assignments, dtype=np.int64)[labeled], return_inverse=True
    )
    total = len(cols)
    counts = np.bincount(
        rows[labeled] * len(clusters) + cols, minlength=len(classes) * len(clusters)
    ).reshape(len(classes), len(clusters))
    return ContingencyTable(
        classes=classes,
        clusters=tuple(clusters.tolist()),
        counts=counts,
        total=total,
        unlabeled=len(labels) - total,
    )


def metrics(table: ContingencyTable) -> MetricsReport:
    """Homogeneity, completeness, and v-measure from a contingency table.

    Conventions: h = 1 when there is a single class (the class entropy is
    zero), c = 1 when there is a single cluster, v = 0 when h + c = 0;
    h and c are clipped to [0, 1].
    """
    counts = table.counts.astype(np.float64)
    total = float(table.total)
    class_totals = counts.sum(axis=1)
    cluster_totals = counts.sum(axis=0)

    h_class = _entropy(class_totals, total)
    h_cluster = _entropy(cluster_totals, total)
    # H(class | cluster): cell probabilities against their column mass.
    h_class_given_cluster = _cond_entropy(counts, cluster_totals[None, :], total)
    h_cluster_given_class = _cond_entropy(counts, class_totals[:, None], total)

    homogeneity = 1.0 if h_class == 0.0 else 1.0 - h_class_given_cluster / h_class
    completeness = 1.0 if h_cluster == 0.0 else 1.0 - h_cluster_given_class / h_cluster
    # For independent labelings the conditional entropy can round a few
    # ulps above the entropy; clipped (as sklearn clips its mutual
    # information at 0), they score exactly 0.
    homogeneity = min(max(homogeneity, 0.0), 1.0)
    completeness = min(max(completeness, 0.0), 1.0)
    if homogeneity + completeness == 0.0:
        v = 0.0
    else:
        v = 2.0 * homogeneity * completeness / (homogeneity + completeness)
    return MetricsReport(
        homogeneity=float(homogeneity),
        completeness=float(completeness),
        v_measure=float(v),
    )


def score_clustering(
    assignments: Sequence[int], labels: Sequence[str | None]
) -> MetricsReport:
    """Convenience composition of :func:`contingency` and :func:`metrics`."""
    return metrics(contingency(assignments, labels))


def metrics_json(report: MetricsReport) -> str:
    """Machine-readable metrics."""
    payload = {
        "homogeneity": report.homogeneity,
        "completeness": report.completeness,
        "v_measure": report.v_measure,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def _entropy(masses: np.ndarray, total: float) -> float:
    """Entropy in nats of masses/total, with 0 * log(0) = 0."""
    p = masses[masses > 0] / total
    return float(-np.sum(p * np.log(p)))


def _cond_entropy(counts: np.ndarray, given: np.ndarray, total: float) -> float:
    mask = counts > 0
    cells = counts[mask]
    denom = np.broadcast_to(given, counts.shape)[mask]
    return float(-np.sum(cells / total * np.log(cells / denom)))
