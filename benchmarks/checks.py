"""Output checks for the benchmark, independent of litclust's own code.

Every check returns a list of failure messages; an empty list means the
output passed.  The v-measure oracle is plain Python over a
contingency table built here, not the package's vectorized metrics.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

# Skip reasons a sweep row may carry on these workloads.  A row skipped
# for ``svd_convergence_failure`` is a failed operation.
DESIGNED_SKIPS = frozenset({"all_terms_removed", "n_dims_too_large", "k_too_large"})
V_TOL = 1e-9
ZERO_SUM_TOL = 1e-9


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def v_measure_oracle(assignments: Sequence[int], labels: Sequence[str | None]) -> tuple[float, float, float]:
    """(homogeneity, completeness, v) by direct entropy sums over the table.

    Unlabelled documents are excluded; the conventions match the
    package's: h = 1 for one class, c = 1 for one cluster, v = 0 when
    h + c = 0.
    """
    table = Counter((lab, int(a)) for a, lab in zip(assignments, labels) if lab is not None)
    total = sum(table.values())
    classes: Counter = Counter()
    clusters: Counter = Counter()
    for (lab, c), n in table.items():
        classes[lab] += n
        clusters[c] += n

    def entropy(masses) -> float:
        return -sum(n / total * math.log(n / total) for n in masses if n)

    h_class, h_cluster = entropy(classes.values()), entropy(clusters.values())
    h_class_given = -sum(n / total * math.log(n / clusters[c]) for (_, c), n in table.items())
    h_cluster_given = -sum(n / total * math.log(n / classes[lab]) for (lab, _), n in table.items())
    h = 1.0 if h_class == 0 else 1.0 - h_class_given / h_class
    c = 1.0 if h_cluster == 0 else 1.0 - h_cluster_given / h_cluster
    v = 0.0 if h + c == 0 else 2 * h * c / (h + c)
    return h, c, v


def check_scores(homogeneity: float, completeness: float, v_measure: float) -> list[str]:
    """All three in [0, 1], and v the harmonic mean of h and c."""
    errors = [
        f"{name}={value!r} outside [0, 1]"
        for name, value in (("homogeneity", homogeneity), ("completeness", completeness), ("v_measure", v_measure))
        if not (0.0 <= value <= 1.0)
    ]
    expected = 0.0 if homogeneity + completeness == 0 else 2 * homogeneity * completeness / (homogeneity + completeness)
    if abs(expected - v_measure) > V_TOL:
        errors.append(f"v_measure={v_measure!r} is not the harmonic mean of h and c ({expected!r})")
    return errors


def check_against_oracle(
    scores: tuple[float, float, float], assignments: Sequence[int], labels: Sequence[str | None]
) -> list[str]:
    """Bounds, plus equality with the oracle's (h, c, v)."""
    errors = check_scores(*scores)
    for name, got, want in zip(("homogeneity", "completeness", "v_measure"), scores, v_measure_oracle(assignments, labels)):
        if abs(got - want) > V_TOL:
            errors.append(f"{name}={got!r} differs from the oracle's {want!r}")
    return errors


def check_zero_sum(weights: Iterable[tuple[str, float]], globals_: Mapping[str, int]) -> list[str]:
    """Each entity's relative weights sum to about zero across clusters."""
    sums: dict[str, float] = {}
    for entity, weight in weights:
        sums[entity] = sums.get(entity, 0.0) + weight
    return [
        f"probe weights of {entity!r} sum to {total!r}"
        for entity, total in sorted(sums.items())
        if abs(total) > ZERO_SUM_TOL * (1.0 + globals_.get(entity, 0))
    ]


def check_skips(reasons: Iterable[str | None]) -> list[str]:
    """Every skip reason comes from the designed set."""
    return [f"sweep row skipped for {r!r}" for r in reasons if r is not None and r not in DESIGNED_SKIPS]


def check_exit_codes(codes: Mapping[str, int]) -> list[str]:
    return [f"`litclust {cmd}` exited with {code}" for cmd, code in codes.items() if code != 0]


def check_identical(reference: Mapping[str, str], digests: Mapping[str, str]) -> list[str]:
    """The outputs of a repetition are byte-identical to the reference's."""
    return [
        f"{name} differs from the first repetition"
        for name in sorted(set(reference) | set(digests))
        if reference.get(name) != digests.get(name)
    ]
