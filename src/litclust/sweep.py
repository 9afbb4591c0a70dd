"""Randomized traversal of the (D, R, N, K) parameter grid.

The full Cartesian product is enumerated, shuffled deterministically by
seed and optionally truncated to a budget; that selects the
combinations.  They then run, and come back, sorted by (d, r, n, k), so
each shared prefix is built once and only the current one is held:
counting, singleton ablation, the lowest D floor, tf-idf and one sort
of the weights once per sweep (``vectorize.SharedWeighing``), the D
floor, R cutoff and L2 per (d, r), the embedding per (d, r, n).  Rows
are checkpointed as they complete, beside a fingerprint of the corpus
and the spec that a resume must match; a checkpoint line torn by a
crash mid-write is dropped on resume.  The V-vs-K curve is a
one-(d, r, n) sweep of the same kind, by default at the paper's baseline
point, ``base.BASELINE_PRESET``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from collections import Counter
from collections.abc import Collection
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from litclust import cluster as _cluster
from litclust import lsa as _lsa
from litclust import vectorize as _vec
from litclust.base import BASELINE_PRESET, check_positive_int, is_number, replace_file
from litclust.corpus import Corpus
from litclust.errors import (
    AllTermsRemoved,
    ConfigError,
    ConvergenceFailure,
    DimsTooLarge,
    EmptySpec,
    KTooLarge,
    NoLabeledDocuments,
    ParseError,
)
from litclust.evaluate import score_clustering

logger = logging.getLogger(__name__)

# Documented range of each tuned parameter.  SweepSpec and the CLI
# check it unless told not to; library functions accept any value.
BOUNDS = {"d": (0.1, 1.0), "r": (5, 14), "n": (1, 20), "k": (2, 20)}
# The fields of a sweep row's key and of its scores.
_KEY = ("d", "r", "n", "k")
_SCORES = ("completeness", "homogeneity", "v_measure")


def out_of_bounds(param: str, values) -> list:
    """The values outside the documented range of ``param`` (d, r, n or k)."""
    lo, hi = BOUNDS[param]
    return [v for v in values if not lo <= v <= hi]


@dataclass
class SweepSpec:
    """Grid definition; the defaults cover the documented bounds exactly."""

    d_values: Sequence[float] = tuple(round(i / 10, 1) for i in range(1, 11))
    r_values: Sequence[int] = tuple(range(5, 15))
    n_values: Sequence[int] = tuple(range(1, 21))
    k_values: Sequence[int] = tuple(range(2, 21))
    seed: int = 0
    budget: int | None = None
    restarts: int = 1
    enforce_bounds: bool = True

    def validate(self) -> None:
        """Check every value's type (a bool is no number, a string no
        sequence), that r, n and k are at least 1 and no axis repeats a
        value (d compared as a float), that the grid and the budget select
        a combination, and the documented ranges unless ``enforce_bounds``
        is off."""
        grid = {"d": self.d_values, "r": self.r_values, "n": self.n_values, "k": self.k_values}
        for param, values in grid.items():
            integer = param != "d"
            if isinstance(values, (str, bytes)) or not isinstance(values, Collection) or not all(
                is_number(v, integer) for v in values
            ):
                kinds = "integers" if integer else "numbers"
                raise ConfigError(f"{param}_values must be a sequence of {kinds}, got {values!r}")
            if len(values) == 0:
                raise EmptySpec(f"{param}_values is empty")
            if integer and min(values) < 1:
                raise ConfigError(f"{param}_values must be integers >= 1, got {min(values)}")
            # 1 == 1.0 and they hash alike, so d is compared as a float.
            repeated = [value for value, count in Counter(values).items() if count > 1]
            if repeated:
                raise ConfigError(f"{param}_values repeats {repeated}")
        if self.budget is not None and not is_number(self.budget, integer=True):
            raise ConfigError(f"budget must be an integer or None, got {self.budget!r}")
        if self.budget is not None and self.budget < 1:
            raise EmptySpec(f"budget must be positive, got {self.budget}")
        if not is_number(self.restarts, integer=True) or self.restarts < 1:
            raise ConfigError(f"restarts must be an integer >= 1, got {self.restarts!r}")
        if not is_number(self.seed, integer=True) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.enforce_bounds:
            for param, values in grid.items():
                bad = out_of_bounds(param, values)
                if bad:
                    lo, hi = BOUNDS[param]
                    raise EmptySpec(
                        f"{param}_values has values outside [{lo}, {hi}]: {bad}; set enforce_bounds=False "
                        f"(CLI: --allow-out-of-bounds, config key allow_out_of_bounds) to allow them"
                    )


@dataclass
class SweepRow:
    """One executed (or skipped) grid combination."""

    d: float
    r: int
    n: int
    k: int
    completeness: float | None = None
    homogeneity: float | None = None
    v_measure: float | None = None
    skip_reason: str | None = None

    @property
    def key(self) -> tuple:
        return (self.d, self.r, self.n, self.k)

    @property
    def ok(self) -> bool:
        return self.skip_reason is None

    def to_json(self) -> str:
        """An executed row without skip_reason; a skipped one with only its key and reason."""
        rec = asdict(self)
        for name in ("skip_reason",) if self.ok else _SCORES:
            del rec[name]
        return json.dumps(rec, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "SweepRow":
        """The row whose ``to_json`` is ``line``.  Any other line raises
        ValueError: one whose fields are not the key's plus either the
        three scores or ``skip_reason``, or whose key holds no number (r,
        n and k no integer), a score no finite number or the skip reason
        no string."""
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError("not a JSON object")
        fields = (*_KEY, "skip_reason") if "skip_reason" in rec else (*_KEY, *_SCORES)
        unknown = sorted(set(rec) - set(fields))
        missing = [name for name in fields if name not in rec]
        if unknown or missing:
            raise ValueError(f"unknown fields {unknown}, missing fields {missing}")
        for name, value in rec.items():
            integer = name in ("r", "n", "k")
            if not (isinstance(value, str) if name == "skip_reason" else is_number(value, integer)):
                raise ValueError(f"{name} is {value!r}")
        return cls(**rec)


def derive_seed(*parts) -> int:
    """Stable sub-seed from arbitrary parameters, independent of call order."""
    blob = "\x1f".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def embed_at(weighted, seed: int, d: float, r: int, n: int):
    """The n-dimensional embedding of the weighted matrix at (d, r),
    seeded from (seed, d, r, n) with d as a float, so that d = 1 and
    d = 1.0 are one point."""
    return _lsa.reduce(weighted, n, seed=derive_seed(seed, "lsa", float(d), r, n))


def cluster_at(vectors, seed: int, d: float, r: int, n: int, k: int, restarts: int):
    """k-means into k clusters of the (d, r, n) embedding's vectors,
    seeded from (seed, d, r, n, k) with d as a float."""
    return _cluster.kmeans(
        vectors, k, seed=derive_seed(seed, "kmeans", float(d), r, n, k), restarts=restarts
    )


def enumerate_grid(spec: SweepSpec) -> list[tuple[float, int, int, int]]:
    """Full Cartesian product in seed-shuffled order, truncated to budget.

    The shuffle is a permutation of the product's indices in (d, r, n, k)
    nested-loop order; only the indices within the budget are decoded,
    so a small budget never builds the whole product.
    """
    spec.validate()
    axes = [tuple(values) for values in (spec.d_values, spec.r_values, spec.n_values, spec.k_values)]
    shape = tuple(len(values) for values in axes)
    order = np.random.default_rng(spec.seed).permutation(math.prod(shape))
    if spec.budget is not None:
        order = order[: spec.budget]
    digits = (index.tolist() for index in np.unravel_index(order, shape))
    d, r, n, k = axes
    return [(float(d[a]), int(r[b]), int(n[c]), int(k[e])) for a, b, c, e in zip(*digits)]


def run_sweep(
    corpus: Corpus,
    spec: SweepSpec,
    checkpoint_path: str | Path | None = None,
) -> list[SweepRow]:
    """Execute every enumerated combination and score it against the labels.

    The combinations run, and come back, sorted by (d, r, n, k), so each
    weighted matrix and embedding is built once and only the current one
    of each is held; the weighted matrices share one tf-idf and one sort
    of the weights of the terms over the lowest D floor that runs.
    Combinations that cannot run become skip rows whose reason is taken
    from the error the library raises for them: ``AllTermsRemoved``
    (all_terms_removed), ``DimsTooLarge`` (n_dims_too_large),
    ``ConvergenceFailure`` (svd_convergence_failure) and ``KTooLarge``
    (k_too_large).  A corpus where every term is a singleton raises
    AllTermsRemoved from the ablation instead, aborting the sweep: that
    is a corpus-level failure, not a skippable combination.  Completed
    rows are appended to ``checkpoint_path`` as they finish and are not
    recomputed on a rerun; each row computed is logged at DEBUG with the
    seconds it took.
    Rows are a pure function of the corpus and the spec, so the
    checkpoint's sidecar ``<checkpoint_path>.fingerprint`` records a
    digest of both (the budget aside), and a checkpoint whose sidecar is
    missing or differs raises ConfigError.
    """
    spec.validate()
    if not corpus.label_set:
        raise NoLabeledDocuments("the sweep needs gold labels to score against")

    done: dict[tuple, SweepRow] = {}
    if checkpoint_path is not None:
        done = _resume(Path(checkpoint_path), _fingerprint(corpus, spec))
    labels = corpus.labels()

    rows: list[SweepRow] = []
    ablated = weighing = weighted = emb = reason = None
    prefix: tuple = ()  # the (d, r, n) that weighted and emb belong to
    out = None
    if checkpoint_path is not None:
        out = Path(checkpoint_path).open("a", encoding="utf-8")
    try:
        for d, r, n, k in sorted(enumerate_grid(spec)):
            if (d, r, n, k) in done:
                rows.append(done[(d, r, n, k)])
                continue
            start = time.perf_counter()
            if weighing is None and ablated is None:
                # On first use, so a fully checkpointed rerun touches
                # nothing.  A corpus of singletons raises AllTermsRemoved
                # here and aborts the sweep.
                ablated = _vec.ablate_singletons(corpus.term_counts)
            if prefix[:2] != (d, r):
                try:
                    if weighing is None:
                        # Rows run in d order, so d is the lowest floor that
                        # runs; its ranking replaces the ablated counts.
                        weighing = _vec.SharedWeighing(_vec.apply_df_threshold(ablated, d))
                        ablated = None
                    weighted = weighing.at(d, r)
                except AllTermsRemoved:
                    weighted = None
            if prefix != (d, r, n):
                emb, reason = _embed(weighted, spec.seed, d, r, n)
                prefix = (d, r, n)

            row = SweepRow(d=d, r=r, n=n, k=k, skip_reason=reason)
            if reason is None:
                try:
                    clus = cluster_at(emb.vectors, spec.seed, d, r, n, k, spec.restarts)
                except KTooLarge:
                    row.skip_reason = "k_too_large"
                else:
                    report = score_clustering(clus.assignments, labels)
                    row.completeness = report.completeness
                    row.homogeneity = report.homogeneity
                    row.v_measure = report.v_measure
            seconds = time.perf_counter() - start
            logger.debug("sweep: row %s %s in %.3f s", row.key, row.skip_reason or "scored", seconds)
            rows.append(row)
            if out is not None:
                out.write(row.to_json() + "\n")
                out.flush()
    finally:
        if out is not None:
            out.close()
    return rows


def _embed(weighted, seed: int, d: float, r: int, n: int):
    """The (d, r, n) embedding and None, or None and the reason every row
    under that prefix is skipped."""
    if weighted is None:
        return None, "all_terms_removed"
    try:
        return embed_at(weighted, seed, d, r, n), None
    except DimsTooLarge:
        return None, "n_dims_too_large"
    except ConvergenceFailure:
        return None, "svd_convergence_failure"


def _fingerprint(corpus: Corpus, spec: SweepSpec) -> str:
    """Digest of everything a sweep row depends on: the corpus contents
    (ids, texts, labels), the d/r/n/k values, the seed and the restarts.

    The budget is left out, because it only chooses how many
    combinations run and a larger one extends a checkpoint;
    ``enforce_bounds`` is left out, because it changes no row.
    """
    digest = hashlib.sha256()
    for doc in corpus:
        digest.update(json.dumps([doc.id, doc.text, doc.label]).encode() + b"\n")
    grid = {
        "d_values": [float(d) for d in spec.d_values],
        "r_values": [int(r) for r in spec.r_values],
        "n_values": [int(n) for n in spec.n_values],
        "k_values": [int(k) for k in spec.k_values],
        "seed": int(spec.seed),
        "restarts": int(spec.restarts),
    }
    digest.update(json.dumps(grid, sort_keys=True).encode())
    return digest.hexdigest()


def _resume(path: Path, expected: str) -> dict[tuple, SweepRow]:
    """Rows already checkpointed at ``path``, keyed by (d, r, n, k).

    A new checkpoint gets a sidecar holding ``expected``; an existing one
    must have a sidecar holding it, or ConfigError is raised before the
    file is touched.  Every row is written as one line ending in a
    newline, so a final line without one was torn by a crash mid-write.
    It is dropped and cut from the file, so the next appended row starts
    on a line of its own.
    """
    sidecar = path.with_name(path.name + ".fingerprint")
    if not path.exists():
        replace_file(sidecar, [(expected + "\n").encode()])
        return {}
    # Compared as bytes, so a sidecar that is not UTF-8 text differs too.
    recorded = sidecar.read_bytes().strip() if sidecar.is_file() else None
    if recorded != expected.encode():
        raise ConfigError(
            f"{path} was checkpointed for another corpus or sweep configuration "
            f"(grid values, seed or restarts; per {sidecar.name}); "
            f"remove it or checkpoint elsewhere"
        )
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with path.open("r+b") as fh:
            fh.truncate(end)
    return {row.key: row for row in read_rows(path)}


def render_report(rows: Iterable[SweepRow], top_n: int = 5) -> str:
    """Markdown table of the top rows ranked by v-measure.

    Ordering: v-measure descending, completeness descending, then
    (d, r, n, k) ascending; metrics printed at 3 decimals.
    """
    check_positive_int(top_n, "top_n")
    ok = [row for row in rows if row.ok]
    if not ok:
        raise EmptySpec("no successful rows to report")
    ok.sort(key=lambda w: (-w.v_measure, -w.completeness, w.d, w.r, w.n, w.k))
    lines = [
        "| D | R | N | K | Completeness | Homogeneity | V-Measure |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in ok[:top_n]:
        lines.append(
            f"| {row.d:.1f} | {row.r} | {row.n} | {row.k} "
            f"| {row.completeness:.3f} | {row.homogeneity:.3f} | {row.v_measure:.3f} |"
        )
    return "\n".join(lines) + "\n"


def v_curve(
    corpus: Corpus,
    k_values: Sequence[int] = SweepSpec.k_values,
    d: float = BASELINE_PRESET["d"],
    r: int = BASELINE_PRESET["r"],
    n_dims: int = BASELINE_PRESET["n_dims"],
    seed: int = 0,
    restarts: int = 1,
) -> list[tuple[int, float]]:
    """V-measure as a function of K at fixed (d, r, n_dims).

    A one-(d, r, n) sweep, so the parameters are checked against the
    documented bounds and the curve holds only the K that ran.
    """
    spec = SweepSpec(
        d_values=(d,),
        r_values=(r,),
        n_values=(n_dims,),
        k_values=tuple(k_values),
        seed=seed,
        restarts=restarts,
    )
    return [(row.k, row.v_measure) for row in run_sweep(corpus, spec) if row.ok]


def v_curve_lines(curve: Sequence[tuple[int, float]]) -> Iterator[bytes]:
    yield b"k\tv_measure\n"
    for k, v in curve:
        yield f"{k}\t{v:.6f}\n".encode()


def read_rows(path: str | Path) -> list[SweepRow]:
    """Rows of a JSONL file; a line that is not a row raises ParseError."""
    rows = []
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rows.append(SweepRow.from_json(line.decode("utf-8")))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: not a sweep row ({exc})") from exc
    return rows
