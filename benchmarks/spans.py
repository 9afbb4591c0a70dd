"""Span tracing of litclust from outside the package.

``Tracer.install`` wraps the public functions of each layer at every
``litclust`` module attribute that refers to them, which is the name
each caller looks up at call time (``litclust.sweep.score_clustering``,
``litclust.vectorize.tokenize``, the CLI's dispatch table, ...).  Each
call records a span (name, start, end, parent, repetition) in memory,
and a hook may add counts taken from the call's result.  ``uninstall``
puts the original functions back, so untraced repetitions run the
package exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

Hook = Callable[["Tracer", object], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rep: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count(name: str, value: Callable[[object], float]) -> Hook:
    return lambda tracer, result: tracer.add(name, value(result))


def _matrix(span_name: str, count_name: str | None = None, value: Callable[[object], float] | None = None) -> Hook:
    """Record the first result's shape and nnz, and optionally count."""

    def hook(tracer: "Tracer", result) -> None:
        mat = result.counts if hasattr(result, "counts") else result.weights
        tracer.shapes.setdefault(span_name, {"terms": mat.shape[0], "docs": mat.shape[1], "nnz": int(mat.nnz)})
        if count_name is not None:
            tracer.add(count_name, value(result))

    return hook


def _sweep_rows(tracer: "Tracer", rows) -> None:
    tracer.add("sweep.rows", len(rows))
    tracer.add("sweep.rows_skipped", sum(1 for r in rows if r.skip_reason is not None))
    # Rows that got as far as asking for an embedding.
    tracer.add(
        "sweep.rows_embedded",
        sum(1 for r in rows if r.skip_reason in (None, "svd_convergence_failure", "k_too_large")),
    )


# (module, attribute, span name, result hook).  ``ncbi`` needs the
# network and ``base``/``errors`` do no work of their own, so they are
# not traced.
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("litclust.corpus", "load_corpus", "corpus.load", _count("corpus.docs", len)),
    ("litclust.corpus", "tokenize", "corpus.tokenize", _count("corpus.tokens", lambda r: len(r.tokens))),
    ("litclust.vectorize", "count_matrix", "vectorize.count",
     _matrix("vectorize.count", "vectorize.terms_counted", lambda r: len(r.terms))),
    ("litclust.vectorize", "ablate_singletons", "vectorize.ablate", _matrix("vectorize.ablate")),
    ("litclust.vectorize", "apply_df_threshold", "vectorize.df_floor",
     _matrix("vectorize.df_floor", "vectorize.terms_kept", lambda r: len(r.terms))),
    ("litclust.vectorize", "tfidf", "vectorize.tfidf", _matrix("vectorize.tfidf")),
    ("litclust.vectorize", "apply_rank_cutoff", "vectorize.rank_cutoff", _matrix("vectorize.rank_cutoff")),
    ("litclust.vectorize", "l2_normalize", "vectorize.l2",
     _matrix("vectorize.l2", "vectorize.nnz_weighted", lambda r: r.weights.nnz)),
    ("litclust.lsa", "reduce", "lsa.reduce", None),
    ("litclust.cluster", "kmeans", "cluster.kmeans", lambda t, r: (
        t.add("cluster.lloyd_iters", r.iterations),
        t.add("cluster.empty_clusters", len(r.empty_clusters)),
    )),
    ("litclust.evaluate", "score_clustering", "evaluate.score", None),
    ("litclust.sweep", "run_sweep", "sweep.run", _sweep_rows),
    ("litclust.probe", "count_occurrences", "probe.count",
     _count("probe.matches", lambda r: int(r.per_cluster.sum()))),
    ("litclust.probe", "relative_weights", "probe.weights", None),
    ("litclust.probe", "build_network", "probe.network", None),
    ("litclust.probe", "export_network", "probe.export", None),
) + tuple(
    ("litclust.cli", f"cmd_{cmd}", f"cli.{cmd}", None)
    for cmd in ("ingest", "vectorize", "embed", "cluster", "evaluate", "probe", "export")
)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.shapes: dict[str, dict[str, int]] = {}
        self.rep = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[self.rep][name] += value

    def wrap(self, name: str, fn, hook: Hook | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.rep)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each target held by a litclust module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "litclust" or n.startswith("litclust.")]
        for module_name, attr, span_name, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(span_name, original, hook)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patch(module, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                self._patch(value, k, wrapped)

    def _patch(self, owner, key, wrapped) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = wrapped
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda s: s.start):
            lo, hi = max(child.start, reach, span.start), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _is_under(spans: list[Span], index: int, prefix: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


LAYERS = ("corpus", "vectorize", "lsa", "cluster", "evaluate", "sweep", "probe", "cli")
SPANS = tuple(name for _, _, name, _ in TARGETS)
# Spans whose call count is a metric (``<span>_calls``).
CALLED = ("corpus.tokenize", "vectorize.count", "vectorize.tfidf", "lsa.reduce",
          "cluster.kmeans", "evaluate.score", "probe.count")
# Counts added by hooks or by a workload's check: (name, unit, better).
COUNTED = (
    ("corpus.docs", "count", "lower"),
    ("corpus.tokens", "count", "lower"),
    ("vectorize.terms_counted", "count", "lower"),
    ("vectorize.terms_kept", "count", "lower"),
    ("vectorize.nnz_weighted", "count", "lower"),
    ("cluster.lloyd_iters", "count", "lower"),
    ("cluster.empty_clusters", "count", "lower"),
    ("sweep.rows", "count", "higher"),
    ("sweep.rows_skipped", "count", "lower"),
    ("probe.matches", "count", "higher"),
    ("cli.artifact_bytes", "bytes", "lower"),
)
DERIVED = (
    ("sweep.self_s", "s", "lower"),
    ("sweep.embed_reuse", "ratio", "higher"),
    ("sweep.weight_reuse", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
)
# Every per-layer metric, grouped by layer: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    sorted(
        [(f"{span}_s", "s", "lower") for span in SPANS]
        + [(f"{span}_calls", "count", "lower") for span in CALLED]
        + list(COUNTED)
        + list(DERIVED),
        key=lambda metric: LAYERS.index(metric[0].split(".")[0]),
    )
) + (("trace.overhead", "ratio", "lower"),)


def layer_metrics(spans: list[Span], counts: dict[int, Counter], reps: list[int]) -> dict[str, float]:
    """Per-layer metrics per repetition, averaged over ``reps``.

    Times are summed span durations, ``*_calls`` are span counts, and
    ``*.self_s`` is a layer's span time minus its child spans.  Ratios
    with a zero base are reported as 0.
    """
    wanted = set(reps)
    picked = [i for i, s in enumerate(spans) if s.rep in wanted]
    selfs = self_times(spans)
    total: Counter = Counter()
    for i in picked:
        span = spans[i]
        total[span.name + ":s"] += span.duration
        total[span.name + ":n"] += 1
        layer = span.name.split(".")[0]
        total[layer + ".self_s"] += selfs[i]
        if span.name in ("lsa.reduce", "vectorize.tfidf") and _is_under(spans, i, "sweep."):
            total["sweep:" + span.name] += 1
    for rep in reps:
        total.update(counts.get(rep, Counter()))

    per_rep = {key: value / len(reps) for key, value in total.items()}
    out = {f"{span}_s": per_rep.get(span + ":s", 0.0) for span in SPANS}
    out.update({f"{span}_calls": per_rep.get(span + ":n", 0.0) for span in CALLED})
    out.update({name: per_rep.get(name, 0.0) for name, _, _ in COUNTED})
    out["sweep.self_s"] = per_rep.get("sweep.self_s", 0.0)
    out["cli.self_s"] = per_rep.get("cli.self_s", 0.0)
    reduce_calls = per_rep.get("sweep:lsa.reduce", 0.0)
    tfidf_calls = per_rep.get("sweep:vectorize.tfidf", 0.0)
    out["sweep.embed_reuse"] = per_rep.get("sweep.rows_embedded", 0.0) / reduce_calls if reduce_calls else 0.0
    out["sweep.weight_reuse"] = per_rep.get("sweep.rows", 0.0) / tfidf_calls if tfidf_calls else 0.0
    return out

