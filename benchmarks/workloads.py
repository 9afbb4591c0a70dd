"""The four benchmark workloads.

Each workload has a generated input shape, a ``run`` that is the timed
repetition (inputs on disk to complete result), and a ``check`` that
runs untimed afterwards: it verifies the result, counts the operations
attempted and failed, takes the headline v-measure and digests every
output that must be byte-identical across repetitions.  A workload may
add a ``verify`` that is too slow for every repetition; it runs on the
first one only, whose outputs all later repetitions must reproduce.
README.md in this directory says why each workload exists and which
layer it loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import litclust
from litclust import cli, cluster, lsa, sweep, vectorize
from litclust.errors import AllTermsRemoved, ConvergenceFailure

import checks
from corpusgen import CorpusShape, Inputs

# Program configuration shared by every workload; only the corpus
# changes with the benchmark seed.
CONFIG_SEED = 0
BASELINE = {"d": 0.5, "r": 5, "n_dims": 15, "k": 4}


@dataclass
class Context:
    inputs: Inputs
    records: list[dict]
    workdir: Path


@dataclass
class Outcome:
    operations: int
    failures: list[str]
    v_measure: float
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    run: Callable[[Context], object]
    check: Callable[[Context, object], Outcome]
    operations: int
    params: dict
    xml: bool = False
    # Untimed, before every repetition.
    prepare: Callable[[Context], None] = lambda ctx: None
    # Untimed, after the first repetition only: more failure messages.
    verify: Callable[[Context, object], list[str]] = lambda ctx, result: []


def _labels(records: list[dict]) -> list[str]:
    """Gold labels in corpus order (the corpus sorts documents by id)."""
    return [r["label"] for r in sorted(records, key=lambda r: r["id"])]


# -- pipeline: the library path of the README ------------------------------

PIPELINE = {**BASELINE, "restarts": 4, "probe_mode": "gene", "network_format": "graphml"}


def run_pipeline(ctx: Context):
    corpus = litclust.load_corpus(ctx.inputs.jsonl)
    weighted = litclust.CorpusVectorizer(d_percent=PIPELINE["d"], rank_cutoff=PIPELINE["r"]).fit_transform(corpus)
    embedding = litclust.TruncatedLsa(n_dims=PIPELINE["n_dims"], seed=CONFIG_SEED).fit_transform(weighted)
    model = litclust.KMeans(k=PIPELINE["k"], seed=CONFIG_SEED, restarts=PIPELINE["restarts"]).fit(embedding.vectors)
    scores = litclust.score_clustering(model.labels_, corpus.labels())
    dictionary = litclust.load_dictionary(ctx.inputs.dictionary)
    counts = litclust.count_occurrences(corpus, model.labels_, dictionary, mode=PIPELINE["probe_mode"])
    report = litclust.relative_weights(counts)
    network = litclust.build_network(report)
    exported = litclust.export_network(network, format=PIPELINE["network_format"])
    (ctx.workdir / "network.graphml").write_bytes(exported)
    return model.labels_, scores, report, exported


def check_pipeline(ctx: Context, result) -> Outcome:
    assignments, scores, report, exported = result
    scored = (scores.homogeneity, scores.completeness, scores.v_measure)
    failures = checks.check_against_oracle(scored, assignments, _labels(ctx.records))
    weights = [(e, w) for ranking in report.clusters for e, _, w in ranking.entries]
    failures += checks.check_zero_sum(weights, report.entity_globals)
    if not report.entity_globals:
        failures.append("gene-mode probe matched no entity")
    return Outcome(
        operations=1,
        failures=failures,
        v_measure=scores.v_measure,
        digests={"assignments": checks.digest(bytes(assignments.astype("<i8").data)), "network": checks.digest(exported)},
    )


# -- sweeps ----------------------------------------------------------------

SWEEP_GRID = {"budget": 20, "seed": CONFIG_SEED, "restarts": 1}
SWEEP_K = {
    "d_values": [0.5],
    "r_values": [5],
    "n_values": [4, 8],
    "k_values": list(range(2, 21)),
    "seed": CONFIG_SEED,
    "restarts": 4,
}


def _row_record(row) -> str:
    rec = json.loads(row.to_json())
    rec.pop("runtime_ms", None)
    return json.dumps(rec, sort_keys=True)


def _check_sweep(rows, report: str, checkpoint: Path | None) -> Outcome:
    failures = checks.check_skips(r.skip_reason for r in rows)
    ok = [r for r in rows if r.ok]
    for row in ok:
        failures += checks.check_scores(row.homogeneity, row.completeness, row.v_measure)
    # The report ranks by v descending, then completeness descending,
    # then (d, r, n, k) ascending.
    top = min(ok, key=lambda w: (-w.v_measure, -w.completeness, w.d, w.r, w.n, w.k))
    first = report.splitlines()[2]
    expected = (
        f"| {top.d:.1f} | {top.r} | {top.n} | {top.k} "
        f"| {top.completeness:.3f} | {top.homogeneity:.3f} | {top.v_measure:.3f} |"
    )
    if first != expected:
        failures.append(f"report top row {first!r}, expected {expected!r}")
    records = "\n".join(_row_record(r) for r in rows)
    digests = {"rows": checks.digest(records), "report": checks.digest(report)}
    if checkpoint is not None:
        saved = [_row_record(sweep.SweepRow.from_json(line)) for line in checkpoint.read_text().splitlines()]
        if "\n".join(saved) != records:
            failures.append("checkpoint rows differ from the returned rows")
    return Outcome(operations=len(rows), failures=failures, v_measure=top.v_measure, digests=digests)


def _expected_row(corpus, spec, key, weighted: dict, embedded: dict):
    """The skip reason or the assignments of one pipeline run at ``key``.

    Matrices and embeddings are memoized in the caller's dicts, not in
    the sweep's caches; the sub-seeds are the ones the sweep documents.
    """
    d, r, n, k = key
    if (d, r) not in weighted:
        try:
            weighted[d, r] = vectorize.build_weighted_matrix(corpus, d_percent=d, rank_cutoff=r)
        except AllTermsRemoved:
            weighted[d, r] = None
    matrix = weighted[d, r]
    if matrix is None:
        return "all_terms_removed"
    if n > min(matrix.shape):
        return "n_dims_too_large"
    if (d, r, n) not in embedded:
        try:
            embedded[d, r, n] = lsa.reduce(matrix, n, seed=sweep.derive_seed(spec.seed, "lsa", d, r, n))
        except ConvergenceFailure:
            embedded[d, r, n] = None
    if embedded[d, r, n] is None:
        return "svd_convergence_failure"
    if k > matrix.shape[1]:
        return "k_too_large"
    seed = sweep.derive_seed(spec.seed, "kmeans", d, r, n, k)
    return cluster.kmeans(embedded[d, r, n].vectors, k, seed=seed, restarts=spec.restarts).assignments


def _verify_sweep(ctx: Context, rows, spec) -> list[str]:
    """Every row equals a pipeline run at its (d, r, n, k), scored by the oracle."""
    corpus = litclust.load_corpus(ctx.inputs.jsonl)
    labels = corpus.labels()
    weighted: dict = {}
    embedded: dict = {}
    failures = []
    for row in rows:
        expected = _expected_row(corpus, spec, row.key, weighted, embedded)
        reason = expected if isinstance(expected, str) else None
        if row.skip_reason != reason:
            failures.append(f"row {row.key} has skip reason {row.skip_reason!r}, a pipeline run gives {reason!r}")
        elif reason is None:
            scores = (row.homogeneity, row.completeness, row.v_measure)
            failures += [f"row {row.key}: {e}" for e in checks.check_against_oracle(scores, expected, labels)]
    return failures


def run_sweep_grid(ctx: Context):
    checkpoint = ctx.workdir / "rows.jsonl"
    checkpoint.unlink(missing_ok=True)
    corpus = litclust.load_corpus(ctx.inputs.jsonl)
    rows = litclust.run_sweep(corpus, litclust.SweepSpec(**SWEEP_GRID), checkpoint_path=checkpoint)
    return rows, litclust.render_report(rows, top_n=5)


def check_sweep_grid(ctx: Context, result) -> Outcome:
    rows, report = result
    return _check_sweep(rows, report, ctx.workdir / "rows.jsonl")


def run_sweep_k(ctx: Context):
    corpus = litclust.load_corpus(ctx.inputs.jsonl)
    rows = litclust.run_sweep(corpus, litclust.SweepSpec(**SWEEP_K))
    return rows, litclust.render_report(rows, top_n=5)


def check_sweep_k(ctx: Context, result) -> Outcome:
    rows, report = result
    return _check_sweep(rows, report, None)


# -- cli_chain: every stage through the command line ---------------------

CLI = {**BASELINE, "seed": CONFIG_SEED, "restarts": 4, "probe_mode": "molecular", "network_format": "graphml"}
CLI_STEPS = ("ingest", "vectorize", "embed", "cluster", "evaluate", "probe", "export")


def _cli_paths(ctx: Context) -> tuple[Path, Path]:
    return ctx.workdir / "out", ctx.workdir / "config.json"


def prepare_cli(ctx: Context) -> None:
    out, config = _cli_paths(ctx)
    shutil.rmtree(out, ignore_errors=True)
    config.write_text(
        json.dumps(
            {**CLI, "corpus": str(out / "corpus.jsonl"), "out": str(out), "dictionary": str(ctx.inputs.dictionary)},
            sort_keys=True,
        ),
        encoding="utf-8",
    )


def run_cli_chain(ctx: Context):
    out, config = _cli_paths(ctx)
    argv = {
        "ingest": ["ingest", "--corpus", str(ctx.inputs.xml), "--corpus-format", "pubmed_xml", "--out", str(out)],
        "export": ["export", "--config", str(config), "--format", "dot"],
    }
    codes = {}
    for step in CLI_STEPS:
        with contextlib.redirect_stdout(io.StringIO()):
            codes[step] = cli.main(argv.get(step, [step, "--config", str(config)]) + ["--json"])
    return codes


def check_cli_chain(ctx: Context, codes) -> Outcome:
    out, _ = _cli_paths(ctx)
    failures = checks.check_exit_codes(codes)
    if failures:
        return Outcome(operations=len(CLI_STEPS), failures=failures, v_measure=0.0)
    scores = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    by_id = dict(line.split("\t") for line in (out / "assignments.tsv").read_text(encoding="utf-8").splitlines())
    ordered = sorted(ctx.records, key=lambda r: r["id"])
    failures += checks.check_against_oracle(
        (scores["homogeneity"], scores["completeness"], scores["v_measure"]),
        [int(by_id[r["id"]]) for r in ordered],
        [r["label"] for r in ordered],
    )
    probe = json.loads((out / "probe_report.json").read_text(encoding="utf-8"))
    weights = [(rec["entity"], rec["relative_weight"]) for entries in probe["clusters"].values() for rec in entries]
    failures += checks.check_zero_sum(weights, probe["entity_globals"])
    if not probe["entity_globals"]:
        failures.append("molecular-mode probe matched no entity")
    digests = {
        name: checks.digest((out / name).read_bytes())
        for name in ("manifest.json", "assignments.tsv", "metrics.json", "probe_report.json", "network.graphml", "network.dot")
    }
    return Outcome(
        operations=len(CLI_STEPS),
        failures=failures,
        v_measure=scores["v_measure"],
        digests=digests,
        counts={"cli.artifact_bytes": sum(p.stat().st_size for p in out.iterdir())},
    )


WORKLOADS = {
    "pipeline": Workload(
        name="pipeline",
        shape=CorpusShape(n_docs=1500, n_topics=4, shared_tokens=420),
        run=run_pipeline,
        check=check_pipeline,
        operations=1,
        params=PIPELINE,
    ),
    "sweep_grid": Workload(
        name="sweep_grid",
        shape=CorpusShape(n_docs=400, n_topics=8),
        run=run_sweep_grid,
        check=check_sweep_grid,
        operations=SWEEP_GRID["budget"],
        params=SWEEP_GRID,
        verify=lambda ctx, result: _verify_sweep(ctx, result[0], litclust.SweepSpec(**SWEEP_GRID)),
    ),
    "sweep_k": Workload(
        name="sweep_k",
        shape=CorpusShape(n_docs=1000, n_topics=8),
        run=run_sweep_k,
        check=check_sweep_k,
        operations=len(SWEEP_K["n_values"]) * len(SWEEP_K["k_values"]),
        params=SWEEP_K,
        verify=lambda ctx, result: _verify_sweep(ctx, result[0], litclust.SweepSpec(**SWEEP_K)),
    ),
    "cli_chain": Workload(
        name="cli_chain",
        shape=CorpusShape(n_docs=900, n_topics=4),
        run=run_cli_chain,
        check=check_cli_chain,
        operations=len(CLI_STEPS),
        params=CLI,
        xml=True,
        prepare=prepare_cli,
    ),
}
