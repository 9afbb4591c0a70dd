"""Tests of the benchmark's own parts: generators, span arithmetic, checks.

Run from the repository root with ``PYTHONPATH=src python -m pytest benchmarks``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import litclust
from litclust import cli, corpus, vectorize

import checks
import corpusgen
import spans
from spans import Span

SMALL = corpusgen.CorpusShape(n_docs=60, n_topics=4, shared_tokens=30, n_entities=12)


def _write(seed, directory):
    dictionary = corpusgen.make_dictionary(seed, SMALL)
    records = corpusgen.make_corpus(seed, SMALL, dictionary)
    inputs = corpusgen.write_inputs(directory, records, dictionary, xml=True)
    return {p.name: p.read_bytes() for p in (inputs.jsonl, inputs.xml, inputs.dictionary)}


# -- generators -------------------------------------------------------------


def test_generators_are_deterministic_for_a_seed(tmp_path):
    assert _write(3, tmp_path / "a") == _write(3, tmp_path / "b")


def test_generators_differ_across_seeds(tmp_path):
    first, second = _write(3, tmp_path / "a"), _write(4, tmp_path / "b")
    assert all(first[name] != second[name] for name in first)


def test_xml_and_jsonl_hold_the_same_corpus(tmp_path):
    _write(5, tmp_path)
    from_jsonl = litclust.load_corpus(tmp_path / "corpus.jsonl")
    from_xml = litclust.load_corpus(tmp_path / "corpus.xml", format="pubmed_xml")
    assert from_xml == from_jsonl
    assert from_xml.labels() == from_jsonl.labels()
    assert len(from_jsonl.label_set) == SMALL.n_topics


@pytest.mark.parametrize("mode", ["gene", "molecular"])
def test_dictionary_matches_in_both_probe_modes(tmp_path, mode):
    _write(6, tmp_path)
    docs = litclust.load_corpus(tmp_path / "corpus.jsonl")
    dictionary = litclust.load_dictionary(tmp_path / "dictionary.json")
    assignments = [i % 3 for i in range(len(docs))]
    counts = litclust.count_occurrences(docs, assignments, dictionary, mode=mode)
    assert counts.per_cluster.sum() > 0


# -- spans --------------------------------------------------------------------


def _tree():
    # root [0, 10] has children a [1, 4] and b [5, 7]; a has child c [2, 3].
    return [
        Span("sweep.run", 0.0, 10.0, None, 0),
        Span("vectorize.tfidf", 1.0, 4.0, 0, 0),
        Span("lsa.reduce", 2.0, 3.0, 1, 0),
        Span("lsa.reduce", 5.0, 7.0, 0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_tree()) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    tree = [Span("cli.embed", 0.0, 10.0, None, 0), Span("x", 1.0, 5.0, 0, 0), Span("y", 4.0, 6.0, 0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_layer_metrics_average_per_repetition():
    tree = _tree() + [Span(s.name, s.start + 20, s.end + 20, None if s.parent is None else s.parent + 4, 1) for s in _tree()]
    counts = {0: {"sweep.rows": 6, "sweep.rows_embedded": 4}, 1: {"sweep.rows": 6, "sweep.rows_embedded": 4}}
    out = spans.layer_metrics(tree, counts, [0, 1])
    assert out["sweep.run_s"] == pytest.approx(10.0)
    assert out["sweep.self_s"] == pytest.approx(5.0)
    assert out["lsa.reduce_s"] == pytest.approx(3.0)
    assert out["lsa.reduce_calls"] == 2
    assert out["sweep.embed_reuse"] == pytest.approx(2.0)
    assert out["sweep.weight_reuse"] == pytest.approx(6.0)
    assert out["cli.self_s"] == 0.0


def test_tracer_wraps_the_names_callers_look_up_and_restores_them():
    originals = (corpus.tokenize, vectorize.count_matrix, cli._COMMANDS["ingest"])
    docs = litclust.Corpus([litclust.Document("a", "alpha beta"), litclust.Document("b", "beta gamma")])
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.rep = 7
        vectorize.count_matrix(docs)
        assert cli._COMMANDS["ingest"] is not originals[2]
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["vectorize.count", "corpus.tokenize", "corpus.tokenize"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.counts[7]["corpus.tokens"] == 4
    assert tracer.shapes["vectorize.count"] == {"terms": 3, "docs": 2, "nnz": 4}
    assert (corpus.tokenize, vectorize.count_matrix, cli._COMMANDS["ingest"]) == originals
    assert vectorize.tokenize is corpus.tokenize


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_ref_s", "setup_s", "peak_rss_mb", "v_measure"}
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- output checks --------------------------------------------------------------


def _scored(seed=0, n=200):
    rng = np.random.default_rng(seed)
    assignments = rng.integers(0, 5, size=n)
    labels = [f"c{i}" if i < 4 else None for i in rng.integers(0, 5, size=n)]
    report = litclust.score_clustering(assignments, labels)
    return (report.homogeneity, report.completeness, report.v_measure), assignments, labels


@pytest.mark.parametrize("seed", range(5))
def test_oracle_accepts_the_package_scores(seed):
    scores, assignments, labels = _scored(seed)
    assert checks.v_measure_oracle(assignments, labels) == pytest.approx(scores, abs=1e-12)
    assert checks.check_against_oracle(scores, assignments, labels) == []


def test_oracle_rejects_a_corrupted_v_measure():
    (h, c, v), assignments, labels = _scored()
    assert checks.check_against_oracle((h, c, v + 1e-6), assignments, labels)


def test_scores_outside_the_unit_interval_are_rejected():
    assert checks.check_scores(1.2, 0.5, 2 * 1.2 * 0.5 / 1.7)
    assert checks.check_scores(0.5, 0.5, 0.6)
    assert checks.check_scores(0.5, 0.5, 0.5) == []


def test_zero_sum_check_rejects_unbalanced_weights():
    balanced = [("e1", 1.5), ("e1", -1.5), ("e2", 0.25), ("e2", -0.25)]
    assert checks.check_zero_sum(balanced, {"e1": 3, "e2": 1}) == []
    corrupted = balanced[:-1] + [("e2", -0.2)]
    failures = checks.check_zero_sum(corrupted, {"e1": 3, "e2": 1})
    assert len(failures) == 1 and "'e2'" in failures[0]


def test_identical_check_rejects_changed_or_missing_outputs():
    reference = {"network": "aa", "rows": "bb"}
    assert checks.check_identical(reference, dict(reference)) == []
    assert checks.check_identical(reference, {"network": "ab", "rows": "bb"}) == ["network differs from the first repetition"]
    assert checks.check_identical(reference, {"network": "aa"}) == ["rows differs from the first repetition"]


def test_exit_code_check_rejects_nonzero_exits():
    assert checks.check_exit_codes({"ingest": 0, "embed": 0}) == []
    assert checks.check_exit_codes({"ingest": 0, "embed": 4}) == ["`litclust embed` exited with 4"]


def test_sweep_verify_recomputes_every_row(tmp_path):
    from workloads import Context, _verify_sweep

    dictionary = corpusgen.make_dictionary(2, SMALL)
    records = corpusgen.make_corpus(2, SMALL, dictionary)
    inputs = corpusgen.write_inputs(tmp_path, records, dictionary)
    ctx = Context(inputs=inputs, records=records, workdir=tmp_path)
    spec = litclust.SweepSpec(d_values=[0.5], r_values=[5], n_values=[2, 4], k_values=[2, 3, 4], seed=0)
    rows = litclust.run_sweep(litclust.load_corpus(inputs.jsonl), spec)
    assert _verify_sweep(ctx, rows, spec) == []

    # A row that carries another row's scores, as a wrong cache key would.
    other = next(r for r in rows if r.v_measure != rows[0].v_measure)
    swapped = replace(rows[0], homogeneity=other.homogeneity, completeness=other.completeness, v_measure=other.v_measure)
    failures = _verify_sweep(ctx, [swapped] + rows[1:], spec)
    assert failures and all(f.startswith(f"row {rows[0].key}") for f in failures)
    skipped = replace(rows[1], skip_reason="k_too_large")
    assert _verify_sweep(ctx, [skipped], spec) == [
        f"row {rows[1].key} has skip reason 'k_too_large', a pipeline run gives None"
    ]


def test_skip_check_allows_only_the_designed_reasons():
    assert checks.check_skips([None, "n_dims_too_large", "all_terms_removed", "k_too_large"]) == []
    assert checks.check_skips([None, "svd_convergence_failure"]) == ["sweep row skipped for 'svd_convergence_failure'"]
    assert checks.check_skips(["bogus"])
