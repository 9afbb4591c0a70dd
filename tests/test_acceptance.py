"""Acceptance suite.

Each test enforces one numbered criterion at its stated tolerance and
prints a matching pass/fail line (run with ``pytest -s`` to see them
inline).  Headline corpus-scale numbers are not reproducible without
the original corpora, so the criteria are property checks and
scaled-down surrogates with planted structure.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from litclust.cli import main as cli_main
from litclust.cluster import kmeans
from litclust.corpus import Corpus, Document, save_jsonl
from litclust.evaluate import metrics, score_clustering
from litclust.lsa import reduce as lsa_reduce
from litclust.lsa import truncated_svd
from litclust.probe import (
    ProbeCounts,
    build_network,
    count_occurrences,
    load_dictionary,
    relative_weights,
)
from litclust.sweep import (
    SweepRow,
    SweepSpec,
    derive_seed,
    enumerate_grid,
    render_report,
    run_sweep,
    v_curve,
)
from litclust.vectorize import (
    ablate_singletons,
    build_weighted_matrix,
    count_matrix,
    tfidf,
)

from helpers import make_planted_corpus, make_zipf_corpus, oracle_metrics, random_contingency
from test_evaluate import table_from

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            cells = random_contingency(rng, max_classes=6, max_clusters=6)
            rep = metrics(table_from(cells))
            h, c, v = oracle_metrics(cells)
            assert abs(rep.homogeneity - h) <= 1e-9
            assert abs(rep.completeness - c) <= 1e-9
            assert abs(rep.v_measure - v) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"


def test_criterion_2_degenerate_solution_penalized():
    with criterion(2, "degenerate solution penalized"):
        corpus = make_planted_corpus(
            n_topics=4, docs_per_topic=20, vocab_per_topic=30, tokens_per_doc=25
        )
        weighted = build_weighted_matrix(corpus)
        emb = lsa_reduce(weighted, 15, seed=0)
        n_docs = len(corpus)
        clustering = kmeans(emb.vectors, k=n_docs, seed=0)
        assert clustering.dissimilarity == pytest.approx(0.0, abs=1e-9)
        rep = score_clustering(clustering.assignments, corpus.labels())
        assert rep.homogeneity == pytest.approx(1.0, abs=1e-12)
        assert rep.completeness < 1.0
        assert rep.v_measure < 1.0


def test_criterion_3_planted_cluster_recovery():
    with criterion(3, "planted cluster recovery"):
        start = time.perf_counter()
        corpus = make_planted_corpus(
            n_topics=4, docs_per_topic=100, vocab_per_topic=50, tokens_per_doc=40
        )
        weighted = build_weighted_matrix(corpus, d_percent=0.5, rank_cutoff=5)
        labels = corpus.labels()
        peaks = []
        for seed in range(5):
            emb = lsa_reduce(weighted, 15, seed=derive_seed(seed, "lsa", 0.5, 5, 15))
            clustering = kmeans(
                emb.vectors, 4,
                seed=derive_seed(seed, "kmeans", 0.5, 5, 15, 4),
                restarts=4,
            )
            rep = score_clustering(clustering.assignments, labels)
            assert rep.v_measure >= 0.95, f"seed {seed}: v={rep.v_measure:.4f}"
            curve = v_curve(corpus, k_values=range(2, 21), seed=seed, restarts=4)
            peaks.append(max(curve, key=lambda kv: kv[1])[0])
        assert sum(1 for p in peaks if p == 4) >= 4, f"curve peaks: {peaks}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget is 60s"


def test_criterion_4_svd_correctness():
    with criterion(4, "svd correctness"):
        rng = np.random.default_rng(104)
        for trial in range(5):
            dense = rng.random((50, 40)) * (rng.random((50, 40)) < 0.4)
            _, s, _ = truncated_svd(dense, 10, seed=trial)
            eigvals = np.linalg.eigvalsh(dense.T @ dense)[::-1][:10]
            expected = np.sqrt(np.maximum(eigvals, 0.0))
            assert np.max(np.abs(s - expected) / expected) <= 1e-6
        # Same tolerance through the block Krylov path (min(shape) > 64).
        big = rng.random((150, 120)) * (rng.random((150, 120)) < 0.3)
        _, s_big, _ = truncated_svd(big, 10, seed=0)
        ref = np.linalg.svd(big, compute_uv=False)[:10]
        assert np.max(np.abs(s_big - ref) / ref) <= 1e-6

        for shape in ((60, 50), (100, 80)):
            dense = rng.random(shape) * (rng.random(shape) < 0.5)
            errors = []
            for n_dims in range(1, 21):
                u, s, vt = truncated_svd(dense, n_dims, seed=1)
                errors.append(np.linalg.norm(dense - u @ np.diag(s) @ vt))
            assert np.all(np.diff(errors) <= 1e-9), f"shape {shape}: {errors}"


def test_criterion_5_kmeans_contract():
    with criterion(5, "k-means contract"):
        rng = np.random.default_rng(105)
        for trial in range(8):
            n = int(rng.integers(40, 150))
            d = int(rng.integers(2, 12))
            k = int(rng.integers(2, 9))
            x = rng.normal(size=(n, d))
            result = kmeans(x, k, seed=trial, restarts=2)
            trace = np.array(result.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9 * (1 + trace[0]))
            for c in range(k):
                members = x[result.assignments == c]
                if len(members):
                    assert np.allclose(
                        result.centroids[c], members.mean(axis=0), atol=1e-9
                    )
            assert result.dissimilarity == pytest.approx(
                float(result.variabilities.sum()), abs=1e-9
            )
        # Permutation invariance up to relabeling.
        x = rng.normal(size=(90, 5))
        perm = rng.permutation(90)
        a = kmeans(x, 5, seed=3, restarts=2)
        b = kmeans(x[perm], 5, seed=3, restarts=2)

        def parts(labels, index):
            groups = {}
            for i, lab in zip(index, labels):
                groups.setdefault(int(lab), set()).add(int(i))
            return {frozenset(g) for g in groups.values()}

        assert parts(a.assignments, range(90)) == parts(b.assignments, perm)


def test_criterion_6_tfidf_contract():
    with criterion(6, "tf-idf contract"):
        # Weight is exactly zero whenever a term is in every document.
        corpus = Corpus(
            [
                Document(id="d1", text="ubiq alpha alpha"),
                Document(id="d2", text="ubiq beta"),
                Document(id="d3", text="ubiq alpha gamma"),
            ]
        )
        m = count_matrix(corpus)
        w = tfidf(m)
        ubiq = w.terms.index("ubiq")
        assert w.weights.toarray()[ubiq].sum() == 0.0

        # Hand oracle on a 5-document corpus, 1e-12.
        texts = [
            "apple apple banana",
            "apple cherry",
            "banana banana banana cherry",
            "cherry dates",
            "apple dates dates",
        ]
        five = Corpus([Document(id=f"d{i}", text=t) for i, t in enumerate(texts)])
        m5 = count_matrix(five)
        w5 = tfidf(m5).weights.toarray()
        counts = m5.counts.toarray()
        df = m5.doc_freq
        for t in range(len(m5.terms)):
            for d in range(5):
                expected = counts[t, d] * np.log(5 / df[t])
                assert abs(w5[t, d] - expected) <= 1e-12

        # Singleton ablation removes exactly the df == 1 rows.
        zipf = make_zipf_corpus(n_docs=1000, tokens_per_doc=60, seed=0)
        mz = count_matrix(zipf)
        ablated = ablate_singletons(mz)
        expected_terms = {t for t, f in zip(mz.terms, mz.doc_freq) if f >= 2}
        assert set(ablated.terms) == expected_terms
        removed = 1 - len(ablated.terms) / len(mz.terms)
        assert 0.40 <= removed <= 0.60, f"removed {removed:.3f}"


def test_criterion_7_sweep_integrity(tmp_path):
    with criterion(7, "sweep integrity"):
        combos = enumerate_grid(SweepSpec())
        assert len(combos) == 38000
        assert enumerate_grid(SweepSpec()) == combos

        corpus = make_planted_corpus(
            n_topics=4, docs_per_topic=30, vocab_per_topic=25, tokens_per_doc=25
        )
        spec = SweepSpec(
            d_values=(0.5, 0.8),
            r_values=(5, 7),
            n_values=(4, 8),
            k_values=(2, 4, 6),
            seed=5,
            budget=20,
        )
        runs = []
        for _ in range(2):
            rows = run_sweep(corpus, spec)
            runs.append(([r.to_json() for r in rows], render_report(rows, top_n=5).encode()))
        assert runs[0][0] == runs[1][0], "row content differs between reruns"
        assert runs[0][1] == runs[1][1], "rendered report differs between reruns"

        # Published top rows as a formatting fixture against golden files.
        abstracts = [
            SweepRow(d=0.6, r=6, n=13, k=4, completeness=0.337, homogeneity=0.327, v_measure=0.332),
            SweepRow(d=0.6, r=6, n=12, k=4, completeness=0.336, homogeneity=0.327, v_measure=0.331),
            SweepRow(d=0.8, r=8, n=11, k=4, completeness=0.335, homogeneity=0.325, v_measure=0.330),
            SweepRow(d=0.8, r=6, n=10, k=4, completeness=0.330, homogeneity=0.314, v_measure=0.322),
            SweepRow(d=1.0, r=5, n=16, k=5, completeness=0.360, homogeneity=0.285, v_measure=0.318),
        ]
        fulltext = [
            SweepRow(d=0.2, r=6, n=9, k=4, completeness=0.361, homogeneity=0.325, v_measure=0.342),
            SweepRow(d=0.5, r=6, n=15, k=5, completeness=0.374, homogeneity=0.309, v_measure=0.338),
            SweepRow(d=0.3, r=8, n=8, k=6, completeness=0.403, homogeneity=0.284, v_measure=0.333),
            SweepRow(d=0.5, r=6, n=10, k=6, completeness=0.384, homogeneity=0.294, v_measure=0.333),
            SweepRow(d=0.7, r=5, n=15, k=7, completeness=0.402, homogeneity=0.282, v_measure=0.332),
        ]
        assert render_report(abstracts) == (DATA / "golden_report_abstracts.md").read_text()
        assert render_report(fulltext) == (DATA / "golden_report_fulltext.md").read_text()


def _gene_fixture_corpus():
    rng = np.random.default_rng(108)
    genes = ["brca1", "tp53", "her2", "esr1", "pgr", "bard1"]
    docs = []
    for t in range(3):
        for j in range(20):
            words = [f"topic{t}w{i}" for i in rng.integers(0, 15, size=15)]
            # Every cluster mentions every gene sometimes, its own heavily.
            words += [genes[t]] * 3 + [genes[(t + 1) % 6]]
            docs.append(Document(id=f"g{t}{j:02d}", text=" ".join(words)))
    corpus = Corpus(docs)
    assignments = [int(d.id[1]) for d in corpus]
    return corpus, assignments


def test_criterion_8_probe_zero_sum_and_top5():
    with criterion(8, "probe zero-sum and top-5 network"):
        rng = np.random.default_rng(107)
        for _ in range(200):
            n_e = int(rng.integers(1, 10))
            n_k = int(rng.integers(1, 7))
            sizes = rng.integers(1, 50, size=n_k)
            counts = ProbeCounts(
                mode="gene",
                entities=tuple(f"g{i:02d}" for i in range(n_e)),
                per_cluster=rng.integers(0, 25, size=(n_e, n_k)),
                cluster_ids=tuple(range(n_k)),
                cluster_sizes=sizes,
                total_docs=int(sizes.sum()),
            )
            report = relative_weights(counts)
            totals = {}
            for ranking in report.clusters:
                for entity, _c, weight in ranking.entries:
                    totals[entity] = totals.get(entity, 0.0) + weight
            assert all(abs(t) <= 1e-9 for t in totals.values())

        # End-to-end fixture corpus through the real counting path.
        corpus, assignments = _gene_fixture_corpus()
        dictionary = load_dictionary(DATA / "dictionary_10.json")
        probe_counts = count_occurrences(corpus, assignments, dictionary, mode="gene")
        report = relative_weights(probe_counts)
        totals = {}
        for ranking in report.clusters:
            for entity, _c, weight in ranking.entries:
                totals[entity] = totals.get(entity, 0.0) + weight
        assert totals and all(abs(t) <= 1e-9 for t in totals.values())

        # Clusters with at least 5 positive-weight entities get exactly 5 edges.
        synthetic = ProbeCounts(
            mode="gene",
            entities=tuple(f"e{i}" for i in range(8)),
            per_cluster=np.array(
                [[9, 0], [8, 0], [7, 0], [6, 0], [5, 0], [0, 9], [0, 8], [0, 7]]
            ),
            cluster_ids=(0, 1),
            cluster_sizes=np.array([10, 10]),
            total_docs=20,
        )
        net = build_network(relative_weights(synthetic), top_n=5)
        per_cluster_edges = {}
        positives = {}
        for ranking in relative_weights(synthetic).clusters:
            positives[ranking.cluster] = sum(1 for _e, _c, w in ranking.entries if w > 0)
        for edge in net.edges:
            per_cluster_edges[edge.source] = per_cluster_edges.get(edge.source, 0) + 1
        assert positives[0] >= 5
        assert per_cluster_edges["cluster:0"] == 5
        assert per_cluster_edges["cluster:1"] == min(5, positives[1])


def test_criterion_9_end_to_end_determinism(tmp_path, monkeypatch):
    with criterion(9, "end-to-end determinism"):
        outs = []
        for run in ("a", "b"):
            root = tmp_path / run
            root.mkdir()
            monkeypatch.chdir(root)
            corpus, _ = _gene_fixture_corpus()
            labeled = Corpus(
                [
                    Document(id=d.id, text=d.text, label=f"class{d.id[1]}")
                    for d in corpus
                ]
            )
            save_jsonl(labeled, root / "corpus.jsonl")
            config = {
                "corpus": "corpus.jsonl",
                "dictionary": str(DATA / "dictionary_10.json"),
                "out": "out",
                "seed": 13,
                "restarts": 2,
                "n_dims": 8,
                "k": 3,
            }
            (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
            for command in ("ingest", "vectorize", "embed", "cluster", "evaluate", "probe"):
                assert cli_main([command, "--config", "config.json"]) == 0
            outs.append(root / "out")
        for name in ("manifest.json", "metrics.json", "network.graphml"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                f"{name} differs between identical runs"
            )
