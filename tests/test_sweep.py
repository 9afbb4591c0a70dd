import logging
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import litclust.sweep as sweep_mod
from litclust.cluster import kmeans
from litclust.corpus import Corpus, Document
from litclust.errors import AllTermsRemoved, ConfigError, EmptySpec, NoLabeledDocuments, ParseError
from litclust.evaluate import score_clustering
from litclust.lsa import reduce as lsa_reduce
from litclust.sweep import (
    BASELINE_PRESET,
    SweepRow,
    SweepSpec,
    derive_seed,
    enumerate_grid,
    read_rows,
    render_report,
    run_sweep,
    v_curve,
    write_v_curve,
)
from litclust.vectorize import build_weighted_matrix

from helpers import make_planted_corpus

DATA = Path(__file__).parent / "data"


def small_corpus(seed=0):
    return make_planted_corpus(
        n_topics=4, docs_per_topic=30, vocab_per_topic=25, tokens_per_doc=25, seed=seed
    )


def small_spec(**kwargs):
    defaults = dict(
        d_values=(0.5,),
        r_values=(5, 6),
        n_values=(5, 10),
        k_values=(2, 4, 6),
        seed=0,
        budget=None,
        restarts=1,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# Checkpoint lines that parse as JSON objects but are not rows: no
# scores, a string score and a boolean key.
NOT_ROWS = [
    b'{"d": 0.5, "k": 2, "n": 5, "r": 5}',
    b'{"completeness": 0.5, "d": 0.5, "homogeneity": 0.5, "k": 2, "n": 5, "r": 5, "v_measure": "abc"}',
    b'{"completeness": 0.5, "d": 0.5, "homogeneity": 0.5, "k": true, "n": 5, "r": 5, "v_measure": 0.5}',
]
# An executed row as checkpoints carried it before rows lost their
# measured wall-clock field.
OLD_FORMAT_ROW = (
    b'{"completeness": 0.5, "d": 0.5, "homogeneity": 0.5, "k": 2, "n": 5, "r": 5, '
    b'"runtime_ms": 12, "v_measure": 0.5}'
)


def tiny_corpus():
    # 12 documents: n above 12 cannot embed, k above 12 cannot cluster.
    return make_planted_corpus(
        n_topics=2, docs_per_topic=6, vocab_per_topic=12, tokens_per_doc=20
    )


def standalone_row(corpus, spec, d, r, n, k):
    """One pipeline run at (d, r, n, k) with the sweep's documented sub-seeds."""
    row = SweepRow(d=d, r=r, n=n, k=k)
    try:
        weighted = build_weighted_matrix(corpus, d_percent=d, rank_cutoff=r)
    except AllTermsRemoved:
        row.skip_reason = "all_terms_removed"
        return row
    if n > min(weighted.shape):
        row.skip_reason = "n_dims_too_large"
        return row
    emb = lsa_reduce(weighted, n, seed=derive_seed(spec.seed, "lsa", d, r, n))
    if k > weighted.shape[1]:
        row.skip_reason = "k_too_large"
        return row
    clus = kmeans(
        emb.vectors, k, seed=derive_seed(spec.seed, "kmeans", d, r, n, k), restarts=spec.restarts
    )
    report = score_clustering(clus.assignments, corpus.labels())
    row.completeness = report.completeness
    row.homogeneity = report.homogeneity
    row.v_measure = report.v_measure
    return row


class TestEnumerate:
    def test_default_grid_has_38000_combinations(self):
        combos = enumerate_grid(SweepSpec())
        assert len(combos) == 38000
        assert len(set(combos)) == 38000

    def test_budget_takes_shuffled_prefix_stably(self):
        spec = SweepSpec(budget=5, seed=7)
        first = enumerate_grid(spec)
        again = enumerate_grid(SweepSpec(budget=5, seed=7))
        assert first == again
        full = enumerate_grid(SweepSpec(seed=7))
        assert first == full[:5]

    def test_two_seeds_same_set_different_order(self):
        a = enumerate_grid(small_spec(seed=1))
        b = enumerate_grid(small_spec(seed=2))
        assert a != b
        assert sorted(a) == sorted(b)

    def test_empty_spec_rejected(self):
        with pytest.raises(EmptySpec):
            enumerate_grid(small_spec(k_values=()))

    def test_bounds_enforced(self):
        with pytest.raises(EmptySpec):
            enumerate_grid(small_spec(d_values=(3.0,)))
        combos = enumerate_grid(small_spec(d_values=(3.0,), enforce_bounds=False))
        assert combos

    def test_bad_budget(self):
        with pytest.raises(EmptySpec):
            enumerate_grid(small_spec(budget=0))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_shuffled_materialized_product(self, data):
        default = SweepSpec()
        grid = {
            name: tuple(data.draw(st.lists(st.sampled_from(getattr(default, name)),
                                           min_size=1, max_size=5, unique=True), label=name))
            for name in ("d_values", "r_values", "n_values", "k_values")
        }
        product = [
            (float(d), int(r), int(n), int(k))
            for d in grid["d_values"] for r in grid["r_values"]
            for n in grid["n_values"] for k in grid["k_values"]
        ]
        seed = data.draw(st.integers(0, 2**32), label="seed")
        budget = data.draw(st.none() | st.integers(1, len(product) + 3), label="budget")
        order = np.random.default_rng(seed).permutation(len(product))
        expected = [product[i] for i in order][:budget]
        assert enumerate_grid(SweepSpec(**grid, seed=seed, budget=budget)) == expected

    def test_default_grid_budget_matches_the_materialized_product(self):
        default = SweepSpec()
        product = [
            (float(d), r, n, k)
            for d in default.d_values for r in default.r_values
            for n in default.n_values for k in default.k_values
        ]
        order = np.random.default_rng(5).permutation(len(product))
        assert enumerate_grid(SweepSpec(seed=5, budget=20)) == [product[i] for i in order[:20]]

    @pytest.mark.parametrize(
        "change",
        [
            {"d_values": "abc"},
            {"d_values": b"\x05"},
            {"d_values": (True,)},
            {"d_values": ("0.5",)},
            {"r_values": 5},
            {"n_values": (2.0,)},
            {"k_values": (2.5, 3)},
            {"k_values": (False, 2)},
            {"budget": "5"},
            {"budget": True},
            {"budget": 2.0},
            {"restarts": 0},
            {"restarts": 1.5},
            {"restarts": True},
            {"seed": -1},
            {"seed": 1.0},
            {"seed": None},
            {"d_values": (float("nan"),)},
            {"d_values": (0.5, float("inf"))},
        ],
    )
    def test_wrong_types_rejected(self, change):
        # With the bounds check off, so only the type rule can reject.
        spec = small_spec(enforce_bounds=False, **change)
        with pytest.raises(ConfigError, match=next(iter(change))):
            spec.validate()
        with pytest.raises(ConfigError):
            run_sweep(small_corpus(), spec)

    @pytest.mark.parametrize("enforce_bounds", [True, False])
    @pytest.mark.parametrize(
        "change,message",
        [
            ({"r_values": (0, 5)}, "r_values must be integers >= 1, got 0"),
            ({"n_values": (0, 2)}, "n_values must be integers >= 1, got 0"),
            ({"k_values": (2, -3)}, "k_values must be integers >= 1, got -3"),
            ({"d_values": (1, 1.0)}, "d_values repeats [1]"),
            ({"d_values": (0.5, np.float64(0.5))}, "d_values repeats [0.5]"),
            ({"r_values": (5, 6, 5)}, "r_values repeats [5]"),
            ({"k_values": (2, 3, 3, 2)}, "k_values repeats [2, 3]"),
        ],
        ids=["r0", "n0", "k-3", "d1-d1.0", "d-numpy", "r5-r5", "k2-k3"],
    )
    def test_values_below_one_or_repeated_rejected_whatever_the_bounds(self, change, message, enforce_bounds):
        spec = small_spec(enforce_bounds=enforce_bounds, **change)
        with pytest.raises(ConfigError, match=re.escape(message)):
            spec.validate()
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_sweep(small_corpus(), spec)

    def test_numpy_numbers_and_ranges_accepted(self):
        spec = small_spec(
            d_values=np.array([0.5]), r_values=range(5, 7), n_values=[np.int64(5)],
            k_values=(np.int32(2),), seed=np.uint8(3), budget=np.int64(1), restarts=np.int16(2),
        )
        assert enumerate_grid(spec) == enumerate_grid(
            small_spec(d_values=(0.5,), r_values=(5, 6), n_values=(5,), k_values=(2,),
                       seed=3, budget=1, restarts=2)
        )


class TestRunSweep:
    def test_row_per_combination(self):
        corpus = small_corpus()
        spec = small_spec()
        rows = run_sweep(corpus, spec)
        assert len(rows) == len(enumerate_grid(spec))
        assert [r.key for r in rows] == sorted(enumerate_grid(spec))
        assert all(r.ok for r in rows)
        for r in rows:
            assert 0.0 <= r.v_measure <= 1.0
            assert 0.0 <= r.completeness <= 1.0
            assert 0.0 <= r.homogeneity <= 1.0

    def test_budget_one(self):
        rows = run_sweep(small_corpus(), small_spec(budget=1))
        assert len(rows) == 1

    def test_rerun_identical(self):
        corpus = small_corpus()
        a = run_sweep(corpus, small_spec(budget=6))
        b = run_sweep(corpus, small_spec(budget=6))
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_logs_each_row(self, caplog):
        spec = small_spec(n_values=(5, 200), enforce_bounds=False)
        with caplog.at_level(logging.DEBUG, logger="litclust.sweep"):
            rows = run_sweep(small_corpus(), spec)
        messages = [r.getMessage() for r in caplog.records if r.name == "litclust.sweep"]
        assert len(messages) == len(rows) == 12
        for row, message in zip(rows, messages):
            head = f"sweep: row {row.key} {row.skip_reason or 'scored'} in "
            assert message.startswith(head), message
            assert re.fullmatch(r"\d+\.\d{3} s", message[len(head):]), message
        assert {row.skip_reason for row in rows} == {None, "n_dims_too_large"}
        # Logging at DEBUG changes no row.
        assert [r.to_json() for r in run_sweep(small_corpus(), spec)] == [r.to_json() for r in rows]

    def test_unlabeled_corpus_rejected(self):
        corpus = make_planted_corpus(docs_per_topic=5)
        from litclust.corpus import Corpus, Document

        unlabeled = Corpus([Document(id=d.id, text=d.text) for d in corpus])
        with pytest.raises(NoLabeledDocuments):
            run_sweep(unlabeled, small_spec())

    def test_oversized_n_recorded_as_skip(self):
        corpus = tiny_corpus()
        spec = small_spec(n_values=(2, 20), k_values=(2,), r_values=(5,))
        rows = run_sweep(corpus, spec)
        reasons = {r.key: r.skip_reason for r in rows}
        assert reasons[(0.5, 5, 20, 2)] == "n_dims_too_large"
        assert reasons[(0.5, 5, 2, 2)] is None
        skips = [r for r in rows if not r.ok]
        assert len(rows) == len(skips) + sum(1 for r in rows if r.ok)

    def test_rows_equal_standalone_pipeline_runs(self):
        # d=60% keeps only terms in 8 of 12 documents, and topic terms
        # occur in at most 6: every skip reason but a solver failure shows.
        corpus = tiny_corpus()
        spec = small_spec(
            d_values=(0.5, 60.0), r_values=(5, 6), n_values=(2, 20), k_values=(2, 3, 20),
            enforce_bounds=False, restarts=2,
        )
        rows = run_sweep(corpus, spec)
        expected = [standalone_row(corpus, spec, *key) for key in sorted(enumerate_grid(spec))]
        assert [r.to_json() for r in rows] == [r.to_json() for r in expected]
        reasons = {r.skip_reason for r in rows}
        assert reasons == {None, "all_terms_removed", "n_dims_too_large", "k_too_large"}

    def test_shared_tfidf_weighs_only_the_terms_over_the_lowest_floor_that_runs(self, tmp_path, monkeypatch):
        corpus = tiny_corpus()
        spec = small_spec(d_values=(0.5, 40.0, 60.0), n_values=(2,), k_values=(2,), enforce_bounds=False)
        ckpt = tmp_path / "rows.jsonl"
        # The d = 0.5 rows are done, so the lowest d that runs is 40.  A
        # row depends only on its key, so the full spec's sidecar may
        # vouch for them.
        run_sweep(corpus, replace(spec, d_values=(0.5,)), checkpoint_path=ckpt)
        ckpt.with_name(ckpt.name + ".fingerprint").write_text(sweep_mod._fingerprint(corpus, spec) + "\n")
        weighed = []
        real = sweep_mod._vec.tfidf
        monkeypatch.setattr(sweep_mod._vec, "tfidf", lambda m: weighed.append(m.terms) or real(m))
        rows = run_sweep(corpus, spec, checkpoint_path=ckpt)
        ablated = sweep_mod._vec.ablate_singletons(corpus.term_counts)
        over_40 = sweep_mod._vec.apply_df_threshold(ablated, 40.0).terms
        assert weighed == [over_40] and len(over_40) < len(ablated.terms)
        expected = [standalone_row(corpus, spec, *key) for key in sorted(enumerate_grid(spec))]
        assert [r.to_json() for r in rows] == [r.to_json() for r in expected]

    def test_a_lowest_floor_that_removes_every_term_skips_every_row(self, monkeypatch):
        corpus = tiny_corpus()
        spec = small_spec(d_values=(200.0, 300.0), enforce_bounds=False)
        weighed = []
        monkeypatch.setattr(sweep_mod._vec, "tfidf", weighed.append)
        rows = run_sweep(corpus, spec)
        assert len(rows) == len(enumerate_grid(spec)) and weighed == []
        assert {r.skip_reason for r in rows} == {"all_terms_removed"}

    def test_each_prefix_is_built_once(self, tmp_path, monkeypatch):
        corpus = small_corpus()
        first = small_spec(
            d_values=(0.5, 0.8), r_values=(5, 6), n_values=(4, 8), k_values=(2, 3, 4, 5, 6),
            budget=10,
        )
        spec = replace(first, budget=30)
        ckpt = tmp_path / "rows.jsonl"
        run_sweep(corpus, first, checkpoint_path=ckpt)
        todo = set(enumerate_grid(spec)) - set(enumerate_grid(first))

        calls = {"reduce": 0, "tfidf": 0, "at": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sweep_mod._lsa, "reduce", counted("reduce", sweep_mod._lsa.reduce))
        monkeypatch.setattr(sweep_mod._vec, "tfidf", counted("tfidf", sweep_mod._vec.tfidf))
        shared = sweep_mod._vec.SharedWeighing
        monkeypatch.setattr(shared, "at", counted("at", shared.at))
        rows = run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert all(r.ok for r in rows)
        # tf-idf once for the sweep; the D floor, R cutoff and L2 once
        # per new (d, r); the embedding once per new (d, r, n).
        assert calls == {
            "reduce": len({key[:3] for key in todo}),
            "tfidf": 1,
            "at": len({key[:2] for key in todo}),
        }
        # A fully checkpointed rerun builds nothing.
        calls.update(reduce=0, tfidf=0, at=0)
        assert run_sweep(corpus, spec, checkpoint_path=ckpt) == rows
        assert calls == {"reduce": 0, "tfidf": 0, "at": 0}

    def test_checkpoint_resume_skips_done_rows(self, tmp_path):
        corpus = small_corpus()
        spec = small_spec(budget=4)
        combos = enumerate_grid(spec)
        # Pre-plant a sentinel row for the first combination; a resumed
        # run must reuse it verbatim instead of recomputing.
        sentinel = SweepRow(
            d=combos[0][0], r=combos[0][1], n=combos[0][2], k=combos[0][3],
            completeness=0.123, homogeneity=0.456, v_measure=0.789,
        )
        ckpt = tmp_path / "rows.jsonl"
        # A one-row run writes the checkpoint's fingerprint sidecar; its
        # row is then replaced by the sentinel.
        run_sweep(corpus, replace(spec, budget=1), checkpoint_path=ckpt)
        ckpt.write_text(sentinel.to_json() + "\n", encoding="utf-8")
        rows = run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert next(r for r in rows if r.key == combos[0]).v_measure == 0.789
        # All four rows are now checkpointed.
        assert len(read_rows(ckpt)) == 4
        # A second resume recomputes nothing and appends nothing.
        before = ckpt.read_text()
        run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert ckpt.read_text() == before

    @pytest.mark.parametrize("corrupt", [
        b'{"d": 0.5, "r"', b"\xff\xfe", b'{"r": 5}', b"[1, 2]", *NOT_ROWS, OLD_FORMAT_ROW,
    ])
    def test_corrupt_checkpoint_line_raises_parse_error(self, tmp_path, corrupt):
        corpus = small_corpus()
        spec = small_spec(budget=4)
        ckpt = tmp_path / "rows.jsonl"
        run_sweep(corpus, spec, checkpoint_path=ckpt)
        lines = ckpt.read_bytes().splitlines(keepends=True)
        lines[1] = corrupt + b"\n"
        ckpt.write_bytes(b"".join(lines))
        with pytest.raises(ParseError, match=r"rows\.jsonl:2:"):
            run_sweep(corpus, spec, checkpoint_path=ckpt)

    def test_oversized_k_recorded_as_skip(self):
        corpus = tiny_corpus()
        spec = small_spec(n_values=(2,), k_values=(2, 20), r_values=(5,))
        rows = run_sweep(corpus, spec)
        reasons = {r.key: r.skip_reason for r in rows}
        assert reasons[(0.5, 5, 2, 20)] == "k_too_large"
        assert reasons[(0.5, 5, 2, 2)] is None

    def test_unconverged_embedding_recorded_as_skip(self, monkeypatch):
        # Too small a Krylov basis for a 100 x 120 matrix to converge in.
        monkeypatch.setattr(sweep_mod._lsa, "BASIS_MARGIN", 1)
        rows = run_sweep(small_corpus(), small_spec(r_values=(5,), n_values=(5,)))
        assert {r.skip_reason for r in rows} == {"svd_convergence_failure"}

    def test_degenerate_corpus_aborts(self):
        from litclust.corpus import Corpus, Document
        from litclust.errors import AllTermsRemoved

        # Every term appears in exactly one document.
        degenerate = Corpus(
            [Document(id=f"d{i}", text=f"unique{i}a unique{i}b", label="x") for i in range(6)]
        )
        with pytest.raises(AllTermsRemoved):
            run_sweep(degenerate, small_spec())

    def test_fully_checkpointed_resume_runs_no_pipeline(self, tmp_path, monkeypatch):
        corpus = small_corpus()
        spec = small_spec(budget=3)
        ckpt = tmp_path / "rows.jsonl"
        run_sweep(corpus, spec, checkpoint_path=ckpt)

        import litclust.sweep as sweep_mod

        def explode(*args, **kwargs):
            raise AssertionError("resume should not rebuild the count matrix")

        monkeypatch.setattr(sweep_mod._vec, "count_matrix", explode)
        rows = run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert len(rows) == 3

    def test_planted_corpus_prefers_k4(self):
        corpus = make_planted_corpus(
            n_topics=4, docs_per_topic=40, vocab_per_topic=30, tokens_per_doc=30
        )
        spec = SweepSpec(
            d_values=(0.5, 0.8),
            r_values=(5, 8),
            n_values=(5, 10, 15),
            k_values=tuple(range(2, 11)),
            budget=60,
            seed=11,
            restarts=1,
        )
        winners = []
        for seed in range(5):
            spec.seed = seed
            rows = [r for r in run_sweep(corpus, spec) if r.ok]
            top = max(rows, key=lambda r: (r.v_measure, r.completeness))
            winners.append(top.k)
        assert sum(1 for k in winners if k == 4) >= 3


@pytest.fixture(scope="module")
def uninterrupted():
    corpus = small_corpus()
    spec = small_spec(budget=8)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "rows.jsonl"
        rows = run_sweep(corpus, spec, checkpoint_path=ckpt)
        sidecar = ckpt.with_name("rows.jsonl.fingerprint").read_bytes()
        return corpus, spec, rows, ckpt.read_bytes(), sidecar


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_resume_after_torn_checkpoint_line(uninterrupted, data):
    """A crash mid-write leaves a partial last line; resume drops it and
    ends with the rows and checkpoint of an uninterrupted run."""
    corpus, spec, rows, blob, sidecar = uninterrupted
    cut = data.draw(st.integers(1, len(blob) - 1), label="cut")
    assume(blob[cut - 1 : cut] != b"\n")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "rows.jsonl"
        ckpt.with_name("rows.jsonl.fingerprint").write_bytes(sidecar)
        ckpt.write_bytes(blob[:cut])
        resumed = run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert [r.to_json() for r in resumed] == [r.to_json() for r in rows]
        assert ckpt.read_bytes() == blob


@pytest.fixture(scope="module")
def checkpointed():
    """A two-row checkpoint and its fingerprint sidecar."""
    corpus = small_corpus()
    spec = small_spec(budget=2)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "rows.jsonl"
        run_sweep(corpus, spec, checkpoint_path=ckpt)
        return corpus, spec, ckpt.read_bytes(), ckpt.with_name("rows.jsonl.fingerprint").read_bytes()


CORPUS_CHANGES = ("text", "label", "id", "drop", "add")


def changed_corpus(corpus, kind, index):
    """The corpus with one document's text, label or id changed, or one
    document dropped, or one added."""
    docs = list(corpus)
    doc = docs[index]
    if kind == "text":
        docs[index] = replace(doc, text=doc.text + " extra")
    elif kind == "label":
        docs[index] = replace(doc, label="other")
    elif kind == "id":
        docs[index] = replace(doc, id=doc.id + "x")
    elif kind == "drop":
        del docs[index]
    else:
        docs.append(Document(id="zz-new", text="topic0term01 topic0term02", label="class0"))
    return Corpus(docs)


SPEC_CHANGES = st.one_of(
    st.fixed_dictionaries({"seed": st.integers(1, 10**6)}),
    st.fixed_dictionaries({"restarts": st.integers(2, 6)}),
    st.fixed_dictionaries({"d_values": st.sampled_from([(0.4,), (0.5, 0.6), (1.0,)])}),
    st.fixed_dictionaries({"r_values": st.sampled_from([(5,), (5, 6, 7), (7, 8)])}),
    st.fixed_dictionaries({"n_values": st.sampled_from([(5,), (5, 10, 12), (3, 10)])}),
    st.fixed_dictionaries({"k_values": st.sampled_from([(2, 4), (2, 4, 6, 8), (3, 4, 6)])}),
)


@settings(max_examples=30, deadline=None)
@given(
    spec_change=st.none() | SPEC_CHANGES,
    corpus_change=st.none() | st.tuples(st.sampled_from(CORPUS_CHANGES), st.integers(0, 119)),
)
@example(spec_change=None, corpus_change=("label", 0))
@example(spec_change=None, corpus_change=("text", 5))
@example(spec_change=None, corpus_change=("id", 119))
def test_resume_under_another_spec_or_corpus_is_refused(checkpointed, spec_change, corpus_change):
    assume(spec_change is not None or corpus_change is not None)
    corpus, spec, blob, sidecar = checkpointed
    if spec_change is not None:
        spec = replace(spec, **spec_change)
    if corpus_change is not None:
        corpus = changed_corpus(corpus, *corpus_change)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "rows.jsonl"
        ckpt.with_name("rows.jsonl.fingerprint").write_bytes(sidecar)
        ckpt.write_bytes(blob)
        with pytest.raises(ConfigError, match=r"rows\.jsonl\.fingerprint"):
            run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert ckpt.read_bytes() == blob


class TestCheckpointFingerprint:
    @pytest.mark.parametrize("change", [{"budget": 4}, {"budget": None}, {"enforce_bounds": False}])
    def test_budget_and_bounds_flag_do_not_invalidate(self, checkpointed, tmp_path, change):
        _, spec, blob, sidecar = checkpointed
        ckpt = tmp_path / "rows.jsonl"
        ckpt.with_name("rows.jsonl.fingerprint").write_bytes(sidecar)
        ckpt.write_bytes(blob)
        # An equal corpus loaded anew is the same corpus.
        rows = run_sweep(small_corpus(), replace(spec, **change), checkpoint_path=ckpt)
        assert len(rows) == len(enumerate_grid(replace(spec, **change)))
        assert ckpt.read_bytes().startswith(blob)

    def test_checkpoint_without_fingerprint_is_refused(self, checkpointed, tmp_path):
        corpus, spec, blob, _ = checkpointed
        ckpt = tmp_path / "rows.jsonl"
        ckpt.write_bytes(blob)
        with pytest.raises(ConfigError):
            run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert ckpt.read_bytes() == blob

    def test_undecodable_fingerprint_is_refused(self, checkpointed, tmp_path):
        corpus, spec, blob, _ = checkpointed
        ckpt = tmp_path / "rows.jsonl"
        ckpt.write_bytes(blob)
        ckpt.with_name("rows.jsonl.fingerprint").write_bytes(b"\xff\xfe\n")
        with pytest.raises(ConfigError, match=r"rows\.jsonl\.fingerprint"):
            run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert ckpt.read_bytes() == blob

    def test_fingerprint_without_checkpoint_is_rewritten(self, checkpointed, tmp_path):
        corpus, spec, blob, sidecar = checkpointed
        ckpt = tmp_path / "rows.jsonl"
        fingerprint = ckpt.with_name("rows.jsonl.fingerprint")
        fingerprint.write_text("left by an earlier run\n", encoding="utf-8")
        rows = run_sweep(corpus, spec, checkpoint_path=ckpt)
        assert fingerprint.read_bytes() == sidecar
        assert [r.to_json() for r in run_sweep(corpus, spec, checkpoint_path=ckpt)] == [
            r.to_json() for r in rows
        ]


class TestReport:
    def test_rank_by_v_measure(self):
        rows = [
            SweepRow(d=0.1, r=5, n=1, k=2, completeness=1, homogeneity=1, v_measure=0.1),
            SweepRow(d=0.2, r=5, n=1, k=2, completeness=1, homogeneity=1, v_measure=0.3),
            SweepRow(d=0.3, r=5, n=1, k=2, completeness=1, homogeneity=1, v_measure=0.2),
        ]
        report = render_report(rows, top_n=2)
        lines = report.strip().splitlines()
        assert "| 0.2 |" in lines[2]
        assert "| 0.3 |" in lines[3]
        assert len(lines) == 4

    @pytest.mark.parametrize("top_n", [0, -1, 2.0, True])
    def test_top_n_must_be_a_positive_int(self, top_n):
        rows = [SweepRow(d=0.1, r=5, n=1, k=2, completeness=1, homogeneity=1, v_measure=0.1)]
        with pytest.raises(ConfigError, match="top_n"):
            render_report(rows, top_n=top_n)

    def test_deterministic_tie_order(self):
        rows = [
            SweepRow(d=0.4, r=6, n=2, k=3, completeness=0.5, homogeneity=0.5, v_measure=0.5),
            SweepRow(d=0.2, r=9, n=2, k=3, completeness=0.5, homogeneity=0.5, v_measure=0.5),
        ]
        report = render_report(rows)
        lines = report.strip().splitlines()
        assert lines[2].startswith("| 0.2 |")
        assert lines[3].startswith("| 0.4 |")

    def test_published_rows_render_as_golden_fixture(self):
        abstracts = [
            SweepRow(d=1.0, r=5, n=16, k=5, completeness=0.360, homogeneity=0.285, v_measure=0.318),
            SweepRow(d=0.8, r=6, n=10, k=4, completeness=0.330, homogeneity=0.314, v_measure=0.322),
            SweepRow(d=0.6, r=6, n=13, k=4, completeness=0.337, homogeneity=0.327, v_measure=0.332),
            SweepRow(d=0.8, r=8, n=11, k=4, completeness=0.335, homogeneity=0.325, v_measure=0.330),
            SweepRow(d=0.6, r=6, n=12, k=4, completeness=0.336, homogeneity=0.327, v_measure=0.331),
        ]
        golden = (DATA / "golden_report_abstracts.md").read_text()
        assert render_report(abstracts, top_n=5) == golden

    def test_tied_v_ordered_by_completeness_like_published_table(self):
        fulltext = [
            SweepRow(d=0.5, r=6, n=10, k=6, completeness=0.384, homogeneity=0.294, v_measure=0.333),
            SweepRow(d=0.7, r=5, n=15, k=7, completeness=0.402, homogeneity=0.282, v_measure=0.332),
            SweepRow(d=0.2, r=6, n=9, k=4, completeness=0.361, homogeneity=0.325, v_measure=0.342),
            SweepRow(d=0.3, r=8, n=8, k=6, completeness=0.403, homogeneity=0.284, v_measure=0.333),
            SweepRow(d=0.5, r=6, n=15, k=5, completeness=0.374, homogeneity=0.309, v_measure=0.338),
        ]
        golden = (DATA / "golden_report_fulltext.md").read_text()
        assert render_report(fulltext, top_n=5) == golden

    def test_skip_rows_excluded(self):
        rows = [
            SweepRow(d=0.1, r=5, n=1, k=2, skip_reason="n_dims_too_large"),
            SweepRow(d=0.2, r=5, n=1, k=2, completeness=1, homogeneity=1, v_measure=1.0),
        ]
        report = render_report(rows)
        assert "0.1" not in report.splitlines()[2]

    def test_all_skipped_raises(self):
        with pytest.raises(EmptySpec):
            render_report([SweepRow(d=0.1, r=5, n=1, k=2, skip_reason="x")])


def test_paper_default_preset():
    assert BASELINE_PRESET == {"d": 0.5, "r": 5, "n_dims": 15, "k": 4}


def test_v_curve_over_k(tmp_path):
    corpus = small_corpus()
    curve = v_curve(corpus, k_values=(2, 3, 4, 5), n_dims=10, seed=0)
    assert [k for k, _ in curve] == [2, 3, 4, 5]
    assert all(0.0 <= v <= 1.0 for _, v in curve)
    path = tmp_path / "vk.tsv"
    write_v_curve(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k\tv_measure"
    assert len(lines) == 5


def test_v_curve_leaves_out_skipped_k_and_checks_bounds():
    corpus = tiny_corpus()
    assert [k for k, _ in v_curve(corpus, k_values=(2, 20), n_dims=2)] == [2]
    with pytest.raises(EmptySpec):
        v_curve(corpus, k_values=(2,), n_dims=25)


def test_rows_roundtrip(tmp_path):
    rows = [
        SweepRow(d=0.5, r=5, n=3, k=2, completeness=0.5, homogeneity=0.25, v_measure=1 / 3),
        SweepRow(d=0.6, r=6, n=4, k=3, skip_reason="k_too_large"),
    ]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(row.to_json() + "\n" for row in rows), encoding="utf-8")
    assert read_rows(path) == rows


def test_blank_checkpoint_lines_are_skipped(tmp_path):
    rows = [
        SweepRow(d=0.5, r=5, n=3, k=2, completeness=0.5, homogeneity=0.25, v_measure=1 / 3),
        SweepRow(d=0.6, r=6, n=4, k=3, skip_reason="k_too_large"),
    ]
    path = tmp_path / "rows.jsonl"
    path.write_text("\n" + rows[0].to_json() + "\n\n \t\n" + rows[1].to_json() + "\n\n", encoding="utf-8")
    assert read_rows(path) == rows
    path.write_text(rows[0].to_json() + "\n\n{}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"rows\.jsonl:3: not a sweep row"):
        read_rows(path)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, "lsa", 0.5, 5, 15) == derive_seed(0, "lsa", 0.5, 5, 15)
    assert derive_seed(0, "lsa", 0.5, 5, 15) != derive_seed(1, "lsa", 0.5, 5, 15)
    assert derive_seed(0, "lsa", 0.5, 5, 15) != derive_seed(0, "kmeans", 0.5, 5, 15)
