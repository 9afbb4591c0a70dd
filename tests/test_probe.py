import json
import logging
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litclust.corpus import Corpus, Document, load_corpus, tokenize
from litclust.errors import EmptyDictionary, ParseError
from litclust.probe import (
    MIN_ALIAS_LEN,
    DictionaryEntry,
    GeneDictionary,
    ProbeCounts,
    build_network,
    count_occurrences,
    export_network,
    load_dictionary,
    load_report,
    parse_gene_summaries,
    relative_weights,
    report_to_json,
)

from helpers import random_word_corpus

DATA = Path(__file__).parent / "data"

# Dictionary keys and corpus words that probe the tokenizer's edges:
# spaces and underscores (never one token), hyphens and case (folded
# into one token), 1-2 character symbols and aliases shorter than
# MIN_ALIAS_LEN.
KEY_POOL = (
    "BRCA1", "brca-1", "BRCA 1", "brca_1", "TP53", "p53", "P-53", "HER2", "Her-2", "x",
    "ab", "AR", "er", "esr1", "ESR-1", "a b", "c_d", "gene-x", "GENE", "-", "ǅx", "naïve",
)
NOISE_POOL = ("the", "of", "aa", "b", "cell", "x1", "her", "tp", "gene", "ab_cd", "a-b")


def dictionary_of(*entries):
    return GeneDictionary([DictionaryEntry(*e) for e in entries])


def probe_corpus():
    """Three clusters with hand-placed gene mentions."""
    docs = [
        # cluster 0: brca1 x3 (one doc mentions it twice), tp53 x1
        Document(id="a1", text="BRCA1 pathway and brca1 signaling", label=None),
        Document(id="a2", text="study of tp53 and BRCA-1 variants"),
        # cluster 1: tp53 x2
        Document(id="b1", text="mutation in TP53 and p53 expression"),
        Document(id="b2", text="no mentions here at all"),
        # cluster 2: her2 x1
        Document(id="c1", text="HER2 amplification observed"),
    ]
    corpus = Corpus(docs)
    by_id = {"a1": 0, "a2": 0, "b1": 1, "b2": 1, "c1": 2}
    assignments = [by_id[d.id] for d in corpus]
    return corpus, assignments


def probe_dictionary():
    return dictionary_of(
        ("BRCA1", ("BRCA-1",), "DNA repair"),
        ("TP53", ("P53",), "tumor protein"),
        ("ERBB2", ("HER2",), "receptor tyrosine kinase"),
    )


class TestDictionary:
    def test_symbol_and_alias_become_match_keys(self):
        d = dictionary_of(("BRCA1", ("brca-1",), "DNA repair"))
        keys = d.token_keys()
        assert keys == {"brca1": "brca1", "brca-1": "brca1"}
        assert len(d) == 1

    def test_shared_alias_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="litclust.probe"):
            d = dictionary_of(
                ("TP53", ("p53",), ""),
                ("TP53BP", ("p53", "bp53"), ""),
            )
        keys = d.token_keys()
        assert keys["p53"] == "tp53"
        assert keys["bp53"] == "tp53bp"
        assert any("p53" in rec.message for rec in caplog.records)

    def test_duplicate_symbol_drops_later_entry(self, caplog):
        with caplog.at_level(logging.WARNING, logger="litclust.probe"):
            d = dictionary_of(("BRCA1", (), "first"), ("brca1", (), "second"))
        assert len(d) == 1
        assert d.entries[0].description == "first"

    def test_empty_symbol_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="litclust.probe"):
            d = dictionary_of(("  ", ("orphan",), ""), ("TP53", (), ""))
        assert [e.symbol for e in d.entries] == ["tp53"]
        assert "orphan" not in d.token_keys()
        assert [rec.message for rec in caplog.records] == ["dropping dictionary entry with empty symbol"]

    def test_empty_alias_and_alias_equal_to_symbol_dropped_silently(self, caplog):
        with caplog.at_level(logging.WARNING, logger="litclust.probe"):
            d = dictionary_of(("BRCA1", ("", "  ", "BRCA1", " brca1 ", "brca-1"), ""))
        assert d.entries[0].aliases == ("brca-1",)
        assert d.token_keys() == {"brca1": "brca1", "brca-1": "brca1"}
        assert caplog.records == []

    def test_short_aliases_excluded_from_matching(self):
        d = dictionary_of(("ESR1", ("ER", "ESRA"), ""))
        keys = d.token_keys()
        assert "er" not in keys
        assert "esra" in keys
        # The symbol itself always matches, whatever its length.
        d2 = dictionary_of(("AR", ("DHTR",), ""))
        assert "ar" in d2.token_keys()

    def test_keys_that_can_never_match_are_named_in_one_warning(self, caplog):
        entries = [
            DictionaryEntry("BRCA1", ("brca 1", "brca_1", "brca-1"), ""),
            DictionaryEntry("X", (), ""),
            *parse_gene_summaries((DATA / "gene_esummary.json").read_bytes()),
        ]
        d = GeneDictionary(entries)  # the fixture's own BRCA1 is dropped as a duplicate
        with caplog.at_level(logging.WARNING, logger="litclust.probe"):
            caplog.clear()
            keys = d.token_keys()
        (record,) = caplog.records
        named = {key for key in keys if repr(key) in record.message}
        assert {"brca 1", "brca_1", "x", "her-2/neu", "mln 19"} <= named
        assert named == {key for key in keys if tokenize(Document("q", key)).tokens != (key,)}
        assert "'brca-1'" not in record.message and "'her2'" not in record.message
        # They stay keys, so gene-mode counts are those of the per-token loop.
        assert {"brca 1", "brca_1", "x", "her-2/neu", "mln 19"} <= set(keys)
        corpus, assignments = probe_corpus()
        counts = count_occurrences(corpus, assignments, d, mode="gene")
        entities, per_cluster, _, _ = reference_gene_counts(corpus, assignments, d)
        assert counts.entities == entities
        assert np.array_equal(counts.per_cluster, per_cluster)

    def test_matchable_keys_log_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="litclust.probe"):
            probe_dictionary().token_keys()
        assert caplog.records == []

    def test_empty_dictionary_rejected(self):
        with pytest.raises(EmptyDictionary):
            GeneDictionary([])

    def test_load_fixture_file(self):
        d = load_dictionary(DATA / "dictionary_10.json")
        assert len(d) == 10
        assert all(e.description for e in d.entries)

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dictionary(p)
        p.write_text('{"symbol": "X"}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_dictionary(p)

    @pytest.mark.parametrize("entry,field", [
        ({"symbol": 53}, "symbol"),
        ({"symbol": None}, "symbol"),
        ({"symbol": "TP53", "aliases": "p53"}, "aliases"),
        ({"symbol": "TP53", "aliases": ["p53", 53]}, "aliases"),
        ({"symbol": "TP53", "aliases": None}, "aliases"),
        ({"symbol": "TP53", "description": ["tumor protein"]}, "description"),
        ({"symbol": "TP53", "description": None}, "description"),
    ])
    def test_load_rejects_values_of_the_wrong_type(self, tmp_path, entry, field):
        p = tmp_path / "d.json"
        p.write_text(json.dumps([{"symbol": "BRCA1"}, entry]), encoding="utf-8")
        with pytest.raises(ParseError, match=f"entry 1.*'{field}'"):
            load_dictionary(p)

    def test_load_defaults_absent_aliases_and_description(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps([{"symbol": "TP53"}]), encoding="utf-8")
        assert load_dictionary(p).entries == (DictionaryEntry("tp53", (), ""),)

    def test_parse_gene_summaries_fixture(self):
        entries = parse_gene_summaries((DATA / "gene_esummary.json").read_bytes())
        assert len(entries) == 10
        d = GeneDictionary(entries)
        assert "her2" in d.token_keys()
        assert d.description_phrases()["tp53"] == "tumor protein p53"

    @pytest.mark.parametrize("payload", [
        b"{not json",
        b'{"header": {}}',
        b'{"result": {}}',
        b'{"result": 5}',
        b'{"result": []}',
    ])
    def test_unparseable_gene_summary_payload_raises_parse_error(self, payload):
        with pytest.raises(ParseError, match="unparseable gene summary payload"):
            parse_gene_summaries(payload)

    @pytest.mark.parametrize("result,message", [
        ({"uids": 7}, "'uids' must be a list"),
        ({"uids": ["1"], "1": 5}, "uid '1': the record must be an object"),
        ({"uids": ["1"], "1": {"name": 5}}, "uid '1': 'name' must be a string"),
        ({"uids": ["1"], "1": {"name": None}}, "uid '1': 'name' must be a string"),
        ({"uids": ["1"], "1": {"name": "TP53", "otheraliases": 3}},
         "uid '1': 'otheraliases' must be a string"),
        ({"uids": ["1"], "1": {"name": "TP53", "description": 3}}, "uid '1': 'description' must be a string"),
        # json.dumps writes a lone surrogate as its escape.
        ({"uids": ["1"], "1": {"name": "GENE\ud800X"}}, "uid '1': 'name' holds a lone surrogate"),
        ({"uids": ["1"], "1": {"name": "TP53", "description": "p\udfff"}},
         "uid '1': 'description' holds a lone surrogate"),
    ], ids=["uids", "record", "name", "null-name", "otheraliases", "description", "surrogate-name",
            "surrogate-description"])
    def test_gene_summary_of_another_shape_raises_parse_error(self, result, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_gene_summaries(json.dumps({"result": result}).encode())

    def test_gene_summary_uid_without_a_name_is_skipped(self):
        payload = {
            "result": {
                "uids": ["1", "2", "3", "4"],
                "1": {"name": "TP53", "otheraliases": "p53, , LFS1", "description": "tumor protein p53"},
                "2": {"name": "  ", "otheraliases": "blank"},
                "3": {"description": "no name"},
            }
        }
        (entry,) = parse_gene_summaries(json.dumps(payload).encode())
        assert entry == DictionaryEntry("TP53", ("p53", "LFS1"), "tumor protein p53")


def reference_gene_counts(corpus, assignments, dictionary):
    """The per-token loop that the sparse product replaced:
    (entities, per_cluster, cluster_ids, cluster_sizes)."""
    cluster_ids = tuple(sorted({int(c) for c in assignments}))
    col = {c: j for j, c in enumerate(cluster_ids)}
    sizes = np.zeros(len(cluster_ids), dtype=np.int64)
    for c in assignments:
        sizes[col[int(c)]] += 1
    keys = dictionary.token_keys()
    symbols = tuple(sorted({s for s in keys.values()}))
    row = {s: i for i, s in enumerate(symbols)}
    counts = np.zeros((len(symbols), len(cluster_ids)), dtype=np.int64)
    for doc, c in zip(corpus, assignments):
        j = col[int(c)]
        for tok in tokenize(doc).tokens:
            sym = keys.get(tok)
            if sym is not None:
                counts[row[sym], j] += 1
    return symbols, counts, cluster_ids, sizes


def random_dictionary(rng):
    entries = []
    for _ in range(int(rng.integers(1, 7))):
        symbol, *aliases = rng.choice(KEY_POOL, size=int(rng.integers(1, 4)), replace=False)
        entries.append(DictionaryEntry(str(symbol), tuple(str(a) for a in aliases), ""))
    return GeneDictionary(entries)


def assert_equals_reference(corpus, assignments, dictionary):
    counts = count_occurrences(corpus, assignments, dictionary, mode="gene")
    entities, per_cluster, cluster_ids, sizes = reference_gene_counts(
        corpus, assignments, dictionary
    )
    assert counts.entities == entities
    assert counts.per_cluster.dtype == per_cluster.dtype
    assert np.array_equal(counts.per_cluster, per_cluster)
    assert counts.cluster_ids == cluster_ids
    assert all(type(c) is int for c in counts.cluster_ids)
    assert counts.cluster_sizes.dtype == sizes.dtype
    assert np.array_equal(counts.cluster_sizes, sizes)
    assert counts.total_docs == int(sizes.sum())
    return counts


class TestGeneModeEqualsTokenLoop:
    def test_random_corpora_and_dictionaries(self):
        rng = np.random.default_rng(11)
        matched = 0
        for case in range(200):
            words = [*KEY_POOL, *NOISE_POOL, *(f"solo{case}x{i}" for i in range(3))]
            corpus = random_word_corpus(rng, words, n_docs=int(rng.integers(1, 10)))
            ids = rng.choice([-3, 0, 1, 2, 7, 40], size=int(rng.integers(1, 5)), replace=False)
            assignments = rng.choice(ids, size=len(corpus)).tolist()
            counts = assert_equals_reference(corpus, assignments, random_dictionary(rng))
            assert counts.per_cluster.dtype == np.int64
            matched += int(counts.per_cluster.sum())
        assert matched > 100

    def test_keys_outside_the_vocabulary_match_nothing(self):
        corpus = Corpus([
            Document(id="d1", text="brca 1 and brca_1 and BRCA-1 and ab ab er x"),
            Document(id="d2", text="BRCA1 brca1"),
        ])
        d = dictionary_of(("BRCA1", ("brca 1", "brca_1", "brca-1"), ""), ("AB", ("er",), ""), ("X", (), ""))
        assert len("er") < MIN_ALIAS_LEN and "er" not in d.token_keys()
        counts = assert_equals_reference(corpus, [0, 1], d)
        table = dict(zip(counts.entities, counts.per_cluster.tolist()))
        # "brca 1" and "brca_1" are never one token; "x" is below the
        # tokenizer's minimum; the two-character symbol "ab" matches.
        assert table == {"ab": [2, 0], "brca1": [1, 2], "x": [0, 0]}

    def test_singleton_tokens_are_matched(self):
        corpus = Corpus([Document(id="d1", text="zzgene once"), Document(id="d2", text="other text")])
        d = dictionary_of(("ZZGENE", (), ""))
        counts = assert_equals_reference(corpus, [5, 9], d)
        assert counts.per_cluster.tolist() == [[1, 0]]

    def test_empty_vocabulary(self):
        corpus = Corpus([Document(id="d1", text="a b c"), Document(id="d2", text="...")])
        counts = assert_equals_reference(corpus, [0, 1], probe_dictionary())
        assert counts.per_cluster.shape == (3, 2)
        assert counts.globals.tolist() == [0, 0, 0]

    def test_empty_corpus(self):
        for mode in ("gene", "molecular"):
            counts = count_occurrences(Corpus([]), [], probe_dictionary(), mode=mode)
            assert counts.per_cluster.shape == (3, 0)
            assert counts.per_cluster.dtype == np.int64
            assert counts.cluster_ids == ()
            assert counts.cluster_sizes.shape == (0,)
            assert counts.cluster_sizes.dtype == np.int64
            assert counts.total_docs == 0
        assert_equals_reference(Corpus([]), [], probe_dictionary())


class TestCounting:
    def test_absent_gene_counts_zero(self):
        corpus, assignments = probe_corpus()
        d = dictionary_of(("NOSUCH", (), ""))
        counts = count_occurrences(corpus, assignments, d, mode="gene")
        assert counts.globals.tolist() == [0]

    def test_token_occurrences_counted_per_mention(self):
        corpus, assignments = probe_corpus()
        counts = count_occurrences(corpus, assignments, probe_dictionary(), mode="gene")
        row = counts.entities.index("brca1")
        # "BRCA1" + "brca1" in a1 plus "BRCA-1" in a2, all in cluster 0.
        assert counts.per_cluster[row].tolist() == [3, 0, 0]

    def test_hand_tally_matches(self):
        corpus, assignments = probe_corpus()
        counts = count_occurrences(corpus, assignments, probe_dictionary(), mode="gene")
        table = {
            entity: counts.per_cluster[i].tolist()
            for i, entity in enumerate(counts.entities)
        }
        assert table == {
            "brca1": [3, 0, 0],
            "tp53": [1, 2, 0],
            "erbb2": [0, 0, 1],
        }
        assert counts.cluster_sizes.tolist() == [2, 2, 1]
        assert counts.total_docs == 5
        by_entity = dict(zip(counts.entities, counts.globals.tolist()))
        assert by_entity == {"brca1": 3, "tp53": 3, "erbb2": 1}

    def test_molecular_mode_counts_documents_once(self):
        docs = [
            Document(id="m1", text="This tumor  protein matters; tumor protein again."),
            Document(id="m2", text="unrelated text"),
        ]
        corpus = Corpus(docs)
        d = dictionary_of(("TP53", (), "Tumor Protein"))
        counts = count_occurrences(corpus, [0, 1], d, mode="molecular")
        row = counts.entities.index("tp53")
        # Mentioned twice in m1 but counted once; whitespace normalized.
        assert counts.per_cluster[row].tolist() == [1, 0]

    def test_molecular_mode_normalizes_documents_built_directly(self):
        # load_corpus normalizes whitespace, a Corpus of Documents does
        # not: the probe's own normalize_text is what makes this match.
        corpus = Corpus([Document(id="m1", text="a tumor  \n protein here")])
        d = dictionary_of(("TP53", (), "Tumor Protein"))
        counts = count_occurrences(corpus, [0], d, mode="molecular")
        assert counts.per_cluster.tolist() == [[1]]

    def test_document_order_within_clusters_irrelevant(self):
        corpus, assignments = probe_corpus()
        d = probe_dictionary()
        a = count_occurrences(corpus, assignments, d, mode="gene")
        # Feed the same documents in a different order with the same map.
        reordered = Corpus(list(corpus)[::-1])
        mapping = dict(zip([doc.id for doc in corpus], assignments))
        b = count_occurrences(
            reordered, [mapping[doc.id] for doc in reordered], d, mode="gene"
        )
        assert (a.per_cluster == b.per_cluster).all()

    def test_assignment_length_checked(self):
        corpus, _ = probe_corpus()
        with pytest.raises(ValueError):
            count_occurrences(corpus, [0], probe_dictionary())


class TestRelativeWeights:
    def test_proportional_distribution_is_zero(self):
        counts = ProbeCounts(
            mode="gene",
            entities=("g1",),
            per_cluster=np.array([[10, 10]]),
            cluster_ids=(0, 1),
            cluster_sizes=np.array([50, 50]),
            total_docs=100,
        )
        report = relative_weights(counts)
        assert report.clusters[0].entries[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_overrepresentation_is_positive(self):
        counts = ProbeCounts(
            mode="gene",
            entities=("g1",),
            per_cluster=np.array([[15, 5]]),
            cluster_ids=(0, 1),
            cluster_sizes=np.array([50, 50]),
            total_docs=100,
        )
        report = relative_weights(counts)
        # 15 - 20 * 50/100 = +5
        assert report.clusters[0].entries[0][2] == pytest.approx(5.0, abs=1e-12)
        assert report.clusters[1].entries[0][2] == pytest.approx(-5.0, abs=1e-12)

    def test_zero_sum_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_e = int(rng.integers(1, 8))
            n_k = int(rng.integers(1, 6))
            per_cluster = rng.integers(0, 30, size=(n_e, n_k))
            sizes = rng.integers(1, 40, size=n_k)
            counts = ProbeCounts(
                mode="gene",
                entities=tuple(f"g{i}" for i in range(n_e)),
                per_cluster=per_cluster,
                cluster_ids=tuple(range(n_k)),
                cluster_sizes=sizes,
                total_docs=int(sizes.sum()),
            )
            report = relative_weights(counts)
            sums = {}
            for ranking in report.clusters:
                for entity, _count, weight in ranking.entries:
                    sums[entity] = sums.get(entity, 0.0) + weight
            for total in sums.values():
                assert abs(total) <= 1e-9

    def test_entries_equal_a_per_entity_reference(self):
        """Each cluster's entries are (entity, int count, float weight),
        weight descending with a tie to the smaller name, exactly as one
        entity at a time computes them, also when the entities are not
        listed in name order."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            n_e, n_k = int(rng.integers(0, 9)), int(rng.integers(1, 5))
            names = [f"g{i}" for i in range(n_e)]
            rng.shuffle(names)
            # Few distinct counts and equal sizes make many ties.
            per_cluster = rng.integers(0, 3, size=(n_e, n_k)) * rng.integers(0, 2, size=(n_e, 1))
            sizes = np.full(n_k, 5) if rng.integers(2) else rng.integers(1, 9, size=n_k)
            counts = ProbeCounts(
                mode="gene",
                entities=tuple(names),
                per_cluster=per_cluster,
                cluster_ids=tuple(range(10, 10 + n_k)),
                cluster_sizes=sizes,
                total_docs=int(sizes.sum()),
            )
            report = relative_weights(counts)
            for j, ranking in enumerate(report.clusters):
                want = []
                for i, entity in enumerate(names):
                    total = int(per_cluster[i].sum())
                    if total:
                        observed = int(per_cluster[i, j])
                        want.append((entity, observed, observed - total * float(sizes[j] / sizes.sum())))
                want.sort(key=lambda t: (-t[2], t[0]))
                assert ranking.cluster == 10 + j
                assert ranking.entries == tuple(want)
                assert all(type(n) is int and type(w) is float for _, n, w in ranking.entries)

    def test_unseen_entities_omitted(self):
        corpus, assignments = probe_corpus()
        d = dictionary_of(("BRCA1", (), ""), ("GHOST", (), ""))
        report = relative_weights(count_occurrences(corpus, assignments, d))
        assert "ghost" not in report.entity_globals
        assert "brca1" in report.entity_globals


class TestNetwork:
    def test_seven_entities_one_cluster_top_five(self):
        corpus_entries = tuple(
            (f"g{i}", 1, float(7 - i)) for i in range(7)
        )
        from litclust.probe import ClusterRanking, ProbeReport

        report = ProbeReport(
            mode="gene",
            clusters=(ClusterRanking(cluster=0, entries=corpus_entries),),
            entity_globals={f"g{i}": 1 for i in range(7)},
            cluster_sizes={0: 10},
            total_docs=10,
        )
        net = build_network(report)
        kinds = [n.kind for n in net.nodes]
        assert kinds.count("cluster") == 1
        assert kinds.count("entity") == 5
        assert len(net.edges) == 5
        assert net.short_clusters == ()

    def test_shared_entity_merged_across_clusters(self):
        from litclust.probe import ClusterRanking, ProbeReport

        report = ProbeReport(
            mode="gene",
            clusters=(
                ClusterRanking(cluster=0, entries=(("tp53", 4, 2.0),)),
                ClusterRanking(cluster=1, entries=(("tp53", 3, 1.0),)),
            ),
            entity_globals={"tp53": 7},
            cluster_sizes={0: 5, 1: 5},
            total_docs=10,
        )
        net = build_network(report, top_n=5)
        entity_nodes = [n for n in net.nodes if n.kind == "entity"]
        assert len(entity_nodes) == 1
        degree = sum(1 for e in net.edges if e.target == "entity:tp53")
        assert degree == 2

    def test_short_cluster_flagged_and_negative_weights_excluded(self):
        from litclust.probe import ClusterRanking, ProbeReport

        report = ProbeReport(
            mode="gene",
            clusters=(
                ClusterRanking(
                    cluster=0,
                    entries=(("aa", 2, 1.5), ("bb", 1, 0.5), ("cc", 0, -2.0)),
                ),
            ),
            entity_globals={"aa": 2, "bb": 1, "cc": 2},
            cluster_sizes={0: 4},
            total_docs=8,
        )
        net = build_network(report, top_n=5)
        assert len(net.edges) == 2
        assert all(e.weight > 0 for e in net.edges)
        assert net.short_clusters == (0,)

    def test_end_to_end_hand_fixture(self):
        corpus, assignments = probe_corpus()
        report = relative_weights(
            count_occurrences(corpus, assignments, probe_dictionary())
        )
        net = build_network(report, top_n=5)
        node_ids = {n.id for n in net.nodes}
        assert {"cluster:0", "cluster:1", "cluster:2"} <= node_ids
        # cluster 0 overexpresses brca1, cluster 1 tp53, cluster 2 erbb2.
        weights = {(e.source, e.target): e.weight for e in net.edges}
        assert weights[("cluster:0", "entity:brca1")] == pytest.approx(3 - 3 * 2 / 5)
        assert weights[("cluster:1", "entity:tp53")] == pytest.approx(2 - 3 * 2 / 5)
        assert weights[("cluster:2", "entity:erbb2")] == pytest.approx(1 - 1 * 1 / 5)

    def test_idempotent(self):
        corpus, assignments = probe_corpus()
        report = relative_weights(
            count_occurrences(corpus, assignments, probe_dictionary())
        )
        assert build_network(report) == build_network(report)


class TestExport:
    def golden_net(self):
        from litclust.probe import Edge, Network, Node

        return Network(
            nodes=(
                Node(id="cluster:0", kind="cluster", label="cluster 0"),
                Node(id="entity:brca1", kind="entity", label="brca1"),
            ),
            edges=(Edge(source="cluster:0", target="entity:brca1", weight=1.25),),
        )

    @pytest.mark.parametrize("fmt", ["graphml", "dot", "json"])
    def test_golden_files(self, fmt):
        golden = (DATA / f"golden_network.{fmt}").read_bytes()
        assert export_network(self.golden_net(), fmt) == golden

    def test_empty_network_valid(self):
        from litclust.probe import Network

        empty = Network(nodes=(), edges=())
        ET.fromstring(export_network(empty, "graphml"))
        json.loads(export_network(empty, "json"))
        assert export_network(empty, "dot").startswith(b"graph clusters {")

    def test_graphml_well_formed(self):
        corpus, assignments = probe_corpus()
        report = relative_weights(
            count_occurrences(corpus, assignments, probe_dictionary())
        )
        net = build_network(report)
        root = ET.fromstring(export_network(net, "graphml"))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        nodes = root.findall(f".//{ns}node")
        edges = root.findall(f".//{ns}edge")
        assert len(nodes) == len(net.nodes)
        assert len(edges) == len(net.edges)

    def test_deterministic_bytes(self):
        corpus, assignments = probe_corpus()
        report = relative_weights(
            count_occurrences(corpus, assignments, probe_dictionary())
        )
        net = build_network(report)
        for fmt in ("graphml", "dot", "json"):
            assert export_network(net, fmt) == export_network(net, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_network(self.golden_net(), "gexf")


def test_report_json_roundtrip(tmp_path):
    corpus, assignments = probe_corpus()
    report = relative_weights(
        count_occurrences(corpus, assignments, probe_dictionary())
    )
    (tmp_path / "report.json").write_text(report_to_json(report), encoding="utf-8")
    back = load_report(tmp_path / "report.json")
    assert back.mode == report.mode
    assert back.entity_globals == report.entity_globals
    assert back.cluster_sizes == report.cluster_sizes
    assert back.clusters == report.clusters
    assert build_network(back) == build_network(report)


def test_malformed_report_json_raises_parse_error(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"mode": "gene"}', encoding="utf-8")
    with pytest.raises(ParseError, match="report.json: malformed probe report"):
        load_report(path)
    path.write_text('{"mode": ', encoding="utf-8")
    with pytest.raises(ParseError, match="report.json: invalid JSON"):
        load_report(path)


@pytest.mark.parametrize("path,value", [
    (("total_docs",), 4.0), (("total_docs",), "4"), (("cluster_sizes", "0"), 1.5),
    (("entity_globals", "brca1"), False), (("entity_globals", "brca1"), "3"),
])
def test_report_json_counts_are_integers(tmp_path, path, value):
    doc = {
        "mode": "gene", "total_docs": 4, "cluster_sizes": {"0": 4},
        "entity_globals": {"brca1": 3},
        "clusters": {"0": [{"entity": "brca1", "count": 3, "relative_weight": 0.25}]},
    }
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_report(report_path).total_docs == 4
    *parents, key = path
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = value
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match="is no integer count"):
        load_report(report_path)


RECORD_TEXT = st.lists(
    st.sampled_from(KEY_POOL + NOISE_POOL + ("tumor protein", "dna repair")), max_size=8
).map(" ".join)


@st.composite
def labeled_records(draw):
    texts = draw(st.lists(RECORD_TEXT, min_size=1, max_size=8))
    return [
        {"id": f"p{i:02d}", "text": text or "empty", "label": f"c{i % 2}", "cluster": draw(st.integers(0, 3))}
        for i, text in enumerate(texts)
    ]


def records_dictionary():
    return dictionary_of(
        ("BRCA1", ("brca-1", "BRCA 1"), "DNA repair"),
        ("TP53", ("p53", "er"), "tumor protein"),
        ("AB", ("Her-2",), ""),
    )


def load_records(records, directory):
    path = Path(directory) / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    corpus = load_corpus(path)
    cluster = {r["id"]: r["cluster"] for r in records}
    return corpus, [cluster[d.id] for d in corpus]


@settings(max_examples=40, deadline=None)
@given(records=labeled_records(), data=st.data())
def test_counts_do_not_depend_on_record_order(records, data):
    shuffled = data.draw(st.permutations(records), label="order")
    outputs = []
    for recs in (records, shuffled):
        with tempfile.TemporaryDirectory() as tmp:
            corpus, assignments = load_records(recs, tmp)
        m = corpus.term_counts
        probes = [
            count_occurrences(corpus, assignments, records_dictionary(), mode=mode)
            for mode in ("gene", "molecular")
        ]
        outputs.append((
            m.terms, m.docs, m.counts.indptr.tobytes(), m.counts.indices.tobytes(),
            m.counts.data.tobytes(),
            *((p.entities, p.per_cluster.tobytes(), p.cluster_ids, p.cluster_sizes.tobytes())
              for p in probes),
        ))
    assert outputs[0] == outputs[1]


@settings(max_examples=40, deadline=None)
@given(records=labeled_records(), mode=st.sampled_from(("gene", "molecular")))
def test_probe_weights_sum_to_zero_per_entity(records, mode):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, assignments = load_records(records, tmp)
    report = relative_weights(count_occurrences(corpus, assignments, records_dictionary(), mode=mode))
    sums = dict.fromkeys(report.entity_globals, 0.0)
    for ranking in report.clusters:
        for entity, _count, weight in ranking.entries:
            sums[entity] += weight
    for total in sums.values():
        assert abs(total) <= 1e-9
