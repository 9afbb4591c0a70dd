import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litclust.cli import MADE_FROM, main
from litclust.corpus import Corpus, Document, load_corpus, save_jsonl
from litclust.sweep import SweepSpec, run_sweep

from helpers import make_planted_corpus, subprocess_env

DATA = Path(__file__).parent / "data"

TOPIC_GENES = ["brca1", "tp53", "her2", "esr1"]

# Sweep sections that are wrong: a string budget, a string or a number
# where a list belongs, a fractional K, unknown keys (a typo, and the
# seed, which comes from the top level) and zero restarts.
BAD_SWEEPS = [
    {"budget": "5"},
    {"d_values": "abc"},
    {"n_values": 3},
    {"k_values": [2.5, 3]},
    {"budjet": 5},
    {"seed": 7},
    {"restarts": 0},
]


def gene_corpus(seed=0, docs_per_topic=25):
    """Planted 4-topic corpus with topic-specific gene mentions."""
    rng = np.random.default_rng(seed)
    docs = []
    for t in range(4):
        vocab = [f"topic{t}term{i:02d}" for i in range(20)]
        for j in range(docs_per_topic):
            words = list(rng.choice(vocab, size=20))
            words += [TOPIC_GENES[t], TOPIC_GENES[t]]
            docs.append(
                Document(id=f"d{t}{j:03d}", text=" ".join(words), label=f"class{t}")
            )
    return Corpus(docs)


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_jsonl(gene_corpus(), tmp_path / "corpus.jsonl")
    config = {
        "corpus": "corpus.jsonl",
        "dictionary": str(DATA / "dictionary_10.json"),
        "out": "out",
        "seed": 3,
        "restarts": 3,
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def count_calls(monkeypatch, module, name, calls):
    """Replace ``module.name`` with a wrapper that tallies its calls in ``calls``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestIngest:
    def test_writes_canonical_corpus_and_manifest(self, workspace, capsys):
        assert run_cli("ingest", "--config", "config.json") == 0
        out = workspace / "out"
        assert (out / "corpus.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "corpus.jsonl" in manifest["artifacts"]
        assert manifest["seed"] == 3

    def test_missing_corpus_exits_2_without_artifacts(self, workspace, capsys):
        code = run_cli("ingest", "--corpus", "nope.jsonl", "--out", "fresh")
        assert code == 2
        assert not (workspace / "fresh").exists()

    def test_json_output_mode(self, workspace, capsys):
        assert run_cli("ingest", "--config", "config.json", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "ingest"
        assert payload["documents"] == 100

    def test_pubmed_xml_ingest(self, workspace):
        code = run_cli(
            "ingest",
            "--corpus", str(DATA / "pubmed_two_records.xml"),
            "--corpus-format", "pubmed_xml",
            "--out", "xmlout",
        )
        assert code == 0
        lines = (workspace / "xmlout" / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 2


class TestStages:
    def test_vectorize_artifacts(self, workspace):
        """vectorize stages only files that a later command reads, each
        under a provenance check, and the manifest."""
        assert run_cli("vectorize", "--config", "config.json") == 0
        staged = {path.name for path in (workspace / "out").iterdir()}
        assert staged == {"weights.mtx", "vocabulary.tsv", "documents.json", "manifest.json"}
        assert staged - {"manifest.json"} <= set(MADE_FROM)

    def test_vectorize_counts_the_corpus_once(self, workspace, monkeypatch):
        import litclust.vectorize
        from scipy.io import mmread

        from litclust.corpus import load_corpus

        calls = {}
        count_calls(monkeypatch, litclust.vectorize, "count_matrix", calls)
        assert run_cli("vectorize", "--config", "config.json") == 0
        assert calls == {"count_matrix": 1}
        weighted = litclust.vectorize.build_weighted_matrix(load_corpus(workspace / "corpus.jsonl"))
        dumped = mmread(workspace / "out" / "weights.mtx")
        assert (dumped.toarray() == weighted.weights.toarray()).all()

    def test_embed_artifact(self, workspace):
        assert run_cli("embed", "--config", "config.json") == 0
        lines = (workspace / "out" / "embedding.tsv").read_text().splitlines()
        assert len(lines) == 100
        assert len(lines[0].split("\t")) == 16  # id + 15 dims

    def test_cluster_then_evaluate_staged(self, workspace, capsys):
        assert run_cli("cluster", "--config", "config.json") == 0
        assert (workspace / "out" / "assignments.tsv").exists()
        assert run_cli("evaluate", "--config", "config.json", "--json") == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["v_measure"] >= 0.95
        metrics = json.loads((workspace / "out" / "metrics.json").read_text())
        assert metrics["v_measure"] == pytest.approx(payload["v_measure"])

    def test_evaluate_standalone_matches_staged(self, workspace, capsys):
        run_cli("cluster", "--config", "config.json")
        run_cli("evaluate", "--config", "config.json")
        staged = (workspace / "out" / "metrics.json").read_text()
        run_cli("evaluate", "--config", "config.json", "--out", "solo")
        solo = (workspace / "solo" / "metrics.json").read_text()
        assert solo == staged

    def test_flag_overrides_config(self, workspace, capsys):
        assert run_cli("cluster", "--config", "config.json", "--k", "2", "--json") == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["k"] == 2

    def test_rerun_manifest_identical(self, workspace):
        run_cli("evaluate", "--config", "config.json")
        first = (workspace / "out" / "manifest.json").read_bytes()
        run_cli("evaluate", "--config", "config.json")
        assert (workspace / "out" / "manifest.json").read_bytes() == first

    def test_chain_into_another_out_writes_identical_files(self, workspace):
        # The second chain reads copies of the corpus and the dictionary
        # at other paths.
        moved = workspace / "moved"
        moved.mkdir()
        config = json.loads((workspace / "config.json").read_text())
        for key, name in (("corpus", "copied.jsonl"), ("dictionary", "copied_dictionary.json")):
            shutil.copyfile(config[key], moved / name)
            config[key] = str(moved / name)
        (moved / "config.json").write_text(json.dumps(config), encoding="utf-8")
        for out, config_path in (("first", "config.json"), ("second", "moved/config.json")):
            for command in ("vectorize", "embed", "cluster", "evaluate", "probe", "export"):
                assert run_cli(command, "--config", config_path, "--out", out) == 0, (out, command)
        first, second = workspace / "first", workspace / "second"
        names = sorted(p.name for p in first.iterdir())
        assert "manifest.json" in names
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name


class TestProbeExport:
    def test_probe_writes_report_and_network(self, workspace, capsys):
        run_cli("cluster", "--config", "config.json")
        assert run_cli("probe", "--config", "config.json", "--json") == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["clusters"] == 4
        out = workspace / "out"
        assert (out / "probe_report.json").exists()
        assert (out / "network.graphml").exists()
        report = json.loads((out / "probe_report.json").read_text())
        assert set(report["entity_globals"]) == {"brca1", "tp53", "erbb2", "esr1"}

    def test_probe_molecular_mode(self, workspace):
        run_cli("cluster", "--config", "config.json")
        code = run_cli("probe", "--config", "config.json", "--mode", "molecular")
        assert code == 0

    def test_export_reformats_report(self, workspace):
        run_cli("cluster", "--config", "config.json")
        run_cli("probe", "--config", "config.json")
        assert run_cli("export", "--config", "config.json", "--format", "dot") == 0
        dot = (workspace / "out" / "network.dot").read_bytes()
        assert dot.startswith(b"graph clusters {")

    def test_probe_without_dictionary_exits_2(self, workspace):
        assert run_cli("probe", "--corpus", "corpus.jsonl") == 2

    @pytest.mark.parametrize(
        "chain,key,value",
        [(("cluster", "probe", "export"), "k", 3), (("probe", "export"), "probe_mode", "molecular")],
    )
    def test_a_chain_by_flags_alone_exports_what_its_config_does(self, workspace, chain, key, value):
        """Each command takes a flag for every value its staged inputs are
        checked against, so ``export`` follows ``probe`` without a config."""
        config = json.loads((workspace / "config.json").read_text())
        (workspace / "configured.json").write_text(json.dumps({**config, key: value, "out": "configured"}))
        flag = {"k": "--k", "probe_mode": "--mode"}[key]
        named = {"--corpus": "corpus.jsonl", "--seed": "3", "--restarts": "3", "--out": "flagged"}
        for command in chain:
            flags = {**named, flag: str(value)}
            if command != "cluster":
                flags["--dict"] = config["dictionary"]
            assert run_cli(command, *(arg for item in flags.items() for arg in item)) == 0, command
            assert run_cli(command, "--config", "configured.json") == 0, command
        network = "network.graphml"
        assert (workspace / "flagged" / network).read_bytes() == (workspace / "configured" / network).read_bytes()


class TestStaleArtifacts:
    def test_evaluate_refuses_assignments_clustered_at_another_k(self, workspace, capsys):
        assert run_cli("cluster", "--config", "config.json", "--k", "4") == 0
        assert run_cli("evaluate", "--config", "config.json", "--k", "4") == 0
        metrics_path = workspace / "out" / "metrics.json"
        metrics = metrics_path.read_bytes()
        capsys.readouterr()
        assert run_cli("evaluate", "--config", "config.json", "--k", "9") == 2
        err = capsys.readouterr().err
        assert "k=4" in err and "k=9" in err
        assert metrics_path.read_bytes() == metrics
        assert run_cli("evaluate", "--config", "config.json", "--k", "4") == 0
        assert metrics_path.read_bytes() == metrics

    @pytest.mark.parametrize(
        "command,change",
        [
            ("evaluate", {"seed": 4}),
            ("probe", {"restarts": 2}),
            ("probe", {"n_dims": 10}),
            ("export", {"d": 0.4}),
            ("export", {"probe_mode": "molecular"}),
        ],
    )
    def test_staged_artifact_from_other_config_exits_2(self, workspace, capsys, command, change):
        assert run_cli("cluster", "--config", "config.json") == 0
        assert run_cli("probe", "--config", "config.json") == 0
        config = json.loads((workspace / "config.json").read_text())
        (workspace / "other.json").write_text(json.dumps({**config, **change}))
        capsys.readouterr()
        assert run_cli(command, "--config", "other.json") == 2
        (field, value), = change.items()
        assert f"{field}={value!r}" in capsys.readouterr().err
        assert run_cli(command, "--config", "config.json") == 0

    def test_changed_corpus_is_refused(self, workspace, capsys):
        assert run_cli("cluster", "--config", "config.json") == 0
        save_jsonl(gene_corpus(seed=1), workspace / "corpus.jsonl")
        assert run_cli("evaluate", "--config", "config.json") == 2
        assert "corpus_sha256" in capsys.readouterr().err

    def test_each_command_hashes_the_corpus_once(self, workspace, monkeypatch):
        import litclust.cli

        hashed = []
        real = litclust.cli._sha256

        def counted(path):
            hashed.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(litclust.cli, "_sha256", counted)
        for command in ("vectorize", "embed", "cluster", "evaluate", "probe", "export"):
            hashed.clear()
            assert run_cli(command, "--config", "config.json") == 0
            assert hashed.count("corpus.jsonl") == 1, command
            # The config hash covers the dictionary's contents, so every
            # command hashes it too, once.
            assert hashed.count("dictionary_10.json") == 1, command

    def test_provenance_records_exactly_the_made_from_keys(self, workspace):
        for command in ("vectorize", "embed", "cluster", "probe"):
            assert run_cli(command, "--config", "config.json") == 0
        provenance = json.loads((workspace / "out" / "manifest.json").read_text())["provenance"]
        assert {name: sorted(record) for name, record in provenance.items()} == {
            name: sorted(keys) for name, keys in MADE_FROM.items()
        }

    def test_readme_table_lists_made_from(self):
        """The README's staged-artifact table names each artifact and the
        keys it is made from, as ``MADE_FROM`` does."""
        lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
        start = lines.index("| artifact | written by | made from | read by | on a mismatch |")
        table = {}
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            artifact, _, made_from = (cell.strip() for cell in line.strip("|").split("|")[:3])
            table[artifact.strip("`")] = tuple(key.strip(" `") for key in made_from.split(","))
        assert table == MADE_FROM

    def test_readme_cli_block_lists_what_each_command_writes(self, workspace, capsys):
        """The comment on each command of the README's CLI block names the
        artifacts the command reports writing."""
        lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
        listed = {}
        start = next(i for i, line in enumerate(lines) if line.startswith("litclust ingest"))
        for line in lines[start:lines.index("```", start)]:
            command, _, comment = line.partition("#")
            if comment:
                listed[command.split()[1]] = sorted(name.strip() for name in comment.split(","))
        config = json.loads((workspace / "config.json").read_text())
        config["sweep"] = {"d_values": [0.5], "r_values": [5], "n_values": [5], "k_values": [2], "budget": 1}
        (workspace / "config.json").write_text(json.dumps(config))
        capsys.readouterr()
        for command in ("vectorize", "embed", "cluster", "evaluate", "sweep"):
            assert run_cli(command, "--config", "config.json", "--json") == 0
            written = json.loads(capsys.readouterr().out)["artifacts"]
            assert listed[command] == sorted(Path(path).name for path in written), command

    @pytest.mark.parametrize("damage", [
        b"", b'{"artifacts": {', b"[]", b"\xff\xfe",
        b'{"artifacts": []}', b'{"provenance": []}', b'{"provenance": {"assignments.tsv": 4}}',
    ])
    def test_malformed_manifest_exits_3(self, workspace, capsys, damage):
        assert run_cli("cluster", "--config", "config.json", "--k", "4") == 0
        manifest_path = workspace / "out" / "manifest.json"
        manifest_path.write_bytes(damage)
        capsys.readouterr()
        assert run_cli("evaluate", "--config", "config.json", "--k", "9") == 3
        assert "manifest.json" in capsys.readouterr().err
        assert not (workspace / "out" / "metrics.json").exists()
        assert manifest_path.read_bytes() == damage

    @pytest.mark.parametrize("command", ["ingest", "vectorize", "cluster"])
    def test_malformed_manifest_leaves_the_directory_as_it_was(self, workspace, capsys, command):
        out = workspace / "out"
        out.mkdir()
        (out / "manifest.json").write_bytes(b'{"artifacts": {')
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run_cli(command, "--config", "config.json") == 3
        assert "manifest.json: invalid JSON" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_manifest_is_replaced_whole(self, workspace, monkeypatch):
        import litclust.base

        replaced = []
        real = litclust.base.os.replace

        def recording(src, dst):
            replaced.append((Path(src).name, Path(dst).name, json.loads(Path(src).read_text())))
            return real(src, dst)

        monkeypatch.setattr(litclust.base.os, "replace", recording)
        assert run_cli("cluster", "--config", "config.json") == 0
        (src, dst, written), = replaced
        assert src.startswith("manifest.json.") and src.endswith(".tmp")
        assert dst == "manifest.json"
        out = workspace / "out"
        assert written == json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == [
            "assignments.tsv", "cluster_run.json", "manifest.json",
        ]

    def test_manifest_gets_the_mode_of_the_other_artifacts(self, workspace):
        old = os.umask(0o027)
        try:
            assert run_cli("cluster", "--config", "config.json") == 0
        finally:
            os.umask(old)
        out = workspace / "out"
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
        assert modes == dict.fromkeys(["assignments.tsv", "cluster_run.json", "manifest.json"], 0o640)

    def test_explicit_assignments_are_taken_as_given(self, workspace):
        assert run_cli("cluster", "--config", "config.json", "--k", "4") == 0
        code = run_cli(
            "evaluate", "--config", "config.json", "--k", "9",
            "--assignments", "out/assignments.tsv", "--out", "scored",
        )
        assert code == 0


class TestUnvouchedStagedFiles:
    """A staged ``assignments.tsv`` the manifest has no record of, or one
    changed since it was recorded, is recomputed; a staged
    ``probe_report.json`` in that state is refused by ``export``, which
    has nothing to recompute it from.  Explicit paths are taken as given."""

    ARTIFACTS = {"evaluate": "metrics.json", "probe": "probe_report.json"}

    def one_cluster(self, workspace):
        """An assignments file that puts every document in cluster 0."""
        ids = [json.loads(line)["id"] for line in (workspace / "corpus.jsonl").read_text().splitlines()]
        return "".join(f"{doc_id}\t0\n" for doc_id in ids)

    @pytest.mark.parametrize("command", ["evaluate", "probe"])
    @pytest.mark.parametrize("case", ["no_manifest", "no_record", "edited"])
    def test_staged_assignments_are_recomputed(self, workspace, command, case):
        out = workspace / "out"
        if case == "no_manifest":
            out.mkdir()
        else:
            assert run_cli("cluster", "--config", "config.json") == 0
        if case == "no_record":
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["provenance"]["assignments.tsv"]
            (out / "manifest.json").write_text(json.dumps(manifest))
        (out / "assignments.tsv").write_text(self.one_cluster(workspace))
        assert run_cli(command, "--config", "config.json") == 0
        assert run_cli(command, "--config", "config.json", "--out", "solo") == 0
        name = self.ARTIFACTS[command]
        assert (out / name).read_bytes() == (workspace / "solo" / name).read_bytes()
        if command == "evaluate":
            assert json.loads((out / name).read_text())["v_measure"] > 0.5

    def test_explicit_unrecorded_assignments_are_taken_as_given(self, workspace):
        (workspace / "mine.tsv").write_text(self.one_cluster(workspace))
        assert run_cli("evaluate", "--config", "config.json", "--assignments", "mine.tsv") == 0
        assert json.loads((workspace / "out" / "metrics.json").read_text())["v_measure"] == 0.0

    @pytest.mark.parametrize("case", ["no_manifest", "no_record", "edited"])
    def test_export_refuses_an_unvouched_report(self, workspace, capsys, case):
        assert run_cli("cluster", "--config", "config.json") == 0
        assert run_cli("probe", "--config", "config.json") == 0
        out = workspace / "out"
        report_path = out / "probe_report.json"
        if case == "no_manifest":
            (out / "manifest.json").unlink()
        elif case == "no_record":
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["provenance"]["probe_report.json"]
            (out / "manifest.json").write_text(json.dumps(manifest))
        else:
            report = json.loads(report_path.read_text())
            report["clusters"] = {}
            report_path.write_text(json.dumps(report))
        network = (out / "network.graphml").read_bytes()
        capsys.readouterr()
        assert run_cli("export", "--config", "config.json") == 2
        err = capsys.readouterr().err
        assert "probe" in err and "--report" in err
        assert (out / "network.graphml").read_bytes() == network
        assert run_cli("export", "--config", "config.json", "--report", str(report_path)) == 0

    @pytest.mark.parametrize("config", [{"out": "out"}, {"corpus": "moved.jsonl", "out": "out"}])
    def test_export_trusts_a_recorded_report_without_the_corpus(self, workspace, config):
        """The report's record names the corpus and dictionary digests;
        a config naming neither file, or a corpus no longer there, leaves
        them uncompared."""
        assert run_cli("cluster", "--config", "config.json") == 0
        assert run_cli("probe", "--config", "config.json") == 0
        network_path = workspace / "out" / "network.graphml"
        network = network_path.read_bytes()
        network_path.unlink()
        (workspace / "bare.json").write_text(json.dumps({**config, "seed": 3, "restarts": 3}))
        assert run_cli("export", "--config", "bare.json") == 0
        assert network_path.read_bytes() == network


class TestStagedWeights:
    """``embed`` and ``cluster``, and ``evaluate`` and ``probe`` when they
    cluster, read the weights ``vectorize`` staged for the same corpus, d
    and r, and weigh afresh in every other case."""

    ARTIFACTS = {"embed": "embedding.tsv", "cluster": "assignments.tsv",
                 "evaluate": "metrics.json", "probe": "probe_report.json"}

    def standalone(self, command, *flags):
        """The artifact ``command`` writes alone in a fresh directory."""
        out = Path(f"solo_{command}")
        assert run_cli(command, "--config", "config.json", "--out", str(out), *flags) == 0
        return (out / self.ARTIFACTS[command]).read_bytes()

    def test_vectorize_records_the_weights_provenance(self, workspace):
        assert run_cli("vectorize", "--config", "config.json") == 0
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        corpus_sha256 = hashlib.sha256((workspace / "corpus.jsonl").read_bytes()).hexdigest()
        record = {"corpus_sha256": corpus_sha256, "d": 0.5, "r": 5}
        documents = {"corpus_sha256": corpus_sha256, "corpus_format": "jsonl", "class_labels": None}
        assert manifest["provenance"] == {
            "weights.mtx": record, "vocabulary.tsv": record, "documents.json": documents,
        }

    def test_chain_counts_once_and_matches_standalone_runs(self, workspace, monkeypatch):
        import litclust.cli
        import litclust.vectorize

        # A gene-mode probe reads the corpus's counts for its own matching,
        # so the chain probes in molecular mode.  Only vectorize and probe,
        # which read texts, parse the corpus.
        chain = {"probe": ("--mode", "molecular")}
        calls = {}
        count_calls(monkeypatch, litclust.vectorize, "count_matrix", calls)
        count_calls(monkeypatch, litclust.cli, "load_corpus", calls)
        for command in ("vectorize", "embed", "cluster", "evaluate", "probe"):
            assert run_cli(command, "--config", "config.json", *chain.get(command, ())) == 0
        assert calls == {"count_matrix": 1, "load_corpus": 2}
        staged = {name: (workspace / "out" / name).read_bytes() for name in self.ARTIFACTS.values()}
        for command, name in self.ARTIFACTS.items():
            assert self.standalone(command, *chain.get(command, ())) == staged[name], name

    @pytest.mark.parametrize("command", ["embed", "cluster"])
    @pytest.mark.parametrize(
        "case", ["d", "r", "corpus", "weights", "vocabulary", "no_record", "deleted"]
    )
    def test_anything_else_is_weighed_afresh(self, workspace, monkeypatch, command, case):
        import litclust.vectorize
        from scipy.io import mmread, mmwrite

        assert run_cli("vectorize", "--config", "config.json") == 0
        out = workspace / "out"
        flags = {"d": ("--d", "0.4"), "r": ("--r", "6")}.get(case, ())
        if case == "corpus":
            save_jsonl(gene_corpus(seed=1), workspace / "corpus.jsonl")
        elif case == "weights":
            mmwrite(out / "weights.mtx", mmread(out / "weights.mtx") * 2.0)
        elif case == "vocabulary":
            path = out / "vocabulary.tsv"
            path.write_text(path.read_text().replace("topic0", "topicX"))
        elif case == "no_record":
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["provenance"]
            (out / "manifest.json").write_text(json.dumps(manifest))
        elif case == "deleted":
            (out / "weights.mtx").unlink()
        calls = {}
        count_calls(monkeypatch, litclust.vectorize, "count_matrix", calls)
        count_calls(monkeypatch, litclust.vectorize, "load_weighted_matrix", calls)
        assert run_cli(command, "--config", "config.json", *flags) == 0
        assert calls == {"count_matrix": 1}
        staged = (out / self.ARTIFACTS[command]).read_bytes()
        assert self.standalone(command, *flags) == staged

    @pytest.mark.parametrize("command", ["embed", "cluster"])
    @pytest.mark.parametrize("damage,message", [("extra_row", "shape"), ("garbage", "weights.mtx")])
    def test_recorded_matrix_that_does_not_fit_exits_3(
        self, workspace, capsys, command, damage, message
    ):
        from scipy import sparse
        from scipy.io import mmread, mmwrite

        assert run_cli("vectorize", "--config", "config.json") == 0
        out = workspace / "out"
        if damage == "extra_row":
            weights = sparse.csr_array(mmread(out / "weights.mtx"))
            mmwrite(out / "weights.mtx", sparse.vstack([weights, weights[:1]]))
        else:
            (out / "weights.mtx").write_text("not a matrix\n")
        # Recorded as if vectorize had written it.
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["weights.mtx"] = hashlib.sha256(
            (out / "weights.mtx").read_bytes()
        ).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli(command, "--config", "config.json") == 3
        assert message in capsys.readouterr().err
        assert not (out / self.ARTIFACTS[command]).exists()


def write_xml_corpus(path, corpus, majors):
    """``corpus`` as PubMed XML; each article's major MeSH headings are
    ``majors(doc)``, in document order."""
    articles = "".join(
        f"<PubmedArticle><MedlineCitation><PMID>{doc.id}</PMID><Article><Abstract>"
        f"<AbstractText>{doc.text}</AbstractText></Abstract></Article><MeshHeadingList>"
        + "".join(
            f'<MeshHeading><DescriptorName MajorTopicYN="Y">{heading}</DescriptorName></MeshHeading>'
            for heading in majors(doc)
        )
        + "</MeshHeadingList></MedlineCitation></PubmedArticle>"
        for doc in corpus
    )
    path.write_text(f"<PubmedArticleSet>{articles}</PubmedArticleSet>", encoding="utf-8")


class TestStagedDocuments:
    """``embed``, ``cluster`` and ``evaluate`` take the corpus's ids and
    labels from the ``documents.json`` that ``vectorize`` staged for the
    same corpus, format and class labels, and parse the corpus in every
    other case; each still requires the corpus file."""

    ARTIFACTS = {"embed": "embedding.tsv", "cluster": "assignments.tsv", "evaluate": "metrics.json"}

    def test_a_vouched_chain_parses_no_corpus(self, workspace, monkeypatch):
        import litclust.cli

        for command in self.ARTIFACTS:
            assert run_cli(command, "--config", "config.json", "--out", f"solo_{command}") == 0
        assert run_cli("vectorize", "--config", "config.json") == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was parsed")

        monkeypatch.setattr(litclust.cli, "load_corpus", refuse)
        for command, name in self.ARTIFACTS.items():
            assert run_cli(command, "--config", "config.json") == 0, command
            solo = workspace / f"solo_{command}" / name
            assert (workspace / "out" / name).read_bytes() == solo.read_bytes(), name

    @pytest.mark.parametrize("command", ["embed", "cluster", "evaluate"])
    @pytest.mark.parametrize("case", ["deleted", "edited", "no_record", "corpus"])
    def test_anything_else_parses_the_corpus(self, workspace, monkeypatch, command, case):
        import litclust.cli

        assert run_cli("vectorize", "--config", "config.json") == 0
        out = workspace / "out"
        path = out / "documents.json"
        if case == "deleted":
            path.unlink()
        elif case == "edited":
            # One class for every document: scored against it, V would be 0.
            table = json.loads(path.read_text())
            path.write_text(json.dumps({**table, "labels": ["class0"] * len(table["ids"])}))
        elif case == "no_record":
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["provenance"]["documents.json"]
            (out / "manifest.json").write_text(json.dumps(manifest))
        else:
            save_jsonl(gene_corpus(seed=1), workspace / "corpus.jsonl")
        calls = {}
        count_calls(monkeypatch, litclust.cli, "load_corpus", calls)
        assert run_cli(command, "--config", "config.json") == 0
        assert calls == {"load_corpus": 1}
        name = self.ARTIFACTS[command]
        assert run_cli(command, "--config", "config.json", "--out", "solo") == 0
        assert (out / name).read_bytes() == (workspace / "solo" / name).read_bytes()

    @pytest.mark.parametrize(
        "first,second",
        [
            (["class0", "class1", "class2", "class3"], ["half0", "half1"]),
            (None, ["class0", "class1", "class2", "class3"]),
            (["class0", "class1", "class2", "class3"], None),
        ],
    )
    def test_evaluate_scores_against_its_own_class_labels(self, workspace, monkeypatch, first, second):
        """A PubMed XML corpus vectorized under one label priority and
        evaluated under another is scored against the second's labels."""
        import litclust.cli

        # Two major headings per article: the half of the topics first,
        # then the topic, so no priority list picks the half.
        write_xml_corpus(
            workspace / "corpus.xml", gene_corpus(),
            lambda doc: [f"half{int(doc.label[-1]) // 2}", doc.label],
        )
        config = json.loads((workspace / "config.json").read_text())
        for name, labels in (("first.json", first), ("second.json", second)):
            (workspace / name).write_text(json.dumps(
                {**config, "corpus": "corpus.xml", "corpus_format": "pubmed_xml", "class_labels": labels}
            ))
        for command in ("vectorize", "cluster"):
            assert run_cli(command, "--config", "first.json") == 0
        assert run_cli("evaluate", "--config", "first.json", "--out", "solo_first") == 0
        assert run_cli("evaluate", "--config", "second.json", "--out", "solo_second") == 0
        calls = {}
        count_calls(monkeypatch, litclust.cli, "load_corpus", calls)
        assert run_cli("evaluate", "--config", "second.json") == 0
        assert calls == {"load_corpus": 1}
        metrics = (workspace / "out" / "metrics.json").read_bytes()
        assert metrics == (workspace / "solo_second" / "metrics.json").read_bytes()
        assert metrics != (workspace / "solo_first" / "metrics.json").read_bytes()

    @pytest.mark.parametrize("command", ["embed", "cluster", "evaluate"])
    def test_a_deleted_corpus_exits_2_with_everything_staged(self, workspace, capsys, command):
        for staged in ("vectorize", "embed", "cluster", "evaluate"):
            assert run_cli(staged, "--config", "config.json") == 0
        (workspace / "corpus.jsonl").unlink()
        capsys.readouterr()
        assert run_cli(command, "--config", "config.json") == 2
        assert "corpus file not found: corpus.jsonl" in capsys.readouterr().err


class TestStagedEmbedding:
    """``cluster``, and ``evaluate`` and ``probe`` when they cluster, read
    the ``embedding.tsv`` that ``embed`` staged for the same corpus, d, r,
    n_dims and seed, and embed afresh in every other case."""

    ARTIFACTS = {"cluster": ("assignments.tsv", "cluster_run.json"),
                 "evaluate": ("metrics.json",), "probe": ("probe_report.json", "network.graphml")}

    def outputs(self, out, command):
        return {name: (out / name).read_bytes() for name in self.ARTIFACTS[command]}

    @pytest.mark.parametrize("command", ["cluster", "evaluate", "probe"])
    def test_a_vouched_chain_solves_no_svd(self, workspace, monkeypatch, command):
        import litclust.lsa
        import litclust.vectorize

        assert run_cli(command, "--config", "config.json", "--out", "solo") == 0
        for staged in ("vectorize", "embed"):
            assert run_cli(staged, "--config", "config.json") == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the embedding was solved again")

        monkeypatch.setattr(litclust.lsa, "reduce", refuse)
        monkeypatch.setattr(litclust.vectorize, "load_weighted_matrix", refuse)
        assert run_cli(command, "--config", "config.json") == 0
        assert self.outputs(workspace / "out", command) == self.outputs(workspace / "solo", command)

    @pytest.mark.parametrize(
        "case,why",
        [("deleted", "missing"), ("edited", "digest changed"), ("no_record", "no record"),
         ("n_dims", "other values"), ("seed", "other values")],
    )
    def test_anything_else_embeds_afresh(self, workspace, monkeypatch, caplog, case, why):
        import litclust.lsa

        assert run_cli("cluster", "--config", "config.json", "--out", "solo") == 0
        assert run_cli("vectorize", "--config", "config.json") == 0
        flags = {"n_dims": ("--n-dims", "10"), "seed": ("--seed", "4")}.get(case, ())
        assert run_cli("embed", "--config", "config.json", *flags) == 0
        out = workspace / "out"
        path = out / "embedding.tsv"
        if case == "deleted":
            path.unlink()
        elif case == "edited":
            first, *rest = path.read_text().splitlines(keepends=True)
            doc_id, *coords = first.rstrip("\n").split("\t")
            path.write_text("\t".join([doc_id, *["0.0"] * len(coords)]) + "\n" + "".join(rest))
        elif case == "no_record":
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["provenance"]["embedding.tsv"]
            (out / "manifest.json").write_text(json.dumps(manifest))
        calls = {}
        count_calls(monkeypatch, litclust.lsa, "reduce", calls)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="litclust.cli"):
            assert run_cli("cluster", "--config", "config.json") == 0
        assert calls == {"reduce": 1}
        records = [r.getMessage() for r in caplog.records if r.name == "litclust.cli"]
        assert records[0] == f"out/embedding.tsv: recomputed ({why})"
        assert self.outputs(out, "cluster") == self.outputs(workspace / "solo", "cluster")

    @pytest.mark.parametrize(
        "damage,message",
        [("narrow", "has 14 dimensions, but n_dims is 15"), ("nan", "embedding.tsv:1:"),
         ("ragged", "embedding.tsv:2:"), ("empty", "no embedding rows")],
    )
    def test_a_recorded_embedding_that_does_not_fit_exits_3(self, workspace, capsys, damage, message):
        for staged in ("vectorize", "embed"):
            assert run_cli(staged, "--config", "config.json") == 0
        out = workspace / "out"
        path = out / "embedding.tsv"
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        if damage == "narrow":
            rows = [row[:-1] for row in rows]
        elif damage == "nan":
            rows[0][1] = "nan"
        elif damage == "ragged":
            rows[1] = rows[1][:-1]
        else:
            rows = []
        path.write_text("".join("\t".join(row) + "\n" for row in rows))
        # Recorded as if embed had written it.
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["embedding.tsv"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("cluster", "--config", "config.json") == 3
        assert message in capsys.readouterr().err
        assert not (out / "assignments.tsv").exists()


class TestStagedReadsAreLogged:
    """Each staged input that ``embed``, ``cluster``, ``evaluate`` or
    ``probe`` consults gets one DEBUG record of ``litclust.cli``: read,
    or recomputed and why."""

    WEIGHTS = "out/weights.mtx, out/vocabulary.tsv"

    def run_logged(self, caplog, command):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="litclust.cli"):
            assert run_cli(command, "--config", "config.json") == 0
        return [r.getMessage() for r in caplog.records if r.name == "litclust.cli"]

    def test_a_vouched_chain_reads_every_staged_input(self, workspace, caplog):
        assert run_cli("vectorize", "--config", "config.json") == 0
        assert self.run_logged(caplog, "embed") == [f"{self.WEIGHTS}: read", "out/documents.json: read"]
        assert self.run_logged(caplog, "cluster") == ["out/embedding.tsv: read"]
        assert self.run_logged(caplog, "evaluate") == ["out/documents.json: read", "out/assignments.tsv: read"]
        assert self.run_logged(caplog, "probe") == ["out/assignments.tsv: read"]
        assert self.run_logged(caplog, "export") == ["out/probe_report.json: read"]

    @pytest.mark.parametrize(
        "command,name,case,why",
        [
            (command, name, case, why)
            for command, name in (("embed", "weights.mtx"), ("evaluate", "documents.json"),
                                  ("probe", "assignments.tsv"))
            for case, why in (("deleted", "missing"), ("no_record", "no record"),
                              ("edited", "digest changed"), ("other_values", "other values"))
            # A staged assignments.tsv made with other values is refused.
            if (name, case) != ("assignments.tsv", "other_values")
        ],
    )
    def test_a_recomputed_input_says_why(self, workspace, caplog, command, name, case, why):
        for staged in ("vectorize", "cluster"):
            assert run_cli(staged, "--config", "config.json") == 0
        out = workspace / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        if case == "deleted":
            (out / name).unlink()
        elif case == "edited":
            with (out / name).open("a") as fh:
                fh.write("\n")
        elif case == "no_record":
            del manifest["provenance"][name]
        else:
            manifest["provenance"][name]["corpus_sha256"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        label = self.WEIGHTS if name == "weights.mtx" else f"out/{name}"
        assert f"{label}: recomputed ({why})" in self.run_logged(caplog, command)


class TestSweepCommand:
    def sweep_config(self, workspace, **sweep_overrides):
        config = json.loads((workspace / "config.json").read_text())
        config["sweep"] = {
            "d_values": [0.5],
            "r_values": [5],
            "n_values": [5, 10],
            "k_values": [2, 4],
            "budget": 4,
            **sweep_overrides,
        }
        (workspace / "config.json").write_text(json.dumps(config))

    def test_budgeted_sweep_artifacts(self, workspace):
        self.sweep_config(workspace)
        assert run_cli("sweep", "--config", "config.json") == 0
        out = workspace / "out"
        rows = [json.loads(l) for l in (out / "rows.jsonl").read_text().splitlines()]
        assert len(rows) == 4
        report = (out / "report.md").read_text()
        assert report.startswith("| D | R | N | K |")
        curve = (out / "vk_curve.tsv").read_text().splitlines()
        assert curve[0] == "k\tv_measure"
        assert len(curve) == 3  # header + k in {2, 4}

    def test_out_of_range_grid_value_names_the_cli_switch(self, workspace, capsys):
        self.sweep_config(workspace, d_values=[3.0], n_values=[5], k_values=[2], budget=None)
        assert run_cli("sweep", "--config", "config.json", "--out", "fresh") == 2
        err = capsys.readouterr().err
        assert "d_values" in err and "--allow-out-of-bounds" in err and "allow_out_of_bounds" in err
        assert not (workspace / "fresh").exists()
        assert run_cli("sweep", "--config", "config.json", "--allow-out-of-bounds") == 0

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exits_2_before_writing(self, workspace, capsys, top):
        self.sweep_config(workspace)
        assert run_cli("sweep", "--config", "config.json", "--top", top, "--out", "fresh") == 2
        assert "--top" in capsys.readouterr().err
        assert not (workspace / "fresh").exists()

    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"n_values": [0, 2]}, "n_values must be integers >= 1, got 0"),
            ({"r_values": [0]}, "r_values must be integers >= 1, got 0"),
            ({"k_values": [-1, 2]}, "k_values must be integers >= 1, got -1"),
            ({"d_values": [1, 1.0], "k_values": [2, 3]}, "d_values repeats [1]"),
            ({"k_values": [2, 3, 3]}, "k_values repeats [3]"),
        ],
        ids=["n0", "r0", "k-1", "d1-d1.0", "k3-k3"],
    )
    def test_values_that_cannot_run_or_repeat_exit_2_before_writing(self, workspace, capsys, grid, message):
        self.sweep_config(workspace, **grid)
        assert run_cli("sweep", "--config", "config.json", "--allow-out-of-bounds") == 2
        assert message in capsys.readouterr().err
        assert not (workspace / "out").exists()
        # Nothing was checkpointed, so the corrected sweep runs into the same directory.
        self.sweep_config(workspace)
        assert run_cli("sweep", "--config", "config.json", "--allow-out-of-bounds") == 0

    def test_budget_extension_reuses_checkpoint(self, workspace):
        self.sweep_config(workspace, budget=2)
        assert run_cli("sweep", "--config", "config.json") == 0
        first_two = (workspace / "out" / "rows.jsonl").read_text().splitlines()
        self.sweep_config(workspace, budget=4)
        assert run_cli("sweep", "--config", "config.json") == 0
        all_four = (workspace / "out" / "rows.jsonl").read_text().splitlines()
        assert len(first_two) == 2
        assert len(all_four) == 4
        assert all_four[:2] == first_two

    def test_stale_checkpoint_from_other_seed_rejected(self, workspace):
        self.sweep_config(workspace)
        assert run_cli("sweep", "--config", "config.json") == 0
        assert run_cli("sweep", "--config", "config.json", "--seed", "99") == 2
        # A fresh output directory is fine.
        assert run_cli("sweep", "--config", "config.json", "--seed", "99",
                       "--out", "out2") == 0


    def test_undecodable_fingerprint_exits_2(self, workspace, capsys):
        self.sweep_config(workspace)
        assert run_cli("sweep", "--config", "config.json") == 0
        (workspace / "out" / "rows.jsonl.fingerprint").write_bytes(b"\xff\xfe\n")
        capsys.readouterr()
        assert run_cli("sweep", "--config", "config.json") == 2
        assert "rows.jsonl.fingerprint" in capsys.readouterr().err

    def test_checkpoint_fingerprint_sidecar(self, workspace, capsys):
        self.sweep_config(workspace)
        assert run_cli("sweep", "--config", "config.json") == 0
        out = workspace / "out"
        assert (out / "rows.jsonl.fingerprint").exists()
        assert not (out / "rows.fingerprint").exists()
        # A checkpoint that has only the marker older versions wrote is
        # refused, and is accepted again once the sweep rewrites it.
        (out / "rows.jsonl.fingerprint").rename(out / "rows.fingerprint")
        capsys.readouterr()
        assert run_cli("sweep", "--config", "config.json") == 2
        assert "rows.jsonl.fingerprint" in capsys.readouterr().err
        (out / "rows.jsonl").unlink()
        assert run_cli("sweep", "--config", "config.json") == 0
        assert run_cli("sweep", "--config", "config.json") == 0

    def test_allow_out_of_bounds_resumes_an_in_range_checkpoint(self, workspace, monkeypatch):
        import litclust.cluster

        # The grid holds the config point, so a resumed run computes nothing.
        self.sweep_config(workspace, n_values=[5, 15], budget=None)
        assert run_cli("sweep", "--config", "config.json") == 0
        rows = (workspace / "out" / "rows.jsonl").read_text()
        calls = {}
        count_calls(monkeypatch, litclust.cluster, "kmeans", calls)
        assert run_cli("sweep", "--config", "config.json", "--allow-out-of-bounds") == 0
        assert calls == {}
        assert (workspace / "out" / "rows.jsonl").read_text() == rows

    def test_corrupt_checkpoint_line_exits_3(self, workspace, capsys):
        self.sweep_config(workspace)
        assert run_cli("sweep", "--config", "config.json") == 0
        rows_path = workspace / "out" / "rows.jsonl"
        lines = rows_path.read_text().splitlines(keepends=True)
        # Not JSON; no scores; a string score; a row that still carries
        # the wall-clock field checkpoints held before it was removed.
        for corrupt, named in [
            ("{not json", "rows.jsonl:2:"),
            ('{"d": 0.5, "k": 2, "n": 5, "r": 5}', "missing fields"),
            (json.dumps({**json.loads(lines[1]), "v_measure": "abc"}), "v_measure is 'abc'"),
            (json.dumps({**json.loads(lines[1]), "runtime_ms": 12}), "unknown fields ['runtime_ms']"),
        ]:
            rows_path.write_text("".join([lines[0], corrupt + "\n", *lines[2:]]))
            capsys.readouterr()
            assert run_cli("sweep", "--config", "config.json") == 3, corrupt
            err = capsys.readouterr().err
            assert "rows.jsonl:2:" in err and named in err, err

    def test_reruns_into_fresh_directories_are_byte_identical(self, workspace):
        self.sweep_config(workspace)
        assert run_cli("sweep", "--config", "config.json") == 0
        (workspace / "out").rename(workspace / "first")
        assert run_cli("sweep", "--config", "config.json") == 0
        first, second = workspace / "first", workspace / "out"
        names = sorted(p.name for p in second.iterdir())
        assert names == sorted(p.name for p in first.iterdir())
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
        manifest = json.loads((second / "manifest.json").read_text())
        digest = hashlib.sha256((second / "rows.jsonl").read_bytes()).hexdigest()
        assert manifest["artifacts"]["rows.jsonl"] == digest
        assert set(manifest["artifacts"]) == {"rows.jsonl", "report.md", "vk_curve.tsv"}

    def test_curve_from_grid_rows_recomputes_nothing(self, workspace, monkeypatch):
        import litclust.lsa
        import litclust.vectorize

        # The grid holds every K at the config point (0.5, 5, 15).
        self.sweep_config(workspace, n_values=[5, 15], budget=None)
        calls = {}
        count_calls(monkeypatch, litclust.vectorize, "count_matrix", calls)
        count_calls(monkeypatch, litclust.lsa, "reduce", calls)
        assert run_cli("sweep", "--config", "config.json") == 0
        assert calls == {"count_matrix": 1, "reduce": 2}
        out = workspace / "out"
        rows = [json.loads(l) for l in (out / "rows.jsonl").read_text().splitlines()]
        expected = [f"{r['k']}\t{r['v_measure']:.6f}" for r in rows if r["n"] == 15]
        assert (out / "vk_curve.tsv").read_text().splitlines() == ["k\tv_measure", *expected]

    def test_curve_runs_only_missing_k(self, workspace, monkeypatch):
        import litclust.cluster

        self.sweep_config(workspace, n_values=[5, 15], k_values=[2, 3, 4], budget=None)
        assert run_cli("sweep", "--config", "config.json", "--out", "full") == 0
        self.sweep_config(workspace, n_values=[5, 15], k_values=[2, 3, 4], budget=3)
        calls = {}
        count_calls(monkeypatch, litclust.cluster, "kmeans", calls)
        assert run_cli("sweep", "--config", "config.json") == 0
        rows = [json.loads(l) for l in (workspace / "out" / "rows.jsonl").read_text().splitlines()]
        # The budget keeps K = 3, 4 at the config point; only K = 2 runs again.
        assert sorted(r["k"] for r in rows if r["n"] == 15) == [3, 4]
        assert calls["kmeans"] == 3 + 1
        curve = (workspace / "out" / "vk_curve.tsv").read_text()
        assert curve == (workspace / "full" / "vk_curve.tsv").read_text()

    def test_curve_at_config_point_leaves_out_skipped_k(self, workspace):
        # 12 documents: the baseline n_dims=15 cannot embed and K=20
        # cannot cluster; the curve follows the config's n_dims instead.
        save_jsonl(
            make_planted_corpus(n_topics=2, docs_per_topic=6, vocab_per_topic=12, tokens_per_doc=20),
            workspace / "tiny.jsonl",
        )
        config = {
            "corpus": "tiny.jsonl",
            "out": "tiny",
            "n_dims": 2,
            "sweep": {"d_values": [0.5], "r_values": [5], "n_values": [2], "k_values": [2, 20]},
        }
        (workspace / "tiny.json").write_text(json.dumps(config))
        assert run_cli("sweep", "--config", "tiny.json") == 0
        out = workspace / "tiny"
        curve = (out / "vk_curve.tsv").read_text().splitlines()
        row = json.loads((out / "rows.jsonl").read_text().splitlines()[0])
        assert (row["n"], row["k"]) == (2, 2)
        assert curve == ["k\tv_measure", f"2\t{row['v_measure']:.6f}"]


class TestComposition:
    def test_staged_metrics_equal_sweep_row(self, workspace):
        """cluster + evaluate at fixed parameters reproduce the sweep's
        numbers for the same combination and seed."""
        config = json.loads((workspace / "config.json").read_text())
        config.update(
            {"restarts": 1, "n_dims": 10, "out": "staged",
             "sweep": {"d_values": [0.5], "r_values": [5], "n_values": [10],
                        "k_values": [4], "restarts": 1}}
        )
        (workspace / "config.json").write_text(json.dumps(config))
        assert run_cli("cluster", "--config", "config.json") == 0
        assert run_cli("evaluate", "--config", "config.json") == 0
        staged = json.loads((workspace / "staged" / "metrics.json").read_text())

        assert run_cli("sweep", "--config", "config.json", "--out", "swept") == 0
        rows = [
            json.loads(l)
            for l in (workspace / "swept" / "rows.jsonl").read_text().splitlines()
        ]
        row = next(r for r in rows if (r["d"], r["r"], r["n"], r["k"]) == (0.5, 5, 10, 4))
        assert row["v_measure"] == pytest.approx(staged["v_measure"], abs=1e-12)
        assert row["homogeneity"] == pytest.approx(staged["homogeneity"], abs=1e-12)
        assert row["completeness"] == pytest.approx(staged["completeness"], abs=1e-12)


class TestExitCodes:
    def test_invalid_config_json(self, workspace):
        (workspace / "bad.json").write_text("{oops", encoding="utf-8")
        assert run_cli("ingest", "--config", "bad.json") == 2

    def test_config_that_is_no_object_exits_2(self, workspace, capsys):
        (workspace / "bad.json").write_text("[1, 2]", encoding="utf-8")
        assert run_cli("ingest", "--config", "bad.json", "--corpus", "corpus.jsonl") == 2
        assert "bad.json: config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,code,name",
        [
            (("probe", "--dict", "nope.json"), 2, "nope.json"),
            (("probe", "--dict", "bad.json"), 3, "bad.json"),
            (("evaluate", "--assignments", "nope.tsv"), 3, "nope.tsv"),
            (("probe", "--assignments", "nope.tsv"), 3, "nope.tsv"),
            (("export", "--report", "nope.json"), 3, "nope.json"),
            (("export",), 3, "fresh/probe_report.json"),
            # A compute error: every command but sweep computes before it makes --out.
            (("vectorize", "--d", "100000", "--allow-out-of-bounds"), 4, "removed all terms"),
            *(((command, "--n-dims", "90", "--allow-out-of-bounds"), 4, "exceed min(shape)=84")
              for command in ("embed", "cluster", "evaluate", "probe")),
        ],
        ids=["dictionary", "bad_dictionary", "evaluate_assignments", "probe_assignments",
             "report", "staged_report", "vectorize_compute", "embed_compute", "cluster_compute",
             "evaluate_compute", "probe_compute"],
    )
    def test_a_refused_named_input_leaves_no_out_directory(self, workspace, capsys, argv, code, name):
        (workspace / "bad.json").write_text("{oops", encoding="utf-8")
        assert run_cli(*argv, "--config", "config.json", "--out", "fresh") == code
        assert name in capsys.readouterr().err
        assert not (workspace / "fresh").exists()

    def test_no_corpus_path_exits_2(self, workspace, capsys):
        assert run_cli("evaluate", "--out", "fresh") == 2
        assert "no corpus path given" in capsys.readouterr().err
        assert not (workspace / "fresh").exists()

    def test_unknown_config_key(self, workspace):
        (workspace / "bad.json").write_text('{"bogus_key": 1}', encoding="utf-8")
        assert run_cli("ingest", "--config", "bad.json", "--corpus", "corpus.jsonl") == 2

    @pytest.mark.parametrize(
        "key,value",
        [
            ("network_format", "gexf"),
            ("probe_mode", "fuzzy"),
            ("corpus_format", "parquet"),
            ("k", "four"),
            ("d", "half"),
            ("sweep", [1, 2]),
            ("n_dims", 40),
            *(("sweep", bad) for bad in BAD_SWEEPS),
            ("corpus", 5),
            ("out", 5),
            ("dictionary", 5),
            ("class_labels", "abc"),
            ("allow_out_of_bounds", "no"),
            ("seed", -1),
        ],
    )
    def test_bad_config_values_exit_2(self, workspace, key, value):
        config = json.loads((workspace / "config.json").read_text())
        config[key] = value
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("ingest", "--config", "bad.json") == 2

    @pytest.mark.parametrize(
        "key,value",
        [
            ("k", True),
            ("d", False),
            ("restarts", True),
            ("probe_top", True),
            ("allow_out_of_bounds", 1),
            ("restarts", 0),
            ("probe_top", 0),
            ("probe_top", -1),
            ("class_labels", ["A", 1]),
            ("sweep", {"d_values": [True]}),
            ("sweep", {"budget": True}),
            ("sweep", {"enforce_bounds": False}),
            ("sweep", {"d_values": [3.0]}),
        ],
    )
    def test_bool_minimum_and_element_errors_exit_2(self, workspace, capsys, key, value):
        config = json.loads((workspace / "config.json").read_text())
        config[key] = value
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("ingest", "--config", "bad.json") == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("d", float("nan")),
            ("d", float("inf")),
            ("sweep", {"d_values": [float("nan")]}),
            ("sweep", {"d_values": [0.5, float("-inf")]}),
        ],
    )
    def test_non_finite_numbers_exit_2_out_of_bounds_allowed(self, workspace, key, value):
        config = json.loads((workspace / "config.json").read_text())
        config.update({key: value, "allow_out_of_bounds": True})
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("ingest", "--config", "bad.json") == 2
        assert run_cli("sweep", "--config", "bad.json", "--out", "fresh") == 2
        assert not (workspace / "fresh").exists()

    def test_out_of_bounds_sweep_values_need_allow_out_of_bounds(self, workspace):
        config = json.loads((workspace / "config.json").read_text())
        config["sweep"] = {"d_values": [3.0]}
        (workspace / "oob.json").write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("ingest", "--config", "oob.json") == 2
        assert run_cli("ingest", "--config", "oob.json", "--allow-out-of-bounds") == 0

    @pytest.mark.parametrize("bad", BAD_SWEEPS)
    def test_sweep_rejects_bad_section_before_writing(self, workspace, capsys, bad):
        config = json.loads((workspace / "config.json").read_text())
        config["sweep"] = bad
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("sweep", "--config", "bad.json", "--out", "fresh") == 2
        assert not (workspace / "fresh").exists()
        assert next(iter(bad)) in capsys.readouterr().err

    def test_budget_flag_beside_a_sweep_that_is_no_object_exits_2(self, workspace):
        config = json.loads((workspace / "config.json").read_text())
        config["sweep"] = [1, 2]
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("sweep", "--config", "bad.json", "--budget", "3", "--out", "fresh") == 2
        assert not (workspace / "fresh").exists()

    def test_spec_alias_is_gone(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--spec", "config.json")
        assert exc.value.code == 2
        assert "--spec" in capsys.readouterr().err

    def test_explicit_missing_assignments_exit_3(self, workspace):
        code = run_cli(
            "evaluate", "--config", "config.json", "--assignments", "absent.tsv"
        )
        assert code == 3

    def test_data_error_exit_3(self, workspace):
        unlabeled = Corpus([Document(id="a", text="some words here"),
                            Document(id="b", text="other words there")])
        save_jsonl(unlabeled, workspace / "unlabeled.jsonl")
        code = run_cli(
            "evaluate", "--corpus", "unlabeled.jsonl", "--out", "u",
            "--d", "0.1", "--n-dims", "1", "--k", "2", "--allow-out-of-bounds",
        )
        assert code == 3

    def test_assignments_that_miss_documents_exit_3(self, workspace, capsys):
        ids = [doc.id for doc in load_corpus(workspace / "corpus.jsonl")]
        (workspace / "part.tsv").write_text("".join(f"{i}\t0\n" for i in ids[2:]), encoding="utf-8")
        assert run_cli("evaluate", "--config", "config.json", "--assignments", "part.tsv") == 3
        err = capsys.readouterr().err
        assert f"part.tsv does not cover document(s) {ids[:2]}" in err
        assert not (workspace / "out" / "metrics.json").exists()

    def test_export_without_a_staged_report_exits_3(self, workspace, capsys):
        assert run_cli("export", "--config", "config.json") == 3
        assert "probe report not found: out/probe_report.json" in capsys.readouterr().err

    def test_malformed_pubmed_xml_exits_3(self, workspace, capsys):
        (workspace / "bad.xml").write_text("<PubmedArticleSet>\n<PubmedArticle>\n", encoding="utf-8")
        code = run_cli("ingest", "--corpus", "bad.xml", "--corpus-format", "pubmed_xml", "--out", "fresh")
        assert code == 3
        assert "bad.xml: malformed XML at (3, 0)" in capsys.readouterr().err

    def test_malformed_assignments_exit_3(self, workspace, capsys):
        (workspace / "bad.tsv").write_text("d0000\t1\nd0001 2\n", encoding="utf-8")
        code = run_cli("evaluate", "--config", "config.json", "--assignments", "bad.tsv")
        assert code == 3
        assert "bad.tsv:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("a\t2", "cover.tsv:101: document 'a' is assigned a second time"),
        ("b\t1_0", "cover.tsv:101: expected"),
        ("b\t\u0661", "cover.tsv:101: expected"),
        ("b\t 1", "cover.tsv:101: expected"),
    ])
    def test_a_repeated_id_or_loose_index_exits_3(self, workspace, capsys, line, message):
        """Each document gets one plain index, so an explicit file cannot
        score or probe a clustering it does not hold."""
        ids = [doc.id for doc in load_corpus(workspace / "corpus.jsonl")]
        rows = "".join(f"{doc_id}\t{i % 4}\n" for i, doc_id in enumerate(ids))
        (workspace / "cover.tsv").write_text(rows.replace(ids[0], "a") + line + "\n", encoding="utf-8")
        for command in ("evaluate", "probe"):
            capsys.readouterr()
            assert run_cli(command, "--config", "config.json", "--assignments", "cover.tsv") == 3
            assert message in capsys.readouterr().err
        assert not (workspace / "out" / "metrics.json").exists()

    def test_malformed_probe_report_exit_3(self, workspace, capsys):
        (workspace / "out").mkdir()
        (workspace / "out" / "probe_report.json").write_text('{"mode": "gene"}', encoding="utf-8")
        assert run_cli("export", "--config", "config.json") == 3
        assert "probe_report.json" in capsys.readouterr().err

    REPORT = {
        "mode": "gene", "total_docs": 4, "cluster_sizes": {"0": 2, "1": 2},
        "entity_globals": {"brca1": 3, "tp53": 1},
        "clusters": {
            "0": [{"entity": "brca1", "count": 2, "relative_weight": 0.5}],
            "1": [{"entity": "tp53", "count": 1, "relative_weight": 0.5}],
        },
    }

    @pytest.mark.parametrize("fmt", ["graphml", "dot", "json"])
    @pytest.mark.parametrize("field,value", [
        ("entity", 5), ("entity", None), ("count", 1.5), ("count", "3"), ("count", True),
        ("relative_weight", "nan"), ("relative_weight", float("nan")),
        ("relative_weight", float("inf")), ("relative_weight", None),
    ])
    def test_report_entry_of_another_type_exits_3(self, workspace, capsys, fmt, field, value):
        """An explicit report holds only what report_to_json writes: a
        string entity, an integer count and a finite weight."""
        path = workspace / "report.json"
        path.write_text(json.dumps(self.REPORT), encoding="utf-8")
        argv = ("export", "--config", "config.json", "--format", fmt, "--report", "report.json")
        assert run_cli(*argv) == 0
        report = json.loads(json.dumps(self.REPORT))
        report["clusters"]["1"][0][field] = value
        path.write_text(json.dumps(report), encoding="utf-8")
        network = (workspace / "out" / f"network.{fmt}").read_bytes()
        capsys.readouterr()
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert "report.json: malformed probe report" in err and field in err
        assert "Traceback" not in err
        assert (workspace / "out" / f"network.{fmt}").read_bytes() == network

    @pytest.mark.parametrize(
        "name,argv,code",
        [
            ("corpus.jsonl", ("ingest", "--config", "config.json"), 3),
            ("config.json", ("ingest", "--config", "config.json"), 2),
            ("dictionary.json", ("probe", "--config", "config.json", "--dict", "dictionary.json"), 3),
            ("out/probe_report.json", ("export", "--config", "config.json"), 3),
        ],
    )
    def test_undecodable_file_exits_with_its_code(self, workspace, capsys, name, argv, code):
        path = workspace / name
        path.parent.mkdir(exist_ok=True)
        # Latin-1 bytes: 0xe9 starts no valid UTF-8 sequence here.
        path.write_bytes('{"id": "a", "text": "caf\xe9"}\n'.encode("latin-1"))
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert name in err and "not UTF-8" in err

    @pytest.mark.parametrize(
        "flag,value,allowed_code",
        [
            ("--d", "5.0", 0),
            ("--d", "0.05", 0),
            ("--r", "30", 0),
            ("--r", "4", 0),
            ("--n-dims", "40", 0),
            ("--n-dims", "90", 4),  # above min(terms, docs)
            ("--k", "1", 0),
            ("--k", "50", 0),
        ],
    )
    def test_out_of_bounds_value_exits_2_unless_allowed(self, workspace, flag, value, allowed_code):
        assert run_cli("cluster", "--config", "config.json", flag, value, "--out", "oob") == 2
        assert not (workspace / "oob").exists()
        code = run_cli(
            "cluster", "--config", "config.json", flag, value, "--out", "oob",
            "--allow-out-of-bounds",
        )
        assert code == allowed_code

    @pytest.mark.parametrize("flag", ["--r", "--n-dims", "--k"])
    def test_value_below_one_exits_2_before_reading_input(self, workspace, capsys, monkeypatch, flag):
        import litclust.cli

        calls = {}
        count_calls(monkeypatch, litclust.cli, "load_corpus", calls)
        argv = ("cluster", "--config", "config.json", flag, "0", "--out", "fresh", "--allow-out-of-bounds")
        assert run_cli(*argv) == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err
        assert calls == {}
        assert not (workspace / "fresh").exists()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("ingest", "--corpus", "{}", "--out", "o"), 2),
            (("ingest", "--config", "{}", "--corpus", "corpus.jsonl"), 2),
            (("probe", "--config", "config.json", "--dict", "{}"), 2),
            (("evaluate", "--config", "config.json", "--assignments", "{}"), 3),
            # export compares the dictionary's digest only when there is a file.
            (("export", "--config", "dict.json"), 0),
        ],
        ids=["corpus", "config", "dictionary", "assignments", "export_dictionary"],
    )
    def test_a_directory_exits_as_a_missing_file_does(self, workspace, argv, code):
        (workspace / "adir").mkdir()
        if argv[0] == "export":
            assert run_cli("cluster", "--config", "config.json") == 0
            assert run_cli("probe", "--config", "config.json") == 0
        config = json.loads((workspace / "config.json").read_text())
        for path in ("absent", "adir"):
            (workspace / "dict.json").write_text(json.dumps({**config, "dictionary": path}))
            assert run_cli(*(arg.format(path) for arg in argv)) == code, path

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_through_a_regular_file_exits_2(self, workspace, capsys, out):
        (workspace / "afile").write_text("not a directory", encoding="utf-8")
        assert run_cli("ingest", "--corpus", "corpus.jsonl", "--out", out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and out in err
        assert (workspace / "afile").read_text(encoding="utf-8") == "not a directory"

    def test_a_manifest_directory_exits_3(self, workspace, capsys):
        (workspace / "out" / "manifest.json").mkdir(parents=True)
        assert run_cli("cluster", "--config", "config.json") == 3
        assert "manifest.json: is a directory" in capsys.readouterr().err
        assert (workspace / "out" / "manifest.json").is_dir()

    @pytest.mark.parametrize("doc_id", ["d\t5", "d\n5"])
    @pytest.mark.parametrize("command", ["ingest", "vectorize", "embed", "cluster", "evaluate"])
    def test_an_id_with_a_tab_or_a_line_break_exits_3(self, workspace, capsys, command, doc_id):
        records = [{"id": doc.id, "text": doc.text, "label": doc.label} for doc in gene_corpus()]
        records[5]["id"] = doc_id
        (workspace / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli(command, "--config", "config.json") == 3
        assert repr(doc_id) in capsys.readouterr().err

    def test_compute_error_exit_4(self, workspace):
        code = run_cli(
            "cluster", "--config", "config.json", "--k", "500",
            "--allow-out-of-bounds", "--out", "big",
        )
        assert code == 4


def test_end_to_end_determinism(tmp_path, monkeypatch):
    """Same config, two fresh directories: byte-identical artifacts."""
    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        monkeypatch.chdir(root)
        save_jsonl(gene_corpus(), root / "corpus.jsonl")
        config = {
            "corpus": "corpus.jsonl",
            "dictionary": str(DATA / "dictionary_10.json"),
            "out": "out",
            "seed": 9,
            "restarts": 2,
        }
        (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
        for command in ("ingest", "vectorize", "embed", "cluster", "evaluate", "probe"):
            assert main([command, "--config", "config.json"]) == 0
        outputs.append(root / "out")
    for name in ("manifest.json", "metrics.json", "network.graphml",
                  "assignments.tsv", "embedding.tsv", "weights.mtx", "vocabulary.tsv"):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_integer_d_is_the_float_d_and_the_sweep_row(workspace):
    config = json.loads((workspace / "config.json").read_text())
    for name, d in (("int", 1), ("float", 1.0)):
        (workspace / f"{name}.json").write_text(json.dumps({**config, "d": d, "out": name}))
        for command in ("embed", "cluster", "evaluate"):
            assert run_cli(command, "--config", f"{name}.json") == 0
    for artifact in ("embedding.tsv", "assignments.tsv", "cluster_run.json", "metrics.json", "manifest.json"):
        assert (workspace / "int" / artifact).read_bytes() == (workspace / "float" / artifact).read_bytes()
    spec = SweepSpec(d_values=(1.0,), r_values=(5,), n_values=(15,), k_values=(4,), seed=3, restarts=3)
    row, = run_sweep(load_corpus(workspace / "corpus.jsonl"), spec)
    metrics = json.loads((workspace / "int" / "metrics.json").read_text())
    assert (metrics["homogeneity"], metrics["completeness"], metrics["v_measure"]) == (
        row.homogeneity, row.completeness, row.v_measure,
    )


def test_config_hash_and_fields_are_unchanged():
    from litclust.cli import PipelineConfig

    # Any change to the field set, a default or the hashed form changes
    # every manifest's config_hash.  ``out`` is not hashed, and the corpus
    # and dictionary are hashed by their contents (None here: no such file).
    assert PipelineConfig().config_hash() == (
        "2299426babc81a7603cc228536e2ff2647737ca73b9c1f0080624ef13175b870"
    )
    assert PipelineConfig(out="elsewhere").config_hash() == PipelineConfig().config_hash()
    cfg = PipelineConfig(corpus="c.jsonl", class_labels=["A"], d=1, allow_out_of_bounds=True,
                         sweep={"budget": 5, "d_values": [0.5]})
    assert cfg.config_hash() == "ab335d34d1239fc6af3f6234092485eb13f476e809d89ac57eb95f5baf9b813d"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["probe", "--dict", "g.json", "--mode", "molecular", "--top", "3", "--format", "dot"],
         {"dictionary": "g.json", "probe_mode": "molecular", "probe_top": 3, "network_format": "dot"}),
        (["export", "--top", "7"], {"probe_top": 7}),
        (["sweep", "--top", "7", "--budget", "3"], {"probe_top": 5, "sweep": {"budget": 3}}),
        (["cluster", "--d", "0.3", "--r", "6", "--n-dims", "4", "--k", "3", "--restarts", "2",
          "--seed", "8", "--corpus-format", "pubmed_xml", "--allow-out-of-bounds"],
         {"d": 0.3, "r": 6, "n_dims": 4, "k": 3, "restarts": 2, "seed": 8,
          "corpus_format": "pubmed_xml", "allow_out_of_bounds": True}),
        (["cluster"], {}),
    ],
)
def test_flags_set_the_config_keys_of_their_names(argv, expected):
    from dataclasses import asdict

    from litclust.cli import PipelineConfig, build_parser, resolve_config

    cfg = resolve_config(build_parser().parse_args(argv))
    assert asdict(cfg) == {**asdict(PipelineConfig()), **expected}


def test_the_parser_is_built_once_and_no_parse_leaks_into_the_next(workspace, monkeypatch, capsys):
    import litclust.cli

    parsed = []
    real = litclust.cli.resolve_config

    def recording(args):
        parsed.append(dict(vars(args)))
        return real(args)

    monkeypatch.setattr(litclust.cli, "resolve_config", recording)
    litclust.cli.build_parser.cache_clear()
    assert run_cli("cluster", "--config", "config.json", "--k", "3", "--json") == 0
    assert json.loads(capsys.readouterr().out)["k"] == 3
    assert run_cli("embed", "--config", "config.json") == 0
    assert not capsys.readouterr().out.startswith("{")
    assert run_cli("cluster", "--config", "config.json") == 0
    assert "k: 4" in capsys.readouterr().out.splitlines()
    first, second, third = parsed
    assert (first["command"], first["k"], first["json"]) == ("cluster", 3, True)
    # embed takes no --k: it reads nothing made with k.
    assert (second["command"], second.get("k"), second["json"]) == ("embed", None, False)
    assert (third["command"], third["k"], third["json"]) == ("cluster", None, False)
    assert "assignments" not in second
    info = litclust.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def parser_flags():
    """Each command's flags, by dest, as ``build_parser`` gives them."""
    import argparse

    from litclust.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.dest: a.option_strings[0] for a in parser._actions if a.option_strings and a.dest != "help"}
        for name, parser in sub.choices.items()
    }


def test_every_command_has_a_flag_for_each_value_its_artifacts_are_made_from():
    """A MADE_FROM key with a flag on any command has it on every command
    that reads or writes an artifact made from it; the digests of the
    corpus and the dictionary have the files' flags."""
    from litclust.cli import COMMANDS

    flags = parser_flags()
    flagged = set().union(*flags.values())
    for name, command in COMMANDS.items():
        for artifact in (*command.reads, *command.writes):
            for key in MADE_FROM.get(artifact, ()):
                dest = {"corpus_sha256": "corpus", "dictionary_sha256": "dictionary"}.get(key, key)
                if key == "class_labels":  # a list: set in the config only
                    assert dest not in flagged
                else:
                    assert dest in flags[name], (name, artifact, key)


def test_readme_flag_table_lists_each_commands_flags():
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| command | flags |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, cell = (part.strip() for part in line.strip("|").split("|"))
        table[command.strip("`")] = {flag.strip(" `") for flag in cell.split(",") if flag.strip()}
    every = table.pop("every command")
    assert table == {name: set(flags.values()) - every for name, flags in parser_flags().items()}
    assert all(every <= set(flags.values()) for flags in parser_flags().values())


def test_flags_override_the_file_and_budget_joins_its_sweep(workspace):
    from litclust.cli import build_parser, resolve_config

    config = json.loads((workspace / "config.json").read_text())
    config.update(allow_out_of_bounds=True, probe_top=2,
                  sweep={"k_values": [2, 3], "budget": 9})
    (workspace / "config.json").write_text(json.dumps(config))
    cfg = resolve_config(build_parser().parse_args(["sweep", "--config", "config.json", "--budget", "4"]))
    assert cfg.allow_out_of_bounds is True  # an absent flag leaves the file's value
    assert cfg.probe_top == 2  # the sweep's --top is the report length
    assert cfg.sweep == {"k_values": [2, 3], "budget": 4}
    assert cfg.sweep_spec().budget == 4
    assert cfg.sweep_spec().enforce_bounds is False


def test_config_defaults_are_baseline_preset():
    from litclust.cli import PipelineConfig
    from litclust.sweep import BASELINE_PRESET

    cfg = PipelineConfig()
    assert cfg.d == BASELINE_PRESET["d"]
    assert cfg.r == BASELINE_PRESET["r"]
    assert cfg.n_dims == BASELINE_PRESET["n_dims"]
    assert cfg.k == BASELINE_PRESET["k"]


def test_probe_full_flag_grammar(workspace):
    run_cli("cluster", "--config", "config.json")
    code = run_cli(
        "probe",
        "--corpus", "corpus.jsonl",
        "--assignments", "out/assignments.tsv",
        "--dict", str(DATA / "dictionary_10.json"),
        "--mode", "gene",
        "--top", "5",
        "--format", "graphml",
        "--out", "out",
    )
    assert code == 0
    assert (workspace / "out" / "network.graphml").exists()


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "litclust", "--help"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert "ingest" in proc.stdout
    assert "sweep" in proc.stdout


# The command that reads each damaged JSON input, and what it writes.
JSON_READERS = {
    "config.json": "evaluate",
    "out/manifest.json": "evaluate",
    "out/documents.json": "evaluate",
    "dictionary.json": "probe",
    "out/probe_report.json": "export",
}
WRITES = {"evaluate": "metrics.json", "probe": "probe_report.json", "export": "network.graphml"}


def damage(path, edit, at, value, garbage):
    """Apply one edit to the file at ``path``: the bytes left there, or
    None when it was replaced by a directory."""
    if edit == "directory":
        path.unlink()
        path.mkdir()
        return None
    data = path.read_bytes()
    i = int(at * len(data))
    data = {
        "truncate": data[:i],
        "flip": data[:i] + bytes([data[i] ^ value]) + data[i + 1:],
        "insert": data[:i] + b"\xff" + data[i:],
        "append": data + garbage,
    }[edit]
    path.write_bytes(data)
    return data


def is_json(data):
    try:
        json.loads(data.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError both are
        return False
    return True


class TestDamagedJsonInputs:
    """One edit to a JSON input ends in a documented exit code and no
    traceback; a file that is no JSON is named; and a damaged staged file
    is recomputed or refused, never read as other data."""

    @staticmethod
    def write_config(work):
        # It names only files the commands read and --out gives the output
        # directory, so no edit of the config can send an output elsewhere.
        config = {
            "corpus": str(work / "corpus.jsonl"),
            "dictionary": str(work / "dictionary.json"),
            "seed": 3,
            "restarts": 3,
        }
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")

    @staticmethod
    def run_in(work, command):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(work / "config.json"), "--out", str(work / "out")])
        return code, err.getvalue()

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        """A staged chain, and the outputs of clean runs of each reader."""
        staged = tmp_path_factory.mktemp("chain") / "staged"
        staged.mkdir()
        save_jsonl(gene_corpus(docs_per_topic=10), staged / "corpus.jsonl")
        shutil.copy(DATA / "dictionary_10.json", staged / "dictionary.json")
        self.write_config(staged)
        for command in ("vectorize", "embed", "cluster", "probe"):
            assert self.run_in(staged, command)[0] == 0
        clean = staged.parent / "clean"
        shutil.copytree(staged, clean)
        self.write_config(clean)
        for command in WRITES:
            assert self.run_in(clean, command)[0] == 0
        return staged, {command: (clean / "out" / name).read_bytes() for command, name in WRITES.items()}

    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(JSON_READERS)),
        edit=st.sampled_from(["truncate", "flip", "insert", "append", "directory"]),
        at=st.floats(0, 1, exclude_max=True),
        value=st.integers(1, 255),
        garbage=st.binary(min_size=1, max_size=8),
    )
    def test_a_damaged_json_input_exits_cleanly(self, chain, name, edit, at, value, garbage):
        staged, clean = chain
        with tempfile.TemporaryDirectory(dir=staged.parent) as tmp:
            work = Path(tmp) / "work"
            shutil.copytree(staged, work)
            self.write_config(work)
            left = damage(work / name, edit, at, value, garbage)
            command = JSON_READERS[name]
            code, err = self.run_in(work, command)
            assert code in (0, 2, 3, 4), err
            assert "Traceback" not in err
            # An edit that leaves JSON makes another input, whose refusal
            # may be about another file (a corpus path changed in the config).
            if code != 0 and (left is None or not is_json(left)):
                assert str(work / name) in err
            if code == 0 and name.startswith("out/"):
                assert (work / "out" / WRITES[command]).read_bytes() == clean[command]
