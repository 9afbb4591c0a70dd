"""Command-line pipeline driver.

Each subcommand runs one stage and writes its artifacts plus a shared
``manifest.json`` (config hash, seed, artifact digests) into the output
directory.  Configuration comes from a flat JSON file; command-line
flags override file values.  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 compute error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from litclust import __version__
from litclust import cluster as _cluster
from litclust import lsa as _lsa
from litclust import probe as _probe
from litclust import sweep as _sweep
from litclust import vectorize as _vec
from litclust.corpus import load_corpus, save_jsonl
from litclust.errors import ComputeError, ConfigError, DataError, LitclustError, ParseError
from litclust.evaluate import metrics_json, score_clustering

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


@dataclass
class PipelineConfig:
    """Resolved run configuration; defaults are the baseline preset."""

    corpus: str | None = None
    corpus_format: str = "jsonl"
    class_labels: list[str] | None = None
    d: float = 0.5
    r: int = 5
    n_dims: int = 15
    k: int = 4
    seed: int = 0
    restarts: int = 4
    dictionary: str | None = None
    out: str = "out"
    probe_mode: str = "gene"
    probe_top: int = 5
    network_format: str = "graphml"
    allow_out_of_bounds: bool = False
    sweep: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def validate(self) -> "PipelineConfig":
        """Type and enum checks for values that may arrive from the
        config file and therefore bypass argparse's choices, and the
        documented ranges of d, r, n_dims and k unless
        ``allow_out_of_bounds`` is set."""
        def expect(name, value, kinds):
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ConfigError(f"config key {name!r} has invalid value {value!r}")

        expect("d", self.d, (int, float))
        for name in ("r", "n_dims", "k", "seed", "restarts", "probe_top"):
            expect(name, getattr(self, name), int)
        if self.corpus_format not in ("jsonl", "pubmed_xml"):
            raise ConfigError(f"unknown corpus_format {self.corpus_format!r}")
        if self.probe_mode not in ("gene", "molecular"):
            raise ConfigError(f"unknown probe_mode {self.probe_mode!r}")
        if self.network_format not in _probe.EXPORT_FORMATS:
            raise ConfigError(f"unknown network_format {self.network_format!r}")
        if not isinstance(self.sweep, dict):
            raise ConfigError("config key 'sweep' must be an object")
        if not self.allow_out_of_bounds:
            for name, param in (("d", "d"), ("r", "r"), ("n_dims", "n"), ("k", "k")):
                value = getattr(self, name)
                if _sweep.out_of_bounds(param, [value]):
                    lo, hi = _sweep.BOUNDS[param]
                    raise ConfigError(
                        f"{name}={value} is outside the documented range [{lo}, {hi}]; "
                        f"pass --allow-out-of-bounds to use it anyway"
                    )
        return self


def load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """defaults < config file < command-line flags."""
    values: dict = {}
    config_path = getattr(args, "config", None) or getattr(args, "spec", None)
    if config_path:
        values.update(load_config_file(config_path))
    overrides = {
        "corpus": getattr(args, "corpus", None),
        "corpus_format": getattr(args, "corpus_format", None),
        "d": getattr(args, "d", None),
        "r": getattr(args, "r", None),
        "n_dims": getattr(args, "n_dims", None),
        "k": getattr(args, "k", None),
        "seed": getattr(args, "seed", None),
        "restarts": getattr(args, "restarts", None),
        "dictionary": getattr(args, "dict", None),
        "out": getattr(args, "out", None),
        "probe_mode": getattr(args, "mode", None),
        "network_format": getattr(args, "network_format", None),
    }
    # --top means probe_top only for the network-building commands; the
    # sweep's --top (report length) stays out of the config hash.
    if getattr(args, "command", None) in ("probe", "export"):
        overrides["probe_top"] = getattr(args, "top", None)
    values.update({k: v for k, v in overrides.items() if v is not None})
    if getattr(args, "allow_out_of_bounds", False):
        values["allow_out_of_bounds"] = True
    if getattr(args, "budget", None) is not None:
        values.setdefault("sweep", {})
        values["sweep"] = {**values["sweep"], "budget": args.budget}

    known = {f for f in PipelineConfig.__dataclass_fields__}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return PipelineConfig(**values).validate()


# -- artifact plumbing ---------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        # In blocks, so that hashing a large corpus adds no peak memory.
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_manifest(out_dir: Path) -> dict:
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        try:
            return json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            pass
    return {"artifacts": {}}


def _update_manifest(
    cfg: PipelineConfig, out_dir: Path, artifacts: list[Path], provenance: dict | None = None
) -> Path:
    """Record the artifacts' digests and, for each artifact named in
    ``provenance``, the config fields it was made from."""
    manifest_path = out_dir / "manifest.json"
    manifest = _read_manifest(out_dir)
    manifest["version"] = __version__
    manifest["config_hash"] = cfg.config_hash()
    manifest["seed"] = cfg.seed
    digests = manifest.get("artifacts", {})
    for path in artifacts:
        digests[path.name] = _sha256(path)
    manifest["artifacts"] = dict(sorted(digests.items()))
    if provenance:
        manifest["provenance"] = {**manifest.get("provenance", {}), **provenance}
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest_path


def _require_corpus(cfg: PipelineConfig):
    if not cfg.corpus:
        raise ConfigError("no corpus path given (flag --corpus or config key 'corpus')")
    if not Path(cfg.corpus).exists():
        raise ConfigError(f"corpus file not found: {cfg.corpus}")
    return load_corpus(cfg.corpus, format=cfg.corpus_format, class_labels=cfg.class_labels)


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_embedding(cfg: PipelineConfig, corpus):
    weighted = _vec.build_weighted_matrix(corpus, d_percent=cfg.d, rank_cutoff=cfg.r)
    return _lsa.reduce(
        weighted, cfg.n_dims, seed=_sweep.derive_seed(cfg.seed, "lsa", cfg.d, cfg.r, cfg.n_dims)
    )


def _build_clustering(cfg: PipelineConfig, corpus):
    return _cluster.kmeans(
        _build_embedding(cfg, corpus).vectors,
        cfg.k,
        seed=_sweep.derive_seed(cfg.seed, "kmeans", cfg.d, cfg.r, cfg.n_dims, cfg.k),
        restarts=cfg.restarts,
    )


def _clustering_fields(cfg: PipelineConfig) -> dict:
    """The config fields a clustering depends on; the corpus digest only
    when the config names an existing corpus file.  Each command that
    needs them computes them once, so the corpus is hashed once."""
    fields = {"d": float(cfg.d), "r": cfg.r, "n_dims": cfg.n_dims, "k": cfg.k,
              "seed": cfg.seed, "restarts": cfg.restarts}
    if cfg.corpus and Path(cfg.corpus).exists():
        fields["corpus_sha256"] = _sha256(Path(cfg.corpus))
    return fields


def _probe_fields(cfg: PipelineConfig, clustering_fields: dict) -> dict:
    """The config fields a probe report depends on: those of its
    clustering plus the probe mode and the dictionary digest."""
    fields = {**clustering_fields, "probe_mode": cfg.probe_mode}
    if cfg.dictionary and Path(cfg.dictionary).exists():
        fields["dictionary_sha256"] = _sha256(Path(cfg.dictionary))
    return fields


def _refuse_stale(path: Path, fields: dict) -> None:
    """Raise ConfigError if the manifest records ``path`` as made from
    other values of ``fields``.  A file the manifest has no record of
    (written by hand or by an older version) is taken as given."""
    recorded = _read_manifest(path.parent).get("provenance", {}).get(path.name)
    if recorded is None:
        return
    differ = [name for name in sorted(fields) if recorded.get(name) != fields[name]]
    if differ:
        made = ", ".join(f"{name}={recorded.get(name)!r}" for name in differ)
        wanted = ", ".join(f"{name}={fields[name]!r}" for name in differ)
        raise ConfigError(
            f"{path} was made with {made} but the config gives {wanted}; "
            f"rerun the stage that writes it or use another --out"
        )


def _load_or_compute_assignments(
    cfg: PipelineConfig, corpus, explicit: str | None, clustering_fields: dict
):
    """Assignments for the corpus: an explicit TSV (taken as given), the
    staged artifact if it was made from ``clustering_fields``, or a
    fresh in-memory clustering at the configured parameters."""
    if explicit and not Path(explicit).exists():
        raise DataError(f"assignments file not found: {explicit}")
    path = explicit or str(Path(cfg.out) / "assignments.tsv")
    if Path(path).exists():
        if not explicit:
            _refuse_stale(Path(path), clustering_fields)
        mapping = _cluster.load_assignments(path)
        missing = [d.id for d in corpus if d.id not in mapping]
        if missing:
            raise DataError(
                f"assignments file {path} does not cover document(s) {missing[:3]}"
            )
        return [mapping[d.id] for d in corpus]
    return list(_build_clustering(cfg, corpus).assignments)


# -- subcommands ---------------------------------------------------------


def cmd_ingest(cfg: PipelineConfig, args) -> dict:
    corpus = _require_corpus(cfg)
    out = _out_dir(cfg)
    dest = out / "corpus.jsonl"
    save_jsonl(corpus, dest)
    _update_manifest(cfg, out, [dest])
    return {
        "documents": len(corpus),
        "skipped": corpus.skipped,
        "labels": list(corpus.label_set),
        "artifacts": [str(dest)],
    }


def cmd_vectorize(cfg: PipelineConfig, args) -> dict:
    corpus = _require_corpus(cfg)
    out = _out_dir(cfg)
    counts = corpus.term_counts
    weighted = _vec.weigh(_vec.ablate_singletons(counts), cfg.d, cfg.r)
    counts_path = out / "counts.mtx"
    weights_path = out / "weights.mtx"
    vocab_path = out / "vocabulary.tsv"
    _vec.dump_matrix_market(counts, counts_path)
    _vec.dump_matrix_market(weighted, weights_path)
    _vec.dump_vocabulary(weighted, vocab_path)
    _update_manifest(cfg, out, [counts_path, weights_path, vocab_path])
    return {
        "terms": len(weighted.terms),
        "documents": len(weighted.docs),
        "artifacts": [str(counts_path), str(weights_path), str(vocab_path)],
    }


def cmd_embed(cfg: PipelineConfig, args) -> dict:
    corpus = _require_corpus(cfg)
    out = _out_dir(cfg)
    emb = _build_embedding(cfg, corpus)
    path = out / "embedding.tsv"
    _lsa.dump_embedding(emb, path)
    _update_manifest(cfg, out, [path])
    return {"dims": emb.dims, "documents": len(emb.docs), "artifacts": [str(path)]}


def cmd_cluster(cfg: PipelineConfig, args) -> dict:
    corpus = _require_corpus(cfg)
    out = _out_dir(cfg)
    clus = _build_clustering(cfg, corpus)
    assignments_path = out / "assignments.tsv"
    meta_path = out / "cluster_run.json"
    _cluster.dump_assignments(clus, corpus.doc_ids(), assignments_path)
    meta_path.write_text(_cluster.run_metadata(clus, cfg.seed) + "\n", encoding="utf-8")
    _update_manifest(
        cfg, out, [assignments_path, meta_path],
        provenance={assignments_path.name: _clustering_fields(cfg)},
    )
    return {
        "k": clus.k,
        "dissimilarity": clus.dissimilarity,
        "iterations": clus.iterations,
        "artifacts": [str(assignments_path), str(meta_path)],
    }


def cmd_evaluate(cfg: PipelineConfig, args) -> dict:
    corpus = _require_corpus(cfg)
    out = _out_dir(cfg)
    assignments = _load_or_compute_assignments(
        cfg, corpus, getattr(args, "assignments", None), _clustering_fields(cfg)
    )
    report = score_clustering(assignments, corpus.labels())
    path = out / "metrics.json"
    path.write_text(metrics_json(report) + "\n", encoding="utf-8")
    _update_manifest(cfg, out, [path])
    return {
        "homogeneity": report.homogeneity,
        "completeness": report.completeness,
        "v_measure": report.v_measure,
        "artifacts": [str(path)],
    }


def cmd_sweep(cfg: PipelineConfig, args) -> dict:
    corpus = _require_corpus(cfg)
    out = _out_dir(cfg)
    sweep_cfg = dict(cfg.sweep)
    spec = _sweep.SweepSpec(
        d_values=tuple(sweep_cfg.get("d_values", _sweep.DEFAULT_D_VALUES)),
        r_values=tuple(sweep_cfg.get("r_values", _sweep.DEFAULT_R_VALUES)),
        n_values=tuple(sweep_cfg.get("n_values", _sweep.DEFAULT_N_VALUES)),
        k_values=tuple(sweep_cfg.get("k_values", _sweep.DEFAULT_K_VALUES)),
        seed=cfg.seed,
        budget=sweep_cfg.get("budget"),
        restarts=sweep_cfg.get("restarts", 1),
        enforce_bounds=not cfg.allow_out_of_bounds,
    )
    rows_path = out / "rows.jsonl"
    rows = _sweep.run_sweep(corpus, spec, checkpoint_path=rows_path)
    report_path = out / "report.md"
    report_path.write_text(
        _sweep.render_report(rows, top_n=getattr(args, "top", None) or 5),
        encoding="utf-8",
    )
    # The curve is drawn at the config's (d, r, n_dims) over the sweep's
    # K values, from the grid's rows where it holds them (a row depends
    # only on its key, the seed and the restarts); K that did not run are
    # left out.
    point = (float(cfg.d), cfg.r, cfg.n_dims)
    at_point = {row.k: row for row in rows if row.key[:3] == point}
    missing = tuple(k for k in spec.k_values if k not in at_point)
    if missing:
        curve_spec = replace(
            spec, d_values=(cfg.d,), r_values=(cfg.r,), n_values=(cfg.n_dims,),
            k_values=missing, budget=None,
        )
        at_point.update((row.k, row) for row in _sweep.run_sweep(corpus, curve_spec))
    curve = [(k, row.v_measure) for k, row in sorted(at_point.items()) if row.ok]
    curve_path = out / "vk_curve.tsv"
    _sweep.write_v_curve(curve, curve_path)
    _update_manifest(cfg, out, [report_path, curve_path])
    executed = sum(1 for r in rows if r.ok)
    return {
        "combinations": len(rows),
        "executed": executed,
        "skipped": len(rows) - executed,
        "artifacts": [str(rows_path), str(report_path), str(curve_path)],
    }


def cmd_probe(cfg: PipelineConfig, args) -> dict:
    corpus = _require_corpus(cfg)
    out = _out_dir(cfg)
    if not cfg.dictionary:
        raise ConfigError("no dictionary path given (flag --dict or config key 'dictionary')")
    if not Path(cfg.dictionary).exists():
        raise ConfigError(f"dictionary file not found: {cfg.dictionary}")
    dictionary = _probe.load_dictionary(cfg.dictionary)
    clustering_fields = _clustering_fields(cfg)
    assignments = _load_or_compute_assignments(
        cfg, corpus, getattr(args, "assignments", None), clustering_fields
    )
    counts = _probe.count_occurrences(corpus, assignments, dictionary, mode=cfg.probe_mode)
    report = _probe.relative_weights(counts)
    report_path = out / "probe_report.json"
    report_path.write_text(_probe.report_to_json(report) + "\n", encoding="utf-8")
    net = _probe.build_network(report, top_n=cfg.probe_top)
    net_path = out / f"network.{cfg.network_format}"
    net_path.write_bytes(_probe.export_network(net, format=cfg.network_format))
    _update_manifest(
        cfg, out, [report_path, net_path],
        provenance={report_path.name: _probe_fields(cfg, clustering_fields)},
    )
    return {
        "entities": len(report.entity_globals),
        "clusters": len(report.clusters),
        "short_clusters": list(net.short_clusters),
        "artifacts": [str(report_path), str(net_path)],
    }


def cmd_export(cfg: PipelineConfig, args) -> dict:
    out = _out_dir(cfg)
    explicit = getattr(args, "report", None)
    source = explicit or str(out / "probe_report.json")
    if not Path(source).exists():
        raise DataError(f"probe report not found: {source}")
    if not explicit:
        _refuse_stale(Path(source), _probe_fields(cfg, _clustering_fields(cfg)))
    try:
        report = _probe.report_from_json(Path(source).read_text(encoding="utf-8"))
    except ParseError as exc:
        raise ParseError(f"{source}: {exc}") from exc
    net = _probe.build_network(report, top_n=cfg.probe_top)
    net_path = out / f"network.{cfg.network_format}"
    net_path.write_bytes(_probe.export_network(net, format=cfg.network_format))
    _update_manifest(cfg, out, [net_path])
    return {"artifacts": [str(net_path)]}


_COMMANDS = {
    "ingest": cmd_ingest,
    "vectorize": cmd_vectorize,
    "embed": cmd_embed,
    "cluster": cmd_cluster,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "probe": cmd_probe,
    "export": cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litclust",
        description="Cluster labeled document corpora and score cluster informativeness.",
    )
    parser.add_argument("--version", action="version", version=f"litclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--corpus", help="corpus file path")
        p.add_argument(
            "--corpus-format",
            dest="corpus_format",
            choices=["jsonl", "pubmed_xml"],
            help="corpus file format",
        )
        p.add_argument("--out", help="output directory (default 'out')")
        p.add_argument("--seed", type=int, help="top-level random seed")
        p.add_argument("--json", action="store_true", help="print a machine-readable result")
        p.add_argument(
            "--allow-out-of-bounds",
            action="store_true",
            help="permit parameter values outside the documented ranges",
        )

    def pipeline_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=float, help="document frequency floor, percent")
        p.add_argument("--r", type=int, help="per-document rank cutoff")
        p.add_argument("--n-dims", dest="n_dims", type=int, help="embedding dimensions")
        p.add_argument("--k", type=int, help="number of clusters")
        p.add_argument("--restarts", type=int, help="k-means restarts")

    p = sub.add_parser("ingest", help="normalize a corpus into canonical JSONL")
    common(p)

    p = sub.add_parser("vectorize", help="dump count/weight matrices and vocabulary")
    common(p)
    pipeline_flags(p)

    p = sub.add_parser("embed", help="dump the document embedding")
    common(p)
    pipeline_flags(p)

    p = sub.add_parser("cluster", help="k-means assignments and run metadata")
    common(p)
    pipeline_flags(p)

    p = sub.add_parser("evaluate", help="homogeneity/completeness/v-measure vs labels")
    common(p)
    pipeline_flags(p)
    p.add_argument("--assignments", help="assignments TSV (default: staged artifact)")

    p = sub.add_parser("sweep", help="randomized (D, R, N, K) grid sweep")
    common(p)
    p.add_argument("--spec", help="sweep config file (same shape as --config)")
    p.add_argument("--budget", type=int, help="max combinations to run")
    p.add_argument("--top", type=int, help="rows in the rendered report (default 5)")

    p = sub.add_parser("probe", help="match an entity dictionary against clusters")
    common(p)
    pipeline_flags(p)
    p.add_argument("--assignments", help="assignments TSV (default: staged artifact)")
    p.add_argument("--dict", help="entity dictionary JSON")
    p.add_argument("--mode", choices=["gene", "molecular"], help="matching mode")
    p.add_argument("--top", type=int, help="entities per cluster in the network")
    p.add_argument(
        "--format",
        dest="network_format",
        choices=list(_probe.EXPORT_FORMATS),
        help="network export format",
    )

    p = sub.add_parser("export", help="re-export a probe report as a network file")
    common(p)
    p.add_argument("--report", help="probe report JSON (default: staged artifact)")
    p.add_argument("--top", type=int, help="entities per cluster in the network")
    p.add_argument(
        "--format",
        dest="network_format",
        choices=list(_probe.EXPORT_FORMATS),
        help="network export format",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        result = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"litclust: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"litclust: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ComputeError as exc:
        print(f"litclust: compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except LitclustError as exc:  # safety net for anything uncategorized
        print(f"litclust: error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    if getattr(args, "json", False):
        print(json.dumps({"command": args.command, **result}, sort_keys=True))
    else:
        for key, value in result.items():
            if key != "artifacts":
                print(f"{key}: {value}")
        for artifact in result.get("artifacts", []):
            print(f"wrote {artifact}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
