"""Command-line pipeline driver.

Each subcommand runs one stage and writes its artifacts plus a shared
``manifest.json`` (config hash, seed, artifact digests) into the output
directory.  Configuration comes from a flat JSON file; command-line
flags override file values.  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 compute error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from litclust import __version__
from litclust import cluster as _cluster
from litclust import lsa as _lsa
from litclust import probe as _probe
from litclust import sweep as _sweep
from litclust import vectorize as _vec
from litclust.base import check_positive_int, is_number, read_json, replace_file
from litclust.corpus import load_corpus, load_document_table, save_document_table, save_jsonl
from litclust.errors import ComputeError, ConfigError, DataError, LitclustError, ParseError
from litclust.evaluate import metrics_json, score_clustering

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


# The allowed values of the enum-like config keys, and the least value
# of the integer keys that have one (the seed's is checked by the sweep
# spec that every config builds).
CHOICES = {
    "corpus_format": ("jsonl", "pubmed_xml"),
    "probe_mode": ("gene", "molecular"),
    "network_format": _probe.EXPORT_FORMATS,
}
MINIMUM = {"r": 1, "n_dims": 1, "k": 1, "restarts": 1, "probe_top": 1}

# What each staged artifact is made from: the keys of the record that
# the command writing it puts in the manifest's ``provenance``, and that
# every command reading it compares with its own config's values.
_WEIGHTS = ("corpus_sha256", "d", "r")
_CLUSTERING = (*_WEIGHTS, "n_dims", "k", "seed", "restarts")
MADE_FROM = {
    "weights.mtx": _WEIGHTS,
    "vocabulary.tsv": _WEIGHTS,
    # The ids; for PubMed XML, the labels depend on the format and priority too.
    "documents.json": ("corpus_sha256", "corpus_format", "class_labels"),
    "embedding.tsv": (*_WEIGHTS, "n_dims", "seed"),
    "assignments.tsv": _CLUSTERING,
    "probe_report.json": (*_CLUSTERING, "probe_mode", "dictionary_sha256"),
}


@dataclass
class PipelineConfig:
    """Resolved run configuration; defaults are the baseline preset.

    The fields are the only statement of each config key's type and
    default.  ``sweep`` holds ``SweepSpec``'s fields but ``seed`` and
    ``enforce_bounds``, which come from ``seed`` and ``allow_out_of_bounds``.
    """

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
        """sha256 of every field but ``out``, with the sha256 of the
        corpus and dictionary files in place of their paths (None when
        no file is named): where a run reads and writes its files does
        not change what they hold."""
        settings = asdict(self)
        del settings["out"]
        settings["corpus"], settings["dictionary"] = self.corpus_sha256, self.dictionary_sha256
        blob = json.dumps(settings, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def validate(self) -> "PipelineConfig":
        """Check every value against its field's annotation, the enum
        choices and minimums, the documented ranges of d, r, n_dims and k
        unless ``allow_out_of_bounds`` is set, and the ``sweep`` section
        by building its spec."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, _HINTS[f.name]):
                raise ConfigError(f"config key {f.name!r} must be {f.type}, got {value!r}")
            if f.name in CHOICES and value not in CHOICES[f.name]:
                raise ConfigError(
                    f"config key {f.name!r} must be one of {list(CHOICES[f.name])}, got {value!r}"
                )
            if f.name in MINIMUM and value < MINIMUM[f.name]:
                raise ConfigError(f"config key {f.name!r} must be >= {MINIMUM[f.name]}, got {value}")
        # 1 and 1.0 are one d: stored as a float, they hash and record alike.
        self.d = float(self.d)
        if not self.allow_out_of_bounds:
            for name, param in (("d", "d"), ("r", "r"), ("n_dims", "n"), ("k", "k")):
                value = getattr(self, name)
                if _sweep.out_of_bounds(param, [value]):
                    lo, hi = _sweep.BOUNDS[param]
                    raise ConfigError(
                        f"{name}={value} is outside the documented range [{lo}, {hi}]; "
                        f"pass --allow-out-of-bounds to use it anyway"
                    )
        self.sweep_spec()
        return self

    def sweep_spec(self) -> _sweep.SweepSpec:
        """The checked grid the ``sweep`` section describes."""
        unknown = set(self.sweep) - _SWEEP_KEYS
        if unknown:
            raise ConfigError(
                f"unknown sweep keys: {sorted(unknown)} (the sweep takes {sorted(_SWEEP_KEYS)}; "
                f"its seed and bounds check come from 'seed' and 'allow_out_of_bounds')"
            )
        spec = _sweep.SweepSpec(
            **self.sweep, seed=self.seed, enforce_bounds=not self.allow_out_of_bounds
        )
        spec.validate()
        return spec

    # The corpus and dictionary digests are taken on first use, so a
    # command hashes each file at most once, and only when it records or
    # reads an artifact made from it; they are None when the config names
    # no such file.
    corpus_sha256 = functools.cached_property(lambda self: _file_sha256(self.corpus))
    dictionary_sha256 = functools.cached_property(lambda self: _file_sha256(self.dictionary))
    # So is the parsed corpus (see ``_corpus``): a command parses it at
    # most once, and not at all when staged files give all it needs.
    parsed_corpus = functools.cached_property(
        lambda self: load_corpus(self.corpus, format=self.corpus_format, class_labels=self.class_labels)
    )


_HINTS = typing.get_type_hints(PipelineConfig)
_KEYS = set(_HINTS)
_SWEEP_KEYS = {f.name for f in fields(_sweep.SweepSpec)} - {"seed", "enforce_bounds"}


def _fits(value, hint) -> bool:
    """Whether a JSON or flag value has the annotated type; numbers follow
    ``is_number``, so a float field takes an int but no bool or NaN."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if hint in (int, float):
        return is_number(value, integer=hint is int)
    return isinstance(value, hint)


def load_config_file(path: str) -> dict:
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    data = read_json(path, ConfigError)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """defaults < config file < command-line flags."""
    values = load_config_file(args.config) if args.config else {}
    flags = vars(args)
    values.update({key: flags[key] for key in _KEYS if flags.get(key) is not None})
    sweep = values.get("sweep", {})
    if flags.get("budget") is not None and isinstance(sweep, dict):
        values["sweep"] = {**sweep, "budget": args.budget}
    unknown = set(values) - _KEYS
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


def _file_sha256(path: str | None) -> str | None:
    """The sha256 of the regular file at ``path``; None if there is none."""
    return _sha256(Path(path)) if path and Path(path).is_file() else None


def _read_manifest(out_dir: Path) -> dict:
    """The directory's manifest, or an empty one if it has none.  A
    malformed manifest raises DataError: read as empty, it would let a
    stale artifact pass and lose its provenance on the next write."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        return {"artifacts": {}}
    manifest = read_json(manifest_path, DataError)
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: malformed manifest (not a JSON object)")
    provenance = manifest.get("provenance", {})
    if not (
        isinstance(manifest.get("artifacts", {}), dict)
        and isinstance(provenance, dict)
        and all(isinstance(record, dict) for record in provenance.values())
    ):
        raise DataError(f"{manifest_path}: malformed manifest (artifacts or provenance not objects)")
    return manifest


def _update_manifest(cfg: PipelineConfig, out_dir: Path, artifacts: list[Path]) -> list[str]:
    """Record the artifacts' digests and, for each artifact ``MADE_FROM``
    names, the config's values of its keys; return the artifacts' paths."""
    manifest_path = out_dir / "manifest.json"
    manifest = _read_manifest(out_dir)
    manifest["version"] = __version__
    manifest["config_hash"] = cfg.config_hash()
    manifest["seed"] = cfg.seed
    digests = manifest.get("artifacts", {})
    provenance = manifest.get("provenance", {})
    for path in artifacts:
        digests[path.name] = _sha256(path)
        if path.name in MADE_FROM:
            provenance[path.name] = {key: getattr(cfg, key) for key in MADE_FROM[path.name]}
    manifest["artifacts"] = dict(sorted(digests.items()))
    if provenance:
        manifest["provenance"] = provenance
    # Replaced whole, so a write cut short never leaves a truncated manifest.
    replace_file(manifest_path, (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode())
    return [str(path) for path in artifacts]


def _require_corpus(cfg: PipelineConfig) -> None:
    """Every command that works on a corpus first checks that the config
    names a corpus file that is there, also when it will not parse it."""
    if not cfg.corpus:
        raise ConfigError("no corpus path given (flag --corpus or config key 'corpus')")
    if not Path(cfg.corpus).is_file():
        raise ConfigError(f"corpus file not found: {cfg.corpus}")


def _corpus(cfg: PipelineConfig):
    """The parsed corpus; ``embed``, ``cluster`` and ``evaluate`` read no
    text, so they ask for it only when a staged file cannot stand in."""
    _require_corpus(cfg)
    return cfg.parsed_corpus


def _out_dir(cfg: PipelineConfig) -> Path:
    """The output directory, made if missing, once the command has checked
    the inputs it is given by name.  Its manifest is read before any artifact
    is written, so a malformed one (DataError) leaves the directory as it was."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {out} is not a directory (a file is in its path)") from exc
    _read_manifest(out)
    return out


def _unvouched(path: Path, cfg: PipelineConfig) -> str | None:
    """Why the staged ``path`` may not be read as made under ``cfg``, or
    None when it may: the manifest records it with the config's value of
    each key of its ``MADE_FROM`` row, and it still has its recorded
    digest.  A digest the config has no value for (it names no such file)
    is not compared.  The reasons are "missing", "no record" and "digest
    changed"; a record that gives other values raises ConfigError."""
    if not path.is_file():
        return "missing"
    manifest = _read_manifest(path.parent)
    recorded = manifest.get("provenance", {}).get(path.name)
    if recorded is None:
        return "no record"
    values = {key: getattr(cfg, key) for key in sorted(MADE_FROM[path.name])}
    differ = [
        key for key, value in values.items()
        if recorded.get(key) != value and not (value is None and key.endswith("_sha256"))
    ]
    if differ:
        made = ", ".join(f"{key}={recorded.get(key)!r}" for key in differ)
        wanted = ", ".join(f"{key}={values[key]!r}" for key in differ)
        raise ConfigError(
            f"{path} was made with {made} but the config gives {wanted}; "
            f"rerun the stage that writes it or use another --out"
        )
    if manifest.get("artifacts", {}).get(path.name) != _sha256(path):
        return "digest changed"
    return None


def _staged(cfg: PipelineConfig, *paths: Path, refuse: bool = False) -> bool:
    """Whether the staged ``paths`` may all be read as made under ``cfg``,
    logged as one DEBUG record that says why they are recomputed when
    they are not read.  A record of other values is refused (ConfigError)
    when ``refuse`` is set, and is recomputed like any other mismatch
    when it is not."""
    try:
        why = next(filter(None, (_unvouched(path, cfg) for path in paths)), None)
    except ConfigError:
        if refuse:
            raise
        why = "other values"
    names = ", ".join(map(str, paths))
    if why is None:
        log.debug("%s: read", names)
    else:
        log.debug("%s: recomputed (%s)", names, why)
    return why is None


def _document_table(cfg: PipelineConfig) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    """The corpus's ids and labels in corpus order: read from the staged
    ``documents.json`` when it is vouched for, else taken from the parsed
    corpus.  It is an intermediate, so it is recomputed, never refused."""
    path = Path(cfg.out) / "documents.json"
    if _staged(cfg, path):
        return load_document_table(path)
    corpus = _corpus(cfg)
    return corpus.doc_ids(), corpus.labels()


def _build_embedding(cfg: PipelineConfig):
    """The corpus's embedding at (d, r, n_dims), from the staged
    ``weights.mtx`` and ``vocabulary.tsv`` when both are vouched for,
    else weighed afresh.  They are intermediates, so a stale or missing
    pair is recomputed, never refused."""
    out = Path(cfg.out)
    weights_path, vocab_path = out / "weights.mtx", out / "vocabulary.tsv"
    if _staged(cfg, weights_path, vocab_path):
        ids, _ = _document_table(cfg)
        weighted = _vec.load_weighted_matrix(weights_path, vocab_path, ids)
    else:
        weighted = _vec.build_weighted_matrix(_corpus(cfg), d_percent=cfg.d, rank_cutoff=cfg.r)
    return _sweep.embed_at(weighted, cfg.seed, cfg.d, cfg.r, cfg.n_dims)


def _build_clustering(cfg: PipelineConfig):
    """The clustering at the config's point, and the ids of the documents
    it assigns, in order.  The embedding is read from the staged
    ``embedding.tsv`` when it is vouched for, else embedded afresh; it is
    an intermediate, so it is recomputed, never refused."""
    path = Path(cfg.out) / "embedding.tsv"
    if _staged(cfg, path):
        docs, vectors = _lsa.load_embedding(path)
        if vectors.shape[1] != cfg.n_dims:
            raise DataError(f"{path} has {vectors.shape[1]} dimensions, but n_dims is {cfg.n_dims}")
    else:
        emb = _build_embedding(cfg)
        docs, vectors = emb.docs, emb.vectors
    clus = _sweep.cluster_at(vectors, cfg.seed, cfg.d, cfg.r, cfg.n_dims, cfg.k, cfg.restarts)
    return docs, clus


def _load_or_compute_assignments(cfg: PipelineConfig, ids, explicit: str | None):
    """Assignments for the documents ``ids``, in their order: an explicit
    TSV (taken as given), the staged artifact if it is vouched for, or a
    fresh in-memory clustering at the configured parameters.  A staged
    file recorded under other values is refused; one with no record, or
    changed since it was recorded, is recomputed."""
    if explicit and not Path(explicit).is_file():
        raise DataError(f"assignments file not found: {explicit}")
    path = explicit or str(Path(cfg.out) / "assignments.tsv")
    if explicit or _staged(cfg, Path(path), refuse=True):
        mapping = _cluster.load_assignments(path)
        missing = [doc_id for doc_id in ids if doc_id not in mapping]
        if missing:
            raise DataError(
                f"assignments file {path} does not cover document(s) {missing[:3]}"
            )
        return [mapping[doc_id] for doc_id in ids]
    return list(_build_clustering(cfg)[1].assignments)


# -- subcommands ---------------------------------------------------------


def cmd_ingest(cfg: PipelineConfig, args) -> dict:
    corpus = _corpus(cfg)
    out = _out_dir(cfg)
    dest = out / "corpus.jsonl"
    save_jsonl(corpus, dest)
    return {
        "documents": len(corpus),
        "skipped": corpus.skipped,
        "labels": list(corpus.label_set),
        "artifacts": _update_manifest(cfg, out, [dest]),
    }


def cmd_vectorize(cfg: PipelineConfig, args) -> dict:
    corpus = _corpus(cfg)
    out = _out_dir(cfg)
    weighted = _vec.build_weighted_matrix(corpus, d_percent=cfg.d, rank_cutoff=cfg.r)
    weights_path = out / "weights.mtx"
    vocab_path = out / "vocabulary.tsv"
    documents_path = out / "documents.json"
    _vec.dump_matrix_market(weighted, weights_path)
    _vec.dump_vocabulary(weighted, vocab_path)
    # The columns of weights.mtx are the corpus's documents, in order.
    save_document_table(corpus, documents_path)
    artifacts = [weights_path, vocab_path, documents_path]
    return {
        "terms": len(weighted.terms),
        "documents": len(weighted.docs),
        "artifacts": _update_manifest(cfg, out, artifacts),
    }


def cmd_embed(cfg: PipelineConfig, args) -> dict:
    _require_corpus(cfg)
    out = _out_dir(cfg)
    emb = _build_embedding(cfg)
    path = out / "embedding.tsv"
    _lsa.dump_embedding(emb, path)
    artifacts = _update_manifest(cfg, out, [path])
    return {"dims": emb.dims, "documents": len(emb.docs), "artifacts": artifacts}


def cmd_cluster(cfg: PipelineConfig, args) -> dict:
    _require_corpus(cfg)
    out = _out_dir(cfg)
    ids, clus = _build_clustering(cfg)
    assignments_path = out / "assignments.tsv"
    meta_path = out / "cluster_run.json"
    _cluster.dump_assignments(clus, ids, assignments_path)
    meta_path.write_text(_cluster.run_metadata(clus, cfg.seed) + "\n", encoding="utf-8")
    return {
        "k": clus.k,
        "dissimilarity": clus.dissimilarity,
        "iterations": clus.iterations,
        "artifacts": _update_manifest(cfg, out, [assignments_path, meta_path]),
    }


def cmd_evaluate(cfg: PipelineConfig, args) -> dict:
    _require_corpus(cfg)
    ids, labels = _document_table(cfg)
    assignments = _load_or_compute_assignments(cfg, ids, getattr(args, "assignments", None))
    out = _out_dir(cfg)
    report = score_clustering(assignments, labels)
    path = out / "metrics.json"
    path.write_text(metrics_json(report) + "\n", encoding="utf-8")
    return {
        "homogeneity": report.homogeneity,
        "completeness": report.completeness,
        "v_measure": report.v_measure,
        "artifacts": _update_manifest(cfg, out, [path]),
    }


def cmd_sweep(cfg: PipelineConfig, args) -> dict:
    top = 5 if args.top is None else check_positive_int(args.top, "--top")
    corpus = _corpus(cfg)
    out = _out_dir(cfg)
    spec = cfg.sweep_spec()
    rows_path = out / "rows.jsonl"
    rows = _sweep.run_sweep(corpus, spec, checkpoint_path=rows_path)
    report_path = out / "report.md"
    report_path.write_text(_sweep.render_report(rows, top_n=top), encoding="utf-8")
    # The curve is drawn at the config's (d, r, n_dims) over the sweep's
    # K values, from the grid's rows where it holds them (a row depends
    # only on its key, the seed and the restarts); K that did not run are
    # left out.
    point = (cfg.d, cfg.r, cfg.n_dims)
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
    executed = sum(1 for r in rows if r.ok)
    return {
        "combinations": len(rows),
        "executed": executed,
        "skipped": len(rows) - executed,
        "artifacts": _update_manifest(cfg, out, [rows_path, report_path, curve_path]),
    }


def cmd_probe(cfg: PipelineConfig, args) -> dict:
    corpus = _corpus(cfg)
    if not cfg.dictionary:
        raise ConfigError("no dictionary path given (flag --dict or config key 'dictionary')")
    if not Path(cfg.dictionary).is_file():
        raise ConfigError(f"dictionary file not found: {cfg.dictionary}")
    dictionary = _probe.load_dictionary(cfg.dictionary)
    assignments = _load_or_compute_assignments(cfg, corpus.doc_ids(), getattr(args, "assignments", None))
    out = _out_dir(cfg)
    counts = _probe.count_occurrences(corpus, assignments, dictionary, mode=cfg.probe_mode)
    report = _probe.relative_weights(counts)
    report_path = out / "probe_report.json"
    report_path.write_text(_probe.report_to_json(report) + "\n", encoding="utf-8")
    net = _probe.build_network(report, top_n=cfg.probe_top)
    net_path = out / f"network.{cfg.network_format}"
    net_path.write_bytes(_probe.export_network(net, format=cfg.network_format))
    return {
        "entities": len(report.entity_globals),
        "clusters": len(report.clusters),
        "short_clusters": list(net.short_clusters),
        "artifacts": _update_manifest(cfg, out, [report_path, net_path]),
    }


def cmd_export(cfg: PipelineConfig, args) -> dict:
    explicit = getattr(args, "report", None)
    source = explicit or str(Path(cfg.out) / "probe_report.json")
    if not Path(source).is_file():
        raise DataError(f"probe report not found: {source}")
    try:
        report = _probe.report_from_json(Path(source).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not UTF-8 text ({exc.reason})") from exc
    except ParseError as exc:
        raise ParseError(f"{source}: {exc}") from exc
    # export has no corpus step to recompute the report from, so a staged
    # one it cannot vouch for is refused.
    if not explicit and _unvouched(Path(source), cfg):
        raise ConfigError(
            f"{source} has no record in manifest.json of the probe that wrote it, "
            f"or was changed since; rerun `litclust probe` or pass the file with --report"
        )
    out = _out_dir(cfg)
    net = _probe.build_network(report, top_n=cfg.probe_top)
    net_path = out / f"network.{cfg.network_format}"
    net_path.write_bytes(_probe.export_network(net, format=cfg.network_format))
    return {"artifacts": _update_manifest(cfg, out, [net_path])}


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


# Built once per process and shared, so no caller may change it; argparse
# gives each parse a namespace of its own.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litclust",
        description="Cluster labeled document corpora and score cluster informativeness.",
    )
    parser.add_argument("--version", action="version", version=f"litclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "ingest": "normalize a corpus into canonical JSONL",
        "vectorize": "dump the weighted matrix, its vocabulary and the document table",
        "embed": "dump the document embedding",
        "cluster": "k-means assignments and run metadata",
        "evaluate": "homogeneity/completeness/v-measure vs labels",
        "sweep": "randomized (D, R, N, K) grid sweep",
        "probe": "match an entity dictionary against clusters",
        "export": "re-export a probe report as a network file",
    }
    # A flag that sets a config key has the key's name as its dest and
    # None as its default; resolve_config reads it by that name.
    for command, help_text in helps.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--corpus", help="corpus file path")
        p.add_argument("--corpus-format", dest="corpus_format", choices=CHOICES["corpus_format"],
                       help="corpus file format")
        p.add_argument("--out", help="output directory (default 'out')")
        p.add_argument("--seed", type=int, help="top-level random seed")
        p.add_argument("--json", action="store_true", help="print a machine-readable result")
        p.add_argument("--allow-out-of-bounds", action="store_true", default=None,
                       help="permit parameter values outside the documented ranges")
        if command in ("vectorize", "embed", "cluster", "evaluate", "probe"):
            p.add_argument("--d", type=float, help="document frequency floor, percent")
            p.add_argument("--r", type=int, help="per-document rank cutoff")
            p.add_argument("--n-dims", dest="n_dims", type=int, help="embedding dimensions")
            p.add_argument("--k", type=int, help="number of clusters")
            p.add_argument("--restarts", type=int, help="k-means restarts")
        if command in ("evaluate", "probe"):
            p.add_argument("--assignments", help="assignments TSV (default: staged artifact)")
        if command == "sweep":
            p.add_argument("--budget", type=int, help="max combinations to run")
            p.add_argument("--top", type=int, help="rows in the rendered report (default 5)")
        if command == "probe":
            p.add_argument("--dict", dest="dictionary", metavar="DICT", help="entity dictionary JSON")
            p.add_argument("--mode", dest="probe_mode", choices=CHOICES["probe_mode"],
                           help="matching mode")
        if command == "export":
            p.add_argument("--report", help="probe report JSON (default: staged artifact)")
        if command in ("probe", "export"):
            p.add_argument("--top", dest="probe_top", type=int, metavar="TOP",
                           help="entities per cluster in the network")
            p.add_argument("--format", dest="network_format", choices=CHOICES["network_format"],
                           help="network export format")
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
