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
from litclust.errors import ComputeError, ConfigError, DataError, LitclustError
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
    # So is the parsed corpus: a command parses it at most once, and not
    # at all when staged files give all it needs.
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


def _out_dir(cfg: PipelineConfig) -> Path:
    """The output directory, made if missing, once the command has loaded
    its named inputs and computed.  Its manifest is read before any artifact
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


# -- the command table ---------------------------------------------------

# What a command does with a staged artifact the manifest does not vouch
# for (``_unvouched``): compute it afresh; refuse it if its record gives
# other values, else compute it afresh; or, with nothing to compute it
# from, refuse it.
RECOMPUTE, REFUSE_OTHER_VALUES, REFUSE = "recompute", "refuse other values", "refuse"
_WEIGHING = dict.fromkeys(("weights.mtx", "vocabulary.tsv", "documents.json"), RECOMPUTE)
_EMBEDDING = {"embedding.tsv": RECOMPUTE, **_WEIGHING}
_ASSIGNMENTS = {"assignments.tsv": REFUSE_OTHER_VALUES, **_EMBEDDING}
_NETWORK_FILE, _NETWORK_FLAGS = "network.{network_format}", ("probe_top", "network_format")


@dataclass(frozen=True)
class Command:
    """A command's named inputs, loaded in this order before it computes;
    the policy for each staged artifact it may read; the artifacts it
    writes, formatted with the config's values; and the flags it takes
    that ``build_parser`` does not derive from these."""

    help: str
    inputs: tuple[str, ...] = ("corpus",)
    reads: dict = field(default_factory=dict)
    writes: tuple[str, ...] = ()
    extras: tuple[str, ...] = ()


COMMANDS = {
    "ingest": Command("normalize a corpus into canonical JSONL", writes=("corpus.jsonl",)),
    "vectorize": Command("dump the weighted matrix, its vocabulary and the document table",
                         writes=("weights.mtx", "vocabulary.tsv", "documents.json")),
    "embed": Command("dump the document embedding", reads=_WEIGHING, writes=("embedding.tsv",)),
    "cluster": Command("k-means assignments and run metadata", reads=_EMBEDDING,
                       writes=("assignments.tsv", "cluster_run.json")),
    "evaluate": Command("homogeneity/completeness/v-measure vs labels", ("corpus", "assignments"),
                        _ASSIGNMENTS, ("metrics.json",)),
    "sweep": Command("randomized (D, R, N, K) grid sweep",
                     writes=("rows.jsonl", "report.md", "vk_curve.tsv"), extras=("budget", "top")),
    "probe": Command("match an entity dictionary against clusters", ("corpus", "dictionary", "assignments"),
                     _ASSIGNMENTS, ("probe_report.json", _NETWORK_FILE), _NETWORK_FLAGS),
    "export": Command("re-export a probe report as a network file", ("report",),
                      {"probe_report.json": REFUSE}, (_NETWORK_FILE,), _NETWORK_FLAGS),
}

# Every flag, by its dest.  A flag that sets a config key has the key's name
# as its dest and None as its default; resolve_config reads it by that name.
FLAGS = {
    "config": ("--config", "JSON config file; flags override its values", {}),
    "corpus": ("--corpus", "corpus file path", {}),
    "corpus_format": ("--corpus-format", "corpus file format", {"choices": CHOICES["corpus_format"]}),
    "out": ("--out", "output directory (default 'out')", {}),
    "seed": ("--seed", "top-level random seed", {"type": int}),
    "json": ("--json", "print a machine-readable result", {"action": "store_true"}),
    "allow_out_of_bounds": ("--allow-out-of-bounds", "permit parameter values outside the documented ranges",
                            {"action": "store_true", "default": None}),
    "d": ("--d", "document frequency floor, percent", {"type": float}),
    "r": ("--r", "per-document rank cutoff", {"type": int}),
    "n_dims": ("--n-dims", "embedding dimensions", {"type": int}),
    "k": ("--k", "number of clusters", {"type": int}),
    "restarts": ("--restarts", "k-means restarts", {"type": int}),
    "dictionary": ("--dict", "entity dictionary JSON", {"metavar": "DICT"}),
    "probe_mode": ("--mode", "matching mode", {"choices": CHOICES["probe_mode"]}),
    "assignments": ("--assignments", "assignments TSV (default: staged artifact)", {}),
    "report": ("--report", "probe report JSON (default: staged artifact)", {}),
    "budget": ("--budget", "max combinations to run", {"type": int}),
    "top": ("--top", "rows in the rendered report (default 5)", {"type": int}),
    "probe_top": ("--top", "entities per cluster in the network", {"type": int, "metavar": "TOP"}),
    "network_format": ("--format", "network export format", {"choices": CHOICES["network_format"]}),
}
BASE_FLAGS = ("config", "corpus", "corpus_format", "out", "seed", "json", "allow_out_of_bounds")


def _given_file(path: str, what: str, error: type[LitclustError] = DataError) -> str:
    if not Path(path).is_file():
        raise error(f"{what} not found: {path}")
    return path


def _named_file(cfg: PipelineConfig, key: str) -> str:
    """The file the config names under ``key``, which must be there."""
    if not getattr(cfg, key):
        raise ConfigError(f"no {key} path given (flag {FLAGS[key][0]} or config key {key!r})")
    return _given_file(getattr(cfg, key), f"{key} file", ConfigError)


@dataclass
class Run:
    """What a command computes from: the config, the parsed flags, its row
    of ``COMMANDS`` and its named inputs, each loaded on first use."""

    cfg: PipelineConfig
    args: argparse.Namespace
    command: Command

    # The corpus is only checked: ``embed``, ``cluster`` and ``evaluate`` read
    # no text, so ``PipelineConfig.parsed_corpus`` parses it when first used.
    corpus = functools.cached_property(lambda self: _named_file(self.cfg, "corpus"))
    dictionary = functools.cached_property(
        lambda self: _probe.load_dictionary(_named_file(self.cfg, "dictionary")))
    # An explicit assignments file, taken as given; None when none is named.
    assignments = functools.cached_property(
        lambda self: self.args.assignments and _given_file(self.args.assignments, "assignments file"))

    @functools.cached_property
    def report(self) -> _probe.ProbeReport:
        """The ``--report`` file, taken as given, or else the staged report,
        which export has nothing to recompute from: unvouched, it is refused."""
        explicit = self.args.report
        source = _given_file(explicit or str(Path(self.cfg.out) / "probe_report.json"), "probe report")
        report = _probe.load_report(source)
        if not explicit and not _staged(self, Path(source)):
            raise ConfigError(
                f"{source} has no record in manifest.json of the probe that wrote it, "
                f"or was changed since; rerun `litclust probe` or pass the file with --report"
            )
        return report


def _staged(run: Run, *paths: Path) -> bool:
    """Whether the staged ``paths`` may all be read as made under the config,
    logged as one DEBUG record that says why they are recomputed (or refused)
    when they are not.  A record of other values is refused (ConfigError)
    unless the command's policy for each path is to recompute it."""
    policies = {run.command.reads[path.name] for path in paths}
    try:
        why = next(filter(None, (_unvouched(path, run.cfg) for path in paths)), None)
    except ConfigError:
        if policies != {RECOMPUTE}:
            raise
        why = "other values"
    outcome = "read" if why is None else f"{'refused' if REFUSE in policies else 'recomputed'} ({why})"
    log.debug("%s: %s", ", ".join(map(str, paths)), outcome)
    return why is None


def _document_table(run: Run) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    """The corpus's ids and labels in corpus order: read from the staged
    ``documents.json`` when it is vouched for, else taken from the parsed
    corpus."""
    path = Path(run.cfg.out) / "documents.json"
    if _staged(run, path):
        return load_document_table(path)
    corpus = run.cfg.parsed_corpus
    return corpus.doc_ids(), corpus.labels()


def _build_embedding(run: Run):
    """The corpus's embedding at (d, r, n_dims), from the staged
    ``weights.mtx`` and ``vocabulary.tsv`` when both are vouched for,
    else weighed afresh."""
    cfg, out = run.cfg, Path(run.cfg.out)
    weights_path, vocab_path = out / "weights.mtx", out / "vocabulary.tsv"
    if _staged(run, weights_path, vocab_path):
        ids, _ = _document_table(run)
        weighted = _vec.load_weighted_matrix(weights_path, vocab_path, ids)
    else:
        weighted = _vec.build_weighted_matrix(cfg.parsed_corpus, d_percent=cfg.d, rank_cutoff=cfg.r)
    return _sweep.embed_at(weighted, cfg.seed, cfg.d, cfg.r, cfg.n_dims)


def _build_clustering(run: Run):
    """The clustering at the config's point, and the ids of the documents
    it assigns, in order.  The embedding is read from the staged
    ``embedding.tsv`` when it is vouched for, else embedded afresh."""
    cfg, path = run.cfg, Path(run.cfg.out) / "embedding.tsv"
    if _staged(run, path):
        docs, vectors = _lsa.load_embedding(path)
        if vectors.shape[1] != cfg.n_dims:
            raise DataError(f"{path} has {vectors.shape[1]} dimensions, but n_dims is {cfg.n_dims}")
    else:
        emb = _build_embedding(run)
        docs, vectors = emb.docs, emb.vectors
    return docs, _sweep.cluster_at(vectors, cfg.seed, cfg.d, cfg.r, cfg.n_dims, cfg.k, cfg.restarts)


def _assignments(run: Run, ids) -> list[int]:
    """Assignments for the documents ``ids``, in their order: the explicit
    file's, the staged artifact's if it is vouched for, or a fresh
    in-memory clustering at the configured parameters."""
    path = run.assignments or Path(run.cfg.out) / "assignments.tsv"
    if not run.assignments and not _staged(run, path):
        return list(_build_clustering(run)[1].assignments)
    mapping = _cluster.load_assignments(path)
    missing = [doc_id for doc_id in ids if doc_id not in mapping]
    if missing:
        raise DataError(f"assignments file {path} does not cover document(s) {missing[:3]}")
    return [mapping[doc_id] for doc_id in ids]


def _run(name: str, cfg: PipelineConfig, args: argparse.Namespace) -> dict:
    """Run command ``name`` in the one order: load its named inputs, compute,
    make ``--out``, write what the computation gave (bytes, or a function
    that writes the file at a path) and record its row's artifacts in one
    manifest update."""
    run = Run(cfg, args, COMMANDS[name])
    for key in run.command.inputs:
        getattr(run, key)
    summary, files = _COMMANDS[name](run)
    out = _out_dir(cfg)
    paths = [out / artifact.format_map(vars(cfg)) for artifact in run.command.writes]
    for path in paths:
        write = files.get(path.name)  # none for the checkpoint the sweep wrote as it computed
        if isinstance(write, bytes):
            path.write_bytes(write)
        elif write:
            write(path)
    return {**summary, "artifacts": _update_manifest(cfg, out, paths)}


# -- subcommands: each computes, and returns its summary and its files ---


def cmd_ingest(run: Run) -> tuple[dict, dict]:
    corpus = run.cfg.parsed_corpus
    summary = {"documents": len(corpus), "skipped": corpus.skipped, "labels": list(corpus.label_set)}
    return summary, {"corpus.jsonl": functools.partial(save_jsonl, corpus)}


def cmd_vectorize(run: Run) -> tuple[dict, dict]:
    corpus = run.cfg.parsed_corpus
    weighted = _vec.build_weighted_matrix(corpus, d_percent=run.cfg.d, rank_cutoff=run.cfg.r)
    return {"terms": len(weighted.terms), "documents": len(weighted.docs)}, {
        "weights.mtx": functools.partial(_vec.dump_matrix_market, weighted),
        "vocabulary.tsv": functools.partial(_vec.dump_vocabulary, weighted),
        # The columns of weights.mtx are the corpus's documents, in order.
        "documents.json": functools.partial(save_document_table, corpus),
    }


def cmd_embed(run: Run) -> tuple[dict, dict]:
    emb = _build_embedding(run)
    return {"dims": emb.dims, "documents": len(emb.docs)}, {
        "embedding.tsv": functools.partial(_lsa.dump_embedding, emb),
    }


def cmd_cluster(run: Run) -> tuple[dict, dict]:
    ids, clus = _build_clustering(run)
    return {"k": clus.k, "dissimilarity": clus.dissimilarity, "iterations": clus.iterations}, {
        "assignments.tsv": functools.partial(_cluster.dump_assignments, clus, ids),
        "cluster_run.json": (_cluster.run_metadata(clus, run.cfg.seed) + "\n").encode(),
    }


def cmd_evaluate(run: Run) -> tuple[dict, dict]:
    ids, labels = _document_table(run)
    report = score_clustering(_assignments(run, ids), labels)
    return {"homogeneity": report.homogeneity, "completeness": report.completeness,
            "v_measure": report.v_measure}, {"metrics.json": (metrics_json(report) + "\n").encode()}


def cmd_sweep(run: Run) -> tuple[dict, dict]:
    cfg = run.cfg
    top = 5 if run.args.top is None else check_positive_int(run.args.top, "--top")
    corpus = cfg.parsed_corpus
    spec = cfg.sweep_spec()
    # It checkpoints its rows as it computes, so it makes --out first.
    rows = _sweep.run_sweep(corpus, spec, checkpoint_path=_out_dir(cfg) / "rows.jsonl")
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
    executed = sum(1 for r in rows if r.ok)
    return {"combinations": len(rows), "executed": executed, "skipped": len(rows) - executed}, {
        "report.md": _sweep.render_report(rows, top_n=top).encode(),
        "vk_curve.tsv": functools.partial(_sweep.write_v_curve, curve),
    }


def cmd_probe(run: Run) -> tuple[dict, dict]:
    cfg, corpus = run.cfg, run.cfg.parsed_corpus
    assignments = _assignments(run, corpus.doc_ids())
    counts = _probe.count_occurrences(corpus, assignments, run.dictionary, mode=cfg.probe_mode)
    report = _probe.relative_weights(counts)
    net = _probe.build_network(report, top_n=cfg.probe_top)
    summary = {"entities": len(report.entity_globals), "clusters": len(report.clusters),
               "short_clusters": list(net.short_clusters)}
    return summary, {
        "probe_report.json": (_probe.report_to_json(report) + "\n").encode(),
        f"network.{cfg.network_format}": _probe.export_network(net, format=cfg.network_format),
    }


def cmd_export(run: Run) -> tuple[dict, dict]:
    cfg = run.cfg
    net = _probe.build_network(run.report, top_n=cfg.probe_top)
    return {}, {f"network.{cfg.network_format}": _probe.export_network(net, format=cfg.network_format)}


# ``_run`` looks each ``cmd_<name>`` up here at call time, so a wrapped one is run.
_COMMANDS = {name: globals()[f"cmd_{name}"] for name in COMMANDS}


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        # Its named inputs, and every MADE_FROM key of what it reads or
        # writes that has a flag; a file's digest has the file's flag.
        made_from = [key.removesuffix("_sha256") for artifact in (*command.reads, *command.writes)
                     for key in MADE_FROM.get(artifact, ())]
        for dest in dict.fromkeys((*BASE_FLAGS, *command.inputs, *made_from, *command.extras)):
            if dest in FLAGS:
                flag, help_text, options = FLAGS[dest]
                p.add_argument(flag, dest=dest, help=help_text, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        result = _run(args.command, cfg, args)
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
