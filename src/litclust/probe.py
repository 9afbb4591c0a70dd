"""Entity-dictionary probing of clustered documents.

A dictionary of {symbol, aliases, description} entries is matched
against clusters in one of two modes: ``gene`` counts whole-token
occurrences of symbols/aliases, ``molecular`` counts documents whose
normalized text contains the description phrase.  Each entity's
per-cluster counts are turned into relative-expression weights (count
minus the proportional share of the global count), which sum to zero
across clusters by construction.  Top-ranked entities per cluster form
a cluster-entity graph whose shared entity nodes create cross-cluster
paths.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence
from xml.sax.saxutils import escape, quoteattr

import numpy as np
from scipy import sparse

from litclust.base import is_number, read_json
from litclust.corpus import Corpus, normalize_text, tokenize_text
from litclust.errors import EmptyDictionary, ParseError

log = logging.getLogger(__name__)

# Alias match keys shorter than this are dropped: one- and two-character
# aliases collide with ordinary prose far too often.
MIN_ALIAS_LEN = 3
DEFAULT_TOP_N = 5
EXPORT_FORMATS = ("graphml", "dot", "json")


@dataclass(frozen=True)
class DictionaryEntry:
    symbol: str
    aliases: tuple[str, ...]
    description: str


class GeneDictionary:
    """Deduplicated entity lexicon with normalized match keys.

    Entries are processed in input order: a repeated symbol drops the
    later entry, and an alias already claimed (as a symbol or alias) is
    dropped from the later entry, keeping the first claim.
    """

    def __init__(self, entries: Sequence[DictionaryEntry]):
        kept: list[DictionaryEntry] = []
        claimed: dict[str, str] = {}
        for entry in entries:
            sym_key = entry.symbol.strip().lower()
            if not sym_key:
                log.warning("dropping dictionary entry with empty symbol")
                continue
            if sym_key in claimed:
                log.warning(
                    "dropping duplicate dictionary entry %r (already claimed by %r)",
                    entry.symbol,
                    claimed[sym_key],
                )
                continue
            claimed[sym_key] = sym_key
            aliases = []
            for alias in entry.aliases:
                key = alias.strip().lower()
                if not key or key == sym_key:
                    continue
                if key in claimed:
                    log.warning(
                        "dropping alias %r of %r (already claimed by %r)",
                        alias,
                        entry.symbol,
                        claimed[key],
                    )
                    continue
                claimed[key] = sym_key
                aliases.append(key)
            kept.append(
                DictionaryEntry(
                    symbol=sym_key,
                    aliases=tuple(aliases),
                    description=normalize_text(entry.description),
                )
            )
        if not kept:
            raise EmptyDictionary("no usable dictionary entries")
        self.entries: tuple[DictionaryEntry, ...] = tuple(kept)

    def __len__(self) -> int:
        return len(self.entries)

    def token_keys(self) -> dict[str, str]:
        """Map lowercase token -> symbol for gene-mode matching.  A key that
        is not one token (one with a space or an underscore, or of one
        character) can never match; it is kept and named in a warning."""
        keys: dict[str, str] = {}
        for entry in self.entries:
            keys[entry.symbol] = entry.symbol
            for alias in entry.aliases:
                if len(alias) >= MIN_ALIAS_LEN:
                    keys[alias] = entry.symbol
        unmatchable = ", ".join(repr(key) for key in keys if tokenize_text(key) != (key,))
        if unmatchable:
            log.warning("dictionary keys that are not one token can never match: %s", unmatchable)
        return keys

    def description_phrases(self) -> dict[str, str]:
        """Map symbol -> normalized description phrase (empty ones omitted)."""
        return {
            e.symbol: e.description.lower() for e in self.entries if e.description
        }


def load_dictionary(path: str | Path) -> GeneDictionary:
    """Read the dictionary JSON: a list of {symbol, aliases, description}
    objects, where ``symbol`` is a string, ``aliases`` a list of strings
    (absent: none) and ``description`` a string (absent: empty)."""
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a JSON list of entries")
    entries = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict) or not isinstance(rec.get("symbol"), str):
            raise ParseError(f"{path}: entry {i} must be an object with a string 'symbol'")
        aliases, description = rec.get("aliases", []), rec.get("description", "")
        if not (isinstance(aliases, list) and all(isinstance(a, str) for a in aliases)):
            raise ParseError(f"{path}: entry {i}: 'aliases' must be a list of strings")
        if not isinstance(description, str):
            raise ParseError(f"{path}: entry {i}: 'description' must be a string")
        entries.append(
            DictionaryEntry(symbol=rec["symbol"], aliases=tuple(aliases), description=description)
        )
    return GeneDictionary(entries)


def parse_gene_summaries(payload: bytes) -> list[DictionaryEntry]:
    """Dictionary entries from an NCBI gene esummary JSON payload.

    Uses the summary fields name (symbol), otheraliases (comma list),
    and description, each a string when present.  A uid whose record is
    missing or has no name is skipped; a record of another shape raises
    ParseError naming the uid and the field.
    """
    try:
        doc = json.loads(payload)
        result = doc["result"]
        uids = result["uids"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"unparseable gene summary payload: {exc}") from exc
    if not isinstance(uids, list):
        raise ParseError("unparseable gene summary payload: 'uids' must be a list")
    entries = []
    for uid in uids:
        rec = result.get(str(uid), {})
        if not isinstance(rec, dict):
            raise ParseError(f"gene summary uid {uid!r}: the record must be an object")
        fields = {field: rec.get(field, "") for field in ("name", "otheraliases", "description")}
        for field, value in fields.items():
            if not isinstance(value, str):
                raise ParseError(f"gene summary uid {uid!r}: {field!r} must be a string")
        symbol = fields["name"].strip()
        if not symbol:
            continue
        aliases = tuple(a.strip() for a in fields["otheraliases"].split(",") if a.strip())
        entries.append(DictionaryEntry(symbol=symbol, aliases=aliases, description=fields["description"]))
    return entries


@dataclass(frozen=True, eq=False)
class ProbeCounts:
    """Raw occurrence counts: entities x clusters, plus cluster sizes."""

    mode: str
    entities: tuple[str, ...]
    per_cluster: np.ndarray  # shape (n_entities, n_clusters), integer
    cluster_ids: tuple[int, ...]
    cluster_sizes: np.ndarray  # documents per cluster (D_k)
    total_docs: int

    @property
    def globals(self) -> np.ndarray:
        return self.per_cluster.sum(axis=1)


@dataclass(frozen=True)
class ClusterRanking:
    cluster: int
    # (entity, count in this cluster, relative weight), sorted by weight
    # descending with lexicographic ties.
    entries: tuple[tuple[str, int, float], ...]


@dataclass(frozen=True, eq=False)
class ProbeReport:
    mode: str
    clusters: tuple[ClusterRanking, ...]
    entity_globals: Mapping[str, int]
    cluster_sizes: Mapping[int, int]
    total_docs: int


def count_occurrences(
    corpus: Corpus,
    assignments: Sequence[int],
    dictionary: GeneDictionary,
    mode: str = "gene",
) -> ProbeCounts:
    """Tally dictionary matches per cluster.

    gene mode: every matching token counts once (several mentions in one
    document all count), read from the corpus's held term counts, so the
    documents are not tokenized again.  molecular mode: a document counts
    at most once per description phrase, via substring search over its
    normalized lowercase text.
    """
    if mode not in ("gene", "molecular"):
        raise ValueError(f"mode must be 'gene' or 'molecular', got {mode!r}")
    if len(assignments) != len(corpus):
        raise ValueError(
            f"assignments cover {len(assignments)} docs, corpus has {len(corpus)}"
        )
    ids, cluster_of, sizes = np.unique(
        np.asarray(assignments, dtype=np.int64), return_inverse=True, return_counts=True
    )
    cluster_ids = tuple(ids.tolist())

    if mode == "gene":
        keys = dictionary.token_keys()
        symbols = tuple(sorted(set(keys.values())))
        counts = _gene_counts(corpus, keys, symbols, cluster_of, len(cluster_ids))
    else:
        phrases = dictionary.description_phrases()
        symbols = tuple(sorted(phrases))
        row = {s: i for i, s in enumerate(symbols)}
        counts = np.zeros((len(symbols), len(cluster_ids)), dtype=np.int64)
        for doc, j in zip(corpus, cluster_of):
            text = normalize_text(doc.text).lower()
            for sym, phrase in phrases.items():
                if phrase in text:
                    counts[row[sym], j] += 1

    return ProbeCounts(
        mode=mode,
        entities=symbols,
        per_cluster=counts,
        cluster_ids=cluster_ids,
        cluster_sizes=sizes,
        total_docs=int(sizes.sum()),
    )


def _gene_counts(
    corpus: Corpus,
    keys: Mapping[str, str],
    symbols: tuple[str, ...],
    cluster_of: np.ndarray,
    n_clusters: int,
) -> np.ndarray:
    """Symbol x cluster token counts as the int64 product
    S (symbol x key) @ counts (key x doc) @ C (doc x cluster).

    The counts are the rows of the matched keys in the corpus's held raw
    counts, before any ablation, so only those rows are widened from
    int32.  A key matches only a whole token of the same tokenizer, so a
    key that is not in the vocabulary (one with a space or an
    underscore, or of a single character) matches nothing.
    """
    if len(corpus) == 0:
        return np.zeros((len(symbols), n_clusters), dtype=np.int64)
    m = corpus.term_counts
    row = {s: i for i, s in enumerate(symbols)}
    hits = []
    for key, sym in keys.items():
        t = bisect_left(m.terms, key)
        if t < len(m.terms) and m.terms[t] == key:
            hits.append((row[sym], t))
    hits = np.array(hits, dtype=np.int64).reshape(-1, 2)
    s = sparse.csr_array(
        (np.ones(len(hits), dtype=np.int64), (hits[:, 0], np.arange(len(hits)))),
        shape=(len(symbols), len(hits)),
    )
    c = sparse.csr_array(
        (np.ones(len(corpus), dtype=np.int64), (np.arange(len(corpus)), cluster_of)),
        shape=(len(corpus), n_clusters),
    )
    return (s @ m.counts[hits[:, 1]] @ c).toarray()


def relative_weights(counts: ProbeCounts) -> ProbeReport:
    """Per-entity, per-cluster relative expression weights.

    weight(e, k) = count(e, k) - global(e) * size(k) / total_docs, i.e.
    the observed count minus its expectation under a proportional spread
    across clusters.  Entities never seen anywhere are omitted.
    """
    if counts.total_docs <= 0:
        raise ValueError("total document count must be positive")
    totals = counts.globals
    present = totals > 0
    # The present entities' rows in name order, so that one stable sort
    # of the negated weights breaks each tie toward the smaller name.
    rows = np.array(sorted(np.flatnonzero(present), key=counts.entities.__getitem__), dtype=np.intp)
    share = counts.cluster_sizes / counts.total_docs
    observed = counts.per_cluster[rows]
    weights = observed - totals[rows, None] * share[None, :]
    rankings = []
    for j, ranked in enumerate(np.argsort(-weights, axis=0, kind="stable").T):
        names = [counts.entities[i] for i in rows[ranked]]
        entries = zip(names, observed[ranked, j].tolist(), weights[ranked, j].tolist())
        rankings.append(ClusterRanking(cluster=int(counts.cluster_ids[j]), entries=tuple(entries)))
    return ProbeReport(
        mode=counts.mode,
        clusters=tuple(rankings),
        entity_globals={
            counts.entities[i]: int(totals[i]) for i in np.flatnonzero(present)
        },
        cluster_sizes={
            int(c): int(s) for c, s in zip(counts.cluster_ids, counts.cluster_sizes)
        },
        total_docs=counts.total_docs,
    )


@dataclass(frozen=True)
class Node:
    id: str
    kind: str  # "cluster" or "entity"
    label: str


@dataclass(frozen=True)
class Edge:
    source: str  # cluster node id
    target: str  # entity node id
    weight: float


@dataclass(frozen=True)
class Network:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    # Clusters that had fewer than top_n positive-weight entities.
    short_clusters: tuple[int, ...] = ()


def build_network(report: ProbeReport, top_n: int = DEFAULT_TOP_N) -> Network:
    """Connect each cluster to its top positive-weight entities.

    Only positive weights qualify; a cluster with fewer than ``top_n``
    positive entities contributes fewer edges and is flagged.  An entity
    ranked by several clusters appears as one node, which is what makes
    cross-cluster paths emerge.
    """
    cluster_nodes = []
    entity_ids: set[str] = set()
    edges = []
    short = []
    for ranking in report.clusters:
        node_id = f"cluster:{ranking.cluster}"
        cluster_nodes.append(Node(id=node_id, kind="cluster", label=f"cluster {ranking.cluster}"))
        positive = [(e, c, w) for e, c, w in ranking.entries if w > 0]
        if len(positive) < top_n:
            short.append(ranking.cluster)
        for entity, _count, weight in positive[:top_n]:
            entity_ids.add(entity)
            edges.append(Edge(source=node_id, target=f"entity:{entity}", weight=weight))
    entity_nodes = [
        Node(id=f"entity:{e}", kind="entity", label=e) for e in sorted(entity_ids)
    ]
    return Network(
        nodes=tuple(cluster_nodes + entity_nodes),
        edges=tuple(edges),
        short_clusters=tuple(short),
    )


def export_network(net: Network, format: str = "graphml") -> bytes:
    """Serialize the network; output bytes are stable for equal inputs."""
    if format == "graphml":
        return _to_graphml(net)
    if format == "dot":
        return _to_dot(net)
    if format == "json":
        return _to_node_link(net)
    raise ValueError(f"format must be one of {EXPORT_FORMATS}, got {format!r}")


def _to_graphml(net: Network) -> bytes:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="kind" for="node" attr.name="kind" attr.type="string"/>',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        '  <graph id="G" edgedefault="undirected">',
    ]
    for node in net.nodes:
        lines.append(f"    <node id={quoteattr(node.id)}>")
        lines.append(f'      <data key="kind">{escape(node.kind)}</data>')
        lines.append(f'      <data key="label">{escape(node.label)}</data>')
        lines.append("    </node>")
    for edge in net.edges:
        lines.append(
            f"    <edge source={quoteattr(edge.source)} target={quoteattr(edge.target)}>"
        )
        lines.append(f'      <data key="weight">{edge.weight!r}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _to_dot(net: Network) -> bytes:
    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph clusters {"]
    for node in net.nodes:
        lines.append(f"  {q(node.id)} [kind={q(node.kind)}, label={q(node.label)}];")
    for edge in net.edges:
        lines.append(f"  {q(edge.source)} -- {q(edge.target)} [weight={edge.weight!r}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _to_node_link(net: Network) -> bytes:
    doc = {
        "directed": False,
        "nodes": [
            {"id": n.id, "kind": n.kind, "label": n.label} for n in net.nodes
        ],
        "links": [
            {"source": e.source, "target": e.target, "weight": e.weight}
            for e in net.edges
        ],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def report_to_json(report: ProbeReport) -> str:
    """Round-trippable JSON for a probe report."""
    doc = {
        "mode": report.mode,
        "total_docs": report.total_docs,
        "cluster_sizes": {str(k): v for k, v in sorted(report.cluster_sizes.items())},
        "entity_globals": dict(sorted(report.entity_globals.items())),
        "clusters": {
            str(r.cluster): [
                {"entity": e, "count": c, "relative_weight": w}
                for e, c, w in r.entries
            ]
            for r in report.clusters
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def load_report(path: str | Path) -> ProbeReport:
    """Read a file :func:`report_to_json` wrote; one that is not JSON, or
    holds another shape or types, raises ParseError naming it."""
    doc = read_json(path)
    try:
        clusters = tuple(
            ClusterRanking(cluster=int(cid), entries=tuple(map(_entry, entries)))
            for cid, entries in sorted(doc["clusters"].items(), key=lambda kv: int(kv[0]))
        )
        return ProbeReport(
            mode=doc["mode"],
            clusters=clusters,
            entity_globals={k: _count(v) for k, v in doc["entity_globals"].items()},
            cluster_sizes={int(k): _count(v) for k, v in doc["cluster_sizes"].items()},
            total_docs=_count(doc["total_docs"]),
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{path}: malformed probe report ({exc!r})") from exc


def _count(value) -> int:
    if is_number(value, integer=True):
        return value
    raise ValueError(f"{value!r} is no integer count")


def _entry(rec) -> tuple[str, int, float]:
    entity, weight = rec["entity"], rec["relative_weight"]
    if isinstance(entity, str) and is_number(weight):
        return entity, _count(rec["count"]), float(weight)
    raise ValueError(f"entity {entity!r} is no string or relative_weight {weight!r} no finite number")
