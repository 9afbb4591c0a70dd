"""Deterministic synthetic inputs for the benchmark.

Everything here is a pure function of its arguments: the same seed and
shape give byte-identical files, and different seeds give different
files.  The corpora are deliberately hard to cluster: every document
draws most of its tokens from one Zipf-distributed shared vocabulary,
topic vocabularies overlap with their neighbours, and a share of each
document's topic tokens comes from a random other topic, so v-measure
stays well below 1.  An entity dictionary is generated alongside: its
symbols and aliases are mentioned as tokens, and its description
phrases occur verbatim, so both probe modes find matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

_ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
_VOWELS = ("a", "e", "i", "o", "u")
_SYLLABLES = tuple(o + v for o in _ONSETS for v in _VOWELS)


# Difficulty knobs, the same for every workload.
SHARED_VOCAB = 20000
SHARED_ZIPF = 1.4
TOPIC_VOCAB = 20
TOPIC_OVERLAP = 0.4
TOPIC_TOKENS = 40
KEYWORDS = 8
CROSS_TOPIC = 0.25
MENTIONS_PER_DOC = 2.0
PHRASE_RATE = 0.3


@dataclass(frozen=True)
class CorpusShape:
    """Size of one generated corpus."""

    n_docs: int
    n_topics: int = 8
    shared_tokens: int = 250
    n_entities: int = 60

    def describe(self) -> dict:
        """The shape and the fixed knobs, for the run record."""
        return {
            **vars(self),
            "shared_vocab": SHARED_VOCAB,
            "shared_zipf": SHARED_ZIPF,
            "topic_vocab": TOPIC_VOCAB,
            "topic_overlap": TOPIC_OVERLAP,
            "topic_tokens": TOPIC_TOKENS,
            "keywords": KEYWORDS,
            "cross_topic": CROSS_TOPIC,
            "mentions_per_doc": MENTIONS_PER_DOC,
            "phrase_rate": PHRASE_RATE,
        }


@dataclass(frozen=True)
class Inputs:
    """Paths of the files written for one workload."""

    jsonl: Path
    xml: Path | None
    dictionary: Path


def _word(index: int, prefix: str) -> str:
    """A pronounceable pseudo-word, distinct for each (prefix, index)."""
    out = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_SYLLABLES))
        out.append(_SYLLABLES[rem])
    return prefix + "".join(out)


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return p / p.sum()


def _topic_words(shape: CorpusShape) -> list[list[str]]:
    """Topic vocabularies on a ring; neighbours share ``TOPIC_OVERLAP`` of their words."""
    stride = max(1, int(TOPIC_VOCAB * (1.0 - TOPIC_OVERLAP)))
    pool = stride * shape.n_topics
    return [
        [_word((t * stride + i) % pool, "to") for i in range(TOPIC_VOCAB)]
        for t in range(shape.n_topics)
    ]


def make_dictionary(seed: int, shape: CorpusShape) -> list[dict]:
    """Entity entries with a symbol, two aliases and a three-word description."""
    rng = np.random.default_rng([seed, 1])
    entries = []
    for e in range(shape.n_entities):
        stem = _word(e, "").upper()
        words = [_word(int(w), "de") for w in rng.integers(0, 400, size=2)]
        entries.append(
            {
                "symbol": f"{stem}{e % 10}",
                "aliases": [f"{stem}-{e % 10}", f"P{e}{stem}"],
                "description": f"{words[0]} {words[1]} factor {e}",
            }
        )
    return entries


def make_corpus(seed: int, shape: CorpusShape, dictionary: list[dict]) -> list[dict]:
    """Labelled documents as ``{"id", "text", "label"}`` records."""
    rng = np.random.default_rng([seed, 0])
    n = shape.n_docs
    shared = [_word(i, "sh") for i in range(SHARED_VOCAB)]
    topics = _topic_words(shape)
    shared_p = _zipf_probs(SHARED_VOCAB, SHARED_ZIPF)
    topic_p = _zipf_probs(TOPIC_VOCAB, 0.9)

    labels = rng.permutation(np.arange(n) % shape.n_topics)
    shared_ids = rng.choice(SHARED_VOCAB, size=(n, shape.shared_tokens), p=shared_p)
    # Each document repeats a few keywords, as real abstracts do; with
    # cross-topic mixing some keywords come from a random other topic.
    slots = (n, KEYWORDS)
    keyword_ids = rng.choice(TOPIC_VOCAB, size=slots, p=topic_p)
    crossed = rng.random(slots) < CROSS_TOPIC
    other = (labels[:, None] + rng.integers(1, shape.n_topics, size=slots)) % shape.n_topics
    keyword_topic = np.where(crossed, other, labels[:, None])
    picks = rng.integers(0, KEYWORDS, size=(n, TOPIC_TOKENS))
    topic_ids = np.take_along_axis(keyword_ids, picks, axis=1)
    source_topic = np.take_along_axis(keyword_topic, picks, axis=1)

    # Entities have a home topic; mentions favour the document's topic.
    home = np.arange(shape.n_entities) % shape.n_topics
    by_topic = [np.flatnonzero(home == t) for t in range(shape.n_topics)]
    n_mentions = rng.poisson(MENTIONS_PER_DOC, size=n)
    has_phrase = rng.random(n) < PHRASE_RATE

    records = []
    for j in range(n):
        t = int(labels[j])
        tokens = [shared[i] for i in shared_ids[j]]
        tokens += [topics[s][i] for s, i in zip(source_topic[j], topic_ids[j])]
        for _ in range(n_mentions[j]):
            if rng.random() < 0.7:
                entry = dictionary[int(rng.choice(by_topic[t]))]
            else:
                entry = dictionary[int(rng.integers(shape.n_entities))]
            names = [entry["symbol"], *entry["aliases"]]
            tokens.append(names[int(rng.integers(len(names)))])
        order = rng.permutation(len(tokens))
        tokens = [tokens[i] for i in order]
        if has_phrase[j]:
            entry = dictionary[int(rng.choice(by_topic[t]))]
            at = int(rng.integers(len(tokens) + 1))
            tokens.insert(at, entry["description"])
        text = " ".join(tokens)
        records.append({"id": f"{10000000 + j}", "text": text[0].upper() + text[1:] + ".", "label": f"Topic {t:02d}"})
    return records


def write_jsonl(records: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_pubmed_xml(records: list[dict], path: Path) -> None:
    """Render records in the efetch ``PubmedArticleSet`` layout.

    The text is split over two AbstractText sections at a space, which
    the reader joins back with a space; the label becomes the one
    major-topic MeSH heading, next to a minor one.
    """
    with path.open("w", encoding="utf-8") as fh:
        fh.write('<?xml version="1.0" ?>\n<PubmedArticleSet>\n')
        for rec in records:
            text = rec["text"]
            cut = text.find(" ", len(text) // 2)
            head, tail = (text, "") if cut < 0 else (text[:cut], text[cut + 1:])
            fh.write(
                "  <PubmedArticle>\n"
                '    <MedlineCitation Status="MEDLINE" Owner="NLM">\n'
                f'      <PMID Version="1">{rec["id"]}</PMID>\n'
                '      <Article PubModel="Print">\n'
                f"        <ArticleTitle>Record {rec['id']}.</ArticleTitle>\n"
                "        <Abstract>\n"
                f'          <AbstractText Label="BACKGROUND">{escape(head)}</AbstractText>\n'
                f'          <AbstractText Label="RESULTS">{escape(tail)}</AbstractText>\n'
                "        </Abstract>\n"
                "      </Article>\n"
                "      <MeshHeadingList>\n"
                '        <MeshHeading><DescriptorName UI="D006801" MajorTopicYN="N">Humans</DescriptorName></MeshHeading>\n'
                f'        <MeshHeading><DescriptorName UI="D9{rec["label"][-2:]}" MajorTopicYN="Y">{escape(rec["label"])}</DescriptorName></MeshHeading>\n'
                "      </MeshHeadingList>\n"
                "    </MedlineCitation>\n"
                "  </PubmedArticle>\n"
            )
        fh.write("</PubmedArticleSet>\n")


def write_inputs(directory: Path, records: list[dict], dictionary: list[dict], xml: bool = False) -> Inputs:
    """Write one workload's inputs into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        jsonl=directory / "corpus.jsonl",
        xml=directory / "corpus.xml" if xml else None,
        dictionary=directory / "dictionary.json",
    )
    write_jsonl(records, inputs.jsonl)
    if inputs.xml is not None:
        write_pubmed_xml(records, inputs.xml)
    inputs.dictionary.write_text(json.dumps(dictionary, indent=1) + "\n", encoding="utf-8")
    return inputs
