"""Shared corpus generators and independent oracles used across the suite.

The oracles here deliberately avoid the library's own code paths: the
metrics oracle is pure-Python loops over table cells, the tokenizer
oracle is a character walk, and the tally oracle counts pairs one by
one.  They exist to cross-check the vectorized implementations.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import litclust
from litclust.corpus import Corpus, Document


def subprocess_env() -> dict:
    """The environment with the package's source directory on PYTHONPATH,
    so a child interpreter imports the same litclust as the tests."""
    src = str(Path(litclust.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def make_planted_corpus(
    n_topics: int = 4,
    docs_per_topic: int = 100,
    vocab_per_topic: int = 50,
    tokens_per_doc: int = 40,
    seed: int = 0,
) -> Corpus:
    """Corpus with disjoint per-topic vocabularies and topic labels."""
    rng = np.random.default_rng(seed)
    docs = []
    for t in range(n_topics):
        vocab = [f"topic{t}term{i:02d}" for i in range(vocab_per_topic)]
        for j in range(docs_per_topic):
            words = rng.choice(vocab, size=tokens_per_doc)
            docs.append(
                Document(
                    id=f"d{t:02d}{j:04d}",
                    text=" ".join(words),
                    label=f"class{t}",
                )
            )
    return Corpus(docs)


def make_zipf_corpus(
    n_docs: int = 1000,
    tokens_per_doc: int = 60,
    exponent: float = 2.0,
    seed: int = 0,
) -> Corpus:
    """Corpus whose term frequencies follow an inverse power law."""
    rng = np.random.default_rng(seed)
    docs = []
    for j in range(n_docs):
        draws = rng.zipf(exponent, size=tokens_per_doc)
        text = " ".join(f"w{v}" for v in draws)
        docs.append(Document(id=f"z{j:05d}", text=text))
    return Corpus(docs)


# Separators between drawn words: whitespace, punctuation, and the
# characters the tokenizer treats specially (underscore splits, hyphen
# joins).
SEPARATORS = (" ", "  ", "\n", ", ", ". ", "/", "(", "_", "-")


def random_word_corpus(rng, words, n_docs: int, max_words: int = 12) -> Corpus:
    """Labeled documents of words drawn from ``words``, each pair joined
    by a random separator; a document may be empty of tokens."""
    docs = []
    for j in range(n_docs):
        drawn = rng.choice(words, size=int(rng.integers(0, max_words + 1)))
        text = "".join(str(w) + str(rng.choice(SEPARATORS)) for w in drawn) or "."
        docs.append(Document(id=f"r{j:04d}", text=text, label=f"c{j % 3}"))
    return Corpus(docs)


def oracle_metrics(counts) -> tuple[float, float, float]:
    """Brute-force homogeneity/completeness/v from a cell matrix.

    Pure-Python double loops with math.log; entropies in nats.
    """
    counts = [[int(c) for c in row] for row in counts]
    total = float(sum(sum(row) for row in counts))
    n_rows = len(counts)
    n_cols = len(counts[0])
    row_sums = [sum(counts[i][j] for j in range(n_cols)) for i in range(n_rows)]
    col_sums = [sum(counts[i][j] for i in range(n_rows)) for j in range(n_cols)]

    h_class = 0.0
    for s in row_sums:
        if s > 0:
            h_class -= s / total * math.log(s / total)
    h_cluster = 0.0
    for s in col_sums:
        if s > 0:
            h_cluster -= s / total * math.log(s / total)

    h_class_given_cluster = 0.0
    h_cluster_given_class = 0.0
    for i in range(n_rows):
        for j in range(n_cols):
            cell = counts[i][j]
            if cell > 0:
                h_class_given_cluster -= cell / total * math.log(cell / col_sums[j])
                h_cluster_given_class -= cell / total * math.log(cell / row_sums[i])

    h = 1.0 if h_class == 0.0 else 1.0 - h_class_given_cluster / h_class
    c = 1.0 if h_cluster == 0.0 else 1.0 - h_cluster_given_class / h_cluster
    v = 0.0 if h + c == 0.0 else 2.0 * h * c / (h + c)
    return h, c, v


def oracle_tokens(text: str) -> list[str]:
    """Character-walk tokenizer equivalent: runs of letter/digit/hyphen."""
    out = []
    current = []
    for ch in text.lower():
        if ch == "-" or (ch.isalnum() and ch != "_"):
            current.append(ch)
        else:
            if len(current) >= 2:
                out.append("".join(current))
            current = []
    if len(current) >= 2:
        out.append("".join(current))
    return out


def random_contingency(rng, max_classes: int = 6, max_clusters: int = 6):
    """Random nonempty contingency table as a list of lists."""
    n_rows = int(rng.integers(1, max_classes + 1))
    n_cols = int(rng.integers(1, max_clusters + 1))
    while True:
        table = rng.integers(0, 20, size=(n_rows, n_cols))
        if table.sum() > 0:
            return table.tolist()
