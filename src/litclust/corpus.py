"""Document ingestion, normalization, and tokenization.

Two on-disk formats are supported: the canonical JSONL interchange
format (one ``{"id", "text", "label"}`` object per line) and PubMed
efetch XML, from which major-topic MeSH descriptor headings are
extracted as class labels.
"""

from __future__ import annotations

import json
import logging
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from litclust.errors import DuplicateId, EmptyCorpus, InvalidId, ParseError

if TYPE_CHECKING:
    from litclust.vectorize import TermDocMatrix

log = logging.getLogger(__name__)

# Token = maximal run of letters, digits, or hyphens; tokens shorter than
# 2 characters are dropped.  Underscores are separators ("\w" alone would
# keep them).
_TOKEN_CHAR = re.compile(r"[\w-]")
_MIN_TOKEN_LEN = 2


class _Separators(dict):
    """``str.translate`` table that keeps token characters and maps every
    other code point to a space, so that ``split`` yields the runs.

    Each code point is classified by ``_TOKEN_CHAR`` on first sight and
    the answer stored, so the table holds only code points this process
    has seen.
    """

    def __missing__(self, code: int) -> int:
        char = chr(code)
        kept = char != "_" and _TOKEN_CHAR.match(char) is not None
        value = code if kept else ord(" ")
        self[code] = value
        return value


_SEPARATORS = _Separators()

# A tab, or any line boundary ``str.splitlines`` knows: line-per-document
# artifacts (``assignments.tsv``, ``embedding.tsv``) separate a document's
# fields with tabs and documents with line breaks, so no id may hold one.
_ID_BREAKS = re.compile("[\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")

# Every code point other than U+0020 on which ``str.split()`` splits (the
# ``str.isspace`` characters of the interpreter's Unicode database; a
# test checks the list against it).
_OTHER_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


@dataclass(frozen=True)
class Document:
    """One text record with a stable identifier and an optional class label."""

    id: str
    text: str
    label: str | None = None


@dataclass(frozen=True)
class TokenStream:
    doc_id: str
    tokens: tuple[str, ...]


class Corpus:
    """Immutable, id-sorted collection of documents.

    ``label_set`` is the sorted set of distinct non-null labels and
    ``skipped`` counts input records dropped for having no usable text.
    Duplicate ids, and ids holding a tab or a line break, are refused.
    """

    def __init__(self, documents: Iterable[Document], skipped: int = 0):
        docs = sorted(documents, key=lambda d: d.id)
        seen: set[str] = set()
        for doc in docs:
            if doc.id in seen:
                raise DuplicateId(f"duplicate document id {doc.id!r}")
            if _ID_BREAKS.search(doc.id):
                raise InvalidId(
                    f"document id {doc.id!r} holds a tab or a line break, "
                    f"which no line-per-document artifact can store"
                )
            seen.add(doc.id)
        self.documents: tuple[Document, ...] = tuple(docs)
        self.label_set: tuple[str, ...] = tuple(
            sorted({d.label for d in docs if d.label is not None})
        )
        self.skipped = skipped

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def __eq__(self, other) -> bool:
        return isinstance(other, Corpus) and self.documents == other.documents

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.documents)

    def labels(self) -> tuple[str | None, ...]:
        """Per-document labels in corpus order."""
        return tuple(d.label for d in self.documents)

    @cached_property
    def term_counts(self) -> "TermDocMatrix":
        """The corpus's term-document counts, tokenized once on first use
        and then shared by the vectorizer, the sweep and the entity probe.

        The stored arrays are read-only, so an in-place edit raises
        instead of changing what later readers see.
        """
        from litclust import vectorize  # vectorize imports this module

        m = vectorize.count_matrix(self)
        for array in (m.counts.indptr, m.counts.indices, m.counts.data):
            array.flags.writeable = False
        return m


def normalize_text(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip the ends.

    Text already in that form (no space at either end, no two adjacent
    spaces, no whitespace but U+0020) is returned as it is, after C-level
    substring scans; splitting and rejoining it would rebuild the same
    string.
    """
    if text[:1] != " " and text[-1:] != " " and "  " not in text:
        for char in _OTHER_WHITESPACE:
            if char in text:
                break
        else:
            return text
    return " ".join(text.split())


def tokenize_text(text: str) -> tuple[str, ...]:
    """Lowercase tokens of ``text``; the scan runs in ``str.translate``
    and ``str.split``."""
    runs = text.lower().translate(_SEPARATORS).split()
    return tuple([t for t in runs if len(t) >= _MIN_TOKEN_LEN])


def tokenize(doc: Document) -> TokenStream:
    """Lowercase tokens of a document; pure and deterministic."""
    return TokenStream(doc_id=doc.id, tokens=tokenize_text(doc.text))


def load_corpus(
    path: str | Path,
    format: str = "jsonl",
    class_labels: Sequence[str] | None = None,
) -> Corpus:
    """Load a corpus file in the declared format.

    Documents without text are skipped (counted on the returned corpus),
    duplicate ids raise, and the result is sorted by id.  For PubMed XML,
    ``class_labels`` restricts and prioritizes which major MeSH headings
    may serve as labels; the first match in that order wins.
    """
    path = Path(path)
    if format == "jsonl":
        docs, skipped = _read_jsonl(path)
    elif format == "pubmed_xml":
        docs, skipped = _read_pubmed_xml(path, class_labels)
    else:
        raise ParseError(f"unknown corpus format {format!r}")
    if not docs:
        raise EmptyCorpus(f"no usable documents in {path}")
    if skipped:
        log.warning("skipped %d records without text in %s", skipped, path)
    return Corpus(docs, skipped=skipped)


def save_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical JSONL interchange form (UTF-8, sorted by id)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            rec = {"id": doc.id, "text": doc.text, "label": doc.label}
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def save_document_table(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus's ids and labels, in corpus order, as one JSON
    object: all that a stage which reads no text needs of a corpus."""
    table = {"ids": list(corpus.doc_ids()), "labels": list(corpus.labels())}
    Path(path).write_text(json.dumps(table, ensure_ascii=False) + "\n", encoding="utf-8")


def load_document_table(path: str | Path) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    """The ids and labels ``save_document_table`` wrote; a file of another
    shape raises ``ParseError``."""
    try:
        table = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not a document table ({exc})") from exc
    ids, labels = (table.get("ids"), table.get("labels")) if isinstance(table, dict) else (None, None)
    if not (
        isinstance(ids, list)
        and isinstance(labels, list)
        and len(ids) == len(labels)
        and all(isinstance(doc_id, str) for doc_id in ids)
        and all(isinstance(label, (str, type(None))) for label in labels)
    ):
        raise ParseError(f"{path}: not a document table (lists 'ids' and 'labels' of one length)")
    return tuple(ids), tuple(labels)


def _read_jsonl(path: Path) -> tuple[list[Document], int]:
    docs: list[Document] = []
    skipped = 0
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = _parse_record(line)
                except ParseError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                if doc is None:
                    skipped += 1
                else:
                    docs.append(doc)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return docs, skipped


def _parse_record(line: str) -> Document | None:
    """One JSONL record as a document, or None when it has no text."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})") from exc
    if not isinstance(rec, dict) or "id" not in rec:
        raise ParseError("record must be an object with an 'id'")
    doc_id, text, label = rec["id"], rec.get("text"), rec.get("label")
    # A bool is an int to isinstance, but True is no document id.
    if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
        raise ParseError("'id' must be a string or an integer")
    if not isinstance(text, (str, type(None))):
        raise ParseError("'text' must be a string or null")
    if not isinstance(label, (str, type(None))):
        raise ParseError("'label' must be a string or null")
    doc_id = str(doc_id).strip()
    if not doc_id:
        raise ParseError("empty document id")
    text = normalize_text(text or "")
    return Document(id=doc_id, text=text, label=label) if text else None


def _read_pubmed_xml(
    path: Path, class_labels: Sequence[str] | None
) -> tuple[list[Document], int]:
    """Parse efetch ``rettype=abstract`` XML into documents.

    The abstract text is the concatenation of all AbstractText sections;
    the label is a major-topic MeSH descriptor heading (attribute
    MajorTopicYN="Y").  A document with several major headings gets the
    first one in ``class_labels`` priority order, or the first in
    document order when no priority list is given.
    """
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise ParseError(f"{path}: malformed XML at {exc.position}") from exc

    docs: list[Document] = []
    skipped = 0
    for article in tree.getroot().iter("PubmedArticle"):
        pmid = article.findtext(".//PMID")
        if not pmid:
            skipped += 1
            continue
        pieces = [
            (el.text or "") for el in article.findall(".//Abstract/AbstractText")
        ]
        text = normalize_text(" ".join(pieces))
        if not text:
            skipped += 1
            continue
        majors = [
            (el.text or "").strip()
            for el in article.findall(".//MeshHeading/DescriptorName")
            if el.get("MajorTopicYN") == "Y" and (el.text or "").strip()
        ]
        label = _pick_label(majors, class_labels)
        docs.append(Document(id=pmid.strip(), text=text, label=label))
    return docs, skipped


def _pick_label(
    majors: list[str], class_labels: Sequence[str] | None
) -> str | None:
    if not majors:
        return None
    if class_labels is None:
        return majors[0]
    for wanted in class_labels:
        if wanted in majors:
            return wanted
    return None
