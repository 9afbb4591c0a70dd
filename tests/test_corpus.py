import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litclust.base import replace_file
from litclust.corpus import (
    _ID_BREAKS,
    _OTHER_WHITESPACE,
    Corpus,
    Document,
    document_table_json,
    jsonl_lines,
    load_corpus,
    load_document_table,
    normalize_text,
    tokenize,
    tokenize_text,
)
from litclust.errors import DataError, DuplicateId, EmptyCorpus, InvalidId, LoneSurrogate, ParseError

from helpers import oracle_tokens

DATA = Path(__file__).parent / "data"

# Every code point on which str.split() splits, from this interpreter's
# Unicode database.
ISSPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestLoadJsonl:
    def test_sorted_by_id(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"id": "b", "text": "beta text"},
            {"id": "a", "text": "alpha text"},
            {"id": "c", "text": "gamma text"},
        ])
        corpus = load_corpus(p)
        assert [d.id for d in corpus] == ["a", "b", "c"]

    def test_missing_text_skipped_with_count(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"id": "a", "text": "kept"},
            {"id": "b"},
            {"id": "c", "text": "   "},
        ])
        corpus = load_corpus(p)
        assert len(corpus) == 1
        assert corpus.skipped == 2

    def test_doc_count_is_records_minus_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        records = [{"id": f"d{i}", "text": "x y" if i % 3 else ""} for i in range(30)]
        write_jsonl(p, records)
        corpus = load_corpus(p)
        assert len(corpus) + corpus.skipped == 30

    def test_duplicate_id_raises(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "a", "text": "one"}, {"id": "a", "text": "two"}])
        with pytest.raises(DuplicateId):
            load_corpus(p)

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "ok"}\n{oops\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_corpus(p)

    @pytest.mark.parametrize("record,field", [
        ({"id": "a", "text": ["alpha beta"]}, "text"),
        ({"id": "a", "text": 5}, "text"),
        ({"id": "a", "text": "t", "label": {"k": 1}}, "label"),
        ({"id": "a", "text": "t", "label": True}, "label"),
        ({"id": "a", "text": "t", "label": 3}, "label"),
        ({"id": True, "text": "t"}, "id"),
        ({"id": 1.5, "text": "t"}, "id"),
        ({"id": None, "text": "t"}, "id"),
        ({"id": ["a"], "text": "t"}, "id"),
    ])
    def test_value_of_the_wrong_type_reports_position(self, tmp_path, record, field):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "ok", "text": "fine"}, record])
        with pytest.raises(ParseError, match=f":2: '{field}' must be"):
            load_corpus(p)

    @pytest.mark.parametrize("line,message", [
        ('["a", "text"]', "record must be an object with an 'id'"),
        ('"a"', "record must be an object with an 'id'"),
        ('{"text": "no id"}', "record must be an object with an 'id'"),
        ('{"id": "", "text": "t"}', "empty document id"),
        ('{"id": " \\t ", "text": "t"}', "empty document id"),
    ])
    def test_record_without_an_id_reports_position(self, tmp_path, line, message):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "ok"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"c\\.jsonl:2: {message}"):
            load_corpus(p)

    def test_blank_lines_between_records_are_no_records(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('\n{"id": "a", "text": "alpha"}\n\n  \t\n{"id": "b", "text": "beta"}\n\n', encoding="utf-8")
        corpus = load_corpus(p)
        assert [d.id for d in corpus] == ["a", "b"]
        assert corpus.skipped == 0
        # Positions still count the blank lines.
        p.write_text('{"id": "a", "text": "alpha"}\n\n\n{oops\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r"c\.jsonl:4:"):
            load_corpus(p)

    def test_integer_id_and_null_text_and_label(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": 7, "text": "seven", "label": None}, {"id": "b", "text": None}])
        corpus = load_corpus(p)
        assert [(d.id, d.label) for d in corpus] == [("7", None)]
        assert corpus.skipped == 1

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("", encoding="utf-8")
        with pytest.raises(EmptyCorpus):
            load_corpus(p)

    def test_idempotent(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"id": "a", "text": "alpha", "label": "L1"},
            {"id": "b", "text": "beta", "label": "L2"},
        ])
        assert load_corpus(p) == load_corpus(p)

    def test_label_set_sorted_distinct(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"id": "a", "text": "t", "label": "z"},
            {"id": "b", "text": "t", "label": "m"},
            {"id": "c", "text": "t", "label": "z"},
            {"id": "d", "text": "t"},
        ])
        corpus = load_corpus(p)
        assert corpus.label_set == ("m", "z")

    def test_roundtrip_through_save(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"id": "b", "text": "beta", "label": None},
            {"id": "a", "text": "alpha", "label": "L"},
        ])
        corpus = load_corpus(p)
        q = tmp_path / "copy.jsonl"
        replace_file(q, jsonl_lines(corpus))
        assert load_corpus(q) == corpus


class TestPubmedXml:
    def test_fixture_two_labeled_records(self):
        corpus = load_corpus(DATA / "pubmed_two_records.xml", format="pubmed_xml")
        assert len(corpus) == 2
        by_id = {d.id: d for d in corpus}
        assert by_id["10000001"].label == "Hereditary Breast and Ovarian Cancer Syndrome"
        assert "BRCA1" in by_id["10000001"].text
        # Abstract sections are concatenated.
        assert "Segregation analysis" in by_id["10000001"].text

    def test_class_label_priority_wins(self):
        corpus = load_corpus(
            DATA / "pubmed_two_records.xml",
            format="pubmed_xml",
            class_labels=["Neoplasm Invasiveness", "Carcinoma, Ductal, Breast"],
        )
        by_id = {d.id: d for d in corpus}
        # Record 2 carries both major headings; the priority list decides.
        assert by_id["10000002"].label == "Neoplasm Invasiveness"
        # Record 1's heading is not in the priority list, so no label.
        assert by_id["10000001"].label is None

    def test_first_major_heading_without_priority(self):
        corpus = load_corpus(DATA / "pubmed_two_records.xml", format="pubmed_xml")
        by_id = {d.id: d for d in corpus}
        assert by_id["10000002"].label == "Carcinoma, Ductal, Breast"

    def test_articles_without_pmid_or_abstract_are_skipped(self, tmp_path):
        p = tmp_path / "c.xml"
        p.write_text(
            "<PubmedArticleSet>"
            "<PubmedArticle><MedlineCitation><PMID>1</PMID><Article><Abstract>"
            "<AbstractText>kept abstract</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>"
            "<PubmedArticle><MedlineCitation><Article><Abstract>"
            "<AbstractText>no pmid</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>"
            "<PubmedArticle><MedlineCitation><PMID>3</PMID><Article>"
            "<ArticleTitle>No abstract</ArticleTitle></Article></MedlineCitation></PubmedArticle>"
            "<PubmedArticle><MedlineCitation><PMID> </PMID><Article><Abstract>"
            "<AbstractText>blank pmid</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>"
            "</PubmedArticleSet>",
            encoding="utf-8",
        )
        corpus = load_corpus(p, format="pubmed_xml")
        assert [(d.id, d.text) for d in corpus] == [("1", "kept abstract")]
        assert corpus.skipped == 3

    def test_inline_markup_keeps_its_text(self, tmp_path):
        p = tmp_path / "c.xml"
        p.write_text(
            "<PubmedArticleSet><PubmedArticle><MedlineCitation><PMID>1</PMID><Article><Abstract>"
            "<AbstractText>The <i>BRCA1</i> gene carries H<sub>2</sub>O-sensitive variants in "
            "10<sup>5</sup> carriers.</AbstractText><AbstractText><b>Bold</b> and <u>under</u>"
            "</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle></PubmedArticleSet>",
            encoding="utf-8",
        )
        (doc,) = load_corpus(p, format="pubmed_xml")
        assert doc.text == "The BRCA1 gene carries H2O-sensitive variants in 105 carriers. Bold and under"

    def test_a_nested_article_is_refused(self, tmp_path):
        # Read as a tree, the inner abstract would join the outer one's text.
        p = tmp_path / "c.xml"
        p.write_text(
            "<PubmedArticleSet><PubmedArticle><MedlineCitation><PMID>1</PMID><Article><Abstract>"
            "<AbstractText>outer text</AbstractText></Abstract></Article></MedlineCitation>"
            "<PubmedArticle><MedlineCitation><PMID>2</PMID><Article><Abstract>"
            "<AbstractText>inner text</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>"
            "</PubmedArticle></PubmedArticleSet>",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=re.escape(f"{p}: a PubmedArticle nested in another")):
            load_corpus(p, format="pubmed_xml")

    def test_a_malformed_end_refuses_the_articles_before_it(self, tmp_path):
        # The file is read one article at a time, so the first article is
        # read before the parser meets the bad end; the file still fails.
        p = tmp_path / "c.xml"
        p.write_text(
            "<PubmedArticleSet><PubmedArticle><MedlineCitation><PMID>1</PMID><Article><Abstract>"
            "<AbstractText>one</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>"
            "<PubmedArticle>",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=re.escape(f"{p}: malformed XML at")):
            load_corpus(p, format="pubmed_xml")

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "c.bin"
        p.write_text("x", encoding="utf-8")
        with pytest.raises(ParseError):
            load_corpus(p, format="parquet")


class TestTokenize:
    def test_contract_example(self):
        doc = Document(id="x", text="BRCA1 and BRCA-1.")
        assert tokenize(doc).tokens == ("brca1", "and", "brca-1")

    def test_empty_text_gives_empty_stream(self):
        assert tokenize(Document(id="x", text="...")).tokens == ()

    def test_pure(self):
        doc = Document(id="x", text="Alpha beta-2 GAMMA_delta 7q21")
        assert tokenize(doc) == tokenize(doc)

    def test_streams_compare_by_runs(self):
        # One-character runs are no tokens, but they are in the runs that
        # equality and hashing compare.
        with_short, without = tokenize(Document("x", "a bb")), tokenize(Document("x", "bb"))
        assert with_short.tokens == without.tokens == ("bb",)
        assert with_short.runs == ("a", "bb") and with_short != without
        assert hash(tokenize(Document("x", "a bb"))) == hash(with_short)

    def test_short_tokens_dropped(self):
        assert tokenize_text("a I x2 ok") == ("x2", "ok")

    def test_underscore_splits(self):
        assert tokenize_text("gamma_delta") == ("gamma", "delta")

    def test_against_character_walk_oracle(self):
        import numpy as np

        rng = np.random.default_rng(7)
        alphabet = list("abcXYZ0189-–.,;()/ '\"\t\n") + ["é", "ß"]
        text = "".join(rng.choice(alphabet) for _ in range(1000))
        assert list(tokenize_text(text)) == oracle_tokens(text)

    @settings(max_examples=500, deadline=None)
    @given(text=st.text())
    def test_equals_character_walk_oracle(self, text):
        assert list(tokenize_text(text)) == oracle_tokens(text)

    @pytest.mark.parametrize("char", [
        "_", "-",
        "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000",  # whitespace to str.split
        "\u00b2",      # superscript two: a digit to isalnum, kept
        "\u0301",      # combining acute accent: not alphanumeric, a separator
        "\U0001d400",  # mathematical bold capital A
        "\u212a",      # Kelvin sign, whose lowercase is ASCII "k"
        "\u0130",      # capital I with dot, whose lowercase is two code points
    ])
    def test_edge_character_equals_oracle(self, char):
        for text in (char, "a" + char + "b", "ab" + char + char + "cd", char + "xy" + char):
            assert list(tokenize_text(text)) == oracle_tokens(text), repr(text)


def test_normalize_text_collapses_whitespace():
    assert normalize_text("  a\t b\n\nc ") == "a b c"


def test_other_whitespace_is_every_split_point_but_the_space():
    # Fails on an interpreter whose Unicode database has other spaces.
    assert sorted(_OTHER_WHITESPACE) == sorted(set(ISSPACE) - {" "})


# Every isspace code point, characters that look like or hide spaces
# but are none, and letters, ASCII and not.
_NORMALIZE_CHARS = st.one_of(
    st.sampled_from(ISSPACE),
    st.sampled_from(["\x00", "\xad", "\u200b", "a", "Z", "7", ".", "\xe9", "\u03b1", "\u4e2d"]),
)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(alphabet=_NORMALIZE_CHARS),
        # Mostly canonical: words joined by single spaces.
        st.lists(st.text(alphabet=_NORMALIZE_CHARS, min_size=1, max_size=6)).map(" ".join),
    )
)
def test_normalize_text_equals_split_and_join(text):
    assert normalize_text(text) == " ".join(text.split())


# Runs of a tab, a no-break space, an ideographic space and a line feed,
# and spaces at both ends, all collapse; the Greek letter stays.
UNCANONICAL = " \u03b1-helix\tbinding \xa0of\u3000TP53\n\n  in cells  "
CANONICAL = "\u03b1-helix binding of TP53 in cells"


def test_load_corpus_normalizes_jsonl_text(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, [{"id": "a", "text": UNCANONICAL}, {"id": "b", "text": CANONICAL}])
    assert [d.text for d in load_corpus(p)] == [CANONICAL, CANONICAL]


def test_load_corpus_normalizes_pubmed_xml_text(tmp_path):
    p = tmp_path / "c.xml"
    head, _, tail = CANONICAL.partition(" ")
    article = (
        "<PubmedArticle><MedlineCitation><PMID>{pmid}</PMID><Article><Abstract>"
        "<AbstractText>{head}</AbstractText><AbstractText>{tail}</AbstractText>"
        "</Abstract></Article></MedlineCitation></PubmedArticle>"
    )
    p.write_text(
        "<PubmedArticleSet>"
        + article.format(pmid=1, head=UNCANONICAL, tail="\t")
        + article.format(pmid=2, head=head, tail=tail)
        + "</PubmedArticleSet>",
        encoding="utf-8",
    )
    assert [d.text for d in load_corpus(p, format="pubmed_xml")] == [CANONICAL, CANONICAL]


def test_corpus_rejects_duplicate_ids_directly():
    with pytest.raises(DuplicateId):
        Corpus([Document(id="a", text="x"), Document(id="a", text="y")])


# A tab and every line boundary of str.splitlines, in an id's middle
# (the JSONL reader strips an id's ends).
_BREAKS = [c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) == 2]


def test_id_breaks_are_the_tab_and_every_line_boundary():
    assert sorted(c for c in map(chr, range(sys.maxunicode + 1)) if _ID_BREAKS.match(c)) == sorted(
        ["\t", *_BREAKS]
    )


@pytest.mark.parametrize("char", ["\t", *_BREAKS])
def test_corpus_refuses_an_id_with_a_tab_or_a_line_break(char):
    doc_id = f"d{char}5"
    with pytest.raises(InvalidId, match=re.escape(repr(doc_id))):
        Corpus([Document(id="a", text="x"), Document(id=doc_id, text="y")])


@pytest.mark.parametrize("field", ["id", "text", "label"])
def test_corpus_refuses_a_lone_surrogate_in_any_field(field):
    # No UTF-8 file could hold the corpus: writing it would raise
    # UnicodeEncodeError part way through.
    fields = {"id": "d5", "text": "some text", "label": "L", field: "x\ud800y"}
    with pytest.raises(DataError, match=f"'{field}' holds a lone surrogate") as refused:
        Corpus([Document(id="a", text="x"), Document(**fields)])
    assert refused.type is LoneSurrogate


@pytest.mark.parametrize("doc_id", ["d\t5", "d\n5"])
def test_both_readers_refuse_an_id_with_a_tab_or_a_line_break(tmp_path, doc_id):
    jsonl = tmp_path / "c.jsonl"
    write_jsonl(jsonl, [{"id": "a", "text": "one"}, {"id": doc_id, "text": "two"}])
    xml = tmp_path / "c.xml"
    xml.write_text(
        "<PubmedArticleSet><PubmedArticle><MedlineCitation><PMID>"
        + doc_id.replace("\t", "&#9;").replace("\n", "&#10;")
        + "</PMID><Article><Abstract><AbstractText>two</AbstractText></Abstract>"
        "</Article></MedlineCitation></PubmedArticle></PubmedArticleSet>",
        encoding="utf-8",
    )
    for path, format in ((jsonl, "jsonl"), (xml, "pubmed_xml")):
        with pytest.raises(InvalidId, match=re.escape(f"{path}: document id {doc_id!r}")):
            load_corpus(path, format=format)


def test_both_readers_name_the_file_of_a_duplicate_id(tmp_path):
    jsonl = tmp_path / "c.jsonl"
    write_jsonl(jsonl, [{"id": "a", "text": "one"}, {"id": "a", "text": "two"}])
    xml = tmp_path / "c.xml"
    article = (
        "<PubmedArticle><MedlineCitation><PMID>a</PMID><Article><Abstract><AbstractText>{}"
        "</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>"
    )
    xml.write_text(
        "<PubmedArticleSet>" + article.format("one") + article.format("two") + "</PubmedArticleSet>",
        encoding="utf-8",
    )
    for path, format in ((jsonl, "jsonl"), (xml, "pubmed_xml")):
        with pytest.raises(DuplicateId, match=re.escape(f"{path}: duplicate document id 'a'")):
            load_corpus(path, format=format)


def test_document_table_round_trips(tmp_path):
    corpus = Corpus([Document(id="b", text="x", label="L"), Document(id="a", text="y"),
                     Document(id="\u00e9", text="z", label="\u4e2d")])
    path = tmp_path / "documents.json"
    replace_file(path, [(document_table_json(corpus) + "\n").encode()])
    assert load_document_table(path) == (corpus.doc_ids(), corpus.labels())


@pytest.mark.parametrize("content", [
    b"", b"\xff", b"[]", b'{"ids": ["a"]}', b'{"ids": ["a"], "labels": []}',
    b'{"ids": [1], "labels": [null]}', b'{"ids": ["a"], "labels": [2]}', b'{"ids": "a", "labels": "b"}',
])
def test_a_document_table_of_another_shape_is_a_parse_error(tmp_path, content):
    path = tmp_path / "documents.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="documents.json"):
        load_document_table(path)
