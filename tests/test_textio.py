"""Tests for the document format: parsing, serialization, round trips."""

import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrw import (
    CycleError,
    GrammarSyntaxError,
    Mode,
    RrwError,
    ValidationError,
    parse_system,
    serialize_system,
)
from rrw.core import KIND_CLAUSES

from conftest import CORPUS_DIR, CORPUS_FILES, corpus_text, load_corpus

EXAMPLE1_DOC = """\
system ocdgs example1
nonterminals: A B C
terminals: a
start: A
component P1 { A -> B
               A -> C }
component P2 { r1: C -> C
               r2: B -> A A
               order: r1 > r2 }
component P3 { r1: B -> B
               r2: C -> a
               order: r1 > r2 }
"""


def test_parse_three_component_document():
    system = parse_system(EXAMPLE1_DOC)
    assert system.kind == "ocdgs"
    assert len(system.components) == 3
    p2 = system.component_named("P2")
    assert [(r.lhs, r.rhs) for r in p2.rules] == [
        ("C", ("C",)), ("B", ("A", "A"))
    ]
    assert p2.order.pairs == frozenset({(0, 1)})


def test_parse_assigns_positional_labels():
    system = parse_system(EXAMPLE1_DOC)
    p2 = system.component_named("P2")
    assert [r.label for r in p2.rules] == ["r1", "r2"]


def test_parse_rejects_reflexive_order():
    doc = EXAMPLE1_DOC.replace("order: r1 > r2", "order: r1 > r1", 1)
    with pytest.raises(CycleError):
        parse_system(doc)


def test_parse_rejects_undeclared_symbol():
    doc = EXAMPLE1_DOC.replace("A -> C }", "A -> Z }")
    with pytest.raises((ValidationError, GrammarSyntaxError)) as err:
        parse_system(doc)
    assert "Z" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_system("system ocdgs broken\nnonterminals A\n")
    assert "line" in str(err.value) or getattr(err.value, "span", None)


def test_parse_mode_metadata():
    system = load_corpus("frccd_pair.rrw")
    assert system.default_mode == Mode.parse("=2")


def test_parse_entry_conditions():
    system = load_corpus("entry_witness.rrw")
    p1 = system.component_named("P1")
    assert p1.entry.forbid == frozenset({"B", "C"})
    assert p1.entry.permit == frozenset()


def test_parse_priorities():
    system = load_corpus("pcd_chain.rrw")
    names = [c.name for c in system.components]
    pairs = {
        (names[g], names[l]) for (g, l) in system.component_order.pairs
    }
    assert pairs == {("P2", "P3")}


def test_parse_gc_document():
    system = load_corpus("gc_fin.rrw")
    assert system.kind == "gc"
    assert system.init_labels == frozenset({"l1"})
    assert system.final_labels == frozenset({"l3"})
    by_label = {g.label: g for g in system.gc_rules}
    assert by_label["l2"].success == frozenset({"l2"})
    assert by_label["l2"].failure == frozenset({"l3"})


_GC_HEAD = ("system gc g\nnonterminals: S\nterminals: a\nstart: S\n"
            "init-labels: l1\nfinal-labels: l1\n")
_CF_HEAD = "system cdgs c\nnonterminals: S\nterminals: a\nstart: S\n"


def _head(kind):
    return _CF_HEAD.replace("cdgs", kind, 1)


@pytest.mark.parametrize("doc, line", [
    (_GC_HEAD + "component rules {\n  l1: S -> a forbid { S }\n}\n", 8),
    (_GC_HEAD + "component rules {\n  l1: S -> a permit { S }\n}\n", 8),
    (_GC_HEAD + "component rules entry forbid { S } {\n  l1: S -> a\n}\n",
     7),
    (_GC_HEAD + "component rules {\n  l1: S -> a\n  l2: S -> a\n"
     "  order: l1 > l2\n}\n", 10),
    (_GC_HEAD + "priority: rules > rules\ncomponent rules {\n"
     "  l1: S -> a\n}\n", 7),
    (_GC_HEAD + "component A {\n  l1: S -> a\n}\ncomponent B {\n"
     "  l2: S -> a\n}\n", 10),
    (_CF_HEAD + "component P {\n  S -> a success { l1 }\n}\n", 6),
    (_CF_HEAD + "component P {\n  S -> a failure { l1 }\n}\n", 6),
    (_CF_HEAD + "init-labels: l1\ncomponent P { S -> a }\n", 5),
    (_CF_HEAD + "final-labels: l1\ncomponent P { S -> a }\n", 5),
    (_CF_HEAD + "component P {\n  S -> a forbid { S }\n}\n", 6),
    (_head("frccdgs") + "component P {\n  S -> a permit { S }\n}\n", 6),
    (_CF_HEAD + "component P {\n  S -> a\n  S -> S\n  order: r1 > r2\n}\n",
     8),
    (_head("ocdgs") + "component P entry forbid { S } {\n  S -> a\n}\n", 5),
    (_CF_HEAD + "priority: P > Q\ncomponent P { S -> a }\n"
     "component Q { S -> a }\n", 5),
    (_head("ordered") + "component P {\n  S -> a forbid { }\n}\n", 6),
    (_GC_HEAD + "component rules {\n  l1: S -> a permit { }\n}\n", 8),
], ids=["gc-forbid", "gc-permit", "gc-entry", "gc-order", "gc-priority",
        "gc-second-component", "success", "failure", "init-labels",
        "final-labels", "cdgs-forbid", "frccdgs-permit", "cdgs-order",
        "ocdgs-entry", "cdgs-priority", "ordered-empty-forbid",
        "gc-empty-permit"])
def test_parse_rejects_a_clause_the_kind_does_not_carry(doc, line):
    # each clause used to be dropped or reported without its line; the
    # empty sets in the last two cases used to parse
    with pytest.raises(ValidationError) as err:
        parse_system(doc)
    assert f"line {line}," in str(err.value)


def test_readme_kind_table_lists_the_clauses_of_each_kind():
    readme = (CORPUS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## System kinds\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines() if line.startswith("| `")
    ]
    assert {row[0].strip("`"): set(re.findall(r"`([^`]+)`", row[2]))
            for row in rows} == KIND_CLAUSES


def test_serialize_minimal_system():
    source = ("system cf tiny\nnonterminals: S\nterminals: a\nstart: S\n"
              "component P { S -> a }\n")
    doc = serialize_system(parse_system(source))
    assert "S -> a" in doc
    assert parse_system(doc) == parse_system(source)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_round_trip(name):
    system = load_corpus(name)
    assert parse_system(serialize_system(system)) == system


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_serialize_is_canonical(name):
    once = serialize_system(load_corpus(name))
    assert serialize_system(parse_system(once)) == once


@st.composite
def _edited_corpus_document(draw):
    """A corpus document with one to three edits: a line deleted, a line
    duplicated, or one character inserted."""
    lines = corpus_text(draw(st.sampled_from(CORPUS_FILES))).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "insert")))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines[i])))
            char = draw(st.sampled_from("{}:>#-;=")
                        | st.sampled_from(string.ascii_letters))
            lines[i] = lines[i][:j] + char + lines[i][j:]
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(_edited_corpus_document())
def test_an_edited_document_round_trips_or_raises_a_package_error(text):
    try:
        system = parse_system(text)
    except RrwError:
        return
    assert parse_system(serialize_system(system)) == system


def test_eps_rhs_round_trips():
    doc = ("system cf tiny\nnonterminals: S\nterminals: a\nstart: S\n"
           "component P { S -> a S\n S -> eps }\n")
    system = parse_system(doc)
    assert system.all_rules()[1].rhs == ()
    assert parse_system(serialize_system(system)) == system


def test_comments_are_ignored():
    doc = "# leading comment\n" + EXAMPLE1_DOC.replace(
        "start: A", "start: A  # trailing comment"
    )
    assert parse_system(doc) == parse_system(EXAMPLE1_DOC)


def test_unlabelled_rule_does_not_collide_with_explicit_positional_label():
    from rrw import Component, Rule, System

    system = System(
        kind="cf", name="clash", nonterminals={"A"}, terminals={"a"},
        start="A",
        components=(Component("P", (Rule("A", ("a",)), Rule("A", ("a", "a")),
                                    Rule("A", ("A",), label="r2"))),),
    )
    text = serialize_system(system)
    again = parse_system(text)
    assert [r.label for r in again.components[0].rules] == ["r1", "r2_1", "r2"]
    assert serialize_system(again) == text


def test_a_code_built_gc_system_round_trips():
    from rrw import GcRule, Rule, System, validate

    system = System(
        kind="gc", name="built", nonterminals={"S"}, terminals={"a"},
        start="S", init_labels={"p1"}, final_labels={"p1"},
        gc_rules=(GcRule("p1", Rule("S", ("a",)), success={"p1"}),),
    )
    assert validate(system) == []
    text = serialize_system(system)
    assert "  p1: S -> a success { p1 }" in text.splitlines()
    again = parse_system(text)
    assert [(g.label, g.rule.lhs, g.rule.rhs, g.success)
            for g in again.gc_rules] == [("p1", "S", ("a",), {"p1"})]
    assert serialize_system(again) == text


def test_an_entry_permit_set_round_trips():
    doc = ("system entry-cdgs permit\nnonterminals: S A\nterminals: a\n"
           "start: S\ncomponent P1 entry forbid { A } permit { S } "
           "{ S -> A A }\ncomponent P2 { A -> a }\n")
    system = parse_system(doc)
    entry = system.component_named("P1").entry
    assert (entry.forbid, entry.permit) == ({"A"}, {"S"})
    text = serialize_system(system)
    assert "component P1 entry forbid { A } permit { S } {" in text
    assert parse_system(text) == system


def test_construction_outputs_round_trip_to_a_fixed_point():
    from rrw import apply_construction
    from test_acceptance import diff_cases

    for cname, stem, mode, _, _, compact in diff_cases():
        out, _ = apply_construction(cname, load_corpus(stem + ".rrw"),
                                    mode=mode, compact=compact)
        text = serialize_system(out)
        assert serialize_system(parse_system(text)) == text, \
            (cname, stem, str(mode), compact)


def test_tokenizer_pins_kinds_texts_and_spans():
    # a token is its text: a mark, whose kind is its text, or an identifier;
    # each span is the one an error at that token carries
    from rrw.textio import _MARKS, SourceSpan, _span, _tokenize

    where = ("  r1: C -> C' forbid { A } > x", 3, 100)
    tokens = _tokenize(where)
    assert [(t, "ID" if t not in _MARKS else t, _span(where, i))
            for i, t in enumerate(tokens)] == [
        ("r1", "ID", SourceSpan(3, 3, 102, 2)),
        (":", ":", SourceSpan(3, 5, 104)),
        ("C", "ID", SourceSpan(3, 7, 106)),
        ("->", "->", SourceSpan(3, 9, 108)),
        ("C'", "ID", SourceSpan(3, 12, 111, 2)),
        ("forbid", "ID", SourceSpan(3, 15, 114, 6)),
        ("{", "{", SourceSpan(3, 22, 121)),
        ("A", "ID", SourceSpan(3, 24, 123)),
        ("}", "}", SourceSpan(3, 26, 125)),
        (">", ">", SourceSpan(3, 28, 127)),
        ("x", "ID", SourceSpan(3, 30, 129)),
    ]
    assert _tokenize((" \t ", 1, 0)) == []
    with pytest.raises(GrammarSyntaxError) as err:
        _tokenize(("A -> B, C", 2, 40))
    assert err.value.span == SourceSpan(2, 7, 46)
    assert str(err.value) == "line 2, column 7: unexpected character ','"


def test_syntax_error_span_points_into_the_document():
    doc = ("system cf tiny\nnonterminals: S\nterminals: a\nstart: S\n"
           "component P { S -> a ; }\n")
    with pytest.raises(GrammarSyntaxError) as err:
        parse_system(doc)
    assert err.value.span.line == 5
    assert err.value.span.column == 22
    assert doc[err.value.span.offset] == ";"


# ---------------------------------------------------------------------------
# pinned error messages: each document's exact error text and span
# ---------------------------------------------------------------------------

_PCD_HEAD = _head("pcdgs")

# one document per raise site of the parser, with the error it must raise:
# (exception type, str(err), span as (line, column, offset, length) or None)
PINNED_ERRORS = [
    ("unexpected-character", _CF_HEAD + "component P { S -> a, S }\n",
     "GrammarSyntaxError", "line 5, column 21: unexpected character ','",
     (5, 21, 72, 1)),
    ("unterminated-block", _CF_HEAD + "component P {\n  S -> a\n",
     "GrammarSyntaxError", "line 5, column 1: unterminated component block",
     (5, 1, 52, 9)),
    ("unexpected-line", _CF_HEAD + "  rules: S -> a\n",
     "GrammarSyntaxError", "line 5, column 3: unexpected line "
     "'rules: S -> a'", (5, 3, 54, 1)),
    ("misplaced-clause", _CF_HEAD + "component P {\n  S -> a\n"
     "  order: r1 > r1\n}\n",
     "ValidationError", "line 7, column 3: a cdgs system has no 'order:' "
     "clause", None),
    ("system-line", "system cdgs\nnonterminals: S\n",
     "GrammarSyntaxError", "line 1, column 1: expected 'system <kind> "
     "<name>'", (1, 1, 0, 1)),
    ("unknown-kind", "  system cgds c\nnonterminals: S\n",
     "ValidationError", "line 1, column 3: unknown kind 'cgds'", None),
    ("mode", "system cdgs c\nmode: =k\n",
     "GrammarSyntaxError", "line 2, column 1: cannot parse mode '=k'",
     (2, 1, 14, 1)),
    ("start", "system cdgs c\nstart: S T\n",
     "GrammarSyntaxError", "line 2, column 1: start takes exactly one "
     "symbol", (2, 1, 14, 1)),
    ("priority", _PCD_HEAD + "  priority: P Q\n",
     "GrammarSyntaxError", "line 5, column 3: expected 'priority: A > B'",
     (5, 3, 55, 1)),
    ("component-name", _CF_HEAD + "component { S -> a }\n",
     "GrammarSyntaxError", "line 5, column 1: component needs a name",
     (5, 1, 52, 9)),
    ("entry-forbid", _head("entry-cdgs") + "component P entry { S -> a }\n",
     "GrammarSyntaxError", "line 5, column 13: entry clause needs "
     "'forbid { ... }'", (5, 13, 70, 5)),
    ("header-brace", _CF_HEAD + "component P S -> a }\n",
     "GrammarSyntaxError", "line 5, column 20: component header must end "
     "with '{'", (5, 20, 71, 1)),
    ("gc-second-block", _GC_HEAD + "component A {\n  l1: S -> a\n}\n"
     "component B {\n  l1: S -> a\n}\n",
     "ValidationError", "line 10, column 1: a gc system has one component "
     "block", None),
    ("no-rules", _CF_HEAD + "component P {\n}\n",
     "ValidationError", "line 6, column 1: component P has no rules", None),
    ("brace-open", _head("frccdgs") + "component P { S -> a forbid S }\n",
     "GrammarSyntaxError", "line 5, column 29: expected '{'",
     (5, 29, 83, 1)),
    ("brace-close", _head("frccdgs")
     + "component P { S -> a forbid { S -> }\n",
     "GrammarSyntaxError", "line 5, column 33: expected '}'",
     (5, 33, 87, 1)),
    ("order-label", _head("ocdgs") + "component P {\n  S -> a\n"
     "  order: r1 > > r1\n}\n",
     "GrammarSyntaxError", "line 7, column 15: expected a rule label",
     (7, 15, 90, 1)),
    ("order-gt", _head("ocdgs") + "component P {\n  S -> a\n"
     "  order: r1 r1\n}\n",
     "GrammarSyntaxError", "line 7, column 13: expected '>'",
     (7, 13, 88, 2)),
    ("order-short", _head("ocdgs") + "component P {\n  S -> a\n"
     "  order: r1 >\n}\n",
     "GrammarSyntaxError", "line 7, column 3: order needs "
     "'l1 > l2 [> l3]*'", (7, 3, 78, 5)),
    ("rule-lhs", _CF_HEAD + "component P {\n  r1: -> a\n}\n",
     "GrammarSyntaxError", "line 6, column 3: expected rule lhs",
     (6, 3, 68, 2)),
    ("arrow", _CF_HEAD + "component P {\n  S a\n}\n",
     "GrammarSyntaxError", "line 6, column 3: expected '->'",
     (6, 3, 68, 1)),
    ("eps-alone", _CF_HEAD + "component P {\n  S -> a eps\n}\n",
     "GrammarSyntaxError", "line 6, column 3: 'eps' must stand alone",
     (6, 3, 68, 1)),
    ("empty-rhs", _CF_HEAD + "component P {\n  S -> forbid { S }\n}\n",
     "GrammarSyntaxError", "line 6, column 3: empty rhs must be written "
     "'eps'", (6, 3, 68, 1)),
    ("rule-token", _CF_HEAD + "component P {\n  S -> a -> b\n}\n",
     "GrammarSyntaxError", "line 6, column 10: unexpected token '->' in "
     "rule", (6, 10, 75, 1)),
    ("missing-start", "system cdgs c\nnonterminals: S\n",
     "GrammarSyntaxError", "line 1, column 1: missing 'start:' line",
     (1, 1, 0, 1)),
    ("undeclared", _CF_HEAD + "component P {\n  S -> a\n  T -> S b\n}\n",
     "ValidationError", "line 7, column 3: undeclared symbol 'T'; "
     "line 7, column 3: undeclared symbol 'b'", None),
    ("unknown-component", _PCD_HEAD + "priority: P > Q\n"
     "component P { S -> a }\n",
     "ValidationError", "line 5, column 1: unknown component 'Q'", None),
    ("unknown-label", _head("ocdgs") + "component P {\n  S -> a\n"
     "  S -> S\n  order: r2 > r1 > r9\n}\n",
     "ValidationError", "line 8, column 20: unknown rule label 'r9'", None),
]


def _outcome(text):
    """What parsing a document gives: None, or (exception type, str(err),
    span) with the span as (line, column, offset, length) or None."""
    try:
        parse_system(text)
    except RrwError as err:
        span = getattr(err, "span", None)
        return (type(err).__name__, str(err),
                None if span is None
                else (span.line, span.column, span.offset, span.length))
    return None


@pytest.mark.parametrize("doc, kind, message, span",
                         [case[1:] for case in PINNED_ERRORS],
                         ids=[case[0] for case in PINNED_ERRORS])
def test_each_parser_error_is_pinned(doc, kind, message, span):
    assert _outcome(doc) == (kind, message, span)
    if span is not None:
        # the column and the offset name the same character
        line, column, offset, _length = span
        line_start = sum(len(l) + 1 for l in doc.split("\n")[:line - 1])
        assert offset == line_start + column - 1


# a seeded set of single-character edits of the corpus and the outcome of
# each; the file was written from _edited_outcomes() and is not regenerated
# by the tests
EDITED_OUTCOMES = CORPUS_DIR.parent / "tests" / "parse_outcomes.json"


def _single_character_edits(count=400, seed=11):
    """(description, document) for ``count`` seeded edits of the corpus,
    each inserting, deleting or replacing one character."""
    import random

    rng = random.Random(seed)
    chars = "{}:>-#;=,'^_ \nSAPalr1"
    for _ in range(count):
        name = rng.choice(CORPUS_FILES)
        text = corpus_text(name)
        edit = rng.choice(("insert", "delete", "replace"))
        at = rng.randrange(len(text) + (edit == "insert"))
        char = "" if edit == "delete" else rng.choice(chars)
        yield (f"{name} {edit} {char!r} at {at}",
               text[:at] + char + text[at + (edit != "insert"):])


def _edited_outcomes():
    return [[what, _outcome(text)]
            for what, text in _single_character_edits()]


def test_single_character_edits_of_the_corpus_keep_their_errors():
    import json

    expected = json.loads(EDITED_OUTCOMES.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(_edited_outcomes()))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
