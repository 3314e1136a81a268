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
    from rrw.textio import SourceSpan, _tokenize_line

    tokens = _tokenize_line("  r1: C -> C' forbid { A } > x # -> }", 3, 100)
    assert [(t.kind, t.text, t.span) for t in tokens] == [
        ("ID", "r1", SourceSpan(3, 3, 102, 2)),
        ("COLON", ":", SourceSpan(3, 5, 104)),
        ("ID", "C", SourceSpan(3, 7, 106)),
        ("ARROW", "->", SourceSpan(3, 9, 108)),
        ("ID", "C'", SourceSpan(3, 12, 111, 2)),
        ("ID", "forbid", SourceSpan(3, 15, 114, 6)),
        ("LBRACE", "{", SourceSpan(3, 22, 121)),
        ("ID", "A", SourceSpan(3, 24, 123)),
        ("RBRACE", "}", SourceSpan(3, 26, 125)),
        ("GT", ">", SourceSpan(3, 28, 127)),
        ("ID", "x", SourceSpan(3, 30, 129)),
    ]
    assert _tokenize_line(" \t ", 1, 0) == []
    with pytest.raises(GrammarSyntaxError) as err:
        _tokenize_line("A -> B, C", 2, 40)
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
