"""Tests for the document format: parsing, serialization, round trips."""

import pytest

from rrw import (
    CycleError,
    GrammarSyntaxError,
    Mode,
    ValidationError,
    parse_system,
    serialize_system,
)

from conftest import CORPUS_FILES, corpus_text, load_corpus

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
    from test_acceptance import _DIFF_CASES

    for cname, stems, triples in _DIFF_CASES:
        for stem in stems:
            source = load_corpus(stem + ".rrw")
            for mode_arg in sorted({t[0] for t in triples}, key=str):
                for compact in (False, True) if cname == "gc-to-ocdgs" \
                        else (False,):
                    out, _ = apply_construction(
                        cname, source,
                        mode=None if mode_arg is None else Mode.parse(mode_arg),
                        compact=compact,
                    )
                    text = serialize_system(out)
                    assert serialize_system(parse_system(text)) == text, \
                        (cname, stem, mode_arg, compact)
