"""Tests for the reference enumerator and bounded-language comparison."""

import pytest

from rrw import (
    Component,
    Mode,
    Rule,
    StepBounds,
    System,
    bounded_equiv,
    enumerate_language,
    reference_enumerate,
    useful_nonterminals,
)

from conftest import CORPUS_FILES, MODE_GRID, load_corpus

STAR = Mode.parse("*")
T = Mode.parse("t")


def singleton_system():
    return System(
        kind="cf",
        name="one",
        nonterminals=frozenset({"S"}),
        terminals=frozenset({"a"}),
        start="S",
        components=(Component("P", (Rule("S", ("a",)),)),),
    )


def test_reference_powers_of_two(example1):
    lang = reference_enumerate(example1, T, 8, StepBounds(8))
    assert lang.words == {("a",) * n for n in (1, 2, 4, 8)}
    assert lang.complete


def test_reference_singleton():
    lang = reference_enumerate(singleton_system(), STAR, 1, StepBounds(2))
    assert lang.words == {("a",)}


def test_reference_agrees_with_engine_on_modes(example1):
    bounds = StepBounds(6)
    for text in ("t", "*", "=1", "=2", "<=2", ">=1", ">=2"):
        mode = Mode.parse(text)
        ref = reference_enumerate(example1, mode, 6, bounds)
        eng = enumerate_language(example1, mode, 6, bounds)
        assert ref.words == eng.words, f"disagreement under {text}"


def test_the_oracle_expands_each_component_and_form_once(monkeypatch):
    # every mode is built from one memoised one-step relation, so within one
    # reference_enumerate call no (component, form) is rewritten twice
    from rrw.equivalence import _Oracle

    successors = _Oracle._successors
    calls = []

    def recorded(oracle, comp, form):
        calls.append((comp.name, form))
        return successors(oracle, comp, form)

    monkeypatch.setattr(_Oracle, "_successors", recorded)
    for name in CORPUS_FILES:
        system = load_corpus(name)
        if system.kind == "gc":
            continue
        for text in MODE_GRID:
            calls.clear()
            reference_enumerate(system, Mode.parse(text), 4, StepBounds(6))
            assert calls, (name, text)
            assert len(calls) == len(set(calls)), (name, text)


def test_reference_rejects_a_negative_max_len_as_the_engine_does(example1):
    errors = []
    for enumerate_ in (reference_enumerate, enumerate_language):
        with pytest.raises(ValueError) as err:
            enumerate_(example1, T, -1, StepBounds(4))
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "max_len must be >= 0, got -1"


def test_equiv_identical_systems(example1):
    verdict = bounded_equiv(example1, T, example1, T, 6, StepBounds(6))
    assert verdict.equal
    assert verdict.only_in_a == () and verdict.only_in_b == ()


def test_equiv_reports_difference(example1):
    verdict = bounded_equiv(
        example1, T, singleton_system(), STAR, 2, StepBounds(6)
    )
    assert not verdict.equal
    assert verdict.only_in_a == (("a", "a"),)
    assert verdict.only_in_b == ()


def test_equiv_difference_is_shortlex_sorted():
    anbn = load_corpus("cf_anbn.rrw")
    verdict = bounded_equiv(
        anbn, STAR, singleton_system(), STAR, 6, StepBounds(14)
    )
    diffs = verdict.only_in_a
    keys = [(len(w), w) for w in diffs]
    assert keys == sorted(keys)
    assert diffs[0] == ("a", "b")


def test_incomplete_side_never_equal():
    # an erasing system truncated by a tiny workspace loses its certificate
    star = load_corpus("cf_star.rrw")
    verdict = bounded_equiv(star, STAR, star, STAR, 2, StepBounds(2))
    assert not verdict.complete_a
    assert not verdict.equal


def test_useful_nonterminals_direct():
    assert useful_nonterminals([Rule("A", ("a",))], {"a"}) == {"A"}


def test_useful_nonterminals_passive_symbol_counts_as_terminal():
    # B occurs on no lhs, so it behaves like a terminal of the component
    assert useful_nonterminals([Rule("A", ("B",))], {"B"}) == {"A"}


def test_useful_nonterminals_pure_loop_is_dead():
    assert useful_nonterminals([Rule("A", ("A",))], set()) == set()


def test_useful_nonterminals_monotone():
    rules = [Rule("A", ("B",)), Rule("B", ("b",))]
    small = useful_nonterminals(rules[:1], {"b"})
    large = useful_nonterminals(rules, {"b"})
    assert small <= large


def test_the_oracle_shares_no_mode_logic_with_the_engine():
    # the oracle is an independent check only while it derives each mode's
    # relation with its own code: no Mode.steps, no engine helper
    import ast
    import pathlib

    import rrw.equivalence

    tree = ast.parse(pathlib.Path(rrw.equivalence.__file__).read_text(
        encoding="utf-8"))
    allowed = {"BoundedLanguage", "StepBounds", "enumerate_language"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr != "steps", node.lineno
        elif isinstance(node, ast.Import):
            assert all("engine" not in a.name for a in node.names), node.lineno
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if "engine" in (node.module or "").split("."):
                assert names <= allowed, (node.lineno, names - allowed)
            else:
                assert "engine" not in names, node.lineno
