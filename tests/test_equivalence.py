"""Tests for the reference enumerator and bounded-language comparison."""

import time

import pytest

from rrw import (
    Component,
    Mode,
    Rule,
    StepBounds,
    System,
    bounded_equiv,
    enumerate_language,
    parse_system,
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


@pytest.mark.parametrize("text", ["=1200", ">=1200"])
def test_the_oracle_takes_more_steps_than_the_call_stack_holds(
        entry_witness, text):
    # an activation of k steps is found layer by layer, not by k nested calls
    lang = reference_enumerate(entry_witness, Mode.parse(text), 4,
                               StepBounds(6))
    assert lang.words == {("a",) * n for n in (1, 2, 4)}
    assert lang.complete


def test_reference_rejects_a_negative_max_len_as_the_engine_does(example1):
    errors = []
    for enumerate_ in (reference_enumerate, enumerate_language):
        with pytest.raises(ValueError) as err:
            enumerate_(example1, T, -1, StepBounds(4))
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "max_len must be >= 0, got -1"


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_engine_and_oracle_agree_on_completeness(name):
    # criterion 4's bounds under every mode: a workspace cut counts only
    # when the cut form weighs at most max_len, so every case is complete,
    # cf_star with its erasing rule included
    system = load_corpus(name)
    bounds = StepBounds(6 if name == "ocdgs_example1.rrw" else 10)
    for text in ("*",) if system.kind == "gc" else MODE_GRID:
        mode = Mode.parse(text)
        fast = enumerate_language(system, mode, 6, bounds)
        slow = reference_enumerate(system, mode, 6, bounds)
        assert (fast.words, fast.complete) == (slow.words, slow.complete), \
            text
        assert fast.complete, text


UNPRODUCTIVE = """system cf unproductive
nonterminals: S B
terminals: a
start: S
component P1 { S -> a S B
               S -> S B
               B -> eps }
"""


@pytest.mark.parametrize("text", MODE_GRID)
def test_an_unproductive_start_gives_an_empty_complete_language(text):
    # every form holds S, which derives no terminal word, so no cut can
    # hide a word, although B is erased
    system = parse_system(UNPRODUCTIVE)
    for enumerate_ in (enumerate_language, reference_enumerate):
        lang = enumerate_(system, Mode.parse(text), 4, StepBounds(10))
        assert (lang.words, lang.complete) == (frozenset(), True), \
            enumerate_.__name__


NULLABLE = """system cf nullable
nonterminals: S
terminals: a
start: S
component P1 { S -> S S
               S -> a
               S -> eps }
"""
SPREAD = """system cf spread
nonterminals: S A B
terminals: a
start: S
component P1 { S -> A A A A
               A -> B B
               B -> a
               B -> eps }
"""


GC_NULLABLE = """system gc gc_nullable
nonterminals: S
terminals: a
start: S
init-labels: l1
final-labels: l3
component rules { l1: S -> S S success { l1 l2 l3 }
                  l2: S -> eps success { l1 l2 l3 }
                  l3: S -> a success { l1 l2 l3 } }
"""


@pytest.mark.parametrize("document, max_len", [
    pytest.param(NULLABLE, 3, id="nullable"),
    pytest.param(SPREAD, 0, id="spread"),
    pytest.param(GC_NULLABLE, 3, id="gc-nullable"),
])
def test_a_cut_within_the_weight_still_counts(document, max_len):
    # nullable symbols grow a form past the workspace without adding
    # weight, so the cut form may still yield a counted word. In SPREAD
    # under =k and <=k, where every form with an a is too heavy, each such
    # cut falls in the product path's assembly of position tables
    system = parse_system(document)
    for text in ("*",) if system.kind == "gc" else MODE_GRID:
        for enumerate_ in (enumerate_language, reference_enumerate):
            lang = enumerate_(system, Mode.parse(text), max_len,
                              StepBounds(6))
            assert not lang.complete, (text, enumerate_.__name__)


GC_ERASING = """system gc gc_erasing
nonterminals: S E
terminals: a
start: S
init-labels: l1 l2
final-labels: l2
component rules { l1: S -> S S success { l1 l2 }
                  l2: S -> a success { l1 l2 l3 }
                  l3: E -> eps success { l1 l2 } }
"""


def test_a_gc_cut_past_the_weight_does_not_count():
    # the erasing rule, although E never occurs, keeps the workspace at 3
    # rather than max_len; every cut form there has four symbols of weight
    # 1, more than max_len, so no cut counts
    system = parse_system(GC_ERASING)
    for enumerate_ in (enumerate_language, reference_enumerate):
        lang = enumerate_(system, STAR, 2, StepBounds(3))
        assert (lang.words, lang.complete) == (
            {("a",), ("a", "a")}, True), enumerate_.__name__


def test_a_long_priority_chain_is_decided_at_once():
    # P0 > P1 > ... > P39, each rewriting S: a check that recurses over
    # every greater component takes time exponential in the chain
    n = 40
    system = parse_system("\n".join(
        ["system pcdgs chain", "nonterminals: S", "terminals: a",
         "start: S"]
        + [f"priority: P{i} > P{i + 1}" for i in range(n - 1)]
        + [f"component P{i} {{ S -> a }}" for i in range(n)]) + "\n")
    for enumerate_ in (enumerate_language, reference_enumerate):
        started = time.perf_counter()
        lang = enumerate_(system, Mode.parse("=1"), 2, StepBounds(4))
        assert time.perf_counter() - started < 1, enumerate_.__name__
        assert (lang.words, lang.complete) == ({("a",)}, True), \
            enumerate_.__name__


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
