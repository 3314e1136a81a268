"""Tests for the derivation semantics and bounded enumeration."""

import pytest

from rrw import (
    Component,
    GcConfig,
    Mode,
    Rule,
    StepBounds,
    System,
    UnknownLabel,
    close_order,
    component_successors,
    enumerate_language,
    find_derivation,
    gc_successors,
    mode_apply,
    replay_trace,
    rule_applicable,
    system_successors,
)

from conftest import CORPUS_DIR, CORPUS_FILES, load_corpus

BOUNDS = StepBounds(workspace=16)

T = Mode.parse("t")
STAR = Mode.parse("*")


def comp_g1():
    return Component("P1", (Rule("A", ("B",)), Rule("A", ("C",))))


def comp_g2():
    # C -> C ordered strictly above B -> A A
    return Component(
        "P2",
        (Rule("C", ("C",)), Rule("B", ("A", "A"))),
        order=close_order({(0, 1)}),
    )


def singleton_system():
    return System(
        kind="cf",
        name="one",
        nonterminals=frozenset({"S"}),
        terminals=frozenset({"a"}),
        start="S",
        components=(Component("P", (Rule("S", ("a",)),)),),
    )


# ---------------------------------------------------------------------------
# rule applicability and single steps
# ---------------------------------------------------------------------------

def test_ordered_rule_blocked_by_greater_lhs():
    g2 = comp_g2()
    assert rule_applicable(g2, ("B", "C"), 1) is False  # B -> AA blocked
    assert rule_applicable(g2, ("B", "C"), 0) is True   # C -> C stays on


def test_rule_inapplicable_without_lhs():
    comp = Component("P", (Rule("A", ("a",)),))
    assert rule_applicable(comp, ("a", "a"), 0) is False


def test_frc_rule_blocked_by_forbid():
    from rrw import RcCondition

    comp = Component(
        "P",
        (Rule("A", ("a",)),),
        contexts=(RcCondition(forbid={"B"}),),
    )
    assert rule_applicable(comp, ("A", "B"), 0) is False
    assert rule_applicable(comp, ("A",), 0) is True


def test_rule_applicable_rejects_bad_index():
    with pytest.raises(IndexError):
        rule_applicable(comp_g1(), ("A",), 7)


def test_component_successors_all_positions():
    forms = {f for (f, _, _) in component_successors(comp_g1(), ("A", "A"))}
    assert forms == {
        ("B", "A"), ("A", "B"), ("C", "A"), ("A", "C")
    }


def test_component_successors_terminal_form_empty():
    assert component_successors(comp_g1(), ("a", "a")) == set()


def test_component_successors_blocked_loop_only():
    succ = component_successors(comp_g2(), ("B", "C"))
    assert succ == {(("B", "C"), 0, 1)}


# ---------------------------------------------------------------------------
# mode_apply
# ---------------------------------------------------------------------------

def test_t_mode_leaves_component_when_done():
    assert mode_apply(comp_g2(), ("B",), T, BOUNDS) == {("A", "A")}


def test_t_mode_blocks_on_inescapable_loop():
    assert mode_apply(comp_g2(), ("B", "C"), T, BOUNDS) == set()


def test_eq2_composes_single_steps():
    result = mode_apply(comp_g1(), ("A", "A"), Mode.parse("=2"), BOUNDS)
    assert result == {
        ("B", "B"), ("B", "C"), ("C", "B"), ("C", "C")
    }


def test_eq1_matches_single_successors():
    comp = comp_g1()
    single = {f for (f, _, _) in component_successors(comp, ("A", "A"))}
    assert mode_apply(comp, ("A", "A"), Mode.parse("=1"), BOUNDS) == single


def test_le2_is_union_of_first_layers():
    comp = comp_g1()
    le2 = mode_apply(comp, ("A", "A"), Mode.parse("<=2"), BOUNDS)
    eq1 = mode_apply(comp, ("A", "A"), Mode.parse("=1"), BOUNDS)
    eq2 = mode_apply(comp, ("A", "A"), Mode.parse("=2"), BOUNDS)
    assert le2 == eq1 | eq2


def test_star_requires_at_least_one_step():
    comp = comp_g1()
    star = mode_apply(comp, ("A", "A"), STAR, BOUNDS)
    assert ("A", "A") not in star
    assert ("B", "C") in star


def test_workspace_truncates_long_forms():
    comp = Component("P", (Rule("A", ("A", "A")),))
    small = StepBounds(workspace=3)
    result = mode_apply(comp, ("A",), Mode.parse(">=1"), small)
    assert result == {("A", "A"), ("A", "A", "A")}


# ---------------------------------------------------------------------------
# system-level steps
# ---------------------------------------------------------------------------

def test_system_successors_from_start(example1):
    succ = system_successors(example1, ("A",), T, BOUNDS)
    assert succ == {("P1", ("B",)), ("P1", ("C",))}


def test_entry_condition_gates_activation(entry_witness):
    # component P2 (entry forbid A, C) must stay silent on a form with A
    succ = system_successors(entry_witness, ("A", "B"), STAR, BOUNDS)
    assert all(name != "P2" for (name, _) in succ)


def test_priority_blocks_lower_component():
    pcd = load_corpus("pcd_chain.rrw")
    # P2 (A -> a) outranks P3; from "A B" only P2 may act
    succ = system_successors(pcd, ("A", "B"), Mode.parse("=1"), BOUNDS)
    assert succ == {("P2", ("a", "B"))}


def test_pcdgs_without_order_behaves_like_cdgs():
    pcd = load_corpus("pcd_chain.rrw")
    plain = System(
        kind="cdgs",
        name=pcd.name,
        nonterminals=pcd.nonterminals,
        terminals=pcd.terminals,
        start=pcd.start,
        components=pcd.components,
    )
    unordered = System(
        kind="pcdgs",
        name=pcd.name,
        nonterminals=pcd.nonterminals,
        terminals=pcd.terminals,
        start=pcd.start,
        components=pcd.components,
        component_order=close_order(set()),
    )
    for mode in (T, STAR, Mode.parse("=2")):
        for form in [("A", "B"), ("S",), ("A", "A", "B")]:
            assert system_successors(unordered, form, mode, BOUNDS) == \
                system_successors(plain, form, mode, BOUNDS)


# ---------------------------------------------------------------------------
# graph control
# ---------------------------------------------------------------------------

def gc_one_rule():
    from rrw import GcRule

    return System(
        kind="gc",
        name="g",
        nonterminals=frozenset({"A", "B"}),
        terminals=frozenset({"a"}),
        start="A",
        gc_rules=(
            GcRule("l1", Rule("A", ("a",)), success={"l2"}, failure={"l3"}),
            GcRule("l2", Rule("A", ("a",))),
            GcRule("l3", Rule("B", ("a",))),
        ),
        init_labels={"l1"},
        final_labels={"l2"},
    )


def test_gc_success_branch():
    succ = gc_successors(gc_one_rule(), GcConfig(("A",), "l1"))
    assert succ == {GcConfig(("a",), "l2")}


def test_gc_failure_branch_keeps_form():
    succ = gc_successors(gc_one_rule(), GcConfig(("B",), "l1"))
    assert succ == {GcConfig(("B",), "l3")}


def test_gc_empty_failure_field_gets_stuck():
    succ = gc_successors(gc_one_rule(), GcConfig(("B",), "l2"))
    assert succ == set()


def test_gc_unknown_label():
    with pytest.raises(UnknownLabel):
        gc_successors(gc_one_rule(), GcConfig(("A",), "nope"))


def test_gc_enumeration():
    system = load_corpus("gc_fin.rrw")
    lang = enumerate_language(system, STAR, 4, StepBounds(8))
    assert lang.words == {("a", "a")}
    assert lang.complete


def test_gc_starved_form_budget_is_undecided():
    from rrw import BudgetExceeded

    system = load_corpus("gc_choice.rrw")
    starved = StepBounds(8, form_budget=1)
    assert not enumerate_language(system, STAR, 4, starved).complete
    with pytest.raises(BudgetExceeded):
        find_derivation(system, None, ("a", "a"), starved)


def test_gc_non_member_is_absent_after_an_exhaustive_search():
    system = load_corpus("gc_choice.rrw")
    assert find_derivation(system, None, ("a", "b"), StepBounds(8)) is None


# ---------------------------------------------------------------------------
# enumeration and derivation search
# ---------------------------------------------------------------------------

def test_enumerate_singleton():
    lang = enumerate_language(singleton_system(), STAR, 3, StepBounds(4))
    assert lang.words == {("a",)}
    assert lang.complete


def test_enumerate_powers_of_two(example1):
    lang = enumerate_language(example1, T, 8, StepBounds(8))
    assert lang.words == {
        ("a",) * n for n in (1, 2, 4, 8)
    }
    assert lang.complete


def test_enumerate_erasing_language():
    system = load_corpus("cf_star.rrw")
    lang = enumerate_language(system, STAR, 3, StepBounds(8))
    assert lang.words == {(), ("a",), ("a", "a"), ("a", "a", "a")}


def test_enumerate_rejects_max_len_above_workspace():
    with pytest.raises(ValueError):
        enumerate_language(singleton_system(), STAR, 5, StepBounds(4))


def test_find_derivation_power_of_two(example1):
    trace = find_derivation(example1, T, ("a",) * 4, StepBounds(8))
    assert trace is not None
    forms = [trace.start] + [s.result for s in trace.steps]
    assert forms == [
        ("A",), ("B",), ("A", "A"), ("B", "B"),
        ("A", "A", "A", "A"), ("C", "C", "C", "C"), ("a", "a", "a", "a"),
    ]
    assert [s.component for s in trace.steps] == [
        "P1", "P2", "P1", "P2", "P1", "P3"
    ]


def test_find_derivation_absent_word(example1):
    assert find_derivation(example1, T, ("a",) * 3, StepBounds(8)) is None


def test_find_derivation_single_step():
    trace = find_derivation(singleton_system(), STAR, ("a",), StepBounds(4))
    assert trace is not None
    assert len(trace.steps) == 1


def test_replay_trace_roundtrip(example1):
    trace = find_derivation(example1, T, ("a",) * 4, StepBounds(8))
    assert replay_trace(example1, trace) == ("a",) * 4


def test_replay_trace_rejects_tampering(example1):
    from dataclasses import replace

    trace = find_derivation(example1, T, ("a", "a"), StepBounds(8))
    bad_step = replace(trace.steps[0], result=("C", "C"))
    bad = replace(trace, steps=(bad_step,) + trace.steps[1:])
    with pytest.raises(ValueError):
        replay_trace(example1, bad)


def test_long_forms_do_not_recurse(example1):
    lang = enumerate_language(example1, T, 1024, StepBounds(1024))
    assert lang.complete
    assert lang.words == {("a",) * (1 << n) for n in range(11)}


# ---------------------------------------------------------------------------
# product path vs naive path
# ---------------------------------------------------------------------------

CRITERION_4_MODES = ("t", "*", "=1", "=2", "=3", "<=2", ">=1", ">=2")


def _random_forms(symbols, rng, count, lengths):
    return [tuple(rng.choice(symbols) for _ in range(rng.randint(*lengths)))
            for _ in range(count)]


def test_product_path_matches_naive_path():
    """``_Enumeration.activation`` against the naive closure on every non-gc
    corpus component, criterion-4 mode and seeded random form.

    Equal whenever the naive path is not truncated. When it is, the product
    path may return a strict superset (it bounds subforms, not whole forms,
    by the workspace); ``cf_star``, with its erasing rule, shows this.
    """
    import random

    from rrw.engine import _Budget, _Enumeration, _naive_mode

    rng = random.Random(20260417)
    bounds = StepBounds(10)
    compared = specialised = supersets = 0
    for name in CORPUS_FILES:
        system = load_corpus(name)
        if system.kind == "gc":
            continue
        nonterminals = sorted(system.nonterminals)
        forms = _random_forms(
            nonterminals + sorted(system.terminals), rng, 12, (1, 6))
        # long nonterminal forms give regulated components enough rewritable
        # positions to be specialised in mode t
        t_forms = forms + _random_forms(nonterminals, rng, 24, (4, 6))
        for text in CRITERION_4_MODES:
            mode = Mode.parse(text)
            enum = _Enumeration(system, bounds, mode)
            for comp in system.components:
                conds = comp.effective_conditions()
                for form in t_forms if text == "t" else forms:
                    fast = enum.activation(comp, form, mode)
                    budget = _Budget(bounds.step_budget, bounds.form_budget)
                    slow, truncated = _naive_mode(
                        comp, conds, form, mode, bounds.workspace, budget)
                    assert not budget.exhausted and not enum.exhausted
                    where = (name, comp.name, text, form)
                    if truncated:
                        assert fast >= slow, where
                        supersets += fast != slow
                    else:
                        assert fast == slow, where
                    compared += 1
                    if not comp.unregulated and \
                            enum.product_component(comp, form, mode):
                        specialised += 1
    assert compared > 2000
    assert specialised > 20  # regulated components on the product path
    assert supersets > 0  # the documented cf_star difference still shows


def test_regulation_that_changes_during_a_t_activation_stays_naive():
    from rrw import RcCondition
    from rrw.engine import _Enumeration

    # each rule needs the other's lhs present: whichever symbol is rewritten
    # last gets stuck, so no t-result rewrites both kinds
    comp = Component(
        "P", (Rule("X", ("a",)), Rule("Y", ("c",))),
        contexts=(RcCondition(permit={"Y"}), RcCondition(permit={"X"})),
    )
    system = System(
        kind="rccdgs", name="swap", nonterminals={"X", "Y"},
        terminals={"a", "c"}, start="X", components=(comp,),
    )
    form = ("X", "X", "Y", "Y")
    enum = _Enumeration(system, BOUNDS, T)
    assert enum.product_component(comp, form, T) is None
    result = enum.activation(comp, form, T)
    assert result == mode_apply(comp, form, T, BOUNDS)
    assert result and ("a", "a", "c", "c") not in result


def test_stable_regulation_takes_the_product_path(example1):
    from rrw.engine import _Enumeration

    p2 = example1.component_named("P2")
    enum = _Enumeration(example1, BOUNDS, T)
    form = ("B",) * 6
    assert enum.product_component(p2, form, T) is not None
    assert enum.activation(p2, form, T) == {("A",) * 12}
    assert enum.product_component(p2, form + ("C",), T) is not None
    assert enum.activation(p2, form + ("C",), T) == set()


def test_unregulated_results_cut_by_workspace_mark_truncation():
    from rrw.engine import _Enumeration

    comp = Component("P", (Rule("A", ("a", "a", "a")),))
    system = System(
        kind="cf", name="wide", nonterminals={"A"}, terminals={"a"},
        start="A", components=(comp,),
    )
    eq2 = Mode.parse("=2")
    enum = _Enumeration(system, StepBounds(5), eq2)
    assert enum.activation(comp, ("A", "A"), eq2) == set()
    assert enum.truncated


# ---------------------------------------------------------------------------
# derivation search on the enumeration's activations
# ---------------------------------------------------------------------------

def test_every_enumerated_doubling_word_derives_and_replays(example1):
    bounds = StepBounds(32)
    lang = enumerate_language(example1, T, 32, bounds)
    assert lang.complete and len(lang.words) == 6
    for word in lang.words:
        trace = find_derivation(example1, T, word, bounds)
        assert trace is not None, word
        assert replay_trace(example1, trace) == word


def test_non_powers_are_absent_after_an_exhaustive_search(example1):
    for n in (6, 7):
        # returns instead of raising: no budget ran out
        assert find_derivation(example1, T, ("a",) * n, StepBounds(16)) is None


def test_starved_derivation_raises_budget_exceeded(example1):
    from rrw import BudgetExceeded
    from rrw.cli import main

    starved = StepBounds(36, step_budget=10)
    with pytest.raises(BudgetExceeded):
        find_derivation(example1, T, ("a",) * 16, starved)
    path = str(CORPUS_DIR / "ocdgs_example1.rrw")
    assert main(["derive", path, "--mode", "t", "--word", "a" * 16,
                 "--step-budget", "10"]) == 3


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_enumerated_words_derive_and_replay(name):
    system = load_corpus(name)
    bounds = StepBounds(6 if name == "ocdgs_example1.rrw" else 10)
    modes = ("*",) if system.kind == "gc" else CRITERION_4_MODES
    for text in modes:
        mode = Mode.parse(text)
        for word in enumerate_language(system, mode, 6, bounds).words:
            trace = find_derivation(system, mode, word, bounds)
            assert trace is not None, (text, word)
            assert replay_trace(system, trace) == word, (text, word)
