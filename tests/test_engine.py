"""Tests for the derivation semantics and bounded enumeration."""

import time
from dataclasses import replace

import pytest

from rrw import (
    BudgetExceeded,
    Component,
    DerivationTrace,
    GcConfig,
    Mode,
    Rule,
    StepBounds,
    System,
    TraceStep,
    UnknownLabel,
    close_order,
    component_successors,
    enumerate_language,
    find_derivation,
    gc_successors,
    mode_apply,
    parse_system,
    reference_enumerate,
    replay_trace,
    rule_applicable,
    system_successors,
)

from conftest import (CORPUS_DIR, CORPUS_FILES, MODE_GRID, corpus_text,
                      load_corpus)

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


def _loop_system():
    return System(
        kind="cf", name="loop", nonterminals=frozenset({"S"}),
        terminals=frozenset({"a"}), start="S",
        components=(Component("P", (Rule("S", ("S",)), Rule("S", ("a",)))),),
    )


@pytest.mark.parametrize("text, count", [
    ("=2", 1), ("<=2", 3), (">=2", 1), ("*", 0), ("t", 0),
], ids=["=2", "<=2", ">=2", "*", "t"])
def test_replay_trace_rejects_a_wrong_number_of_applications(text, count):
    # every application is the loop S -> S, so each form matches its record
    # and only the count is wrong for the mode
    from rrw import DerivationTrace, TraceStep

    step = TraceStep("P", Mode.parse(text), ((0, 0),) * count, ("S",))
    with pytest.raises(ValueError, match="applications"):
        replay_trace(_loop_system(), DerivationTrace(("S",), (step,)))


def _step(component, result, *applications, mode=STAR):
    return TraceStep(component, mode, applications, tuple(result))


@pytest.mark.parametrize("name, start, steps, message", [
    ("ocdgs_example1.rrw", "aaa", [], "not at the start symbol"),
    ("gc_fin.rrw", "b", [], "not at the start symbol"),
    ("ocdgs_example1.rrw", None, [_step("P9", "A", mode=T)],
     "no component 'P9'"),
    ("ocdgs_example1.rrw", None, [_step("P1", "B", (7, 0), mode=T)],
     "rule 7 not applicable"),
    ("gc_choice.rrw", None, [_step("nope", "S")],
     "cannot move to label 'nope'"),
    ("gc_fin.rrw", None, [_step("l1", "AA", (0, 5))], "lhs not at position"),
    ("gc_fin.rrw", None, [_step("l1", "AA", (0, 0)),
                          _step("l3", "bA", (2, 0)),
                          _step("l3", "bb", (2, 1))],
     "cannot move to label 'l3'"),
    ("gc_fin.rrw", None, [_step("l2", "S")], "cannot move to label 'l2'"),
    ("gc_fin.rrw", None, [_step("l1", "AA", (0, 0))],
     "cannot move to a final label"),
    ("ocdgs_example1.rrw", None, [_step("P1", "B", (0, 0), mode=T),
                                  _step("P2", "AA", (1, 0), mode=T),
                                  _step("P1", "BA", (0, 0), mode=T)],
     "t-activation left a live form"),
    ("gc_fin.rrw", None, [_step("l1", "AA", (0, 0), (0, 0))],
     "applies the rule at its label once"),
    ("gc_fin.rrw", None, [_step("l1", "AA", (1, 0))],
     "applies the rule at its label once"),
    ("gc_fin.rrw", None, [_step("l1", "AA", (0, 0)), _step("l2", "AA")],
     "failure branch taken on an applicable rule"),
    ("gc_fin.rrw", None, [_step("l1", "AB", (0, 0))],
     "form differs from record"),
], ids=["not-the-start", "gc-not-the-start", "unknown-component",
        "rule-index", "unknown-label", "position", "not-a-successor",
        "not-initial", "not-final", "t-live", "gc-two-applications",
        "gc-other-rule", "gc-false-failure", "gc-other-result"])
def test_replay_trace_rejects_a_malformed_trace(name, start, steps, message):
    # the first two replayed to aaa and b, which neither system derives; the
    # next four raised KeyError or IndexError; the next three replayed
    # although the control graph allows none of them. A start of None is
    # the system's start symbol.
    system = load_corpus(name)
    start = (system.start,) if start is None else tuple(start)
    with pytest.raises(ValueError, match=message):
        replay_trace(system, DerivationTrace(start, tuple(steps)))


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
    corpus component, mode of ``MODE_GRID`` and seeded random form; the
    product path runs in every mode. In a multiset search both paths give
    the sorted image of the word search's results on the sorted form.

    Equal whenever the naive path is not truncated. When it is, the product
    path may return a strict superset (it bounds subforms, not whole forms,
    by the workspace); ``cf_star``, with its erasing rule, shows this. Both
    paths read the same layers, so the naive path is also checked against
    the reference oracle, which shares no logic with the engine, wherever
    neither is truncated.
    """
    import random

    from rrw.engine import _Budget, _Enumeration, _naive_mode
    from rrw.equivalence import _Oracle

    rng = random.Random(20260417)
    bounds = StepBounds(10)
    compared = specialised = supersets = against_oracle = 0
    product_runs = dict.fromkeys(MODE_GRID, 0)
    multiset_runs = dict.fromkeys(MODE_GRID, 0)
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
        for text in MODE_GRID:
            mode = Mode.parse(text)
            enum = _Enumeration(system, bounds, mode)
            menum = _Enumeration(system, bounds, mode, multiset=True)
            for ci, comp in enumerate(system.components):
                conds = comp.effective_conditions()
                for form in t_forms if text == "t" else forms:
                    fast = enum.activation(comp, form)
                    budget = _Budget(bounds.step_budget, bounds.form_budget)
                    # a fresh search without a weight limit counts every cut
                    cuts = _Enumeration(system, bounds, mode)
                    slow = _naive_mode(comp, conds, form, mode,
                                       bounds.workspace, budget, cuts.cut)
                    truncated = cuts.truncated
                    assert not budget.exhausted and not enum.exhausted
                    where = (name, comp.name, text, form)
                    # the multiset activation of the sorted form, on both
                    # paths, is the sorted image of the word activation
                    key = tuple(sorted(form))
                    mcuts = _Enumeration(system, bounds, mode)
                    mslow = _naive_mode(comp, conds, key, mode,
                                        bounds.workspace, budget, mcuts.cut,
                                        multiset=True)
                    assert mcuts.truncated == truncated, where
                    assert mslow == {tuple(sorted(r)) for r in slow}, where
                    assert menum.activation(comp, key) == \
                        {tuple(sorted(r)) for r in fast}, where
                    multiset_runs[text] += bool(
                        menum.product_component(comp, key))
                    if truncated:
                        assert fast >= slow, where
                        supersets += fast != slow
                    else:
                        assert fast == slow, where
                        oracle = _Oracle(system, bounds)
                        expected = oracle.mode_set(ci, form, mode)
                        if not oracle.truncated:
                            assert slow == expected, where
                            against_oracle += 1
                    compared += 1
                    if enum.product_component(comp, form):
                        product_runs[text] += 1
                        specialised += not comp.unregulated
    assert compared > 2000
    assert against_oracle > 4000
    assert all(product_runs.values()), product_runs
    assert all(multiset_runs.values()), multiset_runs
    assert specialised > 20  # regulated components on the product path
    assert supersets > 0  # the documented cf_star difference still shows


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_both_paths_enumerate_the_same_language(name, monkeypatch):
    # every activation on the product path where it is exact, then every
    # one naive: the words and the complete flag agree in every mode
    import rrw.engine

    system = load_corpus(name)
    bounds = StepBounds(6 if name == "ocdgs_example1.rrw" else 10)
    modes = ("*",) if system.kind == "gc" else MODE_GRID
    for text in modes:
        mode = Mode.parse(text)
        languages = []
        for sites in (0, 1 << 30):
            monkeypatch.setattr(rrw.engine, "_PRODUCT_MIN_SITES", sites)
            languages.append(enumerate_language(system, mode, 6, bounds))
        assert languages[0] == languages[1], text


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
    assert enum.product_component(comp, form) is None
    result = enum.activation(comp, form)
    assert result == mode_apply(comp, form, T, BOUNDS)
    assert result and ("a", "a", "c", "c") not in result


def test_stable_regulation_takes_the_product_path(example1):
    from rrw.engine import _Enumeration

    p2 = example1.component_named("P2")
    enum = _Enumeration(example1, BOUNDS, T)
    form = ("B",) * 6
    assert enum.product_component(p2, form) is not None
    assert enum.activation(p2, form) == {("A",) * 12}
    assert enum.product_component(p2, form + ("C",)) is not None
    assert enum.activation(p2, form + ("C",)) == set()


def test_every_component_needs_four_sites_for_the_product_path(example1):
    """The site gate applies first, to unregulated components too, in every
    mode; both paths give the naive closure's results."""
    from rrw.engine import _Budget, _Enumeration, _naive_mode

    p1 = example1.component_named("P1")
    assert p1.unregulated
    conds = p1.effective_conditions()
    for text in CRITERION_4_MODES:
        mode = Mode.parse(text)
        enum = _Enumeration(example1, BOUNDS, mode)
        for sites, product in ((3, None), (4, p1)):
            form = ("A",) * sites
            assert enum.product_component(p1, form) is product, text
            budget = _Budget(BOUNDS.step_budget, BOUNDS.form_budget)
            naive = _naive_mode(p1, conds, form, mode, BOUNDS.workspace,
                                budget, enum.cut)
            assert enum.activation(p1, form) == naive, (text, sites)


def test_unregulated_results_cut_by_workspace_mark_truncation():
    from rrw.engine import _Enumeration

    comp = Component("P", (Rule("A", ("a", "a", "a")),))
    system = System(
        kind="cf", name="wide", nonterminals={"A"}, terminals={"a"},
        start="A", components=(comp,),
    )
    eq2 = Mode.parse("=2")
    enum = _Enumeration(system, StepBounds(5), eq2)
    assert enum.activation(comp, ("A", "A")) == set()
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


# ---------------------------------------------------------------------------
# multiset search on unary alphabets, and the non-erasing workspace clamp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["cf_star.rrw", "entry_witness.rrw",
                                  "frccd_loops.rrw", "ocdgs_example1.rrw"])
def test_multiset_search_matches_the_word_search(name, monkeypatch):
    # one unused terminal makes the alphabet binary, which forces the word
    # search; neither the words nor the complete flag may change, with every
    # activation on the product path where it is exact or every one naive
    import rrw.engine

    system = load_corpus(name)
    assert len(system.terminals) == 1
    binary = replace(system, terminals=system.terminals | {"z"})
    bounds = StepBounds(10)
    for text in MODE_GRID:
        mode = Mode.parse(text)
        languages = []
        for sites in (0, 1 << 30):
            monkeypatch.setattr(rrw.engine, "_PRODUCT_MIN_SITES", sites)
            languages += [enumerate_language(system, mode, 6, bounds),
                          enumerate_language(binary, mode, 6, bounds)]
        assert all(lang == languages[0] for lang in languages), text


@pytest.mark.parametrize("text", ["=1200", ">=1200"])
def test_a_large_step_count_costs_no_pairwise_sums(entry_witness, text):
    # a position table holds up to k + 2 step values per subform; they are
    # added as bitmasks, one shift-or per value
    mode = Mode.parse(text)
    bounds = StepBounds(6)
    start = time.perf_counter()
    lang = enumerate_language(entry_witness, mode, 4, bounds)
    elapsed = time.perf_counter() - start
    assert lang == reference_enumerate(entry_witness, mode, 4, bounds)
    assert lang.complete and len(lang.words) == 3
    assert elapsed < 1.0


_NON_ERASING = [n for n in CORPUS_FILES if load_corpus(n).non_erasing]


@pytest.mark.parametrize("name", _NON_ERASING)
def test_a_longer_workspace_changes_no_non_erasing_enumeration(name):
    system = load_corpus(name)
    modes = ("*",) if system.kind == "gc" else CRITERION_4_MODES
    for text in modes:
        mode = Mode.parse(text)
        assert enumerate_language(system, mode, 6, StepBounds(6)) == \
            enumerate_language(system, mode, 6, StepBounds(2 * 6 + 4)), text


# P2 outranks P3 and can always grow A, so P3 never acts and the language
# is empty
GROW = """
system pcdgs grow
nonterminals: S A B
terminals: b c
start: S
priority: P2 > P3
component P1 { S -> A B }
component P2 { A -> A A A A }
component P3 { B -> b
               A -> c }
"""


def test_priorities_keep_the_given_workspace():
    # Every result of P2 on "A B" is longer than max_len: a workspace
    # clamped to max_len would hide it and let P3 derive cb.
    system = parse_system(GROW)
    mode = Mode.parse("=1")
    for enumerate_ in (enumerate_language, reference_enumerate):
        lang = enumerate_(system, mode, 2, StepBounds(8))
        assert lang.words == frozenset(), enumerate_.__name__


# ---------------------------------------------------------------------------
# each (component, form) is activated once per search
# ---------------------------------------------------------------------------

# the generated system gen_pcdgs_5 of ``perfbench/gen.py`` at seed 1, where
# half of the activations under <=2 repeated a priority check's activation
GEN_PCDGS_5 = """
system pcdgs gen_pcdgs_5
nonterminals: S A
terminals: a b
start: S
priority: P1 > P2
component P1 {
  S -> b A
  S -> a
  A -> S
}
component P2 {
  A -> a S
  A -> b a
}
component P3 {
  S -> A A
  A -> S A
}
"""

@pytest.mark.parametrize("text", [corpus_text("pcd_chain.rrw"), GROW,
                                  GEN_PCDGS_5],
                         ids=["pcd_chain", "grow", "gen_pcdgs_5"])
def test_a_priority_check_activation_is_the_move(text, monkeypatch):
    # the activation that decides whether a component blocks a lower one is
    # the one its move uses, so no (component, form) is activated twice
    from rrw.engine import _Enumeration

    system = parse_system(text)
    activation = _Enumeration.activation
    calls = []

    def recorded(enum, component, form, producer=None):
        calls.append((component.name, form))
        return activation(enum, component, form, producer)

    monkeypatch.setattr(_Enumeration, "activation", recorded)
    for mode in MODE_GRID:
        calls.clear()
        enumerate_language(system, Mode.parse(mode), 5, StepBounds(5))
        assert calls, mode
        assert len(calls) == len(set(calls)), mode


def test_engine_matches_the_oracle_on_a_generated_priority_system():
    system = parse_system(GEN_PCDGS_5)
    bounds = StepBounds(5)
    for text in MODE_GRID:
        mode = Mode.parse(text)
        assert enumerate_language(system, mode, 5, bounds) == \
            reference_enumerate(system, mode, 5, bounds), text


def test_a_class_level_wrapper_sees_every_condition_lookup(example1):
    # the benchmark counts calls by wrapping the method on the class, which
    # an attribute cached on the instance would bypass
    expected = enumerate_language(example1, T, 8, BOUNDS)
    original = Component.effective_conditions
    calls = []

    def counted(self):
        calls.append(self.name)
        return original(self)

    Component.effective_conditions = counted
    try:
        got = enumerate_language(example1, T, 8, BOUNDS)
    finally:
        Component.effective_conditions = original
    assert calls
    assert got == expected


# ---------------------------------------------------------------------------
# budget exits, the support cap and weighed derivation targets
# ---------------------------------------------------------------------------

# P2 acts on four sites at once, so it takes the product path
FOUR_SITES = """system cdgs four
nonterminals: S A
terminals: a b
start: S
component P1 { S -> A A A A }
component P2 { A -> a
               A -> b }
"""


@pytest.mark.parametrize("bounds", [StepBounds(4, form_budget=10),
                                    StepBounds(4, step_budget=5)],
                         ids=["forms", "steps"])
def test_a_product_assembly_out_of_budget_ends_incomplete(bounds):
    from rrw.engine import _Enumeration

    system = parse_system(FOUR_SITES)
    p2 = system.component_named("P2")
    form = ("A",) * 4
    whole = _Enumeration(system, StepBounds(4), STAR).activation(p2, form)
    enum = _Enumeration(system, bounds, STAR)
    assert enum.product_component(p2, form) is p2
    assert enum.activation(p2, form) < whole
    assert enum.exhausted
    assert not enumerate_language(system, STAR, 4, bounds).complete


def test_mode_apply_and_system_successors_out_of_steps_raise():
    system = parse_system(FOUR_SITES)
    p2 = system.component_named("P2")
    form = ("A",) * 4
    starved = StepBounds(4, step_budget=3)
    with pytest.raises(BudgetExceeded) as err:
        mode_apply(p2, form, STAR, starved)
    assert err.value.partial < mode_apply(p2, form, STAR, StepBounds(4))
    with pytest.raises(BudgetExceeded):
        system_successors(system, form, STAR, starved)


# a derivation the search finds within 8 steps per activation, whose
# activation A A A A => a a a a visits 16 states when it is rebuilt one
# application at a time
CHAIN = """system cdgs chain
nonterminals: S A B C D
terminals: a
start: S
component P1 { S -> A A A A }
component P2 { A -> B
               B -> C
               C -> D
               D -> a }
"""


@pytest.mark.parametrize("step_budget", range(8, 17))
def test_a_derivation_the_search_finds_rebuilds(step_budget):
    # the rebuild stores its states against the form budget, so the step
    # budget that let the search reach the word lets its trace be rebuilt
    system = parse_system(CHAIN)
    bounds = StepBounds(4, step_budget=step_budget)
    trace = find_derivation(system, T, ("a",) * 4, bounds)
    assert replay_trace(system, trace) == ("a",) * 4


def test_a_trace_that_cannot_be_rebuilt_is_a_cut_search():
    # the search stores three configurations, the rebuild more than ten
    system = parse_system(CHAIN)
    with pytest.raises(BudgetExceeded, match="could not rebuild the P2"):
        find_derivation(system, T, ("a",) * 4, StepBounds(4, form_budget=10))


def wide_support_system(n=6):
    """P2 rewrites X1 through X2 ... X{n} to a; its rule Z -> a, ordered
    above X1 -> X2, makes it regulated. From {X1} more supports are
    reachable than the support graph explores."""
    xs = [f"X{i}" for i in range(1, n + 1)]
    rules = "\n".join(f"  {a} -> {b}" for a, b in zip(xs, xs[1:] + ["a"]))
    return parse_system(
        f"system ocdgs wide\nnonterminals: S Z {' '.join(xs)}\n"
        f"terminals: a\nstart: S\ncomponent P1 {{ S -> X1 X1 X1 X1 }}\n"
        f"component P2 {{\n{rules}\n  X3 -> a a\n  Z -> a\n"
        f"  order: r{n + 2} > r1\n}}\n")


def test_past_the_support_cap_an_activation_stays_naive():
    from rrw.engine import _Enumeration, _support_graph

    system = wide_support_system()
    p2 = system.component_named("P2")
    walk = list(_support_graph(p2, p2.effective_conditions(),
                               frozenset({"X1"})))
    assert walk[-1] is None
    assert _Enumeration(system, BOUNDS, T).product_component(
        p2, ("X1",) * 4) is None
    for text in ("t", "*", "=1", ">=2"):
        mode = Mode.parse(text)
        fast = enumerate_language(system, mode, 6, StepBounds(8))
        assert fast == reference_enumerate(system, mode, 6, StepBounds(8))
        assert fast.complete, text


# S => B C => B, and B weighs 3 (B -> a a a): a cut of B C, which weighs 3,
# may hide the target B although B is one symbol long
HEAVY_TARGET = """system cf heavy
nonterminals: S B C
terminals: a
start: S
component P { S -> B C
              C -> eps
              B -> a a a }
"""


def test_a_cut_as_heavy_as_the_target_leaves_the_search_cut():
    system = parse_system(HEAVY_TARGET)
    eq1 = Mode.parse("=1")
    with pytest.raises(BudgetExceeded):
        find_derivation(system, eq1, ("B",), StepBounds(1))
    trace = find_derivation(system, eq1, ("B",), StepBounds(6))
    assert replay_trace(system, trace) == ("B",)


def test_a_non_erasing_search_drops_cuts_longer_than_the_target():
    # A weighs 3, but the only cut form, a a, is longer than A and a
    # non-erasing system never shortens a form
    system = parse_system(
        "system cf long\nnonterminals: S A\nterminals: a\nstart: S\n"
        "component P { S -> a a\n  A -> a a a }\n")
    assert find_derivation(system, Mode.parse("=1"), ("A",),
                           StepBounds(4)) is None


def test_a_target_symbol_the_system_lacks_weighs_one():
    assert find_derivation(singleton_system(), STAR, ("q",),
                           StepBounds(4)) is None
