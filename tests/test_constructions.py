"""Tests for the grammar-to-grammar transformations."""

import hashlib
import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrw import (
    CONSTRUCTIONS,
    Component,
    KindError,
    Mode,
    ModeError,
    PermitPresent,
    RcCondition,
    RrwError,
    Rule,
    StepBounds,
    System,
    ValidationError,
    apply_construction,
    bounded_equiv,
    close_order,
    enumerate_language,
    frc_to_ordered_component,
    ordered_to_frc_component,
    parse_system,
    reference_enumerate,
    rule_applicable,
    serialize_system,
    validate,
)

from conftest import CORPUS_DIR, CORPUS_FILES, MODE_GRID, load_corpus

T = Mode.parse("t")


def frc_component(rules_with_forbids, name="P"):
    rules = tuple(Rule(lhs, rhs) for (lhs, rhs, _) in rules_with_forbids)
    contexts = tuple(
        RcCondition(forbid=f) for (_, _, f) in rules_with_forbids
    )
    return Component(name, rules, contexts=contexts)


# ---------------------------------------------------------------------------
# forbid sets <-> rule orders
# ---------------------------------------------------------------------------

def test_frc_to_ordered_single_rule():
    comp = frc_component([("B", ("A", "A"), {"C"})])
    out = frc_to_ordered_component(comp)
    assert [(r.lhs, r.rhs) for r in out.rules[:1]] == [("B", ("A", "A"))]
    guard = out.rules[1]
    assert guard.lhs == "C"
    assert out.order.pairs == frozenset({(1, 0)})


def test_frc_to_ordered_empty_forbid_is_orderless():
    comp = frc_component([("A", ("a",), set())])
    out = frc_to_ordered_component(comp)
    assert len(out.rules) == 1
    assert not out.order


def test_frc_to_ordered_shares_guard_rules():
    comp = frc_component([
        ("A", ("a",), {"C"}),
        ("B", ("b",), {"C"}),
    ])
    out = frc_to_ordered_component(comp)
    guards = [r for r in out.rules if r.lhs == "C"]
    assert len(guards) == 1
    guard_idx = out.rules.index(guards[0])
    assert out.order.pairs == frozenset({(guard_idx, 0), (guard_idx, 1)})


def test_ordered_to_frc_example_component():
    comp = Component(
        "P2",
        (Rule("C", ("C",)), Rule("B", ("A", "A"))),
        order=close_order({(0, 1)}),
    )
    out = ordered_to_frc_component(comp)
    assert out.contexts[0].forbid == frozenset()
    assert out.contexts[1].forbid == frozenset({"C"})


def test_ordered_to_frc_empty_order():
    comp = Component("P", (Rule("A", ("a",)), Rule("B", ("b",))))
    out = ordered_to_frc_component(comp)
    assert all(ctx.forbid == frozenset() for ctx in out.contexts)


def test_ordered_to_frc_chain_collects_all_greater_lhs():
    comp = Component(
        "P",
        (Rule("A", ("a",)), Rule("B", ("b",)), Rule("C", ("c",))),
        order=close_order({(0, 1), (1, 2)}),
    )
    out = ordered_to_frc_component(comp)
    assert out.contexts[2].forbid == frozenset({"A", "B"})


# symbols available to the hypothesis component generator
_NTS = ("A", "B", "C", "D")

_rule = st.tuples(
    st.sampled_from(_NTS),
    st.lists(st.sampled_from(_NTS), max_size=3).map(tuple),
    st.sets(st.sampled_from(_NTS), max_size=2).map(frozenset),
)


def _all_forms(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


@settings(max_examples=60, deadline=None)
@given(st.lists(_rule, min_size=1, max_size=4))
def test_frc_ordered_conversion_is_a_per_step_bisimulation(rule_specs):
    comp = frc_component(rule_specs)
    ordered = frc_to_ordered_component(comp, avoid=_NTS)
    n = len(comp.rules)
    for form in _all_forms(_NTS, 3):
        for i in range(n):
            assert rule_applicable(comp, form, i) == \
                rule_applicable(ordered, form, i)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_rule, min_size=1, max_size=4),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
)
def test_ordered_frc_round_trip_preserves_applicability(rule_specs, pairs):
    rules = tuple(Rule(lhs, rhs) for (lhs, rhs, _) in rule_specs)
    pairs = {(g, l) for (g, l) in pairs if g < len(rules) and l < len(rules)}
    try:
        order = close_order(pairs, size=len(rules))
    except Exception:
        return
    comp = Component("P", rules, order=order)
    back = frc_to_ordered_component(ordered_to_frc_component(comp),
                                    avoid=_NTS)
    for form in _all_forms(_NTS, 3):
        for i in range(len(rules)):
            assert rule_applicable(comp, form, i) == \
                rule_applicable(back, form, i)


# ---------------------------------------------------------------------------
# structural counts pinned by each construction's recipe
# ---------------------------------------------------------------------------

def test_gc_to_ocdgs_component_count():
    gc = load_corpus("gc_fin.rrw")  # 3 labeled rules
    out, report = apply_construction("gc-to-ocdgs", gc, Mode.parse("=2"))
    assert len(out.components) == 3 * 3 + 2
    assert report.components == len(out.components)
    assert validate(out) == []


def test_gc_to_ocdgs_compact_component_count():
    # compact replacement: init + termination + 2 per rule, for a grammar
    # whose success fields never target the rule's own label
    gc = load_corpus("gc_fin.rrw")
    no_self = System(
        kind="gc",
        name="gcx",
        nonterminals=gc.nonterminals,
        terminals=gc.terminals,
        start=gc.start,
        gc_rules=tuple(
            type(g)(g.label, g.rule, g.success - {g.label}, g.failure)
            for g in gc.gc_rules
        ),
        init_labels=gc.init_labels,
        final_labels=gc.final_labels,
    )
    out, _ = apply_construction("gc-to-ocdgs", no_self, Mode.parse("=2"),
                                compact=True)
    assert len(out.components) == 2 + 2 * 3
    assert validate(out) == []


def test_gc_to_ocdgs_orders_are_two_layered():
    gc = load_corpus("gc_choice.rrw")
    for compact in (False, True):
        out, _ = apply_construction("gc-to-ocdgs", gc, Mode.parse(">=2"),
                                    compact=compact)
        for comp in out.components:
            if comp.order is None:
                continue
            # longest chain in a two-layer order has at most 3 rules
            for (a, b) in comp.order.pairs:
                for (c, d) in comp.order.pairs:
                    if b == c:
                        assert not any(
                            d == e for (e, _) in comp.order.pairs
                        ), "order chain longer than 3 rules"


def test_gc_to_ocdgs_rejects_weak_modes():
    gc = load_corpus("gc_fin.rrw")
    for text in ("t", "*", "=1", "<=2", ">=1"):
        with pytest.raises(ModeError):
            apply_construction("gc-to-ocdgs", gc, Mode.parse(text))


def test_ocdgs_t_to_ordered_nonterminal_count(example1):
    out, _ = apply_construction("ocdgs-t-to-ord", example1)
    # {S} plus marked and transition copies of 3 nonterminals, 3 components
    assert len(out.nonterminals) == 1 + 3 * 3 + 3 * 9
    assert out.kind == "ordered"
    assert validate(out) == []


def test_ocdgs_t_to_ordered_single_component():
    single = load_corpus("ordered_chain.rrw")
    out, _ = apply_construction("ocdgs-t-to-ord", single)
    assert validate(out) == []
    verdict = bounded_equiv(single, T, out, T, 4, StepBounds(10))
    assert verdict.equal, verdict.summary()


def test_ocdgs_t_to_ordered_large_order_round_trips():
    out, _ = apply_construction("ocdgs-t-to-ord",
                                load_corpus("cdgs_phases.rrw"))
    (comp,) = out.components
    assert len(comp.rules) == 168
    assert len(comp.order.pairs) == 4_320
    text = serialize_system(out)
    assert serialize_system(parse_system(text)) == text


def test_frccd_merge_unions_rules():
    system = load_corpus("frccd_loops.rrw")  # 3 components
    out, _ = apply_construction("frccd-merge", system, Mode.parse("*"))
    assert len(out.components) == 1
    assert len(out.components[0].rules) == sum(
        len(c.rules) for c in system.components
    )


def test_frccd_merge_rejects_strong_modes():
    system = load_corpus("frccd_loops.rrw")
    for text in (">=2", "=2", "t"):
        with pytest.raises(ModeError):
            apply_construction("frccd-merge", system, Mode.parse(text))


def test_frccd_merge_accepts_exactly_the_step_count_free_modes():
    # the merge is sound exactly where every activation is a sequence of
    # one-step activations, which is what Mode.step_count_free names
    merge = CONSTRUCTIONS["frccd-merge"]
    for text in MODE_GRID:
        mode = Mode.parse(text)
        assert merge.accepts(mode) == mode.step_count_free, text


def test_frccd_to_eq2_component_counts():
    system = load_corpus("frccd_pair.rrw")  # n = 2 components
    out_ge, _ = apply_construction("frccd-to-eq2", system, Mode.parse(">=3"))
    assert len(out_ge.components) == 1 + 2 * (3 + 2)
    out_eq, _ = apply_construction("frccd-to-eq2", system, Mode.parse("=3"))
    assert len(out_eq.components) == 1 + 2 * (3 + 1)


def test_frccd_to_eq2_output_is_erasing():
    system = load_corpus("frccd_small.rrw")
    out, report = apply_construction("frccd-to-eq2", system, Mode.parse("=2"))
    assert not out.non_erasing
    assert any("erasing" in note for note in report.notes)


def test_frccd_eq2_to_k_component_count():
    system = load_corpus("frccd_pair.rrw")  # n = 2
    out, _ = apply_construction("frccd-eq2-to-k", system, Mode.parse("=3"))
    assert len(out.components) == 2 + 1
    assert validate(out) == []


def test_cdfrc_to_frccd_component_count():
    system = load_corpus("entry_witness.rrw")  # n = 3
    out, _ = apply_construction("cdfrc-to-frccd", system, Mode.parse(">=2"))
    assert len(out.components) == 2 * 3 + 2
    assert validate(out) == []


def test_cdfrc_to_frccd_t_mode_has_no_guard_loops():
    system = load_corpus("entry_witness.rrw")
    out, _ = apply_construction("cdfrc-to-frccd", system, T)
    fresh = out.nonterminals - system.nonterminals
    self_loops = [
        r for c in out.components for r in c.rules
        if r.lhs in fresh and r.rhs == (r.lhs,)
    ]
    assert self_loops == []
    # while the >=k variant does carry them
    out_ge, _ = apply_construction("cdfrc-to-frccd", system, Mode.parse(">=2"))
    fresh_ge = out_ge.nonterminals - system.nonterminals
    assert any(
        r.lhs in fresh_ge and r.rhs == (r.lhs,)
        for c in out_ge.components for r in c.rules
    )


def test_cdfrc_to_frccd_rejects_counted_modes():
    system = load_corpus("entry_witness.rrw")
    for text in ("=1", "=2", "<=2"):
        with pytest.raises(ModeError):
            apply_construction("cdfrc-to-frccd", system, Mode.parse(text))


@pytest.mark.parametrize("name, mode", [
    ("cdfrc-to-frccd", ">=1"),
    ("cdfrc-eq2-to-eqk", "=3"),
    ("cdfrc-to-pcd", "*"),
    ("cdfrc-geqk-to-geq2", ">=2"),
])
def test_entry_cdgs_constructions_reject_permit_entries(name, mode):
    # every construction that reads entry-cdgs input takes forbid-only
    # entry conditions
    base = load_corpus("entry_pair.rrw")
    with_permit = System(
        kind="entry-cdgs",
        name=base.name,
        nonterminals=base.nonterminals,
        terminals=base.terminals,
        start=base.start,
        components=tuple(
            Component(
                c.name, c.rules,
                entry=RcCondition(permit={"S"}) if i == 0 else c.entry,
            )
            for i, c in enumerate(base.components)
        ),
    )
    with pytest.raises(PermitPresent):
        apply_construction(name, with_permit, Mode.parse(mode))


def test_cdfrc_eq2_to_eqk_adds_counter_chain():
    system = load_corpus("entry_pair.rrw")
    out, _ = apply_construction("cdfrc-eq2-to-eqk", system, Mode.parse("=4"))
    fresh = out.nonterminals - system.nonterminals
    assert fresh, "prolongation introduced no counters"
    assert validate(out) == []


def test_cdfrc_to_pcd_counts_and_priorities():
    system = load_corpus("entry_witness.rrw")  # n = 3, all F_i nonempty
    out, _ = apply_construction("cdfrc-to-pcd", system, Mode.parse(">=2"))
    assert len(out.components) == 6
    assert len(out.component_order.pairs) == 3


def test_cdfrc_to_pcd_omits_empty_fail_components():
    base = load_corpus("entry_pair.rrw")
    relaxed = System(
        kind="entry-cdgs",
        name=base.name,
        nonterminals=base.nonterminals,
        terminals=base.terminals,
        start=base.start,
        components=tuple(
            Component(c.name, c.rules, entry=RcCondition())
            for c in base.components
        ),
    )
    out, _ = apply_construction("cdfrc-to-pcd", relaxed, Mode.parse("*"))
    assert len(out.components) == len(base.components)
    assert not out.component_order or not out.component_order.pairs


def test_pcd_to_cdfrc_forbids_higher_lhs():
    system = load_corpus("pcd_chain.rrw")  # P2 {A -> a} > P3 {B -> ...}
    out, _ = apply_construction("pcd-to-cdfrc", system, Mode.parse("<=3"))
    p3 = out.component_named("P3")
    assert p3.entry.forbid == frozenset({"A"})
    p2 = out.component_named("P2")
    assert p2.entry.forbid == frozenset()


def test_pcd_to_cdfrc_t_mode_drops_dead_lhs():
    # under t the forbid sets keep only lhs symbols with nonempty languages
    dead_rule = Rule("A", ("A",))
    system = System(
        kind="pcdgs",
        name="p",
        nonterminals=frozenset({"S", "A", "B"}),
        terminals=frozenset({"a", "b"}),
        start="S",
        components=(
            Component("P1", (Rule("S", ("A", "B")),)),
            Component("P2", (dead_rule,)),
            Component("P3", (Rule("B", ("b",)),)),
        ),
        component_order=close_order({(1, 2)}),
    )
    out, _ = apply_construction("pcd-to-cdfrc", system, T)
    assert out.component_named("P3").entry.forbid == frozenset()


def test_pcd_to_cdfrc_rejects_counted_modes():
    system = load_corpus("pcd_chain.rrw")
    for text in ("=2", ">=2"):
        with pytest.raises(ModeError):
            apply_construction("pcd-to-cdfrc", system, Mode.parse(text))


def test_cdfrc_geqk_to_geq2_component_count():
    system = load_corpus("entry_loops.rrw")  # n = 3
    out, _ = apply_construction("cdfrc-geqk-to-geq2", system,
                                Mode.parse(">=3"))
    assert len(out.components) == 2 + 3 * (3 + 3)
    assert validate(out) == []


# ---------------------------------------------------------------------------
# shared guarantees
# ---------------------------------------------------------------------------

def test_outputs_validate_and_fresh_names_are_disjoint():
    cases = [
        ("frc-to-ord", "frccd_small.rrw", None),
        ("ord-to-frc", "ocdgs_example1.rrw", None),
        ("gc-to-ocdgs", "gc_fin.rrw", "=2"),
        ("ocdgs-t-to-ord", "ocdgs_example1.rrw", None),
        ("frccd-merge", "frccd_small.rrw", "*"),
        ("frccd-to-eq2", "frccd_pair.rrw", "=2"),
        ("frccd-eq2-to-k", "frccd_pair.rrw", "=3"),
        ("cdfrc-to-frccd", "entry_witness.rrw", ">=2"),
        ("frccd-eq2-to-cdfrc", "frccd_pair.rrw", "=2"),
        ("cdfrc-eq2-to-eqk", "entry_pair.rrw", "=3"),
        ("cdfrc-to-pcd", "entry_witness.rrw", ">=1"),
        ("pcd-to-cdfrc", "pcd_chain.rrw", "*"),
        ("cdfrc-geqk-to-geq2", "entry_loops.rrw", ">=3"),
    ]
    for name, path, mode_text in cases:
        system = load_corpus(path)
        mode = None if mode_text is None else Mode.parse(mode_text)
        out, report = apply_construction(name, system, mode=mode)
        assert validate(out) == [], f"{name} output fails validation"
        fresh = out.nonterminals - system.nonterminals
        assert not (fresh & system.terminals), name
        assert report.fresh_nonterminals == len(fresh), name


# an ordered system with an erasing rule: S -> a S, S -> eps
_ERASING = System(
    kind="ordered",
    name="erasing",
    nonterminals=frozenset({"S"}),
    terminals=frozenset({"a"}),
    start="S",
    components=(Component("P", (Rule("S", ("a", "S")), Rule("S", ()))),),
)


@pytest.mark.parametrize("name, mode", [("ord-to-frc", "*"),
                                        ("ocdgs-t-to-ord", "t")])
def test_erasing_output_is_noted_by_every_construction(name, mode):
    out, report = apply_construction(name, _ERASING, Mode.parse(mode))
    assert not out.non_erasing
    assert "output contains erasing rules" in report.notes


def test_apply_construction_rejects_unknown_name():
    with pytest.raises((KeyError, ValueError)):
        apply_construction("no-such-thing", load_corpus("cf_anbn.rrw"))


def test_apply_construction_rejects_wrong_kind():
    with pytest.raises(KindError):
        apply_construction("gc-to-ocdgs", load_corpus("cf_anbn.rrw"),
                           mode=Mode.parse("=2"))
    witness = load_corpus("entry_witness.rrw")  # a three-rule component
    with pytest.raises(KindError, match="normalize it first"):
        apply_construction("cdfrc-eq2-to-eqk", witness, mode=Mode.parse("=3"))


def test_apply_construction_rejects_an_invalid_input():
    # validate says "kind frccdgs requires per-rule contexts"; the builder
    # used to fail on it with a TypeError
    system = System(
        kind="frccdgs", name="bare", nonterminals=frozenset({"S"}),
        terminals=frozenset({"a"}), start="S",
        components=(Component("P", (Rule("S", ("a",)),)),),
    )
    with pytest.raises(ValidationError, match="requires per-rule contexts"):
        apply_construction("frccd-merge", system, Mode.parse("*"))


# ---------------------------------------------------------------------------
# the CONSTRUCTIONS table
# ---------------------------------------------------------------------------

# one corpus input of a fitting kind per construction
_INPUT = {
    "frc-to-ord": "frccd_small", "ord-to-frc": "ocdgs_pair",
    "gc-to-ocdgs": "gc_fin", "ocdgs-t-to-ord": "ordered_chain",
    "frccd-merge": "frccd_small", "frccd-to-eq2": "frccd_pair",
    "frccd-eq2-to-k": "frccd_pair", "cdfrc-to-frccd": "entry_pair",
    "frccd-eq2-to-cdfrc": "frccd_pair", "cdfrc-eq2-to-eqk": "entry_pair",
    "cdfrc-to-pcd": "entry_pair", "pcd-to-cdfrc": "pcd_chain",
    "cdfrc-geqk-to-geq2": "entry_loops",
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_apply_construction_enforces_the_table(name):
    contract = CONSTRUCTIONS[name]
    system = load_corpus(_INPUT[name] + ".rrw")
    for text in MODE_GRID:
        mode = Mode.parse(text)
        if contract.accepts(mode):
            _, report = apply_construction(name, system, mode=mode)
            # a given mode is reported through the map, mode-free or not
            assert (report.input_mode, report.output_mode) == tuple(
                str(m) for m in contract.preserved(mode)
            )
        else:
            with pytest.raises(ModeError):
                apply_construction(name, system, mode=mode)
    if contract.mode_required:
        with pytest.raises(ModeError):
            apply_construction(name, system)
    else:
        apply_construction(name, system)
    if not contract.compact:
        mode = next(Mode.parse(t) for t in MODE_GRID
                    if contract.accepts(Mode.parse(t)))
        with pytest.raises(ValueError):
            apply_construction(name, system, mode=mode, compact=True)
    # an input that validate rejects never reaches the builder
    broken = replace(system, start=system.start + "_undeclared")
    with pytest.raises(ValidationError, match="is not a nonterminal"):
        apply_construction(name, broken)


# Each step is applied to the previous step's output in the mode that the
# table maps the previous mode to, and compared with the source.
_CHAINS = [
    ("gc_fin", "=2", ("gc-to-ocdgs", "ord-to-frc", "frccd-eq2-to-cdfrc",
                      "cdfrc-to-pcd")),
    ("pcd_chain", "*", ("pcd-to-cdfrc", "cdfrc-to-pcd", "pcd-to-cdfrc",
                        "cdfrc-to-frccd", "frc-to-ord", "ord-to-frc")),
]


@pytest.mark.parametrize("stem, mode_text, chain", _CHAINS)
def test_construction_chain_keeps_the_language(stem, mode_text, chain):
    source = load_corpus(stem + ".rrw")
    source_mode = Mode.parse(mode_text)
    system, mode = source, source_mode
    for name in chain:
        mode_in, mode_out = CONSTRUCTIONS[name].preserved(mode)
        assert mode_in == mode, name
        system, _ = apply_construction(name, system, mode=mode)
        mode = mode_out
        verdict = bounded_equiv(source, source_mode, system, mode, 6,
                                StepBounds(14))
        assert verdict.equal, (name, verdict.summary())


def test_frccd_eq2_to_cdfrc_when_no_rule_pair_can_fire():
    # S -> S b needs S present and forbids it, so no =2 activation exists
    system = parse_system(
        "system frccdgs dead\nnonterminals: S A\nterminals: a b\n"
        "start: S\ncomponent P1 { S -> S b forbid { S } }\n")
    mode = Mode.parse("=2")
    out, _ = apply_construction("frccd-eq2-to-cdfrc", system, mode=mode)
    assert validate(out) == []
    assert bounded_equiv(system, mode, out, mode, 6, StepBounds(14)).equal


# Inputs on which a construction changes the bounded language. Engine and
# oracle agree on both sides of each; the builders stay as they are until
# the paper's theorem statements are in the repo to check them against.
_ENTRY_PAIRS = """system entry-cdgs pairs
nonterminals: S A B
terminals: a
start: S
component P1 entry forbid { } { S -> A B
                                B -> A S }
component P2 entry forbid { } { S -> A
                                A -> a }
"""
_ENTRY_TAILS = """system entry-cdgs tails
nonterminals: S
terminals: a b
start: S
component P1 entry forbid { } { S -> b
                                S -> S b
                                S -> a a }
component P2 entry forbid { } { S -> a a }
"""
_FRCCD_LOOPS = """system frccdgs loops
nonterminals: S
terminals: a b
start: S
component P1 { S -> b forbid { S }
               S -> b S
               S -> S a }
component P2 { S -> S
               S -> a b }
"""


# (construction, input document, mode argument, how the output differs)
_COUNTEREXAMPLES = [
    ("cdfrc-eq2-to-eqk", _ENTRY_PAIRS, "=3", "output misses aaa, aaaaa"),
    ("frccd-to-eq2", _FRCCD_LOOPS, ">=2", "output derives aba, bab"),
    ("frccd-eq2-to-k", _FRCCD_LOOPS, "=3",
     "output derives ba, baaa, bbaa, bbba"),
    ("cdfrc-geqk-to-geq2", _ENTRY_TAILS, ">=2", "output misses bb, aab"),
]


def _both_sides(name, document, mode_text):
    """(system, mode) of the input and of the output, under the modes the
    contract says give the same language."""
    system = parse_system(document)
    mode_in, mode_out = CONSTRUCTIONS[name].preserved(Mode.parse(mode_text))
    out, _ = apply_construction(name, system, mode=Mode.parse(mode_text))
    return (system, mode_in), (out, mode_out)


@pytest.mark.parametrize("name, document, mode_text", [
    pytest.param(name, document, mode_text, id=name,
                 marks=pytest.mark.xfail(strict=True, reason=words))
    for name, document, mode_text, words in _COUNTEREXAMPLES
])
def test_construction_keeps_the_language_on_a_counterexample(
        name, document, mode_text):
    (a, mode_a), (b, mode_b) = _both_sides(name, document, mode_text)
    verdict = bounded_equiv(a, mode_a, b, mode_b, 5, StepBounds(14))
    assert verdict.equal, verdict.summary()


@pytest.mark.parametrize("name, document, mode_text", [
    pytest.param(name, document, mode_text, id=name)
    for name, document, mode_text, _words in _COUNTEREXAMPLES
])
def test_each_counterexample_is_decided_on_both_sides(
        name, document, mode_text):
    # the expected failures above are wrong languages, not cut searches:
    # engine and oracle give the same complete language on each side
    for system, mode in _both_sides(name, document, mode_text):
        fast = enumerate_language(system, mode, 5, StepBounds(14))
        slow = reference_enumerate(system, mode, 5, StepBounds(14))
        assert fast.complete and slow.complete, system.name
        assert fast.words == slow.words, system.name


def test_readme_table_restates_the_contracts():
    readme = (CORPUS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Constructions\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines() if line.startswith("| `")
    ]
    names = [row[0].strip("`") for row in rows]
    assert sorted(names) == sorted(CONSTRUCTIONS)
    for row in rows:
        contract = CONSTRUCTIONS[row[0].strip("`")]
        assert row[1:6] == [
            contract.kinds,
            contract.describe(),
            "yes" if contract.mode_required else "no",
            " -> ".join(contract.preserves),
            contract.output_kind,
        ], row[0]


# ---------------------------------------------------------------------------
# every output pinned
# ---------------------------------------------------------------------------

# Inputs that reach builder branches no corpus file reaches, kept out of
# corpus/ so that the benchmark's corpus workloads stay as they are.
_PINNED_INPUTS = {
    # cdfrc-eq2-to-eqk splits the single-rule P1 into marker, joint and
    # nested components (S occurs in its own right-hand side); P2's second
    # rule rewrites to the first rule's left-hand side
    "entry_single": """system entry-cdgs single
nonterminals: S A B
terminals: a b
start: S
component P1 { S -> A S A }
component P2 entry forbid { S } { A -> a
                                  A -> A }
component P3 { B -> b
               S -> B }
""",
    # an erasing rule: frccd-eq2-to-k marks the empty word with lam'
    "frccd_erasing": """system frccdgs erasing
nonterminals: S A
terminals: a
start: S
component P1 { S -> A S
               S -> eps }
component P2 { A -> a forbid { S } }
""",
    # frccd-eq2-to-cdfrc: B -> c may follow A -> b only; S -> S b forbids
    # its own left-hand side, so it never fires inside another rule; in P3,
    # A -> A a fires only inside the output of S -> A, never after it
    "frccd_one_way": """system frccdgs one_way
nonterminals: S A B
terminals: a b c
start: S
component P1 { S -> A B
               S -> S b forbid { S } }
component P2 { A -> b forbid { B }
               B -> c }
component P3 { S -> A forbid { A }
               A -> A a }
""",
    # no rule pair can fire under =2 (S -> S b forbids its left-hand side)
    "frccd_dead": """system frccdgs dead
nonterminals: S A
terminals: a b
start: S
component P1 { S -> S b forbid { S } }
""",
    # an entry permit set, which the forbid-only constructions refuse
    "entry_permit": """system entry-cdgs permit
nonterminals: S A
terminals: a
start: S
component P1 entry forbid { A } permit { S } { S -> A A }
component P2 { A -> a }
""",
    # the final label l2 is in its own success set, so the compact
    # gc-to-ocdgs ends on the label or on its twin
    "gc_self_final": """system gc self_final
nonterminals: S
terminals: a
start: S
init-labels: l1
final-labels: l2
component rules { l1: S -> S S success { l2 }
                  l2: S -> a success { l2 } }
""",
}


def _pinned_systems():
    """(name, system) for every corpus file and every pinned inline input."""
    for name in CORPUS_FILES:
        yield name, load_corpus(name)
    for name, text in _PINNED_INPUTS.items():
        yield "inline:" + name, parse_system(text)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _component_text(comp):
    """A rendering of one component that does not depend on set order."""
    def cond(c):
        return None if c is None else (sorted(c.permit), sorted(c.forbid))
    return repr((
        comp.name, [(r.lhs, r.rhs, r.label) for r in comp.rules],
        None if comp.order is None else sorted(comp.order.pairs),
        None if comp.contexts is None else [cond(c) for c in comp.contexts],
        cond(comp.entry),
    ))


def _construction_outputs():
    """Every construction on every pinned input, with no mode and then each
    mode of MODE_GRID, plain and compact: the sha256 of the serialized
    output and its report, or the name of the error raised. Both component
    conversions on every component of every pinned input as well."""
    out = {}
    for file, system in _pinned_systems():
        for name in CONSTRUCTIONS:
            for text in (None,) + MODE_GRID:
                mode = None if text is None else Mode.parse(text)
                for compact in (False, True):
                    key = (f"{name} {file} {text or '-'} "
                           f"{'compact' if compact else 'plain'}")
                    try:
                        built, report = apply_construction(
                            name, system, mode=mode, compact=compact)
                    except (RrwError, ValueError) as err:
                        out[key] = type(err).__name__
                    else:
                        out[key] = _digest(serialize_system(built)
                                           + report.summary())
        for comp in system.components:
            for convert in (frc_to_ordered_component, ordered_to_frc_component):
                out[f"{convert.__name__} {file} {comp.name}"] = _digest(
                    _component_text(convert(comp)))
    return out


# written from _construction_outputs() before the builders were rewritten to
# state each output rule once; the tests do not regenerate it. A change that
# mends a builder (against a restated theorem) rewrites that builder's
# entries and no others.
CONSTRUCTION_OUTPUTS = CORPUS_DIR.parent / "tests" / "construction_outputs.json"


def test_every_construction_output_is_pinned():
    expected = json.loads(CONSTRUCTION_OUTPUTS.read_text(encoding="utf-8"))
    got = _construction_outputs()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, changed[:10]
