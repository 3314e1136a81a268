"""Tests for the immutable data model and structural validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rrw import (
    Component,
    CycleError,
    GcRule,
    Mode,
    RcCondition,
    Rule,
    StrictOrder,
    System,
    close_order,
    format_word,
    parse_system,
    shortlex_key,
    validate,
)

from conftest import CORPUS_FILES, MODE_GRID, load_corpus

INF = float("inf")


# ---------------------------------------------------------------------------
# close_order
# ---------------------------------------------------------------------------

def test_close_order_chain():
    order = close_order({(1, 2), (2, 3)})
    assert order.pairs == frozenset({(1, 2), (2, 3), (1, 3)})


def test_close_order_empty():
    assert close_order(set()).pairs == frozenset()


def test_close_order_rejects_two_cycle():
    with pytest.raises(CycleError):
        close_order({(1, 2), (2, 1)})


def test_close_order_rejects_self_pair():
    with pytest.raises(CycleError):
        close_order({(0, 0)})


def test_close_order_rejects_dangling_index():
    with pytest.raises(IndexError):
        close_order({(0, 5)}, size=3)


def test_greater_than():
    order = close_order({(2, 1), (1, 0)})
    assert order.greater_than(0) == {1, 2}
    assert order.greater_than(2) == set()


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))
def test_close_order_idempotent(pairs):
    try:
        first = close_order(pairs)
    except CycleError:
        return
    assert close_order(first.pairs).pairs == first.pairs


# Reference closure, written here so that it shares no code with rrw.core.

def _warshall(pairs, nodes):
    reach = set(pairs)
    for k in nodes:
        for i in nodes:
            if (i, k) in reach:
                reach.update((i, j) for j in nodes if (k, j) in reach)
    return reach


def _ordered_system(size, order):
    comp = Component("P", tuple(Rule("S", ("a",)) for _ in range(size)),
                     order=order)
    return System(kind="ordered", name="o", nonterminals={"S"},
                  terminals={"a"}, start="S", components=(comp,))


ORDER_PAIRS = st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                      max_size=16)


@given(ORDER_PAIRS, st.none() | st.integers(1, 8))
def test_close_order_matches_warshall(pairs, size):
    reference = _warshall(pairs, range(8))
    out_of_range = size is not None and any(
        g >= size or l >= size for (g, l) in pairs)
    if out_of_range:
        with pytest.raises(IndexError):
            close_order(pairs, size=size)
    elif any(a == b for (a, b) in reference):
        with pytest.raises(CycleError):
            close_order(pairs, size=size)
    else:
        assert close_order(pairs, size=size).pairs == reference


@given(ORDER_PAIRS, st.integers(1, 8))
def test_validate_reports_each_order_violation_once(pairs, size):
    # a StrictOrder is closed when built, so validate has only the range
    # of its closure left to check
    closure = _warshall(pairs, range(8))
    if any(a == b for (a, b) in closure):
        with pytest.raises(CycleError):
            StrictOrder(pairs)
        return
    assert validate(_ordered_system(size, StrictOrder(pairs))) == [
        f"component P: order pair ({g},{l}) out of range"
        for (g, l) in sorted(closure) if g >= size or l >= size]


def test_missing_transitive_pair_is_closed_when_built():
    order = StrictOrder({(0, 1), (0, 2), (1, 3), (2, 3)})
    assert (0, 3) in order.pairs
    assert validate(_ordered_system(4, order)) == []


def test_long_chain_closes_and_validates():
    # the pairwise fixpoint took minutes here; reachability takes well under
    # a second
    n = 300
    order = close_order({(i, i + 1) for i in range(n - 1)}, size=n)
    assert len(order.pairs) == n * (n - 1) // 2 == 44_850
    assert order.greater_than(n - 1) == frozenset(range(n - 1))
    assert order.greater_than(0) == frozenset()
    assert validate(_ordered_system(n, order)) == []


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_corpus_example_validates():
    system = load_corpus("ocdgs_example1.rrw")
    assert validate(system) == []


def test_alphabet_overlap_rejected():
    system = System(
        kind="cf",
        name="bad",
        nonterminals=frozenset({"S", "A"}),
        terminals=frozenset({"A", "a"}),
        start="S",
        components=(Component("P", (Rule("S", ("a",)),)),),
    )
    assert any("overlap" in v for v in validate(system))


def test_frc_rule_rejects_permit_sets():
    system = System(
        kind="frccdgs",
        name="bad",
        nonterminals=frozenset({"S", "B"}),
        terminals=frozenset({"a"}),
        start="S",
        components=(
            Component(
                "P",
                (Rule("S", ("a",)),),
                contexts=(RcCondition(permit={"B"}),),
            ),
        ),
    )
    assert any("permit" in v for v in validate(system))


def test_permit_forbid_overlap_rejected():
    system = System(
        kind="rccdgs",
        name="bad",
        nonterminals=frozenset({"S", "B"}),
        terminals=frozenset({"a"}),
        start="S",
        components=(
            Component(
                "P",
                (Rule("S", ("a",)),),
                contexts=(RcCondition(permit={"B"}, forbid={"B"}),),
            ),
        ),
    )
    assert any("overlap" in v for v in validate(system))


def test_start_symbol_must_be_nonterminal():
    system = System(
        kind="cf",
        name="bad",
        nonterminals=frozenset({"S"}),
        terminals=frozenset({"a"}),
        start="a",
        components=(Component("P", (Rule("S", ("a",)),)),),
    )
    assert any("start" in v for v in validate(system))


def test_empty_component_rejected():
    system = System(
        kind="cdgs",
        name="bad",
        nonterminals=frozenset({"S"}),
        terminals=frozenset({"a"}),
        start="S",
        components=(Component("P", ()),),
    )
    assert any("empty rule set" in v for v in validate(system))


def test_forcing_permits_empty_keeps_validity():
    system = load_corpus("rc_perm.rrw")
    assert validate(system) == []
    stripped = System(
        kind="frccdgs",
        name=system.name,
        nonterminals=system.nonterminals,
        terminals=system.terminals,
        start=system.start,
        components=tuple(
            Component(
                c.name,
                c.rules,
                contexts=tuple(
                    RcCondition(forbid=ctx.forbid) for ctx in c.contexts
                ),
            )
            for c in system.components
        ),
    )
    assert validate(stripped) == []


S_TO_A = Rule("S", ("a",))
ONE_RULE = Component("P", (S_TO_A,))
GC_ONE = {"gc_rules": (GcRule("l1", S_TO_A),), "init_labels": {"l1"},
          "final_labels": {"l1"}}


def _system(kind="cf", components=(ONE_RULE,), terminals=("a",), **fields):
    """A system of ``kind`` over S and ``terminals``, by default one
    component with the rule S -> a."""
    return System(kind=kind, name="bad", nonterminals=frozenset({"S"}),
                  terminals=frozenset(terminals), start="S",
                  components=components, **fields)


@pytest.mark.parametrize("system, violations", [
    (_system("xyz"), ["unknown kind 'xyz'"]),
    (_system(terminals=("a", "")), ["empty symbol name"]),
    (_system(components=(Component("P", (S_TO_A, Rule("a", ("a",)))),)),
     ["component P rule 1: lhs 'a' is not a nonterminal"]),
    (_system(components=(Component("P", (Rule("S", ("b",)),)),)),
     ["component P rule 0: rhs symbol 'b' undeclared"]),
    (_system("gc", **GC_ONE),
     ["gc systems carry gc rules, not components"]),
    (_system("gc", components=()),
     ["gc system has no rules", "gc system has no initial labels",
      "gc system has no final labels"]),
    (_system(init_labels={"l1"}),
     ["labels/gc rules are only allowed in gc systems"]),
    (_system(components=(ONE_RULE, Component("Q", (S_TO_A,)))),
     ["kind cf must have exactly one component"]),
    (_system("cdgs", components=(ONE_RULE, Component("Q", (S_TO_A,))),
             component_order=StrictOrder({(0, 1)})),
     ["component order is only allowed in pcdgs systems"]),
    (_system(components=(Component(
        "P", (Rule("S", ("a",), "r"), Rule("S", ("a", "a"), "r"))),)),
     ["component P: duplicate rule labels"]),
    (_system("cdgs", components=(Component(
        "P", (S_TO_A, Rule("S", ("a", "a"))),
        order=StrictOrder({(0, 1)})),)),
     ["component P: rule order not allowed in kind cdgs"]),
    (_system("cdgs", components=(Component(
        "P", (S_TO_A,), contexts=(RcCondition(),)),)),
     ["component P: rule contexts not allowed in kind cdgs"]),
    (_system("rccdgs", components=(Component(
        "P", (S_TO_A,), contexts=(RcCondition(), RcCondition())),)),
     ["component P: 2 contexts for 1 rules"]),
    (_system("cdgs", components=(Component(
        "P", (S_TO_A,), entry=RcCondition()),)),
     ["component P: entry condition not allowed in kind cdgs"]),
    (_system("entry-cdgs", components=(Component(
        "P", (S_TO_A,), entry=RcCondition(permit={"S"}, forbid={"S"})),)),
     ["component P: entry permit and forbid overlap"]),
    (_system("entry-cdgs"),
     ["component P: kind entry-cdgs requires an entry condition"]),
    (_system("gc", components=(), **dict(
        GC_ONE, gc_rules=(GcRule("l1", S_TO_A),) * 2)),
     ["gc labels are not injective"]),
    (_system(components=()), ["system has no components"]),
])
def test_validate_names_each_violation(system, violations):
    # systems built in code, since the parser rejects each of these first
    assert validate(system) == violations


# ---------------------------------------------------------------------------
# modes and small utilities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,variant,k",
    [("t", "t", None), ("*", "*", None), ("=1", "=", 1),
     ("<=3", "<=", 3), (">=2", ">=", 2)],
)
def test_mode_parse(text, variant, k):
    mode = Mode.parse(text)
    assert (mode.variant, mode.k) == (variant, k)
    assert str(mode) == text


@pytest.mark.parametrize("text", ["", "k", "=0", ">=", "=x", "<= 2 extra"])
def test_mode_parse_rejects(text):
    with pytest.raises(ValueError):
        Mode.parse(text)


_STEPS = {"t": (1, None), "*": (1, None), "=1": (1, 1), "=2": (2, 2),
          "=3": (3, 3), "=4": (4, 4), "<=2": (1, 2), "<=3": (1, 3),
          ">=1": (1, None), ">=2": (2, None), ">=3": (3, None)}


@pytest.mark.parametrize("text", MODE_GRID)
def test_mode_steps_is_the_interval_of_applications(text):
    assert Mode.parse(text).steps == _STEPS[text]


def test_mode_requires_positive_k():
    with pytest.raises(ValueError):
        Mode("=", 0)
    with pytest.raises(ValueError):
        Mode("t", 2)


def test_mode_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="unknown mode variant 'x'"):
        Mode("x")


def test_format_word():
    assert format_word(()) == "eps"
    assert format_word(("a", "b")) == "ab"
    assert format_word(("A_1", "b")) == "A_1 b"


def test_shortlex_key_orders_by_length_first():
    words = [("b",), ("a", "a"), ("a",), ()]
    assert sorted(words, key=shortlex_key) == [
        (), ("a",), ("b",), ("a", "a")
    ]


def test_effective_conditions_fold_order_into_forbids():
    comp = Component(
        "P",
        (Rule("C", ("C",)), Rule("B", ("A", "A"))),
        order=close_order({(0, 1)}),
    )
    conds = comp.effective_conditions()
    assert conds[0] == ("C", frozenset(), frozenset())
    assert conds[1] == ("B", frozenset(), frozenset({"C"}))


# ---------------------------------------------------------------------------
# least-yield weights
# ---------------------------------------------------------------------------

def test_weights_of_hand_computed_systems():
    assert load_corpus("ocdgs_example1.rrw").weights == {
        "A": 1, "B": 2, "C": 1, "a": 1}
    assert load_corpus("cf_star.rrw").weights == {"S": 0, "a": 1}
    # B only ever rewrites to a form holding B again: no terminal yield
    system = System(
        kind="cf", name="dead", nonterminals={"S", "B"},
        terminals={"a", "b"}, start="S",
        components=(Component("P", (
            Rule("S", ("a",)), Rule("S", ("B", "a")), Rule("B", ("b", "B")),
        )),),
    )
    assert system.weights == {"S": 1, "B": INF, "a": 1, "b": 1}


def test_growth_of_hand_computed_systems():
    # weights A 1, B 2, C 1, a 1: only A -> B makes a form heavier
    system = load_corpus("ocdgs_example1.rrw")
    assert system.growth == {"P1": (1, 0), "P2": (0, 0), "P3": (0, 0)}
    assert system.growth is system.growth  # computed once per system
    # a gc system's table is keyed by label; S weighs 1 (S -> a)
    gc = parse_system(
        "system gc grow\nnonterminals: S\nterminals: a\nstart: S\n"
        "init-labels: l1\nfinal-labels: l2\n"
        "component rules { l1: S -> a S a success { l1 l2 }\n"
        "                  l2: S -> a }\n")
    assert gc.growth == {"l1": 2, "l2": 0}


def _shortest_yields(system, longest=6):
    """The length of the shortest terminal word derived from each symbol by
    context-free rewriting with every rule of the system, breadth first over
    leftmost derivations whose forms hold at most ``longest`` symbols; INF
    when none is found."""
    by_lhs = {}
    for rule in system.all_rules():
        by_lhs.setdefault(rule.lhs, []).append(rule.rhs)
    shortest = {}
    for symbol in system.alphabet:
        best = INF
        seen = {(symbol,)}
        frontier = [(symbol,)]
        while frontier:
            nxt = []
            for form in frontier:
                pos = next((i for i, s in enumerate(form)
                            if s in system.nonterminals), None)
                if pos is None:
                    best = min(best, len(form))
                    continue
                for rhs in by_lhs.get(form[pos], ()):
                    new = form[:pos] + rhs + form[pos + 1:]
                    if len(new) <= longest and new not in seen:
                        seen.add(new)
                        nxt.append(new)
            frontier = nxt
        shortest[symbol] = best
    return shortest


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_weights_are_the_shortest_terminal_yields(name):
    # the oracle prunes by the same table, so this search is its check
    system = load_corpus(name)
    assert system.weights == _shortest_yields(system)
