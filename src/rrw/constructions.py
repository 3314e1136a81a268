"""Grammar-to-grammar transformations between the supported system kinds.

Each construction's contract (input kinds, accepted modes, the mode pair it
preserves, the output kind, its builder) is declared once, in
:data:`CONSTRUCTIONS`. :func:`apply_construction` is the one entry point: it
checks the input against the contract, runs the builder, assembles and
validates the output :class:`~rrw.core.System` and reports it in a
:class:`ConstructionReport`. A builder is a private function of the input
system and the mode argument that returns only the parts of the output
(:class:`_Parts`). The CLI and the tests read the same table.

Fresh symbols come from a :class:`FreshNameScheme` and never collide with
input symbols. Inputs are never mutated. The component-level conversions
:func:`frc_to_ordered_component` and :func:`ordered_to_frc_component` are
public as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import (
    Component,
    Mode,
    RcCondition,
    Rule,
    StrictOrder,
    System,
    check,
    close_order,
)
from .equivalence import nonempty_lhs
from .errors import KindError, ModeError, PermitPresent


class FreshNameScheme:
    """Deterministic factory for symbol names disjoint from a taken set.

    Decorated names stay within the document syntax's identifier alphabet so
    every constructed system can be serialized and re-parsed. A requested base
    name that is already taken is suffixed with ``^`` until it is free.
    """

    def __init__(self, avoid=()):
        self._taken = set(avoid)

    def fresh(self, base: str) -> str:
        name = base
        while name in self._taken:
            name = name + "^"
        self._taken.add(name)
        return name


@dataclass(frozen=True)
class ConstructionReport:
    """What a construction produced: sizes, modes and caveats."""

    name: str
    input_kind: str
    output_kind: str
    input_mode: str | None
    output_mode: str | None
    fresh_nonterminals: int
    components: int
    notes: tuple = ()

    def summary(self) -> str:
        lines = [
            f"construction {self.name}: {self.input_kind} -> {self.output_kind}",
            f"  modes: {self.input_mode or '-'} -> {self.output_mode or '-'}",
            f"  components: {self.components}, "
            f"fresh nonterminals: {self.fresh_nonterminals}",
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class _Parts(NamedTuple):
    """What a builder returns: the output system short of its kind (from the
    contract) and its terminals (the input's)."""

    suffix: str                   # appended to the input's name
    nonterminals: frozenset
    components: tuple
    start: str | None = None      # the input's start symbol when None
    component_order: StrictOrder | None = None
    notes: tuple = ()


def _parking_symbols(system, scheme, levels):
    """A fresh symbol X{level}_w{i} per level and per distinct right-hand
    side w of the input's rules, numbered by first appearance."""
    rhss = dict.fromkeys(r.rhs for c in system.components for r in c.rules)
    return {(level, w): scheme.fresh(f"X{level}_w{i}")
            for i, w in enumerate(rhss, start=1) for level in levels}


def _layered_component(name, top, middle, bottom):
    """Build an ordered component with every top rule above every middle rule
    and every middle rule above every bottom rule."""
    rules = tuple(top) + tuple(middle) + tuple(bottom)
    pairs = set()
    nt = len(top)
    nm = len(middle)
    uppers = range(nt) if nm == 0 else range(nt, nt + nm)
    for t in range(nt):
        for m in range(nt, nt + nm):
            pairs.add((t, m))
    for m in uppers:
        for b in range(nt + nm, len(rules)):
            pairs.add((m, b))
    order = close_order(pairs, size=len(rules))
    return Component(name=name, rules=rules, order=order)


# ---------------------------------------------------------------------------
# forbid sets <-> rule orders (single components)
# ---------------------------------------------------------------------------

def frc_to_ordered_component(component: Component, avoid=()) -> Component:
    """Replace per-rule forbid sets by a rule order and one dead symbol.

    Each forbidden symbol X gains a single rule X -> X_f placed strictly above
    every rule forbidding X; the added rules share one fresh dead symbol. The
    applicable-rule relation on the original rules is preserved on every form
    (maximal-derivation stuckness is not: the added rules can fire).
    """
    taken = set(avoid)
    for rule in component.rules:
        taken.add(rule.lhs)
        taken.update(rule.rhs)
    if component.contexts is not None:
        for ctx in component.contexts:
            taken.update(ctx.forbid)
    scheme = FreshNameScheme(taken)
    dead = scheme.fresh("X_f")

    rules = [Rule(r.lhs, r.rhs) for r in component.rules]
    guard_index = {}
    guards = []
    forbids = [
        component.contexts[i].forbid if component.contexts is not None
        else frozenset()
        for i in range(len(component.rules))
    ]
    for forbid in forbids:
        for sym in sorted(forbid):
            if sym not in guard_index:
                guard_index[sym] = len(rules) + len(guards)
                guards.append(Rule(sym, (dead,)))
    pairs = set()
    for i, forbid in enumerate(forbids):
        for sym in forbid:
            pairs.add((guard_index[sym], i))
    order = close_order(pairs, size=len(rules) + len(guards))
    return Component(
        name=component.name, rules=tuple(rules) + tuple(guards), order=order
    )


def ordered_to_frc_component(component: Component) -> Component:
    """Replace a rule order by per-rule forbid sets.

    Rule r gets forbid set {lhs(r') | r' > r}; applicability agrees with the
    ordered original on every form, including stuckness.
    """
    contexts = []
    for i in range(len(component.rules)):
        forbid = frozenset()
        if component.order is not None:
            forbid = frozenset(
                component.rules[g].lhs for g in component.order.greater_than(i)
            )
        contexts.append(RcCondition(forbid=forbid))
    rules = tuple(Rule(r.lhs, r.rhs) for r in component.rules)
    return Component(name=component.name, rules=rules, contexts=tuple(contexts))


def _frc_to_ord(system: System, mode):
    """System-level forbid-to-order conversion. The components' guard rules
    share one dead symbol: every component's symbols lie in the input's
    alphabet, so each picks the same fresh name."""
    comps = [frc_to_ordered_component(comp, avoid=system.alphabet)
             for comp in system.components]
    dead = {s for c in comps for r in c.rules for s in r.rhs} - system.alphabet
    return _Parts("_ord", system.nonterminals | dead, comps, notes=(
        "maximal-derivation mode is outside this conversion's guarantee",))


def _ord_to_frc(system: System, mode):
    """System-level order-to-forbid conversion; exact on every mode."""
    return _Parts("_frc", system.nonterminals,
                  [ordered_to_frc_component(c) for c in system.components])


# ---------------------------------------------------------------------------
# graph control -> ordered cooperation
# ---------------------------------------------------------------------------

def _gc_to_ocdgs(system: System, mode: Mode, compact: bool = False):
    """Compile a graph-controlled grammar into an ordered cooperating system.

    The control state becomes a label symbol carried in the sentential form;
    per control rule the output contains one failure component and either two
    success components or, with ``compact``, a single erasing one.
    Works for the modes =k and >=k with k >= 2.
    """
    scheme = FreshNameScheme(system.alphabet)
    gc_rules = system.gc_rules
    labels = [g.label for g in gc_rules]
    lab = {l: scheme.fresh(l) for l in labels}
    start = scheme.fresh("S")
    if not compact:
        hat_lab = {l: scheme.fresh(l + "^") for l in labels}
        hat_nt = {a: scheme.fresh(a + "^") for a in sorted(system.nonterminals)}
    else:
        # The one-component success gadget is only safe when an activation
        # can erase at most one label symbol: after erase + rewrite the new
        # label must differ from the erased one, or a second erase strips the
        # form of its label and control collapses. Rules whose success set
        # contains their own label therefore alternate between the label and
        # a fresh twin, each erased by its own component.
        twin = {
            g.label: scheme.fresh(g.label + "'")
            for g in gc_rules if g.label in g.success
        }
        all_label_syms = [lab[l] for l in labels] + [
            twin[l] for l in labels if l in twin
        ]

    comps = []
    init_rules = []
    for l in sorted(system.init_labels):
        init_rules.append(Rule(start, (lab[l], system.start)))
        init_rules.append(Rule(lab[l], (lab[l],)))
    comps.append(Component("P0", tuple(init_rules)))

    for g in gc_rules:
        li = g.label
        # a failure jump back to the same rule is a no-op test; drop it
        failure = sorted(g.failure - {li})
        success = sorted(g.success)
        others = [l for l in labels if l != li]
        if compact:
            def _success_comp(erased, target_of):
                comps.append(_layered_component(
                    f"P{len(comps)}",
                    [Rule(s, (s,)) for s in all_label_syms if s != erased],
                    [Rule(erased, ())],
                    [Rule(g.rule.lhs, tuple(g.rule.rhs) + (target_of(l),))
                     for l in success],
                ))

            if li in twin:
                # base component sends a self-success to the twin label,
                # the twin component sends it back
                _success_comp(lab[li],
                              lambda l: twin[li] if l == li else lab[l])
                _success_comp(twin[li], lambda l: lab[l])
            else:
                _success_comp(lab[li], lambda l: lab[l])
        else:
            comps.append(_layered_component(
                f"P{len(comps)}",
                [Rule(lab[l], (lab[l],)) for l in others]
                + [Rule(hat_lab[l], (hat_lab[l],)) for l in others]
                + [Rule(hat_nt[a], (hat_nt[a],))
                   for a in sorted(system.nonterminals)],
                [Rule(lab[li], (hat_lab[li],))],
                [Rule(g.rule.lhs, (hat_nt[g.rule.lhs],))],
            ))
            comps.append(_layered_component(
                f"P{len(comps)}",
                [Rule(hat_lab[l], (hat_lab[l],)) for l in others]
                + [Rule(lab[l], (lab[l],)) for l in labels],
                [Rule(hat_nt[g.rule.lhs], tuple(g.rule.rhs))],
                [Rule(hat_lab[li], (lab[l],)) for l in success],
            ))
        if compact:
            failure_sources = [lab[li]]
            if li in twin:
                failure_sources.append(twin[li])
            for src in failure_sources:
                comps.append(_layered_component(
                    f"P{len(comps)}",
                    [Rule(s, (s,)) for s in all_label_syms if s != src],
                    [Rule(g.rule.lhs, (g.rule.lhs,))],
                    [Rule(src, (lab[l],)) for l in failure],
                ))
        else:
            comps.append(_layered_component(
                f"P{len(comps)}",
                [Rule(lab[l], (lab[l],)) for l in others],
                [Rule(g.rule.lhs, (g.rule.lhs,))],
                [Rule(lab[li], (lab[l],)) for l in failure],
            ))

    blockers = sorted(system.nonterminals)
    if not compact:
        blockers = blockers + [hat_nt[a] for a in sorted(system.nonterminals)]
    end_rules = []
    for l in sorted(system.final_labels):
        final_syms = [lab[l]]
        if compact and l in twin:
            final_syms.append(twin[l])
        for s in final_syms:
            end_rules.append(Rule(s, ()))
            end_rules.append(Rule(s, (s,)))
    comps.append(_layered_component(
        f"P{len(comps)}",
        [Rule(a, (a,)) for a in blockers],
        [],
        end_rules,
    ))

    nonterminals = set(system.nonterminals) | set(lab.values()) | {start}
    if compact:
        nonterminals |= set(twin.values())
    else:
        nonterminals |= set(hat_lab.values()) | set(hat_nt.values())
    return _Parts("_ocd", nonterminals, comps, start=start)


# ---------------------------------------------------------------------------
# ordered cooperation (maximal mode) -> one ordered grammar
# ---------------------------------------------------------------------------

def _ocdgs_t_to_ord(system: System, mode):
    """Flatten a cooperating system under maximal derivations into a single
    ordered grammar.

    Every nonterminal is marked with the active component; blocking loops keep
    foreign-marked rules silent, and guarded transition/re-marking rules hand
    the whole form over to the next component exactly when the active one has
    no applicable rule left. Compare the input in maximal mode against the
    output's plain closure.
    """
    n = len(system.components)
    nts = sorted(system.nonterminals)
    scheme = FreshNameScheme(system.alphabet)
    marked = {
        (a, i): scheme.fresh(f"{a}_{i}")
        for a in nts for i in range(1, n + 1)
    }
    trans = {
        (a, i, j): scheme.fresh(f"{a}_{i}to{j}")
        for a in nts for i in range(1, n + 1) for j in range(1, n + 1)
    }

    def mark(form, i):
        return tuple(
            marked[(s, i)] if s in system.nonterminals else s for s in form
        )

    rules = []
    pairs = set()

    def add(rule):
        rules.append(rule)
        return len(rules) - 1

    for i in range(1, n + 1):
        add(Rule(system.start, (marked[(system.start, i)],)))

    marked_rule_idx = {}  # (component index, rule position) -> rule index
    for ci, comp in enumerate(system.components, start=1):
        for ri, rule in enumerate(comp.rules):
            marked_rule_idx[(ci, ri)] = add(
                Rule(marked[(rule.lhs, ci)], mark(rule.rhs, ci))
            )
        if comp.order is not None:
            for (g, l) in comp.order.pairs:
                pairs.add((marked_rule_idx[(ci, g)], marked_rule_idx[(ci, l)]))

    loop_idx = {}
    for a in nts:
        for k in range(1, n + 1):
            loop_idx[(a, k)] = add(Rule(marked[(a, k)], (marked[(a, k)],)))
    tloop_idx = {}
    for a in nts:
        for l in range(1, n + 1):
            for k in range(1, n + 1):
                if l != k:
                    tloop_idx[(a, l, k)] = add(
                        Rule(trans[(a, l, k)], (trans[(a, l, k)],))
                    )
    trans_idx = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                for a in nts:
                    trans_idx[(a, i, j)] = add(
                        Rule(marked[(a, i)], (trans[(a, i, j)],))
                    )
    remark_idx = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                for a in nts:
                    remark_idx[(a, i, j)] = add(
                        Rule(trans[(a, i, j)], (marked[(a, j)],))
                    )

    for ci, comp in enumerate(system.components, start=1):
        for ri in range(len(comp.rules)):
            p = marked_rule_idx[(ci, ri)]
            for a in nts:
                for k in range(1, n + 1):
                    if k != ci:
                        pairs.add((loop_idx[(a, k)], p))
            for j in range(1, n + 1):
                if j != ci:
                    for a in nts:
                        pairs.add((p, trans_idx[(a, ci, j)]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for a in nts:
                t = trans_idx[(a, i, j)]
                for b in nts:
                    for l in range(1, n + 1):
                        if l == i:
                            continue
                        for k in range(1, n + 1):
                            if k != j and l != k:
                                pairs.add((tloop_idx[(b, l, k)], t))
            for a in nts:
                r = remark_idx[(a, i, j)]
                for b in nts:
                    for l in range(1, n + 1):
                        if l != j:
                            pairs.add((loop_idx[(b, l)], r))
                    for kk in range(1, n + 1):
                        for l in range(1, n + 1):
                            if l != j and kk != l:
                                pairs.add((tloop_idx[(b, kk, l)], r))

    order = close_order(pairs, size=len(rules))
    comp = Component("P", tuple(rules), order=order)
    nonterminals = {system.start} | set(marked.values()) | set(trans.values())
    return _Parts("_flat", nonterminals, (comp,))


# ---------------------------------------------------------------------------
# forbid-regulated cooperation: collapse, step-count conversions
# ---------------------------------------------------------------------------

def _frccd_merge(system: System, mode: Mode):
    """Merge all components of a forbid-regulated system into one.

    Sound exactly for the step-count-insensitive modes (<=k, *, =1, >=1);
    other modes are rejected because the merged component could mix rules
    from different components inside one activation.
    """
    rules = []
    contexts = []
    for comp in system.components:
        for i, rule in enumerate(comp.rules):
            rules.append(Rule(rule.lhs, rule.rhs))
            contexts.append(RcCondition(forbid=comp.contexts[i].forbid))
    return _Parts("_one", system.nonterminals, (
        Component("P", tuple(rules), contexts=tuple(contexts)),))


def _frccd_to_eq2(system: System, mode: Mode):
    """Rebuild a forbid-regulated system so that exactly-2-step cooperation
    simulates its =k or >=k behavior (k >= 2).

    Pending right-hand sides are parked inside counter symbols X; one guard
    symbol tracks which component is active and how far its activation has
    progressed.
    """
    k = mode.k
    scheme = FreshNameScheme(system.alphabet)
    n = len(system.components)
    start = scheme.fresh(system.start + "'")
    guard = scheme.fresh("Y")
    comp_guard = [scheme.fresh(f"Y{i}") for i in range(1, n + 1)]
    guards = frozenset([guard] + comp_guard)

    x_sym = _parking_symbols(system, scheme, range(1, k + 1))
    x_all = frozenset(x_sym.values())

    comps = [Component(
        "Pinit",
        (Rule(system.start, (system.start,)),
         Rule(start, (guard, system.start))),
        contexts=(RcCondition(), RcCondition()),
    )]
    orig_nts = frozenset(system.nonterminals)
    for ci, comp in enumerate(system.components):
        yi = comp_guard[ci]
        others = guards - {yi}
        w_i = []
        for rule in comp.rules:
            if rule.rhs not in w_i:
                w_i.append(rule.rhs)
        x_i = frozenset(x_sym[(l, w)] for l in range(1, k + 1) for w in w_i)

        def load_rules(level, stay=frozenset()):
            rules, ctxs = [], []
            for j, rule in enumerate(comp.rules):
                rules.append(Rule(rule.lhs, (x_sym[(level, rule.rhs)],)))
                ctxs.append(RcCondition(
                    forbid=comp.contexts[j].forbid | x_all | stay
                ))
            return rules, ctxs

        def unload_rules(level):
            rules, ctxs = [], []
            for w in w_i:
                rules.append(Rule(x_sym[(level, w)], w))
                ctxs.append(RcCondition(forbid=others))
            return rules, ctxs

        rules, ctxs = load_rules(1, stay=guards - {guard})
        rules.append(Rule(guard, (yi,)))
        ctxs.append(RcCondition())
        comps.append(Component(f"P{ci + 1}_0", tuple(rules), contexts=tuple(ctxs)))

        for level in range(1, k):
            rules, ctxs = unload_rules(level)
            more, mctx = load_rules(level + 1, stay=others)
            comps.append(Component(
                f"P{ci + 1}_{level}",
                tuple(rules + more), contexts=tuple(ctxs + mctx),
            ))
        if mode.variant == ">=":
            rules, ctxs = unload_rules(k)
            more, mctx = load_rules(k, stay=others)
            comps.append(Component(
                f"P{ci + 1}_{k}",
                tuple(rules + more), contexts=tuple(ctxs + mctx),
            ))
        rules, ctxs = unload_rules(k)
        rules.append(Rule(yi, (guard,)))
        ctxs.append(RcCondition(forbid=others | x_i))
        rules.append(Rule(yi, ()))
        ctxs.append(RcCondition(forbid=orig_nts))
        comps.append(Component(
            f"P{ci + 1}_{k + 1}", tuple(rules), contexts=tuple(ctxs),
        ))

    nonterminals = system.nonterminals | x_all | guards | {start}
    return _Parts("_eq2", nonterminals, comps, start=start)


def _frccd_eq2_to_k(system: System, mode: Mode):
    """Stretch exactly-2-step cooperation of a forbid-regulated system to
    exactly-k (or at-least-k) steps, k >= 3.

    Each activation simulates two original rule applications: the first is
    prolonged through a chain of X symbols, both leave level-marked copies of
    the first produced symbol, and a reset component unwinds the marks in
    exactly k steps.
    """
    k = mode.k
    scheme = FreshNameScheme(system.alphabet)

    markable = []
    for comp in system.components:
        for rule in comp.rules:
            s = rule.rhs[0] if rule.rhs else None
            if s not in markable:
                markable.append(s)
    mark_sym = {}
    for s in markable:
        base = s if s is not None else "lam"
        for level in range(1, k + 1):
            mark_sym[(s, level)] = scheme.fresh(base + "'" * level)
    m_all = frozenset(mark_sym.values())
    m_ge2 = frozenset(
        v for (s, level), v in mark_sym.items() if level >= 2
    )

    x_sym = _parking_symbols(system, scheme, range(1, k - 1))
    x_all = frozenset(x_sym.values())

    def marked(w, level):
        if not w:
            return (mark_sym[(None, level)],)
        return (mark_sym[(w[0], level)],) + tuple(w[1:])

    comps = []
    for ci, comp in enumerate(system.components):
        firsts = {r.rhs[0] for r in comp.rules if r.rhs}
        rules, ctxs = [], []
        for j, rule in enumerate(comp.rules):
            fj = comp.contexts[j].forbid
            rules.append(Rule(rule.lhs, (x_sym[(1, rule.rhs)],)))
            ctxs.append(RcCondition(forbid=fj | m_all | x_all))
            for t in range(1, k - 2):
                lhs = x_sym[(t, rule.rhs)]
                rules.append(Rule(lhs, (x_sym[(t + 1, rule.rhs)],)))
                ctxs.append(RcCondition(forbid=fj | m_all | (x_all - {lhs})))
            lhs = x_sym[(k - 2, rule.rhs)]
            rules.append(Rule(lhs, marked(rule.rhs, 1)))
            ctxs.append(RcCondition(forbid=fj | m_all | (x_all - {lhs})))
            rules.append(Rule(rule.lhs, marked(rule.rhs, k - 1)))
            ctxs.append(RcCondition(forbid=fj | m_ge2 | x_all))
            if rule.lhs in firsts:
                rules.append(Rule(mark_sym[(rule.lhs, 1)], marked(rule.rhs, k)))
                ctxs.append(RcCondition(forbid=fj | m_ge2 | x_all))
        # drop duplicates introduced by rules sharing a right-hand side
        seen, dedup_rules, dedup_ctxs = set(), [], []
        for rule, ctx in zip(rules, ctxs):
            key = (rule.lhs, rule.rhs, ctx.forbid)
            if key not in seen:
                seen.add(key)
                dedup_rules.append(rule)
                dedup_ctxs.append(ctx)
        comps.append(Component(
            f"P{ci + 1}", tuple(dedup_rules), contexts=tuple(dedup_ctxs),
        ))

    rules, ctxs = [], []
    for s in markable:
        for level in range(k, 1, -1):
            rules.append(Rule(mark_sym[(s, level)],
                              (mark_sym[(s, level - 1)],)))
            ctxs.append(RcCondition(forbid=x_all))
        rules.append(Rule(mark_sym[(s, 1)], (s,) if s is not None else ()))
        ctxs.append(RcCondition(forbid=x_all))
        if mode.variant == ">=":
            for level in range(1, k + 1):
                rules.append(Rule(mark_sym[(s, level)],
                                  (mark_sym[(s, level)],)))
                ctxs.append(RcCondition(forbid=x_all))
    comps.append(Component("Preset", tuple(rules), contexts=tuple(ctxs)))

    notes = ()
    if mode.variant == ">=":
        notes = ("at-least-k padding realized as self-rewriting reset "
                 "marker rules",)
    return _Parts(f"_eq{k}", system.nonterminals | m_all | x_all, comps,
                  notes=notes)


# ---------------------------------------------------------------------------
# entry-condition systems <-> per-rule forbid systems
# ---------------------------------------------------------------------------

def _cdfrc_to_frccd(system: System, mode: Mode):
    """Push per-component entry forbid sets down to per-rule forbid sets.

    A guard symbol records which component's entry condition was last
    checked; checker components move the guard, body components require it.
    For non-maximal modes the guard components carry self-loops so they can
    fill the required step counts; in maximal mode the loops are omitted.

    Supported modes: t, * and >=k. The guard persists across activations, so
    two consecutive body activations skip the entry re-check the source
    performs between its own activations. Under >=k the two activations merge
    into one longer source activation and nothing is lost; under =k and <=k
    the merged step count is wrong and the output over-generates, so those
    modes are rejected.
    """
    scheme = FreshNameScheme(system.alphabet)
    n = len(system.components)
    start = scheme.fresh(system.start + "'")
    guard = scheme.fresh("Y")
    checker = [scheme.fresh(f"Y_F{i}") for i in range(1, n + 1)]
    loops = mode.variant != "t"

    comps = []
    rules = [Rule(start, (guard, system.start))]
    ctxs = [RcCondition()]
    if loops:
        rules.append(Rule(guard, (guard,)))
        ctxs.append(RcCondition())
    comps.append(Component("P0", tuple(rules), contexts=tuple(ctxs)))

    for i, comp in enumerate(system.components):
        fi = comp.entry.forbid if comp.entry is not None else frozenset()
        rules = [Rule(guard, (checker[i],))]
        ctxs = [RcCondition(forbid=fi)]
        for j in range(n):
            if j == i and not loops:
                continue
            rules.append(Rule(checker[j], (checker[i],)))
            ctxs.append(RcCondition(forbid=fi))
        comps.append(Component(f"PF{i + 1}", tuple(rules),
                               contexts=tuple(ctxs)))
        body_forbid = frozenset(
            [guard] + [checker[j] for j in range(n) if j != i]
        )
        rules = [Rule(r.lhs, r.rhs) for r in comp.rules]
        ctxs = [RcCondition(forbid=body_forbid) for _ in comp.rules]
        comps.append(Component(f"P{i + 1}", tuple(rules),
                               contexts=tuple(ctxs)))

    orig_nts = frozenset(system.nonterminals)
    rules, ctxs = [], []
    for sym in [guard] + checker:
        rules.append(Rule(sym, ()))
        ctxs.append(RcCondition(forbid=orig_nts))
        if loops:
            rules.append(Rule(sym, (sym,)))
            ctxs.append(RcCondition(forbid=orig_nts))
    comps.append(Component("Pend", tuple(rules), contexts=tuple(ctxs)))

    nonterminals = system.nonterminals | {start, guard} | set(checker)
    return _Parts("_frccd", nonterminals, comps, start=start)


def _pairs_compatible(p, p2):
    """Can the two distinct forbid-regulated rules fire in sequence inside one
    exactly-2-step activation (in at least one order)?"""
    (a, w, f), (a2, w2, f2) = p, p2
    if a not in f | f2 and a2 not in f | f2 and (
            f2.isdisjoint(w) or f.isdisjoint(w2)):
        return True
    if a in f2 and a2 not in f and f2.isdisjoint(w):
        return True
    if a2 in f and a not in f2 and f.isdisjoint(w2):
        return True
    return False


def _frccd_eq2_to_cdfrc(system: System, mode):
    """Lift per-rule forbid sets of an exactly-2-step system to component
    entry conditions.

    Each activation's rule pair is precomputed: marker components park chosen
    occurrences inside X symbols, joint components rewrite matching markers,
    and nested components handle a second application inside the first rule's
    output. All context checks move to entry forbid sets.
    """
    scheme = FreshNameScheme(system.alphabet)
    sharp = scheme.fresh("sharp")

    # rule occurrences deduplicated by content (lhs, rhs, forbid)
    rule_key = {}
    comp_rules = []
    for comp in system.components:
        keys = []
        for i, rule in enumerate(comp.rules):
            key = (rule.lhs, rule.rhs, comp.contexts[i].forbid)
            if key not in rule_key:
                rule_key[key] = len(rule_key)
            if key not in keys:
                keys.append(key)
        comp_rules.append(keys)

    doubles = []
    pair_set = []
    nested = []
    marker_needed = []
    for keys in comp_rules:
        for p in keys:
            a, w, f = p
            if f.isdisjoint(w) and p not in doubles:
                doubles.append(p)
        for i, p in enumerate(keys):
            for p2 in keys[i + 1:]:
                if _pairs_compatible(p, p2):
                    if {p, p2} not in [set(x) for x in pair_set]:
                        pair_set.append((p, p2))
                    for q in (p, p2):
                        if q not in marker_needed:
                            marker_needed.append(q)
        for p in keys:
            for p2 in keys:
                if p == p2:
                    continue
                a, w, f = p
                a2, w2, f2 = p2
                if a2 in f2:
                    continue  # the inner rule can never fire anywhere
                for pos, s in enumerate(w):
                    if s != a2:
                        continue
                    xi, eta = w[:pos], w[pos + 1:]
                    if f2.isdisjoint(xi + eta):
                        entry = (p, p2, xi, eta)
                        if entry not in nested:
                            nested.append(entry)
                        if p not in marker_needed:
                            marker_needed.append(p)

    x_sym = {}
    for key, idx in sorted(rule_key.items(), key=lambda kv: kv[1]):
        if key in marker_needed:
            x_sym[key] = scheme.fresh(f"X_p{idx + 1}")
    x_all = frozenset(x_sym.values())

    comps = []
    for di, p in enumerate(doubles):
        a, w, f = p
        comps.append(Component(
            f"D{di + 1}", (Rule(a, w),),
            entry=RcCondition(forbid=f | x_all | {sharp}),
        ))
    for mi, p in enumerate(marker_needed):
        a, w, f = p
        xp = x_sym[p]
        comps.append(Component(
            f"M{mi + 1}", (Rule(a, (sharp,)), Rule(sharp, (xp,))),
            entry=RcCondition(forbid=f | {sharp, xp}),
        ))
    for ji, (p, p2) in enumerate(pair_set):
        (a, w, f), (a2, w2, f2) = p, p2
        comps.append(Component(
            f"J{ji + 1}", (Rule(x_sym[p], w), Rule(x_sym[p2], w2)),
            entry=RcCondition(
                forbid=f | f2 | (x_all - {x_sym[p], x_sym[p2]}) | {sharp}
            ),
        ))
    for ni, (p, p2, xi, eta) in enumerate(nested):
        (a, w, f), (a2, w2, f2) = p, p2
        comps.append(Component(
            f"N{ni + 1}",
            (Rule(x_sym[p], (sharp,)), Rule(sharp, xi + w2 + eta)),
            entry=RcCondition(
                forbid=f | f2 | (x_all - {x_sym[p]}) | {sharp}
            ),
        ))

    if not comps:
        # no rule pair can fire, so the language is empty: one component
        # that never acts keeps the output a system
        start = system.start
        comps.append(Component("Z", (Rule(start, (start,)),),
                               entry=RcCondition(forbid={start})))
    return _Parts("_entry", system.nonterminals | x_all | {sharp}, comps)


def _cdfrc_eq2_to_eqk(system: System, mode: Mode):
    """Stretch an exactly-2-step entry-condition system to exactly-k steps.

    Single-rule components are first normalized into two-marker gadgets so
    every component holds exactly two rules; then one of the two expected
    applications is prolonged through a chain of fresh counter symbols.
    The prolongation choice (chained second rule if the component is a
    marker gadget, lexicographically first rule otherwise) is a documented
    heuristic; outputs are flagged accordingly.
    """
    k = mode.k
    for comp in system.components:
        if len(comp.rules) > 2:
            raise KindError(
                f"cdfrc-eq2-to-eqk: component {comp.name} has more than two "
                "rules; normalize it first"
            )
    scheme = FreshNameScheme(system.alphabet)

    singles = [c for c in system.components if len(c.rules) == 1]
    sharp = scheme.fresh("sharp") if singles else None
    x_pair = {}
    for comp in singles:
        x_pair[comp.name] = (
            scheme.fresh(f"X_{comp.name}"),
            scheme.fresh(f"X_{comp.name}'"),
        )
    x_all = frozenset(s for pair in x_pair.values() for s in pair)

    proto = []  # (name, rules, entry forbid)
    for comp in system.components:
        entry = comp.entry.forbid if comp.entry is not None else frozenset()
        if len(comp.rules) == 2:
            proto.append((comp.name, list(comp.rules),
                          entry | x_all | ({sharp} if sharp else frozenset())))
            continue
        rule = comp.rules[0]
        a, w, f = rule.lhs, rule.rhs, entry
        xp, xq = x_pair[comp.name]
        proto.append((f"{comp.name}_m1",
                      [Rule(a, (sharp,)), Rule(sharp, (xp,))],
                      f | {sharp, xp}))
        proto.append((f"{comp.name}_m2",
                      [Rule(a, (sharp,)), Rule(sharp, (xq,))],
                      f | {sharp, xq}))
        proto.append((f"{comp.name}_j",
                      [Rule(xp, w), Rule(xq, w)],
                      f | {sharp} | (x_all - {xp, xq})))
        if a not in f:
            for pos, s in enumerate(w):
                if s != a:
                    continue
                xi, eta = w[:pos], w[pos + 1:]
                if f.isdisjoint(xi + eta):
                    proto.append((f"{comp.name}_n{pos + 1}",
                                  [Rule(xp, (sharp,)), Rule(sharp, xi + w + eta)],
                                  f | {sharp} | (x_all - {xp})))

    chain_counter = [0]
    chain_all = set()

    def chain_rule(rule):
        links = []
        for _ in range(k - 2):
            chain_counter[0] += 1
            links.append(scheme.fresh(f"c{chain_counter[0]}"))
        chain_all.update(links)
        out = [Rule(rule.lhs, (links[0],))]
        for a, b in zip(links, links[1:]):
            out.append(Rule(a, (b,)))
        out.append(Rule(links[-1], rule.rhs))
        return out

    comps = []
    entries = []
    for name, rules, entry in proto:
        if rules[0].rhs == (rules[1].lhs,) and rules[0].lhs != rules[1].lhs:
            new_rules = [rules[0]] + chain_rule(rules[1])
        elif rules[1].rhs == (rules[0].lhs,) and rules[0].lhs != rules[1].lhs:
            new_rules = chain_rule(rules[0]) + [rules[1]]
        else:
            first = min(range(2), key=lambda i: (rules[i].lhs, rules[i].rhs))
            new_rules = []
            for i in (0, 1):
                if i == first:
                    new_rules.extend(chain_rule(rules[i]))
                else:
                    new_rules.append(rules[i])
        comps.append((name, tuple(new_rules)))
        entries.append(entry)

    chain_all = frozenset(chain_all)
    built = tuple(
        Component(name, rules, entry=RcCondition(forbid=entry | chain_all))
        for (name, rules), entry in zip(comps, entries)
    )
    nonterminals = system.nonterminals | x_all | chain_all
    if sharp:
        nonterminals = nonterminals | {sharp}
    return _Parts(f"_eq{k}", nonterminals, built, notes=(
        "prolongation rule choice is a documented heuristic",))


# ---------------------------------------------------------------------------
# entry-condition systems <-> component priorities
# ---------------------------------------------------------------------------

def _cdfrc_to_pcd(system: System, mode: Mode):
    """Turn entry forbid sets into blocking components under priorities.

    For each nonempty forbid set a watcher component is added above the
    original: it can act (loop or derail into a dead symbol) exactly when a
    forbidden symbol is present, which blocks the original via priority.
    """
    scheme = FreshNameScheme(system.alphabet)
    dead = scheme.fresh("X_f")
    comps = [
        Component(comp.name, tuple(Rule(r.lhs, r.rhs) for r in comp.rules))
        for comp in system.components
    ]
    pairs = set()
    used_dead = False
    for i, comp in enumerate(system.components):
        forbid = comp.entry.forbid if comp.entry is not None else frozenset()
        if not forbid:
            continue
        rules = []
        for sym in sorted(forbid):
            rules.append(Rule(sym, (sym,)))
            rules.append(Rule(sym, (dead,)))
        used_dead = True
        pairs.add((len(comps), i))
        comps.append(Component(f"F{comp.name}", tuple(rules)))
    nonterminals = set(system.nonterminals)
    if used_dead:
        nonterminals.add(dead)
    return _Parts("_pcd", nonterminals, comps,
                  component_order=close_order(pairs, size=len(comps)))


def _pcd_to_cdfrc(system: System, mode: Mode):
    """Turn component priorities into entry forbid sets.

    A higher-priority component can act for these modes exactly when some
    left-hand side of its rules is present, so the lower component's entry
    condition forbids those symbols. In maximal mode only left-hand sides
    whose component sub-language is nonempty can block and are included.
    """
    def blocking_lhs(comp):
        if mode.variant != "t":
            return set(comp.lhs_set)
        return nonempty_lhs(comp.rules)

    comps = []
    order = system.component_order or StrictOrder()
    for j, comp in enumerate(system.components):
        forbid = set()
        for g in order.greater_than(j):
            forbid |= blocking_lhs(system.components[g])
        comps.append(Component(
            comp.name,
            tuple(Rule(r.lhs, r.rhs) for r in comp.rules),
            entry=RcCondition(forbid=frozenset(forbid)),
        ))
    return _Parts("_entry", system.nonterminals, comps)


# ---------------------------------------------------------------------------
# at-least-k entry-condition cooperation -> at-least-2
# ---------------------------------------------------------------------------

def _cdfrc_geqk_to_geq2(system: System, mode: Mode):
    """Rebuild an at-least-k entry-condition system so at-least-2-step
    cooperation simulates it.

    A pick component checks the original entry condition and installs a
    per-component counter symbol; counting components force at least one
    original step per counter level before the counter resets.
    """
    k = mode.k
    scheme = FreshNameScheme(system.alphabet)
    n = len(system.components)
    start = scheme.fresh(system.start + "'")
    guard = scheme.fresh("Y")
    picked = scheme.fresh("Y'")
    counter = {
        (i, j): scheme.fresh(f"Y{i}_{j}")
        for i in range(1, n + 1) for j in range(0, k + 1)
    }
    y_all = frozenset([guard, picked] + list(counter.values()))

    comps = [Component(
        "P0",
        (Rule(start, (guard, system.start)), Rule(guard, (guard,))),
        entry=RcCondition(),
    )]
    orig_nts = frozenset(system.nonterminals)
    comps.append(Component(
        "Pend",
        (Rule(guard, ()), Rule(guard, (guard,))),
        entry=RcCondition(forbid=orig_nts | (y_all - {guard})),
    ))
    for i, comp in enumerate(system.components, start=1):
        fi = comp.entry.forbid if comp.entry is not None else frozenset()
        body = tuple(Rule(r.lhs, r.rhs) for r in comp.rules)
        comps.append(Component(
            f"Pick{i}",
            (Rule(guard, (picked,)), Rule(picked, (counter[(i, 0)],))),
            entry=RcCondition(forbid=fi | (y_all - {guard})),
        ))
        comps.append(Component(
            f"P{i}_0",
            (Rule(counter[(i, 0)], (counter[(i, 1)],)),) + body,
            entry=RcCondition(forbid=fi | (y_all - {counter[(i, 0)]})),
        ))
        for l in range(1, k):
            comps.append(Component(
                f"P{i}_{l}",
                (Rule(counter[(i, l)], (counter[(i, l + 1)],)),) + body,
                entry=RcCondition(forbid=y_all - {counter[(i, l)]}),
            ))
        comps.append(Component(
            f"P{i}_{k}",
            (Rule(counter[(i, k)], (counter[(i, k)],)),) + body,
            entry=RcCondition(forbid=y_all - {counter[(i, k)]}),
        ))
        comps.append(Component(
            f"P{i}_{k + 1}",
            (Rule(counter[(i, k)], (guard,)),) + body,
            entry=RcCondition(forbid=y_all - {counter[(i, k)]}),
        ))

    return _Parts("_geq2", system.nonterminals | y_all | {start}, comps,
                  start=start)


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contract:
    """When a construction applies, which modes it relates and what it
    builds.

    ``modes`` lists the mode arguments the construction takes, as literal
    modes (``t``, ``*``, ``=2``) or counted families (``=k``, ``<=k``,
    ``>=k``, each for k >= ``k_min``). ``preserves`` names the (input mode,
    output mode) pair under which input and output generate the same
    language; ``M`` stands for the mode argument. A construction without
    ``mode_required`` may be called without a mode; a mode given to it must
    still lie in ``modes``. ``output_kind`` is the kind of every output;
    ``a/b`` means a for a single-component output and b otherwise.
    """

    name: str
    kinds: str                 # accepted input kinds, space separated
    modes: str
    preserves: tuple
    output_kind: str
    build: Callable            # (system, mode) -> _Parts
    k_min: int = 1
    mode_required: bool = True
    compact: bool = False      # build also takes compact=True
    forbid_entries: bool = False  # entry conditions must be forbid-only

    def describe(self) -> str:
        """The accepted modes, as written in the README table."""
        if self.k_min > 1:
            return f"{self.modes} (k >= {self.k_min})"
        return self.modes

    def accepts(self, mode: Mode) -> bool:
        return any(
            atom == str(mode) or (atom == mode.variant + "k"
                                  and mode.k >= self.k_min)
            for atom in self.modes.split()
        )

    def preserved(self, mode):
        """(input mode, output mode) for the mode argument ``mode``."""
        return tuple(mode if m == "M" else Mode.parse(m)
                     for m in self.preserves)

    def check(self, system: System, mode=None, compact=False):
        """Return this contract; raise unless ``system``, ``mode`` and
        ``compact`` lie within it."""
        if system.kind not in self.kinds.split():
            raise KindError(
                f"{self.name} expects kind in {sorted(self.kinds.split())}, "
                f"got {system.kind}"
            )
        if self.forbid_entries:
            for comp in system.components:
                if comp.entry is not None and comp.entry.permit:
                    raise PermitPresent(
                        f"{self.name}: component {comp.name} has entry permit "
                        "symbols; only forbid-style entry conditions are "
                        "supported"
                    )
        if mode is None:
            if self.mode_required:
                raise ModeError(f"construction {self.name} requires a mode")
        elif not self.accepts(mode):
            raise ModeError(
                f"{self.name} supports modes {self.describe()}, got {mode}"
            )
        if compact and not self.compact:
            raise ValueError(f"{self.name} has no compact variant")
        return self


# Modes in which every activation is a sequence of one-step activations of
# the same mode, so a construction may ignore activation boundaries
# (frccd-merge, pcd-to-cdfrc).
_STEP_COUNT_FREE = "* =1 >=1 <=k"

CONSTRUCTIONS = {c.name: c for c in (
    Contract("frc-to-ord", "frccdgs", "* =k <=k >=k", ("M", "M"),
             "ordered/ocdgs", _frc_to_ord, mode_required=False),
    Contract("ord-to-frc", "ordered ocdgs cdgs", "t * =k <=k >=k", ("M", "M"),
             "frccdgs", _ord_to_frc, mode_required=False),
    Contract("gc-to-ocdgs", "gc", "=k >=k", ("M", "M"),
             "ocdgs", _gc_to_ocdgs, k_min=2, compact=True),
    Contract("ocdgs-t-to-ord", "ordered ocdgs cdgs", "t", ("t", "*"),
             "ordered", _ocdgs_t_to_ord, mode_required=False),
    Contract("frccd-merge", "frccdgs", _STEP_COUNT_FREE, ("M", "M"),
             "frccdgs", _frccd_merge),
    Contract("frccd-to-eq2", "frccdgs", "=k >=k", ("M", "=2"),
             "frccdgs", _frccd_to_eq2, k_min=2),
    Contract("frccd-eq2-to-k", "frccdgs", "=k >=k", ("=2", "M"),
             "frccdgs", _frccd_eq2_to_k, k_min=3),
    Contract("cdfrc-to-frccd", "entry-cdgs", "t * >=k", ("M", "M"),
             "frccdgs", _cdfrc_to_frccd, forbid_entries=True),
    Contract("frccd-eq2-to-cdfrc", "frccdgs", "=2", ("=2", "=2"),
             "entry-cdgs", _frccd_eq2_to_cdfrc, mode_required=False),
    Contract("cdfrc-eq2-to-eqk", "entry-cdgs", "=k", ("=2", "M"),
             "entry-cdgs", _cdfrc_eq2_to_eqk, k_min=3, forbid_entries=True),
    Contract("cdfrc-to-pcd", "entry-cdgs", "t * =k <=k >=k", ("M", "M"),
             "pcdgs", _cdfrc_to_pcd, forbid_entries=True),
    Contract("pcd-to-cdfrc", "pcdgs", "t " + _STEP_COUNT_FREE, ("M", "M"),
             "entry-cdgs", _pcd_to_cdfrc),
    Contract("cdfrc-geqk-to-geq2", "entry-cdgs", ">=k", ("M", ">=2"),
             "entry-cdgs", _cdfrc_geqk_to_geq2, k_min=2, forbid_entries=True),
)}


def apply_construction(name, system, mode=None, compact=False):
    """Apply the construction registered as ``name`` in :data:`CONSTRUCTIONS`.

    ``mode`` is the construction's mode argument: the input mode, or the
    output mode for the stretching conversions (``frccd-eq2-to-k``,
    ``cdfrc-eq2-to-eqk``), whose k is taken from it. Mode-free
    constructions may be given a mode, which must lie in their contract.
    ``compact`` selects the erasing variant of ``gc-to-ocdgs``. Raises
    ``KeyError`` for an unknown name, :class:`KindError`, :class:`ModeError`
    or :class:`PermitPresent` outside the contract, and ``ValueError`` for
    ``compact`` elsewhere. Returns the validated output system and its
    report. The report's modes come from the contract's mode map applied to
    ``mode``; a mode-free construction called without one reports the map's
    fixed modes, if any. An output with erasing rules is noted as such.
    """
    if name not in CONSTRUCTIONS:
        raise KeyError(f"unknown construction {name!r}")
    contract = CONSTRUCTIONS[name].check(system, mode, compact)
    parts = (contract.build(system, mode, compact=True) if compact
             else contract.build(system, mode))
    components = tuple(parts.components)
    kinds = contract.output_kind.split("/")
    out = check(System(
        kind=kinds[0] if len(components) == 1 else kinds[-1],
        name=system.name + parts.suffix,
        nonterminals=parts.nonterminals,
        terminals=system.terminals,
        start=parts.start or system.start,
        components=components,
        component_order=parts.component_order,
    ))
    notes = parts.notes
    if not out.non_erasing:
        notes += ("output contains erasing rules",)
    input_mode, output_mode = contract.preserved(mode)
    return out, ConstructionReport(
        name=name,
        input_kind=system.kind,
        output_kind=out.kind,
        input_mode=None if input_mode is None else str(input_mode),
        output_mode=None if output_mode is None else str(output_mode),
        fresh_nonterminals=len(
            out.nonterminals - system.nonterminals - system.terminals
        ),
        components=len(components),
        notes=notes,
    )
