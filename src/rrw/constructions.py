"""Grammar-to-grammar transformations between the supported system kinds.

Each construction's contract (input kinds, accepted modes, the mode pair it
preserves, the output kind, its builder) is declared once, in
:data:`CONSTRUCTIONS`. :func:`apply_construction` is the one entry point: it
checks the input against the contract, runs the builder, assembles and
validates the output :class:`~rrw.core.System` and reports it in a
:class:`ConstructionReport`. A builder is a private function of the input
system and the mode argument that returns only the parts of the output
(:class:`_Parts`). The CLI and the tests read the same table.

The builders state each output shape once, through one vocabulary:
:func:`_layered_component` (an ordered component in three layers),
:func:`_frc_component` (a forbid-regulated component from (lhs, rhs,
forbid) entries), :func:`_entry_component` (an entry-condition component
and its forbid set), :func:`_through` (the rule pair lhs -> via -> rhs of
the marker and nested gadgets), :func:`_unlabelled` (label-free copies of
rules) and :func:`_parking_symbols` (one fresh symbol per level and
right-hand side).

Fresh symbols come from a :class:`FreshNameScheme` and never collide with
input symbols. Inputs are never mutated. The component-level conversions
:func:`frc_to_ordered_component` and :func:`ordered_to_frc_component` are
public as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
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
    rules = (*top, *middle, *bottom)
    t, m = len(top), len(top) + len(middle)
    uppers = range(t) if m == t else range(t, m)
    pairs = {(g, l) for g in range(t) for l in range(t, m)}
    pairs.update((g, l) for g in uppers for l in range(m, len(rules)))
    return Component(name, rules, order=close_order(pairs, size=len(rules)))


def _frc_component(name, entries):
    """A forbid-regulated component with one rule lhs -> rhs forbidding
    ``forbid`` per (lhs, rhs, forbid) entry, in order."""
    return Component(name, [Rule(a, w) for a, w, _ in entries],
                     contexts=[RcCondition(forbid=f) for _, _, f in entries])


def _entry_component(name, rules, forbid=frozenset()):
    """An entry-condition component whose activation forbids ``forbid``."""
    return Component(name, rules, entry=RcCondition(forbid=forbid))


def _through(lhs, via, rhs):
    """The two rules lhs -> via and via -> rhs."""
    return Rule(lhs, (via,)), Rule(via, rhs)


def _unlabelled(rules):
    """Label-free copies of ``rules``."""
    return tuple(Rule(r.lhs, r.rhs) for r in rules)


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
    n = len(component.rules)
    forbids = ([ctx.forbid for ctx in component.contexts]
               if component.contexts is not None else [frozenset()] * n)
    taken = set(avoid).union(*forbids)
    for rule in component.rules:
        taken.add(rule.lhs)
        taken.update(rule.rhs)
    dead = FreshNameScheme(taken).fresh("X_f")
    guard = {}  # forbidden symbol -> index of its rule X -> X_f
    for forbid in forbids:
        for sym in sorted(forbid):
            guard.setdefault(sym, n + len(guard))
    rules = [*_unlabelled(component.rules)]
    rules += [Rule(sym, (dead,)) for sym in guard]
    pairs = {(guard[sym], i) for i, forbid in enumerate(forbids)
             for sym in forbid}
    return Component(name=component.name, rules=tuple(rules),
                     order=close_order(pairs, size=len(rules)))


def ordered_to_frc_component(component: Component) -> Component:
    """Replace a rule order by per-rule forbid sets.

    Rule r gets forbid set {lhs(r') | r' > r}; applicability agrees with the
    ordered original on every form, including stuckness.
    """
    rules, order = component.rules, component.order
    return _frc_component(component.name, [
        (r.lhs, r.rhs, frozenset(
            () if order is None
            else (rules[g].lhs for g in order.greater_than(i))))
        for i, r in enumerate(rules)])


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
    per control rule the output contains either two success components or,
    with ``compact``, a single erasing one per symbol of its label, and one
    failure component per symbol of its label. Works for the modes =k and
    >=k with k >= 2.

    ``label_syms`` are the symbols that carry the control state and
    ``own[l]`` those of label l: its own symbol, then its twin if it has one
    (only the compact variant makes twins). Both variants share the failure
    components, the end component and the nonterminal set.
    """
    scheme = FreshNameScheme(system.alphabet)
    gc_rules = system.gc_rules
    labels = [g.label for g in gc_rules]
    lab = {l: scheme.fresh(l) for l in labels}
    start = scheme.fresh("S")
    twin, hat_lab, hat_nt = {}, {}, {}
    if compact:
        # The one-component success gadget is only safe when an activation
        # can erase at most one label symbol: after erase + rewrite the new
        # label must differ from the erased one, or a second erase strips the
        # form of its label and control collapses. Rules whose success set
        # contains their own label therefore alternate between the label and
        # a fresh twin, each erased by its own component.
        twin = {g.label: scheme.fresh(g.label + "'")
                for g in gc_rules if g.label in g.success}
    else:
        hat_lab = {l: scheme.fresh(l + "^") for l in labels}
        hat_nt = {a: scheme.fresh(a + "^") for a in sorted(system.nonterminals)}
    own = {l: [lab[l], twin[l]] if l in twin else [lab[l]] for l in labels}
    label_syms = list(lab.values()) + list(twin.values())

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
        if compact:
            # each symbol of li is erased by its own component, which sends
            # a self-success on to the next symbol of li
            for src, back in zip(own[li], own[li][1:] + own[li][:1]):
                comps.append(_layered_component(
                    f"P{len(comps)}",
                    [Rule(s, (s,)) for s in label_syms if s != src],
                    [Rule(src, ())],
                    [Rule(g.rule.lhs, tuple(g.rule.rhs)
                          + (back if l == li else lab[l],)) for l in success],
                ))
        else:
            others = [l for l in labels if l != li]
            comps.append(_layered_component(
                f"P{len(comps)}",
                [Rule(lab[l], (lab[l],)) for l in others]
                + [Rule(hat_lab[l], (hat_lab[l],)) for l in others]
                + [Rule(hat_nt[a], (hat_nt[a],)) for a in hat_nt],
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
        for src in own[li]:
            comps.append(_layered_component(
                f"P{len(comps)}",
                [Rule(s, (s,)) for s in label_syms if s != src],
                [Rule(g.rule.lhs, (g.rule.lhs,))],
                [Rule(src, (lab[l],)) for l in failure],
            ))

    blockers = [*sorted(system.nonterminals), *hat_nt.values()]
    comps.append(_layered_component(
        f"P{len(comps)}",
        [Rule(a, (a,)) for a in blockers],
        [],
        [rule for l in sorted(system.final_labels) for s in own[l]
         for rule in (Rule(s, ()), Rule(s, (s,)))],
    ))

    nonterminals = (set(system.nonterminals) | {start} | set(label_syms)
                    | set(hat_lab.values()) | set(hat_nt.values()))
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
    ids = range(1, len(system.components) + 1)
    moves = [(i, j) for i in ids for j in ids if i != j]
    nts = sorted(system.nonterminals)
    scheme = FreshNameScheme(system.alphabet)
    marked = {(a, i): scheme.fresh(f"{a}_{i}") for a in nts for i in ids}
    trans = {(a, i, j): scheme.fresh(f"{a}_{i}to{j}")
             for a in nts for i in ids for j in ids}

    def mark(form, i):
        return tuple(
            marked[(s, i)] if s in system.nonterminals else s for s in form
        )

    # each rule under its role, in output order: ("rule", i, r) is rule r of
    # component i; ("loop", a, k) keeps a_k silent, ("tloop", a, l, k) the
    # transition symbol a_ltok; ("trans", a, i, j) and ("remark", a, i, j)
    # hand a_i over from component i to j
    rules = {("start", i): Rule(system.start, (marked[(system.start, i)],))
             for i in ids}
    for i, comp in enumerate(system.components, start=1):
        for r, rule in enumerate(comp.rules):
            rules["rule", i, r] = Rule(marked[(rule.lhs, i)],
                                       mark(rule.rhs, i))
    for a in nts:
        for k in ids:
            rules["loop", a, k] = Rule(marked[(a, k)], (marked[(a, k)],))
    for a in nts:
        for l, k in moves:
            t = trans[(a, l, k)]
            rules["tloop", a, l, k] = Rule(t, (t,))
    for i, j in moves:
        for a in nts:
            rules["trans", a, i, j] = Rule(marked[(a, i)], (trans[(a, i, j)],))
    for i, j in moves:
        for a in nts:
            rules["remark", a, i, j] = Rule(trans[(a, i, j)],
                                            (marked[(a, j)],))

    # the order, as every role of ``higher`` above every role of ``lower``
    at = {role: index for index, role in enumerate(rules)}
    pairs = set()

    def above(higher, lower):
        pairs.update(product([at[g] for g in higher], [at[l] for l in lower]))

    for i, comp in enumerate(system.components, start=1):
        for g, l in comp.order.pairs if comp.order is not None else ():
            above([("rule", i, g)], [("rule", i, l)])
        body = [("rule", i, r) for r in range(len(comp.rules))]
        above([("loop", a, k) for a in nts for k in ids if k != i], body)
        above(body, [("trans", a, i, j) for j in ids if j != i for a in nts])
    for i, j in moves:
        above([("tloop", b, l, k) for b in nts for l, k in moves
               if l != i and k != j],
              [("trans", a, i, j) for a in nts])
        above([("loop", b, l) for b in nts for l in ids if l != j]
              + [("tloop", b, k, l) for b in nts for k, l in moves if l != j],
              [("remark", a, i, j) for a in nts])

    order = close_order(pairs, size=len(rules))
    comp = Component("P", tuple(rules.values()), order=order)
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
    return _Parts("_one", system.nonterminals, (_frc_component("P", [
        (rule.lhs, rule.rhs, ctx.forbid) for comp in system.components
        for rule, ctx in zip(comp.rules, comp.contexts)]),))


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

    no_forbid = frozenset()
    comps = [_frc_component("Pinit", [
        (system.start, (system.start,), no_forbid),
        (start, (guard, system.start), no_forbid)])]
    orig_nts = frozenset(system.nonterminals)
    for ci, comp in enumerate(system.components, start=1):
        yi = comp_guard[ci - 1]
        others = guards - {yi}
        w_i = dict.fromkeys(rule.rhs for rule in comp.rules)
        x_i = frozenset(x_sym[(l, w)] for l in range(1, k + 1) for w in w_i)

        def load(level, stay):
            return [(rule.lhs, (x_sym[(level, rule.rhs)],),
                     ctx.forbid | x_all | stay)
                    for rule, ctx in zip(comp.rules, comp.contexts)]

        def unload(level):
            return [(x_sym[(level, w)], w, others) for w in w_i]

        comps.append(_frc_component(f"P{ci}_0", load(1, guards - {guard})
                                    + [(guard, (yi,), no_forbid)]))
        for level in range(1, k):
            comps.append(_frc_component(
                f"P{ci}_{level}", unload(level) + load(level + 1, others)))
        if mode.variant == ">=":
            comps.append(_frc_component(f"P{ci}_{k}",
                                        unload(k) + load(k, others)))
        comps.append(_frc_component(f"P{ci}_{k + 1}", unload(k) + [
            (yi, (guard,), others | x_i), (yi, (), orig_nts)]))

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

    markable = dict.fromkeys(rule.rhs[0] if rule.rhs else None
                             for comp in system.components
                             for rule in comp.rules)
    mark_sym = {(s, level): scheme.fresh(("lam" if s is None else s)
                                         + "'" * level)
                for s in markable for level in range(1, k + 1)}
    m_all = frozenset(mark_sym.values())
    m_ge2 = frozenset(
        v for (s, level), v in mark_sym.items() if level >= 2
    )

    x_sym = _parking_symbols(system, scheme, range(1, k - 1))
    x_all = frozenset(x_sym.values())

    def marked(w, level):
        return (mark_sym[(w[0] if w else None, level)],) + w[1:]

    comps = []
    for ci, comp in enumerate(system.components, start=1):
        firsts = {r.rhs[0] for r in comp.rules if r.rhs}
        # a dict, so that rules sharing a right-hand side add each entry once
        entries = {}
        for rule, ctx in zip(comp.rules, comp.contexts):
            fj = ctx.forbid
            chain = [x_sym[(t, rule.rhs)] for t in range(1, k - 1)]
            entries[rule.lhs, (chain[0],), fj | m_all | x_all] = None
            for x, w in zip(chain, [(y,) for y in chain[1:]]
                            + [marked(rule.rhs, 1)]):
                entries[x, w, fj | m_all | (x_all - {x})] = None
            entries[rule.lhs, marked(rule.rhs, k - 1),
                    fj | m_ge2 | x_all] = None
            if rule.lhs in firsts:
                entries[mark_sym[(rule.lhs, 1)], marked(rule.rhs, k),
                        fj | m_ge2 | x_all] = None
        comps.append(_frc_component(f"P{ci}", entries))

    entries = []
    for s in markable:
        entries += [(mark_sym[(s, level)], (mark_sym[(s, level - 1)],), x_all)
                    for level in range(k, 1, -1)]
        entries.append((mark_sym[(s, 1)], () if s is None else (s,), x_all))
        if mode.variant == ">=":
            entries += [(mark_sym[(s, level)], (mark_sym[(s, level)],), x_all)
                        for level in range(1, k + 1)]
    comps.append(_frc_component("Preset", entries))

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

    no_forbid = frozenset()
    init = [(start, (guard, system.start), no_forbid)]
    if loops:
        init.append((guard, (guard,), no_forbid))
    comps = [_frc_component("P0", init)]
    for i, comp in enumerate(system.components):
        fi = comp.entry.forbid
        comps.append(_frc_component(f"PF{i + 1}", [
            (lhs, (checker[i],), fi)
            for lhs in [guard] + [c for j, c in enumerate(checker)
                                  if loops or j != i]]))
        body_forbid = frozenset(
            [guard] + [checker[j] for j in range(n) if j != i]
        )
        comps.append(_frc_component(f"P{i + 1}", [
            (r.lhs, r.rhs, body_forbid) for r in comp.rules]))

    orig_nts = frozenset(system.nonterminals)
    comps.append(_frc_component("Pend", [
        (sym, w, orig_nts) for sym in [guard] + checker
        for w in ([(), (sym,)] if loops else [()])]))

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

    # each component's rules as distinct (lhs, rhs, forbid) triples, and
    # each triple's number in order of first appearance; the dicts below
    # keep their keys in order of first appearance too
    rule_key = {}
    comp_rules = []
    for comp in system.components:
        keys = list(dict.fromkeys(
            (r.lhs, r.rhs, ctx.forbid)
            for r, ctx in zip(comp.rules, comp.contexts)))
        for key in keys:
            rule_key.setdefault(key, len(rule_key))
        comp_rules.append(keys)

    doubles = {}
    pair_set = {}     # unordered pair -> the pair in its first order
    nested = {}
    marker_needed = {}
    for keys in comp_rules:
        doubles.update((p, None) for p in keys if p[2].isdisjoint(p[1]))
        for i, p in enumerate(keys):
            for p2 in keys[i + 1:]:
                if _pairs_compatible(p, p2):
                    pair_set.setdefault(frozenset((p, p2)), (p, p2))
                    marker_needed.update(((p, None), (p2, None)))
        for p, (a2, w2, f2) in permutations(keys, 2):
            if a2 in f2:
                continue  # the inner rule can never fire anywhere
            w = p[1]
            for pos, s in enumerate(w):
                xi, eta = w[:pos], w[pos + 1:]
                if s == a2 and f2.isdisjoint(xi + eta):
                    nested[p, (a2, w2, f2), xi, eta] = None
                    marker_needed[p] = None

    x_sym = {key: scheme.fresh(f"X_p{idx + 1}")
             for key, idx in rule_key.items() if key in marker_needed}
    x_all = frozenset(x_sym.values())

    comps = []
    for di, (a, w, f) in enumerate(doubles):
        comps.append(_entry_component(f"D{di + 1}", (Rule(a, w),),
                                      f | x_all | {sharp}))
    for mi, (a, w, f) in enumerate(marker_needed):
        xp = x_sym[a, w, f]
        comps.append(_entry_component(f"M{mi + 1}", _through(a, sharp, (xp,)),
                                      f | {sharp, xp}))
    for ji, (p, p2) in enumerate(pair_set.values()):
        (a, w, f), (a2, w2, f2) = p, p2
        comps.append(_entry_component(
            f"J{ji + 1}", (Rule(x_sym[p], w), Rule(x_sym[p2], w2)),
            f | f2 | (x_all - {x_sym[p], x_sym[p2]}) | {sharp}))
    for ni, (p, (a2, w2, f2), xi, eta) in enumerate(nested):
        comps.append(_entry_component(
            f"N{ni + 1}", _through(x_sym[p], sharp, xi + w2 + eta),
            p[2] | f2 | (x_all - {x_sym[p]}) | {sharp}))

    if not comps:
        # no rule pair can fire, so the language is empty: one component
        # that never acts keeps the output a system
        start = system.start
        comps.append(_entry_component("Z", (Rule(start, (start,)),), {start}))
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
    sharps = frozenset([sharp] if singles else [])
    x_pair = {}
    for comp in singles:
        x_pair[comp.name] = (
            scheme.fresh(f"X_{comp.name}"),
            scheme.fresh(f"X_{comp.name}'"),
        )
    x_all = frozenset(s for pair in x_pair.values() for s in pair)

    proto = []  # (name, two rules, entry forbid)
    for comp in system.components:
        f = comp.entry.forbid
        if len(comp.rules) == 2:
            proto.append((comp.name, comp.rules, f | x_all | sharps))
            continue
        a, w = comp.rules[0].lhs, comp.rules[0].rhs
        xp, xq = x_pair[comp.name]
        for tag, x in (("m1", xp), ("m2", xq)):
            proto.append((f"{comp.name}_{tag}", _through(a, sharp, (x,)),
                          f | {sharp, x}))
        proto.append((f"{comp.name}_j",
                      (Rule(xp, w), Rule(xq, w)),
                      f | {sharp} | (x_all - {xp, xq})))
        if a not in f:
            for pos, s in enumerate(w):
                if s != a:
                    continue
                xi, eta = w[:pos], w[pos + 1:]
                if f.isdisjoint(xi + eta):
                    proto.append((f"{comp.name}_n{pos + 1}",
                                  _through(xp, sharp, xi + w + eta),
                                  f | {sharp} | (x_all - {xp})))

    # component c prolongs one rule through the counters links[c*(k-2):]
    m = k - 2
    links = [scheme.fresh(f"c{i}") for i in range(1, len(proto) * m + 1)]
    chain_all = frozenset(links)
    built = tuple(
        _entry_component(name, _prolonged(rules, links[c * m:(c + 1) * m]),
                         forbid | chain_all)
        for c, (name, rules, forbid) in enumerate(proto)
    )
    nonterminals = system.nonterminals | x_all | chain_all | sharps
    return _Parts(f"_eq{k}", nonterminals, built, notes=(
        "prolongation rule choice is a documented heuristic",))


def _prolonged(rules, links):
    """The two rules, one of them rewritten through the chain ``links``:
    the rule that a marker rule hands over to, else the least."""
    r0, r1 = rules
    if r0.rhs == (r1.lhs,) and r0.lhs != r1.lhs:
        i = 1
    elif r1.rhs == (r0.lhs,) and r0.lhs != r1.lhs:
        i = 0
    else:
        i = min((0, 1), key=lambda i: (rules[i].lhs, rules[i].rhs))
    lhs, rhs = rules[i].lhs, rules[i].rhs
    chain = [Rule(a, w) for a, w in zip([lhs, *links],
                                         [(x,) for x in links] + [rhs])]
    return (*chain, r1) if i == 0 else (r0, *chain)


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
    comps = [Component(comp.name, _unlabelled(comp.rules))
             for comp in system.components]
    pairs = set()
    used_dead = False
    for i, comp in enumerate(system.components):
        forbid = comp.entry.forbid
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
        comps.append(_entry_component(comp.name, _unlabelled(comp.rules),
                                      forbid))
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

    comps = [_entry_component("P0", (Rule(start, (guard, system.start)),
                                     Rule(guard, (guard,)))),
             _entry_component("Pend", (Rule(guard, ()), Rule(guard, (guard,))),
                              system.nonterminals | (y_all - {guard}))]
    for i, comp in enumerate(system.components, start=1):
        fi = comp.entry.forbid
        body = _unlabelled(comp.rules)
        comps.append(_entry_component(
            f"Pick{i}", _through(guard, picked, (counter[(i, 0)],)),
            fi | (y_all - {guard})))
        # level l moves the counter from chain[l] to chain[l + 1]; the
        # counter stays at k once, then hands back to the guard
        chain = ([counter[(i, j)] for j in range(k + 1)]
                 + [counter[(i, k)], guard])
        for level, (src, dst) in enumerate(zip(chain, chain[1:])):
            comps.append(_entry_component(
                f"P{i}_{level}", (Rule(src, (dst,)),) + body,
                (fi if level == 0 else frozenset()) | (y_all - {src})))

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
        ``compact`` lie within it: :class:`KindError` for a kind outside
        it, ``ValidationError`` for a system that ``validate`` rejects (a
        builder relies on every invariant of its input kind),
        :class:`PermitPresent` for an ``entry-cdgs`` input whose entry
        conditions carry permit symbols (every construction of that kind
        reads forbid-only ones), :class:`ModeError` or ``ValueError``."""
        if system.kind not in self.kinds.split():
            raise KindError(
                f"{self.name} expects kind in {sorted(self.kinds.split())}, "
                f"got {system.kind}"
            )
        check(system)
        if system.kind == "entry-cdgs":
            for comp in system.components:
                if comp.entry.permit:
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
             "frccdgs", _cdfrc_to_frccd),
    Contract("frccd-eq2-to-cdfrc", "frccdgs", "=2", ("=2", "=2"),
             "entry-cdgs", _frccd_eq2_to_cdfrc, mode_required=False),
    Contract("cdfrc-eq2-to-eqk", "entry-cdgs", "=k", ("=2", "M"),
             "entry-cdgs", _cdfrc_eq2_to_eqk, k_min=3),
    Contract("cdfrc-to-pcd", "entry-cdgs", "t * =k <=k >=k", ("M", "M"),
             "pcdgs", _cdfrc_to_pcd),
    Contract("pcd-to-cdfrc", "pcdgs", "t " + _STEP_COUNT_FREE, ("M", "M"),
             "entry-cdgs", _pcd_to_cdfrc),
    Contract("cdfrc-geqk-to-geq2", "entry-cdgs", ">=k", ("M", ">=2"),
             "entry-cdgs", _cdfrc_geqk_to_geq2, k_min=2),
)}


def apply_construction(name, system, mode=None, compact=False):
    """Apply the construction registered as ``name`` in :data:`CONSTRUCTIONS`.

    ``mode`` is the construction's mode argument: the input mode, or the
    output mode for the stretching conversions (``frccd-eq2-to-k``,
    ``cdfrc-eq2-to-eqk``), whose k is taken from it. Mode-free
    constructions may be given a mode, which must lie in their contract.
    ``compact`` selects the erasing variant of ``gc-to-ocdgs``. Raises
    ``KeyError`` for an unknown name, :class:`KindError`, ``ValidationError``
    for an input that ``validate`` rejects, :class:`ModeError` or
    :class:`PermitPresent` outside the contract, and ``ValueError`` for
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
