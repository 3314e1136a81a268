"""Immutable data model for all grammar formalisms.

Symbols are plain strings; a :class:`System` carries the nonterminal and
terminal alphabets as sets, which determine each symbol's kind. Sentential
forms are tuples of symbol strings. All values are frozen dataclasses and may
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import CycleError, ValidationError

Form = tuple  # tuple of symbol strings

# The regulation clauses a document may state in a system of each kind,
# spelled as written. The parser rejects any other clause at its line, and
# validate() rejects a regulation field that no clause of the kind fills.
KIND_CLAUSES = {
    "cf": frozenset(),
    "ordered": frozenset({"order:"}),
    "cdgs": frozenset(),
    "ocdgs": frozenset({"order:"}),
    "rccdgs": frozenset({"forbid", "permit"}),
    "frccdgs": frozenset({"forbid"}),
    "gc": frozenset({"success", "failure", "init-labels:", "final-labels:"}),
    "entry-cdgs": frozenset({"entry"}),
    "pcdgs": frozenset({"priority:"}),
}
KINDS = tuple(KIND_CLAUSES)


@dataclass(frozen=True)
class Rule:
    """A context-free production lhs -> rhs; empty rhs is the empty word."""

    lhs: str
    rhs: tuple
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(self.rhs))


@dataclass(frozen=True)
class RcCondition:
    """Random-context test: all of ``permit`` present, none of ``forbid``."""

    permit: frozenset = frozenset()
    forbid: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "permit", frozenset(self.permit))
        object.__setattr__(self, "forbid", frozenset(self.forbid))

    def holds(self, support) -> bool:
        return self.permit <= support and not (self.forbid & support)


@dataclass(frozen=True)
class StrictOrder:
    """A strict partial order as a transitively closed set of (greater, lesser)
    index pairs. Construction closes the given pairs, so every instance is a
    strict order: a cycle raises :class:`CycleError` (which covers
    irreflexivity and asymmetry: (i, j) and (j, i) close to (i, i)).

    The closure is one depth-first search over the successor map from each
    node: O(V·E) for V nodes and E input pairs.

    :meth:`greater_than` answers from an index (lesser -> greater set) built
    in one pass over the pairs on first use, so a per-rule query costs
    O(answer), not O(pairs).
    """

    pairs: frozenset = frozenset()

    def __post_init__(self):
        succ = {}
        for g, l in self.pairs:
            succ.setdefault(g, set()).add(l)
        closed = set()
        for a, direct in succ.items():
            reached = set()
            stack = list(direct)
            while stack:
                b = stack.pop()
                if b not in reached:
                    reached.add(b)
                    stack.extend(succ.get(b, ()))
            if a in reached:
                raise CycleError(f"order closure contains ({a},{a})")
            closed.update((a, b) for b in reached)
        object.__setattr__(self, "pairs", frozenset(closed))

    @cached_property
    def _greater(self):
        index = {}
        for g, l in self.pairs:
            index.setdefault(l, set()).add(g)
        return {l: frozenset(gs) for l, gs in index.items()}

    def greater_than(self, idx):
        """Indices strictly greater than ``idx``."""
        return self._greater.get(idx, frozenset())

    def __bool__(self):
        return bool(self.pairs)


def close_order(pairs, size=None) -> StrictOrder:
    """The :class:`StrictOrder` closing a set of (greater, lesser) index
    pairs. With ``size`` given, raises :class:`IndexError` for indices
    outside ``range(size)``; a cycle raises :class:`CycleError`.
    """
    if size is not None:
        for g, l in pairs:
            if not (0 <= g < size and 0 <= l < size):
                raise IndexError(
                    f"order pair ({g},{l}) references a missing rule")
    return StrictOrder(pairs)


@dataclass(frozen=True)
class Component:
    """One cooperating component: rules plus its regulation.

    ``order`` holds the rule order for ordered components, ``contexts`` the
    per-rule random-context conditions for (f)rc components, ``entry`` the
    activation condition for entry-condition systems. Unused fields are None.
    """

    name: str
    rules: tuple
    order: StrictOrder | None = None
    contexts: tuple | None = None
    entry: RcCondition | None = None

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.contexts is not None:
            object.__setattr__(self, "contexts", tuple(self.contexts))

    @cached_property
    def lhs_set(self) -> frozenset:
        """The left-hand sides of the rules, computed once per component."""
        return frozenset(r.lhs for r in self.rules)

    def effective_conditions(self):
        """Per-rule (lhs, permit, forbid) triples folding the regulation in.

        For ordered components the forbid set is the set of left-hand sides of
        strictly greater rules, which is exactly the applicability condition.
        The table is computed once per component; this stays a method so
        that a wrapper set on the class (the benchmark's call counter) sees
        every lookup.
        """
        return self._conditions

    @cached_property
    def _conditions(self):
        out = []
        for i, rule in enumerate(self.rules):
            permit = frozenset()
            forbid = frozenset()
            if self.contexts is not None:
                permit = self.contexts[i].permit
                forbid = self.contexts[i].forbid
            if self.order is not None and self.order:
                forbid = forbid | frozenset(
                    self.rules[g].lhs for g in self.order.greater_than(i)
                )
            out.append((rule.lhs, permit, forbid))
        return tuple(out)

    @cached_property
    def unregulated(self) -> bool:
        """True when applicability reduces to lhs presence for every rule:
        no condition triple has a permit or a forbid symbol. Computed once
        per component."""
        return not any(permit or forbid
                       for _lhs, permit, forbid in self._conditions)


def least_yields(rules, terminals) -> dict:
    """The least fixpoint of terminal yields: each left-hand side of
    ``rules`` that derives a word over ``terminals`` mapped to the length of
    its shortest such word, where a symbol of ``terminals`` yields 1. A
    left-hand side that derives no such word is left out."""
    inf = float("inf")
    yields = {}
    changed = True
    while changed:
        changed = False
        for r in rules:
            w = sum(1 if s in terminals else yields.get(s, inf)
                    for s in r.rhs)
            if w < yields.get(r.lhs, inf):
                yields[r.lhs] = w
                changed = True
    return yields


@dataclass(frozen=True)
class GcRule:
    """A labeled graph-control rule with success and failure fields."""

    label: str
    rule: Rule
    success: frozenset = frozenset()
    failure: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "success", frozenset(self.success))
        object.__setattr__(self, "failure", frozenset(self.failure))


@dataclass(frozen=True)
class Mode:
    """Cooperation protocol: t, *, =k, <=k or >=k with k >= 1."""

    variant: str  # "t", "*", "=", "<=", ">="
    k: int | None = None

    _VARIANTS = ("t", "*", "=", "<=", ">=")

    def __post_init__(self):
        if self.variant not in self._VARIANTS:
            raise ValueError(f"unknown mode variant {self.variant!r}")
        if self.variant in ("t", "*"):
            if self.k is not None:
                raise ValueError(f"mode {self.variant} takes no k")
        elif self.k is None or self.k < 1:
            raise ValueError(f"mode {self.variant} needs k >= 1")

    @classmethod
    def parse(cls, text: str) -> "Mode":
        text = text.strip()
        if text in ("t", "*"):
            return cls(text)
        for prefix in ("<=", ">=", "="):
            if text.startswith(prefix):
                rest = text[len(prefix):]
                if not rest.isdigit():
                    break
                return cls(prefix, int(rest))
        raise ValueError(f"cannot parse mode {text!r}")

    @cached_property
    def steps(self) -> tuple:
        """(lo, hi): the number of rule applications one activation makes
        lies in lo..hi, with hi None when unbounded. ``*`` is the same
        relation as ``>=1``; ``t`` also has to end on a stuck form."""
        if self.variant == "=":
            return (self.k, self.k)
        if self.variant == "<=":
            return (1, self.k)
        return (self.k or 1, None)

    @cached_property
    def step_count_free(self) -> bool:
        """True for =1, *, <=k and >=1: one rule application is already a
        whole activation, so an activation is a sequence of one-step ones
        and a component has a result exactly when one of its rules
        applies."""
        return self.variant != "t" and self.steps[0] == 1

    def __str__(self):
        if self.variant in ("t", "*"):
            return self.variant
        return f"{self.variant}{self.k}"


@dataclass(frozen=True)
class System:
    """A grammar system of one of the supported kinds."""

    kind: str
    name: str
    nonterminals: frozenset
    terminals: frozenset
    start: str
    components: tuple = ()
    gc_rules: tuple = ()
    init_labels: frozenset = frozenset()
    final_labels: frozenset = frozenset()
    component_order: StrictOrder | None = None
    default_mode: Mode | None = None

    def __post_init__(self):
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "gc_rules", tuple(self.gc_rules))
        object.__setattr__(self, "init_labels", frozenset(self.init_labels))
        object.__setattr__(self, "final_labels", frozenset(self.final_labels))

    @property
    def alphabet(self) -> frozenset:
        return self.nonterminals | self.terminals

    @cached_property
    def non_erasing(self) -> bool:
        """True iff no rule has an empty right-hand side (derived on first
        use, not a field). Every enumeration asks, so it is computed once."""
        return all(len(r.rhs) > 0 for r in self.all_rules())

    @cached_property
    def weights(self) -> dict:
        """Least terminal yield of each symbol, computed once like
        ``non_erasing``: 1 for a terminal; for a nonterminal the least
        fixpoint over all rules of the system (:func:`least_yields`),
        ignoring regulation and mode, and ``inf`` when it derives no
        terminal word. A regulated derivation is also a context-free one,
        so no form derives a word shorter than its weight, the sum over its
        symbols, and no rule lowers it."""
        weights = dict.fromkeys(self.alphabet, float("inf"))
        weights.update(dict.fromkeys(self.terminals, 1))
        weights.update(least_yields(self.all_rules(), self.terminals))
        return weights

    @cached_property
    def growth(self) -> dict:
        """How much each rule raises a form's weight (``weights``): the
        weight of its right-hand side less that of its left-hand side. Keyed
        by component name, with a tuple over the component's rules in order,
        or in a gc system by label, with the growth of that label's rule.
        Computed once per system, like ``weights``."""
        weights = self.weights

        def grows(rule):
            return sum(map(weights.__getitem__, rule.rhs)) - weights[rule.lhs]

        table = {c.name: tuple(map(grows, c.rules)) for c in self.components}
        table.update((g.label, grows(g.rule)) for g in self.gc_rules)
        return table

    @cached_property
    def gc_labels(self) -> dict:
        """Each graph-control label mapped to the index of its rule in
        ``gc_rules`` and its :class:`GcRule`, computed once per system."""
        return {g.label: (i, g) for i, g in enumerate(self.gc_rules)}

    def all_rules(self):
        if self.kind == "gc":
            return [g.rule for g in self.gc_rules]
        return [r for c in self.components for r in c.rules]

    def component_named(self, name: str):
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)


def _check_order_range(order: StrictOrder, size: int, where: str, out: list):
    for (g, l) in sorted(order.pairs):
        if not (0 <= g < size and 0 <= l < size):
            out.append(f"{where}: order pair ({g},{l}) out of range")


def validate(system: System) -> list:
    """Return the complete list of violated invariants (empty means valid)."""
    v = []
    if system.kind not in KINDS:
        v.append(f"unknown kind {system.kind!r}")
        return v
    overlap = system.nonterminals & system.terminals
    if overlap:
        v.append(f"alphabets overlap on {sorted(overlap)}")
    for s in system.alphabet:
        if not s:
            v.append("empty symbol name")
    if system.start not in system.nonterminals:
        v.append(f"start symbol {system.start!r} is not a nonterminal")

    def check_rule(rule: Rule, where: str):
        if rule.lhs not in system.nonterminals:
            v.append(f"{where}: lhs {rule.lhs!r} is not a nonterminal")
        for s in rule.rhs:
            if s not in system.alphabet:
                v.append(f"{where}: rhs symbol {s!r} undeclared")

    if system.kind == "gc":
        if system.components:
            v.append("gc systems carry gc rules, not components")
        if not system.gc_rules:
            v.append("gc system has no rules")
        labels = [g.label for g in system.gc_rules]
        if len(set(labels)) != len(labels):
            v.append("gc labels are not injective")
        label_set = set(labels)
        for g in system.gc_rules:
            check_rule(g.rule, f"rule {g.label}")
            for l in g.success | g.failure:
                if l not in label_set:
                    v.append(f"rule {g.label}: unknown target label {l!r}")
        for l in system.init_labels | system.final_labels:
            if l not in label_set:
                v.append(f"unknown init/final label {l!r}")
        if not system.init_labels:
            v.append("gc system has no initial labels")
        if not system.final_labels:
            v.append("gc system has no final labels")
        return v

    carries = KIND_CLAUSES[system.kind]
    if system.gc_rules or system.init_labels or system.final_labels:
        v.append("labels/gc rules are only allowed in gc systems")
    if not system.components:
        v.append("system has no components")
    if system.kind in ("cf", "ordered") and len(system.components) > 1:
        v.append(f"kind {system.kind} must have exactly one component")
    names = [c.name for c in system.components]
    if len(set(names)) != len(names):
        v.append("component names are not unique")
    if system.component_order is not None and "priority:" not in carries:
        v.append("component order is only allowed in pcdgs systems")
    if system.component_order is not None:
        _check_order_range(
            system.component_order, len(system.components), "component order", v
        )

    for comp in system.components:
        where = f"component {comp.name}"
        if not comp.rules:
            v.append(f"{where}: empty rule set")
        labels = [r.label for r in comp.rules if r.label is not None]
        if len(set(labels)) != len(labels):
            v.append(f"{where}: duplicate rule labels")
        for i, rule in enumerate(comp.rules):
            check_rule(rule, f"{where} rule {i}")
        if comp.order is not None and "order:" not in carries:
            v.append(f"{where}: rule order not allowed in kind {system.kind}")
        if comp.order is not None:
            _check_order_range(comp.order, len(comp.rules), where, v)
        if comp.contexts is not None:
            if "forbid" not in carries:
                v.append(f"{where}: rule contexts not allowed in kind {system.kind}")
            elif len(comp.contexts) != len(comp.rules):
                v.append(f"{where}: {len(comp.contexts)} contexts for "
                         f"{len(comp.rules)} rules")
            else:
                for i, ctx in enumerate(comp.contexts):
                    if ctx.permit & ctx.forbid:
                        v.append(f"{where} rule {i}: permit and forbid overlap")
                    if ctx.permit and "permit" not in carries:
                        v.append(f"{where} rule {i}: frc rules take no permit set")
                    for s in ctx.permit | ctx.forbid:
                        if s not in system.nonterminals:
                            v.append(f"{where} rule {i}: context symbol {s!r} "
                                     "is not a nonterminal")
        elif "forbid" in carries:
            v.append(f"{where}: kind {system.kind} requires per-rule contexts")
        if comp.entry is not None:
            if "entry" not in carries:
                v.append(f"{where}: entry condition not allowed in kind "
                         f"{system.kind}")
            else:
                if comp.entry.permit & comp.entry.forbid:
                    v.append(f"{where}: entry permit and forbid overlap")
                for s in comp.entry.permit | comp.entry.forbid:
                    if s not in system.nonterminals:
                        v.append(f"{where}: entry symbol {s!r} is not a nonterminal")
        elif "entry" in carries:
            v.append(f"{where}: kind entry-cdgs requires an entry condition")
    return v


def check(system: System) -> System:
    """Validate; raise :class:`ValidationError` on any violation."""
    violations = validate(system)
    if violations:
        raise ValidationError(violations)
    return system


def format_word(form) -> str:
    """Render a form; symbols are concatenated when all are single characters."""
    if not form:
        return "eps"
    if all(len(s) == 1 for s in form):
        return "".join(form)
    return " ".join(form)


def shortlex_key(form):
    return (len(form), form)
