"""Exact derivation semantics: per-component steps, the five cooperation
modes, entry conditions, priorities, graph control, bounded language
enumeration and derivation search.

A mode allows an interval of rule applications per activation
(``Mode.steps``). One component activation ⇒_i^m is computed on one of two
paths, both from the layers of one function, :func:`_step_layers`:

* the naive path (``_naive_mode``, public as ``mode_apply``): the forms of
  the layers from the fewest allowed steps on. It materializes every
  interleaving of the rewrites, so n independent rewrites cost 2^n forms;
* the positionwise product path (:meth:`_Enumeration.activation`). When
  applicability reduces to lhs presence, a derivation decomposes into
  independent per-position derivations whose step counts add up, and the
  results are assembled from one table per symbol
  (:meth:`_Enumeration.position_table`): the subforms of the layers from
  that symbol, each with its layer indices. The assembly (``_assemble``)
  goes position by position over a map from each prefix to the set of its
  step sums, an int bitmask, so adding a table entry's values is one
  shift-or per value and equal prefixes are stored once; a run of equal
  symbols whose table has one subform is taken in one move. It is exact within the workspace for every mode and never falls
  back to the naive path.

Which path runs where:

* a form with fewer than ``_PRODUCT_MIN_SITES`` rewritable positions (too
  few interleavings to pay for the product path) stays naive, for every
  component in every mode;
* otherwise unregulated components take the product path in every mode;
* ordered and random-context components take it in mode t when their
  regulation cannot change during the activation. Applicability depends
  only on a form's support (its symbol set), so the abstract graph of
  supports reachable from the form's support decides this
  (:func:`_support_graph`): if every rule's regulation test gives the same
  answer on every reachable support that contains its lhs, the activation
  equals that of the unregulated component made of the always-enabled
  rules. The graph is capped (``_SUPPORT_CAP``) and memoised per
  (component, support); past the cap, or when a test changes, the
  activation stays naive;
* in modes =k, <=k, * and >=k regulated components stay naive. Those
  activations are short (at most k steps, or a closure that the search
  never repeats for the same component), and on small forms a product
  activation costs about ten times a naive one there.

The same graph also prunes the search in mode t: a form is dropped when
no component can end a t-activation on it (no stuck support is reachable).
In the closed modes (*, >=k, t) a form is also dropped when its producer is
the only component with an applicable rule, because the search never
re-activates the producer.

Under component priorities a component blocks a lower one when its own
activation has a result, so deciding which components may act activates the
higher ones. That activation becomes the move: the search reuses it instead
of activating the component again, and each (component, form) is activated
once. It is the whole relation, computed without a producer, so it holds
every result that the producer's pruning keeps, and the search filters each
result through the same ``useful`` test.

Both paths are exact on complete runs. They share their layers, so the
independent check is the reference oracle of ``equivalence.py``, which
shares no logic with the engine (``tests/test_engine.py`` checks the naive
path against it and the product path against the naive one). The one known
difference between the paths: the product path bounds each position's
subform by the workspace, not the whole intermediate form. When a workspace
truncation cuts the naive path, the product path may therefore return a
strict superset: real results whose every derivation passes through a form
longer than the workspace (for example on ``cf_star``, which has an erasing
rule).

:func:`enumerate_language` and :func:`find_derivation` share one breadth-first
search (:func:`_search`) over configurations: forms, whose moves are component
activations, or for graph control (form, label) pairs (:class:`GcConfig`),
whose moves apply the rule at the label once or take its failure branch.
Successors are visited in sorted order, so a trace does not depend on the
string hash seed. Rule applications are rebuilt only for the moves on the
found path; :func:`replay_trace` re-checks every one.

The search goes no further than the semantics require:

* the workspace is an upper bound. A non-erasing system never shortens a
  form, so no form longer than ``max_len`` (``len(target)`` for a
  derivation) leads to a counted word, and the search clamps its workspace
  to that length. Under component priorities it keeps the given workspace,
  because a higher component blocks a lower one whenever it has any result,
  however long;
* a workspace cut leaves the search incomplete only when the cut form can
  still yield a counted word. A regulated derivation is also a context-free
  one, so no form derives a word shorter than its weight, the sum of its
  symbols' least terminal yields (``System.weights``), and no rule lowers
  a weight. A cut counts only when the cut form weighs at most the counted
  length, or for a derivation the target's weight, which is its length
  when it is a terminal word (:meth:`_Enumeration.cut`). In a
  non-erasing system a cut form longer than that length never counts.
  This makes erasing systems such as ``cf_star`` complete. Only cut forms
  are weighed: activations drop no form by weight. Under priorities every
  cut counts unless the system is non-erasing, for the reason above;
* on a one-letter terminal alphabet :func:`enumerate_language` searches
  multisets (Parikh images): every form is sorted. Every regulation (rule
  orders, random context, entry conditions, priorities, mode-t stuckness,
  the workspace) reads only how often each symbol occurs, never where, and
  rewriting is context-free, so activating a permuted form gives the
  permutations of the same results, and the sorted search reaches exactly
  the multisets of the word search. Over one letter a word is its
  multiset, so the words and the ``complete`` flag are those of the word
  search. The activations work on multisets from start to end: a naive
  layer applies each enabled rule once per form, at the first occurrence
  of its lhs, and sorts the result, so the step budget counts one
  application per rule and form; the position tables hold sorted subforms,
  and the assembly keys its map by sorted prefixes, so the orderings of a
  partial result merge as they are built and each merged prefix is one
  push. :func:`find_derivation`, :func:`mode_apply`, graph control and the
  trace rebuild search words, because a trace needs positions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Component, Mode, format_word, shortlex_key
from .errors import BudgetExceeded, UnknownLabel


@dataclass(frozen=True)
class StepBounds:
    """Resource bounds making closure computations finite.

    workspace: maximum sentential-form length explored; an upper bound,
        which enumeration and derivation search lower to ``max_len`` (the
        target's length) for a non-erasing system without priorities. A
        cut of a form that weighs more than ``max_len`` (the target's
        weight) leaves them complete (see the module docstring);
    step_budget: maximum rule applications per activation (in mode_apply,
        enumeration and derivation search); a graph control move is one
        application, so there it never binds. A product-path activation
        spends one step per partial result that its assembly stores, each
        merged prefix once (a run taken in one move spends one per
        position). In a multiset search (see the module docstring) a naive
        layer applies each enabled rule once per form, at the first
        occurrence of its lhs, so one step is one application per rule and
        form;
    form_budget: maximum configurations stored per enumeration or search,
        results assembled per product-path activation, and states stored
        per search that rebuilds the applications of one activation on a
        found derivation's trace.
    """

    workspace: int
    step_budget: int = 1_000_000
    form_budget: int = 1_000_000

    def __post_init__(self):
        if self.workspace < 1 or self.step_budget < 1 or self.form_budget < 1:
            raise ValueError("bounds must be >= 1")


@dataclass(frozen=True)
class BoundedLanguage:
    """Terminal words of length <= max_len; complete means provably exact."""

    words: frozenset
    max_len: int
    complete: bool

    def sorted_words(self):
        return sorted(self.words, key=shortlex_key)


@dataclass(frozen=True, order=True)
class GcConfig:
    form: tuple
    label: str


@dataclass(frozen=True)
class TraceStep:
    component: str
    mode: Mode
    applications: tuple  # of (rule_index, position)
    result: tuple


@dataclass(frozen=True)
class DerivationTrace:
    start: tuple
    steps: tuple

    def final_form(self):
        return self.steps[-1].result if self.steps else self.start


class _Budget:
    """Mutable step/form counters shared across one computation."""

    __slots__ = ("steps_left", "forms_left", "exhausted")

    def __init__(self, steps, forms):
        self.steps_left = steps
        self.forms_left = forms
        self.exhausted = False

    def spend_steps(self, n=1):
        self.steps_left -= n
        if self.steps_left < 0:
            self.exhausted = True
            return False
        return True

    def spend_form(self):
        self.forms_left -= 1
        if self.forms_left < 0:
            self.exhausted = True
            return False
        return True


# ---------------------------------------------------------------------------
# single-component semantics (naive, reference)
# ---------------------------------------------------------------------------

def rule_applicable(component, form, rule_idx) -> bool:
    """True iff the rule's lhs occurs and the component's regulation allows it."""
    conds = component.effective_conditions()
    if not (0 <= rule_idx < len(conds)):
        raise IndexError(f"rule index {rule_idx} out of range")
    lhs, permit, forbid = conds[rule_idx]
    support = set(form)
    return lhs in support and permit <= support and not (forbid & support)


def component_successors(component, form):
    """All (successor form, rule index, position) triples of one ⇒ step."""
    conds = component.effective_conditions()
    support = set(form)
    out = set()
    for i, (lhs, permit, forbid) in enumerate(conds):
        if lhs in support and permit <= support and not (forbid & support):
            rhs = component.rules[i].rhs
            for pos, s in enumerate(form):
                if s == lhs:
                    out.add((form[:pos] + rhs + form[pos + 1:], i, pos))
    return out


def _step_layer(component, conds, forms, workspace, budget, cut, multiset):
    """One ⇒ layer over a set of forms: their successors. Each rule
    application that the workspace cuts is reported to ``cut`` (see
    :meth:`_Enumeration.cut`). With ``multiset`` the forms are sorted, each
    enabled rule is applied once, at the first occurrence of its lhs (every
    occurrence gives the same multiset), and each successor is sorted."""
    out = set()
    for form in forms:
        support = set(form)
        for i, (lhs, permit, forbid) in enumerate(conds):
            if lhs in support and permit <= support and not (forbid & support):
                rhs = component.rules[i].rhs
                if len(form) - 1 + len(rhs) > workspace:
                    cut(len(form) - 1 + len(rhs), _apply_at, form,
                        component.rules[i], form.index(lhs))
                    continue
                if multiset:
                    if not budget.spend_steps():
                        return out
                    pos = form.index(lhs)
                    out.add(tuple(sorted(form[:pos] + rhs + form[pos + 1:])))
                    continue
                for pos, s in enumerate(form):
                    if s == lhs:
                        if not budget.spend_steps():
                            return out
                        out.add(form[:pos] + rhs + form[pos + 1:])
    return out


def _has_applicable(conds, form):
    support = set(form)
    for (lhs, permit, forbid) in conds:
        if lhs in support and permit <= support and not (forbid & support):
            return True
    return False


def _step_layers(component, conds, seed, mode, workspace, budget, cut,
                 multiset):
    """The ⇒ layers from the forms ``seed`` that ``mode`` needs, over sorted
    forms with ``multiset``, each cut reported to ``cut`` (see
    :func:`_step_layer`).

    With (lo, hi) = ``mode.steps`` and cap = hi, or lo when hi is None,
    ``layers[j]`` holds the forms reached in exactly j steps for j < cap,
    and ``layers[cap]`` those reached in exactly cap steps or, when hi is
    None, in cap or more (its ⇒* closure). In mode t every layer keeps only
    its stuck forms.
    """
    lo, hi = mode.steps
    cap = lo if hi is None else hi
    layers = [seed]
    for _ in range(cap):
        layers.append(_step_layer(component, conds, layers[-1], workspace,
                                  budget, cut, multiset))
    if hi is None:
        frontier = layers[cap]
        visited = set(frontier)
        while frontier and not budget.exhausted:
            frontier = _step_layer(component, conds, frontier, workspace,
                                   budget, cut, multiset) - visited
            visited |= frontier
        layers[cap] = visited
    if mode.variant == "t":
        layers = [{f for f in layer if not _has_applicable(conds, f)}
                  for layer in layers]
    return layers


def _naive_mode(component, conds, form, mode, workspace, budget, cut,
                multiset=False):
    """Exact ⇒_i^m result set: the forms of the layers from ``lo`` steps on,
    sorted with ``multiset``; each cut is reported to ``cut``."""
    layers = _step_layers(component, conds, {form}, mode, workspace, budget,
                          cut, multiset)
    return frozenset().union(*layers[mode.steps[0]:])


def mode_apply(component, form, mode, bounds):
    """The exact relation ⇒_i^m from ``form``, restricted to the workspace.

    Raises :class:`BudgetExceeded` (with the partial result attached) when the
    step budget runs out before the closure is exhausted.
    """
    budget = _Budget(bounds.step_budget, bounds.form_budget)
    # the result does not say whether the workspace cut it
    result = _naive_mode(
        component, component.effective_conditions(), form, mode,
        bounds.workspace, budget, lambda *_cut: None,
    )
    if budget.exhausted:
        raise BudgetExceeded(
            f"step budget exhausted in mode_apply({mode})", partial=result
        )
    return result


# ---------------------------------------------------------------------------
# positionwise product path (used by enumeration and derivation search)
# ---------------------------------------------------------------------------

_SUPPORT_CAP = 64  # max supports explored per abstract support graph
# Fewest rewritable positions for which any component takes the product
# path: below it the naive closure has few interleavings and is cheaper.
_PRODUCT_MIN_SITES = 4


def _support_graph(component, conds, support):
    """Walk the abstract t-mode graph of supports reachable from ``support``.

    Applying an enabled rule X -> w moves a support S to S ∪ alph(w), and
    also to (S ∪ alph(w)) ∖ {X} when X ∉ w (other occurrences of X may or
    may not remain). Every support that a real derivation passes through is
    a node. Yields, per node, the (rule index, regulation test) pairs of the
    rules whose lhs the node contains; yields None once the walk has seen
    more than ``_SUPPORT_CAP`` nodes.
    """
    seen = {support}
    stack = [support]
    while stack:
        s = stack.pop()
        tests = []
        for i, (lhs, permit, forbid) in enumerate(conds):
            if lhs not in s:
                continue
            ok = permit <= s and not (forbid & s)
            tests.append((i, ok))
            if ok:
                rhs = component.rules[i].rhs
                grown = s.union(rhs)
                for nxt in (grown,) if lhs in rhs else (grown, grown - {lhs}):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        yield tests
        if len(seen) > _SUPPORT_CAP:
            yield None
            return


def _reaches_stuck(component, conds, support):
    """False proves every t-activation from ``support`` empty: no reachable
    support disables all rules."""
    for tests in _support_graph(component, conds, support):
        if tests is None or not any(ok for _i, ok in tests):
            return True
    return False


def _stable_rules(component, conds, support):
    """The rules enabled throughout any activation from ``support``, or None.

    Defined when every rule's regulation test gives one answer on every
    reachable support that contains its lhs; the result is the set of rules
    whose answer is yes. The regulation then never changes.
    """
    verdicts = {}
    for tests in _support_graph(component, conds, support):
        if tests is None:
            return None
        for i, ok in tests:
            if verdicts.setdefault(i, ok) != ok:
                return None
    return frozenset(i for i, ok in verdicts.items() if ok)


def _assemble(enum, tables, budget, producer):
    """The results of one product-path activation, built position by
    position over a map from each prefix to its step sums, with support,
    length and step pruning.

    Step values add up across positions: with (lo, hi) = ``mode.steps`` and
    cap as in :func:`_step_layers`, a sum saturates at cap + 1 when hi is
    set and at cap otherwise, and a result needs a sum in lo..cap. A set of
    sums is an int mask (bit s for sum s), so adding a table entry's values
    is one shift-or per value.

    In a multiset search (``enum.multiset``) the tables hold sorted
    subforms and each prefix is sorted, so the permutations of one multiset
    merge into one entry as they are built. Each new entry of the map is one
    push on the step budget. Equal symbols share one table, and a run of
    positions whose table has one subform is taken in one move that spends
    one push per position, as the positions one by one would.

    With a ``producer`` (see :meth:`_Enumeration.useful`), a prefix whose
    every completion has a useless support is dropped; None keeps every
    result.

    A prefix that the workspace (``enum.bounds.workspace``) cuts is
    reported to :meth:`_Enumeration.cut` with its lightest completion
    (:meth:`_Enumeration.completion`).
    """
    n = len(tables)
    if not all(tables):
        return frozenset()  # some position has no valid yield
    # minimal total length of positions i..n-1, and with a producer the
    # achievable support unions of positions i..n-1 (None = too many to
    # track) with a memo of the prefix supports that can still complete to
    # a useful one; the positions of a run of one table share both once the
    # unions stop growing
    min_tail = [0] * (n + 1)
    tail_sups = [None] * (n + 1)
    if producer is not None:
        tail_sups[n] = ({frozenset()}, {})
    shortest = 0
    for i in range(n - 1, -1, -1):
        table = tables[i]
        same = i + 1 < n and tables[i + 1] is table
        if not same:
            shortest = min(map(len, table))
        min_tail[i] = min_tail[i + 1] + shortest
        if tail_sups[i + 1] is None:
            continue
        sups = tail_sups[i + 1][0]
        grown = {frozenset(f) | t for f in table for t in sups}
        if same and grown == sups:
            tail_sups[i] = tail_sups[i + 1]
        elif len(grown) <= 64:
            tail_sups[i] = (grown, {})

    lo, hi = enum.mode.steps
    cap = lo if hi is None else hi
    top = 1 << (cap if hi is None else cap + 1)  # the saturated sum
    below = top - 1
    # a mask without these bits holds only the saturated sum, above hi
    himask = -1 if hi is None else below
    kept = (1 << cap + 1) - (1 << lo)
    multiset = enum.multiset
    workspace = enum.bounds.workspace
    states = {(): (1, frozenset())}
    i = 0
    while i < n:
        table = tables[i]
        j = i + 1
        if len(table) == 1:
            while j < n and tables[j] is table:
                j += 1
            (f, values), = table.items()
            run = 1
            for _ in range(j - i):
                run = _add_sums(run, values, top, below)
            f *= j - i
            if multiset:
                f = tuple(sorted(f))
            choices = ((f, _bits(run), frozenset(f)),)
        else:
            choices = [(f, values, frozenset(f))
                       for f, values in table.items()]
        pushes = j - i
        tail, sups = min_tail[j], tail_sups[j]
        nxt = {}
        for prefix, (sums, support) in states.items():
            length = len(prefix)
            for f, values, symbols in choices:
                if length + len(f) + tail > workspace:
                    enum.cut(length + len(f) + tail, enum.completion,
                             prefix + f, tables, j)
                    continue
                new = _add_sums(sums, values, top, below)
                if not new & himask:
                    continue
                key = prefix + f
                if multiset:
                    key = tuple(sorted(key))
                old = nxt.get(key)
                if old is not None:
                    nxt[key] = (old[0] | new, old[1])
                    continue
                grown = support | symbols
                if sups is not None:
                    viable = sups[1].get(grown)
                    if viable is None:
                        viable = sups[1][grown] = any(
                            enum.useful(grown | t, producer) for t in sups[0])
                    if not viable:
                        continue
                if not budget.spend_steps(pushes):
                    return frozenset()
                nxt[key] = (new, grown)
        states = nxt
        i = j

    # the pruning above already tested each result's support
    results = set()
    for form, (sums, _support) in states.items():
        if sums & kept:
            if not budget.spend_form():
                break
            results.add(form)
    return frozenset(results)


def _add_sums(sums, values, top, below):
    """The mask of the sums of ``sums`` and ``values``, saturated at
    ``top``."""
    new = 0
    for b in values:
        new |= sums << b
    return new & below | top if new > below else new


def _bits(mask):
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


# ---------------------------------------------------------------------------
# system-level semantics
# ---------------------------------------------------------------------------

def _entry_ok(component, support):
    return component.entry is None or component.entry.holds(support)


class _Enumeration:
    """Shared caches and counters for one search under one mode, and the
    moves of that search: configurations are forms, a move is a component
    activation. :class:`_GcEnumeration` overrides the four moves. With
    ``multiset`` the forms are sorted and every activation keeps them so
    (see the module docstring)."""

    def __init__(self, system, bounds, mode, multiset=False, limit=None,
                 length=None):
        self.system = system
        self.bounds = bounds
        self.mode = mode
        self.multiset = multiset
        self.limit = limit
        self.length = length
        self._tables = {}
        self._lightest = {}
        self._stable = {}
        self._restricted = {}
        self._acting = {}
        self.truncated = False
        self.exhausted = False

    def position_table(self, component, symbol, budget):
        """The product path's table for one position holding ``symbol``,
        built once per search: each subform of the :func:`_step_layers`
        from ``(symbol,)`` (sorted with ``multiset``), mapped to the
        ascending tuple of the indices of its layers, the step values that
        :func:`_assemble` shifts its sum masks by. A cut subform is weighed
        alone, a lower bound on any form that holds it; its cut is recorded
        when the table is built, and ``truncated`` never resets, so the
        cached table needs no flag."""
        key = (id(component), symbol)
        table = self._tables.get(key)
        if table is None:
            layers = _step_layers(
                component, component.effective_conditions(), {(symbol,)},
                self.mode, self.bounds.workspace, budget, self.cut,
                self.multiset,
            )
            table = self._tables[key] = {}
            for j, layer in enumerate(layers):
                for f in layer:
                    table[f] = table.get(f, ()) + (j,)
        return table

    def keep(self, support):
        """Never prune forms with this support (a derivation target)."""
        self._acting[support] = True

    def useful(self, support, producer):
        """True if a form with this support can still matter: it is a
        terminal word, or a component other than ``producer`` (-1 for none)
        can act on it; in mode t, act and also end its activation."""
        acting = self._acting.get(support)
        if acting is None:
            acting = self._acting[support] = self._acting_on(support)
        return acting is True or len(acting) > 1 or (
            bool(acting) and acting[0] != producer
        )

    def _acting_on(self, support):
        """True for a terminal support; otherwise up to two indices of the
        components that can act on it, which decides ``useful`` for every
        producer."""
        if support <= self.system.terminals:
            return True
        maximal = self.mode.variant == "t"
        acting = []
        for i, comp in enumerate(self.system.components):
            conds = comp.effective_conditions()
            if _entry_ok(comp, support) and _has_applicable(conds, support) \
                    and (not maximal or _reaches_stuck(comp, conds, support)):
                acting.append(i)
                if len(acting) == 2:
                    break
        return acting

    def product_component(self, component, form):
        """The unregulated component whose product path computes this
        activation exactly, or None when the naive path runs (fewer than
        ``_PRODUCT_MIN_SITES`` rewritable positions, or regulation that may
        change)."""
        lhs_set = component.lhs_set
        if sum(s in lhs_set for s in form) < _PRODUCT_MIN_SITES:
            return None
        if component.unregulated:
            return component
        if self.mode.variant != "t":
            return None
        key = (id(component), frozenset(form))
        if key not in self._stable:
            self._stable[key] = _stable_rules(
                component, component.effective_conditions(), key[1]
            )
        enabled = self._stable[key]
        if enabled is None:
            return None
        key = (id(component), enabled)
        if key not in self._restricted:
            self._restricted[key] = Component(
                component.name,
                tuple(component.rules[i] for i in sorted(enabled)),
            )
        return self._restricted[key]

    def activation(self, component, form, producer=None):
        """Exact ⇒_i^m results within bounds, on the product path where that
        is exact: without per-rule conditions any interleaving of
        per-position derivations is valid and step counts add up across
        positions, so :func:`_assemble` combines the :meth:`position_table`
        of each position. With a ``producer`` the product path drops results
        that :meth:`useful` rejects; None returns the whole relation."""
        conds = component.effective_conditions()
        if not _has_applicable(conds, form):
            return frozenset()  # every mode makes at least one application
        budget = _Budget(self.bounds.step_budget, self.bounds.form_budget)
        product = self.product_component(component, form)
        if product is None:
            results = _naive_mode(
                component, conds, form, self.mode, self.bounds.workspace,
                budget, self.cut, self.multiset
            )
        else:
            tables = [self.position_table(product, s, budget) for s in form]
            results = _assemble(self, tables, budget, producer)
        if budget.exhausted:
            self.exhausted = True
        return results

    def allowed_components(self, form, support):
        """The components permitted to act on ``form`` (entry + priority),
        as a dict from index to the activation results that the priority
        check computed, or None where it computed none. The results are the
        whole relation (no producer), so a move may reuse them."""
        system = self.system
        live = [
            i for i, comp in enumerate(system.components)
            if _entry_ok(comp, support)
        ]
        order = system.component_order
        if not order:
            return dict.fromkeys(live)
        live_set = set(live)
        results = {}

        def rel_results(i):
            # ⇒_i^m results, empty when i is not live or is blocked: the
            # priority-filtered relation ⇒_i^{m,>}
            if i not in results:
                if i not in live_set or blocked(i):
                    results[i] = frozenset()
                else:
                    results[i] = self.activation(system.components[i], form)
            return results[i]

        def blocked(i):
            return any(rel_results(g) for g in order.greater_than(i))

        # blocked() fills ``results`` as it goes, so read them only after
        # every component is decided
        allowed = [i for i in live if not blocked(i)]
        return {i: results.get(i) for i in allowed}

    def cut(self, length, build, *args):
        """Record a workspace cut: set ``truncated`` when the cut may hide a
        counted form. This is the only code that sets the flag, and nothing
        resets it during a search. The cut dropped forms of ``length`` or
        more symbols, the lightest of which ``build(*args)`` builds. No form
        derives a form lighter than itself (``System.weights``), so a cut
        counts only when it weighs at most ``limit``, the weight of the
        heaviest counted form. Without a limit (under priorities) every cut
        counts. A non-erasing system never shortens a form, so there a cut
        longer than the counted length ``self.length`` counts for nothing,
        which decides most cuts without a sum; nothing is weighed once one
        cut has counted."""
        limit = self.limit
        if self.truncated or (limit is not None and self.system.non_erasing
                              and length > self.length):
            return
        self.truncated = limit is None or sum(
            map(self.system.weights.__getitem__, build(*args))) <= limit

    def completion(self, form, tables, i):
        """``form`` followed by the lightest subform of each position table
        in ``tables[i:]``: the lightest result that extends ``form``. A
        table's lightest subform is found once per search."""
        weight = self.system.weights.__getitem__
        for table in tables[i:]:
            key = id(table)  # ``_tables`` keeps every table for the search
            if key not in self._lightest:
                self._lightest[key] = min(
                    table, key=lambda f: sum(map(weight, f)))
            form += self._lightest[key]
        return form

    def exhaustive(self):
        """True if the search was exhaustive for forms of the counted length
        ``self.length``: no budget ran out, and no counted workspace cut
        (:meth:`cut`) can hide such a form; under priorities, every cut
        counts unless the system is non-erasing and the workspace reaches
        the length."""
        return not self.exhausted and (
            not self.truncated or (self.system.non_erasing
                                   and self.bounds.workspace >= self.length)
        )

    # -- the moves of the search --------------------------------------------

    def starts(self):
        """The configurations the search starts from."""
        return ((self.system.start,),)

    def final_form(self, config):
        """The form a derivation may end with at ``config``, or None."""
        return config

    def successors(self, form, producer):
        """(configuration, move, producer mark) triples one move away, in a
        fixed order: allowed components by index, each activation's results
        sorted. The move is the activated component's index; the mark is
        the producer that the successor's own expansion skips. In a
        multiset search the activations give sorted results."""
        # Re-activating the producing component is redundant for
        # transitively closed modes: two consecutive >=k (or *, or t)
        # activations of one component compose into a single one, so the
        # results were already emitted when the parent form was expanded.
        closed = self.mode.steps[1] is None
        allowed = self.allowed_components(form, frozenset(form))
        for i, results in allowed.items():
            if i == producer:
                continue
            mark = i if closed else -1
            if results is None:  # else the priority check's, unpruned
                results = self.activation(self.system.components[i], form,
                                          mark)
            for res in sorted(results):
                if self.useful(frozenset(res), mark):
                    yield res, i, mark
            if self.exhausted:
                return

    def trace_step(self, form, move, result):
        """The :class:`TraceStep` of one move on the found path."""
        comp = self.system.components[move]
        apps = _activation_witness(self, comp, form, result)
        return TraceStep(comp.name, self.mode, apps, result)


class _GcEnumeration(_Enumeration):
    """Graph control: configurations are :class:`GcConfig` pairs, and a move
    applies the rule at the label once or takes its failure branch. The mode
    plays no part."""

    def starts(self):
        start = (self.system.start,)
        labels = sorted(self.system.init_labels)
        return tuple(GcConfig(start, l) for l in labels)

    def final_form(self, config):
        return config.form if config.label in self.system.final_labels \
            else None

    def successors(self, config, producer):
        """(configuration, applied label, None) triples, sorted;
        configurations longer than the workspace are cut."""
        for nxt in sorted(gc_successors(self.system, config)):
            if len(nxt.form) > self.bounds.workspace:
                # the cut form is itself the lightest it hides
                self.cut(len(nxt.form), tuple, nxt.form)
            else:
                yield nxt, config.label, None

    def trace_step(self, config, move, result):
        """One application at the first position that yields the result's
        form; none when the failure branch was taken."""
        idx = next(i for i, g in enumerate(self.system.gc_rules)
                   if g.label == move)
        rule = self.system.gc_rules[idx].rule
        form = config.form
        apps = ()
        for pos, s in enumerate(form):
            if s == rule.lhs and \
                    form[:pos] + rule.rhs + form[pos + 1:] == result.form:
                apps = ((idx, pos),)
                break
        return TraceStep(move, Mode("*"), apps, result.form)


def _enumeration(system, bounds, mode, length, multiset=False, weight=None):
    """The search state for ``system``: over (form, label) configurations
    for graph control, over forms (or sorted forms, with ``multiset``) for
    every other kind. ``length`` is the longest form the caller counts, and
    ``weight`` the heaviest (``length`` when None, as for terminal words).
    Without priorities ``weight`` bounds the weight of a counted cut, and
    the workspace of a non-erasing system is clamped to ``length`` (see the
    module docstring)."""
    priorities = bool(system.component_order)
    if length < bounds.workspace and system.non_erasing and not priorities:
        bounds = StepBounds(max(length, 1), bounds.step_budget,
                            bounds.form_budget)
    cls = _GcEnumeration if system.kind == "gc" else _Enumeration
    if weight is None:
        weight = length
    return cls(system, bounds, mode, multiset,
               None if priorities else weight, length)


def _search(enum, target=None):
    """Breadth-first search over configurations from the start ones.

    Returns (parents, words, hit): each configuration reached maps to (the
    configuration it came from, the move), the starts to None; words are
    the terminal forms reached; hit is the configuration ending with
    ``target``, at which the search stops (None if not reached).
    """
    terminals = enum.system.terminals
    starts = enum.starts()
    parents = dict.fromkeys(starts)
    words = []
    if target is not None:
        for config in starts:
            if enum.final_form(config) == target:
                return parents, words, config
    queue = deque((config, -1) for config in starts)
    forms_left = enum.bounds.form_budget
    while queue and not enum.exhausted:
        config, producer = queue.popleft()
        form = enum.final_form(config)
        if form is not None and terminals.issuperset(form):
            words.append(form)
            continue
        for nxt, move, mark in enum.successors(config, producer):
            if nxt in parents:
                continue
            forms_left -= 1
            if forms_left < 0:
                enum.exhausted = True
                break
            parents[nxt] = (config, move)
            if target is not None and enum.final_form(nxt) == target:
                return parents, words, nxt
            queue.append((nxt, mark))
    return parents, words, None


def system_successors(system, form, mode, bounds):
    """Union over components of mode_apply, filtered by entry conditions and
    priorities. Returns a set of (component name, form) pairs."""
    enum = _Enumeration(system, bounds, mode)
    support = frozenset(form)
    out = set()
    for i, results in enum.allowed_components(form, support).items():
        comp = system.components[i]
        if results is None:
            results = enum.activation(comp, form)
        for res in results:
            out.add((comp.name, res))
    if enum.exhausted:
        raise BudgetExceeded("budget exhausted in system_successors", partial=out)
    return out


def gc_successors(system, config):
    """One graph-control step: apply at the label, or appearance-check."""
    by_label = {g.label: g for g in system.gc_rules}
    if config.label not in by_label:
        raise UnknownLabel(config.label)
    g = by_label[config.label]
    form = config.form
    out = set()
    if g.rule.lhs in form:
        rhs = g.rule.rhs
        for pos, s in enumerate(form):
            if s == g.rule.lhs:
                nf = form[:pos] + rhs + form[pos + 1:]
                for l in g.success:
                    out.add(GcConfig(nf, l))
    else:
        for l in g.failure:
            out.add(GcConfig(form, l))
    return out


def enumerate_language(system, mode, max_len, bounds):
    """Breadth-first bounded language computation.

    complete=True iff the search was exhaustive
    (:meth:`_Enumeration.exhaustive`): no budget ran out, and no form that
    the workspace cut weighs ``max_len`` or less.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if max_len > bounds.workspace:
        raise ValueError("max_len exceeds workspace")
    enum = _enumeration(system, bounds, mode, max_len,
                        multiset=len(system.terminals) == 1)
    _parents, words, _hit = _search(enum)
    words = frozenset(w for w in words if len(w) <= max_len)
    return BoundedLanguage(words, max_len, enum.exhaustive())


# ---------------------------------------------------------------------------
# derivation search and trace replay
# ---------------------------------------------------------------------------

def find_derivation(system, mode, target, bounds):
    """A replayable trace deriving ``target``, or None when the search was
    exhaustive within the bounds and did not reach it.

    Raises :class:`BudgetExceeded` when a budget ran out, or a workspace cut
    may have hidden the target (:meth:`_Enumeration.exhaustive`): a cut
    form that weighs no more than the target, and in a non-erasing system
    is no longer than it.
    """
    target = tuple(target)
    # a cut form may reach the target only if it weighs no more than the
    # target; a symbol that the system lacks weighs 1, like a terminal
    weights = system.weights
    enum = _enumeration(system, bounds, mode, len(target),
                        weight=sum(weights.get(s, 1) for s in target))
    enum.keep(frozenset(target))
    parents, _words, hit = _search(enum, target)
    if hit is not None:
        return _build_trace(enum, hit, parents)
    if not enum.exhaustive():
        raise BudgetExceeded(
            f"derivation search for {format_word(target)} was cut by the "
            "bounds"
        )
    return None


def _build_trace(enum, hit, parents):
    """Rebuild the rule applications of each move on the found path."""
    path = [hit]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]][0])
    path.reverse()
    steps = tuple(
        enum.trace_step(config, parents[nxt][1], nxt)
        for config, nxt in zip(path, path[1:])
    )
    return DerivationTrace((enum.system.start,), steps)


def _activation_witness(enum, component, form, result):
    """Rule applications of one activation turning ``form`` into ``result``.

    A product-path activation decomposes into per-position derivations, so
    it has a leftmost witness, which is searched first; a naive-path one
    gets the unrestricted search. Intermediate forms are bounded by
    ``len(result)`` for non-erasing rules; otherwise by the length that
    rewriting the positions one after another can reach. Each search
    stores at most ``form_budget`` states: it visits one state per
    application and position, about n·L for n positions rewritten through
    L steps each, where the activation spent about n + L steps, so the step
    budget would refuse to rebuild results that the search reached.
    """
    conds = component.effective_conditions()
    workspace = enum.bounds.workspace
    if all(r.rhs for r in component.rules):
        limit = len(result)
    else:
        limit = len(form) + len(result) + workspace
    searches = (False,)
    if enum.product_component(component, form) is not None:
        searches = (True, False)
    for leftmost in searches:
        budget = _Budget(enum.bounds.step_budget, enum.bounds.form_budget)
        apps = _witness(component, conds, form, result, enum.mode, leftmost,
                        limit, budget)
        if apps is not None:
            return apps
        if budget.exhausted:
            break
    raise BudgetExceeded(
        f"could not rebuild the {component.name} activation "
        f"{format_word(form)} => {format_word(result)} within the bounds"
    )


def _witness(component, conds, form, result, mode, leftmost, limit, budget):
    """Breadth-first search over (form, frozen prefix, step count) states.

    In a ``leftmost`` search each rewrite is at or right of the previous
    one, and everything left of it must already equal ``result``. With
    (lo, hi) = ``mode.steps``, step counts saturate at lo when hi is None
    and never exceed hi otherwise. Returns the applications, or None.
    """
    lo, hi = mode.steps
    start = (form, 0, 0)
    parents = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        cur, frozen, n = state
        steps = n + 1
        if hi is None:
            steps = min(steps, lo)
        elif steps > hi:
            continue
        done = steps >= lo
        support = set(cur)
        for i, (lhs, permit, forbid) in enumerate(conds):
            if lhs not in support or not permit <= support or forbid & support:
                continue
            rhs = component.rules[i].rhs
            if len(cur) - 1 + len(rhs) > limit:
                continue
            for pos in range(frozen, len(cur)):
                if cur[pos] == lhs:
                    nxt = (cur[:pos] + rhs + cur[pos + 1:],
                           pos if leftmost else 0, steps)
                    if nxt not in parents:
                        if not budget.spend_form():
                            return None
                        parents[nxt] = (state, (i, pos))
                        if done and nxt[0] == result:
                            return _applications(parents, nxt)
                        queue.append(nxt)
                # a leftmost rewrite further right freezes cur[pos]
                if leftmost and cur[pos:pos + 1] != result[pos:pos + 1]:
                    break
    return None


def _applications(parents, state):
    apps = []
    while parents[state] is not None:
        state, app = parents[state]
        apps.append(app)
    return tuple(reversed(apps))


def replay_trace(system, trace):
    """Re-execute a trace, verifying every application. Returns the final form.

    Raises ValueError on any mismatch with the system or the recorded
    intermediate forms: a start form other than the start symbol, an
    unknown component or label, a rule or position out of range, and under
    graph control a label the control graph does not lead to.
    """
    if trace.start != (system.start,):
        raise ValueError(f"replay mismatch: trace starts at "
                         f"{format_word(trace.start)}, not at the start "
                         f"symbol {system.start}")
    if system.kind == "gc":
        return _replay_gc(system, trace)
    form = trace.start
    for step in trace.steps:
        try:
            comp = system.component_named(step.component)
        except KeyError:
            raise ValueError(f"replay mismatch: no component "
                             f"{step.component!r}") from None
        for (idx, pos) in step.applications:
            if not (0 <= idx < len(comp.rules)
                    and rule_applicable(comp, form, idx)):
                raise ValueError(
                    f"replay mismatch: rule {idx} not applicable on "
                    f"{format_word(form)}"
                )
            form = _apply_at(form, comp.rules[idx], pos)
        lo, hi = step.mode.steps
        n = len(step.applications)
        if n < lo or (hi is not None and n > hi):
            raise ValueError(f"replay mismatch: {n} applications in a "
                             f"{step.mode} activation")
        if step.mode.variant == "t" and _has_applicable(
            comp.effective_conditions(), form
        ):
            raise ValueError("replay mismatch: t-activation left a live form")
        if form != step.result:
            raise ValueError("replay mismatch: form differs from record")
    return form


def _replay_gc(system, trace):
    """Replay a graph-control trace: its first label is initial, each next
    label lies in the success field of the previous one when that rule was
    applied and in its failure field when it was not, and the last step
    can move to a final label."""
    rules = {g.label: (i, g) for i, g in enumerate(system.gc_rules)}
    form = trace.start
    reachable = system.init_labels
    for step in trace.steps:
        if step.component not in reachable:
            raise ValueError(f"replay mismatch: control cannot move to "
                             f"label {step.component!r}")
        i, g = rules[step.component]
        if step.applications:
            if len(step.applications) != 1 or step.applications[0][0] != i:
                raise ValueError("replay mismatch: a gc step applies the "
                                 "rule at its label once")
            form = _apply_at(form, g.rule, step.applications[0][1])
            reachable = g.success
        elif g.rule.lhs in form:
            raise ValueError("replay mismatch: failure branch taken on "
                             "an applicable rule")
        else:
            reachable = g.failure
        if form != step.result:
            raise ValueError("replay mismatch: form differs from record")
    if trace.steps and not reachable & system.final_labels:
        raise ValueError("replay mismatch: control cannot move to a final "
                         "label")
    return form


def _apply_at(form, rule, pos):
    if not (0 <= pos < len(form)) or form[pos] != rule.lhs:
        raise ValueError("replay mismatch: lhs not at position")
    return form[:pos] + rule.rhs + form[pos + 1:]
