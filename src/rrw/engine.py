"""Exact derivation semantics: per-component steps, the five cooperation
modes, entry conditions, priorities, graph control, bounded language
enumeration and derivation search.

A mode allows an interval of rule applications per activation
(``Mode.steps``). One component activation ⇒_i^m is computed on one of two
paths, both from the layers of one method,
:meth:`_Enumeration._step_layers`:

* the naive path (:meth:`_Enumeration._naive_mode`, public as
  :func:`mode_apply`, which runs it on a search with no system): the forms
  of the layers from the fewest allowed steps on. It materializes every
  interleaving of the rewrites, so n independent rewrites cost 2^n forms;
* the positionwise product path (:meth:`_Enumeration.activation`). When
  applicability reduces to lhs presence, a derivation decomposes into
  independent per-position derivations whose step counts add up, and the
  results are assembled from one table per symbol
  (:meth:`_Enumeration.position_table`): the subforms of the layers from
  that symbol, each with its layer indices. The assembly
  (:meth:`_Enumeration._assemble`) goes position by position over a map
  from each prefix to the set of its step sums, an int bitmask, so adding
  a table entry's values is one shift-or per value and equal prefixes are
  stored once; a run of equal symbols whose table has one subform is taken
  in one move. It is exact within the workspace for every mode and never
  falls back to the naive path.

Both paths read the mode, the workspace, the cut record and the multiset
flag from the search (:class:`_Enumeration`), which also owns each
activation's step budget: :meth:`_Enumeration.activation` resets it, and
the position tables built inside an activation spend that activation's.

Which path runs where:

* a form with fewer than ``_PRODUCT_MIN_SITES`` rewritable positions (too
  few interleavings to pay for the product path) stays naive, for every
  component in every mode;
* otherwise unregulated components take the product path in every mode;
* ordered and random-context components take it in mode t when their
  regulation cannot change during the activation. Applicability depends
  only on a form's support (its symbol set), so one walk of the abstract
  graph of supports reachable from the form's support decides this
  (:func:`_support_facts`): if every rule's regulation test gives the same
  answer on every reachable support that contains its lhs, the activation
  runs the component's own rules under frozen conditions
  (:meth:`_Enumeration.product_conditions`): an always-enabled rule needs
  only its lhs, and every other rule forbids its own lhs, so it never
  applies. The walk is capped (``_SUPPORT_CAP``), and its answer and the
  frozen conditions are kept per (component, support)
  (:meth:`_Enumeration.facts`); past the cap, or when a test changes, the
  activation stays naive;
* in modes =k, <=k, * and >=k regulated components stay naive. Those
  activations are short (at most k steps, or a closure that the search
  never repeats for the same component), and on small forms a product
  activation costs about ten times a naive one there.

The same walk also prunes the search in mode t: a form is dropped when no
component can end a t-activation on it (no stuck support is reachable).
In the closed modes (*, >=k, t) a form is also dropped when its producer is
the only component with an applicable rule, because the search never
re-activates the producer.

Under component priorities a component blocks a lower one when its own
activation has a result. In the step-count-free modes
(``Mode.step_count_free``: =1, *, <=k, >=1) one rule application is already
an activation, so a component has a result exactly when one of its rules
applies, whatever the workspace cuts: there the check reads applicability
and activates nothing. In the other modes deciding which components may act
activates the higher ones. That activation becomes the move: the search
reuses it instead of activating the component again, and each (component,
form) is activated once. It is the whole relation, computed without a
producer, so it holds every result that the producer's pruning keeps, and
the search filters each result through the same ``useful`` test.

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
Successors are visited in a fixed order, and every layer, frontier and
position table keeps insertion order, so neither a trace nor a result cut
by a budget depends on the string hash seed. Each layer maps a form to the
first (parent, rule index, position) that reached it, so the rule
applications of a move on the found path are read back from the
activation's own layers (:meth:`_Enumeration.trace_step`).
:func:`replay_trace` re-checks every application.

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
  push. :func:`find_derivation`, :func:`mode_apply` and graph control
  search words, because a trace needs positions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Mode, format_word, shortlex_key
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
    form_budget: maximum configurations stored per search (:func:`_search`),
        an enumeration or a derivation search. An activation's results are
        bounded by its step budget alone. A found derivation's trace is read
        from the layers of its activations, which store nothing against the
        form budget.
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


def _has_applicable(conds, form):
    support = set(form)
    for (lhs, permit, forbid) in conds:
        if lhs in support and permit <= support and not (forbid & support):
            return True
    return False


def mode_apply(component, form, mode, bounds):
    """The exact relation ⇒_i^m from ``form``, restricted to the workspace.

    Raises :class:`BudgetExceeded` (with the partial result attached) when the
    step budget runs out before the closure is exhausted.
    """
    # a search with no system and no weight limit, whose cuts read no
    # weights; the result does not say whether the workspace cut it
    enum = _Enumeration(None, bounds, mode)
    result = enum._naive_mode(component, component.effective_conditions(),
                              form)
    if enum.exhausted:
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


def _support_facts(component, conds, support):
    """What the abstract t-mode graph of supports reachable from ``support``
    tells about an activation, as ``(stuck, enabled)``.

    Applying an enabled rule X -> w moves a support S to S ∪ alph(w), and
    also to (S ∪ alph(w)) ∖ {X} when X ∉ w (other occurrences of X may or
    may not remain). Every support that a real derivation passes through is
    a node. ``stuck`` is True when some node enables no rule, so that a
    t-activation may end there; False proves every t-activation from
    ``support`` empty. ``enabled`` is the set of rules enabled throughout
    any activation: it is defined when every rule's regulation test gives
    one answer on every node that contains its lhs, and None otherwise.
    Past ``_SUPPORT_CAP`` nodes the walk stops with ``(True, None)``, and it
    stops as soon as that is the answer.
    """
    seen = {support}
    stack = [support]
    stuck = False
    verdicts = {}
    while stack:
        s = stack.pop()
        live = False
        for i, (lhs, permit, forbid) in enumerate(conds):
            if lhs not in s:
                continue
            ok = permit <= s and not (forbid & s)
            if verdicts is not None and verdicts.setdefault(i, ok) != ok:
                verdicts = None
            if ok:
                live = True
                rhs = component.rules[i].rhs
                grown = s.union(rhs)
                for nxt in (grown,) if lhs in rhs else (grown, grown - {lhs}):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        stuck = stuck or not live
        if len(seen) > _SUPPORT_CAP or (stuck and verdicts is None):
            return True, None
    return stuck, None if verdicts is None else frozenset(
        i for i, ok in verdicts.items() if ok)


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
    (see the module docstring).

    The search keeps three caches: the position tables with their layers
    (:meth:`position_table`), the components that can act on each support
    (:meth:`useful`), and each (component, support)'s answer from the
    support graph (:meth:`facts`).

    ``steps_left`` is the step budget of the current activation:
    :meth:`activation` resets it (and :meth:`trace_step`, for an activation
    it runs again), and a priority check's activation and every position
    table built inside an activation spend that activation's. Overdrawing
    it sets ``exhausted``, which nothing resets during a search."""

    def __init__(self, system, bounds, mode, multiset=False, limit=None,
                 length=None):
        self.system = system
        self.bounds = bounds
        self.mode = mode
        self.multiset = multiset
        self.limit = limit
        self.length = length
        self._tables = {}
        self._acting = {}
        self._facts = {}
        self.truncated = False
        self.exhausted = False
        self.steps_left = bounds.step_budget

    # -- one activation -----------------------------------------------------

    def spend_steps(self, n=1):
        """Spend ``n`` steps of the activation's budget; False once it is
        overdrawn."""
        self.steps_left -= n
        if self.steps_left < 0:
            self.exhausted = True
            return False
        return True

    def _step_layer(self, component, conds, forms):
        """One ⇒ layer over the forms ``forms``: a dict from each successor
        to the first (form, rule index, position) that produced it, in
        expansion order (forms in order, then rules, then positions). Each
        rule application that the workspace cuts is reported to :meth:`cut`.
        In a multiset search the forms are sorted, each enabled rule is
        applied once, at the first occurrence of its lhs (every occurrence
        gives the same multiset), and each successor is sorted."""
        workspace = self.bounds.workspace
        out = {}
        for form in forms:
            support = set(form)
            for i, (lhs, permit, forbid) in enumerate(conds):
                if lhs not in support or not permit <= support \
                        or forbid & support:
                    continue
                rhs = component.rules[i].rhs
                if len(form) - 1 + len(rhs) > workspace:
                    self.cut(len(form) - 1 + len(rhs), _apply_at, form,
                             component.rules[i], form.index(lhs))
                    continue
                if self.multiset:
                    if not self.spend_steps():
                        return out
                    pos = form.index(lhs)
                    out.setdefault(tuple(sorted(form[:pos] + rhs
                                                + form[pos + 1:])),
                                   (form, i, pos))
                    continue
                for pos, s in enumerate(form):
                    if s == lhs:
                        if not self.spend_steps():
                            return out
                        out.setdefault(form[:pos] + rhs + form[pos + 1:],
                                       (form, i, pos))
        return out

    def _step_layers(self, component, conds, seed):
        """The ⇒ layers from the forms of the dict ``seed`` (each mapped to
        None) that the mode needs: ``layers[j]`` maps each of its forms to
        its first parent entry in ``layers[j - 1]`` (see
        :meth:`_step_layer`).

        With (lo, hi) = ``mode.steps`` and cap = hi, or lo when hi is None,
        ``layers[j]`` holds the forms reached in exactly j steps for j <=
        cap. When hi is None the ⇒* closure follows, one layer per step,
        each holding only the forms that no layer from cap on holds.
        """
        lo, hi = self.mode.steps
        cap = lo if hi is None else hi
        layers = [seed]
        for _ in range(cap):
            layers.append(self._step_layer(component, conds, layers[-1]))
        if hi is None:
            seen = set(layers[cap])
            # the activation's own budget: an earlier one may have set
            # ``exhausted``
            while layers[-1] and self.steps_left >= 0:
                layer = {f: parent for f, parent in self._step_layer(
                    component, conds, layers[-1]).items() if f not in seen}
                seen.update(layer)
                layers.append(layer)
        return layers

    def _naive_mode(self, component, conds, form):
        """Exact ⇒_i^m result set on the naive path: the forms of the layers
        from ``lo`` steps on, in mode t only the stuck ones, sorted in a
        multiset search."""
        layers = self._step_layers(component, conds, {form: None})
        results = frozenset().union(*layers[self.mode.steps[0]:])
        if self.mode.variant == "t":
            return frozenset(f for f in results
                             if not _has_applicable(conds, f))
        return results

    def position_table(self, component, conds, symbol):
        """The product path's table for one position holding ``symbol``,
        built once per search and set of conditions ``conds`` (see
        :meth:`product_conditions`): each subform of the
        :meth:`_step_layers` from ``(symbol,)`` (sorted with ``multiset``;
        in mode t only the stuck ones), mapped to the ascending tuple of the
        indices of its layers, the step values that :meth:`_assemble` shifts
        its sum masks by. The table is kept with its layers, for
        :meth:`trace_step`, under ``(id(conds), symbol)``; every tuple of
        conditions lives as long as the search (a component's own, or one
        kept by :meth:`facts`). A cut subform is weighed alone, a lower
        bound on any form that holds it; its cut is recorded when the table
        is built, and ``truncated`` never resets, so the cached table needs
        no flag."""
        key = (id(conds), symbol)
        entry = self._tables.get(key)
        if entry is None:
            layers = self._step_layers(component, conds, {(symbol,): None})
            maximal = self.mode.variant == "t"
            table = {}
            for j, layer in enumerate(layers):
                for f in layer:
                    if not (maximal and _has_applicable(conds, f)):
                        table[f] = table.get(f, ()) + (j,)
            entry = self._tables[key] = (table, layers)
        return entry[0]

    def _assemble(self, tables, producer):
        """The results of one product-path activation, built position by
        position over a map from each prefix to its step sums, with support,
        length and step pruning.

        Step values add up across positions: with (lo, hi) = ``mode.steps``
        and cap as in :meth:`_step_layers`, a sum saturates at cap + 1 when
        hi is set and at cap otherwise, and a result needs a sum in lo..cap.
        A set of sums is an int mask (bit s for sum s), so adding a table
        entry's values is one shift-or per value.

        In a multiset search the tables hold sorted subforms and each prefix
        is sorted, so the permutations of one multiset merge into one entry
        as they are built. Each new entry of the map is one push on the
        activation's step budget, so the budget also bounds the results.
        Equal symbols share one table, and a run of positions whose table
        has one subform is taken in one move that spends one push per
        position, as the positions one by one would.

        With a ``producer`` (see :meth:`useful`), a prefix whose every
        completion has a useless support is dropped; None keeps every
        result.

        A prefix that the workspace cuts is reported to :meth:`cut` with its
        lightest completion (:meth:`completion`).
        """
        n = len(tables)
        if not all(tables):
            return frozenset()  # some position has no valid yield
        # minimal total length of positions i..n-1, and with a producer the
        # achievable support unions of positions i..n-1 (None = too many to
        # track) with a memo of the prefix supports that can still complete
        # to a useful one; the positions of a run of one table share both
        # once the unions stop growing
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

        lo, hi = self.mode.steps
        cap = lo if hi is None else hi
        top = 1 << (cap if hi is None else cap + 1)  # the saturated sum
        below = top - 1
        # a mask without these bits holds only the saturated sum, above hi
        himask = -1 if hi is None else below
        kept = (1 << cap + 1) - (1 << lo)
        multiset = self.multiset
        workspace = self.bounds.workspace
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
                        self.cut(length + len(f) + tail, self.completion,
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
                                self.useful(grown | t, producer)
                                for t in sups[0])
                        if not viable:
                            continue
                    if not self.spend_steps(pushes):
                        return frozenset()
                    nxt[key] = (new, grown)
            states = nxt
            i = j

        # the pruning above already tested each result's support
        return frozenset(form for form, (sums, _support) in states.items()
                         if sums & kept)

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
                    and (not maximal or self.facts(comp, conds, support)[0]):
                acting.append(i)
                if len(acting) == 2:
                    break
        return acting

    def facts(self, component, conds, support):
        """``(stuck, frozen)`` for an activation of ``component``, whose
        conditions are ``conds``, on a form with this support, from one walk
        of the support graph (:func:`_support_facts`), kept per (component,
        support): whether a t-activation can end, and the frozen conditions
        when the regulation never changes, else None. Frozen, a rule that is
        always enabled needs only its lhs, and every other rule forbids its
        own lhs, so it never applies."""
        key = (id(component), support)
        facts = self._facts.get(key)
        if facts is None:
            stuck, enabled = _support_facts(component, conds, support)
            frozen = None if enabled is None else tuple(
                (lhs, frozenset(),
                 frozenset() if i in enabled else frozenset({lhs}))
                for i, (lhs, _permit, _forbid) in enumerate(conds))
            facts = self._facts[key] = (stuck, frozen)
        return facts

    def product_conditions(self, component, form):
        """The condition triples, one per rule of ``component``, under which
        the product path computes this activation exactly, or None when the
        naive path runs (fewer than ``_PRODUCT_MIN_SITES`` rewritable
        positions, or regulation that may change). An unregulated component
        runs under its own conditions. A regulated one in mode t whose rules
        keep one verdict on every reachable support runs under the frozen
        conditions of :meth:`facts`, one tuple per (component, support), so
        each support has its own position tables."""
        lhs_set = component.lhs_set
        if sum(s in lhs_set for s in form) < _PRODUCT_MIN_SITES:
            return None
        conds = component.effective_conditions()
        if component.unregulated:
            return conds
        if self.mode.variant != "t":
            return None
        return self.facts(component, conds, frozenset(form))[1]

    def activation(self, component, form, producer=None):
        """Exact ⇒_i^m results within bounds, on the product path where that
        is exact: without per-rule conditions any interleaving of
        per-position derivations is valid and step counts add up across
        positions, so :meth:`_assemble` combines the :meth:`position_table`
        of each position. With a ``producer`` the product path drops results
        that :meth:`useful` rejects; None returns the whole relation. Each
        activation starts with the whole step budget."""
        conds = component.effective_conditions()
        if not _has_applicable(conds, form):
            return frozenset()  # every mode makes at least one application
        self.steps_left = self.bounds.step_budget
        frozen = self.product_conditions(component, form)
        if frozen is None:
            return self._naive_mode(component, conds, form)
        return self._assemble(
            [self.position_table(component, frozen, s) for s in form],
            producer)

    def allowed_components(self, form, support):
        """The components permitted to act on ``form`` (entry + priority),
        as a dict from index to the activation results that the priority
        check computed, or None where it computed none. The results are the
        whole relation (no producer), so a move may reuse them.

        Priorities are decided in one pass over the live components, greater
        first. The order is transitively closed, so a greater component has
        fewer greater ones and is decided before any lesser one asks whether
        it blocks. An allowed component is activated only when a lesser one
        asks, and each lesser one stops at the first greater one with a
        result; a component that is not live or is blocked has none. In a
        step-count-free mode (``Mode.step_count_free``) a component has a
        result exactly when one of its rules applies, however long the
        result, so there the check reads applicability and activates
        nothing."""
        system = self.system
        live = [
            i for i, comp in enumerate(system.components)
            if _entry_ok(comp, support)
        ]
        order = system.component_order
        if not order:
            return dict.fromkeys(live)
        allowed = {}

        def blocks(g):
            comp = system.components[g]
            if self.mode.step_count_free:
                return _has_applicable(comp.effective_conditions(), form)
            if allowed[g] is None:
                allowed[g] = self.activation(comp, form)
            return bool(allowed[g])

        for _rank, i in sorted((len(order.greater_than(i)), i) for i in live):
            if not any(blocks(g) for g in order.greater_than(i)
                       if g in allowed):
                allowed[i] = None
        return dict(sorted(allowed.items()))

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
        in ``tables[i:]``: the lightest result that extends ``form``. Each
        call weighs its tables afresh: :meth:`cut` builds it only for a cut
        that neither the non-erasing length test nor an earlier counted cut
        has settled."""
        weight = self.system.weights.__getitem__
        for table in tables[i:]:
            form += min(table, key=lambda f: sum(map(weight, f)))
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
        """The :class:`TraceStep` of one move on the found path: the rule
        applications that turn ``form`` into ``result``, read back through
        the parents of the activation's own layers (:func:`_walk`). The
        naive path runs the activation again, with the whole step budget, as
        the search did, and walks back from the first layer from ``lo`` on
        that holds ``result``. On the product path ``result`` splits into
        one subform per position (:meth:`_split`); the layers kept with
        each position's table (:meth:`position_table`) give its
        applications, offset by the subforms placed left of it."""
        comp = self.system.components[move]
        conds = self.product_conditions(comp, form)
        if conds is None:
            self.steps_left = self.bounds.step_budget
            layers = self._step_layers(comp, comp.effective_conditions(),
                                       {form: None})
            j = next(j for j in range(self.mode.steps[0], len(layers))
                     if result in layers[j])
            apps = _walk(layers, j, result)
        else:
            tables = self._tables
            apps = [
                (i, offset + pos)
                for symbol, (offset, f, j) in zip(
                    form, self._split(comp, conds, form, result))
                for i, pos in _walk(tables[id(conds), symbol][1], j, f)
            ]
        return TraceStep(comp.name, self.mode, tuple(apps), result)

    def _split(self, component, conds, form, result):
        """An (offset, subform, step value) triple per position of ``form``:
        a subform of the position's table (:meth:`position_table`) that
        ``result`` holds at the offset, such that the subforms fill
        ``result`` and the step values sum into the mode's interval, the
        least such sum. One pass of :meth:`_assemble`'s shape over offsets
        into ``result``, whose sums saturate as there; the first choices
        that reach each (offset, sum) are kept."""
        lo, hi = self.mode.steps
        cap = lo if hi is None else hi
        top = cap if hi is None else cap + 1
        states = {(0, 0): ()}
        for symbol in form:
            nxt = {}
            for (offset, total), picks in states.items():
                for f, values in self.position_table(component, conds,
                                                     symbol).items():
                    end = offset + len(f)
                    if result[offset:end] == f:
                        for j in values:
                            nxt.setdefault((end, min(total + j, top)),
                                           picks + ((offset, f, j),))
            states = nxt
        return states[min(key for key in states
                          if key[0] == len(result) and lo <= key[1] <= cap)]


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
        idx, g = self.system.gc_labels[move]
        rule = g.rule
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
    configs_left = enum.bounds.form_budget
    while queue and not enum.exhausted:
        config, producer = queue.popleft()
        form = enum.final_form(config)
        if form is not None and terminals.issuperset(form):
            words.append(form)
            continue
        for nxt, move, mark in enum.successors(config, producer):
            if nxt in parents:
                continue
            configs_left -= 1
            if configs_left < 0:
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
    if config.label not in system.gc_labels:
        raise UnknownLabel(config.label)
    g = system.gc_labels[config.label][1]
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
    """The trace of the found path: each move's rule applications
    (:meth:`_Enumeration.trace_step`)."""
    configs, moves = _path(parents, hit)
    steps = tuple(
        enum.trace_step(config, move, nxt)
        for config, move, nxt in zip(configs, moves, configs[1:])
    )
    return DerivationTrace((enum.system.start,), steps)


def _path(parents, hit):
    """The configurations of a :func:`_search` from a start to ``hit``, and
    the moves between them."""
    configs, moves = [hit], []
    while parents[configs[-1]] is not None:
        config, move = parents[configs[-1]]
        configs.append(config)
        moves.append(move)
    return tuple(reversed(configs)), tuple(reversed(moves))


def _walk(layers, j, form):
    """The (rule index, position) applications that lead from the seed in
    ``layers[0]`` to ``form`` in ``layers[j]``, read back through each
    layer's parent entries (:meth:`_Enumeration._step_layers`)."""
    apps = []
    for layer in reversed(layers[1:j + 1]):
        form, i, pos = layer[form]
        apps.append((i, pos))
    return apps[::-1]


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
    form = trace.start
    reachable = system.init_labels
    for step in trace.steps:
        if step.component not in reachable:
            raise ValueError(f"replay mismatch: control cannot move to "
                             f"label {step.component!r}")
        i, g = system.gc_labels[step.component]
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
