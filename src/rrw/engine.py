"""Exact derivation semantics: per-component steps, the five cooperation
modes, entry conditions, priorities, graph control, bounded language
enumeration and derivation search.

One component activation ⇒_i^m is computed on one of two paths:

* the naive layered closure (``_naive_mode``, public as ``mode_apply``), the
  reference semantics. It materializes every interleaving of the rewrites,
  so n independent rewrites cost 2^n forms;
* the positionwise product path (``_product_results``). When applicability
  reduces to lhs presence, a derivation decomposes into independent
  per-position derivations whose step counts add up, and the results are
  assembled from per-symbol reachability layers.

Which path runs where:

* unregulated components take the product path in every mode;
* ordered and random-context components take it in mode t when their
  regulation cannot change during the activation. Applicability depends
  only on a form's support (its symbol set), so the abstract graph of
  supports reachable from the form's support decides this
  (:func:`_support_graph`): if every rule's regulation test gives the same
  answer on every reachable support that contains its lhs, the activation
  equals that of the unregulated component made of the always-enabled
  rules. The graph is capped (``_SUPPORT_CAP``) and memoised per
  (component, support); past the cap, when a test changes, or when the form
  has fewer than ``_PRODUCT_MIN_SITES`` rewritable positions (too few
  interleavings to pay for the product path), the activation stays naive;
* in modes =k, <=k, * and >=k regulated components stay naive. Those
  activations are short (at most k steps, or a closure that the search
  never repeats for the same component), and on small forms a product
  activation costs about ten times a naive one there.

The same graph also prunes the search in mode t: a form is dropped when
no component can end a t-activation on it (no stuck support is reachable).
In the closed modes (*, >=k, t) a form is also dropped when its producer is
the only component with an applicable rule, because the search never
re-activates the producer.

Both paths are exact on complete runs, and ``tests/test_engine.py`` checks
one against the other on every corpus component and mode. The one known
difference: the product path bounds each position's subform by the
workspace, not the whole intermediate form. When a workspace truncation cuts
the naive path, the product path may therefore return a strict superset:
real results whose every derivation passes through a form longer than the
workspace (for example on ``cf_star``, which has an erasing rule).

:func:`enumerate_language` and :func:`find_derivation` share one breadth-first
search (:func:`_search`) over configurations: forms, whose moves are component
activations, or for graph control (form, label) pairs (:class:`GcConfig`),
whose moves apply the rule at the label once or take its failure branch.
Successors are visited in sorted order, so a trace does not depend on the
string hash seed. Rule applications are rebuilt only for the moves on the
found path; :func:`replay_trace` re-checks every one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Component, Mode, format_word
from .errors import BudgetExceeded, UnknownLabel


@dataclass(frozen=True)
class StepBounds:
    """Resource bounds making closure computations finite.

    workspace: maximum sentential-form length explored;
    step_budget: maximum rule applications per activation (in mode_apply,
        enumeration, derivation search and its trace rebuild); a graph
        control move is one application, so there it never binds;
    form_budget: maximum configurations stored per enumeration or search,
        and results assembled per product-path activation.
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
        return sorted(self.words, key=lambda w: (len(w), w))


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


def _step_layer(component, conds, forms, workspace, budget):
    """One ⇒ layer over a set of forms. Returns (successors, truncated)."""
    out = set()
    truncated = False
    for form in forms:
        support = set(form)
        for i, (lhs, permit, forbid) in enumerate(conds):
            if lhs in support and permit <= support and not (forbid & support):
                rhs = component.rules[i].rhs
                if len(form) - 1 + len(rhs) > workspace:
                    truncated = True
                    continue
                for pos, s in enumerate(form):
                    if s == lhs:
                        if not budget.spend_steps():
                            return out, truncated
                        out.add(form[:pos] + rhs + form[pos + 1:])
    return out, truncated


def _closure(component, conds, seeds, workspace, budget):
    """⇒* closure of a set of forms. Returns (visited set, truncated)."""
    visited = set(seeds)
    frontier = set(seeds)
    truncated = False
    while frontier and not budget.exhausted:
        nxt, trunc = _step_layer(component, conds, frontier, workspace, budget)
        truncated = truncated or trunc
        frontier = nxt - visited
        visited |= frontier
    return visited, truncated


def _has_applicable(conds, form):
    support = set(form)
    return any(
        lhs in support and permit <= support and not (forbid & support)
        for (lhs, permit, forbid) in conds
    )


def _naive_mode(component, conds, form, mode, workspace, budget):
    """Exact ⇒_i^m result set. Returns (frozenset, truncated)."""
    truncated = False
    if mode.variant == "t":
        if not _has_applicable(conds, form):
            return frozenset(), False
        visited, truncated = _closure(component, conds, {form}, workspace, budget)
        stuck = frozenset(f for f in visited if not _has_applicable(conds, f))
        return stuck, truncated
    if mode.variant == "*":
        layer, trunc = _step_layer(component, conds, {form}, workspace, budget)
        truncated = truncated or trunc
        visited, trunc = _closure(component, conds, layer, workspace, budget)
        return frozenset(visited), truncated or trunc
    k = mode.k
    layer = {form}
    layers = []
    for _ in range(k):
        layer, trunc = _step_layer(component, conds, layer, workspace, budget)
        truncated = truncated or trunc
        layers.append(layer)
        if not layer:
            break
    if mode.variant == "=":
        return frozenset(layers[-1] if len(layers) == k else ()), truncated
    if mode.variant == "<=":
        out = set()
        for l in layers:
            out |= l
        return frozenset(out), truncated
    # ">=": single-step closure of the =k set
    seeds = layers[-1] if len(layers) == k else set()
    visited, trunc = _closure(component, conds, seeds, workspace, budget)
    return frozenset(visited), truncated or trunc


def mode_apply(component, form, mode, bounds):
    """The exact relation ⇒_i^m from ``form``, restricted to the workspace.

    Raises :class:`BudgetExceeded` (with the partial result attached) when the
    step budget runs out before the closure is exhausted.
    """
    budget = _Budget(bounds.step_budget, bounds.form_budget)
    result, _ = _naive_mode(
        component, component.effective_conditions(), form, mode,
        bounds.workspace, budget,
    )
    if budget.exhausted:
        raise BudgetExceeded(
            f"step budget exhausted in mode_apply({mode})", partial=result
        )
    return result


# ---------------------------------------------------------------------------
# positionwise product path (used by enumeration and derivation search)
# ---------------------------------------------------------------------------

_LAYER_CAP = 200  # max layers computed per symbol before giving up on a cycle
_SUPPORT_CAP = 64  # max supports explored per abstract support graph
# Fewest rewritable positions for which a regulated component is specialised:
# below it the naive closure has few interleavings and is cheaper.
_PRODUCT_MIN_SITES = 4


class _SymbolLayers:
    """Per-symbol reachability layers under one unregulated component.

    layers[j] = forms reachable from the single symbol in exactly j steps.
    The deterministic layer sequence is computed until it revisits a value
    (cycle_start/cycle_end) so unions over unbounded step counts are finite.
    """

    __slots__ = ("layers", "cycle_start", "cycle_end", "truncated", "stuck",
                 "workspace", "_choices")

    def __init__(self, component, conds, symbol, workspace, budget):
        lhs_set = {lhs for (lhs, _p, _f) in conds}
        seq = [frozenset({(symbol,)})]
        seen = {seq[0]: 0}
        self.truncated = False
        self.cycle_start = None
        self.cycle_end = None
        self.workspace = workspace
        self._choices = {}
        while True:
            nxt, trunc = _step_layer(component, conds, seq[-1], workspace, budget)
            self.truncated = self.truncated or trunc
            nxt = frozenset(nxt)
            if budget.exhausted:
                self.truncated = True
                break
            if nxt in seen:
                self.cycle_start = seen[nxt]
                self.cycle_end = len(seq)
                break
            seen[nxt] = len(seq)
            seq.append(nxt)
            if len(seq) > _LAYER_CAP:
                self.truncated = True
                break
        self.layers = seq
        all_forms = set()
        for l in seq:
            all_forms |= l
        self.stuck = frozenset(
            f for f in all_forms if not (set(f) & lhs_set)
        )

    def exact(self, j):
        """Forms reachable in exactly j steps (None if unknown past the cap)."""
        if j < len(self.layers):
            return self.layers[j]
        if self.cycle_start is None:
            return None
        period = self.cycle_end - self.cycle_start
        return self.layers[self.cycle_start + (j - self.cycle_start) % period]

    def union_from(self, j):
        """Union of layers j, j+1, ... (None if unknown past the cap)."""
        if self.cycle_start is None:
            return None
        out = set()
        for i in range(min(j, self.cycle_start), len(self.layers)):
            if i >= j or i >= self.cycle_start:
                out |= self.layers[i]
        return frozenset(out)

    def choices(self, mode, kcap):
        """Cached :func:`_position_choices` table for this mode and kcap."""
        key = "t" if mode.variant == "t" else (mode.variant in (">=", "*"), kcap)
        if key not in self._choices:
            self._choices[key] = _position_choices(self, mode, kcap)
        return self._choices[key]


_GE = -1  # sentinel step value: "more than K steps achievable"


def _position_choices(info, mode, kcap):
    """Per-position (subform -> step-value set) table for the product path.

    Step values are exact counts 0..kcap, plus _GE meaning "> kcap achievable".
    In mode t the table holds the stuck subforms (step value 0). Returns None
    if the layer data is too incomplete to be exact.
    """
    if mode.variant == "t":
        if info.cycle_start is None:
            return None
        return {f: (0,) for f in info.stuck}
    choices = {}
    for j in range(kcap + 1):
        layer = info.exact(j)
        if layer is None:
            return None
        for f in layer:
            if len(f) <= info.workspace:
                choices.setdefault(f, set()).add(j)
    if mode.variant in (">=", "*"):
        beyond = info.union_from(kcap + 1)
        if beyond is None:
            return None
        for f in beyond:
            if len(f) <= info.workspace:
                choices.setdefault(f, set()).add(_GE)
    return choices


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


def _product_results(enum, component, form, mode, budget, producer):
    """Activation results via positionwise decomposition (unregulated only).

    Exact: without per-rule conditions, any interleaving of per-position
    derivations is valid and step counts add up across positions. Returns
    (None, truncated) when the layer data is too incomplete to be exact.
    """
    kcap = 0 if mode.variant == "t" else (1 if mode.variant == "*" else mode.k)
    tables = []
    truncated = False
    for s in form:
        info = enum.symbol_layers(component, s, budget)
        truncated = truncated or info.truncated
        table = info.choices(mode, kcap)
        if table is None:
            return None, truncated
        tables.append(table)
    results, trunc = _assemble(
        enum, tables, mode, kcap, enum.bounds.workspace, budget, producer
    )
    return results, truncated or trunc


def _sum_feasible(sums, mode, kcap):
    if mode.variant == "=":
        return kcap in sums
    if mode.variant == "<=":
        return any(1 <= s <= kcap for s in sums)
    # ">=", "*" and "t": need total >= kcap (kcap = 1 for "*", 0 for "t")
    return any(s >= kcap for s in sums)


def _assemble(enum, tables, mode, kcap, workspace, budget, producer):
    """DFS over per-position choices with support, length and step pruning.

    With a ``producer`` (see :meth:`_Enumeration.useful`), partial choices
    whose every completion has a useless support are cut; None keeps every
    result.
    """
    n = len(tables)
    if not all(tables):
        return frozenset(), False  # some position has no valid yield
    # minimal total length of positions i..n-1
    min_tail = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        min_tail[i] = min_tail[i + 1] + min(len(f) for f in tables[i])
    # achievable support unions of positions i..n-1 (None = too many to track)
    tail_sups = [None] * (n + 1)
    if producer is not None:
        tail_sups[n] = {frozenset()}
        for i in range(n - 1, -1, -1):
            if tail_sups[i + 1] is None:
                break
            sups = set()
            for f in tables[i]:
                fs = frozenset(f)
                sups.update(fs | t for t in tail_sups[i + 1])
                if len(sups) > 64:
                    sups = None
                    break
            tail_sups[i] = sups

    saturate = kcap + 1
    results = set()
    truncated = False
    stack = [(0, (), 0, frozenset(), {0})]
    while stack:
        i, prefix, length, support, sums = stack.pop()
        if i == n:
            if _sum_feasible(sums, mode, kcap) and (
                producer is None or enum.useful(support, producer)
            ):
                if budget.spend_form():
                    results.add(prefix)
                else:
                    truncated = True
                    break
            continue
        if tail_sups[i] is not None and not any(
            enum.useful(support | t, producer) for t in tail_sups[i]
        ):
            continue
        for f, values in tables[i].items():
            new_len = length + len(f)
            if new_len + min_tail[i + 1] > workspace:
                truncated = True
                continue
            new_sums = set()
            for a in sums:
                for b in values:
                    if b == _GE or a == saturate:
                        new_sums.add(saturate)
                    else:
                        new_sums.add(min(a + b, saturate))
            if mode.variant in ("=", "<=") and min(new_sums) > kcap:
                continue
            if not budget.spend_steps():
                truncated = True
                stack.clear()
                break
            stack.append(
                (i + 1, prefix + f, new_len, support | frozenset(f), new_sums)
            )
    return frozenset(results), truncated


# ---------------------------------------------------------------------------
# system-level semantics
# ---------------------------------------------------------------------------

def _entry_ok(component, support):
    return component.entry is None or component.entry.holds(support)


class _Enumeration:
    """Shared caches and counters for one search under one mode, and the
    moves of that search: configurations are forms, a move is a component
    activation. :class:`_GcEnumeration` overrides the four moves."""

    def __init__(self, system, bounds, mode):
        self.system = system
        self.bounds = bounds
        self.mode = mode
        self._conds = {}
        self._layers = {}
        self._stable = {}
        self._restricted = {}
        self._acting = {}
        self.truncated = False
        self.exhausted = False
        self._eff = [
            (c, self.conds(c)) for c in system.components
        ]
        self._order_pairs = (
            system.component_order.pairs
            if system.component_order is not None
            else frozenset()
        )

    def conds(self, component):
        key = id(component)
        if key not in self._conds:
            self._conds[key] = component.effective_conditions()
        return self._conds[key]

    def symbol_layers(self, component, symbol, budget):
        key = (id(component), symbol)
        if key not in self._layers:
            self._layers[key] = _SymbolLayers(
                component, self.conds(component), symbol,
                self.bounds.workspace, budget,
            )
        return self._layers[key]

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
        for i, (comp, conds) in enumerate(self._eff):
            if not _entry_ok(comp, support):
                continue
            for (lhs, permit, forbid) in conds:
                if lhs in support and permit <= support \
                        and not (forbid & support):
                    if not maximal or _reaches_stuck(comp, conds, support):
                        acting.append(i)
                    break
            if len(acting) == 2:
                break
        return acting

    def product_component(self, component, form, mode):
        """The unregulated component whose product path computes this
        activation exactly, or None when only the naive path does."""
        if component.unregulated:
            return component
        lhs_set = component.lhs_set
        if mode.variant != "t" or \
                sum(s in lhs_set for s in form) < _PRODUCT_MIN_SITES:
            return None
        key = (id(component), frozenset(form))
        if key not in self._stable:
            self._stable[key] = _stable_rules(
                component, self.conds(component), key[1]
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

    def activation(self, component, form, mode, producer=None):
        """Exact ⇒_i^m results within bounds, on the product path where that
        is exact. With a ``producer`` the product path drops results that
        :meth:`useful` rejects; None returns the whole relation."""
        conds = self.conds(component)
        budget = _Budget(self.bounds.step_budget, self.bounds.form_budget)
        results = None
        product = self.product_component(component, form, mode)
        if product is not None:
            if not _has_applicable(conds, form):
                return frozenset()
            results, trunc = _product_results(
                self, product, form, mode, budget, producer
            )
        if results is None:
            results, trunc = _naive_mode(
                component, conds, form, mode, self.bounds.workspace, budget
            )
        self.truncated = self.truncated or trunc
        if budget.exhausted:
            self.exhausted = True
        return results

    def allowed_components(self, form, mode, support):
        """Component indices permitted to act on ``form`` (entry + priority)."""
        system = self.system
        live = [
            i for i, comp in enumerate(system.components)
            if _entry_ok(comp, support)
        ]
        if not self._order_pairs:
            return live
        live_set = set(live)
        nonempty = {}

        def rel_nonempty(i):
            # nonemptiness of ⇒_i^{m,>} (priority-filtered relation)
            if i not in nonempty:
                if i not in live_set or blocked(i):
                    nonempty[i] = False
                else:
                    nonempty[i] = bool(
                        self.activation(system.components[i], form, mode)
                    )
            return nonempty[i]

        def blocked(i):
            return any(
                rel_nonempty(g)
                for (g, l) in self._order_pairs
                if l == i
            )

        return [i for i in live if not blocked(i)]

    def exhaustive(self, length):
        """True if the search was exhaustive for forms of this length: no
        budget ran out, and no workspace truncation can hide such a form."""
        return not self.exhausted and (
            not self.truncated
            or (self.system.non_erasing and self.bounds.workspace >= length)
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
        the producer that the successor's own expansion skips."""
        mode = self.mode
        # Re-activating the producing component is redundant for
        # transitively closed modes: two consecutive >=k (or *, or t)
        # activations of one component compose into a single one, so the
        # results were already emitted when the parent form was expanded.
        closed = mode.variant in ("*", ">=", "t")
        for i in self.allowed_components(form, mode, frozenset(form)):
            if i == producer:
                continue
            mark = i if closed else -1
            results = self.activation(self.system.components[i], form, mode,
                                      mark)
            for res in sorted(results):
                if self.useful(frozenset(res), mark):
                    yield res, i, mark
            if self.exhausted:
                return

    def trace_step(self, form, move, result):
        """The :class:`TraceStep` of one move on the found path."""
        comp = self.system.components[move]
        apps = _activation_witness(self, comp, form, result, self.mode)
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
                self.truncated = True
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


def _enumeration(system, bounds, mode):
    """The search state for ``system``: over (form, label) configurations
    for graph control, over forms for every other kind."""
    cls = _GcEnumeration if system.kind == "gc" else _Enumeration
    return cls(system, bounds, mode)


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
    for i in enum.allowed_components(form, mode, support):
        comp = system.components[i]
        for res in enum.activation(comp, form, mode):
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

    complete=True iff the closure was exhausted within bounds, or every
    truncation is covered by the non-erasing workspace guarantee.
    """
    if max_len > bounds.workspace:
        raise ValueError("max_len exceeds workspace")
    enum = _enumeration(system, bounds, mode)
    _parents, words, _hit = _search(enum)
    words = frozenset(w for w in words if len(w) <= max_len)
    return BoundedLanguage(words, max_len, enum.exhaustive(max_len))


# ---------------------------------------------------------------------------
# derivation search and trace replay
# ---------------------------------------------------------------------------

def find_derivation(system, mode, target, bounds):
    """A replayable trace deriving ``target``, or None when the search was
    exhaustive within the bounds and did not reach it.

    Raises :class:`BudgetExceeded` when a budget, or a workspace truncation
    that the non-erasing guarantee does not cover, cut the search.
    """
    target = tuple(target)
    enum = _enumeration(system, bounds, mode)
    enum.keep(frozenset(target))
    parents, _words, hit = _search(enum, target)
    if hit is not None:
        return _build_trace(enum, hit, parents)
    if not enum.exhaustive(len(target)):
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


def _activation_witness(enum, component, form, result, mode):
    """Rule applications of one activation turning ``form`` into ``result``.

    A product-path activation decomposes into per-position derivations, so
    it has a leftmost witness, which is searched first; a naive-path one
    gets the unrestricted search. Intermediate forms are bounded by
    ``len(result)`` for non-erasing rules; otherwise by the length that
    rewriting the positions one after another can reach.
    """
    conds = enum.conds(component)
    workspace = enum.bounds.workspace
    if all(r.rhs for r in component.rules):
        limit = len(result)
    else:
        limit = len(form) + len(result) + workspace
    searches = (False,)
    if enum.product_component(component, form, mode) is not None:
        searches = (True, False)
    for leftmost in searches:
        budget = _Budget(enum.bounds.step_budget, enum.bounds.form_budget)
        apps = _witness(component, conds, form, result, mode, leftmost, limit,
                        budget)
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
    one, and everything left of it must already equal ``result``. Step
    counts saturate at k (at 1 for * and t); =k and <=k never exceed k.
    Returns the applications, or None.
    """
    cap = mode.k or 1
    exact = mode.variant in ("=", "<=")
    start = (form, 0, 0)
    parents = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        cur, frozen, n = state
        steps = n + 1 if exact else min(n + 1, cap)
        if steps > cap:
            continue
        done = steps == cap or mode.variant == "<="
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
                        if not budget.spend_steps():
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

    Raises ValueError on any mismatch with the recorded intermediate forms.
    """
    form = trace.start
    for step in trace.steps:
        if system.kind == "gc":
            by_label = {g.label: g for g in system.gc_rules}
            g = by_label[step.component]
            if step.applications:
                (_idx, pos) = step.applications[0]
                if form[pos] != g.rule.lhs:
                    raise ValueError("replay mismatch: lhs not at position")
                form = form[:pos] + g.rule.rhs + form[pos + 1:]
            elif g.rule.lhs in form:
                raise ValueError("replay mismatch: failure branch taken on "
                                 "an applicable rule")
            if form != step.result:
                raise ValueError("replay mismatch: form differs from record")
            continue
        comp = system.component_named(step.component)
        for (idx, pos) in step.applications:
            if not rule_applicable(comp, form, idx):
                raise ValueError(
                    f"replay mismatch: rule {idx} not applicable on "
                    f"{format_word(form)}"
                )
            rule = comp.rules[idx]
            if pos >= len(form) or form[pos] != rule.lhs:
                raise ValueError("replay mismatch: lhs not at position")
            form = form[:pos] + rule.rhs + form[pos + 1:]
        mode = step.mode
        n = len(step.applications)
        if mode.variant == "=" and n != mode.k:
            raise ValueError("replay mismatch: wrong step count for =k")
        if mode.variant == "<=" and not (1 <= n <= mode.k):
            raise ValueError("replay mismatch: wrong step count for <=k")
        if mode.variant == ">=" and n < mode.k:
            raise ValueError("replay mismatch: wrong step count for >=k")
        if mode.variant == "*" and n < 1:
            raise ValueError("replay mismatch: empty *-activation")
        if mode.variant == "t" and _has_applicable(
            comp.effective_conditions(), form
        ):
            raise ValueError("replay mismatch: t-activation left a live form")
        if form != step.result:
            raise ValueError("replay mismatch: form differs from record")
    return form
