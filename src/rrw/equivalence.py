"""Reference enumerator (oracle), bounded equivalence, nonemptiness analysis.

:func:`reference_enumerate` re-implements the bounded-language semantics from
scratch: a memoised one-step relation, stepped layer by layer in a loop for
exact step counts and closed by worklists, with applicability re-derived
directly from the regulation data instead of the engine's normalized
condition tables. It shares only the data model with the engine, so
disagreements between the two expose real bugs. It always searches words,
never multisets.

In a system without component priorities the oracle expands only forms that
can still yield a counted word: a form whose weight (``System.weights``, the
least terminal yield of its symbols) exceeds ``max_len`` is dropped before
the workspace test, with one comparison per (form, rule) against the rule's
weight growth (``System.growth``, computed once per system). No rule lowers
a weight, so every later form is dropped with it, and a workspace cut
counts only within the weight. A form holding a symbol of no terminal yield
weighs ``inf`` and is never expanded. Under priorities a longer form may
still block a component, so nothing is dropped there and every cut counts
unless the system is non-erasing.

Every mode's relation (=k, <=k, *, >=k, t) is built from one memoised
one-step relation per search, so each (component, form) pair is expanded
once. The oracle's budget, ``step_budget * 100`` rule applications per
search, therefore counts each expansion's applications once, however many
closures and step counts pass through that pair.

Every container that the oracle iterates keeps insertion order: sets of
forms are dicts, and graph-control labels are visited sorted. Where a
budget cuts a search, the words it found so far therefore do not depend on
the string hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Mode, System, least_yields, shortlex_key
from .engine import BoundedLanguage, StepBounds, enumerate_language


@dataclass(frozen=True)
class EquivVerdict:
    equal: bool
    only_in_a: tuple
    only_in_b: tuple
    complete_a: bool
    complete_b: bool
    mode_a: Mode
    mode_b: Mode
    max_len: int

    def summary(self) -> str:
        if self.equal:
            return "equal"
        bits = []
        if self.only_in_a:
            bits.append(f"{len(self.only_in_a)} word(s) only in A")
        if self.only_in_b:
            bits.append(f"{len(self.only_in_b)} word(s) only in B")
        if not self.complete_a or not self.complete_b:
            bits.append("incomplete enumeration")
        return "not equal: " + ", ".join(bits) if bits else "not equal"


class _Oracle:
    def __init__(self, system: System, bounds: StepBounds,
                 limit=float("inf")):
        self.system = system
        self.bounds = bounds
        self.limit = limit
        self.applied = 0
        self.exhausted = False
        self.truncated = False
        self._next = {}
        self._weight = system.weights.__getitem__
        self._growth = system.growth
        # the greater components of each component that has any, and the
        # components ranked so that each comes after all of its greater
        # ones: the order is transitively closed, so a greater component
        # has fewer
        self._greater = greater = {}
        self._ranked = range(len(system.components))
        if system.component_order is not None:
            for g, l in system.component_order.pairs:
                greater.setdefault(l, []).append(g)
            self._ranked = sorted(
                self._ranked, key=lambda ci: len(greater.get(ci, ())))

    # -- independent applicability test ---------------------------------

    def _applicable(self, comp, idx, form):
        rule = comp.rules[idx]
        if rule.lhs not in form:
            return False
        if comp.order is not None:
            for (g, l) in comp.order.pairs:
                if l == idx and comp.rules[g].lhs in form:
                    return False
        if comp.contexts is not None:
            ctx = comp.contexts[idx]
            for s in ctx.permit:
                if s not in form:
                    return False
            for s in ctx.forbid:
                if s in form:
                    return False
        return True

    def _successors(self, comp, form):
        out = []
        weight = sum(map(self._weight, form))
        growth = self._growth[comp.name]
        for idx, rule in enumerate(comp.rules):
            if not self._applicable(comp, idx, form):
                continue
            if weight + growth[idx] > self.limit:
                continue  # every successor by this rule is too heavy
            if len(form) - 1 + len(rule.rhs) > self.bounds.workspace:
                self.truncated = True
                continue
            for pos in range(len(form)):
                if form[pos] == rule.lhs:
                    self.applied += 1
                    if self.applied > self.bounds.step_budget * 100:
                        self.exhausted = True
                        return out
                    out.append(form[:pos] + rule.rhs + form[pos + 1:])
        return out

    def _stuck(self, comp, form):
        return not any(
            self._applicable(comp, i, form) for i in range(len(comp.rules))
        )

    # -- mode relations ---------------------------------------------------

    def _step(self, ci, form):
        """The memoised one-step relation of component ci, which every mode
        steps through, so each (component, form) is expanded once: a dict
        of the successors in the order found."""
        res = self._next.get((ci, form))
        if res is None:
            comp = self.system.components[ci]
            res = dict.fromkeys(self._successors(comp, form))
            self._next[ci, form] = res
        return res

    def _step_counts(self, ci, form, k):
        """The forms reachable from ``form`` in exactly 1, ..., k steps of
        component ci, one dict per step count, found one layer after
        another in a loop, so a large k cannot exhaust Python's call
        stack."""
        layers = [self._step(ci, form)]
        for _ in range(k - 1):
            layers.append(dict.fromkeys(
                [g for f in layers[-1] for g in self._step(ci, f)]))
        return layers

    def _star_from(self, ci, seeds):
        """Closure of a seed set under >=0 further steps of component ci."""
        seen = dict.fromkeys(seeds)
        work = list(seen)
        while work and not self.exhausted:
            form = work.pop()
            for nxt in self._step(ci, form):
                if nxt not in seen:
                    seen[nxt] = None
                    work.append(nxt)
        return seen

    def mode_set(self, ci, form, mode):
        """The results of one activation of component ci, as a dict."""
        comp = self.system.components[ci]
        if mode.variant == "t":
            if self._stuck(comp, form):
                return {}
            reach = self._star_from(ci, (form,))
            return dict.fromkeys(f for f in reach if self._stuck(comp, f))
        if mode.variant == "*":
            return self._star_from(ci, self._step(ci, form))
        layers = self._step_counts(ci, form, mode.k)
        if mode.variant == "=":
            return layers[-1]
        if mode.variant == "<=":
            return dict.fromkeys(f for layer in layers for f in layer)
        # ">="
        return self._star_from(ci, layers[-1])

    # -- system level ------------------------------------------------------

    def system_step(self, form, mode):
        """The union of the results of every live component that no live,
        unblocked greater component with a result blocks. Each component is
        decided once, after its greater ones. Under =1, *, <=k and >=1 one
        application is already an activation, so there a greater component
        has a result exactly when it is not stuck on the form, whatever the
        workspace cuts."""
        components = self.system.components
        greater = self._greater
        free = mode.variant in ("*", "<=") or mode.k == 1
        results = {}  # the live, unblocked components
        for ci in self._ranked:
            comp = components[ci]
            if comp.entry is not None:
                ok = all(s in form for s in comp.entry.permit) and not any(
                    s in form for s in comp.entry.forbid
                )
                if not ok:
                    continue
            if ci in greater and any(
                    not self._stuck(components[g], form) if free
                    else results[g] for g in greater[ci] if g in results):
                continue
            results[ci] = self.mode_set(ci, form, mode)
        return dict.fromkeys(f for res in results.values() for f in res)


def _oracle_gc(system, max_len, bounds):
    w = system.weights
    words = set()
    truncated = False
    steps = 0
    exhausted = False
    by_label = {g.label: g for g in system.gc_rules}
    growth = system.growth
    seen = set()
    work = []
    if w[system.start] <= max_len:
        work = [((system.start,), l) for l in sorted(system.init_labels)]
    seen.update(work)
    while work:
        form, label = work.pop()
        g = by_label[label]
        nxts = []
        if g.rule.lhs in form:
            if sum(w[s] for s in form) + growth[label] > max_len:
                continue
            for pos in range(len(form)):
                if form[pos] == g.rule.lhs:
                    nf = form[:pos] + g.rule.rhs + form[pos + 1:]
                    if len(nf) > bounds.workspace:
                        truncated = True
                        continue
                    for l2 in sorted(g.success):
                        nxts.append((nf, l2))
        else:
            for l2 in sorted(g.failure):
                nxts.append((form, l2))
        for cfg in nxts:
            steps += 1
            if steps > bounds.step_budget * 100:
                exhausted = True
                break
            if cfg in seen:
                continue
            seen.add(cfg)
            if len(seen) > bounds.form_budget:
                exhausted = True
                break
            work.append(cfg)
            nf, l2 = cfg
            if l2 in system.final_labels and len(nf) <= max_len and all(
                s in system.terminals for s in nf
            ):
                words.add(nf)
        if exhausted:
            break
    # every cut form weighs at most max_len: a heavier one was dropped first
    complete = not exhausted and not truncated
    return BoundedLanguage(frozenset(words), max_len, complete)


def reference_enumerate(system, mode, max_len, bounds) -> BoundedLanguage:
    """Bounded language via the independent naive oracle."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if system.kind == "gc":
        return _oracle_gc(system, max_len, bounds)
    limit = float("inf") if system.component_order else max_len
    oracle = _Oracle(system, bounds, limit)
    words = set()
    seen = {(system.start,)}
    work = [(system.start,)] if system.weights[system.start] <= limit else []
    while work and not oracle.exhausted:
        form = work.pop()
        if all(s in system.terminals for s in form):
            if len(form) <= max_len:
                words.add(form)
            continue
        for nxt in oracle.system_step(form, mode):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
                if len(seen) > bounds.form_budget:
                    oracle.exhausted = True
                    break
    complete = not oracle.exhausted and (
        not oracle.truncated
        or (system.non_erasing and bounds.workspace >= max_len)
    )
    return BoundedLanguage(frozenset(words), max_len, complete)


def bounded_equiv(a, mode_a, b, mode_b, max_len, bounds) -> EquivVerdict:
    """Compare the bounded languages of two systems word-by-word.

    equal only when both enumerations are complete and the word sets match;
    differences are shortlex-sorted and truncated to 20 entries.
    """
    la = enumerate_language(a, mode_a, max_len, bounds)
    lb = enumerate_language(b, mode_b, max_len, bounds)
    only_a = tuple(sorted(la.words - lb.words, key=shortlex_key)[:20])
    only_b = tuple(sorted(lb.words - la.words, key=shortlex_key)[:20])
    equal = (
        la.complete and lb.complete and not only_a and not only_b
    )
    return EquivVerdict(
        equal=equal,
        only_in_a=only_a,
        only_in_b=only_b,
        complete_a=la.complete,
        complete_b=lb.complete,
        mode_a=mode_a,
        mode_b=mode_b,
        max_len=max_len,
    )


def useful_nonterminals(rules, terminal_set) -> set:
    """The left-hand sides A of ``rules`` with a finite least yield over
    ``terminal_set`` (:func:`least_yields`): some rule A->w has every rhs
    symbol in ``terminal_set`` or useful. Decides L(A) != empty for the
    plain context-free sub-grammar given by ``rules``."""
    return set(least_yields(rules, frozenset(terminal_set)))


def nonempty_lhs(rules) -> set:
    """The left-hand sides A of ``rules`` with L(A) != empty, where every
    right-hand-side symbol that is no left-hand side counts as terminal."""
    lhs = {r.lhs for r in rules}
    passive = {s for r in rules for s in r.rhs if s not in lhs}
    return lhs & useful_nonterminals(rules, passive)
