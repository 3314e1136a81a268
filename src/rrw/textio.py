"""Textual format for grammar systems: parser and canonical serializer.

One document describes one system. Identifiers use letters, digits,
underscore, apostrophe and caret; ``eps`` denotes the empty right-hand side;
``#`` starts a comment. See the package README for the full grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import (
    KIND_CLAUSES,
    Component,
    GcRule,
    Mode,
    RcCondition,
    Rule,
    System,
    check,
    close_order,
)
from .errors import GrammarSyntaxError, ValidationError

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'^]*")
_HEADER_RE = re.compile(
    r"^(nonterminals|terminals|start|init-labels|final-labels|mode|priority)"
    r"\s*:\s*(.*)$"
)
# One token per match, after optional whitespace; every character starts
# some alternative, so the matches tile the line up to END.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<END>\#|\Z)|(?P<ARROW>->)|(?P<GT>>)|(?P<LBRACE>\{)"
    r"|(?P<RBRACE>\})|(?P<COLON>:)|(?P<ID>" + _ID_RE.pattern + r")|(?P<BAD>.))"
)


@dataclass(frozen=True)
class SourceSpan:
    line: int      # 1-based
    column: int    # 1-based
    offset: int    # 0-based character offset into the document
    length: int = 1

    def __str__(self):
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True)
class _Token:
    kind: str  # ID, ARROW, GT, LBRACE, RBRACE, COLON
    text: str
    span: SourceSpan


def _tokenize_line(line, lineno, line_offset):
    tokens = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "END":
            break
        text = m.group(kind)
        column = m.start(kind)
        span = SourceSpan(lineno, column + 1, line_offset + column,
                          len(text) if kind == "ID" else 1)
        if kind == "BAD":
            raise GrammarSyntaxError(f"unexpected character {text!r}", span)
        tokens.append(_Token(kind, text, span))
    return tokens


@dataclass
class _Block:
    """A component block as it is read: per rule, in order, the rule, its
    lhs span, its context and its (success, failure) fields; and the
    (greater, lesser) label token pairs of its order lines."""

    name: str
    entry: RcCondition | None
    span: SourceSpan
    rules: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    contexts: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    orders: list = field(default_factory=list)


class _Parser:
    def __init__(self):
        self.kind = None
        self.clauses = None  # KIND_CLAUSES[self.kind]
        self.name = None
        self.nonterminals = []
        self.terminals = []
        self.start = None
        self.init_labels = []
        self.final_labels = []
        self.priorities = []  # (greater name, lesser name, span)
        self.default_mode = None
        self.blocks = []
        self.block = None  # the open component block

    # ---- line-level dispatch ------------------------------------------

    def parse(self, text):
        offset = 0
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if line:
                self._line(line, lineno, offset)
            offset += len(raw) + 1
        if self.block is not None:
            raise GrammarSyntaxError("unterminated component block",
                                     self.block.span)
        return self._build()

    def _line(self, line, lineno, offset):
        if self.block is not None:
            self._block_line(_tokenize_line(line, lineno, offset))
            return
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if self.kind is None:
            self._system_line(stripped, SourceSpan(lineno, 1, offset + indent))
            return
        m = _HEADER_RE.match(stripped)
        if m:
            self._header(m.group(1), m.group(2), SourceSpan(
                lineno, 1, offset + indent + len(m.group(1)) + 1))
        elif stripped.startswith("component"):
            self._component_header(_tokenize_line(line, lineno, offset))
        else:
            raise GrammarSyntaxError(
                f"unexpected line {stripped!r}",
                SourceSpan(lineno, indent + 1, offset + indent),
            )

    def _check_clause(self, clause, span):
        """Reject a clause that the system's kind does not carry."""
        if clause not in self.clauses:
            raise ValidationError(
                [f"{span}: a {self.kind} system has no '{clause}' clause"]
            )

    def _system_line(self, stripped, span):
        parts = stripped.split()
        if len(parts) != 3 or parts[0] != "system":
            raise GrammarSyntaxError("expected 'system <kind> <name>'", span)
        self.kind, self.name = parts[1], parts[2]
        self.clauses = KIND_CLAUSES.get(self.kind)
        if self.clauses is None:
            raise ValidationError([f"{span}: unknown kind {self.kind!r}"])

    def _header(self, key, rest, span):
        ids = rest.split()
        if key == "mode":
            try:
                self.default_mode = Mode.parse(rest.strip())
            except ValueError as e:
                raise GrammarSyntaxError(str(e), span)
        elif key == "start":
            if len(ids) != 1:
                raise GrammarSyntaxError("start takes exactly one symbol", span)
            self.start = ids[0]
        elif key == "nonterminals":
            self.nonterminals.extend(ids)
        elif key == "terminals":
            self.terminals.extend(ids)
        else:  # priority, init-labels or final-labels: a clause
            self._check_clause(key + ":", span)
            if key == "priority":
                if len(ids) != 3 or ids[1] != ">":
                    raise GrammarSyntaxError("expected 'priority: A > B'", span)
                self.priorities.append((ids[0], ids[2], span))
            elif key == "init-labels":
                self.init_labels.extend(ids)
            else:
                self.final_labels.extend(ids)

    # ---- component blocks ---------------------------------------------

    def _component_header(self, tokens):
        if len(tokens) < 2 or tokens[1].kind != "ID":
            raise GrammarSyntaxError("component needs a name", tokens[0].span)
        name, pos = tokens[1].text, 2
        entry = None
        if pos < len(tokens) and tokens[pos].text == "entry":
            self._check_clause("entry", tokens[pos].span)
            pos += 1
            if pos >= len(tokens) or tokens[pos].text != "forbid":
                raise GrammarSyntaxError(
                    "entry clause needs 'forbid { ... }'", tokens[pos - 1].span
                )
            forbid, pos = self._brace_set(tokens, pos + 1)
            permit = []
            if pos < len(tokens) and tokens[pos].text == "permit":
                permit, pos = self._brace_set(tokens, pos + 1)
            entry = RcCondition(permit, forbid)
        if pos >= len(tokens) or tokens[pos].kind != "LBRACE":
            raise GrammarSyntaxError(
                "component header must end with '{'", tokens[-1].span
            )
        if self.blocks and self.kind == "gc":
            raise ValidationError(
                [f"{tokens[0].span}: a gc system has one component block"]
            )
        self.block = _Block(name, entry, tokens[0].span)
        if pos + 1 < len(tokens):
            self._block_line(tokens[pos + 1:])

    def _block_line(self, tokens):
        """Read a line of the open block. Its last '}' closes the block
        unless it ends a '{ ... }' set."""
        last = len(tokens) - 1
        closes = tokens[last].kind == "RBRACE"
        if closes:
            i = last - 1
            while i >= 0 and tokens[i].kind == "ID":
                i -= 1
            closes = i < 0 or tokens[i].kind != "LBRACE"
        body = tokens[:last] if closes else tokens
        if body:
            if body[0].text == "order":
                self._order_line(body)
            else:
                self._rule_line(body)
        if closes:
            block, self.block = self.block, None
            if not block.rules:
                raise ValidationError([f"{tokens[last].span}: component "
                                       f"{block.name} has no rules"])
            self.blocks.append(block)

    def _brace_set(self, tokens, pos):
        if pos >= len(tokens) or tokens[pos].kind != "LBRACE":
            raise GrammarSyntaxError("expected '{'",
                                     tokens[min(pos, len(tokens) - 1)].span)
        pos += 1
        ids = []
        while pos < len(tokens) and tokens[pos].kind == "ID":
            ids.append(tokens[pos].text)
            pos += 1
        if pos >= len(tokens) or tokens[pos].kind != "RBRACE":
            raise GrammarSyntaxError("expected '}'",
                                     tokens[min(pos, len(tokens) - 1)].span)
        return ids, pos + 1

    def _order_line(self, tokens):
        # order: l1 > l2 [> l3]*
        self._check_clause("order:", tokens[0].span)
        pos = 2 if len(tokens) > 1 and tokens[1].kind == "COLON" else 1
        want = "ID"
        for t in tokens[pos:]:
            if t.kind != want:
                what = "a rule label" if want == "ID" else "'>'"
                raise GrammarSyntaxError(f"expected {what}", t.span)
            want = "GT" if want == "ID" else "ID"
        if want == "ID" or len(tokens) - pos < 3:
            raise GrammarSyntaxError("order needs 'l1 > l2 [> l3]*'",
                                     tokens[0].span)
        orders = self.block.orders
        for i in range(pos, len(tokens) - 2, 2):
            orders.append((tokens[i], tokens[i + 2]))

    def _rule_line(self, tokens):
        label, pos = None, 0
        if len(tokens) >= 2 and tokens[0].kind == "ID" \
                and tokens[1].kind == "COLON":
            label, pos = tokens[0].text, 2
        if pos >= len(tokens) or tokens[pos].kind != "ID":
            raise GrammarSyntaxError("expected rule lhs", tokens[0].span)
        lhs = tokens[pos].text
        lhs_span = tokens[pos].span
        pos += 1
        if pos >= len(tokens) or tokens[pos].kind != "ARROW":
            raise GrammarSyntaxError("expected '->'", tokens[pos - 1].span)
        pos += 1
        rule_clauses = ("forbid", "permit", "success", "failure")
        rhs = []
        while pos < len(tokens) and tokens[pos].kind == "ID" \
                and tokens[pos].text not in rule_clauses:
            rhs.append(tokens[pos].text)
            pos += 1
        if rhs == ["eps"]:
            rhs = []
        elif "eps" in rhs:
            raise GrammarSyntaxError("'eps' must stand alone", lhs_span)
        elif not rhs:
            raise GrammarSyntaxError("empty rhs must be written 'eps'", lhs_span)
        sets = {}
        while pos < len(tokens):
            t = tokens[pos]
            if t.text not in rule_clauses:
                raise GrammarSyntaxError(
                    f"unexpected token {t.text!r} in rule", t.span
                )
            self._check_clause(t.text, t.span)
            sets[t.text], pos = self._brace_set(tokens, pos + 1)
        block = self.block
        if label is None:
            label = f"r{len(block.rules) + 1}"
        block.rules.append(Rule(lhs, tuple(rhs), label))
        block.spans.append(lhs_span)
        block.contexts.append(RcCondition(sets.get("permit", ()),
                                          sets.get("forbid", ())))
        block.fields.append((sets.get("success", ()), sets.get("failure", ())))

    # ---- assembly ------------------------------------------------------

    def _build(self):
        if self.start is None:
            raise GrammarSyntaxError("missing 'start:' line", SourceSpan(1, 1, 0))
        alphabet = set(self.nonterminals) | set(self.terminals)
        violations = [
            f"{span}: undeclared symbol {s!r}"
            for block in self.blocks
            for rule, span in zip(block.rules, block.spans)
            for s in (rule.lhs, *rule.rhs) if s not in alphabet
        ]
        if violations:
            raise ValidationError(violations)
        if self.kind == "gc":
            components = ()
            gc_rules = [GcRule(r.label, r, success, failure)
                        for block in self.blocks
                        for r, (success, failure) in zip(block.rules,
                                                         block.fields)]
        else:
            components = [self._component(block) for block in self.blocks]
            gc_rules = ()
        component_order = None
        if "priority:" in self.clauses:
            names = {block.name: i for i, block in enumerate(self.blocks)}
            pairs = set()
            for (g, l, span) in self.priorities:
                for n in (g, l):
                    if n not in names:
                        raise ValidationError(
                            [f"{span}: unknown component {n!r}"]
                        )
                pairs.add((names[g], names[l]))
            component_order = close_order(pairs, size=len(self.blocks))
        system = System(
            kind=self.kind,
            name=self.name,
            nonterminals=frozenset(self.nonterminals),
            terminals=frozenset(self.terminals),
            start=self.start,
            components=components,
            gc_rules=gc_rules,
            init_labels=frozenset(self.init_labels),
            final_labels=frozenset(self.final_labels),
            component_order=component_order,
            default_mode=self.default_mode,
        )
        return check(system)

    def _component(self, block):
        """The component of a block; each regulation field the kind carries
        is filled, with an empty default where the block states none."""
        order = None
        if "order:" in self.clauses:
            labels = {r.label: i for i, r in enumerate(block.rules)}
            try:
                pairs = {(labels[g.text], labels[l.text])
                         for g, l in block.orders}
            except KeyError:
                t = next(t for pair in block.orders for t in pair
                         if t.text not in labels)
                raise ValidationError(
                    [f"{t.span}: unknown rule label {t.text!r}"]) from None
            order = close_order(pairs, size=len(block.rules))
        entry = block.entry
        if entry is None and "entry" in self.clauses:
            entry = RcCondition()
        return Component(block.name, block.rules, order=order, entry=entry,
                         contexts=block.contexts if "forbid" in self.clauses
                         else None)


def parse_system(text: str) -> System:
    """Parse a document into a validated System."""
    return _Parser().parse(text)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt_set(ids) -> str:
    return "{ " + " ".join(sorted(ids)) + " }" if ids else "{ }"


def _written_labels(rules) -> list:
    """The label each rule is written and re-read under.

    The parser gives an unlabelled rule at index i the label r<i+1>. When
    another rule already carries that label explicitly, the unlabelled rule
    is written with a fresh label instead, so the document parses.
    """
    taken = {r.label for r in rules if r.label is not None}
    out = []
    for i, rule in enumerate(rules):
        label = rule.label
        if label is None:
            label = f"r{i + 1}"
            n = 0
            while label in taken:
                n += 1
                label = f"r{i + 1}_{n}"
            taken.add(label)
        out.append(label)
    return out


def _fmt_rule(rule: Rule, index: int, context, gc: GcRule | None,
              label: str | None = None) -> str:
    parts = []
    label = rule.label if label is None else label
    if label is not None and label != f"r{index + 1}":
        parts.append(f"{label}:")
    elif gc is not None:
        parts.append(f"{label}:")
    parts.append(rule.lhs)
    parts.append("->")
    parts.append(" ".join(rule.rhs) if rule.rhs else "eps")
    if context is not None:
        if context.forbid:
            parts.append("forbid " + _fmt_set(context.forbid))
        if context.permit:
            parts.append("permit " + _fmt_set(context.permit))
    if gc is not None:
        if gc.success:
            parts.append("success " + _fmt_set(gc.success))
        if gc.failure:
            parts.append("failure " + _fmt_set(gc.failure))
    return " ".join(parts)


def serialize_system(system: System) -> str:
    """Canonical document for a validated system; parse(serialize(s)) = s."""
    out = [f"system {system.kind} {system.name}"]
    if system.default_mode is not None:
        out.append(f"mode: {system.default_mode}")
    out.append("nonterminals: " + " ".join(sorted(system.nonterminals)))
    out.append("terminals: " + " ".join(sorted(system.terminals)))
    out.append(f"start: {system.start}")
    if system.kind == "gc":
        out.append("init-labels: " + " ".join(sorted(system.init_labels)))
        out.append("final-labels: " + " ".join(sorted(system.final_labels)))
        out.append("component rules {")
        for i, g in enumerate(system.gc_rules):
            out.append("  " + _fmt_rule(g.rule, i, None, g))
        out.append("}")
        out.append("")
        return "\n".join(out)
    if system.component_order is not None:
        names = [c.name for c in system.components]
        for (g, l) in sorted(system.component_order.pairs):
            out.append(f"priority: {names[g]} > {names[l]}")
    for comp in system.components:
        header = f"component {comp.name}"
        if comp.entry is not None and (comp.entry.forbid or comp.entry.permit):
            header += " entry forbid " + _fmt_set(comp.entry.forbid)
            if comp.entry.permit:
                header += " permit " + _fmt_set(comp.entry.permit)
        header += " {"
        out.append(header)
        labels = _written_labels(comp.rules)
        for i, rule in enumerate(comp.rules):
            ctx = comp.contexts[i] if comp.contexts is not None else None
            out.append("  " + _fmt_rule(rule, i, ctx, None, labels[i]))
        if comp.order is not None:
            for (g, l) in sorted(comp.order.pairs):
                out.append(f"  order: {labels[g]} > {labels[l]}")
        out.append("}")
    out.append("")
    return "\n".join(out)
