"""Textual format for grammar systems: parser and canonical serializer.

One document describes one system. Identifiers use letters, digits,
underscore, apostrophe and caret; ``eps`` denotes the empty right-hand side;
``#`` starts a comment. See the package README for the full grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

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
# A token is its text: one of the marks, or else an identifier.
_MARKS = frozenset(("->", ">", "{", "}", ":"))
_TOKEN_RE = re.compile(r"->|[>{}:]|" + _ID_RE.pattern)
_RULE_CLAUSES = frozenset(("forbid", "permit", "success", "failure"))
_RHS_END = _MARKS | _RULE_CLAUSES


@dataclass(frozen=True)
class SourceSpan:
    line: int      # 1-based
    column: int    # 1-based
    offset: int    # 0-based character offset into the document
    length: int = 1

    def __str__(self):
        return f"line {self.line}, column {self.column}"


def _tokenize(where):
    """The tokens of a line ``where = (text, lineno, offset)``: its
    comment-free text, 1-based number and document offset. Whitespace
    separates tokens; a character that starts none is an error. A span is
    built from ``where`` only for an error."""
    line, lineno, offset = where
    tokens = _TOKEN_RE.findall(line)
    # they cover every non-space character exactly when the lengths agree
    if len("".join(tokens)) != len("".join(line.split())):
        rest = _TOKEN_RE.sub(lambda m: " " * len(m[0]), line).lstrip()
        column = len(line) - len(rest)
        raise GrammarSyntaxError(f"unexpected character {rest[0]!r}",
                                 SourceSpan(lineno, column + 1,
                                            offset + column))
    return tokens


def _span(where, i=None):
    """The span of token i of a line: an identifier spans its text, a mark
    one character. With i None, the span of the whole line: its first
    non-space character."""
    line, lineno, offset = where
    if i is None:
        indent = len(line) - len(line.lstrip())
        return SourceSpan(lineno, indent + 1, offset + indent)
    m = next(islice(_TOKEN_RE.finditer(line), i, None))
    return SourceSpan(lineno, m.start() + 1, offset + m.start(),
                      1 if m[0] in _MARKS else len(m[0]))


@dataclass
class _Block:
    """A component block as it is read: per rule, in order, the rule, its
    (line, lhs token index), its context and its (success, failure)
    fields; and per order line, its (line, tokens, first label index)."""

    name: str
    entry: RcCondition | None
    where: tuple  # the header line; its first token is ``component``
    rules: list = field(default_factory=list)
    lhs: list = field(default_factory=list)
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
        self.priorities = []  # (greater name, lesser name, line)
        self.default_mode = None
        self.blocks = []
        self.block = None  # the open component block
        self.where = None  # the line being read

    # ---- line-level dispatch ------------------------------------------

    def parse(self, text):
        offset = 0
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if line:
                self.where = (line, lineno, offset)
                self._line()
            offset += len(raw) + 1
        if self.block is not None:
            raise GrammarSyntaxError("unterminated component block",
                                     _span(self.block.where, 0))
        return self._build()

    def _at(self, i=None):
        """The span of token i of the line being read, or of the line."""
        return _span(self.where, i)

    def _line(self):
        if self.block is not None:
            self._block_line(_tokenize(self.where))
            return
        stripped = self.where[0].strip()
        if self.kind is None:
            span = self._at()
            parts = stripped.split()
            if len(parts) != 3 or parts[0] != "system":
                raise GrammarSyntaxError("expected 'system <kind> <name>'",
                                         span)
            _, self.kind, self.name = parts
            self.clauses = KIND_CLAUSES.get(self.kind)
            if self.clauses is None:
                raise ValidationError([f"{span}: unknown kind {self.kind!r}"])
            return
        m = _HEADER_RE.match(stripped)
        if m:
            self._header(m[1], m[2])
        elif stripped.startswith("component"):
            self._component_header(_tokenize(self.where))
        else:
            raise GrammarSyntaxError(f"unexpected line {stripped!r}",
                                     self._at())

    def _check_clause(self, clause, i=None):
        """Reject a clause the kind does not carry: token i, or a header."""
        if clause not in self.clauses:
            raise ValidationError([f"{self._at(i)}: a {self.kind} system "
                                   f"has no '{clause}' clause"])

    def _header(self, key, rest):
        ids = rest.split()
        if key == "mode":
            try:
                self.default_mode = Mode.parse(rest.strip())
            except ValueError as e:
                raise GrammarSyntaxError(str(e), self._at())
        elif key == "start":
            if len(ids) != 1:
                raise GrammarSyntaxError("start takes exactly one symbol",
                                         self._at())
            self.start = ids[0]
        elif key == "nonterminals":
            self.nonterminals.extend(ids)
        elif key == "terminals":
            self.terminals.extend(ids)
        else:  # priority, init-labels or final-labels: a clause
            self._check_clause(key + ":")
            if key == "priority":
                if len(ids) != 3 or ids[1] != ">":
                    raise GrammarSyntaxError("expected 'priority: A > B'",
                                             self._at())
                self.priorities.append((ids[0], ids[2], self.where))
            elif key == "init-labels":
                self.init_labels.extend(ids)
            else:
                self.final_labels.extend(ids)

    # ---- component blocks ---------------------------------------------

    def _component_header(self, tokens):
        if len(tokens) < 2 or tokens[1] in _MARKS:
            raise GrammarSyntaxError("component needs a name", self._at(0))
        name, pos = tokens[1], 2
        entry = None
        if pos < len(tokens) and tokens[pos] == "entry":
            self._check_clause("entry", pos)
            pos += 1
            if pos >= len(tokens) or tokens[pos] != "forbid":
                raise GrammarSyntaxError("entry clause needs 'forbid { ... }'",
                                         self._at(pos - 1))
            forbid, pos = self._brace_set(tokens, pos + 1)
            permit = []
            if pos < len(tokens) and tokens[pos] == "permit":
                permit, pos = self._brace_set(tokens, pos + 1)
            entry = RcCondition(permit, forbid)
        if pos >= len(tokens) or tokens[pos] != "{":
            raise GrammarSyntaxError("component header must end with '{'",
                                     self._at(len(tokens) - 1))
        if self.blocks and self.kind == "gc":
            raise ValidationError(
                [f"{self._at(0)}: a gc system has one component block"])
        self.block = _Block(name, entry, self.where)
        if pos + 1 < len(tokens):
            self._block_line(tokens, pos + 1)

    def _block_line(self, tokens, first=0):
        """Read tokens[first:], a line of the open block. Its last '}'
        closes the block unless it ends a '{ ... }' set."""
        last = len(tokens) - 1
        closes = tokens[last] == "}"
        if closes:
            i = last - 1
            while i >= first and tokens[i] not in _MARKS:
                i -= 1
            closes = i < first or tokens[i] != "{"
        body = tokens[:last] if closes else tokens
        if len(body) > first:
            if body[first] == "order":
                self._order_line(body, first)
            else:
                self._rule_line(body, first)
        if closes:
            block, self.block = self.block, None
            if not block.rules:
                raise ValidationError([f"{self._at(last)}: component "
                                       f"{block.name} has no rules"])
            self.blocks.append(block)

    def _brace_set(self, tokens, pos):
        if pos >= len(tokens) or tokens[pos] != "{":
            raise GrammarSyntaxError("expected '{'",
                                     self._at(min(pos, len(tokens) - 1)))
        end = pos = pos + 1
        while end < len(tokens) and tokens[end] not in _MARKS:
            end += 1
        if end >= len(tokens) or tokens[end] != "}":
            raise GrammarSyntaxError("expected '}'",
                                     self._at(min(end, len(tokens) - 1)))
        return tokens[pos:end], end + 1

    def _order_line(self, tokens, first):
        # order: l1 > l2 [> l3]*
        self._check_clause("order:", first)
        pos = first + (2 if tokens[first + 1:first + 2] == [":"] else 1)
        for i in range(pos, len(tokens)):
            gt = (i - pos) % 2
            if (tokens[i] != ">") if gt else (tokens[i] in _MARKS):
                what = "'>'" if gt else "a rule label"
                raise GrammarSyntaxError(f"expected {what}", self._at(i))
        if (len(tokens) - pos) % 2 == 0 or len(tokens) - pos < 3:
            raise GrammarSyntaxError("order needs 'l1 > l2 [> l3]*'",
                                     self._at(first))
        self.block.orders.append((self.where, tokens, pos))

    def _rule_line(self, tokens, first):
        label, pos = None, first
        if tokens[pos + 1:pos + 2] == [":"] and tokens[pos] not in _MARKS:
            label, pos = tokens[pos], pos + 2
        if pos >= len(tokens) or tokens[pos] in _MARKS:
            raise GrammarSyntaxError("expected rule lhs", self._at(first))
        lhs_at = pos
        if tokens[pos + 1:pos + 2] != ["->"]:
            raise GrammarSyntaxError("expected '->'", self._at(pos))
        end = pos = pos + 2
        while end < len(tokens) and tokens[end] not in _RHS_END:
            end += 1
        rhs, pos = tokens[pos:end], end
        if rhs == ["eps"]:
            rhs = []
        elif "eps" in rhs or not rhs:
            raise GrammarSyntaxError("'eps' must stand alone" if rhs else
                                     "empty rhs must be written 'eps'",
                                     self._at(lhs_at))
        sets = {}
        while pos < len(tokens):
            t = tokens[pos]
            if t not in _RULE_CLAUSES:
                raise GrammarSyntaxError(f"unexpected token {t!r} in rule",
                                         self._at(pos))
            self._check_clause(t, pos)
            sets[t], pos = self._brace_set(tokens, pos + 1)
        block = self.block
        if label is None:
            label = f"r{len(block.rules) + 1}"
        block.rules.append(Rule(tokens[lhs_at], tuple(rhs), label))
        block.lhs.append((self.where, lhs_at))
        block.contexts.append(RcCondition(sets.get("permit", ()),
                                          sets.get("forbid", ())))
        block.fields.append((sets.get("success", ()), sets.get("failure", ())))

    # ---- assembly ------------------------------------------------------

    def _build(self):
        if self.start is None:
            raise GrammarSyntaxError("missing 'start:' line", SourceSpan(1, 1, 0))
        alphabet = set(self.nonterminals) | set(self.terminals)
        violations = [
            f"{_span(*at)}: undeclared symbol {s!r}"
            for block in self.blocks
            for rule, at in zip(block.rules, block.lhs)
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
            for (g, l, where) in self.priorities:
                for n in (g, l):
                    if n not in names:
                        raise ValidationError([f"{_span(where)}: unknown "
                                               f"component {n!r}"])
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
                pairs = {(labels[t[i]], labels[t[i + 2]])
                         for _, t, pos in block.orders
                         for i in range(pos, len(t) - 2, 2)}
            except KeyError:
                where, t, i = next(
                    (where, t, i) for where, t, pos in block.orders
                    for i in range(pos, len(t), 2) if t[i] not in labels)
                raise ValidationError([f"{_span(where, i)}: unknown rule "
                                       f"label {t[i]!r}"]) from None
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


def _fmt_rule(rule: Rule, label: str, index: int, context=None,
              gc: GcRule | None = None) -> str:
    """One rule line. A gc rule is written under its gc label, any other
    rule under ``label`` unless that is the parser's default r<index+1>."""
    parts = []
    if gc is not None or label != f"r{index + 1}":
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
    """Canonical document for a validated system: parse(serialize(s)) = s
    for a parsed system, and serialize(parse(serialize(s))) = serialize(s)
    for any."""
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
            out.append("  " + _fmt_rule(g.rule, g.label, i, gc=g))
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
            out.append("  " + _fmt_rule(rule, labels[i], i, ctx))
        if comp.order is not None:
            for (g, l) in sorted(comp.order.pairs):
                out.append(f"  order: {labels[g]} > {labels[l]}")
        out.append("}")
    out.append("")
    return "\n".join(out)
