"""Textual format for grammar systems: parser and canonical serializer.

One document describes one system. Identifiers use letters, digits,
underscore, apostrophe and caret; ``eps`` denotes the empty right-hand side;
``#`` starts a comment. See the package README for the full grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    Component,
    GcRule,
    Mode,
    RcCondition,
    Rule,
    StrictOrder,
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


class _Parser:
    def __init__(self, text):
        self.kind = None
        self.name = None
        self.nonterminals = []
        self.terminals = []
        self.start = None
        self.init_labels = []
        self.final_labels = []
        self.priorities = []  # (greater name, lesser name, span)
        self.default_mode = None
        self.components = []  # (name, entry, rules, contexts, order_lines, span)
        self.text = text

    # ---- line-level dispatch ------------------------------------------

    def parse(self):
        lines = self.text.split("\n")
        offset = 0
        self.cur_component = None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if line.strip():
                self._line(line, lineno, offset)
            offset += len(raw) + 1
        if self.cur_component is not None:
            raise GrammarSyntaxError(
                "unterminated component block", self.cur_component["span"]
            )
        return self._build()

    def _line(self, line, lineno, offset):
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if self.kind is None:
            self._system_line(stripped, lineno, offset + indent)
            return
        if self.cur_component is None:
            m = _HEADER_RE.match(stripped)
            if m:
                self._header(m.group(1), m.group(2), lineno,
                             offset + indent + len(m.group(1)) + 1)
                return
            if stripped.startswith("component"):
                self._component_header(line, lineno, offset)
                return
            raise GrammarSyntaxError(
                f"unexpected line {stripped!r}",
                SourceSpan(lineno, indent + 1, offset + indent),
            )
        tokens = _tokenize_line(line, lineno, offset)
        self._component_line(tokens)

    def _system_line(self, stripped, lineno, offs):
        parts = stripped.split()
        if len(parts) != 3 or parts[0] != "system":
            raise GrammarSyntaxError(
                "expected 'system <kind> <name>'",
                SourceSpan(lineno, 1, offs),
            )
        self.kind, self.name = parts[1], parts[2]

    def _header(self, key, rest, lineno, offs):
        ids = rest.split()
        gc = self.kind == "gc"
        if (key == "priority" and gc) or \
                (key in ("init-labels", "final-labels") and not gc):
            raise ValidationError(
                [f"{SourceSpan(lineno, 1, offs)}: a {self.kind} system has "
                 f"no '{key}:' line"]
            )
        if key == "mode":
            try:
                self.default_mode = Mode.parse(rest.strip())
            except ValueError as e:
                raise GrammarSyntaxError(str(e), SourceSpan(lineno, 1, offs))
            return
        if key == "start":
            if len(ids) != 1:
                raise GrammarSyntaxError(
                    "start takes exactly one symbol", SourceSpan(lineno, 1, offs)
                )
            self.start = ids[0]
            return
        if key == "priority":
            if len(ids) != 3 or ids[1] != ">":
                raise GrammarSyntaxError(
                    "expected 'priority: A > B'", SourceSpan(lineno, 1, offs)
                )
            self.priorities.append((ids[0], ids[2],
                                    SourceSpan(lineno, 1, offs)))
            return
        target = {
            "nonterminals": self.nonterminals,
            "terminals": self.terminals,
            "init-labels": self.init_labels,
            "final-labels": self.final_labels,
        }[key]
        target.extend(ids)

    # ---- component blocks ---------------------------------------------

    def _component_header(self, line, lineno, offset):
        tokens = _tokenize_line(line, lineno, offset)
        pos = 1  # skip 'component'
        if pos >= len(tokens) or tokens[pos].kind != "ID":
            raise GrammarSyntaxError("component needs a name", tokens[0].span)
        name = tokens[pos].text
        pos += 1
        entry = None
        if pos < len(tokens) and tokens[pos].text == "entry":
            pos += 1
            if pos >= len(tokens) or tokens[pos].text != "forbid":
                raise GrammarSyntaxError(
                    "entry clause needs 'forbid { ... }'", tokens[pos - 1].span
                )
            forbid, pos = self._brace_set(tokens, pos + 1)
            permit = []
            if pos < len(tokens) and tokens[pos].text == "permit":
                permit, pos = self._brace_set(tokens, pos + 1)
            entry = RcCondition(frozenset(permit), frozenset(forbid))
        if pos >= len(tokens) or tokens[pos].kind != "LBRACE":
            raise GrammarSyntaxError(
                "component header must end with '{'", tokens[-1].span
            )
        self.cur_component = {
            "name": name,
            "entry": entry,
            "rules": [],
            "contexts": [],
            "orders": [],
            "span": tokens[0].span,
        }
        rest = tokens[pos + 1:]
        if rest:
            self._component_line(rest)

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

    def _component_line(self, tokens):
        if not tokens:
            return
        if tokens[0].kind == "RBRACE":
            self._close_component(tokens[0].span)
            if len(tokens) > 1:
                raise GrammarSyntaxError("content after '}'", tokens[1].span)
            return
        if tokens[0].text == "order":
            self._order_line(tokens)
            return
        self._rule_line(tokens)

    def _close_component(self, span):
        comp = self.cur_component
        self.cur_component = None
        if not comp["rules"]:
            raise ValidationError([f"{span}: component {comp['name']} has no rules"])
        self.components.append(comp)

    def _order_line(self, tokens):
        # order: l1 > l2 [> l3]*
        pos = 1
        if pos < len(tokens) and tokens[pos].kind == "COLON":
            pos += 1
        labels = []
        expect_id = True
        trailing_rbrace = False
        while pos < len(tokens):
            t = tokens[pos]
            if t.kind == "RBRACE" and pos == len(tokens) - 1:
                trailing_rbrace = True
                break
            if expect_id:
                if t.kind != "ID":
                    raise GrammarSyntaxError("expected a rule label", t.span)
                labels.append((t.text, t.span))
            else:
                if t.kind != "GT":
                    raise GrammarSyntaxError("expected '>'", t.span)
            expect_id = not expect_id
            pos += 1
        if len(labels) < 2 or expect_id:
            span = tokens[0].span
            raise GrammarSyntaxError("order needs 'l1 > l2 [> l3]*'", span)
        self.cur_component["orders"].append(labels)
        if trailing_rbrace:
            self._close_component(tokens[-1].span)

    def _rule_line(self, tokens):
        pos = 0
        label = None
        if (
            len(tokens) >= 2
            and tokens[0].kind == "ID"
            and tokens[1].kind == "COLON"
        ):
            label = tokens[0].text
            pos = 2
        if pos >= len(tokens) or tokens[pos].kind != "ID":
            raise GrammarSyntaxError("expected rule lhs", tokens[0].span)
        lhs = tokens[pos].text
        lhs_span = tokens[pos].span
        pos += 1
        if pos >= len(tokens) or tokens[pos].kind != "ARROW":
            raise GrammarSyntaxError("expected '->'", tokens[pos - 1].span)
        pos += 1
        rhs = []
        while pos < len(tokens) and tokens[pos].kind == "ID" \
                and tokens[pos].text not in ("forbid", "permit",
                                             "success", "failure"):
            rhs.append(tokens[pos].text)
            pos += 1
        if rhs == ["eps"]:
            rhs = []
        elif "eps" in rhs:
            raise GrammarSyntaxError("'eps' must stand alone", lhs_span)
        elif not rhs:
            raise GrammarSyntaxError("empty rhs must be written 'eps'", lhs_span)
        permit, forbid = [], []
        success, failure = None, None
        trailing_rbrace = False
        while pos < len(tokens):
            t = tokens[pos]
            if t.kind == "RBRACE" and pos == len(tokens) - 1:
                trailing_rbrace = True
                pos += 1
                continue
            if t.text == "forbid":
                forbid, pos = self._brace_set(tokens, pos + 1)
            elif t.text == "permit":
                permit, pos = self._brace_set(tokens, pos + 1)
            elif t.text == "success":
                success, pos = self._brace_set(tokens, pos + 1)
            elif t.text == "failure":
                failure, pos = self._brace_set(tokens, pos + 1)
            else:
                raise GrammarSyntaxError(
                    f"unexpected token {t.text!r} in rule", t.span
                )
        comp = self.cur_component
        index = len(comp["rules"])
        if label is None:
            label = f"r{index + 1}"
        comp["rules"].append(
            {
                "rule": Rule(lhs, tuple(rhs), label),
                "context": RcCondition(frozenset(permit), frozenset(forbid)),
                "has_context": bool(permit or forbid),
                "success": frozenset(success or ()),
                "failure": frozenset(failure or ()),
                "has_gc": success is not None or failure is not None,
                "span": lhs_span,
            }
        )
        if trailing_rbrace:
            self._close_component(tokens[-1].span)

    # ---- assembly ------------------------------------------------------

    def _build(self):
        if self.start is None:
            raise GrammarSyntaxError("missing 'start:' line", SourceSpan(1, 1, 0))
        alphabet = set(self.nonterminals) | set(self.terminals)
        gc = self.kind == "gc"
        violations = []
        for n, comp in enumerate(self.components):
            if gc and n:
                violations.append(
                    f"{comp['span']}: a gc system has one component block"
                )
            if gc and comp["entry"] is not None:
                violations.append(
                    f"{comp['span']}: a gc system has no entry conditions"
                )
            if gc and comp["orders"]:
                violations.append(
                    f"{comp['orders'][0][0][1]}: a gc system has no rule "
                    "orders"
                )
            for entry in comp["rules"]:
                if gc and entry["has_context"]:
                    violations.append(
                        f"{entry['span']}: a gc rule has no permit or forbid "
                        "clause"
                    )
                if not gc and entry["has_gc"]:
                    violations.append(
                        f"{entry['span']}: a {self.kind} rule has no success "
                        "or failure clause"
                    )
                rule = entry["rule"]
                for s in (rule.lhs, *rule.rhs):
                    if s not in alphabet:
                        violations.append(
                            f"{entry['span']}: undeclared symbol {s!r}"
                        )
        if violations:
            raise ValidationError(violations)

        if self.kind == "gc":
            return self._build_gc()

        components = []
        for comp in self.components:
            rules = tuple(e["rule"] for e in comp["rules"])
            labels = {r.label: i for i, r in enumerate(rules)}
            order = None
            if comp["orders"]:
                pairs = set()
                for chain in comp["orders"]:
                    for (ga, sa), (gb, sb) in zip(chain, chain[1:]):
                        for lbl, span in ((ga, sa), (gb, sb)):
                            if lbl not in labels:
                                raise ValidationError(
                                    [f"{span}: unknown rule label {lbl!r}"]
                                )
                        pairs.add((labels[ga], labels[gb]))
                order = close_order(pairs, size=len(rules))
            elif self.kind in ("ordered", "ocdgs"):
                order = StrictOrder()
            contexts = None
            if self.kind in ("rccdgs", "frccdgs"):
                contexts = tuple(e["context"] for e in comp["rules"])
            elif any(e["has_context"] for e in comp["rules"]):
                contexts = tuple(e["context"] for e in comp["rules"])
            entry = comp["entry"]
            if entry is None and self.kind == "entry-cdgs":
                entry = RcCondition()
            components.append(
                Component(comp["name"], rules, order=order,
                          contexts=contexts, entry=entry)
            )

        component_order = None
        if self.priorities or self.kind == "pcdgs":
            names = {c.name: i for i, c in enumerate(components)}
            pairs = set()
            for (g, l, span) in self.priorities:
                for n in (g, l):
                    if n not in names:
                        raise ValidationError(
                            [f"{span}: unknown component {n!r}"]
                        )
                pairs.add((names[g], names[l]))
            component_order = close_order(pairs, size=len(components))

        system = System(
            kind=self.kind,
            name=self.name,
            nonterminals=frozenset(self.nonterminals),
            terminals=frozenset(self.terminals),
            start=self.start,
            components=tuple(components),
            component_order=component_order,
            default_mode=self.default_mode,
        )
        return check(system)

    def _build_gc(self):
        gc_rules = []
        for comp in self.components:
            for e in comp["rules"]:
                gc_rules.append(
                    GcRule(e["rule"].label, e["rule"], e["success"],
                           e["failure"])
                )
        system = System(
            kind="gc",
            name=self.name,
            nonterminals=frozenset(self.nonterminals),
            terminals=frozenset(self.terminals),
            start=self.start,
            gc_rules=tuple(gc_rules),
            init_labels=frozenset(self.init_labels),
            final_labels=frozenset(self.final_labels),
            default_mode=self.default_mode,
        )
        return check(system)


def parse_system(text: str) -> System:
    """Parse a document into a validated System."""
    return _Parser(text).parse()


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
