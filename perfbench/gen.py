"""Seeded generator of small grammar systems, written as rrw documents.

Every system has at most 3 nonterminals, at most 3 components (gc: at most
3 labelled rules) and right-hand sides of length 1 or 2. Erasing rules are
left out: with them a bounded enumeration is rarely complete, and the
workload would measure undecided jobs instead of engine/oracle agreement.
The program sees a system only as the text returned here.
"""

from __future__ import annotations

KINDS = ("cf", "ordered", "cdgs", "ocdgs", "rccdgs", "frccdgs", "gc",
         "entry-cdgs", "pcdgs")
NONTERMINALS = ("S", "A", "B")
TERMINALS = ("a", "b")


def _subset(rng, pool, p):
    return [s for s in pool if rng.random() < p]


def _braces(ids):
    return "{ " + " ".join(ids) + " }" if ids else "{ }"


def _split(rng, pool):
    """Two disjoint random subsets of ``pool`` (permit, forbid)."""
    permit, forbid = [], []
    for s in pool:
        r = rng.random()
        if r < 0.2:
            permit.append(s)
        elif r < 0.45:
            forbid.append(s)
    return permit, forbid


def _rule(rng, nts):
    symbols = nts + TERMINALS
    rhs = [rng.choice(symbols) for _ in range(rng.randint(1, 2))]
    return f"{rng.choice(nts)} -> {' '.join(rhs)}"


def draft(rng, kind, name):
    """One candidate document of ``kind``; it may fail validation."""
    nts = NONTERMINALS[:rng.randint(1, 3)]
    lines = [f"system {kind} {name}",
             f"nonterminals: {' '.join(nts)}",
             f"terminals: {' '.join(TERMINALS)}",
             "start: S"]
    if kind == "gc":
        labels = [f"l{i + 1}" for i in range(rng.randint(1, 3))]
        lines.append("init-labels: " + " ".join(
            _subset(rng, labels, 0.5) or [labels[0]]))
        lines.append("final-labels: " + " ".join(
            _subset(rng, labels, 0.5) or [labels[-1]]))
        lines.append("component rules {")
        for label in labels:
            lines.append(
                f"  {label}: {_rule(rng, nts)}"
                f" success {_braces(_subset(rng, labels, 0.5))}"
                f" failure {_braces(_subset(rng, labels, 0.3))}")
        lines.append("}")
        return "\n".join(lines) + "\n"
    single = kind in ("cf", "ordered")
    count = 1 if single else rng.randint(1, 3)
    names = [f"P{i + 1}" for i in range(count)]
    if kind == "pcdgs":
        for i in range(count):
            for j in range(i + 1, count):
                if rng.random() < 0.4:
                    lines.append(f"priority: {names[i]} > {names[j]}")
    for comp in names:
        header = f"component {comp}"
        if kind == "entry-cdgs":
            permit, forbid = _split(rng, nts)
            header += f" entry forbid {_braces(forbid)}"
            if permit:
                header += f" permit {_braces(permit)}"
        lines.append(header + " {")
        size = rng.randint(1, 3)
        for _ in range(size):
            rule = _rule(rng, nts)
            if kind == "rccdgs":
                permit, forbid = _split(rng, nts)
                rule += f" permit {_braces(permit)} forbid {_braces(forbid)}"
            elif kind == "frccdgs":
                rule += f" forbid {_braces(_subset(rng, nts, 0.3))}"
            lines.append("  " + rule)
        if kind in ("ordered", "ocdgs"):
            for i in range(size):
                for j in range(i + 1, size):
                    if rng.random() < 0.3:
                        lines.append(f"  order: r{i + 1} > r{j + 1}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def generate(rng, per_kind, parse, errors):
    """``per_kind`` valid documents of every kind, as (name, text, system).

    A draft that ``parse`` rejects with one of ``errors`` is redrawn from
    the same generator, so a seed always yields the same documents. Returns
    the documents and the number of redrawn drafts.
    """
    out = []
    redrawn = 0
    for kind in KINDS:
        for i in range(per_kind):
            name = f"gen_{kind.replace('-', '_')}_{i}"
            while True:
                text = draft(rng, kind, name)
                try:
                    out.append((name, text, parse(text)))
                    break
                except errors:
                    redrawn += 1
    return out, redrawn
