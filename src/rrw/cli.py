"""Command-line front end.

Exit codes: 0 success (or: languages equal, word derivable); 1 languages
differ or word not derivable (after an exhaustive search); 2
parse/validation/usage errors; 3 budget exhaustion or otherwise incomplete
results.

``--json`` output is deterministic: identical inputs and flags produce
byte-identical documents (timing is therefore reported as null and, in
human mode, printed to stderr instead).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .constructions import CONSTRUCTION_NAMES, apply_construction
from .core import Mode, format_word
from .engine import StepBounds, enumerate_language, find_derivation
from .equivalence import bounded_equiv, useful_nonterminals
from .errors import BudgetExceeded, RrwError
from .textio import parse_system, serialize_system

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_ERROR = 2
EXIT_INCOMPLETE = 3


@dataclass(frozen=True)
class RunConfig:
    """One reproducible invocation (mirrors the parsed arguments)."""

    command: str
    inputs: tuple
    modes: tuple = ()
    max_len: int | None = None
    workspace: int | None = None
    step_budget: int = 1_000_000
    form_budget: int = 1_000_000
    output: str | None = None
    construction: str | None = None
    word: str | None = None
    trace: bool = False
    compact: bool = False
    as_json: bool = False

    def bounds(self) -> StepBounds:
        workspace = self.workspace
        if workspace is None:
            workspace = 2 * (self.max_len or 0) + 4
        if self.max_len is not None and self.max_len > workspace:
            raise ValueError("max-len must not exceed workspace")
        return StepBounds(workspace, self.step_budget, self.form_budget)


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_system(handle.read())


def _mode_for(system, text, flag="--mode"):
    """The mode to run ``system`` in; None for graph control, which has no
    modes (a given mode is still parsed, and then ignored)."""
    mode = Mode.parse(text) if text is not None else system.default_mode
    if system.kind == "gc":
        return None
    if mode is None:
        raise ValueError(
            f"{flag} is required (the document declares no default)"
        )
    return mode


def _parse_word(text: str, system):
    if text == "eps":
        return ()
    if any(ch.isspace() for ch in text):
        symbols = tuple(text.split())
    elif all(ch in system.alphabet for ch in text):
        symbols = tuple(text)
    elif text in system.alphabet:
        symbols = (text,)
    else:
        raise ValueError(f"cannot read word {text!r} over the alphabet")
    for s in symbols:
        if s not in system.alphabet:
            raise ValueError(f"unknown symbol {s!r} in word")
    return symbols


def _emit_json(command, params, payload_key, payload, complete):
    doc = {
        "command": command,
        "params": params,
        payload_key: payload,
        "complete": complete,
        "elapsed_ms": None,
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _params(config: RunConfig):
    bounds = config.bounds()
    out = {
        "inputs": list(config.inputs),
        "modes": list(config.modes),
        "maxLen": config.max_len,
        "workspace": bounds.workspace,
        "stepBudget": bounds.step_budget,
        "formBudget": bounds.form_budget,
    }
    if config.construction:
        out["construction"] = config.construction
    if config.word is not None:
        out["word"] = config.word
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_parse(config: RunConfig) -> int:
    system = _load(config.inputs[0])
    report = {
        "kind": system.kind,
        "name": system.name,
        "start": system.start,
        "nonterminals": sorted(system.nonterminals),
        "terminals": sorted(system.terminals),
        "components": [
            {"name": c.name, "rules": len(c.rules)} for c in system.components
        ],
        "gcRules": len(system.gc_rules),
        "nonErasing": system.non_erasing,
        "defaultMode": None if system.default_mode is None
        else str(system.default_mode),
    }
    if config.as_json:
        _emit_json("parse", _params(config), "report", report, None)
    else:
        print(f"{system.kind} system {system.name}: "
              f"{len(system.nonterminals)} nonterminals, "
              f"{len(system.terminals)} terminals, "
              f"{len(system.components)} components, "
              f"{len(system.all_rules())} rules")
        print(f"start: {system.start}; "
              f"non-erasing: {'yes' if system.non_erasing else 'no'}")
    return EXIT_OK


def _cmd_enum(config: RunConfig) -> int:
    system = _load(config.inputs[0])
    mode = _mode_for(system, config.modes[0] if config.modes else None)
    lang = enumerate_language(system, mode, config.max_len, config.bounds())
    words = [format_word(w) for w in lang.sorted_words()]
    if config.as_json:
        _emit_json("enum", _params(config), "words", words, lang.complete)
    else:
        for word in words:
            print(word)
        print(f"# {len(words)} word(s), "
              f"{'complete' if lang.complete else 'INCOMPLETE'}",
              file=sys.stderr)
    return EXIT_OK if lang.complete else EXIT_INCOMPLETE


def _cmd_derive(config: RunConfig) -> int:
    system = _load(config.inputs[0])
    target = _parse_word(config.word, system)
    mode = _mode_for(system, config.modes[0] if config.modes else None)
    workspace = config.workspace
    if workspace is None:
        workspace = 2 * max(len(target), 1) + 4
    bounds = StepBounds(workspace, config.step_budget, config.form_budget)
    trace = find_derivation(system, mode, target, bounds)
    payload = {"derivable": trace is not None, "trace": None}
    if trace is not None and config.trace:
        payload["trace"] = [
            {
                "component": step.component,
                "applications": [list(a) for a in step.applications],
                "result": format_word(step.result),
            }
            for step in trace.steps
        ]
    if config.as_json:
        _emit_json("derive", _params(config), "verdict", payload, None)
    else:
        if trace is None:
            print("not derivable within the given bounds")
        else:
            print(f"derivable in {len(trace.steps)} activation(s)")
            if config.trace:
                print(format_word(trace.start))
                for step in trace.steps:
                    print(f"  ={step.component}=> {format_word(step.result)}")
    return EXIT_OK if trace is not None else EXIT_DIFF


def _cmd_transform(config: RunConfig) -> int:
    system = _load(config.inputs[0])
    mode = None
    if config.modes and config.modes[0] is not None:
        mode = Mode.parse(config.modes[0])
    elif system.default_mode is not None:
        mode = system.default_mode
    out, report = apply_construction(
        config.construction, system, mode=mode, compact=config.compact
    )
    document = serialize_system(out)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(document)
    report_doc = {
        "name": report.name,
        "inputKind": report.input_kind,
        "outputKind": report.output_kind,
        "inputMode": report.input_mode,
        "outputMode": report.output_mode,
        "freshNonterminals": report.fresh_nonterminals,
        "components": report.components,
        "notes": list(report.notes),
        "document": document,
    }
    if config.as_json:
        _emit_json("transform", _params(config), "report", report_doc, None)
    else:
        if not config.output:
            sys.stdout.write(document)
        print(report.summary(), file=sys.stderr)
    return EXIT_OK


def _cmd_equiv(config: RunConfig) -> int:
    system_a = _load(config.inputs[0])
    system_b = _load(config.inputs[1])
    mode_a = _mode_for(system_a, config.modes[0], "--mode-a")
    mode_b = _mode_for(system_b, config.modes[1], "--mode-b")
    verdict = bounded_equiv(
        system_a, mode_a, system_b, mode_b, config.max_len, config.bounds()
    )
    payload = {
        "equal": verdict.equal,
        "onlyInA": [format_word(w) for w in verdict.only_in_a],
        "onlyInB": [format_word(w) for w in verdict.only_in_b],
        "completeA": verdict.complete_a,
        "completeB": verdict.complete_b,
    }
    complete = verdict.complete_a and verdict.complete_b
    if config.as_json:
        _emit_json("equiv", _params(config), "verdict", payload, complete)
    else:
        print(verdict.summary())
        if verdict.only_in_a:
            print(f"first word only in A: {format_word(verdict.only_in_a[0])}")
        if verdict.only_in_b:
            print(f"first word only in B: {format_word(verdict.only_in_b[0])}")
    if verdict.equal:
        return EXIT_OK
    return EXIT_DIFF if complete else EXIT_INCOMPLETE


def _cmd_nonempty(config: RunConfig) -> int:
    system = _load(config.inputs[0])
    if system.kind == "gc":
        groups = [("P", [g.rule for g in system.gc_rules])]
    else:
        groups = [(c.name, list(c.rules)) for c in system.components]
    report = []
    for name, rules in groups:
        lhs = {r.lhs for r in rules}
        passive = {s for r in rules for s in r.rhs if s not in lhs}
        useful = useful_nonterminals(rules, passive)
        report.append({
            "component": name,
            "lhs": sorted(lhs),
            "nonemptyLhs": sorted(lhs & useful),
        })
    if config.as_json:
        _emit_json("nonempty", _params(config), "report", report, None)
    else:
        for entry in report:
            dead = sorted(set(entry["lhs"]) - set(entry["nonemptyLhs"]))
            line = f"{entry['component']}: nonempty for " + (
                ", ".join(entry["nonemptyLhs"]) or "(none)"
            )
            if dead:
                line += "; empty for " + ", ".join(dead)
            print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rrw",
        description="workbench for regulated cooperating grammar systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def bounds_args(p, need_max_len=False):
        p.add_argument("--max-len", type=int, required=need_max_len,
                       help="maximum word length")
        p.add_argument("--workspace", type=int, default=None,
                       help="maximum sentential-form length "
                            "(default 2*maxLen+4)")
        p.add_argument("--step-budget", type=int, default=1_000_000)
        p.add_argument("--form-budget", type=int, default=1_000_000)

    p = sub.add_parser("parse", help="parse and validate a document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enum", help="enumerate the bounded language")
    p.add_argument("file")
    p.add_argument("--mode", default=None)
    bounds_args(p, need_max_len=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("derive", help="search a derivation for a word")
    p.add_argument("file")
    p.add_argument("--mode", default=None)
    p.add_argument("--word", required=True)
    p.add_argument("--trace", action="store_true")
    bounds_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("transform", help="apply a construction")
    p.add_argument("file")
    p.add_argument("--construction", required=True,
                   choices=sorted(CONSTRUCTION_NAMES))
    p.add_argument("--mode", default=None)
    p.add_argument("--compact", action="store_true",
                   help="erasing single-component success simulation "
                        "(gc-to-ocdgs only)")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("equiv", help="compare two bounded languages")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--mode", default=None, help="mode for both sides")
    p.add_argument("--mode-a", default=None)
    p.add_argument("--mode-b", default=None)
    bounds_args(p, need_max_len=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("nonempty",
                       help="per-component nonemptiness of lhs sub-languages")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    return parser


def _config_from(args) -> RunConfig:
    command = args.command
    inputs = ()
    modes = ()
    if command == "equiv":
        inputs = (args.file_a, args.file_b)
        modes = (args.mode_a or args.mode, args.mode_b or args.mode)
    else:
        inputs = (args.file,)
        if hasattr(args, "mode"):
            modes = (args.mode,)
    return RunConfig(
        command=command,
        inputs=inputs,
        modes=modes,
        max_len=getattr(args, "max_len", None),
        workspace=getattr(args, "workspace", None),
        step_budget=getattr(args, "step_budget", 1_000_000),
        form_budget=getattr(args, "form_budget", 1_000_000),
        output=getattr(args, "output", None),
        construction=getattr(args, "construction", None),
        word=getattr(args, "word", None),
        trace=getattr(args, "trace", False),
        compact=getattr(args, "compact", False),
        as_json=args.json,
    )


_DISPATCH = {
    "parse": _cmd_parse,
    "enum": _cmd_enum,
    "derive": _cmd_derive,
    "transform": _cmd_transform,
    "equiv": _cmd_equiv,
    "nonempty": _cmd_nonempty,
}


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit code."""
    started = time.monotonic()
    try:
        status = _DISPATCH[config.command](config)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (RrwError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not config.as_json:
        elapsed = (time.monotonic() - started) * 1000.0
        print(f"# elapsed {elapsed:.1f} ms", file=sys.stderr)
    return status


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from(args)
        return run(config)
    except (RrwError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
