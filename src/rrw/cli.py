"""Command-line front end.

Exit codes: 0 success (or: languages equal, word derivable); 1 languages
differ or word not derivable (after an exhaustive search); 2
parse/validation/usage errors; 3 budget exhaustion or otherwise incomplete
results.

``--json`` output is deterministic: identical inputs and flags produce
byte-identical documents (timing is therefore reported as null and, in
human mode, printed to stderr instead).

:func:`main` returns the exit code and may be called any number of times
in one process. It builds the argument parser on its first call and reuses
it afterwards; importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .constructions import CONSTRUCTIONS, apply_construction
from .core import Mode, format_word
from .engine import StepBounds, enumerate_language, find_derivation
from .equivalence import bounded_equiv, nonempty_lhs
from .errors import BudgetExceeded, RrwError
from .textio import parse_system, serialize_system

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_ERROR = 2
EXIT_INCOMPLETE = 3

_BUDGET = 1_000_000  # default --step-budget and --form-budget


def _bounds(args, length=None) -> StepBounds:
    """Bounds for a search up to ``length`` symbols (``--max-len`` unless
    given, 0 for a command without it). Without ``--workspace`` the
    workspace is 2*length+4; a negative length is left for the search to
    reject. A command without bounds flags reports their defaults."""
    if length is None:
        length = getattr(args, "max_len", 0)
    workspace = getattr(args, "workspace", None)
    if workspace is None:
        workspace = 2 * max(length, 0) + 4
    return StepBounds(workspace, getattr(args, "step_budget", _BUDGET),
                      getattr(args, "form_budget", _BUDGET))


def _modes(args) -> list:
    """The mode text given for each input, None where none is given."""
    if args.command == "equiv":
        return [args.mode_a or args.mode, args.mode_b or args.mode]
    return [args.mode] if "mode" in args else []


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


def _params(args, bounds=None):
    """The invocation's parameters; ``bounds`` defaults to :func:`_bounds`."""
    bounds = bounds or _bounds(args)
    out = {
        "inputs": [args.file_a, args.file_b] if args.command == "equiv"
        else [args.file],
        "modes": _modes(args),
        "maxLen": getattr(args, "max_len", None),
        "workspace": bounds.workspace,
        "stepBudget": bounds.step_budget,
        "formBudget": bounds.form_budget,
    }
    if getattr(args, "construction", None):
        out["construction"] = args.construction
    if getattr(args, "word", None) is not None:
        out["word"] = args.word
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    system = _load(args.file)
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
    if args.json:
        _emit_json("parse", _params(args), "report", report, None)
    else:
        print(f"{system.kind} system {system.name}: "
              f"{len(system.nonterminals)} nonterminals, "
              f"{len(system.terminals)} terminals, "
              f"{len(system.components)} components, "
              f"{len(system.all_rules())} rules")
        print(f"start: {system.start}; "
              f"non-erasing: {'yes' if system.non_erasing else 'no'}")
    return EXIT_OK


def _cmd_enum(args) -> int:
    system = _load(args.file)
    mode = _mode_for(system, args.mode)
    lang = enumerate_language(system, mode, args.max_len, _bounds(args))
    words = [format_word(w) for w in lang.sorted_words()]
    if args.json:
        _emit_json("enum", _params(args), "words", words, lang.complete)
    else:
        for word in words:
            print(word)
        print(f"# {len(words)} word(s), "
              f"{'complete' if lang.complete else 'INCOMPLETE'}",
              file=sys.stderr)
    return EXIT_OK if lang.complete else EXIT_INCOMPLETE


def _cmd_derive(args) -> int:
    system = _load(args.file)
    target = _parse_word(args.word, system)
    mode = _mode_for(system, args.mode)
    bounds = _bounds(args, max(len(target), 1))
    trace = find_derivation(system, mode, target, bounds)
    payload = {"derivable": trace is not None, "trace": None}
    if trace is not None and args.trace:
        payload["trace"] = [
            {
                "component": step.component,
                "applications": [list(a) for a in step.applications],
                "result": format_word(step.result),
            }
            for step in trace.steps
        ]
    if args.json:
        _emit_json("derive", _params(args, bounds), "verdict", payload,
                   None)
    else:
        if trace is None:
            print("not derivable within the given bounds")
        else:
            print(f"derivable in {len(trace.steps)} activation(s)")
            if args.trace:
                print(format_word(trace.start))
                for step in trace.steps:
                    print(f"  ={step.component}=> {format_word(step.result)}")
    return EXIT_OK if trace is not None else EXIT_DIFF


def _cmd_transform(args) -> int:
    system = _load(args.file)
    mode = system.default_mode
    if args.mode is not None:
        mode = Mode.parse(args.mode)
    out, report = apply_construction(
        args.construction, system, mode=mode, compact=args.compact
    )
    document = serialize_system(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
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
    if args.json:
        _emit_json("transform", _params(args), "report", report_doc, None)
    else:
        if not args.output:
            sys.stdout.write(document)
        print(report.summary(), file=sys.stderr)
    return EXIT_OK


def _cmd_equiv(args) -> int:
    system_a = _load(args.file_a)
    system_b = _load(args.file_b)
    text_a, text_b = _modes(args)
    mode_a = _mode_for(system_a, text_a, "--mode-a")
    mode_b = _mode_for(system_b, text_b, "--mode-b")
    verdict = bounded_equiv(
        system_a, mode_a, system_b, mode_b, args.max_len, _bounds(args)
    )
    payload = {
        "equal": verdict.equal,
        "onlyInA": [format_word(w) for w in verdict.only_in_a],
        "onlyInB": [format_word(w) for w in verdict.only_in_b],
        "completeA": verdict.complete_a,
        "completeB": verdict.complete_b,
    }
    complete = verdict.complete_a and verdict.complete_b
    if args.json:
        _emit_json("equiv", _params(args), "verdict", payload, complete)
    else:
        print(verdict.summary())
        if verdict.only_in_a:
            print(f"first word only in A: {format_word(verdict.only_in_a[0])}")
        if verdict.only_in_b:
            print(f"first word only in B: {format_word(verdict.only_in_b[0])}")
    if verdict.equal:
        return EXIT_OK
    return EXIT_DIFF if complete else EXIT_INCOMPLETE


def _cmd_nonempty(args) -> int:
    system = _load(args.file)
    if system.kind == "gc":
        groups = [("P", [g.rule for g in system.gc_rules])]
    else:
        groups = [(c.name, list(c.rules)) for c in system.components]
    report = []
    for name, rules in groups:
        report.append({
            "component": name,
            "lhs": sorted({r.lhs for r in rules}),
            "nonemptyLhs": sorted(nonempty_lhs(rules)),
        })
    if args.json:
        _emit_json("nonempty", _params(args), "report", report, None)
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

@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rrw",
        description="workbench for regulated cooperating grammar systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def bounds_args(p, max_len=True):
        if max_len:
            p.add_argument("--max-len", type=int, required=True,
                           help="maximum word length")
        p.add_argument("--workspace", type=int, default=None,
                       help="maximum sentential-form length "
                            "(default 2*maxLen+4, or 2*len(word)+4 for "
                            "derive; a non-erasing system without "
                            "priorities stops at maxLen, or len(word))")
        p.add_argument("--step-budget", type=int, default=_BUDGET)
        p.add_argument("--form-budget", type=int, default=_BUDGET)

    p = sub.add_parser("parse", help="parse and validate a document")
    p.set_defaults(run=_cmd_parse)
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enum", help="enumerate the bounded language")
    p.set_defaults(run=_cmd_enum)
    p.add_argument("file")
    p.add_argument("--mode", default=None)
    bounds_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("derive", help="search a derivation for a word")
    p.set_defaults(run=_cmd_derive)
    p.add_argument("file")
    p.add_argument("--mode", default=None)
    p.add_argument("--word", required=True)
    p.add_argument("--trace", action="store_true")
    bounds_args(p, max_len=False)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("transform", help="apply a construction")
    p.set_defaults(run=_cmd_transform)
    p.add_argument("file")
    p.add_argument("--construction", required=True,
                   choices=sorted(CONSTRUCTIONS))
    p.add_argument("--mode", default=None)
    p.add_argument("--compact", action="store_true",
                   help="erasing single-component success simulation "
                        "(gc-to-ocdgs only)")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("equiv", help="compare two bounded languages")
    p.set_defaults(run=_cmd_equiv)
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--mode", default=None, help="mode for both sides")
    p.add_argument("--mode-a", default=None)
    p.add_argument("--mode-b", default=None)
    bounds_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("nonempty",
                       help="per-component nonemptiness of lhs sub-languages")
    p.set_defaults(run=_cmd_nonempty)
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one ``rrw`` invocation; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        status = args.run(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (RrwError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not args.json:
        elapsed = (time.monotonic() - started) * 1000.0
        print(f"# elapsed {elapsed:.1f} ms", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
