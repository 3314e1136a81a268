"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single pass/fail line to
the real stdout (bypassing capture) so the verdicts are visible in any run.
"""

import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import rrw
from rrw import (
    CONSTRUCTIONS,
    Mode,
    ModeError,
    StepBounds,
    apply_construction,
    bounded_equiv,
    component_successors,
    enumerate_language,
    mode_apply,
    parse_system,
    reference_enumerate,
    serialize_system,
)
from rrw.cli import main as cli_main

from conftest import CORPUS_DIR, CORPUS_FILES, MODE_GRID, load_corpus

POWERS = {("a",) * n for n in (1, 2, 4, 8, 16)}


@pytest.fixture
def report(capsys):
    """Print one verdict line per criterion, bypassing output capture."""

    def _report(num, desc, ok, detail=""):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
        if detail and not ok:
            line += f" [{detail}]"
        with capsys.disabled():
            print(line, flush=True)

    return _report


def _shortlex(words):
    return sorted(words, key=lambda w: (len(w), w))


def test_criterion_1_doubling_regression(report):
    desc = "doubling system, maximal mode, words a^(2^n) up to 16"
    system = load_corpus("ocdgs_example1.rrw")
    started = time.monotonic()
    lang = enumerate_language(system, Mode.parse("t"), 16, StepBounds(16))
    elapsed = time.monotonic() - started
    blocked = mode_apply(
        system.component_named("P2"), ("B", "C"), Mode.parse("t"),
        StepBounds(16),
    )
    ok = (lang.words == POWERS and lang.complete and elapsed < 5.0
          and blocked == set())
    report(1, desc, ok,
            f"words={len(lang.words)} complete={lang.complete} "
            f"elapsed={elapsed:.2f}s blocked={sorted(blocked)}")
    assert ok


def test_criterion_2_entry_condition_witness(report):
    desc = "entry-condition system under >=k, k in 1..3, same language"
    system = load_corpus("entry_witness.rrw")
    ok = True
    details = []
    for k in (1, 2, 3):
        started = time.monotonic()
        lang = enumerate_language(
            system, Mode.parse(f">={k}"), 16, StepBounds(16)
        )
        elapsed = time.monotonic() - started
        good = lang.words == POWERS and lang.complete and elapsed < 10.0
        ok = ok and good
        details.append(f">={k}: {len(lang.words)} words, {elapsed:.2f}s")
    report(2, desc, ok, "; ".join(details))
    assert ok


# Corpus stems per construction (test data). The mode triples come from the
# CONSTRUCTIONS table: every mode of MODE_GRID that the construction accepts,
# with the (input mode, output mode) pair it preserves.
_DIFF_STEMS = {
    "frc-to-ord": ["frccd_small", "frccd_pair", "frccd_loops"],
    "ord-to-frc": ["ordered_chain", "ocdgs_pair", "ocdgs_example1"],
    "gc-to-ocdgs": ["gc_fin", "gc_choice"],
    "ocdgs-t-to-ord": ["ordered_chain", "ocdgs_pair", "cdgs_pair",
                       "cdgs_phases"],
    "frccd-merge": ["frccd_small", "frccd_pair", "frccd_loops"],
    "frccd-to-eq2": ["frccd_pair", "frccd_loops", "frccd_small"],
    "frccd-eq2-to-k": ["frccd_pair", "frccd_small"],
    "cdfrc-to-frccd": ["entry_pair", "entry_loops"],
    "frccd-eq2-to-cdfrc": ["frccd_pair", "frccd_small"],
    "cdfrc-eq2-to-eqk": ["entry_pair"],
    "cdfrc-to-pcd": ["entry_pair", "entry_loops"],
    "pcd-to-cdfrc": ["pcd_chain"],
    "cdfrc-geqk-to-geq2": ["entry_loops"],
}


def diff_cases():
    """(construction, stem, mode argument, input mode, output mode, compact)
    for every criterion-3 check."""
    for cname, stems in _DIFF_STEMS.items():
        contract = CONSTRUCTIONS[cname]
        for stem in stems:
            for text in MODE_GRID:
                mode = Mode.parse(text)
                if not contract.accepts(mode):
                    continue
                mode_in, mode_out = contract.preserved(mode)
                for compact in (False, True) if contract.compact \
                        else (False,):
                    yield cname, stem, mode, mode_in, mode_out, compact


def test_readme_states_the_criterion_3_count():
    readme = (CORPUS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Constructions\n", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"\((\d+) checks\)", section)
    assert stated == [str(len(list(diff_cases())))]


def test_criterion_3_construction_differential_suite(report):
    desc = "every construction x declared mode pair agrees at maxLen 6"
    bounds = StepBounds(14)
    failures = []
    checks = 0
    sources = {stem: load_corpus(stem + ".rrw")
               for stems in _DIFF_STEMS.values() for stem in stems}
    for cname, stem, mode, mode_in, mode_out, compact in diff_cases():
        checks += 1
        tag = f"{cname} {stem} {mode_in}->{mode_out}" + (
            " compact" if compact else ""
        )
        source = sources[stem]
        started = time.monotonic()
        out, _ = apply_construction(cname, source, mode=mode,
                                    compact=compact)
        verdict = bounded_equiv(source, mode_in, out, mode_out, 6, bounds)
        elapsed = time.monotonic() - started
        if elapsed >= 60.0:
            failures.append(f"{tag}: {elapsed:.1f}s")
        if not verdict.equal:
            diff = _shortlex(
                list(verdict.only_in_a) + list(verdict.only_in_b)
            )
            word = " ".join(diff[0]) if diff else "(incomplete)"
            failures.append(f"{tag}: counterexample {word}")
    ok = not failures
    report(3, desc, ok,
            f"{checks} checks; " + "; ".join(failures[:5]))
    assert ok, failures


# criterion 4: corpus-wide modes; gc systems ignore the mode parameter
_ALL_MODES = ("t", "*", "=1", "=2", "=3", "<=2", ">=1", ">=2")


def test_criterion_4_engine_matches_reference(report):
    desc = "fast engine and naive reference agree on the whole corpus"
    failures = []
    for name in CORPUS_FILES:
        system = load_corpus(name)
        workspace = 6 if name == "ocdgs_example1.rrw" else 10
        bounds = StepBounds(workspace)
        modes = ("*",) if system.kind == "gc" else _ALL_MODES
        for text in modes:
            mode = Mode.parse(text)
            fast = enumerate_language(system, mode, 6, bounds)
            slow = reference_enumerate(system, mode, 6, bounds)
            if fast.words != slow.words:
                failures.append(f"{name} {text}")
    ok = not failures
    report(4, desc, ok, "; ".join(failures[:5]))
    assert ok, failures


def test_criterion_5_mode_algebra(report):
    desc = "mode algebra on 200 seeded random (component, form) pairs"
    rng = random.Random(20240823)
    pool = []
    for name in CORPUS_FILES:
        system = load_corpus(name)
        if system.kind == "gc":
            continue
        alphabet = sorted(system.alphabet)
        for comp in system.components:
            pool.append((comp, alphabet))
    bounds = StepBounds(8)
    failures = []
    for trial in range(200):
        comp, alphabet = rng.choice(pool)
        form = tuple(
            rng.choice(alphabet) for _ in range(rng.randint(1, 5))
        )
        single = {f for (f, _, _) in component_successors(comp, form)
                  if len(f) <= bounds.workspace}
        eq = {
            k: mode_apply(comp, form, Mode("=", k), bounds)
            for k in (1, 2, 3)
        }
        ge = {
            k: mode_apply(comp, form, Mode(">=", k), bounds)
            for k in (1, 2)
        }
        le3 = mode_apply(comp, form, Mode("<=", 3), bounds)
        tset = mode_apply(comp, form, Mode("t"), bounds)
        star = mode_apply(comp, form, Mode("*"), bounds)
        checks = [
            ("=1 is the single-step relation", eq[1] == single),
            ("* is >=1", star == ge[1]),
            ("=k within >=k", all(eq[k] <= ge[k] for k in (1, 2))),
            ("=j within <=3", all(eq[j] <= le3 for j in (1, 2, 3))),
            ("t-results are successor-free", all(
                not component_successors(comp, w) for w in tset
            )),
        ]
        for k in (1, 2):
            closed = all(
                f2 in ge[k]
                for w in ge[k]
                for (f2, _, _) in component_successors(comp, w)
                if len(f2) <= bounds.workspace
            )
            checks.append((f">={k} closed under one more step", closed))
        for label, good in checks:
            if not good:
                failures.append(
                    f"trial {trial} ({comp.name}, {' '.join(form)}): {label}"
                )
    ok = not failures
    report(5, desc, ok, "; ".join(failures[:3]))
    assert ok, failures


def test_criterion_6_graph_control_end_to_end(report):
    desc = "graph-controlled grammar compiles to an equivalent ordered system"
    gc = load_corpus("gc_fin.rrw")
    assert len(gc.gc_rules) >= 2
    assert any(g.failure for g in gc.gc_rules)
    bounds = StepBounds(14)
    failures = []
    for text in ("=2", ">=2"):
        mode = Mode.parse(text)
        for compact in (False, True):
            out, _ = apply_construction("gc-to-ocdgs", gc, mode=mode,
                                        compact=compact)
            verdict = bounded_equiv(gc, mode, out, mode, 8, bounds)
            if not verdict.equal:
                failures.append(
                    f"{text}{' compact' if compact else ''}: "
                    + verdict.summary()
                )
    ok = not failures
    report(6, desc, ok, "; ".join(failures))
    assert ok, failures


def test_criterion_7_negative_controls(report):
    desc = "out-of-contract modes are rejected, CLI exits 2"
    frccd = load_corpus("frccd_small.rrw")
    pcd = load_corpus("pcd_chain.rrw")
    raised = []
    for mode in (">=2", "=2"):
        with pytest.raises(ModeError):
            apply_construction("frccd-merge", frccd, mode=Mode.parse(mode))
        raised.append(f"frccd-merge {mode}")
    with pytest.raises(ModeError):
        apply_construction("pcd-to-cdfrc", pcd, mode=Mode.parse("=2"))
    raised.append("pcd-to-cdfrc =2")
    status = cli_main([
        "transform", str(CORPUS_DIR / "frccd_small.rrw"),
        "--construction", "frccd-merge", "--mode", ">=2",
    ])
    ok = status == 2
    report(7, desc, ok, f"CLI exit {status}; raised: {', '.join(raised)}")
    assert ok


def test_criterion_8_round_trip_and_determinism(report):
    desc = "parse/serialize identity and byte-identical machine output"
    failures = []
    for name in CORPUS_FILES:
        system = load_corpus(name)
        if parse_system(serialize_system(system)) != system:
            failures.append(f"round trip broke on {name}")
    argv = [
        sys.executable, "-m", "rrw.cli", "enum",
        str(CORPUS_DIR / "ocdgs_example1.rrw"),
        "--mode", "t", "--max-len", "8", "--workspace", "8", "--json",
    ]
    src = str(pathlib.Path(rrw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    first = subprocess.run(argv, env=env, capture_output=True,
                           check=True).stdout
    second = subprocess.run(argv, env=env, capture_output=True,
                            check=True).stdout
    if first != second:
        failures.append("machine output differed between runs")
    ok = not failures
    report(8, desc, ok, "; ".join(failures))
    assert ok, failures
