"""The benchmark's workloads: their jobs and the known answers they are checked against.

A job is one unit of work sent to rrw through its public API (or through
``rrw.cli.main``, as a user of the ``rrw`` command would). ``run`` does the
work and returns a record; ``check`` judges the record after the pass, so
checking is never timed. A check returns a status, a detail line and a
signature: counts that must repeat exactly from run to run.

Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

WORKLOADS = ("doubling", "construct", "corpus-oracle")

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"

# Wrong answers the program gives at the commit that introduced this
# benchmark. They are still counted as failed jobs on every run; listing them
# only keeps them from marking the run itself incorrect, so that a new wrong
# answer stands out. Remove an entry once the program is fixed.
KNOWN_DEFECTS = {
    "derive/a^16": "derive gives 'not derivable' (exit 1) for a member; "
                   "its global step budget runs out, which should exit 3",
    "cdfrc-eq2-to-eqk/entry_pair/=2->=3": "serialize_system writes a "
                   "document that parse_system rejects (duplicate label r2)",
    "cdfrc-eq2-to-eqk/entry_pair/=2->=4": "serialize_system writes a "
                   "document that parse_system rejects (duplicate label r2)",
}

# criterion-4 modes; gc systems ignore the mode
MODES = ("t", "*", "=1", "=2", "=3", "<=2", ">=1", ">=2")

# The criterion-3 differential suite, frozen here so the workload does not
# change when the tests do: (construction, corpus stems,
# [(mode argument, input mode, output mode)]).
CONSTRUCT_CASES = [
    ("frc-to-ord", ["frccd_small", "frccd_pair", "frccd_loops"],
     [(None, m, m) for m in ("*", "=1", "=2", "<=2", ">=1", ">=2")]),
    ("ord-to-frc", ["ordered_chain", "ocdgs_pair"],
     [(None, m, m) for m in ("t", "*", "=1", "=2", "=3", "<=2", ">=1",
                             ">=2")]),
    ("ord-to-frc", ["ocdgs_example1"], [(None, "t", "t")]),
    ("gc-to-ocdgs", ["gc_fin", "gc_choice"],
     [(m, m, m) for m in ("=2", ">=2", "=3", ">=3")]),
    ("ocdgs-t-to-ord",
     ["ordered_chain", "ocdgs_pair", "cdgs_pair", "cdgs_phases"],
     [(None, "t", "*")]),
    ("frccd-merge", ["frccd_small", "frccd_pair", "frccd_loops"],
     [(m, m, m) for m in ("*", "=1", ">=1", "<=2", "<=3")]),
    ("frccd-to-eq2", ["frccd_pair", "frccd_loops", "frccd_small"],
     [(m, m, "=2") for m in ("=2", ">=2", "=3", ">=3")]),
    ("frccd-eq2-to-k", ["frccd_pair", "frccd_small"],
     [(m, "=2", m) for m in ("=3", ">=3", "=4")]),
    ("cdfrc-to-frccd", ["entry_pair", "entry_loops"],
     [(m, m, m) for m in ("t", "*", ">=1", ">=2")]),
    ("frccd-eq2-to-cdfrc", ["frccd_pair", "frccd_small"],
     [(None, "=2", "=2")]),
    ("cdfrc-eq2-to-eqk", ["entry_pair"],
     [(m, "=2", m) for m in ("=3", "=4")]),
    ("cdfrc-to-pcd", ["entry_pair", "entry_loops"],
     [(m, m, m) for m in ("t", "*", "=1", "=2", "<=2", ">=1", ">=2")]),
    ("pcd-to-cdfrc", ["pcd_chain"],
     [(m, m, m) for m in ("t", "*", "=1", ">=1", "<=2", "<=3")]),
    ("cdfrc-geqk-to-geq2", ["entry_loops"],
     [(m, m, ">=2") for m in (">=2", ">=3")]),
]

DOUBLING_DERIVE = (1, 2, 4, 8, 16, 3, 5, 6, 7)
# Every kind but gc is run under every mode once, so that the seed changes
# the systems but not the mix of modes.
GENERATED_PER_KIND = len(MODES)
GENERATED_MAX_LEN = 5


@dataclass
class Job:
    id: str
    run: Callable[[], dict]
    check: Callable[[dict, dict], tuple]  # (record, all records) -> result


@dataclass
class Inputs:
    systems: dict          # corpus stem -> System
    generated: list        # (name, mode, System)
    redrawn: int = 0


def _word_digest(words):
    """A run-independent checksum of a word set."""
    text = "\n".join(sorted(" ".join(w) for w in words))
    return zlib.crc32(text.encode("utf-8"))


def _cli(rrw, argv):
    """Run ``rrw.cli.main`` with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = rrw.cli.main(argv)
    return code, out.getvalue()


def _read_word(text):
    """Inverse of ``format_word`` for the words the CLI prints."""
    if text == "eps":
        return ()
    return tuple(text.split()) if " " in text else tuple(text)


def _powers(max_len):
    return frozenset(("a",) * (1 << n) for n in range(max_len.bit_length()))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _stems(workload):
    if workload == "doubling":
        return ["ocdgs_example1", "entry_witness"]
    if workload == "construct":
        return sorted({s for _, stems, _ in CONSTRUCT_CASES for s in stems})
    return sorted(p.stem for p in CORPUS.glob("*.rrw"))


def load_inputs(rrw, workload, seed):
    """Parse the corpus files a workload uses and generate its systems."""
    systems = {}
    for stem in _stems(workload):
        text = (CORPUS / f"{stem}.rrw").read_text(encoding="utf-8")
        systems[stem] = rrw.parse_system(text)
    if workload != "corpus-oracle":
        return Inputs(systems, [])
    drafts, redrawn = gen.generate(random.Random(seed), GENERATED_PER_KIND,
                                   rrw.parse_system, rrw.RrwError)
    generated = [(name, "*" if system.kind == "gc" else MODES[i % len(MODES)],
                  system) for i, (name, _text, system) in enumerate(drafts)]
    return Inputs(systems, generated, redrawn)


def build_jobs(rrw, workload, inputs, seed):
    """The job list of a workload, in an order drawn from ``seed``."""
    builder = {"doubling": _doubling, "construct": _construct,
               "corpus-oracle": _corpus_oracle}[workload]
    jobs = builder(rrw, inputs)
    random.Random(f"{workload}:{seed}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

def _powers_job(rrw, job_id, system, mode, max_len):
    expected = _powers(max_len)

    def run():
        lang = rrw.enumerate_language(
            system, rrw.Mode.parse(mode), max_len, rrw.StepBounds(max_len))
        return {"words": lang.words, "complete": lang.complete}

    def check(rec, _records):
        words = rec["words"]
        sig = (len(words), _word_digest(words))
        extra = words - expected
        if extra:
            return FAILED, f"non-members {sorted(extra)[:3]}", sig
        if not rec["complete"]:
            return UNDECIDED, f"{len(words)} words, incomplete", sig
        if words != expected:
            return FAILED, f"complete with {len(words)} of " \
                           f"{len(expected)} words", sig
        return DECIDED, f"{len(words)} words, complete", sig

    return Job(job_id, run, check)


def _derive_job(rrw, system, n):
    path = str(CORPUS / "ocdgs_example1.rrw")
    member = n & (n - 1) == 0
    target = ("a",) * n
    mode = rrw.Mode.parse("t")

    def run():
        code, out = _cli(rrw, ["derive", path, "--mode", "t",
                               "--word", "a" * n, "--trace", "--json"])
        rec = {"code": code}
        if code == 0:
            steps = tuple(
                rrw.TraceStep(s["component"], mode,
                              tuple(tuple(a) for a in s["applications"]),
                              _read_word(s["result"]))
                for s in json.loads(out)["verdict"]["trace"])
            trace = rrw.DerivationTrace((system.start,), steps)
            try:
                rec["replayed"] = rrw.replay_trace(system, trace)
            except ValueError as exc:
                rec["replay_error"] = str(exc)
        return rec

    def check(rec, _records):
        code = rec["code"]
        sig = (code,)
        if code == 3:
            return UNDECIDED, "exit 3 (budget)", sig
        if code == 1:
            if member:
                return FAILED, "exit 1 (not derivable) for a member", sig
            return DECIDED, "exit 1, not a member", sig
        if code != 0:
            return FAILED, f"exit {code}", sig
        if not member:
            return FAILED, "derived a non-member", sig
        if "replay_error" in rec:
            return FAILED, f"replay: {rec['replay_error']}", sig
        if rec["replayed"] != target:
            return FAILED, "trace replays to another word", sig
        return DECIDED, "exit 0, trace replays", sig

    return Job(f"derive/a^{n}", run, check)


def _doubling(rrw, inputs):
    example1 = inputs.systems["ocdgs_example1"]
    witness = inputs.systems["entry_witness"]
    jobs = [_powers_job(rrw, f"enum/t/{m}", example1, "t", m)
            for m in (16, 32)]
    jobs += [_powers_job(rrw, f"witness/>={k}/16", witness, f">={k}", 16)
             for k in (1, 2, 3)]
    jobs += [_derive_job(rrw, example1, n) for n in DOUBLING_DERIVE]
    return jobs


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def output_sizes(system):
    """(rules, order pairs, nonterminals) of a construction's output."""
    pairs = sum(len(c.order.pairs) for c in system.components
                if c.order is not None)
    if system.component_order is not None:
        pairs += len(system.component_order.pairs)
    return len(system.all_rules()), pairs, len(system.nonterminals)


def _construct_job(rrw, job_id, cname, source, mode_arg, mode_in, mode_out,
                   compact):
    def run():
        mode = None if mode_arg is None else rrw.Mode.parse(mode_arg)
        out, _ = rrw.apply_construction(cname, source, mode=mode,
                                        compact=compact)
        verdict = rrw.bounded_equiv(
            source, rrw.Mode.parse(mode_in), out, rrw.Mode.parse(mode_out),
            6, rrw.StepBounds(14))
        text = rrw.serialize_system(out)
        try:
            again = rrw.serialize_system(rrw.parse_system(text))
            round_trip = "ok" if again == text else "re-serialized text differs"
        except rrw.RrwError as exc:
            round_trip = f"{type(exc).__name__}: {exc}"
        return {"equal": verdict.equal,
                "diff": len(verdict.only_in_a) + len(verdict.only_in_b),
                "round_trip": round_trip,
                "sizes": output_sizes(out)}

    def check(rec, _records):
        sig = (rec["equal"], *rec["sizes"])
        if rec["diff"]:
            return FAILED, f"{rec['diff']} word(s) differ", sig
        if rec["round_trip"] != "ok":
            return FAILED, f"verdict equal; round trip: {rec['round_trip']}", sig
        if not rec["equal"]:
            return UNDECIDED, "incomplete enumeration", sig
        return DECIDED, "equal", sig

    return Job(job_id, run, check)


def _construct(rrw, inputs):
    jobs = []
    for cname, stems, triples in CONSTRUCT_CASES:
        for stem in stems:
            for mode_arg, mode_in, mode_out in triples:
                variants = (False, True) if cname == "gc-to-ocdgs" \
                    else (False,)
                for compact in variants:
                    job_id = f"{cname}/{stem}/{mode_in}->{mode_out}" + (
                        "/compact" if compact else "")
                    jobs.append(_construct_job(
                        rrw, job_id, cname, inputs.systems[stem], mode_arg,
                        mode_in, mode_out, compact))
    return jobs


# ---------------------------------------------------------------------------
# corpus-oracle
# ---------------------------------------------------------------------------

def _oracle_job(rrw, job_id, system, mode, max_len, workspace):
    def run():
        bounds = rrw.StepBounds(workspace)
        parsed = rrw.Mode.parse(mode)
        fast = rrw.enumerate_language(system, parsed, max_len, bounds)
        slow = rrw.reference_enumerate(system, parsed, max_len, bounds)
        return {"words": fast.words, "complete": fast.complete,
                "oracle_words": slow.words}

    def check(rec, _records):
        words = rec["words"]
        sig = (len(words), _word_digest(words))
        if words != rec["oracle_words"]:
            return FAILED, (f"engine/oracle mismatch: engine "
                            f"{len(words - rec['oracle_words'])} extra, "
                            f"{len(rec['oracle_words'] - words)} missing"), sig
        if not rec["complete"]:
            return UNDECIDED, f"{len(words)} words, incomplete", sig
        return DECIDED, f"{len(words)} words", sig

    return Job(job_id, run, check)


def _cli_enum_job(rrw, stem, workspace):
    argv = ["enum", str(CORPUS / f"{stem}.rrw"), "--mode", "*",
            "--max-len", "6", "--workspace", str(workspace), "--json"]
    oracle_id = f"oracle/{stem}/*"

    def run():
        return {"runs": (_cli(rrw, argv), _cli(rrw, argv))}

    def check(rec, records):
        (code, out), second = rec["runs"]
        sig = (code, zlib.crc32(out.encode("utf-8")))
        if (code, out) != second:
            return FAILED, "the two --json runs differ", sig
        doc = json.loads(out)
        oracle = records[oracle_id]["oracle_words"]
        expected = [rrw.format_word(w)
                    for w in sorted(oracle, key=rrw.shortlex_key)]
        if doc["words"] != expected:
            return FAILED, "CLI words differ from the oracle's", sig
        if code != (0 if doc["complete"] else 3):
            return FAILED, f"exit {code} with complete={doc['complete']}", sig
        if not doc["complete"]:
            return UNDECIDED, "exit 3, incomplete", sig
        return DECIDED, f"{len(expected)} words, byte-identical", sig

    return Job(f"cli-enum/{stem}", run, check)


def _corpus_oracle(rrw, inputs):
    jobs = []
    for stem, system in sorted(inputs.systems.items()):
        workspace = 6 if stem == "ocdgs_example1" else 10
        modes = ("*",) if system.kind == "gc" else MODES
        jobs += [_oracle_job(rrw, f"oracle/{stem}/{m}", system, m, 6,
                             workspace) for m in modes]
        jobs.append(_cli_enum_job(rrw, stem, workspace))
    for name, mode, system in inputs.generated:
        jobs.append(_oracle_job(rrw, f"gen/{name}/{mode}", system, mode,
                                GENERATED_MAX_LEN, GENERATED_MAX_LEN))
    return jobs
