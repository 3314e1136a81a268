"""rrw benchmark runner (stdlib only).

    python3 perfbench/run.py --workload doubling --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop: one client, one process, no threads;
each job starts when the previous one has finished. The whole job list is a
pass, and passes repeat for about ``--seconds`` (at least one pass).
Every answer is checked against its known result. The last line of stdout is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics of one extra, traced set-up and pass, and the tracing overhead.
End-to-end times are in seconds at a fixed reference speed (``speed.py``),
so that the shared host's changing speed does not show in them.

Run it from the repository root. It exits with code 2, printing no result,
when the rrw sources or the corpus are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DECIDED, FAILED, KNOWN_DEFECTS  # noqa: E402

# Set-up is short, so it is repeated and its median reported.
SETUP_REPEATS = 11

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(
    (f"{span}.{field}", unit)
    for span in tracing.SPAN_NAMES + (tracing.JOB_SPAN,)
    for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
) + (
    (f"{tracing.COUNTED}.calls", "count"),
    ("constructions.out_rules", "count"),
    ("constructions.out_order_pairs", "count"),
    ("constructions.out_nonterminals", "count"),
    ("trace_overhead_s", "s"),
)


class SetupError(Exception):
    """The checkout lacks what the benchmark needs."""


@dataclass
class Pass:
    wall: float
    spans: dict       # job id -> (start, end) on time.perf_counter
    outcomes: dict    # job id -> (status, detail, signature)
    records: dict     # job id -> record
    calls: dict       # job id -> effective_conditions calls (traced only)


def import_rrw():
    """(Re-)import rrw from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "rrw" or n.startswith("rrw.")]:
        del sys.modules[name]
    try:
        rrw = importlib.import_module("rrw")
        importlib.import_module("rrw.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import rrw: {exc}") from exc
    if Path(rrw.__file__).resolve().parent != ROOT / "src" / "rrw":
        raise SetupError(f"rrw imported from {rrw.__file__}, not src/")
    return rrw


def setup(workload, seed):
    rrw = import_rrw()
    try:
        inputs = workloads.load_inputs(rrw, workload, seed)
    except OSError as exc:
        raise SetupError(f"cannot read the corpus: {exc}") from exc
    return rrw, inputs, workloads.build_jobs(rrw, workload, inputs, seed)


def judge(job, records):
    rec = records[job.id]
    if "error" in rec:
        return FAILED, rec["error"], ()
    try:
        return job.check(rec, records)
    except Exception as exc:  # a malformed answer fails its job only
        return FAILED, f"check raised {type(exc).__name__}: {exc}", ()


def run_pass(jobs, tracer=None):
    clock = time.perf_counter
    records, spans, calls = {}, {}, {}
    started = clock()
    for job in jobs:
        # Each job starts with no garbage left by the one before it.
        gc.collect()
        t0 = clock()
        try:
            if tracer is None:
                rec = job.run()
            else:
                rec, calls[job.id] = tracer.job(job.id, job.run)
        except Exception as exc:  # a job that raises fails; the pass goes on
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        spans[job.id] = (t0, clock())
        records[job.id] = rec
    wall = clock() - started
    outcomes = {job.id: judge(job, records) for job in jobs}
    return Pass(wall, spans, outcomes, records, calls)


def percentile(values, q):
    """Nearest-rank percentile: a measured value, never an interpolation."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def middle_tenth(n):
    """Slice of the ranks from the 45th to the 55th percentile of ``n``
    sorted values; never empty."""
    lo = min(n - 1, n * 45 // 100)
    return slice(lo, max(lo + 1, n * 55 // 100))


def smoothed_median(values):
    """The mean of the middle tenth of the values.

    The median job of ``corpus-oracle`` sits among many sub-millisecond
    jobs of nearly the same size, and which of them holds the middle rank
    changes from run to run; the mean of the ranks around it changes less.
    The 90th percentile stays a single rank: a band there would reach into
    the few slow jobs above it, whose number depends on the seed.
    """
    return statistics.fmean(sorted(values)[middle_tenth(len(values))])


def signatures(one_pass):
    return {jid: [status, *sig]
            for jid, (status, _detail, sig) in one_pass.outcomes.items()}


def differences(first, other):
    """Job ids whose counts differ between two signature maps."""
    return sorted(jid for jid in first.keys() & other.keys()
                  if first[jid] != other[jid])


def compare_with_previous(path, current):
    """Compare this run's exact counts with the last run of the same
    workload and seed, then store them. Returns differing keys."""
    flagged = []
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        for section, values in current.items():
            old = previous.get(section)
            if old is not None:
                flagged += [f"{section}:{jid}"
                            for jid in differences(old, values)]
        for section, values in previous.items():
            current.setdefault(section, values)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, sort_keys=True) + "\n",
                    encoding="utf-8")
    return flagged


def end_to_end(meter, setup_spans, passes):
    # One sample per job: its median over the passes. Summed, they give the
    # time of the whole job list; a slow spell of the machine during one
    # pass moves a median less than it moves that pass's wall time.
    times = [statistics.median(meter.reference_seconds(*p.spans[jid])
                               for p in passes)
             for jid in passes[0].spans]
    outcomes = [o for p in passes for o in p.outcomes.values()]
    decided = sum(1 for status, _, _ in outcomes if status == DECIDED)
    return {
        "setup_s": statistics.median(meter.reference_seconds(*span)
                                     for span in setup_spans),
        "wall_s": sum(times),
        "job_p50_ms": 1000.0 * smoothed_median(times),
        "job_p90_ms": 1000.0 * percentile(times, 90),
        "decided_ratio": decided / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(tracer, traced, meter, untraced_wall):
    """Per-layer metrics of the traced pass, in reference seconds like the
    untraced ``wall_s``, which is ``untraced_wall``."""
    summary = tracer.summary(meter.reference_seconds)
    out = {}
    for span, entry in summary.items():
        for field, value in entry.items():
            out[f"{span}.{field}"] = value
    out[f"{tracing.COUNTED}.calls"] = tracer.counts[tracing.COUNTED]
    sizes = [rec["sizes"] for rec in traced.records.values() if "sizes" in rec]
    for i, name in enumerate(("out_rules", "out_order_pairs",
                              "out_nonterminals")):
        out[f"constructions.{name}"] = sum(s[i] for s in sizes)
    out["trace_overhead_s"] = sum(meter.reference_seconds(*span) for span
                                  in traced.spans.values()) - untraced_wall
    return out


def report(workload, seed, jobs, first, passes, meter, metrics, inputs):
    """Human-readable summary; ``first`` is the pass whose jobs are listed."""
    n = len(jobs)
    print(f"workload {workload}, seed {seed}: {len(passes)} pass(es) of "
          f"{n} jobs, {SETUP_REPEATS} set-ups")
    print("  pass walls (s, measured): "
          + " ".join(f"{p.wall:.3f}" for p in passes))
    print(f"  speed: {len(meter.durations)} samples, reference speed x "
          f"{statistics.median(speed.NOMINAL_S / d for d in meter.durations):.3f}"
          " (median)")
    if inputs.generated:
        print(f"  generated systems: {len(inputs.generated)} "
              f"({inputs.redrawn} drafts redrawn)")
    counts = {}
    for status, _, _ in first.outcomes.values():
        counts[status] = counts.get(status, 0) + 1
    print("  listed pass: " + ", ".join(
        f"{counts.get(s, 0)} {s}" for s in ("decided", "undecided", "failed")))
    shown = 0
    for job in jobs:
        status, detail, _ = first.outcomes[job.id]
        if n <= 20 or status != DECIDED:
            note = "  [known defect]" if (status == FAILED and
                                          job.id in KNOWN_DEFECTS) else ""
            calls = first.calls.get(job.id)
            extra = f"  effective_conditions={calls}" if calls else ""
            if shown < 40:
                start, end = first.spans[job.id]
                print(f"    {status:9} {job.id}: {detail} "
                      f"({1000 * (end - start):.1f} ms){extra}{note}")
            shown += 1
    if shown > 40:
        print(f"    ... {shown - 40} more")
    for name, unit in END_TO_END + PER_LAYER:
        if name in metrics:
            extra = ""
            if name.startswith("job_p"):
                ranks = middle_tenth(n)
                how = (f"mean of ranks {ranks.start + 1}-{ranks.stop}"
                       if name == "job_p50_ms" else "nearest rank")
                extra = (f"  ({how} of n={n} jobs, each the median of "
                         f"{len(passes)} pass(es))")
            print(f"  {name:44} {metrics[name]:.6g} {unit}{extra}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    meter = speed.SpeedMeter()
    setup_spans = []
    passes = []
    with meter:
        try:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                rrw, inputs, jobs = setup(args.workload, args.seed)
                setup_spans.append((t0, time.perf_counter()))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        # Another pass starts only if it would end nearer to --seconds than
        # stopping now, so a run measures about --seconds even when one
        # pass takes a large share of it.
        started = time.perf_counter()
        while not passes or (time.perf_counter() - started
                             + passes[-1].wall / 2 < args.seconds):
            passes.append(run_pass(jobs))
    metrics = end_to_end(meter, setup_spans, passes)

    first = signatures(passes[0])
    unstable = sorted({jid for p in passes[1:]
                       for jid in differences(first, signatures(p))})
    exact = {"jobs": first}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with meter:
                tracer.job("setup", lambda: workloads.load_inputs(
                    rrw, args.workload, args.seed))
                traced = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        unstable += differences(first, signatures(traced))
        exact["effective_conditions"] = traced.calls
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        layers = per_layer(tracer, traced, meter, metrics["wall_s"])
        report(args.workload, args.seed, jobs, traced, passes, meter,
               {**metrics, **layers}, inputs)
        metrics = layers
        units = dict(PER_LAYER)
    else:
        report(args.workload, args.seed, jobs, passes[0], passes, meter,
               metrics, inputs)
        units = dict(END_TO_END)
    flagged = compare_with_previous(
        OUT / f"counts-{args.workload}-seed{args.seed}.json", exact)

    outcomes = [o for p in passes for o in p.outcomes.values()]
    failed_ids = {jid for p in passes for jid, (status, _, _)
                  in p.outcomes.items() if status == FAILED}
    unexpected = sorted(failed_ids - KNOWN_DEFECTS.keys())
    for label, ids in (("unexpected failures", unexpected),
                       ("counts differ between passes", unstable),
                       ("counts differ from the previous run", flagged)):
        if ids:
            print(f"  {label}: {', '.join(ids[:10])}")
    result = {
        "correct": not unexpected and not unstable,
        "attempted": len(outcomes),
        "failed": sum(1 for status, _, _ in outcomes if status == FAILED),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
