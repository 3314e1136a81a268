"""Reduced-size self-test of the benchmark runner (stdlib unittest).

    python3 perfbench/selftest.py

Checks that the metric names match BENCHMARK.json, that every kind of job
check flags a wrong answer, and runs a few cheap real jobs, traced and
untraced, in about a second.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DECIDED, FAILED, UNDECIDED  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
RRW = run.import_rrw()


def jobs_of(workload, seed=1):
    inputs = workloads.load_inputs(RRW, workload, seed)
    return {j.id: j for j in workloads.build_jobs(RRW, workload, inputs,
                                                  seed)}


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_reduced_pass_reports_every_metric(self):
        jobs = [j for j in jobs_of("corpus-oracle").values()
                if "example1" not in j.id][:20]
        with speed.SpeedMeter() as meter:
            passes = [run.run_pass(jobs), run.run_pass(jobs)]
        metrics = run.end_to_end(meter, [passes[0].spans[jobs[0].id]],
                                 passes)
        self.assertEqual(set(metrics), {n for n, _ in run.END_TO_END})
        self.assertTrue(all(v > 0 for v in metrics.values()))
        self.assertGreater(len(meter.durations), 0)

        tracer = tracing.Tracer()
        tracer.install()
        try:
            with meter:
                traced = run.run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        layers = run.per_layer(tracer, traced, meter, metrics["wall_s"])
        self.assertEqual(meter.starts, sorted(meter.starts))
        self.assertEqual(set(layers), {n for n, _ in run.PER_LAYER})
        self.assertGreater(layers["engine.enumerate_language.calls"], 0)
        self.assertGreater(layers["core.effective_conditions.calls"], 0)
        self.assertEqual(run.differences(run.signatures(passes[0]),
                                         run.signatures(traced)), [])
        # uninstall restores the original functions
        self.assertNotIn("traced", RRW.enumerate_language.__code__.co_name)


class Speed(unittest.TestCase):
    def test_reference_seconds_scale_and_leave_out_samples(self):
        meter = speed.SpeedMeter()
        # samples at 0.1 s steps; those near [1.0, 2.0] ran at half speed
        meter.starts = [0.1 * i for i in range(40)]
        meter.durations = [2 * speed.NOMINAL_S if 5 <= i <= 25
                           else speed.NOMINAL_S for i in range(40)]
        inside = sum(meter.durations[10:21])
        self.assertAlmostEqual(meter.measured_seconds(1.0, 2.0),
                               1.0 - inside)
        self.assertAlmostEqual(meter.reference_seconds(1.0, 2.0),
                               (1.0 - inside) / 2)
        # no sample near the interval: the nearest ones set the speed
        self.assertAlmostEqual(meter.reference_seconds(10.0, 10.1),
                               0.1)


class Checks(unittest.TestCase):
    def judge(self, job, rec, records=None):
        return job.check(rec, records or {job.id: rec})[0]

    def test_doubling_words(self):
        job = jobs_of("doubling")["enum/t/16"]
        powers = frozenset(("a",) * n for n in (1, 2, 4, 8, 16))
        self.assertEqual(self.judge(job, {"words": powers, "complete": True}),
                         DECIDED)
        self.assertEqual(self.judge(job, {"words": powers - {("a",)},
                                          "complete": False}), UNDECIDED)
        self.assertEqual(self.judge(job, {"words": powers - {("a",)},
                                          "complete": True}), FAILED)
        self.assertEqual(self.judge(job, {"words": powers | {("a",) * 3},
                                          "complete": False}), FAILED)

    def test_derive_exit_codes(self):
        jobs = jobs_of("doubling")
        member, other = jobs["derive/a^4"], jobs["derive/a^3"]
        self.assertEqual(self.judge(member, {"code": 1}), FAILED)
        self.assertEqual(self.judge(other, {"code": 1}), DECIDED)
        self.assertEqual(self.judge(member, {"code": 3}), UNDECIDED)
        self.assertEqual(self.judge(other, {"code": 0,
                                            "replayed": ("a",) * 3}), FAILED)
        self.assertEqual(self.judge(member, {"code": 0,
                                             "replayed": ("a",) * 4}), DECIDED)
        self.assertEqual(self.judge(member, {"code": 0,
                                             "replay_error": "x"}), FAILED)
        self.assertEqual(self.judge(member, {"code": 2}), FAILED)

    def test_construct_verdict_and_round_trip(self):
        job = jobs_of("construct")["frc-to-ord/frccd_small/*->*"]
        good = {"equal": True, "diff": 0, "round_trip": "ok",
                "sizes": (1, 2, 3)}
        self.assertEqual(self.judge(job, good), DECIDED)
        self.assertEqual(self.judge(job, {**good, "equal": False,
                                          "diff": 1}), FAILED)
        self.assertEqual(self.judge(job, {**good, "round_trip": "bad"}),
                         FAILED)
        self.assertEqual(self.judge(job, {**good, "equal": False}), UNDECIDED)

    def test_oracle_and_cli(self):
        jobs = jobs_of("corpus-oracle")
        oracle, cli = jobs["oracle/cf_anbn/*"], jobs["cli-enum/cf_anbn"]
        words = frozenset({("a", "b"), ("a", "a", "b", "b")})
        rec = {"words": words, "complete": True, "oracle_words": words}
        self.assertEqual(self.judge(oracle, rec), DECIDED)
        self.assertEqual(self.judge(oracle, {**rec, "oracle_words":
                                             words - {("a", "b")}}), FAILED)
        out = json.dumps({"words": ["ab", "aabb"], "complete": True})
        records = {oracle.id: rec}
        self.assertEqual(self.judge(cli, {"runs": ((0, out), (0, out))},
                                    records), DECIDED)
        self.assertEqual(self.judge(cli, {"runs": ((0, out), (0, out + " "))},
                                    records), FAILED)
        self.assertEqual(self.judge(cli, {"runs": ((3, out), (3, out))},
                                    records), FAILED)

    def test_real_jobs_are_checked_right(self):
        jobs = jobs_of("doubling")
        picked = [jobs[i] for i in ("derive/a^4", "derive/a^3")]
        construct = jobs_of("construct")
        picked += [construct["frc-to-ord/frccd_small/*->*"],
                   construct["cdfrc-eq2-to-eqk/entry_pair/=2->=3"]]
        outcome = run.run_pass(picked).outcomes
        self.assertEqual([outcome[j.id][0] for j in picked],
                         [DECIDED, DECIDED, DECIDED, FAILED])
        self.assertIn(picked[-1].id, workloads.KNOWN_DEFECTS)


class Inputs(unittest.TestCase):
    def test_job_lists(self):
        self.assertEqual(len(jobs_of("doubling")), 14)
        self.assertEqual(len(jobs_of("construct")), 122)
        oracle = jobs_of("corpus-oracle")
        self.assertEqual(sum(i.startswith("oracle/") for i in oracle), 122)
        self.assertEqual(sum(i.startswith("cli-enum/") for i in oracle), 17)

    def test_generator_is_seeded_and_covers_every_kind(self):
        a = workloads.load_inputs(RRW, "corpus-oracle", 5).generated
        b = workloads.load_inputs(RRW, "corpus-oracle", 5).generated
        c = workloads.load_inputs(RRW, "corpus-oracle", 6).generated
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual({s.kind for _, _, s in a}, set(gen.KINDS))
        for _, _, system in a:
            self.assertLessEqual(len(system.nonterminals), 3)
            self.assertLessEqual(
                max(len(system.components), len(system.gc_rules)), 3)
            self.assertTrue(all(1 <= len(r.rhs) <= 2
                                for r in system.all_rules()))

    def test_rejected_drafts_are_redrawn_deterministically(self):
        def picky(text):
            picky.calls += 1
            if picky.calls % 3:
                raise RRW.ValidationError(["rejected"])
            return RRW.parse_system(text)

        results = []
        for _ in range(2):
            picky.calls = 0
            results.append(gen.generate(random.Random(9), 1, picky,
                                        RRW.RrwError))
        self.assertEqual(results[0][1], 2 * len(gen.KINDS))
        self.assertEqual(results[0], results[1])

    def test_percentile_is_a_measured_value(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_smoothed_median_averages_the_middle_tenth(self):
        self.assertEqual(run.smoothed_median(range(100, 0, -1)), 50.5)
        self.assertEqual(run.smoothed_median([7.0]), 7.0)
        self.assertEqual(run.smoothed_median(range(14)), 6)  # rank 7 alone


if __name__ == "__main__":
    unittest.main()
