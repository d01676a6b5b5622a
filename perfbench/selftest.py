"""Self-tests of the benchmark (kept out of the repository's pytest suite).

    python3 perfbench/selftest.py

Run from the repository root; takes about six minutes.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
import unittest
from fractions import Fraction

import speed
import tracing
from check import parse_csv_rows, table_failures
from run import REFERENCE, Run, import_cli
from workloads import P42, WORKLOADS, cycle

import_cli()
with open(REFERENCE, encoding="utf-8") as fh:
    REF = json.load(fh)

COUNTS = (".calls", ".branches_out", ".truncated_runs", ".tables_out", ".cands_per_call",
          ".precision_bits")


def tiny_run(workload, trace):
    """The shortest run of a workload (three cycles), seed 3."""
    run = Run(workload, 3, 0, trace)
    try:
        run.loop()
    finally:
        for name in os.listdir(run.work):
            os.unlink(os.path.join(run.work, name))
        os.rmdir(run.work)
    return run


class GeneratorTest(unittest.TestCase):
    def test_deterministic_in_seed(self):
        for w in WORKLOADS:
            for c in range(3):
                self.assertEqual(cycle(w, 5, c, "/w", REF), cycle(w, 5, c, "/w", REF), w)
            self.assertNotEqual([cycle(w, 5, c, "/w", REF) for c in range(4)],
                                [cycle(w, 6, c, "/w", REF) for c in range(4)], w)


class CheckerTest(unittest.TestCase):
    def test_golden_tables_pass_and_perturbed_fail(self):
        for sector in ("minus", "plus"):
            rows = parse_csv_rows(REF["golden"][sector])
            self.assertEqual(table_failures(P42, rows), [])
            i = len(rows) // 2
            m, sy, y, sz, z = rows[i]
            for bad in ((m, sy, y + Fraction(1, 2), sz, z), (m, sy, y, -sz, z)):
                broken = rows[:i] + [bad] + rows[i + 1:]
                self.assertNotEqual(table_failures(P42, broken), [], (sector, bad))


class TraceTest(unittest.TestCase):
    def test_missing_name_is_an_absent_layer(self):
        saved = dict(tracing.GROUPS)
        tracing.GROUPS["evolution.step"] = (["udp6.evolution:no_such_stepper"], None, None)
        try:
            tracer = tracing.Tracer()
        finally:
            tracing.GROUPS.clear()
            tracing.GROUPS.update(saved)
        self.assertEqual(tracer.absent, {"evolution.step": ["udp6.evolution:no_such_stepper"]})


class SpeedTest(unittest.TestCase):
    def test_probes_inside_a_job_are_taken_out_of_its_time(self):
        sampler = speed.Sampler()
        with sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.5:
                pass
            wall = time.perf_counter() - t0
        at_ref = sampler.reference_time(wall)
        inside = [t for end, t in sampler.probes if t0 < end < t0 + wall]
        self.assertGreaterEqual(len(inside), 2)
        host = statistics.median(t for _, t in sampler.probes)
        self.assertAlmostEqual(at_ref, (wall - sum(inside)) * speed.REFERENCE_S / host)


class WorkloadTest(unittest.TestCase):
    def test_tiny_runs_pass_the_gate(self):
        for w in WORKLOADS:
            run = tiny_run(w, False)
            self.assertGreater(run.attempted, 0, w)
            self.assertEqual(run.problems, [], w)

    def test_traced_counts_repeat_exactly(self):
        for w in WORKLOADS:
            first, second = (tiny_run(w, True).per_layer() for _ in range(2))
            counts = {k: v for k, v in first.items() if k.endswith(COUNTS)}
            self.assertEqual(counts, {k: second[k] for k in counts}, w)
            self.assertTrue(all(v is not None for v, _ in first.values()), w)
        self.assertEqual(first["qoracle.precision_bits"][0] > 0, True)


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tempfile.tempdir = None
    unittest.main(verbosity=2)
