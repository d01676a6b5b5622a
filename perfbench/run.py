"""Closed-loop benchmark of the udp6 command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client in one process calls
``udp6.cli.main`` in-process, each job starting after the previous one
returned.  Jobs repeat in cycles (see workloads.py) until ``--seconds`` have
passed; the cycle in progress is finished, and at least three cycles run.
Every job counts, each at the median time of its input over the run.
Outputs are checked against ``reference.json`` and tables are re-verified by
check.py, outside the timed region.  Untraced runs time the host-speed probe
of speed.py around and inside every job and report times at the reference
speed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; no tracing code is loaded.  With ``--trace 1`` every job
runs twice, untraced and traced, and the line holds the per-layer metrics of
tracing.py together with the tracing overhead.  Digests of every output, and the
per-job trace summaries, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed
from workloads import TAIL_PERCENTILE, WORKLOADS, Checker, cycle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_RUNS = 11
# at least three repetitions of every input, so that the median of an input's
# time sets one misread repetition aside
MIN_CYCLES = 3

# Interpreter-side set-up probe: import the CLI (which imports mpmath through
# udp6/__init__) and finish one no-op call, timed from inside the interpreter;
# then the host-speed probe, three times, in the same interpreter.
SETUP_PROBE = r"""
import contextlib, io, statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import udp6.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = udp6.cli.main(["families", "--list"])
t1 = time.perf_counter()
if rc != 0 or not udp6.cli.__file__.startswith(sys.argv[1]):
    sys.exit(1)
sys.path.insert(0, sys.argv[2])
import speed
print(repr((t1 - t0) * speed.REFERENCE_S / statistics.median(speed.probe() for _ in range(3))))
"""


def import_cli():
    """udp6.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import udp6.cli

    if not os.path.abspath(udp6.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"udp6 imported from {udp6.cli.__file__}, not from {SRC}")
    return udp6.cli


def setup_probe() -> float:
    """Set-up time of one fresh interpreter, at the reference speed."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, SRC, HERE],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def run_job(cli, job) -> tuple:
    """Run a job's CLI calls; (wall seconds, [(exit code, stdout, stderr), ...])."""
    wall = 0.0
    results = []
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(argv))
            except Exception as exc:  # a traceback fails the job; the loop goes on
                rc = f"traceback {type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
        results.append((rc, out.getvalue(), err.getvalue()))
    return wall, results


def percentile(values, p) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cli = import_cli()
        with open(REFERENCE, encoding="utf-8") as fh:
            self.ref = json.load(fh)
        self.checker = Checker(self.ref)
        self.work = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
        self.tracer = self.sampler = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()
        else:
            self.sampler = speed.Sampler()
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = []
        self.jobs = []  # per job: cycle, key, wall, points, then at_ref or traced_wall and trace
        # Untraced runs spread SETUP_RUNS set-up probes over the run, between
        # jobs, so that their median is not taken from one moment of the host.
        self.setup_times = None if trace else []

    def _execute(self, c, job, traced):
        """Run and check one job; (wall, points, trace summary, time at the reference speed)."""
        with self.tracer if traced else self.sampler or contextlib.nullcontext():
            wall, results = run_job(self.cli, job)
        summary = self.tracer.take_job(wall) if traced else None
        at_ref = self.sampler.reference_time(wall) if self.sampler else None
        outfile = None
        if "--out" in job.calls[0]:
            path = job.calls[0][job.calls[0].index("--out") + 1]
            if os.path.exists(path):
                with open(path, encoding="utf-8", newline="") as fh:
                    outfile = fh.read()
        try:
            problems, points, digests = self.checker.check(job, results, outfile)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems, points, digests = [f"output cannot be checked: {exc!r}"], 0, []
        if summary and not (summary["remainder_s"] >= -1e-7 and summary["nesting_error_s"] <= 1e-7):
            problems.append(f"trace spans overrun the job's wall time or their parents: {summary}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((job.key, job.shift, problems))
        self.digests.append([c, job.key, job.shift, [r[0] for r in results], digests, wall, traced])
        return wall, points, summary, at_ref

    def _probe_due(self, elapsed) -> bool:
        done = len(self.setup_times)
        return done < SETUP_RUNS and elapsed >= done * self.seconds / SETUP_RUNS

    def loop(self):
        os.makedirs(self.work, exist_ok=True)
        if self.setup_times is not None:
            setup_probe()  # fills the bytecode cache; not counted
        start = time.perf_counter()
        c = 0
        while c < MIN_CYCLES or time.perf_counter() - start < self.seconds:
            for j, job in enumerate(cycle(self.workload, self.seed, c, self.work, self.ref)):
                for path, text in job.files:
                    with open(path, "w", encoding="utf-8", newline="\n") as fh:
                        fh.write(text)
                if self.tracer is None:
                    wall, points, _, at_ref = self._execute(c, job, False)
                    self.jobs.append({"cycle": c, "key": job.key, "wall": wall, "points": points,
                                      "at_ref": at_ref})
                    if self._probe_due(time.perf_counter() - start):
                        self.setup_times.append(setup_probe())
                    continue
                # alternate which run goes first, so neither always meets warm caches
                runs = {}
                for traced in ((False, True) if (c + j) % 2 == 0 else (True, False)):
                    runs[traced] = self._execute(c, job, traced)
                self.jobs.append({
                    "cycle": c, "key": job.key, "wall": runs[False][0],
                    "traced_wall": runs[True][0], "points": runs[False][1], "trace": runs[True][2],
                })
            c += 1
        while self.setup_times is not None and len(self.setup_times) < SETUP_RUNS:
            self.setup_times.append(setup_probe())

    def typical_walls(self) -> list:
        """Each job's time at the reference speed, replaced by its key's median in the run.

        A job's time at the reference speed comes from speed.Sampler, which
        probes the host around and inside it.  Every cycle repeats the same
        inputs, so a key's median is that input's typical time: a probe that
        misreads, or a burst that slows fewer than half of a key's repetitions,
        does not move it, and every input keeps its share of the mix.
        """
        by_key = {}
        for j in self.jobs:
            by_key.setdefault(j["key"], []).append(j["at_ref"])
        typical = {k: statistics.median(v) for k, v in by_key.items()}
        return [typical[j["key"]] for j in self.jobs]

    def end_to_end(self) -> dict:
        walls = self.typical_walls()
        return {
            "job_p50_s": (statistics.median(walls), "s"),
            "job_tail_s": (percentile(walls, TAIL_PERCENTILE[self.workload]), "s"),
            "points_per_s": (sum(j["points"] for j in self.jobs) / sum(walls), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(self.setup_times), "s"),
        }

    def per_layer(self) -> dict:
        n = len(self.jobs)
        first = [j["trace"] for j in self.jobs if j["cycle"] == 0]
        n0 = len(first)

        def total(group, field, jobs):
            return sum(t[field].get(group, 0) for t in jobs)

        def counter(group, name):
            return sum(t["counters"].get((group, name), 0) for t in first)

        def ratio(a, b):
            return a / b if b else 0.0

        def self_s(group):
            return total(group, "self_s", [j["trace"] for j in self.jobs]) / n

        def calls(group):
            return total(group, "calls", first) / n0

        m = {}
        spec = [
            ("system.residual.calls", "system.residual", calls, "count"),
            ("system.residual.self_s", "system.residual", self_s, "s"),
            ("system.check_constraint.calls", "system.check_constraint", calls, "count"),
            ("evolution.step.calls", "evolution.step", calls, "count"),
            ("evolution.step.self_s", "evolution.step", self_s, "s"),
            ("evolution.step.cands_per_call", "evolution.step",
             lambda g: ratio(counter(g, "cands"), total(g, "calls", first)), "count"),
            ("evolution.evolve.self_s", "evolution.evolve", self_s, "s"),
            ("evolution.evolve.branches_out", "evolution.evolve",
             lambda g: ratio(counter(g, "branches"), counter(g, "evolves")), "count"),
            ("evolution.evolve.truncated_runs", "evolution.evolve",
             lambda g: counter(g, "truncated"), "count"),
            ("evolution.noparity.self_s", "evolution.noparity", self_s, "s"),
            ("evolution.verify.self_s", "evolution.verify", self_s, "s"),
            ("tropical.solve.calls", "tropical.solve", calls, "count"),
            ("tropical.solve.self_s", "tropical.solve", self_s, "s"),
            ("riccati.step.calls", "riccati.step", calls, "count"),
            ("riccati.step.self_s", "riccati.step", self_s, "s"),
            ("riccati.evolve.self_s", "riccati.evolve", self_s, "s"),
            ("riccati.evolve.tables_out", "riccati.evolve",
             lambda g: ratio(counter(g, "tables"), counter(g, "evolves")), "count"),
            ("families.detect.calls", "families.detect", calls, "count"),
            ("families.detect.self_s", "families.detect", self_s, "s"),
            ("qoracle.qp6_step.calls", "qoracle.qp6_step", calls, "count"),
            ("qoracle.qp6_step.self_s", "qoracle.qp6_step", self_s, "s"),
            ("qoracle.ls_op.calls", "qoracle.ls_op", calls, "count"),
            ("qoracle.ls_op.self_s", "qoracle.ls_op", self_s, "s"),
            ("qoracle.compare.self_s", "qoracle.compare", self_s, "s"),
            ("qoracle.precision_bits", "qoracle.qp6_step",
             lambda g: ratio(counter(g, "prec_sum"), counter(g, "prec_steps")), "bits"),
            ("tables.io.self_s", "tables.io", self_s, "s"),
            ("cli.self_s", "cli", self_s, "s"),
        ]
        for name, group, fn, unit in spec:
            # a wrapped name that no longer exists is reported as absent, never as 0
            m[name] = (None if group in self.tracer.absent else fn(group), unit)
        traced = sum(j["traced_wall"] for j in self.jobs)
        untraced = sum(j["wall"] for j in self.jobs)
        m["trace.unwrapped_s"] = (sum(j["trace"]["remainder_s"] for j in self.jobs) / n, "s")
        m["trace.overhead_s"] = ((traced - untraced) / n, "s")
        m["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
        return m

    def write_records(self):
        os.makedirs(OUT, exist_ok=True)
        tag = f"{self.workload}-seed{self.seed}-trace{int(self.tracer is not None)}"
        with open(os.path.join(OUT, f"digests-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(self.digests, fh, indent=0)
        if self.tracer is not None:
            records = [{**j, "trace": {**j["trace"], "counters": {
                f"{g}.{k}": v for (g, k), v in j["trace"]["counters"].items()}}} for j in self.jobs]
            with open(os.path.join(OUT, f"trace-{tag}.json"), "w", encoding="utf-8") as fh:
                json.dump({"absent": self.tracer.absent, "jobs": records}, fh, indent=0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run = Run(args.workload, args.seed, args.seconds, args.trace)
        try:
            run.loop()
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
    except (ImportError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    run.write_records()
    for key, shift, problems in run.problems[:10]:
        print(f"FAILED {key} (shift {shift}): {'; '.join(problems)}", file=sys.stderr)
    if run.tracer is not None and run.tracer.absent:
        print(f"absent layers: {run.tracer.absent}", file=sys.stderr)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
