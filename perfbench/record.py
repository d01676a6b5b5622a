"""Run the benchmark over several seeds and write a results record.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/baseline.json

Run from the repository root.  Each (workload, seed) pair is one untraced
run.py process of BENCHMARK.json's run_seconds; one traced run per workload
follows.  The record holds each
metric's median, quartiles, spread (interquartile distance over the median)
and sample count, the environment, and the ROADMAP baseline cases measured
with the same harness.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, import_cli, run_job
from workloads import P42, WORKLOADS, Job

# ROADMAP baseline cases that coincide with a CLI job: (name, argv, seconds quoted)
BASELINES = [
    ("evolve p42 (+1:43,+1:40) -400:400", ["evolve", "--params", "{p42}", "--y0", "1:43",
                                           "--z0", "1:40", "--window", "-400:400"], 0.18),
    ("evolve p42 (+1:43,+1:40) -20:20", ["evolve", "--params", "{p42}", "--y0", "1:43",
                                         "--z0", "1:40", "--window", "-20:20"], 0.007),
    ("conjecture scan, 200 runs, -30:30", ["conjecture", "--n", "200", "--window", "-30:30",
                                           "--seed", "1"], 0.85),
]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values)}


def baselines(repeats=5):
    cli = import_cli()
    work = os.path.join(HERE, "out")
    os.makedirs(work, exist_ok=True)
    p42 = os.path.join(work, "baseline-p42.json")
    with open(p42, "w", encoding="utf-8") as fh:
        json.dump(P42, fh)
    rows = []
    for name, argv, quoted in BASELINES:
        argv = [a.replace("{p42}", p42) for a in argv]
        walls = [run_job(cli, Job(name, (argv,)))[0] for _ in range(repeats)]
        rows.append({"case": name, "roadmap_s": quoted, "median_s": statistics.median(walls),
                     "repeats": repeats})
    return rows


def environment():
    import mpmath

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", help="write the record here (default: print only)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {"environment": environment(), "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(w, seed, seconds, 0))
            print(w, seed, json.dumps({k: round(v["value"], 5) for k, v in runs[-1]["metrics"].items()}),
                  file=sys.stderr)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {k: {**summarize([r["metrics"][k]["value"] for r in runs]),
                            "unit": runs[0]["metrics"][k]["unit"]} for k in runs[0]["metrics"]},
        }
        traced = run_once(w, _seeds(args.seeds)[0], seconds, 1)
        entry["traced"] = {"correct": traced["correct"], "attempted": traced["attempted"],
                           "failed": traced["failed"],
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        record["workloads"][w] = entry
        print(w, json.dumps({k: round(v["spread"], 3) for k, v in entry["metrics"].items()}),
              file=sys.stderr)
    record["roadmap_baselines"] = baselines()
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
