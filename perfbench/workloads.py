"""Seeded inputs for the four workloads and the checks on their outputs.

A run repeats cycles of jobs.  ``cycle(workload, seed, c, ...)`` is a pure
function of its arguments, built with the benchmark's own generators (never
``udp6.generate``), so a refactor of udp6 cannot change the inputs.  Every job
a seed can produce has an entry in the reference record, so outputs are
checked for every seed, not only for the one the reference was made with.

Every cycle of a run does the same jobs, so each input repeats through the
run and run.py can take its median time (see Run.typical_walls):

- golden-long: the golden p42 state in both parity sectors over four windows
  of 801 points, moved by up to 50 steps drawn per run.  The expected table
  is a slice of the reference table over -450:450.
- tie-branching: a fixed panel of tie-heavy structures (integer amplitudes in
  [-12,12], Q in [1,12]).  The seed moves each structure along the lattice by
  k steps (A1, A2, B1, B2 lowered by kQ, start index k), an exact symmetry of
  the system, and shuffles the order.  Outputs shifted back by k must match
  the reference byte for byte.  Every cycle runs the whole panel.
- scan: ten ``conjecture`` runs per cycle whose seeds are drawn per run from
  a pool of 64.
- qlimit: two jobs per cycle, one from --y0/--z0 and one from a --table, each
  drawn per run from a fixed list of variants on the golden p42 state.  The
  variants differ only in their amplitudes and cost alike.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from check import (
    HEADER,
    cli_json_text,
    digest,
    json_rows,
    parse_csv_rows,
    qlimit_mismatches,
    table_failures,
    unshift_branches,
)

WORKLOADS = ("golden-long", "tie-branching", "scan", "qlimit")

# The highest percentile with at least ten jobs beyond it in a 20-second run
# at the reference commit, in a slow period of the host; qlimit runs hold
# fewer than eleven jobs, so its tail is the slowest job.
TAIL_PERCENTILE = {"golden-long": 80, "tie-branching": 90, "scan": 80, "qlimit": 100}

P42 = {"q": 100, "a1": 32, "a2": 33, "a3": 37, "a4": 22, "b1": 53, "b2": 65, "b3": 8, "b4": 4}
GOLDEN_STATES = {"minus": ("-1:43", "-1:40"), "plus": ("1:43", "1:40")}
GOLDEN_HALF, GOLDEN_MOVE = 400, 50
GOLDEN_SPAN = GOLDEN_HALF + GOLDEN_MOVE  # the reference tables cover -450:450

# 60 structures over +-30, as in the measured mix of evolve jobs; 8 of them
# again at the higher cap.  Riccati jobs stay over +-5, where they take about
# 10 ms, under the evolve median, so job_p50_s answers to tropical and riccati;
# over +-10 the all-breakpoints tables of one structure take 0.46 s.
TIE_EVOLVE, TIE_HIGH_CAP, TIE_RICCATI = 60, 8, 16
TIE_WINDOW, RICCATI_WINDOW = 30, 5
DEFAULT_CAP, HIGH_CAP = 64, 256
# Shifts keep every amplitude within 12 + 10 * 12: moved by 50 steps, the short
# jobs' median time changed by up to 17% with the shift, though the work is the same.
MAX_SHIFT = 10

SCAN_POOL, SCAN_JOBS, SCAN_N, SCAN_WINDOW = 64, 10, 40, 30

QLIMIT_WINDOW, QLIMIT_EPS = "-5:5", "1,1/2,1/4"
QLIMIT_STATES = {
    "y0z0/0": ("-1:43", "-1:40"),
    "y0z0/1": ("-1:44", "-1:40"),
    "y0z0/2": ("-1:43", "-1:41"),
    "y0z0/3": ("-1:41", "-1:43"),
    "y0z0/4": ("-1:48", "-1:36"),
    "y0z0/5": ("-1:38", "-1:45"),
}
QLIMIT_TABLES = ("table/minus", "table/plus")


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work: CLI calls run back to back and timed together."""

    key: str  # reference entry the outputs are checked against
    calls: tuple  # argv lists for udp6.cli.main
    files: tuple = ()  # (path, text) written before the job, outside the timing
    shift: int = 0  # lattice shift of a tie-branching structure
    params: dict = None  # parameters as written


PARAM_KEYS = ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")


def _params_text(p: dict) -> str:
    return json.dumps(p, sort_keys=True) + "\n"


def _pair(rng: random.Random) -> str:
    return f"{rng.choice((1, -1))}:{rng.randint(-12, 12)}"


def tie_panel() -> dict:
    """The fixed tie-heavy structures, keyed by panel id."""
    rng = random.Random("tie-branching-panel")
    panel = {}
    for i in range(TIE_EVOLVE):
        q = rng.randint(1, 12)
        a = [rng.randint(-12, 12) for _ in range(4)]
        b1, b2, b3 = (rng.randint(-12, 12) for _ in range(3))
        b4 = b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3  # the evolution constraint
        p = dict(zip(PARAM_KEYS, (q, *a, b1, b2, b3, b4)))
        panel[f"e{i}"] = {"params": p, "y0": _pair(rng), "z0": _pair(rng)}
    for i in range(TIE_RICCATI):
        q = rng.randint(1, 12)
        a = [rng.randint(-12, 12) for _ in range(4)]
        b3, b4 = rng.randint(-12, 12), rng.randint(-12, 12)
        b1 = q + a[0] + b3 - a[2]  # B1+A3 = Q+A1+B3
        b2 = a[1] + b4 - a[3]  # B2+A4 = A2+B4
        p = dict(zip(PARAM_KEYS, (q, *a, b1, b2, b3, b4)))
        panel[f"r{i}"] = {"params": p, "y0": _pair(rng)}
    return panel


def shifted(p: dict, k: int) -> dict:
    """Parameters whose index m+k behaves as index m of ``p`` does."""
    kq = k * p["q"]
    return {**p, "a1": p["a1"] - kq, "a2": p["a2"] - kq, "b1": p["b1"] - kq, "b2": p["b2"] - kq}


def tie_jobs(panel: dict, rng: random.Random, work: str, canonical: bool = False) -> list:
    jobs = []
    specs = [(f"e{i}", DEFAULT_CAP) for i in range(TIE_EVOLVE)]
    specs += [(f"e{i}", HIGH_CAP) for i in range(TIE_HIGH_CAP)]
    specs += [(f"r{i}", None) for i in range(TIE_RICCATI)]
    for sid, cap in specs:
        s = panel[sid]
        k = 0 if canonical else rng.randint(-MAX_SHIFT, MAX_SHIFT)
        p = shifted(s["params"], k)
        path = f"{work}/{sid}.json"
        if cap is None:
            argv = ["riccati", "--params", path, "--y0", s["y0"], "--m0", str(k),
                    "--window", f"{k - RICCATI_WINDOW}:{k + RICCATI_WINDOW}",
                    "--sampling", "all-breakpoints", "--format", "json"]
            key = f"tie/{sid}"
        else:
            argv = ["evolve", "--params", path, "--y0", s["y0"], "--z0", s["z0"], "--m0", str(k),
                    "--window", f"{k - TIE_WINDOW}:{k + TIE_WINDOW}", "--format", "json",
                    "--branch-cap", str(cap)]
            key = f"tie/{sid}/{cap}"
        jobs.append(Job(key, (argv,), ((path, _params_text(p)),), k, p))
    if not canonical:
        rng.shuffle(jobs)
    return jobs


def cycle(workload: str, seed: int, c: int, work: str, ref: dict) -> list:
    """The jobs of cycle ``c`` of a run with ``seed``; file paths lie under ``work``."""
    run_rng = random.Random(f"{workload}:{seed}")  # what every cycle of the run does
    p42 = f"{work}/p42.json"
    p42_file = ((p42, _params_text(P42)),)
    if workload == "golden-long":
        jobs = []
        for i, sector in enumerate(("minus", "plus", "minus", "plus")):
            d = run_rng.randint(-GOLDEN_MOVE, GOLDEN_MOVE)
            lo, hi = d - GOLDEN_HALF, d + GOLDEN_HALF
            y0, z0 = GOLDEN_STATES[sector]
            out = f"{work}/golden-{i}.csv"
            evolve = ["evolve", "--params", p42, "--y0", y0, "--z0", z0,
                      "--window", f"{lo}:{hi}", "--out", out]
            verify = ["verify", "--params", p42, "--table", out]
            jobs.append(Job(f"golden/{sector}/{lo}", (evolve, verify), p42_file, 0, P42))
        return jobs
    if workload == "tie-branching":
        # shifts and order change from cycle to cycle; the work does not
        return tie_jobs(tie_panel(), random.Random(f"{workload}:{seed}:{c}"), work)
    if workload == "scan":
        return [
            Job(f"scan/{s}", (["conjecture", "--n", str(SCAN_N), "--window",
                               f"-{SCAN_WINDOW}:{SCAN_WINDOW}", "--seed", str(s)],))
            for s in run_rng.sample(range(SCAN_POOL), SCAN_JOBS)
        ]
    if workload == "qlimit":
        base = ["qlimit", "--params", p42, "--window", QLIMIT_WINDOW, "--eps", QLIMIT_EPS]
        v = run_rng.choice(sorted(QLIMIT_STATES))
        t = run_rng.choice(QLIMIT_TABLES)
        y0, z0 = QLIMIT_STATES[v]
        path = f"{work}/q{t[6:]}.csv"
        return [
            Job(f"qlimit/{v}", (base + ["--y0", y0, "--z0", z0],), p42_file, 0, P42),
            Job(f"qlimit/{t}", (base + ["--table", path],),
                p42_file + ((path, golden_slice(ref, t[6:], -5, 5)),), 0, P42),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def golden_slice(ref: dict, sector: str, lo: int, hi: int) -> str:
    lines = ref["golden"][sector].splitlines()
    return "\n".join([HEADER] + lines[1 + lo + GOLDEN_SPAN: 2 + hi + GOLDEN_SPAN]) + "\n"


# --- checks ----------------------------------------------------------------------


class Checker:
    """Compares job outputs with the reference and re-verifies every table.

    A table is re-verified once per run for each distinct content; tables of
    shifted structures are compared after shifting their indexes back.
    """

    def __init__(self, ref: dict):
        self.ref = ref
        self.verified = set()

    def _verify(self, key, p, rows, riccati=False):
        if key in self.verified:
            return []
        bad = table_failures(p, rows, riccati)
        if not bad:
            self.verified.add(key)
        return [f"table breaks {rel} relation at m={m}" for m, rel in bad[:3]]

    def check(self, job: Job, results: list, outfile: str = None) -> tuple:
        """(problems, lattice points, output digests) for one job's call results.

        ``results`` holds (exit code, stdout, stderr) per call; ``outfile`` is
        the text of the file an evolve call wrote, if any.
        """
        kind = job.key.split("/")[0]
        return getattr(self, "_" + kind.replace("-", "_"))(job, results, outfile)

    def _golden(self, job, results, outfile):
        (rc1, out1, err1), (rc2, out2, err2) = results
        argv = job.calls[0]
        lo, hi = (int(x) for x in argv[argv.index("--window") + 1].split(":"))
        sector = job.key.split("/")[1]
        problems = []
        if (rc1, out1, err1) != (0, "", ""):
            problems.append(f"evolve exit {rc1}: {err1.strip()[:200]}")
        if outfile != golden_slice(self.ref, sector, lo, hi):
            problems.append("evolve table differs from the reference")
        elif not problems:
            problems += self._verify(("golden", sector, lo, hi), job.params, parse_csv_rows(outfile))
        if (rc2, out2, err2) != (0, f"ok: {hi - lo + 1} rows verified\n", ""):
            problems.append(f"verify exit {rc2}: {out2.strip()[:100]} {err2.strip()[:200]}")
        return problems, 2 * (hi - lo + 1), [digest(outfile or ""), digest(out2)]

    def _tie(self, job, results, outfile):
        ((rc, out, err),) = results
        ref = self.ref["tie"][job.key[4:]]
        argv = job.calls[0]
        riccati = argv[0] == "riccati"
        problems = []
        if rc != ref["rc"]:
            problems.append(f"exit {rc}, reference {ref['rc']}: {err.strip()[:200]}")
        if rc not in (0, 2):
            return problems or ["no output"], 0, [digest(out)]
        try:
            obj = json.loads(out)
        except ValueError:
            return problems + ["output is not JSON"], 0, [digest(out)]
        canon = cli_json_text(unshift_branches(obj, job.shift))
        if out != cli_json_text(obj):
            problems.append("output is not in the CLI's JSON layout")
        if digest(canon) != ref["digest"]:
            problems.append("output differs from the reference")
        cap = int(argv[argv.index("--branch-cap") + 1]) if "--branch-cap" in argv else DEFAULT_CAP
        branches = obj["branches"]
        if obj["truncated"] != (rc == 2) or ("branch cap" in err) != (rc == 2):
            problems.append("truncation flag, message and exit code disagree")
        if not 1 <= len(branches) <= cap:
            problems.append(f"{len(branches)} branches under a cap of {cap}")
        lo, hi = (int(x) for x in argv[argv.index("--window") + 1].split(":"))
        y0 = argv[argv.index("--y0") + 1]
        z0 = argv[argv.index("--z0") + 1] if not riccati else None
        points = 0
        for b in branches:
            rows = json_rows(b)
            points += len(rows)
            if [r[0] for r in rows] != list(range(lo, hi + 1)):
                problems.append("branch does not cover the window")
                continue
            start = rows[job.shift - lo]
            if f"{start[1]}:{start[2]}" != y0 or (z0 and f"{start[3]}:{start[4]}" != z0):
                problems.append("branch does not pass through the initial state")
            canon_rows = [(m - job.shift, *rest) for m, *rest in rows]
            base = shifted(job.params, -job.shift)
            problems += self._verify((job.key, digest(repr(canon_rows))), base, canon_rows, riccati)
        return problems, points, [digest(out)]

    def _scan(self, job, results, outfile):
        ((rc, out, err),) = results
        ref = self.ref["scan"][job.key[5:]]
        problems = []
        if rc != ref["rc"] or digest(out) != ref["digest"]:
            problems.append(f"exit {rc} or output differs from the reference: {err.strip()[:200]}")
        try:
            obj = json.loads(out)
            if (obj["n"], obj["window"]) != (SCAN_N, [-SCAN_WINDOW, SCAN_WINDOW]) or \
                    obj["linear_detected"] + len(obj["counterexample_candidates"]) != SCAN_N:
                problems.append("scan summary is inconsistent")
        except (ValueError, KeyError, TypeError):
            problems.append("scan output is not the expected JSON")
        return problems, SCAN_N * (2 * SCAN_WINDOW + 1), [digest(out)]

    def _qlimit(self, job, results, outfile):
        ((rc, out, err),) = results
        ref = self.ref["qlimit"][job.key[7:]]
        problems = []
        if rc != ref["rc"]:
            problems.append(f"exit {rc}, reference {ref['rc']}: {err.strip()[:200]}")
        problems += qlimit_mismatches(ref["csv"], out)[:3]
        return problems, max(0, len(out.splitlines()) - 1), [digest(out)]
