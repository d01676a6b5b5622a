"""Record the reference outputs that run.py checks every job against.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs define correct
behaviour.  It writes perfbench/reference.json with the golden tables over
-450:450, and the exit code and digest (or full report, for qlimit) of every
job any seed can produce.  Each recorded table is re-verified by check.py, and
a shifted copy of every tie-branching structure must give the same output
after shifting back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from check import cli_json_text, digest, json_rows, parse_csv_rows, table_failures, unshift_branches
from run import REFERENCE, ROOT, import_cli, run_job
from workloads import (
    GOLDEN_SPAN,
    GOLDEN_STATES,
    P42,
    QLIMIT_EPS,
    QLIMIT_STATES,
    QLIMIT_TABLES,
    QLIMIT_WINDOW,
    SCAN_N,
    SCAN_POOL,
    SCAN_WINDOW,
    Job,
    golden_slice,
    shifted,
    tie_jobs,
    tie_panel,
)

SYMMETRY_SHIFT = 37


def _run(cli, argv, files=()):
    for path, text in files:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    _, [(rc, out, err)] = run_job(cli, Job("", (argv,)))
    if not isinstance(rc, int):
        raise SystemExit(f"{argv}: {rc}")
    return rc, out, err


def main() -> int:
    cli = import_cli()
    work = os.path.join(os.path.dirname(REFERENCE), "out", "reference-work")
    os.makedirs(work, exist_ok=True)
    p42 = os.path.join(work, "p42.json")
    with open(p42, "w", encoding="utf-8") as fh:
        json.dump(P42, fh)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    ref = {"commit": commit, "golden": {}, "tie": {}, "scan": {}, "qlimit": {}}

    for sector, (y0, z0) in GOLDEN_STATES.items():
        rc, out, err = _run(cli, ["evolve", "--params", p42, "--y0", y0, "--z0", z0,
                                  "--window", f"-{GOLDEN_SPAN}:{GOLDEN_SPAN}"])
        assert rc == 0 and not table_failures(P42, parse_csv_rows(out)), (sector, err)
        ref["golden"][sector] = out

    for job in tie_jobs(tie_panel(), None, work, canonical=True):
        argv = job.calls[0]
        rc, out, err = _run(cli, argv, job.files)
        if rc in (0, 2):
            riccati = argv[0] == "riccati"
            for b in json.loads(out)["branches"]:
                assert not table_failures(job.params, json_rows(b), riccati), job.key
            # the same structure moved along the lattice must give the same output
            k = SYMMETRY_SHIFT
            moved = os.path.join(work, "moved.json")
            moved_argv = [str(int(a) + k) if prev == "--m0" else
                          ":".join(str(int(x) + k) for x in a.split(":")) if prev == "--window" else
                          moved if prev == "--params" else a
                          for prev, a in zip([None] + argv, argv)]
            rc2, out2, _ = _run(cli, moved_argv, [(moved, json.dumps(shifted(job.params, k)))])
            assert rc2 == rc and cli_json_text(unshift_branches(json.loads(out2), k)) == out, job.key
        ref["tie"][job.key[4:]] = {"rc": rc, "digest": digest(out)}
        print(job.key, rc, file=sys.stderr)

    for s in range(SCAN_POOL):
        rc, out, _ = _run(cli, ["conjecture", "--n", str(SCAN_N), "--window",
                                f"-{SCAN_WINDOW}:{SCAN_WINDOW}", "--seed", str(s)])
        ref["scan"][str(s)] = {"rc": rc, "digest": digest(out)}

    base = ["qlimit", "--params", p42, "--window", QLIMIT_WINDOW, "--eps", QLIMIT_EPS]
    variants = {v: (base + ["--y0", y0, "--z0", z0], ()) for v, (y0, z0) in QLIMIT_STATES.items()}
    for t in QLIMIT_TABLES:
        path = os.path.join(work, "table.csv")
        variants[t] = (base + ["--table", path], ((path, golden_slice(ref, t[6:], -5, 5)),))
    for v, (argv, files) in variants.items():
        rc, out, err = _run(cli, argv, files)
        ref["qlimit"][v] = {"rc": rc, "csv": out}
        print(v, rc, err.strip(), file=sys.stderr)

    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
