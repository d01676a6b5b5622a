"""Command-line front end.

Subcommands: evolve, verify, riccati, families, conjecture, qlimit.
Exit codes: 0 ok, 1 input/validation error (usage errors included),
2 branch-cap truncation, 3 verification failure.  Identical inputs and seed
produce byte-identical outputs; files are written atomically with LF line
endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import tempfile
from typing import List, Optional, Tuple

from .evolution import evolve, evolve_noparity, noparity_amplitudes, painleve_failures
from .families import FAMILY_IDS, FamilySpec, LinearAnsatz, detect_asymptotic_linearity, instantiate_family
from .qoracle import EpsSchedule, ud_limit_compare
from .riccati import SAMPLINGS, riccati_evolve, riccati_failures
from .system import ParityPair, load_params, params_to_obj, parse_int, parse_pair, parse_rational, random_constrained_params
from .tables import SolutionTable, branches_json_text, branches_to_json_obj

__all__ = ["main"]

def _glue_values(argv: List[str]) -> List[str]:
    """argv with each dash-digit value ("-1:43") glued to the ``--flag``
    before it as ``--flag=value``, so argparse never mistakes it for an
    option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok.startswith("--") and "=" not in tok and nxt[:1] == "-" and nxt[1:2].isdecimal():
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_pair(text: str, flag: str) -> ParityPair:
    sign_s, _, amp_s = text.partition(":")
    if not amp_s:
        raise ValueError(f"{flag}: expected sign:amplitude, got {text!r}")
    return parse_pair(sign_s, amp_s, flag)


def _parse_window(text: str) -> Tuple[int, int]:
    lo_s, _, hi_s = text.partition(":")
    if not hi_s:
        raise ValueError(f"expected lo:hi, got {text!r}")
    lo, hi = parse_int(lo_s, "--window"), parse_int(hi_s, "--window")
    if lo > hi:
        raise ValueError(f"window {text!r} is empty")
    return lo, hi


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file beside ``path``, which keeps an existing
    file's mode or, for a new one, takes 0o666 less the umask, as ``open`` does.
    An OS error names ``path`` and the reason, not the temporary file, which is removed."""
    tmp = None
    try:
        try:
            mode = os.stat(path).st_mode & 0o7777
        except FileNotFoundError:
            umask = os.umask(0)  # read only by setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-udp6-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# the conjecture summary and one of its candidates, keys sorted; the params are
# ints and rational strings, which need no escaping
_SUMMARY_JSON = ('{\n  "counterexample_candidates": %s,\n  "fraction": "%s",\n  "linear_detected": %d,\n  "n": %d,\n'
                 '  "seed": %d,\n  "w": %d,\n  "window": [\n    %d,\n    %d\n  ]\n}\n')
_CANDIDATE_JSON = ('    {\n      "backward_detected": %s,\n      "forward_detected": %s,\n      "params": {\n%s\n'
                   '      },\n      "run": %d,\n      "y0": "%s",\n      "z0": "%s"\n    }')
_PARAM_JSON, _BOOL_JSON = {int: '        "%s": %d', str: '        "%s": "%s"'}, ("false", "true")


def _summary_json_text(s: dict) -> str:
    """``_json_text(s)`` for the fixed schema of the conjecture summary s, by
    templates: with an indent, the standard encoder runs in pure Python."""
    cands = ",\n".join(_CANDIDATE_JSON % (
        _BOOL_JSON[c["backward_detected"]], _BOOL_JSON[c["forward_detected"]],
        ",\n".join(_PARAM_JSON[type(v)] % (k, v) for k, v in sorted(c["params"].items())), c["run"], c["y0"], c["z0"],
    ) for c in s["counterexample_candidates"])
    cands = "[\n%s\n  ]" % cands if cands else "[]"
    return _SUMMARY_JSON % (cands, s["fraction"], s["linear_detected"], s["n"], s["seed"], s["w"], *s["window"])


def _emit_tree(tree, args) -> int:
    """Write a branch tree's tables; the exit code, 2 when the branch cap truncated the tree."""
    tables, n = tree.tables, len(tree.tables)
    if args.format == "json":
        text = branches_json_text(branches_to_json_obj(tables, tree.truncated))
    elif n == 1:
        text = tables[0].to_csv_text()
    else:
        text = "".join(f"# branch {i} of {n}\n" + t.to_csv_text() for i, t in enumerate(tables))
    _emit(text, args.out)
    if tree.truncated:
        print(f"branch cap {args.branch_cap} hit; output truncated", file=sys.stderr)
    return 2 if tree.truncated else 0


# --- subcommands ----------------------------------------------------------------


def _cmd_evolve(args) -> int:
    p = load_params(args.params)
    y0 = _parse_pair(args.y0, "--y0")
    z0 = _parse_pair(args.z0, "--z0")
    window = _parse_window(args.window)
    return _emit_tree(evolve(p, args.m0, y0, z0, window, max_branches=args.branch_cap), args)


def _cmd_verify(args) -> int:
    p = load_params(args.params)
    with open(args.table, "r", encoding="utf-8") as fh:
        text = fh.read()
    table = SolutionTable.from_csv_text(text)
    failures = painleve_failures(p, table)
    if args.riccati:
        failures += riccati_failures(p, table)
    if failures:
        for m, rel in failures:
            print(f"FAIL m={m} relation={rel}", file=sys.stderr)
        return 3
    print(f"ok: {len(table)} rows verified")
    return 0


def _cmd_riccati(args) -> int:
    p = load_params(args.params)
    y0 = _parse_pair(args.y0, "--y0")
    lo, hi = _parse_window(args.window)
    tree = riccati_evolve(p, args.m0, y0, (lo, hi), sampling=args.sampling, max_branches=args.branch_cap)
    return _emit_tree(tree, args)


_FAMILY_OPTIONS = ("params", "id", "c", "cprime", "m0", "alpha", "beta", "gamma", "window", "out")


def _cmd_families(args) -> int:
    if args.list:
        given = [f"--{k}" for k in _FAMILY_OPTIONS if getattr(args, k) is not None]
        if given:
            raise ValueError(f"--list takes no other options, got {', '.join(given)}")
        sys.stdout.write("\n".join(FAMILY_IDS) + "\n")
        return 0
    if not args.params or not args.id:
        raise ValueError("--params and --id are required (or use --list)")
    p = load_params(args.params)
    ansatz = None
    if args.alpha is not None or args.beta is not None or args.gamma is not None:
        if None in (args.alpha, args.beta, args.gamma):
            raise ValueError("--alpha, --beta, --gamma must be given together")
        ansatz = LinearAnsatz(
            parse_rational(args.alpha, "--alpha"),
            parse_rational(args.beta, "--beta"),
            parse_rational(args.gamma, "--gamma"),
        )
    spec = FamilySpec(
        family=args.id,
        c=parse_rational(args.c, "--c") if args.c is not None else None,
        c_prime=parse_rational(args.cprime, "--cprime") if args.cprime is not None else None,
        m0=args.m0,
        ansatz=ansatz,
    )
    lo, hi = _parse_window("-10:10" if args.window is None else args.window)
    result = instantiate_family(spec, p, (lo, hi))
    report = result.to_json_obj()
    if args.format == "json":
        report["table"] = result.table.to_json_obj()
        _emit(_json_text(report), args.out)
    else:
        _emit(result.table.to_csv_text(), args.out)
        sys.stdout.write(_json_text({k: report[k] for k in ("family", "valid", "conditions")}))
    return 0


def _cmd_conjecture(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    lo, hi = _parse_window(args.window)
    if not lo <= 0 <= hi:
        raise ValueError(f"--window {args.window!r} must contain 0, the scan's initial index")
    if args.w < 2:
        raise ValueError("--w must be at least 2")
    if hi - lo + 1 < 2 * args.w + 2:
        raise ValueError(f"--window {args.window!r} has {hi - lo + 1} points; --w {args.w} needs at least {2 * args.w + 2}")
    rng = random.Random(args.seed)
    detected = 0
    candidates = []
    for i in range(args.n):
        p = random_constrained_params(rng)
        y0 = rng.randint(-150, 150)
        z0 = rng.randint(-150, 150)
        ys, zs = noparity_amplitudes(p, 0, y0, z0, (lo, hi))
        report = detect_asymptotic_linearity(p, lo, ys, zs, args.w)
        if report.detected and report.verified:
            detected += 1
        else:
            candidates.append({"run": i, "params": params_to_obj(p), "y0": str(y0), "z0": str(z0),
                               "forward_detected": report.forward is not None,
                               "backward_detected": report.backward is not None})
    summary = {"n": args.n, "seed": args.seed, "window": [lo, hi], "w": args.w, "linear_detected": detected,
               "fraction": f"{detected}/{args.n}", "counterexample_candidates": candidates}
    _emit(_summary_json_text(summary), args.out)
    return 0


def _cmd_qlimit(args) -> int:
    p = load_params(args.params)
    lo, hi = _parse_window(args.window)
    schedule = EpsSchedule.from_string(args.eps)
    if args.table is not None:
        if args.y0 is not None or args.z0 is not None:
            raise ValueError("qlimit takes either --table or --y0/--z0, not both")
        with open(args.table, "r", encoding="utf-8") as fh:
            table = SolutionTable.from_csv_text(fh.read())
    else:
        if not (args.y0 and args.z0):
            raise ValueError("qlimit needs either --table or --y0/--z0")
        y0 = _parse_pair(args.y0, "--y0")
        z0 = _parse_pair(args.z0, "--z0")
        if y0.sign != -1 or z0.sign != -1:
            raise ValueError("--y0/--z0 evolution uses the all-minus sector; signs must be -1")
        table = evolve_noparity(p, args.m0, y0.amp, z0.amp, (lo, hi))
    report = ud_limit_compare(p, table, schedule, (lo, hi))
    _emit(report.to_csv_text(), args.out)
    flagged = report.nonmonotone()
    for m, which in flagged:
        print(f"non-monotone amplitude error at m={m} ({which})", file=sys.stderr)
    for ab in report.aborts:
        print(f"aborted at eps={ab.eps}, m={ab.m}: {ab.reason}", file=sys.stderr)
    for m, rel in report.table_failures:
        print(f"input table violates {rel} at m={m}", file=sys.stderr)
    return 3 if (flagged or report.aborts or report.table_failures) else 0


@functools.cache  # one parser per process: it keeps no state between parses
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="udp6", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common_out(sp):
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    text = ("evolve an initial state over a window: one table per path through the finite ends (corner "
            "solutions) of each step's solution interval, a ray at a tie and the whole line at a double "
            "tie, where only V-U is followed; solutions inside (the soln2 family) are not listed")
    sp = sub.add_parser("evolve", help=text, description=text)
    sp.add_argument("--params", required=True)
    sp.add_argument("--y0", required=True, help="sign:amplitude, e.g. -1:43")
    sp.add_argument("--z0", required=True, help="sign:amplitude")
    sp.add_argument("--m0", type=int, default=0)
    sp.add_argument("--window", required=True, help="lo:hi inclusive")
    sp.add_argument("--branch-cap", type=int, default=64)
    common_out(sp)
    sp.set_defaults(fn=_cmd_evolve)

    sp = sub.add_parser("verify", help="re-check a table against the residuals")
    sp.add_argument("--params", required=True)
    sp.add_argument("--table", required=True)
    sp.add_argument("--riccati", action="store_true", help="also check the first-order relations")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("riccati", help="evolve the first-order subsystem")
    sp.add_argument("--params", required=True)
    sp.add_argument("--y0", required=True, help="sign:amplitude")
    sp.add_argument("--m0", type=int, default=0)
    sp.add_argument("--window", required=True)
    sp.add_argument("--sampling", choices=SAMPLINGS, default="endpoints")
    sp.add_argument("--branch-cap", type=int, default=64)
    common_out(sp)
    sp.set_defaults(fn=_cmd_riccati)

    sp = sub.add_parser("families", help="instantiate a closed-form solution family")
    sp.add_argument("--params")
    sp.add_argument("--id", choices=FAMILY_IDS)
    sp.add_argument("--c")
    sp.add_argument("--cprime")
    sp.add_argument("--m0", type=int)
    sp.add_argument("--alpha")
    sp.add_argument("--beta")
    sp.add_argument("--gamma")
    sp.add_argument("--window", help="lo:hi inclusive (default -10:10)")
    sp.add_argument("--list", action="store_true", help="list family ids and exit; takes no other option")
    common_out(sp)
    sp.set_defaults(fn=_cmd_families)

    sp = sub.add_parser("conjecture", help="seeded scan for asymptotically affine runs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--w", type=int, default=4, help="affine-tail window length")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_conjecture)

    text = ("compare a table against the q-system oracle; each eps's precision doubles from "
            "256 bits until two successive runs agree, up to a ceiling")
    sp = sub.add_parser("qlimit", help=text, description=text)
    sp.add_argument("--params", required=True)
    sp.add_argument("--table", help="CSV table to compare (alternative to --y0/--z0)")
    sp.add_argument("--y0", help="sign:amplitude (all-minus evolution seed)")
    sp.add_argument("--z0", help="sign:amplitude")
    sp.add_argument("--m0", type=int, default=0)
    sp.add_argument("--window", required=True)
    sp.add_argument("--eps", required=True, help="comma-separated decreasing eps values")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_qlimit)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_glue_values(argv))
    except SystemExit as exc:  # --help exits 0; a usage error is an input error, not 2
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
