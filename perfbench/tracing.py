"""Per-layer tracing from outside udp6.

Each layer is timed by replacing its public functions, under the names their
callers look up, with wrappers that record one span per call: group, parent
span, start and end.  Spans of one job live in memory until the job ends and
are then reduced to self time and entry counts per group.  Nothing here is
imported by an untraced run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict


def _branches(r):
    return {"branches": len(r.tables), "truncated": int(bool(r.truncated)), "evolves": 1}


def _tables(r):
    return {"tables": len(r.tables), "evolves": 1}


def _cands(r):
    return {"cands": len(r)}


def _precision(args):
    return {"prec_sum": min(args[3].prec, args[4].prec), "prec_steps": 1}


# group -> (wrapped names as "module:attribute", counters taken from the result,
# counters taken from the arguments).  The names are where the callers look them
# up: cli.py imports evolve into udp6.cli, the steppers find residual_zz in
# udp6.evolution, and so on.
GROUPS = {
    "cli": (["udp6.cli:main"], None, None),
    "system.residual": (["udp6.evolution:residual_zz", "udp6.evolution:residual_yy"], None, None),
    "system.check_constraint": (["udp6.system:check_constraint"], None, None),
    "evolution.step": ([
        "udp6.evolution:step_z_parity", "udp6.evolution:step_y_parity",
        "udp6.evolution:step_back_y_parity", "udp6.evolution:step_back_z_parity",
    ], _cands, None),
    "evolution.evolve": (["udp6.cli:evolve"], _branches, None),
    "evolution.noparity": ([
        "udp6.cli:evolve_noparity", "udp6.evolution:step_z_noparity",
        "udp6.evolution:step_y_noparity",
    ], None, None),
    "evolution.verify": (["udp6.cli:painleve_failures", "udp6.qoracle:painleve_failures"], None, None),
    "tropical.solve": (["udp6.riccati:solve_one_unknown"], None, None),
    "riccati.step": ([
        "udp6.riccati:riccati_step_z", "udp6.riccati:riccati_step_y",
        "udp6.riccati:riccati_close_z", "udp6.riccati:riccati_step_back_y",
    ], None, None),
    "riccati.evolve": (["udp6.cli:riccati_evolve"], _tables, None),
    "families.detect": (["udp6.cli:detect_asymptotic_linearity"], None, None),
    "qoracle.qp6_step": (["udp6.qoracle:qp6_step"], None, _precision),
    "qoracle.ls_op": ([
        "udp6.qoracle:ls_add", "udp6.qoracle:ls_sub", "udp6.qoracle:ls_mul",
        "udp6.qoracle:ls_div", "udp6.qoracle:ls_neg", "udp6.qoracle:ls_from_amplitude",
    ], None, None),
    "qoracle.compare": (["udp6.cli:ud_limit_compare"], None, None),
    "tables.io": ([
        "udp6.tables:SolutionTable.to_csv_text", "udp6.tables:SolutionTable.from_csv_text",
        "udp6.tables:SolutionTable.to_json_obj", "udp6.cli:branches_to_json_obj",
    ], None, None),
}


def _resolve(name):
    """(owner object, attribute, raw attribute) or None when the name is gone."""
    mod_name, _, path = name.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


class Tracer:
    """Installs the wrappers and turns each job's spans into per-group figures."""

    def __init__(self):
        self.groups = list(GROUPS)
        self.absent = {}  # group -> wrapped names missing from their modules
        self._targets = []  # (owner, attr, raw original, wrapper)
        self.spans = []  # (group index, parent span index, start, end)
        self._stack = [-1]  # open spans, innermost last
        self._open = [-1]  # their groups
        self.counters = defaultdict(int)
        for gid, (group, (names, from_result, from_args)) in enumerate(GROUPS.items()):
            found = [(n, _resolve(n)) for n in names]
            missing = [n for n, r in found if r is None]
            if missing:
                self.absent[group] = missing
                continue
            for _, (owner, attr, raw) in found:
                self._targets.append((owner, attr, raw, self._wrap(raw, gid, group, from_result, from_args)))

    def _wrap(self, raw, gid, group, from_result, from_args):
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        spans, stack, groups, counters = self.spans, self._stack, self._open, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            # a call from inside the same group (step_back_y_parity delegating to
            # step_y_parity) is timed but not counted again
            outer = groups[-1] != gid
            stack.append(sid)
            groups.append(gid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                groups.pop()
                spans[sid] = (gid, parent, t0, t1)
            if not outer:
                return result
            if from_args is not None:
                for k, v in from_args(args).items():
                    counters[group, k] += v
            if from_result is not None:
                for k, v in from_result(result).items():
                    counters[group, k] += v
            return result

        wrapper.__wrapped__ = fn
        return classmethod(wrapper) if is_classmethod else wrapper

    def __enter__(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, raw, _ in self._targets:
            setattr(owner, attr, raw)

    def take_job(self, wall: float) -> dict:
        """Reduce and clear the spans of one job whose measured wall time is ``wall``.

        Returns self seconds and entries per group, the remainder (wall time
        outside every root span, which is unwrapped time by definition) and
        any nesting violation; then resets spans and counters.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        roots = 0.0
        for gid, parent, t0, t1 in spans:
            if parent < 0:
                roots += t1 - t0
            else:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        worst = 0.0
        for i, (gid, parent, t0, t1) in enumerate(spans):
            own = t1 - t0 - child[i]
            worst = min(worst, own)
            self_s[gid] += own
            if parent < 0 or spans[parent][0] != gid:
                calls[gid] += 1
            if parent >= 0:
                _, _, p0, p1 = spans[parent]
                if t0 < p0 or t1 > p1:
                    worst = min(worst, -abs(t1 - t0))
        out = {
            "self_s": {self.groups[g]: v for g, v in self_s.items()},
            "calls": {self.groups[g]: v for g, v in calls.items()},
            "counters": dict(self.counters),
            "remainder_s": wall - roots,
            "nesting_error_s": -worst,
            "spans": len(spans),
        }
        spans.clear()
        self.counters.clear()
        return out
