"""The first-order (Riccati-type) subsystem and its exact solvers.

Under the two parameter conditions ``B1+A3 == Q+A1+B3`` and
``B2+A4 == A2+B4`` the system admits a first-order reduction: one relation
(r2) links y_m to z_{m+1}, the other (r1) links y_{m+1} to z_{m+1}.  Both are
the same parity-filtered identity between maxima with different
coefficients, transcribed once in ``_sides``: a constant C, a y term, a z
term and a y+z term.  It is linear in each amplitude, so a step is an exact
one-unknown solve; the four steps are that one solve with a relation, an
index offset and the unknown slot.

Every term holds the unknown at most once, so with the other slot known a
step is ``udp6.system.solve_lines`` on the highest line of each slope on each
side: a point, a ray (a free constant), the whole line, or empty.

Every step has a solution for at least one sign it tries.  With the known
parity -1 only the unknown parity +1 is tried, and the flat lines (C and the
known term) are on one side, the slope-1 lines on the other: they meet at a
point.  With the known parity +1 the difference of the sides is monotone in
the unknown; far down it is C minus the known term for both unknown signs,
far up the difference of the slope-1 intercepts, with opposite signs for the
two.  So for one sign it changes sign or vanishes, and has a zero.

Every solution of this subsystem also solves the full second-order system;
the tests check that implication table by table (``theorem_check`` in
``tests/oracles.py``).  The subsystem has no solution at all with both
parities -1, so the parity variables are essential here.

Residuals and steps check nothing; ``riccati_evolve`` and
``riccati_failures`` validate the parameters once on entry and run on the
amplitudes as they entered, ints or Fractions, never floats (see
``udp6.system``): integer inputs give integer interval ends and samples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import List, Optional, Tuple, Union

from .evolution import BranchTree, cell_positions, grow_tables
from .system import ConstraintViolation, ParityPair, Params, require_unsigned, solve_lines
from .tables import SolutionTable

__all__ = [
    "SAMPLINGS",
    "check_riccati_conditions",
    "require_riccati_conditions",
    "residual_riccati1",
    "residual_riccati2",
    "riccati_close_z",
    "riccati_evolve",
    "riccati_failures",
    "riccati_step_back_y",
    "riccati_step_y",
    "riccati_step_z",
    "solve_one_unknown",
]

SAMPLINGS = ("endpoints", "midpoint", "all-breakpoints")


def check_riccati_conditions(p: Params) -> bool:
    """Whether B1+A3 == Q+A1+B3 and B2+A4 == A2+B4."""
    return p.b1 + p.a3 == p.q + p.a1 + p.b3 and p.b2 + p.a4 == p.a2 + p.b4


def require_riccati_conditions(p: Params) -> None:
    """The entry check of the subsystem: all parameter signs +1, the
    constraint (the sum of the two conditions) and both conditions."""
    require_unsigned(p)
    if not check_riccati_conditions(p):
        raise ConstraintViolation(
            "parameters must satisfy B1+A3 = Q+A1+B3 and B2+A4 = A2+B4"
        )


# --- the relation ----------------------------------------------------------------
#
# (constant, y coefficient, z coefficient) of each relation at index m.
_RELATIONS = {
    "r1": lambda p, m: (m * p.q + p.a3 + p.b1, p.b3, p.a3),  # z_{m+1} -> y_{m+1}
    "r2": lambda p, m: (m * p.q + p.a2 + p.b4, p.b4, p.a4),  # y_m -> z_{m+1}
}


Amp = Union[int, Fraction]
Term = Tuple[int, Amp]  # (slope, intercept): slope * x + intercept
Interval = Tuple[Optional[Amp], Optional[Amp]]  # (lo, hi); None is unbounded
Branches = Tuple[Tuple[int, Interval], ...]  # the (sign, interval) branches of a step


def _sides(
    p: Params, rel: str, m: int, sy: int, sz: int, y: Optional[Amp], z: Optional[Amp]
) -> Tuple[List[Term], List[Term]]:
    """Left and right (slope, intercept) terms of relation ``rel`` at index m.

    A slot holds a known amplitude or None for the unknown, so every slope is
    0 or 1.  As in the parity relations, a term sits on the left when its
    parity argument is +1 and on the right when it is -1.
    """
    const, cy, cz = _RELATIONS[rel](p, m)

    def term(c, *slots):
        known = [v for v in slots if v is not None]
        return len(slots) - len(known), c + sum(known)

    terms = ((term(const), 1), (term(cy, y), -sy), (term(cz, z), -sz), (term(0, y, z), sy * sz))
    return [t for t, s in terms if s == 1], [t for t, s in terms if s == -1]


def _holds(p: Params, rel: str, m: int, y: ParityPair, z: ParityPair) -> bool:
    lhs, rhs = _sides(p, rel, m, y.sign, z.sign, y.amp, z.amp)
    if not rhs:  # both parities -1: the right side is minus infinity
        return False
    return max(c for _, c in lhs) == max(c for _, c in rhs)


def residual_riccati2(p: Params, m: int, y_m: ParityPair, z_next: ParityPair) -> bool:
    """Exact check of the y_m -> z_{m+1} relation (parity-filtered maxima).

    Always False when both parities are -1: that sign pair has no solution.
    """
    return _holds(p, "r2", m, y_m, z_next)


def residual_riccati1(p: Params, m: int, y_next: ParityPair, z_next: ParityPair) -> bool:
    """Exact check of the z_{m+1} -> y_{m+1} relation."""
    return _holds(p, "r1", m, y_next, z_next)


# --- one-unknown steps --------------------------------------------------------


def solve_one_unknown(lhs: List[Term], rhs: List[Term]) -> Optional[Interval]:
    """The exact solution set of ``max(lhs) == max(rhs)``, terms of slope 0
    and 1: ``solve_lines`` on the highest line of each slope on each side."""
    tops = [max((c for s, c in side if s == k), default=None) for side in (lhs, rhs) for k in (0, 1)]
    return solve_lines(*tops)


def _samples(interval: Interval, policy: str) -> List[Amp]:
    """Sorted members of a solution set of ``solve_one_unknown``, by policy.

    ``endpoints``: the finite ends (0 for the whole line); ``midpoint``: one
    interior witness, 1 in from the end of a ray; ``all-breakpoints``: both.
    Two finite ends are one point (``solve_lines``), which is its own witness.
    """
    lo, hi = interval
    if lo is None and hi is None:
        return [0]
    if lo is None:
        ends, mid = [hi], hi - 1
    elif hi is None:
        ends, mid = [lo], lo + 1
    else:
        ends, mid = [lo], lo
    picks = {"endpoints": ends, "midpoint": [mid], "all-breakpoints": ends + [mid]}
    return sorted(set(picks[policy]))


def _solve(p: Params, rel: str, m: int, known: ParityPair, unknown: str) -> Branches:
    """Solve relation ``rel`` at index m for its ``unknown`` slot ("y" or
    "z"), one sign at a time, given the other slot.  A sign with no solution
    is left out, and the double-minus pair, which has none, is never tried."""
    branches = []
    for sign in (1,) if known.sign == -1 else (1, -1):
        if unknown == "z":
            sides = _sides(p, rel, m, known.sign, sign, known.amp, None)
        else:
            sides = _sides(p, rel, m, sign, known.sign, None, known.amp)
        sol = solve_one_unknown(*sides)
        if sol is not None:
            branches.append((sign, sol))
    return tuple(branches)


def riccati_step_z(p: Params, m: int, y_m: ParityPair) -> Branches:
    """Solve the step relation at index m for z_{m+1}, one sign at a time."""
    return _solve(p, "r2", m, y_m, "z")


def riccati_step_y(p: Params, m: int, z_next: ParityPair) -> Branches:
    """Solve the step relation at index m for y_{m+1}, given z_{m+1}."""
    return _solve(p, "r1", m, z_next, "y")


def riccati_close_z(p: Params, m: int, y_m: ParityPair) -> Branches:
    """Solve for z_m given y_m (the y-relation at index m-1, unknown z slot)."""
    return _solve(p, "r1", m - 1, y_m, "z")


def riccati_step_back_y(p: Params, m: int, z_m: ParityPair) -> Branches:
    """Solve for y_{m-1} given z_m (the z-relation at index m-1, unknown y)."""
    return _solve(p, "r2", m - 1, z_m, "y")


# --- window evolution ----------------------------------------------------------


def riccati_evolve(
    p: Params,
    m0: int,
    y0: ParityPair,
    window: Tuple[int, int],
    sampling: str = "endpoints",
    max_branches: int = 64,
) -> BranchTree:
    """Build concrete solution tables of the first-order subsystem.

    Starting from y at index m0, alternate the one-unknown solves forward to
    the window end and backward to its start; interval-valued solution sets
    are made concrete by the ``sampling`` policy of ``_samples``:
    ``endpoints`` (the default), ``midpoint`` or ``all-breakpoints``.
    Every emitted table satisfies both subsystem relations at every checkable
    index.  Branch counts beyond ``max_branches`` are pruned deterministically
    and flagged.
    """
    require_riccati_conditions(p)
    lo, hi = window
    if not (lo <= m0 <= hi):
        raise ValueError("initial index must lie inside the window")
    if max_branches < 1:
        raise ValueError("max_branches must be at least 1")
    if sampling not in SAMPLINGS:
        raise ValueError(f"unknown sampling policy {sampling!r}")

    def fill(step, m, known):
        # one half step: a cell from each sample of ``step`` at the value of
        # the cell at position ``known``, the one cell it reads
        return (known,), lambda cell: (
            [ParityPair(sign, x)]
            for sign, iv in step(p, m, cell)
            for x in _samples(iv, sampling)
        )

    # z_m0, then (z, y) per index forward and (y, z) backward: ``grow_tables``' order
    at = partial(cell_positions, m0, hi)
    steps = [fill(riccati_close_z, m0, 0)]
    for m in range(m0, hi):
        steps += fill(riccati_step_z, m, at(m)[0]), fill(riccati_step_y, m, at(m + 1)[1])
    for m in range(m0, lo, -1):
        steps += fill(riccati_step_back_y, m, at(m)[1]), fill(riccati_close_z, m - 1, at(m - 1)[0])
    return grow_tables([y0], steps.__getitem__, max_branches, m0, window)


def riccati_failures(p: Params, table: SolutionTable) -> List[Tuple[int, str]]:
    """All (index, relation) pairs where a subsystem relation fails.

    The y->z relation is checkable for m in [lo, hi-1]; the z->y relation for
    m in [lo-1, hi-1] (it touches only indexes m+1).
    """
    require_riccati_conditions(p)
    y, z = table.y, table.z
    lo, hi = table.m_lo, table.m_hi
    bad = [(m, "r2") for m in range(lo, hi) if not residual_riccati2(p, m, y(m), z(m + 1))]
    return bad + [(m, "r1") for m in range(lo - 1, hi) if not residual_riccati1(p, m, y(m + 1), z(m + 1))]
