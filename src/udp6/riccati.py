"""The first-order (Riccati-type) subsystem and its exact solvers.

Under the two parameter conditions ``B1+A3 == Q+A1+B3`` and
``B2+A4 == A2+B4`` the system admits a first-order reduction: one relation
(r2) links y_m to z_{m+1}, the other (r1) links y_{m+1} to z_{m+1}.  Both are
the same parity-filtered identity between maxima with different
coefficients, transcribed once in ``_sides``.  It is linear in each
amplitude, so a step is an exact one-unknown tropical solve whose result can
be a point, an interval, or a union of intervals (degenerate inputs leave a
free constant); the four steps are that one solve with a relation, an index
offset and the unknown slot.

Every solution of this subsystem also solves the full second-order system;
``theorem_check`` verifies that implication table by table.  The subsystem
has no solution at all with both parities -1, so the parity variables are
essential here.

Residuals and steps check nothing; ``riccati_evolve``, ``riccati_failures``
and ``theorem_check`` validate the parameters once on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .evolution import BranchTree, grow_tables, painleve_failures
from .system import ConstraintViolation, ParityPair, Params, require_unsigned
from .tables import SolutionTable
from .tropical import LinTerm, SolutionSet, solve_one_unknown

__all__ = [
    "RiccatiStepResult",
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
    "theorem_check",
]


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


def _sides(
    p: Params, rel: str, m: int, sy: int, sz: int, y: Optional[Fraction], z: Optional[Fraction]
) -> Tuple[List[LinTerm], List[LinTerm]]:
    """Left and right terms of relation ``rel`` at index m.

    A slot holds a known amplitude or None for the unknown.  As in the parity
    relations, a term sits on the left when its parity argument is +1 and on
    the right when it is -1.
    """
    const, cy, cz = _RELATIONS[rel](p, m)

    def term(c, *slots):
        known = [v for v in slots if v is not None]
        return LinTerm(len(slots) - len(known), c + sum(known))

    terms = ((term(const), 1), (term(cy, y), -sy), (term(cz, z), -sz), (term(0, y, z), sy * sz))
    return [t for t, s in terms if s == 1], [t for t, s in terms if s == -1]


def _holds(p: Params, rel: str, m: int, y: ParityPair, z: ParityPair) -> bool:
    lhs, rhs = _sides(p, rel, m, y.sign, z.sign, y.amp, z.amp)
    if not rhs:  # both parities -1: the right side is minus infinity
        return False
    return max(t.intercept for t in lhs) == max(t.intercept for t in rhs)


def residual_riccati2(p: Params, m: int, y_m: ParityPair, z_next: ParityPair) -> bool:
    """Exact check of the y_m -> z_{m+1} relation (parity-filtered maxima).

    Always False when both parities are -1: that sign pair has no solution.
    """
    return _holds(p, "r2", m, y_m, z_next)


def residual_riccati1(p: Params, m: int, y_next: ParityPair, z_next: ParityPair) -> bool:
    """Exact check of the z_{m+1} -> y_{m+1} relation."""
    return _holds(p, "r1", m, y_next, z_next)


# --- one-unknown steps --------------------------------------------------------


@dataclass(frozen=True)
class RiccatiStepResult:
    """Admissible (sign, solution set) branches for the next variable.

    Entries with an empty solution set are omitted; the sign pair that admits
    no solution is never attempted, so a double-minus branch cannot appear.
    """

    branches: Tuple[Tuple[int, SolutionSet], ...]

    def samples(self, policy: str = "endpoints") -> List[ParityPair]:
        out = []
        for sign, solset in self.branches:
            out.extend(ParityPair(sign, x) for x in solset.finite_samples(policy))
        return out


def _solve(p: Params, rel: str, m: int, known: ParityPair, unknown: str) -> RiccatiStepResult:
    """Solve relation ``rel`` at index m for its ``unknown`` slot ("y" or
    "z"), one sign at a time, given the other slot."""
    branches = []
    for sign in (1,) if known.sign == -1 else (1, -1):
        if unknown == "z":
            sides = _sides(p, rel, m, known.sign, sign, known.amp, None)
        else:
            sides = _sides(p, rel, m, sign, known.sign, None, known.amp)
        sol = solve_one_unknown(*sides)
        if not sol.is_empty:
            branches.append((sign, sol))
    return RiccatiStepResult(tuple(branches))


def riccati_step_z(p: Params, m: int, y_m: ParityPair) -> RiccatiStepResult:
    """Solve the step relation at index m for z_{m+1}, one sign at a time."""
    return _solve(p, "r2", m, y_m, "z")


def riccati_step_y(p: Params, m: int, z_next: ParityPair) -> RiccatiStepResult:
    """Solve the step relation at index m for y_{m+1}, given z_{m+1}."""
    return _solve(p, "r1", m, z_next, "y")


def riccati_close_z(p: Params, m: int, y_m: ParityPair) -> RiccatiStepResult:
    """Solve for z_m given y_m (the y-relation at index m-1, unknown z slot)."""
    return _solve(p, "r1", m - 1, y_m, "z")


def riccati_step_back_y(p: Params, m: int, z_m: ParityPair) -> RiccatiStepResult:
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
    are made concrete by the sampling policy (default: finite endpoints).
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

    def fill(slot, step, m, known):
        # one half step: ``slot`` from each sample of ``step`` at the ``known`` value
        return lambda t: ({slot: c} for c in step(p, m, t[known]).samples(sampling))

    steps = [fill(("z", m0), riccati_close_z, m0, ("y", m0))]
    for m in range(m0, hi):
        steps.append(fill(("z", m + 1), riccati_step_z, m, ("y", m)))
        steps.append(fill(("y", m + 1), riccati_step_y, m, ("z", m + 1)))
    for m in range(m0, lo, -1):
        steps.append(fill(("y", m - 1), riccati_step_back_y, m, ("z", m)))
        steps.append(fill(("z", m - 1), riccati_close_z, m - 1, ("y", m - 1)))
    return grow_tables({("y", m0): y0}, steps, max_branches, window)


def riccati_failures(p: Params, table: SolutionTable) -> List[Tuple[int, str]]:
    """All (index, relation) pairs where a subsystem relation fails.

    The y->z relation is checkable for m in [lo, hi-1]; the z->y relation for
    m in [lo-1, hi-1] (it touches only indexes m+1).
    """
    require_riccati_conditions(p)
    bad = []
    for m in range(table.m_lo, table.m_hi):
        if not residual_riccati2(p, m, table.y(m), table.z(m + 1)):
            bad.append((m, "r2"))
    for m in range(table.m_lo - 1, table.m_hi):
        if not residual_riccati1(p, m, table.y(m + 1), table.z(m + 1)):
            bad.append((m, "r1"))
    return bad


def theorem_check(p: Params, table: SolutionTable) -> bool:
    """Verify on one table that solving the subsystem implies solving the
    full system.  False only on a counterexample, which must never happen."""
    if riccati_failures(p, table):
        return True  # premise fails; implication is vacuous
    return not painleve_failures(p, table)
