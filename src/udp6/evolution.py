"""Initial-value evolution of the parity system with branch enumeration.

A solution of the initial value problem always exists but is not always
unique: when the y amplitude hits one of {A3, A4, A1+mQ, A2+mQ} (or the z
amplitude one of the B analogues) several next states satisfy the step
relation.  The steppers here emit every candidate produced by the
constructive case split, validate each against the exact residual, and
deduplicate; ``evolve`` expands the candidates into a branch tree whose
leaves are complete solution tables over the requested window.

The case split for the sign(y) = +1 sector compares
``U = max(2Y, A3+A4)`` with ``U' = max(A3,A4)+Y`` and
``V = max(2mQ+A1+A2, 2Y)`` with ``V' = max(A1,A2)+mQ+Y``;
non-strict comparisons on both sides make exact ties activate several cases
at once, which is precisely where uniqueness fails.  The sign(y) = -1 sector
is deterministic: the z parity propagates and the amplitude is solved in
closed form.

Only the z-steppers are written out.  A y-stepper is the z-stepper on the
mirrored parameters (A and B exchanged) with y and z exchanged, as the
y-relation is the mirrored z-relation.  Backward stepping reuses the forward
solvers: each relation is symmetric in its two same-letter variables, so
solving for the earlier one is the forward solve at index m-1 with the known
value in the other slot.

Steppers check nothing; ``evolve``, ``evolve_noparity`` and
``painleve_failures`` validate the parameters once on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, List, Tuple

from .system import (
    ParityPair,
    Params,
    StatePair,
    require_constraint,
    require_unsigned,
    residual_yy,
    residual_zz,
)
from .tables import SolutionTable

__all__ = [
    "BranchTree",
    "EvolutionConfig",
    "evolve",
    "evolve_noparity",
    "painleve_failures",
    "step_back_y_noparity",
    "step_back_y_parity",
    "step_back_z_noparity",
    "step_back_z_parity",
    "step_y_noparity",
    "step_y_parity",
    "step_z_noparity",
    "step_z_parity",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Window and branch cap."""

    m_min: int
    m_max: int
    max_branches: int = 64

    def __post_init__(self) -> None:
        if self.m_min > self.m_max:
            raise ValueError("m_min must not exceed m_max")
        if self.max_branches < 1:
            raise ValueError("max_branches must be at least 1")


@dataclass(frozen=True)
class BranchTree:
    """All enumerated solutions through one initial state.

    ``truncated`` is set when the branch cap pruned the enumeration; the
    surviving tables are still complete and valid.
    """

    tables: Tuple[SolutionTable, ...]
    truncated: bool


def grow_tables(
    root: dict,
    steps: List[Callable[[dict], Iterable[dict]]],
    cap: int,
    window: Tuple[int, int],
) -> BranchTree:
    """The branching frontier shared by ``evolve`` and ``riccati_evolve``.

    A partial table maps ("y", m) and ("z", m) to parity pairs.  Each step
    maps a partial table to the ordered updates of its children; after each
    step only the first ``cap`` children are kept, and the result is
    flagged truncated if any step dropped children.
    """
    partials, truncated = [root], False
    for updates in steps:
        grown = list(islice(({**t, **u} for t in partials for u in updates(t)), cap + 1))
        partials, truncated = grown[:cap], truncated or len(grown) > cap
    lo, hi = window
    tables = tuple(
        SolutionTable(
            lo,
            tuple(t["y", m] for m in range(lo, hi + 1)),
            tuple(t["z", m] for m in range(lo, hi + 1)),
        )
        for t in partials
    )
    return BranchTree(tables, truncated)


# --- deterministic closed-form steps (all-minus parity sector) ---------------


def step_z_noparity(p: Params, m: int, y_amp, z_amp) -> Fraction:
    """Unique next z amplitude in the all-minus sector."""
    y, z = Fraction(y_amp), Fraction(z_amp)
    mq = m * p.q
    return (
        p.b3 + p.b4 + max(mq + p.a1, y) + max(mq + p.a2, y)
        - z - max(p.a3, y) - max(p.a4, y)
    )


def step_y_noparity(p: Params, m: int, y_amp, z_next_amp) -> Fraction:
    """Unique next y amplitude in the all-minus sector (mirrored z-step)."""
    return step_z_noparity(p.mirrored, m, z_next_amp, y_amp)


def step_back_y_noparity(p: Params, m: int, y_amp, z_amp) -> Fraction:
    """Previous y amplitude; the y-relation at m-1 read for its earlier slot."""
    return step_y_noparity(p, m - 1, y_amp, z_amp)


def step_back_z_noparity(p: Params, m: int, y_prev_amp, z_amp) -> Fraction:
    """Previous z amplitude; the z-relation at m-1 read for its earlier slot."""
    return step_z_noparity(p, m - 1, y_prev_amp, z_amp)


# --- parity steps with branch enumeration ------------------------------------


def _ordered_unique(cands: List[ParityPair]) -> List[ParityPair]:
    out = []
    for c in sorted(cands, key=lambda c: (-c.sign, c.amp)):
        if c not in out:
            out.append(c)
    return out


def step_z_parity(p: Params, m: int, y: ParityPair, z: ParityPair) -> List[ParityPair]:
    """All candidates for (sign, amplitude) of z at index m+1.

    Every emitted candidate satisfies the exact z-step residual; at least one
    exists for any input.  Candidates are ordered +1-sign first, then by
    amplitude.
    """
    b34 = p.b3 + p.b4
    if y.sign == -1:
        cands = [ParityPair(z.sign, step_z_noparity(p, m, y.amp, z.amp))]
    else:
        mq = m * p.q
        u = max(2 * y.amp, p.a3 + p.a4)
        u2 = max(p.a3, p.a4) + y.amp
        v = max(2 * mq + p.a1 + p.a2, 2 * y.amp)
        v2 = max(p.a1, p.a2) + mq + y.amp
        cands = []
        if u >= u2 and v >= v2:
            cands.append(ParityPair(z.sign, v - u + b34 - z.amp))
        if u <= u2 and v <= v2:
            cands.append(ParityPair(z.sign, v2 - u2 + b34 - z.amp))
        if u >= u2 and v <= v2:
            cands.append(ParityPair(-z.sign, v2 - u + b34 - z.amp))
        if u <= u2 and v >= v2:
            cands.append(ParityPair(-z.sign, v - u2 + b34 - z.amp))
    valid = [c for c in cands if residual_zz(p, m, y, z, c)]
    if not valid:
        raise AssertionError("no valid candidate; existence is guaranteed")
    return _ordered_unique(valid)


def step_y_parity(p: Params, m: int, y: ParityPair, z_next: ParityPair) -> List[ParityPair]:
    """All candidates for (sign, amplitude) of y at index m+1, given z there
    (the mirrored z-step)."""
    return step_z_parity(p.mirrored, m, z_next, y)


def step_back_y_parity(p: Params, m: int, y: ParityPair, z: ParityPair) -> List[ParityPair]:
    """Candidates for y at index m-1, given (y, z) at m.

    The y-relation at index m-1 is symmetric in its two y slots, so this is
    the forward y solver with the known pair in the other slot.
    """
    return step_y_parity(p, m - 1, y, z)


def step_back_z_parity(p: Params, m: int, y_prev: ParityPair, z: ParityPair) -> List[ParityPair]:
    """Candidates for z at index m-1, given y at m-1 and z at m."""
    return step_z_parity(p, m - 1, y_prev, z)


# --- window evolution ---------------------------------------------------------


def evolve(p: Params, initial: StatePair, cfg: EvolutionConfig) -> BranchTree:
    """Enumerate solutions through ``initial`` over [cfg.m_min, cfg.m_max].

    Alternates the z- and y-steppers forward from the initial index and their
    backward mirrors down to the window start.  Every leaf is a complete
    SolutionTable satisfying both residuals at every interior index.  When the
    number of live branches exceeds ``cfg.max_branches`` after a (z, y) step
    the surplus (in deterministic order) is dropped and the result is flagged
    truncated.
    """
    require_unsigned(p)
    if not (cfg.m_min <= initial.m <= cfg.m_max):
        raise ValueError("initial index must lie inside the window")

    m0 = initial.m
    # one step per (z, y) pair, so the cap applies after each pair
    steps = [
        lambda t, m=m: (
            {("z", m + 1): z1, ("y", m + 1): y1}
            for z1 in step_z_parity(p, m, t["y", m], t["z", m])
            for y1 in step_y_parity(p, m, t["y", m], z1)
        )
        for m in range(m0, cfg.m_max)
    ]
    steps += [
        lambda t, m=m: (
            {("y", m - 1): y0, ("z", m - 1): z0}
            for y0 in step_back_y_parity(p, m, t["y", m], t["z", m])
            for z0 in step_back_z_parity(p, m, y0, t["z", m])
        )
        for m in range(m0, cfg.m_min, -1)
    ]
    root = {("y", m0): initial.y, ("z", m0): initial.z}
    return grow_tables(root, steps, cfg.max_branches, (cfg.m_min, cfg.m_max))


def evolve_noparity(p: Params, m0: int, y0, z0, window: Tuple[int, int]) -> SolutionTable:
    """Deterministic all-minus-parity evolution (closed-form steps only)."""
    require_unsigned(p)
    lo, hi = window
    if not (lo <= m0 <= hi):
        raise ValueError("initial index must lie inside the window")
    ys = {m0: Fraction(y0)}
    zs = {m0: Fraction(z0)}
    for m in range(m0, hi):
        zs[m + 1] = step_z_noparity(p, m, ys[m], zs[m])
        ys[m + 1] = step_y_noparity(p, m, ys[m], zs[m + 1])
    for m in range(m0, lo, -1):
        ys[m - 1] = step_back_y_noparity(p, m, ys[m], zs[m])
        zs[m - 1] = step_back_z_noparity(p, m, ys[m - 1], zs[m])
    return SolutionTable(
        lo,
        tuple(ParityPair(-1, ys[m]) for m in range(lo, hi + 1)),
        tuple(ParityPair(-1, zs[m]) for m in range(lo, hi + 1)),
    )


def painleve_failures(p: Params, table: SolutionTable) -> List[Tuple[int, str]]:
    """All (index, relation) pairs where the table violates a residual.

    Parameter signs are admitted; the constraint is checked on entry.
    """
    require_constraint(p)
    bad = []
    for m in range(table.m_lo, table.m_hi):
        if not residual_zz(p, m, table.y(m), table.z(m), table.z(m + 1)):
            bad.append((m, "zz"))
        if not residual_yy(p, m, table.y(m), table.y(m + 1), table.z(m + 1)):
            bad.append((m, "yy"))
    return bad
