"""Independent test oracles and helpers shared by the module and acceptance
suites.

The library transcribes each parity relation once (the signed eight-term
z-relation, mirrored for y).  The four-case reductions and the
parity-filtered side lists below are the other two transcriptions, kept here
only to be compared against it; so are the tropical primitives with an
explicit minus infinity ``BOTTOM``, which the library does without (its sides
are never empty), and the grid oracle of the first-order solver.  The affine
tail ansatz is checked here index by index, against the library's decision at
the ends of a range.  The seeded generators of random states and
first-order parameters serve the property suites only, as do the check that
a first-order solution solves the full system, a Fraction-valued first-order
evolution to hold the library's integer route against, and the first-order
step of the q-system.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Iterable, Tuple, Union

from udp6.evolution import painleve_failures
from udp6.families import Condition, LinearAnsatz
from udp6.qoracle import LogSigned, _fixed_images, _nonzero, ls_div, ls_from_amplitude, ls_mul, ls_sub
from udp6.riccati import (
    require_riccati_conditions,
    riccati_close_z,
    riccati_failures,
    riccati_step_back_y,
    riccati_step_y,
    riccati_step_z,
)
from udp6.system import ParityPair, Params, check_sign, params_to_obj
from udp6.tables import SolutionTable


class _MinusInfinity:
    """The max-plus zero: the identity of ``max`` and absorbing for ``+``."""

    def __repr__(self) -> str:
        return "-inf"


BOTTOM = _MinusInfinity()
Amp = Union[Fraction, _MinusInfinity]


def is_bottom(x) -> bool:
    return x is BOTTOM


def dump_params(p: Params, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(params_to_obj(p), fh, sort_keys=True, indent=2)
        fh.write("\n")


# --- gauge and scale transforms, for the equivariance properties -------------------


def _amps_mapped(x, f, with_q: bool):
    if isinstance(x, Params):
        keys = ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4") + (("q",) if with_q else ())
        return replace(x, **{k: f(getattr(x, k)) for k in keys})
    if isinstance(x, ParityPair):
        return ParityPair(x.sign, f(x.amp))
    cols = (tuple(ParityPair(c.sign, f(c.amp)) for c in col) for col in (x.ys, x.zs))
    return SolutionTable(x.m_lo, *cols)


def gauge(x, c):
    """Params, a ParityPair or a SolutionTable with every amplitude moved by
    c; Q and the signs are kept."""
    c = Fraction(c)
    return _amps_mapped(x, lambda a: a + c, with_q=False)


def scale(x, lam):
    """Params, a ParityPair or a SolutionTable with Q and every amplitude
    multiplied by the positive rational lam."""
    lam = Fraction(lam)
    assert lam > 0
    return _amps_mapped(x, lambda a: a * lam, with_q=True)


# --- max-plus primitives with an explicit minus infinity ------------------------


def parity_indicator(sign: int) -> Amp:
    """S(+1) = 0 and S(-1) = -inf; a term carrying S(-1) drops out of a max."""
    check_sign(sign)
    return Fraction(0) if sign == 1 else BOTTOM


def t_add(*terms: Amp) -> Amp:
    """Sum of amplitudes; BOTTOM absorbs."""
    total = Fraction(0)
    for t in terms:
        if t is BOTTOM:
            return BOTTOM
        total += t
    return total


def t_max(terms: Iterable[Amp]) -> Amp:
    """Exact maximum; BOTTOM only if every entry is BOTTOM.

    An empty collection is an error so that accidentally-empty maxima cannot
    masquerade as minus infinity.
    """
    items = list(terms)
    if not items:
        raise ValueError("t_max of an empty collection")
    finite = [t for t in items if t is not BOTTOM]
    return max(finite) if finite else BOTTOM


def exchange_identity_check(
    x1: Amp, x2: Amp, x3: Amp, x4: Amp, w1: Amp, w2: Amp, w3: Amp, w4: Amp
) -> bool:
    """Exchange identity for a pair of balanced maxima.

    Returns True iff the premises ``max(x1,x2) == max(x3,x4)`` and
    ``max(w1,w2) == max(w3,w4)`` hold and moreover

        max(x1+w1, x3+w3, x2+w4, x4+w2) == max(x2+w2, x4+w4, x1+w3, x3+w1).

    Under the premises the identity always holds (it is the max-plus image of
    cross-multiplying two balanced differences), which makes this function a
    property oracle: on premise-satisfying inputs it must never return False.
    """
    if t_max([x1, x2]) != t_max([x3, x4]):
        return False
    if t_max([w1, w2]) != t_max([w3, w4]):
        return False
    lhs = t_max([t_add(x1, w1), t_add(x3, w3), t_add(x2, w4), t_add(x4, w2)])
    rhs = t_max([t_add(x2, w2), t_add(x4, w4), t_add(x1, w3), t_add(x3, w1)])
    return lhs == rhs


# --- the other two transcriptions of the parity relations ----------------------


def zz_by_cases(
    p: Params, m: int, y_m: ParityPair, z_m: ParityPair, z_next: ParityPair
) -> bool:
    """The z-step relation at index m, decided by its four-case reduction.

    The case is selected by (sign of y_m, product of the two z signs); the
    (-1, -1) combination admits no solution and is always False.
    """
    sy = y_m.sign
    szz = z_m.sign * z_next.sign
    y, z0, z1 = y_m.amp, z_m.amp, z_next.amp
    mq = m * p.q
    b34 = p.b3 + p.b4
    if sy == 1 and szz == 1:
        lhs = max(max(2 * y, p.a3 + p.a4) + z0 + z1, max(p.a1, p.a2) + mq + y + b34)
        rhs = max(max(2 * mq + p.a1 + p.a2, 2 * y) + b34, max(p.a3, p.a4) + y + z0 + z1)
    elif sy == 1 and szz == -1:
        lhs = max(max(p.a3, p.a4) + y + z0 + z1, max(p.a1, p.a2) + mq + y + b34)
        rhs = max(max(2 * mq + p.a1 + p.a2, 2 * y) + b34, max(2 * y, p.a3 + p.a4) + z0 + z1)
    elif sy == -1 and szz == 1:
        lhs = z0 + z1 + max(p.a3, y) + max(p.a4, y)
        rhs = b34 + max(mq + p.a1, y) + max(mq + p.a2, y)
    else:
        return False  # no solution with sign(y)=-1 and flipped z parity
    return lhs == rhs


def yy_by_cases(
    p: Params, m: int, y_m: ParityPair, y_next: ParityPair, z_next: ParityPair
) -> bool:
    """The y-step relation at index m, decided by its four-case reduction.

    Case selected by (sign of z_{m+1}, product of the two y signs); the
    (-1, -1) combination is always False.
    """
    sz = z_next.sign
    syy = y_m.sign * y_next.sign
    y0, y1, z1 = y_m.amp, y_next.amp, z_next.amp
    mq = m * p.q
    a34 = p.a3 + p.a4
    if sz == 1 and syy == 1:
        lhs = max(max(2 * z1, p.b3 + p.b4) + y0 + y1, max(p.b1, p.b2) + mq + z1 + a34)
        rhs = max(max(2 * mq + p.b1 + p.b2, 2 * z1) + a34, max(p.b3, p.b4) + y0 + y1 + z1)
    elif sz == 1 and syy == -1:
        lhs = max(max(p.b3, p.b4) + y0 + y1 + z1, max(p.b1, p.b2) + mq + a34 + z1)
        rhs = max(max(2 * mq + p.b1 + p.b2, 2 * z1) + a34, max(2 * z1, p.b3 + p.b4) + y0 + y1)
    elif sz == -1 and syy == 1:
        lhs = y0 + y1 + max(p.b3, z1) + max(p.b4, z1)
        rhs = a34 + max(mq + p.b1, z1) + max(mq + p.b2, z1)
    else:
        return False
    return lhs == rhs


def _filtered_max(terms) -> Amp:
    """Max over (amplitude, keep) pairs; BOTTOM when everything is dropped."""
    kept = [amp for amp, keep in terms if keep]
    return max(kept) if kept else BOTTOM


def zz_sides(
    p: Params, m: int, y_m: ParityPair, z_m: ParityPair, z_next: ParityPair
) -> Tuple[Amp, Amp]:
    """The two parity-filtered maxima of the z-step relation.

    Terms whose parity factor is S(-1) are dropped before the max; a side with
    nothing left is BOTTOM.  ``lhs == rhs`` reproduces the residual verdict.
    """
    sy = y_m.sign
    szz = z_m.sign * z_next.sign
    y, zz = y_m.amp, z_m.amp + z_next.amp
    mq = m * p.q
    b34 = p.b3 + p.b4
    lhs = _filtered_max(
        [
            (max(p.a1, p.a2) + mq + y + b34, sy == 1),
            (max(2 * y, p.a3 + p.a4) + zz, szz == 1),
            (max(p.a3, p.a4) + y + zz, -sy * szz == 1),
        ]
    )
    rhs = _filtered_max(
        [
            (max(2 * mq + p.a1 + p.a2, 2 * y) + b34, True),
            (max(p.a1, p.a2) + mq + y + b34, -sy == 1),
            (max(2 * y, p.a3 + p.a4) + zz, -szz == 1),
            (max(p.a3, p.a4) + y + zz, sy * szz == 1),
        ]
    )
    return lhs, rhs


def yy_sides(
    p: Params, m: int, y_m: ParityPair, y_next: ParityPair, z_next: ParityPair
) -> Tuple[Amp, Amp]:
    """The two parity-filtered maxima of the y-step relation."""
    sz = z_next.sign
    syy = y_m.sign * y_next.sign
    yy, z1 = y_m.amp + y_next.amp, z_next.amp
    mq = m * p.q
    a34 = p.a3 + p.a4
    lhs = _filtered_max(
        [
            (max(p.b1, p.b2) + mq + z1 + a34, sz == 1),
            (max(2 * z1, p.b3 + p.b4) + yy, syy == 1),
            (max(p.b3, p.b4) + yy + z1, -syy * sz == 1),
        ]
    )
    rhs = _filtered_max(
        [
            (max(2 * mq + p.b1 + p.b2, 2 * z1) + a34, True),
            (max(p.b1, p.b2) + mq + z1 + a34, -sz == 1),
            (max(2 * z1, p.b3 + p.b4) + yy, -syy == 1),
            (max(p.b3, p.b4) + yy + z1, syy * sz == 1),
        ]
    )
    return lhs, rhs


# --- premises and solver membership -------------------------------------------


def premise_quadruple(rng, tie: bool):
    """Random (v1..v4) with max(v1,v2) == max(v3,v4); BOTTOM entries and
    forced ties included."""

    def amp():
        if rng.random() < 0.15:
            return BOTTOM
        return Fraction(rng.randint(-60, 60), rng.randint(1, 4))

    v1, v2 = amp(), amp()
    top = t_max([v1, v2])
    if is_bottom(top):
        return v1, v2, BOTTOM, BOTTOM
    if tie:
        v3 = top
        v4 = top if rng.random() < 0.5 else amp()
        if not is_bottom(v4) and v4 > top:
            v4 = top
    else:
        v3 = amp()
        if is_bottom(v3) or v3 > top:
            v3 = top
        v4 = top if (is_bottom(v3) or v3 < top) else v3
    if rng.random() < 0.5:
        v3, v4 = v4, v3
    return v1, v2, v3, v4


def _member(sol, x) -> bool:
    if sol is None:
        return False
    lo, hi = sol
    return (lo is None or lo <= x) and (hi is None or x <= hi)


def solve_grid_check(lhs, rhs, sol) -> None:
    """Membership oracle for the one-unknown solver on (slope, intercept)
    sides: at every breakpoint, every midpoint between consecutive
    breakpoints and points beyond both ends, equality of the sides must
    decide membership of ``sol``, one interval (lo, hi) or None; a guard
    checks that reported ends come from the grid."""
    lines = sorted(set(lhs + rhs))
    pts = set()
    for i, (s, c) in enumerate(lines):
        for t, d in lines[i + 1 :]:
            if s != t:
                pts.add(Fraction(d - c, s - t))
    grid = sorted(pts)
    samples = list(grid)
    for a, b in zip(grid, grid[1:]):
        samples.append((a + b) / 2)
    if grid:
        samples += [grid[0] - 1, grid[0] - 17, grid[-1] + 1, grid[-1] + 23]
    else:
        samples += [Fraction(0), Fraction(5), Fraction(-7, 3)]

    def value(terms, x):
        return max(s * x + c for s, c in terms)

    for x in samples:
        pointwise = value(lhs, x) == value(rhs, x)
        assert pointwise == _member(sol, x), (lhs, rhs, x)
    if sol is not None:
        lo, hi = sol
        assert lo is None or hi is None or lo <= hi, sol
        for e in sol:
            assert e is None or e in pts or not pts


# --- seeded generators of states and first-order parameters -----------------------


def random_amplitude(rng: random.Random, lo: int = -150, hi: int = 150) -> Fraction:
    return Fraction(rng.randint(lo, hi))


def random_parity_pair(rng: random.Random, lo: int = -150, hi: int = 150) -> ParityPair:
    return ParityPair(rng.choice((1, -1)), random_amplitude(rng, lo, hi))


def random_state(
    rng: random.Random, m: int = 0, lo: int = -150, hi: int = 150
) -> Tuple[int, ParityPair, ParityPair]:
    """A start (m, y, z) for ``evolve``."""
    return m, random_parity_pair(rng, lo, hi), random_parity_pair(rng, lo, hi)


def random_riccati_params(
    rng: random.Random, lo: int = -100, hi: int = 100, q_range: Tuple[int, int] = (1, 150)
) -> Params:
    """Integer parameters satisfying both first-order reduction conditions
    (and therefore the evolution constraint, which is their sum)."""
    q = Fraction(rng.randint(*q_range))
    a = [random_amplitude(rng, lo, hi) for _ in range(4)]
    b3, b4 = (random_amplitude(rng, lo, hi) for _ in range(2))
    b1 = q + a[0] + b3 - a[2]
    b2 = a[1] + b4 - a[3]
    return Params.make(q, a, (b1, b2, b3, b4))


# --- the affine tail ansatz, index by index -----------------------------------------


def ansatz_inequalities_at(p: Params, ansatz: LinearAnsatz, m: int, primed: bool) -> bool:
    """The m-dependent inequalities of the unprimed (or primed) ansatz at one
    index, each max or min written out as two inequalities."""
    a, b, g = ansatz.alpha, ansatz.beta, ansatz.gamma
    am, rest = a * m, (p.q - a) * m
    if primed:
        return (
            am + a + g <= p.b3 and am + a + g <= p.b4 and am + b <= p.a3 and am + b <= p.a4
            and rest + p.b1 <= a + g and rest + p.b2 <= a + g
            and rest + p.a1 <= b and rest + p.a2 <= b
        )
    return (
        am + a + g >= p.b3 and am + a + g >= p.b4 and am + p.a1 >= b and am + p.a2 >= b
        and rest + b >= p.a3 and rest + b >= p.a4
        and rest + p.b1 >= a + g and rest + p.b2 >= a + g
    )


def check_linear_ansatz(p: Params, ansatz: LinearAnsatz, m: int, primed: bool = False) -> bool:
    """True iff the four m-dependent ansatz inequalities hold at m.

    The slope must lie in [0, Q] (False otherwise); a violated exact identity
    is a malformed ansatz and raises.
    """
    a, b, g = ansatz.alpha, ansatz.beta, ansatz.gamma
    if primed:
        identity = a + 2 * (g - b) == p.b3 + p.b4 - p.a3 - p.a4
    else:
        identity = 2 * (b + g) + a == p.b3 + p.b4 + p.a1 + p.a2
    if not identity:
        raise ValueError("ansatz identity does not hold for these parameters")
    if not (0 <= a <= p.q):
        return False
    return ansatz_inequalities_at(p, ansatz, m, primed)


def quantified_per_index(label: str, rng: range, pred: Callable[[int], bool]) -> Condition:
    """``udp6.families._quantified`` evaluated at every index of the range."""
    return Condition(f"{label} for m in [{rng.start}, {rng.stop - 1}]", all(pred(m) for m in rng))


# --- the first-order subsystem ------------------------------------------------------


def theorem_check(p: Params, table: SolutionTable) -> bool:
    """Verify on one table that solving the first-order subsystem implies
    solving the full system.  False only on a counterexample, which must
    never happen."""
    if riccati_failures(p, table):
        return True  # premise fails; implication is vacuous
    return not painleve_failures(p, table)


def _fraction_samples(interval, policy: str) -> list:
    # the sampling policies on rational ends, one unit being 1
    lo, hi = interval
    if lo is None and hi is None:
        return [Fraction(0)]
    if lo is None:
        ends, mid = [hi], hi - 1
    elif hi is None:
        ends, mid = [lo], lo + 1
    else:
        ends, mid = [lo, hi], Fraction(lo + hi, 2)
    picks = {"endpoints": ends, "midpoint": [mid], "all-breakpoints": ends + [mid]}
    return sorted(set(picks[policy]))


def riccati_evolve_fractions(
    p: Params, m0: int, y0: ParityPair, window: Tuple[int, int], sampling: str, cap: int
) -> Tuple[Tuple[SolutionTable, ...], bool]:
    """``riccati_evolve`` on the rational inputs as given: the library's steps
    run on Fractions, interval members are Fractions (the mean of two ends is
    ``Fraction(lo + hi, 2)``), and each child copies its parent's whole table.
    The same step order and cap: close z at m0, then (z, y) forward and
    (y, z) backward; after each step the first ``cap`` children survive.
    Returns the tables and whether a step dropped children."""
    lo, hi = window
    # (slot, index, step, step index, known slot) of each step
    plan = [("z", m0, riccati_close_z, m0, ("y", m0))]
    for m in range(m0, hi):
        plan.append(("z", m + 1, riccati_step_z, m, ("y", m)))
        plan.append(("y", m + 1, riccati_step_y, m, ("z", m + 1)))
    for m in range(m0, lo, -1):
        plan.append(("y", m - 1, riccati_step_back_y, m, ("z", m)))
        plan.append(("z", m - 1, riccati_close_z, m - 1, ("y", m - 1)))
    partials, truncated = [{("y", m0): ParityPair(y0.sign, Fraction(y0.amp))}], False
    for slot, at, step, m, known in plan:
        grown = [
            {**t, (slot, at): ParityPair(sign, x)}
            for t in partials
            for sign, interval in step(p, m, t[known])
            for x in _fraction_samples(interval, sampling)
        ]
        partials, truncated = grown[:cap], truncated or len(grown) > cap
    ms = range(lo, hi + 1)
    return tuple(
        SolutionTable(lo, tuple(t["y", k] for k in ms), tuple(t["z", k] for k in ms)) for t in partials
    ), truncated


def qriccati_step(p: Params, eps, m: int, y: LogSigned) -> Tuple[LogSigned, LogSigned]:
    """One step of the first-order q-map: y(t) -> (z(qt), y(qt)).

    z' = b4 (y - t a2)/(y - a4),  y' = a3 (z' - t b1)/(z' - b3).
    Requires the exact rational reduction conditions on the parameters.
    """
    require_riccati_conditions(p)
    eps = Fraction(eps)
    prec = y.prec
    a3, a4, b3, b4 = _fixed_images(p, eps, prec)
    a2t = ls_from_amplitude(1, m * p.q + p.a2, eps, prec)
    b1t = ls_from_amplitude(1, m * p.q + p.b1, eps, prec)

    z_next = ls_div(ls_mul(b4, ls_sub(y, a2t)), _nonzero(ls_sub(y, a4), "y - a4"))
    y_next = ls_div(
        ls_mul(a3, ls_sub(z_next, b1t)), _nonzero(ls_sub(z_next, b3), "z(qt) - b3")
    )
    return z_next, y_next
