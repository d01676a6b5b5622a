"""Independent test oracles and helpers shared by the module and acceptance
suites.

The library transcribes each parity relation once (the signed eight-term
z-relation, mirrored for y).  The four-case reductions and the
parity-filtered side lists below are the other two transcriptions, kept here
only to be compared against it; so are the tropical primitives with an
explicit minus infinity ``BOTTOM``, which the library does without (its sides
are never empty), and the grid oracle of the first-order solver.  The
library's one closed form for a step, ``solve_lines``, is held against two
former solvers: the four-case U/U'/V/V' split of the parity z-step and the
candidate scan of the first-order solver.  The affine
tail ansatz is checked here index by index, against the library's decision at
the ends of a range, and the affine tail detector reads a table index by
index, against the library's one walk along amplitude columns; the all-minus step is written with the builtin
``max``, against the library's comparisons spelled out; the all-minus evolution is stepped index by index
(with the backward steps read off the forward ones), against the library's
jumps across affine stretches.  The branching evolution is run one branch
at a time on Fractions, each child a copy of its parent's table, against the
library's shared frontier, and the shared frontier stepped at every index,
the engine before the jumps across certified affine stretches, against
those jumps.  Both residuals are checked at every index of a table, against
the library's one decision per affine run.  A table's CSV text is read
row by row through the csv module, the reader that the library's bulk read
of its own integer layout is held against.  The seeded generators of random
states and first-order parameters serve the property suites only, as do the check that
a first-order solution solves the full system, a Fraction-valued first-order
evolution to hold the library's integer route against, and the first-order
step of the q-system.  The q-system step is transcribed a second time in
signed log-domain arithmetic (every value sign * exp(logmag), like signs added
by log-sum-exp), the library's former representation, to hold its plain
signed floats against.  Those signed floats' operations are transcribed a
second time at mpmath's context level (``fadd`` and its kin with ``prec=``,
``workprec``), their former form, to hold the library's direct
``mpmath.libmp`` calls against bit for bit; the q-step composed of them, a
``SignedMag`` and a flag per operation, is the reference of the library's step
on raw signed values, bit for bit.  A power exp(num/den) is taken from exp(1/den)
by ``mpf_pow_int``, the former power, to hold the library's products of cached
exp(2^j/den) against.  The comparator's former row
error, eps*log|x| at full precision minus the amplitude (``amplitude_of``,
also transcribed at the context level, both on the former power), is the
reference of its error from the ratio to a cell's own image.  The comparator is run once per eps at
a precision the caller fixes, unchecked, the reference its agreement search is
held against; and its agreement search is run with every run computed in full
before two runs are compared, the reference of the library's search, which
decides row by row and stops a run at its first failing row.  Both take the
library's row error, so they are the reference of the search alone.
Tables hold four columns (signs and amplitudes of y and z); the suites build
them from columns of pairs and read them back as such here (``pair_table``,
``pair_columns``), and ``PairTable``, a table's value as a pair of pair
columns, is the reference its equality and hash are held against.
"""

import csv
import functools
import io
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Tuple, Union

import mpmath

from udp6.evolution import (
    BranchTree,
    _Run as _JumpRun,
    _ansatz_inequalities,
    ansatz_identity_holds,
    cell_positions,
    grow_tables,
    painleve_failures,
    step_back_y_parity,
    step_back_z_parity,
    step_y_noparity,
    step_y_parity,
    step_z_noparity,
    step_z_parity,
)
from udp6.families import AffineFit, Condition, LinearAnsatz, LinearityReport, _holds_on
from udp6.qoracle import (
    _ERROR_PREC,
    _START_PRECISION,
    CompareAbort,
    CompareReport,
    CompareRow,
    EpsSchedule,
    PoleError,
    SignedMag,
    _amp_bound,
    _cancels,
    _image,
    _images,
    _rational,
    _row_error,
    default_precision,
    ls_div,
    ls_from_amplitude,
    ls_mul,
    ls_neg,
    ls_sub,
    ls_zero,
    qp6_step,
)
from udp6.riccati import (
    require_riccati_conditions,
    riccati_close_z,
    riccati_failures,
    riccati_step_back_y,
    riccati_step_y,
    riccati_step_z,
)
from udp6.system import (
    ParityPair,
    Params,
    check_sign,
    params_to_obj,
    parse_amp,
    parse_int,
    require_constraint,
    require_unsigned,
    residual_yy,
    residual_zz,
)
from udp6.tables import SolutionTable


# --- tables from and to pair columns ------------------------------------------------


def pair_table(m_lo: int, ys, zs) -> SolutionTable:
    """The table whose y and z columns are the ParityPairs ``ys`` and ``zs``."""
    return SolutionTable(m_lo, *(tuple(cell[k] for cell in col) for col in (ys, zs) for k in (0, 1)))


def pair_columns(table: SolutionTable) -> Tuple[tuple, tuple]:
    """(ys, zs): the table's y and z columns as tuples of ParityPairs."""
    return tuple(map(ParityPair, table.sy, table.ay)), tuple(map(ParityPair, table.sz, table.az))


class PairTable(NamedTuple):
    """The reference of a table's value: ``m_lo`` and its y and z columns of
    ParityPairs, compared and hashed as a tuple, as tables were when they held
    pairs."""

    m_lo: int
    ys: tuple
    zs: tuple

    @classmethod
    def of(cls, table: SolutionTable) -> "PairTable":
        return cls(table.m_lo, *pair_columns(table))


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
        return x._replace(**{k: f(getattr(x, k)) for k in keys})
    if isinstance(x, ParityPair):
        return ParityPair(x.sign, f(x.amp))
    return SolutionTable(x.m_lo, x.sy, tuple(map(f, x.ay)), x.sz, tuple(map(f, x.az)))


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


def reflect(x):
    """R, the reflection m -> -m: of Params, Q' = -Q, A1' = B1-Q, A2' = B2-Q,
    A3' = B3, A4' = B4, and B' likewise from A (each sign follows its
    amplitude); of a SolutionTable over [lo, hi], the table over [-hi, -lo]
    whose y at -m is z at m and whose z at -m is y at m.  R is an involution,
    keeps the constraint and both first-order conditions, and maps each
    relation at index m to the same relation at index -m-1, read in the
    other order."""
    if isinstance(x, Params):
        q = x.q
        return Params.make(
            -q, (x.b1 - q, x.b2 - q, x.b3, x.b4), (x.a1 - q, x.a2 - q, x.a3, x.a4),
            (x.sb1, x.sb2, x.sb3, x.sb4), (x.sa1, x.sa2, x.sa3, x.sa4),
        )
    return SolutionTable(-x.m_hi, x.sz[::-1], x.az[::-1], x.sy[::-1], x.ay[::-1])


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


# --- the former step solvers ---------------------------------------------------------


def step_z_parity_by_cases(p: Params, m: int, y: ParityPair, z: ParityPair) -> list:
    """The parity z-step by the four-case split: with sign(y) = +1 compare
    U = max(2Y, A3+A4) with U' = max(A3,A4)+Y and V = max(2mQ+A1+A2, 2Y) with
    V' = max(A1,A2)+mQ+Y; non-strict comparisons make a tie activate several
    cases.  Candidates are validated by the residual, deduplicated and
    ordered +1-sign first, then by amplitude."""
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
    assert valid, "no valid candidate; existence is guaranteed"
    return sorted(set(valid), key=lambda c: (-c.sign, c.amp))


def solve_by_candidate_scan(lhs, rhs):
    """The solution set of ``max(lhs) == max(rhs)`` over (slope, intercept)
    terms of slope 0 or 1, neither side empty, by scanning the candidate ends
    (slope-0 intercept minus slope-1 intercept): empty when no candidate
    solves, a bounded end the first (last) solving candidate, and an end
    unbounded when the sides still agree past the first (last) candidate."""
    flat = [c for s, c in lhs + rhs if s == 0]
    steep = [d for s, d in lhs + rhs if s == 1]
    cands = sorted({c - d for c in flat for d in steep})

    def agrees(x) -> bool:
        return max(s * x + c for s, c in lhs) == max(s * x + c for s, c in rhs)

    if not cands:  # all lines parallel: the difference of the sides is constant
        return (None, None) if agrees(0) else None
    hits = [x for x in cands if agrees(x)]
    if not hits:
        return None
    lo = None if agrees(cands[0] - 1) else hits[0]
    hi = None if agrees(cands[-1] + 1) else hits[-1]
    return lo, hi


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


def _affine_on(vals: list) -> bool:
    return all(vals[i + 2] - 2 * vals[i + 1] + vals[i] == 0 for i in range(len(vals) - 2))


def end_fit_per_index(p: Params, table: SolutionTable, w: int, forward: bool) -> Optional[AffineFit]:
    """``udp6.families._end_fit`` read from a table index by index: the
    ``w + 1`` edge cells by ``table.y(m)`` and ``table.z(m)``, their second
    differences, and the tail extended inward one index at a time while both
    cells lie on the fitted lines."""
    lo, hi = table.m_lo, table.m_hi
    edge, inward = (hi, -1) if forward else (lo, 1)
    ms = range(edge, edge + inward * (w + 1), inward)
    ys = [table.y(m).amp for m in ms]
    zs = [table.z(m).amp for m in ms]
    if not (_affine_on(ys) and _affine_on(zs)):
        return None
    slope_y, slope_z = inward * (ys[1] - ys[0]), inward * (zs[1] - zs[0])
    beta, gamma = ys[0] - slope_y * edge, zs[0] - slope_z * edge
    m_edge = ms[-1]
    while lo <= m_edge + inward <= hi and (
        table.y(m_edge + inward).amp == slope_y * (m_edge + inward) + beta
        and table.z(m_edge + inward).amp == slope_z * (m_edge + inward) + gamma
    ):
        m_edge += inward
    alpha = slope_z if forward else slope_y
    fit = (alpha, beta, gamma)
    steps = range(m_edge, hi) if forward else range(m_edge - 1, lo - 1, -1)  # the tail's step indexes
    return AffineFit(
        m_edge=m_edge,
        slope_y=slope_y,
        slope_z=slope_z,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        slopes_ok=slope_y + slope_z == p.q if forward else slope_y == slope_z,
        range_ok=0 <= alpha <= p.q,
        identity_ok=ansatz_identity_holds(p, fit, primed=not forward),
        inequalities_ok=_holds_on(steps, lambda m: _ansatz_inequalities(p, fit, m, primed=not forward)),
    )


def detect_per_index(p: Params, table: SolutionTable, w: int) -> LinearityReport:
    """``udp6.families.detect_asymptotic_linearity`` on a table, each end by
    ``end_fit_per_index``, with the same two errors."""
    if w < 2:
        raise ValueError("window length w must be at least 2")
    if len(table) < 2 * w + 2:
        raise ValueError(f"table too short: need at least {2 * w + 2} points")
    return LinearityReport(end_fit_per_index(p, table, w, True), end_fit_per_index(p, table, w, False))


def step_z_noparity_by_max(p: Params, m: int, y_amp, z_amp):
    """The all-minus z-step as it was written with the builtin ``max``, the
    reference of the library's spelled-out comparisons."""
    y, z = y_amp, z_amp
    mq = m * p.q
    return (
        p.b3 + p.b4 + max(mq + p.a1, y) + max(mq + p.a2, y)
        - z - max(p.a3, y) - max(p.a4, y)
    )


def step_back_y_noparity(p: Params, m: int, y_amp, z_amp):
    """Previous y amplitude in the all-minus sector; the y-relation at m-1
    read for its earlier slot."""
    return step_y_noparity(p, m - 1, y_amp, z_amp)


def step_back_z_noparity(p: Params, m: int, y_prev_amp, z_amp):
    """Previous z amplitude in the all-minus sector; the z-relation at m-1
    read for its earlier slot."""
    return step_z_noparity(p, m - 1, y_prev_amp, z_amp)


def evolve_noparity_stepping(p: Params, m0: int, y0, z0, window: Tuple[int, int]) -> SolutionTable:
    """The all-minus evolution stepped at every index on the rational inputs,
    with no jump across affine stretches."""
    lo, hi = window
    ys, zs = {m0: Fraction(y0)}, {m0: Fraction(z0)}
    for m in range(m0, hi):
        zs[m + 1] = step_z_noparity(p, m, ys[m], zs[m])
        ys[m + 1] = step_y_noparity(p, m, ys[m], zs[m + 1])
    for m in range(m0, lo, -1):
        ys[m - 1] = step_back_y_noparity(p, m, ys[m], zs[m])
        zs[m - 1] = step_back_z_noparity(p, m, ys[m - 1], zs[m])
    ms = range(lo, hi + 1)
    return pair_table(lo, [ParityPair(-1, ys[m]) for m in ms], [ParityPair(-1, zs[m]) for m in ms])


def evolve_stepping(
    p: Params, m0: int, y0: ParityPair, z0: ParityPair, window: Tuple[int, int], max_branches: int = 64
) -> BranchTree:
    """``evolve`` with no jump: the shared frontier runs the steppers at every
    index, (z, y) forward, then the backward steppers in the backward halves,
    whose rows hold (z, y) of index m0-k as (y, z) of -m0+k, with the same cap."""
    lo, hi = window

    def forward(i):
        m = m0 + i
        return cell_positions(i), lambda yz: (
            [z1, y1]
            for z1 in step_z_parity(p, m, *yz)
            for y1 in step_y_parity(p, m, yz[0], z1)
        )

    def backward(i):
        m = m0 - i
        return cell_positions(i), lambda zy: (
            [yp, zp]
            for yp in step_back_y_parity(p, m, zy[1], zy[0])
            for zp in step_back_z_parity(p, m, yp, zy[0])
        )

    return grow_tables([y0, z0], (forward, None), (backward, None), max_branches, m0, window)


def grow_tables_per_step(
    root: list, forward: tuple, backward: tuple, cap: int, m0: int, window: Tuple[int, int]
) -> BranchTree:
    """``grow_tables`` as one frontier stepped at every step, forward and then
    backward: a partial table is the forward half's cells, then the backward
    half's, which start with its start row, y and z exchanged.  The backward
    steps run once per forward leaf, the cap applies across all partial
    tables after each step, and a half's jump is offered whenever one partial
    table is live and the last step was not a jump.  Each leaf's runs are
    written out as cells, and each half's y and z cells read by position; the
    backward half's rows, reversed and without the start row, are the rows
    below m0 with y and z exchanged."""
    lo, hi = window
    f = 2 * (hi - m0 + 1)
    partials, truncated, jumped, runs = [list(root)], False, False, []
    for (step, jump), base, end in ((forward, 0, f), (backward, f, f + 2 * (m0 - lo + 1))):
        if base:
            for t in partials:
                t += t[1], t[0]
        i = 0
        while partials and len(partials[0]) < end:
            if not jumped and jump is not None and len(partials) == 1:
                k, cells = jump(i, partials[0][base:])
                if k:
                    if type(cells[0]) is _JumpRun:
                        runs.append((len(partials[0]), cells[0]))
                    partials[0] += cells
                    i, jumped = i + k, True
                    continue
            jumped = False
            reads, expand = step(i)
            i += 1
            state_of = operator.itemgetter(*(base + r for r in reads))
            children, grown = {}, []
            for t in partials:
                state = state_of(t)
                kids = children.get(state)
                if kids is None:
                    kids = children[state] = list(expand(state))
                if not kids:
                    continue
                if len(kids) > 1:
                    grown += [t + c for c in kids[:-1]]
                t += kids[-1]
                grown.append(t)
                if len(grown) > cap:
                    break
            partials, truncated = grown[:cap], truncated or len(grown) > cap
    tables = []
    for t in partials:
        for at, run in runs:  # written to the one live table: every leaf holds it at ``at``
            for k, (sign, slope, amp) in enumerate(run[1:]):
                t[at + k:at + k + 2 * run.rows:2] = [
                    ParityPair(sign, a) for a in itertools.islice(itertools.count(amp, slope), run.rows)]
        ahead, behind = t[:f], t[f:]
        ys = behind[2::2][::-1] + ahead[:1] + ahead[3::2]
        zs = behind[3::2][::-1] + ahead[1:2] + ahead[2::2]
        tables.append(pair_table(lo, ys, zs))
    return BranchTree(tuple(tables), truncated)


def evolve_per_branch(
    p: Params, m0: int, y0: ParityPair, z0: ParityPair, window: Tuple[int, int], cap: int
) -> Tuple[Tuple[SolutionTable, ...], bool]:
    """``evolve`` on the rational inputs as given, one branch at a time: the
    library's steppers run on Fractions for every partial table, with no
    sharing between tables in the same state, and each child copies its
    parent's whole table.  The same step order and cap: (z, y) forward, then
    (y, z) backward; after each step the first ``cap`` children survive.
    Returns the tables and whether a step dropped children."""
    lo, hi = window
    partials, truncated = [{("y", m0): ParityPair(y0.sign, Fraction(y0.amp)),
                            ("z", m0): ParityPair(z0.sign, Fraction(z0.amp))}], False
    for m in range(m0, hi):
        grown = [
            {**t, ("z", m + 1): z1, ("y", m + 1): y1}
            for t in partials
            for z1 in step_z_parity(p, m, t["y", m], t["z", m])
            for y1 in step_y_parity(p, m, t["y", m], z1)
        ]
        partials, truncated = grown[:cap], truncated or len(grown) > cap
    for m in range(m0, lo, -1):
        grown = [
            {**t, ("y", m - 1): yp, ("z", m - 1): zp}
            for t in partials
            for yp in step_back_y_parity(p, m, t["y", m], t["z", m])
            for zp in step_back_z_parity(p, m, yp, t["z", m])
        ]
        partials, truncated = grown[:cap], truncated or len(grown) > cap
    ms = range(lo, hi + 1)
    return tuple(
        pair_table(lo, [t["y", k] for k in ms], [t["z", k] for k in ms]) for t in partials
    ), truncated


def painleve_failures_per_index(p: Params, table: SolutionTable) -> list:
    """``painleve_failures`` with no run split: both residuals at every index
    of the table, on its cells, in the library's order."""
    require_constraint(p)
    ys, zs = pair_columns(table)
    bad = []
    for i, m in enumerate(range(table.m_lo, table.m_hi)):
        if not residual_zz(p, m, ys[i], zs[i], zs[i + 1]):
            bad.append((m, "zz"))
        if not residual_yy(p, m, ys[i], ys[i + 1], zs[i + 1]):
            bad.append((m, "yy"))
    return bad


def table_from_csv_rows(text: str) -> SolutionTable:
    """``SolutionTable.from_csv_text`` by the csv module, row by row, with
    its messages: each row's cells are read in column order, and the rows
    are sorted and checked for a contiguous window once all are read."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None
    if not rows or rows[0] != ["m", "sy", "Y", "sz", "Z"]:
        raise ValueError("expected header m,sy,Y,sz,Z")
    cells = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"malformed row: {row!r}")
        m, sy, y, sz, z = row
        m = parse_int(m, "m")
        y = ParityPair(check_sign(parse_int(sy, "sy")), parse_amp(y, "Y"))
        cells.append((m, y, ParityPair(check_sign(parse_int(sz, "sz")), parse_amp(z, "Z"))))
    if not cells:
        raise ValueError("table has no rows")
    cells.sort(key=lambda cell: cell[0])
    m_lo = cells[0][0]
    if [cell[0] for cell in cells] != list(range(m_lo, m_lo + len(cells))):
        raise ValueError("table window must be contiguous")
    return pair_table(m_lo, [cell[1] for cell in cells], [cell[2] for cell in cells])


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
        pair_table(lo, [t["y", k] for k in ms], [t["z", k] for k in ms]) for t in partials
    ), truncated


def signed_images(p: Params, eps, prec: int) -> Tuple[SignedMag, ...]:
    """The library's cached parameter images as SignedMags: exp(A/eps) for A = a3,
    a4, b3, b4, a1, a2, b1, b2."""
    a3, a4, b3, b4, factors, _, _ = _images(p, eps, prec)
    return tuple(SignedMag(1, mpmath.mp.make_mpf(v), prec) for v in (a3, a4, b3, b4, *factors))


def _nonzero(x: SignedMag, what: str) -> SignedMag:
    if x.sign == 0:
        raise PoleError(f"pole: {what} vanished")
    return x


def qriccati_step(p: Params, eps, m: int, y: SignedMag) -> Tuple[SignedMag, SignedMag]:
    """One step of the first-order q-map: y(t) -> (z(qt), y(qt)).

    z' = b4 (y - t a2)/(y - a4),  y' = a3 (z' - t b1)/(z' - b3).
    Requires the exact rational reduction conditions on the parameters.
    """
    require_riccati_conditions(p)
    eps = Fraction(eps)
    prec = y.prec
    a3, a4, b3, b4, *_ = signed_images(p, eps, prec)
    a2t = ls_from_amplitude(1, m * p.q + p.a2, eps, prec)
    b1t = ls_from_amplitude(1, m * p.q + p.b1, eps, prec)

    z_next = ls_div(ls_mul(b4, ls_sub(y, a2t)), _nonzero(ls_sub(y, a4), "y - a4"))
    y_next = ls_div(
        ls_mul(a3, ls_sub(z_next, b1t)), _nonzero(ls_sub(z_next, b3), "z(qt) - b3")
    )
    return z_next, y_next


# --- the former powers and q-step: mpf_pow_int, and SignedMag operations composed ------


@functools.lru_cache(maxsize=32)
def _exp_inverse(den: int, prec: int) -> mpmath.mpf:
    """exp(1/den) at ``prec`` bits: the base of the powers of denominator den."""
    return mpmath.exp(mpmath.fdiv(1, den, prec=prec), prec=prec)


def exp_power_by_squaring(num: int, den: int, prec: int) -> tuple:
    """exp(num/den) = exp(1/den)^num as a raw mpf by ``mpf_pow_int``, the library's former
    power.  The power grows the base's relative error by bitlen(num) bits, so the base has
    bitlen(num) + 8 guard bits, rounded up to 64s; good to 2^-(prec-2) relative."""
    base = _exp_inverse(den, prec + (num.bit_length() + 71) // 64 * 64)
    return mpmath.libmp.mpf_pow_int(base._mpf_, num, prec, "n")


def _half_step_by_signed_ops(u, v, c1t, c2t, c3, c4, d3, d4, names) -> SignedMag:
    """``qp6_step``'s half-step with a SignedMag per operation, the operations those of
    mpmath's context level below; each operation carries its own warning flag."""
    num = mpf_ls_mul(mpf_ls_mul(d3, d4), mpf_ls_mul(mpf_ls_sub(u, c1t), mpf_ls_sub(u, c2t)))
    den = mpf_ls_mul(
        _nonzero(v, names[0]),
        mpf_ls_mul(_nonzero(mpf_ls_sub(u, c3), names[1]), _nonzero(mpf_ls_sub(u, c4), names[2])),
    )
    return mpf_ls_div(num, den)


def qp6_step_by_signed_ops(p: Params, eps, m: int, y: SignedMag, z: SignedMag) -> Tuple[SignedMag, SignedMag]:
    """``qp6_step`` composed of SignedMag operations, its former form: the reference of
    the library's step on raw signed values, bit for bit, flags and pole messages included."""
    prec = min(y.prec, z.prec)
    a3, a4, b3, b4, *factors = signed_images(p, eps, prec)
    t = ls_from_amplitude(1, m * p.q, eps, prec)
    a1t, a2t, b1t, b2t = (mpf_ls_mul(t, c) for c in factors)
    z_next = _half_step_by_signed_ops(y, z, a1t, a2t, a3, a4, b3, b4, ("z(t)", "y - a3", "y - a4"))
    y_next = _half_step_by_signed_ops(z_next, y, b1t, b2t, b3, b4, a3, a4, ("y(t)", "z(qt) - b3", "z(qt) - b4"))
    return y_next, z_next


# --- the comparator's former row error: eps*log|x| at full precision, minus the amplitude


def amplitude_of(x: SignedMag, eps) -> mpmath.mpf:
    """eps * log|x|, the quantity that ultradiscretizes to the amplitude."""
    return mpmath.mp.make_mpf(mpmath.libmp.mpf_mul(_rational(Fraction(eps), x.prec), _log_abs(x), x.prec, "n"))


def _log_abs(x: SignedMag) -> tuple:
    """log|x| as a raw mpf: k + log r, r = |x|/e^k for the int k nearest log|x|.  r nears
    1 as errors shrink; log r to 2^-(prec+8) absolute, finer than r's rounding, keeps its
    cost and mpmath's log-argument cache small.  Past |e| = 2^40, the binary exponent e
    of |x|, a float e * ln 2 would miss log|x| by far more than 1, so it is taken to
    e.bit_length() + 64 bits there."""
    if x.sign == 0:
        raise ValueError("amplitude of exact zero is undefined")
    lib, prec = mpmath.libmp, x.prec
    m, e = lib.mpf_frexp(x.mag._mpf_)
    log_m = math.log(lib.to_float(m, rnd="n"))
    if abs(e) < 1 << 40:
        k = round(log_m + e * math.log(2))
    else:
        with mpmath.workprec(e.bit_length() + 64):
            k = int(mpmath.nint(log_m + e * mpmath.ln2))
    r = lib.mpf_div(x.mag._mpf_, exp_power_by_squaring(k, 1, prec), prec, "n")
    _, man, exp, bc = lib.mpf_sub(r, lib.fone, prec, "n")
    log_r = lib.mpf_log(r, prec + 8 + (exp + bc if man else 0), "n")
    return lib.mpf_add(log_r, lib.from_int(k), prec, "n")


def amplitude_error(x: SignedMag, amp, eps: Fraction) -> float:
    """|eps*log|x| - amp| rounded at x's precision, the comparator's former row
    error: the reference of ``_row_error``, which takes the log of |x| over its
    cell's own image at 128 bits."""
    lib = mpmath.libmp
    diff = lib.mpf_sub(amplitude_of(x, eps)._mpf_, _rational(Fraction(amp), x.prec), x.prec, "n")
    return lib.to_float(lib.mpf_abs(diff), rnd="n")


# --- the comparator by full runs -----------------------------------------------------


def image_row_error(x: SignedMag, amp, eps: Fraction) -> float:
    """The library's row error with the cell's image X = exp(amp/eps) built by its own
    power, ``_image``, one per row, in place of the run's running product."""
    return _row_error(x, _image(amp, eps, x.prec), _rational(eps, _ERROR_PREC))


# rows and aborts of one eps at one working precision
_Run = Tuple[Tuple[CompareRow, ...], Tuple[CompareAbort, ...]]


def _compare_run(
    p: Params, table: SolutionTable, eps: Fraction, window: Tuple[int, int], prec: int,
    error: Callable[[SignedMag, Fraction, Fraction], float] = image_row_error,
) -> _Run:
    """Rows and aborts of one eps at one working precision, every row computed
    before the run returns; a row's errors are ``error(value, amplitude, eps)``,
    the library's row error on a per-row image unless a caller passes another.
    Each image, seeds included, is one power and each step takes its own t, so
    these runs are a reference of the library's running products."""
    lo, hi = window
    y = ls_from_amplitude(table.y(lo).sign, table.y(lo).amp, eps, prec)
    z = ls_from_amplitude(table.z(lo).sign, table.z(lo).amp, eps, prec)

    def row(m: int, y: SignedMag, z: SignedMag) -> CompareRow:
        return CompareRow(
            m=m,
            eps=eps,
            err_y=error(y, table.y(m).amp, eps),
            err_z=error(z, table.z(m).amp, eps),
            sign_ok_y=y.sign == table.y(m).sign,
            sign_ok_z=z.sign == table.z(m).sign,
            warned=y.warn or z.warn,
        )

    rows = [row(lo, y, z)]
    for m in range(lo, hi):
        try:
            y, z = qp6_step(p, eps, m, y, z)
        except PoleError as exc:
            return tuple(rows), (CompareAbort(eps=eps, m=m, reason=str(exc)),)
        if y.sign == 0 or z.sign == 0:
            return tuple(rows), (CompareAbort(eps=eps, m=m, reason="exact cancellation to zero"),)
        rows.append(row(m + 1, y, z))
    return tuple(rows), ()


def _settled_runs(run: _Run, last: _Run, prec: int, scale: float) -> bool:
    """The library's ``_settled`` on two full runs, its conditions tested on
    whole runs: equal rows and aborts, no abort, no cancellation warning, and
    every error past the seed row at least 2^(-prec/2) * scale."""
    rows, aborts = run
    if aborts or run != last or any(r.warned for r in rows):
        return False
    resolution = math.ldexp(scale, -(prec // 2))
    return all(min(r.err_y, r.err_z) >= resolution for r in rows[1:])


def _report(p, table, schedule, window, runs, precisions) -> CompareReport:
    return CompareReport(
        rows=tuple(r for rows, _ in runs for r in rows),
        aborts=tuple(a for _, aborts in runs for a in aborts),
        schedule=schedule,
        window=window,
        table_failures=tuple(painleve_failures_per_index(p, table)),
        precisions=tuple(precisions),
    )


def compare_by_full_runs(
    p: Params, table: SolutionTable, schedule: EpsSchedule, window: Tuple[int, int]
) -> CompareReport:
    """``ud_limit_compare``'s agreement search with every run computed in
    full before two runs are compared: 256 bits, doubled up to the ceiling
    ``default_precision``, until a run confirms the one at half its
    precision.  The table's failures come from the per-index check."""
    bound = _amp_bound(p, table, window)
    scale = max(1.0, float(bound))
    runs, precisions = [], []
    for eps in schedule.eps_values:
        ceiling = default_precision(eps, bound)
        prec = _START_PRECISION
        run = _compare_run(p, table, eps, window, prec)
        while prec < ceiling:
            prec = min(2 * prec, ceiling)
            last, run = run, _compare_run(p, table, eps, window, prec)
            if _settled_runs(run, last, prec, scale):
                break
        runs.append(run)
        precisions.append((eps, prec))
    return _report(p, table, schedule, window, runs, precisions)


def compare_at_fixed_precision(
    p: Params, table: SolutionTable, schedule: EpsSchedule, window: Tuple[int, int],
    bits: Callable[[Fraction], int],
) -> CompareReport:
    """``ud_limit_compare`` without its agreement search: each eps runs once at
    ``bits(eps)`` bits, and that run is accepted unchecked.  The table's
    failures come from the per-index check."""
    runs = [_compare_run(p, table, eps, window, bits(eps)) for eps in schedule.eps_values]
    return _report(p, table, schedule, window, runs, ((eps, bits(eps)) for eps in schedule.eps_values))


# --- the q-system in signed log-domain arithmetic --------------------------------


@dataclass(frozen=True)
class LogSigned:
    """sign * exp(logmag) with explicit zero and a sticky cancellation flag."""

    sign: int  # +1, -1, or 0 (exact zero; logmag is then meaningless)
    logmag: object  # an mpmath float
    prec: int
    warn: bool = False


def log_zero(prec: int, warn: bool = False) -> LogSigned:
    return LogSigned(0, mpmath.mpf(0), prec, warn)


def _log_fraction(x: Fraction, prec: int):
    with mpmath.workprec(prec):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def log_from_amplitude(sign: int, amp, eps, prec: int) -> LogSigned:
    """sign * exp(amp/eps), as the log-magnitude amp/eps rounded to prec bits."""
    return LogSigned(sign, _log_fraction(Fraction(amp) / Fraction(eps), prec), prec)


def log_amplitude_of(x: LogSigned, eps):
    """eps * logmag."""
    with mpmath.workprec(x.prec):
        return _log_fraction(Fraction(eps), x.prec) * x.logmag


def log_neg(x: LogSigned) -> LogSigned:
    return LogSigned(-x.sign, x.logmag, x.prec, x.warn)


def log_add(x: LogSigned, y: LogSigned) -> LogSigned:
    """Log-sum-exp for like signs; for opposite signs the magnitudes subtract and
    the flag is raised when the log gap is below 2^(-prec//2) * max(1, |logmag|)."""
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0:
        return LogSigned(y.sign, y.logmag, prec, warn)
    if y.sign == 0:
        return LogSigned(x.sign, x.logmag, prec, warn)
    with mpmath.workprec(prec):
        hi, lo = (x, y) if x.logmag >= y.logmag else (y, x)
        if hi.sign == lo.sign:
            mag = hi.logmag + mpmath.log1p(mpmath.exp(lo.logmag - hi.logmag))
            return LogSigned(hi.sign, mag, prec, warn)
        if hi.logmag == lo.logmag:
            return log_zero(prec, warn=True)
        gap = hi.logmag - lo.logmag
        close = gap < mpmath.mpf(2) ** (-(prec // 2)) * max(1, abs(hi.logmag))
        mag = hi.logmag + mpmath.log1p(-mpmath.exp(lo.logmag - hi.logmag))
        return LogSigned(hi.sign, mag, prec, warn or bool(close))


def log_sub(x: LogSigned, y: LogSigned) -> LogSigned:
    return log_add(x, log_neg(y))


def log_mul(x: LogSigned, y: LogSigned) -> LogSigned:
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0 or y.sign == 0:
        return log_zero(prec, warn)
    with mpmath.workprec(prec):
        return LogSigned(x.sign * y.sign, x.logmag + y.logmag, prec, warn)


def log_div(x: LogSigned, y: LogSigned) -> LogSigned:
    if y.sign == 0:
        raise PoleError("division by zero value")
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0:
        return log_zero(prec, warn)
    with mpmath.workprec(prec):
        return LogSigned(x.sign * y.sign, x.logmag - y.logmag, prec, warn)


def _log_nonzero(x: LogSigned, what: str) -> LogSigned:
    if x.sign == 0:
        raise PoleError(f"pole: {what} vanished")
    return x


def log_qp6_step(p: Params, eps, m: int, y: LogSigned, z: LogSigned) -> Tuple[LogSigned, LogSigned]:
    """The library's ``qp6_step`` in log-domain arithmetic, checking the
    parameters on every call."""
    require_unsigned(p)
    eps = Fraction(eps)
    prec = min(y.prec, z.prec)
    a3, a4, b3, b4 = (log_from_amplitude(1, a, eps, prec) for a in (p.a3, p.a4, p.b3, p.b4))
    a1t, a2t, b1t, b2t = (
        log_from_amplitude(1, m * p.q + a, eps, prec) for a in (p.a1, p.a2, p.b1, p.b2)
    )
    num = log_mul(log_mul(b3, b4), log_mul(log_sub(y, a1t), log_sub(y, a2t)))
    den = log_mul(
        _log_nonzero(z, "z(t)"),
        log_mul(_log_nonzero(log_sub(y, a3), "y - a3"), _log_nonzero(log_sub(y, a4), "y - a4")),
    )
    z_next = log_div(num, den)
    num2 = log_mul(log_mul(a3, a4), log_mul(log_sub(z_next, b1t), log_sub(z_next, b2t)))
    den2 = log_mul(
        _log_nonzero(y, "y(t)"),
        log_mul(
            _log_nonzero(log_sub(z_next, b3), "z(qt) - b3"),
            _log_nonzero(log_sub(z_next, b4), "z(qt) - b4"),
        ),
    )
    return log_div(num2, den2), z_next


# --- the signed floats' operations at mpmath's context level ----------------------


def mpf_ls_add(x: SignedMag, y: SignedMag) -> SignedMag:
    """``ls_add`` through ``mpmath.fadd``/``fsub`` at ``prec`` and mpf comparisons."""
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0 or y.sign == 0:
        nonzero = y if x.sign == 0 else x
        return SignedMag(nonzero.sign, mpmath.fadd(nonzero.mag, 0, prec=prec), prec, warn)
    if x.sign == y.sign:
        return SignedMag(x.sign, mpmath.fadd(x.mag, y.mag, prec=prec), prec, warn)
    hi, lo = (x, y) if x.mag >= y.mag else (y, x)
    if hi.mag == lo.mag:
        return ls_zero(prec, warn=True)
    diff = mpmath.fsub(hi.mag, lo.mag, prec=prec)
    return SignedMag(hi.sign, diff, prec, warn or _cancels(hi.mag._mpf_, lo.mag._mpf_, diff._mpf_, prec))


def mpf_ls_sub(x: SignedMag, y: SignedMag) -> SignedMag:
    return mpf_ls_add(x, ls_neg(y))


def mpf_ls_mul(x: SignedMag, y: SignedMag) -> SignedMag:
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0 or y.sign == 0:
        return ls_zero(prec, warn)
    return SignedMag(x.sign * y.sign, mpmath.fmul(x.mag, y.mag, prec=prec), prec, warn)


def mpf_ls_div(x: SignedMag, y: SignedMag) -> SignedMag:
    if y.sign == 0:
        raise PoleError("division by zero value")
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0:
        return ls_zero(prec, warn)
    return SignedMag(x.sign * y.sign, mpmath.fdiv(x.mag, y.mag, prec=prec), prec, warn)


def mpf_amplitude_of(x: SignedMag, eps):
    """``amplitude_of`` through mpf operators under ``workprec`` and ``mpmath.ln``."""
    if x.sign == 0:
        raise ValueError("amplitude of exact zero is undefined")
    m, e = mpmath.frexp(x.mag)
    if abs(e) < 1 << 40:
        k = round(math.log(m) + e * math.log(2))
    else:
        with mpmath.workprec(e.bit_length() + 64):
            k = int(mpmath.nint(math.log(m) + e * mpmath.ln2))
    eps = Fraction(eps)
    with mpmath.workprec(x.prec):
        r = x.mag / _exp_inverse(1, x.prec + (k.bit_length() + 71) // 64 * 64) ** k
        near = mpmath.mag(r - 1) if r != 1 else 0
        eps_mpf = mpmath.fdiv(eps.numerator, eps.denominator, prec=x.prec)
        return eps_mpf * (k + mpmath.ln(r, prec=x.prec + 8 + near))
