"""Independent test oracles and helpers shared by the module and acceptance
suites.

The library transcribes each parity relation once (the signed eight-term
z-relation, mirrored for y).  The four-case reductions and the
parity-filtered side lists below are the other two transcriptions, kept here
only to be compared against it; so are the tropical primitives with an
explicit minus infinity.
"""

import json
from fractions import Fraction
from typing import Iterable, Tuple

from udp6.system import ParityPair, Params, params_to_obj
from udp6.tropical import BOTTOM, Amp, Sign, check_sign, is_bottom


def dump_params(p: Params, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(params_to_obj(p), fh, sort_keys=True, indent=2)
        fh.write("\n")


# --- max-plus primitives with an explicit minus infinity ------------------------


def parity_indicator(sign: Sign) -> Amp:
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


def solve_grid_check(lhs, rhs, sol) -> None:
    """Membership oracle for the one-unknown solver: pointwise equality on the
    breakpoint grid, the midpoints between consecutive breakpoints, points
    beyond both ends, and a guard that reported endpoints come from the grid."""
    active_l = [t for t in lhs if not is_bottom(t.intercept)]
    active_r = [t for t in rhs if not is_bottom(t.intercept)]
    lines = sorted({(t.slope, t.intercept) for t in active_l + active_r})
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
        return max(t.slope * x + t.intercept for t in terms)

    for x in samples:
        pointwise = value(active_l, x) == value(active_r, x)
        assert pointwise == sol.contains(x), (lhs, rhs, x)
    for iv in sol.intervals:
        for e in (iv.lo, iv.hi):
            assert e is None or e in pts or not pts
