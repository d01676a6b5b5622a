"""Initial-value evolution of the parity system through corner solutions.

A solution of the initial value problem always exists but is not always
unique.  With the signs fixed, a step relation is ``max(c, x + b) = max(c',
x + b')`` in the next amplitude, so for each sign of the next cell the
solution set is one interval (``udp6.system.solve_lines``): a point, a ray or
the whole line, more than a point only when the y amplitude hits one of {A3,
A4, A1+mQ, A2+mQ} (or the z amplitude one of the B analogues).  The steppers
return its finite end, the corner solution, validated against the exact
residual, and ``evolve`` follows the corners (see there for the ties).

In the sign(y) = +1 sector the four numbers are ``U = max(2Y, A3+A4)``,
``U' = max(A3,A4)+Y``, ``V = max(2mQ+A1+A2, 2Y)`` and ``V' =
max(A1,A2)+mQ+Y``, with B3+B4-Z folded into V and V'.  The relation is
``max(V', x + U) = max(V, x + U')`` for the next z amplitude x with the sign
of z, and the same with U and U' exchanged for the other sign.  The
sign(y) = -1 sector is deterministic: the z parity propagates and the
amplitude is solved in closed form.

Only the z-steppers are written out.  A y-stepper is the z-stepper on the
mirrored parameters (A and B exchanged) with y and z exchanged, as the
y-relation is the mirrored z-relation.  Nothing steps backward: each
relation is symmetric in its two same-letter values, so at index m it is the
same relation of the reflected parameters R(p) (``Params.reflected``) at
-m-1 with y and z exchanged, and the evolution below m0 is R(p)'s above -m0,
its rows reversed and its columns exchanged.

Steppers check nothing.  ``evolve``, ``noparity_amplitudes`` and
``painleve_failures`` validate the parameters once on entry and run the
kernel and the steppers on the amplitudes as they entered, ints or
Fractions, never floats (see ``udp6.system``): integer inputs give integer
tables.  Branches share the cells of the steps they have in common.

Branches split at a tie and often meet again at the same state.  A step's
children are a function of the cells it reads alone (``evolve``'s steps read
(y_m, z_m), ``riccati_evolve``'s the one known cell), so ``grow_tables``
expands each distinct state read once per step.  The steps write their
cells in one order, so one position rule places each cell in every partial
table (``grow_tables``).

Both relations at index m read the rows m and m+1 alone, so a solution is a
forward half and a backward half that share the start row.  ``grow_tables``
grows the forward half on p, then one backward half per start row of its
leaves (``evolve``'s start pair, one for all leaves; ``riccati_evolve``'s y0
and z_m0, one per value of z_m0) as a forward half on R(p) from -m0, and
pairs each forward leaf with the backward leaves of its start row,
forward-major, up to the cap.  No state of either evolution is without
children, so these are the first ``cap`` paths of one frontier stepped
forward and then backward, with its truncation flag, while each backward
step runs once per start row, not per forward leaf.

Solutions are piecewise affine in m, and ``evolve`` jumps the affine
stretches in every sector by a certificate the steppers compute themselves.
Every concrete step, for one branch or many, is a step of ``grow_tables``'
frontier.  While it holds one partial table (in a backward half, while the
forward half also ended with one) and its last step was not a jump, where the
table's last five rows lie on lines with constant signs in both columns,
``evolve`` runs its step once more with m and the two amplitudes as
``udp6.system.Aff`` values s*t + c in the step count t.  Every comparison
returns its outcome at t = 0 and lowers a shared horizon to the last t at which
that outcome still holds, so up to the horizon the steppers take the same path
at every t and return the affine result.  If the step gives one child, the
fits' next cells with the same signs, then the fit is the evolution for
horizon + 1 steps, which are filled from it: the rows before the last five
as one run of the fit, which only a leaf's columns expand, once for all
leaves.  The candidates' validation ran on the same values: ``step_z_parity``
decides ``residual_zz`` (and, mirrored, the y-relation) on the fit at every t
up to the horizon, exactly, so each filled cell passes the residual a stepped
one passes.

``painleve_failures`` decides the relations over the same stretches.  Both
relations at index m read the rows m and m+1 alone, so it keys each pair of
neighbouring rows by their four signs and their two steps, read off the
table's columns, and splits the pairs into maximal runs of equal keys, which
partition the relations.  Along a run the cells are affine in t = m - m_k from
its first index m_k, with the signs of its key: constant along two or more
pairs, each row's own in a run of one pair.  So the residuals run once on m and
the cells as ``Aff`` values, and, as in a jump, their True or False holds at
every index from m_k to m_k plus the horizon.  The run goes on after it; as
the terms are affine, their order changes, and the run splits, only where two
of them cross.

The all-minus sector has affine stretches ``Y = (Q-a)m + b, Z = a m + g``
forward, ``Y = a m + b, Z = a m + g`` backward.  Where a fit (a, b, g) meets
its identity and its four inequalities at a step index, each max of the step
takes its affine branch, which the identity makes the fit's next point.  The
inequalities have slopes a, a, Q-a, Q-a in m (in -m backward): with
0 <= a <= Q they hold at every later index once they hold at one; otherwise
``affine_horizon`` finds the last.  ``noparity_amplitudes`` walks both ways in
one loop and fills stretches from the fit, exactly, since the all-minus step is
unique; it returns the two amplitude columns, which ``evolve_noparity`` makes a
table of all-minus pairs.
"""

from __future__ import annotations

from itertools import count, groupby, islice, repeat
from operator import add, itemgetter, sub
from typing import List, NamedTuple, Optional, Tuple

from .system import (
    Aff,
    Horizon,
    ParityPair,
    Params,
    require_constraint,
    require_unsigned,
    residual_yy,
    residual_zz,
    solve_lines,
)
from .tables import SolutionTable

__all__ = [
    "BranchTree",
    "affine_horizon",
    "evolve",
    "evolve_noparity",
    "noparity_amplitudes",
    "painleve_failures",
    "step_back_y_parity",
    "step_back_z_parity",
    "step_y_noparity",
    "step_y_parity",
    "step_z_noparity",
    "step_z_parity",
]


class BranchTree(NamedTuple):
    """The corner solutions through one initial state: one table per path
    through the finite ends of the steps' solution intervals.

    ``truncated`` is set when the branch cap dropped paths; the surviving
    tables are still complete and valid.
    """

    tables: Tuple[SolutionTable, ...]
    truncated: bool


def cell_positions(k: int) -> Tuple[int, int]:
    """The positions of y and z at row k of a half in ``grow_tables``."""
    return (2 * k + 1, 2 * k) if k else (0, 1)


def grow_tables(root: list, forward: tuple, backward: tuple, cap: int, m0: int, window: tuple) -> BranchTree:
    """The branching frontier shared by ``evolve`` and ``riccati_evolve``.

    Each half, ``forward`` from m0 and ``backward`` from -m0 on R(p) (see the
    module docstring), is a ``(step, jump)`` pair.  A partial table of a half
    is a flat list of cells, each at one position in all of them: y and z of
    the start row at 0 and 1, z and y of row k > 0 at 2k and 2k+1
    (``cell_positions``).  ``root`` holds the first one or two forward cells.
    Step i is ``step(i)``, ``(reads, expand)``: the positions it reads, and a
    map from the state read to its children, each a list of the cells it
    appends in that order.  The children must be a function of the state
    alone: each distinct state is expanded once per step and half, so equal
    states of two types, an int and a Fraction, all get the children of the
    first, as in one stepped frontier.

    The forward half grows from ``root`` to row hi-m0, then one backward half
    per start row of its leaves to row m0-lo, from that row with y and z
    exchanged, each by ``_frontier``'s loop and cap.  The tables are the
    first ``cap`` pairs of a forward leaf and a backward leaf of its start
    row, forward-major, flagged truncated when a half was or more pairs
    exist.  When every state has a child, that is the stepped frontier's
    result: a cut after a step keeps the prefixes of the first ``cap`` paths,
    and some step cuts exactly when more than ``cap`` paths exist.  Where a
    backward state has no children after a cut, the pairs are those of the
    halves as each was cut, which the stepped frontier may not keep.

    The backward jump is offered when the forward half ended with one leaf
    (``_frontier``).  A table's columns are the backward half's
    (``_half_columns``) reversed, exchanged and without the start row, then
    the forward half's.
    """
    lo, hi = window
    ahead, truncated, runs = _frontier(list(root), *forward, 2 * (hi - m0 + 1), cap, {})
    head_of = _half_columns(runs)
    step, jump = backward[0], backward[1] if len(ahead) == 1 else None
    memo, tails_of, pairs = {}, {}, []  # the backward steps' memo, shared by the halves
    for t in ahead:
        start = t[1], t[0]
        tails = tails_of.get(start)
        if tails is None:
            behind, cut, runs = _frontier(list(start), step, jump, 2 * (m0 - lo + 1), cap, memo)
            # row k of a backward half is row m0-k: (z, y) reversed, the start row dropped
            tails = tails_of[start] = [[c[:0:-1] for c in cols[2:] + cols[:2]]
                                       for cols in map(_half_columns(runs), behind)]
            truncated = truncated or cut
        head = head_of(t)
        pairs += ((tail, head) for tail in tails)
        if len(pairs) > cap:
            break
    tables = tuple(SolutionTable(lo, *map(add, tail, head)) for tail, head in pairs[:cap])
    return BranchTree(tables, truncated or len(pairs) > cap)


def _frontier(root: list, step, jump, end: int, cap: int, memo: dict) -> tuple:
    """The partial tables of one half grown from ``root`` by its steps until
    they reach length ``end``: the leaves, whether a step dropped children,
    and the (position, ``_Run``) of each run.  ``memo`` maps a step index
    and a state to its children; the backward halves share theirs.

    A partial table with no children is dropped; the others are copied for
    all their children but the last, which extends them in place, as no other
    frontier entry holds them.  Children keep the frontier's order; after
    each step only the first ``cap`` are kept.

    While one partial table is live and the last step was not a jump (which
    ends where its certificate does), ``jump(i, table)``, if given, may take
    the steps from index i on at once.  It returns the number k of steps it
    took, none or more, and their cells as one list in order, which extend the
    table; the list may start with a ``_Run`` of r rows in place of their 2r
    cells, which no step reads.  Every other step, for one table or many, is
    the frontier's own expansion.
    """
    partials, i, truncated, jumped, runs = [root], 0, False, False, []
    while partials and len(partials[0]) < end:
        if not jumped and jump is not None and len(partials) == 1:
            k, cells = jump(i, partials[0])
            if k:
                if type(cells[0]) is _Run:
                    runs.append((len(partials[0]), cells[0]))
                partials[0] += cells
                i, jumped = i + k, True
                continue
        jumped = False
        reads, expand = step(i)
        children, grown = memo.setdefault(i, {}), []
        i += 1
        state_of = itemgetter(*reads)
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
    return partials, truncated, runs


def _half_columns(runs: list):
    """The map from a leaf of a half to its columns (sy, ay, sz, az), row 0
    first.  Each (position, ``_Run``) of ``runs`` lies in every leaf: its
    rows are cut out of the cells, the rest split by one ``zip(*)``, and its
    columns put in."""
    placed = []  # (k, r, columns): the r rows of a run from row k, in row order
    for at, run in runs:
        r = run.rows
        (s1, a1), (s2, a2) = (((sign,) * r, tuple(islice(count(amp, step), r))) for sign, step, amp in run[1:])
        placed.append((at // 2, r, (s2, a2, s1, a1)))  # a row's cells are (z, y)

    def columns(t: list) -> list:
        ys, zs = t[:1] + t[3::2], t[1:2] + t[2::2]
        for k, r, _ in placed[::-1]:
            del ys[k:k + r], zs[k:k + r]
        cols = [*zip(*ys), *zip(*zs)]
        for k, r, run in placed:
            cols = [c[:k] + x + c[k:] for c, x in zip(cols, run)]
        return cols

    return columns


# --- deterministic closed-form steps (all-minus parity sector) ---------------


def step_z_noparity(p: Params, m: int, y_amp, z_amp):
    """Unique next z amplitude in the all-minus sector.  Each ``max(u, y)`` is
    spelled ``y if y > u else u``, as the builtin evaluates it: a tie keeps u,
    and types and ``Aff`` horizons are the builtin's, without its call's cost."""
    y, z = y_amp, z_amp
    mq = m * p.q
    u1, u2, u3, u4 = mq + p.a1, mq + p.a2, p.a3, p.a4
    return (
        p.b3 + p.b4 + (y if y > u1 else u1) + (y if y > u2 else u2)
        - z - (y if y > u3 else u3) - (y if y > u4 else u4)
    )


def step_y_noparity(p: Params, m: int, y_amp, z_next_amp):
    """Unique next y amplitude in the all-minus sector (mirrored z-step)."""
    return step_z_noparity(p.mirrored, m, z_next_amp, y_amp)


# --- affine stretches of the all-minus sector --------------------------------


def ansatz_identity_holds(p: Params, fit, primed: bool) -> bool:
    """The exact identity of the fit (alpha, beta, gamma): 2(beta+gamma) + alpha
    = B3+B4+A1+A2 unprimed (forward), alpha + 2(gamma-beta) = B3+B4-A3-A4 primed."""
    a, b, g = fit
    if primed:
        return a + 2 * (g - b) == p.b3 + p.b4 - p.a3 - p.a4
    return 2 * (b + g) + a == p.b3 + p.b4 + p.a1 + p.a2


def _ansatz_terms(p: Params, fit, primed: bool):
    """The four inequalities of the fit at step index m as pairs (s, c), each
    meaning ``s*k >= c``.  Unprimed, k = m: a(m+1)+g >= max(B3,B4),
    a m + min(A1,A2) >= b, (Q-a)m + b >= max(A3,A4), (Q-a)m + min(B1,B2) >= a+g.
    Primed, k = -m: a(m+1)+g <= min(B3,B4), a m + b <= min(A3,A4),
    (Q-a)m + max(B1,B2) <= a+g, (Q-a)m + max(A1,A2) <= b."""
    a, b, g = fit
    if primed:
        cs = (a + g - min(p.b3, p.b4), b - min(p.a3, p.a4), max(p.b1, p.b2) - a - g, max(p.a1, p.a2) - b)
    else:
        cs = (max(p.b3, p.b4) - a - g, b - min(p.a1, p.a2), max(p.a3, p.a4) - b, a + g - min(p.b1, p.b2))
    return zip((a, a, p.q - a, p.q - a), cs)


def _ansatz_inequalities(p: Params, fit, m: int, primed: bool) -> bool:
    """The four inequalities of the fit at step index m."""
    k = -m if primed else m
    return all(s * k >= c for s, c in _ansatz_terms(p, fit, primed))


def affine_horizon(p: Params, fit, forward: bool) -> Optional[int]:
    """The last step index (the first, backward) at which the four
    inequalities of the fit hold, given that they hold at the current one;
    None when they hold for ever, that is when 0 <= alpha <= Q.  Exact floor
    division: ``s*k >= c`` with s < 0 holds iff k <= c // s."""
    ks = [c // s for s, c in _ansatz_terms(p, fit, not forward) if s < 0]
    return (min(ks) if forward else -min(ks)) if ks else None


# --- parity steps: the finite end of each sign's solution interval ----------


def step_z_parity(p: Params, m: int, y: ParityPair, z: ParityPair) -> List[ParityPair]:
    """The corner solutions for (sign, amplitude) of z at index m+1: for each
    sign the finite end of the interval where the z-step relation holds (a
    point or the end of a ray), or at a double tie, where it holds
    everywhere, V - U.

    Every returned pair satisfies the exact z-step residual; at least one
    exists for any input.  There is at most one per sign, +1 first.
    """
    if y.sign == -1:
        cands = [ParityPair(z.sign, step_z_noparity(p, m, y.amp, z.amp))]
    else:
        mq = m * p.q
        fold = p.b3 + p.b4 - z.amp
        u = max(2 * y.amp, p.a3 + p.a4)
        u2 = max(p.a3, p.a4) + y.amp
        v = max(2 * mq + p.a1 + p.a2, 2 * y.amp) + fold
        v2 = max(p.a1, p.a2) + mq + y.amp + fold
        cands = []
        for sign in (1, -1):
            sol = solve_lines(v2, u, v, u2) if sign == z.sign else solve_lines(v2, u2, v, u)
            if sol is not None:
                lo, hi = sol
                cands.append(ParityPair(sign, lo if lo is not None else hi if hi is not None else v - u))
    valid = [c for c in cands if residual_zz(p, m, y, z, c)]
    if not valid:
        raise AssertionError("no valid candidate; existence is guaranteed")
    return valid


def step_y_parity(p: Params, m: int, y: ParityPair, z_next: ParityPair) -> List[ParityPair]:
    """The corner solutions for (sign, amplitude) of y at index m+1, given z
    there (the mirrored z-step)."""
    return step_z_parity(p.mirrored, m, z_next, y)


def step_back_y_parity(p: Params, m: int, y: ParityPair, z: ParityPair) -> List[ParityPair]:
    """The corner solutions for y at index m-1, given (y, z) at m.

    The y-relation at index m-1 is symmetric in its two y slots, so this is
    the forward y solver with the known pair in the other slot.  Only tests
    and the tracer call it: ``evolve`` runs ``step_z_parity(p.reflected, -m,
    z, y)``.
    """
    return step_y_parity(p, m - 1, y, z)


def step_back_z_parity(p: Params, m: int, y_prev: ParityPair, z: ParityPair) -> List[ParityPair]:
    """The corner solutions for z at index m-1, given y at m-1 and z at m;
    only tests and the tracer call it (``evolve``: ``step_y_parity(p.reflected,
    -m, z, y_prev)``)."""
    return step_z_parity(p, m - 1, y_prev, z)


# --- window evolution ---------------------------------------------------------


def evolve(
    p: Params,
    m0: int,
    y0: ParityPair,
    z0: ParityPair,
    window: Tuple[int, int],
    max_branches: int = 64,
) -> BranchTree:
    """The corner solutions through (y0, z0) at index m0 over the window
    [lo, hi]: each step takes the finite ends of its solution intervals.  At
    a tie (U = U' or V = V') each sign's interval is a ray, and at a double tie
    the whole line solves the step; either way only V - U is followed.  So no
    run lists a solution off those ends, such as the closed-form soln2 family
    (``udp6.families``), which leaves them inside a ray.

    Alternates the z- and y-steppers forward from m0 to the window end, and
    on the reflected parameters from -m0 to minus the window start (the
    backward half, see the module docstring), jumping the certified affine
    stretches of a single live branch.  Every leaf is a complete SolutionTable
    satisfying both residuals at every interior index.  When the number of
    live branches exceeds ``max_branches`` after a (z, y) step the surplus (in
    deterministic order) is dropped and the result is flagged truncated.
    """
    if max_branches < 1:
        raise ValueError("max_branches must be at least 1")
    require_unsigned(p)
    lo, hi = window
    if not (lo <= m0 <= hi):
        raise ValueError("initial index must lie inside the window")

    def half(q, start, stop):
        # the steps from start to stop on the parameters q: p forward, R(p) backward
        def expand(m):
            # the children of (y_m, z_m), the (z, y) pairs at m+1.  It calls the
            # steppers as module globals, where tracing and tests can replace them.
            return lambda yz: (
                [z1, y1] for z1 in step_z_parity(q, m, *yz) for y1 in step_y_parity(q, m, yz[0], z1))

        def step(i):
            return cell_positions(i), expand(start + i)

        def jump(i, t):
            # the table's last ten cells are its last five rows in write order
            # once they all lie past the start row, which they do from row 5
            left = stop - start - i
            fits = i >= _FIT_CELLS and left >= _MIN_STEPS
            return _affine_jump(expand, start + i, left, t[-2 * _FIT_CELLS:]) if fits else (0, ())

        return step, jump

    return grow_tables([y0, z0], half(p, m0, hi), half(p.reflected, -m0, -lo), max_branches, m0, window)


# An attempt costs about five concrete steps.  It waits for five rows on a
# line, which the concrete step from four gives: most lines of four do not
# reach a fifth row.  And it is not made when fewer steps than it costs are left.
_FIT_CELLS = 5
_MIN_STEPS = 4


class _Run(NamedTuple):
    """Jumped rows: their number, and the line of the first and of the second
    cell of each row in write order as (sign, slope, first amplitude)."""

    rows: int
    first: tuple
    second: tuple


def _fit(cells: List[ParityPair]) -> Optional[tuple]:
    """(sign, step, last amplitude) of five cells, oldest first, that share a
    sign and lie on a line; else None."""
    f, e, c, b, a = cells
    step = a.amp - b.amp
    if a.sign == b.sign == c.sign == e.sign == f.sign and step == b.amp - c.amp == c.amp - e.amp == e.amp - f.amp:
        return a.sign, step, a.amp
    return None


def _affine_jump(expand_at, m: int, left: int, rows: list) -> Tuple[int, list]:
    """The number of the steps from index m, up to ``left``, that the
    steppers certify, and their cells in write order; none unless both
    columns of ``rows``, the last five rows as ten cells in write order (z, y),
    share a sign and lie on a line.  The rows before the last five (which the
    next step and fit read) are one ``_Run``.

    ``expand_at(m)`` is ``evolve``'s expansion at m, of p or of R(p).  It runs
    once on the fits, ``Aff`` values in t = m' - m: if it gives one child,
    the fits' next cells by (s, c), as ``==`` would record a comparison, then
    every step from t = 0 to the horizon does, as its comparisons all go the
    same way."""
    lines = _fit(rows[::2]), _fit(rows[1::2])
    if not all(lines):
        return 0, ()
    h = Horizon()
    first, second = (ParityPair(sign, Aff(step, amp, h)) for sign, step, amp in lines)
    kids = list(expand_at(Aff(1, m, h))((second, first)))
    if len(kids) != 1 or any(
            (c.sign, c.amp.s, c.amp.c) != (sign, step, amp + step) for c, (sign, step, amp) in zip(kids[0], lines)):
        return 0, ()
    n = left if h.t is None else min(h.t + 1, left)
    r = max(n - _FIT_CELLS, 0)  # the run's rows
    cells = [None] * (2 * n)
    # tuple.__new__ builds each pair in C, as ParityPair._make does
    for k, (sign, step, amp) in enumerate(lines):
        cells[2 * r + k::2] = map(
            tuple.__new__, repeat(ParityPair), zip(repeat(sign), islice(count(amp + (r + 1) * step, step), n - r)))
    if r:
        cells[0] = _Run(r, *((sign, step, amp + step) for sign, step, amp in lines))
    return n, cells


def noparity_amplitudes(p: Params, m0: int, y0, z0, window: Tuple[int, int]) -> Tuple[list, list]:
    """The amplitude lists (ys, zs) of the all-minus evolution over the window,
    from its first index: closed-form steps, and a jump across each affine
    stretch whose fit is certified.  y0 and z0 are ints or Fractions."""
    require_unsigned(p)
    lo, hi = window
    if not (lo <= m0 <= hi):
        raise ValueError("initial index must lie inside the window")
    pm, q = p.mirrored, p.q
    walks = []
    for d, stop, primed in ((1, hi, False), (-1, lo, True)):
        ys, zs = [y0], [z0]
        m = m0
        while m != stop:
            y, z = ys[-1], zs[-1]
            if primed:  # the (y, z) pair at m-1, each relation read for its earlier slot
                y1 = step_z_noparity(pm, m - 1, z, y)
                z1 = step_z_noparity(p, m - 1, y1, z)
            else:  # the (z, y) pair, the y-step mirrored
                z1 = step_z_noparity(p, m, y, z)
                y1 = step_z_noparity(pm, m, z1, y)
            ys.append(y1)
            zs.append(z1)
            m += d
            dy, dz = y1 - y, z1 - z  # the steps in the walk's direction
            if len(ys) > 2 and dy == y - ys[-3] and dz == z - zs[-3] and (dy == dz if primed else dy + dz == q):
                fit = (d * dz, y1 - d * dy * m, z1 - d * dz * m)
                if ansatz_identity_holds(p, fit, primed) and _ansatz_inequalities(p, fit, m - primed, primed):
                    end = affine_horizon(p, fit, not primed)
                    n = d * (stop - m) if end is None else min(d * (end - m) + (not primed), d * (stop - m))
                    ys += islice(count(y1 + dy, dy), n)
                    zs += islice(count(z1 + dz, dz), n)
                    m += d * n
        walks.append((ys, zs))
    (ys, zs), (bys, bzs) = walks
    return bys[:0:-1] + ys, bzs[:0:-1] + zs


def evolve_noparity(p: Params, m0: int, y0, z0, window: Tuple[int, int]) -> SolutionTable:
    """The all-minus evolution's table: ``noparity_amplitudes`` as all-minus pairs."""
    ys, zs = noparity_amplitudes(p, m0, y0, z0, window)
    return SolutionTable(window[0], (-1,) * len(ys), tuple(ys), (-1,) * len(zs), tuple(zs))


def painleve_failures(p: Params, table: SolutionTable) -> List[Tuple[int, str]]:
    """All (index, relation) pairs where the table violates a residual, by
    index, with "zz" before "yy" at an index.

    Parameter signs are admitted; the constraint is checked on entry.  A
    table sign other than +1 or -1 is a ValueError that names its cell.  Each
    run of equal signs and steps (see the module docstring) is decided by
    ``residual_zz`` and ``residual_yy`` on ``Aff`` values from its first index
    up to the horizon, then again from the next index, until it is decided.
    """
    require_constraint(p)
    m_lo, sy, ay, sz, az = table.m_lo, table.sy, table.ay, table.sz, table.az
    # both relations at index m read the rows m and m+1 alone
    keys = zip(sy, sy[1:], sz, sz[1:], map(sub, ay[1:], ay), map(sub, az[1:], az))
    bad, k = [], 0
    for (s_y, s_y1, s_z, s_z1, dy, dz), run in groupby(keys):
        # a run's keys are equal: the first holds every sign of its rows
        for m, col, s in ((k, "sy", s_y), (k, "sz", s_z), (k + 1, "sy", s_y1), (k + 1, "sz", s_z1)):
            if s != 1 and s != -1:
                raise ValueError(f"{col} at index {m_lo + m}: sign must be +1 or -1, got {s!r}")
        end = k + sum(1 for _ in run)
        while k < end:
            h = Horizon()
            m, y, z = Aff(1, m_lo + k, h), ParityPair(s_y, Aff(dy, ay[k], h)), ParityPair(s_z, Aff(dz, az[k], h))
            # a run of one pair may change sign between its rows
            z1 = ParityPair(s_z1, z.amp + dz)
            zz, yy = residual_zz(p, m, y, z, z1), residual_yy(p, m, y, ParityPair(s_y1, y.amp + dy), z1)
            n = end - k if h.t is None else min(h.t + 1, end - k)
            failed = [rel for rel, ok in (("zz", zz), ("yy", yy)) if not ok]
            if failed:
                bad += [(i, rel) for i in range(m_lo + k, m_lo + k + n) for rel in failed]
            k += n
    return bad
