import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import NamedTuple, Tuple
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import udp6.evolution as evolution
from udp6.evolution import (
    affine_horizon,
    cell_positions,
    evolve,
    evolve_noparity,
    grow_tables,
    noparity_amplitudes,
    painleve_failures,
    step_back_y_parity,
    step_back_z_parity,
    step_y_noparity,
    step_y_parity,
    step_z_noparity,
    step_z_parity,
)
from udp6.families import LinearAnsatz
from udp6.riccati import riccati_evolve
from udp6.system import (
    Aff,
    Horizon,
    ParityPair,
    Params,
    random_constrained_params,
    residual_yy,
    residual_zz,
)
from udp6.tables import SolutionTable

from goldens import golden1_y, golden1_z, golden2_y, golden2_z
from oracles import (
    PairTable, ansatz_inequalities_at, evolve_noparity_stepping, evolve_per_branch, evolve_stepping, gauge,
    grow_tables_per_step,
    pair_columns, pair_table, painleve_failures_per_index, random_state, scale,
    step_back_y_noparity, step_back_z_noparity, step_z_noparity_by_max, step_z_parity_by_cases, yy_by_cases,
    zz_by_cases,
)

F = Fraction


def pp(sign, amp):
    return ParityPair(sign, F(amp))


# --- closed-form steps -------------------------------------------------------


def test_step_z_noparity_examples(p42):
    assert step_z_noparity(p42, 0, 43, 40) == F(-28)
    assert step_z_noparity(p42, 0, 43, 50) == F(-38)


def test_step_y_noparity_examples(p42):
    assert step_y_noparity(p42, 0, 43, -28) == F(122)
    assert step_y_noparity(p42, 0, 43, -38) == F(122)


def test_step_gauge_shift(p42):
    shifted = gauge(p42, 7)
    assert step_z_noparity(shifted, 0, 43 + 7, 40 + 7) == F(-28 + 7)


def test_backward_steps_examples(p42):
    y_prev = step_back_y_noparity(p42, 0, 43, 40)
    assert y_prev == F(16)
    assert step_back_z_noparity(p42, 0, y_prev, 40) == F(-55)
    y_prev2 = step_back_y_noparity(p42, 0, 43, 50)
    assert y_prev2 == F(16)
    assert step_back_z_noparity(p42, 0, y_prev2, 50) == F(-65)


def test_forward_backward_identity_random(rng):
    for _ in range(1000):
        p = random_constrained_params(rng)
        m = rng.randint(-10, 10)
        y = F(rng.randint(-150, 150))
        z = F(rng.randint(-150, 150))
        z1 = step_z_noparity(p, m, y, z)
        y1 = step_y_noparity(p, m, y, z1)
        assert step_back_y_noparity(p, m + 1, y1, z1) == y
        assert step_back_z_noparity(p, m + 1, y, z1) == z


@st.composite
def _noparity_step_inputs(draw, denominators=st.just(1)):
    """Parameters, m, y and z for the all-minus step.  With denominators 1 the
    amplitudes are ints, or each an int or an integral Fraction, and y is
    often equal to one of mQ+A1, mQ+A2, A3, A4 with the other type: a tie of
    an int and a Fraction."""
    mixed = draw(st.booleans())

    def amp():
        x = Fraction(draw(st.integers(-40, 40)), draw(denominators))
        return int(x) if x.denominator == 1 and (not mixed or draw(st.booleans())) else x

    p = Params(draw(st.integers(1, 20)), *(amp() for _ in range(8)))
    m, z = draw(st.integers(-3, 3)), amp()
    slots = (m * p.q + p.a1, m * p.q + p.a2, p.a3, p.a4)
    # a tie at the least slot alone decides the type of an integral result
    y = draw(st.one_of(st.builds(amp), st.sampled_from(slots), st.just(min(slots))))
    if y in slots and draw(st.booleans()):  # the tie's other operand type
        y = Fraction(y) if type(y) is int else int(y) if y.denominator == 1 else y
    return p, m, y, z


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=st.one_of(_noparity_step_inputs(), _noparity_step_inputs(st.integers(1, 6))))
@example(case=(Params(5, 1, 2, 3, 4, 5, 6, 7, -1), 0, Fraction(1), 0))  # y ties mQ+A1, the least slot
@example(case=(Params(5, 4, 3, 2, Fraction(1), 5, 6, 7, -1), 0, 1, 0))  # y ties A4, the least slot
def test_step_z_noparity_equals_the_builtin_max(case):
    # the same value and the same type as the former transcription with the
    # builtin max: at a tie of an int and a Fraction the first operand is kept
    p, m, y, z = case
    got, ref = step_z_noparity(p, m, y, z), step_z_noparity_by_max(p, m, y, z)
    assert (got, type(got)) == (ref, type(ref))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_noparity_step_inputs(), slopes=st.tuples(*[st.one_of(st.none(), st.integers(-3, 3))] * 3))
def test_step_z_noparity_equals_the_builtin_max_on_aff(case, slopes):
    # m, y and z, each a plain value or an Aff of the given slope: the result's
    # (s, c) and the horizon its comparisons lowered are the former
    # transcription's
    p, *values = case
    results = []
    for step in (step_z_noparity, step_z_noparity_by_max):
        h = Horizon()
        args = [v if s is None else Aff(s, v, h) for v, s in zip(values, slopes)]
        r = step(p, *args)
        results.append((type(r), (type(r.s), r.s, type(r.c), r.c) if type(r) is Aff else r, h.t))
    assert results[0] == results[1]


# --- parity steps --------------------------------------------------------------


def test_step_z_parity_deterministic_sector(p42):
    cands = step_z_parity(p42, 0, pp(-1, 43), pp(-1, 40))
    assert cands == [pp(-1, -28)]


def test_step_z_parity_degenerate_tie(p41):
    # y amplitude equal to A3 makes the case split tie: both signs survive
    cands = step_z_parity(p41, 1, pp(1, 67), pp(1, 42))
    assert len(cands) >= 2
    assert {c.sign for c in cands} == {1, -1}
    for c in cands:
        assert residual_zz(p41, 1, pp(1, 67), pp(1, 42), c)


def test_step_z_parity_gauge_equivariant(p41):
    cands = step_z_parity(p41, 1, pp(1, 67), pp(1, 42))
    shifted = step_z_parity(gauge(p41, 5), 1, pp(1, 72), pp(1, 47))
    assert shifted == [ParityPair(c.sign, c.amp + 5) for c in cands]


def test_step_y_parity_deterministic_sector(p42):
    cands = step_y_parity(p42, 0, pp(-1, 43), pp(-1, -28))
    assert cands == [pp(-1, 122)]


def test_step_y_parity_degenerate_tie(p42):
    # z amplitude equal to B3 ties the mirror split
    y = pp(1, 50)
    z1 = pp(1, p42.b3)
    cands = step_y_parity(p42, 0, y, z1)
    assert len(cands) >= 2
    for c in cands:
        assert residual_yy(p42, 0, y, c, z1)


def test_parity_steps_validate_candidates_random(rng):
    for _ in range(400):
        p = random_constrained_params(rng)
        m = rng.randint(-6, 6)
        _, y, z = random_state(rng, m)
        for z1 in step_z_parity(p, m, y, z):
            assert residual_zz(p, m, y, z, z1)
            for y1 in step_y_parity(p, m, y, z1):
                assert residual_yy(p, m, y, y1, z1)


def test_step_z_parity_e1_ray_regression():
    # panel structure e1, z-step at m = 3: for both signs the relation holds
    # on the upward ray from -2, and the stepper returns its one finite end
    p = Params.make(3, (-1, 7, 11, 12), (6, 4, -9, 33))
    y, z = ParityPair(1, 11), ParityPair(1, 30)
    assert step_z_parity(p, 3, y, z) == [ParityPair(1, -2), ParityPair(-1, -2)]
    for sign in (1, -1):
        assert not residual_zz(p, 3, y, z, ParityPair(sign, -3))
        assert all(residual_zz(p, 3, y, z, ParityPair(sign, x)) for x in range(-2, 60))


def _is_double_tie(p, m, y):
    mq = m * p.q
    return y.sign == 1 and y.amp in (p.a3, p.a4) and y.amp in (p.a1 + mq, p.a2 + mq)


@st.composite
def _small_z_states(draw, r=4):
    """Constrained int parameters within +-r (Q in 1..r), m in -3..3, and a
    state (y, z) within +-3r whose y amplitude is often one of A3, A4, A1+mQ,
    A2+mQ, so that ties and double ties occur."""
    q = draw(st.integers(1, r))
    a = [draw(st.integers(-r, r)) for _ in range(4)]
    b1, b2, b3 = (draw(st.integers(-r, r)) for _ in range(3))
    p = Params.make(q, a, (b1, b2, b3, b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3))
    m = draw(st.integers(-3, 3))
    ties = (a[2], a[3], a[0] + m * q, a[1] + m * q)
    y_amp = draw(st.one_of(st.integers(-3 * r, 3 * r), st.sampled_from(ties)))
    sign = st.sampled_from((1, -1))
    return p, m, ParityPair(draw(sign), y_amp), ParityPair(draw(sign), draw(st.integers(-3 * r, 3 * r)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_small_z_states())
@example(case=(Params.make(1, (0, 0, 0, 0), (0, 0, 0, -1)), 0, ParityPair(1, 0), ParityPair(-1, 5)))
def test_step_z_parity_returns_the_finite_ends_of_each_sign(case):
    # for each sign of z_{m+1} the solution set is an interval; its finite
    # ends lie within k of 0, as each is the difference of a slope-0 and a
    # slope-1 term's constant, so a scan over [-k, k] finds them, and a set
    # that reaches an end of the scan is a ray or the whole line
    p, m, y, z = case
    mq, b34 = m * p.q, p.b3 + p.b4
    flat = (2 * mq + p.a1 + p.a2 + b34, 2 * y.amp + b34, y.amp + mq + p.a1 + b34, y.amp + mq + p.a2 + b34)
    steep = (2 * y.amp + z.amp, z.amp + p.a3 + p.a4, y.amp + z.amp + p.a3, y.amp + z.amp + p.a4)
    k = max(map(abs, flat)) + max(map(abs, steep)) + 1
    cands = step_z_parity(p, m, y, z)
    holds = {s: [x for x in range(-k, k + 1) if residual_zz(p, m, y, z, ParityPair(s, x))] for s in (1, -1)}
    if _is_double_tie(p, m, y):
        # the relation holds everywhere, and the split gives one amplitude
        assert all(len(xs) == 2 * k + 1 for xs in holds.values())
        amp = max(2 * mq + p.a1 + p.a2, 2 * y.amp) - max(2 * y.amp, p.a3 + p.a4) + b34 - z.amp
        assert cands == [ParityPair(1, amp), ParityPair(-1, amp)]
        return
    ends = set()
    for s, xs in holds.items():
        if xs:
            assert xs == list(range(xs[0], xs[-1] + 1))  # an interval
            ends |= {ParityPair(s, x) for x in (xs[0], xs[-1]) if -k < x < k}
    assert len(cands) == len(set(cands)) and set(cands) == ends


@settings(derandomize=True, max_examples=600, deadline=None)
@given(case=st.one_of(_small_z_states(2), _small_z_states(4), _small_z_states(8)))
def test_parity_steps_equal_the_case_split(case):
    # the closed form gives the former four-case split's candidates, in its
    # order, for the z-step and for the y-step (the mirrored split)
    p, m, y, z = case
    zs = step_z_parity(p, m, y, z)
    assert zs == step_z_parity_by_cases(p, m, y, z)
    for z1 in zs:
        assert step_y_parity(p, m, y, z1) == step_z_parity_by_cases(p.mirrored, m, z1, y)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(case=st.one_of(_small_z_states(2), _small_z_states(4), _small_z_states(8)), d=st.sampled_from((1, 2, 6)))
def test_no_parity_state_is_childless(case, d):
    # the premise of grow_tables' product of halves: each step of evolve, the
    # z- then the y-step forward and the y- then the z-step backward, gives
    # every state at least one pair, on int and Fraction lattices, at ties
    # and double ties
    p, m, y, z = case
    if d > 1:
        p, y, z = (scale(x, F(1, d)) for x in (p, y, z))
    forward = step_z_parity(p, m, y, z)
    assert forward and all(step_y_parity(p, m, y, z1) for z1 in forward)
    backward = step_back_y_parity(p, m, y, z)
    assert backward and all(step_back_z_parity(p, m, yp, z) for yp in backward)


# --- window evolution ------------------------------------------------------------


def test_evolve_golden_first_table(p42):
    tree = evolve(p42, 0, pp(-1, 43), pp(-1, 40), (-10, 10))
    assert not tree.truncated
    assert len(tree.tables) == 1
    t = tree.tables[0]
    for m in t.indexes():
        assert t.y(m) == ParityPair(-1, golden1_y(m))
        assert t.z(m) == ParityPair(-1, golden1_z(m))


def test_evolve_golden_second_table(p42):
    tree = evolve(p42, 0, pp(-1, 43), pp(-1, 50), (-12, 15))
    assert len(tree.tables) == 1
    t = tree.tables[0]
    for m in t.indexes():
        assert (t.y(m).amp, t.z(m).amp) == (golden2_y(m), golden2_z(m))


def test_evolve_window_of_size_zero(p42):
    tree = evolve(p42, 0, pp(-1, 43), pp(-1, 40), (0, 0))
    assert len(tree.tables) == 1 and len(tree.tables[0]) == 1


def test_evolve_initial_outside_window_rejected(p42):
    with pytest.raises(ValueError):
        evolve(p42, 3, pp(-1, 0), pp(-1, 0), (-2, 2))


@pytest.mark.parametrize("m0", [-3, 3])
def test_evolve_noparity_initial_outside_window_rejected(p42, m0):
    with pytest.raises(ValueError, match="initial index must lie inside the window"):
        evolve_noparity(p42, m0, 43, 40, (-2, 2))


@pytest.mark.parametrize(
    "run",
    [
        lambda p, m0, window, cap: evolve(p, m0, pp(1, 0), pp(-1, 0), window, cap),
        lambda p, m0, window, cap: riccati_evolve(p, m0, pp(1, 0), window, max_branches=cap),
    ],
    ids=["evolve", "riccati_evolve"],
)
def test_evolutions_reject_bad_window_and_cap(p41, run):
    # both evolutions take (window, max_branches) and check them on entry
    assert run(p41, 0, (-2, 2), 1).tables
    with pytest.raises(ValueError, match="max_branches"):
        run(p41, 0, (-2, 2), 0)
    for m0 in (-3, 3):
        with pytest.raises(ValueError, match="window"):
            run(p41, m0, (-2, 2), 64)


def test_evolve_branch_cap_flags_truncation():
    # all-zero parameters tie every case split; plus parities branch heavily
    p = Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0))
    tree = evolve(p, 0, pp(1, 0), pp(1, 0), (0, 6), max_branches=4)
    assert tree.truncated
    assert len(tree.tables) == 4
    for t in tree.tables:
        assert not painleve_failures(p, t)


@pytest.mark.parametrize("window, first", [((0, 6), "z"), ((-6, 0), "y")])
def test_evolve_expands_each_state_once(monkeypatch, window, first):
    # a step's children depend on (y_m, z_m) alone, so each distinct state is
    # expanded once per step: the step's first stepper (the z-step forward;
    # backward the y-step, step_z_parity on the mirrored parameters) never
    # sees the same input twice, though the frontier holds up to 64 tables.
    # The second may: two states that share y_m can share a z_{m+1}.
    p = Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0))
    step, seen = evolution.step_z_parity, []

    def counting(q, m, y, z):
        if (q is p) == (first == "z"):
            seen.append((m, y, z))
        return step(q, m, y, z)

    monkeypatch.setattr(evolution, "step_z_parity", counting)
    tree = evolve(p, 0, pp(1, 0), pp(1, 0), window, max_branches=64)
    assert len(tree.tables) == 64 and tree.truncated
    assert len(seen) > 6 and len(seen) == len(set(seen))


@st.composite
def _tie_case(draw):
    """Tie-heavy constrained parameters and a start on the lattice 1/D, D in
    {1, 2, 6}: amplitudes k/D with k in [-12, 12], Q = k/D with k in [1, 12]
    (ints when D = 1); m0 in -3..3 and a window up to 6 either side of it."""
    d = draw(st.sampled_from((1, 2, 6)))
    small = st.integers(-12, 12).map(lambda k: k if d == 1 else F(k, d))
    q = F(draw(st.integers(1, 12)), d) if d > 1 else draw(st.integers(1, 12))
    a = [draw(small) for _ in range(4)]
    b1, b2, b3 = (draw(small) for _ in range(3))
    p = Params.make(q, a, (b1, b2, b3, b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3))
    y0, z0 = (ParityPair(draw(st.sampled_from((1, -1))), draw(small)) for _ in range(2))
    m0 = draw(st.integers(-3, 3))
    window = (m0 - draw(st.integers(0, 6)), m0 + draw(st.integers(0, 6)))
    return p, m0, y0, z0, window


def test_evolve_equals_per_branch_oracle():
    # the shared frontier gives the tables and the truncation flag of the
    # evolution run one branch at a time on Fractions, truncated or not
    flags = []

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=_tie_case(), cap=st.sampled_from((1, 2, 5, 64)))
    def check(case, cap):
        p, m0, y0, z0, window = case
        tree = evolve(p, m0, y0, z0, window, max_branches=cap)
        assert (tree.tables, tree.truncated) == evolve_per_branch(p, m0, y0, z0, window, cap)
        flags.append(tree.truncated)

    check()
    assert any(flags) and not all(flags)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_tie_case())
def test_leaf_columns_equal_the_pair_oracles(case):
    # each leaf split into columns is the per-branch oracle's table of pairs as a
    # pair value, and hashes alike; the all-minus table is noparity_amplitudes'
    # two lists under all-minus signs
    p, m0, y0, z0, window = case
    tree = evolve(p, m0, y0, z0, window, max_branches=8)
    oracle, truncated = evolve_per_branch(p, m0, y0, z0, window, 8)
    assert len(tree.tables) == len(oracle) and tree.truncated == truncated
    for leaf, ref in zip(tree.tables, oracle):
        assert PairTable.of(leaf) == PairTable.of(ref) and hash(leaf) == hash(ref)
        assert {type(col) for col in (leaf.sy, leaf.ay, leaf.sz, leaf.az)} == {tuple}
    ys, zs = noparity_amplitudes(p, m0, y0.amp, z0.amp, window)
    minus = (-1,) * len(ys)
    flat = evolve_noparity(p, m0, y0.amp, z0.amp, window)
    assert (flat.m_lo, flat.sy, flat.ay, flat.sz, flat.az) == (window[0], minus, tuple(ys), minus, tuple(zs))
    assert flat == evolve_noparity_stepping(p, m0, y0.amp, z0.amp, window)


def test_evolve_random_soundness_and_existence(rng):
    for _ in range(150):
        p = random_constrained_params(rng)
        m0, y0, z0 = random_state(rng, rng.randint(-3, 3))
        tree = evolve(p, m0, y0, z0, (-6, 6))
        assert tree.tables
        for t in tree.tables:
            assert not painleve_failures(p, t)
            assert (t.y(m0), t.z(m0)) == (y0, z0)


def test_all_minus_sector_is_single_branch(rng):
    for _ in range(150):
        p = random_constrained_params(rng)
        y0 = F(rng.randint(-120, 120))
        z0 = F(rng.randint(-120, 120))
        tree = evolve(p, 0, pp(-1, y0), pp(-1, z0), (-6, 6))
        assert len(tree.tables) == 1
        fast = evolve_noparity(p, 0, y0, z0, (-6, 6))
        assert tree.tables[0] == fast


def test_evolve_is_gauge_and_scale_equivariant(rng):
    # tie-heavy inputs branch, and a cap of 6 truncates some of them
    truncated = 0
    for _ in range(60):
        p = random_constrained_params(rng, -12, 12, (1, 12))
        m0, y0, z0 = random_state(rng, rng.randint(-2, 2), -12, 12)
        tree = evolve(p, m0, y0, z0, (-3, 3), max_branches=6)
        truncated += tree.truncated
        c = F(rng.randint(-40, 40), rng.randint(1, 4))
        shifted = evolve(gauge(p, c), m0, gauge(y0, c), gauge(z0, c), (-3, 3), max_branches=6)
        assert shifted.tables == tuple(gauge(t, c) for t in tree.tables)
        assert shifted.truncated == tree.truncated
        lam = F(rng.randint(1, 9), rng.randint(1, 4))
        scaled = evolve(scale(p, lam), m0, scale(y0, lam), scale(z0, lam), (-3, 3), max_branches=6)
        assert scaled.tables == tuple(scale(t, lam) for t in tree.tables)
        assert scaled.truncated == tree.truncated
    assert truncated


def test_forward_then_backward_recovers_initial_state(rng):
    # evolve over [m0, m0+k], then back from each leaf's end state over the
    # same window: some branch must pass through the initial state again
    tables = 0
    for _ in range(400):
        p = random_constrained_params(rng, -12, 12, (1, 12))
        m0, k = rng.randint(-3, 3), rng.randint(1, 3)
        start = random_state(rng, m0, -12, 12)
        window = (m0, m0 + k)
        forward = evolve(p, *start, window, max_branches=256)
        for t in () if forward.truncated else forward.tables:
            backward = evolve(p, m0 + k, t.y(m0 + k), t.z(m0 + k), window, max_branches=256)
            if not backward.truncated:
                assert start in [(m0, b.y(m0), b.z(m0)) for b in backward.tables]
                tables += 1
    assert tables >= 400


# --- jumps across certified affine stretches -----------------------------------------


class _Jump(NamedTuple):
    m: int
    d: int
    signs: tuple
    amp_type: type
    steps: int
    horizon: object
    left: int
    run: object  # the ``_Run`` the jump wrote, or None


def _record_jumps(monkeypatch) -> list:
    """Patch ``evolve``'s jump attempts to log each one as a ``_Jump``: where
    it starts, the signs and amplitude type there, the steps it took, the
    horizon of its ``Aff`` values (absent when no stepper ran), the steps left
    and the run it wrote."""
    log, horizons = [], []

    class Recorded(Horizon):
        def __init__(self):
            super().__init__()
            horizons.append(self)

    attempt = evolution._affine_jump

    def recording(expand_at, m, d, left, rows):
        horizons.clear()
        n, cells = attempt(expand_at, m, d, left, rows)
        y, z = (rows[-1], rows[-2]) if d > 0 else (rows[-2], rows[-1])
        run = cells[0] if n and type(cells[0]) is evolution._Run else None
        log.append(_Jump(m, d, (y.sign, z.sign), type(y.amp), n, horizons[0].t if horizons else "none", left, run))
        return n, cells

    monkeypatch.setattr(evolution, "Horizon", Recorded)
    monkeypatch.setattr(evolution, "_affine_jump", recording)
    return log


@st.composite
def _jump_case(draw):
    """Constrained parameters with amplitudes k/D in [-R, R] (ints when D = 1),
    R in {3, 6, 12, 30, 100}, D in 1..3; a start of any parities at m0 in
    -5..5 and a window up to 40 either side of it."""
    r, d = draw(st.sampled_from((3, 6, 12, 30, 100))), draw(st.integers(1, 3))
    amp = st.integers(-r * d, r * d).map(lambda k: k if d == 1 else F(k, d))
    q = draw(st.integers(1, r * d).map(lambda k: k if d == 1 else F(k, d)))
    a = [draw(amp) for _ in range(4)]
    b1, b2, b3 = (draw(amp) for _ in range(3))
    p = Params.make(q, a, (b1, b2, b3, b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3))
    y0, z0 = (ParityPair(draw(st.sampled_from((1, -1))), draw(amp)) for _ in range(2))
    m0 = draw(st.integers(-5, 5))
    return p, m0, y0, z0, (m0 - draw(st.integers(0, 40)), m0 + draw(st.integers(0, 40)))


def test_jumps_equal_stepping_in_every_sector_and_direction(monkeypatch):
    # the same tables and truncation flag as the frontier stepped at every
    # index; jumps are taken forward and backward in all four sign sectors,
    # on int and Fraction amplitudes, and in cap-1 runs the cap truncated
    log = _record_jumps(monkeypatch)
    truncated_with_jumps = []

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(case=_jump_case(), cap=st.sampled_from((1, 1, 2, 8)))
    def check(case, cap):
        p, m0, y0, z0, window = case
        start = len(log)
        tree = evolve(p, m0, y0, z0, window, max_branches=cap)
        assert (tree.tables, tree.truncated) == evolve_stepping(p, m0, y0, z0, window, cap)
        if cap == 1 and tree.truncated and any(j.steps for j in log[start:]):
            truncated_with_jumps.append(case)

    check()
    jumps = [j for j in log if j.steps]
    assert {(j.d, j.signs) for j in jumps} == {(d, (sy, sz)) for d in (1, -1) for sy in (1, -1) for sz in (1, -1)}
    assert {j.amp_type for j in jumps} == {int, F}
    assert truncated_with_jumps
    assert sum(j.steps for j in jumps) > 3 * len(jumps) and max(j.steps for j in jumps) >= 30


def test_runs_give_the_tables_of_the_per_branch_oracle(monkeypatch):
    # a jump keeps the rows before its last five as one run until the leaves'
    # columns are built; the tables, their order and the truncation flag are
    # those of the per-branch oracle, which has no frontier and no jump.  The
    # cases hold a run shared by several leaves, two runs in one direction
    # (the first ends at a finite horizon), backward runs, jumps too short for
    # a run, runs to the window's edge, slope-0 lines and Fraction amplitudes
    log = _record_jumps(monkeypatch)
    seen = set()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=_jump_case(), cap=st.sampled_from((1, 2, 8, 64)))
    def check(case, cap):
        p, m0, y0, z0, window = case
        start = len(log)
        tree = evolve(p, m0, y0, z0, window, max_branches=cap)
        assert (tree.tables, tree.truncated) == evolve_per_branch(p, m0, y0, z0, window, cap)
        assert {type(a) for t in tree.tables for a in t.ay + t.az} <= {type(y0.amp)}
        jumps = [j for j in log[start:] if j.steps]
        runs = [j for j in jumps if j.run]
        assert all(j.steps > evolution._FIT_CELLS and j.run.rows == j.steps - evolution._FIT_CELLS for j in runs)
        assert all(j.steps <= evolution._FIT_CELLS for j in jumps if not j.run)
        seen.update(
            [("shared",)] * (len(tree.tables) > 1 and bool(runs))
            + [("short",)] * any(not j.run for j in jumps)
            + [("two in one direction", d) for d in (1, -1)
               if len([j for j in runs if j.d == d]) > 1 and next(j for j in runs if j.d == d).horizon is not None]
            + [("to the edge", j.d) for j in runs if j.steps == j.left]
            + [("slope 0",) for j in runs if 0 in (j.run.first[1], j.run.second[1])]
            + [("amplitudes", j.d, j.amp_type) for j in runs]
        )

    check()
    assert seen == {("shared",), ("short",), ("slope 0",)} | {
        (kind, d) for kind in ("two in one direction", "to the edge") for d in (1, -1)
    } | {("amplitudes", d, t) for d in (1, -1) for t in (int, F)}


def _amp_types(tree):
    """The type of every amplitude of every table, in order."""
    return [tuple(map(type, t.ay + t.az)) for t in tree.tables]


def test_grow_tables_equals_the_per_step_frontier(monkeypatch, halves):
    # the product of the forward and backward halves gives the tables, order,
    # truncation flag and amplitude types of one frontier stepped forward and
    # then backward, whose backward steps run once per forward leaf.  The
    # cases hold halves of several leaves each, cuts inside the product (no
    # half cut), the start at either edge of the window, and jumps with runs
    # in both halves, on int and Fraction lattices at every cap
    jumps = _record_jumps(monkeypatch)
    seen = set()

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(case=st.one_of(_tie_case(), _jump_case()), cap=st.sampled_from((1, 2, 8, 64, 256)))
    # two forward and two backward leaves at cap 2; a forward run, then forward
    # branches; a backward run, then backward branches
    @example(case=(Params.make(2, (0, -2, -3, -1), (3, 3, 1, 1)), 0, pp(-1, -3), pp(1, -2), (-12, 19)), cap=2)
    @example(case=(Params.make(6, (4, 0, 2, -6), (3, -3, -4, -10)), 0, pp(1, -4), pp(1, 0), (-9, 18)), cap=8)
    @example(case=(Params.make(11, (-4, -12, -4, -10), (2, -2, -6, -3)), 0, pp(-1, 5), pp(1, 2), (-19, 15)), cap=2)
    def check(case, cap):
        p, m0, y0, z0, window = case
        del halves[:]
        start = len(jumps)
        tree = evolve(p, m0, y0, z0, window, max_branches=cap)
        (ahead, cut), *behind = halves
        runs = [j.d for j in jumps[start:] if j.run]
        with mock.patch.object(evolution, "grow_tables", grow_tables_per_step):
            reference = evolve(p, m0, y0, z0, window, max_branches=cap)
        assert (tree.tables, tree.truncated) == (reference.tables, reference.truncated)
        assert _amp_types(tree) == _amp_types(reference)
        several = ahead > 1 and any(n > 1 for n, _ in behind)
        seen.update(
            [("several leaves", type(y0.amp))] * several
            + [("cut in the product", cap)] * (tree.truncated and not cut and not any(c for _, c in behind))
            + [("edge", m0 == window[0]) for _ in [0] if m0 in window and len(tree.tables) > 1]
            + [("run", d, len(tree.tables) > 1) for d in runs]
            + [("forward run, then forward branches",)] * (1 in runs and ahead > 1)
        )

    check()
    assert seen == {("several leaves", t) for t in (int, F)} | {("cut in the product", c) for c in (2, 8, 64, 256)} | {
        ("edge", True), ("edge", False), ("forward run, then forward branches",)} | {
        ("run", d, shared) for d in (1, -1) for shared in (False, True)}


@pytest.mark.parametrize("p, y0, z0, at, steps, leaves", [
    (Params.make(3, (3, 1, -2, 0), (1, -1, 3, -12)), pp(-1, 0), pp(-1, 2), 9, 1, "y"),
    (Params.make(6, (1, 6, 6, -4), (2, -1, 1, -11)), pp(-1, -5), pp(1, 3), 10, 2, "y"),
    (Params.make(4, (-2, 3, -6, -6), (6, -1, -4, -8)), pp(1, 4), pp(1, -5), 7, 1, "y"),
    (Params.make(6, (5, 6, 2, -2), (3, 10, 0, -4)), pp(1, -7), pp(1, 5), 9, 1, "y"),
], ids=["minus-minus", "minus-plus", "plus-minus", "plus-plus"])
def test_jump_stops_exactly_at_its_horizon(monkeypatch, p, y0, z0, at, steps, leaves):
    # the jump takes horizon + 1 steps though more are left, and the table
    # leaves the fit at the next index: one step further would be wrong.
    # The step after it is concrete, with no attempt.
    log = _record_jumps(monkeypatch)
    window = (0, 14)
    tree = evolve(p, 0, y0, z0, window, max_branches=1)
    assert (tree.tables, tree.truncated) == evolve_stepping(p, 0, y0, z0, window, 1)
    (jump,) = [j for j in log if j.steps]
    assert (jump.m, jump.d, jump.steps) == (at, 1, steps)
    assert jump.steps == jump.horizon + 1 < jump.left
    (t,) = tree.tables
    end = at + steps
    col = t.y if leaves == "y" else t.z
    assert col(end).sign == col(end - 1).sign and col(end).amp - col(end - 1).amp == col(end - 1).amp - col(end - 2).amp
    assert col(end + 1).sign != col(end).sign or col(end + 1).amp - col(end).amp != col(end).amp - col(end - 1).amp
    assert end not in [j.m for j in log]


def _rows_on_lines(d):
    """Five rows as ten cells in ``evolve``'s write order for direction d: y
    of sign +1 on the line 3t + 4 and z of sign -1 on 2t, t = -4..0."""
    rows = []
    for t in range(-4, 1):
        y, z = ParityPair(1, 3 * t + 4), ParityPair(-1, 2 * t)
        rows += [z, y] if d > 0 else [y, z]
    return rows


@pytest.mark.parametrize("d", [1, -1], ids=["forward", "backward"])
def test_jump_takes_one_child_that_continues_both_fits(d):
    # the step runs once on the fits, (y, z) in that order and m as an Aff of
    # slope d; it is taken only if it gives one child whose cells, in write
    # order, have each fit's sign, slope and next intercept.  A child that meets
    # the fit's next cell at t = 0 with another slope leaves it after one step.
    # The check compares no Aff, so it records nothing.
    seen = []

    def expanding(child):
        """An ``expand_at`` whose one expansion logs its input and gives
        ``child``, a list of children of (sign, slope, intercept) cells."""
        def expand_at(m, d_step):
            def expand(yz):
                seen.append(((m.s, m.c), d_step, [(c.sign, c.amp.s, c.amp.c) for c in yz], m.horizon))
                return [[ParityPair(s, Aff(k, c, m.horizon)) for s, k, c in cells] for cells in child]
            return expand
        return expand_at

    def in_order(y, z):
        return [z, y] if d > 0 else [y, z]

    y1, z1 = (1, 3, 7), (-1, 2, 2)
    n, cells = evolution._affine_jump(expanding([in_order(y1, z1)]), 10, d, 3, _rows_on_lines(d))
    assert n == 3
    assert cells == [c for k in range(3) for c in in_order(ParityPair(1, 7 + 3 * k), ParityPair(-1, 2 + 2 * k))]
    # eight steps: the first three are one run, its lines in write order, then
    # None in the run's other slots and the last five rows as cells
    n, cells = evolution._affine_jump(expanding([in_order(y1, z1)]), 10, d, 8, _rows_on_lines(d))
    assert n == 8
    assert cells[0] == (3, *in_order((1, 3, 7), (-1, 2, 2))) and type(cells[0]) is evolution._Run
    assert cells[1:6] == [None] * 5
    assert cells[6:] == [c for k in range(3, 8) for c in in_order(ParityPair(1, 7 + 3 * k), ParityPair(-1, 2 + 2 * k))]
    assert seen[0][:3] == ((d, 10), d, [(1, 3, 4), (-1, 2, 0)])
    for child in ([in_order((1, 2, 7), z1)], [in_order((-1, 3, 7), z1)], [in_order((1, 3, 8), z1)],
                  [in_order(y1, (-1, 1, 2))], [in_order(y1, z1)] * 2, [], [in_order(z1, y1)]):
        del seen[:]
        assert evolution._affine_jump(expanding(child), 10, d, 3, _rows_on_lines(d)) == (0, ())
        assert seen[0][3].t is None
    # rows off a line are not stepped
    rows = _rows_on_lines(d)
    rows[0] = ParityPair(rows[0].sign, 99)
    del seen[:]
    assert evolution._affine_jump(expanding([in_order(y1, z1)]), 10, d, 3, rows) == (0, ()) and seen == []


def test_golden_jumps_take_the_window_in_few_steps(monkeypatch, p42):
    # from the golden state both columns are affine on m >= 1 and on m <= -1
    # in either sector: five concrete steps each way reach five rows on a line
    # on the step's side of m0, where the first attempt of each direction is
    # made, and that one jump fills the rest of the window
    log = _record_jumps(monkeypatch)
    calls = []
    step = evolution.step_z_parity

    def counting(*args):
        calls.append(args[1])
        return step(*args)

    monkeypatch.setattr(evolution, "step_z_parity", counting)
    for sign in (1, -1):
        del log[:], calls[:]
        tree = evolve(p42, 0, pp(sign, 43), pp(sign, 40), (-400, 400))
        assert [(j.m, j.d, j.steps, j.horizon) for j in log] == [(5, 1, 395, None), (-5, -1, 395, None)]
        assert len(calls) == 2 * (10 + 2)  # a z- and a y-step each, as step_y_parity mirrors step_z_parity
        assert tree == evolve_stepping(p42, 0, pp(sign, 43), pp(sign, 40), (-400, 400))


def test_no_jump_is_attempted_while_two_tables_are_live(monkeypatch):
    # all-zero parameters tie every step from a plus state: the frontier holds
    # two or more tables from the first step on, so no step runs on Aff values
    p = Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0))
    log = _record_jumps(monkeypatch)
    seen = []
    step = evolution.step_z_parity
    monkeypatch.setattr(evolution, "step_z_parity", lambda q, m, y, z: seen.append(m) or step(q, m, y, z))
    for window in ((0, 8), (-8, 0), (-8, 8)):
        tree = evolve(p, 0, pp(1, 0), pp(1, 0), window, max_branches=64)
        assert len(tree.tables) > 1
    assert log == [] and all(type(m) is int for m in seen)


# --- the frontier engine on synthetic steps ---------------------------------------


def _cell(n):
    return ParityPair(1, n)


_ROOT = [_cell(0), _cell(0)]


def _grow(steps, cap, window, jump=None):
    """``grow_tables`` from ``_ROOT`` at index 0 over the listed steps."""
    return grow_tables(_ROOT, steps.__getitem__, cap, 0, window, jump)


def _at(m):
    """The positions of (y_m, z_m), m >= 0, in a frontier rooted at 0."""
    return (2 * m + 1, 2 * m) if m else (0, 1)


def _forward(m, children, calls=None):
    """A synthetic forward step at m: the state (y_m, z_m), read as the pair of
    amplitudes, has the children ``children[state]``, (z, y) amplitude pairs
    of index m+1.  ``calls`` collects the states expanded."""
    def expand(yz):
        state = (yz[0].amp, yz[1].amp)
        if calls is not None:
            calls.append(state)
        return ([_cell(z), _cell(y)] for z, y in children[state])
    return _at(m), expand


def _rows(tree):
    """Each table as its (y, z) amplitude rows."""
    return [list(zip(t.ay, t.az)) for t in tree.tables]


def test_grow_tables_drops_only_the_childless_partials():
    # two partial tables end in the dead state (2, 2), one from each parent;
    # their siblings and cousins live on
    steps = [
        _forward(0, {(0, 0): [(1, 1), (2, 2)]}),
        _forward(1, {(1, 1): [(3, 3), (2, 2)], (2, 2): [(2, 2), (4, 4)]}),
        _forward(2, {(3, 3): [(5, 5)], (2, 2): [], (4, 4): [(6, 6)]}),
    ]
    tree = _grow(steps, 64, (0, 3))
    assert _rows(tree) == [
        [(0, 0), (1, 1), (3, 3), (5, 5)],
        [(0, 0), (2, 2), (4, 4), (6, 6)],
    ]
    assert not tree.truncated


def test_grow_tables_keeps_truncated_after_a_later_dead_end():
    # the first step has three children for a cap of two; the next leaves one
    steps = [
        _forward(0, {(0, 0): [(1, 1), (2, 2), (3, 3)]}),
        _forward(1, {(1, 1): [], (2, 2): [(4, 4)]}),
    ]
    tree = _grow(steps, 2, (0, 2))
    assert _rows(tree) == [[(0, 0), (2, 2), (4, 4)]]
    assert tree.truncated
    # every state a dead end: no table, and still truncated
    tree = _grow(steps[:1] + [_forward(1, {(1, 1): [], (2, 2): []})], 2, (0, 2))
    assert tree.tables == () and tree.truncated


def test_grow_tables_pairs_the_halves_as_each_was_cut():
    # the one case where the product of the halves and the per-step frontier
    # differ: a backward state with no children after a cut.  Two forward
    # leaves, 1 and 2; the backward half has the children 1, 2 and 3 of the
    # start, and 1 has none at the next step.  The half is cut nowhere, so
    # the four pairs of its two leaves fill the cap of 4 without truncation;
    # stepped per step, the cap keeps 1-1, 1-2, 1-3 and 2-1, two of which die
    def backward(m, children):
        return cell_positions(0, 1, m), lambda yz: ([_cell(a), _cell(a)] for a in children[yz[0].amp])

    steps = [
        _forward(0, {(0, 0): [(1, 1), (2, 2)]}),
        backward(0, {0: [-1, -2, -3]}),
        backward(-1, {-1: [], -2: [-4], -3: [-5]}),
    ]
    tree = _grow(steps, 4, (-2, 1))
    assert _rows(tree) == [[(b, b), (a, a), (0, 0), (f, f)] for f in (1, 2) for a, b in ((-2, -4), (-3, -5))]
    assert not tree.truncated
    stepped = grow_tables_per_step(_ROOT, steps.__getitem__, 4, 0, (-2, 1))
    assert _rows(stepped) == _rows(tree)[:2] and stepped.truncated
    # with room for every path the two agree
    assert _grow(steps, 6, (-2, 1)) == grow_tables_per_step(_ROOT, steps.__getitem__, 6, 0, (-2, 1)) == tree


def test_grow_tables_siblings_keep_separate_cells():
    # the last child of a partial table extends it in place; its siblings are
    # copies, and two partial tables in one state share that state's children
    # without changing them
    calls = []
    steps = [
        _forward(0, {(0, 0): [(1, 1), (1, 1), (2, 2)]}),
        _forward(1, {(1, 1): [(5, 5), (6, 6)], (2, 2): [(7, 7)]}, calls),
        _forward(2, {(5, 5): [(8, 8)], (6, 6): [(9, 9), (10, 10)], (7, 7): [(11, 11)]}),
    ]
    tree = _grow(steps, 64, (0, 3))
    assert _rows(tree) == [
        [(0, 0), (1, 1), (5, 5), (8, 8)],
        [(0, 0), (1, 1), (6, 6), (9, 9)],
        [(0, 0), (1, 1), (6, 6), (10, 10)],
        [(0, 0), (1, 1), (5, 5), (8, 8)],
        [(0, 0), (1, 1), (6, 6), (9, 9)],
        [(0, 0), (1, 1), (6, 6), (10, 10)],
        [(0, 0), (2, 2), (7, 7), (11, 11)],
    ]
    assert calls == [(1, 1), (2, 2)]


def test_grow_tables_children_keep_the_frontier_order():
    # children follow their parents' order, not their states' order, and the
    # cap keeps the first of them
    steps = [
        _forward(0, {(0, 0): [(3, 3), (1, 1), (2, 2)]}),
        _forward(1, {(n, n): [(10 * n, 10 * n), (10 * n + 1, 10 * n + 1)] for n in (1, 2, 3)}),
    ]
    tree = _grow(steps, 64, (0, 2))
    assert [rows[-1][0] for rows in _rows(tree)] == [30, 31, 10, 11, 20, 21]
    capped = _grow(steps, 4, (0, 2))
    assert capped.tables == tree.tables[:4] and capped.truncated


def test_grow_tables_backward_and_one_cell_steps():
    # a riccati-style half step reads one cell, and a backward step writes
    # cells below the root; the columns are read by position, z_1 before y_1
    # and y_-1 before z_-1
    steps = [
        ((0,), lambda y: ([_cell(y.amp + k)] for k in (1, 2))),
        ((0,), lambda y: [[_cell(y.amp - 1)]]),
        ((0, 1), lambda yz: [[_cell(7), _cell(8)]]),
    ]
    tree = _grow(steps, 64, (-1, 1))
    assert _rows(tree) == [[(7, 8), (0, 0), (-1, 1)], [(7, 8), (0, 0), (-1, 2)]]


def test_grow_tables_offers_a_jump_only_while_one_table_is_live():
    # two tables from step 0 on; one dies at step 2, so the jump is offered at
    # step 3: it takes steps 3 and 4, whose cells land at rows 4 and 5, and the
    # frontier expands step 5 from them without offering it.  Step 5 branches,
    # step 6 leaves one table, and the jump is offered again at 7, which it
    # declines, and at 8, which it takes
    calls = []
    steps = [
        _forward(0, {(0, 0): [(1, 1), (2, 2)]}, calls),
        _forward(1, {(1, 1): [(1, 1)], (2, 2): [(2, 2)]}, calls),
        _forward(2, {(1, 1): [(4, 4)], (2, 2): []}, calls),
        _forward(3, {}, calls),
        _forward(4, {}, calls),
        _forward(5, {(6, 6): [(7, 7), (8, 8)]}, calls),
        _forward(6, {(7, 7): [(9, 9)], (8, 8): []}, calls),
        _forward(7, {(9, 9): [(10, 10)]}, calls),
        _forward(8, {}, calls),
    ]
    offered, jumps = [], {3: [5, 6], 8: [10]}  # the amplitudes of the rows each jump writes

    def jump(i, t):
        offered.append((i, t[_at(i)[0]].amp, len(t)))
        amps = jumps.get(i, [])
        return len(amps), [cell for a in amps for cell in (_cell(a), _cell(a))]

    tree = _grow(steps, 64, (0, 9), jump)
    assert offered == [(0, 0, 2), (3, 4, 8), (7, 9, 16), (8, 10, 18)]
    assert calls == [(0, 0), (1, 1), (2, 2), (1, 1), (2, 2), (6, 6), (7, 7), (8, 8), (9, 9)]
    assert _rows(tree) == [[(0, 0), (1, 1), (1, 1), (4, 4), (5, 5), (6, 6), (7, 7), (9, 9), (10, 10), (10, 10)]]
    assert not tree.truncated


@pytest.mark.parametrize("d, amp", [(1, 3), (2, F(3, 2))])
def test_grow_tables_one_point_window(d, amp):
    # no step: the root is the one leaf, its cells as they entered, an int or
    # a Fraction of denominator d
    tree = grow_tables([_cell(amp), _cell(-amp)], [].__getitem__, 1, 5, (5, 5))
    assert tree == ((pair_table(5, (_cell(amp),), (_cell(-amp),)),), False)
    assert type(tree.tables[0].ay[0]) is type(amp) and amp.denominator == d


def _y(m):
    return ParityPair(1, m)


def _z(m):
    return ParityPair(-1, m)


def _labelled_steps(m0, lo, hi, half):
    """Synthetic steps over [lo, hi] from m0 whose cells name their column (y
    sign +1, z sign -1) and index (the amplitude), read by ``cell_positions``:
    (z, y) pairs forward and (y, z) pairs backward, or with ``half`` the
    riccati order of one cell a step, z_m0 first.  Each step checks that it
    reads the cells it names."""
    at = partial(cell_positions, m0, hi)

    def write(reads, named, cells):
        def expand(state):
            assert state == named
            return [cells]
        return reads, expand

    steps = [write((at(m0)[0],), _y(m0), [_z(m0)])] if half else []
    for m in range(m0, hi):
        if half:
            steps += write((at(m)[0],), _y(m), [_z(m + 1)]), write((at(m + 1)[1],), _z(m + 1), [_y(m + 1)])
        else:
            steps.append(write(at(m), (_y(m), _z(m)), [_z(m + 1), _y(m + 1)]))
    for m in range(m0, lo, -1):
        if half:
            steps += write((at(m)[1],), _z(m), [_y(m - 1)]), write((at(m - 1)[0],), _y(m - 1), [_z(m - 1)])
        else:
            steps.append(write(at(m), (_y(m), _z(m)), [_y(m - 1), _z(m - 1)]))
    return steps


@pytest.mark.parametrize("half", [False, True], ids=["two-cell", "one-cell"])
@pytest.mark.parametrize("m0, lo, hi", [(-3, -3, 2), (0, -3, 2), (2, -3, 2), (4, 4, 4)],
                         ids=["m0-at-lo", "m0-inside", "m0-at-hi", "one-point"])
def test_grow_tables_leaf_holds_each_cell_at_its_row(m0, lo, hi, half):
    # the position rule at the window's edges: the leaf holds y_m and z_m at
    # row m, whichever end of the window the root is at
    steps = _labelled_steps(m0, lo, hi, half)
    root = [_y(m0)] if half else [_y(m0), _z(m0)]
    tree = grow_tables(root, steps.__getitem__, 1, m0, (lo, hi))
    rows = range(lo, hi + 1)
    assert tree == ((pair_table(lo, list(map(_y, rows)), list(map(_z, rows))),), False)


# --- rational inputs ----------------------------------------------------------------


def _oracle_failures(p, t):
    bad = []
    for m in range(t.m_lo, t.m_hi):
        if not zz_by_cases(p, m, t.y(m), t.z(m), t.z(m + 1)):
            bad.append((m, "zz"))
        if not yy_by_cases(p, m, t.y(m), t.y(m + 1), t.z(m + 1)):
            bad.append((m, "yy"))
    return bad


_RATIONAL = st.builds(F, st.integers(-24, 24), st.integers(1, 12))


@st.composite
def _rational_case(draw):
    """Constrained parameters and a state, all with denominators in 1..12."""
    q = draw(st.builds(F, st.integers(1, 24), st.integers(1, 12)))
    a = [draw(_RATIONAL) for _ in range(4)]
    b1, b2, b3 = (draw(_RATIONAL) for _ in range(3))
    b4 = b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3
    y, z = (ParityPair(draw(st.sampled_from((1, -1))), draw(_RATIONAL)) for _ in range(2))
    return Params.make(q, a, (b1, b2, b3, b4)), (draw(st.integers(-2, 2)), y, z)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    case=_rational_case(),
    cell=st.tuples(st.integers(-3, 3), st.sampled_from("yz"), st.integers(1, 12)),
)
def test_rational_inputs_agree_with_case_oracles(case, cell):
    p, (m0, y0, z0) = case
    tree = evolve(p, m0, y0, z0, (-3, 3), max_branches=16)
    flat = evolve_noparity(p, m0, y0.amp, z0.amp, (-3, 3))
    for t in tree.tables + (flat,):
        assert not _oracle_failures(p, t)
        assert not painleve_failures(p, t)
    assert all((t.y(m0), t.z(m0)) == (y0, z0) for t in tree.tables)
    assert all(type(a) is F for t in tree.tables + (flat,) for a in t.ay + t.az)
    # one cell moved by 1/k: its denominator need not divide the parameters'
    m, which, k = cell
    for t in tree.tables[:2] + (flat,):
        moved = _moved(t, m + 3, which, F(1, k))
        assert painleve_failures(p, moved) == _oracle_failures(p, moved)


def _golden_slice(p42):
    table = evolve(p42, 0, ParityPair(-1, 43), ParityPair(-1, 40), (-3, 3)).tables[0]
    assert all(type(a) is int for a in table.ay + table.az)
    return table


def test_table_image_of_an_int_table_with_fractional_parameters(p42):
    # int cells against Fraction parameters: the kernel mixes the two kinds
    half = Params.make(F(201, 2), (32, F(67, 2), 37, 22), (53, 66, 8, 4))
    table = _golden_slice(p42)
    assert painleve_failures(half, table) == _oracle_failures(half, table)


@pytest.mark.parametrize("amp", [F(40), F(121, 3)], ids=["denominator-1", "denominator-3"])
def test_table_image_of_a_table_with_a_single_fraction_cell(p42, amp):
    # one Fraction cell among int cells; F(40) is z_0's own value
    table = _golden_slice(p42)
    az = list(table.az)
    az[3] = amp
    t = SolutionTable(table.m_lo, table.sy, table.ay, table.sz, tuple(az))
    failures = painleve_failures(p42, t)
    assert failures == _oracle_failures(p42, t) and bool(failures) == (amp.denominator > 1)


# --- affine stretches of the all-minus sector ---------------------------------------


def _rat(draw, lo, hi, d):
    """An int in [lo, hi] when d = 1, else a Fraction with denominator dividing d."""
    n = draw(st.integers(lo * d, hi * d))
    return n if d == 1 else F(n, d)


def _scan_params(draw, d):
    """Constrained parameters in the conjecture scan's ranges, on the grid 1/d."""
    q = _rat(draw, 1, 150, d)
    a = [_rat(draw, -100, 100, d) for _ in range(4)]
    b1, b2, b3 = (_rat(draw, -100, 100, d) for _ in range(3))
    return Params.make(q, a, (b1, b2, b3, b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3))


@st.composite
def _noparity_runs(draw):
    """A start of the all-minus evolution: an off-centre m0 and a window of up
    to 300 steps on each side."""
    d = draw(st.sampled_from((1, 2, 6)))
    m0 = draw(st.integers(-40, 40))
    window = (m0 - draw(st.integers(0, 300)), m0 + draw(st.integers(0, 300)))
    return _scan_params(draw, d), m0, _rat(draw, -150, 150, d), _rat(draw, -150, 150, d), window


_P42 = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(run=_noparity_runs())
# the golden state from each end of a window it jumps across, in a one-point
# window, and on Fractions: the golden state and parameters over 3, off-centre
@example(run=(_P42, 0, 43, 40, (0, 300)))
@example(run=(_P42, 0, 43, 40, (-300, 0)))
@example(run=(_P42, 7, 43, 40, (7, 7)))
@example(run=(Params.make(F(100, 3), (F(32, 3), 11, F(37, 3), F(22, 3)), (F(53, 3), F(65, 3), F(8, 3), F(4, 3))),
              5, F(43, 3), F(40, 3), (-295, 305)))
def test_noparity_jumps_equal_stepping(run):
    assert evolve_noparity(*run) == evolve_noparity_stepping(*run)


def test_noparity_jumps_across_certified_stretches(monkeypatch, p42):
    # the golden state leaves the window on lasting stretches at both ends:
    # most of its 600 steps are filled from the fit, not stepped
    stepped = evolve_noparity_stepping(p42, 0, 43, 40, (-300, 300))
    calls = []
    step = evolution.step_z_noparity
    monkeypatch.setattr(evolution, "step_z_noparity", lambda *a: calls.append(a[1]) or step(*a))
    assert evolve_noparity(p42, 0, 43, 40, (-300, 300)) == stepped
    assert 0 < len(calls) < 40


_NOPARITY_STEPS = json.loads(Path(__file__).with_name("noparity_steps.json").read_text())


def _step_indexes(text: str) -> list:
    """The calls' index arguments from their recorded form: runs "a:b" (or "a")
    of the indexes a, a+-1, ..., b, each called twice, once per relation."""
    out = []
    for part in text.split():
        a, _, b = part.partition(":")
        a, b = int(a), int(b or a)
        d = 1 if b >= a else -1
        out += [m for m in range(a, b + d, d) for _ in (0, 1)]
    return out


@pytest.mark.parametrize("seed", range(8))
def test_noparity_steps_at_recorded_indexes(monkeypatch, seed):
    # the index argument of every step_z_noparity call noparity_amplitudes makes
    # on the conjecture scan's draws (40 a seed over -30:30), as recorded:
    # where each jump starts and how far it goes.  A jump one step short, which
    # still equals the stepping oracle, changes 183 of the 320 lists
    lo, hi = _NOPARITY_STEPS["window"]
    rng = random.Random(seed)
    calls = []
    step = evolution.step_z_noparity
    monkeypatch.setattr(evolution, "step_z_noparity", lambda *a: calls.append(a[1]) or step(*a))
    for i, want in enumerate(_NOPARITY_STEPS["steps"][str(seed)]):
        p = random_constrained_params(rng)  # the scan's draw order: parameters, y0, z0
        y0, z0 = rng.randint(-150, 150), rng.randint(-150, 150)
        calls.clear()
        noparity_amplitudes(p, 0, y0, z0, (lo, hi))
        assert calls == _step_indexes(want), (seed, i)
    assert i + 1 == _NOPARITY_STEPS["n"]


def test_backward_jump_reads_its_inequalities_at_the_next_index(monkeypatch):
    # the primed fit y = z = m (alpha = Q/2) meets its identity, and its
    # inequalities fail at 1 and 0 and hold from -1 down.  At 1 and 0 the two
    # failing maxes of each relation exceed their fit terms by equal amounts,
    # so those steps still land on the fit.  The walk from m0 = 2 steps to 1
    # and 0, finds the fit and reads the inequalities at -1, the index it
    # would step to next, and jumps; read at 0, they fail and cost a step at
    # -1.  (Read at m where they hold but fail at m-1, the horizon is m and
    # the jump is 0 steps long, so no case tells that reading apart.)
    p = Params.make(2, (-1, -1, 1, 1), (2, -1, 0, 3))
    assert [ansatz_inequalities_at(p, LinearAnsatz(1, 0, 0), m, True) for m in (1, 0, -1)] == [False, False, True]
    calls = []
    step = evolution.step_z_noparity
    monkeypatch.setattr(evolution, "step_z_noparity", lambda *a: calls.append(a[1]) or step(*a))
    assert noparity_amplitudes(p, 2, 2, 2, (-20, 2)) == (list(range(-20, 3)), list(range(-20, 3)))
    assert calls == [1, 1, 0, 0]
    assert evolve_noparity(p, 2, 2, 2, (-20, 2)) == evolve_noparity_stepping(p, 2, 2, 2, (-20, 2))


@st.composite
def _certified_fits(draw, transient):
    """Parameters, a fit meeting its identity, a primed flag and the first
    step index of its stretch: the first (last, primed) index of [-200, 200]
    at which its inequalities hold.  ``transient`` draws alpha outside [0, Q]."""
    d = draw(st.sampled_from((1, 1, 2, 3)))
    p = _scan_params(draw, d)
    primed = draw(st.booleans())
    k = _rat(draw, 1, 30, d)
    if transient:
        alpha = draw(st.sampled_from((-k, p.q + k)))
    else:
        alpha = draw(st.sampled_from((-k, p.q + k, F(_rat(draw, 0, 150, d)) * p.q / 150)))
    beta = _rat(draw, -300, 300, d)
    if primed:
        gamma = F(p.b3 + p.b4 - p.a3 - p.a4 - alpha) / 2 + beta
    else:
        gamma = F(p.b3 + p.b4 + p.a1 + p.a2 - alpha) / 2 - beta
    fit = LinearAnsatz(alpha, beta, gamma)
    holds = [m for m in range(-200, 201) if ansatz_inequalities_at(p, fit, m, primed)]
    assume(holds)
    return p, fit, primed, holds[-1] if primed else holds[0]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_certified_fits(transient=True))
def test_finite_horizon_is_tight(case):
    p, fit, primed, first = case
    end = affine_horizon(p, (fit.alpha, fit.beta, fit.gamma), not primed)
    out = -1 if primed else 1
    assert end is not None and (end - first) * out >= 0
    assert all(ansatz_inequalities_at(p, fit, m, primed) for m in range(first, end + out, out))
    assert not ansatz_inequalities_at(p, fit, end + out, primed)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_certified_fits(transient=False))
def test_certified_stretch_is_residual_clean(case):
    # every point of the fit from the first certified step index to one past
    # the horizon (or 60 steps on, when the stretch never ends) solves both
    # relations
    p, fit, primed, first = case
    a, b, g = fit.alpha, fit.beta, fit.gamma
    end = affine_horizon(p, (a, b, g), not primed)
    if primed:
        lo, hi = end if end is not None else first - 60, first + 1
    else:
        lo, hi = first, end + 1 if end is not None else first + 60
    ms = range(lo, hi + 1)
    slope_y = a if primed else p.q - a
    table = pair_table(lo, [ParityPair(-1, slope_y * m + b) for m in ms], [ParityPair(-1, a * m + g) for m in ms])
    assert painleve_failures(p, table) == []


# --- verification by affine runs ------------------------------------------------------


def _record_run_checks(monkeypatch) -> Tuple[list, list]:
    """Patch ``residual_zz`` to log the arguments of each call made while the
    returned switch list is not empty, so that ``evolve``'s calls go unlogged."""
    log, on = [], []
    kernel = evolution.residual_zz

    def recording(*args):
        if on:
            log.append(args)
        return kernel(*args)

    monkeypatch.setattr(evolution, "residual_zz", recording)
    return log, on


def _moved(t: SolutionTable, i: int, column: str, move=None) -> SolutionTable:
    """t with the amplitude of one cell moved by ``move``, or its sign flipped when None."""
    cols = dict(zip("yz", map(list, pair_columns(t))))
    sign, amp = cols[column][i]
    cols[column][i] = ParityPair(-sign, amp) if move is None else ParityPair(sign, amp + move)
    return pair_table(t.m_lo, cols["y"], cols["z"])


def test_run_split_verdicts_equal_per_index_on_evolved_tables(monkeypatch):
    # intact evolved tables and the same tables with one amplitude moved by
    # +-1 or 1/k or one sign flipped: the same list, in the same order, as the
    # per-index loop and the case oracles.  Runs are decided on Aff values in
    # all four sign sectors, on int and Fraction amplitudes.
    log, on = _record_run_checks(monkeypatch)
    failing = []

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        case=_jump_case(),
        cell=st.tuples(st.integers(0, 10**6), st.sampled_from("yz")),
        move=st.sampled_from((1, -1, F(1, 2), F(-1, 3), F(1, 7), None)),
    )
    def check(case, cell, move):
        p, m0, y0, z0, window = case
        tables = evolve(p, m0, y0, z0, window, max_branches=8).tables[:2]
        on.append(True)
        for t in tables:
            assert painleve_failures(p, t) == painleve_failures_per_index(p, t) == _oracle_failures(p, t) == []
            moved = _moved(t, cell[0] % len(t), cell[1], move)
            failures = painleve_failures(p, moved)
            assert failures == painleve_failures_per_index(p, moved) == _oracle_failures(p, moved)
            failing.append(bool(failures))
        on.clear()

    check()
    runs = [(y.sign, z.sign, type(y.amp.c)) for _, m, y, z, _ in log if type(m) is Aff]
    assert {(sy, sz) for sy, sz, _ in runs} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert {amp_type for _, _, amp_type in runs} == {int, F}
    assert sum(failing) > len(failing) // 2


@st.composite
def _affine_tables(draw):
    """Small constrained parameters, signed half the time (with the product
    condition met), amplitudes k/D in [-R, R], R in {1, 2, 3, 6}, D in {1, 2}, and a
    table of one to three affine pieces of 1 to 25 rows: each piece has its own
    signs and steps and starts a small jump after the last.  Also the pieces'
    (first row, rows) pairs."""
    r, d = draw(st.sampled_from((1, 2, 3, 6))), draw(st.sampled_from((1, 1, 2)))

    def amp(bound):
        return st.integers(-bound * d, bound * d).map(lambda n: n if d == 1 else F(n, d))

    sign = st.sampled_from((1, -1))
    q = draw(st.integers(1, r * d).map(lambda n: n if d == 1 else F(n, d)))
    a = [draw(amp(r)) for _ in range(4)]
    b1, b2, b3 = (draw(amp(r)) for _ in range(3))
    sa, sb = [draw(sign) for _ in range(4)], [draw(sign) for _ in range(3)]
    if draw(st.booleans()):
        sa, sb = None, None
    else:
        sb.append(sa[0] * sa[1] * sa[2] * sa[3] * sb[0] * sb[1] * sb[2])
    p = Params.make(q, a, (b1, b2, b3, b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3), sa, sb)
    ys, zs, pieces = [], [], []
    y, z = draw(amp(3 * r)), draw(amp(3 * r))
    for _ in range(draw(st.integers(1, 3))):
        sy, sz, dy, dz, n = draw(sign), draw(sign), draw(amp(r)), draw(amp(r)), draw(st.integers(1, 25))
        pieces.append((len(ys), n))
        for _ in range(n):
            ys.append(ParityPair(sy, y))
            zs.append(ParityPair(sz, z))
            y, z = y + dy, z + dz
        y, z = y + draw(amp(2)), z + draw(amp(2))
    return p, pair_table(draw(st.integers(-10, 10)), ys, zs), pieces


def test_run_split_verdicts_equal_per_index_on_affine_tables():
    # piecewise affine tables where a relation may hold on part of a piece,
    # which puts a horizon inside a run; signed parameters too
    within = {"partly": 0, "at one index": 0, "partly, signed": 0}

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(case=_affine_tables())
    def check(case):
        p, t, pieces = case
        failures = painleve_failures(p, t)
        assert failures == painleve_failures_per_index(p, t)
        signed = any(s != 1 for s in p[9:])
        for first, n in pieces:
            if n - 1 < 8:
                continue
            for rel in ("zz", "yy"):
                holds = [i for i in range(first, first + n - 1) if (t.m_lo + i, rel) not in failures]
                if 0 < len(holds) < n - 1:
                    within["partly"] += 1
                    within["at one index"] += len(holds) == 1
                    within["partly, signed"] += signed

    check()
    assert min(within.values()) >= 50, within


def test_equality_at_one_index_inside_a_run(monkeypatch):
    # the z-relation holds at m = 6 alone on a run of 29 pairs, the y-relation
    # nowhere: an Aff check from m = 6 finds the equality and a horizon of 0,
    # and every check of the run is made on Aff values
    p = Params.make(2, (0, 2, -2, 0), (0, 2, 0, -4))
    t = pair_table(0, (ParityPair(-1, 6),) * 30, (ParityPair(-1, 5),) * 30)
    log, on = _record_run_checks(monkeypatch)
    on.append(True)
    failures = painleve_failures(p, t)
    assert failures == painleve_failures_per_index(p, t)
    assert failures == [(m, rel) for m in range(29) for rel in ("zz", "yy") if (m, rel) != (6, "zz")]
    assert all(type(m) is Aff for _, m, *_ in log) and 6 in [m.c for _, m, *_ in log]


@pytest.mark.parametrize("p", [
    Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4)),
    Params.make(F(201, 2), (32, F(67, 2), 37, 22), (53, 66, 8, 4)),
    Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4), sa=(-1, 1, 1, 1), sb=(-1, 1, 1, 1)),
], ids=["p42", "fraction", "signed"])
def test_one_and_two_row_tables(p):
    golden = pair_table(0, (pp(-1, 43), pp(-1, 122)), (pp(-1, 40), pp(-1, -28)))
    one = SolutionTable(0, golden.sy[:1], golden.ay[:1], golden.sz[:1], golden.az[:1])
    assert painleve_failures(p, one) == [] == painleve_failures_per_index(p, one)
    # the 16 sign patterns (sy_0, sy_1, sz_0, sz_1): a one-pair run may change sign between its rows
    signed = [
        pair_table(0, (pp(sy0, 43), pp(sy1, 122)), (pp(sz0, 40), pp(sz1, -28)))
        for sy0 in (1, -1) for sy1 in (1, -1) for sz0 in (1, -1) for sz1 in (1, -1)
    ]
    for t in (golden, _moved(golden, 1, "z", 1), _moved(golden, 0, "y"), _moved(golden, 1, "y", F(1, 3)), *signed):
        assert painleve_failures(p, t) == painleve_failures_per_index(p, t)


def _signed_at(table, edits):
    """The table with each (column, index, sign) of ``edits`` set."""
    cols = {"sy": list(table.sy), "sz": list(table.sz)}
    for column, m, sign in edits:
        cols[column][m - table.m_lo] = sign
    return SolutionTable(table.m_lo, tuple(cols["sy"]), table.ay, tuple(cols["sz"]), table.az)


@pytest.mark.parametrize("edits, message", [
    (None, "sy at index 0: sign must be +1 or -1, got 0"),
    ([("sy", 0, 0)], "sy at index 0: sign must be +1 or -1, got 0"),
    ([("sz", -20, 2)], "sz at index -20: sign must be +1 or -1, got 2"),
    ([("sz", 20, -2)], "sz at index 20: sign must be +1 or -1, got -2"),
    ([("sy", 7, 0)], "sy at index 7: sign must be +1 or -1, got 0"),
    ([("sz", 7, 0), ("sy", 7, 3)], "sy at index 7: sign must be +1 or -1, got 3"),
    ([("sy", 8, 0), ("sz", 7, 5)], "sz at index 7: sign must be +1 or -1, got 5"),
], ids=["two-rows", "root-row", "first-index", "last-index", "inside-a-run", "sy-before-sz", "lowest-index"])
def test_a_table_sign_outside_plus_minus_1_names_its_cell(p42, edits, message):
    # a ValueError for the lowest index with a bad sign, sy before sz, in place
    # of the kernel's KeyError((0, 1)): a two-row table, and the golden table
    # over +-20, whose runs are long
    if edits is None:
        table = SolutionTable(0, (0, 1), (43, 43), (-1, -1), (40, 40))
    else:
        table = _signed_at(evolve(p42, 0, pp(-1, 43), pp(-1, 40), (-20, 20)).tables[0], edits)
    with pytest.raises(ValueError) as exc:
        painleve_failures(p42, table)
    assert str(exc.value) == message


@pytest.mark.parametrize("rows", range(1, 10))
def test_short_tables_equal_per_index_check(monkeypatch, p42, rows):
    # tables of 1-9 rows, intact and with each cell moved or its sign flipped:
    # the per-index list, in its order.  Every check of a table of two or more
    # rows runs on Aff values, whatever the length of its runs.
    const = Params.make(2, (0, 2, -2, 0), (0, 2, 0, -4))
    window = (-(rows // 2), rows - 1 - rows // 2)
    cases = [
        (p42, evolve_noparity(p42, 0, 43, 40, window)),
        (p42, evolve(p42, 0, pp(1, 43), pp(1, 40), window).tables[0]),
        (const, pair_table(0, (ParityPair(-1, 6),) * rows, (ParityPair(-1, 5),) * rows)),
    ]
    log, on = _record_run_checks(monkeypatch)
    on.append(True)
    for p, t in cases:
        variants = [t] + [
            _moved(t, i, column, move)
            for i in range(rows) for column in "yz" for move in (1, -1, F(1, 3), None)
        ]
        for v in variants:
            assert painleve_failures(p, v) == painleve_failures_per_index(p, v)
    assert all(type(m) is Aff for _, m, *_ in log) and bool(log) == (rows >= 2)


def test_golden_verify_decides_each_run_once(monkeypatch, p42):
    # the golden table over +-400 in either sector is two affine runs and two
    # single pairs: eight residual calls in place of 1,600, and the bound
    # leaves twice that.  With one cell moved, the per-index check's list.
    calls = []
    for name in ("residual_zz", "residual_yy"):
        kernel = getattr(evolution, name)
        monkeypatch.setattr(evolution, name, lambda *a, kernel=kernel: calls.append(a[1]) or kernel(*a))
    for sign in (1, -1):
        table = SolutionTable.from_csv_text(
            evolve(p42, 0, ParityPair(sign, 43), ParityPair(sign, 40), (-400, 400)).tables[0].to_csv_text()
        )
        calls.clear()
        assert painleve_failures(p42, table) == []
        assert len(calls) <= 16
        moved = _moved(table, 600, "y", 1)
        assert painleve_failures(p42, moved) == painleve_failures_per_index(p42, moved) == [
            (199, "yy"), (200, "zz"), (200, "yy"),
        ]


# --- table serialization ------------------------------------------------------------


def test_table_csv_roundtrip(p42):
    t = evolve_noparity(p42, 0, 43, 40, (-3, 3))
    text = t.to_csv_text()
    assert text.splitlines()[0] == "m,sy,Y,sz,Z"
    assert SolutionTable.from_csv_text(text) == t


def test_table_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        SolutionTable.from_csv_text("a,b,c\n1,2,3\n")


def test_table_requires_contiguous_window():
    with pytest.raises(ValueError, match="contiguous"):
        SolutionTable.from_csv_text("m,sy,Y,sz,Z\n0,1,0,1,0\n2,1,0,1,0\n")
