from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udp6 import riccati
from udp6.evolution import painleve_failures
from udp6.riccati import (
    _samples,
    check_riccati_conditions,
    residual_riccati1,
    residual_riccati2,
    riccati_close_z,
    riccati_evolve,
    riccati_failures,
    riccati_step_back_y,
    riccati_step_y,
    riccati_step_z,
    solve_one_unknown,
)
from udp6.system import ConstraintViolation, ParityPair, Params
from udp6.tables import SolutionTable

from oracles import (
    gauge,
    pair_columns,
    pair_table,
    random_parity_pair,
    random_riccati_params,
    riccati_evolve_fractions,
    theorem_check,
)

F = Fraction


def pp(sign, amp):
    return ParityPair(sign, F(amp))


def members(branches):
    """The pairs a step's (sign, interval) branches offer under the
    all-breakpoints sampling policy."""
    return [ParityPair(sign, x) for sign, iv in branches for x in _samples(iv, "all-breakpoints")]


# --- conditions -----------------------------------------------------------------


def test_conditions_examples(p41):
    assert check_riccati_conditions(p41)  # 126 = 126 and 88 = 88
    assert check_riccati_conditions(Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0)))
    assert not check_riccati_conditions(
        Params.make(100, (25, 46, 67, 23), (60, 65, 1, 42))
    )


def test_residuals_require_conditions(p42):
    assert not check_riccati_conditions(p42)
    table = pair_table(0, (pp(1, 0), pp(1, 0)), (pp(1, 0), pp(1, 0)))
    with pytest.raises(ConstraintViolation):
        riccati_failures(p42, table)


# --- residuals ---------------------------------------------------------------------


def test_residual_riccati2_examples(p41):
    assert residual_riccati2(p41, 1, pp(-1, 69), pp(1, 119))
    assert not residual_riccati2(p41, 1, pp(-1, 69), pp(1, 120))


def test_residual_riccati1_examples(p41):
    assert residual_riccati1(p41, 1, pp(-1, 107), pp(1, 119))
    assert not residual_riccati1(p41, 1, pp(-1, 106), pp(1, 119))


def test_double_minus_has_no_solution(p41, rng):
    for _ in range(300):
        y = ParityPair(-1, F(rng.randint(-99, 99)))
        z = ParityPair(-1, F(rng.randint(-99, 99)))
        m = rng.randint(-5, 5)
        assert not residual_riccati2(p41, m, y, z)
        assert not residual_riccati1(p41, m, y, z)


def _r2_by_cases(p, m, y, z1):
    Y, Z = y.amp, z1.amp
    mq = m * p.q
    if z1.sign == 1 and y.sign == 1:
        return max(mq + p.a2 + p.b4, Y + Z) == max(Z + p.a4, Y + p.b4)
    if z1.sign == 1 and y.sign == -1:
        return max(mq + p.a2, Y) + p.b4 == Z + max(Y, p.a4)
    if z1.sign == -1 and y.sign == 1:
        return max(mq + p.a2 + p.b4, Z + p.a4) == Y + max(Z, p.b4)
    return False


def _r1_by_cases(p, m, y1, z1):
    Y, Z = y1.amp, z1.amp
    mq = m * p.q
    if z1.sign == 1 and y1.sign == 1:
        return max(mq + p.a3 + p.b1, Y + Z) == max(Z + p.a3, Y + p.b3)
    if z1.sign == 1 and y1.sign == -1:
        return max(mq + p.a3 + p.b1, Y + p.b3) == Z + max(Y, p.a3)
    if z1.sign == -1 and y1.sign == 1:
        return max(mq + p.b1, Z) + p.a3 == Y + max(Z, p.b3)
    return False


def test_residuals_agree_with_case_reductions(rng):
    for _ in range(1000):
        p = random_riccati_params(rng)
        m = rng.randint(-5, 5)
        y, z1 = random_parity_pair(rng), random_parity_pair(rng)
        assert residual_riccati2(p, m, y, z1) == _r2_by_cases(p, m, y, z1)
        assert residual_riccati1(p, m, y, z1) == _r1_by_cases(p, m, y, z1)


# --- steps ------------------------------------------------------------------------


def test_step_z_point_solution(p41):
    res = riccati_step_z(p41, 1, pp(-1, 69))
    assert res == ((1, (119, 119)),)


def test_step_z_degenerate_interval(p41):
    # y amplitude at A4 leaves a half-line of valid next values
    res = riccati_step_z(p41, 0, pp(1, 23))
    assert (1, (65, None)) in res
    for cand in members(res):
        assert residual_riccati2(p41, 0, pp(1, 23), cand)


def test_step_y_point_solution(p41):
    res = riccati_step_y(p41, 1, pp(1, 119))
    assert (-1, (107, 107)) in res


def test_steps_never_emit_forbidden_sign_pair(rng):
    for _ in range(300):
        p = random_riccati_params(rng)
        m = rng.randint(-4, 4)
        y = random_parity_pair(rng)
        for sign, _ in riccati_step_z(p, m, y):
            assert not (y.sign == -1 and sign == -1)
        z = random_parity_pair(rng)
        for sign, _ in riccati_step_y(p, m, z):
            assert not (z.sign == -1 and sign == -1)


def test_steps_always_have_a_branch(rng):
    for _ in range(500):
        p = random_riccati_params(rng)
        m = rng.randint(-4, 4)
        assert riccati_step_z(p, m, random_parity_pair(rng))
        assert riccati_step_y(p, m, random_parity_pair(rng))
        assert riccati_close_z(p, m, random_parity_pair(rng))
        assert riccati_step_back_y(p, m, random_parity_pair(rng))


def test_step_samples_satisfy_residuals(rng):
    for _ in range(300):
        p = random_riccati_params(rng)
        m = rng.randint(-4, 4)
        y = random_parity_pair(rng)
        for cand in members(riccati_step_z(p, m, y)):
            assert residual_riccati2(p, m, y, cand)
        z = random_parity_pair(rng)
        for cand in members(riccati_step_y(p, m, z)):
            assert residual_riccati1(p, m, cand, z)
        for cand in members(riccati_close_z(p, m, y)):
            assert residual_riccati1(p, m - 1, y, cand)
        for cand in members(riccati_step_back_y(p, m, z)):
            assert residual_riccati2(p, m - 1, cand, z)


def test_step_gauge_equivariance(p41):
    res = riccati_step_z(p41, 1, pp(-1, 69))
    shifted = riccati_step_z(gauge(p41, 3), 1, pp(-1, 72))
    assert shifted == tuple(
        (s, tuple(None if e is None else e + 3 for e in iv)) for s, iv in res
    )


# --- evolution -----------------------------------------------------------------------


def test_riccati_evolve_matches_affine_family(p41):
    res = riccati_evolve(p41, 1, pp(-1, 69), (1, 6))
    assert not res.truncated
    assert len(res.tables) == 1
    t = res.tables[0]
    for m in range(1, 7):
        assert t.y(m) == ParityPair(-1, F(38 * m + 31))
        assert t.z(m) == ParityPair(1, F(62 * m - 5))
    assert not riccati_failures(p41, t)


def test_riccati_evolve_backward_window(p41):
    res = riccati_evolve(p41, 0, pp(-1, 40), (-5, 5))
    assert res.tables
    for t in res.tables:
        assert not riccati_failures(p41, t)
        assert theorem_check(p41, t)
        assert not painleve_failures(p41, t)


def test_riccati_evolve_sampling_policies(p41):
    for policy in ("endpoints", "midpoint", "all-breakpoints"):
        res = riccati_evolve(p41, 0, pp(1, 23), (-2, 3), sampling=policy)
        assert res.tables
        for t in res.tables:
            assert not riccati_failures(p41, t)


@pytest.mark.parametrize("window", [(0, 0), (-2, 3)])
def test_riccati_evolve_rejects_unknown_sampling(p41, window):
    # checked on entry, before any step: a window of one point runs one step
    with pytest.raises(ValueError, match="sampling"):
        riccati_evolve(p41, 0, pp(1, 23), window, sampling="nope")


@pytest.mark.parametrize("policy", ["endpoints", "midpoint", "all-breakpoints"])
def test_riccati_evolve_is_exact_on_int_params(p41, policy):
    # int parameters and an int y0: every sample, midpoints included, is an
    # exact int, never a float or a Fraction
    res = riccati_evolve(p41, 0, ParityPair(1, 23), (-2, 3), sampling=policy)
    assert res.tables
    amps = [a for t in res.tables for a in t.ay + t.az]
    assert all(type(a) is int for a in amps), amps
    for t in res.tables:
        assert not riccati_failures(p41, t)


def test_riccati_evolve_random_theorem_suite(rng):
    for _ in range(120):
        p = random_riccati_params(rng)
        y0 = random_parity_pair(rng)
        res = riccati_evolve(p, 0, y0, (-4, 4))
        assert res.tables
        for t in res.tables:
            assert not riccati_failures(p, t)
            assert theorem_check(p, t)
            assert not painleve_failures(p, t)


@st.composite
def riccati_starts(draw):
    """Riccati-conditioned parameters, a start index and y0, with amplitudes
    in [-12, 12] and Q in [1, 12] (small enough for ties, so rays and whole
    lines occur); a third of them over a denominator 2 or 6."""
    den = draw(st.sampled_from((1, 1, 1, 1, 2, 6)))
    small = st.integers(-12, 12).map(lambda n: F(n, den))
    q = F(draw(st.integers(1, 12)), den)
    a = draw(st.lists(small, min_size=4, max_size=4))
    b3, b4 = draw(small), draw(small)
    p = Params.make(q, a, (q + a[0] + b3 - a[2], a[1] + b4 - a[3], b3, b4))
    return p, draw(st.integers(-4, 4)), ParityPair(draw(st.sampled_from((1, -1))), draw(small))


@pytest.mark.parametrize("policy", ["endpoints", "midpoint", "all-breakpoints"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(start=riccati_starts(), cap=st.sampled_from((8, 64)))
def test_riccati_evolve_matches_fraction_reference(policy, start, cap):
    # the integer route gives the tables and the truncation flag of the same
    # evolution run on Fractions
    p, m0, y0 = start
    tree = riccati_evolve(p, m0, y0, (-4, 4), sampling=policy, max_branches=cap)
    assert (tree.tables, tree.truncated) == riccati_evolve_fractions(p, m0, y0, (-4, 4), policy, cap)
    for t in tree.tables:
        assert not riccati_failures(p, t)


@st.composite
def small_riccati_states(draw, r=4):
    """Int parameters within +-r meeting both first-order conditions, with Q
    in -r..r (zero and negative included), an index, and a known cell within
    +-3r."""
    q = draw(st.integers(-r, r))
    a = draw(st.lists(st.integers(-r, r), min_size=4, max_size=4))
    b3, b4 = draw(st.integers(-r, r)), draw(st.integers(-r, r))
    p = Params.make(q, a, (q + a[0] + b3 - a[2], a[1] + b4 - a[3], b3, b4))
    known = ParityPair(draw(st.sampled_from((1, -1))), draw(st.integers(-3 * r, 3 * r)))
    return p, draw(st.integers(-3, 3)), known


@settings(derandomize=True, max_examples=400, deadline=None)
@given(state=small_riccati_states(), policy=st.sampled_from(("endpoints", "midpoint", "all-breakpoints")))
def test_every_riccati_step_has_a_child(state, policy):
    # each of the four steps has a non-empty interval for some sign it tries
    # (the existence argument of the module docstring), so a run with cap 1
    # keeps one table under every sampling policy
    p, m, known = state
    for step in (riccati_step_z, riccati_step_y, riccati_close_z, riccati_step_back_y):
        assert step(p, m, known), step.__name__
    tree = riccati_evolve(p, m, known, (m - 3, m + 3), sampling=policy, max_branches=1)
    assert len(tree.tables) == 1


# Riccati-conditioned parameters with denominators up to 6
P_D6 = Params.make(F(1, 6), (0, F(5, 6), 1, F(4, 3)), (F(-1, 6), F(-5, 6), F(2, 3), F(-1, 3)))


def test_riccati_evolve_long_midpoint_window_matches_fraction_reference():
    # 121 steps on Fractions; the rays' interior samples sit 1 in from their ends
    p = P_D6
    y0 = ParityPair(-1, F(-1, 3))
    tree = riccati_evolve(p, 0, y0, (-30, 30), sampling="midpoint")
    assert (tree.tables, tree.truncated) == riccati_evolve_fractions(p, 0, y0, (-30, 30), "midpoint", 64)
    assert len(tree.tables) == 8 and not tree.truncated
    assert tree.tables != riccati_evolve(p, 0, y0, (-30, 30)).tables
    assert any(a.denominator > 1 for t in tree.tables for a in t.ay + t.az)
    for t in tree.tables:
        assert not riccati_failures(p, t)


def _failures_on_fractions(p, table):
    # the two relations checked on the rational values as given
    bad = [(m, "r2") for m in range(table.m_lo, table.m_hi)
           if not residual_riccati2(p, m, table.y(m), table.z(m + 1))]
    return bad + [(m, "r1") for m in range(table.m_lo - 1, table.m_hi)
                  if not residual_riccati1(p, m, table.y(m + 1), table.z(m + 1))]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(start=riccati_starts(), data=st.data())
def test_riccati_failures_match_fraction_check(start, data):
    # riccati_failures reports the (m, relation) list of the check on
    # Fractions, for solutions and for tables with cells moved
    p, m0, y0 = start
    table = riccati_evolve(p, m0, y0, (-4, 4), max_branches=8).tables[0]
    moves = st.sampled_from((0, 0, F(1, 6), F(-1, 2), F(1)))
    flips = st.sampled_from((1, 1, 1, -1))
    ys, zs = (
        [ParityPair(c.sign * data.draw(flips), c.amp + data.draw(moves)) for c in col]
        for col in pair_columns(table)
    )
    moved = pair_table(table.m_lo, ys, zs)
    assert riccati_failures(p, table) == [] == _failures_on_fractions(p, table)
    assert riccati_failures(p, moved) == _failures_on_fractions(p, moved)


def test_riccati_evolve_expands_each_state_once(monkeypatch):
    # each step reads one cell, so with the frontier expanding each distinct
    # state once per step no step sees the same (m, known) input twice
    seen = []

    def counting(name):
        step = getattr(riccati, name)

        def wrapper(p, m, known):
            seen.append((name, m, known))
            return step(p, m, known)
        return wrapper

    for name in ("riccati_step_z", "riccati_step_y", "riccati_close_z", "riccati_step_back_y"):
        monkeypatch.setattr(riccati, name, counting(name))
    p = Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0))
    tree = riccati_evolve(p, 0, pp(1, 0), (-5, 5), sampling="all-breakpoints")
    assert len(tree.tables) == 64 and tree.truncated
    assert len(seen) > 21 and len(seen) == len(set(seen))


@pytest.mark.parametrize("move", [0, 1, F(1, 2)], ids=["solution", "int-moved", "rational"])
def test_int_cells_are_their_own_images(p41, move):
    # both failure checks give on int cells the verdicts of the same values
    # held as Fractions, and of the check on Fractions
    table = riccati_evolve(p41, 0, ParityPair(1, 30), (-4, 4)).tables[0]
    ay = list(table.ay)
    ay[5] += move
    t = SolutionTable(table.m_lo, table.sy, tuple(ay), table.sz, table.az)
    as_fractions = SolutionTable(t.m_lo, t.sy, tuple(map(F, t.ay)), t.sz, tuple(map(F, t.az)))
    assert riccati_failures(p41, t) == riccati_failures(p41, as_fractions) == _failures_on_fractions(p41, t)
    assert painleve_failures(p41, t) == painleve_failures(p41, as_fractions)
    assert bool(riccati_failures(p41, t)) == bool(painleve_failures(p41, t)) == (move != 0)


def test_theorem_vacuous_on_non_solution(p41):
    # a table violating the subsystem relations cannot be a counterexample
    t = pair_table(
        0,
        (pp(-1, 0), pp(-1, 1)),
        (pp(-1, 0), pp(-1, 1)),
    )
    if riccati_failures(p41, t):
        assert theorem_check(p41, t)
