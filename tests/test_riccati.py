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
    all-breakpoints sampling policy; the steps below get integer inputs, their
    own image of scale 1."""
    return [ParityPair(sign, x) for sign, iv in branches for x in _samples(iv, "all-breakpoints", 1)]


# --- conditions -----------------------------------------------------------------


def test_conditions_examples(p41):
    assert check_riccati_conditions(p41)  # 126 = 126 and 88 = 88
    assert check_riccati_conditions(Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0)))
    assert not check_riccati_conditions(
        Params.make(100, (25, 46, 67, 23), (60, 65, 1, 42))
    )


def test_residuals_require_conditions(p42):
    assert not check_riccati_conditions(p42)
    table = SolutionTable(0, (pp(1, 0), pp(1, 0)), (pp(1, 0), pp(1, 0)))
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
    # int parameters and an int y0 are their own image (D = 1): every sample,
    # midpoints included, is exact, never a float
    res = riccati_evolve(p41, 0, ParityPair(1, 23), (-2, 3), sampling=policy)
    assert res.tables
    amps = [c.amp for t in res.tables for c in t.ys + t.zs]
    assert all(type(a) in (int, Fraction) for a in amps), amps
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


# Riccati-conditioned parameters with D = 6
P_D6 = Params.make(F(1, 6), (0, F(5, 6), 1, F(4, 3)), (F(-1, 6), F(-5, 6), F(2, 3), F(-1, 3)))


def test_riccati_evolve_long_midpoint_window_matches_fraction_reference():
    # 121 steps with D = 6; the rays' interior samples sit one unit D in
    p = P_D6
    y0 = ParityPair(-1, F(-1, 3))
    tree = riccati_evolve(p, 0, y0, (-30, 30), sampling="midpoint")
    assert (tree.tables, tree.truncated) == riccati_evolve_fractions(p, 0, y0, (-30, 30), "midpoint", 64)
    assert len(tree.tables) == 8 and not tree.truncated
    assert tree.tables != riccati_evolve(p, 0, y0, (-30, 30)).tables
    assert any(c.amp.denominator > 1 for t in tree.tables for c in t.ys + t.zs)
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
    # on the integer image, riccati_failures reports the (m, relation) list of
    # the check on Fractions, for solutions and for tables with cells moved
    p, m0, y0 = start
    table = riccati_evolve(p, m0, y0, (-4, 4), max_branches=8).tables[0]
    moves = st.sampled_from((0, 0, F(1, 6), F(-1, 2), F(1)))
    flips = st.sampled_from((1, 1, 1, -1))
    ys, zs = (
        tuple(ParityPair(c.sign * data.draw(flips), c.amp + data.draw(moves)) for c in col)
        for col in (table.ys, table.zs)
    )
    moved = SolutionTable(table.m_lo, ys, zs)
    assert riccati_failures(p, table) == [] == _failures_on_fractions(p, table)
    assert riccati_failures(p, moved) == _failures_on_fractions(p, moved)


def test_riccati_runs_on_ints(monkeypatch):
    # riccati_evolve hands the solver the integer image of rational inputs and
    # riccati_failures checks the relations on it, never on Fractions
    seen = []

    def solver(lhs, rhs):
        assert all(type(c) is int for _, c in lhs + rhs), (lhs, rhs)
        seen.append("solve_one_unknown")
        return solve_one_unknown(lhs, rhs)

    def residual(fn):
        def wrapper(p, m, y, z):
            amps = [getattr(p, k) for k in ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")]
            assert all(type(a) is int for a in amps + [y.amp, z.amp]), (fn.__name__, amps, y, z)
            seen.append(fn.__name__)
            return fn(p, m, y, z)
        return wrapper

    monkeypatch.setattr(riccati, "solve_one_unknown", solver)
    for name in ("residual_riccati1", "residual_riccati2"):
        monkeypatch.setattr(riccati, name, residual(getattr(riccati, name)))
    p = P_D6
    for policy in ("endpoints", "midpoint", "all-breakpoints"):
        tree = riccati_evolve(p, 0, ParityPair(-1, F(-1, 3)), (-3, 3), sampling=policy)
        assert tree.tables
        assert all(not riccati_failures(p, t) for t in tree.tables)
    assert set(seen) == {"solve_one_unknown", "residual_riccati1", "residual_riccati2"}


def test_theorem_vacuous_on_non_solution(p41):
    # a table violating the subsystem relations cannot be a counterexample
    t = SolutionTable(
        0,
        (pp(-1, 0), pp(-1, 1)),
        (pp(-1, 0), pp(-1, 1)),
    )
    if riccati_failures(p41, t):
        assert theorem_check(p41, t)
