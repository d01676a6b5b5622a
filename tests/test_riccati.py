from fractions import Fraction

import pytest

from udp6.evolution import painleve_failures
from udp6.generate import random_parity_pair, random_riccati_params
from udp6.riccati import (
    check_riccati_conditions,
    residual_riccati1,
    residual_riccati2,
    riccati_close_z,
    riccati_evolve,
    riccati_failures,
    riccati_step_back_y,
    riccati_step_y,
    riccati_step_z,
    theorem_check,
)
from udp6.system import ConstraintViolation, ParityPair, Params
from udp6.tables import SolutionTable
from udp6.tropical import Interval, SolutionSet

F = Fraction


def pp(sign, amp):
    return ParityPair(sign, F(amp))


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
    assert res.branches == ((1, SolutionSet.point(119)),)


def test_step_z_degenerate_interval(p41):
    # y amplitude at A4 leaves a half-line of valid next values
    res = riccati_step_z(p41, 0, pp(1, 23))
    expected = SolutionSet([Interval(F(65), None)])
    assert (1, expected) in res.branches
    for sign, solset in res.branches:
        for amp in solset.finite_samples("all-breakpoints"):
            assert residual_riccati2(p41, 0, pp(1, 23), ParityPair(sign, amp))


def test_step_y_point_solution(p41):
    res = riccati_step_y(p41, 1, pp(1, 119))
    assert (-1, SolutionSet.point(107)) in res.branches


def test_steps_never_emit_forbidden_sign_pair(rng):
    for _ in range(300):
        p = random_riccati_params(rng)
        m = rng.randint(-4, 4)
        y = random_parity_pair(rng)
        for sign, _ in riccati_step_z(p, m, y).branches:
            assert not (y.sign == -1 and sign == -1)
        z = random_parity_pair(rng)
        for sign, _ in riccati_step_y(p, m, z).branches:
            assert not (z.sign == -1 and sign == -1)


def test_steps_always_have_a_branch(rng):
    for _ in range(500):
        p = random_riccati_params(rng)
        m = rng.randint(-4, 4)
        assert riccati_step_z(p, m, random_parity_pair(rng)).branches
        assert riccati_step_y(p, m, random_parity_pair(rng)).branches
        assert riccati_close_z(p, m, random_parity_pair(rng)).branches
        assert riccati_step_back_y(p, m, random_parity_pair(rng)).branches


def test_step_samples_satisfy_residuals(rng):
    for _ in range(300):
        p = random_riccati_params(rng)
        m = rng.randint(-4, 4)
        y = random_parity_pair(rng)
        for cand in riccati_step_z(p, m, y).samples("all-breakpoints"):
            assert residual_riccati2(p, m, y, cand)
        z = random_parity_pair(rng)
        for cand in riccati_step_y(p, m, z).samples("all-breakpoints"):
            assert residual_riccati1(p, m, cand, z)
        for cand in riccati_close_z(p, m, y).samples("all-breakpoints"):
            assert residual_riccati1(p, m - 1, y, cand)
        for cand in riccati_step_back_y(p, m, z).samples("all-breakpoints"):
            assert residual_riccati2(p, m - 1, cand, z)


def test_step_gauge_equivariance(p41):
    res = riccati_step_z(p41, 1, pp(-1, 69))
    shifted = riccati_step_z(p41.gauge_shifted(3), 1, pp(-1, 72))
    assert shifted.branches == tuple(
        (s, SolutionSet([Interval(
            None if iv.lo is None else iv.lo + 3,
            None if iv.hi is None else iv.hi + 3,
        ) for iv in ss.intervals]))
        for s, ss in res.branches
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


def test_theorem_vacuous_on_non_solution(p41):
    # a table violating the subsystem relations cannot be a counterexample
    t = SolutionTable(
        0,
        (pp(-1, 0), pp(-1, 1)),
        (pp(-1, 0), pp(-1, 1)),
    )
    if riccati_failures(p41, t):
        assert theorem_check(p41, t)
