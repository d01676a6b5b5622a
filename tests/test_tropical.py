import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from udp6.riccati import _samples, solve_one_unknown

from oracles import BOTTOM, exchange_identity_check, is_bottom, parity_indicator, t_add, t_max

F = Fraction
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=8)
signs = st.sampled_from((1, -1))


# --- parity indicator ---------------------------------------------------------


def test_parity_indicator_values():
    assert parity_indicator(1) == Fraction(0)
    assert is_bottom(parity_indicator(-1))


def test_parity_indicator_rejects_other_values():
    with pytest.raises(ValueError):
        parity_indicator(0)


@pytest.mark.parametrize("a", (1, -1))
@pytest.mark.parametrize("b", (1, -1))
def test_parity_indicator_product_rule(a, b):
    # image of s(a)s(b) + s(-a)s(-b) = s(ab)
    lhs = t_max(
        [
            t_add(parity_indicator(a), parity_indicator(b)),
            t_add(parity_indicator(-a), parity_indicator(-b)),
        ]
    )
    assert lhs == parity_indicator(a * b)


@pytest.mark.parametrize("a", (1, -1))
def test_parity_indicator_partition_rules(a):
    # images of s(a)+s(-a)=1 and s(a)s(-a)=0
    assert t_max([parity_indicator(a), parity_indicator(-a)]) == Fraction(0)
    assert is_bottom(t_add(parity_indicator(a), parity_indicator(-a)))


# --- max / add ------------------------------------------------------------------


def test_t_max_examples():
    assert t_max([Fraction(3), Fraction(5), BOTTOM]) == Fraction(5)
    assert is_bottom(t_max([BOTTOM, BOTTOM]))
    with pytest.raises(ValueError):
        t_max([])


def test_t_add_absorbs_bottom():
    assert is_bottom(t_add(Fraction(3), BOTTOM))
    assert t_add(Fraction(3), Fraction(-10)) == Fraction(-7)


@given(x1=fractions, x2=fractions, w1=fractions, w2=fractions)
def test_max_distributes_over_addition(x1, x2, w1, w2):
    lhs = t_max([x1 + w1, x2 + w1, x1 + w2, x2 + w2])
    assert lhs == t_max([x1, x2]) + t_max([w1, w2])


# --- exchange identity -----------------------------------------------------------


def test_exchange_identity_examples():
    f = Fraction
    assert exchange_identity_check(f(5), f(2), f(5), f(1), f(0), f(7), f(7), f(3))
    assert exchange_identity_check(*[f(0)] * 8)


def test_exchange_identity_rejects_broken_premise():
    f = Fraction
    assert not exchange_identity_check(f(5), f(2), f(4), f(1), f(0), f(0), f(0), f(0))


def test_exchange_identity_random_premise_suite(rng):
    from oracles import premise_quadruple

    for i in range(2000):
        xs = premise_quadruple(rng, tie=i % 3 == 0)
        ws = premise_quadruple(rng, tie=i % 5 == 0)
        assert exchange_identity_check(*xs, *ws), (xs, ws)


# --- the first-order solver: slope-0/1 sides, one interval ---------------------------


def test_solution_set_samples_policies():
    # on an integer image of scale (unit) 2: the interval [0, 2] is (0, 4)
    assert _samples((0, 4), "endpoints", 2) == [0, 4]
    assert _samples((0, 4), "midpoint", 2) == [2]
    assert _samples((0, 4), "all-breakpoints", 2) == [0, 2, 4]
    assert _samples((10, None), "midpoint", 2) == [12]  # one unit in from a single end
    assert _samples((None, 10), "all-breakpoints", 2) == [8, 10]
    assert _samples((6, 6), "all-breakpoints", 2) == [6]
    assert _samples((None, None), "endpoints", 2) == [0]
    assert _samples((5, None), "midpoint", 1) == [6]
    [mid] = _samples((6, 8), "midpoint", 2)  # the ends 3 and 4: the mean 7/2 is exact
    assert mid == 7 and type(mid) is int


def _t(slope, intercept):
    return slope, F(intercept)


def test_solver_identical_sides_is_full_line():
    lhs = [_t(1, 0), _t(0, 0)]
    assert solve_one_unknown(lhs, lhs) == (None, None)


def test_solver_single_point():
    # max(5, x) = max(x+2, 3)  ->  {3}
    sol = solve_one_unknown([_t(0, 5), _t(1, 0)], [_t(1, 2), _t(0, 3)])
    assert sol == (3, 3)


def test_solver_half_line():
    # max(0, x) = max(x, -1)  ->  [0, +inf)
    sol = solve_one_unknown([_t(0, 0), _t(1, 0)], [_t(1, 0), _t(0, -1)])
    assert sol == (0, None)


def test_solver_empty_solution():
    assert solve_one_unknown([_t(0, 0)], [_t(0, 1)]) is None


def test_solver_against_grid_oracle_random(rng):
    from oracles import solve_grid_check

    def side():
        return [
            (rng.randint(0, 1), F(rng.randint(-30, 30), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]

    for _ in range(1500):
        lhs, rhs = side(), side()
        solve_grid_check(lhs, rhs, solve_one_unknown(lhs, rhs))


@given(data=st.data())
def test_solver_members_satisfy_equation(data):
    # terms with rational intercepts, solved and sampled on their integer
    # image of scale 2 * lcm, where the mean of two ends is exact
    def side(label):
        return data.draw(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=1), fractions),
                min_size=1,
                max_size=3,
            ),
            label=label,
        )

    lhs, rhs = side("lhs"), side("rhs")
    unit = 2 * math.lcm(*(c.denominator for _, c in lhs + rhs))
    lhs, rhs = ([(s, int(c * unit)) for s, c in terms] for terms in (lhs, rhs))
    sol = solve_one_unknown(lhs, rhs)

    def value(terms, x):
        return max(s * x + c for s, c in terms)

    for x in [] if sol is None else _samples(sol, "all-breakpoints", unit):
        assert value(lhs, x) == value(rhs, x)


sides = st.lists(st.tuples(st.integers(min_value=0, max_value=1), fractions), min_size=1, max_size=3)


@given(lhs=sides, rhs=sides)
def test_bounded_solution_sets_are_points(lhs, rhs):
    # each side rises from slope 0 to slope 1, so sides that agree on a segment
    # agree on a ray: the mean of two finite ends never leaves the image
    sol = solve_one_unknown(lhs, rhs)
    assert sol is None or None in sol or sol[0] == sol[1], sol
