import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from udp6.tropical import (
    BOTTOM,
    DegenerateEquation,
    Interval,
    LinTerm,
    SolutionSet,
    is_bottom,
    solve_one_unknown,
)

from oracles import exchange_identity_check, parity_indicator, t_add, t_max

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


# --- intervals and solution sets ---------------------------------------------------


def test_interval_contains_and_validation():
    iv = Interval(Fraction(1), Fraction(3))
    assert iv.contains(Fraction(1)) and iv.contains(Fraction(3))
    assert not iv.contains(Fraction(4))
    assert Interval(None, Fraction(0)).contains(Fraction(-1000))
    with pytest.raises(ValueError):
        Interval(Fraction(2), Fraction(1))


def test_solution_set_canonicalizes_touching_intervals():
    s = SolutionSet(
        [
            Interval(Fraction(2), Fraction(3)),
            Interval(Fraction(0), Fraction(1)),
            Interval(Fraction(1), Fraction(2)),
        ]
    )
    assert s.intervals == (Interval(Fraction(0), Fraction(3)),)
    assert s == SolutionSet([Interval(Fraction(0), Fraction(3))])


def test_solution_set_point_absorbed_by_interval():
    s = SolutionSet([Interval(Fraction(1), Fraction(1)), Interval(Fraction(1), Fraction(4))])
    assert s.intervals == (Interval(Fraction(1), Fraction(4)),)


def test_solution_set_samples_policies():
    s = SolutionSet([Interval(Fraction(0), Fraction(2)), Interval(Fraction(5), None)])
    assert s.finite_samples("endpoints") == [Fraction(0), Fraction(2), Fraction(5)]
    assert s.finite_samples("midpoint") == [Fraction(1), Fraction(6)]
    assert set(s.finite_samples("all-breakpoints")) >= {Fraction(0), Fraction(1), Fraction(2)}
    assert SolutionSet.full().finite_samples("endpoints") == [Fraction(0)]
    with pytest.raises(ValueError):
        s.finite_samples("nope")


# --- the one-unknown solver ---------------------------------------------------------


def _t(slope, intercept):
    return LinTerm(slope, intercept if intercept is BOTTOM else Fraction(intercept))


def test_solver_identical_sides_is_full_line():
    lhs = [_t(1, 0), _t(0, 0)]
    assert solve_one_unknown(lhs, lhs) == SolutionSet.full()


def test_solver_single_point():
    # max(5, x) = max(x+2, 3)  ->  {3}
    sol = solve_one_unknown([_t(0, 5), _t(1, 0)], [_t(1, 2), _t(0, 3)])
    assert sol == SolutionSet.point(3)


def test_solver_half_line():
    # max(0, x) = max(x, -1)  ->  [0, +inf)
    sol = solve_one_unknown([_t(0, 0), _t(1, 0)], [_t(1, 0), _t(0, -1)])
    assert sol == SolutionSet([Interval(Fraction(0), None)])


def test_solver_empty_solution():
    sol = solve_one_unknown([_t(0, 0)], [_t(0, 1)])
    assert sol.is_empty


def test_solver_inert_terms_dropped_and_degenerate_raises():
    sol = solve_one_unknown([_t(0, 5), _t(1, BOTTOM)], [_t(0, 5)])
    assert sol == SolutionSet.full()
    with pytest.raises(DegenerateEquation):
        solve_one_unknown([_t(1, BOTTOM)], [_t(0, 0)])


def test_solver_against_grid_oracle_random(rng):
    from oracles import solve_grid_check

    for _ in range(1500):
        def side():
            n = rng.randint(1, 4)
            out = []
            for _ in range(n):
                if rng.random() < 0.1:
                    out.append(LinTerm(rng.randint(0, 2), BOTTOM))
                else:
                    out.append(
                        LinTerm(
                            rng.randint(0, 2),
                            Fraction(rng.randint(-30, 30), rng.randint(1, 3)),
                        )
                    )
            return out

        lhs, rhs = side(), side()
        if all(is_bottom(t.intercept) for t in lhs) or all(
            is_bottom(t.intercept) for t in rhs
        ):
            continue
        sol = solve_one_unknown(lhs, rhs)
        solve_grid_check(lhs, rhs, sol)


@given(data=st.data())
def test_solver_members_satisfy_equation(data):
    def side(label):
        return data.draw(
            st.lists(
                st.builds(
                    LinTerm,
                    st.integers(min_value=0, max_value=2),
                    fractions,
                ),
                min_size=1,
                max_size=3,
            ),
            label=label,
        )

    lhs, rhs = side("lhs"), side("rhs")
    sol = solve_one_unknown(lhs, rhs)

    def value(terms, x):
        return t_max([t.at(x) for t in terms])

    for x in sol.finite_samples("all-breakpoints"):
        assert value(lhs, x) == value(rhs, x)
