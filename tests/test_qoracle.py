import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udp6.cli import main
from udp6.evolution import evolve_noparity
from udp6.generate import random_constrained_params
from udp6.qoracle import (
    CompareReport,
    EpsSchedule,
    LogSigned,
    PoleError,
    amplitude_of,
    default_precision,
    ls_add,
    ls_div,
    ls_from_amplitude,
    ls_mul,
    ls_neg,
    ls_sub,
    ls_zero,
    qp6_step,
    qriccati_step,
    _amp_bound,
    ud_limit_compare,
)
from udp6.system import ParityPair, Params
from udp6.tables import SolutionTable

from oracles import dump_params

F = Fraction


def mk(sign, logmag, prec=256):
    with mpmath.workprec(prec):
        return LogSigned(sign, mpmath.mpf(logmag), prec)


# --- log-signed arithmetic -----------------------------------------------------


def test_ls_add_like_signs():
    prec = 256
    with mpmath.workprec(prec):
        x = LogSigned(1, mpmath.log(2), prec)
        y = LogSigned(1, mpmath.log(3), prec)
        out = ls_add(x, y)
        assert out.sign == 1
        assert abs(out.logmag - mpmath.log(5)) < mpmath.mpf(2) ** -245


def test_ls_add_exact_cancellation_warns():
    x = mk(1, 7)
    out = ls_add(x, ls_neg(x))
    assert out.sign == 0 and out.warn


def test_ls_add_zero_identity():
    x = mk(-1, 3)
    assert ls_add(x, ls_zero(256)).sign == -1
    assert ls_add(ls_zero(256), x).logmag == x.logmag


def test_ls_mul_and_div():
    x = mk(-1, 5)
    y = mk(-1, 2)
    assert ls_mul(x, y).sign == 1
    assert ls_mul(x, y).logmag == 7  # exact on logmags
    assert ls_div(x, y).logmag == 3
    with pytest.raises(PoleError):
        ls_div(x, ls_zero(256))
    assert ls_div(ls_zero(256), x).sign == 0


def test_warn_flag_propagates():
    warned = LogSigned(1, mpmath.mpf(1), 256, warn=True)
    assert ls_mul(warned, mk(1, 1)).warn
    assert ls_add(warned, mk(1, 1)).warn
    assert ls_sub(mk(1, 1), warned).warn


def test_ls_add_matches_higher_precision_oracle(rng):
    prec = 128
    for _ in range(300):
        s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
        l1 = F(rng.randint(-4000, 4000), rng.randint(1, 7))
        l2 = F(rng.randint(-4000, 4000), rng.randint(1, 7))
        if s1 != s2 and l1 == l2:
            continue
        x, y = mk(s1, 0, prec), mk(s2, 0, prec)
        with mpmath.workprec(prec):
            x = LogSigned(s1, mpmath.mpf(l1.numerator) / l1.denominator, prec)
            y = LogSigned(s2, mpmath.mpf(l2.numerator) / l2.denominator, prec)
        got = ls_add(x, y)
        with mpmath.workprec(4 * prec):
            exact = s1 * mpmath.exp(mpmath.mpf(l1.numerator) / l1.denominator) + \
                s2 * mpmath.exp(mpmath.mpf(l2.numerator) / l2.denominator)
            if got.sign == 0:
                assert abs(exact) < mpmath.exp(max(l1, l2)) * mpmath.mpf(2) ** (-prec // 2)
                continue
            assert got.sign == (1 if exact > 0 else -1)
            rel = abs(got.logmag - mpmath.log(abs(exact)))
            scale = max(1, abs(mpmath.log(abs(exact))))
            assert rel < mpmath.mpf(2) ** (-prec // 2) * scale


# --- q-system steps ---------------------------------------------------------------


def test_qp6_step_reference_point(p42):
    eps = F(1, 10)
    prec = default_precision(eps, 150)
    y = ls_from_amplitude(-1, 43, eps, prec)  # -e^430
    z = ls_from_amplitude(-1, 40, eps, prec)  # -e^400
    y1, z1 = qp6_step(p42, eps, 0, y, z)
    assert z1.sign == -1
    assert abs(float(amplitude_of(z1, eps)) - (-28)) < 1.0
    assert y1.sign == -1
    assert abs(float(amplitude_of(y1, eps)) - 122) < 1.0


def test_qp6_step_telescopes_when_factors_match():
    # all a_i equal and y in the positive sector: the y-fraction is exactly 1,
    # so z' = b3*b4/z with no residue at all
    p = Params.make(2, (5, 5, 5, 5), (5, 5, 4, 4))
    eps = F(1, 2)
    prec = 512
    y = ls_from_amplitude(1, 50, eps, prec)
    z = ls_from_amplitude(1, 7, eps, prec)
    _, z1 = qp6_step(p, eps, 0, y, z)
    assert z1.sign == 1
    expected = ls_from_amplitude(1, 4 + 4 - 7, eps, prec)
    assert z1.logmag == expected.logmag


def test_qp6_step_requires_constraint():
    from udp6.system import ConstraintViolation

    p = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 5))
    with pytest.raises(ConstraintViolation):
        qp6_step(p, F(1), 0, mk(1, 1), mk(1, 1))


def test_qp6_step_pole_detection(p42):
    eps = F(1)
    prec = 512
    y = ls_from_amplitude(1, p42.a3, eps, prec)  # y = +a3 exactly
    z = ls_from_amplitude(-1, 40, eps, prec)
    with pytest.raises(PoleError):
        qp6_step(p42, eps, 0, y, z)


def test_qriccati_step_amplitude_sweep(p41):
    # z' sign is +1 and eps*log|z'| approaches 119 as eps shrinks
    errs = []
    for eps in (F(1), F(1, 2), F(1, 5), F(1, 20)):
        prec = default_precision(eps, 150)
        y = ls_from_amplitude(-1, 69, eps, prec)
        z1, y1 = qriccati_step(p41, eps, 1, y)
        assert z1.sign == 1 and y1.sign == -1
        with mpmath.workprec(prec):
            errs.append(float(abs(amplitude_of(z1, eps) - 119)))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert 0 < errs[0] < 0.01


def test_qriccati_dominant_term_limit(p41):
    # |y| >> |t a2|, |a4|  =>  z' ~ b4
    eps = F(1)
    prec = 512
    y = ls_from_amplitude(1, 10_000, eps, prec)
    z1, _ = qriccati_step(p41, eps, 0, y)
    assert z1.sign == 1
    assert abs(float(amplitude_of(z1, eps)) - float(p41.b4)) < 1e-6


def test_qriccati_trajectory_satisfies_full_relation(p41):
    # Jimbo-Sakai inclusion: z(t) z(qt) / (b3 b4) == (y-ta1)(y-ta2)/((y-a3)(y-a4))
    eps = F(1, 5)
    prec = default_precision(eps, 200)
    y0 = ls_from_amplitude(-1, 69, eps, prec)
    z1, y1 = qriccati_step(p41, eps, 1, y0)
    z2, _ = qriccati_step(p41, eps, 2, y1)

    def lsp(amp):
        return ls_from_amplitude(1, amp, eps, prec)

    m = 2
    lhs = ls_div(ls_mul(z1, z2), ls_mul(lsp(p41.b3), lsp(p41.b4)))
    num = ls_mul(ls_sub(y1, lsp(m * p41.q + p41.a1)), ls_sub(y1, lsp(m * p41.q + p41.a2)))
    den = ls_mul(ls_sub(y1, lsp(p41.a3)), ls_sub(y1, lsp(p41.a4)))
    rhs = ls_div(num, den)
    assert lhs.sign == rhs.sign
    with mpmath.workprec(prec):
        scale = max(1, abs(lhs.logmag))
        assert abs(lhs.logmag - rhs.logmag) < mpmath.mpf(2) ** (-prec // 4) * scale


# --- comparator ----------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        EpsSchedule((F(1), F(1)))
    with pytest.raises(ValueError):
        EpsSchedule((F(1), F(-1, 2)))
    sched = EpsSchedule.from_string("1,0.5,0.2")
    assert sched.eps_values == (F(1), F(1, 2), F(1, 5))


def test_compare_golden_window_monotone(p42):
    table = evolve_noparity(p42, 0, 43, 40, (0, 3))
    rep = ud_limit_compare(p42, table, EpsSchedule.from_string("1,0.5,0.2"), (0, 3))
    assert not rep.aborts and not rep.table_failures
    assert rep.nonmonotone() == []
    assert all(r.sign_ok_y and r.sign_ok_z and not r.warned for r in rep.rows)
    for m in (1, 2, 3):
        rows = rep.errors_for(m)
        assert rows[0].err_z > rows[-1].err_z


def test_compare_flags_wrong_table_value(p42):
    table = evolve_noparity(p42, 0, 43, 40, (0, 3))
    rows = list(table.rows())
    broken = SolutionTable(
        table.m_lo,
        tuple(
            ParityPair(y.sign, y.amp + (5 if m == 1 else 0)) for m, y, _ in rows
        ),
        tuple(z for _, _, z in rows),
    )
    rep = ud_limit_compare(p42, broken, EpsSchedule.from_string("1,0.5"), (0, 3))
    assert rep.table_failures  # the perturbed table is not a solution
    rows1 = rep.errors_for(1)
    # error against the wrong value plateaus near the perturbation size
    assert all(abs(r.err_y - 5) < 0.5 for r in rows1)


def test_compare_gauge_consistency(p42):
    # a uniform shift moves every log-magnitude by c/eps; errors are unchanged
    table = evolve_noparity(p42, 0, 43, 40, (0, 2))
    shifted = table.gauge_shifted(9)
    rep = ud_limit_compare(p42, table, EpsSchedule.from_string("1,0.5"), (0, 2))
    rep_s = ud_limit_compare(
        p42.gauge_shifted(9), shifted, EpsSchedule.from_string("1,0.5"), (0, 2)
    )
    for r, rs in zip(rep.rows, rep_s.rows):
        assert math.isclose(r.err_y, rs.err_y, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(r.err_z, rs.err_z, rel_tol=0, abs_tol=1e-9)


def test_compare_csv_layout(p42):
    table = evolve_noparity(p42, 0, 43, 40, (0, 1))
    rep = ud_limit_compare(p42, table, EpsSchedule.from_string("1,0.5"), (0, 1))
    lines = rep.to_csv_text().splitlines()
    assert lines[0] == "m,eps,err_Y,err_Z,sign_ok_Y,sign_ok_Z,cancellation_flag"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("0,1,")


def test_compare_window_must_fit(p42):
    table = evolve_noparity(p42, 0, 43, 40, (0, 2))
    with pytest.raises(ValueError):
        ud_limit_compare(p42, table, EpsSchedule.from_string("1"), (0, 5))


# --- precision by agreement --------------------------------------------------------------


def ceiling_report(p, table, schedule, window) -> CompareReport:
    """The report of fixed runs at each eps's ceiling, default_precision."""
    bound = _amp_bound(p, table, window)
    parts = [
        ud_limit_compare(p, table, EpsSchedule((eps,)), window,
                         precision=default_precision(eps, bound))
        for eps in schedule.eps_values
    ]
    return CompareReport(
        rows=tuple(r for rep in parts for r in rep.rows),
        aborts=tuple(a for rep in parts for a in rep.aborts),
        schedule=schedule,
        window=window,
        table_failures=parts[0].table_failures,
        precisions=tuple(pr for rep in parts for pr in rep.precisions),
    )


def test_adaptive_precision_matches_ceiling_on_golden_state(p42):
    window = (-2, 2)
    table = evolve_noparity(p42, 0, 43, 40, window)
    sched = EpsSchedule.from_string("1,1/2")
    rep = ud_limit_compare(p42, table, sched, window)
    ref = ceiling_report(p42, table, sched, window)
    assert (rep.rows, rep.aborts, rep.table_failures) == (ref.rows, ref.aborts, ref.table_failures)
    assert rep.to_csv_text() == ref.to_csv_text()
    assert [eps for eps, _ in rep.precisions] == list(sched.eps_values)
    for (eps, bits), (_, ceiling) in zip(rep.precisions, ref.precisions):
        assert 256 <= bits < ceiling


@pytest.mark.parametrize("offset_bits", [200, 600])
def test_near_cancellation_escalates_to_ceiling_result(p42, offset_bits):
    # y at the window's start sits 2^-offset_bits above a3, so y - a3 nearly
    # cancels.  At 2^-200, 256 bits raise the cancellation flag; at 2^-600,
    # 256 and 512 bits both round y - a3 to zero and abort alike, and only
    # the ceiling run resolves the gap
    window = (0, 3)
    table = evolve_noparity(p42, 0, 43, 40, window)
    ys = (ParityPair(1, p42.a3 + F(1, 2**offset_bits)),) + table.ys[1:]
    table = SolutionTable(table.m_lo, ys, table.zs)
    sched = EpsSchedule.from_string("1")
    ref = ceiling_report(p42, table, sched, window)
    low = ud_limit_compare(p42, table, sched, window, precision=256)
    assert (low.rows, low.aborts) != (ref.rows, ref.aborts)
    rep = ud_limit_compare(p42, table, sched, window)
    assert (rep.rows, rep.aborts, rep.table_failures) == (ref.rows, ref.aborts, ref.table_failures)
    assert not ref.aborts and not any(r.warned for r in ref.rows)
    [(_, bits)] = rep.precisions
    assert 512 < bits <= ref.precisions[0][1]


# at eps=1/4, seeds 6 and 15 have err_Y of about 1e-217 and 1e-170, which the
# runs at 256 and 512 bits both compute as 0.0; equal rows alone would accept
# 512 bits, and only the resolution condition of the check goes higher
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=6)
@example(seed=15)
def test_adaptive_precision_agrees_with_ceiling_on_random_tables(seed):
    rng = random.Random(seed)
    p = random_constrained_params(rng, -100, 100, (1, 100))
    window = (0, 1)
    table = evolve_noparity(p, 0, rng.randint(-100, 100), rng.randint(-100, 100), window)
    sched = EpsSchedule.from_string("1,1/4")
    rep = ud_limit_compare(p, table, sched, window)
    ref = ceiling_report(p, table, sched, window)
    assert rep.aborts == ref.aborts
    assert len(rep.rows) == len(ref.rows)
    for r, c in zip(rep.rows, ref.rows):
        assert (r.m, r.eps, r.sign_ok_y, r.sign_ok_z, r.warned) == (
            c.m, c.eps, c.sign_ok_y, c.sign_ok_z, c.warned)
        assert math.isclose(r.err_y, c.err_y, rel_tol=1e-12, abs_tol=0)
        assert math.isclose(r.err_z, c.err_z, rel_tol=1e-12, abs_tol=0)


def test_qlimit_cli_output_equals_fixed_ceiling_run(tmp_path, capsys, p42):
    params = tmp_path / "p42.json"
    dump_params(p42, params)
    window = (-2, 2)
    table = evolve_noparity(p42, 0, 43, 40, window)
    ceiling = default_precision(F(1, 2), _amp_bound(p42, table, window))
    argv = ["qlimit", "--params", str(params), "--y0", "-1:43", "--z0", "-1:40",
            "--window", "-2:2", "--eps", "1/2"]
    outs = []
    for extra in ([], ["--precision", str(ceiling)]):
        assert main(argv + extra) == 0
        outs.append(capsys.readouterr())
    assert outs[0].out == outs[1].out and outs[0].err == outs[1].err
