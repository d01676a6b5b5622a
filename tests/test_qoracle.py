import importlib.util
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import udp6.qoracle as qoracle
from udp6.cli import main
from udp6.evolution import evolve, evolve_noparity
from udp6.qoracle import (
    CompareAbort,
    CompareReport,
    CompareRow,
    EpsSchedule,
    PoleError,
    SignedMag,
    default_precision,
    ls_add,
    ls_div,
    ls_from_amplitude,
    ls_mul,
    ls_neg,
    ls_sub,
    ls_zero,
    qp6_step,
    _amp_bound,
    _compare_rows,
    _exp_power,
    _images,
    _run_images,
    ud_limit_compare,
)
from udp6.system import ParityPair, Params, random_constrained_params
from udp6.tables import SolutionTable

from oracles import (
    LogSigned,
    _compare_run,
    amplitude_error,
    amplitude_of,
    compare_at_fixed_precision,
    compare_by_full_runs,
    dump_params,
    exp_power_by_squaring,
    gauge,
    log_amplitude_of,
    log_from_amplitude,
    log_qp6_step,
    mpf_amplitude_of,
    mpf_ls_add,
    mpf_ls_div,
    mpf_ls_mul,
    mpf_ls_sub,
    pair_columns,
    pair_table,
    painleve_failures_per_index,
    qp6_step_by_signed_ops,
    qriccati_step,
    scale,
    signed_images,
)

F = Fraction


def mk(sign, mag, prec=256):
    with mpmath.workprec(prec):
        return SignedMag(sign, mpmath.mpf(mag), prec)


def rel_err(got, exact):
    return abs(got / exact - 1)


# --- signed arithmetic -----------------------------------------------------------


def test_ls_add_like_signs():
    out = ls_add(mk(1, 2), mk(1, 3))
    assert out.sign == 1 and out.mag == 5
    out = ls_add(mk(-1, 2), mk(-1, 3))
    assert out.sign == -1 and out.mag == 5


def test_ls_add_exact_cancellation_warns():
    x = mk(1, 7)
    out = ls_add(x, ls_neg(x))
    assert out.sign == 0 and out.warn


def test_ls_add_zero_identity():
    x = mk(-1, 3)
    assert ls_add(x, ls_zero(256)).sign == -1
    assert ls_add(ls_zero(256), x).mag == x.mag


def test_signed_mag_checks_and_replace_keeps_the_type():
    for sign, prec in ((2, 256), (1, 1), (-2, 64)):
        with pytest.raises(ValueError, match="precision at least 2 bits"):
            SignedMag(sign, mpmath.mpf(1), prec)
    assert SignedMag(0, mpmath.mpf(0), 2) == (0, 0, 2, False)
    # ls_add returns the nonzero operand as a SignedMag, at the lower precision
    x = mk(-1, 3, prec=512)
    out = ls_add(ls_zero(256, warn=True), x)
    assert type(out) is SignedMag and out == (-1, x.mag, 256, True)


def test_zero_operand_rounds_the_other_to_the_common_precision(rng):
    # a SignedMag's mag is rounded to its prec: adding an exact zero at 256 bits
    # to a 512-bit mantissa rounds it to 256 bits, whichever side the zero is on
    x = SignedMag(-1, _rounded(rng, 512, 5), 512)
    want = mpmath.libmp.mpf_pos(x.mag._mpf_, 256, "n")
    assert x.mag._mpf_[3] > 256 and want[3] <= 256
    zero = ls_zero(256)
    for out in (ls_add(zero, x), ls_add(x, zero), ls_sub(x, zero), ls_sub(zero, ls_neg(x))):
        assert (out.sign, out.mag._mpf_, out.prec, out.warn) == (-1, want, 256, False)


def test_ls_mul_and_div():
    x = mk(-1, 5)
    y = mk(-1, 2)
    assert ls_mul(x, y).sign == 1
    assert ls_mul(x, y).mag == 10  # exact on these mags
    assert ls_div(x, y).mag == 2.5
    with pytest.raises(PoleError):
        ls_div(x, ls_zero(256))
    assert ls_div(ls_zero(256), x).sign == 0


def test_warn_flag_propagates():
    warned = SignedMag(1, mpmath.mpf(1), 256, warn=True)
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
        with mpmath.workprec(prec):
            x = SignedMag(s1, mpmath.exp(mpmath.mpf(l1.numerator) / l1.denominator), prec)
            y = SignedMag(s2, mpmath.exp(mpmath.mpf(l2.numerator) / l2.denominator), prec)
        got = ls_add(x, y)
        with mpmath.workprec(4 * prec):
            exact = s1 * mpmath.exp(mpmath.mpf(l1.numerator) / l1.denominator) + \
                s2 * mpmath.exp(mpmath.mpf(l2.numerator) / l2.denominator)
            if got.sign == 0:
                assert abs(exact) < mpmath.exp(max(l1, l2)) * mpmath.mpf(2) ** (-prec // 2)
                continue
            assert got.sign == (1 if exact > 0 else -1)
            rel = abs(mpmath.log(got.mag) - mpmath.log(abs(exact)))
            scale = max(1, abs(mpmath.log(abs(exact))))
            assert rel < mpmath.mpf(2) ** (-prec // 2) * scale


def _seed_cases(rng):
    """(amp, eps) pairs: small ones, and amp/eps with 600-bit and larger terms."""
    for _ in range(60):
        yield F(rng.randint(-500, 500), rng.randint(1, 6)), F(1, rng.randint(1, 8))
    for bits in (600, 640, 1000):
        for _ in range(8):
            den = rng.getrandbits(bits) | (1 << (bits - 1))
            amp = F(rng.randint(-400, 400) * den + rng.getrandbits(bits), den)
            yield amp, F(rng.randint(1, 4), rng.randint(1, 4))
    yield F(37) + F(1, 2**600), F(1)  # the near-cancelling seed of the escalation test
    # binary exponents past 2^53, where a float e * ln 2 no longer finds the int nearest log|x|
    for amp in (F(43), F(-40), F(7, 3)):
        yield amp, F(1, 10**50)
        yield amp, F(1, 10**400)


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_ls_from_amplitude_matches_exp(rng, prec):
    # the power exp(1/den)^num is good to 2^-(prec-2) relative, also when num
    # and den have hundreds of bits: the base carries bitlen(num) guard bits;
    # amplitude_of inverts it, whether or not amp/eps is an integer
    for amp, eps in _seed_cases(rng):
        r = amp / eps
        got = ls_from_amplitude(-1, amp, eps, prec)
        assert got.sign == -1 and got.prec == prec
        with mpmath.workprec(2 * prec + r.numerator.bit_length()):
            exact = mpmath.exp(mpmath.mpf(r.numerator) / r.denominator)
            assert rel_err(got.mag, exact) <= mpmath.ldexp(1, -(prec - 2)), (amp, eps)
            amp_mpf = mpmath.mpf(amp.numerator) / amp.denominator
            back = abs(amplitude_of(got, eps) - amp_mpf)
            assert back <= mpmath.ldexp(max(1, abs(amp_mpf)), -(prec - 4)), (amp, eps)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(0, 1400),
    negative=st.booleans(),
    den=st.one_of(st.sampled_from([1, 2, 3, 7, 10**6]), st.integers(1, 10**6)),
    prec=st.sampled_from([64, 65, 100, 256, 1024, 4096]),
)
@example(seed=0, bits=1400, negative=True, den=10**6, prec=4096)
@example(seed=0, bits=1, negative=False, den=1, prec=64)
def test_tabulated_power_is_good_to_its_bound(seed, bits, negative, den, prec):
    # _exp_power multiplies cached exp(2^j/den) over the set bits of num: within
    # 2^-(prec-1) of exp(num/den), and so within 2^-(prec-1) + 2^-(prec-2) of the
    # former mpf_pow_int power; num has ``bits`` bits, 0 to 1,400
    num = random.Random(seed).getrandbits(bits) | (1 << bits >> 1)
    num = -num if negative else num
    got = _exp_power(num, den, prec)
    assert got[3] <= prec and (got == mpmath.libmp.fone) == (num == 0)
    wp = prec + bits + 64
    exact = mpmath.exp(mpmath.fdiv(num, den, prec=wp), prec=wp)
    with mpmath.workprec(wp):
        got = mpmath.mp.make_mpf(got)
        assert rel_err(got, exact) <= mpmath.ldexp(1, -(prec - 1))
        former = mpmath.mp.make_mpf(exp_power_by_squaring(num, den, prec))
        assert rel_err(got, former) <= mpmath.ldexp(3, -prec)


def _run_wp(amps, eps, prec):
    """The working precision of ``_run_images`` on ``amps``, by its docstring's rule."""
    bits = max(abs((d / eps).numerator).bit_length() for d in {b - a for a, b in zip((0, *amps), amps)})
    return prec + (bits + len(amps).bit_length() + 72) // 64 * 64


def _power_wp(r, prec):
    """The working precision of ``_exp_power`` on exp(r), by its docstring's rule."""
    return prec + (abs(r.numerator).bit_length() + 71) // 64 * 64


def _column(rng, length, affine, fractions, bits):
    """``length`` amplitudes of up to ``bits`` bits, either sign, ints or Fractions
    with denominators up to 12, affine or drawn one by one."""
    def amp():
        n = rng.randint(-(1 << bits), 1 << bits)
        return F(n, rng.randint(1, 12)) if fractions else n

    if affine:
        a0, d = amp(), amp()
        return [a0 + k * d for k in range(length)]
    return [amp() for _ in range(length)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.one_of(st.integers(1, 40), st.integers(1, 4096)),
    affine=st.booleans(),
    fractions=st.booleans(),
    bits=st.integers(0, 100),
    eps=st.sampled_from((F(1), F(1, 3), F(2, 7), F(1, 10**6))),
    prec=st.sampled_from((64, 256, 1024)),
)
# guard bits across a 64-bit step: the run's are 50 + bitlen(100) + 9 -> 128 and
# the first image's power's 50 + 8 -> 64, so the run works at 64 bits more
@example(seed=0, length=100, affine=True, fractions=False, bits=50, eps=F(1), prec=256)
@example(seed=1, length=4096, affine=True, fractions=True, bits=20, eps=F(2, 7), prec=256)
def test_run_images_are_good_to_the_powers_bound(seed, length, affine, fractions, bits, eps, prec):
    # a running product X_k = X_(k-1) * exp((a_k - a_(k-1))/eps) at the run's wp:
    # each image within 2^-(prec-1) of exp(a_k/eps), taken at wp + 64 bits, and so
    # within 3 * 2^-prec of _exp_power's, each rounded alike to prec bits
    amps = _column(random.Random(seed), length, affine, fractions, bits)
    images = list(_run_images(amps, eps, prec))
    assert len(images) == length
    with mpmath.workprec(_run_wp(amps, eps, prec) + 64):
        for amp, image in zip(amps, images):
            r = amp / eps
            got = mpmath.mp.make_mpf(image)
            assert image[3] <= prec and got > 0
            assert rel_err(got, mpmath.exp(mpmath.fdiv(r.numerator, r.denominator))) <= mpmath.ldexp(1, -(prec - 1))
            power = mpmath.mp.make_mpf(_exp_power(r.numerator, r.denominator, prec))
            assert rel_err(got, power) <= mpmath.ldexp(3, -prec), (amp, eps)


def _flag_by_two_logs(hi, lo, prec):
    """The cancellation flag of hi - lo by its definition, at twice the precision."""
    with mpmath.workprec(2 * prec):
        scale = max(1, abs(mpmath.log(hi)))
        return mpmath.log(hi / lo) < mpmath.ldexp(scale, -(prec // 2))


@pytest.mark.parametrize("prec", [64, 128, 256, 1024])
def test_cancellation_pretest_never_suppresses_flag(rng, prec):
    # near-equal opposite-signed pairs: ratios hi/lo of 1 + r * 2^-(prec//2) *
    # max(1, |ln hi|), r across both sides of the flag's threshold, and hi from
    # far below 1 to far above it, so |ln hi| crosses powers of 2
    flagged = 0
    for _ in range(400):
        log_hi = rng.choice((rng.uniform(-1, 1), rng.uniform(-60, 60), rng.uniform(-5e4, 5e4)))
        r = rng.choice((rng.uniform(0, 2), rng.uniform(0.9, 1.1), 2.0 ** rng.randint(-20, 20)))
        with mpmath.workprec(prec):
            hi = mpmath.exp(log_hi)
            step = mpmath.ldexp(r * max(1, abs(log_hi)), -(prec // 2))
            lo = hi / (1 + step)
        if lo == hi:
            continue
        want = _flag_by_two_logs(hi, lo, prec)
        sign = rng.choice((1, -1))
        x, y = SignedMag(sign, hi, prec), SignedMag(-sign, lo, prec)
        for out in (ls_add(x, y), ls_add(y, x), ls_sub(x, ls_neg(y))):
            assert out.sign == sign and out.warn == want, (prec, log_hi, r)
        flagged += want
    assert 50 < flagged < 350


def _rounded(rng, prec, exponent):
    """A random positive mpf of ``prec`` bits near 2^exponent."""
    with mpmath.workprec(prec):
        return +mpmath.ldexp(rng.getrandbits(prec + 8) | 1, exponent - prec - 8)


def _operands(rng, prec):
    """Two SignedMags, the first at ``prec`` bits: free mags, equal mags (exact
    cancellation), or mags a ratio 1 + 2^-j * max(1, |ln mag|) apart with j about
    prec//2 (the flag's threshold, the ``_cancels`` path); like or opposite signs;
    a zero and a warning now and then."""
    kind = rng.choice(("free", "equal", "near"))
    py = prec if kind == "equal" else rng.choice((prec, max(2, prec // 2), 2 * prec))
    a = _rounded(rng, prec, rng.randint(-3000, 3000))
    if kind == "free":
        b = _rounded(rng, py, rng.randint(-3000, 3000))
    elif kind == "equal":
        b = a
    else:
        with mpmath.workprec(4 * prec + 64):
            j = rng.randint(max(1, prec // 2 - 6), prec // 2 + 6)
            step = mpmath.ldexp(max(1, abs(mpmath.log(a))), -j)
            ratio = 1 - step if step < 0.5 and rng.random() < 0.5 else 1 + step  # b stays positive
            with mpmath.workprec(py):
                b = +(a * ratio)
    signs = (rng.choice((1, -1)), rng.choice((1, -1)))
    out = []
    for sign, mag, bits in zip(signs, (a, b), (prec, py)):
        warn = rng.random() < 0.2
        out.append(ls_zero(bits, warn) if rng.random() < 0.1 else SignedMag(sign, mag, bits, warn))
    return out


def _bits(x):
    return x.sign, x.mag._mpf_, x.prec, x.warn


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), prec=st.sampled_from([2, 3, 8, 53, 64, 100, 256, 1024, 4096]))
def test_libmp_operations_equal_context_level_oracle_bit_for_bit(seed, prec):
    # ls_add, ls_sub, ls_mul and ls_div call libmp directly; mpmath's fadd/fsub/
    # fmul/fdiv with prec= give the same sign, raw mag, precision and flag
    rng = random.Random(seed)
    x, y = _operands(rng, prec)
    ops = (
        (ls_add, mpf_ls_add),
        (ls_sub, mpf_ls_sub),
        (ls_mul, mpf_ls_mul),
        (ls_div, mpf_ls_div),
    )
    for u, v in ((x, y), (y, x)):
        for new, old in ops:
            if new is ls_div and v.sign == 0:
                with pytest.raises(PoleError):
                    new(u, v)
                continue
            got, want = new(u, v), old(u, v)
            assert type(got) is SignedMag and type(got.mag) is mpmath.mpf
            assert _bits(got) == _bits(want), (new.__name__, u, v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    prec=st.sampled_from([2, 3, 53, 256, 1024, 4096]),
    eps=st.sampled_from([F(1), F(1, 2), F(1, 3), F(1, 8), F(7, 5), F(1, 10**50)]),
    huge=st.booleans(),
)
def test_amplitude_of_equals_context_level_oracle_bit_for_bit(seed, prec, eps, huge):
    # both paths of amplitude_of: binary exponents below 2^40, where a float
    # finds the int nearest log|x|, and past 2^40, where it is taken at e's size
    rng = random.Random(seed)
    exponents = [rng.randint(-3000, 3000), rng.choice((1, -1)) * rng.randint(1, 2**40 - 1)]
    if huge:
        exponents = [rng.choice((1, -1)) * (2**40 + rng.getrandbits(rng.randint(0, 120)))]
    for e in exponents + [2**40 - 1, 2**40, -(2**40)]:
        x = SignedMag(rng.choice((1, -1)), _rounded(rng, prec, e), prec)
        got = amplitude_of(x, eps)
        assert type(got) is mpmath.mpf and got._mpf_ == mpf_amplitude_of(x, eps)._mpf_, (e, x)


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


@pytest.mark.parametrize("eps,twin", [(1, F(1)), (0.5, F(1, 2))])
def test_qp6_step_reads_equal_eps_of_any_type_alike(p42, eps, twin):
    # qp6_step passes eps on unconverted: the image table and ls_from_amplitude
    # convert it, and equal values share one image-table key
    def run(e):
        _images.cache_clear()
        y, z = ls_from_amplitude(-1, 43, e, 256), ls_from_amplitude(-1, 40, e, 256)
        steps = []
        for m in range(-2, 3):
            y, z = qp6_step(p42, e, m, y, z)
            steps += [y, z]
        return [(v.sign, v.mag._mpf_, v.prec, v.warn) for v in steps]

    assert run(eps) == run(twin)


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
    with mpmath.workprec(2 * prec):
        assert rel_err(z1.mag, expected.mag) < mpmath.ldexp(1, -(prec - 8))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([F(1), F(1, 2), F(1, 4)]),
    prec=st.sampled_from([256, 512]),
    near=st.sampled_from([None, "a3", "a4"]),
)
def test_plain_step_agrees_with_log_domain_oracle(seed, eps, prec, near):
    # qp6_step against its log-domain transcription in tests/oracles.py: the
    # same poles, signs and cancellation flags, and amplitudes within
    # 2^-(prec//2) * scale.  ``near`` seeds y just above a parameter image, so
    # that y - a3 or y - a4 nearly cancels and the flags get exercised
    rng = random.Random(seed)
    p = random_constrained_params(rng, -100, 100, (1, 100))
    m = rng.randint(-3, 3)
    ys, zs = rng.choice((1, -1)), rng.choice((1, -1))
    ya, za = F(rng.randint(-150, 150), rng.randint(1, 3)), F(rng.randint(-150, 150))
    if near is not None:
        ys, ya = 1, getattr(p, near) + F(1, 2 ** rng.randint(prec // 2 - 40, prec // 2 + 40))
    scale = max(1, *(abs(v) for v in (p.q * (abs(m) + 1), p.a1, p.a2, p.a3, p.a4,
                                       p.b1, p.b2, p.b3, p.b4, ya, za)))
    outs = []
    for seed_of, step in ((ls_from_amplitude, qp6_step), (log_from_amplitude, log_qp6_step)):
        try:
            outs.append(step(p, eps, m, seed_of(ys, ya, eps, prec), seed_of(zs, za, eps, prec)))
        except PoleError as exc:
            outs.append(str(exc))
    plain, oracle = outs
    if isinstance(plain, str) or isinstance(oracle, str):
        assert plain == oracle
        return
    for got, ref in zip(plain, oracle):
        assert (got.sign, got.warn) == (ref.sign, ref.warn)
        if got.sign and not got.warn:
            with mpmath.workprec(prec):
                gap = abs(amplitude_of(got, eps) - log_amplitude_of(ref, eps))
                assert gap < mpmath.ldexp(scale, -(prec // 2))


_NEAR = (None, "a3", "a4", "on a3", "b3", "b4", "t b1", "zero y", "zero z")


def _z_for_landing(p, eps, m, y, target, prec, bits, j):
    """z at ``bits`` bits such that z' = target * (1 + 2^-j) but for the step's
    rounding at ``prec`` bits: so z' - target nearly cancels in the y-half-step."""
    a3, a4, b3, b4, a1, a2, b1, b2 = (c.mag for c in signed_images(p, eps, prec))
    t = ls_from_amplitude(1, m * p.q, eps, prec).mag
    with mpmath.workprec(4 * prec + 64):
        yv = y.sign * y.mag
        if yv in (a3, a4):
            return None
        aim = {"b3": b3, "b4": b4, "t b1": t * b1}[target] * (1 + mpmath.ldexp(1, -j))
        zv = b3 * b4 * (yv - t * a1) * (yv - t * a2) / ((yv - a3) * (yv - a4) * aim)
        if not zv:
            return None
        with mpmath.workprec(bits):
            return SignedMag(1 if zv > 0 else -1, +abs(zv), bits, False)


def _step_case(rng, p, eps, prec, near, z_bits):
    """(m, y, z) of one step: random seeds, or y just above a3 or a4 (so y - a3 or
    y - a4 nearly cancels), y on a3 (a pole), z chosen so that z' lands just off
    b3, b4 or t b1 (so the y-half-step alone nearly cancels), or an exact zero;
    z at ``z_bits`` bits, and a warning on either input now and then."""
    m = rng.randint(-3, 3)
    ys, zs = rng.choice((1, -1)), rng.choice((1, -1))
    ya, za = F(rng.randint(-150, 150), rng.randint(1, 3)), F(rng.randint(-150, 150))
    j = rng.randint(max(1, prec // 2 - 40), prec // 2 + 40)
    if near in ("a3", "a4"):
        ys, ya = 1, getattr(p, near) + F(1, 2**j)
    elif near == "on a3":
        ys, ya = 1, p.a3
    y = ls_zero(prec) if near == "zero y" else ls_from_amplitude(ys, ya, eps, prec)
    z = ls_zero(z_bits) if near == "zero z" else ls_from_amplitude(zs, za, eps, z_bits)
    if near in ("b3", "b4", "t b1"):
        z = _z_for_landing(p, eps, m, y, near, min(prec, z_bits), z_bits, j) or z
    flags = (rng.random() < 0.15, rng.random() < 0.15)
    return m, y._replace(warn=flags[0]), z._replace(warn=flags[1])


def _step_outcome(step, p, eps, m, y, z):
    """The bits of both results of a step, flags included, or its pole message."""
    try:
        return tuple(_bits(v) for v in step(p, eps, m, y, z))
    except PoleError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([F(1), F(1, 2), F(1, 3), F(1, 4), F(2, 7)]),
    prec=st.sampled_from([64, 256, 512]),
    near=st.sampled_from(_NEAR),
    z_scale=st.sampled_from([F(1), F(1, 2), F(2)]),
)
def test_raw_step_equals_signed_operations_bit_for_bit(seed, eps, prec, near, z_scale):
    # qp6_step on raw signed mpfs against its former form, a SignedMag per
    # operation (tests/oracles.py): equal signs, raw mags, precisions and flags,
    # or equal pole messages; y and z at equal or different precisions
    rng = random.Random(seed)
    p = random_constrained_params(rng, -100, 100, (1, 100))
    m, y, z = _step_case(rng, p, eps, prec, near, int(prec * z_scale))
    assert _step_outcome(qp6_step, p, eps, m, y, z) == _step_outcome(qp6_step_by_signed_ops, p, eps, m, y, z)


def test_step_cases_reach_every_flag_and_pole():
    # the cases of the bit-for-bit test reach each way a step can end: a warning
    # from the y-half-step alone, one from the z-half-step, none, and every pole
    rng, seen = random.Random(7), Counter()
    for i in range(400):
        p = random_constrained_params(rng, -100, 100, (1, 100))
        eps, prec = rng.choice((F(1), F(1, 2), F(1, 3))), rng.choice((64, 256))
        near = _NEAR[i % len(_NEAR)]
        m, y, z = _step_case(rng, p, eps, prec, near, prec)
        if y.warn or z.warn:
            continue
        out = _step_outcome(qp6_step, p, eps, m, y, z)
        if isinstance(out, str):
            seen[out] += 1
        else:
            (_, _, _, warn_y), (_, _, _, warn_z) = out
            seen["y-half warns alone" if warn_y and not warn_z else "z-half warns" if warn_z else "no warning"] += 1
    assert {"y-half warns alone", "z-half warns", "no warning", "pole: z(t) vanished",
            "pole: y - a3 vanished", "pole: y(t) vanished"} <= set(seen), seen


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_t_images_are_one_power_times_cached_factors(p42, prec):
    # qp6_step takes t = exp(mQ/eps) and multiplies it by the cached images of
    # a1, a2, b1, b2; each product is the direct image exp((mQ + A)/eps) to 2^-(prec-4)
    amps = (p42.a1, p42.a2, p42.b1, p42.b2)
    for eps in (F(1), F(1, 2), F(1, 3), F(1, 8)):
        factors = signed_images(p42, eps, prec)[4:]
        for m in range(-50, 51):
            t = ls_from_amplitude(1, m * p42.q, eps, prec)
            for amp, factor in zip(amps, factors):
                got = ls_mul(t, factor)
                want = ls_from_amplitude(1, m * p42.q + amp, eps, prec)
                assert (got.sign, got.prec, got.warn) == (1, prec, False)
                with mpmath.workprec(2 * prec):
                    assert rel_err(got.mag, want.mag) <= mpmath.ldexp(1, -(prec - 4)), (eps, m, amp)


def test_qp6_step_requires_constraint():
    from udp6.system import ConstraintViolation

    p = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 5))
    with pytest.raises(ConstraintViolation):
        qp6_step(p, F(1), 0, mk(1, 1), mk(1, 1))


def test_qp6_step_pole_detection(p42):
    # each pole check names its factor, in the order z(t), y - a3, y - a4,
    # y(t), z(qt) - b3, z(qt) - b4; amplitude 0 has the exact image 1, so
    # with the last two parameter sets z(qt) lands exactly on b3 or on b4
    eps, prec = F(1), 512

    def at(sign, amp):
        return ls_from_amplitude(sign, amp, eps, prec)

    cases = [
        (p42, at(1, 50), ls_zero(prec), "z(t)"),
        (p42, at(1, p42.a3), at(-1, 40), "y - a3"),  # y = +a3 exactly
        (p42, at(1, p42.a4), at(-1, 40), "y - a4"),
        (p42, ls_zero(prec), at(-1, 40), "y(t)"),
        (Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0)), mk(1, 2, prec), at(1, 0), "z(qt) - b3"),
        (Params.make(0, (0, 0, 0, 0), (1, 0, 1, 0)), mk(1, 2, prec), at(1, 1), "z(qt) - b4"),
    ]
    for p, y, z, what in cases:
        with pytest.raises(PoleError) as exc:
            qp6_step(p, eps, 0, y, z)
        assert str(exc.value) == f"pole: {what} vanished"


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
        scale = max(1, abs(mpmath.log(lhs.mag)))
        assert abs(mpmath.log(lhs.mag) - mpmath.log(rhs.mag)) < mpmath.mpf(2) ** (-prec // 4) * scale


# --- comparator ----------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        EpsSchedule((F(1), F(1)))
    with pytest.raises(ValueError):
        EpsSchedule((F(1), F(-1, 2)))
    sched = EpsSchedule.from_string("1,0.5,0.2")
    assert sched.eps_values == (F(1), F(1, 2), F(1, 5))


def test_schedule_normalises_and_rejects():
    sched = EpsSchedule([1, "1/2", 0.25])
    assert sched.eps_values == (F(1), F(1, 2), F(1, 4))
    assert all(type(e) is F for e in sched.eps_values) and sched == EpsSchedule(eps_values=sched.eps_values)
    for bad in ((), (F(1, 2), F(1, 2)), (F(1), F(0)), (F(-1),), (F(1, 4), F(1, 2))):
        with pytest.raises(ValueError):
            EpsSchedule(bad)


def test_compare_golden_window_monotone(p42):
    table = evolve_noparity(p42, 0, 43, 40, (0, 3))
    rep = ud_limit_compare(p42, table, EpsSchedule.from_string("1,0.5,0.2"), (0, 3))
    assert not rep.aborts and not rep.table_failures
    assert rep.nonmonotone() == []
    assert all(r.sign_ok_y and r.sign_ok_z and not r.warned for r in rep.rows)
    for m in (1, 2, 3):
        rows = rep.errors_for(m)
        assert rows[0].err_z > rows[-1].err_z


def _row(m, eps, err_y, err_z):
    return CompareRow(m=m, eps=F(eps), err_y=err_y, err_z=err_z, sign_ok_y=True, sign_ok_z=True, warned=False)


def test_nonmonotone_flags_each_rise_along_the_schedule():
    # hand-built rows, not in schedule order: a rise at any refinement step
    # flags its (m, variable); a fall or a tie does not
    rows = (
        _row(0, 1, 0.5, 0.5), _row(0, F(1, 2), 0.25, 0.5), _row(0, F(1, 4), 0.125, 0.25),
        _row(1, F(1, 4), 0.3, 0.1), _row(1, 1, 0.5, 0.4), _row(1, F(1, 2), 0.2, 0.2),
        _row(2, 1, 0.1, 0.1), _row(2, F(1, 2), 0.2, 0.3), _row(2, F(1, 4), 0.05, 0.05),
    )
    rep = CompareReport(rows=rows, aborts=(), schedule=EpsSchedule([1, F(1, 2), F(1, 4)]), window=(0, 2))
    assert rep.nonmonotone() == [(1, "Y"), (2, "Y"), (2, "Z")]


@pytest.mark.parametrize("precision", [None, 256])
def test_compare_aborts_on_exact_cancellation_to_zero(precision):
    # at m = 0, t = 1 and y(0) = exp(A1/eps) exactly, so y - t a1 is an exact
    # zero and so is z(qt): the run stops there with its seed row
    p = Params.make(3, (1, 2, 5, 4), (6, -6, 2, 1))
    table = SolutionTable(0, (1, 1), (1, 1), (1, 1), (0, 0))
    if precision is None:
        rep = ud_limit_compare(p, table, EpsSchedule([1]), (0, 1))
    else:
        rep = compare_at_fixed_precision(p, table, EpsSchedule([1]), (0, 1), lambda eps: precision)
    assert rep.aborts == (CompareAbort(eps=F(1), m=0, reason="exact cancellation to zero"),)
    assert [r.m for r in rep.rows] == [0] and rep.precisions[0][1] <= 256


def test_compare_flags_wrong_table_value(p42):
    table = evolve_noparity(p42, 0, 43, 40, (0, 3))
    rows = list(table.rows())
    broken = pair_table(
        table.m_lo,
        [ParityPair(y.sign, y.amp + (5 if m == 1 else 0)) for m, y, _ in rows],
        [z for _, _, z in rows],
    )
    rep = ud_limit_compare(p42, broken, EpsSchedule.from_string("1,0.5"), (0, 3))
    assert rep.table_failures  # the perturbed table is not a solution
    rows1 = rep.errors_for(1)
    # error against the wrong value plateaus near the perturbation size
    assert all(abs(r.err_y - 5) < 0.5 for r in rows1)


def test_compare_gauge_consistency(p42):
    # a uniform shift moves every log-magnitude by c/eps; errors are unchanged
    table = evolve_noparity(p42, 0, 43, 40, (0, 2))
    shifted = gauge(table, 9)
    rep = ud_limit_compare(p42, table, EpsSchedule.from_string("1,0.5"), (0, 2))
    rep_s = ud_limit_compare(
        gauge(p42, 9), shifted, EpsSchedule.from_string("1,0.5"), (0, 2)
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


def test_golden_window_accepts_pinned_precisions(p42):
    # the precisions the agreement search accepts on the benchmark's golden
    # case, as recorded before the q-oracle's operations called libmp directly
    window = (-5, 5)
    table = evolve_noparity(p42, 0, 43, 40, window)
    rep = ud_limit_compare(p42, table, EpsSchedule.from_string("1,1/2,1/4"), window)
    assert rep.precisions == ((1, 512), (F(1, 2), 1024), (F(1, 4), 2048))


def test_compare_window_must_fit(p42):
    table = evolve_noparity(p42, 0, 43, 40, (0, 2))
    with pytest.raises(ValueError):
        ud_limit_compare(p42, table, EpsSchedule.from_string("1"), (0, 5))


# --- precision by agreement --------------------------------------------------------------


def test_compare_reports_the_failures_of_the_per_index_check(p42):
    # a golden slice with long affine runs, one y amplitude moved inside the
    # run m >= 1 and one z sign flipped inside m <= -1: the report lists the
    # per-index check's failures, in its order
    table = evolve_noparity(p42, 0, 43, 40, (-30, 30))
    ys, zs = map(list, pair_columns(table))
    ys[40] = ParityPair(ys[40].sign, ys[40].amp + 1)
    zs[10] = ParityPair(-zs[10].sign, zs[10].amp)
    broken = pair_table(table.m_lo, ys, zs)
    rep = ud_limit_compare(p42, broken, EpsSchedule([1]), (0, 1))
    assert rep.table_failures == tuple(painleve_failures_per_index(p42, broken))
    assert {m for m, _ in rep.table_failures} == {-21, -20, 9, 10}


def ceiling_report(p, table, schedule, window) -> CompareReport:
    """The report of fixed runs at each eps's ceiling, default_precision."""
    bound = _amp_bound(p, table, window)
    return compare_at_fixed_precision(p, table, schedule, window, lambda eps: default_precision(eps, bound))


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
    ay = (p42.a3 + F(1, 2**offset_bits),) + table.ay[1:]
    table = SolutionTable(table.m_lo, (1,) + table.sy[1:], ay, table.sz, table.az)
    sched = EpsSchedule.from_string("1")
    ref = ceiling_report(p42, table, sched, window)
    low = compare_at_fixed_precision(p42, table, sched, window, lambda eps: 256)
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
    # the searched CLI output equals the unchecked run at the ceiling
    params = tmp_path / "p42.json"
    dump_params(p42, params)
    window = (-2, 2)
    table = evolve_noparity(p42, 0, 43, 40, window)
    ref = ceiling_report(p42, table, EpsSchedule.from_string("1/2"), window)
    assert main(["qlimit", "--params", str(params), "--y0", "-1:43", "--z0", "-1:40",
                 "--window", "-2:2", "--eps", "1/2"]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (ref.to_csv_text(), "")


# --- the search row by row against full runs -------------------------------------------

# the benchmark's qlimit inputs on p42 over -5:5: six all-minus --y0/--z0
# states, and the golden tables of both sectors
_QLIMIT_STATES = ((43, 40), (44, 40), (43, 41), (41, 43), (48, 36), (38, 45))


def _qlimit_variant(p, i, window=(-5, 5)) -> SolutionTable:
    if i < len(_QLIMIT_STATES):
        return evolve_noparity(p, 0, *_QLIMIT_STATES[i], window)
    sign = (-1, 1)[i - len(_QLIMIT_STATES)]
    return evolve(p, 0, ParityPair(sign, 43), ParityPair(sign, 40), window).tables[0]


def _assert_search_equals_full_runs(p, table, sched, window) -> CompareReport:
    rep = ud_limit_compare(p, table, sched, window)
    assert rep == compare_by_full_runs(p, table, sched, window)
    assert all(r.err_y == r.err_z == 0.0 for r in rep.rows if r.m == window[0])  # the seed rows
    return rep


@pytest.mark.parametrize("variant", range(8))
def test_search_equals_full_runs_on_benchmark_inputs(p42, variant):
    _assert_search_equals_full_runs(p42, _qlimit_variant(p42, variant), EpsSchedule.from_string("1,1/2,1/4"), (-5, 5))


_EPS = (F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 8), F(1, 10**9), F(1, 10**50))


# the p42 state moved, then gauged and scaled with its table: schedules of
# one to four eps, down to 1e-50
_P42_FAMILY = dict(
    dy=st.integers(-6, 6), dz=st.integers(-6, 6), c=st.integers(-20, 20),
    lam=st.sampled_from((F(1), F(2), F(1, 2), F(3, 5))),
    lo=st.integers(-3, 0), hi=st.integers(0, 3),
    eps=st.lists(st.sampled_from(_EPS), min_size=1, max_size=4, unique=True),
)


def _p42_case(dy, dz, c, lam, lo, hi, eps):
    """(params, table, schedule, window) of one member of the p42 family."""
    p42 = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4))
    table = scale(gauge(evolve_noparity(p42, 0, 43 + dy, 40 + dz, (lo, hi)), c), lam)
    return scale(gauge(p42, c), lam), table, EpsSchedule(sorted(eps, reverse=True)), (lo, hi)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(**_P42_FAMILY)
@example(dy=0, dz=0, c=0, lam=F(1), lo=-2, hi=2, eps=[F(1), F(1, 10**50)])
@example(dy=2, dz=-3, c=7, lam=F(3, 5), lo=-3, hi=3, eps=[F(1, 10**9), F(1, 3), F(1), F(1, 8)])
def test_search_equals_full_runs_on_p42_family(dy, dz, c, lam, lo, hi, eps):
    _assert_search_equals_full_runs(*_p42_case(dy, dz, c, lam, lo, hi, eps))


def test_search_equals_full_runs_when_an_abort_is_accepted_at_the_ceiling(p42):
    # an exact zero at m = 0 (see test_compare_aborts_on_exact_cancellation_to_zero),
    # and a pole: y(0) = +a3 exactly.  Each eps aborts at every precision, and
    # its run at the ceiling (256 bits at eps 1, above 256 at 1/8 and 1/4) is accepted
    exact = Params.make(3, (1, 2, 5, 4), (6, -6, 2, 1))
    zero = SolutionTable(0, (1, 1), (1, 1), (1, 1), (0, 0))
    pole = SolutionTable(0, (1,) * 3, (37,) * 3, (-1,) * 3, (40,) * 3)
    for p, table, window, sched, reason in (
        (exact, zero, (0, 1), "1,1/8", "exact cancellation to zero"),
        (p42, pole, (0, 2), "1,1/4", "pole: y - a3 vanished"),
    ):
        sched = EpsSchedule.from_string(sched)
        rep = _assert_search_equals_full_runs(p, table, sched, window)
        bound = _amp_bound(p, table, window)
        assert rep.aborts == tuple(CompareAbort(eps=e, m=0, reason=reason) for e in sched.eps_values)
        assert rep.precisions == tuple((e, default_precision(e, bound)) for e in sched.eps_values)
        assert [r.m for r in rep.rows] == [0, 0]
    assert rep.precisions[1][1] > 256


@pytest.mark.parametrize("offset_bits,eps", [(200, "1,1/2"), (300, "1e-50")])
def test_search_equals_full_runs_past_a_cancellation_warning(p42, offset_bits, eps):
    # y(0) 2^-offset_bits above a3.  At 2^-200 the run at 256 bits warns and
    # the one at 512 does not.  At 2^-300 and eps 1e-50 both warn and give
    # equal rows, errors past the resolution included, so only the warning
    # keeps 512 bits from confirming 256
    window = (0, 3)
    table = evolve_noparity(p42, 0, 43, 40, window)
    table = SolutionTable(0, (1,) + table.sy[1:], (p42.a3 + F(1, 2**offset_bits),) + table.ay[1:], table.sz, table.az)
    sched = EpsSchedule.from_string(eps)
    low, mid = (compare_at_fixed_precision(p42, table, sched, window, lambda eps, bits=bits: bits) for bits in (256, 512))
    assert any(r.warned for r in low.rows)
    assert (low.rows == mid.rows) == (offset_bits == 300)
    rep = _assert_search_equals_full_runs(p42, table, sched, window)
    assert all(bits > 512 for _, bits in rep.precisions)


def test_search_equals_full_runs_when_the_ceiling_is_256_bits(p42):
    # p42 and its table scaled by 1/10: at eps 1 the bound 12.2 puts the
    # ceiling at 256 bits, so its run is accepted as it stands; at 1/2 the
    # ceiling is 260 bits, one comparison above 256
    p, window = scale(p42, F(1, 10)), (-1, 1)
    table = scale(evolve_noparity(p42, 0, 43, 40, window), F(1, 10))
    rep = _assert_search_equals_full_runs(p, table, EpsSchedule.from_string("1,1/2"), window)
    assert rep.precisions == ((1, 256), (F(1, 2), 260))
    assert not rep.aborts and len(rep.rows) == 6


def _perfbench_precision():
    """The argument counter of perfbench's ``qoracle.qp6_step`` group, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.GROUPS["qoracle.qp6_step"][2]


def _count_steps(monkeypatch) -> Counter:
    """Count qp6_step calls by (eps, precision) from here on.  The run calls the
    module global with y and z at positions 3 and 4, where perfbench's counter
    reads the precision, and its own t sixth, which is passed through."""
    counts, step, precision = Counter(), qoracle.qp6_step, _perfbench_precision()

    def counting(*args):
        p, eps, m, y, z, t = args
        assert type(y) is type(z) is SignedMag and precision(args)["prec_sum"] == min(y.prec, z.prec)
        counts[eps, min(y.prec, z.prec)] += 1
        return step(*args)

    monkeypatch.setattr(qoracle, "qp6_step", counting)
    return counts


def test_golden_qlimit_takes_at_most_66_steps(monkeypatch, tmp_path, capsys, p42):
    # the benchmark's golden -5:5 --y0/--z0 job: 90 steps when every run is
    # computed in full, 60 for the six runs that must be complete
    params = tmp_path / "p42.json"
    dump_params(p42, params)
    counts = _count_steps(monkeypatch)
    assert main(["qlimit", "--params", str(params), "--y0", "-1:43", "--z0", "-1:40",
                 "--window", "-5:5", "--eps", "1,1/2,1/4"]) == 0
    capsys.readouterr()
    assert 60 <= sum(counts.values()) <= 66


def test_rejected_runs_stop_at_their_first_failing_row(monkeypatch, p42):
    # at eps 1/4 the runs at 256 and 512 bits are rejected within their first
    # four rows; 1024 bits is read in full when 2048 confirms it
    window = (-5, 5)
    table = evolve_noparity(p42, 0, 43, 40, window)
    counts = _count_steps(monkeypatch)
    rep = ud_limit_compare(p42, table, EpsSchedule([F(1, 4)]), window)
    assert rep.precisions == ((F(1, 4), 2048),)
    steps = {bits: n for (_, bits), n in counts.items()}
    assert steps[256] <= 4 and steps[512] <= 4
    assert steps[1024] == steps[2048] == 10


# --- the row error against eps*log|x| - amp -------------------------------------------


def _assert_row_error_equals_former_formula(p, table, sched, window) -> int:
    """At each precision the search visits for each eps, the library's run, whose
    row error divides by the run's images, and the former eps*log|x| - amp
    (``amplitude_error``) give equal rows but for their errors, the same verdict
    on err >= resolution past the seed row, and, where it holds, errors within a
    relative 2^-64 (two doubles that close are equal).  Returns the number of
    errors compared."""
    rep = ud_limit_compare(p, table, sched, window)
    scale_ = max(1.0, float(_amp_bound(p, table, window)))
    compared = 0
    for eps, accepted in rep.precisions:
        ladder = [256]
        while ladder[-1] < accepted:
            ladder.append(min(2 * ladder[-1], accepted))
        for prec in ladder:
            run = list(_compare_rows(p, table, eps, window, prec))
            rows, aborts = [r for r in run if type(r) is CompareRow], tuple(r for r in run if type(r) is CompareAbort)
            ref_rows, ref_aborts = _compare_run(p, table, eps, window, prec, amplitude_error)
            assert aborts == ref_aborts and len(rows) == len(ref_rows)
            resolution = math.ldexp(scale_, -(prec // 2))
            for row, ref in zip(rows[1:], ref_rows[1:]):
                assert row._replace(err_y=0.0, err_z=0.0) == ref._replace(err_y=0.0, err_z=0.0)
                for got, want in ((row.err_y, ref.err_y), (row.err_z, ref.err_z)):
                    assert (got >= resolution) == (want >= resolution), (prec, row, ref)
                    if want >= resolution:
                        assert abs(got - want) <= math.ldexp(want, -64), (prec, row, ref)
                        compared += 1
    return compared


@pytest.mark.parametrize("variant", range(8))
def test_row_error_equals_former_formula_on_benchmark_inputs(p42, variant):
    compared = _assert_row_error_equals_former_formula(
        p42, _qlimit_variant(p42, variant), EpsSchedule.from_string("1,1/2,1/4"), (-5, 5))
    assert compared >= 3 * 2 * 10  # every eps's accepted run, both columns past the seed


@settings(max_examples=20, deadline=None, derandomize=True)
@given(**_P42_FAMILY)
@example(dy=2, dz=-3, c=7, lam=F(3, 5), lo=-3, hi=3, eps=[F(1, 10**9), F(1, 3), F(1), F(1, 8)])
def test_row_error_equals_former_formula_on_p42_family(dy, dz, c, lam, lo, hi, eps):
    _assert_row_error_equals_former_formula(*_p42_case(dy, dz, c, lam, lo, hi, eps))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sector=st.sampled_from((-1, 1)))
def test_row_error_equals_former_formula_on_random_params(seed, sector):
    # random constrained parameters and states, in the all-minus sector or
    # evolved from (+1, +1) (the first table of the branches)
    rng = random.Random(seed)
    p = random_constrained_params(rng, -100, 100, (1, 100))
    window = (rng.randint(-2, 0), rng.randint(0, 2))
    y0, z0 = F(rng.randint(-150, 150), rng.randint(1, 3)), F(rng.randint(-150, 150))
    table = evolve(p, 0, ParityPair(sector, y0), ParityPair(sector, z0), window, 1).tables[0]
    sched = EpsSchedule(sorted(rng.sample((F(1), F(1, 2), F(1, 3), F(1, 4), F(2, 7)), 2), reverse=True))
    _assert_row_error_equals_former_formula(p, table, sched, window)


@pytest.mark.parametrize("lam,eps,window", [
    (F(3, 5), "1/3", (-3, 3)),
    (F(1, 3), "1/3,1/7", (-3, 3)),
    (F(2, 7), "1/3", (0, 0)),
    (F(2, 7), "1,1/2,1/4", (-3, 3)),
])
def test_seed_rows_have_error_exactly_0(p42, lam, eps, window):
    # amp/eps with a denominator (p42 scaled by lam): the seed is its cell's own
    # image, so the seed row's error is 0.0 in the report and at each precision
    # of a search's ladder
    p, table = scale(p42, lam), scale(evolve_noparity(p42, 0, 43, 40, window), lam)
    sched = EpsSchedule.from_string(eps)
    rep = ud_limit_compare(p, table, sched, window)
    seeds = [r for r in rep.rows if r.m == window[0]]
    assert len(seeds) == len(sched.eps_values) and all(r.err_y == r.err_z == 0.0 for r in seeds)
    for e in sched.eps_values:
        for prec in (256, 512, 1024, 1504):
            (seed_row, *_), _ = _compare_run(p, table, e, window, prec)
            library_seed_row = next(_compare_rows(p, table, e, window, prec))
            assert seed_row.err_y == seed_row.err_z == library_seed_row.err_y == library_seed_row.err_z == 0.0


@pytest.mark.parametrize("eps,window,crosses", [
    (F(1, 10**14), (-2, 2), True), (F(2, 7 * 10**14), (-2, 2), True), (F(1, 3), (-30, 30), False)])
def test_seed_is_the_runs_first_image(monkeypatch, p42, eps, window, crosses):
    # the run seeds y and z with their signs times their cells' first images, and a
    # seed row's error is exactly 0.0 at every precision; at eps 1e-14 and 2/7e-14
    # the run's working precision, past a 64-bit step, exceeds the seed's power's
    table = evolve_noparity(p42, 0, 43, 40, window)
    seeds, step = [], qoracle.qp6_step

    def first_step(*args):
        seeds.append(args[3:5])
        return step(*args)

    monkeypatch.setattr(qoracle, "qp6_step", first_step)
    crossed = []
    for prec in (256, 512, 1024):
        for amps in (table.ay, table.az):
            crossed.append(_run_wp(amps, eps, prec) > _power_wp(amps[0] / eps, prec))
        seeds.clear()
        seed_row, _ = itertools.islice(_compare_rows(p42, table, eps, window, prec), 2)
        (y, z), = seeds
        assert (y.sign, y.mag._mpf_, y.prec) == (table.sy[0], next(_run_images(table.ay, eps, prec)), prec)
        assert (z.sign, z.mag._mpf_, z.prec) == (table.sz[0], next(_run_images(table.az, eps, prec)), prec)
        assert (y.warn, z.warn) == (False, False) and seed_row.err_y == seed_row.err_z == 0.0
    assert all(crossed) == crosses and any(crossed) == crosses


def test_a_seed_sign_outside_plus_minus_1_raises(p42):
    # SignedMag admits 0, so the run checks a seed's sign as ls_from_amplitude does
    for sy, sz in ((0, -1), (-1, 0), (2, -1), (-1, -2)):
        table = SolutionTable(0, (sy, -1), (43, 43), (sz, -1), (40, 40))
        with pytest.raises(ValueError, match="sign must be"):
            next(_compare_rows(p42, table, F(1), (0, 1), 256))
        with pytest.raises(ValueError, match="sign must be"):
            ls_from_amplitude(sy * sz, 43, 1, 256)


def test_a_table_sign_outside_plus_minus_1_is_named_before_the_run(p42):
    # the table check names the cell in place of the kernel's KeyError((0, 1))
    table = SolutionTable(0, (0, 1), (43, 43), (-1, -1), (40, 40))
    with pytest.raises(ValueError) as exc:
        ud_limit_compare(p42, table, EpsSchedule.from_string("1"), (0, 1))
    assert str(exc.value) == "sy at index 0: sign must be +1 or -1, got 0"


def test_fractional_seed_row_settles_at_512_bits(p42):
    # p42 scaled by 3/5 at eps 1/3 over the window 0:0, whose one row is the
    # seed row: eps*log|x| - amp left noise there that differed from one
    # precision to the next, and the search went up to its ceiling, 1,504 bits
    lam, eps = F(3, 5), F(1, 3)
    p, table = scale(p42, lam), scale(evolve_noparity(p42, 0, 43, 40, (0, 0)), lam)
    noise = [_compare_run(p, table, eps, (0, 0), prec, amplitude_error)[0][0].err_y for prec in (256, 512, 1024)]
    assert len(set(noise)) == 3 and all(noise)
    rep = ud_limit_compare(p, table, EpsSchedule([eps]), (0, 0))
    assert default_precision(eps, _amp_bound(p, table, (0, 0))) == 1504
    assert rep.precisions == ((eps, 512),)
    assert rep.rows == (CompareRow(0, eps, 0.0, 0.0, True, True, False),)
