import json
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udp6.evolution import painleve_failures
from udp6.system import (
    Aff,
    ConstraintViolation,
    Horizon,
    ParityPair,
    Params,
    check_constraint,
    params_from_obj,
    params_to_obj,
    parse_rational,
    random_constrained_params,
    residual_yy,
    residual_zz,
    solve_lines,
)

from oracles import (
    gauge,
    pair_table,
    parity_indicator,
    random_parity_pair,
    scale,
    t_add,
    t_max,
    yy_by_cases,
    yy_sides,
    zz_by_cases,
    zz_sides,
)

F = Fraction


def pp(sign, amp):
    return ParityPair(sign, F(amp))


# --- constraint ---------------------------------------------------------------


def test_constraint_examples(p42):
    assert check_constraint(p42)  # 177 = 177
    assert check_constraint(Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0)))
    assert not check_constraint(Params.make(100, (32, 33, 37, 22), (53, 65, 8, 5)))


def test_constraint_includes_sign_condition(p42):
    flipped = Params.make(p42.q, (32, 33, 37, 22), (53, 65, 8, 4), sa=(-1, 1, 1, 1))
    assert not check_constraint(flipped)
    balanced = Params.make(
        p42.q, (32, 33, 37, 22), (53, 65, 8, 4), sa=(-1, 1, 1, 1), sb=(-1, 1, 1, 1)
    )
    assert check_constraint(balanced)


def test_residuals_require_constraint(p42):
    bad = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 5))
    table = pair_table(0, (pp(-1, 43), pp(-1, 122)), (pp(-1, 40), pp(-1, -28)))
    assert not painleve_failures(p42, table)
    with pytest.raises(ConstraintViolation):
        painleve_failures(bad, table)


# --- residual examples -----------------------------------------------------------


def test_residual_zz_golden_example(p42):
    assert residual_zz(p42, 0, pp(-1, 43), pp(-1, 40), pp(-1, -28))
    assert not residual_zz(p42, 0, pp(-1, 43), pp(-1, 40), pp(-1, -27))


def test_residual_zz_no_solution_sector(p42, rng):
    for _ in range(200):
        y = ParityPair(-1, F(rng.randint(-99, 99)))
        z0 = random_parity_pair(rng)
        z1 = ParityPair(-z0.sign, F(rng.randint(-99, 99)))
        assert not residual_zz(p42, rng.randint(-5, 5), y, z0, z1)


def test_residual_yy_golden_example(p42):
    assert residual_yy(p42, 0, pp(-1, 43), pp(-1, 122), pp(-1, -28))
    assert not residual_yy(p42, 0, pp(-1, 43), pp(-1, 121), pp(-1, -28))


def test_residual_yy_no_solution_sector(p42, rng):
    for _ in range(200):
        y0 = random_parity_pair(rng)
        y1 = ParityPair(-y0.sign, F(rng.randint(-99, 99)))
        z1 = ParityPair(-1, F(rng.randint(-99, 99)))
        assert not residual_yy(p42, rng.randint(-5, 5), y0, y1, z1)


def test_case_reductions_agree_with_filtered_sides(rng):
    for _ in range(1000):
        p = random_constrained_params(rng)
        m = rng.randint(-6, 6)
        y, z0, z1 = (random_parity_pair(rng) for _ in range(3))
        lhs, rhs = zz_sides(p, m, y, z0, z1)
        assert zz_by_cases(p, m, y, z0, z1) == (lhs == rhs)
        y1 = random_parity_pair(rng)
        lhs, rhs = yy_sides(p, m, y, y1, z1)
        assert yy_by_cases(p, m, y, y1, z1) == (lhs == rhs)


# --- signed equations --------------------------------------------------------------


def test_signed_trivial_identity():
    p = Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0))
    assert residual_zz(p, 0, pp(1, 0), pp(1, 0), pp(1, 0))
    assert residual_yy(p, 0, pp(1, 0), pp(1, 0), pp(1, 0))


def test_signed_requires_sign_constraint(p42):
    bad = Params.make(p42.q, (32, 33, 37, 22), (53, 65, 8, 4), sa=(-1, 1, 1, 1))
    table = pair_table(0, (pp(1, 0), pp(1, 0)), (pp(1, 0), pp(1, 0)))
    with pytest.raises(ConstraintViolation):
        painleve_failures(bad, table)


def test_signed_specializes_to_plain(rng):
    for _ in range(1000):
        p = random_constrained_params(rng)
        m = rng.randint(-6, 6)
        y, z0, z1, y1 = (random_parity_pair(rng) for _ in range(4))
        assert residual_zz(p, m, y, z0, z1) == zz_by_cases(p, m, y, z0, z1)
        assert residual_yy(p, m, y, y1, z1) == yy_by_cases(p, m, y, y1, z1)


def _S(sign):
    return parity_indicator(sign)


def _zz_signed_by_hand(p, m, y, z0, z1):
    # literal transcription of the displayed eight-term equation, evaluated
    # with the tropical primitives (independent of the implementation route)
    sy, szz = y.sign, z0.sign * z1.sign
    Y, ZZ = y.amp, z0.amp + z1.amp
    mq, B34 = m * p.q, p.b3 + p.b4
    lhs = t_max(
        [
            t_add(2 * mq + p.a1 + p.a2 + B34, _S(-p.sa1 * p.sa2 * p.sb3 * p.sb4)),
            t_add(2 * Y + B34, _S(-p.sb3 * p.sb4)),
            t_add(Y + mq + p.a1 + B34, _S(p.sa1 * p.sb3 * p.sb4 * sy)),
            t_add(Y + mq + p.a2 + B34, _S(p.sa2 * p.sb3 * p.sb4 * sy)),
            t_add(2 * Y + ZZ, _S(szz)),
            t_add(ZZ + p.a3 + p.a4, _S(p.sa3 * p.sa4 * szz)),
            t_add(Y + ZZ + p.a3, _S(-p.sa3 * sy * szz)),
            t_add(Y + ZZ + p.a4, _S(-p.sa4 * sy * szz)),
        ]
    )
    rhs = t_max(
        [
            t_add(2 * mq + p.a1 + p.a2 + B34, _S(p.sa1 * p.sa2 * p.sb3 * p.sb4)),
            t_add(2 * Y + B34, _S(p.sb3 * p.sb4)),
            t_add(Y + mq + p.a1 + B34, _S(-p.sa1 * p.sb3 * p.sb4 * sy)),
            t_add(Y + mq + p.a2 + B34, _S(-p.sa2 * p.sb3 * p.sb4 * sy)),
            t_add(2 * Y + ZZ, _S(-szz)),
            t_add(ZZ + p.a3 + p.a4, _S(-p.sa3 * p.sa4 * szz)),
            t_add(Y + ZZ + p.a3, _S(p.sa3 * sy * szz)),
            t_add(Y + ZZ + p.a4, _S(p.sa4 * sy * szz)),
        ]
    )
    return lhs == rhs


def _yy_signed_by_hand(p, m, y0, y1, z1):
    sz, syy = z1.sign, y0.sign * y1.sign
    YY, Z = y0.amp + y1.amp, z1.amp
    mq, A34 = m * p.q, p.a3 + p.a4
    lhs = t_max(
        [
            t_add(2 * mq + A34 + p.b1 + p.b2, _S(-p.sa3 * p.sa4 * p.sb1 * p.sb2)),
            t_add(2 * Z + A34, _S(-p.sa3 * p.sa4)),
            t_add(Z + mq + A34 + p.b1, _S(p.sa3 * p.sa4 * p.sb1 * sz)),
            t_add(Z + mq + A34 + p.b2, _S(p.sa3 * p.sa4 * p.sb2 * sz)),
            t_add(2 * Z + YY, _S(syy)),
            t_add(YY + p.b3 + p.b4, _S(p.sb3 * p.sb4 * syy)),
            t_add(YY + Z + p.b3, _S(-p.sb3 * syy * sz)),
            t_add(YY + Z + p.b4, _S(-p.sb4 * syy * sz)),
        ]
    )
    rhs = t_max(
        [
            t_add(2 * mq + A34 + p.b1 + p.b2, _S(p.sa3 * p.sa4 * p.sb1 * p.sb2)),
            t_add(2 * Z + A34, _S(p.sa3 * p.sa4)),
            t_add(Z + mq + A34 + p.b1, _S(-p.sa3 * p.sa4 * p.sb1 * sz)),
            t_add(Z + mq + A34 + p.b2, _S(-p.sa3 * p.sa4 * p.sb2 * sz)),
            t_add(2 * Z + YY, _S(-syy)),
            t_add(YY + p.b3 + p.b4, _S(-p.sb3 * p.sb4 * syy)),
            t_add(YY + Z + p.b3, _S(p.sb3 * syy * sz)),
            t_add(YY + Z + p.b4, _S(p.sb4 * syy * sz)),
        ]
    )
    return lhs == rhs


def test_signed_agrees_with_independent_transcription(rng):
    for _ in range(1000):
        base = random_constrained_params(rng)
        signs = [rng.choice((1, -1)) for _ in range(7)]
        sb4 = signs[0] * signs[1] * signs[2] * signs[3] * signs[4] * signs[5] * signs[6]
        p = Params.make(
            base.q,
            (base.a1, base.a2, base.a3, base.a4),
            (base.b1, base.b2, base.b3, base.b4),
            sa=signs[:4],
            sb=(signs[4], signs[5], signs[6], sb4),
        )
        m = rng.randint(-5, 5)
        y, z0, z1, y1 = (random_parity_pair(rng) for _ in range(4))
        assert residual_zz(p, m, y, z0, z1) == _zz_signed_by_hand(p, m, y, z0, z1)
        assert residual_yy(p, m, y, y1, z1) == _yy_signed_by_hand(p, m, y, y1, z1)


# tie-heavy inputs: small integer amplitudes, so equal terms are frequent
_amps = st.integers(-12, 12).map(F)
_signs = st.sampled_from((1, -1))
_pairs = st.builds(ParityPair, _signs, _amps)
_signed_params = st.builds(
    lambda q, amps, signs: Params(q, *amps, *signs),
    st.integers(1, 12).map(F),
    st.lists(_amps, min_size=8, max_size=8),
    st.lists(_signs, min_size=8, max_size=8),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(p=_signed_params, m=st.integers(-3, 3), y0=_pairs, y1=_pairs, z1=_pairs)
def test_y_relation_is_the_mirrored_z_relation(p, m, y0, y1, z1):
    # any signs, no constraint: the exchange is an identity of the relations
    by_hand = _yy_signed_by_hand(p, m, y0, y1, z1)
    assert residual_zz(p.mirrored, m, z1, y0, y1) == by_hand
    assert _zz_signed_by_hand(p.mirrored, m, z1, y0, y1) == by_hand
    assert residual_yy(p, m, y0, y1, z1) == by_hand
    assert p.mirrored.mirrored == p


_SIGN_PATTERNS = list(product((1, -1), repeat=8))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    amps=st.lists(st.integers(-3, 3), min_size=9, max_size=9),
    m=st.integers(-2, 2),
    cells=st.lists(st.tuples(_signs, st.integers(-4, 4)), min_size=4, max_size=4),
)
def test_every_sign_pattern_and_state_sector_agrees_with_by_hand(amps, m, cells):
    # all 256 parameter sign tuples with no constraint (the kernel checks
    # none), each in the four state sectors, on tie-heavy small-int amplitudes:
    # this reaches every sector where a side has no term
    (s0, a0), (s1, a1), (s2, a2), (_, a3) = cells
    for signs in _SIGN_PATTERNS:
        p = Params(*amps, *signs)
        for s, ss in product((1, -1), repeat=2):
            # z-relation sector (sign y_m, sign z_m z_{m+1}) = (s, ss)
            y, z0, z1 = ParityPair(s, a0), ParityPair(s1, a1), ParityPair(ss * s1, a2)
            assert residual_zz(p, m, y, z0, z1) == _zz_signed_by_hand(p, m, y, z0, z1)
            # y-relation sector (sign z_{m+1}, sign y_m y_{m+1}) = (s, ss)
            y0, y1, z1 = ParityPair(s2, a3), ParityPair(ss * s2, a1), ParityPair(s, a2)
            assert residual_yy(p, m, y0, y1, z1) == _yy_signed_by_hand(p, m, y0, y1, z1)


def test_params_with_equal_signs_share_the_sector_memo_with_independent_verdicts():
    signs = {"sa": (-1, 1, 1, -1), "sb": (1, -1, 1, -1)}
    p = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4), **signs)
    zero = Params.make(1, (0, 0, 0, 0), (0, 0, 0, 0), **signs)
    assert p._zz_parts[0] is zero._zz_parts[0]
    for state, verdicts in (
        ((pp(1, 35), pp(1, 10), pp(1, 0)), (True, False)),
        ((pp(1, 0), pp(1, 0), pp(1, 0)), (False, True)),
    ):
        assert tuple(residual_zz(q, 0, *state) for q in (p, zero)) == verdicts
        assert tuple(_zz_signed_by_hand(q, 0, *state) for q in (p, zero)) == verdicts


# --- invariances ----------------------------------------------------------------


def test_gauge_and_scale_preserve_verdicts(rng):
    for _ in range(400):
        p = random_constrained_params(rng)
        m = rng.randint(-5, 5)
        y, z0, z1, y1 = (random_parity_pair(rng) for _ in range(4))
        vzz = residual_zz(p, m, y, z0, z1)
        vyy = residual_yy(p, m, y, y1, z1)
        c = F(rng.randint(-40, 40), rng.randint(1, 4))
        pg = gauge(p, c)
        assert residual_zz(pg, m, gauge(y, c), gauge(z0, c), gauge(z1, c)) == vzz
        assert residual_yy(pg, m, gauge(y, c), gauge(y1, c), gauge(z1, c)) == vyy
        lam = F(rng.randint(1, 9), rng.randint(1, 4))
        ps = scale(p, lam)
        assert residual_zz(ps, m, scale(y, lam), scale(z0, lam), scale(z1, lam)) == vzz
        assert residual_yy(ps, m, scale(y, lam), scale(y1, lam), scale(z1, lam)) == vyy


# --- serialization ---------------------------------------------------------------


def test_params_json_roundtrip(p42):
    obj = params_to_obj(p42)
    assert obj["q"] == 100 and obj["b4"] == 4
    assert "sa1" not in obj  # default signs omitted
    assert params_from_obj(json.loads(json.dumps(obj))) == p42


def test_params_json_keeps_signs_other_than_plus_one():
    signed = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4), sa=(-1, 1, 1, 1), sb=(1, 1, -1, 1))
    obj = params_to_obj(signed)
    assert {k: obj[k] for k in obj if k.startswith("s")} == {"sa1": -1, "sb3": -1}
    assert params_from_obj(json.loads(json.dumps(obj))) == signed


def test_params_json_fraction_strings():
    obj = {"q": "1/2", "a1": 0, "a2": 0, "a3": 0, "a4": 0, "b1": "1/4", "b2": "1/4", "b3": 0, "b4": 0}
    p = params_from_obj(obj)
    assert p.q == F(1, 2) and p.b1 == F(1, 4)
    assert params_to_obj(p)["q"] == "1/2"


def test_params_json_keeps_integers_as_ints_and_reads_other_text_as_fractions(p42):
    base = {k: 0 for k in ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")}
    p = params_from_obj({**base, "q": 100, "a1": "100", "a2": "1/2", "a3": "-0"})
    assert [(type(v), v) for v in (p.q, p.a1, p.a2, p.a3)] == [(int, 100), (int, 100), (F, F(1, 2)), (int, 0)]
    # int parameters round-trip through JSON as ints: the kernel runs on them as they are
    loaded = params_from_obj(json.loads(json.dumps(params_to_obj(p42))))
    assert all(type(v) is int for v in loaded)


def test_params_json_rejections():
    base = {k: 0 for k in ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")}
    with pytest.raises(ValueError):
        params_from_obj({**base, "extra": 1})
    with pytest.raises(ValueError):
        params_from_obj({k: v for k, v in base.items() if k != "q"})
    with pytest.raises(ValueError):
        params_from_obj({**base, "q": 0.5})
    with pytest.raises(ValueError, match="a1: rationals must be integers"):
        params_from_obj({**base, "a1": True})
    with pytest.raises(ValueError):
        params_from_obj({**base, "sa1": 2})
    with pytest.raises(ValueError):
        params_from_obj({**base, "sa1": True})


@pytest.mark.parametrize("text", ["4" * 5000 + "/3", "3/" + "7" * 5000, "1e5000", "1e-5000", "1e99999999"],
                         ids=["numerator", "denominator", "exponent", "negative-exponent", "huge-exponent"])
def test_parse_rational_refuses_text_over_the_digit_limit_at_once(text):
    # refused before Fraction runs, which takes seconds to build 10**10000000;
    # the message names the input and the limit, and does not echo the text
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        parse_rational(text, "Y")
    assert time.perf_counter() - start < 1
    assert str(info.value) == "Y: rational with a numerator or denominator over int's limit of 4300 digits"


def test_parse_rational_reads_text_at_the_digit_limit():
    # a numerator or denominator of 4300 digits still prints; one of 4301 would not
    for text in ("9" * 4300 + "/7", "7/" + "9" * 4300, "1e4299", "1e-4299", "0." + "1" * 4299, "1_0e4298"):
        value = parse_rational(text, "Y")
        assert value == Fraction(text) and str(value)
    for text in ("1e4300", "1e-4300", "0." + "1" * 4300, "1_0e4299"):
        with pytest.raises(ValueError, match="over int's limit"):
            parse_rational(text, "Y")


# --- the Params value type ------------------------------------------------------


def test_params_keeps_ints_and_turns_the_rest_into_fractions():
    p = Params(7, "7/2", 1.5, 0, F(0), 0, 0, 0, 0)
    assert type(p.q) is int and type(p.a3) is int and type(p.a4) is F
    assert type(p.a1) is F and p.a1 == F(7, 2)
    assert type(p.a2) is F and p.a2 == F(3, 2)
    assert (p.sa1, p.sb4) == (1, 1)
    assert Params(*p) == p and Params(**p._asdict()) == p


@pytest.mark.parametrize("sign", [0, 2])
def test_params_rejects_signs_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign must be"):
        Params.make(1, (0, 0, 0, 0), (0, 0, 0, 0), sa=(1, 1, sign, 1))
    with pytest.raises(ValueError, match="sign must be"):
        Params(1, 0, 0, 0, 0, 0, 0, 0, 0, sb4=sign)


def test_params_mirrored_is_cached_and_equals_the_explicit_mirror():
    p = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4), sa=(-1, 1, 1, -1), sb=(1, -1, 1, -1))
    mirrored = p.mirrored
    assert mirrored is p.mirrored and type(mirrored) is Params
    assert mirrored == Params.make(100, (53, 65, 8, 4), (32, 33, 37, 22), sa=(1, -1, 1, -1), sb=(-1, 1, 1, -1))
    assert mirrored.mirrored == p
    # the cache is per instance and not a field: equality and hashing ignore it
    twin = Params(*p)
    assert "mirrored" not in vars(twin) and twin == p and hash(twin) == hash(p)


def test_equal_params_hash_alike(p42):
    # the q-oracle caches per-parameter images under an lru_cache keyed on Params
    twin = Params.make(F(100), (F(32), 33, F(74, 2), 22), (53, 65, 8, 4))
    assert twin == p42 and hash(twin) == hash(p42)
    assert len({p42, twin}) == 1


# --- values affine in the step count ------------------------------------------------


def _at(x, t):
    """An Aff or a plain number at step count t."""
    return x.s * t + x.c if isinstance(x, Aff) else x


def test_aff_arithmetic_is_affine_and_shares_the_horizon():
    h = Horizon()
    x, y = Aff(3, F(1, 2), h), Aff(-1, 4, h)
    results = [x + y, x + 2, 2 + x, x + F(1, 3), x - y, x - 5, 5 - x, F(7, 2) - x, -x,
               x * 4, 4 * x, x * F(-2, 3), F(-2, 3) * x, 2 * x - 3 * y + 1]
    wanted = [lambda t: _at(x, t) + _at(y, t), lambda t: _at(x, t) + 2, lambda t: 2 + _at(x, t),
              lambda t: _at(x, t) + F(1, 3), lambda t: _at(x, t) - _at(y, t), lambda t: _at(x, t) - 5,
              lambda t: 5 - _at(x, t), lambda t: F(7, 2) - _at(x, t), lambda t: -_at(x, t),
              lambda t: 4 * _at(x, t), lambda t: 4 * _at(x, t), lambda t: F(-2, 3) * _at(x, t),
              lambda t: F(-2, 3) * _at(x, t), lambda t: 2 * _at(x, t) - 3 * _at(y, t) + 1]
    for r, f in zip(results, wanted):
        assert isinstance(r, Aff) and r.horizon is h
        assert [_at(r, t) for t in range(5)] == [f(t) for t in range(5)]
    assert h.t is None  # arithmetic compares nothing


def test_aff_is_unhashable_and_takes_no_nonlinear_or_float_operands():
    x = Aff(1, 0, Horizon())
    with pytest.raises(TypeError):
        hash(x)
    for bad in (lambda: x * x, lambda: x * 0.5, lambda: x + 0.5, lambda: 0.5 - x, lambda: x > 0.5):
        with pytest.raises(TypeError):
            bad()


_OPS = {
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b, "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b, "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


# (slope, intercept) of the difference, then per operator (outcome at t = 0, horizon)
@pytest.mark.parametrize("line, expected", [
    ((-1, 3), {">": (True, 2), ">=": (True, 3), "<": (False, 3), "<=": (False, 2),
               "==": (False, 2), "!=": (True, 2)}),  # falls through 0 at t = 3
    ((2, -6), {">": (False, 3), ">=": (False, 2), "<": (True, 2), "<=": (True, 3),
               "==": (False, 2), "!=": (True, 2)}),  # rises through 0 at t = 3
    ((-2, 5), {">": (True, 2), ">=": (True, 2), "<": (False, 2), "<=": (False, 2),
               "==": (False, None), "!=": (True, None)}),  # falls through 0 at t = 5/2
    ((F(3, 2), F(-7, 3)), {">": (False, 1), ">=": (False, 1), "<": (True, 1), "<=": (True, 1),
                           "==": (False, None), "!=": (True, None)}),  # rises through 0 at t = 14/9
    ((1, 0), {">": (False, 0), ">=": (True, None), "<": (False, None), "<=": (True, 0),
              "==": (True, 0), "!=": (False, 0)}),  # leaves 0 at t = 0
    ((0, -1), {op: (_OPS[op](-1, 0), None) for op in _OPS}),  # constant
], ids=["integer-root-falling", "integer-root-rising", "half-root", "fraction-root", "root-at-0", "flat"])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_aff_comparison_horizon_at_each_kind_of_root(line, expected, op):
    # the difference x - other is the line; other is an int, a Fraction or an Aff
    s, c = line
    for make_other in (lambda h: 4, lambda h: F(-5, 7), lambda h: Aff(F(1, 3), 2, h)):
        h = Horizon()
        other = make_other(h)
        x = Aff(s, c, h) + other
        assert _OPS[op](x, other) is expected[op][0] and h.t == expected[op][1]
        h.t = None
        assert _OPS[op](x - other, 0) is expected[op][0] and h.t == expected[op][1]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    s=st.fractions(-4, 4, max_denominator=3), c=st.fractions(-12, 12, max_denominator=3),
    other=st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4)),
    op=st.sampled_from(sorted(_OPS)), reflected=st.booleans(),
)
def test_aff_comparison_outcome_lasts_exactly_to_the_horizon(s, c, other, op, reflected):
    # the outcome at t = 0 is the plain comparison there; it holds at every t
    # up to the horizon and fails at the next, or holds for ever (here up to
    # t = 200, past every root of these lines) when there is no horizon
    h = Horizon()
    x = Aff(s, c, h)
    got = _OPS[op](other, x) if reflected else _OPS[op](x, other)
    plain = (lambda t: _OPS[op](other, _at(x, t))) if reflected else (lambda t: _OPS[op](_at(x, t), other))
    assert got is plain(0)
    last = 200 if h.t is None else h.t
    assert all(plain(t) is got for t in range(last + 1))
    if h.t is not None:
        assert plain(h.t + 1) is not got


def test_max_and_solve_lines_run_on_aff():
    # the builtins and the closed form take the same path up to the horizon
    h = Horizon()
    x, y = Aff(1, 0, h), Aff(-1, 5, h)
    assert max(x, y) is y and h.t == 2
    h.t = None
    # max(3, x + t) == max(1, x + 2): the point x = 1 while t < 2, where the
    # slope-1 lines meet and the set becomes the ray x >= 1
    lo, hi = solve_lines(Aff(0, 3, h), Aff(1, 0, h), 1, 2)
    assert (lo.s, lo.c) == (hi.s, hi.c) == (0, 1) and h.t == 1
    assert solve_lines(3, 2, 1, 2) == (1, None)
