import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udp6.evolution import painleve_failures
from udp6.generate import random_constrained_params, random_parity_pair
from udp6.system import (
    ConstraintViolation,
    ParityPair,
    Params,
    check_constraint,
    params_from_obj,
    params_to_obj,
    residual_yy,
    residual_zz,
)
from udp6.tables import SolutionTable

from oracles import parity_indicator, t_add, t_max, yy_by_cases, yy_sides, zz_by_cases, zz_sides

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
    table = SolutionTable(0, (pp(-1, 43), pp(-1, 122)), (pp(-1, 40), pp(-1, -28)))
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
    table = SolutionTable(0, (pp(1, 0), pp(1, 0)), (pp(1, 0), pp(1, 0)))
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


# --- invariances ----------------------------------------------------------------


def test_gauge_and_scale_preserve_verdicts(rng):
    for _ in range(400):
        p = random_constrained_params(rng)
        m = rng.randint(-5, 5)
        y, z0, z1, y1 = (random_parity_pair(rng) for _ in range(4))
        vzz = residual_zz(p, m, y, z0, z1)
        vyy = residual_yy(p, m, y, y1, z1)
        c = F(rng.randint(-40, 40), rng.randint(1, 4))
        pg = p.gauge_shifted(c)
        assert residual_zz(pg, m, y.shifted(c), z0.shifted(c), z1.shifted(c)) == vzz
        assert residual_yy(pg, m, y.shifted(c), y1.shifted(c), z1.shifted(c)) == vyy
        lam = F(rng.randint(1, 9), rng.randint(1, 4))
        ps = p.scaled(lam)
        assert residual_zz(ps, m, y.scaled(lam), z0.scaled(lam), z1.scaled(lam)) == vzz
        assert residual_yy(ps, m, y.scaled(lam), y1.scaled(lam), z1.scaled(lam)) == vyy


# --- serialization ---------------------------------------------------------------


def test_params_json_roundtrip(p42):
    obj = params_to_obj(p42)
    assert obj["q"] == 100 and obj["b4"] == 4
    assert "sa1" not in obj  # default signs omitted
    assert params_from_obj(json.loads(json.dumps(obj))) == p42


def test_params_json_fraction_strings():
    obj = {"q": "1/2", "a1": 0, "a2": 0, "a3": 0, "a4": 0, "b1": "1/4", "b2": "1/4", "b3": 0, "b4": 0}
    p = params_from_obj(obj)
    assert p.q == F(1, 2) and p.b1 == F(1, 4)
    assert params_to_obj(p)["q"] == "1/2"


def test_params_json_rejections():
    base = {k: 0 for k in ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")}
    with pytest.raises(ValueError):
        params_from_obj({**base, "extra": 1})
    with pytest.raises(ValueError):
        params_from_obj({k: v for k, v in base.items() if k != "q"})
    with pytest.raises(ValueError):
        params_from_obj({**base, "q": 0.5})
    with pytest.raises(ValueError):
        params_from_obj({**base, "sa1": 2})
    with pytest.raises(ValueError):
        params_from_obj({**base, "sa1": True})
