import random
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import udp6.evolution as evolution
import udp6.families as families
from udp6.evolution import evolve_noparity, painleve_failures, step_y_parity, step_z_parity
from udp6.families import (
    FAMILY_IDS,
    FamilySpec,
    LinearAnsatz,
    compute_h,
    detect_asymptotic_linearity,
    instantiate_family,
)
from udp6.riccati import riccati_failures
from udp6.system import ParityPair, Params, random_constrained_params, residual_yy, residual_zz

from goldens import golden2_y, golden2_z
from oracles import (
    ansatz_inequalities_at, check_linear_ansatz, detect_per_index, gauge, pair_table, quantified_per_index,
    scale, theorem_check,
)

F = Fraction


def pp(sign, amp):
    return ParityPair(sign, F(amp))


# --- derived constants ------------------------------------------------------------


def test_compute_h_reference_values(p41):
    assert compute_h(p41) == (38, 85)


def test_compute_h_degenerate_and_invariances(p41):
    from udp6.system import Params

    flat = Params.make(0, (5, 5, 5, 5), (5, 5, 5, 5))
    assert compute_h(flat) == (0, 0)
    assert compute_h(gauge(p41, 9)) == (38, 85)
    assert compute_h(scale(p41, F(3, 2))) == (57, F(255, 2))


# --- patched global families --------------------------------------------------------


@pytest.mark.parametrize("c,expect", [(30, False), (31, True), (46, True), (47, False)])
def test_sol0_validity_window(p41, c, expect):
    res = instantiate_family(FamilySpec("sol0", c=F(c)), p41, (-5, 5))
    assert res.valid is expect
    if not expect:
        assert len(res.violated()) == 1
        side = "<= c" if c < 31 else "c <="
        assert side in res.violated()[0].expr


def test_sol0_valid_tables_pass_residuals(p41):
    for c in (31, 40, 46):
        res = instantiate_family(FamilySpec("sol0", c=F(c)), p41, (-6, 6))
        assert res.valid
        assert not riccati_failures(p41, res.table)
        assert theorem_check(p41, res.table)


def test_soln2_instantiation(p41):
    res = instantiate_family(
        FamilySpec("soln2", c_prime=F(193), m0=-2), p41, (-6, 5)
    )
    assert res.valid
    t = res.table
    # -1 parity tail, +1 constant plateau, then the affine piece
    assert t.y(-3) == pp(-1, 85 * -3 + 193)
    assert t.y(-1) == pp(1, 67)
    assert t.y(0) == pp(1, 67)
    assert t.y(2) == pp(-1, 38 * 2 + 46)
    assert t.z(-1) == pp(1, 42)
    assert t.z(3) == pp(1, 62 * 3 - 20)
    assert not riccati_failures(p41, t)


def test_soln2_cprime_range(p41):
    # admissible iff -85*m0+23 <= c' <= -85*m0+67
    for cp, expect in ((192, False), (193, True), (237, True), (238, False)):
        res = instantiate_family(FamilySpec("soln2", c_prime=F(cp), m0=-2), p41, (-6, 5))
        assert res.valid is expect


def test_soln2_rejects_nonnegative_m0(p41):
    with pytest.raises(ValueError):
        instantiate_family(FamilySpec("soln2", c_prime=F(193), m0=0), p41, (-6, 5))


def test_solp_instantiation(p41):
    # admissible iff 21+38*m0 <= c <= 59+38*m0
    for c, expect in ((96, False), (97, True), (135, True), (136, False)):
        res = instantiate_family(FamilySpec("solp", c=F(c), m0=2), p41, (-5, 8))
        assert res.valid is expect
        if expect:
            assert not riccati_failures(p41, res.table)
    with pytest.raises(ValueError):
        instantiate_family(FamilySpec("solp", c=F(100), m0=-1), p41, (-5, 8))


def test_r_families_valid_windows_pass_residuals(p41):
    cases = [
        (FamilySpec("r1", c=F(40)), (1, 5)),
        (FamilySpec("r2", c=F(59)), (1, 5)),
        (FamilySpec("r3", c_prime=F(150)), (-6, -2)),
        (FamilySpec("r4", c_prime=F(150)), (-6, -2)),
        (FamilySpec("pconst"), (2, 6)),
    ]
    for spec, window in cases:
        res = instantiate_family(spec, p41, window)
        assert res.valid, (spec.family, [c.expr for c in res.violated()])
        assert not riccati_failures(p41, res.table), spec.family
        assert theorem_check(p41, res.table)


# the valid family tables of the tests above, on p41
_FAMILY_TABLES = (
    [(FamilySpec("sol0", c=F(c)), (-6, 6)) for c in (31, 40, 46)]
    + [(FamilySpec("soln2", c_prime=F(c), m0=-2), (-6, 5)) for c in (193, 215, 237)]
    + [(FamilySpec("solp", c=F(c), m0=2), (-5, 8)) for c in (97, 116, 135)]
    + [(FamilySpec("r1", c=F(40)), (1, 5)), (FamilySpec("r2", c=F(59)), (1, 5)),
       (FamilySpec("r3", c_prime=F(150)), (-6, -2)), (FamilySpec("r4", c_prime=F(150)), (-6, -2)),
       (FamilySpec("pconst"), (2, 6))]
)


def _step_kind(holds, cell, corners):
    """A step's cell as ``evolve`` sees it: one of its corner solutions, or a
    cell inside the solution set of its sign, a ray or the whole line.  Each
    side of a step relation is the max of lines of slope 0 and 1 in the cell's
    amplitude, so beyond every breakpoint the relation holds on one side or
    not: probes 10^9 out tell a ray from the line."""
    assert holds(cell.amp)
    if cell in corners:
        return "corner"
    ends = holds(cell.amp - 10**9), holds(cell.amp + 10**9)
    assert any(ends), (cell, corners)  # a point would be a corner
    return "line" if all(ends) else "ray"


@pytest.mark.parametrize("spec,window", _FAMILY_TABLES,
                         ids=[f"{s.family}-{s.c or s.c_prime or ''}" for s, _ in _FAMILY_TABLES])
def test_family_tables_walked_forward_leave_the_corners_only_inside_a_ray(p41, spec, window):
    # every valid family table solves both residual suites; walked forward, each
    # z- and y-step's cell is a corner solution of the steppers or lies inside a
    # ray.  sol0 and r1-r4 are corner solutions throughout; soln2, solp and
    # pconst leave the corners at these steps, at a tie of U with U' or V with V',
    # where both signs' rays end at V - U
    res = instantiate_family(spec, p41, window)
    t = res.table
    assert res.valid and not painleve_failures(p41, t) and not riccati_failures(p41, t)
    off = []
    for m in range(t.m_lo, t.m_hi):
        y, z, y1, z1 = t.y(m), t.z(m), t.y(m + 1), t.z(m + 1)
        kinds = (
            ("z", _step_kind(lambda a: residual_zz(p41, m, y, z, ParityPair(z1.sign, a)), z1,
                             step_z_parity(p41, m, y, z))),
            ("y", _step_kind(lambda a: residual_yy(p41, m, y, ParityPair(y1.sign, a), z1), y1,
                             step_y_parity(p41, m, y, z1))),
        )
        off += [(m, which, kind) for which, kind in kinds if kind != "corner"]
    first = {
        ("soln2", F(193)): (-1, "z"), ("soln2", F(215)): (-2, "y"), ("soln2", F(237)): (-2, "y"),
        ("solp", F(97)): (-1, "z"), ("solp", F(116)): (-1, "z"), ("solp", F(135)): (-1, "z"),
        ("pconst", None): (2, "y"),
    }.get((spec.family, spec.c if spec.c is not None else spec.c_prime))
    assert [(m, which) for m, which, _ in off[:1]] == ([first] if first else [])
    assert {kind for _, _, kind in off} <= {"ray"}


def test_linear_ansatz_and_family_spec_convert_their_arguments():
    ansatz = LinearAnsatz(3, "1/2", 0.25)
    assert ansatz == (3, F(1, 2), F(1, 4)) and type(ansatz.alpha) is int
    assert type(ansatz.beta) is F and type(ansatz.gamma) is F
    assert LinearAnsatz(alpha=F(1), beta=2, gamma=F(-3, 4)) == (1, 2, F(-3, 4))
    spec = FamilySpec("lin", c=3, c_prime="5/2", m0=1, ansatz=ansatz)
    assert type(spec.c) is F and spec.c == 3 and spec.c_prime == F(5, 2)
    assert spec.m0 == 1 and spec.ansatz is ansatz
    assert FamilySpec("pconst") == FamilySpec(family="pconst", c=None, c_prime=None, m0=None, ansatz=None)
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        FamilySpec("nope", c=1)


def test_family_rejects_empty_window(p41):
    with pytest.raises(ValueError, match="empty window"):
        instantiate_family(FamilySpec("sol0", c=F(31)), p41, (2, 1))


def test_family_requires_free_parameter(p41):
    with pytest.raises(ValueError):
        instantiate_family(FamilySpec("sol0"), p41, (-2, 2))
    with pytest.raises(ValueError):
        FamilySpec("nope")


def test_families_require_reduction_conditions(p42):
    from udp6.system import ConstraintViolation

    with pytest.raises(ConstraintViolation):
        instantiate_family(FamilySpec("sol0", c=F(31)), p42, (-2, 2))


# --- linear ansatz --------------------------------------------------------------------


def test_golden_forward_ansatz(p42):
    ansatz = LinearAnsatz(F(89), F(111), F(-117))
    # identity: 2*(111-117)+89 = 77 = B3+B4+A1+A2
    assert 2 * (ansatz.beta + ansatz.gamma) + ansatz.alpha == 77
    assert all(check_linear_ansatz(p42, ansatz, m) for m in range(1, 30))
    assert not check_linear_ansatz(p42, ansatz, 0)


def test_golden_backward_ansatz(p42):
    ansatz = LinearAnsatz(F(95), F(111), F(40))
    # identity: 95 + 2*(40-111) = -47 = B3+B4-A3-A4
    assert ansatz.alpha + 2 * (ansatz.gamma - ansatz.beta) == -47
    assert all(check_linear_ansatz(p42, ansatz, m, primed=True) for m in range(-30, -1))
    assert not check_linear_ansatz(p42, ansatz, -1, primed=True)


def test_ansatz_slope_out_of_range_is_false(p42):
    # alpha = 101 with beta, gamma solving the identity: 2*(b+g)+101 = 77
    ansatz = LinearAnsatz(F(101), F(0), F(-12))
    assert not check_linear_ansatz(p42, ansatz, 5)


def test_ansatz_identity_violation_raises(p42):
    with pytest.raises(ValueError):
        check_linear_ansatz(p42, LinearAnsatz(F(89), F(111), F(-116)), 1)


def test_ansatz_equalities_hold_under_evolution_constraint(rng):
    """Brute-force resolution of the constraint direction: with parameters
    satisfying B1+B2+A3+A4 = Q+A1+A2+B3+B4, the affine substitution solves the
    all-minus relations exactly wherever the inequalities hold."""
    checked = 0
    for _ in range(300):
        p = random_constrained_params(rng)
        alpha = F(rng.randint(0, int(p.q)))
        beta = F(rng.randint(-80, 80))
        gamma = (p.b3 + p.b4 + p.a1 + p.a2 - alpha) / 2 - beta
        ansatz = LinearAnsatz(alpha, beta, gamma)

        def y(m):
            return pp(-1, (p.q - alpha) * m + beta)

        def z(m):
            return pp(-1, alpha * m + gamma)

        for m in range(-12, 12):
            if check_linear_ansatz(p, ansatz, m):
                assert residual_zz(p, m, y(m), z(m), z(m + 1))
                assert residual_yy(p, m, y(m), y(m + 1), z(m + 1))
                checked += 1
    assert checked > 100


def test_evolution_constraint_is_the_one_used(p42):
    # the reference parameters satisfy the evolution constraint but not the
    # alternative direction, yet their affine tails satisfy the identity
    assert p42.b1 + p42.b2 + p42.a3 + p42.a4 == p42.q + p42.a1 + p42.a2 + p42.b3 + p42.b4
    assert p42.b3 + p42.b4 + p42.a1 + p42.a2 != p42.q + p42.a3 + p42.a4 + p42.b1 + p42.b2
    assert 2 * (111 - 117) + 89 == p42.b3 + p42.b4 + p42.a1 + p42.a2


def test_lin_families_instantiate(p42):
    spec = FamilySpec("lin", ansatz=LinearAnsatz(F(89), F(111), F(-117)))
    res = instantiate_family(spec, p42, (1, 9))
    assert res.valid
    assert not painleve_failures(p42, res.table)
    spec_p = FamilySpec("linprime", ansatz=LinearAnsatz(F(95), F(111), F(40)))
    res_p = instantiate_family(spec_p, p42, (-9, -2))
    assert res_p.valid
    assert not painleve_failures(p42, res_p.table)
    res_bad = instantiate_family(spec, p42, (0, 9))
    assert not res_bad.valid


# --- asymptotic linearity detection -----------------------------------------------------


def _columns(table):
    """A table as the detector reads it: its first index and its two amplitude columns."""
    return table.m_lo, list(table.ay), list(table.az)


def test_detector_on_first_golden_table(p42):
    table = evolve_noparity(p42, 0, 43, 40, (-10, 10))
    rep = detect_asymptotic_linearity(p42, *_columns(table), 4)
    f, b = rep.forward, rep.backward
    assert f is not None and b is not None
    assert (f.m_edge, f.alpha, f.beta, f.gamma) == (1, 89, 111, -117)
    assert (f.slope_y, f.slope_z) == (11, 89)
    assert f.verified
    assert (b.m_edge, b.alpha, b.beta, b.gamma) == (-1, 95, 111, 40)
    assert b.verified
    assert rep.detected and rep.verified


def test_detector_on_second_golden_table(p42):
    table = evolve_noparity(p42, 0, 43, 50, (-12, 15))
    rep = detect_asymptotic_linearity(p42, *_columns(table), 2)
    f, b = rep.forward, rep.backward
    assert (f.m_edge, f.slope_y, f.slope_z) == (13, 9, 91)
    assert f.alpha == 91 and f.verified
    assert (b.m_edge, b.alpha) == (-8, 85)
    assert (b.beta, b.gamma) == (-81, -147)
    assert b.verified
    # the isolated off-line values sit just outside the detected tails
    assert table.y(-7).amp == golden2_y(-7) and table.z(12).amp == golden2_z(12)


def test_detector_on_exactly_affine_table(p42):
    rows_y = tuple(pp(-1, 11 * m + 111) for m in range(1, 12))
    rows_z = tuple(pp(-1, 89 * m - 117) for m in range(1, 12))
    table = pair_table(1, rows_y, rows_z)
    rep = detect_asymptotic_linearity(p42, *_columns(table), 3)
    assert rep.forward is not None and rep.forward.m_edge == 1
    assert rep.backward is not None and rep.backward.m_edge == 11


def test_detector_window_too_large_fails_affinity(p42):
    # w = 3 straddles the second golden table's corner at m = 12
    table = evolve_noparity(p42, 0, 43, 50, (-12, 15))
    rep = detect_asymptotic_linearity(p42, *_columns(table), 3)
    assert rep.forward is None


def test_detector_validation(p42):
    table = evolve_noparity(p42, 0, 43, 40, (-2, 2))
    with pytest.raises(ValueError):
        detect_asymptotic_linearity(p42, *_columns(table), 4)
    with pytest.raises(ValueError):
        detect_asymptotic_linearity(p42, *_columns(table), 1)


def test_detector_rejects_columns_of_unequal_length(p42):
    lo, ys, zs = _columns(evolve_noparity(p42, 0, 43, 40, (-10, 10)))
    for cols in ((ys, zs[1:]), (ys[1:], zs), (ys, zs + [zs[-1]])):
        with pytest.raises(ValueError, match="^y and z columns must have equal length$"):
            detect_asymptotic_linearity(p42, lo, *cols, 4)


def _detects_as_per_index(p, table, w):
    """The column detector's report on the table, asserted to be the per-index
    reference's, value and type for value; or, when the reference raises,
    asserted to raise the same message (None)."""
    try:
        want = detect_per_index(p, table, w)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            detect_asymptotic_linearity(p, *_columns(table), w)
        assert str(got.value) == str(exc)
        return None
    got = detect_asymptotic_linearity(p, *_columns(table), w)
    assert got == want
    assert [[type(v) for v in fit] for fit in got if fit] == [[type(v) for v in fit] for fit in want if fit]
    return got


@pytest.mark.parametrize("seed", range(8))
def test_column_detector_equals_per_index_reference_on_scan_draws(seed):
    # the conjecture scan's draws at -30:30 (seeds 0-7, all 40 runs of each)
    rng, detected = random.Random(seed), 0
    for _ in range(40):
        p = random_constrained_params(rng)
        y0, z0 = rng.randint(-150, 150), rng.randint(-150, 150)
        table = evolve_noparity(p, 0, y0, z0, (-30, 30))
        for w in (2, 4, 8):
            detected += _detects_as_per_index(p, table, w).detected
    assert 0 < detected < 3 * 40


@pytest.mark.parametrize("third", [False, True])
@pytest.mark.parametrize("w", [2, 3, 5])
def test_column_detector_equals_per_index_reference_on_affine_tables(p42, w, third):
    # affine end to end, in ints and, divided by 3, in Fractions: each tail runs to the far edge
    ms = range(1, 14)
    table = pair_table(1, [ParityPair(-1, 11 * m + 111) for m in ms], [ParityPair(-1, 89 * m - 117) for m in ms])
    p = p42
    if third:
        p, table = scale(p42, F(1, 3)), scale(table, F(1, 3))
    rep = _detects_as_per_index(p, table, w)
    assert (rep.forward.m_edge, rep.backward.m_edge) == (1, 13)
    assert rep.forward.verified and isinstance(rep.forward.beta, F if third else int)


@pytest.mark.parametrize("w", [2, 3, 4])
@pytest.mark.parametrize("off", [0, 1])
def test_column_detector_equals_per_index_reference_at_a_break_near_the_edge(p42, w, off):
    # one cell off the line w + off rows in from each edge (w + 1 points from it, off = 1):
    # a tail of exactly w steps when off = 1, none when off = 0
    lo, n = -4, 2 * w + 5
    ms = range(lo, lo + n)
    bend = {lo + w + off, lo + n - 1 - w - off}

    def col(slope, icpt):
        return tuple(ParityPair(-1, slope * m + icpt + (m in bend)) for m in ms)

    for ys, zs in ((col(11, 111), col(89, -117)), (col(11, 111), col(89, F(-351, 3))), (col(F(7, 2), 1), col(0, 0))):
        rep = _detects_as_per_index(p42, pair_table(lo, ys, zs), w)
        if off:
            assert (rep.forward.m_edge, rep.backward.m_edge) == (lo + n - 1 - w, lo + w)
        else:
            assert rep.forward is None and rep.backward is None


@pytest.mark.parametrize("w", [0, 1, 2, 3, 4])
def test_column_detector_equals_per_index_reference_on_short_tables(p42, w):
    # every length below 2w + 2 points, and the shortest accepted one
    for n in range(1, 2 * w + 3):
        ms = range(n)
        table = pair_table(0, [ParityPair(-1, 11 * m) for m in ms], [ParityPair(-1, 89 * m) for m in ms])
        rep = _detects_as_per_index(p42, table, w)
        assert (rep is None) == (w < 2 or n < 2 * w + 2)


@st.composite
def _hand_tables(draw):
    """Parameters, a table over up to 20 points, int (d = 1) or rational, whose
    two columns each step by one value over a head and a tail of random
    lengths and at random between them, and a w."""
    d = draw(st.sampled_from((1, 2, 3)))
    p = draw(_constrained_params(d))
    lo, n = draw(st.integers(-12, 12)), draw(st.integers(1, 20))
    cols = []
    for _ in range(2):
        steps = [draw(_rationals(-6, 6, d)) for _ in range(n - 1)]
        head, tail = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        steps[:head] = [draw(_rationals(-6, 6, d))] * head
        steps[n - 1 - tail:] = [draw(_rationals(-6, 6, d))] * tail
        sign = draw(st.sampled_from((-1, 1)))
        cols.append(tuple(ParityPair(sign, v) for v in accumulate([draw(_rationals(-24, 24, d))] + steps)))
    return p, pair_table(lo, *cols), draw(st.integers(1, 5))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_hand_tables())
def test_column_detector_equals_per_index_reference_on_hand_built_tables(case):
    _detects_as_per_index(*case)


# --- affine conditions decided at the ends of their range ----------------------------------


@st.composite
def _rationals(draw, lo, hi, d):
    """An int in [lo, hi] when d = 1, else a Fraction with denominator dividing d."""
    n = draw(st.integers(lo * d, hi * d))
    return n if d == 1 else F(n, d)


@st.composite
def _constrained_params(draw, d):
    q = draw(_rationals(1, 12, d))
    a = [draw(_rationals(-12, 12, d)) for _ in range(4)]
    b1, b2, b3 = (draw(_rationals(-12, 12, d)) for _ in range(3))
    return Params.make(q, a, (b1, b2, b3, b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3))


@st.composite
def _fit_cases(draw):
    """Parameters, an ansatz and a primed flag, all int (d = 1) or rational."""
    d = draw(st.sampled_from((1, 1, 2, 3)))
    p = draw(_constrained_params(d))
    alpha = draw(_rationals(-2, int(p.q) + 2, d))
    beta, gamma = draw(_rationals(-24, 24, d)), draw(_rationals(-24, 24, d))
    return p, LinearAnsatz(alpha, beta, gamma), draw(st.booleans())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_fit_cases(), lo=st.integers(-24, 24), n=st.integers(0, 12))
def test_endpoint_rule_equals_per_index_verdict(case, lo, n):
    p, fit, primed = case
    rng = range(lo, lo + n)
    at_ends = families._holds_on(rng, lambda m: evolution._ansatz_inequalities(p, tuple(fit), m, primed))
    assert at_ends == all(ansatz_inequalities_at(p, fit, m, primed) for m in rng)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_fit_cases(), lo=st.integers(-24, 12), tail=st.integers(3, 12), rest=st.integers(0, 6),
       w=st.integers(2, 3))
# alpha < 0: the inequalities hold at the tail's first step index and fail before its last
@example(case=(Params.make(5, (3, -4, -6, -3), (1, 4, -3, -5)), LinearAnsatz(-2, -12, 9), False),
         lo=-1, tail=5, rest=3, w=2)
def test_end_fit_inequalities_equal_per_index_verdicts(case, lo, tail, rest, w):
    """A table whose tail (the last ``tail`` points forward, the first ones
    backward) follows the ansatz and bends just before it: the endpoint
    verdict of ``_end_fit`` on the tail's step indexes is the per-index one."""
    p, fit, primed = case
    forward = not primed
    hi = lo + tail + rest - 1
    m_edge = hi - tail + 1 if forward else lo + tail - 1
    a, b, g = fit.alpha, fit.beta, fit.gamma
    slope_y = p.q - a if forward else a

    def cell(slope, icpt, m):
        bend = max(m_edge - m, 0) if forward else max(m - m_edge, 0)
        return ParityPair(-1, slope * m + icpt + bend)

    ms = range(lo, hi + 1)
    table = pair_table(lo, [cell(slope_y, b, m) for m in ms], [cell(a, g, m) for m in ms])
    got = families._end_fit(p, *_columns(table), min(w, tail - 1), forward)
    assert (got.m_edge, got.alpha, got.beta, got.gamma) == (m_edge, a, b, g)
    steps = range(m_edge, hi) if forward else range(lo, m_edge)
    assert got.inequalities_ok == all(ansatz_inequalities_at(p, fit, m, primed) for m in steps)


@st.composite
def _family_cases(draw):
    """A family spec on parameters meeting both reduction conditions, and a
    window of 1 to 8 points."""
    d = draw(st.sampled_from((1, 1, 2)))
    q = draw(_rationals(1, 12, d))
    a = [draw(_rationals(-12, 12, d)) for _ in range(4)]
    b3, b4 = draw(_rationals(-12, 12, d)), draw(_rationals(-12, 12, d))
    p = Params.make(q, a, (q + a[0] + b3 - a[2], a[1] + b4 - a[3], b3, b4))
    fam = draw(st.sampled_from(FAMILY_IDS))
    c = draw(_rationals(-60, 60, d))
    m0 = draw(st.integers(-4, -1) if fam == "soln2" else st.integers(1, 4))
    ansatz = LinearAnsatz(*(draw(_rationals(lo, hi, d)) for lo, hi in ((-1, 13), (-24, 24), (-24, 24))))
    spec = FamilySpec(fam, c=c, c_prime=c, m0=m0, ansatz=ansatz)
    lo = draw(st.integers(-12, 12))
    return spec, p, (lo, lo + draw(st.integers(0, 7)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_family_cases())
def test_instantiate_family_verdicts_equal_per_index_verdicts(case):
    spec, p, window = case
    at_ends = instantiate_family(spec, p, window)
    with mock.patch.object(families, "_quantified", quantified_per_index):
        per_index = instantiate_family(spec, p, window)
    assert at_ends.valid == per_index.valid
    assert at_ends.conditions == per_index.conditions
