"""The reflection R, m -> -m with y and z exchanged (``oracles.reflect``,
the library's ``Params.reflected``).

Each relation is symmetric in its two consecutive same-letter values, so the
backward step at m is the forward step of the reflected system at -m, which
is how the evolutions step backward: every evolution is equivariant under R,
and both residual suites report a reflected table's failures at the
reflected indexes.  These tests fail if a backward stepper drifts from the
reflected forward one."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from udp6.evolution import (
    evolve, noparity_amplitudes, painleve_failures, step_back_y_parity, step_back_z_parity, step_y_parity,
    step_z_parity,
)
from udp6.riccati import (
    SAMPLINGS, check_riccati_conditions, riccati_close_z, riccati_evolve, riccati_failures, riccati_step_back_y,
    riccati_step_y, riccati_step_z,
)
from udp6.system import ParityPair, Params, check_constraint, random_constrained_params

from oracles import pair_columns, pair_table, random_riccati_params, random_state, reflect

F = Fraction


def _start(rng, r, reach=8):
    """A start of either parities at m0 in -3..3, amplitudes within +-r, and
    the numbers of indexes below and above it, up to ``reach``."""
    m0, y0, z0 = random_state(rng, rng.randint(-3, 3), -r, r)
    return m0, y0, z0, rng.randint(0, reach), rng.randint(0, reach)


def _moved(rng, table):
    """The table with three cells moved by 0, 1 or -2 and their signs flipped
    half the time."""
    ys, zs = map(list, pair_columns(table))
    for _ in range(3):
        col = rng.choice((ys, zs))
        k = rng.randrange(len(col))
        col[k] = ParityPair(col[k].sign * rng.choice((1, -1)), col[k].amp + rng.choice((0, 1, -2)))
    return pair_table(table.m_lo, ys, zs)


@st.composite
def _amps(draw, n, r=4):
    """n amplitudes k/d, k within +-r*d, on one lattice d in {1, 2, 6}: on
    d = 1 each an int or a Fraction, so sums of both types occur."""
    d = draw(st.sampled_from((1, 1, 2, 6)))
    ks = draw(st.lists(st.integers(-r * d, r * d), min_size=n, max_size=n))
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [k if d == 1 and kind else Fraction(k, d) for k, kind in zip(ks, kinds)]


@st.composite
def _parity_states(draw):
    """Constrained parameters (Q of either sign or 0), m in -3..3 and a state
    (y_m, z_m) whose amplitudes are often ties of the backward steps: z of
    B3, B4, B1+(m-1)Q or B2+(m-1)Q, y of their A analogues."""
    q, a1, a2, a3, a4, b1, b2, b3 = draw(_amps(8))
    p = Params.make(q, (a1, a2, a3, a4), (b1, b2, b3, b1 + b2 + a3 + a4 - q - a1 - a2 - b3))
    m = draw(st.integers(-3, 3))
    mq = (m - 1) * q
    y = draw(st.one_of(st.sampled_from((a3, a4, a1 + mq, a2 + mq)), _amps(1).map(lambda x: x[0])))
    z = draw(st.one_of(st.sampled_from((b3, p.b4, b1 + mq, b2 + mq)), _amps(1).map(lambda x: x[0])))
    sign = st.sampled_from((1, -1))
    return p, m, ParityPair(draw(sign), y), ParityPair(draw(sign), z)


def _typed(cells):
    return [(c.sign, c.amp, type(c.amp)) for c in cells]


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(state=_parity_states(), y_prev=_amps(1))
def test_backward_parity_steps_are_the_reflected_forward_steps(state, y_prev):
    # the identities that evolve's backward half rests on, in value and type:
    # y_{m-1} is R(p)'s z-step at -m from (z_m, y_m), and z_{m-1} its y-step
    # given y_{m-1} in the z slot
    p, m, y, z = state
    r = p.reflected
    backs = step_back_y_parity(p, m, y, z)
    assert _typed(backs) == _typed(step_z_parity(r, -m, z, y))
    for yp in backs + [ParityPair(-y.sign, y_prev[0])]:
        assert _typed(step_back_z_parity(p, m, yp, z)) == _typed(step_y_parity(r, -m, z, yp))


@st.composite
def _riccati_states(draw):
    """Parameters meeting both first-order conditions on the lattices of
    ``_amps``, Q of either sign or 0, an index and a known cell."""
    q, a1, a2, a3, a4, b3, b4, amp = draw(_amps(8))
    p = Params.make(q, (a1, a2, a3, a4), (q + a1 + b3 - a3, a2 + b4 - a4, b3, b4))
    return p, draw(st.integers(-3, 3)), ParityPair(draw(st.sampled_from((1, -1))), amp)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(state=_riccati_states())
def test_backward_riccati_steps_are_the_reflected_forward_steps(state):
    # riccati_evolve's backward half: y_{m-1} from z_m is R(p)'s z-step at -m,
    # and z_{m-1} from y_{m-1} is its y-step, by value (an integral constant may
    # be an int on one side and a Fraction on the other)
    p, m, known = state
    r = p.reflected
    assert riccati_step_back_y(p, m, known) == riccati_step_z(r, -m, known)
    assert riccati_close_z(p, m - 1, known) == riccati_step_y(r, -m, known)


def _signed_params(rng):
    """Constrained parameters with amplitudes k/d, d in {1, 3}, Q within
    +-12 (0 and negative included), and random parameter signs meeting the
    product condition."""
    d = rng.choice((1, 3))
    q, a1, a2, a3, a4, b1, b2, b3 = (Fraction(rng.randint(-12 * d, 12 * d), d) if d > 1 else rng.randint(-12, 12)
                                     for _ in range(8))
    sa = [rng.choice((1, -1)) for _ in range(4)]
    sb = [rng.choice((1, -1)) for _ in range(3)]
    sb.append(sa[0] * sa[1] * sa[2] * sa[3] * sb[0] * sb[1] * sb[2])
    return Params.make(q, (a1, a2, a3, a4), (b1, b2, b3, b1 + b2 + a3 + a4 - q - a1 - a2 - b3), sa, sb)


def test_params_reflected_equals_the_oracle(rng):
    # the library's R(p), built once per instance, is the oracle's field by
    # field, types and signs included; it is an involution and keeps the
    # constraint and both first-order conditions
    for _ in range(300):
        p = _signed_params(rng)
        rp = p.reflected
        assert [(v, type(v)) for v in rp] == [(v, type(v)) for v in reflect(p)]
        assert p.reflected is rp and rp.reflected == p and [*map(type, rp.reflected)] == [*map(type, p)]
        assert check_constraint(p) and check_constraint(rp)
        q = p.q
        p = Params.make(q, p[1:5], (q + p.a1 + p.b3 - p.a3, p.a2 + p.b4 - p.a4, p.b3, p.b4), p[9:13], p[13:])
        assert check_riccati_conditions(p) and check_riccati_conditions(p.reflected)
        assert p.reflected == reflect(p)


def test_reflection_is_an_involution_that_keeps_the_conditions(rng):
    for _ in range(200):
        p = random_constrained_params(rng)
        rp = reflect(p)
        assert reflect(rp) == p and check_constraint(rp) and rp.q == -p.q
        p = random_riccati_params(rng)
        assert check_riccati_conditions(reflect(p))
        table = evolve(p, 0, *random_state(rng)[1:], (-3, 2), max_branches=1).tables[0]
        assert reflect(reflect(table)) == table and reflect(table).indexes() == range(-2, 4)


def test_evolve_is_reflection_equivariant(rng):
    # over a window on one side of m0 the backward steps of p are the forward
    # steps of R(p): the same tables in the same order and the same flag at
    # every cap.  Over both sides the order differs (forward steps come first
    # on both), so the trees hold the same tables when neither is truncated,
    # and as each holds as many paths, one is truncated when the other is.
    # Tie-heavy amplitudes within +-12 branch; within +-100 over up to 40
    # indexes a side the jumps run
    branched = truncated = both = 0
    for k in range(300):
        r = 12 if k % 3 else 100
        p = random_constrained_params(rng, -r, r, (1, r))
        m0, y0, z0, below, above = _start(rng, r, 8 if r == 12 else 40)
        rp = reflect(p)
        for window in ((m0 - below, m0), (m0, m0 + above)):
            for cap in (1, 2, 8, 4096):
                tree = evolve(p, m0, y0, z0, window, max_branches=cap)
                mirror = evolve(rp, -m0, z0, y0, (-window[1], -window[0]), max_branches=cap)
                assert tuple(map(reflect, mirror.tables)) == tree.tables and mirror.truncated == tree.truncated
                branched += len(tree.tables) > 1
                truncated += tree.truncated
        window = (m0 - below, m0 + above)
        tree = evolve(p, m0, y0, z0, window, max_branches=4096)
        mirror = evolve(rp, -m0, z0, y0, (-window[1], -window[0]), max_branches=4096)
        assert mirror.truncated == tree.truncated
        if not tree.truncated:
            assert sorted(map(repr, map(reflect, mirror.tables))) == sorted(map(repr, tree.tables))
            both += len(tree.tables) > 1
    assert branched > 100 and truncated > 50 and both > 20


def test_noparity_amplitudes_is_reflection_equivariant(rng):
    # the all-minus walk over [lo, hi] from (y0, z0) at m0 is R(p)'s walk over
    # [-hi, -lo] from (z0, y0) at -m0, its columns reversed and exchanged;
    # windows up to +-300 hold jumps in both directions
    for k in range(200):
        p = random_constrained_params(rng)
        m0, lo, hi = rng.randint(-3, 3), -rng.randint(3, 300), rng.randint(3, 300)
        y0, z0 = F(rng.randint(-150, 150), rng.choice((1, 1, 3))), F(rng.randint(-150, 150))
        ys, zs = noparity_amplitudes(p, m0, y0, z0, (lo, hi))
        assert noparity_amplitudes(reflect(p), -m0, z0, y0, (-hi, -lo)) == (zs[::-1], ys[::-1])


def test_riccati_evolve_is_reflection_equivariant(rng):
    # the close step at m0 gives z_m0; from there a window on one side of m0
    # is stepped as R(p)'s window on the other side from y' = z_m0 at -m0.
    # R(p)'s close step solves for z' = y_m0 and may not offer y0 itself
    # (the samples are ends of intervals); where it does, the tables through
    # it are p's tables through z_m0, reflected, in the same order.  Trees
    # that the cap truncated are not compared
    compared = 0
    for k in range(150):
        p = random_riccati_params(rng, -12, 12, (1, 12))
        rp = reflect(p)
        m0, y0, _, below, above = _start(rng, 12, 5)
        policy = SAMPLINGS[k % 3]
        for window in ((m0 - below, m0), (m0, m0 + above)):
            tree = riccati_evolve(p, m0, y0, window, sampling=policy, max_branches=4096)
            for z0 in () if tree.truncated else dict.fromkeys(t.z(m0) for t in tree.tables):
                mirror = riccati_evolve(rp, -m0, z0, (-window[1], -window[0]), sampling=policy, max_branches=4096)
                through = [reflect(t) for t in mirror.tables if t.z(-m0) == y0]
                if through and not mirror.truncated:
                    assert through == [t for t in tree.tables if t.z(m0) == z0]
                    compared += 1
    assert compared > 100


def test_residual_suites_report_reflected_failures_at_reflected_indexes(rng):
    # zz at m is yy at -m-1 in the reflected table and the other way round;
    # the first-order r2 at m is r2 at -m-1, and r1 at m is r1 at -m-2.  So
    # solutions of p reflect to solutions of R(p), and moved cells fail there
    # as they fail here
    failing = 0
    for _ in range(120):
        p = random_riccati_params(rng, -12, 12, (1, 12))
        rp = reflect(p)
        m0, y0, z0, below, above = _start(rng, 12)
        window = (m0 - below, m0 + above)
        tables = riccati_evolve(p, m0, y0, window, max_branches=4).tables
        tables += evolve(p, m0, y0, z0, window, max_branches=4).tables
        for table in tables + tuple(_moved(rng, t) for t in tables):
            zz_yy = [(-m - 1, "yy" if rel == "zz" else "zz") for m, rel in painleve_failures(p, table)]
            assert painleve_failures(rp, reflect(table)) == sorted(zz_yy, key=lambda f: (f[0], f[1] == "yy"))
            r1_r2 = [(-m - 1 if rel == "r2" else -m - 2, rel) for m, rel in riccati_failures(p, table)]
            assert sorted(riccati_failures(rp, reflect(table))) == sorted(r1_r2)
            failing += bool(painleve_failures(p, table))
    assert failing > 60
