from fractions import Fraction

import pytest

from udp6.evolution import (
    EvolutionConfig,
    evolve,
    evolve_noparity,
    painleve_failures,
    step_back_y_noparity,
    step_back_z_noparity,
    step_y_noparity,
    step_y_parity,
    step_z_noparity,
    step_z_parity,
)
from udp6.generate import random_constrained_params, random_state
from udp6.system import ParityPair, Params, StatePair, residual_yy, residual_zz
from udp6.tables import SolutionTable

from goldens import golden1_y, golden1_z, golden2_y, golden2_z

F = Fraction


def pp(sign, amp):
    return ParityPair(sign, F(amp))


# --- closed-form steps -------------------------------------------------------


def test_step_z_noparity_examples(p42):
    assert step_z_noparity(p42, 0, 43, 40) == F(-28)
    assert step_z_noparity(p42, 0, 43, 50) == F(-38)


def test_step_y_noparity_examples(p42):
    assert step_y_noparity(p42, 0, 43, -28) == F(122)
    assert step_y_noparity(p42, 0, 43, -38) == F(122)


def test_step_gauge_shift(p42):
    shifted = p42.gauge_shifted(7)
    assert step_z_noparity(shifted, 0, 43 + 7, 40 + 7) == F(-28 + 7)


def test_backward_steps_examples(p42):
    y_prev = step_back_y_noparity(p42, 0, 43, 40)
    assert y_prev == F(16)
    assert step_back_z_noparity(p42, 0, y_prev, 40) == F(-55)
    y_prev2 = step_back_y_noparity(p42, 0, 43, 50)
    assert y_prev2 == F(16)
    assert step_back_z_noparity(p42, 0, y_prev2, 50) == F(-65)


def test_forward_backward_identity_random(rng):
    for _ in range(1000):
        p = random_constrained_params(rng)
        m = rng.randint(-10, 10)
        y = F(rng.randint(-150, 150))
        z = F(rng.randint(-150, 150))
        z1 = step_z_noparity(p, m, y, z)
        y1 = step_y_noparity(p, m, y, z1)
        assert step_back_y_noparity(p, m + 1, y1, z1) == y
        assert step_back_z_noparity(p, m + 1, y, z1) == z


# --- parity steps --------------------------------------------------------------


def test_step_z_parity_deterministic_sector(p42):
    cands = step_z_parity(p42, 0, pp(-1, 43), pp(-1, 40))
    assert cands == [pp(-1, -28)]


def test_step_z_parity_degenerate_tie(p41):
    # y amplitude equal to A3 makes the case split tie: both signs survive
    cands = step_z_parity(p41, 1, pp(1, 67), pp(1, 42))
    assert len(cands) >= 2
    assert {c.sign for c in cands} == {1, -1}
    for c in cands:
        assert residual_zz(p41, 1, pp(1, 67), pp(1, 42), c)


def test_step_z_parity_gauge_equivariant(p41):
    cands = step_z_parity(p41, 1, pp(1, 67), pp(1, 42))
    shifted = step_z_parity(p41.gauge_shifted(5), 1, pp(1, 72), pp(1, 47))
    assert shifted == [ParityPair(c.sign, c.amp + 5) for c in cands]


def test_step_y_parity_deterministic_sector(p42):
    cands = step_y_parity(p42, 0, pp(-1, 43), pp(-1, -28))
    assert cands == [pp(-1, 122)]


def test_step_y_parity_degenerate_tie(p42):
    # z amplitude equal to B3 ties the mirror split
    y = pp(1, 50)
    z1 = pp(1, p42.b3)
    cands = step_y_parity(p42, 0, y, z1)
    assert len(cands) >= 2
    for c in cands:
        assert residual_yy(p42, 0, y, c, z1)


def test_parity_steps_validate_candidates_random(rng):
    for _ in range(400):
        p = random_constrained_params(rng)
        m = rng.randint(-6, 6)
        st = random_state(rng, m)
        for z1 in step_z_parity(p, m, st.y, st.z):
            assert residual_zz(p, m, st.y, st.z, z1)
            for y1 in step_y_parity(p, m, st.y, z1):
                assert residual_yy(p, m, st.y, y1, z1)


# --- window evolution ------------------------------------------------------------


def test_evolve_golden_first_table(p42):
    tree = evolve(
        p42,
        StatePair(0, pp(-1, 43), pp(-1, 40)),
        EvolutionConfig(-10, 10),
    )
    assert not tree.truncated
    assert len(tree.tables) == 1
    t = tree.tables[0]
    for m in t.indexes():
        assert t.y(m) == ParityPair(-1, golden1_y(m))
        assert t.z(m) == ParityPair(-1, golden1_z(m))


def test_evolve_golden_second_table(p42):
    tree = evolve(
        p42,
        StatePair(0, pp(-1, 43), pp(-1, 50)),
        EvolutionConfig(-12, 15),
    )
    assert len(tree.tables) == 1
    t = tree.tables[0]
    for m in t.indexes():
        assert (t.y(m).amp, t.z(m).amp) == (golden2_y(m), golden2_z(m))


def test_evolve_window_of_size_zero(p42):
    tree = evolve(p42, StatePair(0, pp(-1, 43), pp(-1, 40)), EvolutionConfig(0, 0))
    assert len(tree.tables) == 1 and len(tree.tables[0]) == 1


def test_evolve_initial_outside_window_rejected(p42):
    with pytest.raises(ValueError):
        evolve(p42, StatePair(3, pp(-1, 0), pp(-1, 0)), EvolutionConfig(-2, 2))


def test_evolve_branch_cap_flags_truncation():
    # all-zero parameters tie every case split; plus parities branch heavily
    p = Params.make(0, (0, 0, 0, 0), (0, 0, 0, 0))
    tree = evolve(p, StatePair(0, pp(1, 0), pp(1, 0)), EvolutionConfig(0, 6, max_branches=4))
    assert tree.truncated
    assert len(tree.tables) == 4
    for t in tree.tables:
        assert not painleve_failures(p, t)


def test_evolve_random_soundness_and_existence(rng):
    for _ in range(150):
        p = random_constrained_params(rng)
        st = random_state(rng, rng.randint(-3, 3))
        tree = evolve(p, st, EvolutionConfig(-6, 6))
        assert tree.tables
        for t in tree.tables:
            assert not painleve_failures(p, t)
            assert t.state(st.m) == st


def test_all_minus_sector_is_single_branch(rng):
    for _ in range(150):
        p = random_constrained_params(rng)
        y0 = F(rng.randint(-120, 120))
        z0 = F(rng.randint(-120, 120))
        tree = evolve(
            p, StatePair(0, pp(-1, y0), pp(-1, z0)), EvolutionConfig(-6, 6)
        )
        assert len(tree.tables) == 1
        fast = evolve_noparity(p, 0, y0, z0, (-6, 6))
        assert tree.tables[0] == fast


def test_evolve_is_gauge_and_scale_equivariant(rng):
    # tie-heavy inputs branch, and a cap of 6 truncates some of them
    truncated = 0
    for _ in range(60):
        p = random_constrained_params(rng, -12, 12, (1, 12))
        st = random_state(rng, rng.randint(-2, 2), -12, 12)
        cfg = EvolutionConfig(-3, 3, max_branches=6)
        tree = evolve(p, st, cfg)
        truncated += tree.truncated
        c = F(rng.randint(-40, 40), rng.randint(1, 4))
        shifted = evolve(
            p.gauge_shifted(c), StatePair(st.m, st.y.shifted(c), st.z.shifted(c)), cfg
        )
        assert shifted.tables == tuple(t.gauge_shifted(c) for t in tree.tables)
        assert shifted.truncated == tree.truncated
        lam = F(rng.randint(1, 9), rng.randint(1, 4))
        scaled = evolve(p.scaled(lam), StatePair(st.m, st.y.scaled(lam), st.z.scaled(lam)), cfg)
        assert scaled.tables == tuple(t.scaled(lam) for t in tree.tables)
        assert scaled.truncated == tree.truncated
    assert truncated


# --- table serialization ------------------------------------------------------------


def test_table_csv_roundtrip(p42):
    t = evolve_noparity(p42, 0, 43, 40, (-3, 3))
    text = t.to_csv_text()
    assert text.splitlines()[0] == "m,sy,Y,sz,Z"
    assert SolutionTable.from_csv_text(text) == t


def test_table_json_roundtrip(p42):
    t = evolve_noparity(p42, 0, F(1, 3), F(-2, 7), (-2, 2))
    assert SolutionTable.from_json_obj(t.to_json_obj()) == t


def test_table_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        SolutionTable.from_csv_text("a,b,c\n1,2,3\n")


def test_table_requires_contiguous_window():
    rows = [
        StatePair(0, pp(1, 0), pp(1, 0)),
        StatePair(2, pp(1, 0), pp(1, 0)),
    ]
    with pytest.raises(ValueError):
        SolutionTable.from_states(rows)
