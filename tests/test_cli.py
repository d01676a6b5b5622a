import json

import pytest

from udp6.cli import main
from udp6.system import dump_params
from udp6.tables import SolutionTable

from goldens import golden1_y, golden1_z, golden2_y, golden2_z


@pytest.fixture
def p42_file(tmp_path, p42):
    path = tmp_path / "p42.json"
    dump_params(p42, path)
    return str(path)


@pytest.fixture
def p41_file(tmp_path, p41):
    path = tmp_path / "p41.json"
    dump_params(p41, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- evolve --------------------------------------------------------------------


def test_evolve_matches_golden_csv(capsys, p42_file):
    code, out, _ = run(
        capsys, "evolve", "--params", p42_file,
        "--y0", "-1:43", "--z0", "-1:40", "--window", "-5:5",
    )
    assert code == 0
    table = SolutionTable.from_csv_text(out)
    for m in range(-5, 6):
        assert table.y(m).sign == -1 and table.z(m).sign == -1
        assert table.y(m).amp == golden1_y(m)
        assert table.z(m).amp == golden1_z(m)


def test_evolve_window_of_size_zero(capsys, p42_file):
    code, out, _ = run(
        capsys, "evolve", "--params", p42_file,
        "--y0", "-1:43", "--z0", "-1:40", "--window", "0:0",
    )
    assert code == 0
    assert len(SolutionTable.from_csv_text(out)) == 1


def test_evolve_rejects_constraint_violation(capsys, tmp_path, p42):
    bad = dict(q=100, a1=32, a2=33, a3=37, a4=22, b1=53, b2=65, b3=8, b4=5)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(
        capsys, "evolve", "--params", str(path),
        "--y0", "-1:43", "--z0", "-1:40", "--window", "0:1",
    )
    assert code == 1
    assert "B1+B2+A3+A4 = Q+A1+A2+B3+B4" in err


def test_evolve_truncation_exit_code(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({k: 0 for k in ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")}))
    code, out, err = run(
        capsys, "evolve", "--params", str(path),
        "--y0", "1:0", "--z0", "1:0", "--window", "0:6", "--branch-cap", "4",
    )
    assert code == 2
    assert "truncated" in err


def test_evolve_json_format(capsys, p42_file):
    code, out, _ = run(
        capsys, "evolve", "--params", p42_file,
        "--y0", "-1:43", "--z0", "-1:40", "--window", "-2:2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated"] is False
    assert len(doc["branches"]) == 1
    assert doc["branches"][0]["rows"][0]["m"] == -2


def test_evolve_writes_file_deterministically(tmp_path, capsys, p42_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "evolve", "--params", p42_file,
            "--y0", "-1:43", "--z0", "-1:50", "--window", "-12:15", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    table = SolutionTable.from_csv_text(out1.read_text())
    for m in range(-12, 16):
        assert (table.y(m).amp, table.z(m).amp) == (golden2_y(m), golden2_z(m))


# --- verify ---------------------------------------------------------------------


def test_verify_roundtrip(tmp_path, capsys, p42_file):
    table_path = tmp_path / "t.csv"
    run(
        capsys, "evolve", "--params", p42_file,
        "--y0", "-1:43", "--z0", "-1:50", "--window", "-12:15", "--out", str(table_path),
    )
    code, out, _ = run(capsys, "verify", "--params", p42_file, "--table", str(table_path))
    assert code == 0 and "ok" in out


def test_verify_flags_perturbed_row(tmp_path, capsys, p42_file):
    table_path = tmp_path / "t.csv"
    run(
        capsys, "evolve", "--params", p42_file,
        "--y0", "-1:43", "--z0", "-1:40", "--window", "-3:3", "--out", str(table_path),
    )
    text = table_path.read_text().replace("122", "123")
    table_path.write_text(text)
    code, _, err = run(capsys, "verify", "--params", p42_file, "--table", str(table_path))
    assert code == 3
    assert "FAIL m=" in err


def test_verify_empty_table_is_input_error(tmp_path, capsys, p42_file):
    table_path = tmp_path / "empty.csv"
    table_path.write_text("m,sy,Y,sz,Z\n")
    code, _, err = run(capsys, "verify", "--params", p42_file, "--table", str(table_path))
    assert code == 1 and "error" in err


# --- riccati / families ------------------------------------------------------------


def test_riccati_subcommand(tmp_path, capsys, p41_file, p41):
    code, out, _ = run(
        capsys, "riccati", "--params", p41_file,
        "--y0", "-1:69", "--m0", "1", "--window", "1:6",
    )
    assert code == 0
    table = SolutionTable.from_csv_text(out)
    assert table.y(3).amp == 38 * 3 + 31
    # emitted tables re-pass verification including the first-order relations
    table_path = tmp_path / "r.csv"
    table_path.write_text(out)
    code, _, _ = run(
        capsys, "verify", "--params", p41_file, "--table", str(table_path), "--riccati"
    )
    assert code == 0


def test_families_subcommand(capsys, p41_file):
    code, out, _ = run(
        capsys, "families", "--params", p41_file, "--id", "sol0", "--c", "31",
        "--window", "-4:4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["family"] == "sol0"
    assert all(c["holds"] for c in doc["conditions"])
    assert doc["table"]["rows"][0]["m"] == -4


def test_families_invalid_reports_conditions(capsys, p41_file):
    code, out, _ = run(
        capsys, "families", "--params", p41_file, "--id", "sol0", "--c", "47",
        "--window", "-4:4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is False
    assert any(not c["holds"] for c in doc["conditions"])


def test_families_list(capsys):
    code, out, _ = run(capsys, "families", "--list")
    assert code == 0
    assert "sol0" in out.split()


# --- conjecture / qlimit ---------------------------------------------------------------


def test_conjecture_deterministic_output(tmp_path, capsys):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "conjecture", "--n", "8", "--window", "-15:15",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["n"] == 8 and doc["seed"] == 7
    assert 0 <= doc["linear_detected"] <= 8


def test_qlimit_subcommand(capsys, p42_file):
    code, out, _ = run(
        capsys, "qlimit", "--params", p42_file,
        "--y0", "-1:43", "--z0", "-1:40", "--window", "0:2", "--eps", "1,0.5,0.2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,eps,err_Y,err_Z,sign_ok_Y,sign_ok_Z,cancellation_flag"
    assert len(lines) == 1 + 3 * 3


# --- zero denominators in rational inputs ------------------------------------------------

_PAIRS = ("--y0", "-1:43", "--z0", "-1:40")
_BAD_RATIONAL_CASES = {
    "params-json": ("evolve", "--params", "{bad_params}", *_PAIRS, "--window", "0:2"),
    "y0": ("evolve", "--params", "{params}", "--y0", "1:1/0", "--z0", "-1:40", "--window", "0:2"),
    "z0": ("evolve", "--params", "{params}", "--y0", "-1:43", "--z0", "1:1/0", "--window", "0:2"),
    "eps": ("qlimit", "--params", "{params}", *_PAIRS, "--window", "0:2", "--eps", "1,1/0"),
    "alpha": ("families", "--params", "{params}", "--id", "lin", "--alpha", "1/0",
              "--beta", "1", "--gamma", "1"),
    "beta": ("families", "--params", "{params}", "--id", "lin", "--alpha", "1",
             "--beta", "1/0", "--gamma", "1"),
    "gamma": ("families", "--params", "{params}", "--id", "lin", "--alpha", "1",
              "--beta", "1", "--gamma", "1/0"),
    "c": ("families", "--params", "{params}", "--id", "sol0", "--c", "1/0"),
    "cprime": ("families", "--params", "{params}", "--id", "soln2", "--cprime", "1/0", "--m0", "-1"),
    "table-cell-verify": ("verify", "--params", "{params}", "--table", "{bad_table}"),
    "table-cell-qlimit": ("qlimit", "--params", "{params}", "--table", "{bad_table}",
                          "--window", "0:1", "--eps", "1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_RATIONAL_CASES))
def test_zero_denominator_is_input_error(case, capsys, tmp_path, p42_file):
    bad_params = tmp_path / "bad.json"
    obj = json.loads(open(p42_file).read())
    obj["a1"] = "1/0"
    bad_params.write_text(json.dumps(obj))
    bad_table = tmp_path / "bad.csv"
    bad_table.write_text("m,sy,Y,sz,Z\n0,-1,43,-1,40\n1,-1,1/0,-1,-28\n")
    paths = {"params": p42_file, "bad_params": str(bad_params), "bad_table": str(bad_table)}
    argv = [a.format(**paths) for a in _BAD_RATIONAL_CASES[case]]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and "zero denominator" in err


def test_unknown_family_is_input_error(capsys, p41_file):
    code, _, err = run(
        capsys, "families", "--params", p41_file, "--id", "sol0", "--window", "-2:2"
    )
    assert code == 1  # sol0 without --c
    assert "error" in err
