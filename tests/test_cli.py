import contextlib
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udp6 import cli, evolution, riccati
from udp6.cli import main
from udp6.evolution import evolve, evolve_noparity, painleve_failures
from udp6.qoracle import CompareReport, CompareRow, EpsSchedule
from udp6.riccati import SAMPLINGS, riccati_evolve
from udp6.system import Aff, ParityPair, Params, load_params, params_to_obj, parse_pair
from udp6.tables import SolutionTable

from goldens import golden1_y, golden1_z, golden2_y, golden2_z
from oracles import dump_params


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


_ZERO = {k: 0 for k in ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")}
_HALF = dict(_ZERO, q="1/2", a3="1/2")


@pytest.mark.parametrize("params, argv, branches", [
    (_ZERO, ["evolve", "--y0", "1:0", "--z0", "1:0", "--window", "-6:6"],
     lambda p: evolve(p, 0, ParityPair(1, 0), ParityPair(1, 0), (-6, 6))),
    (_ZERO, ["riccati", "--y0", "1:0", "--window", "-5:5", "--sampling", "all-breakpoints"],
     lambda p: riccati_evolve(p, 0, ParityPair(1, 0), (-5, 5), sampling="all-breakpoints")),
    (_HALF, ["riccati", "--y0", "1:1/2", "--window", "-3:3", "--sampling", "all-breakpoints"],
     lambda p: riccati_evolve(p, 0, ParityPair(1, Fraction(1, 2)), (-3, 3), sampling="all-breakpoints")),
], ids=["evolve-zero", "riccati-zero", "riccati-d2"])
def test_branching_json_equals_json_dumps_of_tables(capsys, tmp_path, params, argv, branches):
    # each case truncates at 64 branches that share most rows; the writer shares
    # the rows of equal cells, and its text is still json.dumps of each returned
    # table's own to_json_obj, with the truncation exit code
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    tree = branches(load_params(str(path)))
    per_table = [{"id": i, **t.to_json_obj()} for i, t in enumerate(tree.tables)]
    obj = {"truncated": tree.truncated, "branches": per_table}
    code, out, _ = run(capsys, *argv, "--params", str(path), "--format", "json")
    assert tree.truncated and code == 2
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def test_integral_rational_text_enters_as_int(tmp_path, capsys, p42):
    # "43/1" and "4.0e1", as --y0/--z0, as a CSV cell and as params values, read as the ints
    # they equal: the golden evolve from them is the integer one, cell for cell and type for type
    golden = evolve(p42, 0, ParityPair(-1, 43), ParityPair(-1, 40), (-400, 400)).tables[0]
    y0, z0 = parse_pair("-1", "43/1", "--y0"), parse_pair("-1", "4.0e1", "--z0")
    assert (y0, z0) == ((-1, 43), (-1, 40)) and type(y0.amp) is type(z0.amp) is int
    got = evolve(p42, 0, y0, z0, (-400, 400)).tables[0]
    assert got == golden and set(map(type, got.ay + got.az)) == {int}
    text = golden.to_csv_text()
    got = SolutionTable.from_csv_text(text.replace("\n0,-1,43,-1,40\n", "\n0,-1,43/1,-1,4.0e1\n"))
    assert got == golden and set(map(type, got.ay + got.az)) == {int}
    params = tmp_path / "p42.json"
    params.write_text(json.dumps({**params_to_obj(p42), "q": "100/1", "a1": "3.2e1", "b4": "4.0"}))
    loaded = load_params(params)
    assert loaded == p42 and {type(v) for v in loaded} == {int}
    code, out, _ = run(capsys, "evolve", "--params", str(params), "--y0", "-1:43/1", "--z0", "-1:4.0e1",
                       "--window", "-400:400")
    assert (code, out) == (0, text)


# --- verify ---------------------------------------------------------------------


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_failed_out_write_names_the_out_path(capsys, tmp_path, p42_file, target):
    # the error names --out and the OS reason, not the temporary file, which
    # is gone: nothing is left beside the target and nothing is written
    out = tmp_path / "taken"
    if target == "directory":
        out.mkdir()
        reason = "Is a directory"
    else:
        out = out / "table.csv"
        reason = "No such file or directory"
    before = sorted(os.listdir(tmp_path))
    code, stdout, err = run(
        capsys, "evolve", "--params", p42_file,
        "--y0", "-1:43", "--z0", "-1:40", "--window", "-5:5", "--out", str(out),
    )
    assert code == 1 and stdout == ""
    assert err == f"error: cannot write {out}: {reason}\n"
    assert ".tmp-udp6-" not in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before
    if target == "directory":
        assert os.listdir(out) == []


@pytest.mark.parametrize("umask, existing, mode", [
    (0o022, None, 0o644), (0o027, None, 0o640), (0o022, 0o644, 0o644), (0o022, 0o600, 0o600), (0o077, 0o664, 0o664),
], ids=["new-022", "new-027", "kept-644", "kept-600", "kept-664-under-077"])
def test_out_file_mode_is_kept_or_taken_from_the_umask(capsys, tmp_path, p42_file, umask, existing, mode):
    # the table goes through a 0o600 temporary file; the file it replaces keeps
    # its mode, and a new file gets 0o666 less the umask, as open() gives it
    out = tmp_path / "out.csv"
    if existing is not None:
        out.write_text("old\n")
        out.chmod(existing)
    old = os.umask(umask)
    try:
        code, stdout, _ = run(capsys, "evolve", "--params", p42_file, "--y0", "-1:43", "--z0", "-1:40",
                              "--window", "-5:5", "--out", str(out))
    finally:
        os.umask(old)
    assert (code, stdout) == (0, "") and out.read_text().startswith("m,sy,Y,sz,Z\n")
    assert stat.S_IMODE(out.stat().st_mode) == mode


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


@pytest.mark.parametrize(
    "cmd", [("verify",), ("qlimit", "--window", "0:0", "--eps", "1")], ids=["verify", "qlimit"]
)
def test_oversized_csv_field_is_input_error(tmp_path, capsys, p42_file, cmd):
    # a field over the csv module's size limit is a message, not a traceback
    table_path = tmp_path / "big.csv"
    table_path.write_text("m,sy,Y,sz,Z\n0,-1," + "4" * 200_000 + ",-1,40\n")
    code, _, err = run(capsys, *cmd, "--params", p42_file, "--table", str(table_path))
    assert code == 1
    assert err == "error: malformed CSV: field larger than field limit (131072)\n"


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


_P_D6 = {"q": "1/6", "a1": 0, "a2": "5/6", "a3": 1, "a4": "4/3",
         "b1": "-1/6", "b2": "-5/6", "b3": "2/3", "b4": "-1/3"}


def test_verify_riccati_on_rational_table(tmp_path, capsys):
    # denominators up to 6: riccati and verify --riccati run on the Fractions as given
    params = tmp_path / "d6.json"
    params.write_text(json.dumps(_P_D6))
    code, out, _ = run(capsys, "riccati", "--params", str(params), "--y0", "1:1/2", "--window", "-3:3")
    assert code == 0
    assert "2,1,1/3,1,-2/3\n" in out
    table = tmp_path / "d6.csv"
    table.write_text(out)
    verify = ("verify", "--params", str(params), "--table", str(table), "--riccati")
    assert run(capsys, *verify) == (0, "ok: 7 rows verified\n", "")
    table.write_text(out.replace("2,1,1/3,", "2,1,1/2,"))
    assert run(capsys, *verify) == (3, "", "FAIL m=2 relation=zz\nFAIL m=1 relation=r1\n")


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


_R1_CSV = (
    "m,sy,Y,sz,Z\n"
    "-2,-1,-45,1,-129\n"
    "-1,-1,-7,1,-67\n"
    "0,-1,31,1,-5\n"
    "1,-1,69,1,57\n"
    "2,-1,107,1,119\n"
)
_R1_REPORT = """{
  "conditions": [
    {
      "expr": "h*m >= A4-c and (Q-h)*m >= c-A2 for m in [-2, 1]",
      "holds": false
    },
    {
      "expr": "h*(m+1) >= A3-c and (Q-h)*(m+1) >= c-A1 for m in [-3, 1]",
      "holds": false
    }
  ],
  "family": "r1",
  "valid": false
}
"""


def test_families_csv_format_writes_table_then_report(tmp_path, capsys, p41_file):
    # in the default CSV format the table goes to --out (stdout without it),
    # and the report always follows on stdout
    argv = ("families", "--params", p41_file, "--id", "r1", "--c", "31", "--window", "-2:2")
    assert run(capsys, *argv) == (0, _R1_CSV + _R1_REPORT, "")
    out = tmp_path / "r1.csv"
    assert run(capsys, *argv, "--out", str(out)) == (0, _R1_REPORT, "")
    assert out.read_bytes() == _R1_CSV.encode()


def test_families_list(capsys):
    code, out, _ = run(capsys, "families", "--list")
    assert code == 0
    assert "sol0" in out.split()


def test_cli_import_leaves_mpmath_unexecuted():
    # the q-oracle executes mpmath on first use: a fresh interpreter that
    # imports the CLI and lists the families never loads mpmath's internals
    code = (
        "import contextlib, io, sys\n"
        "import udp6.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = udp6.cli.main(['families', '--list'])\n"
        "print(rc, 'mpmath.libmp' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]


def test_import_without_mpmath_names_it():
    # a fresh interpreter in which mpmath cannot be found: importing udp6
    # fails with a ModuleNotFoundError that names mpmath
    code = (
        "import importlib.util\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *a: None if name == 'mpmath' else find_spec(name, *a)\n"
        "try:\n"
        "    import udp6\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name, exc)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "mpmath udp6's q-oracle needs mpmath, which is not installed\n"


def test_cli_import_loads_no_dataclasses_inspect_or_mpmath():
    # value types are named tuples and slotted classes, so start-up generates
    # no code: against a bare interpreter, importing the CLI and listing the
    # families adds neither dataclasses nor inspect, and leaves mpmath unexecuted
    code = (
        "import contextlib, io, sys\n"
        "bare = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import udp6.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = udp6.cli.main(['families', '--list'])\n"
        "print(rc, *sorted(set(sys.modules) - bare))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    rc, *added = out.stdout.split()
    assert rc == "0" and "udp6.cli" in added
    assert not {"dataclasses", "inspect", "mpmath.libmp"} & set(added), added


def test_parser_is_reused_without_state(tmp_path, capsys, p42_file, p41_file):
    # one parser serves every main() call of a process; a second round of the
    # same calls, usage error and --help included, prints what the first did
    table = tmp_path / "golden.csv"
    table.write_text(_FUZZ_TABLES["golden"])
    calls = [
        ("evolve", "--window", "0:1"),
        ("--help",),
        ("families", "--list"),
        ("evolve", "--params", p42_file, "--y0", "-1:43", "--z0", "-1:40", "--window", "-2:2"),
        ("riccati", "--params", p41_file, "--y0", "1:23", "--window", "-2:3", "--sampling", "midpoint"),
        ("verify", "--params", p42_file, "--table", str(table)),
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [1, 0, 0, 0, 0, 0]
    assert "usage: udp6 evolve" in first[0][2] and "usage: udp6" in first[1][1]
    assert [run(capsys, *argv) for argv in calls] == first
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("cmd", ["evolve", "verify", "riccati", "families", "conjecture", "qlimit"])
def test_subcommand_help(capsys, cmd):
    code, out, err = run(capsys, cmd, "--help")
    assert (code, err) == (0, "") and out.startswith(f"usage: udp6 {cmd} ")
    if cmd == "qlimit":  # the precision is chosen by agreement, never by a flag
        assert "256 bits until two successive runs agree" in " ".join(out.split())
        assert "--precision" not in out


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


def test_integer_inputs_stay_ints_from_entry_to_kernel(monkeypatch, capsys, p42_file, p41_file):
    # integer parameters and states, read as they enter, reach the kernel, the
    # steppers and the first-order solver as ints, never as Fractions: the
    # speed of the integer workloads rests on it
    seen = set()

    def ints_only(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            amps = []
            for a in args:
                if isinstance(a, Params):
                    amps += a[:9]
                elif isinstance(a, ParityPair):
                    amps.append(a.amp)
                elif isinstance(a, list):  # the (slope, intercept) terms of solve_one_unknown
                    amps += [c for _, c in a]
                else:  # the index m or a bare amplitude
                    amps.append(a)
            # a jump's affine values in the step count have int slopes and intercepts
            amps = [c for a in amps for c in ((a.s, a.c) if isinstance(a, Aff) else (a,))]
            assert all(type(a) is int for a in amps), (name, args)
            seen.add(name)
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("residual_zz", "residual_yy", "step_z_parity", "step_z_noparity"):
        ints_only(evolution, name)
    ints_only(riccati, "solve_one_unknown")
    p42, p41 = load_params(p42_file), load_params(p41_file)
    for sign in ("1", "-1"):
        y0, z0 = parse_pair(sign, "43", "y0"), parse_pair(sign, "40", "z0")
        for t in evolve(p42, 0, y0, z0, (-5, 5)).tables:
            assert not painleve_failures(p42, SolutionTable.from_csv_text(t.to_csv_text()))
    assert not painleve_failures(p42, evolve_noparity(p42, 0, y0.amp, z0.amp, (-5, 5)))
    for policy in SAMPLINGS:
        assert riccati_evolve(p41, 0, parse_pair("1", "23", "y0"), (-3, 3), sampling=policy).tables
    assert seen == {"residual_zz", "residual_yy", "step_z_parity", "step_z_noparity", "solve_one_unknown"}
    # the conjecture scan draws its states as ints too
    seen.clear()
    assert run(capsys, "conjecture", "--n", "3", "--window", "-6:6", "--seed", "1")[0] == 0
    assert seen == {"step_z_noparity"}


@pytest.mark.parametrize("n", ["-1", "0"])
def test_conjecture_rejects_n_below_one(n, capsys):
    code, out, err = run(capsys, "conjecture", "--n", n, "--window", "-4:4", "--seed", "1")
    assert (code, out, err) == (1, "", "error: --n must be at least 1\n")


@pytest.mark.parametrize("window", ["5:40", "-40:-5", "1:1"])
def test_conjecture_rejects_a_window_without_0(window, capsys):
    code, out, err = run(capsys, "conjecture", "--n", "2", "--window", window, "--seed", "1")
    assert (code, out, err) == (1, "", f"error: --window {window!r} must contain 0, the scan's initial index\n")


@pytest.mark.parametrize("argv, message", [
    (("--window", "-3:3"), "--window '-3:3' has 7 points; --w 4 needs at least 10"),
    (("--window", "-4:4"), "--window '-4:4' has 9 points; --w 4 needs at least 10"),
    (("--window", "-2:3", "--w", "3"), "--window '-2:3' has 6 points; --w 3 needs at least 8"),
    (("--window", "-30:30", "--w", "1"), "--w must be at least 2"),
    (("--window", "-30:30", "--w", "-1"), "--w must be at least 2"),
    (("--window", "-3:3", "--w", "0"), "--w must be at least 2"),
])
def test_conjecture_refuses_w_and_window_before_any_draw(argv, message, monkeypatch, capsys):
    # the window needs 2w+2 points, checked with w >= 2 on entry: the messages
    # name the flags, and no draw is made
    monkeypatch.setattr(cli, "random_constrained_params", lambda rng: pytest.fail("drew parameters"))
    code, out, err = run(capsys, "conjecture", "--n", "2", "--seed", "1", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("window, w", [("-4:5", "4"), ("-2:3", "2"), ("0:5", "2")])
def test_conjecture_takes_a_window_of_2w_plus_2_points(window, w, capsys):
    code, out, err = run(capsys, "conjecture", "--n", "2", "--seed", "1", "--window", window, "--w", w)
    assert (code, err) == (0, "") and json.loads(out)["w"] == int(w)


# (argv, the number of candidates): none, every run, one run of one
_SUMMARY_CASES = {
    "no-candidates": (("--n", "3", "--window", "-30:30", "--seed", "8"), 0),
    "every-run": (("--n", "6", "--window", "-3:3", "--seed", "1", "--w", "2"), 6),
    "n-1": (("--n", "1", "--window", "-30:30", "--seed", "1"), 1),
}


@pytest.mark.parametrize("case", sorted(_SUMMARY_CASES))
def test_conjecture_summary_equals_json_dumps(case, capsys):
    # the templated summary is the standard encoder's text of its own value
    argv, n_candidates = _SUMMARY_CASES[case]
    code, out, err = run(capsys, "conjecture", *argv)
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert len(summary["counterexample_candidates"]) == n_candidates
    assert out == json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if not n_candidates:
        assert '"counterexample_candidates": [],' in out


def test_summary_writer_equals_json_dumps_on_rational_params():
    # params_to_obj gives rational strings for fractional amplitudes, and ints
    # for the integral ones and for parameter signs
    thirds = Params.make(Fraction(100, 3), (Fraction(32, 3), 11, Fraction(-37, 3), 0), (1, Fraction(65, 3), -4, 7))
    signed = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4), sa=(1, -1, 1, -1), sb=(-1, -1, 1, 1))
    candidates = [
        {"run": i, "params": params_to_obj(p), "y0": y0, "z0": z0, "forward_detected": fwd, "backward_detected": bwd}
        for i, (p, y0, z0, fwd, bwd) in enumerate([(thirds, "-150", "7", True, False), (signed, "0", "-3", False, True)])
    ]
    assert "32/3" in candidates[0]["params"].values() and candidates[1]["params"]["sa2"] == -1
    summary = {"n": 9, "seed": -5, "window": [-7, 7], "w": 3, "linear_detected": 7, "fraction": "7/9",
               "counterexample_candidates": candidates}
    assert cli._summary_json_text(summary) == json.dumps(summary, sort_keys=True, indent=2) + "\n"


def test_qlimit_subcommand(capsys, p42_file):
    code, out, _ = run(
        capsys, "qlimit", "--params", p42_file,
        "--y0", "-1:43", "--z0", "-1:40", "--window", "0:2", "--eps", "1,0.5,0.2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,eps,err_Y,err_Z,sign_ok_Y,sign_ok_Z,cancellation_flag"
    assert len(lines) == 1 + 3 * 3


_QLIMIT_DIGESTS = json.loads(Path(__file__).with_name("qlimit_digests.json").read_text())


@pytest.fixture(scope="module")
def golden_table_files(tmp_path_factory):
    # the golden evolve outputs over -10:10 of the minus and plus sectors, built once
    root = tmp_path_factory.mktemp("golden")
    params = root / "p42.json"
    dump_params(Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4)), params)
    files = {}
    for sector, (y0, z0) in {"minus": ("-1:43", "-1:40"), "plus": ("1:43", "1:40")}.items():
        files[sector] = str(root / f"{sector}.csv")
        argv = ["evolve", "--params", str(params), "--y0", y0, "--z0", z0, "--window", "-10:10"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--out", files[sector]]) == 0
    return files


@pytest.mark.parametrize("case", list(_QLIMIT_DIGESTS["cases"]))
def test_qlimit_output_matches_pinned_digests(case, request, capsys, p42_file):
    # qlimit's CSV, stderr and exit code, byte for byte as recorded in qlimit_digests.json
    argv = _QLIMIT_DIGESTS["cases"][case]["argv"]
    if any("{" in a for a in argv):
        files = request.getfixturevalue("golden_table_files")
        argv = [a.format(**files) for a in argv]
    code, out, err = run(capsys, "qlimit", "--params", p42_file, *argv)

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    spec = _QLIMIT_DIGESTS["cases"][case]
    assert (code, digest(out), digest(err)) == (spec["rc"], spec["stdout"], spec["stderr"])


_SCAN_DIGESTS = json.loads(Path(__file__).with_name("scan_digests.json").read_text())


@pytest.mark.parametrize("case", list(_SCAN_DIGESTS["cases"]))
def test_conjecture_output_matches_pinned_digests(case, capsys):
    # the scan's JSON summary, byte for byte as recorded in scan_digests.json
    code, out, err = run(capsys, "conjecture", *_SCAN_DIGESTS["cases"][case]["argv"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _SCAN_DIGESTS["cases"][case]["stdout"]


_FRACTIONAL_DIGESTS = json.loads(Path(__file__).with_name("fractional_digests.json").read_text())

# integer parameter sets, divided by 2-6 to make the fractional inputs
_P42, _P41 = Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4)), Params.make(100, (25, 46, 67, 23), (59, 65, 1, 42))
_DIVIDED = {
    "p42_2": (_P42, 2),
    "p42_3": (_P42, 3),
    "p41_4": (_P41, 4),
    "p41_6": (_P41, 6),
    "tie_4": (Params.make(3, (-10, 8, -8, 11), (10, -3, 3, 6)), 4),  # ties on both signs: 16+ branches over -8:8
}


def write_fractional_inputs(root: Path) -> dict:
    """The files that ``fractional_digests.json`` names: the parameter sets of
    ``_DIVIDED``, an all-minus p42/3 table over -10:10 from ``evolve``, that
    table with one y amplitude moved by 1/7, and a p41/6 table from ``riccati``."""
    files = {}
    for name, (p, d) in _DIVIDED.items():
        files[name] = str(root / f"{name}.json")
        dump_params(Params(*(Fraction(v, d) for v in p[:9])), files[name])
    files["p42_3_table"] = str(root / "p42_3.csv")
    files["p41_6_table"] = str(root / "p41_6.csv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["evolve", "--params", files["p42_3"], "--y0", "-1:43/3", "--z0", "-1:40/3",
                     "--window", "-10:10", "--out", files["p42_3_table"]]) == 0
        assert main(["riccati", "--params", files["p41_6"], "--y0", "-1:5", "--window", "-6:6",
                     "--out", files["p41_6_table"]]) == 0
    table = SolutionTable.from_csv_text(Path(files["p42_3_table"]).read_text())
    ay = list(table.ay)
    ay[4] += Fraction(1, 7)
    files["p42_3_moved"] = str(root / "p42_3_moved.csv")
    moved = SolutionTable(table.m_lo, table.sy, tuple(ay), table.sz, table.az)
    Path(files["p42_3_moved"]).write_text(moved.to_csv_text())
    return files


@pytest.fixture(scope="module")
def fractional_files(tmp_path_factory):
    return write_fractional_inputs(tmp_path_factory.mktemp("fractional"))


@pytest.mark.parametrize("case", list(_FRACTIONAL_DIGESTS["cases"]))
def test_fractional_input_output_matches_pinned_digests(case, capsys, fractional_files):
    # the CLI on parameters and states with denominators 2-6, byte for byte as
    # recorded in fractional_digests.json: the kernel decides the relations on
    # Fractions as it does on ints
    spec = _FRACTIONAL_DIGESTS["cases"][case]
    code, out, err = run(capsys, *(a.format(**fractional_files) for a in spec["argv"]))

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    assert (code, digest(out), digest(err)) == (spec["rc"], spec["stdout"], spec["stderr"])


# Riccati-conditioned parameters whose A2+B4 (two ints) and B2+A4 (two halves)
# are equal values of two types.  A step below m0 runs on R(p), whose y->z
# constant at -m is mQ + (B2-Q) + A4 where p's at m-1 is (m-1)Q + A2 + B4, so
# an integral amplitude there may be an int or a Fraction of denominator 1;
# the text is the same.  The digests were recorded when the library stepped
# backward on p.
_MIXED_SUMS = {"q": 1, "a1": -5, "a2": 2, "a3": 0, "a4": "-3/2", "b1": -4, "b2": "7/2", "b3": 0, "b4": 0}
_MIXED_SUMS_DIGESTS = {
    "csv": "e88dad95e12d6c0a0968144c070344f8e3400097b47c56f56adb701a8d009e52",
    "json": "8ccc7c22ac34d1cd29797f6174a7a9b91c2f598de473972d664aa625746deaab",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_riccati_output_on_sums_of_two_types_matches_pinned_digest(fmt, tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(_MIXED_SUMS))
    p = load_params(str(path))
    assert p.a2 + p.b4 == p.b2 + p.a4 and type(p.a2 + p.b4) is not type(p.b2 + p.a4)
    code, out, err = run(capsys, "riccati", "--params", str(path), "--y0", "1:-1", "--window", "-3:3",
                         "--sampling", "all-breakpoints", "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, _MIXED_SUMS_DIGESTS[fmt], "")


def test_qlimit_tiny_eps_exits_without_traceback(p42_file):
    # at eps = 10^-50 the seeds' binary exponents pass 2^53, beyond a float's
    # integer resolution; the run still ends in rows, and the eps = 1 rows are
    # those of a run without the tiny eps
    argv = [sys.executable, "-m", "udp6.cli", "qlimit", "--params", p42_file,
            "--y0", "-1:43", "--z0", "-1:40", "--window", "-2:2", "--eps"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    outs = [subprocess.run(argv + [eps], env=env, capture_output=True, text=True) for eps in (f"1,1/{10**50}", "1")]
    assert [(o.returncode, o.stderr) for o in outs] == [(0, ""), (0, "")]
    rows = outs[0].stdout.splitlines()
    assert len(rows) == 1 + 5 * 2 and all(r.split(",")[1] in ("1", f"1/{10**50}") for r in rows[1:])
    assert [r for r in rows if r.split(",")[1] != f"1/{10**50}"] == outs[1].stdout.splitlines()


def test_qlimit_precision_flag_is_usage_error(capsys, p42_file):
    # the working precision is always found by agreement; no flag fixes it
    code, out, err = run(
        capsys, "qlimit", "--params", p42_file, "--y0", "-1:43", "--z0", "-1:40",
        "--window", "0:2", "--eps", "1", "--precision", "512",
    )
    assert (code, out) == (1, "") and "Traceback" not in err
    assert err.endswith("udp6: error: unrecognized arguments: --precision 512\n")


@pytest.mark.parametrize("precision", ["1", "0", "-5"])
def test_qlimit_precision_below_two_bits_is_input_error(capsys, p42_file, precision):
    # the precisions the old flag's 2-bit floor refused are still refused, with
    # exit 1 and no traceback: no option takes a precision any more
    code, out, err = run(
        capsys, "qlimit", "--params", p42_file, "--y0", "-1:43", "--z0", "-1:40",
        "--window", "0:2", "--eps", "1", "--precision", precision,
    )
    assert (code, out) == (1, "") and "Traceback" not in err
    # main joins a negative value to its option, so "-5" arrives as "--precision=-5"
    assert err.splitlines()[-1] in (
        f"udp6: error: unrecognized arguments: --precision {precision}",
        f"udp6: error: unrecognized arguments: --precision={precision}",
    )


def test_qlimit_abort_is_reported_with_exit_3(capsys, tmp_path):
    # at m = 0, y(0) = exp(A1/eps) exactly, so y - t a1 cancels to an exact zero;
    # the run stops at its seed row, and the table is not a solution either
    params, table = tmp_path / "params.json", tmp_path / "table.csv"
    dump_params(Params.make(3, (1, 2, 5, 4), (6, -6, 2, 1)), params)
    table.write_text("m,sy,Y,sz,Z\n0,1,1,1,0\n1,1,1,1,0\n")
    code, out, err = run(
        capsys, "qlimit", "--params", str(params), "--table", str(table), "--window", "0:1", "--eps", "1",
    )
    assert code == 3
    assert out == "m,eps,err_Y,err_Z,sign_ok_Y,sign_ok_Z,cancellation_flag\n0,1,0.0,0.0,1,1,0\n"
    assert err.splitlines() == [
        "aborted at eps=1, m=0: exact cancellation to zero",
        "input table violates zz at m=0",
        "input table violates yy at m=0",
    ]


@pytest.mark.parametrize("start", ["table", "y0-z0"])
def test_qlimit_amplitude_past_a_doubles_range_is_input_error(capsys, tmp_path, p42_file, start):
    # the error scale of the precision search is a double; a bound past its
    # range is refused by name, with exit 1 and no traceback
    big = 10 ** 400
    table = tmp_path / "big.csv"
    table.write_text(f"m,sy,Y,sz,Z\n0,-1,{big},-1,40\n")
    given = ["--table", str(table)] if start == "table" else ["--y0", f"-1:{big}", "--z0", "-1:40"]
    code, out, err = run(capsys, "qlimit", "--params", p42_file, *given, "--window", "0:0", "--eps", "1")
    assert (code, out) == (1, "")
    assert err == "error: amplitude bound of 401 digits is past a double's range\n"


@pytest.mark.parametrize("start", [(), ("--y0", "-1:43"), ("--z0", "-1:40")], ids=["none", "y0-only", "z0-only"])
def test_qlimit_without_a_start_is_input_error(capsys, p42_file, start):
    code, out, err = run(
        capsys, "qlimit", "--params", p42_file, "--window", "-2:2", "--eps", "1", *start,
    )
    assert (code, out, err) == (1, "", "error: qlimit needs either --table or --y0/--z0\n")


@pytest.mark.parametrize("m0", ["7", "0"])
def test_qlimit_m0_with_a_table_is_input_error(capsys, tmp_path, p42_file, m0):
    # --m0 places the --y0/--z0 start; a table carries its own indexes, so
    # with --table it would be ignored, even at 0 or outside the window
    table = tmp_path / "t.csv"
    table.write_text(_GOLDEN_ROWS)
    code, out, err = run(
        capsys, "qlimit", "--params", p42_file, "--table", str(table), "--m0", m0, "--window", "-2:2", "--eps", "1",
    )
    assert (code, out, err) == (1, "", "error: qlimit takes --m0 only with --y0/--z0, not with --table\n")


def test_qlimit_m0_places_the_y0_z0_start(capsys, tmp_path, p42, p42_file):
    # the start at --m0 1 is the all-minus table from index 1, given as --table
    table = tmp_path / "t.csv"
    table.write_text(evolve_noparity(p42, 1, 43, 40, (0, 2)).to_csv_text())
    common = ("--window", "0:2", "--eps", "1,1/2")
    started = run(capsys, "qlimit", "--params", p42_file, "--y0", "-1:43", "--z0", "-1:40", "--m0", "1", *common)
    assert started == run(capsys, "qlimit", "--params", p42_file, "--table", str(table), *common)
    at_0 = run(capsys, "qlimit", "--params", p42_file, "--y0", "-1:43", "--z0", "-1:40", *common)
    assert started[0] == 0 and started != at_0


def test_qlimit_start_outside_the_all_minus_sector_is_input_error(capsys, p42_file):
    code, out, err = run(
        capsys, "qlimit", "--params", p42_file, "--y0", "1:43", "--z0", "-1:40", "--window", "0:2", "--eps", "1",
    )
    assert (code, out, err) == (1, "", "error: --y0/--z0 evolution uses the all-minus sector; signs must be -1\n")


def test_qlimit_reports_nonmonotone_errors_with_exit_3(capsys, monkeypatch, p42_file):
    # a report whose Y error rises along the schedule at m = 1: the CSV is
    # written and each flag gets one stderr line
    def row(m, eps, err):
        return CompareRow(m=m, eps=Fraction(eps), err_y=err, err_z=0.0, sign_ok_y=True, sign_ok_z=True, warned=False)

    report = CompareReport(
        rows=(row(0, 1, 0.5), row(0, "1/2", 0.25), row(1, 1, 0.25), row(1, "1/2", 0.5)),
        aborts=(), schedule=EpsSchedule([1, Fraction(1, 2)]), window=(0, 1),
    )
    monkeypatch.setattr(cli, "ud_limit_compare", lambda *args, **kw: report)
    code, out, err = run(
        capsys, "qlimit", "--params", p42_file, "--y0", "-1:43", "--z0", "-1:40", "--window", "0:1", "--eps", "1,1/2",
    )
    assert (code, out, err) == (3, report.to_csv_text(), "non-monotone amplitude error at m=1 (Y)\n")


# --- zero denominators and malformed text in rational inputs -----------------------------

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


def _bad_input_paths(tmp_path, p42_file, text: str) -> dict:
    """The p42 params file, and a params file and a table with ``text`` in
    one amplitude: a1, and Z at m = 1."""
    bad_params = tmp_path / "bad.json"
    with open(p42_file, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["a1"] = text
    bad_params.write_text(json.dumps(obj))
    bad_table = tmp_path / "bad.csv"
    bad_table.write_text(f"m,sy,Y,sz,Z\n0,-1,43,-1,40\n1,-1,122,-1,{text}\n")
    return {"params": p42_file, "bad_params": str(bad_params), "bad_table": str(bad_table)}


@pytest.mark.parametrize("case", sorted(_BAD_RATIONAL_CASES))
def test_zero_denominator_is_input_error(case, capsys, tmp_path, p42_file):
    paths = _bad_input_paths(tmp_path, p42_file, "1/0")
    argv = [a.format(**paths) for a in _BAD_RATIONAL_CASES[case]]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and "zero denominator" in err


_MALFORMED_RATIONAL_CASES = {
    "params-json": (("evolve", "--params", "{bad_params}", *_PAIRS, "--window", "0:2"), "a1", "x"),
    "y0": (("evolve", "--params", "{params}", "--y0", "1:4x", "--z0", "-1:40", "--window", "0:2"), "--y0", "4x"),
    "z0": (("qlimit", "--params", "{params}", "--y0", "-1:43", "--z0", "-1:4/", "--window", "0:2",
            "--eps", "1"), "--z0", "4/"),
    "riccati-y0": (("riccati", "--params", "{params}", "--y0", "1:1/x", "--window", "0:2"), "--y0", "1/x"),
    "eps": (("qlimit", "--params", "{params}", *_PAIRS, "--window", "0:2", "--eps", "1,x"), "eps", "x"),
    "alpha": (("families", "--params", "{params}", "--id", "lin", "--alpha", "1/x",
               "--beta", "1", "--gamma", "1"), "--alpha", "1/x"),
    "table-cell": (("verify", "--params", "{params}", "--table", "{bad_table}"), "Z", "x"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_RATIONAL_CASES))
def test_malformed_rational_names_its_input(case, capsys, tmp_path, p42_file):
    paths = _bad_input_paths(tmp_path, p42_file, "x")
    args, what, text = _MALFORMED_RATIONAL_CASES[case]
    code, out, err = run(capsys, *[a.format(**paths) for a in args])
    assert (code, out, err) == (1, "", f"error: {what}: malformed rational {text!r}\n")


_LONG = "4" * 5000  # over int's default limit of 4300 digits
_TOO_LONG = "integer of 5000 digits is over int's limit of 4300 digits"
# (argv, the table's one row, the message after "error: ")
_BAD_INTEGER_CASES = {
    "y0-sign": (("evolve", "--params", "{params}", "--y0", "x:5", "--z0", "-1:40", "--window", "0:2"), None,
                "--y0: malformed integer 'x'"),
    "z0-sign": (("qlimit", "--params", "{params}", "--y0", "-1:43", "--z0", "1.5:40", "--window", "0:2",
                 "--eps", "1"), None, "--z0: malformed integer '1.5'"),
    "window": (("evolve", "--params", "{params}", *_PAIRS, "--window", "0:x"), None,
               "--window: malformed integer 'x'"),
    "window-lo": (("conjecture", "--n", "1", "--window", "a:3", "--seed", "1"), None,
                  "--window: malformed integer 'a'"),
    "table-m": (("verify", "--params", "{params}", "--table", "{table}"), "x,-1,43,-1,40", "m: malformed integer 'x'"),
    "table-sy": (("verify", "--params", "{params}", "--table", "{table}"), "0,x,43,-1,40", "sy: malformed integer 'x'"),
    "table-sz": (("qlimit", "--params", "{params}", "--table", "{table}", "--window", "0:0", "--eps", "1"),
                 "0,-1,43,1/1,40", "sz: malformed integer '1/1'"),
    "y0-long": (("evolve", "--params", "{params}", "--y0", "-1:" + _LONG, "--z0", "-1:40", "--window", "0:2"),
                None, "--y0: " + _TOO_LONG),
    "table-Y-long": (("verify", "--params", "{params}", "--table", "{table}"), f"0,-1,{_LONG},-1,40",
                     "Y: " + _TOO_LONG),
}


@pytest.mark.parametrize("case", sorted(_BAD_INTEGER_CASES))
def test_malformed_integer_names_its_input(case, capsys, tmp_path, p42_file):
    args, row, message = _BAD_INTEGER_CASES[case]
    table = tmp_path / "bad.csv"
    table.write_text(f"m,sy,Y,sz,Z\n{row}\n")
    code, out, err = run(capsys, *[a.format(params=p42_file, table=table) for a in args])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_rational_over_the_digit_limit_is_refused_before_evolving(capsys, p42_file):
    code, out, err = run(capsys, "evolve", "--params", str(p42_file), "--y0", "-1:1e5000", "--z0", "-1:40",
                         "--window", "-400:400")
    assert (code, out) == (1, "") and "--y0" in err and len(err) < 200


def test_deeply_nested_params_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, "evolve", "--params", str(path), "--y0", "-1:43", "--z0", "-1:40",
                       "--window", "0:2")
    assert code == 1
    assert err == f"error: {path}: params JSON is nested too deeply\n"
    assert "Traceback" not in err


def test_unknown_family_is_input_error(capsys, p41_file):
    code, _, err = run(
        capsys, "families", "--params", p41_file, "--id", "sol0", "--window", "-2:2"
    )
    assert code == 1  # sol0 without --c
    assert "error" in err


# --- pair signs are checked where pairs enter ---------------------------------------------

_GOLDEN_ROWS = "m,sy,Y,sz,Z\n0,-1,43,-1,40\n1,-1,122,-1,-28\n"
_BAD_SIGN_CASES = {
    "y0-sign-2": ("evolve", "--params", "{params}", "--y0", "2:5", "--z0", "-1:40", "--window", "0:2"),
    "y0-sign-0": ("evolve", "--params", "{params}", "--y0", "0:5", "--z0", "-1:40", "--window", "0:2"),
    "verify-sy-0": ("verify", "--params", "{params}", "--table", "{sy0}"),
    "qlimit-sz-2": ("qlimit", "--params", "{params}", "--table", "{sz2}", "--window", "0:1", "--eps", "1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SIGN_CASES))
def test_bad_pair_sign_is_input_error(case, capsys, tmp_path, p42_file):
    sy0, sz2 = tmp_path / "sy0.csv", tmp_path / "sz2.csv"
    sy0.write_text(_GOLDEN_ROWS.replace("0,-1,43", "0,0,43"))
    sz2.write_text(_GOLDEN_ROWS.replace("43,-1,40", "43,2,40"))
    argv = [a.format(params=p42_file, sy0=sy0, sz2=sz2) for a in _BAD_SIGN_CASES[case]]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and "sign must be +1 or -1" in err
    assert "Traceback" not in err


_IGNORED_FLAG_CASES = {
    "qlimit-table-and-y0": ("qlimit", "--params", "{params}", "--table", "{table}", "--y0", "2:5",
                            "--window", "0:1", "--eps", "1"),
    "families-list-and-c": ("families", "--list", "--c", "x"),
    "qlimit-table-and-m0": ("qlimit", "--params", "{params}", "--table", "{table}", "--m0", "7",
                            "--window", "-2:2", "--eps", "1"),
}


@pytest.mark.parametrize("case", sorted(_IGNORED_FLAG_CASES))
def test_flags_that_would_be_ignored_are_input_errors(case, capsys, tmp_path, p42_file):
    table = tmp_path / "t.csv"
    table.write_text(_GOLDEN_ROWS)
    argv = [a.format(params=p42_file, table=table) for a in _IGNORED_FLAG_CASES[case]]
    code, out, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ") and not out


# --- parameter signs ------------------------------------------------------------------

_SIGNED_CASES = {
    "evolve": ("evolve", "--params", "{signed}", *_PAIRS, "--window", "-3:3"),
    "riccati": ("riccati", "--params", "{signed}", "--y0", "-1:69", "--m0", "1", "--window", "1:3"),
    "families": ("families", "--params", "{signed}", "--id", "sol0", "--c", "31"),
    "families-lin": ("families", "--params", "{signed}", "--id", "lin", "--alpha", "89",
                     "--beta", "111", "--gamma", "-117"),
    "qlimit": ("qlimit", "--params", "{signed}", *_PAIRS, "--window", "0:2", "--eps", "1"),
    "verify-riccati": ("verify", "--params", "{signed}", "--table", "{table}", "--riccati"),
}


@pytest.fixture
def signed_file(tmp_path, p42_file):
    # sa1*sa2*sa3*sa4 = sb1*sb2*sb3*sb4 still holds, so only the signs differ from p42
    with open(p42_file, encoding="utf-8") as fh:
        obj = json.load(fh)
    path = tmp_path / "signed.json"
    path.write_text(json.dumps({**obj, "sa1": -1, "sb1": -1}))
    return str(path)


@pytest.mark.parametrize("case", sorted(_SIGNED_CASES))
def test_parameter_signs_rejected_outside_verify(case, capsys, tmp_path, p42_file, signed_file):
    table_path = tmp_path / "t.csv"
    run(capsys, "evolve", "--params", p42_file, *_PAIRS, "--window", "-3:3", "--out", str(table_path))
    argv = [a.format(signed=signed_file, table=table_path) for a in _SIGNED_CASES[case]]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and "sa1=-1, sb1=-1" in err


def test_verify_honours_parameter_signs(capsys, tmp_path, p42_file, signed_file):
    table_path = tmp_path / "t.csv"
    run(capsys, "evolve", "--params", p42_file, *_PAIRS, "--window", "-3:3", "--out", str(table_path))
    code, out, _ = run(capsys, "verify", "--params", p42_file, "--table", str(table_path))
    assert code == 0 and "ok: 7 rows verified" in out
    code, _, err = run(capsys, "verify", "--params", signed_file, "--table", str(table_path))
    assert code == 3
    assert "FAIL m=1 relation=zz" in err and "FAIL m=2 relation=zz" in err


# --- fuzz: malformed flag values end in an exit code, never a traceback -------------------

_P42 = {"q": 100, "a1": 32, "a2": 33, "a3": 37, "a4": 22, "b1": 53, "b2": 65, "b3": 8, "b4": 4}
_P41 = {"q": 100, "a1": 25, "a2": 46, "a3": 67, "a4": 23, "b1": 59, "b2": 65, "b3": 1, "b4": 42}
_FUZZ_PARAMS = {
    "p42": json.dumps(_P42),
    "p41": json.dumps(_P41),
    "array": "[1, 2]",
    "number": "3",
    "null": "null",
    "not-json": "{q: 1",
    "signed": json.dumps({**_P42, "sa1": -1, "sb1": -1}),
    "unbalanced-signs": json.dumps({**_P42, "sa1": -1}),
    "sign-0": json.dumps({**_P42, "sb2": 0}),
    "sign-2": json.dumps({**_P42, "sa3": 2}),
    "missing-key": json.dumps({k: v for k, v in _P42.items() if k != "b4"}),
    "extra-key": json.dumps({**_P42, "c": 1}),
    "zero-denominator": json.dumps({**_P42, "a1": "1/0"}),
    "nan": json.dumps({**_P42, "q": "nan"}),
    "float": json.dumps({**_P42, "q": 1.5}),
    "constraint": json.dumps({**_P42, "b4": 5}),
}
_FUZZ_TABLES = {
    "golden": "m,sy,Y,sz,Z\n-1,-1,16,-1,-55\n0,-1,43,-1,40\n1,-1,122,-1,-28\n",
    "empty": "",
    "header-only": "m,sy,Y,sz,Z\n",
    "bad-header": "m,sy,Y,sz\n0,-1,43,-1\n",
    "short-row": "m,sy,Y,sz,Z\n0,-1,43,-1\n",
    "sign-0": "m,sy,Y,sz,Z\n0,0,43,-1,40\n1,-1,122,-1,-28\n",
    "sign-2": "m,sy,Y,sz,Z\n0,-1,43,2,40\n1,-1,122,-1,-28\n",
    "zero-denominator": "m,sy,Y,sz,Z\n0,-1,43,-1,40\n1,-1,1/0,-1,-28\n",
    "nan": "m,sy,Y,sz,Z\n0,-1,nan,-1,40\n",
    "non-integer-m": "m,sy,Y,sz,Z\nx,-1,43,-1,40\n",
    "gap": "m,sy,Y,sz,Z\n0,-1,43,-1,40\n2,-1,122,-1,-28\n",
    "quoted": 'm,sy,Y,sz,Z\n"0,-1,43,-1,40\n',
}
# (well-formed, malformed) values per flag; each draw takes either kind half the time.
# Every malformed value is an input error (exit 1) except those in _NOT_INPUT_ERRORS.
_RATIONALS = (("0", "-3", "7/2", "31", "47"), ("", "1/0", "nan", "inf", "x", "0.5"))
_PAIR_VALUES = (("-1:43", "-1:40", "1:43", "1:-3/4", "-1:69", "1:23"),
                ("", ":", "1:", ":5", "0:5", "2:5", "-1:1/0", "1:nan", "x:1"))
_WINDOWS = (("0:0", "-4:4", "-1:1", "1:6", "-8:0"), ("", "3:1", "1/0:2", "a:b", "2"))
_INTS = (("-1", "0", "1", "2", "-9"), ("", "x", "1.5"))
_CAPS = (("1", "3", "64"), ("-5", "0", "x"))
_EPS = (("1", "1,1/2,1/4", "1/4", "1,1/3"), ("", "1,1/0", "nan", "1,1", "1/2,1", "0", "-1"))
_PARAMS = (("@params/p42", "@params/p41"),
           tuple(f"@params/{k}" for k in _FUZZ_PARAMS if k not in ("p42", "p41")) + ("@missing",))
# plain verify admits parameter signs, so there the signed parameters are well-formed
_VERIFY_PARAMS = (_PARAMS[0] + ("@params/signed",), tuple(v for v in _PARAMS[1] if v != "@params/signed"))
_TABLES = (("@table/golden",),
           tuple(f"@table/{k}" for k in _FUZZ_TABLES if k != "golden") + ("@missing",))
# malformed values that are still valid input: a decimal rational, read exactly as 1/2
_NOT_INPUT_ERRORS = {"0.5"}


# each strategy below draws (argv fragment, whether it holds a malformed value that is
# an input error)
def _value(pools):
    good, bad = pools
    return st.one_of(
        st.sampled_from(good).map(lambda v: (v, False)),
        st.sampled_from(bad).map(lambda v: (v, v not in _NOT_INPUT_ERRORS)),
    )


def _req(flag, pools):
    return _value(pools).map(lambda vb: ([flag, vb[0]], vb[1]))


def _opt(flag, pools):
    # the flag with a value, or the flag left out
    return st.one_of(st.just(([], False)), _req(flag, pools))


def _switch(flag):
    return st.sampled_from((([], False), ([flag], False)))


def _cmd(name):
    return st.just(([name], False))


def _argv(*parts):
    return st.tuples(*parts).map(
        lambda ps: ([a for argv, _ in ps for a in argv], any(bad for _, bad in ps))
    )


_FUZZ_ARGV = st.one_of(
    _argv(_cmd("evolve"), _req("--params", _PARAMS), _req("--y0", _PAIR_VALUES),
          _req("--z0", _PAIR_VALUES), _req("--window", _WINDOWS), _opt("--m0", _INTS),
          _opt("--branch-cap", _CAPS), _opt("--format", (("csv", "json"), ("xml",)))),
    _argv(_cmd("verify"), _req("--params", _VERIFY_PARAMS), _req("--table", _TABLES),
          _switch("--riccati")),
    _argv(_cmd("riccati"), _req("--params", _PARAMS), _req("--y0", _PAIR_VALUES),
          _req("--window", _WINDOWS), _opt("--m0", _INTS), _opt("--branch-cap", _CAPS),
          _opt("--sampling", (("endpoints", "midpoint", "all-breakpoints"), ("every",)))),
    _argv(_cmd("families"), _opt("--params", _PARAMS),
          _opt("--id", (("r1", "r3", "sol0", "soln2", "solp", "pconst", "lin", "linprime"), ("r9",))),
          _opt("--c", _RATIONALS), _opt("--cprime", _RATIONALS), _opt("--m0", _INTS),
          _opt("--alpha", _RATIONALS), _opt("--beta", _RATIONALS), _opt("--gamma", _RATIONALS),
          _opt("--window", _WINDOWS), _switch("--list")),
    _argv(_cmd("conjecture"), _req("--n", (("0", "1", "2"), ("", "x", "-1"))),
          _req("--window", _WINDOWS), _req("--seed", _INTS), _opt("--w", _INTS)),
    _argv(_cmd("qlimit"), _req("--params", _PARAMS),
          st.one_of(_req("--table", _TABLES), _argv(_req("--y0", _PAIR_VALUES), _req("--z0", _PAIR_VALUES)),
                    _argv(_opt("--table", _TABLES), _opt("--y0", _PAIR_VALUES))),
          _opt("--m0", _INTS), _req("--window", _WINDOWS), _req("--eps", _EPS)),
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"@missing": str(root / "missing")}
    for kind, texts in (("params", _FUZZ_PARAMS), ("table", _FUZZ_TABLES)):
        for key, text in texts.items():
            path = root / f"{kind}-{key}"
            path.write_text(text)
            paths[f"@{kind}/{key}"] = str(path)
    return paths


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_FUZZ_ARGV)
def test_cli_fuzz_exits_without_traceback(fuzz_files, case):
    argv, malformed = case
    argv = [fuzz_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if malformed:
        assert code == 1 and "error: " in err.getvalue(), (argv, code, err.getvalue())
    else:
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
