import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udp6 import cli
from udp6.cli import main
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
    # D = 6: riccati and verify --riccati both run on the integer image
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


def test_families_list(capsys):
    code, out, _ = run(capsys, "families", "--list")
    assert code == 0
    assert "sol0" in out.split()


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


@pytest.mark.parametrize("n", ["-1", "0"])
def test_conjecture_rejects_n_below_one(n, capsys):
    code, out, err = run(capsys, "conjecture", "--n", n, "--window", "-4:4", "--seed", "1")
    assert (code, out, err) == (1, "", "error: --n must be at least 1\n")


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
    with open(p42_file, encoding="utf-8") as fh:
        obj = json.load(fh)
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
_PRECISIONS = (("2", "64", "300"), ("0", "-5", "1", "x"))
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
          _opt("--m0", _INTS), _req("--window", _WINDOWS), _req("--eps", _EPS),
          _opt("--precision", _PRECISIONS)),
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
