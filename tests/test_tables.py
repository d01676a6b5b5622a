import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udp6.evolution import evolve
from udp6.system import ParityPair, parse_pair
from udp6.tables import SolutionTable, branches_json_text, branches_to_json_obj

from oracles import PairTable, pair_columns, pair_table, table_from_csv_rows

_AMPS = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12)),
)
_PAIRS = st.builds(ParityPair, st.sampled_from((1, -1)), _AMPS)
_INT_PAIRS = st.builds(ParityPair, st.sampled_from((1, -1)), st.integers(-10**6, 10**6))


@st.composite
def _tables(draw, pairs=_PAIRS, rows=st.integers(1, 6), m_lo=st.integers(-40, 40)):
    n = draw(rows)
    cols = [draw(st.lists(pairs, min_size=n, max_size=n)) for _ in "yz"]
    return pair_table(draw(m_lo), *cols)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tables=st.lists(_tables(), min_size=1, max_size=5), truncated=st.booleans())
def test_branches_json_text_equals_json_dumps(tables, truncated):
    obj = branches_to_json_obj(tables, truncated)
    assert branches_json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(table=_tables())
def test_to_csv_text_equals_csv_writer(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("m", "sy", "Y", "sz", "Z"))
    writer.writerows((m, y.sign, y.amp, z.sign, z.amp) for m, y, z in table.rows())
    assert table.to_csv_text() == buf.getvalue()


@st.composite
def _siblings(draw):
    """Tables that share most of their cells, as the branches of one evolution
    do: copies of one drawn table, each with a few cells replaced by a fresh
    pair or by the same value retyped (``Fraction(3)`` for ``3`` and back)."""
    base = draw(_tables())
    cols = sum(pair_columns(base), ())
    tables = []
    for _ in range(draw(st.integers(1, 6))):
        cells = list(cols)
        for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=2)):
            s, a = cells[i]
            retyped = Fraction(a) if type(a) is int else a.numerator if a.denominator == 1 else a
            cells[i] = draw(st.just(ParityPair(s, retyped)) | _PAIRS)
        tables.append(pair_table(base.m_lo, cells[:len(base)], cells[len(base):]))
    return tables


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tables=_siblings(), truncated=st.booleans())
def test_branches_to_json_obj_shares_rows_of_equal_cells(tables, truncated):
    obj = branches_to_json_obj(tables, truncated)
    per_table = [{"id": i, **t.to_json_obj()} for i, t in enumerate(tables)]
    assert obj == {"truncated": truncated, "branches": per_table}
    assert per_table == [{"id": i, "m_lo": t.m_lo, "rows": [
        {"m": m, "sy": y.sign, "Y": str(y.amp), "sz": z.sign, "Z": str(z.amp)}
        for m, y, z in t.rows()
    ]} for i, t in enumerate(tables)]
    rows = [r for b in obj["branches"] for r in b["rows"]]
    cells = {(m, y, z) for t in tables for m, y, z in t.rows()}
    assert len({id(r) for r in rows}) == len(cells)
    assert branches_json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_branches_json_text_renders_shared_and_equal_rows():
    # one row dict in two branches, two equal but distinct dicts in one, and a
    # row of branches_to_json_obj beside plain dicts
    shared = {"m": 0, "sy": 1, "Y": "3", "sz": -1, "Z": "-1/2"}
    built = branches_to_json_obj([SolutionTable(2, (1,), (Fraction(7, 2),), (-1,), (0,))], False)["branches"][0]["rows"][0]
    obj = {"truncated": True, "branches": [
        {"id": 0, "m_lo": 0, "rows": [shared, {"m": 1, "sy": -1, "Y": "4", "sz": 1, "Z": "0"}]},
        {"id": 1, "m_lo": 0, "rows": [shared, dict(shared, m=1), dict(shared, m=1)]},
        {"id": 2, "m_lo": 1, "rows": [dict(shared, m=1), built]},
        {"id": 3, "m_lo": 2, "rows": [built, dict(shared, m=3)]},
    ]}
    assert branches_json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_branches_json_text_without_branches():
    obj = branches_to_json_obj([], False)
    assert branches_json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- CSV reader -------------------------------------------------------------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(table=st.sampled_from((_INT_PAIRS, _PAIRS)).flatmap(_tables), order=st.randoms(use_true_random=False))
def test_csv_reader_reads_back_shuffled_rows_cell_by_cell(table, order):
    # integer tables take the bulk read, the others the row loop; both sort rows out of order
    header, *rows = table.to_csv_text().splitlines()
    order.shuffle(rows)
    got = SolutionTable.from_csv_text("\n".join([header] + rows) + "\n")
    assert got == table and PairTable.of(got) == PairTable.of(table)
    assert (got.sy, got.sz) == (table.sy, table.sz)
    for mine, theirs in zip(got.ay + got.az, table.ay + table.az):
        # integer text reads back as an int, any other text as a Fraction
        assert mine == theirs and type(mine) is (int if str(theirs).lstrip("-").isdigit() else Fraction)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(table=st.sampled_from((_INT_PAIRS, _PAIRS)).flatmap(lambda pairs: _tables(pairs, st.integers(2, 8))),
       data=st.data())
def test_csv_reader_refuses_non_contiguous_indexes(table, data):
    # a row dropped from inside the window or repeated, in either reader, rows
    # in order or shuffled: today's message
    header, *rows = table.to_csv_text().splitlines()
    if len(rows) > 2 and data.draw(st.booleans()):
        del rows[data.draw(st.integers(1, len(rows) - 2))]
    else:
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(rows)))
    if data.draw(st.booleans()):
        data.draw(st.randoms(use_true_random=False)).shuffle(rows)
    with pytest.raises(ValueError) as exc:
        SolutionTable.from_csv_text("\n".join([header] + rows) + "\n")
    assert str(exc.value) == "table window must be contiguous"


def test_csv_reader_keeps_integer_text_as_int_and_parses_the_rest():
    got = SolutionTable.from_csv_text("m,sy,Y,sz,Z\n0,1,-0,-1,007\n1,1,+3,-1,7/2\n2,1, 4,1,1.5\n")
    assert list(map(type, got.ay)) == [int, int, int]  # "+3" and " 4" are integral
    assert list(map(type, got.az)) == [int, Fraction, Fraction]
    assert list(got.ay + got.az) == [0, 3, 4, 7, Fraction(7, 2), Fraction(3, 2)]


@pytest.mark.parametrize("text,amp", [
    ("43", 43), ("-7", -7), ("43/2", Fraction(43, 2)), (" 43", Fraction(43)), ("+43", Fraction(43)),
])
def test_csv_reader_and_parse_pair_read_amplitudes_alike(text, amp):
    # one entry rule: text of an integral value is an int, any other text a Fraction
    cell = SolutionTable.from_csv_text(f"m,sy,Y,sz,Z\n0,-1,{text},1,0\n").y(0)
    pair = parse_pair("-1", text, "Y")
    assert cell == pair == ParityPair(-1, amp)
    assert type(cell.amp) is type(pair.amp) is (int if amp.denominator == 1 else Fraction)


def test_csv_reader_skips_blank_lines():
    plain = "m,sy,Y,sz,Z\n0,-1,43,-1,40\n1,-1,122,-1,-28\n"
    assert SolutionTable.from_csv_text("m,sy,Y,sz,Z\n\n0,-1,43,-1,40\n\n\n1,-1,122,-1,-28\n\n") == (
        SolutionTable.from_csv_text(plain)
    )
    with pytest.raises(ValueError, match="table has no rows"):
        SolutionTable.from_csv_text("m,sy,Y,sz,Z\n\n\n")


@pytest.mark.parametrize("rows,message", [
    (["0,0,43,-1,40"], "sign must be +1 or -1, got 0"),
    (["0,-1,43,2,40"], "sign must be +1 or -1, got 2"),
    (["0,-1,1/0,-1,40"], "Y: zero denominator in '1/0'"),
    (["0,-1,43,-1,x"], "Z: malformed rational 'x'"),
    (["0,-1,43,-1,40", "2,-1,43,-1,40"], "table window must be contiguous"),
    (["0,-1,43,-1,40", "0,-1,43,-1,40"], "table window must be contiguous"),
    (["0,-1,43,-1"], "malformed row: ['0', '-1', '43', '-1']"),
    ([], "table has no rows"),
    (["0,-1," + "4" * 200_000 + ",-1,40"], "malformed CSV: field larger than field limit (131072)"),
    (["x,-1,43,-1,40"], "m: malformed integer 'x'"),
    (["0,x,43,-1,40"], "sy: malformed integer 'x'"),
    (["0,-1,43,+-1,40"], "sz: malformed integer '+-1'"),
    (["0,-1," + "4" * 5000 + ",-1,40"], "Y: integer of 5000 digits is over int's limit of 4300 digits"),
    (["0,-1,43,-1,-" + "9" * 5000], "Z: integer of 5000 digits is over int's limit of 4300 digits"),
    (["0,-1,43,-1,40", "9" * 5000 + ",-1,43,-1,40"], "m: integer of 5000 digits is over int's limit of 4300 digits"),
])
def test_csv_reader_rejects_bad_tables(rows, message):
    with pytest.raises(ValueError) as exc:
        SolutionTable.from_csv_text("\n".join(["m,sy,Y,sz,Z"] + rows) + "\n")
    assert str(exc.value) == message


# edits of one cell v ("{}"): (the columns edited, the new text)
_CELL_EDITS = (
    ((1, 3), "0"), ((1, 3), "2"), (range(5), '"{}"'), (range(5), "+{}"), (range(5), " {}"),
    ((0, 2, 4), "4" * 5000), ((0, 2, 4), "-" + "9" * 5000),
)


@st.composite
def _csv_texts(draw):
    """A table's CSV text, rows shuffled, with up to two edits: a character
    deleted or inserted, a blank line, CRLF line ends, or a cell of a row
    edited (a sign to 0 or 2; quoted, signed or spaced; 5,000 digits long)."""
    table = draw(_tables(draw(st.sampled_from((_INT_PAIRS, _PAIRS)))))
    header, *rows = table.to_csv_text().splitlines()
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    text = "\n".join([header] + rows) + "\n"
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("delete", "insert", "blank", "crlf") + _CELL_EDITS))
        if kind in ("delete", "insert"):
            i = draw(st.integers(0, len(text) - 1))
            new = draw(st.sampled_from('0-1,\n\r"+ /x')) if kind == "insert" else ""
            text = text[:i] + new + text[i + (kind == "delete"):]
        elif kind == "crlf":
            text = text.replace("\n", "\r\n")
        else:
            lines = text.split("\n")
            k = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))  # a row, if there is one
            if kind == "blank":
                lines.insert(k, "")
            else:
                columns, new = kind
                cells, j = lines[k].split(","), draw(st.sampled_from(columns))
                if j < len(cells):
                    cells[j] = new.format(cells[j])
                lines[k] = ",".join(cells)
            text = "\n".join(lines)
    return text


def _read(reader, text):
    """The table and its amplitude types, or the ValueError's message."""
    try:
        table = reader(text)
    except ValueError as exc:
        return str(exc)
    return table, list(map(type, table.ay + table.az))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(text=_csv_texts())
def test_csv_reader_reads_as_the_row_by_row_oracle(text):
    assert _read(SolutionTable.from_csv_text, text) == _read(table_from_csv_rows, text)


def test_csv_reader_reads_the_writers_integer_layout_without_the_csv_module(monkeypatch, p42):
    # the golden +-400 table in the writer's integer layout never reaches the csv module;
    # one cell in rational text sends the text through it, and its integral value reads as an int
    golden = evolve(p42, 0, ParityPair(-1, 43), ParityPair(-1, 40), (-400, 400)).tables[0]
    text = golden.to_csv_text()
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
    got = SolutionTable.from_csv_text(text)
    assert got == golden and len(got) == 801 and not calls
    assert set(map(type, got.ay + got.az)) == {int}
    text = text.replace("\n0,-1,43,", "\n0,-1,86/2,", 1)
    got = SolutionTable.from_csv_text(text)
    assert got == golden and len(calls) == 1
    assert set(map(type, got.ay + got.az)) == {int}


@pytest.mark.parametrize("column", [0, 2, 4], ids=["m", "Y", "Z"])
@pytest.mark.parametrize("cell, bulk", [
    ("-0", True), ("007", False), ("-007", False), ("4" * 5000, False), ("-" + "9" * 5000, False),
], ids=["minus-zero", "leading-zeros", "minus-leading-zeros", "5000-digits", "minus-5000-digits"])
def test_csv_reader_reads_integer_layout_cells_as_the_row_loop_does(monkeypatch, column, cell, bulk):
    # every such text is in the writer's integer layout, read in bulk by one
    # json.loads; JSON admits -0 but no leading zero, and int's digit limit
    # refuses 5,000 digits, so those texts are read by the row loop: the same
    # values, types or message as the row-by-row oracle either way
    rows = [["0", "-1", "43", "-1", "40"], ["1", "1", "-0", "1", "7"]]
    rows[1][column] = cell
    if column == 0 and len(cell) < 10:  # the window stays contiguous
        rows[0][0] = str(int(cell) - 1)
    text = "m,sy,Y,sz,Z\n" + "".join(",".join(row) + "\n" for row in rows)
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
    got = _read(SolutionTable.from_csv_text, text)
    assert got == _read(table_from_csv_rows, text)
    assert len(calls) == (0 if bulk else 1) + 1  # the oracle's own read is the last
    assert type(got) is (tuple if len(cell) < 10 else str)  # a table, or the digit limit's message


@pytest.mark.parametrize("m", [-2, 1])
def test_solution_table_lookup_outside_its_window_is_key_error(m):
    table = SolutionTable(-1, (1, -1), (2, 3), (-1, 1), (0, 5))
    for column in (table.y, table.z):
        with pytest.raises(KeyError, match=rf"index {m} outside \[-1, 0\]"):
            column(m)


def test_solution_table_is_an_immutable_value():
    cols = sy, ay, sz, az = (1, -1), (2, Fraction(1, 3)), (-1, 1), (0, 5)
    table = SolutionTable(-1, *cols)
    for name in ("m_lo", "sy", "ay", "other"):
        with pytest.raises(AttributeError):
            setattr(table, name, 0)
    with pytest.raises(AttributeError):
        del table.az
    assert (table.m_lo, table.sy, table.ay, table.sz, table.az) == (-1, *cols)
    assert table.y(0) == ParityPair(-1, Fraction(1, 3)) and table.z(-1) == ParityPair(-1, 0)
    assert list(table.rows()) == [(-1, (1, 2), (-1, 0)), (0, (-1, Fraction(1, 3)), (1, 5))]
    twin = SolutionTable(-1, *map(tuple, map(list, cols)))
    assert twin == table and hash(twin) == hash(table) and len({twin, table}) == 1
    assert table != SolutionTable(0, *cols) and table != (-1, *cols)
    assert len(table) == 2 and table.m_hi == 0
    assert repr(table) == f"SolutionTable(m_lo=-1, sy={sy!r}, ay={ay!r}, sz={sz!r}, az={az!r})"
    for short in range(4):
        with pytest.raises(ValueError, match="equal length"):
            SolutionTable(0, *(col[:1] if k == short else col for k, col in enumerate(cols)))
    with pytest.raises(ValueError, match="empty table"):
        SolutionTable(0, (), (), (), ())


# small tables over few values, so that drawn pairs are often equal
_SMALL = _tables(st.builds(ParityPair, st.sampled_from((1, -1)), st.sampled_from((0, 1, Fraction(1), Fraction(1, 2)))),
                 st.integers(1, 2), st.integers(0, 1))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(a=_SMALL, b=_SMALL)
def test_equality_and_hash_agree_with_the_pair_reference(a, b):
    # columns compare and hash as the pair tables did: equal tables, Fraction(1)
    # for 1 included, hash alike
    ref_a, ref_b = PairTable.of(a), PairTable.of(b)
    assert (a == b) == (ref_a == ref_b) and (a != b) == (ref_a != ref_b)
    if a == b:
        assert hash(a) == hash(b) and hash(ref_a) == hash(ref_b)
    assert pair_table(*ref_a) == a and len({a, b}) == len({ref_a, ref_b})
