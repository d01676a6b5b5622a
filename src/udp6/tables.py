"""Solution tables: m -> (y, z) over a contiguous integer window, with an
exact CSV round-trip (columns m, sy, Y, sz, Z; amplitudes as rational
strings).  The CSV reader reads amplitudes by ``parse_amp``, so integer text
stays an int, as the evolutions keep integer cells.  The writer's own layout
of an integer table (the header, then rows of ASCII integers with signs 1 or
-1, each ended by a newline) is matched by one regular expression and read
in bulk: one ``int`` map over all its cells.  Any other text, and text whose
bulk read fails (a cell over ``int``'s digit limit), is read row by row
through the csv module, the one place that reports errors.  JSON is an
output format only: ``to_json_obj`` and the branch writers have no reader.
Rows of equal cells share one dict in ``branches_to_json_obj``, which must
not be mutated."""

from __future__ import annotations

import csv
import io
import re
from itertools import repeat
from typing import Iterable, Iterator, Tuple

from .system import ParityPair, check_sign, parse_amp, parse_int

__all__ = ["SolutionTable", "branches_json_text", "branches_to_json_obj"]

_COLUMNS = ("m", "sy", "Y", "sz", "Z")
_HEADER = ",".join(_COLUMNS) + "\n"
# the writer's layout of an integer table: the header and at least one row
_INT_TABLE = re.compile(re.escape(_HEADER) + r"(?:-?[0-9]+,-?1,-?[0-9]+,-?1,-?[0-9]+\n)+")


class SolutionTable:
    """The mapping m -> (y, z) over [m_lo, m_lo + len - 1]: ``m_lo`` and the
    columns ``ys`` and ``zs``, tuples of equal, nonzero length.  Immutable:
    its attributes cannot be assigned, and equal tables are equal values
    that hash alike.  ``len`` counts rows."""

    __slots__ = ("m_lo", "ys", "zs")

    def __init__(self, m_lo: int, ys: Tuple[ParityPair, ...], zs: Tuple[ParityPair, ...]) -> None:
        if len(ys) != len(zs):
            raise ValueError("y and z columns must have equal length")
        if not ys:
            raise ValueError("empty table")
        for name, value in zip(self.__slots__, (m_lo, ys, zs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SolutionTable is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.m_lo, self.ys, self.zs

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "SolutionTable(m_lo=%r, ys=%r, zs=%r)" % self._key()

    @property
    def m_hi(self) -> int:
        return self.m_lo + len(self.ys) - 1

    def __len__(self) -> int:
        return len(self.ys)

    def indexes(self) -> range:
        return range(self.m_lo, self.m_hi + 1)

    def _at(self, m: int) -> int:
        if not (self.m_lo <= m <= self.m_hi):
            raise KeyError(f"index {m} outside [{self.m_lo}, {self.m_hi}]")
        return m - self.m_lo

    def y(self, m: int) -> ParityPair:
        return self.ys[self._at(m)]

    def z(self, m: int) -> ParityPair:
        return self.zs[self._at(m)]

    def rows(self) -> Iterator[Tuple[int, ParityPair, ParityPair]]:
        return zip(self.indexes(), self.ys, self.zs)

    @classmethod
    def _from_rows(cls, ms: list, ys: list, zs: list) -> "SolutionTable":
        """The table of the rows (ms[i], ys[i], zs[i]), at least one, in any
        order; the indexes must be contiguous."""
        order = sorted(range(len(ms)), key=ms.__getitem__)
        m_lo = ms[order[0]]
        if [ms[i] for i in order] != list(range(m_lo, m_lo + len(ms))):
            raise ValueError("table window must be contiguous")
        return cls(m_lo, tuple(ys[i] for i in order), tuple(zs[i] for i in order))

    # -- serialization --------------------------------------------------------

    def to_csv_text(self) -> str:
        """The text ``csv.writer`` writes, which quotes none of these fields."""
        rows = ["%d,%d,%s,%d,%s\n" % (m, sy, y, sz, z) for m, (sy, y), (sz, z) in self.rows()]
        return _HEADER + "".join(rows)

    @classmethod
    def from_csv_text(cls, text: str) -> "SolutionTable":
        """The table written by ``to_csv_text``, rows in any order; signs are
        checked and zero denominators rejected as in ``parse_pair``; text the
        csv module cannot read (a field over its size limit) is a ValueError
        too."""
        if _INT_TABLE.fullmatch(text):
            try:
                cells = list(map(int, text[len(_HEADER):-1].replace("\n", ",").split(",")))
            except ValueError:  # a cell over int's digit limit: the row loop names it
                pass
            else:
                # the regex admits signs 1 and -1 only; tuple.__new__ builds each pair in C
                ys, zs = (list(map(tuple.__new__, repeat(ParityPair), zip(cells[k::5], cells[k + 1::5])))
                          for k in (1, 3))
                return cls._from_rows(cells[::5], ys, zs)
        try:
            rows = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:
            raise ValueError(f"malformed CSV: {exc}") from None
        if not rows or tuple(rows[0]) != _COLUMNS:
            raise ValueError(f"expected header {','.join(_COLUMNS)}")
        ms, ys, zs = [], [], []
        for row in rows[1:]:
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"malformed row: {row!r}")
            m, sy, yv, sz, zv = row
            ms.append(parse_int(m, "m"))
            ys.append(ParityPair(check_sign(parse_int(sy, "sy")), parse_amp(yv, "Y")))
            zs.append(ParityPair(check_sign(parse_int(sz, "sz")), parse_amp(zv, "Z")))
        if not ms:
            raise ValueError("table has no rows")
        return cls._from_rows(ms, ys, zs)

    def to_json_obj(self) -> dict:
        return {"m_lo": self.m_lo, "rows": list(map(_JsonRows().__getitem__, self.rows()))}


class _JsonRows(dict):
    """(m, y, z) -> its JSON row dict, built on the first lookup."""

    def __missing__(self, key):
        m, y, z = key
        row = self[key] = {"m": m, "sy": y.sign, "Y": str(y.amp), "sz": z.sign, "Z": str(z.amp)}
        return row


def branches_to_json_obj(tables: Iterable[SolutionTable], truncated: bool) -> dict:
    """Each table as ``{"id": i, **t.to_json_obj()}``, but rows of equal cells
    are one shared dict, built once per call, and must not be mutated.  Equal
    amplitudes print alike (``str(Fraction(3)) == str(3)``)."""
    rows = _JsonRows()
    return {
        "truncated": truncated,
        "branches": [
            {"id": i, "m_lo": t.m_lo, "rows": list(map(rows.__getitem__, t.rows()))}
            for i, t in enumerate(tables)
        ],
    }


_ROW_JSON = (
    '        {{\n          "Y": "{Y}",\n          "Z": "{Z}",\n          "m": {m},\n'
    '          "sy": {sy},\n          "sz": {sz}\n        }}'
)


def _json_list(items: list, indent: str) -> list:
    """A JSON list of rendered items as the parts of its text, to be joined with
    the text around it: concatenating a text of megabytes copies it each time."""
    return ["[\n", ",\n".join(items), "\n" + indent + "]"] if items else ["[]"]


def branches_json_text(obj: dict) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` for the fixed schema
    of ``branches_to_json_obj``, whose rational strings need no escaping;
    with an indent, the standard encoder runs in pure Python.  Each distinct
    row object is rendered once, keyed by its id (``obj`` holds every row)."""
    rows = {id(r): r for b in obj["branches"] for r in b["rows"]}
    texts = {k: _ROW_JSON.format_map(r) for k, r in rows.items()}
    branches = [
        '    {\n      "id": %d,\n      "m_lo": %d,\n      "rows": %s\n    }'
        % (b["id"], b["m_lo"], "".join(_json_list([texts[id(r)] for r in b["rows"]], "      ")))
        for b in obj["branches"]
    ]
    tail = ',\n  "truncated": %s\n}\n' % ("true" if obj["truncated"] else "false")
    return "".join(['{\n  "branches": ', *_json_list(branches, "  "), tail])
