"""Solution tables: m -> (y, z) over a contiguous integer window, held as four
columns (the sign and amplitude of y, then of z), with an exact CSV round-trip
(columns m, sy, Y, sz, Z; amplitudes as rational strings).  The CSV reader
reads amplitudes by ``parse_amp``, so integer text stays an int, as the
evolutions keep integer cells.  The writer's own layout of an integer table
(the header, then rows of ASCII integers with signs 1 or -1, each ended by a
newline) is matched by one regular expression and read in bulk: one
``json.loads`` of all its cells as one JSON array, sliced into the columns.
Any other text, and text whose bulk read fails (a cell with a leading zero,
which JSON does not admit, or over ``int``'s digit limit), is read row by row
through the csv module, the one place that reports errors.  JSON is an output
format only: ``to_json_obj`` and the branch writers have no reader.  Rows of
equal cells share one dict in ``branches_to_json_obj``, which holds its text
for ``branches_json_text`` and must not be mutated."""

from __future__ import annotations

import csv
import io
import json
import re
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Tuple

from .system import ParityPair, check_sign, parse_amp, parse_int

__all__ = ["SolutionTable", "branches_json_text", "branches_to_json_obj"]

_COLUMNS = ("m", "sy", "Y", "sz", "Z")
_HEADER = ",".join(_COLUMNS) + "\n"
# the writer's layout of an integer table: the header and at least one row
_INT_TABLE = re.compile(re.escape(_HEADER) + r"(?:-?[0-9]+,-?1,-?[0-9]+,-?1,-?[0-9]+\n)+")


class SolutionTable:
    """The mapping m -> (y, z) over [m_lo, m_lo + len - 1]: ``m_lo`` and the
    columns ``sy``, ``ay`` (the signs and amplitudes of y) and ``sz``, ``az``
    (those of z), tuples of equal, nonzero length.  ``y(m)``, ``z(m)`` and
    ``rows()`` give ``ParityPair`` cells.  Immutable: its attributes cannot be
    assigned, and equal tables are equal values that hash alike.  ``len``
    counts rows."""

    __slots__ = ("m_lo", "sy", "ay", "sz", "az")

    def __init__(self, m_lo: int, sy: tuple, ay: tuple, sz: tuple, az: tuple) -> None:
        if not len(sy) == len(ay) == len(sz) == len(az):
            raise ValueError("columns must have equal length")
        if not sy:
            raise ValueError("empty table")
        for name, value in zip(self.__slots__, (m_lo, sy, ay, sz, az)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SolutionTable is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.m_lo, self.sy, self.ay, self.sz, self.az

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "SolutionTable(m_lo=%r, sy=%r, ay=%r, sz=%r, az=%r)" % self._key()

    @property
    def m_hi(self) -> int:
        return self.m_lo + len(self.sy) - 1

    def __len__(self) -> int:
        return len(self.sy)

    def indexes(self) -> range:
        return range(self.m_lo, self.m_hi + 1)

    def _cell(self, m: int, signs: tuple, amps: tuple) -> ParityPair:
        if not (self.m_lo <= m <= self.m_hi):
            raise KeyError(f"index {m} outside [{self.m_lo}, {self.m_hi}]")
        return ParityPair(signs[m - self.m_lo], amps[m - self.m_lo])

    def y(self, m: int) -> ParityPair:
        return self._cell(m, self.sy, self.ay)

    def z(self, m: int) -> ParityPair:
        return self._cell(m, self.sz, self.az)

    def rows(self) -> Iterator[Tuple[int, ParityPair, ParityPair]]:
        return zip(self.indexes(), map(ParityPair, self.sy, self.ay), map(ParityPair, self.sz, self.az))

    def _column_rows(self) -> Iterator[tuple]:  # the rows (m, sy, Y, sz, Z)
        return zip(self.indexes(), self.sy, self.ay, self.sz, self.az)

    @classmethod
    def _from_columns(cls, ms: list, *cols: list) -> "SolutionTable":
        """The table of the rows (ms[i], sy[i], ay[i], sz[i], az[i]), at least
        one, in any order; the indexes must be contiguous.  Rows in index
        order, as the writer writes them, are taken as they are."""
        if ms != list(range(ms[0], ms[0] + len(ms))):
            order = sorted(range(len(ms)), key=ms.__getitem__)
            ms = [ms[i] for i in order]
            if ms != list(range(ms[0], ms[0] + len(ms))):
                raise ValueError("table window must be contiguous")
            cols = [[col[i] for i in order] for col in cols]
        return cls(ms[0], *map(tuple, cols))

    # -- serialization --------------------------------------------------------

    def to_csv_text(self) -> str:
        """The text ``csv.writer`` writes, which quotes none of these fields."""
        return _HEADER + "".join(map("%d,%d,%s,%d,%s\n".__mod__, self._column_rows()))

    @classmethod
    def from_csv_text(cls, text: str) -> "SolutionTable":
        """The table written by ``to_csv_text``, rows in any order; signs are
        checked and zero denominators rejected as in ``parse_pair``; text the
        csv module cannot read (a field over its size limit) is a ValueError
        too."""
        if _INT_TABLE.fullmatch(text):
            try:
                cells = json.loads("[" + text[len(_HEADER):-1].replace("\n", ",") + "]")
            except ValueError:  # a leading zero, or a cell over int's digit limit: the row loop reads it
                pass
            else:  # the regex admits signs 1 and -1 only
                return cls._from_columns(*(cells[k::5] for k in range(5)))
        try:
            rows = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:
            raise ValueError(f"malformed CSV: {exc}") from None
        if not rows or tuple(rows[0]) != _COLUMNS:
            raise ValueError(f"expected header {','.join(_COLUMNS)}")
        cells = []
        for row in rows[1:]:
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"malformed row: {row!r}")
            m, sy, y, sz, z = row
            cells.append((parse_int(m, "m"), check_sign(parse_int(sy, "sy")), parse_amp(y, "Y"),
                          check_sign(parse_int(sz, "sz")), parse_amp(z, "Z")))
        if not cells:
            raise ValueError("table has no rows")
        return cls._from_columns(*map(list, zip(*cells)))

    def to_json_obj(self) -> dict:
        return {"m_lo": self.m_lo, "rows": list(map(_JsonRows().__getitem__, self._column_rows()))}


# a row's text, filled from its values in key order
_ROW_JSON = (
    '        {\n          "Y": "%s",\n          "Z": "%s",\n          "m": %s,\n'
    '          "sy": %s,\n          "sz": %s\n        }'
)
_ROW_VALUES = itemgetter("Y", "Z", "m", "sy", "sz")


class _JsonRow(dict):
    """A JSON row dict that also holds its ``text`` as ``branches_json_text`` renders it."""

    __slots__ = ("text",)


class _JsonRows(dict):
    """A column row (m, sy, Y, sz, Z) -> its JSON row, built and rendered on the first lookup."""

    def __missing__(self, key):
        m, sy, y, sz, z = key
        row = self[key] = _JsonRow(m=m, sy=sy, Y=str(y), sz=sz, Z=str(z))
        row.text = _ROW_JSON % _ROW_VALUES(row)
        return row


def branches_to_json_obj(tables: Iterable[SolutionTable], truncated: bool) -> dict:
    """Each table as ``{"id": i, **t.to_json_obj()}``, but rows of equal cells
    are one shared dict, built and rendered once per call, and must not be
    mutated.  Equal amplitudes print alike (``str(Fraction(3)) == str(3)``)."""
    rows = _JsonRows()
    return {
        "truncated": truncated,
        "branches": [
            {"id": i, "m_lo": t.m_lo, "rows": list(map(rows.__getitem__, t._column_rows()))}
            for i, t in enumerate(tables)
        ],
    }


def branches_json_text(obj: dict) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` for the fixed schema
    of ``branches_to_json_obj``, whose rational strings need no escaping;
    with an indent, the standard encoder runs in pure Python.  A row built by
    ``branches_to_json_obj`` brings its text, rendered once; any other row is
    rendered where it stands.  The parts are joined once: concatenating a text
    of megabytes copies it each time."""
    parts = ['{\n  "branches": [']
    for b in obj["branches"]:
        try:
            rows = ",\n".join(map(attrgetter("text"), b["rows"]))
        except AttributeError:  # rows not built by branches_to_json_obj
            rows = ",\n".join(map(_ROW_JSON.__mod__, map(_ROW_VALUES, b["rows"])))
        parts.append('\n    {\n      "id": %d,\n      "m_lo": %d,\n      "rows": ' % (b["id"], b["m_lo"]))
        parts += ("[\n", rows, "\n      ]\n    },") if rows else ("[]\n    },",)
    # the last branch takes no comma; a list without branches is []
    parts[-1] = parts[-1][:-1] + "\n  ]" if len(parts) > 1 else parts[-1] + "]"
    parts.append(',\n  "truncated": %s\n}\n' % ("true" if obj["truncated"] else "false"))
    return "".join(parts)
