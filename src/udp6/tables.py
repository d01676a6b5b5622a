"""Solution tables: m -> (y, z) over a contiguous integer window, with exact
CSV and JSON round-trips (columns m, sy, Y, sz, Z; amplitudes as rational
strings)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Tuple

from .system import ParityPair, StatePair, parse_rational

__all__ = ["SolutionTable", "branches_to_json_obj"]

_COLUMNS = ("m", "sy", "Y", "sz", "Z")


@dataclass(frozen=True)
class SolutionTable:
    """Immutable mapping m -> (y, z) over [m_lo, m_lo + len - 1]."""

    m_lo: int
    ys: Tuple[ParityPair, ...]
    zs: Tuple[ParityPair, ...]

    def __post_init__(self) -> None:
        if len(self.ys) != len(self.zs):
            raise ValueError("y and z columns must have equal length")
        if not self.ys:
            raise ValueError("empty table")

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

    def state(self, m: int) -> StatePair:
        return StatePair(m, self.y(m), self.z(m))

    def rows(self) -> Iterator[Tuple[int, ParityPair, ParityPair]]:
        for i, m in enumerate(self.indexes()):
            yield m, self.ys[i], self.zs[i]

    @classmethod
    def from_states(cls, states: Iterable[StatePair]) -> "SolutionTable":
        ss = sorted(states, key=lambda s: s.m)
        if not ss:
            raise ValueError("empty table")
        if [s.m for s in ss] != list(range(ss[0].m, ss[0].m + len(ss))):
            raise ValueError("table window must be contiguous")
        return cls(ss[0].m, tuple(s.y for s in ss), tuple(s.z for s in ss))

    def gauge_shifted(self, c) -> "SolutionTable":
        c = Fraction(c)
        return SolutionTable(
            self.m_lo,
            tuple(y.shifted(c) for y in self.ys),
            tuple(z.shifted(c) for z in self.zs),
        )

    def scaled(self, lam) -> "SolutionTable":
        lam = Fraction(lam)
        return SolutionTable(
            self.m_lo,
            tuple(y.scaled(lam) for y in self.ys),
            tuple(z.scaled(lam) for z in self.zs),
        )

    # -- serialization --------------------------------------------------------

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_COLUMNS)
        for m, y, z in self.rows():
            w.writerow([m, y.sign, str(y.amp), z.sign, str(z.amp)])
        return buf.getvalue()

    @classmethod
    def from_csv_text(cls, text: str) -> "SolutionTable":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != _COLUMNS:
            raise ValueError(f"expected header {','.join(_COLUMNS)}")
        states = []
        for row in rows[1:]:
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"malformed row: {row!r}")
            m, sy, yv, sz, zv = row
            states.append(
                StatePair(
                    int(m),
                    ParityPair(int(sy), parse_rational(yv, "Y")),
                    ParityPair(int(sz), parse_rational(zv, "Z")),
                )
            )
        if not states:
            raise ValueError("table has no rows")
        return cls.from_states(states)

    def to_json_obj(self) -> dict:
        return {
            "m_lo": self.m_lo,
            "rows": [
                {"m": m, "sy": y.sign, "Y": str(y.amp), "sz": z.sign, "Z": str(z.amp)}
                for m, y, z in self.rows()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SolutionTable":
        states = [
            StatePair(
                int(r["m"]),
                ParityPair(int(r["sy"]), parse_rational(r["Y"], "Y")),
                ParityPair(int(r["sz"]), parse_rational(r["Z"], "Z")),
            )
            for r in obj["rows"]
        ]
        return cls.from_states(states)


def branches_to_json_obj(tables: Iterable[SolutionTable], truncated: bool) -> dict:
    return {
        "truncated": truncated,
        "branches": [
            {"id": i, **t.to_json_obj()} for i, t in enumerate(tables)
        ],
    }

