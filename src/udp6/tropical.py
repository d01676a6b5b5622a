"""Exact max-plus primitives.

Amplitudes are exact :class:`fractions.Fraction` values extended with a unique
bottom element ``BOTTOM`` standing for minus infinity: the identity of ``max``
and absorbing for ``+``.  Exactness is load-bearing: downstream branching is
triggered by exact ties between amplitudes, which floats would miss.

Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "BOTTOM",
    "Amp",
    "Sign",
    "DegenerateEquation",
    "Interval",
    "LinTerm",
    "SolutionSet",
    "check_sign",
    "is_bottom",
    "solve_one_unknown",
]


class DegenerateEquation(ValueError):
    """One side of a tropical equation is identically minus infinity."""


class _BottomType:
    """Singleton minus-infinity element."""

    _instance = None

    def __new__(cls) -> "_BottomType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "-inf"

    def __reduce__(self):
        return (_BottomType, ())


BOTTOM = _BottomType()

Amp = Union[Fraction, _BottomType]
Sign = int  # +1 or -1


def is_bottom(x: Amp) -> bool:
    return x is BOTTOM


def check_sign(s: int) -> int:
    if s not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {s!r}")
    return s


@dataclass(frozen=True)
class LinTerm:
    """One argument of a one-sided max: ``slope * x + intercept``.

    ``slope`` is a small non-negative integer; a BOTTOM intercept makes the
    term inert.
    """

    slope: int
    intercept: Amp

    def __post_init__(self) -> None:
        if self.slope < 0:
            raise ValueError("LinTerm slope must be non-negative")
        if not is_bottom(self.intercept) and not isinstance(self.intercept, Fraction):
            object.__setattr__(self, "intercept", Fraction(self.intercept))

    def at(self, x: Fraction) -> Amp:
        if is_bottom(self.intercept):
            return BOTTOM
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class Interval:
    """Closed interval with rational endpoints; ``None`` means unbounded."""

    lo: Union[Fraction, None]
    hi: Union[Fraction, None]

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and x < self.lo:
            return False
        if self.hi is not None and x > self.hi:
            return False
        return True

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _canonical(intervals: Iterable[Interval]) -> tuple:
    ivs = sorted(
        intervals,
        key=lambda iv: (
            iv.lo is not None,  # unbounded-below first
            iv.lo if iv.lo is not None else Fraction(0),
        ),
    )
    merged: list = []
    for iv in ivs:
        if merged:
            cur = merged[-1]
            touching = cur.hi is None or iv.lo is None or iv.lo <= cur.hi
            if touching:
                if cur.hi is None or iv.hi is None:
                    hi = None
                else:
                    hi = max(cur.hi, iv.hi)
                merged[-1] = Interval(cur.lo, hi)
                continue
        merged.append(iv)
    return tuple(merged)


class SolutionSet:
    """Canonical finite union of disjoint closed intervals.

    The canonical form (sorted, touching intervals merged, points as
    degenerate intervals) makes equality of loci structural equality.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self.intervals = _canonical(intervals)

    @classmethod
    def empty(cls) -> "SolutionSet":
        return cls(())

    @classmethod
    def full(cls) -> "SolutionSet":
        return cls((Interval(None, None),))

    @classmethod
    def point(cls, x) -> "SolutionSet":
        x = Fraction(x)
        return cls((Interval(x, x),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: Fraction) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    def finite_samples(self, policy: str = "endpoints") -> list:
        """Concrete members of the set, per sampling policy.

        ``endpoints``: every finite endpoint (0 for the full line);
        ``midpoint``: one interior witness per interval;
        ``all-breakpoints``: union of the two.
        Every non-empty set yields at least one sample.
        """
        if policy not in ("endpoints", "midpoint", "all-breakpoints"):
            raise ValueError(f"unknown sampling policy {policy!r}")
        out = set()
        for iv in self.intervals:
            ends = [e for e in (iv.lo, iv.hi) if e is not None]
            if policy in ("endpoints", "all-breakpoints"):
                out.update(ends if ends else [Fraction(0)])
            if policy in ("midpoint", "all-breakpoints"):
                if iv.lo is not None and iv.hi is not None:
                    out.add((iv.lo + iv.hi) / 2)
                elif iv.lo is not None:
                    out.add(iv.lo + 1)
                elif iv.hi is not None:
                    out.add(iv.hi - 1)
                else:
                    out.add(Fraction(0))
        return sorted(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolutionSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        if self.is_empty:
            return "SolutionSet(empty)"
        return "SolutionSet(" + " u ".join(str(iv) for iv in self.intervals) + ")"


def solve_one_unknown(lhs: Sequence[LinTerm], rhs: Sequence[LinTerm]) -> SolutionSet:
    """Exact solution set of ``max(lhs) == max(rhs)`` in one unknown.

    Both sides are convex piecewise-linear functions of the unknown, so the
    locus where they agree is a finite union of closed intervals (possibly
    empty or unbounded).  Candidate breakpoints are the pairwise intersections
    of all active lines; between consecutive candidates the difference of the
    sides is affine and cannot vanish except identically, so one interior
    sample decides each gap and each unbounded ray.  No iterative numerics.

    Raises DegenerateEquation when either side has no active term (the
    equation degenerates to ``-inf == finite``).
    """
    left = [t for t in lhs if not is_bottom(t.intercept)]
    right = [t for t in rhs if not is_bottom(t.intercept)]
    if not left or not right:
        raise DegenerateEquation("a side of the equation is identically -inf")

    lines = sorted({(t.slope, t.intercept) for t in left + right})
    xs = set()
    for i in range(len(lines)):
        s, c = lines[i]
        for j in range(i + 1, len(lines)):
            t, d = lines[j]
            if s != t:
                xs.add(Fraction(d - c, s - t))
    cands = sorted(xs)

    def side(terms: list, x: Fraction) -> Fraction:
        return max(t.slope * x + t.intercept for t in terms)

    def agrees(x: Fraction) -> bool:
        return side(left, x) == side(right, x)

    if not cands:
        # all lines parallel: the difference of sides is a constant
        return SolutionSet.full() if agrees(Fraction(0)) else SolutionSet.empty()

    pieces = []
    if agrees(cands[0] - 1):
        pieces.append(Interval(None, cands[0]))
    for a, b in zip(cands, cands[1:]):
        if agrees((a + b) / 2):
            pieces.append(Interval(a, b))
    if agrees(cands[-1] + 1):
        pieces.append(Interval(cands[-1], None))
    for x in cands:
        if agrees(x):
            pieces.append(Interval(x, x))
    return SolutionSet(pieces)
