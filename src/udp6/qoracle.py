"""Independent numerical oracle: the q-difference Painleve VI system in
signed log-domain arithmetic, and the ultradiscretization comparator.

Quantities of the q-system scale like exp(X/eps) with eps down to 0.1 and
amplitudes around 100, far beyond hardware floats, so every value is kept as
sign * exp(logmag) with ``logmag`` an mpmath float at a given working
precision.  Additions of like signs use log-sum-exp; opposite signs subtract
magnitudes and raise a cancellation warning when the relative log gap falls
below 2^(-prec/2).  Warning flags propagate through all operations.

The comparator seeds the q-system from a max-plus table via
``value = sign * exp(amplitude/eps)``, evolves it forward, and reports the
amplitude error ``|eps*log|v| - V_m|`` and sign agreement per (m, eps); as
eps decreases the errors must shrink.  No convergence rate is asserted.

Unless a fixed precision is requested, the working precision of each eps is
chosen by agreement (Ziv's strategy): the run starts at 256 bits and is
repeated at twice the precision until two successive runs give equal rows,
with no abort, no cancellation warning and no error below the resolution of
the higher precision; the higher of the two is accepted.
``default_precision`` is only the ceiling of that search; a run at the
ceiling is accepted as it stands, so a run that aborts (on a pole or an exact
cancellation) is always the ceiling's.  The report records the precision accepted
for each eps.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import mpmath

from .evolution import painleve_failures
from .riccati import require_riccati_conditions
from .system import Params, parse_rational, require_unsigned
from .tables import SolutionTable

__all__ = [
    "CompareReport",
    "CompareRow",
    "EpsSchedule",
    "LogSigned",
    "PoleError",
    "default_precision",
    "ls_add",
    "ls_div",
    "ls_from_amplitude",
    "ls_mul",
    "ls_neg",
    "ls_sub",
    "ls_zero",
    "qp6_step",
    "qriccati_step",
    "ud_limit_compare",
]


class PoleError(ZeroDivisionError):
    """The q-evolution hit a zero denominator (a pole of the map)."""


@dataclass(frozen=True)
class LogSigned:
    """sign * exp(logmag) with explicit zero and a sticky cancellation flag."""

    sign: int  # +1, -1, or 0 (exact zero; logmag is then meaningless)
    logmag: mpmath.mpf
    prec: int
    warn: bool = False

    def __post_init__(self) -> None:
        if self.sign not in (1, -1, 0):
            raise ValueError("sign must be +1, -1 or 0")
        if self.prec < 2:
            raise ValueError("precision must be at least 2 bits")


def ls_zero(prec: int, warn: bool = False) -> LogSigned:
    return LogSigned(0, mpmath.mpf(0), prec, warn)


def _mpf_fraction(x: Fraction, prec: int) -> mpmath.mpf:
    with mpmath.workprec(prec):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def ls_from_amplitude(sign: int, amp, eps, prec: int) -> LogSigned:
    """The q-side image of a parity pair: sign * exp(amp/eps)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return LogSigned(sign, _mpf_fraction(Fraction(amp) / Fraction(eps), prec), prec)


def amplitude_of(x: LogSigned, eps) -> mpmath.mpf:
    """eps * log|x|, the quantity that ultradiscretizes to the amplitude."""
    if x.sign == 0:
        raise ValueError("amplitude of exact zero is undefined")
    with mpmath.workprec(x.prec):
        return _mpf_fraction(Fraction(eps), x.prec) * x.logmag


def ls_neg(x: LogSigned) -> LogSigned:
    return LogSigned(-x.sign, x.logmag, x.prec, x.warn)


def ls_add(x: LogSigned, y: LogSigned) -> LogSigned:
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0:
        return LogSigned(y.sign, y.logmag, prec, warn)
    if y.sign == 0:
        return LogSigned(x.sign, x.logmag, prec, warn)
    with mpmath.workprec(prec):
        hi, lo = (x, y) if x.logmag >= y.logmag else (y, x)
        if hi.sign == lo.sign:
            mag = hi.logmag + mpmath.log1p(mpmath.exp(lo.logmag - hi.logmag))
            return LogSigned(hi.sign, mag, prec, warn)
        if hi.logmag == lo.logmag:
            return ls_zero(prec, warn=True)
        gap = hi.logmag - lo.logmag
        scale = abs(hi.logmag)
        if scale < 1:
            scale = mpmath.mpf(1)
        close = gap < mpmath.mpf(2) ** (-(prec // 2)) * scale
        mag = hi.logmag + mpmath.log1p(-mpmath.exp(lo.logmag - hi.logmag))
        return LogSigned(hi.sign, mag, prec, warn or bool(close))


def ls_sub(x: LogSigned, y: LogSigned) -> LogSigned:
    return ls_add(x, ls_neg(y))


def ls_mul(x: LogSigned, y: LogSigned) -> LogSigned:
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0 or y.sign == 0:
        return ls_zero(prec, warn)
    with mpmath.workprec(prec):
        return LogSigned(x.sign * y.sign, x.logmag + y.logmag, prec, warn)


def ls_div(x: LogSigned, y: LogSigned) -> LogSigned:
    if y.sign == 0:
        raise PoleError("division by zero value")
    prec = min(x.prec, y.prec)
    warn = x.warn or y.warn
    if x.sign == 0:
        return ls_zero(prec, warn)
    with mpmath.workprec(prec):
        return LogSigned(x.sign * y.sign, x.logmag - y.logmag, prec, warn)


def default_precision(eps, amp_bound) -> int:
    """max(256, 64 + 8*amp_bound/eps) bits: the ceiling of the comparator's
    precision search, a bound on the bits needed to resolve the exp(-gap/eps)
    corrections that separate the q-system from its limit.  Runs that agree
    at a lower precision stop below it."""
    need = 64 + 8 * Fraction(amp_bound) / Fraction(eps)
    return max(256, int(math.ceil(need)))


# --- q-system steps -----------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _fixed_images(p: Params, eps: Fraction, prec: int) -> Tuple[LogSigned, ...]:
    """The m-independent parameter images (a3, a4, b3, b4), built once per
    (parameters, eps, precision) instead of on every step."""
    return tuple(ls_from_amplitude(1, amp, eps, prec) for amp in (p.a3, p.a4, p.b3, p.b4))


def _nonzero(x: LogSigned, what: str) -> LogSigned:
    if x.sign == 0:
        raise PoleError(f"pole: {what} vanished")
    return x


def qp6_step(
    p: Params, eps, m: int, y: LogSigned, z: LogSigned
) -> Tuple[LogSigned, LogSigned]:
    """One step of the q-Painleve VI map at t = q^m: (y, z) -> (y', z').

    z' = b3 b4 (y - t a1)(y - t a2) / (z (y - a3)(y - a4)),
    y' = a3 a4 (z' - t b1)(z' - t b2) / (y (z' - b3)(z' - b4)).

    The parameter constraint is an identity on the rational inputs and is
    re-checked exactly on every call.  Poles raise; cancellation warnings
    propagate into the results.
    """
    require_unsigned(p)
    eps = Fraction(eps)
    prec = min(y.prec, z.prec)
    a3, a4, b3, b4 = _fixed_images(p, eps, prec)
    mq = m * p.q
    a1t, a2t, b1t, b2t = (
        ls_from_amplitude(1, mq + amp, eps, prec) for amp in (p.a1, p.a2, p.b1, p.b2)
    )

    num = ls_mul(ls_mul(b3, b4), ls_mul(ls_sub(y, a1t), ls_sub(y, a2t)))
    den = ls_mul(
        _nonzero(z, "z(t)"),
        ls_mul(_nonzero(ls_sub(y, a3), "y - a3"), _nonzero(ls_sub(y, a4), "y - a4")),
    )
    z_next = ls_div(num, den)

    num2 = ls_mul(ls_mul(a3, a4), ls_mul(ls_sub(z_next, b1t), ls_sub(z_next, b2t)))
    den2 = ls_mul(
        _nonzero(y, "y(t)"),
        ls_mul(
            _nonzero(ls_sub(z_next, b3), "z(qt) - b3"),
            _nonzero(ls_sub(z_next, b4), "z(qt) - b4"),
        ),
    )
    y_next = ls_div(num2, den2)
    return y_next, z_next


def qriccati_step(p: Params, eps, m: int, y: LogSigned) -> Tuple[LogSigned, LogSigned]:
    """One step of the first-order q-map: y(t) -> (z(qt), y(qt)).

    z' = b4 (y - t a2)/(y - a4),  y' = a3 (z' - t b1)/(z' - b3).
    Requires the exact rational reduction conditions on the parameters.
    """
    require_riccati_conditions(p)
    eps = Fraction(eps)
    prec = y.prec
    a3, a4, b3, b4 = _fixed_images(p, eps, prec)
    a2t = ls_from_amplitude(1, m * p.q + p.a2, eps, prec)
    b1t = ls_from_amplitude(1, m * p.q + p.b1, eps, prec)

    z_next = ls_div(ls_mul(b4, ls_sub(y, a2t)), _nonzero(ls_sub(y, a4), "y - a4"))
    y_next = ls_div(
        ls_mul(a3, ls_sub(z_next, b1t)), _nonzero(ls_sub(z_next, b3), "z(qt) - b3")
    )
    return z_next, y_next


# --- the ultradiscretization comparator ----------------------------------------


@dataclass(frozen=True)
class EpsSchedule:
    """Strictly decreasing positive eps values, coarse to fine."""

    eps_values: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(Fraction(e) for e in self.eps_values)
        object.__setattr__(self, "eps_values", vals)
        if not vals:
            raise ValueError("schedule must not be empty")
        if any(e <= 0 for e in vals):
            raise ValueError("eps values must be positive")
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise ValueError("eps values must be strictly decreasing")

    @classmethod
    def from_string(cls, text: str) -> "EpsSchedule":
        return cls(tuple(parse_rational(part, "eps") for part in text.split(",") if part.strip()))


@dataclass(frozen=True)
class CompareRow:
    m: int
    eps: Fraction
    err_y: float
    err_z: float
    sign_ok_y: bool
    sign_ok_z: bool
    warned: bool


@dataclass(frozen=True)
class CompareAbort:
    eps: Fraction
    m: int
    reason: str


@dataclass(frozen=True)
class CompareReport:
    rows: Tuple[CompareRow, ...]
    aborts: Tuple[CompareAbort, ...]
    schedule: EpsSchedule
    window: Tuple[int, int]
    table_failures: Tuple[Tuple[int, str], ...] = ()
    # (eps, working precision in bits of the run accepted for it); not in the CSV
    precisions: Tuple[Tuple[Fraction, int], ...] = ()

    def errors_for(self, m: int) -> List[CompareRow]:
        order = {e: i for i, e in enumerate(self.schedule.eps_values)}
        return sorted((r for r in self.rows if r.m == m), key=lambda r: order[r.eps])

    def nonmonotone(self) -> List[Tuple[int, str]]:
        """Indexes where the amplitude error fails to decrease along the
        schedule (strict increase at any refinement step)."""
        flagged = []
        lo, hi = self.window
        for m in range(lo, hi + 1):
            rows = self.errors_for(m)
            if any(b.err_y > a.err_y for a, b in zip(rows, rows[1:])):
                flagged.append((m, "Y"))
            if any(b.err_z > a.err_z for a, b in zip(rows, rows[1:])):
                flagged.append((m, "Z"))
        return flagged

    def to_csv_text(self) -> str:
        order = {e: i for i, e in enumerate(self.schedule.eps_values)}
        buf = io.StringIO()
        buf.write("m,eps,err_Y,err_Z,sign_ok_Y,sign_ok_Z,cancellation_flag\n")
        for r in sorted(self.rows, key=lambda r: (r.m, order[r.eps])):
            buf.write(
                f"{r.m},{r.eps},{r.err_y!r},{r.err_z!r},"
                f"{int(r.sign_ok_y)},{int(r.sign_ok_z)},{int(r.warned)}\n"
            )
        return buf.getvalue()


def _amp_bound(p: Params, table: SolutionTable, window: Tuple[int, int]) -> Fraction:
    lo, hi = window
    vals = [abs(getattr(p, k)) for k in ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")]
    vals += [abs(Fraction(m) * p.q) for m in (lo, hi)]
    for m in range(lo, hi + 1):
        vals.append(abs(table.y(m).amp))
        vals.append(abs(table.z(m).amp))
    return max(vals)


# first working precision of the agreement search, in bits
_START_PRECISION = 256

# rows and aborts of one eps at one working precision
_Run = Tuple[Tuple[CompareRow, ...], Tuple[CompareAbort, ...]]


def _compare_run(
    p: Params, table: SolutionTable, eps: Fraction, window: Tuple[int, int], prec: int
) -> _Run:
    """Rows and aborts of one eps at one working precision."""
    lo, hi = window
    y = ls_from_amplitude(table.y(lo).sign, table.y(lo).amp, eps, prec)
    z = ls_from_amplitude(table.z(lo).sign, table.z(lo).amp, eps, prec)

    def row(m: int, y: LogSigned, z: LogSigned) -> CompareRow:
        with mpmath.workprec(prec):
            ey = abs(amplitude_of(y, eps) - _mpf_fraction(table.y(m).amp, prec))
            ez = abs(amplitude_of(z, eps) - _mpf_fraction(table.z(m).amp, prec))
        return CompareRow(
            m=m,
            eps=eps,
            err_y=float(ey),
            err_z=float(ez),
            sign_ok_y=y.sign == table.y(m).sign,
            sign_ok_z=z.sign == table.z(m).sign,
            warned=y.warn or z.warn,
        )

    rows = [row(lo, y, z)]
    for m in range(lo, hi):
        try:
            y, z = qp6_step(p, eps, m, y, z)
        except PoleError as exc:
            return tuple(rows), (CompareAbort(eps=eps, m=m, reason=str(exc)),)
        if y.sign == 0 or z.sign == 0:
            return tuple(rows), (CompareAbort(eps=eps, m=m, reason="exact cancellation to zero"),)
        rows.append(row(m + 1, y, z))
    return tuple(rows), ()


def _settled(run: _Run, last: _Run, prec: int, scale: float) -> bool:
    """Whether ``run``, at ``prec`` bits, confirms ``last``, the run at half of it.

    Both must give equal rows with no abort and no cancellation warning, and
    every error past the seed row must be at least 2^(-prec/2) * scale, the
    accuracy to which the log-domain arithmetic resolves an amplitude at
    ``prec`` bits (the cancellation flag uses the same threshold).  A smaller
    error may be a correction lost to rounding in both runs, unless the
    threshold itself is below the range of a double.

    An abort never settles: it comes from an exact zero, which the arithmetic
    only produces when two magnitudes round to the same value, and a gap below
    2^-prec looks the same at every precision short of resolving it.
    """
    rows, aborts = run
    if aborts or run != last or any(r.warned for r in rows):
        return False
    resolution = math.ldexp(scale, -(prec // 2))
    return all(min(r.err_y, r.err_z) >= resolution for r in rows[1:])


def ud_limit_compare(
    p: Params,
    table: SolutionTable,
    schedule: EpsSchedule,
    window: Tuple[int, int],
    precision: Optional[int] = None,
) -> CompareReport:
    """Seed the q-system from the table head and compare along the window.

    For each eps the q-system starts at the window's left edge with
    ``sign * exp(amplitude/eps)`` and is evolved forward only.  Rows report
    ``|eps*log|v| - amplitude|`` and sign agreement per index; poles or exact
    cancellations abort that eps run with a partial report.

    With ``precision`` given, each eps runs once at that many bits, unchecked.
    Otherwise each eps runs at 256 bits and again at twice the precision
    until the higher of two successive runs confirms the lower (see
    ``_settled``) and is accepted.  The doubling stops at
    ``default_precision(eps, bound)``, whose run is accepted as it stands;
    a run that aborts is only accepted there.
    The report records the accepted precision of each eps.
    """
    require_unsigned(p)
    lo, hi = window
    if not (table.m_lo <= lo <= hi <= table.m_hi):
        raise ValueError("window must lie inside the table")
    # convergence claims presuppose a residual-clean table; an invalid one is
    # still evolved (negative controls rely on it) but flagged in the report
    bad = tuple(painleve_failures(p, table))

    bound = _amp_bound(p, table, window)
    scale = max(1.0, float(bound))
    rows: List[CompareRow] = []
    aborts: List[CompareAbort] = []
    precisions: List[Tuple[Fraction, int]] = []
    for eps in schedule.eps_values:
        if precision is not None:
            prec = ceiling = precision
        else:
            ceiling = default_precision(eps, bound)
            prec = min(_START_PRECISION, ceiling)
        run = _compare_run(p, table, eps, window, prec)
        while prec < ceiling:
            prec = min(2 * prec, ceiling)
            last, run = run, _compare_run(p, table, eps, window, prec)
            if _settled(run, last, prec, scale):
                break
        rows.extend(run[0])
        aborts.extend(run[1])
        precisions.append((eps, prec))

    return CompareReport(
        rows=tuple(rows),
        aborts=tuple(aborts),
        schedule=schedule,
        window=window,
        table_failures=bad,
        precisions=tuple(precisions),
    )
