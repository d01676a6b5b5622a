"""Independent numerical oracle: the q-difference Painleve VI system in signed
arbitrary-precision arithmetic, and the ultradiscretization comparator.

Values of the q-system scale like exp(X/eps), far beyond hardware floats, but an
mpmath float's binary exponent is an unbounded int that cannot overflow, so each
value is a plain ``sign * mag``.  A power exp(num/den) is a product of cached
exp(2^j/den) over the set bits of num.  A comparator run, one eps at one precision,
builds its images by running products along the window: each cell's exp(V_m/eps) and
each step's t = exp(mQ/eps) is the one before times the run's cached power of the
amplitude step between them, so an affine stretch costs one multiplication an image.
A step takes its t and one lookup of ``_images``, the images exp(A/eps) and the
products b3 b4 and a3 a4 cached per (params, eps, prec): a3, a4, b3, b4 enter as
they are and a1, a2, b1, b2 times t.
``qp6_step`` takes and returns ``SignedMag``s but computes on ``mpmath.libmp``'s raw
signed values, rounding to nearest at ``prec`` bits, as mpmath's ``fadd(..., prec=prec)``
and its kin do; rounding to nearest is symmetric, so a signed result has the bits of
its magnitude rounded alone.  A difference of like signs warns of cancellation when
ln(hi/lo) < 2^(-prec/2) * max(1, |ln hi|), and warnings propagate.  The ``ls_*``
operations on ``SignedMag``s share the step's raw helpers; their names are the former
log-domain arithmetic's: the benchmark's ``qoracle.ls_op`` layer wraps them by name,
until a benchmark change renames that group.

The comparator seeds the q-system from a max-plus table via
``value = sign * exp(amplitude/eps)``, evolves it forward, and reports the
amplitude error ``|eps*log|v| - V_m|`` and sign agreement per (m, eps); as
eps decreases the errors must shrink.  No convergence rate is asserted.  The
error is eps*|log(|v|/X)|, X = exp(V_m/eps) the run's image of the cell, and a
seed is its sign times its cell's X; so a seed row's error is exactly 0.0 at
every precision, whether or not V/eps is an int.

The working precision of each eps is always chosen by agreement (Ziv's
strategy), and no caller can fix it: the run starts at 256 bits and is
repeated at twice the precision until two successive runs give equal rows,
with no abort, no cancellation warning and no error below the resolution of
the higher precision; the higher of the two is accepted.  A comparison is
decided in row order and stops at the first row that fails, and a run is
computed only as far as a comparison reads it: two runs that agree have both
been read to their end, and a run at the ceiling is completed for the report.
``default_precision`` is only the ceiling of that search; a run at the
ceiling is accepted as it stands, so a run that aborts (on a pole or an exact
cancellation) is always the ceiling's.  The report records the precision accepted
for each eps.
"""

from __future__ import annotations

import functools
import importlib.util
import io
import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .evolution import painleve_failures
from .system import Params, parse_rational, require_unsigned
from .tables import SolutionTable

__all__ = [
    "CompareReport",
    "CompareRow",
    "EpsSchedule",
    "PoleError",
    "SignedMag",
    "default_precision",
    "ls_add",
    "ls_div",
    "ls_from_amplitude",
    "ls_mul",
    "ls_neg",
    "ls_sub",
    "ls_zero",
    "qp6_step",
    "ud_limit_compare",
]


# mpmath runs on its first attribute access (LazyLoader): importing udp6 loads none of it
if "mpmath" not in sys.modules:
    _spec = importlib.util.find_spec("mpmath")
    if _spec is None:
        raise ModuleNotFoundError("udp6's q-oracle needs mpmath, which is not installed", name="mpmath")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules["mpmath"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["mpmath"])
mpmath = sys.modules["mpmath"]


class PoleError(ZeroDivisionError):
    """The q-evolution hit a zero denominator (a pole of the map)."""


class SignedMag(namedtuple("SignedMag", "sign mag prec warn")):
    """sign * mag with explicit zero and a sticky cancellation flag.

    ``sign`` is +1, -1 or 0, an exact zero whose ``mag`` is 0; otherwise
    ``mag`` is a positive mpmath float rounded to ``prec`` bits, and ``prec``
    is at least 2.  ``warn`` defaults to False."""

    __slots__ = ()

    def __new__(cls, sign, mag, prec, warn=False):
        if sign not in (1, -1, 0) or prec < 2:
            raise ValueError("sign must be +1, -1 or 0, and precision at least 2 bits")
        return tuple.__new__(cls, (sign, mag, prec, warn))  # built by every q-side operation


def ls_zero(prec: int, warn: bool = False) -> SignedMag:
    return SignedMag(0, mpmath.mpf(0), prec, warn)


@functools.lru_cache(maxsize=32)
def _exp_table(den: int, wp: int) -> list:
    """exp(2^j/den) for j = 0, 1, ... as raw mpfs at ``wp`` bits, each entry the
    square of the one before; ``_exp_product`` appends the entries it needs."""
    lib = mpmath.libmp
    return [lib.mpf_exp(lib.from_rational(1, den, wp, "n"), wp, "n")]


def _exp_product(n: int, den: int, wp: int) -> tuple:
    """exp(n/den), n >= 0, as a raw mpf at ``wp`` bits: the product of the table's
    exp(2^j/den) over the set bits j of n.  Error, relative, with u = 2^-wp: entry 0
    is good to 3u, and a square doubles an error and adds u, so entry j is good to
    2^(j+2) u and the product to (4n + bitlen(n)) u < 2^(bitlen(n)+3) u."""
    lib = mpmath.libmp
    if not n:
        return lib.fone
    table = _exp_table(den, wp)
    while len(table) < n.bit_length():
        table.append(lib.mpf_mul(table[-1], table[-1], wp, "n"))
    product, *rest = (e for e, bit in zip(table, reversed(format(n, "b"))) if bit == "1")
    for e in rest:
        product = lib.mpf_mul(product, e, wp, "n")
    return product


def _exp_power(num: int, den: int, prec: int) -> tuple:
    """exp(num/den) as a raw mpf: ``_exp_product`` of n = |num| at wp bits, rounded
    to ``prec`` bits once (for num < 0, its reciprocal is).  Guard bits: wp - prec
    is bitlen(n) + 8 rounded up to 64s, so the product is good to 2^-(prec+5); the
    rounding adds 2^-prec, so the power is good to 2^-(prec-1)."""
    lib, n = mpmath.libmp, abs(num)
    product = _exp_product(n, den, prec + (n.bit_length() + 71) // 64 * 64)
    return lib.mpf_div(lib.fone, product, prec, "n") if num < 0 else lib.mpf_pos(product, prec, "n")


def _run_images(amps, eps: Fraction, prec: int) -> Iterator[tuple]:
    """exp(a_k/eps) for the a_k of ``amps`` in turn as raw mpfs: X_k = X_(k-1) exp(d_k/eps)
    at wp bits, X_(-1) = 1, d_k = a_k - a_(k-1), a_(-1) = 0, rounded to ``prec`` bits once;
    one ``_exp_product`` per distinct d, cached for the run, and a negative d divides.
    Guard bits: wp - prec is b + bitlen(L) + 9 rounded up to 64s, b the largest bitlen
    of a numerator of d/eps, L = len(amps).  Error, relative, with u = 2^-wp: a power
    is good to (2^(b+2) + b) u, its product or quotient adds u, so X_k, k + 1 factors,
    is good to (k+1) 2^(b+3) u <= 2^-(prec+6) to first order, 2^-(prec+5) in all; the
    rounding adds 2^-prec, so each image is good to 2^-(prec-1), as ``_exp_power``."""
    lib = mpmath.libmp
    steps = [b - a for a, b in zip((0, *amps), amps)]
    ratios = {d: d / eps for d in set(steps)}
    bits = max(abs(r.numerator).bit_length() for r in ratios.values())
    wp = prec + (bits + len(amps).bit_length() + 72) // 64 * 64
    powers, x = {}, lib.fone
    for d in steps:
        if d not in powers:
            powers[d] = _exp_product(abs(ratios[d].numerator), ratios[d].denominator, wp)
        x = (lib.mpf_div if d < 0 else lib.mpf_mul)(x, powers[d], wp, "n")
        yield lib.mpf_pos(x, prec, "n")


def _image(amp, eps, prec: int) -> tuple:
    """exp(amp/eps) as a raw mpf by one power: ``ls_from_amplitude``'s, the parameter
    images' and the t of a step that is given none."""
    # the comparator's eps is a Fraction already: one division, no conversion
    r = amp / (eps if type(eps) is Fraction else Fraction(eps))
    return _exp_power(r.numerator, r.denominator, prec)


def ls_from_amplitude(sign: int, amp, eps, prec: int) -> SignedMag:
    """The q-side image of a parity pair: sign * exp(amp/eps)."""
    return _signed_image(sign, _image(amp, eps, prec), prec)


def _signed_image(sign: int, image: tuple, prec: int) -> SignedMag:
    """sign * image, a raw positive mpf at ``prec`` bits, for a parity's sign, +1 or -1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return SignedMag(sign, mpmath.mp.make_mpf(image), prec)


def _rational(r: Fraction, prec: int) -> tuple:
    """The raw mpf of r rounded to ``prec`` bits."""
    return mpmath.libmp.from_rational(r.numerator, r.denominator, prec, "n")


def ls_neg(x: SignedMag) -> SignedMag:
    return SignedMag(-x.sign, x.mag, x.prec, x.warn)


def _signed(x: SignedMag) -> tuple:
    """x as a raw signed mpf."""
    return mpmath.libmp.mpf_neg(x.mag._mpf_) if x.sign < 0 else x.mag._mpf_


def _signed_mag(v: tuple, prec: int, warn: bool) -> SignedMag:
    """The raw signed mpf v, rounded to ``prec`` bits, as a SignedMag."""
    return SignedMag(-1 if v[0] else 1 if v[1] else 0, mpmath.mp.make_mpf(mpmath.libmp.mpf_abs(v)), prec, warn)


def _cancels(hi: tuple, lo: tuple, diff: tuple, prec: int) -> bool:
    """The flag of the raw positive diff = hi - lo, ln(hi/lo) < 2^(-prec//2) * max(1, |ln hi|);
    its logs are taken only if diff < hi * 2^(k+1-prec//2), which it implies: ln(hi/lo) >= diff/hi,
    2^k > |mag(hi)| + 1 > max(1, |ln hi|), and the factor 2 covers the rounding of diff."""
    half = prec // 2
    k = (abs(hi[2] + hi[3]) + 1).bit_length()
    if mpmath.libmp.mpf_cmp(diff, mpmath.libmp.mpf_shift(hi, k + 1 - half)) >= 0:
        return False
    hi, lo, diff = map(mpmath.mp.make_mpf, (hi, lo, diff))
    with mpmath.workprec(prec):
        return mpmath.log1p(diff / lo) < mpmath.ldexp(max(1, abs(mpmath.log(hi))), -half)


def _sub(a: tuple, b: tuple, prec: int) -> Tuple[tuple, bool]:
    """a - b of raw signed mpfs at ``prec`` bits, and whether it cancels.  Rounding to
    nearest is symmetric, so the bits are those of the magnitudes' rounded sum or
    difference, signed.  Only nonzero values of like signs cancel, equal ones exactly."""
    lib = mpmath.libmp
    d = lib.mpf_sub(a, b, prec, "n")
    if a[0] != b[0] or a == lib.fzero or b == lib.fzero:
        return d, False
    if d == lib.fzero:
        return d, True
    hi, lo = (a, b) if d[0] == a[0] else (b, a)
    return d, _cancels(lib.mpf_abs(hi), lib.mpf_abs(lo), lib.mpf_abs(d), prec)


def ls_sub(x: SignedMag, y: SignedMag) -> SignedMag:
    prec = min(x.prec, y.prec)
    d, cancelled = _sub(_signed(x), _signed(y), prec)
    return _signed_mag(d, prec, x.warn or y.warn or cancelled)


def ls_add(x: SignedMag, y: SignedMag) -> SignedMag:
    return ls_sub(x, ls_neg(y))


def ls_mul(x: SignedMag, y: SignedMag) -> SignedMag:
    prec = min(x.prec, y.prec)
    return _signed_mag(mpmath.libmp.mpf_mul(_signed(x), _signed(y), prec, "n"), prec, x.warn or y.warn)


def ls_div(x: SignedMag, y: SignedMag) -> SignedMag:
    if y.sign == 0:
        raise PoleError("division by zero value")
    prec = min(x.prec, y.prec)
    return _signed_mag(mpmath.libmp.mpf_div(_signed(x), _signed(y), prec, "n"), prec, x.warn or y.warn)


# first working precision of the agreement search, in bits, and the floor of its ceiling
_START_PRECISION = 256


def default_precision(eps, amp_bound) -> int:
    """max(_START_PRECISION, 64 + 8*amp_bound/eps) bits: the ceiling of the
    comparator's precision search, a bound on the bits needed to resolve the
    exp(-gap/eps) corrections that separate the q-system from its limit.  Runs
    that agree at a lower precision stop below it."""
    need = 64 + 8 * Fraction(amp_bound) / Fraction(eps)
    return max(_START_PRECISION, int(math.ceil(need)))


# --- q-system steps -----------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _images(p: Params, eps, prec: int) -> tuple:
    """The raw images exp(A/eps) of A = a3, a4, b3, b4, the tuple of those of a1, a2,
    b1, b2, then the products b3 b4 and a3 a4, built once per key after the parameter check."""
    require_unsigned(p)
    a3, a4, b3, b4, *factors = (_image(amp, eps, prec) for amp in (p.a3, p.a4, p.b3, p.b4, p.a1, p.a2, p.b1, p.b2))
    mul = mpmath.libmp.mpf_mul
    return a3, a4, b3, b4, tuple(factors), mul(b3, b4, prec, "n"), mul(a3, a4, prec, "n")


def _half_step(u, v, c1t, c2t, c3, c4, d34, prec: int, names) -> Tuple[tuple, bool]:
    """d3 d4 (u - c1t)(u - c2t) / (v (u - c3)(u - c4)) on raw signed mpfs at ``prec``
    bits, d34 = d3 d4, and whether a difference cancelled; the pole checks of v,
    u - c3 and u - c4 are named by ``names``: the z-update of ``qp6_step``, and its
    y-update with A and B exchanged and y and z exchanged."""
    lib = mpmath.libmp
    mul = lib.mpf_mul
    (n1, w1), (n2, w2), (e3, w3), (e4, w4) = (_sub(u, c, prec) for c in (c1t, c2t, c3, c4))
    for x, what in zip((v, e3, e4), names):
        if x == lib.fzero:
            raise PoleError(f"pole: {what} vanished")
    num = mul(d34, mul(n1, n2, prec, "n"), prec, "n")
    return lib.mpf_div(num, mul(v, mul(e3, e4, prec, "n"), prec, "n"), prec, "n"), w1 or w2 or w3 or w4


def qp6_step(
    p: Params, eps, m: int, y: SignedMag, z: SignedMag, t: Optional[tuple] = None
) -> Tuple[SignedMag, SignedMag]:
    """One step of the q-Painleve VI map at t = q^m: (y, z) -> (y', z').

    z' = b3 b4 (y - t a1)(y - t a2) / (z (y - a3)(y - a4)),
    y' = a3 a4 (z' - t b1)(z' - t b2) / (y (z' - b3)(z' - b4)).

    The parameter constraint is checked exactly where the parameter images are
    built.  Poles raise; cancellation warnings propagate into the results: z'
    carries the inputs' and its own half-step's, and y' those and its own.
    ``t`` is the comparator's: a run passes its own image of exp(mQ/eps), a raw
    mpf at the inputs' precision, and without it the step takes that power.
    """
    prec = min(y.prec, z.prec)
    mul = mpmath.libmp.mpf_mul
    a3, a4, b3, b4, factors, b34, a34 = _images(p, eps, prec)
    if t is None:
        t = _image(m * p.q, eps, prec)
    a1t, a2t, b1t, b2t = (mul(t, c, prec, "n") for c in factors)
    yv = _signed(y)
    z_next, cancelled = _half_step(yv, _signed(z), a1t, a2t, a3, a4, b34, prec, ("z(t)", "y - a3", "y - a4"))
    warn = y.warn or z.warn or cancelled
    y_next, cancelled = _half_step(z_next, yv, b1t, b2t, b3, b4, a34, prec, ("y(t)", "z(qt) - b3", "z(qt) - b4"))
    return _signed_mag(y_next, prec, warn or cancelled), _signed_mag(z_next, prec, warn)


# --- the ultradiscretization comparator ----------------------------------------


class EpsSchedule(namedtuple("EpsSchedule", "eps_values")):
    """Strictly decreasing positive eps values, coarse to fine, as a tuple of
    Fractions."""

    __slots__ = ()

    def __new__(cls, eps_values):
        vals = tuple(Fraction(e) for e in eps_values)
        if not vals:
            raise ValueError("schedule must not be empty")
        if any(e <= 0 for e in vals):
            raise ValueError("eps values must be positive")
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise ValueError("eps values must be strictly decreasing")
        return super().__new__(cls, vals)

    @classmethod
    def from_string(cls, text: str) -> "EpsSchedule":
        return cls(tuple(parse_rational(part, "eps") for part in text.split(",") if part.strip()))


class CompareRow(NamedTuple):
    m: int
    eps: Fraction
    err_y: float
    err_z: float
    sign_ok_y: bool
    sign_ok_z: bool
    warned: bool


class CompareAbort(NamedTuple):
    eps: Fraction
    m: int
    reason: str


class CompareReport(NamedTuple):
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
    i, j = lo - table.m_lo, hi + 1 - table.m_lo
    return max(vals + [*map(abs, table.ay[i:j]), *map(abs, table.az[i:j])])


# bits of a row error's log and product: a double's 53, and 64 more against a double rounding
_ERROR_PREC = 128


def _row_error(x: SignedMag, image: tuple, eps: tuple) -> float:
    """|eps*log|x| - amp| as eps*|log(|x|/X)|, X = ``image``, the run's raw image
    exp(amp/eps) of the cell at x's precision, and ``eps`` a raw mpf at ``_ERROR_PREC``
    bits.  The ratio is taken at x's precision; ``mpf_log`` adds the bits that a ratio
    near 1 cancels, so its log and the product need only ``_ERROR_PREC`` bits."""
    lib = mpmath.libmp
    ratio = lib.mpf_div(x.mag._mpf_, image, x.prec, "n")
    err = lib.mpf_mul(eps, lib.mpf_log(ratio, _ERROR_PREC, "n"), _ERROR_PREC, "n")
    return abs(lib.to_float(err, rnd="n"))


def _compare_rows(
    p: Params, table: SolutionTable, eps: Fraction, window: Tuple[int, int], prec: int
) -> Iterator[Union[CompareRow, CompareAbort]]:
    """The rows of one eps at one working precision, in index order, each
    computed when it is read; a pole or an exact zero ends them with a
    ``CompareAbort``.  Past the seed row, a row can raise nothing but the
    ``PoleError`` caught here, so a run read only in part hides no exception
    of a full run.  The cells' images X and the steps' t come from ``_run_images``,
    and a seed is its sign times its cell's X."""
    lo, hi = window
    m_lo, sy, sz = table.m_lo, table.sy, table.sz
    i, j = lo - m_lo, hi + 1 - m_lo
    images = zip(_run_images(table.ay[i:j], eps, prec), _run_images(table.az[i:j], eps, prec))
    ts = _run_images([m * p.q for m in range(lo, hi + 1)], eps, prec)
    eps_bits = _rational(eps, _ERROR_PREC)
    x_y, x_z = next(images)
    y, z = _signed_image(sy[i], x_y, prec), _signed_image(sz[i], x_z, prec)

    def row(m: int, y: SignedMag, z: SignedMag, x_y: tuple, x_z: tuple) -> CompareRow:
        k = m - m_lo
        return CompareRow(m, eps, _row_error(y, x_y, eps_bits), _row_error(z, x_z, eps_bits),
                          y.sign == sy[k], z.sign == sz[k], y.warn or z.warn)

    yield row(lo, y, z, x_y, x_z)
    for m, t, (x_y, x_z) in zip(range(lo, hi), ts, images):
        try:
            y, z = qp6_step(p, eps, m, y, z, t)
        except PoleError as exc:
            yield CompareAbort(eps=eps, m=m, reason=str(exc))
            return
        if y.sign == 0 or z.sign == 0:
            yield CompareAbort(eps=eps, m=m, reason="exact cancellation to zero")
            return
        yield row(m + 1, y, z, x_y, x_z)


def _settled(run: Iterable, last: Iterable, prec: int, scale: float) -> bool:
    """Whether ``run``, at ``prec`` bits, confirms ``last``, the run at half of it.

    Both must give equal rows with no abort and no cancellation warning, and
    every error past the seed row must be at least 2^(-prec/2) * scale, the
    accuracy to which the log-domain arithmetic resolves an amplitude at
    ``prec`` bits (the cancellation flag uses the same threshold).  A smaller
    error may be a correction lost to rounding in both runs, unless the
    threshold itself is below the range of a double.  The conditions are
    tested row by row, one row of each run at a time, and the first row that
    fails one decides: neither run is read past it.

    An abort never settles: it comes from an exact zero, which the arithmetic
    only produces when two magnitudes round to the same value, and a gap below
    2^-prec looks the same at every precision short of resolving it.
    """
    resolution = math.ldexp(scale, -(prec // 2))
    for i, (row, twin) in enumerate(zip(run, last)):
        if row != twin or type(row) is CompareAbort or row.warned:
            return False
        if i and min(row.err_y, row.err_z) < resolution:
            return False
    return True


def ud_limit_compare(
    p: Params,
    table: SolutionTable,
    schedule: EpsSchedule,
    window: Tuple[int, int],
) -> CompareReport:
    """Seed the q-system from the table head and compare along the window.

    For each eps the q-system starts at the window's left edge with
    ``sign * exp(amplitude/eps)`` and is evolved forward only.  Rows report
    ``|eps*log|v| - amplitude|`` and sign agreement per index; poles or exact
    cancellations abort that eps run with a partial report.

    Every eps runs at 256 bits and again at twice the precision until the
    higher of two successive runs confirms the lower (see ``_settled``) and
    is accepted.  The doubling stops at ``default_precision(eps, bound)``,
    whose run is accepted as it stands; a run that aborts is only accepted
    there.  The report records the accepted precision of each eps.  Each
    comparison reads the two runs row by row and stops at the first row that
    fails, so a rejected run is computed only as far as its comparisons read
    it; the accepted run was read to its end when it confirmed the run below
    it, and a run at the ceiling is completed for the report.
    """
    require_unsigned(p)
    lo, hi = window
    if not (table.m_lo <= lo <= hi <= table.m_hi):
        raise ValueError("window must lie inside the table")
    # convergence claims presuppose a residual-clean table; an invalid one is
    # still evolved (negative controls rely on it) but flagged in the report
    bad = tuple(painleve_failures(p, table))

    bound = _amp_bound(p, table, window)
    try:
        scale = max(1.0, float(bound))
    except OverflowError:
        raise ValueError(f"amplitude bound of {len(str(int(bound)))} digits is past a double's range") from None
    rows: List[CompareRow] = []
    aborts: List[CompareAbort] = []
    precisions: List[Tuple[Fraction, int]] = []
    for eps in schedule.eps_values:
        ceiling = default_precision(eps, bound)
        prec = _START_PRECISION
        run = _compare_rows(p, table, eps, window, prec)
        while prec < ceiling:
            prec = min(2 * prec, ceiling)
            # the check reads one copy; the other replays what it read and computes on
            last, (fresh, run) = run, itertools.tee(_compare_rows(p, table, eps, window, prec))
            if _settled(fresh, last, prec, scale):
                break
        for item in run:  # the accepted run, completed
            (aborts if type(item) is CompareAbort else rows).append(item)
        precisions.append((eps, prec))

    return CompareReport(
        rows=tuple(rows),
        aborts=tuple(aborts),
        schedule=schedule,
        window=window,
        table_failures=bad,
        precisions=tuple(precisions),
    )
