"""Parameters and exact residual checks for the ultradiscrete Painleve VI
system with parity variables.

A dynamical variable is a pair (sign, amplitude), the max-plus image of a
signed quantity ``±exp(X/eps)``.  The system couples (y_m, z_m, z_{m+1}) in
one relation and (y_m, y_{m+1}, z_{m+1}) in the other; with the parities
fixed, each relation reduces to an exact identity between two maxima of
rationals.  A residual check decides that identity exactly; there is no
numeric tolerance anywhere.

Amplitudes are ints or ``Fraction``s, never floats.  They enter (JSON, CSV,
``--y0/--z0``) by one rule, ``parse_amp``: an integral value ("43", "43/1")
is an int, any other a ``Fraction``.  Every term of both relations is an
integer combination of Q, the amplitudes and the state, and the kernel only
adds, takes maxima and compares, so it decides the relations exactly on
either kind and runs on the amplitudes as they entered: ints stay ints.  Both
value types are named tuples: ``Params`` checks its fields when built,
``ParityPair`` nothing.

The library holds one transcription, the eight-term z-relation with
parameter signs.  The y-relation is that kernel mirrored: A and B (amplitudes
and signs) exchanged, y and z exchanged; ``Params.mirrored`` builds the
exchanged parameters once.  The kernel checks nothing: parameters are
validated once where they enter an operation (``require_constraint``,
``require_unsigned``), not on every call.  The parity steps with a plus y
sign and the first-order steps solve one closed form, ``solve_lines``.
A term's side in the z-relation (left where its parity argument is +1) is a
product of parameter signs and of the state's sector (sign y_m, sign z_m
z_{m+1}), placed once per sign pattern by ``_sign_sectors``; ``residual_zz``
lists the sides.  ``Aff`` values, affine in a step count, run through the
same kernel and steppers when ``udp6.evolution.evolve`` certifies an affine
stretch, and through the kernel when ``painleve_failures`` decides one.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter
from random import Random
from typing import NamedTuple, Tuple, Union

__all__ = [
    "Aff",
    "ConstraintViolation",
    "Horizon",
    "ParityPair",
    "Params",
    "check_constraint",
    "check_sign",
    "load_params",
    "params_from_obj",
    "params_to_obj",
    "parse_amp",
    "parse_int",
    "parse_pair",
    "parse_rational",
    "random_constrained_params",
    "require_constraint",
    "require_unsigned",
    "residual_yy",
    "residual_zz",
    "solve_lines",
]


class ConstraintViolation(ValueError):
    """A parameter constraint required by an operation does not hold."""


def check_sign(s: int) -> int:
    """s itself if it is +1 or -1; anything else is a ValueError.  Run where
    a sign enters the system: parameter signs and ``parse_pair``."""
    if s not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {s!r}")
    return s


class ParityPair(NamedTuple):
    """A sign in {+1, -1} and a finite amplitude, an int or a Fraction.  A
    plain tuple that checks nothing: signs are checked where a pair enters
    the system (``parse_pair``), and library code builds pairs only from
    signs it has derived."""

    sign: int
    amp: Union[int, Fraction]


_AMP_KEYS = ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")
_SIGN_KEYS = ("sa1", "sa2", "sa3", "sa4", "sb1", "sb2", "sb3", "sb4")
# a1 <-> b1, ..., sa4 <-> sb4; q stays
_MIRROR = {k: k.translate(str.maketrans("ab", "ba")) for k in _AMP_KEYS + _SIGN_KEYS}


class Params(namedtuple("Params", _AMP_KEYS + _SIGN_KEYS, defaults=(1,) * 8)):
    """The step size Q, amplitudes A1..A4, B1..B4 and optional parameter signs.

    A named tuple ``(q, a1..a4, b1..b4, sa1..sa4, sb1..sb4)``, the signs
    defaulting to +1.  Construction keeps int amplitudes, turns any other
    into a ``Fraction`` and checks every sign (``check_sign``).  The instance
    keeps a ``__dict__`` for its cached properties, which are not fields.

    Every operation requires the constraint ``B1+B2+A3+A4 == Q+A1+A2+B3+B4``
    (and, with signs, the product condition ``sa1*sa2*sa3*sa4 ==
    sb1*sb2*sb3*sb4``); only the residual checks admit signs other than +1.
    """

    def __new__(cls, *args, **kw):
        p = super().__new__(cls, *args, **kw)
        amps = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in p[:9]]
        return cls._make(amps + [check_sign(s) for s in p[9:]])

    @classmethod
    def make(cls, q, a, b, sa=None, sb=None) -> "Params":
        """Build from Q and the two four-tuples (plus optional sign tuples)."""
        kw = {}
        if sa is not None:
            kw.update(zip(("sa1", "sa2", "sa3", "sa4"), sa))
        if sb is not None:
            kw.update(zip(("sb1", "sb2", "sb3", "sb4"), sb))
        return cls(q, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], **kw)

    @cached_property
    def mirrored(self) -> "Params":
        """A and B exchanged, amplitudes and signs; Q is kept.

        Built once per instance: the kernel evaluates the y-relation as the
        z-relation on these parameters.  They need not satisfy the
        constraint, which is not symmetric under the exchange.
        """
        return self._make(getattr(self, _MIRROR[k]) for k in self._fields)

    @cached_property
    def reflected(self) -> "Params":
        """R(p), the reflection m -> -m, built once per instance: Q' = -Q,
        A1' = B1-Q, A2' = B2-Q, A3' = B3, A4' = B4, and B' likewise from A,
        each sign following its amplitude.  Each relation at index m is the
        same relation of R(p) at -m-1 with y and z exchanged."""
        q, a1, a2, a3, a4, b1, b2, b3, b4 = self[:9]
        return self._make((-q, b1 - q, b2 - q, b3, b4, a1 - q, a2 - q, a3, a4, *self[13:], *self[9:13]))

    @cached_property
    def _zz_parts(self) -> tuple:
        """``residual_zz``'s sign sectors, Q, A3, A4 and parameter sums, built once per instance."""
        a1, a2, a3, a4, b34 = self.a1, self.a2, self.a3, self.a4, self.b3 + self.b4
        return _sign_sectors(self[9:]), self.q, a1 + a2 + b34, b34, a1 + b34, a2 + b34, a3, a4, a3 + a4


def check_constraint(p: Params) -> bool:
    """True iff the amplitude constraint (and the sign constraint) holds."""
    amp_ok = p.b1 + p.b2 + p.a3 + p.a4 == p.q + p.a1 + p.a2 + p.b3 + p.b4
    sign_ok = p.sa1 * p.sa2 * p.sa3 * p.sa4 == p.sb1 * p.sb2 * p.sb3 * p.sb4
    return amp_ok and sign_ok


def random_constrained_params(
    rng: Random, lo: int = -100, hi: int = 100, q_range: Tuple[int, int] = (1, 150)
) -> Params:
    """Seeded integer parameters satisfying B1+B2+A3+A4 = Q+A1+A2+B3+B4, with Q > 0,
    for the conjecture scanner: B4 is solved from the other eight draws."""
    q = rng.randint(*q_range)
    a = [rng.randint(lo, hi) for _ in range(4)]
    b1, b2, b3 = (rng.randint(lo, hi) for _ in range(3))
    b4 = b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3
    return Params.make(q, a, (b1, b2, b3, b4))


def require_constraint(p: Params) -> None:
    """Raise ConstraintViolation unless the constraint holds; the entry check
    of the residual suite, which admits parameter signs."""
    if not check_constraint(p):
        raise ConstraintViolation(
            "parameters must satisfy B1+B2+A3+A4 = Q+A1+A2+B3+B4 "
            "(and sa1*sa2*sa3*sa4 = sb1*sb2*sb3*sb4)"
        )


def require_unsigned(p: Params) -> None:
    """The entry check of evolution, the first-order subsystem, the families
    and the q-oracle: every parameter sign +1 and the constraint."""
    signed = [f"{k}={getattr(p, k)}" for k in _SIGN_KEYS if getattr(p, k) != 1]
    if signed:
        raise ConstraintViolation(
            f"parameter signs must be +1 here, got {', '.join(signed)}; "
            "only the residual checks (verify) admit other signs"
        )
    require_constraint(p)


# --- the relations -------------------------------------------------------------


@lru_cache(maxsize=256)
def _sign_sectors(signs: tuple) -> dict:
    """State sector (sign y_m, sign z_m z_{m+1}) -> the getters of the left and
    the right terms of ``residual_zz``, None for a side with none, for signs sa1..sb4."""
    sa1, sa2, sa3, sa4, _, _, sb3, sb4 = signs
    sectors = {}
    for sy, szz in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        term_signs = (
            -sa1 * sa2 * sb3 * sb4,  # 2mQ + A1 + A2 + B3 + B4
            -sb3 * sb4,  # 2Y + B3 + B4
            sa1 * sb3 * sb4 * sy,  # Y + mQ + A1 + B3 + B4
            sa2 * sb3 * sb4 * sy,  # Y + mQ + A2 + B3 + B4
            szz,  # 2Y + ZZ
            sa3 * sa4 * szz,  # ZZ + A3 + A4
            -sa3 * sy * szz,  # Y + ZZ + A3
            -sa4 * sy * szz,  # Y + ZZ + A4
        )
        sides = ([i for i, s in enumerate(term_signs) if s == side] for side in (1, -1))
        # the first index repeated, as a one-index itemgetter returns a term, not a tuple
        sectors[sy, szz] = tuple(itemgetter(*ix, ix[0]) if ix else None for ix in sides)
    return sectors


def residual_zz(p: Params, m: int, y_m: ParityPair, z_m: ParityPair, z_next: ParityPair) -> bool:
    """Exact check of the (y_m, z_m, z_{m+1}) relation at index m.

    Each of the eight terms sits on the left side when its parity argument is
    +1 and on the right side when it is -1, because the right side carries
    the same amplitudes with negated arguments; a side with no term is minus
    infinity.  With every parameter sign +1 the sectors (sign y_m, sign z_m
    z_{m+1}) place the terms, in ``_sign_sectors``' order, as follows:

        (+1, +1): left 2 3 4 5, right 0 1 6 7   (-1, +1): left 4 5 6 7, right 0 1 2 3
        (+1, -1): left 2 3 6 7, right 0 1 4 5   (-1, -1): none left: no solution
    """
    sectors, q, a12b34, b34, a1b34, a2b34, a3, a4, a34 = p._zz_parts
    left, right = sectors[y_m.sign, z_m.sign * z_next.sign]
    if left is None or right is None:
        return False
    y, zz = y_m.amp, z_m.amp + z_next.amp
    mq = m * q
    y2, ymq, yzz = y + y, y + mq, y + zz
    terms = (mq + mq + a12b34, y2 + b34, ymq + a1b34, ymq + a2b34, y2 + zz, zz + a34, yzz + a3, yzz + a4)
    return max(left(terms)) == max(right(terms))


def residual_yy(p: Params, m: int, y_m: ParityPair, y_next: ParityPair, z_next: ParityPair) -> bool:
    """Exact check of the (y_m, y_{m+1}, z_{m+1}) relation at index m: the
    z-relation with A and B exchanged and the roles of y and z exchanged."""
    return residual_zz(p.mirrored, m, z_next, y_m, y_next)


def solve_lines(cl, bl, cr, br):
    """The solution set of ``max(cl, x + bl) == max(cr, x + br)`` in x, None
    standing for minus infinity: ``(lo, hi)``, None for an unbounded end, or
    None when it is empty.

    Each side is flat, then rises with slope 1, so their difference is
    monotone and the set is one closed interval, never a bounded segment:
    where the sides agree on a segment they share a slope there, and at
    slope 0 they agree all the way down, at slope 1 all the way up.  Equal
    slope-1 lines agree from where they pass both flat lines, and everywhere
    when the flat lines are equal too.  Otherwise the sides agree only where
    the side with the lower slope-1 line is flat and the other meets it: at a
    point, on a downward ray when the flat lines are equal, or nowhere when
    the other flat line is higher.  An end is a flat minus a slope-1 intercept.
    """
    if bl == br:
        if cl == cr:
            return None, None
        if bl is None:
            return None
        return (cl if cr is None or (cl is not None and cl > cr) else cr) - bl, None
    if br is None or (bl is not None and bl > br):
        cl, cr, br = cr, cl, bl  # exchange the sides; bl is not read again
    # x + br is the higher slope-1 line: where they agree, both sides are at cl
    if cl is None or (cr is not None and cr > cl):
        return None
    x = cl - br
    return (None, x) if cl == cr else (x, x)


class Horizon:
    """The last step count t at which every comparison made so far by the
    ``Aff`` values of one attempt keeps its outcome at t = 0; None while no
    comparison bounds it."""

    __slots__ = ("t",)

    def __init__(self):
        self.t = None

    def lower(self, t: int) -> None:
        if self.t is None or t < self.t:
            self.t = t


class Aff:
    """The value ``s*t + c``, t >= 0 counting steps in the current direction.

    Run through the kernel and the steppers in place of an amplitude and of
    m, it evaluates a step at every t at once.  Sums, differences, negation
    and products with an int or a Fraction stay affine and share the
    ``Horizon`` of their operands.  A comparison returns its outcome at t = 0
    and lowers the horizon to the last t at which that outcome still holds,
    found by exact floor division (``!=`` is the inverse of ``==``).  Up to
    the horizon every comparison goes the same way, so the code takes the
    same path and its result is the affine result at each t.  Not hashable;
    fits are compared by (s, c).
    """

    __slots__ = ("s", "c", "horizon")
    __hash__ = None

    def __init__(self, s, c, horizon: Horizon):
        self.s, self.c, self.horizon = s, c, horizon

    def _minus(self, other):
        """(slope, intercept) of self - other, None for an operand that is not
        an Aff, an int or a Fraction."""
        if type(other) is Aff:
            return self.s - other.s, self.c - other.c
        return (self.s, self.c - other) if isinstance(other, (int, Fraction)) else None

    def __add__(self, other):
        if type(other) is Aff:
            return Aff(self.s + other.s, self.c + other.c, self.horizon)
        return Aff(self.s, self.c + other, self.horizon) if isinstance(other, (int, Fraction)) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        d = self._minus(other)
        return NotImplemented if d is None else Aff(*d, self.horizon)

    def __rsub__(self, other):
        return Aff(-self.s, other - self.c, self.horizon) if isinstance(other, (int, Fraction)) else NotImplemented

    def __neg__(self):
        return Aff(-self.s, -self.c, self.horizon)

    def __mul__(self, k):
        return Aff(self.s * k, self.c * k, self.horizon) if isinstance(k, (int, Fraction)) else NotImplemented

    __rmul__ = __mul__

    def _positive(self, other, sign: int, strict: bool):
        """Whether e = sign*(self - other) is > 0 (>= 0 unless strict) at t = 0."""
        d = self._minus(other)
        if d is None:
            return NotImplemented
        s, c = sign * d[0], sign * d[1]
        holds = c > 0 if strict else c >= 0
        if not holds:  # the outcome lasts while -e >= 0 (> 0 after a non-strict test)
            s, c, strict = -s, -c, not strict
        if s < 0:  # s*t + c >= 0 iff t <= c / -s; > 0 iff t < c / -s
            self.horizon.lower(-(-c // -s) - 1 if strict else c // -s)
        return holds

    def __gt__(self, other):
        return self._positive(other, 1, True)

    def __ge__(self, other):
        return self._positive(other, 1, False)

    def __lt__(self, other):
        return self._positive(other, -1, True)

    def __le__(self, other):
        return self._positive(other, -1, False)

    def __eq__(self, other):
        d = self._minus(other)
        if d is None:
            return NotImplemented
        s, c = d
        if s != 0:  # equal at the root -c/s alone: at t = 0, or unequal up to it
            root, rest = divmod(-c, s)
            if c == 0:
                self.horizon.lower(0)
            elif rest == 0 and root > 0:
                self.horizon.lower(root - 1)
        return c == 0


# --- serialization -----------------------------------------------------------


# Fraction's text forms, underscores taken out: a numerator, then a denominator,
# or a fractional part and an exponent (its sign, then its digits); compiled by
# its first use, not at import
_RATIONAL_TEXT = r"\s*[-+]?(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?)0*(\d+))?)\s*"


def parse_rational(v: str, what: str) -> Fraction:
    """Fraction(v) for an integer or rational text; malformed text, a zero
    denominator, and text whose numerator or denominator has more digits than
    the interpreter's limit for ``int`` are ValueErrors naming ``what``.  The
    digits are counted on the text before Fraction runs, as its time grows
    with the exponent."""
    parts, limit = re.fullmatch(_RATIONAL_TEXT, v.replace("_", "")), sys.get_int_max_str_digits()
    if parts and limit:
        num, den, frac, sign, exp = parts.groups()
        # an exponent's first 18 digits are read: with more, they alone are over any limit
        frac, e = frac or "", int(sign + exp[:18]) if exp else 0
        # a decimal's denominator is 10 to the power of its fraction digits less its exponent
        if max(len(num) + len(frac) + max(e, 0), len(den) if den else len(frac) + max(-e, 0) + 1) > limit:
            raise ValueError(f"{what}: rational with a numerator or denominator over int's limit of {limit} digits")
    try:
        return Fraction(v)
    except ValueError:
        raise ValueError(f"{what}: malformed rational {v!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"{what}: zero denominator in {v!r}") from None


_INT_TEXT = re.compile(r"-?[0-9]+")


def parse_int(v: str, what: str) -> int:
    """int(v); malformed text, and integer text over the interpreter's digit
    limit for ``int``, are ValueErrors naming ``what``."""
    try:
        return int(v)
    except ValueError:
        if _INT_TEXT.fullmatch(v):  # only the digit limit refuses such text
            digits, limit = len(v.lstrip("-")), sys.get_int_max_str_digits()
            raise ValueError(f"{what}: integer of {digits} digits is over int's limit of {limit} digits") from None
        raise ValueError(f"{what}: malformed integer {v!r}") from None


def parse_amp(v, what: str) -> Union[int, Fraction]:
    """An amplitude as it enters: an int, or text (read by ``parse_int`` or
    ``parse_rational``) as an int where its value is integral ("43/1", "4.3e1"),
    else as a Fraction; anything else (a bool, a float) is a ValueError."""
    if isinstance(v, str):
        x = parse_int(v, what) if _INT_TEXT.fullmatch(v) else parse_rational(v, what)
        return x.numerator if x.denominator == 1 else x
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"{what}: rationals must be integers or 'p/q' strings, got {v!r}")


def parse_pair(sign, amp, what: str) -> ParityPair:
    """A pair as it enters the system: the sign must be +1 or -1 and the
    amplitude is read by ``parse_amp``; both name ``what`` in their errors."""
    return ParityPair(check_sign(parse_int(sign, what)), parse_amp(amp, what))


def _frac_to_json(x: Fraction) -> Union[int, str]:
    return int(x) if x.denominator == 1 else str(x)


def params_from_obj(obj: dict) -> Params:
    """Decode the flat JSON object {q, a1..a4, b1..b4, [sa1..sb4]}."""
    if not isinstance(obj, dict):
        raise ValueError("params JSON must be an object")
    unknown = set(obj) - set(_AMP_KEYS) - set(_SIGN_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    missing = [k for k in _AMP_KEYS if k not in obj]
    if missing:
        raise ValueError(f"missing parameter keys: {missing}")
    kw = {k: parse_amp(obj[k], k) for k in _AMP_KEYS}
    for k in _SIGN_KEYS:
        if k in obj:
            v = obj[k]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{k}: signs must be the integers +1 or -1")
            kw[k] = v
    return Params(**kw)


def params_to_obj(p: Params) -> dict:
    obj = {k: _frac_to_json(getattr(p, k)) for k in _AMP_KEYS}
    for k in _SIGN_KEYS:
        v = getattr(p, k)
        if v != 1:
            obj[k] = v
    return obj


def load_params(path) -> Params:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return params_from_obj(json.load(fh))
        except RecursionError:  # the decoder recurses once per level of nesting
            raise ValueError(f"{path}: params JSON is nested too deeply") from None
