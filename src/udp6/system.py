"""Parameters and exact residual checks for the ultradiscrete Painleve VI
system with parity variables.

A dynamical variable is a pair (sign, amplitude), the max-plus image of a
signed quantity ``±exp(X/eps)``.  The system couples (y_m, z_m, z_{m+1}) in
one relation and (y_m, y_{m+1}, z_{m+1}) in the other; with the parities
fixed, each relation reduces to an exact identity between two maxima of
rationals.  A residual check decides that identity exactly; there is no
numeric tolerance anywhere.

Amplitudes are rationals (``Fraction``) where they enter, ints inside, and
either where they leave.  Every term of both relations is an integer
combination of Q, the amplitudes and the state, so multiplying all of them by
D, the lcm of their denominators (``denominator_lcm``), gives an integer
problem with the same verdicts: the ``integer_image`` of the parameters and
of the state.  The kernel only adds, takes maxima and compares, so the same
code runs on either kind; ``evolve``, ``evolve_noparity``,
``painleve_failures`` and their first-order counterparts in ``udp6.riccati``
compute D on entry and run on ints.  Output tables keep
the int amplitudes when D = 1 and hold ``Fraction(n, D)`` only when D > 1;
``str`` writes both alike.  Both value types are named tuples.  ``Params``
keeps ints as they are, turns anything else into a ``Fraction`` and checks
its signs when it is constructed; ``_replace`` and ``_make`` skip that, so
only checked values go through them.  A ``ParityPair`` converts and checks
nothing: ``check_sign`` checks its sign once, where the pair enters the
system (``parse_pair`` in the CLI, the CSV table reader).

The library holds one transcription, the eight-term z-relation with
parameter signs.  The y-relation is that kernel mirrored: A and B (amplitudes
and signs) exchanged, y and z exchanged; ``Params.mirrored`` builds the
exchanged parameters once.  The kernel checks nothing: parameters are
validated once where they enter an operation (``require_constraint``,
``require_unsigned``), not on every call.  The parity steps with a plus y
sign and the first-order steps solve one closed form, ``solve_lines``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Union

__all__ = [
    "ConstraintViolation",
    "ParityPair",
    "Params",
    "check_constraint",
    "check_sign",
    "denominator_lcm",
    "load_params",
    "params_from_obj",
    "params_to_obj",
    "parse_pair",
    "parse_rational",
    "require_constraint",
    "require_unsigned",
    "residual_yy",
    "residual_zz",
    "scale_to_int",
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


def scale_to_int(x, d: int) -> int:
    """x * d as an int; d must be a multiple of the denominator of x."""
    k, r = divmod(d, x.denominator)
    assert r == 0, f"{x} * {d} is not an integer"
    return x.numerator * k


class ParityPair(NamedTuple):
    """A sign in {+1, -1} and a finite amplitude, an int or a Fraction.  A
    plain tuple that checks nothing: signs are checked where a pair enters
    the system (``parse_pair``), and library code builds pairs only from
    signs it has derived."""

    sign: int
    amp: Union[int, Fraction]

    def integer_image(self, d: int) -> "ParityPair":
        """The sign and the amplitude times d, as an int."""
        return ParityPair(self.sign, scale_to_int(self.amp, d))


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
    def _zz_parts(self) -> tuple:
        """A1+A2+B3+B4, B3+B4, A1+B3+B4, A2+B3+B4 and A3+A4: the parameter
        sums of ``residual_zz``, built once per instance."""
        b34 = self.b3 + self.b4
        return self.a1 + self.a2 + b34, b34, self.a1 + b34, self.a2 + b34, self.a3 + self.a4

    def integer_image(self, d: int) -> "Params":
        """Q and every amplitude times d, as ints (self if d = 1 and they are); signs kept."""
        if d == 1 and all(isinstance(getattr(self, k), int) for k in _AMP_KEYS):
            return self
        return self._replace(**{k: scale_to_int(getattr(self, k), d) for k in _AMP_KEYS})


def denominator_lcm(p: Params, amps: Iterable) -> int:
    """D: the lcm of the denominators of Q, the amplitudes of p and ``amps``."""
    return lcm(*(getattr(p, k).denominator for k in _AMP_KEYS), *(a.denominator for a in amps))


def check_constraint(p: Params) -> bool:
    """True iff the amplitude constraint (and the sign constraint) holds."""
    amp_ok = p.b1 + p.b2 + p.a3 + p.a4 == p.q + p.a1 + p.a2 + p.b3 + p.b4
    sign_ok = p.sa1 * p.sa2 * p.sa3 * p.sa4 == p.sb1 * p.sb2 * p.sb3 * p.sb4
    return amp_ok and sign_ok


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


def residual_zz(
    p: Params, m: int, y_m: ParityPair, z_m: ParityPair, z_next: ParityPair
) -> bool:
    """Exact check of the (y_m, z_m, z_{m+1}) relation at index m.

    Each of the eight terms sits on the left side when its parity argument is
    +1 and on the right side when it is -1, because the right side carries
    the same amplitudes with negated arguments; a side with no term is minus
    infinity.  With sign(y_m) = -1 and sign(z_m z_{m+1}) = -1 every term lies
    on the right, so that sector has no solution.
    """
    a12b34, b34, a1b34, a2b34, a34 = p._zz_parts
    sb34 = p.sb3 * p.sb4
    sy = y_m.sign
    szz = z_m.sign * z_next.sign
    y, zz = y_m.amp, z_m.amp + z_next.amp
    mq = m * p.q
    y2, ymq, yzz = y + y, y + mq, y + zz
    lhs, rhs = [], []
    for amp, s in (
        (mq + mq + a12b34, -p.sa1 * p.sa2 * sb34),
        (y2 + b34, -sb34),
        (ymq + a1b34, p.sa1 * sb34 * sy),
        (ymq + a2b34, p.sa2 * sb34 * sy),
        (y2 + zz, szz),
        (zz + a34, p.sa3 * p.sa4 * szz),
        (yzz + p.a3, -p.sa3 * sy * szz),
        (yzz + p.a4, -p.sa4 * sy * szz),
    ):
        (lhs if s == 1 else rhs).append(amp)
    return bool(lhs) and bool(rhs) and max(lhs) == max(rhs)


def residual_yy(
    p: Params, m: int, y_m: ParityPair, y_next: ParityPair, z_next: ParityPair
) -> bool:
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


# --- serialization -----------------------------------------------------------


def parse_rational(v, what: str) -> Fraction:
    """Fraction(v) for an integer or rational text; a zero denominator is a
    ValueError naming ``what``, like any other malformed input."""
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"{what}: zero denominator in {v!r}") from None


def parse_pair(sign, amp, what: str) -> ParityPair:
    """A pair as it enters the system: the sign must be +1 or -1 and the
    amplitude an integer or rational text (``parse_rational``)."""
    return ParityPair(check_sign(int(sign)), parse_rational(amp, what))


def _frac_from_json(v, key: str) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"{key}: rationals must be integers or 'p/q' strings, got {v!r}")
    return parse_rational(v, key)


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
    kw = {k: _frac_from_json(obj[k], k) for k in _AMP_KEYS}
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
        return params_from_obj(json.load(fh))
