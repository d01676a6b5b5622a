"""Parameters and exact residual checks for the ultradiscrete Painleve VI
system with parity variables.

A dynamical variable is a pair (sign, amplitude), the max-plus image of a
signed quantity ``±exp(X/eps)``.  The system couples (y_m, z_m, z_{m+1}) in
one relation and (y_m, y_{m+1}, z_{m+1}) in the other; with the parities
fixed, each relation reduces to an exact identity between two maxima of
rationals.  A residual check decides that identity exactly; there is no
numeric tolerance anywhere.

Two equivalent routes are implemented for each relation: the four-case
reductions (the public residuals) and the direct parity-filtered term lists
(the ``*_sides`` diagnostics); the tests assert they agree.  The signed
variants additionally admit parameter signs and reduce to the plain residuals
when every parameter sign is +1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Tuple, Union

from .tropical import BOTTOM, Amp, check_sign, is_bottom

__all__ = [
    "ConstraintViolation",
    "ParityPair",
    "Params",
    "StatePair",
    "check_constraint",
    "dump_params",
    "load_params",
    "params_from_obj",
    "params_to_obj",
    "parse_rational",
    "require_constraint",
    "residual_yy",
    "residual_yy_sides",
    "residual_yy_signed",
    "residual_zz",
    "residual_zz_sides",
    "residual_zz_signed",
]


class ConstraintViolation(ValueError):
    """A parameter constraint required by an operation does not hold."""


@dataclass(frozen=True)
class ParityPair:
    """A sign in {+1, -1} together with a finite rational amplitude."""

    sign: int
    amp: Fraction

    def __post_init__(self) -> None:
        check_sign(self.sign)
        if not isinstance(self.amp, Fraction):
            object.__setattr__(self, "amp", Fraction(self.amp))

    def shifted(self, c) -> "ParityPair":
        return ParityPair(self.sign, self.amp + Fraction(c))

    def scaled(self, lam) -> "ParityPair":
        return ParityPair(self.sign, self.amp * Fraction(lam))

    def __str__(self) -> str:
        return f"{self.sign:+d}:{self.amp}"


@dataclass(frozen=True)
class StatePair:
    """One column of a solution table: (y, z) at index m."""

    m: int
    y: ParityPair
    z: ParityPair


_AMP_KEYS = ("q", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")
_SIGN_KEYS = ("sa1", "sa2", "sa3", "sa4", "sb1", "sb2", "sb3", "sb4")


@dataclass(frozen=True)
class Params:
    """The step size Q, amplitudes A1..A4, B1..B4 and optional parameter signs.

    Evolution and residual checks require the constraint
    ``B1+B2+A3+A4 == Q+A1+A2+B3+B4`` (and, with signs, the product condition
    ``sa1*sa2*sa3*sa4 == sb1*sb2*sb3*sb4``).
    """

    q: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    b1: Fraction
    b2: Fraction
    b3: Fraction
    b4: Fraction
    sa1: int = 1
    sa2: int = 1
    sa3: int = 1
    sa4: int = 1
    sb1: int = 1
    sb2: int = 1
    sb3: int = 1
    sb4: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in _SIGN_KEYS:
                check_sign(v)
            elif not isinstance(v, Fraction):
                object.__setattr__(self, f.name, Fraction(v))

    @classmethod
    def make(cls, q, a, b, sa=None, sb=None) -> "Params":
        """Build from Q and the two four-tuples (plus optional sign tuples)."""
        kw = {}
        if sa is not None:
            kw.update(zip(("sa1", "sa2", "sa3", "sa4"), sa))
        if sb is not None:
            kw.update(zip(("sb1", "sb2", "sb3", "sb4"), sb))
        return cls(q, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], **kw)

    @property
    def constraint_ok(self) -> bool:
        return check_constraint(self)

    def gauge_shifted(self, c) -> "Params":
        """Shift every amplitude by c, keeping Q and the signs."""
        c = Fraction(c)
        return replace(
            self,
            a1=self.a1 + c, a2=self.a2 + c, a3=self.a3 + c, a4=self.a4 + c,
            b1=self.b1 + c, b2=self.b2 + c, b3=self.b3 + c, b4=self.b4 + c,
        )

    def scaled(self, lam) -> "Params":
        """Multiply Q and every amplitude by a positive rational."""
        lam = Fraction(lam)
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            q=self.q * lam,
            a1=self.a1 * lam, a2=self.a2 * lam, a3=self.a3 * lam, a4=self.a4 * lam,
            b1=self.b1 * lam, b2=self.b2 * lam, b3=self.b3 * lam, b4=self.b4 * lam,
        )


def check_constraint(p: Params) -> bool:
    """True iff the amplitude constraint (and the sign constraint) holds."""
    amp_ok = p.b1 + p.b2 + p.a3 + p.a4 == p.q + p.a1 + p.a2 + p.b3 + p.b4
    sign_ok = p.sa1 * p.sa2 * p.sa3 * p.sa4 == p.sb1 * p.sb2 * p.sb3 * p.sb4
    return amp_ok and sign_ok


def require_constraint(p: Params) -> None:
    if not check_constraint(p):
        raise ConstraintViolation(
            "parameters must satisfy B1+B2+A3+A4 = Q+A1+A2+B3+B4 "
            "(and sa1*sa2*sa3*sa4 = sb1*sb2*sb3*sb4)"
        )


def _require_sign_constraint(p: Params) -> None:
    if p.sa1 * p.sa2 * p.sa3 * p.sa4 != p.sb1 * p.sb2 * p.sb3 * p.sb4:
        raise ConstraintViolation(
            "parameter signs must satisfy sa1*sa2*sa3*sa4 = sb1*sb2*sb3*sb4"
        )


# --- the (y_m, z_m, z_{m+1}) relation ---------------------------------------


def residual_zz(
    p: Params, m: int, y_m: ParityPair, z_m: ParityPair, z_next: ParityPair
) -> bool:
    """Exact check of the z-step relation at index m, via its case reductions.

    The case is selected by (sign of y_m, product of the two z signs); the
    (-1, -1) combination admits no solution and is always False.
    """
    require_constraint(p)
    sy = y_m.sign
    szz = z_m.sign * z_next.sign
    y, z0, z1 = y_m.amp, z_m.amp, z_next.amp
    mq = m * p.q
    b34 = p.b3 + p.b4
    if sy == 1 and szz == 1:
        lhs = max(max(2 * y, p.a3 + p.a4) + z0 + z1, max(p.a1, p.a2) + mq + y + b34)
        rhs = max(max(2 * mq + p.a1 + p.a2, 2 * y) + b34, max(p.a3, p.a4) + y + z0 + z1)
    elif sy == 1 and szz == -1:
        lhs = max(max(p.a3, p.a4) + y + z0 + z1, max(p.a1, p.a2) + mq + y + b34)
        rhs = max(max(2 * mq + p.a1 + p.a2, 2 * y) + b34, max(2 * y, p.a3 + p.a4) + z0 + z1)
    elif sy == -1 and szz == 1:
        lhs = z0 + z1 + max(p.a3, y) + max(p.a4, y)
        rhs = b34 + max(mq + p.a1, y) + max(mq + p.a2, y)
    else:
        return False  # no solution with sign(y)=-1 and flipped z parity
    return lhs == rhs


def residual_yy(
    p: Params, m: int, y_m: ParityPair, y_next: ParityPair, z_next: ParityPair
) -> bool:
    """Exact check of the y-step relation at index m (mirror of residual_zz).

    Case selected by (sign of z_{m+1}, product of the two y signs); the
    (-1, -1) combination is always False.
    """
    require_constraint(p)
    sz = z_next.sign
    syy = y_m.sign * y_next.sign
    y0, y1, z1 = y_m.amp, y_next.amp, z_next.amp
    mq = m * p.q
    a34 = p.a3 + p.a4
    if sz == 1 and syy == 1:
        lhs = max(max(2 * z1, p.b3 + p.b4) + y0 + y1, max(p.b1, p.b2) + mq + z1 + a34)
        rhs = max(max(2 * mq + p.b1 + p.b2, 2 * z1) + a34, max(p.b3, p.b4) + y0 + y1 + z1)
    elif sz == 1 and syy == -1:
        lhs = max(max(p.b3, p.b4) + y0 + y1 + z1, max(p.b1, p.b2) + mq + a34 + z1)
        rhs = max(max(2 * mq + p.b1 + p.b2, 2 * z1) + a34, max(2 * z1, p.b3 + p.b4) + y0 + y1)
    elif sz == -1 and syy == 1:
        lhs = y0 + y1 + max(p.b3, z1) + max(p.b4, z1)
        rhs = a34 + max(mq + p.b1, z1) + max(mq + p.b2, z1)
    else:
        return False
    return lhs == rhs


# --- direct parity-filtered term lists (diagnostic / independent route) -----


def _filtered_max(terms) -> Amp:
    """Max over (amplitude, keep) pairs; BOTTOM when everything is dropped."""
    kept = [amp for amp, keep in terms if keep]
    return max(kept) if kept else BOTTOM


def residual_zz_sides(
    p: Params, m: int, y_m: ParityPair, z_m: ParityPair, z_next: ParityPair
) -> Tuple[Amp, Amp]:
    """The two parity-filtered maxima of the z-step relation, for reporting.

    Terms whose parity factor is S(-1) are dropped before the max; a side with
    nothing left is BOTTOM.  ``lhs == rhs`` reproduces the residual verdict.
    """
    sy = y_m.sign
    szz = z_m.sign * z_next.sign
    y, zz = y_m.amp, z_m.amp + z_next.amp
    mq = m * p.q
    b34 = p.b3 + p.b4
    lhs = _filtered_max(
        [
            (max(p.a1, p.a2) + mq + y + b34, sy == 1),
            (max(2 * y, p.a3 + p.a4) + zz, szz == 1),
            (max(p.a3, p.a4) + y + zz, -sy * szz == 1),
        ]
    )
    rhs = _filtered_max(
        [
            (max(2 * mq + p.a1 + p.a2, 2 * y) + b34, True),
            (max(p.a1, p.a2) + mq + y + b34, -sy == 1),
            (max(2 * y, p.a3 + p.a4) + zz, -szz == 1),
            (max(p.a3, p.a4) + y + zz, sy * szz == 1),
        ]
    )
    return lhs, rhs


def residual_yy_sides(
    p: Params, m: int, y_m: ParityPair, y_next: ParityPair, z_next: ParityPair
) -> Tuple[Amp, Amp]:
    """The two parity-filtered maxima of the y-step relation."""
    sz = z_next.sign
    syy = y_m.sign * y_next.sign
    yy, z1 = y_m.amp + y_next.amp, z_next.amp
    mq = m * p.q
    a34 = p.a3 + p.a4
    lhs = _filtered_max(
        [
            (max(p.b1, p.b2) + mq + z1 + a34, sz == 1),
            (max(2 * z1, p.b3 + p.b4) + yy, syy == 1),
            (max(p.b3, p.b4) + yy + z1, -syy * sz == 1),
        ]
    )
    rhs = _filtered_max(
        [
            (max(2 * mq + p.b1 + p.b2, 2 * z1) + a34, True),
            (max(p.b1, p.b2) + mq + z1 + a34, -sz == 1),
            (max(2 * z1, p.b3 + p.b4) + yy, -syy == 1),
            (max(p.b3, p.b4) + yy + z1, syy * sz == 1),
        ]
    )
    return lhs, rhs


# --- signed equations (parameter parities admitted) --------------------------


def _signed_verdict(pairs) -> bool:
    # Each entry is (amplitude, sign_argument); the term sits on the left side
    # when the argument is +1 and on the right side when it is -1, because the
    # right side carries the same amplitudes with negated parity arguments.
    lhs = _filtered_max([(amp, s == 1) for amp, s in pairs])
    rhs = _filtered_max([(amp, s == -1) for amp, s in pairs])
    if is_bottom(lhs) or is_bottom(rhs):
        return is_bottom(lhs) and is_bottom(rhs)
    return lhs == rhs


def residual_zz_signed(
    p: Params, m: int, y_m: ParityPair, z_m: ParityPair, z_next: ParityPair
) -> bool:
    """z-step relation with parameter parities; eight terms per side.

    With every parameter sign +1 this agrees with :func:`residual_zz` on all
    inputs.
    """
    _require_sign_constraint(p)
    sy = y_m.sign
    szz = z_m.sign * z_next.sign
    y, zz = y_m.amp, z_m.amp + z_next.amp
    mq = m * p.q
    b34 = p.b3 + p.b4
    sb34 = p.sb3 * p.sb4
    pairs = [
        (2 * mq + p.a1 + p.a2 + b34, -p.sa1 * p.sa2 * sb34),
        (2 * y + b34, -sb34),
        (y + mq + p.a1 + b34, p.sa1 * sb34 * sy),
        (y + mq + p.a2 + b34, p.sa2 * sb34 * sy),
        (2 * y + zz, szz),
        (zz + p.a3 + p.a4, p.sa3 * p.sa4 * szz),
        (y + zz + p.a3, -p.sa3 * sy * szz),
        (y + zz + p.a4, -p.sa4 * sy * szz),
    ]
    return _signed_verdict(pairs)


def residual_yy_signed(
    p: Params, m: int, y_m: ParityPair, y_next: ParityPair, z_next: ParityPair
) -> bool:
    """y-step relation with parameter parities; eight terms per side."""
    _require_sign_constraint(p)
    sz = z_next.sign
    syy = y_m.sign * y_next.sign
    yy, z1 = y_m.amp + y_next.amp, z_next.amp
    mq = m * p.q
    a34 = p.a3 + p.a4
    sa34 = p.sa3 * p.sa4
    pairs = [
        (2 * mq + a34 + p.b1 + p.b2, -sa34 * p.sb1 * p.sb2),
        (2 * z1 + a34, -sa34),
        (z1 + mq + a34 + p.b1, sa34 * p.sb1 * sz),
        (z1 + mq + a34 + p.b2, sa34 * p.sb2 * sz),
        (2 * z1 + yy, syy),
        (yy + p.b3 + p.b4, p.sb3 * p.sb4 * syy),
        (yy + z1 + p.b3, -p.sb3 * syy * sz),
        (yy + z1 + p.b4, -p.sb4 * syy * sz),
    ]
    return _signed_verdict(pairs)


# --- serialization -----------------------------------------------------------


def parse_rational(v, what: str) -> Fraction:
    """Fraction(v) for an integer or rational text; a zero denominator is a
    ValueError naming ``what``, like any other malformed input."""
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"{what}: zero denominator in {v!r}") from None


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


def dump_params(p: Params, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(params_to_obj(p), fh, sort_keys=True, indent=2)
        fh.write("\n")
