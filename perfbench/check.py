"""Correctness checks that do not call udp6.

The parity relations are transcribed here from the q-difference maps they
ultradiscretize, not from udp6's residual functions, so a bug introduced
while rewriting those functions cannot hide in the checker as well.

Each relation is written as ``P - R = 0`` with P and R products of factors
(x - c).  A signed variable x = s*exp(X/eps) becomes the monomial (s, X); a
product of polynomials multiplies signs and adds amplitudes.  In the limit
eps -> 0 the identity holds exactly when the largest amplitude among the
positive terms equals the largest among the negative terms (or both sides
are empty).
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

HEADER = "m,sy,Y,sz,Z"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


# --- signed max-plus polynomials -------------------------------------------------


def _mono(sign, amp):
    return [(sign, amp)]


def _minus(x, c):
    """The factor (x - c) for signed monomials x and c."""
    (sx, ax), (sc, ac) = x[0], c[0]
    return [(sx, ax), (-sc, ac)]


def _mul(*polys):
    out = [(1, 0)]
    for poly in polys:
        out = [(s1 * s2, a1 + a2) for s1, a1 in out for s2, a2 in poly]
    return out


def _holds(lhs, rhs) -> bool:
    """The limit of ``sum(lhs) - sum(rhs) = 0``."""
    terms = lhs + [(-s, a) for s, a in rhs]
    pos = [a for s, a in terms if s == 1]
    neg = [a for s, a in terms if s == -1]
    if not pos or not neg:
        return not pos and not neg
    return max(pos) == max(neg)


# Each relation takes the parameters as monomials c["a1"] .. c["b4"], t = q^m,
# and the signed variables it links.


def z_relation(c, t, y, z, z_next) -> bool:
    """z z' (y - a3)(y - a4) = b3 b4 (y - t a1)(y - t a2)."""
    lhs = _mul(z, z_next, _minus(y, c["a3"]), _minus(y, c["a4"]))
    rhs = _mul(c["b3"], c["b4"], _minus(y, _mul(t, c["a1"])), _minus(y, _mul(t, c["a2"])))
    return _holds(lhs, rhs)


def y_relation(c, t, y, y_next, z_next) -> bool:
    """y y' (z' - b3)(z' - b4) = a3 a4 (z' - t b1)(z' - t b2)."""
    lhs = _mul(y, y_next, _minus(z_next, c["b3"]), _minus(z_next, c["b4"]))
    rhs = _mul(c["a3"], c["a4"], _minus(z_next, _mul(t, c["b1"])), _minus(z_next, _mul(t, c["b2"])))
    return _holds(lhs, rhs)


def riccati_z_relation(c, t, y, z_next) -> bool:
    """z' (y - a4) = b4 (y - t a2): the first-order y_m -> z_{m+1} map."""
    return _holds(_mul(z_next, _minus(y, c["a4"])), _mul(c["b4"], _minus(y, _mul(t, c["a2"]))))


def riccati_y_relation(c, t, y_next, z_next) -> bool:
    """y' (z' - b3) = a3 (z' - t b1): the first-order z_{m+1} -> y_{m+1} map."""
    return _holds(_mul(y_next, _minus(z_next, c["b3"])), _mul(c["a3"], _minus(z_next, _mul(t, c["b1"]))))


# --- tables ------------------------------------------------------------------------


def table_failures(p: dict, rows, riccati: bool = False) -> list:
    """(m, relation) pairs where rows [(m, sy, Y, sz, Z), ...] break a relation.

    Every amplitude is first multiplied by the least common denominator, which
    leaves each max-plus identity as it is and lets the check run on integers.
    """
    p = {k: Fraction(v) for k, v in p.items()}
    scale = math.lcm(*(v.denominator for v in p.values()),
                     *(Fraction(r[i]).denominator for r in rows for i in (2, 4)))
    c = {k: _mono(1, int(v * scale)) for k, v in p.items() if k != "q"}
    q = int(p["q"] * scale)
    at = {m: (_mono(sy, int(y * scale)), _mono(sz, int(z * scale))) for m, sy, y, sz, z in rows}
    ms = sorted(at)
    if ms != list(range(ms[0], ms[0] + len(ms))):
        return [(None, "window")]
    bad = []
    for m in ms[:-1]:
        (y, z), (y1, z1) = at[m], at[m + 1]
        t = _mono(1, m * q)
        if not z_relation(c, t, y, z, z1):
            bad.append((m, "z"))
        if not y_relation(c, t, y, y1, z1):
            bad.append((m, "y"))
        if riccati and not riccati_z_relation(c, t, y, z1):
            bad.append((m, "r2"))
    if riccati:
        for m in ms:
            y, z = at[m]
            if not riccati_y_relation(c, _mono(1, (m - 1) * q), y, z):
                bad.append((m - 1, "r1"))
    return bad


def parse_csv_rows(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("bad table header")
    rows = []
    for line in lines[1:]:
        m, sy, y, sz, z = line.split(",")
        rows.append((int(m), int(sy), Fraction(y), int(sz), Fraction(z)))
    return rows


def json_rows(branch: dict) -> list:
    return [(r["m"], r["sy"], Fraction(r["Y"]), r["sz"], Fraction(r["Z"])) for r in branch["rows"]]


def cli_json_text(obj) -> str:
    """The CLI's JSON layout: sorted keys, two-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def unshift_branches(obj: dict, k: int) -> dict:
    """Move every index of an evolve/riccati JSON output back by k."""
    return {
        **obj,
        "branches": [
            {**b, "m_lo": b["m_lo"] - k, "rows": [{**r, "m": r["m"] - k} for r in b["rows"]]}
            for b in obj["branches"]
        ],
    }


# --- q-oracle reports ----------------------------------------------------------------

QLIMIT_HEADER = "m,eps,err_Y,err_Z,sign_ok_Y,sign_ok_Z,cancellation_flag"
# Error values may move by up to this factor: a change of working precision or
# of how errors are carried legitimately moves their trailing digits.
ERROR_FACTOR = 2
# A reference error printed as 0.0 underflowed a double; any value below this
# matches it.
UNDERFLOW = Decimal("1e-300")


def qlimit_mismatches(ref_text: str, text: str) -> list:
    """Differences between two qlimit CSV reports.

    Indexes, eps values, sign columns and cancellation flags must be equal;
    each error value must lie within ERROR_FACTOR of the reference.
    """
    ref_lines, lines = ref_text.splitlines(), text.splitlines()
    if not lines or lines[0] != QLIMIT_HEADER:
        return ["bad qlimit header"]
    if len(lines) != len(ref_lines):
        return [f"{len(lines) - 1} rows, reference has {len(ref_lines) - 1}"]
    bad = []
    for ref, got in zip(ref_lines[1:], lines[1:]):
        r, g = ref.split(","), got.split(",")
        if len(g) != 7 or r[:2] != g[:2] or r[4:] != g[4:]:
            bad.append(f"row {got!r} differs from {ref!r}")
            continue
        for rv, gv in zip(r[2:4], g[2:4]):
            try:
                a, b = Decimal(rv), Decimal(gv)
            except InvalidOperation:
                bad.append(f"error {gv!r} is not a number")
                continue
            if a == 0:
                ok = abs(b) < UNDERFLOW
            else:
                ok = b != 0 and a / ERROR_FACTOR <= b <= a * ERROR_FACTOR
            if not ok:
                bad.append(f"error {gv} not within {ERROR_FACTOR}x of {rv} in row {got!r}")
    return bad
