"""Closed-form piecewise-linear solution families and the asymptotic
linearity detector.

The first-order subsystem admits one-parameter affine families built from the
derived step constants ``h = A3+B1-A2-B4`` and ``h' = A3-A4-B3+B4``, plus
patched global solutions; the all-minus sector admits affine tails
``Y = (Q-a)m + b, Z = a m + g`` subject to an exact identity and four
m-dependent inequalities.  ``instantiate_family`` builds a table verbatim
from the chosen display and reports every validity condition with its
verdict; ``detect_asymptotic_linearity`` recognises exact affine tails of a
computed solution (exact second differences, no fitting tolerance) and verifies
the ansatz identities against the parameters.  It reads amplitude columns,
lists such as ``udp6.evolution.noparity_amplitudes`` returns, not a table.

Every condition quantified over a range of m (those of r1-r4 and pconst,
and the four ansatz inequalities) is a conjunction of inequalities affine in
m, and an affine inequality holds on an integer range iff it holds at both
ends: ``_holds_on`` decides it there, exactly.  Ints stay ints, so the
detector does int arithmetic on the conjecture scan's integer inputs.

The ansatz identity and inequalities are transcribed once, in
``udp6.evolution``, next to the jump across the stretches they certify.
The identity uses the evolution constraint
``B1+B2+A3+A4 = Q+A1+A2+B3+B4``; a brute-force test confirms the ansatz
equalities hold exactly under it (see tests/test_families.py).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

from .evolution import _ansatz_inequalities, ansatz_identity_holds
from .riccati import require_riccati_conditions
from .system import Params, require_unsigned
from .tables import SolutionTable

__all__ = [
    "AffineFit",
    "Condition",
    "FAMILY_IDS",
    "FamilyResult",
    "FamilySpec",
    "LinearAnsatz",
    "LinearityReport",
    "compute_h",
    "detect_asymptotic_linearity",
    "instantiate_family",
]

FAMILY_IDS = ("r1", "r2", "r3", "r4", "pconst", "sol0", "soln2", "solp", "lin", "linprime")


def compute_h(p: Params) -> Tuple[Fraction, Fraction]:
    """The step constants (h, h') of the affine subsystem families:
    h = A3+B1-A2-B4 and h' = A3-A4-B3+B4 (gauge invariant)."""
    return p.a3 + p.b1 - p.a2 - p.b4, p.a3 - p.a4 - p.b3 + p.b4


# --- linear ansatz ------------------------------------------------------------


class LinearAnsatz(namedtuple("LinearAnsatz", "alpha beta gamma")):
    """Affine tail coefficients: Y = (Q-alpha)m + beta, Z = alpha*m + gamma
    (unprimed), or Y = alpha*m + beta, Z = alpha*m + gamma (primed).  Ints
    are kept, as ``Params`` keeps them; anything else becomes a Fraction."""

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma):
        return cls._make(v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (alpha, beta, gamma))


def _holds_on(rng: range, pred: Callable[[int], bool]) -> bool:
    """``pred`` at every m of ``rng``, for a conjunction of inequalities
    affine in m: decided at the two ends of the range, True when it is
    empty."""
    return not rng or (pred(rng[0]) and pred(rng[-1]))


# --- family catalogue ----------------------------------------------------------


class Condition(NamedTuple):
    expr: str
    holds: bool


class FamilySpec(namedtuple("FamilySpec", "family c c_prime m0 ansatz")):
    """A family id plus its free parameters (whichever apply): ``c`` and
    ``c_prime`` become Fractions, an unknown family is a ValueError."""

    __slots__ = ()

    def __new__(cls, family, c=None, c_prime=None, m0=None, ansatz=None):
        if family not in FAMILY_IDS:
            raise ValueError(f"unknown family {family!r}; known: {FAMILY_IDS}")
        c, c_prime = (v if v is None or isinstance(v, Fraction) else Fraction(v) for v in (c, c_prime))
        return super().__new__(cls, family, c, c_prime, m0, ansatz)


class FamilyResult(NamedTuple):
    spec: FamilySpec
    table: SolutionTable
    valid: bool
    conditions: Tuple[Condition, ...]

    def violated(self) -> List[Condition]:
        return [c for c in self.conditions if not c.holds]

    def to_json_obj(self) -> dict:
        return {
            "family": self.spec.family,
            "valid": self.valid,
            "conditions": [{"expr": c.expr, "holds": c.holds} for c in self.conditions],
        }


# (first index, sign, amplitude); the first piece of a list starts at None
Piece = Tuple[Optional[int], int, Callable[[int], Fraction]]


def _piecewise(pieces: List[Piece], m: int) -> tuple:
    """The (sign, amplitude) at m of the last piece that starts at or before m;
    pieces are listed by first index, so each covers the indexes up to the next one's."""
    sign, amp_fn = next((s, f) for first, s, f in reversed(pieces) if first is None or first <= m)
    return sign, amp_fn(m)


def _need(spec: FamilySpec, field: str):
    v = getattr(spec, field)
    if v is None:
        raise ValueError(f"family {spec.family!r} needs parameter {field!r}")
    return v


def _quantified(label: str, rng: range, pred: Callable[[int], bool]) -> Condition:
    lo, hi = rng.start, rng.stop - 1
    return Condition(f"{label} for m in [{lo}, {hi}]", _holds_on(rng, pred))


def instantiate_family(
    spec: FamilySpec, p: Params, window: Tuple[int, int]
) -> FamilyResult:
    """Build the family table over the window and evaluate its conditions.

    ``valid`` means every listed condition holds (existence ranges for the
    free constants, fixed parameter inequalities, and the per-index
    inequalities quantified over the step relations that fit in the window).
    A valid table passes the corresponding residual suite.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")
    h, hp = compute_h(p)
    q = p.q
    a1, a2, a3, a4 = p.a1, p.a2, p.a3, p.a4
    b1, b2, b3, b4 = p.b1, p.b2, p.b3, p.b4
    conds: List[Condition] = []

    # step relations checkable inside the window: the y->z relation at
    # m in [lo, hi-1], the z->y relation at m in [lo-1, hi-1]
    r2_range = range(lo, hi)
    r1_range = range(lo - 1, hi)

    fam = spec.family
    if fam in ("r1", "r2", "r3", "r4", "pconst", "sol0", "soln2", "solp"):
        require_riccati_conditions(p)

    if fam == "r1":
        c = _need(spec, "c")
        ys = [(None, -1, lambda m: h * m + c)]
        zs = [(None, +1, lambda n: (q - h) * (n - 1) + a2 + b4 - c)]
        conds.append(_quantified("h*m >= A4-c and (Q-h)*m >= c-A2", r2_range,
                                 lambda m: h * m >= a4 - c and (q - h) * m >= c - a2))
        conds.append(_quantified("h*(m+1) >= A3-c and (Q-h)*(m+1) >= c-A1", r1_range,
                                 lambda m: h * (m + 1) >= a3 - c and (q - h) * (m + 1) >= c - a1))
    elif fam == "r2":
        c = _need(spec, "c")
        ys = [(None, +1, lambda m: h * m + a2 + b4 - c)]
        zs = [(None, -1, lambda n: (q - h) * (n - 1) + c)]
        conds.append(_quantified("(Q-h)*m >= B4-c and h*m >= c-B2", r2_range,
                                 lambda m: (q - h) * m >= b4 - c and h * m >= c - b2))
        conds.append(_quantified("(Q-h)*m >= B3-c and h*m >= c-B1", r1_range,
                                 lambda m: (q - h) * m >= b3 - c and h * m >= c - b1))
    elif fam == "r3":
        cp = _need(spec, "c_prime")
        ys = [(None, -1, lambda m: hp * m + cp)]
        zs = [(None, +1, lambda n: hp * (n - 1) + cp + b4 - a4)]
        conds.append(_quantified("h'*m <= A4-c' and (Q-h')*m <= c'-A2", r2_range,
                                 lambda m: hp * m <= a4 - cp and (q - hp) * m <= cp - a2))
        conds.append(_quantified("h'*(m+1) <= A3-c' and (Q-h')*(m+1) <= c'-A1", r1_range,
                                 lambda m: hp * (m + 1) <= a3 - cp and (q - hp) * (m + 1) <= cp - a1))
    elif fam == "r4":
        cp = _need(spec, "c_prime")
        ys = [(None, +1, lambda m: hp * m + cp - b4 + a4)]
        zs = [(None, -1, lambda n: hp * (n - 1) + cp)]
        conds.append(_quantified("h'*m <= B4-c' and (Q-h')*m <= c'-B2", r2_range,
                                 lambda m: hp * m <= b4 - cp and (q - hp) * m <= cp - b2))
        conds.append(_quantified("h'*m <= B3-c' and (Q-h')*m <= c'-B1", r1_range,
                                 lambda m: hp * m <= b3 - cp and (q - hp) * m <= cp - b1))
    elif fam == "pconst":
        ys = [(None, -1, lambda m: a2 + b4 - b1)]
        zs = [(None, +1, lambda n: (n - 1) * q + b1)]
        conds.append(Condition("A2+B4 <= A3+B1", a2 + b4 <= a3 + b1))
        conds.append(Condition("B1 <= B2", b1 <= b2))
        conds.append(_quantified("m*Q >= max(A2+B4-A1-B1, B4-B1)", r1_range,
                                 lambda m: m * q >= max(a2 + b4 - a1 - b1, b4 - b1)))
    elif fam == "sol0":
        c = _need(spec, "c")
        ys = [
            (None, -1, lambda m: hp * m + c),
            (1, -1, lambda m: h * m + c),
        ]
        zs = [
            (None, +1, lambda m: hp * m + b3 - a3 + c),
            (1, +1, lambda m: (q - h) * m + a1 + b3 - c),
        ]
        lower = max(a1, a4, a2 + b4 - b1, a1 - b1 + b2)
        upper = min(a2, a3, a3 - b3 + b4, a2 + b4 - b3)
        conds.append(Condition("max(A1, A4, A2+B4-B1, A1-B1+B2) <= c", lower <= c))
        conds.append(Condition("c <= min(A2, A3, A3-B3+B4, A2+B4-B3)", c <= upper))
    elif fam == "soln2":
        cp = _need(spec, "c_prime")
        m0 = _need(spec, "m0")
        if m0 >= 0:
            raise ValueError("soln2 requires m0 < 0")
        ys = [
            (None, -1, lambda m: hp * m + cp),
            (m0 + 1, +1, lambda m: a3),
            (1, -1, lambda m: h * m + a2),
        ]
        zs = [
            (None, +1, lambda m: hp * m + b3 - a3 + cp),
            (m0 + 1, +1, lambda m: b4),
            (2, +1, lambda m: (q - h) * (m - 1) + b4),
        ]
        conds.extend([
            Condition("0 <= h <= Q", 0 <= h <= q),
            Condition("0 <= h' <= Q", 0 <= hp <= q),
            Condition("B3 <= B4 <= B1 <= B4+Q", b3 <= b4 <= b1 <= b4 + q),
            Condition("A3+B1 >= A4+B4", a3 + b1 >= a4 + b4),
            Condition("max(A2, A4) <= A3", max(a2, a4) <= a3),
            Condition("A4 <= h'*m0 + c'", a4 <= hp * m0 + cp),
            Condition("h'*m0 + c' <= min(A3, A4+h')", hp * m0 + cp <= min(a3, a4 + hp)),
            Condition("(Q-h')*m0 + max(A1, A2) <= c'", (q - hp) * m0 + max(a1, a2) <= cp),
        ])
    elif fam == "solp":
        c = _need(spec, "c")
        m0 = _need(spec, "m0")
        if m0 <= 0:
            raise ValueError("solp requires m0 > 0")
        ys = [
            (None, +1, lambda m: hp * m + a1 - b1 + b2),
            (0, -1, lambda m: a2 + b4 - b1),
            (m0, +1, lambda m: h * m + a2 + b4 - c),
        ]
        zs = [
            (None, -1, lambda m: hp * m + b2 - q),
            (0, +1, lambda m: a2 + b4 - a1 - q),
            (1, +1, lambda m: (m - 1) * q + b1),
            (m0 + 1, -1, lambda m: (q - h) * (m - 1) + c),
        ]
        conds.extend([
            Condition("0 <= h <= Q", 0 <= h <= q),
            Condition("0 <= h' <= Q", 0 <= hp <= q),
            Condition("B4 <= B1 <= B2", b4 <= b1 <= b2),
            Condition("A1+B1 <= A2+B4 <= A1+B1+Q", a1 + b1 <= a2 + b4 <= a1 + b1 + q),
            Condition("A2 <= min(A1, A3)+Q", a2 <= min(a1, a3) + q),
            Condition("A1 >= A4", a1 >= a4),
            Condition("A2+B3 <= B4+A3+Q", a2 + b3 <= b4 + a3 + q),
            Condition("h*(m0-1)+B1 <= c", h * (m0 - 1) + b1 <= c),
            Condition("c <= h*m0 + min(B1, B2)", c <= h * m0 + min(b1, b2)),
            Condition("(Q-h)*m0 + c >= max(B3+(Q-h), B4)", (q - h) * m0 + c >= max(b3 + q - h, b4)),
        ])
    elif fam in ("lin", "linprime"):
        require_unsigned(p)
        ansatz = _need(spec, "ansatz")
        primed = fam == "linprime"
        fit = al, be, ga = ansatz.alpha, ansatz.beta, ansatz.gamma
        if primed:
            ys = [(None, -1, lambda m: al * m + be)]
            zs = [(None, -1, lambda m: al * m + ga)]
            conds.append(Condition("alpha' + 2*(gamma'-beta') = B3+B4-A3-A4",
                                   ansatz_identity_holds(p, fit, True)))
        else:
            ys = [(None, -1, lambda m: (q - al) * m + be)]
            zs = [(None, -1, lambda m: al * m + ga)]
            conds.append(Condition("2*(beta+gamma) + alpha = B3+B4+A1+A2",
                                   ansatz_identity_holds(p, fit, False)))
        conds.append(Condition("0 <= alpha <= Q", 0 <= al <= q))
        conds.append(_quantified("ansatz inequalities", range(lo, hi),
                                 lambda m: _ansatz_inequalities(p, fit, m, primed)))
    else:  # pragma: no cover - guarded by FamilySpec validation
        raise ValueError(f"unhandled family {fam!r}")

    (sy, ay), (sz, az) = (zip(*(_piecewise(col, m) for m in range(lo, hi + 1))) for col in (ys, zs))
    table = SolutionTable(lo, sy, ay, sz, az)
    valid = all(cond.holds for cond in conds)
    return FamilyResult(spec=spec, table=table, valid=valid, conditions=tuple(conds))


# --- asymptotic linearity detection --------------------------------------------


class AffineFit(NamedTuple):
    """An exact affine tail of a table, with its ansatz verification verdicts.

    ``m_edge`` is the first (forward) or last (backward) index from which both
    Y and Z follow the fitted lines all the way to the table edge.
    """

    m_edge: int
    slope_y: Fraction
    slope_z: Fraction
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    slopes_ok: bool
    range_ok: bool
    identity_ok: bool
    inequalities_ok: bool

    @property
    def verified(self) -> bool:
        return self.slopes_ok and self.range_ok and self.identity_ok and self.inequalities_ok


class LinearityReport(NamedTuple):
    forward: Optional[AffineFit]
    backward: Optional[AffineFit]

    @property
    def detected(self) -> bool:
        return self.forward is not None and self.backward is not None

    @property
    def verified(self) -> bool:
        return (
            self.detected
            and self.forward.verified
            and self.backward.verified
        )


def _end_fit(p: Params, m_lo: int, ys: list, zs: list, w: int, forward: bool) -> Optional[AffineFit]:
    """The exact affine tail at one end of the amplitude columns from index
    ``m_lo``, or None: the last ``w`` steps against the unprimed ansatz
    (``forward``), or the first ``w`` against the primed one.  Read from that
    end (``inward``), a cell lies on its column's line through the edge's two
    cells iff every step up to it equals theirs, so one walk finds the tail."""
    lo, hi = m_lo, m_lo + len(ys) - 1
    if forward:
        edge, inward, ys, zs = hi, -1, ys[::-1], zs[::-1]
    else:
        edge, inward = lo, 1
    dy, dz = ys[1] - ys[0], zs[1] - zs[0]
    k = 1  # the cells ys[:k + 1] and zs[:k + 1] lie on the lines
    while k + 1 < len(ys) and ys[k + 1] - ys[k] == dy and zs[k + 1] - zs[k] == dz:
        k += 1
    if k < w:
        return None
    slope_y, slope_z = inward * dy, inward * dz
    beta, gamma = ys[0] - slope_y * edge, zs[0] - slope_z * edge
    m_edge = edge + inward * k
    alpha = slope_z if forward else slope_y
    fit = (alpha, beta, gamma)
    steps = range(m_edge, hi) if forward else range(m_edge - 1, lo - 1, -1)  # the tail's step indexes
    return AffineFit(
        m_edge=m_edge,
        slope_y=slope_y,
        slope_z=slope_z,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        slopes_ok=slope_y + slope_z == p.q if forward else slope_y == slope_z,
        range_ok=0 <= alpha <= p.q,
        identity_ok=ansatz_identity_holds(p, fit, primed=not forward),
        inequalities_ok=_holds_on(steps, lambda m: _ansatz_inequalities(p, fit, m, primed=not forward)),
    )


def detect_asymptotic_linearity(p: Params, m_lo: int, ys: list, zs: list, w: int) -> LinearityReport:
    """Detect exact affine behaviour at both ends of a computed solution: its
    amplitude columns ``ys`` and ``zs``, of equal lengths, from index ``m_lo``.

    The last and first ``w`` steps must have identically zero second
    differences (exact arithmetic, no tolerance).  Detected tails are extended
    inward as far as they hold, then verified: forward tails against the
    unprimed ansatz (slopes summing to Q, the intercept identity, and the four
    inequalities on the pure-tail step indexes), backward tails against the
    primed ansatz (equal slopes), the inequalities at the two ends of the
    tail's step indexes.  Int parameters and amplitudes give an int fit.  A
    missing or unverified tail is reported, never raised; only columns of
    unequal or too short a length are an error.
    """
    if w < 2:
        raise ValueError("window length w must be at least 2")
    if len(ys) != len(zs):
        raise ValueError("y and z columns must have equal length")
    if len(ys) < 2 * w + 2:
        raise ValueError(f"table too short: need at least {2 * w + 2} points")
    return LinearityReport(
        forward=_end_fit(p, m_lo, ys, zs, w, forward=True),
        backward=_end_fit(p, m_lo, ys, zs, w, forward=False),
    )
