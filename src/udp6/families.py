"""Closed-form piecewise-linear solution families and the asymptotic
linearity detector.

The first-order subsystem admits one-parameter affine families built from the
derived step constants ``h = A3+B1-A2-B4`` and ``h' = A3-A4-B3+B4``, plus
patched global solutions; the all-minus sector admits affine tails
``Y = (Q-a)m + b, Z = a m + g`` subject to an exact identity and four
m-dependent inequalities.  ``instantiate_family`` builds a table verbatim
from the chosen display and reports every validity condition with its
verdict; ``detect_asymptotic_linearity`` recognises exact affine tails of a
computed table (exact second differences, no fitting tolerance) and verifies
the ansatz identities against the parameters.

The identity check uses the evolution constraint
``B1+B2+A3+A4 = Q+A1+A2+B3+B4``; a brute-force test confirms the ansatz
equalities hold exactly under it (see tests/test_families.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .riccati import require_riccati_conditions
from .system import ParityPair, Params, require_unsigned
from .tables import SolutionTable

__all__ = [
    "AffineFit",
    "Condition",
    "DerivedConstants",
    "FAMILY_IDS",
    "FamilyResult",
    "FamilySpec",
    "LinearAnsatz",
    "LinearityReport",
    "check_linear_ansatz",
    "compute_h",
    "detect_asymptotic_linearity",
    "instantiate_family",
]

FAMILY_IDS = ("r1", "r2", "r3", "r4", "pconst", "sol0", "soln2", "solp", "lin", "linprime")


@dataclass(frozen=True)
class DerivedConstants:
    """The two step constants of the affine subsystem families."""

    h: Fraction
    h_prime: Fraction


def compute_h(p: Params) -> DerivedConstants:
    """h = A3+B1-A2-B4 and h' = A3-A4-B3+B4 (gauge invariant)."""
    return DerivedConstants(
        h=p.a3 + p.b1 - p.a2 - p.b4,
        h_prime=p.a3 - p.a4 - p.b3 + p.b4,
    )


# --- linear ansatz ------------------------------------------------------------


@dataclass(frozen=True)
class LinearAnsatz:
    """Affine tail coefficients: Y = (Q-alpha)m + beta, Z = alpha*m + gamma
    (unprimed), or Y = alpha*m + beta, Z = alpha*m + gamma (primed)."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))


def ansatz_identity_holds(p: Params, ansatz: LinearAnsatz, primed: bool) -> bool:
    a, b, g = ansatz.alpha, ansatz.beta, ansatz.gamma
    if primed:
        return a + 2 * (g - b) == p.b3 + p.b4 - p.a3 - p.a4
    return 2 * (b + g) + a == p.b3 + p.b4 + p.a1 + p.a2


def _ansatz_inequalities(p: Params, ansatz: LinearAnsatz, m: int, primed: bool) -> bool:
    a, b, g = ansatz.alpha, ansatz.beta, ansatz.gamma
    if primed:
        return (
            a * (m + 1) + g <= min(p.b3, p.b4)
            and a * m + b <= min(p.a3, p.a4)
            and (p.q - a) * m + max(p.b1, p.b2) <= a + g
            and (p.q - a) * m + max(p.a1, p.a2) <= b
        )
    return (
        a * (m + 1) + g >= max(p.b3, p.b4)
        and a * m + min(p.a1, p.a2) >= b
        and (p.q - a) * m + b >= max(p.a3, p.a4)
        and (p.q - a) * m + min(p.b1, p.b2) >= a + g
    )


def check_linear_ansatz(p: Params, ansatz: LinearAnsatz, m: int, primed: bool = False) -> bool:
    """True iff the four m-dependent ansatz inequalities hold at m.

    The slope must lie in [0, Q] (False otherwise); a violated exact identity
    is a malformed ansatz and raises.
    """
    if not ansatz_identity_holds(p, ansatz, primed):
        raise ValueError("ansatz identity does not hold for these parameters")
    if not (0 <= ansatz.alpha <= p.q):
        return False
    return _ansatz_inequalities(p, ansatz, m, primed)


# --- family catalogue ----------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    expr: str
    holds: bool


@dataclass(frozen=True)
class FamilySpec:
    """A family id plus its free parameters (whichever apply)."""

    family: str
    c: Optional[Fraction] = None
    c_prime: Optional[Fraction] = None
    m0: Optional[int] = None
    ansatz: Optional[LinearAnsatz] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILY_IDS:
            raise ValueError(f"unknown family {self.family!r}; known: {FAMILY_IDS}")
        for name in ("c", "c_prime"):
            v = getattr(self, name)
            if v is not None and not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))


@dataclass(frozen=True)
class FamilyResult:
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


Piece = Tuple[Callable[[int], bool], int, Callable[[int], Fraction]]


def _piecewise(pieces: List[Piece], m: int) -> ParityPair:
    got = [(sign, amp_fn(m)) for pred, sign, amp_fn in pieces if pred(m)]
    if not got:
        raise ValueError(f"no piece covers index {m}")
    for other in got[1:]:
        # overlapping display ranges must agree where they meet
        if other != got[0]:
            raise ValueError(f"pieces disagree at index {m}: {got[0]} vs {other}")
    return ParityPair(*got[0])


def _need(spec: FamilySpec, field: str):
    v = getattr(spec, field)
    if v is None:
        raise ValueError(f"family {spec.family!r} needs parameter {field!r}")
    return v


def _quantified(label: str, rng: range, pred: Callable[[int], bool]) -> Condition:
    lo, hi = rng.start, rng.stop - 1
    return Condition(f"{label} for m in [{lo}, {hi}]", all(pred(m) for m in rng))


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
    k = compute_h(p)
    h, hp = k.h, k.h_prime
    q = p.q
    a1, a2, a3, a4 = p.a1, p.a2, p.a3, p.a4
    b1, b2, b3, b4 = p.b1, p.b2, p.b3, p.b4
    always = lambda m: True
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
        ys = [(always, -1, lambda m: h * m + c)]
        zs = [(always, +1, lambda n: (q - h) * (n - 1) + a2 + b4 - c)]
        conds.append(_quantified("h*m >= A4-c and (Q-h)*m >= c-A2", r2_range,
                                 lambda m: h * m >= a4 - c and (q - h) * m >= c - a2))
        conds.append(_quantified("h*(m+1) >= A3-c and (Q-h)*(m+1) >= c-A1", r1_range,
                                 lambda m: h * (m + 1) >= a3 - c and (q - h) * (m + 1) >= c - a1))
    elif fam == "r2":
        c = _need(spec, "c")
        ys = [(always, +1, lambda m: h * m + a2 + b4 - c)]
        zs = [(always, -1, lambda n: (q - h) * (n - 1) + c)]
        conds.append(_quantified("(Q-h)*m >= B4-c and h*m >= c-B2", r2_range,
                                 lambda m: (q - h) * m >= b4 - c and h * m >= c - b2))
        conds.append(_quantified("(Q-h)*m >= B3-c and h*m >= c-B1", r1_range,
                                 lambda m: (q - h) * m >= b3 - c and h * m >= c - b1))
    elif fam == "r3":
        cp = _need(spec, "c_prime")
        ys = [(always, -1, lambda m: hp * m + cp)]
        zs = [(always, +1, lambda n: hp * (n - 1) + cp + b4 - a4)]
        conds.append(_quantified("h'*m <= A4-c' and (Q-h')*m <= c'-A2", r2_range,
                                 lambda m: hp * m <= a4 - cp and (q - hp) * m <= cp - a2))
        conds.append(_quantified("h'*(m+1) <= A3-c' and (Q-h')*(m+1) <= c'-A1", r1_range,
                                 lambda m: hp * (m + 1) <= a3 - cp and (q - hp) * (m + 1) <= cp - a1))
    elif fam == "r4":
        cp = _need(spec, "c_prime")
        ys = [(always, +1, lambda m: hp * m + cp - b4 + a4)]
        zs = [(always, -1, lambda n: hp * (n - 1) + cp)]
        conds.append(_quantified("h'*m <= B4-c' and (Q-h')*m <= c'-B2", r2_range,
                                 lambda m: hp * m <= b4 - cp and (q - hp) * m <= cp - b2))
        conds.append(_quantified("h'*m <= B3-c' and (Q-h')*m <= c'-B1", r1_range,
                                 lambda m: hp * m <= b3 - cp and (q - hp) * m <= cp - b1))
    elif fam == "pconst":
        ys = [(always, -1, lambda m: a2 + b4 - b1)]
        zs = [(always, +1, lambda n: (n - 1) * q + b1)]
        conds.append(Condition("A2+B4 <= A3+B1", a2 + b4 <= a3 + b1))
        conds.append(Condition("B1 <= B2", b1 <= b2))
        conds.append(_quantified("m*Q >= max(A2+B4-A1-B1, B4-B1)", r1_range,
                                 lambda m: m * q >= max(a2 + b4 - a1 - b1, b4 - b1)))
    elif fam == "sol0":
        c = _need(spec, "c")
        ys = [
            (lambda m: m <= 0, -1, lambda m: hp * m + c),
            (lambda m: m >= 1, -1, lambda m: h * m + c),
        ]
        zs = [
            (lambda m: m <= 0, +1, lambda m: hp * m + b3 - a3 + c),
            (lambda m: m >= 1, +1, lambda m: (q - h) * m + a1 + b3 - c),
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
            (lambda m: m <= m0, -1, lambda m: hp * m + cp),
            (lambda m: m0 + 1 <= m <= 0, +1, lambda m: a3),
            (lambda m: m >= 1, -1, lambda m: h * m + a2),
        ]
        zs = [
            (lambda m: m <= m0, +1, lambda m: hp * m + b3 - a3 + cp),
            (lambda m: m0 + 1 <= m <= 1, +1, lambda m: b4),
            (lambda m: m >= 2, +1, lambda m: (q - h) * (m - 1) + b4),
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
            (lambda m: m <= -1, +1, lambda m: hp * m + a1 - b1 + b2),
            (lambda m: 0 <= m <= m0 - 1, -1, lambda m: a2 + b4 - b1),
            (lambda m: m >= m0, +1, lambda m: h * m + a2 + b4 - c),
        ]
        zs = [
            (lambda m: m <= -1, -1, lambda m: hp * m + b2 - q),
            (lambda m: m == 0, +1, lambda m: a2 + b4 - a1 - q),
            (lambda m: 1 <= m <= m0, +1, lambda m: (m - 1) * q + b1),
            (lambda m: m >= m0 + 1, -1, lambda m: (q - h) * (m - 1) + c),
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
        al, be, ga = ansatz.alpha, ansatz.beta, ansatz.gamma
        if primed:
            ys = [(always, -1, lambda m: al * m + be)]
            zs = [(always, -1, lambda m: al * m + ga)]
            conds.append(Condition("alpha' + 2*(gamma'-beta') = B3+B4-A3-A4",
                                   ansatz_identity_holds(p, ansatz, True)))
        else:
            ys = [(always, -1, lambda m: (q - al) * m + be)]
            zs = [(always, -1, lambda m: al * m + ga)]
            conds.append(Condition("2*(beta+gamma) + alpha = B3+B4+A1+A2",
                                   ansatz_identity_holds(p, ansatz, False)))
        conds.append(Condition("0 <= alpha <= Q", 0 <= al <= q))
        conds.append(_quantified("ansatz inequalities", range(lo, hi),
                                 lambda m: _ansatz_inequalities(p, ansatz, m, primed)))
    else:  # pragma: no cover - guarded by FamilySpec validation
        raise ValueError(f"unhandled family {fam!r}")

    table = SolutionTable(
        lo,
        tuple(_piecewise(ys, m) for m in range(lo, hi + 1)),
        tuple(_piecewise(zs, m) for m in range(lo, hi + 1)),
    )
    valid = all(cond.holds for cond in conds)
    return FamilyResult(spec=spec, table=table, valid=valid, conditions=tuple(conds))


# --- asymptotic linearity detection --------------------------------------------


@dataclass(frozen=True)
class AffineFit:
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


@dataclass(frozen=True)
class LinearityReport:
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


def _affine_on(vals: List[Fraction]) -> bool:
    return all(vals[i + 2] - 2 * vals[i + 1] + vals[i] == 0 for i in range(len(vals) - 2))


def detect_asymptotic_linearity(p: Params, table: SolutionTable, w: int) -> LinearityReport:
    """Detect exact affine behaviour at both ends of a computed table.

    The last and first ``w`` steps must have identically zero second
    differences (exact arithmetic, no tolerance).  Detected tails are extended
    inward as far as they hold, then verified: forward tails against the
    unprimed ansatz (slopes summing to Q, the intercept identity, and the four
    inequalities on the pure-tail step indexes), backward tails against the
    primed ansatz (equal slopes).  A missing or unverified tail is reported,
    never raised; only a too-short table is an error.
    """
    if w < 2:
        raise ValueError("window length w must be at least 2")
    if len(table) < 2 * w + 2:
        raise ValueError(f"table too short: need at least {2 * w + 2} points")
    lo, hi = table.m_lo, table.m_hi

    def on_line(m: int, slope_y, off_y, slope_z, off_z) -> bool:
        return (
            table.y(m).amp == slope_y * m + off_y
            and table.z(m).amp == slope_z * m + off_z
        )

    forward = None
    tail_y = [table.y(m).amp for m in range(hi - w, hi + 1)]
    tail_z = [table.z(m).amp for m in range(hi - w, hi + 1)]
    if _affine_on(tail_y) and _affine_on(tail_z):
        slope_y = tail_y[-1] - tail_y[-2]
        slope_z = tail_z[-1] - tail_z[-2]
        beta = table.y(hi).amp - slope_y * hi
        gamma = table.z(hi).amp - slope_z * hi
        m_edge = hi - w
        while m_edge > lo and on_line(m_edge - 1, slope_y, beta, slope_z, gamma):
            m_edge -= 1
        alpha = slope_z
        fit = LinearAnsatz(alpha, beta, gamma)
        forward = AffineFit(
            m_edge=m_edge,
            slope_y=slope_y,
            slope_z=slope_z,
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            slopes_ok=slope_y + slope_z == p.q,
            range_ok=0 <= alpha <= p.q,
            identity_ok=ansatz_identity_holds(p, fit, primed=False),
            inequalities_ok=all(
                _ansatz_inequalities(p, fit, m, primed=False) for m in range(m_edge, hi)
            ),
        )

    backward = None
    head_y = [table.y(m).amp for m in range(lo, lo + w + 1)]
    head_z = [table.z(m).amp for m in range(lo, lo + w + 1)]
    if _affine_on(head_y) and _affine_on(head_z):
        slope_y = head_y[1] - head_y[0]
        slope_z = head_z[1] - head_z[0]
        beta = table.y(lo).amp - slope_y * lo
        gamma = table.z(lo).amp - slope_z * lo
        m_edge = lo + w
        while m_edge < hi and on_line(m_edge + 1, slope_y, beta, slope_z, gamma):
            m_edge += 1
        alpha = slope_y
        fit = LinearAnsatz(alpha, beta, gamma)
        backward = AffineFit(
            m_edge=m_edge,
            slope_y=slope_y,
            slope_z=slope_z,
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            slopes_ok=slope_y == slope_z,
            range_ok=0 <= alpha <= p.q,
            identity_ok=ansatz_identity_holds(p, fit, primed=True),
            inequalities_ok=all(
                _ansatz_inequalities(p, fit, m, primed=True)
                for m in range(lo, m_edge)
            ),
        )

    return LinearityReport(forward=forward, backward=backward)
