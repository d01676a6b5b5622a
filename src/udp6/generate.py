"""Seeded random generators for constraint-satisfying parameter sets and
states, shared by the property suites and the conjecture scanner."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from .system import ParityPair, Params, StatePair

__all__ = [
    "random_amplitude",
    "random_constrained_params",
    "random_parity_pair",
    "random_riccati_params",
    "random_state",
]


def random_amplitude(rng: random.Random, lo: int = -150, hi: int = 150) -> Fraction:
    return Fraction(rng.randint(lo, hi))


def random_parity_pair(rng: random.Random, lo: int = -150, hi: int = 150) -> ParityPair:
    return ParityPair(rng.choice((1, -1)), random_amplitude(rng, lo, hi))


def random_state(rng: random.Random, m: int = 0, lo: int = -150, hi: int = 150) -> StatePair:
    return StatePair(m, random_parity_pair(rng, lo, hi), random_parity_pair(rng, lo, hi))


def random_constrained_params(
    rng: random.Random, lo: int = -100, hi: int = 100, q_range: Tuple[int, int] = (1, 150)
) -> Params:
    """Integer parameters satisfying B1+B2+A3+A4 = Q+A1+A2+B3+B4, with Q > 0."""
    q = Fraction(rng.randint(*q_range))
    a = [random_amplitude(rng, lo, hi) for _ in range(4)]
    b1, b2, b3 = (random_amplitude(rng, lo, hi) for _ in range(3))
    b4 = b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3
    return Params.make(q, a, (b1, b2, b3, b4))


def random_riccati_params(
    rng: random.Random, lo: int = -100, hi: int = 100, q_range: Tuple[int, int] = (1, 150)
) -> Params:
    """Integer parameters satisfying both first-order reduction conditions
    (and therefore the evolution constraint, which is their sum)."""
    q = Fraction(rng.randint(*q_range))
    a = [random_amplitude(rng, lo, hi) for _ in range(4)]
    b3, b4 = (random_amplitude(rng, lo, hi) for _ in range(2))
    b1 = q + a[0] + b3 - a[2]
    b2 = a[1] + b4 - a[3]
    return Params.make(q, a, (b1, b2, b3, b4))
