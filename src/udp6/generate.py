"""Seeded random generator for constraint-satisfying parameter sets, used by
the conjecture scanner."""

from __future__ import annotations

import random
from typing import Tuple

from .system import Params

__all__ = ["random_constrained_params"]


def random_constrained_params(
    rng: random.Random, lo: int = -100, hi: int = 100, q_range: Tuple[int, int] = (1, 150)
) -> Params:
    """Integer parameters satisfying B1+B2+A3+A4 = Q+A1+A2+B3+B4, with Q > 0.
    Q and the amplitudes are ints, which ``Params`` keeps."""
    q = rng.randint(*q_range)
    a = [rng.randint(lo, hi) for _ in range(4)]
    b1, b2, b3 = (rng.randint(lo, hi) for _ in range(3))
    b4 = b1 + b2 + a[2] + a[3] - q - a[0] - a[1] - b3
    return Params.make(q, a, (b1, b2, b3, b4))
