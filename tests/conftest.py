import random

import pytest

from udp6 import Params, evolution


@pytest.fixture
def p41() -> Params:
    # parameter set satisfying both first-order reduction conditions
    return Params.make(100, (25, 46, 67, 23), (59, 65, 1, 42))


@pytest.fixture
def p42() -> Params:
    # parameter set satisfying the evolution constraint (177 = 177)
    return Params.make(100, (32, 33, 37, 22), (53, 65, 8, 4))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20130719)


@pytest.fixture
def halves(monkeypatch) -> list:
    """The halves ``grow_tables`` grows, each logged as (leaves, truncated):
    the forward half first, then one backward half per group."""
    log, grow = [], evolution._frontier

    def recording(*args):
        out = grow(*args)
        log.append((len(out[0]), out[2]))
        return out

    monkeypatch.setattr(evolution, "_frontier", recording)
    return log
