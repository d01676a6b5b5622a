"""Ultradiscrete (max-plus) Painleve VI with parity variables.

Exact evolution through corner solutions (the finite ends of each step's
solution interval, per sign), the first-order (Riccati-type) subsystem,
closed-form solution families, and an independent q-difference oracle for
the ultradiscretization limit.  All max-plus arithmetic is exact rational;
the q-side oracle runs on signed arbitrary-precision floats.

The package re-exports the ``__all__`` of each module below.
"""

from .system import *  # noqa: F401,F403
from .tables import *  # noqa: F401,F403
from .evolution import *  # noqa: F401,F403
from .riccati import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .qoracle import *  # noqa: F401,F403

__version__ = "0.1.0"
