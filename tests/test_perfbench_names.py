"""Every function the benchmark's tracer wraps must still exist in udp6.

``perfbench/tracing.py`` wraps udp6 functions by their "module:attribute"
names and reports a per-layer metric as null when a name is gone; this test
turns such a rename into a failure.  The tracer module is loaded from its
file and only its ``GROUPS`` table is read.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [name for names, _, _ in mod.GROUPS.values() for name in names]


def _resolves(name):
    mod_name, _, path = name.partition(":")
    owner = importlib.import_module(mod_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_names_resolve_in_udp6():
    names = _traced_names()
    assert names and all(n.startswith("udp6.") for n in names)
    assert [n for n in names if not _resolves(n)] == []
