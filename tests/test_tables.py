import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udp6.system import ParityPair
from udp6.tables import SolutionTable, branches_json_text, branches_to_json_obj

_AMPS = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12)),
)
_PAIRS = st.builds(ParityPair, st.sampled_from((1, -1)), _AMPS)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    cols = [tuple(draw(st.lists(_PAIRS, min_size=n, max_size=n))) for _ in "yz"]
    return SolutionTable(draw(st.integers(-40, 40)), *cols)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tables=st.lists(_tables(), min_size=1, max_size=5), truncated=st.booleans())
def test_branches_json_text_equals_json_dumps(tables, truncated):
    obj = branches_to_json_obj(tables, truncated)
    assert branches_json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_branches_json_text_without_branches():
    obj = branches_to_json_obj([], False)
    assert branches_json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("sign", [2, 0])
def test_from_json_obj_rejects_bad_sign(sign):
    row = {"m": 0, "sy": -1, "Y": "43", "sz": sign, "Z": "40"}
    with pytest.raises(ValueError, match="sign must be"):
        SolutionTable.from_json_obj({"m_lo": 0, "rows": [row]})
