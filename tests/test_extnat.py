"""Extended natural arithmetic: a genuine absorbing infinity, not a sentinel."""

import operator
import pickle

import pytest
from hypothesis import given, strategies as st

from qproj.extnat import INF, Infinity, ext_to_json, is_finite


def test_singleton():
    assert Infinity() is INF
    assert Infinity() is Infinity()


def test_not_an_int():
    assert not isinstance(INF, int)
    assert INF != 10 ** 18 and 10 ** 18 != INF
    assert INF == INF
    assert (INF != INF) is False


def test_saturating_addition():
    assert INF + 5 is INF
    assert 5 + INF is INF
    assert INF + INF is INF
    assert INF + 0 is INF


@given(st.integers(min_value=0, max_value=10 ** 12))
def test_absorbs_any_natural(k):
    assert k + INF is INF
    assert INF + k is INF


def test_ordering():
    assert INF > 10 ** 18
    assert not INF < 0
    assert INF >= INF
    assert INF <= INF
    assert not INF > INF
    assert 3 < INF
    assert 3 <= INF


# What INF is compared with: ints (bools are ints) and values it has no
# order with.
OTHERS = (0, 1, -3, 10 ** 100, True, False, 2.5, "x", None, float("inf"))
ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def place(value):
    """INF above every int, or None where no order is defined."""
    if value is INF:
        return (1, 0)
    return (0, value) if isinstance(value, int) else None


@pytest.mark.parametrize("op", ORDER + (operator.eq, operator.ne),
                         ids=lambda op: op.__name__)
def test_comparison_table(op):
    """Each operator with INF on either side: the order of `place`, a
    TypeError where it has none, and equality with INF alone."""
    pairs = [(INF, INF), *((INF, v) for v in OTHERS), *((v, INF) for v in OTHERS)]
    for a, b in pairs:
        if op not in ORDER:
            assert op(a, b) is op(a is INF, b is INF), (a, b)
        elif place(a) is None or place(b) is None:
            with pytest.raises(TypeError):
                op(a, b)
        else:
            assert op(a, b) is op(place(a), place(b)), (a, b)


def test_is_finite():
    assert is_finite(0)
    assert is_finite(41)
    assert not is_finite(INF)


def test_repr():
    assert repr(INF) == "inf"
    assert str(INF) == "inf"


def test_json_spelling():
    assert ext_to_json(INF) == "inf"
    assert ext_to_json(7) == 7


def test_pickle_preserves_identity():
    assert pickle.loads(pickle.dumps(INF)) is INF


def test_unsupported_arithmetic():
    with pytest.raises(TypeError):
        INF + 1.5
    with pytest.raises(TypeError):
        INF - 1
