"""Extended natural arithmetic: a genuine absorbing infinity, not a sentinel."""

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
