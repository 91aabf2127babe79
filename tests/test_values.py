"""The contract every immutable value class keeps: built only by its own
validating constructor, whether directly, by ``replace``, by unpickling or by
copying; equal by class and fields; and refusing assignment and deletion."""

import copy
import pickle
import sys

import pytest

from qproj.errors import (DimensionMismatch, InvalidClass, NotInGroupoid, OutOfRange,
                          QprojError, Value)
from qproj.extnat import INF
from qproj.groupoid import GroupoidElement, TElement, _Action, _Range, _stratum_spec
from qproj.k_theory import K0Vector
from qproj.line_bundles import LineBundleDecomposition
from qproj.oracle import IDENTITY, DiagonalPattern, PatternStack, cutoff
from qproj.projections import ProjClass, RhoVector
from qproj.reports import VerifyReport

PATTERN = DiagonalPattern(2, (cutoff(1), IDENTITY))

# one value of each class, a change of one field its constructor refuses,
# and the error it refuses it with
CASES = [
    (ProjClass(3, 1, 2), {"j": 4}, InvalidClass),
    (RhoVector((0, 2, INF)), {"entries": ()}, DimensionMismatch),
    (VerifyReport("demo", {"n": 2}, False, 4, 3, {"kind": "gap"}), {"passed": None},
     InvalidClass),
    (K0Vector(2, (1, -1, 0)), {"coords": (1, 0)}, DimensionMismatch),
    (LineBundleDecomposition(2, 2, (1, 2, 3)), {"k": 0}, InvalidClass),
    (GroupoidElement(2, 0, (1, -1), (0, INF)), {"x": (1, 0)}, NotInGroupoid),
    (TElement(2, (1, -1), (0, INF)), {"w": (0,)}, InvalidClass),
    (_stratum_spec(2, 1, 3, pins=1), {"ranges": (_Range(0, 0, -1, 0, False),)}, OutOfRange),
    (_Action(z=1, coord=1, dx=1, dw=-1), {"coord": -1}, OutOfRange),
    (PATTERN, {"copies": -1}, InvalidClass),
    (PatternStack((PATTERN, PATTERN)), {"patterns": ()}, InvalidClass),
]
IDS = [type(value).__name__ for value, _, _ in CASES]


def fields(value):
    return {name: getattr(value, name) for name in value.__slots__}


def test_every_value_class_is_covered():
    def subclasses(cls):
        return {cls, *(s for sub in cls.__subclasses__() for s in subclasses(sub))}

    # a class that its module does not name, such as one a doctest defines,
    # is not a library class
    library = {c for c in subclasses(Value) - {Value}
               if getattr(sys.modules[c.__module__], c.__name__, None) is c}
    assert library == {type(value) for value, _, _ in CASES}


@pytest.mark.parametrize("value, bad, error", CASES, ids=IDS)
def test_copies_are_equal_values(value, bad, error):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value),
                 value.replace()):
        assert type(twin) is type(value) and twin == value and fields(twin) == fields(value)
        if isinstance(value, VerifyReport):  # its params are a dict
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(value)
    # equal only to a value of its own class
    assert value != tuple(fields(value).values())


@pytest.mark.parametrize("value, bad, error", CASES, ids=IDS)
def test_every_path_validates(value, bad, error):
    assert issubclass(error, QprojError)
    with pytest.raises(error):
        value.replace(**bad)
    with pytest.raises(error):
        type(value)(**{**fields(value), **bad})

    class Forged:  # pickles as the value with the refused field
        def __reduce__(self):
            return type(value), tuple({**fields(value), **bad}.values())

    with pytest.raises(error):
        pickle.loads(pickle.dumps(Forged()))


@pytest.mark.parametrize("value, bad, error", CASES, ids=IDS)
def test_refuses_assignment_and_deletion(value, bad, error):
    before = fields(value)
    for name in (*value.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert fields(value) == before


@pytest.mark.parametrize("value, bad, error", CASES, ids=IDS)
def test_no_order_and_no_sum_unless_defined(value, bad, error):
    with pytest.raises(TypeError):
        value < value  # noqa: B015
    if not isinstance(value, (RhoVector, K0Vector)):
        with pytest.raises(TypeError):
            value + value  # noqa: B015


def test_report_params_are_a_read_only_copy():
    """A later write to the caller's dict does not reach the record, and a
    write to the record's params is refused; every copy keeps the bytes."""
    import json

    params = {"n": 2, "W": 8}
    report = VerifyReport("demo", params, True, 4, 4)
    params["n"] = 9
    writes = [lambda p: p.__setitem__("n", 9), lambda p: p.__delitem__("n"),
              lambda p: p.update(n=9), lambda p: p.setdefault("k", 1),
              lambda p: p.pop("n"), lambda p: p.popitem(), lambda p: p.clear(),
              lambda p: p.__ior__({"n": 9})]
    for write in writes:
        with pytest.raises(TypeError, match="read-only"):
            write(report.params)
    assert report.params == {"n": 2, "W": 8}
    blob = json.dumps(report.to_json())
    assert blob == ('{"check": "demo", "params": {"n": 2, "W": 8}, "domain_size": 4, '
                    '"image_size": 4, "pass": true, "counterexample": null}')
    for twin in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                 copy.deepcopy(report), report.replace()):
        assert twin == report and json.dumps(twin.to_json()) == blob
        with pytest.raises(TypeError, match="read-only"):
            twin.params["n"] = 9
    assert report.replace(params={"n": 3}).params == {"n": 3}


def test_report_needs_its_params_and_verdict():
    """A record that names no params or no verdict is refused, not passed."""
    with pytest.raises(TypeError):
        VerifyReport("demo")
    with pytest.raises(TypeError):
        VerifyReport("demo", {"n": 2})
