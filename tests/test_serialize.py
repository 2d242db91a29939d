import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import X
from qclock import sampling
from qclock.errors import InputFormatError
from qclock.serialize import (
    array_from_json,
    array_to_json,
    canonical_dumps,
    circuit_from_json,
    circuit_to_json,
    dynamic_from_json,
    dynamic_to_json,
)


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    wire = json.loads(json.dumps(array_to_json(m)))
    back = array_from_json(wire, "m", 2)
    assert np.array_equal(back, m)  # bitwise, not approximate


def test_vector_round_trip_is_bit_exact():
    v = np.array([0.1 + 0.2j, -1 / 3, np.pi * 1j])
    back = array_from_json(json.loads(json.dumps(array_to_json(v))), "v", 1)
    assert np.array_equal(back, v)


def test_seventeen_digit_floats_survive():
    tricky = np.array([[0.1 + 0.3j, 1e-308 + 0j], [5e-324 + 1j, 123456789.123456789]])
    back = array_from_json(json.loads(json.dumps(array_to_json(tricky))), "m", 2)
    assert np.array_equal(back, tricky)


def test_dynamic_generator_round_trip():
    doc = {"N": 2, "dim": 2, "generator": array_to_json(X)}
    d = dynamic_from_json(json.loads(json.dumps(doc)))
    assert d.N == 2 and d.dim == 2
    assert np.array_equal(d.unitaries[1], X)


def test_dynamic_unitaries_round_trip():
    rng = np.random.default_rng(13)
    d = sampling.random_dynamic(3, 2, rng)
    back = dynamic_from_json(json.loads(json.dumps(dynamic_to_json(d))))
    assert np.array_equal(back.unitaries, d.unitaries)


def test_circuit_round_trip():
    c = circuit_from_json({"N": 2, "dim": 2, "gates": [array_to_json(X)] * 2})
    doc = circuit_to_json(c)
    again = circuit_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(again.gates, c.gates)


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"dim": 2}, "N"),
        ({"N": 0, "generator": [[[1, 0]]]}, "N"),
        ({"N": 2}, "generator"),
        ({"N": 2, "generator": [[[1, 0], [0, 0]], [[0, 0]]]}, "generator[1]"),
        ({"N": 2, "generator": [[[1, 0], "x"]]}, "generator[0][1]"),
        ({"N": 2, "dim": 3, "generator": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, "dim"),
        ({"N": 2, "unitaries": []}, "unitaries"),
    ],
)
def test_malformed_dynamic_documents_name_the_field(doc, field):
    with pytest.raises(InputFormatError) as exc:
        dynamic_from_json(doc)
    assert field in str(exc.value)


def test_malformed_circuit_documents():
    with pytest.raises(InputFormatError) as exc:
        circuit_from_json({"N": 3, "gates": [array_to_json(X)] * 2})
    assert "gates" in str(exc.value)


def test_canonical_dumps_sorted_and_stable():
    a = canonical_dumps({"b": 1.5, "a": [True, 0.1]})
    b = canonical_dumps({"a": [True, 0.1], "b": 1.5})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert canonical_dumps({"x": np.float64(0.25)}) == canonical_dumps({"x": 0.25})


# -- the codec: a bit-exact round trip, and an error naming the first bad entry

doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 0.30000000000000004, 2.2250738585072014e-308, 1e308, -1e308]
)
BAD_SCALARS = [float("nan"), float("inf"), float("-inf"), 10**400, "1", None]


@st.composite
def complex_arrays(draw):
    """A complex128 array of 1 to 3 nonempty axes with any finite parts."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    parts = draw(hnp.arrays(np.float64, (*shape, 2), elements=doubles))
    return parts.view(np.complex128)[..., 0]


def _entry_path(index) -> str:
    return "a" + "".join(f"[{i}]" for i in index)


@settings(max_examples=200, deadline=None)
@given(a=complex_arrays())
def test_codec_round_trip_is_bit_exact(a):
    back = array_from_json(json.loads(json.dumps(array_to_json(a))), "a", a.ndim)
    assert back.dtype == np.complex128 and back.shape == a.shape
    assert back.tobytes() == a.tobytes()  # bitwise: -0.0 and subnormals included


@settings(max_examples=300, deadline=None)
@given(a=complex_arrays(), data=st.data())
def test_codec_names_the_first_bad_entry(a, data):
    doc = array_to_json(a)
    index = data.draw(st.tuples(*(st.integers(0, n - 1) for n in a.shape)))
    *outer, last = index
    row = doc
    for i in outer:
        row = row[i]
    kinds = ["scalar", "pair", "three"]
    if a.ndim >= 2 and any(outer):  # a row other than the leftmost, which sets the length
        kinds.append("short row")
    kind = data.draw(st.sampled_from(kinds))
    path = _entry_path(index)
    if kind == "scalar":
        row[last][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(BAD_SCALARS))
    elif kind == "pair":
        row[last] = data.draw(st.sampled_from(BAD_SCALARS))
    elif kind == "three":
        row[last] = [*row[last], 0.0]
    else:
        row.pop()
        path = _entry_path(outer)
    with pytest.raises(InputFormatError) as exc:
        array_from_json(json.loads(json.dumps(doc)), "a", a.ndim)
    assert exc.value.field == path


@settings(max_examples=100, deadline=None)
@given(a=complex_arrays(), data=st.data())
def test_codec_reads_integers_beyond_int64_as_doubles(a, data):
    # numpy keeps 2**64 as a Python object; the walk passes it and it is read as a double
    doc = array_to_json(a)
    index = data.draw(st.tuples(*(st.integers(0, n - 1) for n in a.shape)))
    part = data.draw(st.integers(0, 1))
    entry = doc
    for i in index:
        entry = entry[i]
    entry[part] = 2**64
    back = array_from_json(json.loads(json.dumps(doc)), "a", a.ndim)
    expected = a.copy()
    (expected.real if part == 0 else expected.imag)[index] = float(2**64)
    assert back.tobytes() == expected.tobytes()
