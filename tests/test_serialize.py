import json

import numpy as np
import pytest

from conftest import X
from qclock import sampling
from qclock.errors import InputFormatError
from qclock.serialize import (
    canonical_dumps,
    circuit_from_json,
    circuit_to_json,
    dynamic_from_json,
    dynamic_to_json,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    wire = json.loads(json.dumps(matrix_to_json(m)))
    back = matrix_from_json(wire, "m")
    assert np.array_equal(back, m)  # bitwise, not approximate


def test_vector_round_trip_is_bit_exact():
    v = np.array([0.1 + 0.2j, -1 / 3, np.pi * 1j])
    back = vector_from_json(json.loads(json.dumps(vector_to_json(v))), "v")
    assert np.array_equal(back, v)


def test_seventeen_digit_floats_survive():
    tricky = np.array([[0.1 + 0.3j, 1e-308 + 0j], [5e-324 + 1j, 123456789.123456789]])
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(tricky))), "m")
    assert np.array_equal(back, tricky)


def test_dynamic_generator_round_trip():
    doc = {"N": 2, "dim": 2, "generator": matrix_to_json(X)}
    d = dynamic_from_json(json.loads(json.dumps(doc)))
    assert d.N == 2 and d.dim == 2
    assert np.array_equal(d.unitaries[1], X)


def test_dynamic_unitaries_round_trip():
    rng = np.random.default_rng(13)
    d = sampling.random_dynamic(3, 2, rng)
    back = dynamic_from_json(json.loads(json.dumps(dynamic_to_json(d))))
    assert np.array_equal(back.unitaries, d.unitaries)


def test_circuit_round_trip():
    c = circuit_from_json({"N": 2, "dim": 2, "gates": [matrix_to_json(X)] * 2})
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
        circuit_from_json({"N": 3, "gates": [matrix_to_json(X)] * 2})
    assert "gates" in str(exc.value)


def test_canonical_dumps_sorted_and_stable():
    a = canonical_dumps({"b": 1.5, "a": [True, 0.1]})
    b = canonical_dumps({"a": [True, 0.1], "b": 1.5})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert canonical_dumps({"x": np.float64(0.25)}) == canonical_dumps({"x": 0.25})
