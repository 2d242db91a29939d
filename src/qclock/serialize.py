"""JSON (de)serialisation of states, matrices, dynamics and circuits.

Complex numbers travel as two-element arrays [re, im] and matrices as
row-major nested arrays.  Doubles round-trip bit-exactly: encoding uses
Python's shortest round-trip float repr (at most 17 significant digits).
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from . import linalg
from .dynamics import UnitaryDynamic, dynamic_from_generator
from .errors import InputFormatError
from .feynman import CyclicCircuit, make_circuit
from .linalg import DEFAULT_TOL, Tolerance


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [complex_to_json(z) for z in np.asarray(v, dtype=np.complex128).reshape(-1)]


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=np.complex128)
    return [[complex_to_json(z) for z in row] for row in m]


def _complex_from_json(obj: Any, field: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) for x in obj)
        or not all(abs(x) <= sys.float_info.max for x in obj)  # no NaN, no inf
    ):
        raise InputFormatError(field, f"expected finite [re, im], got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def vector_from_json(obj: Any, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(field, "expected a nonempty array of [re, im] pairs")
    return np.array(
        [_complex_from_json(z, f"{field}[{i}]") for i, z in enumerate(obj)],
        dtype=np.complex128,
    )


def matrix_from_json(obj: Any, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(field, "expected a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise InputFormatError(f"{field}[{i}]", "expected a nonempty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputFormatError(f"{field}[{i}]", "ragged rows")
        rows.append(
            [_complex_from_json(z, f"{field}[{i}][{j}]") for j, z in enumerate(row)]
        )
    return np.array(rows, dtype=np.complex128)


def is_int(val: Any) -> bool:
    """A JSON integer: Python reads true and false as ints, so they are excluded."""
    return isinstance(val, int) and not isinstance(val, bool)


def _require_int(doc: dict, field: str, minimum: int = 1) -> int:
    if field not in doc:
        raise InputFormatError(field, "missing")
    val = doc[field]
    if not is_int(val) or val < minimum:
        raise InputFormatError(field, f"expected an integer >= {minimum}, got {val!r}")
    return val


def dynamic_to_json(d: UnitaryDynamic, generator: np.ndarray | None = None) -> dict:
    if generator is not None:
        return {"N": d.N, "dim": d.dim, "generator": matrix_to_json(generator)}
    return {
        "N": d.N,
        "dim": d.dim,
        "unitaries": [matrix_to_json(u) for u in d.unitaries],
    }


def dynamic_from_json(doc: Any, tol: Tolerance | float = DEFAULT_TOL) -> UnitaryDynamic:
    if not isinstance(doc, dict):
        raise InputFormatError("$", "expected a JSON object")
    N = _require_int(doc, "N")
    if "generator" in doc:
        gen = matrix_from_json(doc["generator"], "generator")
        if gen.shape[0] != gen.shape[1]:
            raise InputFormatError("generator", f"expected square, got {gen.shape}")
        if "dim" in doc and _require_int(doc, "dim") != gen.shape[0]:
            raise InputFormatError("dim", "inconsistent with generator shape")
        if N * gen.size > linalg.max_entries():
            raise InputFormatError(
                "N", f"{N} powers of a {gen.shape[0]}x{gen.shape[0]} generator exceed "
                f"the cap of {linalg.max_entries()} entries"
            )
        return dynamic_from_generator(gen, N, tol)
    if "unitaries" in doc:
        if not isinstance(doc["unitaries"], list) or len(doc["unitaries"]) != N:
            raise InputFormatError("unitaries", f"expected an array of {N} matrices")
        mats = [
            matrix_from_json(u, f"unitaries[{t}]") for t, u in enumerate(doc["unitaries"])
        ]
        dim = mats[0].shape[0]
        for t, u in enumerate(mats):
            if u.shape != (dim, dim):
                raise InputFormatError(f"unitaries[{t}]", f"expected {dim}x{dim}")
        if "dim" in doc and _require_int(doc, "dim") != dim:
            raise InputFormatError("dim", "inconsistent with unitaries shape")
        return UnitaryDynamic(N=N, dim=dim, unitaries=np.stack(mats))
    raise InputFormatError("generator", "need either 'generator' or 'unitaries'")


def circuit_to_json(c: CyclicCircuit) -> dict:
    return {
        "N": c.N,
        "dim": c.dim,
        "gates": [matrix_to_json(g) for g in c.gates],
    }


def circuit_from_json(doc: Any, tol: Tolerance | float = DEFAULT_TOL) -> CyclicCircuit:
    if not isinstance(doc, dict):
        raise InputFormatError("$", "expected a JSON object")
    N = _require_int(doc, "N")
    if "gates" not in doc or not isinstance(doc["gates"], list):
        raise InputFormatError("gates", "missing or not an array")
    if len(doc["gates"]) != N:
        raise InputFormatError("gates", f"expected {N} gates, got {len(doc['gates'])}")
    mats = [matrix_from_json(g, f"gates[{t}]") for t, g in enumerate(doc["gates"])]
    dim = mats[0].shape[0]
    if "dim" in doc and _require_int(doc, "dim") != dim:
        raise InputFormatError("dim", "inconsistent with gate shapes")
    return make_circuit(mats, tol)


def _json_default(obj: Any):
    if isinstance(obj, np.generic):  # numpy scalars (bool_, float64, int64, ...)
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats."""
    return (
        json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_json_default)
        + "\n"
    )
