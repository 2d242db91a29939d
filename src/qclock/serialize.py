"""JSON (de)serialisation of states, matrices, dynamics, circuits and sync documents.

A complex array travels as row-major nested arrays with one [re, im] pair
per entry: ``array_to_json`` writes it and ``array_from_json`` reads it.
Doubles round-trip bit-exactly: encoding uses Python's shortest round-trip
float repr (at most 17 significant digits).
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
from .linalg import DEFAULT_TOL, ZERO_NORM, Tolerance


def array_to_json(a) -> list:
    """A complex array as nested lists, one level per axis, of [re, im] pairs."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def array_from_json(obj: Any, field: str, ndim: int) -> np.ndarray:
    """obj as a complex array of ndim nonempty axes, each entry a finite [re, im] pair.

    One ``np.array`` call reads the document and its last axis is viewed as
    complex128, so each double is the one ``json`` read, -0.0 included.  A
    document numpy does not read so is walked to name its first bad entry;
    the only ones the walk passes hold finite integers beyond int64, which
    numpy keeps as Python objects, and they are read as doubles.
    """
    try:
        a = np.array(obj)
    except ValueError:  # ragged, or nested deeper than numpy reads
        a = np.array(None)
    read = a.dtype.kind in "biuf" and a.shape[ndim:] == (2,) and a.size > 0
    if not (read and np.isfinite(a).all()):
        _require_pairs(obj, field, [0] * ndim, ndim)
    return a.astype(np.float64, copy=False).view(np.complex128)[..., 0]


def _require_pairs(obj: Any, field: str, lengths: list[int], axes: int) -> None:
    """Raise InputFormatError at the first entry, depth first, of obj that breaks an
    array of ``axes`` more nonempty axes of finite [re, im] pairs.  ``lengths``
    holds the length of every axis, set by the leftmost path (0 until then)."""
    if axes == 0:
        if not (
            isinstance(obj, (list, tuple))
            and len(obj) == 2
            and all(isinstance(x, (int, float)) and abs(x) <= sys.float_info.max for x in obj)
        ):  # no NaN, no inf
            raise InputFormatError(field, f"expected finite [re, im], got {obj!r}")
        return
    if not isinstance(obj, (list, tuple)) or not obj:
        raise InputFormatError(field, "expected a nonempty array")
    depth = len(lengths) - axes
    lengths[depth] = lengths[depth] or len(obj)
    if len(obj) != lengths[depth]:
        raise InputFormatError(field, f"expected length {lengths[depth]}, got {len(obj)}")
    for i, x in enumerate(obj):
        _require_pairs(x, f"{field}[{i}]", lengths, axes - 1)


def is_int(val: Any) -> bool:
    """A JSON integer: Python reads true and false as ints, so they are excluded."""
    return isinstance(val, int) and not isinstance(val, bool)


def _require_int(doc: dict, field: str) -> int:
    if field not in doc:
        raise InputFormatError(field, "missing")
    val = doc[field]
    if not is_int(val) or val < 1:
        raise InputFormatError(field, f"expected an integer >= 1, got {val!r}")
    return val


def _matrix_stack(doc: dict, field: str) -> np.ndarray:
    """doc[field] as a stack of doc["N"] square matrices of one shape, matching doc["dim"]."""
    N, mats = _require_int(doc, "N"), doc.get(field)
    if not isinstance(mats, list) or len(mats) != N:
        raise InputFormatError(field, f"expected an array of {N} matrices")
    stack = array_from_json(mats, field, 3)
    _, dim, cols = stack.shape
    if cols != dim:
        raise InputFormatError(f"{field}[0]", f"expected {dim}x{dim}")
    if "dim" in doc and _require_int(doc, "dim") != dim:
        raise InputFormatError("dim", f"inconsistent with {field} shape")
    return stack


def dynamic_to_json(d: UnitaryDynamic) -> dict:
    return {
        "N": d.N,
        "dim": d.dim,
        "unitaries": array_to_json(d.unitaries),
    }


def dynamic_from_json(doc: Any, tol: Tolerance | float = DEFAULT_TOL) -> UnitaryDynamic:
    if not isinstance(doc, dict):
        raise InputFormatError("$", "expected a JSON object")
    N = _require_int(doc, "N")
    if "generator" in doc:
        gen = array_from_json(doc["generator"], "generator", 2)
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
        stack = _matrix_stack(doc, "unitaries")
        return UnitaryDynamic(N=N, dim=stack.shape[1], unitaries=stack)
    raise InputFormatError("generator", "need either 'generator' or 'unitaries'")


def circuit_to_json(c: CyclicCircuit) -> dict:
    return {
        "N": c.N,
        "dim": c.dim,
        "gates": array_to_json(c.gates),
    }


def circuit_from_json(doc: Any, tol: Tolerance | float = DEFAULT_TOL) -> CyclicCircuit:
    if not isinstance(doc, dict):
        raise InputFormatError("$", "expected a JSON object")
    return make_circuit(_matrix_stack(doc, "gates"), tol)


def sync_from_json(doc: Any, tol: Tolerance | float = DEFAULT_TOL):
    """A sync document as (dynamics, states, chi, measure entries), every field checked."""
    if not isinstance(doc, dict):
        raise InputFormatError("$", "expected a JSON object")
    if "systems" not in doc or not isinstance(doc["systems"], list) or not doc["systems"]:
        raise InputFormatError("systems", "expected a nonempty array")
    N = _require_int(doc, "N")
    chi = doc.get("chi", 0)
    if not is_int(chi) or not (0 <= chi < N):
        raise InputFormatError("chi", f"expected an integer in [0, {N})")
    ds, psis = [], []
    for i, entry in enumerate(doc["systems"]):
        if not isinstance(entry, dict):
            raise InputFormatError(f"systems[{i}]", "expected an object")
        sub = dict(entry)
        sub["N"] = N
        psi_doc = sub.pop("psi", None)
        if psi_doc is None:
            raise InputFormatError(f"systems[{i}].psi", "missing")
        d = dynamic_from_json(sub, tol)
        psi = array_from_json(psi_doc, f"systems[{i}].psi", 1)
        if psi.shape[0] != d.dim:
            raise InputFormatError(f"systems[{i}].psi", f"expected dim {d.dim}")
        if np.linalg.norm(psi) <= ZERO_NORM:
            raise InputFormatError(f"systems[{i}].psi", "zero norm; not a state")
        ds.append(d)
        psis.append(psi)
    measures = doc.get("measure", [])
    if not isinstance(measures, list):
        raise InputFormatError("measure", "expected an array")
    for i, mdoc in enumerate(measures):
        if not isinstance(mdoc, dict):
            raise InputFormatError(f"measure[{i}]", "expected {'system': int, 'energy': int}")
        for key in ("system", "energy"):
            if not is_int(mdoc.get(key)):
                raise InputFormatError(f"measure[{i}].{key}", "missing or not an integer")
        if len(ds) < 2:
            raise InputFormatError(f"measure[{i}]", "needs at least two systems")
        if not (0 <= mdoc["system"] < len(ds)):
            raise InputFormatError(f"measure[{i}].system", "index out of range")
        if not (0 <= mdoc["energy"] < N):
            raise InputFormatError(f"measure[{i}].energy", f"outside [0, {N})")
    return ds, psis, chi, measures


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
