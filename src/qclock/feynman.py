"""Cyclic circuits as composite dynamics and the clock-register construction.

A cyclic circuit is N unitary gates on a system H whose one-step action on
H (x) T advances the clock and applies the gate of the stage being entered:
|psi, t> -> gates[t+1]|psi> (x) |t+1>.  When the full cycle product is the
identity this step generates a genuine Z/N dynamic on H (x) T, and the
unnormalised history states sum_t psi_t (x) |t> (psi advanced gate by gate)
are exactly the fixed points of the composite evolution, i.e. the ground
space of its spectrum.  ``feynman_check`` verifies this correspondence for
a concrete circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .dynamics import UnitaryDynamic, time_average
from .errors import NotCyclicError, NotUnitaryError, ShapeMismatchError
from .linalg import DEFAULT_TOL, Tolerance, as_tolerance, identity
from .reports import Check, Report


@dataclass(frozen=True)
class CyclicCircuit:
    """N gates on a dim-dimensional system; gates[t] is applied entering stage t."""

    N: int
    dim: int
    gates: np.ndarray  # shape (N, dim, dim)


def make_circuit(
    gates: Sequence[np.ndarray], tol: Tolerance | float = DEFAULT_TOL
) -> CyclicCircuit:
    """Bundle gates into a circuit, checking shape and, for all gates at once, unitarity."""
    mats = [linalg.as_matrix(g) for g in gates]
    if not mats:
        raise ValueError("a circuit needs at least one gate")
    dim = mats[0].shape[0]
    for i, g in enumerate(mats):
        if g.shape != (dim, dim):
            raise ShapeMismatchError(f"gate {i} has shape {g.shape}, expected {(dim, dim)}")
    stack = np.stack(mats)
    errs = linalg.unitarity_residual(stack)
    bad = np.flatnonzero(errs > as_tolerance(tol).eps)
    if bad.size:
        raise NotUnitaryError(f"gate {bad[0]} is not unitary, max error {errs[bad[0]]:.3e}")
    return CyclicCircuit(N=len(mats), dim=dim, gates=stack)


def cycle_product(c: CyclicCircuit) -> np.ndarray:
    """Product of all gates along one full cycle starting from stage 0."""
    prod = identity(c.dim)
    for t in range(1, c.N + 1):
        prod = c.gates[t % c.N] @ prod
    return prod


def _cycle_defect(c: CyclicCircuit) -> float:
    """Largest entry of the cycle product minus the identity."""
    return linalg.max_abs_diff(cycle_product(c), identity(c.dim))


def _require_cyclic(c: CyclicCircuit, tol: Tolerance | float) -> None:
    err = _cycle_defect(c)
    if err > as_tolerance(tol).eps:
        raise NotCyclicError(
            f"cycle product differs from identity by {err:.3e}; "
            "extend the circuit (e.g. with cyclify) first"
        )


def _running_products(c: CyclicCircuit):
    """For s = 0, ..., N-1: the rows t+s mod N and carried[t] = gates[t+s] ... gates[t+1]."""
    t = np.arange(c.N)
    carried = np.broadcast_to(identity(c.dim), (c.N, c.dim, c.dim))
    for s in range(c.N):
        yield (t + s) % c.N, carried
        carried = c.gates[(t + s + 1) % c.N] @ carried


def _composite(c: CyclicCircuit) -> UnitaryDynamic:
    """U_s on H (x) T: block (t+s mod N, t) holds gates[t+s] ... gates[t+1]."""
    N, dim = c.N, c.dim
    linalg.check_entries(N * dim * N, dim * N)
    stack = np.zeros((N, dim, N, dim, N), dtype=np.complex128)  # [s, h', t', h, t]
    t = np.arange(N)
    for s, (rows, carried) in enumerate(_running_products(c)):
        stack[s, :, rows, :, t] = carried
    return UnitaryDynamic(N=N, dim=dim * N, unitaries=stack.reshape(N, dim * N, dim * N))


def _composite_average(c: CyclicCircuit) -> np.ndarray:
    """(1/N) sum_s U_s, block by block: each block (t', t) is one carried product over N."""
    N, dim = c.N, c.dim
    linalg.check_entries(dim * N, dim * N)
    average = np.zeros((dim, N, dim, N), dtype=np.complex128)  # [h', t', h, t]
    t = np.arange(N)
    for rows, carried in _running_products(c):
        average[:, rows, :, t] = carried / N
    return average.reshape(dim * N, dim * N)


def composite_dynamic(
    c: CyclicCircuit, tol: Tolerance | float = DEFAULT_TOL
) -> UnitaryDynamic:
    """The Z/N dynamic on H (x) T: U_s|psi, t> = gates[t+s] ... gates[t+1]|psi> (x) |t+s>.

    Built from the gates at O(N^2 dim^3): ``make_circuit`` checked their
    unitarity and the cycle is checked here, so nothing is checked twice.
    """
    _require_cyclic(c, tol)
    return _composite(c)


def cyclify(
    gates: Sequence[np.ndarray], tol: Tolerance | float = DEFAULT_TOL
) -> CyclicCircuit:
    """Extend n gates to a 2n-stage cycle by appending their adjoints in reverse."""
    mats = [linalg.as_matrix(g) for g in gates]
    if not mats:
        raise ValueError("cyclify needs at least one gate")
    extended = mats + [g.conj().T for g in reversed(mats)]
    return make_circuit(extended, tol)


def history_state(
    c: CyclicCircuit, psi0, tol: Tolerance | float = DEFAULT_TOL
) -> np.ndarray:
    """Unnormalised sum_t psi_t (x) |t> with psi_t = gates[t] psi_{t-1}."""
    psi0 = linalg.as_state(psi0, c.dim, "circuit")
    _require_cyclic(c, tol)
    return _history(c, psi0)


def _history(c: CyclicCircuit, psi0: np.ndarray) -> np.ndarray:
    cols = np.empty((c.dim, c.N), dtype=np.complex128)
    cols[:, 0] = psi0
    for t in range(1, c.N):
        cols[:, t] = c.gates[t] @ cols[:, t - 1]
    return cols.reshape(-1)  # index = h * N + t


def ground_space(d: UnitaryDynamic) -> np.ndarray:
    """Orthonormal basis (columns) of the joint fixed points: the time average's range."""
    return linalg.orthonormal_range(time_average(d))


def feynman_check(
    c: CyclicCircuit, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """Verify that history states and composite ground states coincide.

    Checks that the cycle product is the identity, that every basis history
    state lies in the ground space of the composite dynamic, that the ground
    space lies in the span of the history states, and that the ground space
    has dimension equal to the system dimension.  The facts state
    ``cyclic``, ``ground_dim``, ``expected_dim`` and ``max_residual`` (the
    cycle defect of a non-cyclic circuit, else the worse span residual).
    """
    eps = as_tolerance(tol).eps
    title = f"Feynman clock construction (N={c.N}, dim={c.dim})"
    defect = _cycle_defect(c)
    cycle = Check("cycle_product_is_identity", defect, eps)
    facts = {"cyclic": cycle.passed, "ground_dim": 0, "expected_dim": c.dim, "max_residual": defect}
    if not cycle.passed:
        return Report(
            title,
            (cycle,),
            notes=("not cyclic: the composite dynamic and its histories are undefined",),
            facts=facts,
        )
    q = linalg.orthonormal_range(_composite_average(c))  # the ground space

    histories = np.column_stack(
        [_history(c, linalg.basis_vector(c.dim, i)) for i in range(c.dim)]
    )
    histories = histories / np.linalg.norm(histories, axis=0)

    residual = float(np.max(np.linalg.norm(histories - q @ (q.conj().T @ histories), axis=0)))
    h_basis = linalg.orthonormal_range(histories)
    back = float(
        np.max(np.linalg.norm(q - h_basis @ (h_basis.conj().T @ q), axis=0))
    ) if q.shape[1] else 0.0

    checks = (
        cycle,
        Check("histories_in_ground_space", residual, eps),
        Check("ground_space_in_history_span", back, eps),
        Check("ground_dim_equals_system_dim", float(abs(q.shape[1] - c.dim)), 0.0),
    )
    facts.update(ground_dim=q.shape[1], max_residual=max(residual, back))
    return Report(title, checks, facts=facts)


def stationarity_check(
    c: CyclicCircuit, psi0, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """History states are fixed by every composite power U_s.

    Block t+s of U_s h is carried[t] psi_t (``_running_products``), so the
    largest entry of U_s h - h is read block by block; no composite is built.
    """
    eps = as_tolerance(tol).eps
    psi = history_state(c, psi0, tol).reshape(c.dim, c.N).T  # psi[t] = psi_t
    err = max(
        linalg.max_abs_diff(np.einsum("tij,tj->ti", carried, psi), psi[rows])
        for rows, carried in _running_products(c)
    )
    return Report(
        title=f"history-state stationarity (N={c.N}, dim={c.dim})",
        checks=(Check("fixed_by_all_powers", err, eps),),
    )
