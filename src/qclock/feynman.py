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
from .dynamics import UnitaryDynamic, dynamic_from_generator, time_average
from .errors import NotCyclicError, NotUnitaryError, ShapeMismatchError
from .linalg import DEFAULT_TOL, Tolerance, as_tolerance, identity
from .reports import Check, Report


@dataclass(frozen=True)
class CyclicCircuit:
    """N gates on a dim-dimensional system; gates[t] is applied entering stage t."""

    N: int
    dim: int
    gates: np.ndarray  # shape (N, dim, dim)


@dataclass(frozen=True)
class GroundSpace:
    """Orthonormal basis (columns) of the joint fixed-point space."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, k)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def make_circuit(
    gates: Sequence[np.ndarray], tol: Tolerance | float = DEFAULT_TOL
) -> CyclicCircuit:
    """Bundle gates into a circuit, checking shape and unitarity."""
    mats = [linalg.as_matrix(g) for g in gates]
    if not mats:
        raise ValueError("a circuit needs at least one gate")
    dim = mats[0].shape[0]
    for i, g in enumerate(mats):
        if g.shape != (dim, dim):
            raise ShapeMismatchError(f"gate {i} has shape {g.shape}, expected {(dim, dim)}")
        ok, err = linalg.is_unitary(g, tol)
        if not ok:
            raise NotUnitaryError(f"gate {i} is not unitary, max error {err:.3e}")
    return CyclicCircuit(N=len(mats), dim=dim, gates=np.stack(mats))


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


def composite_step(c: CyclicCircuit) -> np.ndarray:
    """One-step generator on H (x) T: block (t+1 mod N, t) holds gates[t+1]."""
    N, dim = c.N, c.dim
    linalg.check_entries(dim * N, dim * N)
    w = np.zeros((dim, N, dim, N), dtype=np.complex128)
    for t in range(N):
        w[:, (t + 1) % N, :, t] = c.gates[(t + 1) % N]
    return w.reshape(dim * N, dim * N)


def composite_dynamic(
    c: CyclicCircuit, tol: Tolerance | float = DEFAULT_TOL
) -> UnitaryDynamic:
    """The Z/N dynamic on H (x) T generated by the one-step action."""
    _require_cyclic(c, tol)
    return dynamic_from_generator(composite_step(c), c.N, tol)


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
    psi0 = linalg.as_vector(psi0)
    if psi0.shape[0] != c.dim:
        raise ShapeMismatchError(f"state of dim {psi0.shape[0]}, circuit on dim {c.dim}")
    _require_cyclic(c, tol)
    return _history(c, psi0)


def _history(c: CyclicCircuit, psi0: np.ndarray) -> np.ndarray:
    cols = np.empty((c.dim, c.N), dtype=np.complex128)
    cols[:, 0] = psi0
    for t in range(1, c.N):
        cols[:, t] = c.gates[t] @ cols[:, t - 1]
    return cols.reshape(-1)  # index = h * N + t


def ground_space(d: UnitaryDynamic) -> GroundSpace:
    """Joint fixed points of the family, from the range of the time average."""
    return GroundSpace(ambient_dim=d.dim, basis=linalg.orthonormal_range(time_average(d)))


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
    gs = ground_space(dynamic_from_generator(composite_step(c), c.N, tol))
    q = gs.basis

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
        Check("ground_dim_equals_system_dim", float(abs(gs.dim - c.dim)), 0.0),
    )
    facts.update(ground_dim=gs.dim, max_residual=max(residual, back))
    return Report(title, checks, facts=facts)


def stationarity_check(
    c: CyclicCircuit, psi0, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """History states are fixed by every composite power."""
    eps = as_tolerance(tol).eps
    h = history_state(c, psi0, tol)  # checks the cycle, so composite_dynamic is not needed
    comp = dynamic_from_generator(composite_step(c), c.N, tol)
    err = max(
        linalg.max_abs_diff(comp.unitaries[t] @ h, h) for t in range(comp.N)
    )
    return Report(
        title=f"history-state stationarity (N={c.N}, dim={c.dim})",
        checks=(Check("fixed_by_all_powers", err, eps),),
    )
