"""Cyclic circuits as composite dynamics and the clock-register construction.

A cyclic circuit is N unitary gates on a system H whose one-step action on
H (x) T advances the clock and applies the gate of the stage being entered:
|psi, t> -> gates[t+1]|psi> (x) |t+1>.  When the full cycle product is the
identity this step generates a genuine Z/N dynamic on H (x) T, and the
unnormalised history states sum_t psi_t (x) |t> (psi advanced gate by gate)
are exactly the fixed points of the composite evolution, i.e. the ground
space of its spectrum.  A fixed point is the history of its stage-0 block
h_0, and h_0 must satisfy C h_0 = h_0 for C the cycle product, so
``feynman_check`` reads the ground space off the dim x dim matrix C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .dynamics import UnitaryDynamic
from .errors import NotCyclicError, NotUnitaryError, ShapeMismatchError
from .linalg import DEFAULT_TOL, SUPPORT_THRESHOLD, Tolerance, as_tolerance, identity
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


def _require_cyclic(c: CyclicCircuit, tol: Tolerance | float) -> None:
    err = linalg.max_abs_diff(cycle_product(c), identity(c.dim))
    if err > as_tolerance(tol).eps:
        raise NotCyclicError(
            f"cycle product differs from identity by {err:.3e}; "
            "extend the circuit (e.g. with cyclify) first"
        )


def _composite(c: CyclicCircuit) -> UnitaryDynamic:
    """U_s on H (x) T: block (t+s mod N, t) holds gates[t+s] ... gates[t+1]."""
    N, dim = c.N, c.dim
    linalg.check_entries(N * dim * N, dim * N)
    stack = np.zeros((N, dim, N, dim, N), dtype=np.complex128)  # [s, h', t', h, t]
    t = np.arange(N)
    carried = np.broadcast_to(identity(dim), (N, dim, dim))
    for s in range(N):
        stack[s, :, (t + s) % N, :, t] = carried
        carried = c.gates[(t + s + 1) % N] @ carried
    return UnitaryDynamic(N=N, dim=dim * N, unitaries=stack.reshape(N, dim * N, dim * N))


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


def feynman_check(
    c: CyclicCircuit, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """Verify that the composite ground space is the span of the history states.

    U_1 advances blocks 1..N-1 of a history exactly and maps its block 0 by
    the cycle product C, so the ground space is the histories of ker(C - I).
    The report checks that C is the identity and that ker(C - I), judged at
    ``SUPPORT_THRESHOLD``, has dimension dim; the second check runs only
    when the first passes.  The facts state ``cyclic``, ``ground_dim`` (0
    for a circuit that is not cyclic) and ``expected_dim``.  Nothing larger
    than C is built.
    """
    eps = as_tolerance(tol).eps
    title = f"Feynman clock construction (N={c.N}, dim={c.dim})"
    product, eye = cycle_product(c), identity(c.dim)
    cycle = Check("cycle_product_is_identity", linalg.max_abs_diff(product, eye), eps)
    facts = {"cyclic": cycle.passed, "ground_dim": 0, "expected_dim": c.dim}
    if not cycle.passed:
        return Report(
            title,
            (cycle,),
            notes=("not cyclic: the composite dynamic and its histories are undefined",),
            facts=facts,
        )
    ground_dim = c.dim - int(np.linalg.matrix_rank(product - eye, tol=SUPPORT_THRESHOLD))
    facts["ground_dim"] = ground_dim
    checks = (cycle, Check("ground_dim_equals_system_dim", float(c.dim - ground_dim), 0.0))
    return Report(title, checks, facts=facts)
