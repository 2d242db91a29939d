"""Clock-system synchronisation, energy conservation, internal clocks.

A system evolving under a dynamic can be entangled with its clock as the
unnormalised state sum_t U_t|psi> (x) |t>; reading the clock at t collapses
the system onto the trajectory point U_t|psi>.  Projecting the clock onto
an energy level instead leaves several systems sharing one clock in a
superposition with fixed *total* energy, and measuring one system's energy
subtracts from the total carried by the rest.  When a system's own energy
image forms a subgroup {0, g, 2g, ...} of Z/N it supports an internal time
basis realising the quotient clock Z/m, onto which the external dynamic of
a partner system descends.

Every function here reads a dynamic's spectrum as ``d.spectrum``, which is
computed once per dynamic and shared by all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .clock import ClockStructures, Table, residual
from .dynamics import UnitaryDynamic, validate_dynamic
from .errors import (
    AxiomsViolatedError,
    DegenerateError,
    NotASubgroupError,
    OrthogonalEigenstateError,
    ShapeMismatchError,
)
from .histories import _components, history_from_state
from .linalg import DEFAULT_TOL, ZERO_NORM, Tolerance, as_tolerance
from .reports import Check, Report


@dataclass(frozen=True)
class MeasureResult:
    amplitudes: np.ndarray
    overlap: complex
    residual: float


@dataclass(frozen=True)
class InternalClockDescriptor:
    """Energy image of a non-degenerate dynamic and its quotient-clock data.

    ``energies`` is the sorted energy image; when it is the subgroup
    generated by g = N/m, ``basis`` holds the m internal time states as
    columns and ``permutation_error`` the observed deviation of U_1 from
    cyclically advancing them.
    """

    N: int
    energies: tuple[int, ...]
    subgroup_generator: int
    internal_size: int
    basis: np.ndarray
    permutation_error: float


def synchronized_pair(d: UnitaryDynamic, psi) -> np.ndarray:
    """The unnormalised entangled state sum_t (U_t psi) (x) |t>, at index h * N + t."""
    return history_from_state(d, psi).states.T.reshape(-1)


def conundrum_check(
    d: UnitaryDynamic, cs: ClockStructures, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """Clock-time projectors commute with system-energy projectors on H (x) T.

    The time projectors Q_t are the blocks of the tick observable,
    Q_t[a, b] = copy[a*N + t, b], one entry per copy input b.  Each
    commutator [P_E (x) I, I (x) Q_t] is evaluated in factored form, as
    P_E (x) Q_t and Q_t (x) P_E on those entries (elsewhere both are 0);
    it vanishes for any P_E and Q_t, so the completeness of both families
    is what the report can fail on.
    """
    if d.N != cs.N:
        raise ShapeMismatchError(f"dynamic over Z/{d.N} but clock of size {cs.N}")
    eps = as_tolerance(tol).eps
    N, c, spec = d.N, cs.time_copy, d.spectrum

    comm = 0.0
    for p in spec.projectors:
        energy_first = np.multiply.outer(p, c.value)  # [h, h', b]
        time_first = np.multiply.outer(c.value, p).transpose(1, 2, 0)
        comm = max(comm, linalg.max_abs_diff(energy_first, time_first))

    time_sum = Table(c.target // N, c.value)  # sum_t Q_t: b to the first leg of copy b
    return Report(
        title=f"simultaneous time/energy measurability (N={N}, dim={d.dim})",
        checks=(
            Check("commutators", comm, eps),
            Check("energy_completeness", spec.completeness, eps),
            Check("time_completeness", residual(time_sum, Table.identity(N)), eps),
        ),
    )


def _energy_convolution(comps: Sequence[np.ndarray], ds: Sequence[UnitaryDynamic]) -> np.ndarray:
    """acc[e] = sum over supported E_1..E_M, sum E_j = e (mod N), of (x)_j comps[j][E_j].

    A cyclic convolution over the energy axis, one system at a time: each
    supported label b of the next system adds acc[e - b] (x) comps[j][b].
    The result has shape (N, prod dim_j).
    """
    N = comps[0].shape[0]
    acc = np.zeros((N, 1), dtype=np.complex128)
    acc[0, 0] = 1.0
    for c, d in zip(comps, ds):
        nxt = np.zeros((N, acc.shape[1], c.shape[1]), dtype=np.complex128)
        for b in d.spectrum.support:
            nxt += np.roll(acc, b, axis=0)[:, :, None] * c[b]
        acc = nxt.reshape(N, -1)
    return acc


class EnergyFamily:
    """The synchronised family of M systems sharing a clock, at total energy chi.

    Each system's spectrum is read from its dynamic.  ``amplitudes`` holds the
    family, sum over (E_1..E_M) with sum E_j = chi (mod N) of (x)_j P_{E_j} psi_j,
    built by cyclic convolution over energy at O(M N^2 D) for D the product
    of the system dims; ``measure`` contracts one factor of it.  No array
    beyond N x D is built.
    """

    def __init__(self, ds: Sequence[UnitaryDynamic], psis: Sequence, chi: int):
        if not ds:
            raise ValueError("family needs at least one system")
        N = ds[0].N
        if any(d.N != N for d in ds):
            raise ShapeMismatchError("all family members must share the clock size N")
        if not (0 <= chi < N):
            raise ValueError(f"total energy {chi} outside [0, {N})")
        if len(psis) != len(ds):
            raise ShapeMismatchError(f"{len(ds)} dynamics but {len(psis)} states")
        self.ds, self.chi = tuple(ds), chi
        self.psis = tuple(linalg.as_state(psi, d.dim, "dynamic") for d, psi in zip(ds, psis))
        linalg.check_entries(N, math.prod(d.dim for d in self.ds))
        # comps[j][E] = P_E psi_j, of shape (N, dim_j)
        self.comps = tuple(_components(d.spectrum, psi) for d, psi in zip(self.ds, self.psis))
        self.amplitudes = _energy_convolution(self.comps, self.ds)[chi]

    def measure(self, j: int, Eprime: int) -> MeasureResult:
        """Measure member j, in [0, M), at energy Eprime.

        Contracting factor j of ``amplitudes`` with the (rank-1) eigenstate at
        Eprime must leave, up to the returned overlap, the family of the
        remaining systems with total energy chi - Eprime mod N, which is
        convolved afresh from their components.
        """
        M, N = len(self.ds), self.ds[0].N
        if not (0 <= j < M):
            raise ValueError(f"member {j} outside [0, {M})")
        if M < 2:
            raise ValueError("measuring a member needs another member to remain")
        E = Eprime % N
        spec = self.ds[j].spectrum
        rank = spec.ranks.get(E, 0)
        if rank != 1:
            raise DegenerateError(f"system {j} has rank-{rank} projector at energy {Eprime}")
        W, labels = spec.eigenbasis
        phi = W[:, int(np.searchsorted(labels, E))]
        overlap = complex(np.vdot(phi, self.comps[j][E]))
        if abs(overlap) <= ZERO_NORM:
            raise OrthogonalEigenstateError(
                f"eigenstate at energy {Eprime} is orthogonal to the state of system {j}"
            )
        rest = [i for i in range(M) if i != j]
        factors = self.amplitudes.reshape([d.dim for d in self.ds])
        contracted = np.tensordot(phi.conj(), factors, axes=([0], [j])).reshape(-1)
        expected = _energy_convolution(
            [self.comps[i] for i in rest], [self.ds[i] for i in rest]
        )[(self.chi - E) % N]
        return MeasureResult(contracted, overlap, _proportionality_residual(contracted, expected))


def synchronized_family(ds: Sequence[UnitaryDynamic], psis: Sequence, chi: int) -> EnergyFamily:
    """The synchronised family of ``ds`` in states ``psis`` at total energy chi mod N."""
    return EnergyFamily(ds, psis, chi)


def _proportionality_residual(a: np.ndarray, b: np.ndarray) -> float:
    """|a - b <b,a> / |b|^2| / |a|, the sine of the angle between a and b.

    It reads a's relative deviation from b's span at its size, where 1 - cos
    would read its square over 2; 0 if both vanish, 1 if one does.
    """
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na <= ZERO_NORM and nb <= ZERO_NORM:
        return 0.0
    if na <= ZERO_NORM or nb <= ZERO_NORM:
        return 1.0
    return float(np.linalg.norm(a - b * (np.vdot(b, a) / nb**2))) / na


def _degeneracy(d: UnitaryDynamic) -> int:
    """Zero iff there are dim levels, all of rank 1; else a positive count.

    For a genuine spectrum this is dim minus the number of levels.
    """
    spec = d.spectrum
    off_rank = sum(r != 1 for r in spec.ranks.values())
    return max(abs(spec.dim - len(spec.support)), off_rank)


def _subgroup_gap(energies: Sequence[int], N: int) -> int:
    """Labels of the subgroup of Z/N the energies generate that they miss."""
    return N // math.gcd(N, *energies) - len(energies)


def demolition_hamiltonian(d: UnitaryDynamic) -> list[tuple[np.ndarray, int]]:
    """One normalised eigenvector per supported energy, labels injective."""
    if _degeneracy(d):
        raise DegenerateError("dynamic has a degenerate energy level")
    W, labels = d.spectrum.eigenbasis
    return [(W[:, k], int(E)) for k, E in enumerate(labels)]


def internal_time_observable(d: UnitaryDynamic) -> InternalClockDescriptor:
    """Internal time basis of a non-degenerate dynamic, if one exists.

    The energy image must be the subgroup {0, g, ..., (m-1)g} of Z/N with
    g = N/m.  The internal time states are the quotient-Fourier combinations

        |tau> = (1/sqrt(m)) sum_k exp(2*pi*i*k*tau/m) v_{k g},

    which the one-step translation U_1 advances cyclically, tau -> tau + 1,
    carrying external time onto the internal clock Z/m; how far it misses
    is ``permutation_error``, which ``internal_time_check`` judges.
    """
    pairs = demolition_hamiltonian(d)
    energies = tuple(E for _, E in pairs)
    m = len(energies)
    N = d.N
    if _subgroup_gap(energies, N):
        raise NotASubgroupError(energies, N)
    g = N // m

    vs = np.column_stack([v for v, _ in pairs])  # column k is v_{k g}
    k = np.arange(m)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / m) / np.sqrt(m)
    basis = vs @ fourier  # column tau is the internal time state |tau>

    u1 = d.unitaries[1 % N]
    perm_err = float(np.max(np.abs(u1 @ basis - np.roll(basis, -1, axis=1))))
    return InternalClockDescriptor(
        N=N,
        energies=energies,
        subgroup_generator=g,
        internal_size=m,
        basis=basis,
        permutation_error=perm_err,
    )


def internal_time_check(d: UnitaryDynamic, tol: Tolerance | float = DEFAULT_TOL) -> Report:
    """Whether a dynamic carries an internal clock, as a report.

    Each check runs only when the ones before it pass: the spectrum is
    non-degenerate (error: dim minus the number of levels), its
    energy image is a subgroup of Z/N (error: labels of the generated
    subgroup it misses), and U_1 advances the internal time states within
    tolerance.  The facts are ``N``, ``nondegenerate``, ``subgroup`` and,
    once known, ``energies``, ``g``, ``m`` and ``permutation_error``.
    """
    spec = d.spectrum
    degeneracy = _degeneracy(d)
    checks = [Check("nondegenerate_spectrum", float(degeneracy), 0.0)]
    facts = {"N": d.N, "nondegenerate": degeneracy == 0, "subgroup": False}
    if degeneracy == 0:
        gap = _subgroup_gap(spec.support, d.N)
        checks.append(Check("energy_image_is_subgroup", float(gap), 0.0))
        facts["energies"] = list(spec.support)
        if gap == 0:
            desc = internal_time_observable(d)
            err = desc.permutation_error
            checks.append(Check("one_step_advances_internal_time", err, as_tolerance(tol).eps))
            g, m = desc.subgroup_generator, desc.internal_size
            facts.update(subgroup=True, g=g, m=m, permutation_error=err)
    title = f"internal time observable (N={d.N}, dim={d.dim})"
    return Report(title, tuple(checks), facts=facts)


def dynamic_descent(
    dG: UnitaryDynamic,
    dH: UnitaryDynamic,
    chi: int,
    tol: Tolerance | float = DEFAULT_TOL,
) -> UnitaryDynamic:
    """Let a system with an internal clock govern a partner system.

    With both systems synchronised at total energy chi and the internal
    system prepared at its initial time, conditioning on internal time tau
    evolves the partner by

        V_tau = m * sum_k <tau| P_{k g} |0>_int * P^H_{(chi - k g) mod N},

    a Z/m-indexed family.  The family is gated through the dynamic axioms;
    incompatible energy supports surface as an axioms violation.
    """
    if dG.N != dH.N:
        raise ShapeMismatchError(f"clock sizes differ: {dG.N} vs {dH.N}")
    if not (0 <= chi < dG.N):
        raise ValueError(f"total energy {chi} outside [0, {dG.N})")
    desc = internal_time_observable(dG)
    m, g, N = desc.internal_size, desc.subgroup_generator, dG.N

    u0 = desc.basis[:, 0]
    # c[tau, k] = <tau|_int P_{k g} |0>_int, evaluated on the actual states
    proj0 = np.column_stack([dG.spectrum.projectors[k * g] @ u0 for k in range(m)])
    coeff = desc.basis.conj().T @ proj0

    dim = dH.dim
    stack = np.zeros((m, dim, dim), dtype=np.complex128)
    for tau in range(m):
        for k in range(m):
            stack[tau] += m * coeff[tau, k] * dH.spectrum.projectors[(chi - k * g) % N]

    candidate = UnitaryDynamic(N=m, dim=dim, unitaries=stack)
    report = validate_dynamic(candidate, tol)
    if not report.passed:
        raise AxiomsViolatedError(report.max_error)
    return candidate
