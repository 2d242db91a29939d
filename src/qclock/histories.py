"""State trajectories and their energy-side (spectral) decomposition.

A history of a dynamic is the trajectory t -> U_t|psi>.  Histories are
exactly the families compatible with the group action (the translation
equation psi_{s+t} = U_t psi_s), and switching to the energy side splits
the initial state into eigenspace components psi_E = P_E|psi> obeying
U_t psi_E = chi_E(t) psi_E, the exponentiated evolution equation for one
period.  Both directions are implemented and round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import (
    SWEEP_MAX_SIZE,
    ProjectionSpectrum,
    UnitaryDynamic,
    _power_bounds,
    inverse_fourier_transform,
)
from .errors import ShapeMismatchError
from .linalg import DEFAULT_TOL, Tolerance, as_tolerance


@dataclass(frozen=True)
class History:
    """N states psi_t, stored extensionally as rows of a (N, dim) array."""

    N: int
    dim: int
    states: np.ndarray


@dataclass(frozen=True)
class SpectralSolution:
    """Eigenspace components psi_E of an initial state, rows of (N, dim)."""

    N: int
    dim: int
    components: np.ndarray


def history_from_state(d: UnitaryDynamic, psi) -> History:
    """The trajectory psi_t = U_t |psi>."""
    psi = linalg.as_state(psi, d.dim, "dynamic")
    states = np.einsum("tij,j->ti", d.unitaries, psi)
    return History(N=d.N, dim=d.dim, states=states)


def is_em_morphism(
    h: History, d: UnitaryDynamic, tol: Tolerance | float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Check the translation equation psi_{s+t mod N} = U_t psi_s for all s, t.

    The error is a certified upper bound on the all-pairs residual
    (``_translation_bound``), or the exact sweep where that bound exceeds tol
    and for N dim <= ``SWEEP_MAX_SIZE``, where the sweep is the cheaper.
    """
    if h.N != d.N or h.dim != d.dim:
        raise ShapeMismatchError(
            f"history on (N={h.N}, dim={h.dim}) vs dynamic (N={d.N}, dim={d.dim})"
        )
    eps = as_tolerance(tol).eps
    states, U = h.states, d.unitaries
    err = float(_translation_bound(states, U)) if h.N * h.dim > SWEEP_MAX_SIZE else np.inf
    if not err <= eps:
        err = _translation_sweep(states, U)
    return err <= eps, err


def _translation_sweep(states: np.ndarray, U: np.ndarray) -> float:
    """Exact residual of psi_{s+t} = U_t psi_s over all (s, t): a batch of s is one
    product [psi_s; ...] [U_t ...]^T of at most ``linalg.max_entries()`` entries."""
    N, cols = len(U), U.reshape(-1, U.shape[-1]).T  # U_t[i, j] at [j, t i]
    t, step = np.arange(N), max(1, linalg.max_entries() // cols.shape[1])
    err = 0.0
    for lo in range(0, N, step):
        s = t[lo : lo + step]
        want = states[(s[:, None] + t) % N]  # psi_{s+t} at [s, t, i]
        err = max(err, float(np.abs(states[s] @ cols - want.reshape(len(s), -1)).max()))
    return err


@np.errstate(over="ignore", invalid="ignore")
def _translation_bound(states: np.ndarray, U: np.ndarray) -> float:
    """Upper bound on the translation sweep from one-step residuals, at O(N dim^3).

    psi_{s+t} - G^t psi_s telescopes into t one-step residuals
    psi_{j+1} - G psi_j (the step from psi_{N-1} to psi_0 included), and
    (G^t - U_t) psi_s is at most a^t D ||psi_s|| (``_power_bounds``); the
    sweep's own product adds roundoff(dim) ||U_t|| ||psi_s||.
    """
    a, D = _power_bounds(U)
    N, dim = U.shape[0], U.shape[-1]
    c, G = linalg.roundoff(dim), U[1 % N]
    lengths = linalg.norm_bound(states[:, :, None])  # >= ||psi_s||
    residuals = np.roll(states, -1, axis=0) - states @ G.T  # row s: psi_{s+1} - G psi_s
    steps = linalg.norm_bound(residuals[:, :, None]) + c * linalg.norm_bound(G) * lengths
    reach, longest = a ** (N - 1), lengths.max()
    bound = reach * (steps.sum() + D * longest) + c * reach * (1 + D) * longest
    return bound * (1 + linalg.roundoff(N + dim))  # the bound's own sums


def schrodinger_solve(d: UnitaryDynamic, psi) -> SpectralSolution:
    """Split |psi> into eigenspace components psi_E = P_E |psi>."""
    psi = linalg.as_state(psi, d.dim, "dynamic")
    components = _components(d.spectrum, psi)
    return SpectralSolution(N=d.N, dim=d.dim, components=components)


def _components(spec: ProjectionSpectrum, psi: np.ndarray) -> np.ndarray:
    """The eigenspace components P_E psi of a state, rows of an (N, dim) array."""
    return np.einsum("eij,j->ei", spec.projectors, psi)


def reconstruct_history(s: SpectralSolution) -> History:
    """Resum components into the trajectory psi_t = sum_E chi_E(t) psi_E."""
    states = inverse_fourier_transform(s.components)
    return History(N=s.N, dim=s.dim, states=states)
