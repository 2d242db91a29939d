"""Cyclic-group unitary dynamics and their projector-valued energy spectra.

A dynamic is a family U_0,...,U_{N-1} of unitaries forming a representation
of Z/N (U_0 = I, U_s U_t = U_{s+t mod N}, U_t^dag = U_{-t}).  Its energy
content is the complete orthogonal projector family

    P_E = (1/N) * sum_t conj(chi_E(t)) U_t,      chi_E(t) = exp(2*pi*i*E*t/N),

satisfying the eigen-relation U_t P_E = chi_E(t) P_E.  The dynamic is
recovered from its spectrum as U_t = sum_E chi_E(t) P_E, and averaging the
family over one period yields P_0, the projector onto the joint fixed
points.

The spectrum is a property of the dynamic: ``d.spectrum`` computes it by
``hamiltonian`` on first use and keeps it.  A dynamic keeps a read-only
copy of the stack it is given, and the projectors ``hamiltonian`` returns
are read-only, so the kept spectrum cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    IncompleteSpectrumError,
    NotPeriodicError,
    NotUnitaryError,
    ShapeMismatchError,
)
from .linalg import DEFAULT_TOL, SUPPORT_THRESHOLD, Tolerance, as_tolerance, identity
from .reports import Check, Report


@dataclass(frozen=True)
class UnitaryDynamic:
    """Z/N-indexed unitary family on a dim-dimensional system."""

    N: int
    dim: int
    unitaries: np.ndarray  # shape (N, dim, dim), U_t = unitaries[t]

    def __post_init__(self):
        if self.unitaries.shape != (self.N, self.dim, self.dim):
            raise ShapeMismatchError(
                f"expected unitary stack of shape {(self.N, self.dim, self.dim)}, "
                f"got {self.unitaries.shape}"
            )
        # a private copy: a write to the caller's array would leave ``spectrum`` stale
        stack = self.unitaries.copy()
        stack.flags.writeable = False
        object.__setattr__(self, "unitaries", stack)

    @cached_property
    def spectrum(self) -> ProjectionSpectrum:
        """The projector family of this dynamic, computed once (``hamiltonian``)."""
        return hamiltonian(self)


@dataclass(frozen=True)
class ProjectionSpectrum:
    """Complete family of orthogonal projectors labelled by energies E in Z/N."""

    N: int
    dim: int
    projectors: np.ndarray  # shape (N, dim, dim)
    support: tuple[int, ...]
    ranks: dict[int, int] = field(init=False)  # supported E -> round(trace(P_E^dag P_E))
    completeness: float = field(init=False)  # max entry of sum_E P_E - I

    def __post_init__(self):
        # trace(P^dag P), summed one label at a time so that no stack-sized temporary is
        # built: never negative, trace(P) for a projector, and capped at dim, which also
        # reads a sum that overflowed to inf
        pairs = np.ascontiguousarray(self.projectors).view(np.float64)  # (re, im) pairs
        ranks = {E: round(min(float(np.vdot(pairs[E], pairs[E])), self.dim)) for E in self.support}
        object.__setattr__(self, "ranks", ranks)
        total = self.projectors.sum(axis=0)
        object.__setattr__(self, "completeness", linalg.max_abs_diff(total, identity(self.dim)))


def constant_dynamic(N: int, dim: int) -> UnitaryDynamic:
    """The trivial dynamic: every U_t is the identity."""
    stack = np.broadcast_to(identity(dim), (N, dim, dim)).copy()
    return UnitaryDynamic(N=N, dim=dim, unitaries=stack)


def dynamic_from_generator(
    U, N: int, tol: Tolerance | float = DEFAULT_TOL
) -> UnitaryDynamic:
    """Build the dynamic U_t = U^t; U must be unitary with U^N = I."""
    U = linalg.as_matrix(U)
    eps = as_tolerance(tol).eps
    err = float(linalg.unitarity_residual(U))
    if not err <= eps:
        raise NotUnitaryError(f"generator is not unitary, max error {err:.3e}")
    dim = U.shape[0]
    stack = np.empty((N, dim, dim), dtype=np.complex128)
    stack[0] = identity(dim)
    for t in range(1, N):
        stack[t] = U @ stack[t - 1]
    wrap = U @ stack[N - 1]
    err = linalg.max_abs_diff(wrap, identity(dim))
    if err > eps:
        raise NotPeriodicError(
            f"generator^{N} differs from identity by {err:.3e}; "
            f"its eigenphases are not {N}-th roots of unity"
        )
    return UnitaryDynamic(N=N, dim=dim, unitaries=stack)


def clock_dynamic(N: int) -> UnitaryDynamic:
    """The clock acting on itself: U_t is cyclic shift by t."""
    shift = np.roll(identity(N), 1, axis=0)
    return dynamic_from_generator(shift, N)


def validate_dynamic(d: UnitaryDynamic, tol: Tolerance | float = DEFAULT_TOL) -> Report:
    """Check the three defining identities of a Z/N dynamic by index arithmetic mod N.

    (1) action: U_{s+t} equals U_t U_s for all (s, t),
    (2) unit: U_0 is the identity,
    (3) unitarity: U_{-t} equals U_t^dag (adjoints are inverse
        translations), which with (1) and (2) makes every U_t unitary.

    The action law reports a certified upper bound on the all-pairs
    residual (``_action_bound``); where that bound exceeds tol, it reports
    the exact sweep.
    """
    eps = as_tolerance(tol).eps
    U, t = d.unitaries, np.arange(d.N)

    action = _action_bound(U)
    if not action <= eps:
        action = _action_sweep(U)
    unit = linalg.max_abs_diff(U[0], identity(d.dim))
    unitarity = linalg.max_abs_diff(np.conj(np.transpose(U, (0, 2, 1))), U[-t % d.N])

    return Report(
        title=f"dynamic axioms (N={d.N}, dim={d.dim})",
        checks=(
            Check("action_law", float(action), eps),
            Check("unit_law", unit, eps),
            Check("unitarity_law", unitarity, eps),
        ),
    )


def _action_sweep(U: np.ndarray) -> float:
    """Exact action residual: U_{s+t} against U_t U_s over all (s, t)."""
    N = U.shape[0]
    t = np.arange(N)
    action = 0.0
    for s in range(N):
        action = max(action, linalg.max_abs_diff(U[(s + t) % N], U @ U[s]))
    return action


# The bounds below are evaluated under ignored overflow: an inf or nan bound
# fails the comparison with tol, and the law falls back to its sweep.


@np.errstate(over="ignore", invalid="ignore")
def _power_bounds(U: np.ndarray) -> tuple[float, float, float]:
    """How far a stack is from the powers of its generator G = U_1, from one batched product.

    Returns (a, D, wrap) with a >= ||G||, D >= ||U_0 - I|| + sum_{k<N-1} ||U_{k+1} - G U_k||
    and wrap >= ||U_0 - G U_{N-1}||, in the operator 2-norm of the stored entries
    (``linalg.norm_bound``; each product adds its ``roundoff`` |G| |U_k|).  Since
    a >= 1, telescoping gives ||U_t - G^t|| <= a^t D and ||U_t|| <= a^t (1 + D) for t < N.
    """
    N, dim = U.shape[0], U.shape[-1]
    G, eye, c = U[1 % N], identity(dim), linalg.roundoff(dim)
    norms = linalg.norm_bound(U)
    # ||G||^2 = ||G^dag G|| <= 1 + ||G^dag G - I||, and sqrt(1 + x) <= 1 + x/2
    gram = linalg.norm_bound(G.conj().T @ G - eye) + c * norms[1 % N] ** 2
    moved = G @ U
    moved[:-1] -= U[1:]  # the steps G U_k - U_{k+1}
    moved[-1] -= U[0]  # and the wrap
    defects = linalg.norm_bound(moved) + c * norms[1 % N] * norms  # |G| |U_k| allowance
    steps, wrap = defects[:-1], defects[-1]
    a = np.nextafter(1 + gram / 2, np.inf)
    return a, linalg.norm_bound(U[0] - eye) + steps.sum(), wrap


@np.errstate(over="ignore", invalid="ignore")
def _action_bound(U: np.ndarray) -> float:
    """Upper bound on the action sweep, at O(N dim^3).

    For fixed s, g_t = U_{s+t} - U_t U_s obeys g_0 = (I - U_0) U_s and
    g_{t+1} = (U_{s+t+1} - G U_{s+t}) + G g_t - (U_{t+1} - G U_t) U_s, indices
    mod N, so ||g_t|| <= a^(N-1) (D + wrap + D ||U_s||) for t < N; the sweep's
    own product adds roundoff(dim) ||U_t|| ||U_s||.
    """
    a, D, wrap = _power_bounds(U)
    N, dim = U.shape[0], U.shape[-1]
    reach = a ** (N - 1)
    size = reach * (1 + D)  # >= ||U_s||
    bound = reach * (D + wrap + D * size) + linalg.roundoff(dim) * size**2
    return bound * (1 + linalg.roundoff(N + dim))  # the bound's own sums


def spectral_projector(d: UnitaryDynamic, E: int) -> np.ndarray:
    """P_E = (1/N) sum_t conj(chi_E(t)) U_t, read from ``d.spectrum``."""
    if not (0 <= E < d.N):
        raise ValueError(f"energy label {E} outside [0, {d.N})")
    return d.spectrum.projectors[E]


def hamiltonian(d: UnitaryDynamic) -> ProjectionSpectrum:
    """Full projector family (one FFT of the family along t), with its support.

    A label is supported when its projector has an entry above
    ``SUPPORT_THRESHOLD``.  Callers holding a dynamic read ``d.spectrum``.
    """
    stack = fourier_transform(d.unitaries)
    stack.flags.writeable = False
    peaks = np.abs(stack).max(axis=(1, 2))
    support = tuple(int(E) for E in np.flatnonzero(peaks > SUPPORT_THRESHOLD))
    return ProjectionSpectrum(N=d.N, dim=d.dim, projectors=stack, support=support)


def spectrum_checks(
    s: ProjectionSpectrum, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """Idempotence, self-adjointness, pairwise orthogonality, completeness.

    Orthogonality is exact over pairs of supported labels; a pair with an
    unsupported label e is covered by |P_e P_f| <= dim * max|P_e| * max|P_f|
    (plus dot-product roundoff), so the value never falls below the all-pairs one.
    """
    eps = as_tolerance(tol).eps
    p = s.projectors
    idem = linalg.max_abs_diff(p @ p, p)
    herm = linalg.max_abs_diff(p, np.conj(np.transpose(p, (0, 2, 1))))
    orth = 0.0
    for i, e in enumerate(s.support):
        for f in s.support[i + 1 :]:
            orth = max(orth, float(np.max(np.abs(p[e] @ p[f]))))
    peaks = np.abs(p).max(axis=(1, 2))
    off_peak = np.delete(peaks, s.support).max(initial=0.0)
    roundoff = 1.0 + 8 * s.dim * np.finfo(float).eps
    orth = max(orth, float(s.dim * off_peak * peaks.max() * roundoff))
    return Report(
        title=f"projector spectrum (N={s.N}, dim={s.dim})",
        checks=(
            Check("idempotence", idem, eps),
            Check("self_adjointness", herm, eps),
            Check("orthogonality", orth, eps),
            Check("completeness", s.completeness, eps),
        ),
    )


def stone_reconstruct(
    s: ProjectionSpectrum, tol: Tolerance | float = DEFAULT_TOL
) -> UnitaryDynamic:
    """Rebuild the dynamic U_t = sum_E chi_E(t) P_E (an inverse FFT) from a complete spectrum."""
    if s.completeness > as_tolerance(tol).eps:
        raise IncompleteSpectrumError(
            f"projectors sum to identity only within {s.completeness:.3e}"
        )
    stack = inverse_fourier_transform(s.projectors)
    return UnitaryDynamic(N=s.N, dim=s.dim, unitaries=stack)


def time_average(d: UnitaryDynamic) -> np.ndarray:
    """(1/N) sum_t U_t; the projector onto the joint fixed points (= P_0)."""
    return d.unitaries.mean(axis=0)


def fourier_transform(x) -> np.ndarray:
    """Energy side over Z/N, N = len(x), along axis 0: out[E] = (1/N) sum_t conj(chi_E(t)) x[t]."""
    x = np.asarray(x, dtype=np.complex128)
    return np.fft.fft(x, axis=0) / x.shape[0]


def inverse_fourier_transform(xhat) -> np.ndarray:
    """Time side over Z/N, N = len(xhat), along axis 0: out[t] = sum_E chi_E(t) xhat[E]."""
    xhat = np.asarray(xhat, dtype=np.complex128)
    return np.fft.ifft(xhat, axis=0) * xhat.shape[0]
