"""Clock-valued observables, demolition measurements, Weyl pairs.

An observable here is a map H -> H (x) T whose clock leg records outcomes:
writing it in blocks A_t (so the map is sum_t A_t (x) |t>), the three
defining identities say the family is self-adjoint under the clock bend,
copied by the labelling structure's comultiplication, and erased to the
identity by its counit.  Energy observables are exactly the adjoints of
unitary dynamics; for the clock acting on itself the energy observable is
the addition comultiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import linalg
from .clock import ClockStructures
from .dynamics import (
    ProjectionSpectrum,
    UnitaryDynamic,
    _power_bounds,
    fourier_transform,
    inverse_fourier_transform,
)
from .errors import (
    DistributionError,
    IncompleteSpectrumError,
    NotNormalisedError,
    ShapeMismatchError,
)
from .linalg import DEFAULT_TOL, ZERO_NORM, Tolerance, as_tolerance, identity
from .reports import Check, Report

TIME_FLAVOUR = "time-structure"
GROUP_FLAVOUR = "group-structure"


@dataclass(frozen=True)
class Observable:
    """Outcome-recording map H -> H (x) T with its labelling flavour."""

    N: int
    dim: int
    map: np.ndarray  # shape (dim * N, dim), row index = h * N + t
    flavour: Literal["time-structure", "group-structure"]


def observable_from_spectrum(
    s: ProjectionSpectrum, tol: Tolerance | float = DEFAULT_TOL
) -> Observable:
    """Energy observable of a projector family.

    The clock leg of the E-labelled projector carries the ket representing
    the energy functional chi_E, i.e. the column with entries
    conj(chi_E(t)); equivalently the whole map is sum_t U_t^dag (x) |t>,
    the adjoint of the dynamic.  For the clock's own spectrum this is
    exactly the addition comultiplication.
    """
    if s.completeness > as_tolerance(tol).eps:
        raise IncompleteSpectrumError(
            f"projectors sum to identity only within {s.completeness:.3e}"
        )
    # map[h*N + t, h'] = sum_E P_E[h, h'] * conj(chi_E(t)), a forward transform over E
    blocks = s.N * fourier_transform(s.projectors)
    m = np.transpose(blocks, (1, 0, 2)).reshape(s.dim * s.N, s.dim)
    return Observable(N=s.N, dim=s.dim, map=m, flavour=GROUP_FLAVOUR)


def time_observable(cs: ClockStructures) -> Observable:
    """The clock's tick observable: the copying map, built out from its table."""
    N = cs.N
    linalg.check_entries(N * N, N)
    m = np.zeros((N * N, N), dtype=np.complex128)
    m[cs.time_copy.target, np.arange(N)] = cs.time_copy.value
    return Observable(N=N, dim=N, map=m, flavour=TIME_FLAVOUR)


def observable_checks(
    o: Observable, cs: ClockStructures, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """The three defining identities, on the flavour's structure tables."""
    if o.N != cs.N:
        raise ShapeMismatchError(f"observable over Z/{o.N} but clock of size {cs.N}")
    eps = as_tolerance(tol).eps
    N = o.N
    blocks = np.transpose(o.map.reshape(o.dim, N, o.dim), (1, 0, 2))  # clock-leg blocks A_t

    if o.flavour == GROUP_FLAVOUR:  # the adjoints of the addition and unit tables
        source, pairs, weight = cs.group_mult.terms()
        weight, at, counit = np.conj(weight), cs.group_unit.target, np.conj(cs.group_unit.value)
        bent = blocks[(-np.arange(N)) % N]  # the addition's antipode is time inversion
    else:  # the copy and delete tables; every delete target is 0
        pairs, source, weight = cs.time_copy.terms()
        at, counit = np.arange(N), cs.time_delete.value
        bent = blocks  # tick states are self-conjugate, so the tick antipode is trivial

    adj = np.conj(np.transpose(blocks, (0, 2, 1)))
    self_adjoint = float(np.max(np.abs(bent - adj))) if blocks.size else 0.0

    # idempotence: A_t A_u against sum_x comult[t*N + u, x] A_x, one t at a time
    idempotent = 0.0
    for t in range(N):
        sel = pairs // N == t
        copied = np.zeros_like(blocks)
        np.add.at(copied, pairs[sel] % N, weight[sel, None, None] * blocks[source[sel]])
        idempotent = max(idempotent, linalg.max_abs_diff(blocks[t] @ blocks, copied))
    complete = linalg.max_abs_diff(np.tensordot(counit, blocks[at], axes=1), identity(o.dim))

    return Report(
        title=f"observable identities ({o.flavour}, N={o.N}, dim={o.dim})",
        checks=(
            Check("self_adjointness", self_adjoint, eps),
            Check("idempotence", idempotent, eps),
            Check("completeness", complete, eps),
        ),
    )


def demolition_measurement(
    o: Observable, psi, tol: Tolerance | float = DEFAULT_TOL
) -> np.ndarray:
    """Outcome distribution of measuring |psi> with the observable.

    The raw clock-leg vector <psi| o |psi> is read off against the outcome
    labels: tick labels directly, energy labels through the character
    functionals with the 1/N factor the quasi-special structure requires.
    Tiny negative weights (roundoff) are clamped to zero; anything worse
    raises.
    """
    psi = linalg.as_state(psi, o.dim, "observable")
    eps = as_tolerance(tol).eps
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > eps:
        raise NotNormalisedError(f"|psi| = {norm:.12f}")

    raw = (o.map @ psi).reshape(o.dim, o.N)
    clock_leg = psi.conj() @ raw  # length-N vector on the clock factor
    if o.flavour == GROUP_FLAVOUR:
        weights = inverse_fourier_transform(clock_leg) / o.N
    else:
        weights = clock_leg

    if np.max(np.abs(weights.imag)) > 10 * max(eps, ZERO_NORM):
        raise DistributionError(
            f"weights have imaginary part up to {np.max(np.abs(weights.imag)):.3e}"
        )
    w = weights.real.copy()
    if np.min(w) < -ZERO_NORM:
        raise DistributionError(f"weight {np.min(w):.3e} below negativity threshold")
    w[w < 0.0] = 0.0
    return w


def weyl_ccr_check(
    dU: UnitaryDynamic, dV: UnitaryDynamic, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """Canonical commutation V_E U_t = chi_E(t) U_t V_E on supported labels.

    The first family is indexed by times t, the second by energy labels E.
    The relation is quantified over the eigenvalues each family actually
    has: E runs over the energy support of the first family's spectrum and
    t over the (time-valued) support of the second's.  Degenerate
    restrictions are noted in the report.
    """
    if dU.dim != dV.dim or dU.N != dV.N:
        raise ShapeMismatchError(
            f"families on (N={dU.N}, dim={dU.dim}) vs (N={dV.N}, dim={dV.dim})"
        )
    eps = as_tolerance(tol).eps
    N, e_support, t_support = dU.N, dU.spectrum.support, dV.spectrum.support
    err = _weyl_bound(dU.unitaries, dV.unitaries, e_support, max(t_support, default=0))
    if not err <= eps:
        err = _weyl_sweep(dU.unitaries, dV.unitaries, e_support, t_support)

    notes = []
    if len(e_support) < N or len(t_support) < N:
        notes.append(
            f"degenerate pair: checked E in {list(e_support)}, t in {list(t_support)}"
        )
    return Report(
        title=f"Weyl commutation (N={N}, dim={dU.dim})",
        checks=(Check("weyl_relation", float(err), eps),),
        notes=tuple(notes),
    )


def _weyl_sweep(U: np.ndarray, V: np.ndarray, e_support, t_support) -> float:
    """Exact residual of V_E U_t = chi_E(t) U_t V_E over all supported (t, E)."""
    N = U.shape[0]
    err = 0.0
    for t in t_support:
        for E in e_support:
            phase = np.exp(2j * np.pi * E * t / N)
            err = max(err, linalg.max_abs_diff(V[E] @ U[t], phase * (U[t] @ V[E])))
    return err


@np.errstate(over="ignore", invalid="ignore")
def _weyl_bound(U: np.ndarray, V: np.ndarray, e_support, t_max: int) -> float:
    """Upper bound on the Weyl sweep for t <= t_max, at O(|supp| dim^3).

    With G = U_1, w = chi_E(1) and K_E = V_E G - w G V_E,
    V_E G^t - w^t G^t V_E = sum_j w^j G^j K_E G^(t-1-j), so the residual at t
    is at most t a^(t-1) ||K_E|| + 2 ||V_E|| a^t D (``_power_bounds``),
    which grows with t; the sweep's own products and phase add the rest.
    """
    a, D = _power_bounds(U)
    N, dim = U.shape[0], U.shape[-1]
    c, G, E = linalg.roundoff(dim), U[1 % N], np.asarray(e_support, dtype=int)
    u, theta, W = np.finfo(float).eps / 2, 2 * np.pi * E / N, V[E]
    K = G @ W
    K *= np.exp(1j * theta)[:, None, None]
    K -= W @ G  # w G V_E - V_E G
    # a computed exp(i theta) scaling a product is off by at most 8u (theta + 1) of it:
    # the argument's few roundings, cos and sin, and the scaling itself
    size_g, size_w = linalg.norm_bound(G), linalg.norm_bound(W)
    one_step = linalg.norm_bound(K) + (2 * c + 8 * u * (theta + 1)) * size_w * size_g
    size_u = a**t_max * (1 + D)  # >= ||U_t||
    sweep = (2 * c + 8 * u * (theta * t_max + 1)) * size_w * size_u
    bound = t_max * a ** (t_max - 1) * one_step + 2 * size_w * a**t_max * D + sweep
    return bound.max(initial=0.0) * (1 + linalg.roundoff(N + dim))  # the bound's own sums


def uncertainty_check(
    dU: UnitaryDynamic,
    dV: UnitaryDynamic,
    tol: Tolerance | float = DEFAULT_TOL,
) -> Report:
    """Eigenstates of the second family are unbiased for the first's observable.

    Every eigenstate of dV's spectrum, measured with dU's energy observable,
    must give the uniform distribution 1/N.  Rank-1 eigenspaces contribute
    their (unique) eigenstate; higher-rank ones a random unit vector, drawn
    from seed 0, since the statement quantifies over all eigenstates.
    """
    weyl = weyl_ccr_check(dU, dV, tol)
    eps = as_tolerance(tol).eps
    rng = np.random.default_rng(0)
    N, spec_v = dU.N, dV.spectrum
    obs = observable_from_spectrum(dU.spectrum, tol)
    checks = [Check("weyl_precondition", weyl.max_error, eps)]
    notes = list(weyl.notes)

    uniform = np.full(N, 1.0 / N)
    for label, rank in spec_v.ranks.items():
        p = spec_v.projectors[label]
        if rank == 1:
            psi = linalg.rank1_eigvec(p)
        else:
            psi = p @ (rng.normal(size=dV.dim) + 1j * rng.normal(size=dV.dim))
            psi = psi / np.linalg.norm(psi)
            notes.append(f"label {label}: rank {rank} eigenspace, random representative")
        dist = demolition_measurement(obs, psi, tol)
        checks.append(
            Check(f"uniformity_label_{label}", linalg.max_abs_diff(dist, uniform), eps)
        )

    return Report(
        title=f"unbiasedness (N={N}, dim={dU.dim})",
        checks=tuple(checks),
        notes=tuple(notes),
    )
