"""The time/energy duality of two Z/N dynamics: Weyl pairs and mutual unbias.

A pair (U, V) is a Weyl pair when V_E U_t = chi_E(t) U_t V_E on the labels
each family actually has.  Its price is mutual unbias: an eigenstate of V
measured in the energy eigenbasis of U gives every outcome with weight
1/N, so |<y_F|x_E>|^2 = 1/N for the two eigenbases.  Both are read off the
families and their kept spectra alone.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .dynamics import UnitaryDynamic, _power_bounds
from .errors import IncompleteSpectrumError, ShapeMismatchError
from .linalg import DEFAULT_TOL, Tolerance, as_tolerance
from .reports import Check, Report


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
    """Eigenstates of the second family are unbiased for the first's energy.

    With X and Y the two kept eigenbases (``ProjectionSpectrum.eigenbasis``)
    and O = Y^dag X, the check for V-label F is the largest over E of
    ||O_FE O_FE^dag - I/N||, which is the largest |<phi|P_E|phi> - 1/N| over
    unit phi in the F eigenspace: |<y_F|x_E>|^2 - 1/N at rank 1.  A label E
    with no eigenvector of U, or a level F with fewer eigenvectors than its
    rank (and at least one), reads at least 1/N.
    """
    weyl = weyl_ccr_check(dU, dV, tol)
    eps = as_tolerance(tol).eps
    N, spec_u, spec_v = dU.N, dU.spectrum, dV.spectrum
    if spec_u.completeness > eps:
        raise IncompleteSpectrumError(
            f"projectors sum to identity only within {spec_u.completeness:.3e}"
        )
    X, x_labels = spec_u.eigenbasis
    Y, y_labels = spec_v.eigenbasis
    overlap = np.conj(Y.T) @ X
    starts = np.flatnonzero(np.diff(x_labels, prepend=-1))  # each U level's first column
    missing = 1.0 / N if len(starts) < N else 0.0  # a label E where p_E vanishes

    # the levels of V, grouped by their number of columns n: per level F, the
    # products O_Fc O_Fc^dag over U columns c, summed over each U level, less
    # I/N, then their eigenvalues; no array exceeds dim^3 entries
    levels, first, count = np.unique(y_labels, return_index=True, return_counts=True)
    errors = {}
    for n in np.unique(count):
        pick = count == n
        rows = overlap[first[pick][:, None] + np.arange(n)]  # (levels, n, U columns)
        gram = np.add.reduceat(rows[:, :, None] * np.conj(rows[:, None]), starts, axis=3)
        gram[:, np.arange(n), np.arange(n)] -= 1.0 / N
        size = np.abs(np.linalg.eigvalsh(np.moveaxis(gram, 3, 1))).max(axis=(1, 2), initial=0.0)
        errors.update(zip(levels[pick].tolist(), size.tolist()))
    columns = dict(zip(levels.tolist(), count.tolist()))

    checks = [Check("weyl_precondition", weyl.max_error, eps)]
    for F, rank in spec_v.ranks.items():
        short = 1.0 / N if columns.get(F, 0) < max(rank, 1) else 0.0
        error = max(errors.get(F, 0.0), missing, short)
        checks.append(Check(f"uniformity_label_{F}", error, eps))
    return Report(
        title=f"unbiasedness (N={N}, dim={dU.dim})",
        checks=tuple(checks),
        notes=weyl.notes,
    )
