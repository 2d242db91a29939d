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
    peaks: np.ndarray = field(init=False)  # largest entry of each P_E
    support: tuple[int, ...] = field(init=False)  # labels whose peak exceeds SUPPORT_THRESHOLD
    ranks: dict[int, int] = field(init=False)  # supported E -> round(trace(P_E^dag P_E))
    completeness: float = field(init=False)  # max entry of sum_E P_E - I

    def __post_init__(self):
        peaks = np.abs(self.projectors).max(axis=(1, 2))
        peaks.flags.writeable = False
        object.__setattr__(self, "peaks", peaks)
        support = tuple(int(E) for E in np.flatnonzero(peaks > SUPPORT_THRESHOLD))
        object.__setattr__(self, "support", support)
        # trace(P^dag P), summed one label at a time so that no stack-sized temporary is
        # built: never negative, trace(P) for a projector, and capped at dim, which also
        # reads a sum that overflowed to inf
        pairs = np.ascontiguousarray(self.projectors).view(np.float64)  # (re, im) pairs
        ranks = {E: round(min(float(np.vdot(pairs[E], pairs[E])), self.dim)) for E in self.support}
        object.__setattr__(self, "ranks", ranks)
        total = self.projectors.sum(axis=0)
        object.__setattr__(self, "completeness", linalg.max_abs_diff(total, identity(self.dim)))

    @cached_property
    def supported(self) -> np.ndarray:
        """The projectors of the supported labels, in support order."""
        return self.projectors[list(self.support)]

    @cached_property
    def pair_table(self) -> np.ndarray:
        """Largest entry of P_E P_F - delta_EF P_E for supported E <= F (row E, column F).

        A batch of rows E is one matrix product with the P_F, F from its first
        row on, side by side.  Batches of a quarter of the rows (at least 4)
        skip most products below the diagonal, where the table is 0, and none
        holds more than ``linalg.max_entries()`` entries.
        """
        kept, dim, n = self.supported, self.dim, len(self.support)
        right = kept.transpose(1, 0, 2).reshape(dim, n * dim)  # the P_F side by side
        step = min(max(4, -(-n // 4)), max(1, linalg.max_entries() // max(n * dim * dim, 1)))
        table = np.zeros((n, n))
        for lo in range(0, n, step):
            part, m = kept[lo : lo + step], n - lo
            r, diag = len(part), np.arange(len(part))
            blocks = (part.reshape(r * dim, dim) @ right[:, lo * dim :]).reshape(r, dim, m, dim)
            blocks[diag, :, diag] -= part  # the blocks P_E P_E
            size = np.abs(blocks.transpose(0, 2, 1, 3), out=np.empty((r, m, dim, dim)))
            table[lo : lo + r, lo:] = size.reshape(r, m, dim * dim).max(axis=2)
        table[np.arange(n)[:, None] > np.arange(n)] = 0.0  # a batch's own lower pairs
        return table

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, labels): orthonormal columns spanning each supported P_E, and each column's E.

        A level is pivoted Gram-Schmidt on P_E, up to ``ranks[E]`` columns:
        the largest-norm column over its own norm, with the phase of its
        largest entry removed, and the rest of P_E projected off it only when
        another column follows.  A residual column norm at or below
        ``SUPPORT_THRESHOLD`` ends the level.  Columns are in support order,
        and W is read-only.
        """
        cols, labels = [], []
        for E, rank in self.ranks.items():
            work = self.projectors[E]
            for k in range(rank):
                norms = np.linalg.norm(work, axis=0)
                pivot = int(np.argmax(norms))
                if norms[pivot] <= SUPPORT_THRESHOLD:
                    break
                v = work[:, pivot]
                v = v / np.linalg.norm(v)
                lead = int(np.argmax(np.abs(v)))
                v = v / (v[lead] / abs(v[lead]))
                cols.append(v)
                labels.append(E)
                if k + 1 < rank:
                    work = work - np.outer(v, v.conj() @ work)
        W = np.column_stack(cols) if cols else np.zeros((self.dim, 0), dtype=np.complex128)
        W.flags.writeable = False
        labels = np.array(labels, dtype=np.int64)
        labels.flags.writeable = False
        return W, labels


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
    # doubling: stack[n : n + k] = stack[:k] U^n, one (k dim) x dim block product
    # per level, squaring U^n, since powers of U commute
    flat, power, n = stack.reshape(N * dim, dim), U, 1
    while n < N:
        k = min(n, N - n)
        np.matmul(flat[: k * dim], power, out=flat[n * dim : (n + k) * dim])
        n += k
        power = power @ power if n < N else power
    wrap = U @ stack[N - 1]
    err = linalg.max_abs_diff(wrap, identity(dim))
    if err > eps:
        raise NotPeriodicError(
            f"generator^{N} differs from identity by {err:.3e}; "
            f"its eigenphases are not {N}-th roots of unity"
        )
    return UnitaryDynamic(N=N, dim=dim, unitaries=stack)


#: Up to this N dim the action sweep, one (N dim)^2 product, costs less than
#: the certificate with the spectrum it reads (measured in CHANGES.md).
SWEEP_MAX_SIZE = 64


def validate_dynamic(d: UnitaryDynamic, tol: Tolerance | float = DEFAULT_TOL) -> Report:
    """Check the three defining identities of a Z/N dynamic by index arithmetic mod N.

    (1) action: U_{s+t} equals U_t U_s for all (s, t),
    (2) unit: U_0 is the identity,
    (3) unitarity: U_{-t} equals U_t^dag (adjoints are inverse
        translations), which with (1) and (2) makes every U_t unitary.

    The action law reports a certified upper bound on the all-pairs
    residual, read from the kept spectrum (``_action_certificate``); where
    that bound exceeds tol, and for N dim <= ``SWEEP_MAX_SIZE``, where the
    sweep is the cheaper of the two, it reports the exact sweep.
    """
    eps = as_tolerance(tol).eps
    U, t = d.unitaries, np.arange(d.N)

    action = _action_certificate(d) if d.N * d.dim > SWEEP_MAX_SIZE else np.inf
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
    """Exact action residual: U_{s+t} against U_t U_s over all (s, t).

    A batch of s is one matrix product [U_t; ...] [U_s ...], of at most
    ``linalg.max_entries()`` entries.
    """
    N, dim = U.shape[0], U.shape[-1]
    t, rows = np.arange(N), U.reshape(N * dim, dim)
    step = max(1, linalg.max_entries() // (N * dim * dim))
    action = 0.0
    for lo in range(0, N, step):
        s = t[lo : lo + step]
        prod = rows @ U[s].transpose(1, 0, 2).reshape(dim, len(s) * dim)  # [t i, s j]
        want = U[(t[:, None] + s) % N].transpose(0, 2, 1, 3)  # U_{s+t} at [t, i, s, j]
        action = max(action, float(np.abs(prod.reshape(want.shape) - want).max()))
    return action


# The bounds below are evaluated under ignored overflow: an inf or nan bound
# fails the comparison with tol, and the law falls back to its sweep.


@np.errstate(over="ignore", invalid="ignore")
def _action_certificate(d: UnitaryDynamic) -> float:
    """Upper bound on the action sweep from the kept spectrum, at O(N |S| dim^2).

    With A_t = sum_{E in S} chi_E(t) P_E over the support S and O_t = U_t - A_t,
    U_t U_s - U_{s+t} = sum_{E,F} chi_E(t) chi_F(s) (P_E P_F - delta_EF P_E)
    + A_t O_s + O_t U_s - O_{s+t} for any matrices P_E.  A pair term with E <= F
    is at most dim times its ``pair_table`` entry plus its product's roundoff;
    one below the diagonal at most its mirror's plus ||P_E|| h_F + h_E ||P_F||,
    since P_F P_E = (P_E^dag P_F^dag)^dag, with h >= ||P - P^dag||.  ||U_t|| and
    ||A_t|| - o are at most ||U_t||_F, o >= ||O_t||; and an entry of the sweep's
    own |U_t| |U_s| is at most a row norm times a column norm (Rump, Acta
    Numerica 19, 2010).  A support larger than dim is no dynamic's: inf.
    """
    spec, U, N, dim = d.spectrum, d.unitaries, d.N, d.dim
    S = np.asarray(spec.support, dtype=np.int64)
    if len(S) > dim:
        return np.inf
    k = (np.outer(np.arange(N), S) + N // 2) % N - N // 2  # E t mod N exactly, |k| <= N/2
    P, table = spec.supported, spec.pair_table
    kept = P.reshape(len(S), dim * dim)
    A = np.exp((2j * np.pi / N) * k) @ kept
    # Frobenius norms bound the 2-norms of P, |P| and U, w their own sums; a computed
    # character is off by at most 12u: theta's three roundings (3 pi u), cos and sin
    c, w, u = linalg.roundoff(dim), 1 + linalg.roundoff(dim * dim + 2), np.finfo(float).eps / 2
    sizes = np.linalg.norm(kept, axis=1) * w
    h = np.linalg.norm(P - np.conj(np.transpose(P, (0, 2, 1))), axis=(1, 2))  # Frobenius
    pairs = dim * (2 * table.sum() - table.trace()) + c * sizes.sum() ** 2
    pairs += w * (h.sum() * sizes.sum() - h @ sizes)
    slack = (12 * u + linalg.roundoff(len(S)) * (1 + 12 * u)) * sizes.sum()  # A_t's rounding
    o = np.linalg.norm(U.reshape(N, dim * dim) - A, axis=1).max() * w + slack
    rows, cols = np.linalg.norm(U, axis=2), np.linalg.norm(U, axis=1).max()
    size = np.sqrt((rows**2).sum(axis=1)).max() * w
    bound = pairs + o * (2 * size + o + 1) + c * rows.max() * cols * w
    return bound * (1 + linalg.roundoff(len(S) ** 2 + 8))  # its own sums and subtractions


@np.errstate(over="ignore", invalid="ignore")
def _power_bounds(U: np.ndarray) -> tuple[float, float]:
    """How far a stack is from the powers of its generator G = U_1, from one batched product.

    Returns (a, D) with a >= ||G|| and D >= ||U_0 - I|| + sum_{k<N-1} ||U_{k+1} - G U_k||,
    in the operator 2-norm of the stored entries (``linalg.norm_bound``; each
    product adds its ``roundoff`` |G| |U_k|).  Since a >= 1, telescoping gives
    ||U_t - G^t|| <= a^t D and ||U_t|| <= a^t (1 + D) for t < N.
    """
    N, dim = U.shape[0], U.shape[-1]
    G, eye, c = U[1 % N], identity(dim), linalg.roundoff(dim)
    norms = linalg.norm_bound(U)
    # ||G||^2 = ||G^dag G|| <= 1 + ||G^dag G - I||, and sqrt(1 + x) <= 1 + x/2
    gram = linalg.norm_bound(G.conj().T @ G - eye) + c * norms[1 % N] ** 2
    steps = G @ U[:-1]
    steps -= U[1:]  # G U_k - U_{k+1}
    steps = linalg.norm_bound(steps) + c * norms[1 % N] * norms[:-1]  # |G| |U_k| allowance
    a = np.nextafter(1 + gram / 2, np.inf)
    return a, linalg.norm_bound(U[0] - eye) + steps.sum()


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
    return ProjectionSpectrum(N=d.N, dim=d.dim, projectors=stack)


def spectrum_checks(
    s: ProjectionSpectrum, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """Idempotence, self-adjointness, pairwise orthogonality, completeness.

    Each is the largest entry over all labels, orthogonality over all pairs
    E < F.  Over supported labels, idempotence and orthogonality are read
    from ``pair_table``.  An unsupported label e of peak q = max|P_e| is
    covered by |P_e^2 - P_e| <= q + dim q^2 and |P_e P_f| <= dim q max|P_f|
    (each with roundoff), so neither value falls below its all-labels one.
    """
    eps = as_tolerance(tol).eps
    p, table = s.projectors, s.pair_table
    q = s.peaks[s.peaks <= SUPPORT_THRESHOLD].max(initial=0.0)  # the unsupported labels
    roundoff = 1.0 + 8 * s.dim * np.finfo(float).eps
    idem = max(table.diagonal().max(initial=0.0), (q + s.dim * q**2) * roundoff)
    herm = linalg.max_abs_diff(p, np.conj(np.transpose(p, (0, 2, 1))))
    orth = max(np.triu(table, 1).max(initial=0.0), s.dim * q * s.peaks.max() * roundoff)
    return Report(
        title=f"projector spectrum (N={s.N}, dim={s.dim})",
        checks=(
            Check("idempotence", float(idem), eps),
            Check("self_adjointness", herm, eps),
            Check("orthogonality", float(orth), eps),
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
