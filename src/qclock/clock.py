"""The two interacting algebras carried by a size-N clock space C^N.

A clock couples a copying structure on the tick basis |0>,...,|N-1>
(comultiplication t -> t,t with its match/erase adjoints) with the cyclic
addition structure (s,t -> s+t mod N, unit |0>, negation antipode).  The
first labels *when*, the second generates translations and, dually, labels
*energy*: its multiplicative characters chi_E(t) = exp(2*pi*i*E*t/N) play
the role of energy levels.  Each structure map sends a basis input to one
basis output, so it is stored as a ``Table``; the adjoints are not stored,
and every law is a contraction of the tables: a composite is a gather, a
leg through an adjoint a join on equal targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, Tolerance, as_tolerance
from .reports import Check, Report


@dataclass(frozen=True)
class Table:
    """A linear map given by its support: basis input i goes to value[i] |target[i]>.

    ``target`` and ``value`` have one axis per input leg; a target is a flat
    output index (``coarse * N + fine``).  A map with a nonzero entry off its
    support (two in one column) cannot be represented.
    """

    target: np.ndarray
    value: np.ndarray

    @staticmethod
    def identity(n: int) -> Table:
        return Table(np.arange(n), np.ones(n, dtype=np.complex128))

    def then(self, after: Table) -> Table:
        """The composite ``after o self``: ``after`` gathered at these targets."""
        at = self.target
        return Table(after.target.reshape(-1)[at], after.value.reshape(-1)[at] * self.value)

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (output, input, value) arrays, one term per input."""
        return self.target.reshape(-1), np.arange(self.target.size), self.value.reshape(-1)


def residual(lhs: Table | tuple, rhs: Table | tuple) -> float:
    """Largest entry of lhs - rhs, after terms with one (output, input) key are summed.

    Each side is a ``Table`` or (output, input, value) term arrays; two
    tables on the same inputs differ only where their targets or values do.
    """
    if isinstance(lhs, Table) and isinstance(rhs, Table):
        a, b, same = lhs.value, rhs.value, lhs.target == rhs.target
        gap = np.where(same, np.abs(a - b), 0 if same.all() else np.maximum(abs(a), abs(b)))
        return float(gap.max(initial=0.0))
    (lo, li, lv), (ro, ri, rv) = (
        [np.ravel(x) for x in (side.terms() if isinstance(side, Table) else side)]
        for side in (lhs, rhs)
    )
    width = max(li.max(initial=0), ri.max(initial=0)) + 1
    keys = np.concatenate([lo * width + li, ro * width + ri])
    order = np.argsort(keys)
    first = np.flatnonzero(np.diff(keys[order], prepend=-1))  # where each key's run starts
    sums = np.add.reduceat(np.concatenate([lv, -rv])[order], first)
    return float(np.abs(sums).max(initial=0.0))


def _join(keys: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (k, i) with keys[k] == target[i], both flattened: the
    adjoint of a table with these targets sends output keys[k] to each such i."""
    keys, target = keys.reshape(-1), target.reshape(-1)
    order = np.argsort(target, kind="stable")
    lo = np.searchsorted(target[order], keys, "left")
    count = np.searchsorted(target[order], keys, "right") - lo
    k = np.repeat(np.arange(keys.size), count)
    first = np.repeat(lo - (np.cumsum(count) - count), count)
    return k, order[first + np.arange(k.size)]


@dataclass(frozen=True)
class ClockStructures:
    """The structure maps on C^N as tables; ``make_clock``'s values are exact 0/1."""

    N: int
    time_copy: Table    # |t> -> |t>|t>, target t*N + t
    time_delete: Table  # |t> -> 1, target 0
    group_mult: Table   # |s>|t> -> |s+t mod N>, target shape (N, N)
    group_unit: Table   # 1 -> |0>, one input
    antipode: Table     # |t> -> |-t mod N>


def make_clock(N: int) -> ClockStructures:
    """Build the clock tables on C^N; the entry cap guards the N x N addition table."""
    if N < 1:
        raise ValueError(f"clock size must be positive, got {N}")
    linalg.check_entries(N, N)
    t, ones = np.arange(N), np.ones(N, dtype=np.complex128)
    return ClockStructures(
        N=N,
        time_copy=Table(t * N + t, ones),
        time_delete=Table(np.zeros(N, dtype=np.intp), ones.copy()),
        group_mult=Table((t[:, None] + t) % N, np.ones((N, N), dtype=np.complex128)),
        group_unit=Table.identity(1),
        antipode=Table(-t % N, ones.copy()),
    )


def verify_strong_complementarity(
    cs: ClockStructures, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """Check every law of the interacting pair on C^N, on the clock tables.

    Covers: Frobenius laws and speciality of the tick structure, Frobenius
    laws of the addition structure with quasi-speciality factor N, the Hopf
    law through the antipode, the bialgebra laws tying the two structures
    together, and antipode involutivity/self-adjointness.  The addition's
    associativity and Frobenius laws take a block of p per table comparison
    (errors exactly 0); a table with a row that is not a permutation keeps the
    keyed Frobenius terms, one p at a time.
    A law has the error of its adjoint: the tick associativity, unit laws
    and commutativity are computed on copy, the adjoint of the match.
    """
    N, m, c, S, u, e = cs.N, cs.group_mult, cs.time_copy, cs.antipode, cs.group_unit, cs.time_delete
    A, V, v, eye, u0 = m.target, m.value, c.value, Table.identity(N), u.target[0]
    i, j = np.divmod(c.target, N)  # copy sends t to (i, j)

    # (1 x match)(copy x 1) on (a, b): copy a = (i_a, j_a), then match (j_a, b) to ticks t.
    # The mirror law is the adjoint of this one and copy match is self-adjoint.
    k, t = _join(j[:, None] * N + np.arange(N), c.target)  # k = a*N + b
    a = k // N
    time_frob = residual((i[a] * N + t, k, v[a] * np.conj(v[t])), (c.target, c.target, abs(v) ** 2))
    k, t = _join(c.target, c.target)  # match copy: from tick k to each tick t copied alike

    # Blocks of p, each array within the entry cap.  inv[p] = A_p^-1 where every row
    # A_p is a permutation, and W[p, a] = conj V[p, A_p^-1(a)].
    rows, inv = np.arange(N), np.zeros_like(A)
    inv[rows[:, None], A] = rows
    permuting = bool((np.take_along_axis(A, inv, 1) == rows).all())
    W = np.conj(np.take_along_axis(V, inv, 1))
    step = max(1, linalg.max_entries() // (N * N)) if permuting else 1
    group_assoc = group_frob = 0.0
    for lo in range(0, N, step):
        p = rows[lo : lo + step]
        Ap, Vp = A[p], V[p]
        # m(m x 1) and m(1 x m) on (p, q, r)
        left = Table(A[Ap], V[Ap] * Vp[..., None])
        group_assoc = max(group_assoc, residual(left, Table(Ap[:, A], Vp[:, A] * V)))
        if permuting:  # tables on (a, b): to m(A_p^-1(a), b), and m^dag m to A_p^-1 m(a, b)
            lhs = Table(A[inv[p]], W[p][..., None] * V[inv[p]])
            rhs = Table(inv[p][:, A], W[p][:, A] * V)
        else:  # keyed into q: (j, b) from (m(p, j), b) to m(j, b), m^dag m from m(a, b) = m(p, q)
            ab, q = _join(A, A[lo])
            lhs = (A, A[lo][:, None] * N + rows, np.conj(V[lo])[:, None] * V)
            rhs = (q, ab, np.conj(V[lo, q]) * V.flat[ab])
        group_frob = max(group_frob, residual(lhs, rhs))

    # (m x m)(1 x swap x 1)(copy x copy) on (s, t): copy s = (i, k), copy t = (j, l),
    # then (i + j, k + l)
    I, K, J, L = i[:, None], j[:, None], i[None, :], j[None, :]
    copy_mult = Table(A[I, J] * N + A[K, L], np.multiply.outer(v, v) * V[I, J] * V[K, L])
    x = S.target[i]  # m (S x 1) copy sends t to m(x, j)
    laws = {
        "time_associativity": residual(
            Table(c.target[i] * N + j, v[i] * v), Table(i * N * N + c.target[j], v[j] * v)
        ),
        "time_unit_laws": max(
            residual(Table(e.target[i] * N + j, e.value[i] * v), eye),
            residual(Table(i + e.target[j], e.value[j] * v), eye),
        ),
        "time_commutativity": residual(Table(j * N + i, v), c),
        "time_frobenius": time_frob,
        "time_speciality": residual((t, k, np.conj(v[t]) * v[k]), eye),
        "group_associativity": group_assoc,
        "group_unit_laws": max(
            residual(Table(A[u0], u.value[0] * V[u0]), eye),
            residual(Table(A[:, u0], u.value[0] * V[:, u0]), eye),
        ),
        "group_commutativity": residual(Table(A.T, V.T), m),
        "group_frobenius": group_frob,
        # m m^dag is diagonal: each (s, t) adds to one sum
        "group_quasi_speciality_factor_N": residual(
            (A, A, abs(V) ** 2), Table(eye.target, N * eye.value)
        ),
        "hopf_law": residual(Table(A[x, j], v * S.value[i] * V[x, j]), e.then(u)),
        "bialgebra_copy_mult": residual(m.then(c), copy_mult),
        "bialgebra_delete_mult": residual(
            m.then(e), Table(e.target[:, None] + e.target, np.multiply.outer(e.value, e.value))
        ),
        "bialgebra_copy_unit": residual(u.then(c), Table(u.target * N + u.target, u.value**2)),
        "bialgebra_delete_unit": residual(u.then(e), Table.identity(1)),
        "antipode_involution": residual(S.then(S), eye),
        # S^dag sends S(t) back to t
        "antipode_self_adjoint": residual(S, (np.arange(N), S.target, np.conj(S.value))),
    }
    checks = tuple(Check(name, err, as_tolerance(tol).eps) for name, err in laws.items())
    return Report(title=f"strong complementarity on C^{N}", checks=checks)
