"""The two interacting algebras carried by a size-N clock space C^N.

A clock couples a copying structure on the tick basis |0>,...,|N-1>
(comultiplication t -> t,t with its match/erase adjoints) with the cyclic
addition structure (s,t -> s+t mod N, unit |0>, negation antipode).  The
first labels *when*, the second generates translations and, dually, labels
*energy*: its multiplicative characters chi_E(t) = exp(2*pi*i*E*t/N) play
the role of energy levels.  ``verify_strong_complementarity`` checks every
algebraic law the pair is supposed to satisfy, by contracting the structure
maps as (N, N, N) tensors; no map is padded with identities into a
Kronecker factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ShapeMismatchError
from .linalg import DEFAULT_TOL, Tolerance, as_tolerance, dagger, identity, tensor
from .reports import Check, Report


@dataclass(frozen=True)
class ClockStructures:
    """Structure maps of the tick-copying and cyclic-addition algebras on C^N.

    All maps are exact 0/1 permutation-like tensors; compositions of them
    incur no floating-point error.
    """

    N: int
    time_copy: np.ndarray       # N^2 x N:  |t> -> |t>|t>
    time_delete: np.ndarray     # 1 x N:    |t> -> 1
    time_match: np.ndarray      # N x N^2:  |s>|t> -> delta_st |t>
    time_unit_sum: np.ndarray   # N x 1:    sum_t |t>
    group_mult: np.ndarray      # N x N^2:  |s>|t> -> |s+t mod N>
    group_unit: np.ndarray      # N x 1:    |0>
    group_comult: np.ndarray    # N^2 x N:  adjoint of group_mult
    group_counit: np.ndarray    # 1 x N:    <0|
    antipode: np.ndarray        # N x N:    |t> -> |-t mod N>


def make_clock(N: int) -> ClockStructures:
    """Build the clock structures on C^N with exact 0/1 entries."""
    if N < 1:
        raise ValueError(f"clock size must be positive, got {N}")
    linalg.check_entries(N * N, N)

    time_copy = np.zeros((N * N, N), dtype=np.complex128)
    group_mult = np.zeros((N, N * N), dtype=np.complex128)
    antipode = np.zeros((N, N), dtype=np.complex128)
    for t in range(N):
        time_copy[t * N + t, t] = 1.0
        antipode[(-t) % N, t] = 1.0
        for s in range(N):
            group_mult[(s + t) % N, s * N + t] = 1.0

    time_delete = np.ones((1, N), dtype=np.complex128)
    group_unit = np.zeros((N, 1), dtype=np.complex128)
    group_unit[0, 0] = 1.0

    return ClockStructures(
        N=N,
        time_copy=time_copy,
        time_delete=time_delete,
        time_match=time_copy.conj().T,
        time_unit_sum=time_delete.conj().T,
        group_mult=group_mult,
        group_unit=group_unit,
        group_comult=group_mult.conj().T,
        group_counit=group_unit.conj().T,
        antipode=antipode,
    )


@dataclass(frozen=True)
class Character:
    """Energy label E of the cyclic group of size N."""

    N: int
    E: int

    def __post_init__(self):
        if not (0 <= self.E < self.N):
            raise ValueError(f"energy label {self.E} outside [0, {self.N})")


def character_vector(c: Character) -> np.ndarray:
    """Column of values chi_E(t) = exp(2*pi*i*E*t/N); squared norm N."""
    t = np.arange(c.N)
    return np.exp(2j * np.pi * c.E * t / c.N)


def character_matrix(N: int) -> np.ndarray:
    """N x N matrix whose column E is character_vector(Character(N, E))."""
    t = np.arange(N)
    return np.exp(2j * np.pi * np.outer(t, t) / N)


def verify_multiplicative_character(
    cs: ClockStructures, v: np.ndarray, tol: Tolerance | float = DEFAULT_TOL
) -> bool:
    """Check the two defining equations of a multiplicative character.

    The row functional <v| must turn group addition into multiplication,
    <v| o add = <v| (x) <v|, and send the unit |0> to 1.
    """
    v = linalg.as_vector(v)
    if v.shape[0] != cs.N:
        raise ShapeMismatchError(f"vector of dim {v.shape[0]} on a size-{cs.N} clock")
    eps = as_tolerance(tol).eps
    row = v.conj().reshape(1, -1)
    err_mult = linalg.max_abs_diff(row @ cs.group_mult, tensor(row, row))
    err_unit = linalg.max_abs_diff(row @ cs.group_unit, np.array([[1.0]]))
    return max(err_mult, err_unit) <= eps


def _frobenius_checks(
    prefix: str, mult: np.ndarray, unit: np.ndarray, N: int, eps: float
) -> list[Check]:
    """The four laws on m[a,i,j] = mult[a, i*N + j], comultiplication m^dag.

    Each law is compared one output slice (N^3 entries) at a time, with
    two-operand contractions only.
    """
    m = mult.reshape(N, N, N)
    mc = m.conj()  # the comultiplication: dagger(mult)[i*N + j, a] = mc[a, i, j]
    m_flat = mult.reshape(N, N * N)
    m_jqb = m.transpose(1, 0, 2).reshape(N, N * N)
    u = unit[:, 0]
    eye = identity(N)

    assoc = frobenius = 0.0
    for p in range(N):
        # m(m x 1)[p,q,r,s] = sum_i m[p,i,s] m[i,q,r]
        # m(1 x m)[p,q,r,s] = sum_j m[p,q,j] m[j,r,s]
        left = (m[p].T @ m_flat).reshape(N, N, N).transpose(1, 2, 0)
        right = (m[p] @ m_flat).reshape(N, N, N)
        assoc = max(assoc, linalg.max_abs_diff(left, right))
        # m^dag m[p,q,a,b] = sum_x mc[x,p,q] m[x,a,b]
        # (1 x m)(m^dag x 1)[p,q,a,b] = sum_j mc[a,p,j] m[q,j,b]
        # The mirror law (m x 1)(1 x m^dag) is the adjoint of this one, and
        # m^dag m is self-adjoint, so its error is the same.
        mid = (mc[:, p, :].T @ m_flat).reshape(N, N, N)
        frob = (mc[:, p, :] @ m_jqb).reshape(N, N, N).transpose(1, 0, 2)
        frobenius = max(frobenius, linalg.max_abs_diff(frob, mid))
    unit_l = linalg.max_abs_diff(np.tensordot(u, m, axes=([0], [1])), eye)
    unit_r = linalg.max_abs_diff(m @ u, eye)
    comm = linalg.max_abs_diff(m.transpose(0, 2, 1), m)  # m o swap
    return [
        Check(f"{prefix}_associativity", assoc, eps),
        Check(f"{prefix}_unit_laws", max(unit_l, unit_r), eps),
        Check(f"{prefix}_commutativity", comm, eps),
        Check(f"{prefix}_frobenius", frobenius, eps),
    ]


def _bialgebra_copy_mult(cs: ClockStructures) -> float:
    """copy(s + t) against (s, t copied pairwise, middle swapped, added pairwise).

    On m = group_mult and c = time_copy, both reshaped to (N, N, N):
    lhs[a,b,s,t] = sum_x c[a,b,x] m[x,s,t] and
    rhs[a,b,s,t] = sum_{ijkl} m[a,i,j] m[b,k,l] c[i,k,s] c[j,l,t].
    Compared one (a, s) slice at a time, each step a matrix product.
    """
    N = cs.N
    m = cs.group_mult.reshape(N, N, N)
    c = cs.time_copy.reshape(N, N, N)
    m_flat, c_flat = cs.group_mult.reshape(N, N * N), cs.time_copy.reshape(N, N * N)
    err = 0.0
    for a in range(N):
        ma_c = (m[a].T @ c_flat).reshape(N, N, N)  # [j,k,s] = sum_i m[a,i,j] c[i,k,s]
        for s in range(N):
            z = ma_c[:, :, s].T @ c_flat  # [k,l,t] = sum_j ma_c[j,k,s] c[j,l,t]
            rhs = m_flat @ z.reshape(N * N, N)  # [b,t]
            err = max(err, linalg.max_abs_diff(c[a] @ m[:, s, :], rhs))
    return err


def verify_strong_complementarity(
    cs: ClockStructures, tol: Tolerance | float = DEFAULT_TOL
) -> Report:
    """Check every law of the interacting pair on C^N.

    Covers: Frobenius laws and speciality of the tick structure, Frobenius
    laws of the addition structure with quasi-speciality factor N, the Hopf
    law through the antipode, the bialgebra laws tying the two structures
    together, and antipode involutivity/self-adjointness.  All maps being
    exact permutation tensors, every reported error should be exactly 0.
    """
    N, eps = cs.N, as_tolerance(tol).eps
    eye = identity(N)

    def law(name: str, lhs, rhs) -> Check:
        return Check(name, linalg.max_abs_diff(lhs, rhs), eps)

    checks = _frobenius_checks("time", cs.time_match, cs.time_unit_sum, N, eps)
    checks.append(law("time_speciality", cs.time_match @ cs.time_copy, eye))
    checks += _frobenius_checks("group", cs.group_mult, cs.group_unit, N, eps)
    checks.append(
        law("group_quasi_speciality_factor_N", cs.group_mult @ cs.group_comult, N * eye)
    )
    # m (S x 1) copy: [a,t] = sum_{ij} m[a,i,j] sum_p S[i,p] copy[p,j,t]
    antipode_copy = (cs.antipode @ cs.time_copy.reshape(N, N * N)).reshape(N * N, N)
    delete, unit = cs.time_delete, cs.group_unit
    checks += [
        law("hopf_law", cs.group_mult @ antipode_copy, unit @ delete),
        Check("bialgebra_copy_mult", _bialgebra_copy_mult(cs), eps),
        law("bialgebra_delete_mult", delete @ cs.group_mult, tensor(delete, delete)),
        law("bialgebra_copy_unit", cs.time_copy @ unit, tensor(unit, unit)),
        law("bialgebra_delete_unit", delete @ unit, np.array([[1.0]])),
        law("antipode_involution", cs.antipode @ cs.antipode, eye),
        law("antipode_self_adjoint", cs.antipode, dagger(cs.antipode)),
    ]
    return Report(title=f"strong complementarity on C^{N}", checks=tuple(checks))
