from types import SimpleNamespace

import numpy as np
import pytest

from qclock import linalg, sampling
from qclock.dynamics import UnitaryDynamic, dynamic_from_generator
from qclock.errors import ShapeMismatchError

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def shift_matrix(N: int) -> np.ndarray:
    """Cyclic shift |t> -> |t+1 mod N>."""
    return np.roll(np.eye(N, dtype=complex), 1, axis=0)


def phase_matrix(N: int) -> np.ndarray:
    """diag(1, w, w^2, ...) with w = exp(2 pi i / N)."""
    return np.diag(np.exp(2j * np.pi * np.arange(N) / N))


def character_vector(N: int, E: int) -> np.ndarray:
    """Column of values chi_E(t) = exp(2 pi i E t / N); squared norm N."""
    return np.exp(2j * np.pi * E * np.arange(N) / N)


def swap_map(n: int, m: int) -> np.ndarray:
    """Permutation matrix exchanging the two factors of an n (x) m product."""
    s = np.zeros((m * n, n * m), dtype=complex)
    for i in range(n):
        for j in range(m):
            s[j * n + i, i * m + j] = 1.0
    return s


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return linalg.as_matrix(a).conj().T


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the global entry cap enforced: the oracle's factor."""
    a, b = linalg.as_matrix(a), linalg.as_matrix(b)
    linalg.check_entries(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return np.kron(a, b)


def dense(table, rows: int) -> np.ndarray:
    """A clock table built out as the rows x inputs matrix it stands for."""
    out = np.zeros((rows, table.target.size), dtype=complex)
    out[table.target.reshape(-1), np.arange(table.target.size)] = table.value.reshape(-1)
    return out


def dense_maps(cs) -> SimpleNamespace:
    """The literal-paper structure maps of a clock, adjoints included, as matrices."""
    N = cs.N
    copy, delete = dense(cs.time_copy, N * N), dense(cs.time_delete, 1)
    mult, unit = dense(cs.group_mult, N), dense(cs.group_unit, N)
    return SimpleNamespace(
        N=N,
        time_copy=copy,  # N^2 x N
        time_delete=delete,  # 1 x N
        time_match=copy.conj().T,
        time_unit_sum=delete.conj().T,
        group_mult=mult,  # N x N^2
        group_unit=unit,  # N x 1
        group_comult=mult.conj().T,
        group_counit=unit.conj().T,
        antipode=dense(cs.antipode, N),
    )


def constant_dynamic(N: int, dim: int):
    """The trivial dynamic: every U_t is the identity."""
    stack = np.broadcast_to(np.eye(dim, dtype=complex), (N, dim, dim)).copy()
    return UnitaryDynamic(N=N, dim=dim, unitaries=stack)


def clock_dynamic(N: int):
    """The clock acting on itself: U_t is cyclic shift by t."""
    return dynamic_from_generator(shift_matrix(N), N)


def is_nondegenerate(d) -> bool:
    """True iff every supported projector has rank 1 and they number dim."""
    spec = d.spectrum
    return len(spec.support) == d.dim and all(r == 1 for r in spec.ranks.values())


def rank1_eigvec(p: np.ndarray) -> np.ndarray:
    """Unit vector spanning a rank-1 projector, phase fixed deterministically.

    The oracle for a rank-1 level of ``ProjectionSpectrum.eigenbasis``.
    """
    col = int(np.argmax(np.linalg.norm(p, axis=0)))
    v = p[:, col]
    v = v / np.linalg.norm(v)
    lead = int(np.argmax(np.abs(v)))
    phase = v[lead] / abs(v[lead])
    return v / phase


def energy_observable(d) -> np.ndarray:
    """The energy observable of a dynamic as the map sum_t U_t^dag (x) |t>: H -> H (x) T.

    A (dim N) x dim matrix with row index h N + t; for the clock's own
    dynamic it is the addition comultiplication.
    """
    adjoints = np.conj(np.transpose(d.unitaries, (0, 2, 1)))  # [t, h, h']
    return np.transpose(adjoints, (1, 0, 2)).reshape(d.dim * d.N, d.dim)


def tick_observable(cs) -> np.ndarray:
    """The clock's tick observable: its copying map, N^2 x N."""
    return dense(cs.time_copy, cs.N * cs.N)


def outcome_weights(m: np.ndarray, psi, energy: bool) -> np.ndarray:
    """Outcome distribution of measuring psi with an observable map.

    The clock leg c(t) = <psi| m |psi>_t is read against tick labels
    directly, and against energy labels through the characters:
    p_E = (1/N) sum_t chi_E(t) c(t).
    """
    psi = np.asarray(psi, dtype=complex)
    N = m.shape[0] // m.shape[1]
    clock_leg = psi.conj() @ (m @ psi).reshape(m.shape[1], N)
    return (character_matrix(N).T @ clock_leg / N if energy else clock_leg).real


def character_matrix(N: int) -> np.ndarray:
    """N x N matrix whose column E is the character chi_E(t) = exp(2 pi i E t / N)."""
    t = np.arange(N)
    return np.exp(2j * np.pi * np.outer(t, t) / N)


def verify_multiplicative_character(cs, v, eps: float = 1e-9) -> bool:
    """The two defining equations of a multiplicative character, on the clock tables.

    The row functional <v| must turn group addition into multiplication,
    <v| o add = <v| (x) <v|, and send the unit |0> to 1.
    """
    v = linalg.as_vector(v)
    if v.shape[0] != cs.N:
        raise ShapeMismatchError(f"vector of dim {v.shape[0]} on a size-{cs.N} clock")
    row, m, u = v.conj(), cs.group_mult, cs.group_unit
    err_mult = linalg.max_abs_diff(row[m.target] * m.value, np.multiply.outer(row, row))
    err_unit = abs(row[u.target[0]] * u.value[0] - 1.0)
    return max(err_mult, err_unit) <= eps


@pytest.fixture(scope="session")
def random_family():
    """50 seeded random dynamics with N <= 12, dim <= 5, plus matched states."""
    rng = np.random.default_rng(20260809)
    family = []
    for _ in range(50):
        N = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 6))
        d = sampling.random_dynamic(N, dim, rng)
        psi = sampling.random_state(dim, rng)
        family.append((d, psi))
    return family


def count_spectra(monkeypatch):
    """Count the spectra computed (``dynamics.hamiltonian`` calls), keyed by dynamic."""
    from collections import Counter

    from qclock import dynamics

    calls, hamiltonian = Counter(), dynamics.hamiltonian

    def counting(d, *args, **kwargs):
        calls[id(d)] += 1
        return hamiltonian(d, *args, **kwargs)

    monkeypatch.setattr(dynamics, "hamiltonian", counting)
    return calls
