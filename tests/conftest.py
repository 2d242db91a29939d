import numpy as np
import pytest

from qclock import sampling

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def shift_matrix(N: int) -> np.ndarray:
    """Cyclic shift |t> -> |t+1 mod N>."""
    return np.roll(np.eye(N, dtype=complex), 1, axis=0)


def phase_matrix(N: int) -> np.ndarray:
    """diag(1, w, w^2, ...) with w = exp(2 pi i / N)."""
    return np.diag(np.exp(2j * np.pi * np.arange(N) / N))


def swap_map(n: int, m: int) -> np.ndarray:
    """Permutation matrix exchanging the two factors of an n (x) m product."""
    s = np.zeros((m * n, n * m), dtype=complex)
    for i in range(n):
        for j in range(m):
            s[j * n + i, i * m + j] = 1.0
    return s


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


def count_spectra(monkeypatch, module):
    """Count hamiltonian calls made through ``module``, keyed by dynamic."""
    from collections import Counter

    from qclock import dynamics

    calls = Counter()

    def counting(d, *args, **kwargs):
        calls[id(d)] += 1
        return dynamics.hamiltonian(d, *args, **kwargs)

    monkeypatch.setattr(module, "hamiltonian", counting)
    return calls
