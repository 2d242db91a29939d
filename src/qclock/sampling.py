"""Seeded random instances for property suites and self-tests.

Random dynamics are built as V diag(omega^{k_1}, ..., omega^{k_dim}) V^dag
with V Haar-distributed and integer exponents, so the generator's N-th
power is the identity up to roundoff; arbitrary unitaries would not be
valid Z/N representations.
"""

from __future__ import annotations

import numpy as np

from .dynamics import UnitaryDynamic, dynamic_from_generator
from .feynman import CyclicCircuit, cyclify


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_dynamic(N: int, dim: int, rng: np.random.Generator) -> UnitaryDynamic:
    """Random Z/N dynamic with eigenphases at N-th roots of unity."""
    v = haar_unitary(dim, rng)
    k = rng.integers(0, N, size=dim)
    phases = np.exp(2j * np.pi * k / N)
    gen = (v * phases) @ v.conj().T
    return dynamic_from_generator(gen, N)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalised complex Gaussian state."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_cyclified_circuit(
    n_gates: int, dim: int, rng: np.random.Generator
) -> CyclicCircuit:
    """Cyclic circuit with N = 2 * n_gates from random gates and their adjoints."""
    return cyclify([haar_unitary(dim, rng) for _ in range(n_gates)])
