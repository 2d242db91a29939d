"""The FFT spectrum against the literal-paper forms.

The oracle here is the paper's formula written out: P_E as the
character-matrix sum (1/N) sum_t conj(chi_E(t)) U_t, U_t resummed as
sum_E chi_E(t) P_E, and orthogonality as the maximum over every pair of
labels.  The library computes the same objects by FFT and checks
orthogonality exactly only on the support, with a bound off it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import character_matrix, energy_observable, outcome_weights
from qclock import linalg, sampling
from qclock.dynamics import (
    SUPPORT_THRESHOLD,
    ProjectionSpectrum,
    UnitaryDynamic,
    dynamic_from_generator,
    fourier_transform,
    hamiltonian,
    inverse_fourier_transform,
    spectrum_checks,
    stone_reconstruct,
)
from qclock.histories import reconstruct_history, schrodinger_solve
from qclock.linalg import identity

EPS = 1e-9
AGREE = 1e-12


def oracle_projectors(d) -> np.ndarray:
    chars = character_matrix(d.N)  # chars[t, E]
    return np.tensordot(chars.conj().T, d.unitaries, axes=1) / d.N


def oracle_resum(stack: np.ndarray) -> np.ndarray:
    return np.tensordot(character_matrix(stack.shape[0]), stack, axes=1)


def oracle_checks(p: np.ndarray) -> dict[str, float]:
    """The four spectrum identities, with orthogonality over all label pairs."""
    N, dim = p.shape[0], p.shape[1]
    orth = 0.0
    for e in range(N):
        for f in range(e + 1, N):
            orth = max(orth, float(np.max(np.abs(p[e] @ p[f]))))
    return {
        "idempotence": max(float(np.max(np.abs(q @ q - q))) for q in p),
        "self_adjointness": max(float(np.max(np.abs(q - q.conj().T))) for q in p),
        "orthogonality": orth,
        "completeness": float(np.max(np.abs(p.sum(axis=0) - identity(dim)))),
    }


def drawn_dynamic(N: int, labels, seed: int):
    """V diag(omega^k) V^dag for a Haar-random V, as a generated dynamic."""
    rng = np.random.default_rng(seed)
    dim = len(labels)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    phases = np.exp(2j * np.pi * np.asarray(labels) / N)
    return dynamic_from_generator((v * phases) @ v.conj().T, N)


def small_dynamics():
    rng = np.random.default_rng(20261018)
    for N in range(1, 9):
        for dim in (1, 2, 3, 5):
            yield sampling.random_dynamic(N, dim, rng)


def test_fft_projectors_and_resum_match_character_sums():
    for d in small_dynamics():
        spec = hamiltonian(d)
        want = oracle_projectors(d)
        assert np.max(np.abs(spec.projectors - want)) <= AGREE
        peaks = np.abs(want).max(axis=(1, 2))
        assert spec.support == tuple(np.flatnonzero(peaks > SUPPORT_THRESHOLD))
        rebuilt = stone_reconstruct(spec).unitaries
        assert np.max(np.abs(rebuilt - oracle_resum(want))) <= AGREE


def test_ranks_are_rounded_traces_on_the_support():
    for d in small_dynamics():
        spec = hamiltonian(d)
        assert spec.ranks == {
            E: int(round(float(np.trace(spec.projectors[E]).real)))
            for E in spec.support
        }
        assert sum(spec.ranks.values()) == d.dim


def test_spectrum_checks_agree_with_all_pairs_oracle():
    for d in small_dynamics():
        spec = hamiltonian(d)
        report = spectrum_checks(spec, EPS)
        want = oracle_checks(spec.projectors)
        for name, value in want.items():
            got = report.check(name).max_error
            assert abs(got - value) <= AGREE, name
        assert report.check("orthogonality").max_error >= want["orthogonality"]


def test_fourier_pair_and_resums_match_character_matrix():
    rng = np.random.default_rng(7)
    for N in range(1, 9):
        chars = character_matrix(N)
        v = rng.normal(size=N) + 1j * rng.normal(size=N)
        assert np.max(np.abs(fourier_transform(v) - chars.conj().T @ v / N)) <= AGREE
        assert np.max(np.abs(inverse_fourier_transform(v) - chars @ v)) <= AGREE
    for d in small_dynamics():
        # a stack is transformed along its first axis, the time or energy label
        projectors = fourier_transform(d.unitaries)
        assert np.max(np.abs(projectors - oracle_projectors(d))) <= AGREE
        assert np.max(np.abs(inverse_fourier_transform(projectors) - d.unitaries)) <= AGREE
        psi = sampling.random_state(d.dim, rng)
        sol = schrodinger_solve(d, psi)
        got = reconstruct_history(sol).states
        assert np.max(np.abs(got - oracle_resum(sol.components))) <= AGREE


def test_energy_observable_and_weights_match_character_matrix():
    # the map sum_t U_t^dag (x) |t> is sum_E P_E (x) conj(chi_E), and the
    # eigenbasis weights |<x_E|psi>|^2 are the <psi|P_E|psi> it measures
    rng = np.random.default_rng(11)
    for d in small_dynamics():
        spec = hamiltonian(d)
        chars = character_matrix(d.N)
        obs = energy_observable(d)
        want = np.einsum("ehk,te->htk", spec.projectors, chars.conj())
        assert np.max(np.abs(obs - want.reshape(d.dim * d.N, d.dim))) <= AGREE
        psi = sampling.random_state(d.dim, rng)
        W, labels = spec.eigenbasis
        got = np.bincount(labels, np.abs(np.conj(W.T) @ psi) ** 2, minlength=d.N)
        assert np.max(np.abs(got - outcome_weights(obs, psi, energy=True))) <= AGREE


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 64),
    dim=st.integers(1, 6),
    support_size=st.integers(1, 3),
    data=st.data(),
)
def test_support_orthogonality_bounds_the_oracle(N, dim, support_size, data):
    pool = data.draw(
        st.lists(st.integers(0, N - 1), min_size=support_size, max_size=support_size)
    )
    labels = data.draw(st.lists(st.sampled_from(pool), min_size=dim, max_size=dim))
    d = drawn_dynamic(N, labels, data.draw(st.integers(0, 2**32 - 1)))
    spec = hamiltonian(d)
    assert spec.support == tuple(sorted(set(labels)))
    report = spectrum_checks(spec, EPS)
    want = oracle_checks(spec.projectors)
    assert report.check("orthogonality").max_error >= want["orthogonality"]
    for name, value in want.items():
        assert report.check(name).passed == (value <= EPS), name


@pytest.mark.parametrize("cap", [1 << 20, 50, 1])
def test_pair_table_matches_the_pair_loop_in_every_batching(cap):
    # unitaries drawn one by one: no dynamic, so every label is supported and the
    # table's row batches (a quarter of the rows, fewer under a small entry cap) all run
    rng = np.random.default_rng(cap)
    stack = np.stack([sampling.haar_unitary(3, rng) for _ in range(24)])
    previous = linalg.max_entries()
    linalg.set_max_entries(cap)
    try:
        spec = UnitaryDynamic(24, 3, stack).spectrum
        table = spec.pair_table
    finally:
        linalg.set_max_entries(previous)
    p = spec.projectors[list(spec.support)]
    want = np.zeros_like(table)
    for e in range(len(p)):
        for f in range(e, len(p)):
            want[e, f] = np.abs(p[e] @ p[f] - (p[e] if e == f else 0)).max()
    assert len(spec.support) == 24
    assert np.max(np.abs(table - want)) <= AGREE


def test_small_off_support_projector_fails_as_the_oracle_does():
    d = drawn_dynamic(8, [0, 0, 3, 5], seed=4)
    spec = hamiltonian(d)
    assert spec.support == (0, 3, 5)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    stack = spec.projectors.copy()
    stack[6] = 1e-8 * (z + z.conj().T) / 2
    assert np.abs(stack[6]).max() < SUPPORT_THRESHOLD
    broken = ProjectionSpectrum(N=8, dim=4, projectors=stack)
    assert broken.support == spec.support

    report = spectrum_checks(broken, EPS)
    want = oracle_checks(stack)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {name for name, value in want.items() if value > EPS}
    assert failed == {"idempotence", "orthogonality", "completeness"}
    assert report.check("idempotence").max_error == pytest.approx(
        want["idempotence"], abs=AGREE
    )
    assert report.check("orthogonality").max_error >= want["orthogonality"]
