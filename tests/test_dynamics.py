import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    X,
    Z,
    character_vector,
    clock_dynamic,
    constant_dynamic,
    phase_matrix,
    rank1_eigvec,
    shift_matrix,
)
from qclock import sampling
from qclock.dynamics import (
    ProjectionSpectrum,
    UnitaryDynamic,
    _action_sweep,
    dynamic_from_generator,
    fourier_transform,
    hamiltonian,
    inverse_fourier_transform,
    spectral_projector,
    spectrum_checks,
    stone_reconstruct,
    time_average,
    validate_dynamic,
)
from qclock.errors import (
    IncompleteSpectrumError,
    NotPeriodicError,
    NotUnitaryError,
)

P_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
P_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def test_generator_identity_gives_constant_dynamic():
    d = dynamic_from_generator(np.eye(2), 4)
    assert all(np.array_equal(u, np.eye(2)) for u in d.unitaries)


def test_generator_x_period_two():
    d = dynamic_from_generator(X, 2)
    assert np.array_equal(d.unitaries[0], np.eye(2))
    assert np.array_equal(d.unitaries[1], X)


def test_generator_x_period_three_rejected():
    with pytest.raises(NotPeriodicError):
        dynamic_from_generator(X, 3)


def test_generator_must_be_unitary():
    with pytest.raises(NotUnitaryError):
        dynamic_from_generator(np.array([[1, 1], [0, 1]]), 2)


sizes = st.integers(1, 300) | st.sampled_from([2**j for j in range(9)])


@settings(max_examples=60, deadline=None)
@given(N=sizes, dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_doubled_powers_match_the_eigenphases(N, dim, seed):
    rng = np.random.default_rng(seed)
    v, k = sampling.haar_unitary(dim, rng), rng.integers(0, N, size=dim)
    d = dynamic_from_generator((v * np.exp(2j * np.pi * k / N)) @ v.conj().T, N)
    t = np.arange(N)
    want = np.einsum("ij,tj,kj->tik", v, np.exp(2j * np.pi * np.outer(t, k) / N), v.conj())
    # the stored generator's eigenvalues miss omega^k by about dim eps, and any
    # way of taking U^t carries t times that: the bound is linear in t, not in log t
    err = np.abs(d.unitaries - want).max(axis=(1, 2))
    assert (err <= 16 * (t + 1) * dim * np.finfo(float).eps).all()


def sequential_wrap(gen: np.ndarray, N: int) -> float:
    """max|U^N - I| with U^N formed one product at a time, as before doubling."""
    power = np.eye(len(gen), dtype=complex)
    for _ in range(N):
        power = gen @ power
    return float(np.max(np.abs(power - np.eye(len(gen)))))


@settings(max_examples=40, deadline=None)
@given(N=sizes, dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_off_period_generators_raise_the_same_message(N, dim, seed):
    rng = np.random.default_rng(seed)
    v = sampling.haar_unitary(dim, rng)
    # one eigenphase a third of the way between two N-th roots of unity
    phases = 2 * np.pi * (rng.integers(0, N, size=dim) + np.eye(dim)[0] / 3) / N
    gen = (v * np.exp(1j * phases)) @ v.conj().T
    message = (
        f"generator^{N} differs from identity by {sequential_wrap(gen, N):.3e}; "
        f"its eigenphases are not {N}-th roots of unity"
    )
    with pytest.raises(NotPeriodicError) as info:
        dynamic_from_generator(gen, N)
    assert str(info.value) == message


OFF_PERIOD = "differs from identity by 1.000e+00; its eigenphases are not 3-th roots of unity"


@pytest.mark.parametrize(
    "gen, N, error, message",
    [
        (X, 3, NotPeriodicError, f"generator^3 {OFF_PERIOD}"),
        ([[1, 1], [0, 1]], 2, NotUnitaryError, "generator is not unitary, max error 1.000e+00"),
        (2 * np.eye(3), 4, NotUnitaryError, "generator is not unitary, max error 3.000e+00"),
    ],
)
def test_generator_errors_keep_their_messages(gen, N, error, message):
    with pytest.raises(error) as info:
        dynamic_from_generator(gen, N)
    assert str(info.value) == message


def test_validate_dynamic_passes_for_representation():
    report = validate_dynamic(dynamic_from_generator(X, 2))
    assert report.passed


def test_validate_dynamic_unit_law_violation():
    swapped = UnitaryDynamic(N=2, dim=2, unitaries=np.stack([X, np.eye(2, dtype=complex)]))
    report = validate_dynamic(swapped)
    assert not report.check("unit_law").passed


def test_validate_dynamic_catches_non_unitary_involution():
    # a genuine Z/2 action by a non-normal involution: only the third law fails
    s = np.array([[1, 1], [0, 1]], dtype=complex)
    u = s @ np.diag([1, -1]) @ np.linalg.inv(s)
    d = UnitaryDynamic(N=2, dim=2, unitaries=np.stack([np.eye(2, dtype=complex), u]))
    report = validate_dynamic(d)
    assert report.check("action_law").passed
    assert report.check("unit_law").passed
    assert not report.check("unitarity_law").passed


def test_validate_constant_dynamic_exact():
    d = constant_dynamic(5, 3)
    report = validate_dynamic(d)
    assert report.passed
    # the action law reports a certified bound; the exact all-pairs sweep is 0
    exact = _action_sweep(d.unitaries)
    assert exact == 0.0
    assert exact <= report.max_error <= 1e-14


def test_dynamic_stack_and_its_spectrum_are_read_only():
    # a write would leave the spectrum the dynamic keeps stale, so it raises
    d = dynamic_from_generator(X, 2)
    with pytest.raises(ValueError):
        d.unitaries[1] = np.eye(2)
    with pytest.raises(ValueError):
        d.unitaries[0, 0, 0] += 1e-3
    with pytest.raises(ValueError):
        d.spectrum.projectors[0, 0, 0] = 0.0
    assert d.spectrum is d.spectrum
    assert np.array_equal(d.spectrum.projectors, hamiltonian(d).projectors)


def test_dynamic_keeps_its_own_copy_of_the_stack():
    # a write to the caller's array must not reach the stack under the kept spectrum
    a = np.stack([np.eye(2, dtype=complex), X])
    d = UnitaryDynamic(N=2, dim=2, unitaries=a)
    assert d.spectrum.support == (0, 1)
    a[1] = np.eye(2)
    assert np.array_equal(d.unitaries[1], X)
    assert d.spectrum.support == hamiltonian(d).support


def test_spectral_projectors_of_x_dynamic():
    d = dynamic_from_generator(X, 2)
    assert np.allclose(spectral_projector(d, 0), P_PLUS)
    assert np.allclose(spectral_projector(d, 1), P_MINUS)


def test_spectral_projector_vanishes_off_support():
    d = constant_dynamic(4, 3)
    assert np.max(np.abs(spectral_projector(d, 2))) < 1e-12


def test_hamiltonian_support():
    d = dynamic_from_generator(X, 2)
    spec = hamiltonian(d)
    assert spec.support == (0, 1)
    assert all(
        abs(np.trace(spec.projectors[E]) - 1) < 1e-9 for E in spec.support
    )

    assert hamiltonian(constant_dynamic(3, 2)).support == (0,)

    w6 = np.exp(2j * np.pi / 6)
    spec6 = hamiltonian(dynamic_from_generator(np.diag([1, w6**2]), 6))
    assert spec6.support == (0, 2)


def test_eigenbasis_of_projector():
    d = dynamic_from_generator(X, 2)
    W, labels = d.spectrum.eigenbasis
    assert W.shape == (2, 2) and labels.tolist() == [0, 1]
    plus = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(np.abs(W[:, 0] @ plus), 1.0)
    with pytest.raises(ValueError):
        W[0, 0] = 0.0
    empty = ProjectionSpectrum(N=2, dim=3, projectors=np.zeros((2, 3, 3), dtype=complex))
    W, labels = empty.eigenbasis
    assert W.shape == (3, 0) and labels.shape == (0,)


@settings(max_examples=60, deadline=None)
@given(N=sizes, dim=st.integers(1, 8), levels=sizes, seed=st.integers(0, 2**32 - 1))
def test_eigenbasis_spans_each_level(N, dim, levels, seed):
    # eigenphases among the first few labels make degenerate levels common
    rng = np.random.default_rng(seed)
    v = sampling.haar_unitary(dim, rng)
    phases = np.exp(2j * np.pi * rng.integers(0, min(levels, N), size=dim) / N)
    spec = dynamic_from_generator((v * phases) @ np.conj(v.T), N).spectrum
    W, labels = spec.eigenbasis
    assert labels.tolist() == [E for E, r in spec.ranks.items() for _ in range(r)]
    for E, rank in spec.ranks.items():
        w = W[:, labels == E]
        assert np.max(np.abs(np.conj(w.T) @ w - np.eye(rank))) <= 1e-12
        assert np.max(np.abs(spec.projectors[E] @ w - w)) <= 1e-12
        if rank == 1:
            assert np.array_equal(w[:, 0], rank1_eigvec(spec.projectors[E]))


def test_eigenbasis_of_stacks_that_are_no_dynamic():
    # [Z, X] at N=2 has two rank-1 levels that do not commute; a level whose
    # rounded trace overstates its range ends at its last nonzero residual
    stack = UnitaryDynamic(N=2, dim=2, unitaries=np.stack([Z, X])).spectrum
    overstated = ProjectionSpectrum(
        N=1, dim=2, projectors=np.array([[[1.3, 0], [0, 0]]], dtype=complex)
    )
    assert overstated.ranks == {0: 2}
    for spec, columns in ((stack, 2), (overstated, 1)):
        W, labels = spec.eigenbasis
        assert W.shape == (2, columns) and np.isfinite(W).all()
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0)


def test_spectrum_invariants_random_family(random_family):
    for d, _ in random_family:
        report = spectrum_checks(hamiltonian(d), 1e-8)
        assert report.passed, report.summary()


def test_eigen_relation_random_family(random_family):
    for d, _ in random_family:
        spec = hamiltonian(d)
        for E in spec.support:
            p = spec.projectors[E]
            for t in range(d.N):
                phase = np.exp(2j * np.pi * E * t / d.N)
                assert np.max(np.abs(d.unitaries[t] @ p - phase * p)) < 1e-8


def test_stone_reconstruct_two_level():
    spec = hamiltonian(dynamic_from_generator(X, 2))
    rebuilt = stone_reconstruct(spec)
    assert np.allclose(rebuilt.unitaries[0], np.eye(2))
    assert np.allclose(rebuilt.unitaries[1], X)


def test_stone_reconstruct_trivial_spectrum():
    rebuilt = stone_reconstruct(hamiltonian(constant_dynamic(5, 2)))
    assert all(np.allclose(u, np.eye(2)) for u in rebuilt.unitaries)


def test_stone_round_trip_random_family(random_family):
    for d, _ in random_family:
        rebuilt = stone_reconstruct(hamiltonian(d))
        assert np.max(np.abs(rebuilt.unitaries - d.unitaries)) < 1e-9


def test_stone_rejects_incomplete_spectrum():
    spec = hamiltonian(dynamic_from_generator(X, 2))
    broken = spec.projectors.copy()
    broken[1] = 0
    from qclock.dynamics import ProjectionSpectrum

    with pytest.raises(IncompleteSpectrumError):
        stone_reconstruct(
            ProjectionSpectrum(N=2, dim=2, projectors=broken)
        )


def test_time_average_examples():
    assert np.allclose(time_average(dynamic_from_generator(X, 2)), P_PLUS)
    assert np.allclose(time_average(constant_dynamic(3, 2)), np.eye(2))
    assert np.allclose(time_average(dynamic_from_generator(Z, 2)), np.diag([1, 0]))


def test_time_average_is_ground_projector(random_family):
    for d, _ in random_family:
        assert np.max(np.abs(time_average(d) - spectral_projector(d, 0))) < 1e-9


def test_fourier_examples():
    assert np.allclose(fourier_transform([1, 1]), [1, 0])
    chi1 = character_vector(4, 1)
    assert np.allclose(fourier_transform(chi1), [0, 1, 0, 0], atol=1e-12)
    uniform = fourier_transform([1, 0, 0, 0])
    assert np.allclose(uniform, np.full(4, 0.25))


def test_fourier_inverse_and_scaling():
    rng = np.random.default_rng(3)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.allclose(inverse_fourier_transform(fourier_transform(f)), f)
    # with the 1/N forward convention the pairing scales by 1/N
    lhs = np.vdot(fourier_transform(f), fourier_transform(g))
    assert lhs == pytest.approx(np.vdot(f, g) / 6)


def test_clock_dynamic_spectrum_is_character_resolution():
    N = 5
    spec = hamiltonian(clock_dynamic(N))
    assert spec.support == tuple(range(N))
    for E in range(N):
        p = spec.projectors[E]
        assert abs(np.trace(p) - 1) < 1e-9
        # rank-1 onto the character direction conjugate to E
        chi = character_vector(N, (-E) % N)
        expected = np.outer(chi, chi.conj()) / N
        assert np.max(np.abs(p - expected)) < 1e-9


def test_shift_and_phase_generators_commutation_sanity():
    # spot-check the basis convention: shift moves |0> to |1>
    s = shift_matrix(3)
    assert np.array_equal(s @ np.array([1, 0, 0]), np.array([0, 1, 0]))
    m = phase_matrix(3)
    assert m[1, 1] == pytest.approx(np.exp(2j * np.pi / 3))


FOURIER_PAIR = {"fourier_transform", "inverse_fourier_transform"}


def _fft_references(node: ast.AST, function: str | None = None):
    """(line, enclosing function) of each reference to numpy's fft module under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    names = []
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        names = [f"{node.value.id}.{node.attr}"]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
    if any(n in ("np.fft", "numpy.fft") or n.startswith("numpy.fft.") for n in names):
        yield node.lineno, function
    for child in ast.iter_child_nodes(node):
        yield from _fft_references(child, function)


def test_only_the_fourier_pair_calls_np_fft():
    # the pair holds the one 1/N convention of the Z/N Fourier transform
    src = Path(__file__).resolve().parents[1] / "src" / "qclock"
    refs = [
        (path.name, line, function)
        for path in sorted(src.glob("*.py"))
        for line, function in _fft_references(ast.parse(path.read_text()))
    ]
    assert [r for r in refs if r[2] not in FOURIER_PAIR] == []
    assert {r[2] for r in refs} == FOURIER_PAIR
