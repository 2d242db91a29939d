import numpy as np
import pytest

from conftest import X, clock_dynamic, constant_dynamic
from qclock.dynamics import dynamic_from_generator
from qclock.errors import ShapeMismatchError
from qclock.histories import (
    History,
    _translation_sweep,
    history_from_state,
    is_em_morphism,
    reconstruct_history,
    schrodinger_solve,
)


def test_history_of_x_dynamic():
    h = history_from_state(dynamic_from_generator(X, 2), [1, 0])
    assert np.allclose(h.states, [[1, 0], [0, 1]])


def test_history_of_constant_dynamic_is_constant():
    psi = np.array([0.6, 0.8j])
    h = history_from_state(constant_dynamic(4, 2), psi)
    assert all(np.allclose(s, psi) for s in h.states)


def test_history_of_clock_translates_ticks():
    h = history_from_state(clock_dynamic(3), [1, 0, 0])
    assert np.allclose(h.states, np.eye(3))


def test_history_dim_mismatch():
    with pytest.raises(ShapeMismatchError):
        history_from_state(dynamic_from_generator(X, 2), [1, 0, 0])


def test_translation_equation_holds_by_construction():
    d = dynamic_from_generator(X, 2)
    h = history_from_state(d, [1, 0])
    ok, err = is_em_morphism(h, d)
    # at N dim = 4 the exact all-pairs sweep reports, and it is 0
    assert _translation_sweep(h.states, d.unitaries) == 0.0
    assert ok and err == 0.0


def test_translation_equation_detects_frozen_history():
    d = dynamic_from_generator(X, 2)
    frozen = History(N=2, dim=2, states=np.array([[1, 0], [1, 0]], dtype=complex))
    ok, err = is_em_morphism(frozen, d)
    assert not ok
    assert err == pytest.approx(1.0)


def test_constant_history_of_constant_dynamic():
    d = constant_dynamic(3, 2)
    h = History(N=3, dim=2, states=np.tile([1, 0], (3, 1)).astype(complex))
    ok, _ = is_em_morphism(h, d)
    assert ok


def test_spectral_solution_of_x_dynamic():
    sol = schrodinger_solve(dynamic_from_generator(X, 2), [1, 0])
    assert np.allclose(sol.components[0], [0.5, 0.5])
    assert np.allclose(sol.components[1], [0.5, -0.5])


def test_spectral_solution_trivial_dynamic():
    psi = np.array([0.6, 0.8j])
    sol = schrodinger_solve(constant_dynamic(3, 2), psi)
    assert np.allclose(sol.components[0], psi)
    assert np.max(np.abs(sol.components[1:])) < 1e-12


def test_eigenstate_input_has_single_component():
    w6 = np.exp(2j * np.pi / 6)
    d = dynamic_from_generator(np.diag([1, w6**2, w6**4]), 6)
    psi = np.array([0, 1, 0], dtype=complex)
    sol = schrodinger_solve(d, psi)
    assert np.allclose(sol.components[2], psi)
    others = [sol.components[e] for e in range(6) if e != 2]
    assert np.max(np.abs(np.stack(others))) < 1e-12


def test_reconstruct_golden_case():
    sol = schrodinger_solve(dynamic_from_generator(X, 2), [1, 0])
    h = reconstruct_history(sol)
    assert np.allclose(h.states, [[1, 0], [0, 1]])


def test_reconstruct_zero_solution():
    from qclock.histories import SpectralSolution

    zero = SpectralSolution(N=3, dim=2, components=np.zeros((3, 2), dtype=complex))
    assert np.max(np.abs(reconstruct_history(zero).states)) == 0.0


def test_round_trip_random_family(random_family):
    for d, psi in random_family:
        h = history_from_state(d, psi)
        ok, err = is_em_morphism(h, d, 1e-8)
        assert ok, err
        sol = schrodinger_solve(d, psi)
        # components sum back to the initial state
        assert np.max(np.abs(sol.components.sum(axis=0) - psi)) < 1e-9
        # and resumming with phases reproduces the trajectory
        assert np.max(np.abs(reconstruct_history(sol).states - h.states)) < 1e-9


def test_components_satisfy_eigen_relation(random_family):
    for d, psi in random_family[:20]:
        sol = schrodinger_solve(d, psi)
        for E in range(d.N):
            comp = sol.components[E]
            if np.linalg.norm(comp) < 1e-10:
                continue
            for t in range(d.N):
                phase = np.exp(2j * np.pi * E * t / d.N)
                assert np.max(np.abs(d.unitaries[t] @ comp - phase * comp)) < 1e-8


def test_every_em_morphism_is_a_history(random_family):
    # the converse direction: a family satisfying the translation equation
    # is the trajectory of its own initial state
    for d, psi in random_family[:10]:
        h = history_from_state(d, psi)
        rebuilt = history_from_state(d, h.states[0])
        assert np.max(np.abs(rebuilt.states - h.states)) < 1e-9
