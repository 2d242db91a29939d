import numpy as np
import pytest

from conftest import X, Z, character_vector, count_spectra, dense_maps, phase_matrix, shift_matrix
from qclock import observables
from qclock.clock import make_clock
from qclock.dynamics import (
    ProjectionSpectrum,
    UnitaryDynamic,
    clock_dynamic,
    constant_dynamic,
    dynamic_from_generator,
    hamiltonian,
)
from qclock.errors import (
    DistributionError,
    IncompleteSpectrumError,
    NotNormalisedError,
)
from qclock.observables import (
    GROUP_FLAVOUR,
    TIME_FLAVOUR,
    demolition_measurement,
    observable_checks,
    observable_from_spectrum,
    time_observable,
    uncertainty_check,
    weyl_ccr_check,
)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def test_energy_observable_of_x_dynamic_on_eigenbasis():
    obs = observable_from_spectrum(hamiltonian(dynamic_from_generator(X, 2)))
    assert obs.flavour == GROUP_FLAVOUR
    # |+> carries the flat label column, |-> the alternating one
    assert np.allclose((obs.map @ PLUS).reshape(2, 2), np.outer(PLUS, [1, 1]))
    assert np.allclose((obs.map @ MINUS).reshape(2, 2), np.outer(MINUS, [1, -1]))


def test_energy_observable_of_trivial_spectrum():
    obs = observable_from_spectrum(hamiltonian(constant_dynamic(2, 2)))
    psi = np.array([0.6, 0.8j])
    assert np.allclose((obs.map @ psi).reshape(2, 2), np.outer(psi, [1, 1]))


def test_clock_energy_observable_is_group_comult():
    cs = make_clock(3)
    obs = observable_from_spectrum(hamiltonian(clock_dynamic(3)))
    assert np.max(np.abs(obs.map - dense_maps(cs).group_comult)) < 1e-12


def test_incomplete_spectrum_rejected():
    spec = hamiltonian(dynamic_from_generator(X, 2))
    broken = ProjectionSpectrum(
        N=2, dim=2, projectors=np.stack([spec.projectors[0], np.zeros((2, 2))])
    )
    with pytest.raises(IncompleteSpectrumError):
        observable_from_spectrum(broken)


def test_time_observable_copies_basis():
    cs = make_clock(3)
    obs = time_observable(cs)
    assert obs.flavour == TIME_FLAVOUR
    e2 = np.array([0, 0, 1], dtype=complex)
    assert np.allclose(obs.map @ e2, np.kron(e2, e2))
    sup = np.array([1, 1, 0], dtype=complex)
    assert np.allclose(obs.map @ sup, np.kron([1, 0, 0], [1, 0, 0]) + np.kron([0, 1, 0], [0, 1, 0]))


def test_observable_identities_for_clock_structures():
    cs = make_clock(4)
    assert observable_checks(time_observable(cs), cs).passed
    obs = observable_from_spectrum(hamiltonian(clock_dynamic(4)))
    assert observable_checks(obs, cs).passed


def test_observable_identities_random_family(random_family):
    for d, _ in random_family:
        obs = observable_from_spectrum(hamiltonian(d))
        report = observable_checks(obs, make_clock(d.N), 1e-8)
        assert report.passed, report.summary()


def test_demolition_basis_state_in_time_basis():
    obs = time_observable(make_clock(2))
    assert np.allclose(demolition_measurement(obs, [1, 0]), [1, 0])


def test_demolition_superposition_in_time_basis():
    obs = time_observable(make_clock(2))
    assert np.allclose(demolition_measurement(obs, PLUS), [0.5, 0.5])


def test_demolition_energy_weights_of_x_dynamic():
    obs = observable_from_spectrum(hamiltonian(dynamic_from_generator(X, 2)))
    assert np.allclose(demolition_measurement(obs, [1, 0]), [0.5, 0.5])


def test_demolition_requires_normalised_state():
    obs = time_observable(make_clock(2))
    with pytest.raises(NotNormalisedError):
        demolition_measurement(obs, [1, 1])


def test_demolition_distributions_are_genuine(random_family):
    for d, psi in random_family[:20]:
        obs = observable_from_spectrum(hamiltonian(d))
        w = demolition_measurement(obs, psi)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1) < 1e-9


def test_weyl_two_level_pair():
    dU = dynamic_from_generator(X, 2)
    dV = dynamic_from_generator(Z, 2)
    report = weyl_ccr_check(dU, dV)
    assert report.passed
    assert report.max_error < 1e-12
    # the N=2 relation is the anticommutation ZX = -XZ
    assert np.allclose(Z @ X, -(X @ Z))


@pytest.mark.parametrize("N", [3, 5, 8])
def test_weyl_shift_phase_pair(N):
    dU = dynamic_from_generator(shift_matrix(N), N)
    dV = dynamic_from_generator(phase_matrix(N), N)
    report = weyl_ccr_check(dU, dV)
    assert report.passed
    assert report.max_error < 1e-12
    assert not report.notes


def test_weyl_constant_pair_degenerate_but_passing():
    dI = constant_dynamic(4, 2)
    report = weyl_ccr_check(dI, dI)
    assert report.passed
    assert report.notes  # support restriction is reported


def test_weyl_violation_detected():
    # V not intertwining the spectrum: a Hadamard-like pair at N=2
    dU = dynamic_from_generator(X, 2)
    report = weyl_ccr_check(dU, dU)
    assert not report.passed


@pytest.mark.parametrize("N", [2, 4, 6])
def test_uncertainty_shift_phase_pair(N):
    dU = dynamic_from_generator(shift_matrix(N), N)
    dV = dynamic_from_generator(phase_matrix(N), N)
    report = uncertainty_check(dU, dV)
    assert report.passed
    assert report.max_error < 1e-9


def test_uncertainty_single_outcome():
    d = constant_dynamic(1, 1)
    report = uncertainty_check(d, d)
    assert report.passed


def test_character_states_unbiased_in_time_basis():
    # eigenstates of the shift are the (conjugate) characters; their tick
    # distribution is uniform
    N = 4
    cs = make_clock(N)
    tobs = time_observable(cs)
    for E in range(N):
        chi = character_vector(N, E) / np.sqrt(N)
        assert np.allclose(demolition_measurement(tobs, chi), np.full(N, 1 / N))


def test_plus_minus_unbiased_in_computational_basis():
    cs = make_clock(2)
    tobs = time_observable(cs)
    for state in (PLUS, MINUS):
        assert np.allclose(demolition_measurement(tobs, state), [0.5, 0.5])


def test_negative_weight_detection():
    from qclock.observables import Observable

    # flip the sign of the E=1 block: weight at 1 becomes -<psi|P_1|psi>
    p_plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    p_minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    bad_map = np.kron(p_plus, [[1], [1]]) - np.kron(p_minus, [[1], [-1]])
    bad = Observable(N=2, dim=2, map=bad_map.astype(complex), flavour=GROUP_FLAVOUR)
    with pytest.raises(DistributionError):
        demolition_measurement(bad, [1, 0])


def test_unbiasedness_computes_each_spectrum_once(monkeypatch):
    calls = count_spectra(monkeypatch)
    N = 5
    dU = dynamic_from_generator(shift_matrix(N), N)
    dV = dynamic_from_generator(phase_matrix(N), N)
    assert weyl_ccr_check(dU, dV).passed
    assert sorted(calls.values()) == [1, 1]
    # the second call reads the spectra the first one left on the dynamics
    assert uncertainty_check(dU, dV).passed
    assert sorted(calls.values()) == [1, 1]


def test_uncertainty_check_judges_completeness_at_the_callers_tol():
    # sum_E P_E = U_0, so a 5e-9 slip in U_0 is incomplete at 1e-9 but not at 1e-6
    N = 4
    stack = dynamic_from_generator(shift_matrix(N), N).unitaries.copy()
    stack[0, 0, 0] += 5e-9
    dU = UnitaryDynamic(N=N, dim=N, unitaries=stack)
    dV = dynamic_from_generator(phase_matrix(N), N)
    with pytest.raises(IncompleteSpectrumError):
        uncertainty_check(dU, dV)
    report = uncertainty_check(dU, dV, tol=1e-6)
    assert report.passed
    assert {c.tol for c in report.checks} == {1e-6}


def test_uncertainty_needs_no_clock_structures(monkeypatch):
    # the Weyl pair and the unbiasedness are read off the two families alone,
    # and the Weyl relation passes by its bound, without the N^2 dim^3 sweep
    N = 128
    dU = dynamic_from_generator(shift_matrix(N), N)
    dV = dynamic_from_generator(phase_matrix(N), N)
    sweeps, sweep = [], observables._weyl_sweep
    monkeypatch.setattr(observables, "_weyl_sweep", lambda *a: sweeps.append(1) or sweep(*a))
    assert uncertainty_check(dU, dV).passed
    assert sweeps == []
