import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    X,
    Z,
    character_matrix,
    character_vector,
    clock_dynamic,
    constant_dynamic,
    count_spectra,
    dense_maps,
    energy_observable,
    outcome_weights,
    phase_matrix,
    shift_matrix,
    tick_observable,
)
from test_law_oracle import oracle_observable_laws
from qclock import observables, sampling
from qclock.clock import make_clock
from qclock.dynamics import UnitaryDynamic, dynamic_from_generator
from qclock.errors import IncompleteSpectrumError
from qclock.observables import uncertainty_check, weyl_ccr_check

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def energy_weights(d, psi) -> np.ndarray:
    """p_E = |<x_E|psi>|^2 summed over the columns of each level of d's eigenbasis."""
    W, labels = d.spectrum.eigenbasis
    return np.bincount(labels, np.abs(np.conj(W.T) @ psi) ** 2, minlength=d.N)


def test_energy_observable_of_x_dynamic_on_eigenbasis():
    d = dynamic_from_generator(X, 2)
    W, labels = d.spectrum.eigenbasis
    assert labels.tolist() == [0, 1]
    assert np.allclose(W, np.column_stack([PLUS, MINUS]))
    # |+> carries the flat label column, |-> the alternating one
    obs = energy_observable(d)
    assert np.allclose((obs @ W[:, 0]).reshape(2, 2), np.outer(PLUS, [1, 1]))
    assert np.allclose((obs @ W[:, 1]).reshape(2, 2), np.outer(MINUS, [1, -1]))


def test_energy_observable_of_trivial_spectrum():
    obs = energy_observable(constant_dynamic(2, 2))
    psi = np.array([0.6, 0.8j])
    assert np.allclose((obs @ psi).reshape(2, 2), np.outer(psi, [1, 1]))


def test_clock_energy_observable_is_group_comult():
    cs = make_clock(3)
    obs = energy_observable(clock_dynamic(3))
    assert np.max(np.abs(obs - dense_maps(cs).group_comult)) < 1e-12


def test_incomplete_spectrum_rejected():
    # sum_E P_E = U_0, here the projector onto |+>
    stack = np.stack([np.outer(PLUS, PLUS), X])
    broken = UnitaryDynamic(N=2, dim=2, unitaries=stack)
    with pytest.raises(IncompleteSpectrumError):
        uncertainty_check(broken, dynamic_from_generator(Z, 2))


def test_time_observable_copies_basis():
    cs = make_clock(3)
    obs = tick_observable(cs)
    e2 = np.array([0, 0, 1], dtype=complex)
    assert np.allclose(obs @ e2, np.kron(e2, e2))
    sup = np.array([1, 1, 0], dtype=complex)
    assert np.allclose(obs @ sup, np.kron([1, 0, 0], [1, 0, 0]) + np.kron([0, 1, 0], [0, 1, 0]))


def test_observable_identities_for_clock_structures():
    cs = make_clock(4)
    for m, flavour in [
        (tick_observable(cs), "time-structure"),
        (energy_observable(clock_dynamic(4)), "group-structure"),
    ]:
        assert max(oracle_observable_laws(m, flavour, cs).values()) < 1e-12


def test_observable_identities_random_family(random_family):
    for d, _ in random_family:
        laws = oracle_observable_laws(energy_observable(d), "group-structure", make_clock(d.N))
        assert max(laws.values()) < 1e-8, laws


def test_demolition_basis_state_in_time_basis():
    obs = tick_observable(make_clock(2))
    assert np.allclose(outcome_weights(obs, [1, 0], energy=False), [1, 0])


def test_demolition_superposition_in_time_basis():
    obs = tick_observable(make_clock(2))
    assert np.allclose(outcome_weights(obs, PLUS, energy=False), [0.5, 0.5])


def test_demolition_energy_weights_of_x_dynamic():
    d = dynamic_from_generator(X, 2)
    assert np.allclose(energy_weights(d, np.array([1, 0])), [0.5, 0.5])


def test_demolition_distributions_are_genuine(random_family):
    # the eigenbasis weights are the map form's, so every level is spanned in full
    for d, psi in random_family[:20]:
        w = energy_weights(d, psi)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1) < 1e-9
        assert np.max(np.abs(w - outcome_weights(energy_observable(d), psi, energy=True))) < 1e-12


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
    W, _ = clock_dynamic(N).spectrum.eigenbasis
    assert np.allclose(np.abs(W) ** 2, 1 / N)
    tobs = tick_observable(make_clock(N))
    for E in range(N):
        chi = character_vector(N, E) / np.sqrt(N)
        assert np.allclose(outcome_weights(tobs, chi, energy=False), np.full(N, 1 / N))


def test_plus_minus_unbiased_in_computational_basis():
    tobs = tick_observable(make_clock(2))
    for state in (PLUS, MINUS):
        assert np.allclose(outcome_weights(tobs, state, energy=False), [0.5, 0.5])


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


def test_degenerate_bias_is_reported_in_full():
    # the shift against diag(1, 1, -1, -1) is a Weyl pair on the labels V has,
    # but for every E each rank-2 level of V holds a unit vector of weight 1/2
    # at E and one of weight 0, both 1/4 off 1/N
    N = 4
    dU = dynamic_from_generator(shift_matrix(N), N)
    dV = dynamic_from_generator(np.diag([1, 1, -1, -1]).astype(complex), N)
    report = uncertainty_check(dU, dV)
    assert report.check("weyl_precondition").passed
    assert [c.name for c in report.checks[1:]] == ["uniformity_label_0", "uniformity_label_2"]
    for c in report.checks[1:]:
        assert abs(c.max_error - 0.25) <= 1e-15
    assert not report.passed


def test_a_label_outside_the_support_reads_one_over_n():
    # U has labels 0, 1, 2 of Z/4, and each eigenvector of V (the 3-point
    # Fourier basis) weighs 1/3 on each: 1/12 off 1/N there, 1/4 at label 3
    N, f = 4, np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    dU = dynamic_from_generator(np.diag(1j ** np.arange(3)), N)
    dV = dynamic_from_generator(f @ np.diag(1j ** np.arange(3)) @ np.conj(f.T), N)
    report = uncertainty_check(dU, dV)
    assert [c.max_error for c in report.checks[1:]] == [0.25] * 3
    assert not report.passed


def test_levels_short_of_their_rank_fail():
    # stacks that are no dynamic: a level whose rounded trace overstates its
    # range, and a supported level of rank 0, have no full eigenbasis to judge
    dU = constant_dynamic(1, 2)
    for level in ([[1.3, 0], [0, 0]], [[1e-4, 0], [0, 0]]):
        dV = UnitaryDynamic(N=1, dim=2, unitaries=np.array([level], dtype=complex))
        assert uncertainty_check(dU, dV).check("uniformity_label_0").max_error == 1.0


def oracle_uniformity(dU, dV) -> list[float]:
    """Per V label F: max over E and unit phi in the F eigenspace of |<phi|P_E|phi> - 1/N|.

    The F eigenspace is the range of the character sum for P_F (eigh); P_E is
    read off the map form sum_t U_t^dag (x) |t> of dU as
    (1/N) sum_t chi_E(t) U_t^dag, and each restriction's eigenvalues are
    taken by eigvalsh.
    """
    N, dim = dU.N, dU.dim
    chars = character_matrix(N)  # chars[t, E]
    blocks = energy_observable(dU).reshape(dim, N, dim).transpose(1, 0, 2)  # U_t^dag
    p_u = np.tensordot(chars.T, blocks, axes=1) / N
    p_v = np.tensordot(chars.conj().T, dV.unitaries, axes=1) / N
    out = []
    for F in dV.spectrum.ranks:
        vals, vecs = np.linalg.eigh((p_v[F] + np.conj(p_v[F].T)) / 2)
        q = vecs[:, vals > 0.5]
        restricted = np.conj(q.T) @ p_u @ q - np.eye(q.shape[1]) / N
        out.append(float(np.abs(np.linalg.eigvalsh(restricted)).max()))
    return out


def random_pair(N: int, dim: int, levels: int, rng):
    """Two dynamics whose eigenphases lie among the first ``levels`` labels: often degenerate."""
    pair = []
    for _ in range(2):
        v = sampling.haar_unitary(dim, rng)
        phases = np.exp(2j * np.pi * rng.integers(0, levels, size=dim) / N)
        pair.append(dynamic_from_generator((v * phases) @ np.conj(v.T), N))
    return pair


def weyl_pair(N: int, rng):
    """The shift/phase pair conjugated by one Haar unitary."""
    v = sampling.haar_unitary(N, rng)
    return [
        dynamic_from_generator(v @ m @ np.conj(v.T), N) for m in (shift_matrix(N), phase_matrix(N))
    ]


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 16),
    dim=st.integers(1, 6),
    levels=st.integers(1, 16),
    weyl=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_uniformity_agrees_with_the_map_form(N, dim, levels, weyl, seed):
    rng = np.random.default_rng(seed)
    dU, dV = weyl_pair(N, rng) if weyl else random_pair(N, dim, min(levels, N), rng)
    report = uncertainty_check(dU, dV)
    got = [c.max_error for c in report.checks[1:]]
    assert [c.name for c in report.checks[1:]] == [
        f"uniformity_label_{F}" for F in dV.spectrum.ranks
    ]
    assert np.max(np.abs(np.subtract(got, oracle_uniformity(dU, dV))), initial=0.0) <= 1e-12
    if weyl:
        assert report.passed, report.summary()


def test_uniformity_reads_the_kept_eigenbases(monkeypatch):
    # with both spectra kept, no FFT rebuilds an observable map and no random
    # representative is drawn; a second call reuses the eigenbases
    N = 6
    dU, dV = weyl_pair(N, np.random.default_rng(5))
    assert dU.spectrum.support and dV.spectrum.support

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    for module in (np.fft, np.random):
        for name in dir(module):
            if not name.startswith("_") and callable(getattr(module, name)):
                monkeypatch.setattr(module, name, forbidden)
    first = uncertainty_check(dU, dV)
    bases = (dU.spectrum.eigenbasis, dV.spectrum.eigenbasis)
    second = uncertainty_check(dU, dV)
    assert first.passed and second.as_dict() == first.as_dict()
    assert dU.spectrum.eigenbasis is bases[0] and dV.spectrum.eigenbasis is bases[1]
