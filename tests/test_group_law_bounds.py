"""Certified bounds for the group laws, against their all-pairs sweeps.

The action law reports a certificate read from the kept spectrum
(``dynamics._action_certificate``); the translation equation and the Weyl
relation report an upper bound built by telescoping one-step residuals
(``dynamics._power_bounds``).  Each falls back to its exact all-pairs sweep
where the bound exceeds tol.  The sweeps stay in ``src/`` and are the
oracle here: the bound is never below the sweep, the verdict is always the
sweep's, and the reported value is the bound or, above tol, the sweep.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import X, Z, constant_dynamic, phase_matrix, shift_matrix
from qclock import dynamics, histories, observables, sampling
from qclock.dynamics import (
    UnitaryDynamic,
    _action_certificate,
    _action_sweep,
    dynamic_from_generator,
    hamiltonian,
    validate_dynamic,
)
from qclock.histories import (
    History,
    _translation_bound,
    _translation_sweep,
    history_from_state,
    is_em_morphism,
)
from qclock.linalg import DEFAULT_TOL
from qclock.observables import _weyl_bound, _weyl_sweep, weyl_ccr_check

EPS = DEFAULT_TOL.eps
seeds = st.integers(0, 2**32 - 1)
# unperturbed, or noise of 1e-13 to 1e-6 on one entry of the stack or on all of it,
# so that some examples cross EPS and some pass by the sweep but not by the bound
perturbations = st.tuples(
    st.just(0.0) | st.floats(-13, -6).map(lambda x: 10.0**x), st.booleans()
)


def perturbed(a: np.ndarray, perturbation, rng) -> np.ndarray:
    scale, everywhere = perturbation
    noise = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
    if not everywhere:
        mask = np.zeros(a.shape, dtype=bool)
        mask.flat[rng.integers(a.size)] = True
        noise = noise * mask
    return a + scale * noise


def reported(bound: float, exact: float) -> float:
    return bound if bound <= EPS else exact


def phase_built(N: int, dim: int, rng) -> np.ndarray:
    """A valid stack whose U_t = V diag(omega^(k t)) V^dag are each computed on their own."""
    v, k = sampling.haar_unitary(dim, rng), rng.integers(0, N, size=dim)
    phases = np.exp(2j * np.pi * np.outer(np.arange(N), k) / N)
    return np.einsum("ij,tj,kj->tik", v, phases, v.conj())


def drawn_stack(N: int, dim: int, kind: str, rng) -> np.ndarray:
    if kind == "phases":
        return phase_built(N, dim, rng)
    U = sampling.random_dynamic(N, dim, rng).unitaries
    if kind == "shuffled":  # the ticks of a dynamic in another order
        return U[rng.permutation(N)]
    if kind == "haar":  # unitaries drawn one by one: no dynamic
        return np.stack([sampling.haar_unitary(dim, rng) for _ in range(N)])
    return U


@settings(max_examples=120, deadline=None)
@given(
    N=st.integers(1, 16),
    dim=st.integers(1, 6),
    seed=seeds,
    perturbation=perturbations,
    kind=st.sampled_from(["generator", "phases", "shuffled", "haar"]),
)
def test_action_certificate_covers_the_sweep(N, dim, seed, perturbation, kind):
    rng = np.random.default_rng(seed)
    d = UnitaryDynamic(N, dim, perturbed(drawn_stack(N, dim, kind, rng), perturbation, rng))
    bound, exact = _action_certificate(d), _action_sweep(d.unitaries)
    assert bound >= exact
    check = validate_dynamic(d).check("action_law")
    assert check.passed == (exact <= EPS)
    # up to SWEEP_MAX_SIZE the sweep is the cheaper of the two and always reports
    small = N * dim <= dynamics.SWEEP_MAX_SIZE
    assert check.max_error == (exact if small else reported(bound, exact))


def test_action_certificate_reads_the_x_i_stack_and_fails():
    # P_1 = (X - I)/2 squares to -P_1, so the pair term ||P_1^2 - P_1|| = ||I - X|| is 2
    d = UnitaryDynamic(2, 2, np.stack([X, np.eye(2, dtype=complex)]))
    assert _action_certificate(d) == pytest.approx(2.0, abs=1e-12)
    check = validate_dynamic(d).check("action_law")
    assert not check.passed and check.max_error == _action_sweep(d.unitaries) == 1.0


def test_action_certificate_reads_an_empty_support(monkeypatch):
    # zero matrices: no label is supported, A_t = 0 and O_t = U_t = 0; U_t U_s = U_{s+t}
    # holds exactly, so the certificate passes and the unit law fails
    N, dim = 40, 2
    d = UnitaryDynamic(N, dim, np.zeros((N, dim, dim), dtype=complex))
    assert N * dim > dynamics.SWEEP_MAX_SIZE and d.spectrum.support == ()
    monkeypatch.setattr(dynamics, "_action_sweep", no_sweep)
    report = validate_dynamic(d)
    assert report.check("action_law").passed and not report.check("unit_law").passed


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(1, 16),
    dim=st.integers(1, 6),
    seed=seeds,
    perturbation=perturbations,
    on_states=st.booleans(),
)
def test_translation_bound_covers_the_sweep(N, dim, seed, perturbation, on_states):
    rng = np.random.default_rng(seed)
    d = sampling.random_dynamic(N, dim, rng)
    states = history_from_state(d, sampling.random_state(dim, rng)).states
    U = d.unitaries
    if on_states:
        states = perturbed(states, perturbation, rng)
    else:
        U = perturbed(U, perturbation, rng)
    bound, exact = _translation_bound(states, U), _translation_sweep(states, U)
    assert bound >= exact
    ok, err = is_em_morphism(History(N, dim, states), UnitaryDynamic(N, dim, U))
    assert ok == (exact <= EPS)
    # up to SWEEP_MAX_SIZE the sweep is the cheaper of the two and always reports
    assert err == (exact if N * dim <= dynamics.SWEEP_MAX_SIZE else reported(bound, exact))


def weyl_pair(N: int, rng) -> tuple[UnitaryDynamic, UnitaryDynamic]:
    """Shift and phase on C^N, both conjugated by one Haar unitary."""
    W = sampling.haar_unitary(N, rng)
    return tuple(
        dynamic_from_generator(W @ g @ W.conj().T, N) for g in (shift_matrix(N), phase_matrix(N))
    )


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(2, 6),
    seed=seeds,
    perturbation=perturbations,
    on_shift=st.booleans(),
    swapped=st.booleans(),
)
def test_weyl_bound_covers_the_sweep(N, seed, perturbation, on_shift, swapped):
    rng = np.random.default_rng(seed)
    dU, dV = weyl_pair(N, rng)
    if swapped:  # the phase and shift in the wrong order: chi_E(-t), not chi_E(t)
        dU, dV = dV, dU
    U, V = dU.unitaries, dV.unitaries
    if on_shift:
        U = perturbed(U, perturbation, rng)
    else:
        V = perturbed(V, perturbation, rng)
    dU, dV = UnitaryDynamic(N, N, U), UnitaryDynamic(N, N, V)
    energies, times = hamiltonian(dU).support, hamiltonian(dV).support
    bound = _weyl_bound(U, V, energies, max(times, default=0))
    exact = _weyl_sweep(U, V, energies, times)
    assert bound >= exact
    check = weyl_ccr_check(dU, dV).check("weyl_relation")
    assert check.passed == (exact <= EPS)
    assert check.max_error == reported(bound, exact)


# -- above tol the sweep decides: each law reports its exact value there


def test_action_law_reports_the_sweep_above_tol():
    d = constant_dynamic(5, 3)
    assert _action_certificate(d) > 1e-15
    check = validate_dynamic(d, 1e-15).check("action_law")
    assert check.passed and check.max_error == 0.0


def test_translation_equation_reports_the_sweep_above_tol():
    d = dynamic_from_generator(X, 2)
    h = history_from_state(d, [1, 0])
    assert _translation_bound(h.states, d.unitaries) > 1e-15
    assert is_em_morphism(h, d, 1e-15) == (True, 0.0)


def test_weyl_relation_reports_the_sweep_above_tol():
    dU, dV = dynamic_from_generator(X, 2), dynamic_from_generator(Z, 2)
    exact = _weyl_sweep(dU.unitaries, dV.unitaries, (0, 1), (0, 1))
    assert _weyl_bound(dU.unitaries, dV.unitaries, (0, 1), 1) > 1e-15 >= exact
    check = weyl_ccr_check(dU, dV, 1e-15).check("weyl_relation")
    assert check.passed and check.max_error == exact


# -- scale: the bounds pass where the sweeps cost N^2 dim^3


def no_sweep(*args):
    raise AssertionError("the fallback sweep ran")


def test_validate_dynamic_at_a_thousand_ticks(monkeypatch):
    # the action sweep would take N^2 dim^3 = 5e8 products here
    N, dim = 1000, 8
    rng = np.random.default_rng(1000)
    W = sampling.haar_unitary(dim, rng)
    energies = rng.integers(0, N, size=dim)
    d = dynamic_from_generator(W @ np.diag(np.exp(2j * np.pi * energies / N)) @ W.conj().T, N)
    monkeypatch.setattr(dynamics, "_action_sweep", no_sweep)
    report = validate_dynamic(d)
    assert report.passed, report.summary()


@pytest.mark.parametrize(
    "N, dim, built", [(16384, 8, "phases"), (4096, 16, "generator"), (16384, 8, "generator")]
)
def test_large_dynamics_certify_without_the_sweep(monkeypatch, N, dim, built):
    # the sweep takes minutes here (N^2 dim^3); a phase-built stack has nonzero
    # one-step residuals, and a doubled one has them too
    rng = np.random.default_rng(N + dim)
    if built == "phases":
        d = UnitaryDynamic(N, dim, phase_built(N, dim, rng))
    else:
        d = sampling.random_dynamic(N, dim, rng)
    monkeypatch.setattr(dynamics, "_action_sweep", no_sweep)
    report = validate_dynamic(d)
    assert report.passed, report.summary()


def test_doubled_stacks_keep_the_translation_and_weyl_bounds(monkeypatch):
    # the benchmark's sizes: histories at N=1000, dim=8 and the Haar-conjugated
    # Weyl pair at N=32, both built by doubling, certify without their sweeps
    monkeypatch.setattr(histories, "_translation_sweep", no_sweep)
    monkeypatch.setattr(observables, "_weyl_sweep", no_sweep)
    rng = np.random.default_rng(32)
    d = sampling.random_dynamic(1000, 8, rng)
    h = history_from_state(d, sampling.random_state(8, rng))
    ok, err = is_em_morphism(h, d)
    assert ok and err <= EPS
    dU, dV = weyl_pair(32, rng)
    report = weyl_ccr_check(dU, dV)
    assert report.passed, report.summary()
