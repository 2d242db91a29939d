"""Certified one-step bounds for the group laws, against their all-pairs sweeps.

The action law, the translation equation and the Weyl relation report an
upper bound built by telescoping one-step residuals
(``dynamics._power_bounds``), and fall back to the exact all-pairs sweep
where that bound exceeds tol.  The sweeps stay in ``src/`` and are the
oracle here: the bound is never below the sweep, the verdict is always the
sweep's, and the reported value is the bound or, above tol, the sweep.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import X, Z, phase_matrix, shift_matrix
from qclock import dynamics, observables, sampling
from qclock.dynamics import (
    UnitaryDynamic,
    _action_bound,
    _action_sweep,
    constant_dynamic,
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


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 16), dim=st.integers(1, 6), seed=seeds, perturbation=perturbations)
def test_action_bound_covers_the_sweep(N, dim, seed, perturbation):
    rng = np.random.default_rng(seed)
    U = perturbed(sampling.random_dynamic(N, dim, rng).unitaries, perturbation, rng)
    bound, exact = _action_bound(U), _action_sweep(U)
    assert bound >= exact
    check = validate_dynamic(UnitaryDynamic(N, dim, U)).check("action_law")
    assert check.passed == (exact <= EPS)
    assert check.max_error == reported(bound, exact)


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
    assert err == reported(bound, exact)


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
    assert _action_bound(d.unitaries) > 1e-15
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
