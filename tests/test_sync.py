import itertools

import numpy as np
import pytest

from conftest import X, clock_dynamic, constant_dynamic, count_spectra, is_nondegenerate
from test_sync_oracle import collapse
from qclock import sync
from qclock import sampling
from qclock.clock import make_clock
from qclock.dynamics import (
    dynamic_from_generator,
    hamiltonian,
    validate_dynamic,
)
from qclock.errors import (
    AxiomsViolatedError,
    DegenerateError,
    NotASubgroupError,
    OrthogonalEigenstateError,
    ShapeMismatchError,
)
from qclock.histories import schrodinger_solve
from qclock.reports import Check
from qclock.sync import (
    EnergyFamily,
    conundrum_check,
    demolition_hamiltonian,
    dynamic_descent,
    internal_time_check,
    internal_time_observable,
    synchronized_family,
    synchronized_pair,
)

E0 = np.array([1, 0], dtype=complex)
W6 = np.exp(2j * np.pi / 6)
Z6_CLOCK = np.diag([1, W6**2, W6**4])


def test_synchronized_pair_of_x_dynamic():
    pair = synchronized_pair(dynamic_from_generator(X, 2), E0)
    assert np.allclose(pair, [1, 0, 0, 1])  # |0,0> + |1,1>


def test_synchronized_pair_constant_dynamic():
    pair = synchronized_pair(constant_dynamic(3, 2), E0)
    assert np.allclose(pair, np.kron(E0, np.ones(3)))


def test_synchronized_pair_of_clock_is_cup_state():
    pair = synchronized_pair(clock_dynamic(3), np.array([1, 0, 0], dtype=complex))
    expected = sum(
        np.kron(np.eye(3)[t], np.eye(3)[t]) for t in range(3)
    )
    assert np.allclose(pair, expected)


def test_pair_contraction_reproduces_history():
    d = dynamic_from_generator(X, 2)
    pair = synchronized_pair(d, E0)
    amps = pair.reshape(2, 2)
    for t in range(2):
        assert np.allclose(amps[:, t], d.unitaries[t] @ E0)


def test_conundrum_commutators_vanish():
    d = dynamic_from_generator(X, 2)
    report = conundrum_check(d, make_clock(2))
    assert report.passed
    assert report.check("commutators").max_error == 0.0


def test_conundrum_on_random_dynamic():
    rng = np.random.default_rng(4)
    d = sampling.random_dynamic(4, 3, rng)
    assert conundrum_check(d, make_clock(4)).passed


def test_family_golden_half_difference():
    d = dynamic_from_generator(X, 2)
    fam = synchronized_family([d, d], [E0, E0], 1)
    assert np.allclose(fam.amplitudes, [0.5, 0, 0, -0.5])


def test_family_single_member_is_projection():
    d = dynamic_from_generator(X, 2)
    fam = synchronized_family([d], [E0], 0)
    assert np.allclose(fam.amplitudes, [0.5, 0.5])


def test_family_components_are_the_spectral_solution(random_family):
    # one implementation of P_E psi: the family's components are the history's, bit for bit
    for d, psi in random_family[:10]:
        family = sync.EnergyFamily([d], [psi], 0)
        assert np.array_equal(family.comps[0], schrodinger_solve(d, psi).components)


def test_family_constant_dynamics_single_term():
    d1, d2 = constant_dynamic(2, 2), constant_dynamic(2, 3)
    psi1 = np.array([0.6, 0.8], dtype=complex)
    psi2 = np.array([0, 1j, 0], dtype=complex)
    fam = synchronized_family([d1, d2], [psi1, psi2], 0)
    assert np.allclose(fam.amplitudes, np.kron(psi1, psi2))
    assert np.max(np.abs(synchronized_family([d1, d2], [psi1, psi2], 1).amplitudes)) < 1e-12


def test_collapse_reproduces_family_golden():
    d = dynamic_from_generator(X, 2)
    res = collapse(EnergyFamily([d, d], [E0, E0], 1))
    assert res.residual < 1e-12
    # contraction with exp(+i pi t) effects gives |00> - |11>, twice the family
    assert np.allclose(res.amplitudes, [1, 0, 0, -1])


def test_collapse_constant_dynamics():
    ds = [constant_dynamic(2, 2), constant_dynamic(2, 2)]
    psis = [E0, np.array([0, 1], dtype=complex)]
    res = collapse(EnergyFamily(ds, psis, 0))
    assert res.residual < 1e-12
    overlap = np.vdot(np.kron(psis[0], psis[1]), res.amplitudes)
    assert abs(overlap) > 0.1


def test_collapse_scalar_nonzero_when_family_nonzero():
    rng = np.random.default_rng(8)
    for _ in range(5):
        ds = [sampling.random_dynamic(3, 2, rng) for _ in range(2)]
        psis = [sampling.random_state(2, rng) for _ in range(2)]
        for chi in range(3):
            fam = EnergyFamily(ds, psis, chi)
            res = collapse(fam)
            if np.linalg.norm(fam.amplitudes) > 1e-9:
                assert np.linalg.norm(res.amplitudes) > 1e-9
                assert res.residual < 1e-8


def test_measure_subsystem_golden():
    d = dynamic_from_generator(X, 2)
    res = EnergyFamily([d, d], [E0, E0], 1).measure(1, 1)
    assert res.residual < 1e-9
    # remaining system carries total energy 0: proportional to P_0|0>
    assert np.allclose(
        res.amplitudes / np.linalg.norm(res.amplitudes),
        np.array([1, 1]) / np.sqrt(2),
    )
    assert res.overlap == pytest.approx(1 / np.sqrt(2))


def test_family_requires_shared_clock_size():
    from qclock.errors import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        synchronized_family(
            [constant_dynamic(2, 2), constant_dynamic(3, 2)], [E0, E0], 0
        )


def test_measure_rejects_degenerate_level():
    ds = [constant_dynamic(2, 2), dynamic_from_generator(X, 2)]
    with pytest.raises(DegenerateError):
        EnergyFamily(ds, [E0, E0], 0).measure(0, 0)  # rank-2 ground level


@pytest.mark.parametrize("j", [-1, 2])
def test_measure_rejects_member_outside_family(j):
    # j = -1 would contract the last factor but convolve all systems as the rest
    ds = [dynamic_from_generator(X, 2), dynamic_from_generator(np.array([[-1]]), 2)]
    with pytest.raises(ValueError, match="outside"):
        EnergyFamily(ds, [E0, [1]], 0).measure(j, 1)


def test_measure_orthogonal_eigenstate_rejected():
    d = dynamic_from_generator(X, 2)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    # plus has no E=1 component
    with pytest.raises(OrthogonalEigenstateError):
        EnergyFamily([d, d], [plus, E0], 1).measure(0, 1)


def test_measure_random_families_conserve_energy():
    rng = np.random.default_rng(31)
    count = 0
    for _ in range(12):
        M = int(rng.integers(2, 4))
        N = int(rng.integers(2, 5))
        ds = [sampling.random_dynamic(N, int(rng.integers(1, 4)), rng) for _ in range(M)]
        psis = [sampling.random_state(d.dim, rng) for d in ds]
        chi = int(rng.integers(0, N))
        j = int(rng.integers(0, M))
        spec = hamiltonian(ds[j])
        for E in spec.support:
            if int(round(float(np.trace(spec.projectors[E]).real))) != 1:
                continue
            try:
                res = EnergyFamily(ds, psis, chi).measure(j, E)
            except OrthogonalEigenstateError:
                continue
            assert res.residual < 1e-8
            count += 1
            break
    assert count >= 6  # the hypothesis held often enough to be exercised


def test_nondegenerate_examples():
    assert is_nondegenerate(dynamic_from_generator(np.diag([1, W6**2]), 6))
    assert not is_nondegenerate(constant_dynamic(3, 2))
    assert is_nondegenerate(dynamic_from_generator(X, 2))


def test_demolition_hamiltonian_of_x_dynamic():
    pairs = demolition_hamiltonian(dynamic_from_generator(X, 2))
    assert [e for _, e in pairs] == [0, 1]
    assert np.allclose(pairs[0][0], np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(pairs[1][0], np.array([1, -1]) / np.sqrt(2))


def test_demolition_hamiltonian_reads_diagonal_phases():
    pairs = demolition_hamiltonian(dynamic_from_generator(np.diag([1, W6**2, W6**4]), 6))
    assert [e for _, e in pairs] == [0, 2, 4]


def test_demolition_hamiltonian_trivial_system():
    pairs = demolition_hamiltonian(constant_dynamic(4, 1))
    assert len(pairs) == 1 and pairs[0][1] == 0


def test_demolition_hamiltonian_rejects_degenerate():
    with pytest.raises(DegenerateError):
        demolition_hamiltonian(constant_dynamic(3, 2))


def test_internal_time_golden_z3_inside_z6():
    d = dynamic_from_generator(Z6_CLOCK, 6)
    desc = internal_time_observable(d)
    assert desc.energies == (0, 2, 4)
    assert desc.subgroup_generator == 2
    assert desc.internal_size == 3
    assert desc.permutation_error < 1e-9
    # golden basis: columns (1/sqrt 3)(e0 + w3^tau e1 + w3^{2 tau} e2)
    w3 = np.exp(2j * np.pi / 3)
    for tau in range(3):
        expected = np.array([1, w3**tau, w3 ** (2 * tau)]) / np.sqrt(3)
        assert np.max(np.abs(desc.basis[:, tau] - expected)) < 1e-9
    # U_1 advances the internal ticks cyclically
    for tau in range(3):
        advanced = d.unitaries[1] @ desc.basis[:, tau]
        assert np.max(np.abs(advanced - desc.basis[:, (tau + 1) % 3])) < 1e-9


def test_internal_time_rejects_non_subgroup_image():
    d = dynamic_from_generator(np.diag([1, 1j]), 4)  # energies {0, 1}
    with pytest.raises(NotASubgroupError) as exc:
        internal_time_observable(d)
    assert exc.value.energies == (0, 1)


def test_internal_time_of_clock_is_external_time():
    desc = internal_time_observable(clock_dynamic(4))
    assert desc.internal_size == 4
    assert desc.subgroup_generator == 1
    assert np.max(np.abs(desc.basis - np.eye(4))) < 1e-9


def test_internal_time_check_stops_at_the_first_failure():
    degenerate = internal_time_check(constant_dynamic(3, 2))
    assert [(c.name, c.max_error) for c in degenerate.checks] == [("nondegenerate_spectrum", 1.0)]
    assert degenerate.facts == {"N": 3, "nondegenerate": False, "subgroup": False}

    open_image = internal_time_check(dynamic_from_generator(np.diag([1, 1j]), 4))
    assert [c.passed for c in open_image.checks] == [True, False]
    assert open_image.check("energy_image_is_subgroup").max_error == 2.0  # misses 2 and 3
    assert open_image.facts["energies"] == [0, 1] and open_image.facts["subgroup"] is False

    rep = internal_time_check(dynamic_from_generator(Z6_CLOCK, 6), 1e-12)
    assert rep.passed and len(rep.checks) == 3
    assert (rep.facts["g"], rep.facts["m"]) == (2, 3)
    assert rep.check("one_step_advances_internal_time").max_error == rep.facts["permutation_error"]


def _brute_force_closed(subset, N):
    return all((a + b) % N in subset for a in subset for b in subset)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_subgroup_criterion_matches_brute_force(N):
    for r in range(1, N + 1):
        for subset in itertools.combinations(range(N), r):
            phases = np.exp(2j * np.pi * np.array(subset) / N)
            d = dynamic_from_generator(np.diag(phases), N)
            try:
                internal_time_observable(d)
                decided = True
            except NotASubgroupError:
                decided = False
            assert decided == _brute_force_closed(set(subset), N), subset
            assert internal_time_check(d).passed == decided, subset


def test_descent_trivial_when_internal_clock_is_external():
    dg = clock_dynamic(4)
    rng = np.random.default_rng(41)
    dh = sampling.random_dynamic(4, 3, rng)
    v = dynamic_descent(dg, dh, 0)
    assert v.N == 4
    assert np.max(np.abs(v.unitaries - dh.unitaries)) < 1e-10


def test_descent_scalar_example():
    dg = dynamic_from_generator(Z6_CLOCK, 6)
    dh = dynamic_from_generator(np.array([[W6**2]]), 6)
    v = dynamic_descent(dg, dh, 0)
    assert v.N == 3 and v.dim == 1
    w3 = np.exp(2j * np.pi / 3)
    assert np.allclose(v.unitaries.reshape(3), [1, w3, w3**2])


def test_descent_random_compatible_pairs_pass_axioms():
    rng = np.random.default_rng(43)
    dg = dynamic_from_generator(Z6_CLOCK, 6)
    for _ in range(5):
        dim = int(rng.integers(1, 4))
        v = sampling.haar_unitary(dim, rng)
        ks = rng.integers(0, 3, size=dim)  # even energies only
        gen = (v * np.exp(2j * np.pi * 2 * ks / 6)) @ v.conj().T
        dh = dynamic_from_generator(gen, 6)
        chi = int(rng.choice([0, 2, 4]))
        out = dynamic_descent(dg, dh, chi)
        assert validate_dynamic(out, 1e-8).passed


def test_descent_incompatible_support_rejected():
    dg = dynamic_from_generator(Z6_CLOCK, 6)
    dh = dynamic_from_generator(np.diag([W6]), 6)  # odd energy, chi even
    with pytest.raises(AxiomsViolatedError):
        dynamic_descent(dg, dh, 0)


def test_descent_incompatible_support_above_the_sweep_size_rejected():
    # even energies on a Z/66 clock (m = 33) against odd ones on a dim-2 partner: the
    # candidate is rounding-level, and m dim = 66 puts its action law on the certificate
    w = np.exp(2j * np.pi / 66)
    dg = dynamic_from_generator(np.diag(w ** (2 * np.arange(33))), 66)
    dh = dynamic_from_generator(np.diag([w, w**3]), 66)
    with pytest.raises(AxiomsViolatedError):
        dynamic_descent(dg, dh, 0)


def test_proportionality_residual_is_never_negative():
    rng = np.random.default_rng(2)
    raw_negative = 0
    for _ in range(400):
        a = rng.normal(size=32) + 1j * rng.normal(size=32)
        b = complex(rng.normal(), rng.normal()) * a
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        raw_negative += 1.0 - abs(np.vdot(a, b)) / (na * nb) < 0.0
        assert sync._proportionality_residual(a, b) >= 0.0
    assert raw_negative > 0  # the unclamped formula does dip below zero


@pytest.mark.parametrize("deviation", [1e-5, 1e-6])
def test_proportionality_residual_reads_the_relative_deviation(deviation):
    # a leaves b's span by `deviation` of its length: 1 - cos would read deviation^2 / 2
    rng = np.random.default_rng(3)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    u -= b * np.vdot(b, u) / np.vdot(b, b)
    u /= np.linalg.norm(u)
    a = (0.3 - 2j) * b / np.linalg.norm(b) + deviation * np.abs(0.3 - 2j) * u
    a *= 1 / np.sqrt(1 + deviation**2)  # now |a| = |0.3 - 2j|
    residual = sync._proportionality_residual(a, b)
    assert residual == pytest.approx(deviation / np.sqrt(1 + deviation**2), rel=1e-6)
    assert not Check("proportional", residual, 1e-9).passed
    assert sync._proportionality_residual((0.3 - 2j) * b, b) <= 1e-15


def test_each_spectrum_computed_once(monkeypatch):
    calls = count_spectra(monkeypatch)
    ds = [dynamic_from_generator(X, 2) for _ in range(3)]
    EnergyFamily(ds, [E0, E0, E0], 1).measure(2, 1)
    assert sorted(calls.values()) == [1, 1, 1]
    # later calls on the same dynamics compute no spectrum
    EnergyFamily(ds, [E0, E0, E0], 1)
    assert all(is_nondegenerate(d) for d in ds)
    assert conundrum_check(ds[0], make_clock(2)).passed
    assert sorted(calls.values()) == [1, 1, 1]

    calls.clear()
    d = dynamic_from_generator(Z6_CLOCK, 6)
    internal_time_observable(d)
    demolition_hamiltonian(d)
    assert internal_time_check(d).passed
    assert list(calls.values()) == [1]


def test_descent_computes_each_spectrum_once(monkeypatch):
    calls = count_spectra(monkeypatch)
    dg = dynamic_from_generator(Z6_CLOCK, 6)
    dh = dynamic_from_generator(np.array([[W6**2]]), 6)
    assert internal_time_check(dg).passed
    assert list(calls.values()) == [1]
    dynamic_descent(dg, dh, 0)
    schrodinger_solve(dh, [1])
    assert sorted(calls.values()) == [1, 1]


@pytest.mark.parametrize("states", [2, 4])
def test_family_rejects_a_state_count_unlike_its_dynamic_count(states):
    # zip would drop the unpaired systems or states without a word
    ds = [dynamic_from_generator(X, 2)] * 3
    with pytest.raises(ShapeMismatchError):
        EnergyFamily(ds, [E0] * states, 0)


def test_measure_one_member_family_is_refused_before_any_work():
    # the level is rank 2, so the refusal must come before the rank check
    family = EnergyFamily([constant_dynamic(2, 2)], [E0], 0)
    with pytest.raises(ValueError, match="another member"):
        family.measure(0, 0)
