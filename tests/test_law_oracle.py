"""The structure, dynamic and observable laws against their Kronecker forms.

The oracle is each law written as the literal matrix identity, with every
Kronecker factor (identity legs, the swap map) built out in full.  The
library checks the same laws by tensor contraction, one output slice at a
time.  At N <= 8 every reported error must agree with the oracle to 1e-12:
on the exact clock maps and valid dynamics, where the errors vanish, and
on inputs the laws reject (structure maps with complex noise, unitary
families that are not representations of Z/N), where they do not.
"""

import dataclasses

import numpy as np
import pytest

from conftest import swap_map
from qclock import sampling
from qclock.clock import make_clock, verify_strong_complementarity
from qclock.dynamics import UnitaryDynamic, hamiltonian, validate_dynamic
from qclock.observables import (
    GROUP_FLAVOUR,
    TIME_FLAVOUR,
    Observable,
    observable_checks,
    observable_from_spectrum,
    time_observable,
)
from qclock.sync import conundrum_check

AGREE = 1e-12
SIZES = range(1, 9)


def err(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def noisy(a: np.ndarray, rng, scale: float = 0.1) -> np.ndarray:
    return a + scale * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))


def perturbed_clock(N: int, rng):
    """Every structure map of the size-N clock, each with its own noise."""
    cs = make_clock(N)
    maps = [f.name for f in dataclasses.fields(cs) if f.name != "N"]
    return dataclasses.replace(cs, **{f: noisy(getattr(cs, f), rng) for f in maps})


def valid_observable(flavour: str, cs, rng, dim: int = 3) -> Observable:
    if flavour == TIME_FLAVOUR:
        return time_observable(cs)
    return observable_from_spectrum(hamiltonian(sampling.random_dynamic(cs.N, dim, rng)), cs)


def unitary_family(N: int, dim: int, rng) -> UnitaryDynamic:
    """Independent Haar unitaries: unitary, but no representation of Z/N."""
    stack = np.stack([sampling.haar_unitary(dim, rng) for _ in range(N)])
    return UnitaryDynamic(N=N, dim=dim, unitaries=stack)


# ---------------------------------------------------------------- the oracle


def oracle_frobenius(prefix: str, mult, unit, N: int) -> dict[str, float]:
    comult, eye = mult.conj().T, np.eye(N)
    frob_mid = comult @ mult
    return {
        f"{prefix}_associativity": err(
            mult @ np.kron(mult, eye), mult @ np.kron(eye, mult)
        ),
        f"{prefix}_unit_laws": max(
            err(mult @ np.kron(unit, eye), eye), err(mult @ np.kron(eye, unit), eye)
        ),
        f"{prefix}_commutativity": err(mult @ swap_map(N, N), mult),
        f"{prefix}_frobenius": max(
            err(np.kron(eye, mult) @ np.kron(comult, eye), frob_mid),
            err(np.kron(mult, eye) @ np.kron(eye, comult), frob_mid),
        ),
    }


def oracle_structure_laws(cs) -> dict[str, float]:
    N, eye = cs.N, np.eye(cs.N)
    out = oracle_frobenius("time", cs.time_match, cs.time_unit_sum, N)
    out |= oracle_frobenius("group", cs.group_mult, cs.group_unit, N)
    out["hopf_law"] = err(
        cs.group_mult @ np.kron(cs.antipode, eye) @ cs.time_copy,
        cs.group_unit @ cs.time_delete,
    )
    # (m x m)(1 x swap x 1)(copy x copy); the middle swap is a row permutation
    # of copy x copy, whose rows run over (i, k, j, l)
    copies = np.kron(cs.time_copy, cs.time_copy).reshape(N, N, N, N, N * N)
    swapped = copies.transpose(0, 2, 1, 3, 4).reshape(N**4, N * N)
    out["bialgebra_copy_mult"] = err(
        cs.time_copy @ cs.group_mult, np.kron(cs.group_mult, cs.group_mult) @ swapped
    )
    return out


def oracle_dynamic_laws(d, cs) -> dict[str, float]:
    alpha = np.moveaxis(d.unitaries, 0, 2).reshape(d.dim, d.dim * d.N)  # H (x) T -> H
    eye_h, eye_t = np.eye(d.dim), np.eye(d.N)
    adjoints = np.conj(np.transpose(d.unitaries, (0, 2, 1)))
    bend = np.moveaxis(adjoints, 0, 2).reshape(d.dim, d.dim * d.N)
    return {
        "action_law": err(
            alpha @ np.kron(eye_h, cs.group_mult), alpha @ np.kron(alpha, eye_t)
        ),
        "unit_law": err(alpha @ np.kron(eye_h, cs.group_unit), eye_h),
        "unitarity_law": err(bend, alpha @ np.kron(eye_h, cs.antipode)),
    }


def oracle_observable_laws(o, cs) -> dict[str, float]:
    blocks = np.transpose(o.map.reshape(o.dim, o.N, o.dim), (1, 0, 2))
    if o.flavour == GROUP_FLAVOUR:
        comult, counit = cs.group_comult, cs.group_counit
        bent = blocks[-np.arange(o.N) % o.N]
    else:
        comult, counit, bent = cs.time_copy, cs.time_delete, blocks
    eye_h, eye_t = np.eye(o.dim), np.eye(o.N)
    return {
        "self_adjointness": err(bent, np.conj(np.transpose(blocks, (0, 2, 1)))),
        "idempotence": err(
            np.kron(o.map, eye_t) @ o.map, np.kron(eye_h, comult) @ o.map
        ),
        "completeness": err(np.kron(eye_h, counit) @ o.map, eye_h),
    }


def oracle_conundrum(d, cs) -> dict[str, float]:
    N, eye_h, eye_t = d.N, np.eye(d.dim), np.eye(d.N)
    spec = hamiltonian(d)
    time_projectors = [cs.time_copy.reshape(N, N, N)[:, t, :] for t in range(N)]
    comm = 0.0
    for p in spec.projectors:
        a = np.kron(p, eye_t)
        for q in time_projectors:
            b = np.kron(eye_h, q)
            comm = max(comm, err(a @ b, b @ a))
    return {
        "commutators": comm,
        "energy_completeness": err(spec.projectors.sum(axis=0), eye_h),
        "time_completeness": err(sum(time_projectors), eye_t),
    }


def assert_agrees(report, oracle: dict[str, float], nonzero: bool = False) -> None:
    for name, want in oracle.items():
        got = report.check(name).max_error
        assert abs(got - want) <= AGREE, (report.title, name, got, want)
        if nonzero:
            assert want > 1e-3, (report.title, name, want)


# ---------------------------------------------------------------- the tests


@pytest.mark.parametrize("N", SIZES)
def test_structure_laws_agree_on_exact_clock(N):
    cs = make_clock(N)
    oracle = oracle_structure_laws(cs)
    assert set(oracle.values()) == {0.0}
    assert_agrees(verify_strong_complementarity(cs), oracle)


@pytest.mark.parametrize("N", range(2, 9))
def test_structure_laws_agree_on_perturbed_maps(N):
    cs = perturbed_clock(N, np.random.default_rng(100 + N))
    assert_agrees(verify_strong_complementarity(cs), oracle_structure_laws(cs), nonzero=True)


def test_dynamic_laws_agree_on_valid_dynamics():
    rng = np.random.default_rng(20261018)
    for N in SIZES:
        cs = make_clock(N)
        for dim in (1, 2, 4):
            d = sampling.random_dynamic(N, dim, rng)
            oracle = oracle_dynamic_laws(d, cs)
            assert max(oracle.values()) < 1e-12
            assert_agrees(validate_dynamic(d, cs), oracle)


def test_dynamic_laws_agree_on_rejected_inputs():
    rng = np.random.default_rng(7)
    for N in range(2, 9):
        for dim in (1, 3):
            cs = make_clock(N)
            d = unitary_family(N, dim, rng)
            assert_agrees(validate_dynamic(d, cs), oracle_dynamic_laws(d, cs), nonzero=True)
            d = sampling.random_dynamic(N, dim, rng)
            noisy_cs = perturbed_clock(N, rng)
            oracle = oracle_dynamic_laws(d, noisy_cs)
            assert_agrees(validate_dynamic(d, noisy_cs), oracle, nonzero=True)


def test_observable_laws_agree_on_valid_observables():
    rng = np.random.default_rng(11)
    for N in SIZES:
        cs = make_clock(N)
        for o in [valid_observable(TIME_FLAVOUR, cs, rng)] + [
            valid_observable(GROUP_FLAVOUR, cs, rng, dim) for dim in (1, 3)
        ]:
            oracle = oracle_observable_laws(o, cs)
            assert max(oracle.values()) < 1e-12
            assert_agrees(observable_checks(o, cs), oracle)


@pytest.mark.parametrize("flavour", [GROUP_FLAVOUR, TIME_FLAVOUR])
def test_observable_laws_agree_on_rejected_inputs(flavour):
    rng = np.random.default_rng(13)
    for N in range(2, 9):
        dim = 3
        o = Observable(N, dim, noisy(np.zeros((dim * N, dim)), rng, 1.0), flavour)
        cs = make_clock(N)
        assert_agrees(observable_checks(o, cs), oracle_observable_laws(o, cs), nonzero=True)
        o = valid_observable(flavour, cs, rng)
        noisy_cs = perturbed_clock(N, rng)
        oracle = oracle_observable_laws(o, noisy_cs)
        del oracle["self_adjointness"]  # uses no structure map
        assert_agrees(observable_checks(o, noisy_cs), oracle, nonzero=True)


def test_conundrum_agrees_with_kronecker_commutators():
    rng = np.random.default_rng(17)
    for N in SIZES:
        for dim in (1, 2, 3):
            d = sampling.random_dynamic(N, dim, rng)
            cs = make_clock(N)
            report = conundrum_check(d, cs)
            assert_agrees(report, oracle_conundrum(d, cs))
            assert report.check("commutators").max_error == 0.0
            # the time completeness is read off the copy map, not assumed
            cs = perturbed_clock(N, rng)
            report = conundrum_check(d, cs)
            assert_agrees(report, oracle_conundrum(d, cs))
            assert report.check("time_completeness").max_error > 1e-3
