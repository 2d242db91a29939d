"""The structure, dynamic and observable laws against their Kronecker forms.

The oracle is each law written as the literal matrix identity on the dense
structure maps built out from the clock's tables (``dense_maps``), with
every Kronecker factor (identity legs, the swap map) built out in full.
The library checks the structure and conundrum laws as contractions of the
tables themselves, and the dynamic laws by index arithmetic mod N, with no
table; the oracle reads those on the exact clock's tables.  At N <= 8
every reported error must agree with the oracle to 1e-12: on the exact
clock tables and valid dynamics, where the errors vanish, and on inputs
the laws reject (tables with complex noise on their values, tables with
wrong targets, unitary families that are not representations of Z/N),
where they do not.  The paper's three observable identities have no
library counterpart: the oracle alone judges the map forms of the energy
and tick observables (``conftest``), which satisfy them, and noisy maps,
which do not.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_maps, energy_observable, swap_map, tick_observable
from qclock import sampling
from qclock.clock import Table, make_clock, verify_strong_complementarity
from qclock.dynamics import UnitaryDynamic, hamiltonian, validate_dynamic
from qclock.sync import conundrum_check

AGREE = 1e-12
SIZES = range(1, 9)


def err(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def noisy(a: np.ndarray, rng, scale: float = 0.1) -> np.ndarray:
    return a + scale * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))


TABLES = ("time_copy", "time_delete", "group_mult", "group_unit", "antipode")


def noisy_table(t: Table, rng) -> Table:
    return Table(t.target, noisy(t.value, rng))


def perturbed_clock(N: int, rng):
    """Every table of the size-N clock, each with its own noise on its values."""
    cs = make_clock(N)
    return dataclasses.replace(cs, **{f: noisy_table(getattr(cs, f), rng) for f in TABLES})


def wrong_clocks(N: int) -> dict[str, object]:
    """The clock with one table replaced by a wrong one of the same shape."""
    cs = make_clock(N)
    t = np.arange(N)

    def swap(name, target):
        return dataclasses.replace(cs, **{name: Table(target, getattr(cs, name).value)})

    return {
        "difference_addition": swap("group_mult", (t[:, None] - t) % N),
        "product_addition": swap("group_mult", (t[:, None] * t) % N),
        "off_diagonal_copy": swap("time_copy", t * N + (t + 1) % N),
        "constant_copy": swap("time_copy", np.zeros(N, dtype=int)),
        "identity_antipode": swap("antipode", t),
        "wrong_unit": swap("group_unit", np.ones(1, dtype=int)),
    }


def valid_observable(flavour: str, cs, rng, dim: int = 3) -> np.ndarray:
    if flavour == "time-structure":
        return tick_observable(cs)
    return energy_observable(sampling.random_dynamic(cs.N, dim, rng))


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
    N, eye, cs = cs.N, np.eye(cs.N), dense_maps(cs)
    out = oracle_frobenius("time", cs.time_match, cs.time_unit_sum, N)
    out["time_speciality"] = err(cs.time_match @ cs.time_copy, eye)
    out |= oracle_frobenius("group", cs.group_mult, cs.group_unit, N)
    out["group_quasi_speciality_factor_N"] = err(cs.group_mult @ cs.group_comult, N * eye)
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
    delete, unit = cs.time_delete, cs.group_unit
    out["bialgebra_delete_mult"] = err(delete @ cs.group_mult, np.kron(delete, delete))
    out["bialgebra_copy_unit"] = err(cs.time_copy @ unit, np.kron(unit, unit))
    out["bialgebra_delete_unit"] = err(delete @ unit, np.eye(1))
    out["antipode_involution"] = err(cs.antipode @ cs.antipode, eye)
    out["antipode_self_adjoint"] = err(cs.antipode, cs.antipode.conj().T)
    return out


def oracle_dynamic_laws(d, cs) -> dict[str, float]:
    cs = dense_maps(cs)
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


def oracle_observable_laws(m: np.ndarray, flavour: str, cs) -> dict[str, float]:
    """Self-adjointness, idempotence and completeness of a map H -> H (x) T, row h N + t.

    The flavour names the labelling structure: "group-structure" (the
    addition's adjoints, with time inversion as the bend) for energy
    observables, "time-structure" (the copy and delete maps) for ticks.
    """
    N, dim, cs = cs.N, m.shape[1], dense_maps(cs)
    blocks = np.transpose(m.reshape(dim, N, dim), (1, 0, 2))
    if flavour == "group-structure":
        comult, counit = cs.group_comult, cs.group_counit
        bent = blocks[-np.arange(N) % N]
    else:
        comult, counit, bent = cs.time_copy, cs.time_delete, blocks
    eye_h, eye_t = np.eye(dim), np.eye(N)
    return {
        "self_adjointness": err(bent, np.conj(np.transpose(blocks, (0, 2, 1)))),
        "idempotence": err(np.kron(m, eye_t) @ m, np.kron(eye_h, comult) @ m),
        "completeness": err(np.kron(eye_h, counit) @ m, eye_h),
    }


def oracle_conundrum(d, cs) -> dict[str, float]:
    N, eye_h, eye_t, cs = d.N, np.eye(d.dim), np.eye(d.N), dense_maps(cs)
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


# On its diagonal support the copy table sends t to v_t^2 |t,t,t> both ways
# round coassociativity and to v_t |t,t> both ways round cocommutativity, and
# both sides of the Frobenius law are sum_t |v_t|^2 |t,t><t,t|: noise on the
# values cannot break these three, which fail on wrong targets instead.
VALUE_BLIND = ("time_associativity", "time_commutativity", "time_frobenius")


@pytest.mark.parametrize("N", range(2, 9))
def test_structure_laws_agree_on_perturbed_maps(N):
    cs = perturbed_clock(N, np.random.default_rng(100 + N))
    report, oracle = verify_strong_complementarity(cs), oracle_structure_laws(cs)
    blind = {name: oracle.pop(name) for name in VALUE_BLIND}
    assert max(blind.values()) <= AGREE  # roundoff of the dense products
    assert_agrees(report, blind)
    assert_agrees(report, oracle, nonzero=True)


def test_dynamic_laws_agree_on_valid_dynamics():
    rng = np.random.default_rng(20261018)
    for N in SIZES:
        cs = make_clock(N)
        for dim in (1, 2, 4):
            d = sampling.random_dynamic(N, dim, rng)
            oracle = oracle_dynamic_laws(d, cs)
            assert max(oracle.values()) < 1e-12
            assert_agrees(validate_dynamic(d), oracle)


def test_dynamic_laws_agree_on_rejected_inputs():
    rng = np.random.default_rng(7)
    for N in range(2, 9):
        for dim in (1, 3):
            d = unitary_family(N, dim, rng)
            oracle = oracle_dynamic_laws(d, make_clock(N))
            assert_agrees(validate_dynamic(d), oracle, nonzero=True)


OBSERVABLE_SIZES = range(1, 7)


def test_observable_laws_agree_on_valid_observables():
    rng = np.random.default_rng(11)
    for N in OBSERVABLE_SIZES:
        cs = make_clock(N)
        for flavour, dim in [("time-structure", 3), ("group-structure", 1), ("group-structure", 3)]:
            m = valid_observable(flavour, cs, rng, dim)
            assert max(oracle_observable_laws(m, flavour, cs).values()) < 1e-12


@pytest.mark.parametrize("flavour", ["group-structure", "time-structure"])
def test_observable_laws_agree_on_rejected_inputs(flavour):
    rng = np.random.default_rng(13)
    for N in OBSERVABLE_SIZES[1:]:
        cs = make_clock(N)
        noise = noisy(np.zeros((3 * N, 3)), rng, 1.0)
        assert min(oracle_observable_laws(noise, flavour, cs).values()) > 1e-3
        # a valid map judged on noisy tables; self-adjointness uses no structure map
        m = valid_observable(flavour, cs, rng)
        laws = oracle_observable_laws(m, flavour, perturbed_clock(N, rng))
        assert laws["self_adjointness"] < 1e-12
        assert min(laws["idempotence"], laws["completeness"]) > 1e-3


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


@pytest.mark.parametrize("N", range(3, 9))
def test_structure_laws_agree_on_wrong_tables(N):
    # at N = 2, s - t is s + t and the identity is the negation
    for name, cs in wrong_clocks(N).items():
        report = verify_strong_complementarity(cs)
        assert_agrees(report, oracle_structure_laws(cs))
        assert not report.passed, name
    report = verify_strong_complementarity(wrong_clocks(N)["off_diagonal_copy"])
    assert all(report.check(name).max_error > 1e-3 for name in VALUE_BLIND)


def corrupted_clock(N: int, name: str, kind: str, rng):
    """The size-N clock with one table's values noised, or one target entry moved."""
    cs = make_clock(N)
    table = getattr(cs, name)
    if kind == "values":
        return dataclasses.replace(cs, **{name: noisy_table(table, rng)})
    outputs = {"time_copy": N * N, "time_delete": 1}.get(name, N)
    target = table.target.copy()
    i = np.unravel_index(rng.integers(target.size), target.shape)
    target[i] = (target[i] + 1 + rng.integers(max(outputs - 1, 1))) % outputs  # a new output
    return dataclasses.replace(cs, **{name: Table(target, table.value)})


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 8),
    name=st.sampled_from(TABLES),
    kind=st.sampled_from(["values", "target"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_law_agrees_on_one_corrupted_table(N, name, kind, seed):
    rng = np.random.default_rng(seed)
    cs = corrupted_clock(N, name, kind, rng)
    assert_agrees(verify_strong_complementarity(cs), oracle_structure_laws(cs))
    for dim in (1, 2):
        d = sampling.random_dynamic(N, dim, rng)
        assert_agrees(conundrum_check(d, cs), oracle_conundrum(d, cs))
