import itertools
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import character_vector, dense_maps, swap_map, tensor, verify_multiplicative_character
from test_law_oracle import assert_agrees, oracle_structure_laws, perturbed_clock, wrong_clocks
from qclock import clock, linalg
from qclock.clock import Table, make_clock, verify_strong_complementarity
from qclock.errors import ShapeMismatchError
from qclock.linalg import basis_vector


def test_make_clock_rejects_bad_sizes():
    from qclock import linalg
    from qclock.errors import DimensionCapError

    with pytest.raises(ValueError):
        make_clock(0)
    linalg.set_max_entries(100)
    try:
        assert make_clock(10).group_mult.target.shape == (10, 10)
        with pytest.raises(DimensionCapError):
            make_clock(11)  # its addition table has 11 x 11 entries
    finally:
        linalg.set_max_entries(linalg.DEFAULT_MAX_ENTRIES)


def test_make_clock_builds_at_n_1000_under_the_default_cap():
    cs = make_clock(1000)
    assert cs.group_mult.target[999, 3] == 2
    assert cs.time_copy.target[7] == 7 * 1000 + 7


def test_make_clock_trivial_group():
    cs = dense_maps(make_clock(1))
    assert np.array_equal(cs.group_mult, np.array([[1.0]]))
    assert np.array_equal(cs.time_copy, np.array([[1.0]]))
    assert np.array_equal(cs.antipode, np.array([[1.0]]))


def test_group_mult_adds_mod_two():
    cs = dense_maps(make_clock(2))
    one_one = np.kron(basis_vector(2, 1), basis_vector(2, 1))
    assert np.array_equal(cs.group_mult @ one_one, basis_vector(2, 0))


def test_antipode_negates_mod_three():
    cs = dense_maps(make_clock(3))
    assert np.array_equal(cs.antipode @ basis_vector(3, 1), basis_vector(3, 2))


def test_time_copy_and_delete_on_basis():
    cs = dense_maps(make_clock(4))
    for t in range(4):
        e = basis_vector(4, t)
        assert np.array_equal(cs.time_copy @ e, np.kron(e, e))
        assert cs.time_delete @ e == 1.0


def test_character_vectors():
    assert np.allclose(character_vector(4, 0), [1, 1, 1, 1])
    assert np.allclose(character_vector(4, 1), [1, 1j, -1, -1j])
    assert np.allclose(character_vector(2, 1), [1, -1])


def test_character_is_multiplicative():
    cs = make_clock(4)
    assert verify_multiplicative_character(cs, character_vector(4, 1))


def test_non_character_rejected():
    cs = make_clock(4)
    assert not verify_multiplicative_character(cs, np.array([1, 1, 1, 0], dtype=complex))


def test_trivial_character_on_trivial_clock():
    cs = make_clock(1)
    assert verify_multiplicative_character(cs, np.array([1.0]))


def test_character_dim_mismatch_raises():
    with pytest.raises(ShapeMismatchError):
        verify_multiplicative_character(make_clock(3), np.ones(4))


@pytest.mark.parametrize("N", [1, 2, 3, 6])
def test_strong_complementarity_exact(N):
    report = verify_strong_complementarity(make_clock(N))
    assert report.passed
    assert report.max_error == 0.0


def test_hopf_law_fails_with_corrupted_antipode():
    from dataclasses import replace

    cs = make_clock(3)
    broken = replace(cs, antipode=Table(np.arange(3), np.ones(3, dtype=complex)))
    report = verify_strong_complementarity(broken)
    assert not report.passed
    assert not report.check("hopf_law").passed
    # the untouched laws still hold
    assert report.check("bialgebra_copy_mult").passed


@pytest.mark.parametrize("N", range(1, 17))
def test_characters_orthogonal_with_norm_N(N):
    cols = np.column_stack([character_vector(N, E) for E in range(N)])
    gram = cols.conj().T @ cols
    assert np.max(np.abs(gram - N * np.eye(N))) < 1e-9


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_group_comult_copies_characters(N):
    cs = dense_maps(make_clock(N))
    for E in range(N):
        chi = character_vector(N, E)
        copied = cs.group_comult @ chi
        assert np.max(np.abs(copied - np.kron(chi, chi))) < 1e-9
        # adjoint statement: adding a character to itself scales it by N
        assert np.max(np.abs(cs.group_mult @ np.kron(chi, chi) - N * chi)) < 1e-9


@pytest.mark.parametrize("N", [2, 3, 6])
def test_time_match_is_pointwise_character_multiplication(N):
    cs = dense_maps(make_clock(N))
    for E in range(N):
        for F in range(N):
            prod = cs.time_match @ np.kron(
                character_vector(N, E), character_vector(N, F)
            )
            expected = character_vector(N, (E + F) % N)
            assert np.max(np.abs(prod - expected)) < 1e-9


@pytest.mark.parametrize("N", [2, 3, 7])
def test_antipode_conjugates_characters(N):
    cs = dense_maps(make_clock(N))
    for E in range(N):
        chi = character_vector(N, E)
        assert np.max(np.abs(cs.antipode @ chi - chi.conj())) < 1e-9


def test_structure_maps_are_mutual_adjoints():
    cs = dense_maps(make_clock(5))
    assert np.array_equal(cs.time_match, cs.time_copy.conj().T)
    assert np.array_equal(cs.time_unit_sum, cs.time_delete.conj().T)
    assert np.array_equal(cs.group_comult, cs.group_mult.conj().T)
    assert np.array_equal(cs.group_counit, cs.group_unit.conj().T)


def test_clock_stores_tables_not_adjoints():
    cs = make_clock(4)
    assert [f.name for f in fields(cs)] == [
        "N", "time_copy", "time_delete", "group_mult", "group_unit", "antipode"
    ]
    assert all(getattr(cs, f.name).target.size <= 16 for f in fields(cs)[1:])


def test_quasi_speciality_scaling():
    cs = dense_maps(make_clock(6))
    assert np.array_equal(cs.group_mult @ cs.group_comult, 6 * np.eye(6))


def test_bialgebra_as_explicit_tensor_contraction():
    # same law as the report, rebuilt here with explicit Kronecker factors
    cs = dense_maps(make_clock(3))
    lhs = cs.time_copy @ cs.group_mult
    mid = tensor(tensor(np.eye(3), swap_map(3, 3)), np.eye(3))
    rhs = tensor(cs.group_mult, cs.group_mult) @ mid @ tensor(cs.time_copy, cs.time_copy)
    assert np.array_equal(lhs, rhs)


def test_bialgebra_daggered_form_between_comultiplications():
    # the clock's two outcome-recording maps satisfy the adjoint law exactly
    cs = dense_maps(make_clock(4))
    lhs = cs.group_comult @ cs.time_match
    mid = tensor(tensor(np.eye(4), swap_map(4, 4)), np.eye(4))
    rhs = tensor(cs.time_match, cs.time_match) @ mid @ tensor(cs.group_comult, cs.group_comult)
    assert np.array_equal(lhs, rhs)


# -- the addition laws, a block of p at a time


@pytest.fixture
def restore_cap():
    before = linalg.max_entries()
    yield
    linalg.set_max_entries(before)


def law_case(N: int, kind: str, rng):
    if kind == "exact":
        return make_clock(N)
    if kind == "perturbed":
        return perturbed_clock(N, rng)
    return wrong_clocks(N)[kind]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    N=st.integers(1, 40),
    kind=st.sampled_from(["exact", "perturbed", *wrong_clocks(3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_of_p_report_as_under_the_default_cap(restore_cap, N, kind, seed):
    assume(N > 1 or kind in ("exact", "perturbed"))  # C^1 has no wrong unit target
    linalg.set_max_entries(linalg.DEFAULT_MAX_ENTRIES)
    cs = law_case(N, kind, np.random.default_rng(seed))
    want = verify_strong_complementarity(cs)
    # one p per block, and blocks of three p with a partial last block
    for cap in (N * N, 3 * N * N):
        linalg.set_max_entries(cap)
        assert verify_strong_complementarity(cs) == want, cap


def s3_clock():
    """The clock on C^6 with S_3 as its addition table: identity first, inverse as antipode."""
    perms = list(itertools.permutations(range(3)))
    index = {p: n for n, p in enumerate(perms)}
    mult = [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]
    inverse = [index[tuple(np.argsort(a))] for a in perms]
    cs = make_clock(6)
    return replace(
        cs,
        group_mult=Table(np.array(mult), cs.group_mult.value),
        antipode=Table(np.array(inverse), cs.antipode.value),
    )


def failures(report) -> list:
    return [(c.name, c.max_error) for c in report.checks if not c.passed]


def test_s3_fails_only_commutativity():
    cs = s3_clock()
    report = verify_strong_complementarity(cs)
    assert_agrees(report, oracle_structure_laws(cs))
    assert failures(report) == [("group_commutativity", 1.0)]


def test_max_on_z5_goes_through_the_keyed_terms():
    # max(p, .) is no permutation for p > 0
    cs, t = make_clock(5), np.arange(5)
    cs = replace(cs, group_mult=Table(np.maximum.outer(t, t), cs.group_mult.value))
    report = verify_strong_complementarity(cs)
    assert_agrees(report, oracle_structure_laws(cs))
    assert failures(report) == [
        ("group_frobenius", 4.0),
        ("group_quasi_speciality_factor_N", 4.0),
        ("hopf_law", 1.0),
    ]


def test_clock_laws_make_as_many_passes_at_n_64_as_at_n_4(monkeypatch):
    # a per-p loop would call residual and _join about N times
    counts = Counter()
    for name in ("residual", "_join"):

        def counted(*args, _f=getattr(clock, name), _name=name):
            counts[_name] += 1
            return _f(*args)

        monkeypatch.setattr(clock, name, counted)
    seen = []
    for N in (4, 64):
        counts.clear()
        assert verify_strong_complementarity(make_clock(N)).max_error == 0.0
        seen.append(dict(counts))
    assert seen[0] == seen[1]
