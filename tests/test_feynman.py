import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import X, constant_dynamic, tensor
from qclock import feynman, linalg, sampling
from qclock.dynamics import dynamic_from_generator, time_average, validate_dynamic
from qclock.errors import DimensionCapError, NotCyclicError, NotUnitaryError
from qclock.feynman import (
    composite_dynamic,
    cycle_product,
    cyclify,
    feynman_check,
    history_state,
    make_circuit,
)
from qclock.linalg import basis_vector


def ground_columns(d) -> np.ndarray:
    """The ground space of a dynamic: the label-0 columns of its eigenbasis."""
    W, labels = d.spectrum.eigenbasis
    return W[:, labels == 0]


def composite_step(c):
    """The literal one-step generator sum_t gates[t+1] (x) |t+1><t| on H (x) T (the oracle)."""
    N = c.N
    return sum(
        tensor(c.gates[(t + 1) % N], np.outer(basis_vector(N, (t + 1) % N), basis_vector(N, t)))
        for t in range(N)
    )


def oracle_composite(c):
    """The composite dynamic as the N powers of the dense generator."""
    return dynamic_from_generator(composite_step(c), c.N)


def dense_fixed_dim(u1: np.ndarray) -> int:
    """Dimension of the fixed space of the dense U_1: singular values of U_1 - I near 0."""
    sv = np.linalg.svd(u1 - np.eye(u1.shape[0]), compute_uv=False)
    return int(np.sum(sv <= 1e-6))


def test_make_circuit_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        make_circuit([np.array([[1, 1], [0, 1]])])


def test_composite_step_block_placement():
    c = make_circuit([X, X])
    w = composite_step(c)
    expected = np.zeros((4, 4), dtype=complex)
    # |psi, 0> -> X psi (x) |1> and |psi, 1> -> X psi (x) |0>  (index = h*2 + t)
    expected[3, 0] = 1  # |0,0> -> |1,1>
    expected[2, 1] = 1  # |0,1> -> |1,0>
    expected[1, 2] = 1  # |1,0> -> |0,1>
    expected[0, 3] = 1  # |1,1> -> |0,0>
    assert np.array_equal(w, expected)


def test_composite_step_identity_gates_is_pure_shift():
    c = make_circuit([np.eye(2, dtype=complex)] * 3)
    w = composite_step(c)
    shift = np.roll(np.eye(3), 1, axis=0)
    assert np.array_equal(w, np.kron(np.eye(2), shift))


def test_composite_step_single_stage_is_the_gate():
    v = np.array([[0, 1j], [1j, 0]])
    c = make_circuit([v])
    assert np.array_equal(composite_step(c), v)


def test_composite_dynamic_of_xx():
    c = make_circuit([X, X])
    d = composite_dynamic(c)
    assert d.N == 2 and d.dim == 4
    assert validate_dynamic(d).passed


def test_composite_dynamic_rejects_open_cycle():
    with pytest.raises(NotCyclicError):
        composite_dynamic(make_circuit([X, np.eye(2, dtype=complex)]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_composite_matches_dense_oracle(n, dim, seed):
    c = sampling.random_cyclified_circuit(n, dim, np.random.default_rng(seed))
    d, oracle = composite_dynamic(c), oracle_composite(c)
    assert (d.N, d.dim) == (oracle.N, oracle.dim) == (2 * n, 2 * n * dim)
    assert np.max(np.abs(d.unitaries - oracle.unitaries)) <= 1e-12
    rep = feynman_check(c)
    assert rep.passed
    assert rep.facts["ground_dim"] == dense_fixed_dim(oracle.unitaries[1]) == dim


@st.composite
def circuits_with_fixed_dim(draw):
    """N gates on dim <= 8, N dim <= 64, whose cycle product has exactly k eigenvalues 1.

    The other eigenvalues sit at angles 0.1 to 0.5 from 1, so ||C - I|| < 0.5 and
    the cycle check passes at tol 0.9; the last gate is solved for to close C.
    """
    dim = draw(st.integers(1, 8))
    N = draw(st.integers(1, 64 // dim))
    k = draw(st.integers(0, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = rng.uniform(0.1, 0.5, dim) * rng.choice([-1, 1], dim)
    angles[:k] = 0.0
    v = sampling.haar_unitary(dim, rng)
    target = (v * np.exp(1j * angles)) @ v.conj().T
    gates = [sampling.haar_unitary(dim, rng) for _ in range(N)]
    rest = np.eye(dim)  # gates[N-1] ... gates[1]
    for g in gates[1:]:
        rest = g @ rest
    gates[0] = target @ rest.conj().T
    return make_circuit(gates), k


@settings(max_examples=80, deadline=None)
@given(circuits_with_fixed_dim())
def test_ground_dim_matches_the_dense_fixed_space(drawn):
    c, k = drawn
    rep = feynman_check(c, 0.9)
    assert rep.facts["cyclic"]
    assert rep.facts["ground_dim"] == dense_fixed_dim(composite_step(c)) == k
    assert rep.passed is (k == c.dim)


def test_composite_dynamic_identity_gates_any_length():
    c = make_circuit([np.eye(3, dtype=complex)] * 4)
    d = composite_dynamic(c)
    assert d.N == 4


def test_cyclify_single_self_adjoint_gate():
    c = cyclify([X])
    assert c.N == 2
    assert np.array_equal(c.gates[0], X)
    assert np.array_equal(c.gates[1], X)


def test_cyclify_rejects_empty():
    with pytest.raises(ValueError):
        cyclify([])


def test_cyclify_closes_the_cycle():
    rng = np.random.default_rng(5)
    v = sampling.haar_unitary(2, rng)
    c = cyclify([v])
    assert np.allclose(c.gates[1], v.conj().T)
    assert np.max(np.abs(cycle_product(c) - np.eye(2))) < 1e-12


def test_history_state_golden_xx():
    c = make_circuit([X, X])
    assert np.allclose(history_state(c, [1, 0]), [1, 0, 0, 1])
    assert np.allclose(history_state(c, [0, 1]), [0, 1, 1, 0])


def test_history_state_identity_gates():
    c = make_circuit([np.eye(2, dtype=complex)] * 3)
    psi = np.array([0.6, 0.8j])
    assert np.allclose(history_state(c, psi), np.kron(psi, np.ones(3)))


def test_history_state_requires_cyclic():
    with pytest.raises(NotCyclicError):
        history_state(make_circuit([X, np.eye(2, dtype=complex)]), [1, 0])


def test_history_state_linear_in_initial_state():
    rng = np.random.default_rng(9)
    c = sampling.random_cyclified_circuit(3, 3, rng)
    a, b = sampling.random_state(3, rng), sampling.random_state(3, rng)
    lhs = history_state(c, 2.0 * a + 1j * b)
    rhs = 2.0 * history_state(c, a) + 1j * history_state(c, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ground_space_of_x_dynamic():
    q = ground_columns(dynamic_from_generator(X, 2))
    assert q.shape == (2, 1)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(abs(np.vdot(q[:, 0], plus)) - 1) < 1e-12


def test_ground_space_of_constant_dynamic_is_everything():
    assert ground_columns(constant_dynamic(4, 3)).shape == (3, 3)


def test_ground_space_of_xx_composite():
    q = ground_columns(composite_dynamic(make_circuit([X, X])))
    assert q.shape == (4, 2)
    # basis is orthonormal and fixed by the one-step evolution
    gram = q.conj().T @ q
    assert np.max(np.abs(gram - np.eye(2))) < 1e-9
    w = composite_step(make_circuit([X, X]))
    assert np.max(np.abs(w @ q - q)) < 1e-9


def test_feynman_check_golden_xx():
    rep = feynman_check(make_circuit([X, X]))
    assert rep.passed
    assert rep.facts["cyclic"] and rep.facts["ground_dim"] == 2 == rep.facts["expected_dim"]
    # the two basis history states span the ground space
    q = ground_columns(composite_dynamic(make_circuit([X, X])))
    h0 = history_state(make_circuit([X, X]), [1, 0]) / np.sqrt(2)
    proj = q @ (q.conj().T @ h0)
    assert np.max(np.abs(proj - h0)) < 1e-9


def test_feynman_check_identity_gates():
    rep = feynman_check(make_circuit([np.eye(2, dtype=complex)] * 5))
    assert rep.passed
    assert rep.facts["ground_dim"] == 2


def test_feynman_check_non_cyclic_reported():
    rep = feynman_check(make_circuit([X, np.eye(2, dtype=complex)]))
    assert not rep.passed
    assert not rep.facts["cyclic"]


def test_feynman_random_cyclified_circuits():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 5))
        c = sampling.random_cyclified_circuit(n, dim, rng)
        rep = feynman_check(c, 1e-8)
        assert rep.passed, rep.as_dict()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stationarity_of_history_states(n, dim, seed):
    # every power of the dense composite fixes a history state
    rng = np.random.default_rng(seed)
    c = sampling.random_cyclified_circuit(n, dim, rng)
    h = history_state(c, sampling.random_state(dim, rng))
    for u in oracle_composite(c).unitaries:
        assert np.max(np.abs(u @ h - h)) <= 1e-12


def test_only_the_composite_stack_needs_its_entries():
    # 4 stages at dim 2: the stack holds 4 x 8 x 8 = 256 entries, each matrix 64;
    # feynman_check fits in the N dim^2 = 16 entries of the gates themselves
    c = sampling.random_cyclified_circuit(2, 2, np.random.default_rng(31))
    linalg.set_max_entries(c.N * c.dim**2)
    try:
        with pytest.raises(DimensionCapError):
            composite_dynamic(c)
        assert feynman_check(c).passed
    finally:
        linalg.set_max_entries(linalg.DEFAULT_MAX_ENTRIES)


def test_history_state_is_ground_component_of_lifted_state():
    # history_state(c, psi) equals N * P_0 (psi (x) |0>)
    rng = np.random.default_rng(29)
    c = sampling.random_cyclified_circuit(2, 3, rng)
    psi = sampling.random_state(3, rng)
    d = composite_dynamic(c)
    lifted = np.kron(psi, basis_vector(c.N, 0))
    expected = c.N * (time_average(d) @ lifted)
    assert np.max(np.abs(history_state(c, psi) - expected)) < 1e-10


@pytest.mark.parametrize(
    "gates",
    [
        pytest.param([X, X, X, X], id="gates0"),
        pytest.param([X, np.eye(2, dtype=complex)], id="gates1"),
    ],
)
def test_feynman_check_computes_the_cycle_product_once(monkeypatch, gates):
    calls = []

    def counting(c):
        calls.append(c)
        return cycle_product(c)

    monkeypatch.setattr(feynman, "cycle_product", counting)
    rep = feynman_check(make_circuit(gates))
    assert len(calls) == 1
    assert rep.check("cycle_product_is_identity").passed is rep.facts["cyclic"]


def test_feynman_check_allocates_less_than_the_gate_stack():
    c = sampling.random_cyclified_circuit(256, 4, np.random.default_rng(37))
    tracemalloc.start()
    try:
        rep = feynman_check(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.facts["ground_dim"] == 4
    assert peak < c.gates.nbytes
