import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dagger, tensor
from qclock import linalg
from qclock.errors import DimensionCapError, ShapeMismatchError
from qclock.linalg import Tolerance, max_abs_diff, unitarity_residual

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_tensor_identity_case():
    assert np.array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_swap_block_expansion():
    # Kronecker expansion of X (x) I2, written out by hand
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(tensor(X, I2), expected)


def test_tensor_scalar_absorption():
    b = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(tensor(np.array([[2.0]]), b), 2 * b)


def test_dagger_scalar_and_identity():
    assert np.array_equal(dagger(np.array([[1j]])), np.array([[-1j]]))
    assert np.array_equal(dagger(np.eye(3)), np.eye(3))


def test_dagger_involution_random():
    rng = np.random.default_rng(7)
    a = _random_matrix(rng, 4, 3)
    assert np.array_equal(dagger(dagger(a)), a)


def test_max_abs_diff_reports_max_error():
    assert max_abs_diff(I2, I2) == 0.0
    bumped = I2.copy()
    bumped[0, 0] += 1e-6
    assert max_abs_diff(I2, bumped) == pytest.approx(1e-6)


def test_max_abs_diff_shape_mismatch_raises():
    with pytest.raises(ShapeMismatchError):
        max_abs_diff(I2, np.eye(3))


def test_unitarity_residual_per_matrix():
    sheared = np.array([[1, 1e-6], [0, 1]], dtype=complex)
    stack = np.stack([I2, X, sheared])
    assert np.array_equal(unitarity_residual(stack)[:2], [0.0, 0.0])
    assert unitarity_residual(stack)[2] == pytest.approx(1e-6)
    assert float(unitarity_residual(sheared)) == pytest.approx(1e-6)
    # a non-square matrix is never unitary, even with orthonormal rows
    assert unitarity_residual(np.eye(2, 3, dtype=complex)) == np.inf


def test_tolerance_bounds():
    with pytest.raises(ValueError):
        Tolerance(0.0)
    with pytest.raises(ValueError):
        Tolerance(1.0)


def test_entry_cap_enforced():
    linalg.set_max_entries(64)
    try:
        with pytest.raises(DimensionCapError):
            tensor(np.eye(16), np.eye(16))
    finally:
        linalg.set_max_entries(linalg.DEFAULT_MAX_ENTRIES)


@st.composite
def small_matrices(draw, max_dim=3, exact=False):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    if exact:
        # small integers multiply without rounding, so equality can be bitwise
        vals = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    else:
        vals = st.tuples(
            st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
        )
    data = draw(
        st.lists(
            st.lists(vals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )
    return np.array([[complex(re, im) for re, im in row] for row in data])


@settings(max_examples=60, deadline=None)
@given(a=small_matrices(exact=True), b=small_matrices(exact=True), c=small_matrices(exact=True))
def test_tensor_associative_exactly_on_exact_entries(a, b, c):
    # index placement carries no floating error; integer products are exact
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


@settings(max_examples=60, deadline=None)
@given(a=small_matrices(), b=small_matrices(), c=small_matrices())
def test_tensor_associative_within_rounding(a, b, c):
    # complex float multiplication is non-associative in the last ulp
    left, right = tensor(tensor(a, b), c), tensor(a, tensor(b, c))
    assert np.allclose(left, right, rtol=1e-15, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(a=small_matrices(), b=small_matrices())
def test_dagger_distributes_over_tensor_exactly(a, b):
    assert np.array_equal(dagger(tensor(a, b)), tensor(dagger(a), dagger(b)))

