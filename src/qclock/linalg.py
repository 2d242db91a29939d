"""Dense complex linear algebra kernel used by every other module.

All values are plain ``numpy.ndarray`` of dtype complex128 and are treated
as immutable; every function here is pure.  The fixed composite-index
convention is ``index = coarse * fine_size + fine`` (row-major), so a
system-with-clock space orders its basis as ``system_index * N + time``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, ShapeMismatchError

#: Default cap on the total number of entries of any constructed tensor.
DEFAULT_MAX_ENTRIES = 1 << 20

_max_entries = DEFAULT_MAX_ENTRIES


def set_max_entries(n: int) -> None:
    """Set the global entry cap (desk-scale guard, not a memory manager)."""
    global _max_entries
    if n < 1:
        raise ValueError(f"entry cap must be positive, got {n}")
    _max_entries = int(n)


def max_entries() -> int:
    return _max_entries


def check_entries(rows: int, cols: int = 1) -> None:
    if rows * cols > _max_entries:
        raise DimensionCapError(
            f"tensor of {rows}x{cols} = {rows * cols} entries exceeds cap {_max_entries}"
        )


@dataclass(frozen=True)
class Tolerance:
    """Absolute per-entry comparison bound; the one bound a caller sets.

    Every check judged at it reports ``eps`` as its ``Check.tol``.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.eps}")


DEFAULT_TOL = Tolerance()

# Fixed floors: they decide what counts as zero, and no caller sets them.

#: A projector's largest entry (its peak), or a residual column norm while a
#: spectrum's eigenbasis is built, at or below this is zero.  Entries of a
#: vanishing projector are averages of N roots of unity, around 1e-15 at
#: desk scale.
SUPPORT_THRESHOLD = 1e-7
#: Roundoff floor for a state norm or an overlap.
ZERO_NORM = 1e-12
#: The self-test judges every suite at no less than this.
SELF_TEST_FLOOR = 1e-8


def as_tolerance(tol: Tolerance | float) -> Tolerance:
    return tol if isinstance(tol, Tolerance) else Tolerance(float(tol))


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def as_vector(a) -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    v = np.asarray(a, dtype=np.complex128).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def as_state(psi, dim: int, acting: str) -> np.ndarray:
    """Coerce to a finite state of length dim, for the ``acting`` object (dynamic, circuit, ...)."""
    v = as_vector(psi)
    if v.shape[0] != dim:
        raise ShapeMismatchError(f"state of dim {v.shape[0]}, {acting} on dim {dim}")
    return v


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def basis_vector(n: int, i: int) -> np.ndarray:
    e = np.zeros(n, dtype=np.complex128)
    e[i] = 1.0
    return e


def max_abs_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def roundoff(n: int) -> float:
    """Entrywise rounding allowance of a complex product with inner dimension n.

    |fl(A B) - A B| <= roundoff(n) |A| |B|: each real and imaginary part of an
    entry sums 2n rounded real products, in any order (sqrt(2) gamma_2n).
    """
    k = n * np.finfo(float).eps  # 2n unit roundoffs
    return float(np.sqrt(2) * k / (1 - k))


def norm_bound(x) -> np.ndarray:
    """Upper bound on the operator 2-norm of each matrix of a stack: sqrt(||x||_1 ||x||_inf).

    Widened by roundoff(n + 4), n the longer side, for the rounding of these
    sums and of a subtraction that produced x.
    """
    a = np.abs(x)
    sums = a.sum(axis=-2).max(axis=-1) * a.sum(axis=-1).max(axis=-1)
    return np.sqrt(sums) * (1 + roundoff(max(x.shape[-2:]) + 4))


def unitarity_residual(stack: np.ndarray) -> np.ndarray:
    """Largest entry of U U^dag - I for each matrix of a stack; inf for non-square ones."""
    rows, cols = stack.shape[-2:]
    if rows != cols:
        return np.full(stack.shape[:-2], np.inf)
    gram = stack @ np.conj(np.swapaxes(stack, -1, -2))
    return np.abs(gram - identity(rows)).max(axis=(-2, -1), initial=0.0)
