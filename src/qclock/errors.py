"""Exception types raised across the package."""

from __future__ import annotations


class QClockError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(QClockError):
    """Operands have incompatible shapes; signals a caller bug."""


class DimensionCapError(QClockError):
    """A tensor would exceed the configured entry cap."""


class NotUnitaryError(QClockError):
    """A matrix expected to be unitary is not, within tolerance."""


class NotPeriodicError(QClockError):
    """Generator's N-th power differs from the identity."""


class NotCyclicError(QClockError):
    """Full cycle product of a circuit's gates differs from the identity."""


class IncompleteSpectrumError(QClockError):
    """Projector family does not sum to the identity within tolerance."""


class DegenerateError(QClockError):
    """Dynamic has an eigenspace of dimension greater than one."""


class NotASubgroupError(QClockError):
    """Energy image is not closed under addition mod N."""

    def __init__(self, energies: tuple[int, ...], N: int):
        self.energies = tuple(energies)
        self.N = int(N)
        super().__init__(
            f"energies {list(self.energies)} are not a subgroup of Z/{self.N}"
        )


class AxiomsViolatedError(QClockError):
    """A constructed family fails the dynamic axioms."""

    def __init__(self, max_residual: float):
        self.max_residual = float(max_residual)
        super().__init__(f"dynamic axioms violated, max residual {max_residual:.3e}")


class OrthogonalEigenstateError(QClockError):
    """Measurement eigenstate is orthogonal to the subsystem state."""


class InputFormatError(QClockError):
    """Malformed input document; message names the offending field."""

    def __init__(self, field: str, reason: str):
        self.field = field
        super().__init__(f"field '{field}': {reason}")
