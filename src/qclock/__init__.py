"""Finite quantum clocks and the dynamics they govern, verified numerically.

The package builds the interacting pair of algebras carried by a size-N
clock space, unitary Z/N dynamics with their projector-valued energy
spectra and eigenbases, the Weyl/unbiasedness duality read off two
eigenbases, state histories and their spectral solutions, cyclic circuits
with the clock-register (history-state) construction, and clock
synchronisation with energy conservation, internal time observables and
dynamic descent.
"""

from .clock import (
    ClockStructures,
    Table,
    make_clock,
    verify_strong_complementarity,
)
from .dynamics import (
    ProjectionSpectrum,
    UnitaryDynamic,
    dynamic_from_generator,
    fourier_transform,
    hamiltonian,
    inverse_fourier_transform,
    spectral_projector,
    spectrum_checks,
    stone_reconstruct,
    time_average,
    validate_dynamic,
)
from .errors import (
    AxiomsViolatedError,
    DegenerateError,
    DimensionCapError,
    IncompleteSpectrumError,
    InputFormatError,
    NotASubgroupError,
    NotCyclicError,
    NotPeriodicError,
    NotUnitaryError,
    OrthogonalEigenstateError,
    QClockError,
    ShapeMismatchError,
)
from .feynman import (
    CyclicCircuit,
    composite_dynamic,
    cycle_product,
    cyclify,
    feynman_check,
    history_state,
    make_circuit,
)
from .histories import (
    History,
    SpectralSolution,
    history_from_state,
    is_em_morphism,
    reconstruct_history,
    schrodinger_solve,
)
from .linalg import DEFAULT_TOL, Tolerance
from .observables import uncertainty_check, weyl_ccr_check
from .reports import Check, Report
from .sync import (
    EnergyFamily,
    InternalClockDescriptor,
    MeasureResult,
    conundrum_check,
    demolition_hamiltonian,
    dynamic_descent,
    internal_time_check,
    internal_time_observable,
    synchronized_family,
    synchronized_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
