"""Seeded randomised property suites, callable from the command line.

Each suite draws instances from the seeded samplers and checks the
corresponding law or conservation property; results come back as a
single report suitable for deterministic JSON output.
"""

from __future__ import annotations

import numpy as np

from . import sampling
from .dynamics import validate_dynamic
from .histories import history_from_state, is_em_morphism
from .linalg import DEFAULT_TOL, SELF_TEST_FLOOR, Tolerance, as_tolerance
from .reports import Check, Report
from .sync import EnergyFamily
from .errors import OrthogonalEigenstateError


def _axioms_suite(rng: np.random.Generator, eps: float) -> list[Check]:
    err_axioms = 0.0
    for _ in range(20):
        N = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 6))
        d = sampling.random_dynamic(N, dim, rng)
        err_axioms = max(err_axioms, validate_dynamic(d).max_error)
    return [Check("dynamic_axioms", err_axioms, eps)]


def _history_suite(rng: np.random.Generator, eps: float) -> list[Check]:
    err_em = 0.0
    for _ in range(20):
        N = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 6))
        d = sampling.random_dynamic(N, dim, rng)
        psi = sampling.random_state(dim, rng)
        h = history_from_state(d, psi)
        _, e = is_em_morphism(h, d)
        err_em = max(err_em, e)
    return [Check("history_translation_equation", err_em, eps)]


def _conservation_suite(rng: np.random.Generator, eps: float) -> list[Check]:
    err_measure = 0.0
    for _ in range(10):
        M = int(rng.integers(2, 4))
        N = int(rng.integers(2, 5))
        ds = [sampling.random_dynamic(N, int(rng.integers(1, 4)), rng) for _ in range(M)]
        psis = [sampling.random_state(d.dim, rng) for d in ds]
        chi = int(rng.integers(0, N))
        family = EnergyFamily(ds, psis, chi)
        rank1 = [E for E, rank in ds[-1].spectrum.ranks.items() if rank == 1]
        for E in rank1:
            try:
                res = family.measure(M - 1, E)
            except OrthogonalEigenstateError:
                continue
            err_measure = max(err_measure, res.residual)
            break
    return [Check("subsystem_energy_measure", err_measure, eps)]


def run_self_test(seed: int = 0, tol: Tolerance | float = DEFAULT_TOL) -> Report:
    """Run all randomised suites with one seed; deterministic given the seed.

    Every suite is judged at ``tol`` raised to at least ``SELF_TEST_FLOOR``.
    """
    eps = max(as_tolerance(tol).eps, SELF_TEST_FLOOR)
    checks: list[Check] = []
    checks += _axioms_suite(np.random.default_rng(seed), eps)
    checks += _history_suite(np.random.default_rng(seed + 1), eps)
    checks += _conservation_suite(np.random.default_rng(seed + 3), eps)
    return Report(title=f"randomised self-test (seed={seed})", checks=tuple(checks))
