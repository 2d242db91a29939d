"""End-to-end acceptance suite.

One test per criterion, each at its stated tolerance, printing a single
PASS/FAIL line (run pytest with -s to see them inline).
"""

import itertools
import json
import subprocess
import sys

import numpy as np

from conftest import (
    X,
    character_vector,
    clock_dynamic,
    dense_maps,
    energy_observable,
    outcome_weights,
    phase_matrix,
    shift_matrix,
)
from test_feynman import dense_fixed_dim, ground_columns, oracle_composite
from test_sync_oracle import collapse
from qclock import sampling
from qclock.clock import make_clock, verify_strong_complementarity
from qclock.dynamics import (
    dynamic_from_generator,
    hamiltonian,
    spectral_projector,
    stone_reconstruct,
    time_average,
    validate_dynamic,
)
from qclock.errors import NotASubgroupError, OrthogonalEigenstateError
from qclock.feynman import composite_dynamic, feynman_check, history_state, make_circuit
from qclock.histories import history_from_state, is_em_morphism, reconstruct_history, schrodinger_solve
from qclock.observables import uncertainty_check, weyl_ccr_check
from qclock.serialize import array_to_json
from qclock.sync import EnergyFamily, dynamic_descent, internal_time_observable

E0 = np.array([1, 0], dtype=complex)
W6 = np.exp(2j * np.pi / 6)


def _conclude(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_01_structure_axioms():
    worst = 0.0
    for N in range(1, 17):
        report = verify_strong_complementarity(make_clock(N), 1e-12)
        worst = max(worst, report.max_error)
        if not report.passed:
            _conclude(1, "structure axioms", False, f"N={N}")
    _conclude(
        1,
        "structure axioms for N=1..16",
        worst < 1e-12 and worst == 0.0,
        f"max error {worst:.1e}, exact-permutation checks report 0",
    )


def test_criterion_02_character_duality():
    worst_gram = worst_pointwise = 0.0
    for N in range(1, 17):
        cs = dense_maps(make_clock(N))
        cols = np.column_stack([character_vector(N, E) for E in range(N)])
        gram = cols.conj().T @ cols
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - N * np.eye(N)))))
        for E in range(N):
            for F in range(N):
                prod = cs.time_match @ np.kron(cols[:, E], cols[:, F])
                expected = cols[:, (E + F) % N]
                worst_pointwise = max(
                    worst_pointwise, float(np.max(np.abs(prod - expected)))
                )
    ok = worst_gram < 1e-9 and worst_pointwise < 1e-9
    _conclude(
        2,
        "character duality and pointwise multiplication",
        ok,
        f"gram {worst_gram:.1e}, pointwise {worst_pointwise:.1e}",
    )


def test_criterion_03_stone_round_trip(random_family):
    worst = 0.0
    for d, _ in random_family:
        rebuilt = stone_reconstruct(hamiltonian(d))
        worst = max(worst, float(np.max(np.abs(rebuilt.unitaries - d.unitaries))))
    _conclude(3, "spectrum -> dynamic round trip on 50 random dynamics", worst < 1e-8, f"max {worst:.1e}")


def test_criterion_04_ergodic_theorem(random_family):
    worst = 0.0
    for d, _ in random_family:
        worst = max(
            worst, float(np.max(np.abs(time_average(d) - spectral_projector(d, 0))))
        )
    _conclude(4, "time average equals ground projector", worst < 1e-8, f"max {worst:.1e}")


def test_criterion_05_weyl_and_uncertainty():
    worst_weyl = worst_uniform = 0.0
    for N in range(2, 9):
        dU = dynamic_from_generator(shift_matrix(N), N)
        dV = dynamic_from_generator(phase_matrix(N), N)
        worst_weyl = max(worst_weyl, weyl_ccr_check(dU, dV).max_error)

        # character eigenstates of the shift, measured in the tick basis
        obs_v = energy_observable(dV)
        spec_u = hamiltonian(dU)
        for E in spec_u.support:
            p = spec_u.projectors[E]
            col = int(np.argmax(np.linalg.norm(p, axis=0)))
            psi = p[:, col] / np.linalg.norm(p[:, col])
            dist = outcome_weights(obs_v, psi, energy=True)
            worst_uniform = max(
                worst_uniform, float(np.max(np.abs(dist - 1.0 / N)))
            )
        # and the reverse direction through the packaged check
        unc = uncertainty_check(dU, dV)
        worst_uniform = max(worst_uniform, unc.max_error)
    ok = worst_weyl < 1e-12 and worst_uniform < 1e-9
    _conclude(
        5,
        "Weyl relation and mutual unbias for shift/phase pairs, N=2..8",
        ok,
        f"weyl {worst_weyl:.1e}, uniformity {worst_uniform:.1e}",
    )


def test_criterion_06_histories_and_spectral_solutions(random_family):
    worst_em = worst_eigen = worst_round = 0.0
    for d, psi in random_family:
        h = history_from_state(d, psi)
        _, err = is_em_morphism(h, d)
        worst_em = max(worst_em, err)
        sol = schrodinger_solve(d, psi)
        for E in range(d.N):
            comp = sol.components[E]
            for t in range(d.N):
                phase = np.exp(2j * np.pi * E * t / d.N)
                worst_eigen = max(
                    worst_eigen,
                    float(np.max(np.abs(d.unitaries[t] @ comp - phase * comp))),
                )
        worst_round = max(
            worst_round,
            float(np.max(np.abs(reconstruct_history(sol).states - h.states))),
        )
    ok = worst_em < 1e-8 and worst_eigen < 1e-8 and worst_round < 1e-9
    _conclude(
        6,
        "trajectories, eigen-relations and reconstruction",
        ok,
        f"translation {worst_em:.1e}, eigen {worst_eigen:.1e}, round {worst_round:.1e}",
    )


def test_criterion_07_feynman_clock():
    # against the dense U_1 of the oracle: its fixed space has dimension dim,
    # and every basis history state is fixed by it
    rng = np.random.default_rng(777)
    worst = 0.0
    dims_ok = True
    for _ in range(25):
        n = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 5))
        c = sampling.random_cyclified_circuit(n, dim, rng)
        rep = feynman_check(c, 1e-8)
        u1 = oracle_composite(c).unitaries[1]
        for i in range(dim):
            h = history_state(c, np.eye(dim)[i])
            worst = max(worst, float(np.max(np.abs(u1 @ h - h))))
        dims_ok = dims_ok and rep.passed and rep.facts["ground_dim"] == dense_fixed_dim(u1) == dim

    golden = make_circuit([X, X])
    h = history_state(golden, E0)
    golden_ok = np.allclose(h, [1, 0, 0, 1])
    q = ground_columns(composite_dynamic(golden))
    proj = q @ (q.conj().T @ (h / np.linalg.norm(h)))
    golden_ok = golden_ok and np.max(np.abs(proj - h / np.linalg.norm(h))) < 1e-9

    ok = worst < 1e-8 and dims_ok and golden_ok
    _conclude(
        7,
        "history states exhaust composite ground spaces (25 random + golden)",
        ok,
        f"max residual {worst:.1e}",
    )


def test_criterion_08_conservation_of_total_energy():
    golden = EnergyFamily([dynamic_from_generator(X, 2)] * 2, [E0, E0], 1)
    golden_ok = np.max(np.abs(golden.amplitudes - np.array([0.5, 0, 0, -0.5]))) < 1e-12

    rng = np.random.default_rng(888)
    worst_collapse = worst_measure = 0.0
    measured = 0
    for _ in range(15):
        M = int(rng.integers(2, 4))
        N = int(rng.integers(2, 5))
        ds = [sampling.random_dynamic(N, int(rng.integers(1, 4)), rng) for _ in range(M)]
        psis = [sampling.random_state(d.dim, rng) for d in ds]
        chi = int(rng.integers(0, N))
        family = EnergyFamily(ds, psis, chi)
        worst_collapse = max(worst_collapse, collapse(family).residual)
        j = int(rng.integers(0, M))
        spec = hamiltonian(ds[j])
        for E in spec.support:
            if int(round(float(np.trace(spec.projectors[E]).real))) != 1:
                continue
            try:
                res = family.measure(j, E)
            except OrthogonalEigenstateError:
                continue
            worst_measure = max(worst_measure, res.residual)
            measured += 1
            break
    ok = (
        golden_ok
        and worst_collapse < 1e-8
        and worst_measure < 1e-8
        and measured >= 8
    )
    _conclude(
        8,
        "clock collapse and subsystem measurement conserve total energy",
        ok,
        f"collapse {worst_collapse:.1e}, measure {worst_measure:.1e} over {measured} runs",
    )


def test_criterion_09_internal_time_observable():
    d = dynamic_from_generator(np.diag([1, W6**2, W6**4]), 6)
    desc = internal_time_observable(d)
    perm = 0.0
    for tau in range(3):
        advanced = d.unitaries[1] @ desc.basis[:, tau]
        perm = max(
            perm, float(np.max(np.abs(advanced - desc.basis[:, (tau + 1) % 3])))
        )
    golden_ok = (
        desc.internal_size == 3 and desc.subgroup_generator == 2 and perm < 1e-9
    )

    try:
        internal_time_observable(dynamic_from_generator(np.diag([1, 1j]), 4))
        negative_ok = False
    except NotASubgroupError as exc:
        negative_ok = exc.energies == (0, 1)

    agreement = True
    for N in range(1, 7):
        for r in range(1, N + 1):
            for subset in itertools.combinations(range(N), r):
                brute = all((a + b) % N in subset for a in subset for b in subset)
                phases = np.exp(2j * np.pi * np.array(subset) / N)
                try:
                    internal_time_observable(
                        dynamic_from_generator(np.diag(phases), N)
                    )
                    decided = True
                except NotASubgroupError:
                    decided = False
                agreement = agreement and (decided == brute)

    ok = golden_ok and negative_ok and agreement
    _conclude(
        9,
        "internal clock exists exactly on subgroup energy images",
        ok,
        f"permutation error {perm:.1e}, closure agreement on all subsets N<=6",
    )


def test_criterion_10_dynamic_descent():
    rng = np.random.default_rng(999)
    dg_triv = clock_dynamic(4)
    worst_trivial = 0.0
    for _ in range(5):
        dh = sampling.random_dynamic(4, int(rng.integers(1, 4)), rng)
        v = dynamic_descent(dg_triv, dh, 0)
        worst_trivial = max(
            worst_trivial, float(np.max(np.abs(v.unitaries - dh.unitaries)))
        )

    dg = dynamic_from_generator(np.diag([1, W6**2, W6**4]), 6)
    worst_axioms = 0.0
    for _ in range(5):
        dim = int(rng.integers(1, 4))
        u = sampling.haar_unitary(dim, rng)
        ks = rng.integers(0, 3, size=dim)
        gen = (u * np.exp(2j * np.pi * 2 * ks / 6)) @ u.conj().T
        dh = dynamic_from_generator(gen, 6)
        chi = int(rng.choice([0, 2, 4]))
        out = dynamic_descent(dg, dh, chi)
        worst_axioms = max(
            worst_axioms, validate_dynamic(out).max_error
        )

    ok = worst_trivial < 1e-10 and worst_axioms < 1e-8
    _conclude(
        10,
        "descent onto internal clocks (trivial case exact, axioms hold)",
        ok,
        f"trivial {worst_trivial:.1e}, axioms {worst_axioms:.1e}",
    )


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "qclock.cli", *args],
            text=True,
            capture_output=True,
            check=False,
        )

    one = run("--self-test", "--seed", "0")
    two = run("--self-test", "--seed", "0")
    deterministic = one.stdout == two.stdout and one.returncode == 0

    ok_pass = run("axioms", "6").returncode == 0

    open_circuit = tmp_path / "open.json"
    open_circuit.write_text(
        json.dumps(
            {"N": 2, "dim": 2, "gates": [array_to_json(X), array_to_json(np.eye(2))]}
        )
    )
    ok_fail = run("feynman", str(open_circuit)).returncode == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    ok_malformed = run("feynman", str(broken)).returncode == 2

    ok = deterministic and ok_pass and ok_fail and ok_malformed
    _conclude(
        11,
        "CLI reports byte-identical; exit codes partition pass/fail/input-error",
        ok,
        f"deterministic={deterministic}, codes=({ok_pass},{ok_fail},{ok_malformed})",
    )
