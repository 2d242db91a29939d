"""Seeded inputs, the operations of each workload, and their output checks.

Every input is drawn here with plain numpy as V diag(omega^k) V^dag, with V
Haar-random and k integer, and V and k are kept.  Outputs are checked
against constructions made from V and k (eigenprojectors, trajectories,
collapses), never against another qclock routine, or against properties
that hold exactly (structure-law errors of 0, uniform distributions,
vanishing commutators).
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Imported after run.py has put the checkout's src/ on the path.  Program
# functions are called through their module attributes, so the traced run's
# wrappers see every call.
import qclock.cli
from qclock import clock, dynamics, histories, linalg, observables, sync

#: Tolerance handed to the program and used for the benchmark's own checks.
TOL = 1e-9
#: Bound on the distance between a program output and its V-side construction.
MATCH = 1e-8
#: The one input that does not depend on --seed: the cap-bound dynamic file.
FIXED_SEED = 20150126

# Operation kinds; kind K is timed into the end-to-end metric K_s.
KINDS = (
    "axioms",
    "dynamic",
    "feynman",
    "sync",
    "internal_time",
    "self_test",
    "conundrum",
    "spectrum",
    "history",
    "unbias",
)

# Sizes per workload.  They are fixed; the seed only draws V, k and states,
# so the work per run does not depend on the seed.
#   axioms:        N
#   dynamic:       (N, dim, file form); "fixed" marks the seed-independent file
#   feynman:       (stages, dim)
#   sync:          (N, dims of the M systems)
#   internal_time: (N, m) with dim = m and energies the subgroup of order m
#   self_test:     --seed of the CLI self-test
#   conundrum, spectrum, history: (N, dim)
#   unbias:        N of the shift/phase Weyl pair
SIZES = {
    "cli-desk": {
        "axioms": [4, 6, 8, 10, 12],
        "dynamic": [(3, 3, "generator"), (4, 4, "unitaries"), (6, 4, "generator"),
                    (8, 4, "unitaries"), (12, 4, "generator")],
        "feynman": [(2, 2), (4, 3), (6, 4)],
        "sync": [(4, (2, 2)), (4, (2, 2, 2)), (6, (1, 2, 2))],
        "internal_time": [(4, 2), (6, 3), (8, 4), (12, 4)],
        "self_test": [0, 1, 2],
        "conundrum": [(4, 2), (8, 3), (12, 4)],
        "spectrum": [(6, 4), (12, 4)],
        "history": [(8, 4), (12, 4)],
        "unbias": [6, 8, 12],
    },
    "dense-composite": {
        "axioms": [13, 24],
        "dynamic": [(16, 16, "unitaries"), (24, 8, "generator"), (32, 16, "fixed")],
        "feynman": [(32, 8), (16, 16)],
        "sync": [(6, (2, 2, 2, 2, 2))],
        "internal_time": [(24, 12), (32, 16)],
        "self_test": [0, 1, 2],
        "conundrum": [(16, 4), (20, 4)],
        "spectrum": [(16, 16), (24, 8)],
        "history": [(16, 16), (24, 8)],
        "unbias": [16, 24],
    },
    "large-clock": {
        "axioms": [12],
        "dynamic": [(64, 2, "generator"), (48, 3, "generator")],
        "feynman": [(64, 2)],
        "sync": [(128, (2, 2)), (32, (2, 2, 2))],
        "internal_time": [(512, 8)],
        "self_test": [0, 1, 2],
        "conundrum": [(24, 2)],
        "spectrum": [(200, 8)],
        "history": [(1000, 8)],
        "unbias": [32],
    },
}

#: Operations that exceed the program's cap on dense entries and exit 2 in
#: every round, as (kind, size).  They count in ``failed`` and are never
#: timed, so each kind's timing always covers the same operations, before
#: and after the cap goes.
CAP_BOUND = {("axioms", 24), ("dynamic", (32, 16, "fixed"))}

#: Tiny sizes of every kind, run untimed before measuring.
WARM_UP = {
    "axioms": [3], "dynamic": [(3, 2, "generator")], "feynman": [(2, 2)],
    "sync": [(3, (1, 2))], "internal_time": [(4, 2)], "self_test": [0],
    "conundrum": [(3, 2)], "spectrum": [(3, 2)], "history": [(3, 2)], "unbias": [3],
}


# ---------------------------------------------------------------- inputs


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unit_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class Drawn:
    """The dynamic U_t = V diag(omega^(k t)) V^dag, omega = exp(2 pi i / N)."""

    N: int
    V: np.ndarray
    k: np.ndarray

    @property
    def dim(self) -> int:
        return self.V.shape[0]

    def phases(self) -> np.ndarray:
        """(N, dim) array of omega^(k t)."""
        return np.exp(2j * np.pi * np.outer(np.arange(self.N), self.k) / self.N)

    def generator(self) -> np.ndarray:
        return (self.V * np.exp(2j * np.pi * self.k / self.N)) @ self.V.conj().T

    def unitaries(self) -> np.ndarray:
        return np.einsum("ij,tj,kj->tik", self.V, self.phases(), self.V.conj())

    def projectors(self) -> np.ndarray:
        out = np.zeros((self.N, self.dim, self.dim), dtype=np.complex128)
        for j, E in enumerate(self.k):
            out[E] += np.outer(self.V[:, j], self.V[:, j].conj())
        return out

    def trajectory(self, psi: np.ndarray) -> np.ndarray:
        """(N, dim) rows U_t psi."""
        return (self.phases() * (self.V.conj().T @ psi)) @ self.V.T

    def components(self, psi: np.ndarray) -> np.ndarray:
        """(N, dim) rows P_E psi."""
        return np.einsum("eij,j->ei", self.projectors(), psi)


def draw(rng: np.random.Generator, N: int, dim: int, distinct: bool = False) -> Drawn:
    k = rng.choice(N, size=dim, replace=False) if distinct else rng.integers(0, N, size=dim)
    return Drawn(N, haar(rng, dim), np.asarray(k, dtype=np.int64))


def cjson(a: np.ndarray) -> list:
    """Complex array as nested lists with [re, im] leaves."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def dynamic_doc(dr: Drawn, form: str) -> dict:
    if form == "unitaries":
        return {"N": dr.N, "dim": dr.dim, "unitaries": cjson(dr.unitaries())}
    return {"N": dr.N, "dim": dr.dim, "generator": cjson(dr.generator())}


def weyl_pair(rng: np.random.Generator, N: int) -> tuple[Drawn, Drawn]:
    """Shift and phase on C^N, both conjugated by one Haar unitary W.

    The shift is (W F) diag(omega^s) (W F)^dag with F the Fourier basis
    f_j[s] = omega^(-j s) / sqrt(N); the phase is W diag(omega^s) W^dag.
    """
    W = haar(rng, N)
    s = np.arange(N)
    F = np.exp(-2j * np.pi * np.outer(s, s) / N) / np.sqrt(N)
    return Drawn(N, W @ F, s), Drawn(N, W, s)


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], tuple[int, str, object]]  # (exit code, message, value)
    check: Callable[[object], list[str]]  # problems with the value
    report: Path | None = None  # canonical report written by a CLI operation
    timed: bool = True  # False for the CAP_BOUND operations


def max_diff(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _cli_runner(argv: list[str]) -> Callable[[], tuple[int, str, object]]:
    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = qclock.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code if isinstance(exc.code, int) else 2
        return code, err.getvalue().strip(), None

    return run


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _doc_basics(doc: dict, command: str) -> list[str]:
    bad = []
    if doc.get("schema_version") != 1 or doc.get("command") != command:
        bad.append(f"header {doc.get('schema_version')!r}/{doc.get('command')!r}")
    if doc.get("pass") is not True:
        bad.append("report does not pass")
    return bad


class Builder:
    """Builds the operations for a table of sizes from a seed, in a work directory."""

    def __init__(self, sizes: dict, seed: int, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(parents=True, exist_ok=True)

    def ops(self) -> list[Op]:
        out = []
        for kind in KINDS:
            make = getattr(self, f"_{kind}")
            for i, size in enumerate(self.sizes[kind]):
                op = make(f"{kind}{i}", size)
                op.label += f" #{i}"
                op.timed = (kind, size) not in CAP_BOUND
                out.append(op)
        return out

    def _write(self, name: str, doc: dict) -> Path:
        path = self.workdir / "in" / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def _cli(self, kind: str, name: str, label: str, args: list[str], check) -> Op:
        report = self.workdir / "out" / f"{name}.json"
        argv = ["--out", str(report), *args]
        return Op(kind, label, _cli_runner(argv), lambda _: check(_load(report)), report)

    # -- CLI commands

    def _axioms(self, name: str, N: int) -> Op:
        def check(doc):
            bad = _doc_basics(doc, "axioms")
            nonzero = [c["name"] for c in doc.get("checks", []) if c["max_error"] != 0.0]
            if nonzero or not doc.get("checks"):
                bad.append(f"structure-law errors not exactly 0: {nonzero}")
            if doc.get("N") != N:
                bad.append("N differs")
            return bad

        return self._cli("axioms", name, f"axioms N={N}", ["axioms", str(N)], check)

    def _dynamic(self, name: str, size) -> Op:
        N, dim, form = size
        rng = np.random.default_rng(FIXED_SEED) if form == "fixed" else self.rng
        dr = draw(rng, N, dim)
        path = self._write(name, dynamic_doc(dr, "unitaries" if form == "unitaries" else "generator"))
        counts = Counter(int(E) for E in dr.k)

        def check(doc):
            bad = _doc_basics(doc, "dynamic")
            if (doc.get("N"), doc.get("dim")) != (N, dim):
                bad.append("N/dim differ")
            if doc.get("support") != sorted(counts):
                bad.append(f"support {doc.get('support')} != drawn {sorted(counts)}")
            if doc.get("ranks") != {str(E): r for E, r in counts.items()}:
                bad.append(f"ranks {doc.get('ranks')} != drawn multiplicities {dict(counts)}")
            return bad

        return self._cli("dynamic", name, f"dynamic N={N} dim={dim} {form}", ["dynamic", str(path)], check)

    def _feynman(self, name: str, size) -> Op:
        stages, dim = size
        half = [draw(self.rng, stages, dim) for _ in range(stages // 2)]
        gates = [dr.generator() for dr in half]
        gates += [g.conj().T for g in reversed(gates)]  # cycle product is I
        path = self._write(name, {"N": stages, "dim": dim, "gates": [cjson(g) for g in gates]})

        def check(doc):
            bad = _doc_basics(doc, "feynman")
            if doc.get("cyclic") is not True:
                bad.append("circuit reported non-cyclic")
            if doc.get("ground_dim") != dim or doc.get("expected_dim") != dim:
                bad.append(f"ground_dim {doc.get('ground_dim')} != dim {dim}")
            return bad

        return self._cli("feynman", name, f"feynman stages={stages} dim={dim}", ["feynman", str(path)], check)

    def _sync(self, name: str, size) -> Op:
        N, dims = size
        M = len(dims)
        # the measured (last) system is non-degenerate so its level is rank 1
        drawn = [draw(self.rng, N, d, distinct=(j == M - 1)) for j, d in enumerate(dims)]
        Eprime = int(drawn[-1].k[0])
        psis = [unit_state(self.rng, d) for d in dims]
        v0 = drawn[-1].V[:, 0]
        while abs(np.vdot(v0, psis[-1])) < 0.1:
            psis[-1] = unit_state(self.rng, dims[-1])
        # chi is reachable, so neither the family nor the remainder vanishes
        chi = (Eprime + sum(int(self.rng.choice(dr.k)) for dr in drawn[:-1])) % N
        doc = {
            "N": N,
            "chi": chi,
            "systems": [
                {"generator": cjson(dr.generator()), "psi": cjson(p)}
                for dr, p in zip(drawn, psis)
            ],
            "measure": [{"system": M - 1, "energy": Eprime}],
        }
        path = self._write(name, doc)

        # Sigma_t chi_{-chi}(t) (x)_j U_t psi_j, built on the V side; it is N
        # times the family of total energy chi.
        acc = np.ones((N, 1), dtype=np.complex128)
        for dr, p in zip(drawn, psis):
            traj = dr.trajectory(p)
            acc = np.einsum("ta,tb->tab", acc, traj).reshape(N, -1)
        family = np.exp(-2j * np.pi * chi * np.arange(N) / N) @ acc / N

        def check(doc_out):
            bad = _doc_basics(doc_out, "sync")
            if (doc_out.get("M"), doc_out.get("chi")) != (M, chi):
                bad.append("M/chi differ")
            ds = [dynamics.dynamic_from_generator(dr.generator(), N) for dr in drawn]
            amps = sync.synchronized_family(ds, psis, chi).amplitudes
            err = max_diff(amps, family)
            if not err <= MATCH:
                bad.append(f"family amplitudes off the V-side collapse by {err:.3e}")
            return bad

        return self._cli("sync", name, f"sync M={M} N={N}", ["sync", str(path)], self._once(check))

    def _internal_time(self, name: str, size) -> Op:
        N, m = size
        g = N // m
        V = haar(self.rng, m)
        k = self.rng.permutation(np.arange(m) * g)
        path = self._write(name, dynamic_doc(Drawn(N, V, k), "generator"))

        def check(doc):
            bad = []
            if doc.get("command") != "internal-time":
                bad.append("wrong command")
            if doc.get("nondegenerate") is not True or doc.get("subgroup") is not True:
                bad.append("not reported as a non-degenerate subgroup dynamic")
            if doc.get("energies") != sorted(int(E) for E in k):
                bad.append(f"energies {doc.get('energies')} != drawn subgroup")
            if (doc.get("m"), doc.get("g"), doc.get("N")) != (m, g, N):
                bad.append(f"m/g/N {doc.get('m')}/{doc.get('g')}/{doc.get('N')} != {m}/{g}/{N}")
            if not doc.get("permutation_error", 1.0) <= TOL:
                bad.append(f"permutation error {doc.get('permutation_error')}")
            return bad

        return self._cli("internal_time", name, f"internal-time N={N} m={m}",
                         ["internal-time", str(path)], check)

    def _self_test(self, name: str, seed: int) -> Op:
        def check(doc):
            bad = _doc_basics(doc, "self-test")
            if doc.get("seed") != seed:
                bad.append("seed differs")
            return bad

        return self._cli("self_test", name, f"self-test seed={seed}",
                         ["--seed", str(seed), "--self-test"], check)

    # -- library calls

    def _conundrum(self, name: str, size) -> Op:
        N, dim = size
        d = self._dynamic_object(draw(self.rng, N, dim))

        def run():
            return 0, "", sync.conundrum_check(d, clock.make_clock(N), TOL)

        def check(rep):
            bad = [] if rep.passed else ["report does not pass"]
            if rep.check("commutators").max_error != 0.0:
                bad.append(f"commutators {rep.check('commutators').max_error:.3e}, not 0")
            return bad

        return Op("conundrum", f"conundrum N={N} dim={dim}", run, check)

    def _spectrum(self, name: str, size) -> Op:
        N, dim = size
        dr = draw(self.rng, N, dim)
        d = self._dynamic_object(dr)

        def run():
            spec = dynamics.hamiltonian(d)
            rep = dynamics.spectrum_checks(spec, TOL)
            rebuilt = dynamics.stone_reconstruct(spec, TOL)
            avg = dynamics.time_average(d)
            ergodic = linalg.max_abs_diff(avg, dynamics.spectral_projector(d, 0))
            return 0, "", (spec, rep, rebuilt, avg, ergodic)

        def check(value):
            spec, rep, rebuilt, avg, ergodic = value
            bad = [] if rep.passed else ["spectrum checks do not pass"]
            if not ergodic <= TOL:
                bad.append(f"time average off P_0 by {ergodic:.3e}")
            if list(spec.support) != sorted(set(int(E) for E in dr.k)):
                bad.append(f"support {spec.support} != drawn {sorted(set(dr.k))}")
            proj = dr.projectors()
            for what, got, want in (
                ("projectors", spec.projectors, proj),
                ("Stone reconstruction", rebuilt.unitaries, dr.unitaries()),
                ("time average", avg, proj[0]),
            ):
                err = max_diff(got, want)
                if not err <= MATCH:
                    bad.append(f"{what} off the V-side construction by {err:.3e}")
            return bad

        return Op("spectrum", f"spectrum N={N} dim={dim}", run, check)

    def _history(self, name: str, size) -> Op:
        N, dim = size
        dr = draw(self.rng, N, dim)
        psi = unit_state(self.rng, dim)
        d = self._dynamic_object(dr)

        def run():
            h = histories.history_from_state(d, psi)
            ok, err = histories.is_em_morphism(h, d, TOL)
            sol = histories.schrodinger_solve(d, psi)
            back = histories.reconstruct_history(sol)
            return 0, "", (h, ok, err, sol, back)

        def check(value):
            h, ok, err, sol, back = value
            bad = [] if ok else [f"translation equation misses by {err:.3e}"]
            traj = dr.trajectory(psi)
            for what, got, want in (
                ("trajectory", h.states, traj),
                ("spectral components", sol.components, dr.components(psi)),
                ("resummed history", back.states, traj),
            ):
                e = max_diff(got, want)
                if not e <= MATCH:
                    bad.append(f"{what} off the V-side construction by {e:.3e}")
            return bad

        return Op("history", f"history N={N} dim={dim}", run, check)

    def _unbias(self, name: str, N: int) -> Op:
        shift, phase = weyl_pair(self.rng, N)
        dU, dV = self._dynamic_object(shift), self._dynamic_object(phase)

        def run():
            return 0, "", observables.uncertainty_check(dU, dV, TOL)

        def check(rep):
            bad = [] if rep.passed else ["unbiasedness report does not pass"]
            uniform = [c for c in rep.checks if c.name.startswith("uniformity_label_")]
            if len(uniform) != N:
                bad.append(f"{len(uniform)} eigenstates measured, expected {N}")
            worst = max((c.max_error for c in uniform), default=float("inf"))
            if not worst <= TOL:
                bad.append(f"distribution off 1/N by {worst:.3e}")
            return bad

        return Op("unbias", f"unbias N={N}", run, check)

    # -- helpers

    @staticmethod
    def _dynamic_object(dr: Drawn):
        return dynamics.dynamic_from_generator(dr.generator(), dr.N, TOL)

    @staticmethod
    def _once(check):
        """Run an expensive check on the first execution only; the report of
        every later execution is compared byte for byte with the first."""
        done = []

        def wrapped(doc):
            if done:
                return []
            done.append(True)
            return check(doc)

        return wrapped
