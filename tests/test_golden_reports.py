"""Golden reports: exit code and SHA-256 of the canonical report of fixed invocations.

Each case runs ``cli.main`` in process on a document drawn from a fixed seed
with plain numpy, and compares the exit code and the SHA-256 of stdout (the
canonical report; empty for exit 2) with ``golden_reports.json``.  The table
holds this platform's numpy/BLAS output.  A change that alters a report on
purpose regenerates only the rows it names:

    PYTHONPATH=src python tests/test_golden_reports.py CASE_ID [CASE_ID ...]

and with no CASE_ID writes every row.  It prints each row's old and new exit
code, and if any exit code would change it exits 1 and writes nothing: such a
row is changed by hand.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qclock import cli
from qclock.linalg import DEFAULT_TOL
from qclock.serialize import array_to_json

TABLE = Path(__file__).with_name("golden_reports.json")

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
Z = np.diag([1, -1]).astype(complex)


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _generator(N: int, levels, rng: np.random.Generator) -> np.ndarray:
    """V diag(omega^k) V^dag for a Haar-random V: U^N = I up to roundoff."""
    v = _haar(len(levels), rng)
    return (v * np.exp(2j * np.pi * np.asarray(levels) / N)) @ v.conj().T


def _state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _powers(gen: np.ndarray, N: int) -> list:
    stack = [np.eye(gen.shape[0], dtype=complex)]
    for _ in range(N - 1):
        stack.append(gen @ stack[-1])
    return [array_to_json(u) for u in stack]


def _dynamic_cases() -> list:
    rng = np.random.default_rng(101)
    cases = []
    for N, dim in [(2, 1), (3, 2), (5, 3), (8, 4), (12, 5), (16, 3)]:
        gen = _generator(N, rng.integers(0, N, size=dim), rng)
        doc = {"N": N, "dim": dim, "generator": array_to_json(gen)}
        cases.append((f"dynamic-gen-{N}x{dim}", [], doc))
    for N, dim in [(4, 2), (6, 3)]:
        gen = _generator(N, rng.integers(0, N, size=dim), rng)
        cases.append((f"dynamic-stack-{N}x{dim}", [], {"N": N, "unitaries": _powers(gen, N)}))
    gen = _generator(6, [0, 1, 3], rng)
    cases += [
        ("dynamic-tight-tol", ["--tol", "1e-18"], {"N": 6, "unitaries": _powers(gen, 6)}),
        (
            "dynamic-tight-tol-generator",
            ["--tol", "1e-18"],
            {"N": 6, "generator": array_to_json(gen)},
        ),
        ("dynamic-x-i-stack", [], {"N": 2, "unitaries": [array_to_json(X), array_to_json(I2)]}),
        (
            "dynamic-not-a-dynamic",
            [],
            {"N": 2, "unitaries": [array_to_json(I2), array_to_json(np.diag([1, 1j]))]},
        ),
        ("dynamic-not-unitary", [], {"N": 2, "generator": array_to_json([[1, 1], [0, 1]])}),
        ("dynamic-not-periodic", [], {"N": 3, "generator": array_to_json(X)}),
        ("dynamic-not-square", [], {"N": 2, "generator": array_to_json([[1, 0]])}),
        (
            "dynamic-ragged-stack",
            [],
            {"N": 2, "unitaries": [array_to_json(I2), array_to_json(np.eye(3))]},
        ),
        ("dynamic-dim-mismatch", [], {"N": 2, "dim": 3, "generator": array_to_json(X)}),
    ]
    # N dim above dynamics.SWEEP_MAX_SIZE: the action law reads the certificate
    gen = _generator(32, rng.integers(0, 32, size=4), rng)
    cases.append(("dynamic-gen-32x4", [], {"N": 32, "dim": 4, "generator": array_to_json(gen)}))
    v, levels = _haar(8, rng), np.exp(2j * np.pi * rng.integers(0, 16, size=8) / 16)
    phases = [array_to_json((v * levels**t) @ v.conj().T) for t in range(16)]  # each on its own
    cases.append(("dynamic-phases-16x8", [], {"N": 16, "unitaries": phases}))
    return cases


def _feynman_cases() -> list:
    rng = np.random.default_rng(202)
    cases = []
    for n, dim in [(1, 1), (1, 2), (2, 2), (3, 3), (4, 2)]:
        gates = [_haar(dim, rng) for _ in range(n)]
        gates += [g.conj().T for g in reversed(gates)]
        doc = {"N": 2 * n, "gates": [array_to_json(g) for g in gates]}
        cases.append((f"feynman-cyclified-{n}x{dim}", [], doc))
    cases += [
        ("feynman-xx", [], {"N": 2, "dim": 2, "gates": [array_to_json(X)] * 2}),
        ("feynman-open", [], {"N": 2, "gates": [array_to_json(X), array_to_json(I2)]}),
        ("feynman-not-unitary", [], {"N": 1, "gates": [array_to_json([[1, 1], [0, 1]])]}),
        ("feynman-shapes", [], {"N": 2, "gates": [array_to_json(X), array_to_json(np.eye(3))]}),
        ("feynman-gate-count", [], {"N": 3, "gates": [array_to_json(X)] * 2}),
        (
            # the cycle misses I by 1e-5, within --tol, but ker(C - I) has dim 1
            "feynman-loose-tol",
            ["--tol", "1e-4"],
            {"N": 2, "gates": [array_to_json(np.diag([1, np.exp(1e-5j)])), array_to_json(I2)]},
        ),
    ]
    return cases


def _internal_time_cases() -> list:
    rng = np.random.default_rng(303)
    w6 = np.exp(2j * np.pi / 6)

    def doc(N, gen):
        return {"N": N, "generator": array_to_json(gen)}

    def one_tick_off(N):
        # a dynamic with levels {0, N/2} whose U_1 is off by 5e-6: each projector
        # moves by only 1/N of that, so the spectrum keeps its levels, but U_1
        # misses the internal clock by about 4e-6, past --tol 1e-6
        v, levels = _haar(2, rng), np.exp(2j * np.pi * np.array([0, N // 2]) / N)
        stack = [(v * levels**t) @ v.conj().T for t in range(N)]
        stack[1] = stack[1] + 5e-6 * _haar(2, rng)
        return {"N": N, "unitaries": [array_to_json(u) for u in stack]}

    return [
        ("internal-time-z6", [], {**doc(6, np.diag([1, w6**2, w6**4])), "dim": 3}),
        ("internal-time-subgroup-12", [], doc(12, _generator(12, [0, 3, 6, 9], rng))),
        ("internal-time-subgroup-8", [], doc(8, _generator(8, [4, 0], rng))),
        ("internal-time-degenerate", [], doc(4, _generator(4, [1, 1, 3], rng))),
        ("internal-time-not-subgroup", [], doc(4, np.diag([1, 1j]))),
        ("internal-time-tight-tol", ["--tol", "1e-18"], doc(3, np.roll(np.eye(3), 1, axis=0))),
        ("internal-time-one-tick-off", ["--tol", "1e-6"], one_tick_off(64)),
    ]


def _sync_doc(N: int, M: int, rng: np.random.Generator, dim: int = 2) -> dict:
    """M systems with distinct levels (rank 1 each), a chi they reach and one measure per system."""
    systems, chi, picked = [], 0, []
    for _ in range(M):
        levels = rng.choice(N, size=dim, replace=False)
        gen = _generator(N, levels, rng)
        systems.append({"generator": array_to_json(gen), "psi": array_to_json(_state(dim, rng))})
        picked.append(int(levels[0]))
        chi = (chi + int(levels[0])) % N
    measure = [{"system": j, "energy": E} for j, E in enumerate(picked)]
    return {"N": N, "chi": chi, "systems": systems, "measure": measure}


def _sync_cases() -> list:
    rng = np.random.default_rng(404)
    cases = [
        (f"sync-{N}x{M}", [], _sync_doc(N, M, rng))
        for N, M in [(2, 2), (4, 2), (4, 3), (6, 3), (5, 2)]
    ]
    x_plus = {"generator": array_to_json(X), "psi": array_to_json(np.array([1, 0]))}
    simple = {"N": 2, "chi": 1, "systems": [x_plus] * 2, "measure": [{"system": 1, "energy": 1}]}
    stack = {**x_plus, "unitaries": [array_to_json(X), array_to_json(I2)]}
    del stack["generator"]
    plus = {"generator": array_to_json(X), "psi": array_to_json(np.array([1, 1]) / np.sqrt(2))}
    zero = {"generator": array_to_json(X), "psi": array_to_json(np.zeros(2))}
    # [Z, X] is not a dynamic: its P_0 and P_1 are not orthogonal, so measuring misses
    z_x = {"unitaries": [array_to_json(Z), array_to_json(X)], "psi": array_to_json([0.6, 0.8j])}
    cases += [
        ("sync-simple", [], simple),
        ("sync-tight-tol", ["--tol", "1e-18"], simple),
        ("sync-x-i-stack", [], {"N": 2, "systems": [stack, stack]}),
        (
            "sync-z-x-stack",
            [],
            {"N": 2, "chi": 1, "systems": [z_x, z_x], "measure": [{"system": 1, "energy": 1}]},
        ),
        ("sync-zero-state", [], {"N": 2, "systems": [x_plus, zero]}),
        ("sync-vanishing-family", [], {"N": 2, "chi": 1, "systems": [plus, plus]}),
        (
            "sync-measure-one-system",
            [],
            {"N": 2, "systems": [x_plus], "measure": [{"system": 0, "energy": 0}]},
        ),
        ("sync-psi-dim", [], {"N": 2, "systems": [{**x_plus, "psi": array_to_json(np.ones(3))}]}),
    ]
    return cases


CASES = (
    [(f"axioms-{N}", ["axioms", str(N)], None) for N in range(1, 17)]
    + [(cid, [*opts, "dynamic"], doc) for cid, opts, doc in _dynamic_cases()]
    + [(cid, [*opts, "feynman"], doc) for cid, opts, doc in _feynman_cases()]
    + [(cid, [*opts, "internal-time"], doc) for cid, opts, doc in _internal_time_cases()]
    + [(cid, [*opts, "sync"], doc) for cid, opts, doc in _sync_cases()]
    + [(f"self-test-{seed}", ["--seed", str(seed), "--self-test"], None) for seed in (0, 1, 2)]
)


def run_report(argv: list, doc, directory: Path) -> tuple[int, str]:
    """(exit code, stdout) of ``cli.main`` on argv and, if given, a file holding doc."""
    if doc is not None:
        path = directory / "input.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_case(argv: list, doc, directory: Path) -> tuple[int, str]:
    """(exit code, SHA-256 of stdout) of ``run_report``."""
    code, text = run_report(argv, doc, directory)
    return code, hashlib.sha256(text.encode()).hexdigest()


def test_case_ids_are_unique():
    ids = [cid for cid, _, _ in CASES]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("cid, argv, doc", CASES, ids=[c[0] for c in CASES])
def test_golden_report(tmp_path, cid, argv, doc):
    code, digest = run_case(argv, doc, tmp_path)
    assert {"exit": code, "sha256": digest} == json.loads(TABLE.read_text())[cid]


def _tol(argv: list) -> float:
    return float(argv[argv.index("--tol") + 1]) if "--tol" in argv else DEFAULT_TOL.eps


def test_every_dynamic_check_fails_on_some_fixture(tmp_path):
    # a check of the dynamic, feynman, sync and internal-time reports earns its
    # place only if some bad input fails it at the default tol or a looser one;
    # a tightened --tol fails any residual and earns nothing.  Indices in a
    # check's name (system_1_spectrum) are read as one check.
    for command in ("dynamic", "feynman", "sync", "internal-time"):
        failed, names = set(), set()
        for _, argv, doc in CASES:
            if argv[-1] != command or _tol(argv) < DEFAULT_TOL.eps:
                continue
            code, text = run_report(argv, doc, tmp_path)
            if code == 2:
                continue
            for check in json.loads(text)["checks"]:
                name = re.sub(r"\d+", "#", check["name"])
                names.add(name)
                if not check["pass"]:
                    failed.add(name)
        assert names and names <= failed, (command, sorted(names - failed))


def regenerate(names: set) -> int:
    """Rewrite the named rows (every row when none is named) and print each row's old and
    new exit code; when an exit code would change, write nothing and return 1."""
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    unknown = names - {cid for cid, _, _ in CASES}
    if unknown:
        print(f"unknown case ids: {sorted(unknown)}", file=sys.stderr)
        return 1
    flipped = []
    with tempfile.TemporaryDirectory() as tmp:
        for cid, argv, doc in CASES:
            if names and cid not in names:
                continue
            code, digest = run_case(argv, doc, Path(tmp))
            old = table.get(cid, {"exit": None, "sha256": None})
            same = "unchanged" if old["sha256"] == digest else "changed"
            print(f"{cid}: exit {old['exit']} -> {code}, report {same}")
            if old["exit"] not in (None, code):
                flipped.append(cid)
            table[cid] = {"exit": code, "sha256": digest}
    if flipped:
        print(f"exit codes would change for {flipped}: nothing written", file=sys.stderr)
        return 1
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def test_regeneration_refuses_a_changed_exit_code(tmp_path, monkeypatch, capsys):
    table = json.loads(TABLE.read_text())
    monkeypatch.setattr(sys.modules[__name__], "TABLE", tmp_path / "golden.json")
    stale = {**table, "axioms-2": {"exit": 1, "sha256": "0"}}
    (tmp_path / "golden.json").write_text(json.dumps(stale))
    assert regenerate({"axioms-2"}) == 1
    assert json.loads((tmp_path / "golden.json").read_text()) == stale
    assert "axioms-2: exit 1 -> 0, report changed" in capsys.readouterr().out
    stale["axioms-2"] = {"exit": 0, "sha256": "0"}
    (tmp_path / "golden.json").write_text(json.dumps(stale))
    assert regenerate({"axioms-2"}) == 0
    assert json.loads((tmp_path / "golden.json").read_text()) == table


if __name__ == "__main__":
    sys.exit(regenerate(set(sys.argv[1:])))
