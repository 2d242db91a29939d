import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import X
from qclock.serialize import matrix_to_json, vector_to_json

W6 = np.exp(2j * np.pi / 6)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qclock.cli", *args],
        text=True,
        capture_output=True,
        check=False,
    )


@pytest.fixture()
def circuit_xx(tmp_path: Path) -> Path:
    path = tmp_path / "circuit_xx.json"
    path.write_text(json.dumps({"N": 2, "dim": 2, "gates": [matrix_to_json(X)] * 2}))
    return path


@pytest.fixture()
def dyn_z6(tmp_path: Path) -> Path:
    path = tmp_path / "dyn_z6.json"
    gen = np.diag([1, W6**2, W6**4])
    path.write_text(json.dumps({"N": 6, "dim": 3, "generator": matrix_to_json(gen)}))
    return path


def test_axioms_pass(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("--out", str(out), "axioms", "4")
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["schema_version"] == 1
    assert doc["max_error"] == 0.0


def test_feynman_golden_circuit(circuit_xx):
    proc = run_cli("feynman", str(circuit_xx))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["ground_dim"] == 2


def test_internal_time_golden(dyn_z6):
    proc = run_cli("internal-time", str(dyn_z6))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["subgroup"] is True
    assert doc["m"] == 3 and doc["g"] == 2


def test_internal_time_negative_case(tmp_path):
    path = tmp_path / "dyn.json"
    path.write_text(
        json.dumps({"N": 4, "dim": 2, "generator": matrix_to_json(np.diag([1, 1j]))})
    )
    proc = run_cli("internal-time", str(path))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["subgroup"] is False
    assert doc["energies"] == [0, 1]


def test_dynamic_verification(tmp_path):
    path = tmp_path / "dyn.json"
    path.write_text(json.dumps({"N": 2, "dim": 2, "generator": matrix_to_json(X)}))
    proc = run_cli("dynamic", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["support"] == [0, 1]


def test_sync_conservation(tmp_path):
    path = tmp_path / "sync.json"
    system = {"generator": matrix_to_json(X), "psi": vector_to_json(np.array([1, 0]))}
    path.write_text(
        json.dumps(
            {
                "N": 2,
                "chi": 1,
                "systems": [system, system],
                "measure": [{"system": 1, "energy": 1}],
            }
        )
    )
    proc = run_cli("sync", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_exit_code_check_failure(tmp_path):
    path = tmp_path / "open.json"
    path.write_text(
        json.dumps(
            {"N": 2, "dim": 2, "gates": [matrix_to_json(X), matrix_to_json(np.eye(2))]}
        )
    )
    proc = run_cli("feynman", str(path))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["cyclic"] is False


def test_exit_code_malformed_input(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"N": 2, "gates": [[[')
    proc = run_cli("feynman", str(path))
    assert proc.returncode == 2
    assert "invalid JSON" in proc.stderr


def test_exit_code_field_error(tmp_path):
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps({"dim": 2, "gates": []}))
    proc = run_cli("feynman", str(path))
    assert proc.returncode == 2
    assert "N" in proc.stderr


def test_missing_file_is_input_error():
    proc = run_cli("dynamic", "/nonexistent/dyn.json")
    assert proc.returncode == 2


def test_reports_are_byte_identical(dyn_z6, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("--out", str(a), "internal-time", str(dyn_z6)).returncode == 0
    assert run_cli("--out", str(b), "internal-time", str(dyn_z6)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_self_test_deterministic_per_seed():
    one = run_cli("--self-test", "--seed", "7")
    two = run_cli("--self-test", "--seed", "7")
    assert one.returncode == 0
    assert one.stdout == two.stdout
    other = run_cli("--self-test", "--seed", "8")
    assert other.returncode == 0
    assert other.stdout != one.stdout


def test_max_dim_cap_respected(tmp_path):
    path = tmp_path / "dyn.json"
    path.write_text(json.dumps({"N": 3, "dim": 2, "generator": matrix_to_json(np.eye(2))}))
    proc = run_cli("--max-dim", "4", "dynamic", str(path))
    assert proc.returncode == 2


def test_no_command_is_usage_error():
    assert run_cli().returncode == 2


def test_bad_tol_rejected():
    assert run_cli("--tol", "2.0", "axioms", "2").returncode == 2


def _assert_input_error(proc: subprocess.CompletedProcess, field: str) -> None:
    assert proc.returncode == 2
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


X_JSON = "[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]"
HUGE = "1" + "0" * 400  # an integer beyond the double range


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("dynamic", '{"N": 2, "generator": [[[NaN, 0], [1, 0]], [[1, 0], [0, 0]]]}', "generator[0][0]"),
        ("dynamic", '{"N": 1, "unitaries": [[[[Infinity, 0]]]]}', "unitaries[0][0][0]"),
        ("feynman", '{"N": 1, "gates": [[[[1, -Infinity]]]]}', "gates[0][0][0]"),
        ("feynman", '{"N": 1, "gates": [[[[%s, 0]]]]}' % HUGE, "gates[0][0][0]"),
        (
            "sync",
            '{"N": 2, "systems": [{"generator": %s, "psi": [[1, 0], [0, NaN]]}]}' % X_JSON,
            "systems[0].psi[1]",
        ),
    ],
)
def test_non_finite_entry_is_input_error(tmp_path, command, text, field):
    path = tmp_path / "nonfinite.json"
    path.write_text(text)  # Python's json reads NaN, Infinity and -Infinity
    _assert_input_error(run_cli(command, str(path)), field)


@pytest.mark.parametrize("N", ["0", "-3"])
def test_axioms_nonpositive_size_is_input_error(N):
    _assert_input_error(run_cli("axioms", N), "'N'")


def test_max_dim_zero_is_input_error():
    _assert_input_error(run_cli("--max-dim", "0", "axioms", "2"), "--max-dim")


def test_nan_tol_rejected():
    _assert_input_error(run_cli("--tol", "nan", "axioms", "2"), "--tol")


def _sync_file(tmp_path: Path, psis, measure=(), chi: int = 0) -> Path:
    systems = [{"generator": matrix_to_json(X), "psi": vector_to_json(p)} for p in psis]
    doc = {"N": 2, "chi": chi, "systems": systems, "measure": list(measure)}
    path = tmp_path / "sync.json"
    path.write_text(json.dumps(doc))
    return path


def test_sync_zero_state_is_input_error(tmp_path):
    path = _sync_file(tmp_path, [np.array([1, 0]), np.zeros(2)])
    _assert_input_error(run_cli("sync", str(path)), "systems[1].psi")


def test_sync_measure_needs_two_systems(tmp_path):
    path = _sync_file(tmp_path, [np.array([1, 0])], [{"system": 0, "energy": 0}])
    _assert_input_error(run_cli("sync", str(path)), "measure[0]")


def test_sync_vanishing_family_is_input_error(tmp_path):
    # |+> has energy 0 under X, so no two labels sum to chi = 1: the family is zero
    plus = np.array([1, 1]) / np.sqrt(2)
    path = _sync_file(tmp_path, [plus, plus], chi=1)
    _assert_input_error(run_cli("sync", str(path)), "chi")


def test_axioms_past_the_kronecker_cap():
    proc = run_cli("axioms", "24")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["checks"]) == 17
    assert {c["max_error"] for c in doc["checks"]} == {0.0}


def test_dynamic_past_the_kronecker_cap(tmp_path):
    N, dim = 32, 16
    rng = np.random.default_rng(5)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v, _ = np.linalg.qr(z)
    gen = (v * np.exp(2j * np.pi * rng.integers(0, N, size=dim) / N)) @ v.conj().T
    path = tmp_path / "dyn.json"
    path.write_text(json.dumps({"N": N, "dim": dim, "generator": matrix_to_json(gen)}))
    proc = run_cli("dynamic", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True
