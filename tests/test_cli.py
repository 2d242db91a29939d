import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import X, count_spectra, phase_matrix, shift_matrix
from qclock import cli, linalg
from qclock.clock import make_clock
from qclock.linalg import SELF_TEST_FLOOR
from qclock.selftest import run_self_test
from qclock.serialize import array_to_json

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
    path.write_text(json.dumps({"N": 2, "dim": 2, "gates": [array_to_json(X)] * 2}))
    return path


@pytest.fixture()
def dyn_z6(tmp_path: Path) -> Path:
    path = tmp_path / "dyn_z6.json"
    gen = np.diag([1, W6**2, W6**4])
    path.write_text(json.dumps({"N": 6, "dim": 3, "generator": array_to_json(gen)}))
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
        json.dumps({"N": 4, "dim": 2, "generator": array_to_json(np.diag([1, 1j]))})
    )
    proc = run_cli("internal-time", str(path))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["subgroup"] is False
    assert doc["energies"] == [0, 1]


def test_dynamic_verification(tmp_path):
    path = tmp_path / "dyn.json"
    path.write_text(json.dumps({"N": 2, "dim": 2, "generator": array_to_json(X)}))
    proc = run_cli("dynamic", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["support"] == [0, 1]


def test_sync_conservation(tmp_path):
    path = tmp_path / "sync.json"
    system = {"generator": array_to_json(X), "psi": array_to_json(np.array([1, 0]))}
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
            {"N": 2, "dim": 2, "gates": [array_to_json(X), array_to_json(np.eye(2))]}
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
    path.write_text(json.dumps({"N": 3, "dim": 2, "generator": array_to_json(np.eye(2))}))
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


def test_overflowing_product_is_input_error(tmp_path):
    # finite entries whose matrix products overflow: the action law and idempotence read inf
    doc = {"N": 1, "unitaries": [[[[0.0, 1.0], [0.0, 1.2711610061536462e308]], [[0, 0], [0, 0]]]]}
    code, out, err = run_main("dynamic", _doc_file(tmp_path, doc))
    assert (code, out) == (2, "") and "double range" in err, err


@pytest.mark.parametrize("N", ["0", "-3"])
def test_axioms_nonpositive_size_is_input_error(N):
    _assert_input_error(run_cli("axioms", N), "'N'")


def test_max_dim_zero_is_input_error():
    _assert_input_error(run_cli("--max-dim", "0", "axioms", "2"), "--max-dim")


def test_nan_tol_rejected():
    _assert_input_error(run_cli("--tol", "nan", "axioms", "2"), "--tol")


def _sync_file(tmp_path: Path, psis, measure=(), chi: int = 0) -> Path:
    systems = [{"generator": array_to_json(X), "psi": array_to_json(p)} for p in psis]
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


@pytest.mark.parametrize(
    "change, field",
    [
        ({"N": True}, "'N'"),
        ({"N": 0}, "'N'"),
        ({"chi": True}, "'chi'"),
        ({"measure": [{"system": True, "energy": 1}]}, "'measure[0].system'"),
        ({"measure": [{"system": 1, "energy": True}]}, "'measure[0].energy'"),
    ],
)
def test_sync_bad_integer_field_is_input_error(tmp_path, change, field):
    # JSON true is not the integer 1, though Python reads it as one; N = 0 names N, not chi
    _assert_input_error(run_cli("sync", _doc_file(tmp_path, {**SYNC_DOC, **change})), field)


def test_sync_system_that_is_not_a_dynamic_fails(tmp_path):
    # U_0 = X, U_1 = I: the resummed P_E are not projectors and sum to X, not I
    stack = {"unitaries": [array_to_json(X), array_to_json(np.eye(2))]}
    systems = [{**stack, "psi": array_to_json(np.array([1, 0]))}] * 2
    code, out, err = run_main("sync", _doc_file(tmp_path, {"N": 2, "systems": systems}))
    assert code == 1, err
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["system_0_spectrum", "system_1_spectrum"]


def test_axioms_past_the_kronecker_cap():
    proc = run_cli("axioms", "24")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["checks"]) == 17
    assert {c["max_error"] for c in doc["checks"]} == {0.0}


def test_axioms_past_the_dense_clock_cap():
    # a dense clock would need 102^2 x 102 entries, past the default cap
    proc = run_cli("axioms", "102")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["checks"]) == 17
    assert {c["max_error"] for c in doc["checks"]} == {0.0}


def _periodic_generator_file(tmp_path: Path, N: int, dim: int) -> Path:
    """A generator V diag(omega^k) V^dag with U^N = I, for a random unitary V."""
    rng = np.random.default_rng(5)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v, _ = np.linalg.qr(z)
    gen = (v * np.exp(2j * np.pi * rng.integers(0, N, size=dim) / N)) @ v.conj().T
    path = tmp_path / "dyn.json"
    path.write_text(json.dumps({"N": N, "dim": dim, "generator": array_to_json(gen)}))
    return path


def test_dynamic_past_the_kronecker_cap(tmp_path):
    proc = run_cli("dynamic", str(_periodic_generator_file(tmp_path, 32, 16)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("N, dim", [(128, 16), (1025, 2), (65536, 2)])
def test_dynamic_past_the_dense_clock_cap(tmp_path, N, dim):
    # the laws read the stack alone: no N x N addition table, which past
    # N = 1024 exceeds the default cap, and at N = 65536 the O(N^2 dim^3)
    # action sweep would not finish here, so the certified bound decides
    proc = run_cli("dynamic", str(_periodic_generator_file(tmp_path, N, dim)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_huge_generator_power_count_is_input_error(tmp_path):
    # N * dim * dim = 1e13 entries: refused before any power is computed
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"N": 10**13, "generator": [[[1, 0]]]}))
    _assert_input_error(run_cli("dynamic", str(path)), "'N'")
    sync_doc = {"N": 10**13, "systems": [{"generator": [[[1, 0]]], "psi": [[1, 0]]}]}
    path.write_text(json.dumps(sync_doc))
    _assert_input_error(run_cli("sync", str(path)), "'N'")


def test_negative_seed_is_input_error():
    _assert_input_error(run_cli("--seed", "-1", "--self-test"), "--seed")


def run_main(*args: str) -> tuple[int, str, str]:
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [["axioms", "3"], ["axioms", "11"], ["--tol", "2", "axioms", "3"]])
def test_max_dim_holds_for_one_invocation(argv):
    # passing, refused by the cap (exit 2) and bad tol: no run leaves its cap behind
    before = linalg.max_entries()
    run_main("--max-dim", "10", *argv)
    assert linalg.max_entries() == before
    assert make_clock(11).N == 11


def _doc_file(directory: Path, doc) -> str:
    path = directory / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


Z6_DOC = {"N": 6, "dim": 3, "generator": array_to_json(np.diag([1, W6**2, W6**4]))}
SYNC_DOC = {
    "N": 2,
    "chi": 1,
    "systems": [{"generator": array_to_json(X), "psi": array_to_json(np.array([1, 0]))}] * 2,
    "measure": [{"system": 1, "energy": 1}],
}
NOT_A_DYNAMIC = {"N": 2, "unitaries": [array_to_json(np.eye(2)), array_to_json(np.diag([1, 1j]))]}
OPEN_CIRCUIT = {"N": 2, "gates": [array_to_json(X), array_to_json(np.eye(2))]}
NON_SUBGROUP = {"N": 4, "generator": array_to_json(np.diag([1, 1j]))}

# The structure laws and the self-test suites hold exactly on valid input, so
# the failing runs of axioms and --self-test are bad input (exit 2, no report).
REPORT_CASES = [
    ("axioms", ["axioms", "4"], None, 0),
    ("axioms", ["axioms", "0"], None, 2),
    ("dynamic", ["dynamic"], {"N": 2, "generator": array_to_json(X)}, 0),
    ("dynamic", ["dynamic"], NOT_A_DYNAMIC, 1),
    ("feynman", ["feynman"], {"N": 2, "gates": [array_to_json(X)] * 2}, 0),
    ("feynman", ["feynman"], OPEN_CIRCUIT, 1),
    ("sync", ["sync"], SYNC_DOC, 0),
    ("sync", ["--tol", "1e-18", "sync"], SYNC_DOC, 1),
    ("internal-time", ["internal-time"], Z6_DOC, 0),
    ("internal-time", ["internal-time"], NON_SUBGROUP, 1),
    ("self-test", ["--self-test"], None, 0),
    ("self-test", ["--seed", "-1", "--self-test"], None, 2),
]


@pytest.mark.parametrize("command, args, doc, code", REPORT_CASES)
def test_every_report_has_the_common_layout(tmp_path, command, args, doc, code):
    argv = args + ([_doc_file(tmp_path, doc)] if doc is not None else [])
    got, out, err = run_main(*argv)
    assert got == code, err
    if code == 2:
        assert out == "" and err.startswith("error:")
        return
    report = json.loads(out)
    assert report["schema_version"] == 1 and report["command"] == command
    assert isinstance(report["title"], str) and isinstance(report["notes"], list)
    assert report["pass"] is (code == 0)
    assert report["pass"] is all(c["pass"] for c in report["checks"])
    assert report["max_error"] == max(c["max_error"] for c in report["checks"])


def test_dynamic_failing_the_laws_is_a_failed_check(tmp_path):
    # U_0 = X is not the identity and sum_E P_E = U_0 is not either: a verdict, not bad input
    doc = {"N": 2, "unitaries": [array_to_json(X), array_to_json(np.eye(2))]}
    code, out, err = run_main("dynamic", _doc_file(tmp_path, doc))
    assert code == 1, err
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert {"unit_law", "completeness"} <= failed
    assert all(rank >= 0 for rank in report["ranks"].values())  # P_1 = (X - I)/2 has trace -1


def test_dynamic_of_zero_matrices_above_the_sweep_size_fails_its_unit_law(tmp_path):
    # N dim = 80 > SWEEP_MAX_SIZE, so the action law reads the certificate off an empty support
    doc = {"N": 40, "unitaries": [array_to_json(np.zeros((2, 2)))] * 40}
    code, out, err = run_main("dynamic", _doc_file(tmp_path, doc))
    assert code == 1, err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["unit_law"]["pass"] and checks["action_law"]["pass"]


@pytest.mark.parametrize("tol", ["1e-9", "0.5"])
def test_sync_measure_overlap_is_not_judged_at_tol(tmp_path, tol):
    # <-|psi> = sin(a) = 0.4 is a nonzero overlap at any --tol
    a = np.arcsin(0.4)
    plus, minus = np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)
    psi = np.cos(a) * plus + np.sin(a) * minus
    path = _sync_file(tmp_path, [psi, psi], [{"system": 1, "energy": 1}], chi=1)
    code, _, err = run_main("--tol", tol, "sync", str(path))
    assert code == 0, err


def test_sync_computes_each_spectrum_once(tmp_path, monkeypatch):
    # the family, the spectrum checks and the measure share each system's spectrum
    calls = count_spectra(monkeypatch)
    path = _sync_file(tmp_path, [np.array([1, 0])] * 3, [{"system": 2, "energy": 1}], chi=1)
    code, _, err = run_main("sync", str(path))
    assert code == 0, err
    assert sorted(calls.values()) == [1, 1, 1]

    calls.clear()
    path.write_text(json.dumps({"N": 2, "generator": array_to_json(X)}))
    code, _, err = run_main("dynamic", str(path))
    assert code == 0, err
    assert list(calls.values()) == [1]


def test_sync_at_ten_systems(tmp_path):
    # 8^10 energy labels; the convolution over energy builds nothing beyond N x 2^10
    N, M = 8, 10
    rng = np.random.default_rng(11)
    systems, chi = [], 0
    for _ in range(M):
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        k = rng.choice(N, size=2, replace=False)  # the measured level has rank 1
        gen = (v * np.exp(2j * np.pi * k / N)) @ v.conj().T
        psi = v[:, 0] + v[:, 1]
        systems.append({"generator": array_to_json(gen), "psi": array_to_json(psi)})
        chi = (chi + int(k[0])) % N
    measure = [{"system": M - 1, "energy": int(k[0])}]
    doc = {"N": N, "chi": chi, "systems": systems, "measure": measure}
    code, out, err = run_main("sync", _doc_file(tmp_path, doc))
    assert code == 0, err
    assert json.loads(out)["M"] == M


def test_feynman_at_512_stages(tmp_path):
    # N dim = 2048: the composite would hold 2048^2 entries, past the default
    # cap, while the check reads only the 4 x 4 cycle product
    rng = np.random.default_rng(13)
    half = [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            for _ in range(256)]
    gates = half + [g.conj().T for g in reversed(half)]
    doc = {"N": 512, "gates": [array_to_json(g) for g in gates]}
    code, out, err = run_main("feynman", _doc_file(tmp_path, doc))
    assert code == 0, err
    assert json.loads(out)["ground_dim"] == 4


def test_library_self_test_matches_the_cli_self_test():
    code, out, _ = run_main("--tol", "1e-12", "--seed", "3", "--self-test")
    assert code == 0
    report = run_self_test(3, 1e-12)
    assert json.loads(out)["checks"] == [c.as_dict() for c in report.checks]
    assert {c.tol for c in report.checks} == {SELF_TEST_FLOOR}


def test_internal_time_permutation_residual_is_judged_at_tol(tmp_path):
    path = _doc_file(tmp_path, {"N": 3, "generator": array_to_json(shift_matrix(3))})
    code, out, _ = run_main("--tol", "1e-18", "internal-time", path)
    assert code == 1
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["one_step_advances_internal_time"]
    assert 0 < report["permutation_error"] < 1e-12
    assert report["subgroup"] is True and report["m"] == 3


# -- fuzz: any JSON document gives exit 0, 1 or 2 and never raises

# (generator, a state of its dimension); every generator has a finite period
SYSTEMS = [
    (np.eye(1), [1]),
    (np.eye(2), [1, 0]),
    (X, [1, 0]),
    (X, [1, 1]),
    (np.diag([1, 1j]), [0.6, 0.8j]),
    (shift_matrix(3), [1, 0, 0]),
    (phase_matrix(3), [1, 1, 1]),
]
DIM2 = [np.eye(2), X, np.diag([1, 1j]), np.diag([1, -1])]


def _json_system(pair) -> dict:
    gen, psi = pair
    return {"generator": array_to_json(gen), "psi": array_to_json(np.array(psi))}


generator = st.sampled_from([g for g, _ in SYSTEMS]).map(array_to_json)
small_n = st.integers(1, 6)
finite = st.floats(allow_nan=False, allow_infinity=False)
free_vector = st.lists(st.tuples(finite, finite).map(list), min_size=2, max_size=2)
free_matrix = st.lists(free_vector, min_size=2, max_size=2)


def _stack(N: int):
    """N matrices of shape 2x2: unitaries, or any finite entries up to 1e308."""
    matrix = st.sampled_from(DIM2).map(array_to_json) | free_matrix
    return st.lists(matrix, min_size=N, max_size=N)


def _plausible_sync(N: int):
    return st.fixed_dictionaries(
        {
            "N": st.just(N),
            "chi": st.integers(0, N - 1) | st.booleans(),
            "systems": st.lists(
                st.sampled_from(SYSTEMS).map(_json_system)
                | st.fixed_dictionaries({"unitaries": _stack(N), "psi": free_vector}),
                min_size=1,
                max_size=3,
            ),
        },
        optional={
            "measure": st.lists(
                st.fixed_dictionaries(
                    {
                        "system": st.integers(0, 2) | st.booleans(),
                        "energy": st.integers(0, N - 1) | st.booleans(),
                    }
                ),
                max_size=2,
            )
        },
    )


# Well-formed documents whose contents may still fail a check or be refused
plausible = st.one_of(
    st.tuples(
        st.sampled_from(["dynamic", "internal-time"]),
        st.fixed_dictionaries({"N": small_n, "generator": generator}, optional={"dim": small_n})
        | small_n.flatmap(
            lambda N: st.fixed_dictionaries({"N": st.just(N), "unitaries": _stack(N)})
        ),
    ),
    st.tuples(
        st.just("feynman"),
        small_n.flatmap(lambda N: st.fixed_dictionaries({"N": st.just(N), "gates": _stack(N)})),
    ),
    st.tuples(st.just("sync"), small_n.flatmap(_plausible_sync)),
)

# Anything JSON, with the expected keys present often enough to reach the parsers
json_leaf = st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=3)
json_any = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
entry = st.tuples(json_leaf, json_leaf).map(list) | json_any
matrix = generator | st.lists(st.lists(entry, min_size=1, max_size=3), max_size=3) | json_any
field = small_n | st.booleans() | json_any
wild_fields = {
    "N": field,
    "dim": field,
    "chi": field,
    "generator": matrix,
    "unitaries": st.lists(matrix, max_size=4) | json_any,
    "gates": st.lists(matrix, max_size=4) | json_any,
    "systems": st.lists(
        st.fixed_dictionaries(
            {}, optional={"generator": matrix, "psi": st.lists(entry, max_size=3) | json_any}
        )
        | json_any,
        max_size=3,
    ),
    "measure": st.lists(
        st.fixed_dictionaries({}, optional={"system": field, "energy": field}), max_size=2
    ),
}
wild = st.tuples(
    st.sampled_from(["dynamic", "internal-time", "feynman", "sync"]),
    st.fixed_dictionaries({}, optional=wild_fields) | json_any,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=plausible | wild)
def test_fuzzed_input_files_never_raise(tmp_path_factory, case):
    command, doc = case
    path = _doc_file(tmp_path_factory.mktemp("fuzz"), doc)
    code, out, err = run_main("--max-dim", "4096", command, path)
    assert code in (0, 1, 2)
    assert (out != "") is (code != 2), err


# -- fuzz the sync measure path: documents that reach it, with broken measure fields

MISSING = object()


def _measure_field(valid: int, size: int):
    """The valid index, or a boolean, negative, out-of-range, float or missing value."""
    broken = [True, False, -1, -size, size, size + 1, float(valid), valid + 0.5, MISSING]
    return st.just(valid) | st.sampled_from(broken)


@st.composite
def measured_sync(draw):
    """Two two-level systems diag(w^a, w^b), a != b, with states on both levels, a chi
    both reach and measure entries on a level of one system, before mutation rank 1
    and not orthogonal to its state: every such document reaches ``EnergyFamily.measure``."""
    N = draw(st.integers(2, 6))
    amplitude = st.sampled_from([1, -1, 0.6, 0.8j, 1 + 1j])
    levels, systems = [], []
    for _ in range(2):
        a, b = draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=2, unique=True))
        levels.append((a, b))
        psi = np.array([draw(amplitude), draw(amplitude)])
        gen = np.diag(np.exp(2j * np.pi * np.array([a, b]) / N))
        systems.append({"generator": array_to_json(gen), "psi": array_to_json(psi)})
    chi = (draw(st.sampled_from(levels[0])) + draw(st.sampled_from(levels[1]))) % N
    measure = []
    for _ in range(draw(st.integers(1, 2))):
        j = draw(st.integers(0, 1))
        energy = draw(st.sampled_from(levels[j]))
        entry = {"system": draw(_measure_field(j, 2)), "energy": draw(_measure_field(energy, N))}
        measure.append({k: v for k, v in entry.items() if v is not MISSING})
    return {"N": N, "chi": chi, "systems": systems, "measure": measure}


def _is_index(value, size: int) -> bool:
    return type(value) is int and 0 <= value < size


@settings(max_examples=200, deadline=None)
@given(doc=measured_sync())
def test_fuzzed_sync_measure_fields_never_raise(tmp_path_factory, doc):
    path = _doc_file(tmp_path_factory.mktemp("measure"), doc)
    code, out, err = run_main("sync", path)
    assert code in (0, 1, 2)
    assert (out != "") is (code != 2), err
    if all(
        _is_index(m.get("system"), 2) and _is_index(m.get("energy"), doc["N"])
        for m in doc["measure"]
    ):  # intact fields: the measure path runs and the family conserves energy
        assert code == 0, err
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert sum(name.startswith("energy_conservation_measure_") for name in names) == len(
            doc["measure"]
        )


# -- the I/O layer and the shared parser

# (an --out path under the test directory, or the bytes of a dynamic file)
IO_CASES = {
    "out-missing-directory": ("no/r.json", None),
    "out-is-a-directory": (".", None),
    "not-utf8": (None, b"\xff\xfe"),
    "nested-array": (None, b"[" * 100000 + b"]" * 100000),
    "nested-unitaries": (None, b'{"N": 2, "unitaries": %s}' % (b"[" * 5000 + b"]" * 5000)),
    "digit-limit": (None, b'{"N": %s, "dim": 1}' % (b"1" * 5000)),
}


@pytest.mark.parametrize("case", IO_CASES)
def test_io_failure_is_input_error(tmp_path, case):
    out, data = IO_CASES[case]
    if out is not None:
        argv, field = ["--out", str(tmp_path / out), "axioms", "3"], "--out"
    else:
        field = str(tmp_path / "input.json")
        Path(field).write_bytes(data)
        argv = ["dynamic", field]
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error:") and field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_shared_parser_reports_match_fresh_interpreters(tmp_path):
    dynamic = _doc_file(tmp_path, Z6_DOC)
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"N": 2, "dim": 2, "gates": [array_to_json(X)] * 2}))
    sequence = [
        ["--tol", "1e-3", "axioms", "3"],
        ["axioms", "3"],
        ["--seed", "2", "--self-test"],
        ["--self-test"],
        ["--max-dim", "10", "axioms", "11"],
        ["dynamic", dynamic],
        ["--out", "REPORT", "feynman", str(circuit)],
    ]
    cap = linalg.max_entries()
    for argv in sequence:
        here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
        code, out, err = run_main(*[str(here) if a == "REPORT" else a for a in argv])
        assert linalg.max_entries() == cap, argv
        proc = run_cli(*[str(fresh) if a == "REPORT" else a for a in argv])
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        if "REPORT" in argv:
            assert here.read_bytes() == fresh.read_bytes()


def test_main_does_not_build_a_parser(monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, _ = run_main("axioms", "2")
    assert code == 0 and json.loads(out)["N"] == 2


def test_help_names_exactly_the_command_table():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main(["--help"])
    listed = re.search(r"\{([^}]*)\}", out.getvalue()).group(1).split(",")
    assert listed == list(cli.COMMANDS)
