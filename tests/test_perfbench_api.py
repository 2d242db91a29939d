"""The benchmark's operations run against this checkout's program.

``perfbench/`` calls the program through its public modules (CLI entry,
``sync.synchronized_family(...).amplitudes``, ``sync.conundrum_check``,
``dynamics.spectral_projector`` and others).  Its warm-up sizes run every
kind of operation once in a fraction of a second, so a change to that API
fails here, plainly and traced, rather than only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _problems(ops) -> list[str]:
    bad = []
    for op in ops:
        code, message, value = op.run()
        if code != 0:
            bad.append(f"{op.label}: exit {code}: {message}")
        else:
            bad += [f"{op.label}: {p}" for p in op.check(value)]
    return bad


@pytest.mark.parametrize("traced", [False, True])
def test_warm_up_operations_pass(traced, tmp_path):
    ops = workloads.Builder(workloads.WARM_UP, 0, tmp_path).ops()
    assert {op.kind for op in ops} == set(workloads.KINDS)
    if not traced:
        assert _problems(ops) == []
        return
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.active = True
        assert _problems(ops) == []
    assert tracer.spans  # the wrappers saw the program's calls
