"""qclock benchmark: time to a verdict per command, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run measures set-up time (fresh interpreters up to
the end of ``import qclock.cli``), builds the workload's inputs from the
seed, warms up untimed, then runs whole rounds of the workload's operations,
one at a time, until S seconds have passed.  Every output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; a timing is the median execution of each operation
in the run, averaged over the operations of one kind.  With ``--trace 1``
the rounds alternate untraced and traced, and the JSON object holds the
per-module metrics; the canonical reports of traced and untraced rounds
must be byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the box has two CPUs and single-threaded kernels give the
# steadier figures.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import qclock from this checkout's src/, and nowhere else."""
    if not (SRC / "qclock" / "__init__.py").is_file():
        fail(f"no qclock package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qclock.cli

    if Path(qclock.__file__).resolve().parent != SRC / "qclock":
        fail(f"qclock imported from {qclock.__file__}, not from {SRC}")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import qclock.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-c", "import qclock.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:  # the first one may compile bytecode
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def warm_up(workdir: Path) -> None:
    """Untimed passes over every kind at tiny sizes: the first BLAS call,
    argparse and the report path cost far more the first time."""
    from workloads import WARM_UP, Builder

    for _ in range(2):
        for op in Builder(WARM_UP, 0, workdir / "warm-up").ops():
            op.run()


class Runner:
    """Runs whole rounds of a workload's operations and keeps the results."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.rounds = 0
        self.times: dict[tuple[str, bool], list[float]] = {}  # (op label, traced) -> passed runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs
        self.failures: dict[str, str] = {}  # op label -> error message
        self.reports: dict[str, bytes] = {}  # op label -> first canonical report
        self.compared = 0

    def round(self, traced: bool) -> None:
        self.rounds += 1
        for op in self.ops:
            self.attempted += 1
            if traced:
                self.tracer.begin_op()
                self.tracer.active = True
            start = time.perf_counter()
            try:
                code, message, value = op.run()
            except Exception as exc:  # a traceback is a failed operation
                code, message, value = -1, f"{type(exc).__name__}: {exc}", None
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.active = False
            if code != 0:
                self.failed += 1
                self.failures[op.label] = f"exit {code}: {message}"
                if code == 1:
                    self.problems.append(f"{op.label}: verdict 'failed' on a valid input")
                elif op.timed:
                    self.problems.append(f"{op.label}: exit {code} on an operation that must pass")
                continue
            bad = op.check(value)
            if op.report is not None:
                text = op.report.read_bytes()
                first = self.reports.setdefault(op.label, text)
                if text is not first:
                    self.compared += 1
                    if text != first:
                        bad.append("canonical report differs from the first execution's")
            if bad:
                self.failed += 1
                self.problems += [f"{op.label}: {b}" for b in bad]
                self.failures[op.label] = "; ".join(bad)
                continue
            self.times.setdefault((op.label, traced), []).append(elapsed)

    def medians(self, traced: bool, kind: str | None = None) -> list[float] | None:
        """Median execution of each timed operation (of one kind), or None
        if one of them never passed."""
        ops = [op for op in self.ops if op.timed and kind in (None, op.kind)]
        if not all((op.label, traced) in self.times for op in ops):
            return None
        return [statistics.median(self.times[op.label, traced]) for op in ops]


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """Timings: per operation the median of its executions in the run,
    averaged over the workload's timed operations of that kind.  A kind
    with an operation that never passed has no metric; that run is not
    correct, so no metric is ever averaged over fewer operations."""
    from workloads import KINDS

    metrics = {"setup_s": (setup_s, "s")}
    for kind in KINDS:
        med = runner.medians(False, kind)
        if med:
            metrics[f"{kind}_s"] = (statistics.mean(med), "s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics


def per_layer(runner: Runner, traced_rounds: list) -> dict:
    """Per traced round: calls and self time of each reported function
    (median over traced rounds), and the derived counts."""
    from spans import REPORTED

    def med(f):
        return statistics.median(f(r) for r in traced_rounds)

    metrics = {}
    for fn in REPORTED:
        metrics[f"{fn}.calls"] = (med(lambda r: r[0].get(fn, (0, 0.0))[0]), "count")
        metrics[f"{fn}.self_s"] = (med(lambda r: r[0].get(fn, (0, 0.0))[1]), "s")
    metrics["linalg.tensor.entries"] = (med(lambda r: r[1]), "count")
    metrics["dynamics.hamiltonian.calls_per_dynamic"] = (
        med(lambda r: r[2] / r[3] if r[3] else 0.0), "ratio")
    traced, untraced = runner.medians(True), runner.medians(False)
    if traced and untraced:
        metrics["trace.overhead_s"] = (sum(traced) - sum(untraced), "s")
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    import_program()
    sys.path.insert(0, str(HERE))
    from spans import Tracer, self_times
    from workloads import SIZES, Builder

    if args.workload not in SIZES:
        fail(f"unknown workload {args.workload!r}; known: {sorted(SIZES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_s = measure_setup()
        ops = Builder(SIZES[args.workload], args.seed, workdir).ops()
        warm_up(workdir)

        tracer = Tracer() if args.trace else None
        runner = Runner(ops, tracer)
        traced_rounds = []  # (self times, tensor entries, hamiltonian calls, distinct dynamics)
        deadline = time.perf_counter() + args.seconds
        while True:
            runner.round(traced=False)
            if args.trace:
                tracer.spans = []
                tracer.take_counts()
                with tracer.installed():
                    runner.round(traced=True)
                traced_rounds.append((self_times(tracer.spans), *tracer.take_counts()))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = per_layer(runner, traced_rounds)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(runner, setup_s)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if missing and not runner.problems:
        fail(f"metrics named in BENCHMARK.json but not emitted: {missing}")
    if missing:
        print(f"  not emitted, since an operation never passed: {missing}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.rounds} rounds of {len(ops)} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}; "
          f"{runner.compared} canonical reports byte-identical to their first execution"
          if not runner.problems else f"  attempted {runner.attempted}, failed {runner.failed}")
    for label, msg in sorted(runner.failures.items()):
        print(f"  failed: {label}: {msg}")
    for msg in runner.problems[:20]:
        print(f"  WRONG: {msg}", file=sys.stderr)

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
