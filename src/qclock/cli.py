"""Command-line front end: verify structures, dynamics, circuits and families.

Exit status: 0 when every check passes, 1 when a verification fails, 2 on
malformed input or bad arguments.  Reports are canonical JSON (sorted keys,
shortest round-trip floats) and are byte-identical across repeated runs
with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import linalg, serialize
from .clock import make_clock, verify_strong_complementarity
from .dynamics import spectrum_checks, validate_dynamic
from .errors import DegenerateError, InputFormatError, OrthogonalEigenstateError, QClockError
from .feynman import feynman_check
from .linalg import DEFAULT_TOL, ZERO_NORM, Tolerance
from .reports import Check, Report
from .selftest import run_self_test
from .sync import EnergyFamily, internal_time_check

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputFormatError(path, f"invalid JSON ({exc.msg} at line {exc.lineno})")
    except OSError as exc:
        raise InputFormatError(path, f"cannot read the file ({exc.strerror})")
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, or too many digits
        raise InputFormatError(path, f"unreadable JSON ({exc})")


def _emit(doc: dict, out: str | None) -> None:
    text = serialize.canonical_dumps(doc)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise InputFormatError("--out", f"cannot write {out} ({exc.strerror})")
    else:
        sys.stdout.write(text)


def _report_doc(command: str, report: Report) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, **report.as_dict()}


def _cmd_axioms(args, tol: Tolerance) -> Report:
    if args.N < 1:
        raise InputFormatError("N", f"expected a positive integer, got {args.N}")
    report = verify_strong_complementarity(make_clock(args.N), tol)
    return replace(report, facts={"N": args.N})


def _cmd_dynamic(args, tol: Tolerance) -> Report:
    d = serialize.dynamic_from_json(_load_json(args.file), tol)
    spec = d.spectrum
    checks = validate_dynamic(d, tol).checks + spectrum_checks(spec, tol).checks
    ranks = {str(E): r for E, r in spec.ranks.items()}
    return Report(
        title=f"dynamic verification (N={d.N}, dim={d.dim})",
        checks=checks,
        facts={"N": d.N, "dim": d.dim, "support": list(spec.support), "ranks": ranks},
    )


def _cmd_feynman(args, tol: Tolerance) -> Report:
    c = serialize.circuit_from_json(_load_json(args.file), tol)
    return feynman_check(c, tol)


def _cmd_sync(args, tol: Tolerance) -> Report:
    ds, psis, chi, measures = serialize.sync_from_json(_load_json(args.file), tol)
    family = EnergyFamily(ds, psis, chi)
    if np.linalg.norm(family.amplitudes) <= ZERO_NORM:
        raise InputFormatError("chi", f"the family at total energy {chi} is zero")
    # a complete family of orthogonal projectors resums to a unitary Z/N
    # representation, so each system's spectrum checks stand for its dynamic laws
    checks = [
        Check(f"system_{i}_spectrum", spectrum_checks(d.spectrum, tol).max_error, tol.eps)
        for i, d in enumerate(ds)
    ]
    for i, mdoc in enumerate(measures):
        try:
            res = family.measure(mdoc["system"], mdoc["energy"])
        except (DegenerateError, OrthogonalEigenstateError) as exc:
            raise InputFormatError(f"measure[{i}]", str(exc))
        name = f"energy_conservation_measure_{mdoc['system']}_at_{mdoc['energy']}"
        checks.append(Check(name, res.residual, tol.eps))
    return Report(
        title=f"synchronised family (M={len(ds)}, N={ds[0].N}, chi={chi})",
        checks=tuple(checks),
        facts={"chi": chi, "M": len(ds)},
    )


def _cmd_internal_time(args, tol: Tolerance) -> Report:
    d = serialize.dynamic_from_json(_load_json(args.file), tol)
    return internal_time_check(d, tol)


def _cmd_self_test(args, tol: Tolerance) -> Report:
    report = run_self_test(seed=args.seed, tol=tol)
    return replace(report, facts={"seed": args.seed})


#: each command's help text, its one argument and that argument's type, and its handler
COMMANDS = {
    "axioms": ("verify the structure laws on C^N", "N", int, _cmd_axioms),
    "dynamic": ("validate a dynamic file and its spectrum", "file", str, _cmd_dynamic),
    "feynman": (
        "check history states against the composite ground space", "file", str, _cmd_feynman
    ),
    "sync": ("check energy conservation for a synchronised family", "file", str, _cmd_sync),
    "internal-time": (
        "derive the internal clock of a dynamic file", "file", str, _cmd_internal_time
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclock",
        description="Verify finite clock structures, dynamics, circuits and families.",
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL.eps, help="absolute tolerance")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomised suites")
    parser.add_argument("--out", type=str, default=None, help="write the report here")
    parser.add_argument(
        "--max-dim",
        type=int,
        default=linalg.DEFAULT_MAX_ENTRIES,
        help="cap on total entries of any tensor",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the seeded randomised property suites",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (helptext, arg, kind, _) in COMMANDS.items():
        sub.add_parser(name, help=helptext).add_argument(arg, type=kind)
    return parser


_PARSER = build_parser()  # built once per process; parse_args keeps no state between calls


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if not args.self_test and args.command is None:
        _PARSER.print_usage(sys.stderr)
        return EXIT_INPUT_ERROR
    command = "self-test" if args.self_test else args.command
    run = _cmd_self_test if args.self_test else COMMANDS[command][-1]

    previous_cap = linalg.max_entries()
    try:
        try:
            tol = Tolerance(args.tol)
        except ValueError:
            raise InputFormatError("--tol", "must lie in (0, 1)")
        if args.max_dim < 1:
            raise InputFormatError("--max-dim", "must be a positive integer")
        if args.seed < 0:
            raise InputFormatError("--seed", "must be a non-negative integer")
        linalg.set_max_entries(args.max_dim)  # for this invocation only
        # an overflow would put inf or nan into a report, which JSON cannot hold
        with np.errstate(over="raise", invalid="raise"):
            report = run(args, tol)
            if not np.isfinite([c.max_error for c in report.checks]).all():
                # a matrix product overflows inside BLAS without raising
                raise FloatingPointError("a residual is not finite")
        _emit(_report_doc(command, report), args.out)
        return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE
    except QClockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FloatingPointError as exc:
        print(f"error: input values leave the double range ({exc})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        linalg.set_max_entries(previous_cap)


if __name__ == "__main__":
    sys.exit(main())
