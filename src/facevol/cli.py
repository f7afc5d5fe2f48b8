"""Command-line front end: every verification and construction as a command.

Exit codes: 0 success, 1 verification failure, 2 usage error.  argparse
checks every flag; commands return bare reports, and `main` alone adds
schema_version "1", renders JSON or CSV with fixed headers and writes the
text once the computation has finished, so failures never leave partial
files.  Rendering and writing share the usage-error path: a numpy
floating-point fault, a NaN or infinity in a report and an unwritable
--output each exit 2 with one stderr line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from math import inf, sqrt

import numpy as np

from . import family, inverse, jacobian, kneser, simplex

SCHEMA_VERSION = "1"


def _parse_face(text: str, n: int) -> tuple[int, ...]:
    try:
        face = tuple(sorted(int(part) for part in text.split(",")))
    except ValueError:
        raise ValueError(f"bad face {text!r}; expected comma-separated vertex labels") from None
    if face[0] < 1 or face[-1] > n + 1:
        raise ValueError(f"face {text!r} has a vertex label outside 1..{n + 1}")
    return face


def tolerance(text: str) -> float:
    """argparse type of --tol: a positive finite float."""
    value = float(text)  # argparse reports a ValueError as "invalid tolerance value"
    if not 0 < value < inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    value = int(text)  # argparse reports a ValueError as "invalid seed value"
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def count(text: str) -> int:
    """argparse type of --starts and --count: a positive integer."""
    value = int(text)  # argparse reports a ValueError as "invalid count value"
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _report_json(report: dict) -> str:
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:  # allow_nan=False: strict JSON has no NaN or Infinity
        raise ArithmeticError("report holds a non-finite float (NaN or infinity)") from None


def _rows_csv(rows: list[dict], columns: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[col] for col in columns])
    return buffer.getvalue()


def _report_csv(report: dict) -> str:
    columns = list(report)
    flat = {
        key: json.dumps(value) if isinstance(value, (list, dict)) else value
        for key, value in report.items()
    }
    return _rows_csv([flat], columns)


def _emit(text: str, output_path) -> None:
    if output_path is None:
        sys.stdout.write(text)
        return
    with open(output_path, "w") as fh:
        fh.write(text)


def _cmd_volume(args) -> tuple[int, dict]:
    spec = simplex.load_spec(args.input)
    face = _parse_face(args.face, spec.n) if args.face is not None else tuple(range(1, spec.n + 2))
    sq = float(simplex.squared_volume(spec, face))
    report = {
        "n": spec.n,
        "face": list(face),
        "squared_volume": sq,
        "volume": sqrt(sq) if sq >= 0 else None,
    }
    return 0, report


def _cmd_faces(args) -> tuple[int, dict]:
    spec = simplex.load_spec(args.input)
    fvv = simplex.all_face_volumes(spec, args.face_dim)
    report = {
        "n": spec.n,
        "face_dim": fvv.face_dim,
        "keys": [list(k) for k in fvv.keys()],
        "values": [fvv.values[k] for k in fvv.keys()],
    }
    return 0, report


def _cmd_realizable(args) -> tuple[int, dict]:
    spec = simplex.load_spec(args.input)
    cert = simplex.is_realizable(spec)
    report = {
        "n": spec.n,
        "realizable": cert.realizable,
        "min_eigenvalue": cert.min_eigenvalue,
        "tolerance": cert.tolerance,
    }
    return (0 if cert.realizable else 1), report


def _cmd_jacobian(args) -> tuple[int, dict]:
    if args.input is not None:
        if args.tol is not None:  # the rank mode has no tolerance to set
            raise ValueError("argument --tol: not allowed with argument --input")
        spec = simplex.load_spec(args.input)
        rank, ratio = jacobian.jacobian_rank(spec)
        full = len(spec.squared_lengths)
        report = {
            "n": spec.n,
            "max_abs_deviation": None,
            "rank": rank,
            "sv_ratio": ratio,
            "full_rank": bool(rank == full),
        }
        return (0 if rank == full else 1), report
    tol = jacobian.REGULAR_POINT_TOL if args.tol is None else args.tol
    report = jacobian.verify_regular_point(args.n, tol)
    return (0 if report["passed"] else 1), report


def _cmd_spectrum(args) -> tuple[int, dict]:
    return 0, kneser.spectrum_report(args.n, args.k)  # a failed certificate raises


def _cmd_counterexample(args) -> tuple[int, dict]:
    if args.t is not None:
        if args.tol is not None:  # one instance has no tolerance to set
            raise ValueError("argument --tol: not allowed with argument --t")
        instance = family.build_instance(args.n, args.t)
        regular, special = family.two_value_check(instance)
        report = {
            "n": args.n,
            "t": args.t,
            "value_regular": regular,
            "value_special": special,
            "realizable": bool(simplex.is_realizable(instance.spec)),
        }
        return 0, report
    tol = family.PAIR_TOL if args.tol is None else args.tol
    report = family.build_pair(args.n, args.x, tol).report
    return (0 if report["passed"] else 1), report


def _cmd_invert(args) -> tuple[int, dict]:
    spec = simplex.load_spec(args.input)
    if spec.n < 3:  # at n=2 the target is the vertex volumes, 1 for every start
        raise ValueError(f"dimension must be >= 3 to invert, got n={spec.n}")
    jacobian.check_jacobian_dimension(spec.n)  # before any face; basin_probe checks after
    target = simplex.all_face_volumes(spec, spec.n - 2)
    clusters = inverse.basin_probe(target, num_starts=args.starts, seed=args.seed, tol=args.tol)
    report = {
        "n": spec.n,
        "starts": args.starts,
        "seed": args.seed,
        "clusters": [inverse.result_to_json(result) for result in clusters],
    }
    return (0 if clusters else 1), report


def _cmd_sweep(args) -> tuple[int, dict]:
    return 0, {"rows": family.sweep_rows(args.n, count=args.count, tol=args.tol)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facevol",
        description="Simplex face volumes, exact Kneser spectra, Jacobian "
        "certificates, mirror pairs, and face-volume inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="output file (default stdout)")
        return p

    p = add("volume", "volume of a simplex (or one face) from a spec file")
    p.add_argument("--input", required=True)
    p.add_argument("--face", default=None, help="comma-separated vertex labels")

    p = add("faces", "all face volumes of one dimension")
    p.add_argument("--input", required=True)
    p.add_argument("--face-dim", type=int, required=True)

    p = add("realizable", "Euclidean realizability certificate")
    p.add_argument("--input", required=True)

    p = add("jacobian", "regular-point identity check or rank certificate")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", type=int, help="regular point of dimension N")
    mode.add_argument("--input", help="spec file for a rank certificate")
    p.add_argument(
        "--tol", type=tolerance, help=f"--n mode only (default {jacobian.REGULAR_POINT_TOL})"
    )

    p = add("spectrum", "exact Kneser spectrum certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("counterexample", "build and verify a mirror pair (or one instance)")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--x", type=float, help="mirror offset of a pair")
    mode.add_argument("--t", type=float, help="parameter of a single instance")
    p.add_argument("--tol", type=tolerance, help=f"--x mode only (default {family.PAIR_TOL})")

    p = add("invert", "multi-start inversion of the face-volume map")
    p.add_argument("--input", required=True)
    p.add_argument("--starts", type=count, default=20)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--tol", type=tolerance, default=inverse.SOLVE_TOL)

    p = add("sweep", "mirror-pair reports on a grid of offsets")
    p.set_defaults(format="csv")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=count, default=9)
    p.add_argument("--tol", type=tolerance, default=family.PAIR_TOL)

    return parser


_parser = cache(build_parser)  # built by the first main call of a process, then reused

_COMMANDS = {
    "volume": _cmd_volume,
    "faces": _cmd_faces,
    "realizable": _cmd_realizable,
    "jacobian": _cmd_jacobian,
    "spectrum": _cmd_spectrum,
    "counterexample": _cmd_counterexample,
    "invert": _cmd_invert,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        with np.errstate(all="raise", under="ignore"):
            code, report = _COMMANDS[args.command](args)
        report = {"schema_version": SCHEMA_VERSION, **report}
        text = _report_json(report)  # also the finiteness check of a CSV report
        if args.format == "csv":
            if args.command == "sweep":
                text = _rows_csv(report["rows"], family.SWEEP_COLUMNS)
            else:
                text = _report_csv(report)
        _emit(text, args.output)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"facevol {args.command}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
