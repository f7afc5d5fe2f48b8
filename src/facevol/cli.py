"""Command-line front end: every verification and construction as a command.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Reports are
JSON (schema_version "1") or CSV with fixed headers; output is written
only after the computation finishes, so failures never leave partial
files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from math import inf, sqrt

from . import family, inverse, jacobian, kneser, simplex

SCHEMA_VERSION = "1"
OUTPUT_DIR_ENV = "FACEVOL_OUTPUT_DIR"
SWEEP_COLUMNS = [
    "n",
    "x",
    "t_minus",
    "t_plus",
    "max_facevol_reldiff",
    "vol_minus",
    "vol_plus",
    "vol_reldiff",
]


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


def _report_json(report) -> str:
    return json.dumps(report, indent=2) + "\n"


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
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(output_path):
        output_path = os.path.join(base, output_path)
    with open(output_path, "w") as fh:
        fh.write(text)


def _cmd_volume(args) -> tuple[int, dict]:
    spec = simplex.load_spec(args.input)
    face = _parse_face(args.face, spec.n) if args.face else tuple(range(1, spec.n + 2))
    sq = float(simplex.squared_volume(spec, face))
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": spec.n,
        "face": list(face),
        "squared_volume": sq,
        "volume": sqrt(sq) if sq >= 0 else None,
    }
    return 0, report


def _cmd_faces(args) -> tuple[int, dict]:
    spec = simplex.load_spec(args.input)
    if args.face_dim is None:
        raise ValueError("faces requires --face-dim")
    fvv = simplex.all_face_volumes(spec, args.face_dim)
    report = {
        "schema_version": SCHEMA_VERSION,
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
        "schema_version": SCHEMA_VERSION,
        "n": spec.n,
        "realizable": cert.realizable,
        "min_eigenvalue": cert.min_eigenvalue,
        "tolerance": cert.tolerance,
    }
    return (0 if cert.realizable else 1), report


def _cmd_jacobian(args) -> tuple[int, dict]:
    if args.input is None and args.n is None:
        raise ValueError("jacobian requires --n (regular point) or --input (spec file)")
    if args.input is not None:
        spec = simplex.load_spec(args.input)
        rank, ratio = jacobian.jacobian_rank(spec)
        full = len(spec.squared_lengths)
        report = {
            "schema_version": SCHEMA_VERSION,
            "n": spec.n,
            "max_abs_deviation": None,
            "rank": rank,
            "sv_ratio": ratio,
            "full_rank": bool(rank == full),
        }
        return (0 if rank == full else 1), report
    tol = args.tol if args.tol is not None else 1e-9
    result = jacobian.verify_regular_point(args.n, tol)
    report = {"schema_version": SCHEMA_VERSION, **result}
    return (0 if result["passed"] else 1), report


def _cmd_spectrum(args) -> tuple[int, dict]:
    if args.n is None or args.k is None:
        raise ValueError("spectrum requires --n and --k")
    result = kneser.spectrum_report(args.n, args.k)
    report = {"schema_version": SCHEMA_VERSION, **result}
    return (0 if result["annihilation"] else 1), report


def _cmd_counterexample(args) -> tuple[int, dict]:
    if args.n is None:
        raise ValueError("counterexample requires --n")
    tol = args.tol if args.tol is not None else 1e-10
    if args.t is not None:
        instance = family.build_instance(args.n, args.t)
        regular, special = family.two_value_check(instance)
        report = {
            "schema_version": SCHEMA_VERSION,
            "n": args.n,
            "t": args.t,
            "value_regular": regular,
            "value_special": special,
            "realizable": bool(simplex.is_realizable(instance.spec)),
        }
        return 0, report
    if args.x is None:
        raise ValueError("counterexample requires --x (or --t for a single instance)")
    pair = family.build_pair(args.n, args.x, tol)
    report = {"schema_version": SCHEMA_VERSION, **pair.report}
    return (0 if pair.report["passed"] else 1), report


def _cmd_invert(args) -> tuple[int, dict]:
    spec = simplex.load_spec(args.input)
    if spec.n < 3:  # at n=2 the target is the vertex volumes, 1 for every start
        raise ValueError(f"dimension must be >= 3 to invert, got n={spec.n}")
    target = simplex.all_face_volumes(spec, spec.n - 2)
    tol = args.tol if args.tol is not None else 1e-10
    clusters = inverse.basin_probe(
        spec.n, target, num_starts=args.starts, seed=args.seed, tol=tol
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": spec.n,
        "starts": args.starts,
        "seed": args.seed,
        "clusters": [inverse.result_to_json(result) for result in clusters],
    }
    return (0 if clusters else 1), report


def _cmd_sweep(args) -> tuple[int, list[dict]]:
    if args.n is None:
        raise ValueError("sweep requires --n")
    tol = args.tol if args.tol is not None else 1e-10
    return 0, family.sweep_rows(args.n, count=args.count, tol=tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facevol",
        description="Simplex face volumes, exact Kneser spectra, Jacobian "
        "certificates, mirror pairs, and face-volume inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default=flags.pop("format", "json"))
        p.add_argument("--output", default=None, help="output file (default stdout)")
        return p

    p = add("volume", "volume of a simplex (or one face) from a spec file")
    p.add_argument("--input", required=True)
    p.add_argument("--face", default=None, help="comma-separated vertex labels")

    p = add("faces", "all face volumes of one dimension")
    p.add_argument("--input", required=True)
    p.add_argument("--face-dim", type=int, default=None)

    p = add("realizable", "Euclidean realizability certificate")
    p.add_argument("--input", required=True)

    p = add("jacobian", "regular-point identity check or rank certificate")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--tol", type=tolerance, default=None)

    p = add("spectrum", "exact Kneser spectrum certificate")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)

    p = add("counterexample", "build and verify a mirror pair (or one instance)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--tol", type=tolerance, default=None)

    p = add("invert", "multi-start inversion of the face-volume map")
    p.add_argument("--input", required=True)
    p.add_argument("--starts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=tolerance, default=None)

    p = add("sweep", "mirror-pair reports on a grid of offsets", format="csv")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--count", type=int, default=9)
    p.add_argument("--tol", type=tolerance, default=None)

    return parser


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        code, report = _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"facevol {args.command}: {exc}", file=sys.stderr)
        return 2

    if args.command == "sweep":
        if args.format == "csv":
            text = _rows_csv(report, SWEEP_COLUMNS)
        else:
            text = _report_json({"schema_version": SCHEMA_VERSION, "rows": report})
    elif args.format == "csv":
        text = _report_csv(report)
    else:
        text = _report_json(report)

    _emit(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
