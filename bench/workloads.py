"""Workload generators and independent oracles for the facevol benchmark.

Each workload turns a seed into input files and a fixed request list.  A
request is one `facevol` command line plus the oracle that checks its
output.  The oracles recompute every checked quantity from closed forms or
with plain numpy on the input data; they call nothing in `facevol`, so a
wrong result cannot pass by agreeing with itself.  They run outside the
timed region.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod, sqrt
from pathlib import Path
from typing import Callable

import numpy as np

INVERT_TOL = 1e-10
# Slack over the solver tolerance for recomputing volumes in another order.
INVERT_RECOMPUTE_SLACK = 1e-12
TWIN_REL_TOL = 1e-9
CLUSTER_TOL = 1e-6


@dataclass
class Request:
    """One CLI call: argv (the runner adds --output), its output file, its oracle.

    `check(code, report, reports)` returns None when the output is right,
    else a one-line reason.  `reports` maps request keys to the parsed
    outputs of the same pass, for oracles that compare two requests.
    `results` counts what the request delivered when it passed: distinct
    preimages for `invert`, 1 otherwise.
    """

    key: str
    argv: list[str]
    output: Path
    check: Callable
    csv_output: bool = False
    results: Callable = field(default=lambda report: 1)
    command: list[str] = field(init=False)

    def __post_init__(self):
        self.command = self.argv + ["--output", str(self.output)]


@dataclass
class Workload:
    requests: list[Request]
    warmup: list[list[str]]


# --- closed forms and numpy recomputation ----------------------------------

def kneser_spectrum(n: int, k: int):
    """Eigenvalues (descending), multiplicities and determinant of K(n+1,k).

    Eigenvalue i is (-1)^i C(N-k-i, k-i) with multiplicity C(N,i) - C(N,i-1),
    N = n+1 (Lovasz 1979).
    """
    big_n = n + 1
    pairs = [
        ((-1) ** i * comb(big_n - k - i, k - i), comb(big_n, i) - (comb(big_n, i - 1) if i else 0))
        for i in range(k + 1)
    ]
    pairs.sort(key=lambda p: -p[0])
    det = prod(lam**m for lam, m in pairs)
    return [lam for lam, _ in pairs], [m for _, m in pairs], det


def regular_jacobian_constant(n: int) -> float:
    """Common nonzero Jacobian entry at the all-unit simplex."""
    return 1.0 / (factorial(n - 2) * sqrt(n - 1) * 2 ** ((n - 4) / 2))


def distance_matrix(n: int, squared_lengths) -> np.ndarray:
    """Symmetric (n+1)x(n+1) squared-distance matrix from lexicographic pairs."""
    d = np.zeros((n + 1, n + 1))
    for (i, j), q in zip(combinations(range(n + 1), 2), squared_lengths):
        d[i, j] = d[j, i] = float(Fraction(q)) if isinstance(q, str) else float(q)
    return d


def cm_squared_volume(d: np.ndarray, face) -> float:
    """Squared volume of the face (0-based vertex list) by Cayley-Menger."""
    m = len(face) - 1
    cm = np.ones((m + 2, m + 2))
    cm[0, 0] = 0.0
    cm[1:, 1:] = d[np.ix_(face, face)]
    return (-1) ** (m + 1) / (2**m * factorial(m) ** 2) * float(np.linalg.det(cm))


def codim2_volumes(d: np.ndarray) -> np.ndarray:
    """(n-2)-face volumes keyed by complementary 2-subsets, lexicographic."""
    n = d.shape[0] - 1
    out = []
    for drop in combinations(range(n + 1), 2):
        face = [v for v in range(n + 1) if v not in drop]
        out.append(sqrt(max(cm_squared_volume(d, face), 0.0)))
    return np.array(out)


def embeds(d: np.ndarray) -> bool:
    """Gram matrix on base vertex 0 is positive semidefinite (1e-9 * trace)."""
    g = 0.5 * (d[0, 1:, None] + d[0, None, 1:] - d[1:, 1:])
    return bool(np.linalg.eigvalsh(g)[0] >= -1e-9 * max(np.trace(g), 1e-300))


def stretched_lengths(n: int, t: float) -> list[float]:
    """Squared lengths of T(t): all 1, pair (n, n+1) equal to t."""
    lengths = [1.0] * comb(n + 1, 2)
    lengths[-1] = t
    return lengths


def mirror_constants(n: int):
    """t0 and x_max of the stretched-edge family."""
    return (n - 2) / (n - 3), ((n - 2) * (n - 1) - 4) / ((n - 1) * (n - 3))


def rel_close(a: float, b: float, tol: float = TWIN_REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# --- oracles ----------------------------------------------------------------

def check_spectrum(n: int, k: int):
    lams, mults, det = kneser_spectrum(n, k)

    def check(code, report, reports):
        if code != 0:
            return f"exit code {code}"
        if report["eigenvalues"] != lams or report["multiplicities"] != mults:
            return "spectrum differs from the closed form"
        if sum(report["multiplicities"]) != comb(n + 1, k):
            return "multiplicities do not sum to C(n+1,k)"
        if report["annihilation"] is not True:
            return "annihilation not certified"
        if int(report["det"]) != det:
            return f"det {report['det']} != {det}"
        if k == 2 and abs(int(report["det"])) != (n - 2) ** (n + 1) * (n - 1) // 2:
            return "k=2 |det| differs from (n-2)^(n+1)(n-1)/2"
        return None

    return check


def check_regular_jacobian(n: int):
    constant = regular_jacobian_constant(n)

    def check(code, report, reports):
        if code != 0 or report["passed"] is not True:
            return f"exit code {code}, passed={report['passed']}"
        if report["rank"] != comb(n + 1, 2):
            return f"rank {report['rank']} != {comb(n + 1, 2)}"
        if not rel_close(report["constant"], constant, 1e-12):
            return "regular-point constant differs from the closed form"
        return None

    return check


def check_invert(n: int, t: float):
    target = codim2_volumes(distance_matrix(n, stretched_lengths(n, t)))

    def check(code, report, reports):
        clusters = report["clusters"]
        if code != (0 if clusters else 1):
            return f"exit code {code} with {len(clusters)} clusters"
        signatures = []
        for cluster in clusters:
            d = distance_matrix(n, cluster["squared_lengths"])
            if not cluster["converged"] or cluster["residual"] > INVERT_TOL:
                return "cluster reported as not converged"
            if not embeds(d):
                return "cluster is not realizable"
            if np.linalg.norm(codim2_volumes(d) - target) > INVERT_TOL + INVERT_RECOMPUTE_SLACK:
                return "cluster does not reproduce the target face volumes"
            signatures.append(np.sort(cluster["squared_lengths"]))
        for a, b in combinations(signatures, 2):
            if np.max(np.abs(a - b)) <= CLUSTER_TOL:
                return "two clusters are the same preimage"
        return None

    return check


def check_twin(kind: str, n: int, lengths: list[str], exact_key: str | None, face_dim=None):
    """Oracle for one of an exact/float pair of requests on the same simplex.

    The exact twin is checked against numpy on the input data; the float
    twin must agree with the exact twin within TWIN_REL_TOL.
    """
    d = distance_matrix(n, lengths)

    def agree(a, b) -> bool:
        return len(a) == len(b) and all(rel_close(x, y) for x, y in zip(a, b))

    def expected(report):
        if kind == "faces":
            faces = [[v - 1 for v in range(1, n + 2) if v not in key] for key in report["keys"]]
            return [sqrt(max(cm_squared_volume(d, f), 0.0)) for f in faces]
        if kind == "volume":
            return [cm_squared_volume(d, list(range(n + 1)))]
        return None

    def values(report):
        if kind == "faces":
            return report["values"]
        if kind == "volume":
            return [report["squared_volume"]]
        if kind == "realizable":
            return [report["min_eigenvalue"]]
        return [report["sv_ratio"]]

    def check(code, report, reports):
        if code != 0:
            return f"exit code {code}"
        if kind == "faces" and len(report["keys"]) != comb(n + 1, n - face_dim):
            return "wrong number of faces"
        if kind == "jacobian" and report["rank"] != comb(n + 1, 2):
            return "Jacobian is not full rank"
        if exact_key is None:
            want = expected(report)
            if want is not None and not agree(values(report), want):
                return "exact result differs from the numpy recomputation"
            return None
        twin = reports.get(exact_key)
        if twin is None:
            return "exact twin has no output"
        if (kind == "faces" and report["keys"] != twin["keys"]) or not agree(values(report), values(twin)):
            return "float twin differs from its exact twin"
        return None

    return check


def check_sweep(n: int, count: int):
    t0, x_max = mirror_constants(n)

    def check(code, rows, reports):
        if code != 0 or len(rows) != count:
            return f"exit code {code}, {len(rows)} rows"
        for i, row in enumerate(rows, start=1):
            x = float(row["x"])
            t_minus, t_plus = float(row["t_minus"]), float(row["t_plus"])
            if not (rel_close(x, i / (count + 1) * x_max, 1e-12)
                    and rel_close(t_minus, t0 - x, 1e-12) and rel_close(t_plus, t0 + x, 1e-12)):
                return f"row {i}: offsets differ from the exact grid"
            if float(row["max_facevol_reldiff"]) > 1e-10 or float(row["vol_reldiff"]) <= 1e-10:
                return f"row {i}: not a mirror pair"
            for t, vol in ((t_minus, row["vol_minus"]), (t_plus, row["vol_plus"])):
                d = distance_matrix(n, stretched_lengths(n, t))
                if not rel_close(float(vol) ** 2, cm_squared_volume(d, list(range(n + 1)))):
                    return f"row {i}: total volume differs from the numpy recomputation"
        return None

    return check


# --- workloads --------------------------------------------------------------

def _save(path: Path, n: int, lengths) -> str:
    path.write_text(json.dumps({"n": n, "squared_lengths": lengths}))
    return str(path)


def certify_exact(seed: int, workdir: Path) -> Workload:
    """Exact Kneser certificates and regular-point Jacobians; seed shuffles order."""
    cases = [("spectrum", n, 2) for n in range(4, 13)]
    cases += [("spectrum", n, 3) for n in range(6, 13)]
    cases += [("spectrum", n, 4) for n in (8, 9)]
    cases += [("jacobian", n, None) for n in range(4, 11)]
    order = np.random.default_rng(seed).permutation(len(cases))
    requests = []
    for idx in order:
        command, n, k = cases[idx]
        key = f"{command}-n{n}" + (f"-k{k}" if k else "")
        out = workdir / f"{key}.out"
        if command == "spectrum":
            argv = ["spectrum", "--n", str(n), "--k", str(k)]
            check = check_spectrum(n, k)
        else:
            argv = ["jacobian", "--n", str(n)]
            check = check_regular_jacobian(n)
        requests.append(Request(key, argv, out, check))
    warmup = [["spectrum", "--n", "4", "--k", "2"], ["jacobian", "--n", "4"]]
    return Workload(requests, warmup)


# Requests per dimension and starts per request of invert-mirror.
INVERT_REQUESTS = {4: 36, 5: 36, 6: 1}
INVERT_STARTS = 2
INVERT_X_RANGE = (0.15, 0.85)


def invert_mirror(seed: int, workdir: Path) -> Workload:
    """Multi-start inversion of mirror-pair targets T(t0 - x).

    The seed draws each offset x inside its own stratum of INVERT_X_RANGE
    (times x_max) and the request order.  Request j of dimension n always
    passes `--seed 1000*n + j`: the start draws are common to all workload
    seeds, so seed-to-seed differences come from the targets alone.  With
    start seeds drawn from the workload seed too, 72-start passes spread by
    a coefficient of variation of 0.11 across seeds; with common start
    seeds, by 0.05.
    """
    rng = np.random.default_rng(seed)
    lo, hi = INVERT_X_RANGE
    requests = []
    for n, count in INVERT_REQUESTS.items():
        t0, x_max = mirror_constants(n)
        for j in range(count):
            x = x_max * (lo + (hi - lo) * (j + rng.uniform()) / count)
            t = t0 - x
            key = f"invert-n{n}-{j}"
            spec = _save(workdir / f"{key}.json", n, stretched_lengths(n, t))
            out = workdir / f"{key}.out"
            argv = ["invert", "--input", spec, "--starts", str(INVERT_STARTS),
                    "--seed", str(1000 * n + j), "--tol", repr(INVERT_TOL)]
            requests.append(Request(key, argv, out, check_invert(n, t),
                                    results=lambda report: len(report["clusters"])))
    requests = [requests[i] for i in rng.permutation(len(requests))]
    warm_spec = _save(workdir / "warmup.json", 4, stretched_lengths(4, 1.5))
    warmup = [["invert", "--input", warm_spec, "--starts", "1", "--seed", "0"]]
    return Workload(requests, warmup)


RATIONAL_DIMS = range(6, 11)
RATIONAL_SPECS_PER_DIM = 2
RATIONAL_DENOMINATOR = 60
RATIONAL_MAX_OFFSET = 3  # squared lengths 1 + k/60, |k| <= 3
SWEEP_DIMS = (4, 6, 8)
SWEEP_COUNT = 9


def near_regular_lengths(n: int, rng: np.random.Generator) -> list[str]:
    """Exact squared lengths 1 + k/60 as strings ("61/60", "1"), redrawn until they embed."""
    while True:
        ks = rng.integers(-RATIONAL_MAX_OFFSET, RATIONAL_MAX_OFFSET + 1, size=comb(n + 1, 2))
        lengths = [str(Fraction(RATIONAL_DENOMINATOR + int(k), RATIONAL_DENOMINATOR)) for k in ks]
        if embeds(distance_matrix(n, lengths)):
            return lengths


def volumes_rational(seed: int, workdir: Path) -> Workload:
    """Many small requests on near-regular simplices, each as exact and float twin."""
    rng = np.random.default_rng(seed)
    requests = []
    for n in RATIONAL_DIMS:
        for s in range(RATIONAL_SPECS_PER_DIM):
            exact = near_regular_lengths(n, rng)
            floats = [float(Fraction(q)) for q in exact]
            for twin, lengths in (("exact", exact), ("float", floats)):
                spec = _save(workdir / f"n{n}-{s}-{twin}.json", n, lengths)
                for kind, extra in (("faces", ["--face-dim", "2"]),
                                    ("faces", ["--face-dim", str(n - 2)]),
                                    ("volume", []), ("realizable", []), ("jacobian", [])):
                    face_dim = int(extra[1]) if extra else None
                    base = f"{kind}{face_dim if extra else ''}-n{n}-{s}"
                    key = f"{base}-{twin}"
                    exact_key = None if twin == "exact" else f"{base}-exact"
                    out = workdir / f"{key}.out"
                    argv = [kind, "--input", spec, *extra]
                    requests.append(Request(key, argv, out,
                                            check_twin(kind, n, exact, exact_key, face_dim)))
    for n in SWEEP_DIMS:
        out = workdir / f"sweep-n{n}.out"
        argv = ["sweep", "--n", str(n), "--count", str(SWEEP_COUNT)]
        requests.append(Request(f"sweep-n{n}", argv, out, check_sweep(n, SWEEP_COUNT), csv_output=True))
    warmup = [r.argv for r in requests[:10]]  # the first simplex, both twins
    warmup.append(["sweep", "--n", "4", "--count", "1"])
    return Workload(requests, warmup)


def certify_volumes(seed: int, workdir: Path) -> Workload:
    """The certify-exact requests and the volumes-rational requests in one pass.

    Two workloads can run longer in the benchmark's time than three, and the
    machine's speed drifts over minutes (README).  The big Bareiss
    determinants set `wall_s`; 103 of the 128 requests are tiny, so
    `req_p50_ms` falls among them, and a change that helps big matrices but
    costs small ones shows there.
    """
    big, small = certify_exact(seed, workdir), volumes_rational(seed, workdir)
    return Workload(big.requests + small.requests, big.warmup + small.warmup)


WORKLOADS = {
    "certify-volumes": certify_volumes,
    "invert-mirror": invert_mirror,
}


def read_output(request: Request):
    """Parsed output of a request, or None if it wrote none."""
    try:
        text = request.output.read_text()
    except FileNotFoundError:
        return None
    if request.csv_output:
        return list(csv.DictReader(text.splitlines()))
    return json.loads(text)


def check_pass(requests: list[Request], outcomes):
    """Oracle-check one pass, given each request's (exit code, error).

    Returns failures [(key, reason, wrong)], where `wrong` marks an output
    that was written but failed its oracle, the results delivered, and the
    preimages among them.  Deletes the outputs.
    """
    parsed = {}
    for request, (code, error) in zip(requests, outcomes):
        if error is None:
            try:
                parsed[request.key] = read_output(request)
            except ValueError as exc:
                parsed[request.key] = exc
    failures, results, preimages = [], 0, 0
    for request, (code, error) in zip(requests, outcomes):
        report = parsed.get(request.key)
        wrong = True
        if error is not None or report is None:
            reason, wrong = error or f"exit code {code} and no output", False
        elif isinstance(report, ValueError):
            reason = f"unreadable output: {report}"
        else:
            try:
                reason = request.check(code, report, parsed)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed output: {exc!r}"
        request.output.unlink(missing_ok=True)
        if reason:
            failures.append((request.key, reason, wrong))
            continue
        found = request.results(report)
        results += found
        if request.argv[0] == "invert":
            preimages += found
    return failures, results, preimages
