"""facevol benchmark: one closed-loop client calling the CLI in-process.

Run from the repository root:

    python3 bench/run.py --workload certify-volumes --seed 1 --seconds 58 --trace 0

The seed makes the workload's input files and request list (see
workloads.py).  The client calls `facevol.cli.main(argv)` for one request
after another, in passes over the list, starting a new pass while the
measured time plus the last pass fits in --seconds (at least one pass).
Every output is checked by an independent oracle after its pass, outside
the timed region; a request fails if it raises, exits with an unexpected
code or fails its check, and the run goes on.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of tracer.py (medians
over traced passes, per pass) plus the tracing overhead; its spans go to
.bench_run/spans-<workload>-<seed>.jsonl.gz.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Lines before
it record the environment and each metric with its sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 6  # set-up samples taken before the passes, and again after them
SETUP_CODE = "import facevol.cli as cli; cli.build_parser()"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "results_found": "count",
}
# The keys of workloads.WORKLOADS; that module imports numpy, which must wait
# until the BLAS thread count is set.
WORKLOAD_NAMES = ("certify-volumes", "invert-mirror")


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("per_iteration"):
        return "1/iteration"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup() -> list[float]:
    """Fresh interpreter through `import facevol.cli` and `build_parser()`, seconds.

    Each sample is timed from spawn to exit.  Samples are taken both before
    and after the passes so that their median spans the run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return times


def git_sha() -> str | None:
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "facevol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(np, args, counts: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **counts,
    }


def run_pass(cli, requests, first_id: int, tracer=None):
    """Send every request once; return pass wall time, latencies, outcomes."""
    latencies, outcomes = [], []
    gc.collect()
    start = perf_counter()
    for offset, request in enumerate(requests):
        if tracer is not None:
            tracer.request_id = first_id + offset
        t0 = perf_counter()
        try:
            code, error = cli.main(request.command), None
        except Exception as exc:  # a request that raises fails; the run goes on
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        outcomes.append((code, error))
    return perf_counter() - start, latencies, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "facevol" / "cli.py").is_file():
        print(f"bench: no facevol sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    setup_times = measure_setup()

    sys.path.insert(0, str(SRC))
    import numpy as np
    from facevol import cli

    import workloads
    from tracer import Tracer

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        requests = workload.requests
        for argv in workload.warmup:
            cli.main(argv + ["--output", str(workdir / "warmup.out")])

        tracer = Tracer() if args.trace else None
        plain, traced = [], []  # per pass: (wall, latencies, results, preimages)
        layer_runs = []
        measured = 0.0
        failures = Counter()
        attempted = failed = 0
        while True:
            use_tracer = args.trace and len(plain) > len(traced)
            first = len(tracer) if tracer else 0
            if use_tracer:
                tracer.install()
            try:
                wall, latencies, outcomes = run_pass(cli, requests, attempted, tracer if use_tracer else None)
            finally:
                if use_tracer:
                    tracer.uninstall()
            if use_tracer:
                ids = range(attempted, attempted + len(requests))
                layer_runs.append(tracer.layer_metrics(first, len(tracer), dict(zip(ids, latencies))))
            pass_failures, results, preimages = workloads.check_pass(requests, outcomes)
            (traced if use_tracer else plain).append((wall, latencies, results, preimages))
            attempted += len(requests)
            failed += len(pass_failures)
            failures.update(pass_failures)
            measured += wall
            both = not args.trace or (plain and traced)
            if both and measured + wall > args.seconds:
                break
        setup_times += measure_setup()

        walls = [p[0] for p in plain]
        latencies = [lat for p in plain for lat in p[1]]
        # Means over the run's passes weigh the machine's fast and slow spells
        # by their length; a median over passes jumps between them (README).
        slot_means = [statistics.fmean(slot) for slot in zip(*(p[1] for p in plain))]
        counts = {
            "requests_per_pass": len(requests),
            "passes": len(plain),
            "traced_passes": len(traced),
            "latency_samples": len(latencies),
            "setup_samples": len(setup_times),
        }
        print("env " + json.dumps(environment(np, args, counts)))
        for (key, reason, _), count in sorted(failures.items()):
            print(f"failure {key}: {reason} (x{count})")

        if args.trace:
            metrics = {name: statistics.median([run[name] for run in layer_runs]) for name in layer_runs[0]}
            metrics["trace.overhead_s"] = statistics.fmean([p[0] for p in traced]) - statistics.fmean(walls)
            units = {name: per_layer_unit(name) for name in metrics}
            print(f"per-layer metrics: medians over {len(traced)} traced passes, per pass;"
                  f" trace.overhead_s against {len(plain)} untraced passes")
            for name, value in metrics.items():
                print(f"{name} = {value!r} {units[name]}")
            tracer.write(RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.fmean(walls),
                "req_p50_ms": 1000.0 * statistics.median(slot_means),
                "ok_ratio": (attempted - failed) / attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "results_found": statistics.median([p[2] for p in plain]),
            }
            units = dict(END_TO_END_UNITS)
            notes = {
                "setup_s": f"median of {len(setup_times)}",
                "wall_s": f"mean of {len(walls)} passes",
                "req_p50_ms": f"median over {len(slot_means)} requests of each one's mean over {len(walls)} passes",
                "results_found": f"median of {len(plain)} passes",
            }
            for name, value in metrics.items():
                note = f" ({notes[name]})" if name in notes else ""
                print(f"{name} = {value!r} {units[name]}{note}")
            print(f"pass walls = {[round(w, 4) for w in walls]} s, median {statistics.median(walls)!r} s")
            print(f"latency p50 over all {len(latencies)} samples = {1000.0 * statistics.median(latencies)!r} ms")
            print(f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} requests)")
            print(f"preimages_found = {statistics.median([p[3] for p in plain])!r} per pass")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": not any(wrong for _, _, wrong in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
