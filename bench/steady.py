"""Steadiness report: run the benchmark repeatedly and summarise each metric.

Run from the repository root:

    python3 bench/steady.py --seeds 1-10 [--workloads certify-volumes ...] [--out FILE]

Runs `bench/run.py` once per workload and seed, one run at a time, going
round the workloads for each seed so that a slow spell of the machine
touches every workload a little rather than one workload a lot.  It prints for every end-to-end metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  A spread
above a third of its bound is noted; one above the bound itself makes the
exit code 1.  `setup_s` is exempt from both.  --out saves every run's
result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    values = {w: {name: [] for name in bounds} for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            elapsed = time.perf_counter() - start
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "elapsed_s": elapsed, **result})
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{name}={result['metrics'][name]['value']:.6g}" for name in bounds), flush=True)
    flagged = 0
    for workload in args.workloads:
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            note = ""
            if name != "setup_s" and spread > bounds[name]:
                note, flagged = "  OVER THE BOUND", flagged + 1
            elif name != "setup_s" and spread > bounds[name] / 3:
                note = "  over a third of the bound"
            print(f"  {workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {bounds[name]}{note}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "runs": runs}, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
