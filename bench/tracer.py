"""Span tracing of the facevol layers from outside the package.

`Tracer.install()` replaces each function in TRACED with a wrapper that
records a span, in every `facevol` module namespace that holds the
function (so `kneser.int_determinant` is traced as well as
`exact.int_determinant`); `uninstall()` puts the originals back.  No file
of the package changes.  Spans are named `<module>.<function>` and kept in
memory as parallel arrays (name, start, end, parent, request id, note);
`write()` saves them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

TRACED = {
    "cli": ["main"],
    "simplex": ["load_spec", "build_cm_matrix", "squared_volume", "is_realizable", "all_face_volumes"],
    "exact": ["int_determinant", "fraction_determinant", "exact_matmul", "solve_fraction_system"],
    "kneser": ["build_kneser_adjacency", "verify_annihilation", "multiplicities_from_traces",
               "exact_determinant", "spectrum_report"],
    "jacobian": ["analytic_jacobian", "volume_gradient", "jacobian_rank", "verify_regular_point"],
    "family": ["build_instance", "build_pair", "verify_pair", "sweep_rows"],
    "inverse": ["basin_probe", "solve", "random_realizable_spec"],
}
SPAN_NAMES = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]

NO_NOTE = -1.0
RAISED = math.nan  # the call raised


def _bareiss_updates(args, result) -> float:
    """Bigint updates of Bareiss elimination on an order-m matrix: sum (m-1-k)^2."""
    m = len(args[0])
    return (m - 1) * m * (2 * m - 1) / 6


# What a span's note records, per span name; every other span notes NO_NOTE.
NOTES = {
    "exact.int_determinant": _bareiss_updates,
    "exact.exact_matmul": lambda args, result: float(result.dtype == object),
    # iterations if converged, else -1 - iterations
    "inverse.solve": lambda args, result: result.iterations if result.converged else -1 - result.iterations,
    "inverse.basin_probe": lambda args, result: float(len(result)),
}


class Tracer:
    def __init__(self):
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.notes = array("d")
        self.request_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name_id: int, fn):
        note = NOTES.get(SPAN_NAMES[name_id])
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, notes, stack = self.parents, self.requests, self.notes, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            notes.append(RAISED)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            notes[index] = note(args, result) if note else NO_NOTE
            return result

        return traced

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "facevol" or name.startswith("facevol.")]
        wrappers = {}
        for name_id, name in enumerate(SPAN_NAMES):
            module, fn = name.split(".")
            original = getattr(sys.modules[f"facevol.{module}"], fn)
            wrappers[id(original)] = self._wrap(name_id, original)
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, request, note."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self)):
                fh.write(json.dumps([SPAN_NAMES[self.names[i]], self.starts[i], self.ends[i],
                                     self.parents[i], self.requests[i], self.notes[i]]) + "\n")

    def layer_metrics(self, first: int, last: int, latencies: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics of the spans first..last-1 (one traced pass).

        Self time is a span's duration minus the durations of its children.
        `latencies` maps each request id to the latency the runner measured
        around `cli.main`; the self times of a request's spans must not sum
        to more than it.
        """
        ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        child = defaultdict(float)
        for i in range(first, last):
            if self.parents[i] >= first:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        per_request = defaultdict(float)
        note_sum = defaultdict(float)
        for i in range(first, last):
            own = self.ends[i] - self.starts[i] - child[i]
            calls[self.names[i]] += 1
            self_s[self.names[i]] += own
            per_request[self.requests[i]] += own
        for request, total in per_request.items():
            if total > latencies[request] + 1e-9:
                raise RuntimeError(f"span self times of request {request} exceed its latency")

        def ancestor(i: int, name_id: int) -> bool:
            i = self.parents[i]
            while i >= first:
                if self.names[i] == name_id:
                    return True
                i = self.parents[i]
            return False

        realizable, draw, solve = ids["simplex.is_realizable"], ids["inverse.random_realizable_spec"], ids["inverse.solve"]
        jacobian = ids["jacobian.analytic_jacobian"]
        summed = {ids[name] for name in ("exact.int_determinant", "exact.exact_matmul", "inverse.basin_probe")}
        draws = accepted = converged = iterations = jacobians = checks = 0
        for i in range(first, last):
            name, note = self.names[i], self.notes[i]
            raised = math.isnan(note)
            if name == realizable:
                if self.parents[i] >= first and self.names[self.parents[i]] == draw:
                    draws += 1
                elif ancestor(i, solve):
                    checks += 1
            elif name == draw:
                accepted += not raised
            elif name == jacobian:
                jacobians += ancestor(i, solve)
            elif name == solve and not raised:
                converged += note >= 0
                iterations += int(note if note >= 0 else -1 - note)
            elif name in summed and not raised:
                note_sum[name] += note

        metrics = {}
        for name_id, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.calls"] = calls[name_id]
            metrics[f"{name}.self_ms"] = 1000.0 * self_s[name_id]
        solves = calls[solve]
        metrics.update({
            "exact.int_determinant.ops": note_sum[ids["exact.int_determinant"]],
            "exact.exact_matmul.object_fallbacks": note_sum[ids["exact.exact_matmul"]],
            "inverse.start_draws": draws,
            "inverse.start_accept_ratio": accepted / draws if draws else 0.0,
            "inverse.solve.converged_ratio": converged / solves if solves else 0.0,
            "inverse.solve.iterations": iterations,
            "inverse.jacobians_per_iteration": jacobians / iterations if iterations else 0.0,
            "inverse.realizability_checks_per_iteration": checks / iterations if iterations else 0.0,
            "inverse.preimages_found": note_sum[ids["inverse.basin_probe"]],
        })
        return metrics
