"""Recover edge lengths from codimension-2 face volumes.

Damped Gauss-Newton on the plain edge lengths: each step solves the
regularized normal equations, is cut to its longest halving that stays in
the realizable region, and is accepted only when the residual does not
increase.  Multi-start probing exposes targets with several preimages,
e.g. both members of a mirror pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .jacobian import volumes_and_jacobian
from .simplex import (
    FaceVolumeVector,
    RealizabilityError,
    SimplexSpec,
    realizable_rows,
    spec_to_json,
)

SQUARED_LENGTH_FLOOR = 1e-9
STEP_STALL = 1e-15
CLUSTER_TOL = 1e-6
START_RANGE = (0.25, 4.0)
START_BLOCK = 64  # start draws made and tested per batch
HALVINGS = np.ldexp(1.0, -np.arange(1075))  # 2^-k down to the least subnormal


class StartDrawError(ValueError):
    """No realizable start among the random draws."""


@dataclass(frozen=True)
class InverseProblem:
    n: int
    target: FaceVolumeVector
    start: SimplexSpec
    damping: float = 0.0  # initial mu; 0 picks 1e-3 * trace(J'J)/dim
    max_iters: int = 100
    tol: float = 1e-10


@dataclass
class SolveResult:
    solution: SimplexSpec
    residual_norm: float
    iterations: int
    converged: bool
    trajectory: list[float] = field(default_factory=list)


def _squared(lengths: np.ndarray) -> np.ndarray:
    return np.maximum(lengths**2, SQUARED_LENGTH_FLOOR)


def solve(problem: InverseProblem) -> SolveResult:
    """Damped Gauss-Newton iteration for target = face volumes of dim n-2.

    Every halving step * 2^-k longer than STEP_STALL is Gram-tested in one
    stacked call; the first that embeds is the trial point, the one
    halve-and-retest reaches, as powers of two scale exactly.  One kernel
    call per trial point gives its face volumes and, if it is accepted, the
    next Jacobian.  The point is kept as squared lengths; a spec is built
    only for the solution.
    """
    n = problem.n
    dim = comb(n + 1, 2)
    target = problem.target.vector()
    if problem.target.face_dim != n - 2 or len(target) != dim:
        raise ValueError(f"target must hold the {dim} face volumes of dimension {n - 2}")

    lengths = np.sqrt(problem.start.vector())
    squared = _squared(lengths)
    if not realizable_rows(n, squared):
        raise RealizabilityError("start spec is not realizable")
    values, jac = volumes_and_jacobian(n, squared)
    norm = float(np.linalg.norm(values - target))
    trajectory = [norm]
    mu = problem.damping
    iterations = 0

    for _ in range(problem.max_iters):
        if norm <= problem.tol or jac is None:
            break
        normal = jac.T @ jac
        if mu <= 0.0:
            mu = 1e-3 * float(np.trace(normal)) / dim

        step = np.linalg.solve(normal + mu * np.eye(dim), jac.T @ (target - values))
        scales = HALVINGS[np.linalg.norm(step) * HALVINGS > STEP_STALL]
        trials = _squared(lengths + scales[:, None] * step)
        hits = np.flatnonzero(realizable_rows(n, trials))
        if not hits.size:
            break

        trial = trials[hits[0]]
        trial_values, trial_jac = volumes_and_jacobian(n, trial)
        trial_norm = float(np.linalg.norm(trial_values - target))
        if trial_norm <= norm:
            squared, lengths = trial, np.sqrt(trial)
            values, jac = trial_values, trial_jac
            norm = trial_norm
            trajectory.append(norm)
            iterations += 1
            mu = mu / 10.0
        else:
            mu = mu * 10.0
            if mu > 1e12:
                break

    return SolveResult(
        solution=SimplexSpec.from_vector(n, squared.tolist()),
        residual_norm=norm,
        iterations=iterations,
        converged=bool(norm <= problem.tol),
        trajectory=trajectory,
    )


def result_to_json(result: SolveResult) -> dict:
    """Solution in simplex JSON form plus residual/iteration metadata."""
    data = spec_to_json(result.solution)
    data["residual"] = result.residual_norm
    data["iterations"] = result.iterations
    data["converged"] = result.converged
    return data


def random_realizable_spec(n: int, rng: np.random.Generator, max_tries: int = 10000) -> SimplexSpec:
    """Squared lengths log-uniform in [0.25, 4], rejected until realizable.

    Draws are made and Gram-tested START_BLOCK at a time.  On a hit the
    generator is rewound to the block's start and advanced past the accepted
    draw only, so it ends where a one-draw-at-a-time loop would leave it.
    """
    low, high = np.log(START_RANGE[0]), np.log(START_RANGE[1])
    dim = comb(n + 1, 2)
    for first in range(0, max_tries, START_BLOCK):
        state = rng.bit_generator.state
        count = min(START_BLOCK, max_tries - first)
        squared = np.exp(rng.uniform(low, high, size=(count, dim)))
        hits = np.flatnonzero(realizable_rows(n, squared))
        if hits.size:
            row = int(hits[0])
            rng.bit_generator.state = state
            rng.uniform(low, high, size=(row + 1) * dim)
            return SimplexSpec.from_vector(n, squared[row].tolist())
    raise StartDrawError(f"no realizable start in {max_tries} draws for n={n}")


def basin_probe(
    n: int,
    target: FaceVolumeVector,
    num_starts: int,
    seed: int,
    max_iters: int = 200,
    tol: float = 1e-10,
) -> list[SolveResult]:
    """Run seeded multi-start solves and cluster the converged solutions.

    Solutions whose sorted squared-length vectors differ by at most 1e-6
    (sup norm) count as the same preimage; one representative per cluster
    is returned, in order of first discovery.
    """
    if num_starts < 1:
        raise ValueError(f"num_starts must be >= 1, got {num_starts}")
    rng = np.random.default_rng(seed)
    representatives: list[SolveResult] = []
    signatures: list[np.ndarray] = []
    for _ in range(num_starts):
        start = random_realizable_spec(n, rng)
        result = solve(
            InverseProblem(n=n, target=target, start=start, max_iters=max_iters, tol=tol)
        )
        if not result.converged:
            continue
        signature = np.sort(result.solution.vector())
        if all(np.max(np.abs(signature - seen)) > CLUSTER_TOL for seen in signatures):
            signatures.append(signature)
            representatives.append(result)
    return representatives
