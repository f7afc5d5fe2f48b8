"""Recover edge lengths from codimension-2 face volumes.

A problem's dimension n is its target's, and its start must be an n-simplex.
Damped Gauss-Newton on the plain edge lengths: each step solves the
regularized normal equations, is cut to its longest halving step * 2^-k,
k <= MAX_HALVINGS, that stays in the realizable region, and is accepted
only when the residual does not increase.  A solve reports why it stopped:
converged, degenerate_face (the Jacobian is undefined), step_stall (none
of those halvings above STEP_STALL embeds), damping_overflow (the damping
passed MAX_DAMPING) or max_iters.
Multi-start probing exposes targets with several preimages, e.g. both
members of a mirror pair.  Its starts are log-uniform draws, rejection-
sampled in blocks of START_BLOCK up to MAX_START_DRAWS; the simplex
module's triangle_screen rejects most of them (about 85%, 97% and 99.5% at
n = 4, 5, 6) before first_realizable computes any Gram eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .jacobian import point_jacobian, point_volumes
from .simplex import (
    FaceVolumeVector,
    RealizabilityError,
    SimplexSpec,
    first_realizable,
    spec_to_json,
    triangle_screen,
)

SQUARED_LENGTH_FLOOR = 1e-9
STEP_STALL = 1e-15
MAX_DAMPING = 1e12
CLUSTER_TOL = 1e-6
SOLVE_TOL = 1e-10  # default residual norm at which a solve has converged
START_RANGE = (0.25, 4.0)
START_BLOCK = 256  # start draws made and tested per batch
MAX_START_DRAWS = 10000  # draws random_realizable_spec makes before it gives up
PROBE_MAX_ITERS = 200  # iteration limit of each basin_probe solve
MAX_HALVINGS = 20  # 1 + 4 + 16 candidates: at most three Gram eigenvalue blocks
HALVINGS = np.ldexp(1.0, -np.arange(MAX_HALVINGS + 1))


class StartDrawError(ValueError):
    """No realizable start among the random draws."""


@dataclass(frozen=True)
class InverseProblem:
    target: FaceVolumeVector
    start: SimplexSpec
    max_iters: int = 100
    tol: float = SOLVE_TOL


@dataclass
class SolveResult:
    solution: SimplexSpec
    residual_norm: float
    iterations: int
    converged: bool
    stop_reason: str  # see the module docstring
    gram_rows: int  # Gram matrices whose eigenvalues the solve computed
    trajectory: list[float] = field(default_factory=list)


def _squared(lengths: np.ndarray) -> np.ndarray:
    return np.maximum(lengths**2, SQUARED_LENGTH_FLOOR)


def solve(problem: InverseProblem) -> SolveResult:
    """Damped Gauss-Newton iteration for target = face volumes of dim n-2, n = target.n.

    The halvings step * 2^-k, k = 0..MAX_HALVINGS, longer than STEP_STALL
    are Gram-tested in blocks of 1, 4, 16 up to the first that embeds; that
    one is the trial point, the one halve-and-retest reaches, as powers of
    two scale exactly.  If none embeds the solve stops with step_stall: a
    start that reaches the edge of the realizable region would otherwise
    accept ever-deeper halvings at a flat residual.  Every trial point gets
    its face volumes; only the start and accepted trial points get a
    Jacobian, from the same CM stack.  The point is kept as squared
    lengths; a spec is built only for the solution.  The damping starts at
    1e-3 * trace(J'J)/dim.  ValueError for a target that is not the (n-2)-face
    volumes of an n-simplex, or a start of another dimension.
    """
    n = problem.target.n
    dim = comb(n + 1, 2)
    target = problem.target.vector()
    if problem.target.face_dim != n - 2 or len(target) != dim:
        raise ValueError(f"target must hold the {dim} face volumes of dimension {n - 2}")
    if problem.start.n != n:
        raise ValueError(f"start must be a {n}-simplex like the target, got n={problem.start.n}")

    lengths = np.sqrt(problem.start.vector())
    squared = _squared(lengths)
    if first_realizable(n, squared[None])[0] is None:
        raise RealizabilityError("start spec is not realizable")
    gram_rows = 1
    values, stack = point_volumes(n, squared)
    jac = point_jacobian(n, stack, values)
    norm = float(np.linalg.norm(values - target))
    trajectory = [norm]
    identity = np.eye(dim)
    mu = 0.0
    iterations = 0

    for rounds in range(problem.max_iters + 1):
        if norm <= problem.tol:
            stop = "converged"
            break
        if jac is None:
            stop = "degenerate_face"
            break
        if rounds == problem.max_iters:
            stop = "max_iters"
            break
        normal = jac.T @ jac
        if mu <= 0.0:
            mu = 1e-3 * float(np.trace(normal)) / dim

        step = np.linalg.solve(normal + mu * identity, jac.T @ (target - values))
        scales = HALVINGS[np.linalg.norm(step) * HALVINGS > STEP_STALL]
        trials = _squared(lengths + scales[:, None] * step)
        hit, tested = first_realizable(n, trials)
        gram_rows += tested
        if hit is None:
            stop = "step_stall"
            break

        trial = trials[hit]
        trial_values, trial_stack = point_volumes(n, trial)
        trial_norm = float(np.linalg.norm(trial_values - target))
        if trial_norm <= norm:
            squared, lengths = trial, np.sqrt(trial)
            values, jac = trial_values, point_jacobian(n, trial_stack, trial_values)
            norm = trial_norm
            trajectory.append(norm)
            iterations += 1
            mu = mu / 10.0
        else:
            mu = mu * 10.0
            if mu > MAX_DAMPING:
                stop = "damping_overflow"
                break

    return SolveResult(
        solution=SimplexSpec.from_vector(n, squared.tolist()),
        residual_norm=norm,
        iterations=iterations,
        converged=bool(norm <= problem.tol),
        trajectory=trajectory,
        stop_reason=stop,
        gram_rows=gram_rows,
    )


def result_to_json(result: SolveResult) -> dict:
    """Solution in simplex JSON form plus residual/iteration metadata."""
    data = spec_to_json(result.solution)
    data["residual"] = result.residual_norm
    data["iterations"] = result.iterations
    data["converged"] = result.converged
    return data


def random_realizable_spec(n: int, rng: np.random.Generator) -> SimplexSpec:
    """Squared lengths log-uniform in [0.25, 4], rejected until realizable.

    Draws are made START_BLOCK at a time; the first that passes
    triangle_screen, which spares most an eigvalsh, and then first_realizable
    is accepted.  On a hit the generator is rewound to the block's start and
    advanced past the accepted draw only, so for any block size it ends
    where a one-draw-at-a-time loop would leave it.
    StartDrawError when none of MAX_START_DRAWS draws is realizable.
    """
    low, high = np.log(START_RANGE[0]), np.log(START_RANGE[1])
    dim = comb(n + 1, 2)
    for first in range(0, MAX_START_DRAWS, START_BLOCK):
        state = rng.bit_generator.state
        count = min(START_BLOCK, MAX_START_DRAWS - first)
        squared = np.exp(rng.uniform(low, high, size=(count, dim)))
        screened = np.flatnonzero(triangle_screen(n, squared))
        hit, _ = first_realizable(n, squared[screened])
        if hit is not None:
            row = int(screened[hit])
            rng.bit_generator.state = state
            rng.uniform(low, high, size=(row + 1) * dim)
            return SimplexSpec.from_vector(n, squared[row].tolist())
    raise StartDrawError(f"no realizable start in {MAX_START_DRAWS} draws for n={n}")


def basin_probe(
    target: FaceVolumeVector, num_starts: int, seed: int, tol: float = SOLVE_TOL
) -> list[SolveResult]:
    """Run seeded multi-start solves and cluster the converged solutions.

    Each solve runs at most PROBE_MAX_ITERS iterations.  Solutions whose
    sorted squared-length vectors differ by at most 1e-6 (sup norm) count as
    the same preimage; one representative per cluster is returned, in order
    of first discovery.
    """
    if num_starts < 1:
        raise ValueError(f"num_starts must be >= 1, got {num_starts}")
    rng = np.random.default_rng(seed)
    representatives: list[SolveResult] = []
    signatures: list[np.ndarray] = []
    for _ in range(num_starts):
        start = random_realizable_spec(target.n, rng)
        result = solve(
            InverseProblem(target=target, start=start, max_iters=PROBE_MAX_ITERS, tol=tol)
        )
        if not result.converged:
            continue
        signature = np.sort(result.solution.vector())
        if all(np.max(np.abs(signature - seen)) > CLUSTER_TOL for seen in signatures):
            signatures.append(signature)
            representatives.append(result)
    return representatives
