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
members of a mirror pair.  Its starts are squared distances of Gaussian
points, which always embed; it refuses a target above MAX_JACOBIAN_N or
one within its tolerance, which every start would match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, sqrt

import numpy as np

from .jacobian import check_jacobian_dimension, point_jacobian, point_volumes
from .simplex import (
    FaceVolumeVector,
    RealizabilityError,
    SimplexSpec,
    first_realizable,
    point_squared_distances,
    spec_to_json,
)

SQUARED_LENGTH_FLOOR = 1e-9
STEP_STALL = 1e-15
MAX_DAMPING = 1e12
CLUSTER_TOL = 1e-6
SOLVE_TOL = 1e-10  # default residual norm at which a solve has converged
PROBE_MAX_ITERS = 200  # iteration limit of each basin_probe solve
MAX_HALVINGS = 20  # 1 + 4 + 16 candidates: at most three Gram eigenvalue blocks
HALVINGS = np.ldexp(1.0, -np.arange(MAX_HALVINGS + 1))


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


def _norm(vector: np.ndarray) -> float:
    """Euclidean norm of a float vector, as np.linalg.norm computes it."""
    return sqrt(vector.dot(vector))


def solve(problem: InverseProblem) -> SolveResult:
    """Damped Gauss-Newton iteration for target = face volumes of dim n-2, n = target.n.

    The halvings step * 2^-k, k = 0..MAX_HALVINGS, longer than STEP_STALL
    are Gram-tested in blocks of 1, 4, 16 up to the first that embeds; that
    one is the trial point, the one halve-and-retest reaches, as powers of
    two scale exactly.  If none embeds the solve stops with step_stall: a
    start that reaches the edge of the realizable region would otherwise
    accept ever-deeper halvings at a flat residual.  Every trial point gets
    its face volumes; only the start and accepted trial points get a
    Jacobian, from the same Gram stack.  The point is kept as squared
    lengths; a spec is built only for the solution.  The damping starts at
    1e-3 * trace(J'J)/dim; a damped system that is singular counts as a
    rejected trial, which raises the damping.  ValueError for a target
    that is not the (n-2)-face volumes of an n-simplex, or a start of
    another dimension.
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
    norm = _norm(values - target)
    trajectory = [norm]
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
        normal.flat[:: dim + 1] += mu  # the damping, on the diagonal

        try:
            step = np.linalg.solve(normal, jac.T @ (target - values))
        except np.linalg.LinAlgError:  # a singular damped system is a rejected trial
            trial_norm = np.inf
        else:
            scales = HALVINGS[_norm(step) * HALVINGS > STEP_STALL]
            trials = _squared(lengths + scales[:, None] * step)
            hit, tested = first_realizable(n, trials)
            gram_rows += tested
            if hit is None:
                stop = "step_stall"
                break
            trial = trials[hit]
            trial_values, trial_stack = point_volumes(n, trial)
            trial_norm = _norm(trial_values - target)

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
    """Squared distances of n+1 standard Gaussian points in R^n, divided by their median.

    Distances of points always embed (Schoenberg 1935): no draw is rejected.
    """
    squared = point_squared_distances(rng.standard_normal((n + 1, n)))
    return SimplexSpec.from_vector(n, (squared / np.median(squared)).tolist())


def basin_probe(
    target: FaceVolumeVector, num_starts: int, seed: int, tol: float = SOLVE_TOL
) -> list[SolveResult]:
    """Run seeded multi-start solves and cluster the converged solutions.

    Each solve runs at most PROBE_MAX_ITERS iterations.  Solutions whose sorted
    squared lengths differ by at most CLUSTER_TOL (sup norm) are one preimage;
    the first found of each is returned, in order.  ValueError for a target
    above MAX_JACOBIAN_N or of norm at most tol, which every start would match.
    """
    if num_starts < 1:
        raise ValueError(f"num_starts must be >= 1, got {num_starts}")
    check_jacobian_dimension(target.n)
    norm = float(np.linalg.norm(target.vector()))
    if norm <= tol:
        raise ValueError(
            f"target norm {norm:.3g} is at most the tolerance {tol:g}: every start would converge"
        )
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
