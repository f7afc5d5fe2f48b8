from fractions import Fraction
from math import comb

import numpy as np
import pytest

from facevol import (
    DegenerateFaceError,
    FaceVolumeVector,
    InverseProblem,
    RealizabilityError,
    SimplexSpec,
    StartDrawError,
    all_face_volumes,
    analytic_jacobian,
    basin_probe,
    build_pair,
    family_constants,
    is_realizable,
    k_subsets,
    lex_pairs,
    random_realizable_spec,
    regular_simplex,
    solve,
)
from conftest import perturbed_regular


def regular_target(n):
    return all_face_volumes(regular_simplex(n), n - 2)


def test_round_trip_zero_iterations():
    rng = np.random.default_rng(2)
    for n in (4, 5, 6):
        for _ in range(3):
            spec = perturbed_regular(n, rng)
            target = all_face_volumes(spec, n - 2)
            result = solve(InverseProblem(n=n, target=target, start=spec, tol=1e-12))
            assert result.converged
            assert result.iterations <= 1
            assert result.residual_norm <= 1e-12


def test_converges_from_perturbed_start():
    rng = np.random.default_rng(3)
    start = SimplexSpec.from_vector(4, (1 + rng.uniform(-0.01, 0.01, 10)).tolist())
    result = solve(InverseProblem(n=4, target=regular_target(4), start=start, tol=1e-10))
    assert result.converged
    assert np.abs(result.solution.vector() - 1.0).max() <= 1e-8


def test_recovers_both_preimages_from_nearby_starts():
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.minus.spec, 2)
    special = lex_pairs(4).index((4, 5))
    for t_start, t_expected in ((1.45, 1.5), (2.55, 2.5)):
        squared = np.ones(10)
        squared[special] = t_start
        start = SimplexSpec.from_vector(4, squared.tolist())
        result = solve(InverseProblem(n=4, target=target, start=start, tol=1e-10))
        assert result.converged
        assert result.residual_norm <= 1e-10
        assert result.solution.vector()[special] == pytest.approx(t_expected, abs=1e-8)


def test_zero_target_does_not_converge():
    target = FaceVolumeVector(4, 2, {key: 0.0 for key in k_subsets(4, 2)})
    result = solve(
        InverseProblem(n=4, target=target, start=regular_simplex(4), max_iters=50)
    )
    assert not result.converged


def test_start_must_be_realizable():
    lengths = {pair: 1.0 for pair in lex_pairs(3)}
    lengths[(3, 4)] = 10.0
    with pytest.raises(RealizabilityError):
        solve(InverseProblem(n=3, target=regular_target(3), start=SimplexSpec(3, lengths)))


def test_target_shape_validated():
    with pytest.raises(ValueError):
        solve(
            InverseProblem(
                n=4, target=regular_target(3), start=regular_simplex(4)
            )
        )


def test_residual_trajectory_monotone():
    rng = np.random.default_rng(8)
    start = SimplexSpec.from_vector(4, (1 + rng.uniform(-0.2, 0.2, 10)).tolist())
    result = solve(InverseProblem(n=4, target=regular_target(4), start=start))
    assert all(b <= a + 1e-15 for a, b in zip(result.trajectory, result.trajectory[1:]))


def test_basin_probe_finds_both_mirror_preimages():
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.minus.spec, 2)
    clusters = basin_probe(4, target, num_starts=50, seed=0)
    assert len(clusters) >= 2
    specials = sorted(np.sort(c.solution.vector())[-1] for c in clusters)
    assert any(abs(s - 1.5) <= 1e-6 for s in specials)
    assert any(abs(s - 2.5) <= 1e-6 for s in specials)


def test_basin_probe_on_other_mirror_target():
    # the target built from the plus instance has the same two preimages
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.plus.spec, 2)
    clusters = basin_probe(4, target, num_starts=20, seed=2)
    assert len(clusters) >= 2


def test_basin_probe_regular_target_single_cluster():
    clusters = basin_probe(4, regular_target(4), num_starts=20, seed=1)
    assert len(clusters) == 1
    assert np.abs(clusters[0].solution.vector() - 1.0).max() <= 1e-6


def test_basin_probe_single_start():
    clusters = basin_probe(4, regular_target(4), num_starts=1, seed=5)
    assert len(clusters) <= 1
    with pytest.raises(ValueError):
        basin_probe(4, regular_target(4), num_starts=0, seed=0)


def test_basin_probe_deterministic():
    target = regular_target(4)
    first = basin_probe(4, target, num_starts=8, seed=7)
    second = basin_probe(4, target, num_starts=8, seed=7)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.solution.vector(), b.solution.vector())
        assert a.residual_norm == b.residual_norm
        assert a.iterations == b.iterations


def test_result_serialization():
    from facevol import result_to_json

    spec = regular_simplex(4)
    result = solve(InverseProblem(n=4, target=regular_target(4), start=spec))
    data = result_to_json(result)
    assert data["n"] == 4
    assert data["converged"] is True
    assert data["iterations"] == 0
    assert data["residual"] <= 1e-12
    assert len(data["squared_lengths"]) == 10


def test_random_realizable_spec_is_seeded_and_in_range():
    rng = np.random.default_rng(0)
    spec = random_realizable_spec(4, rng)
    values = spec.vector()
    assert np.all(values >= 0.25) and np.all(values <= 4.0)
    rng2 = np.random.default_rng(0)
    assert np.array_equal(random_realizable_spec(4, rng2).vector(), values)


def reference_start(n, rng, max_tries=10000):
    """Per-draw reference: log-uniform squared lengths, Gram eigvalsh test."""
    low, high = np.log(0.25), np.log(4.0)
    for _ in range(max_tries):
        squared = np.exp(rng.uniform(low, high, size=comb(n + 1, 2)))
        q = dict(zip(lex_pairs(n), squared))
        q.update({(i, i): 0.0 for i in range(1, n + 2)})
        gram = np.array([
            [0.5 * (q[(1, i)] + q[(1, j)] - q[(min(i, j), max(i, j))]) for j in range(2, n + 2)]
            for i in range(2, n + 2)
        ])
        if np.linalg.eigvalsh(gram)[0] >= -1e-10 * max(float(np.trace(gram)), 1e-300):
            return squared
    raise AssertionError("reference found no realizable draw")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_random_realizable_spec_matches_reference_loop(n):
    # consecutive starts from one generator, as basin_probe draws them
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            spec = random_realizable_spec(n, rng)
            assert np.array_equal(spec.vector(), reference_start(n, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.uniform() == ref_rng.uniform()  # same number of draws consumed


def test_random_realizable_spec_failure_consumes_max_tries_draws():
    # 100 is not a multiple of the draw block; no draw embeds at n=6
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    with pytest.raises(StartDrawError, match="no realizable start in 100 draws"):
        random_realizable_spec(6, rng, max_tries=100)
    with pytest.raises(AssertionError):
        reference_start(6, ref_rng, max_tries=100)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_basin_probe_mirror_target_pinned_counts():
    # cluster count and per-cluster iterations of the minor-per-entry
    # Jacobian implementation; the batched kernel must not change them
    pair = build_pair(4, Fraction(1, 2))
    clusters = basin_probe(4, all_face_volumes(pair.minus.spec, 2), num_starts=20, seed=0)
    assert [c.iterations for c in clusters] == [6, 7]
    specials = [np.sort(c.solution.vector())[-1] for c in clusters]
    assert specials == pytest.approx([2.5, 1.5], abs=1e-8)


def reference_solve(problem):
    """Halve-and-retest Gauss-Newton with one spec per trial point.

    Returns (solution spec, trajectory, iterations, stop reason).
    """
    n = problem.n
    dim = comb(n + 1, 2)
    target = problem.target.vector()

    def evaluate(spec):
        values = all_face_volumes(spec, n - 2).vector()
        try:
            return values, analytic_jacobian(spec)
        except DegenerateFaceError:
            return values, None

    lengths = np.sqrt(problem.start.vector())
    spec = SimplexSpec.from_vector(n, np.maximum(lengths**2, 1e-9).tolist())
    values, jac = evaluate(spec)
    norm = float(np.linalg.norm(values - target))
    trajectory, mu, iterations, stop = [norm], problem.damping, 0, "max_iters"
    for _ in range(problem.max_iters):
        if norm <= problem.tol or jac is None:
            stop = "done"
            break
        normal = jac.T @ jac
        if mu <= 0.0:
            mu = 1e-3 * float(np.trace(normal)) / dim
        step = np.linalg.solve(normal + mu * np.eye(dim), jac.T @ (target - values))
        while np.linalg.norm(step) > 1e-15:
            trial = SimplexSpec.from_vector(n, np.maximum((lengths + step) ** 2, 1e-9).tolist())
            if is_realizable(trial):
                break
            step = step / 2.0
        if np.linalg.norm(step) <= 1e-15:
            stop = "stall"
            break
        trial_values, trial_jac = evaluate(trial)
        trial_norm = float(np.linalg.norm(trial_values - target))
        if trial_norm <= norm:
            lengths = np.sqrt(trial.vector())
            spec, values, jac, norm = trial, trial_values, trial_jac, trial_norm
            trajectory.append(norm)
            iterations += 1
            mu = mu / 10.0
        else:
            mu = mu * 10.0
            if mu > 1e12:
                stop = "damping"
                break
    return spec, trajectory, iterations, stop


def test_solve_matches_halve_and_retest_reference():
    # mirror pairs exist from n=4 on; at n=3 the target is the edge lengths
    stops = []
    for n in (3, 4, 5):
        targets = [all_face_volumes(regular_simplex(n), n - 2)]
        if n >= 4:
            x = float(family_constants(n).x_max) / 2
            targets.append(all_face_volumes(build_pair(n, x).minus.spec, n - 2))
        for target in targets:
            rng = np.random.default_rng(n)
            for _ in range(10):
                problem = InverseProblem(
                    n=n, target=target, start=random_realizable_spec(n, rng), max_iters=200
                )
                result = solve(problem)
                spec, trajectory, iterations, stop = reference_solve(problem)
                assert result.trajectory == trajectory
                assert result.iterations == iterations
                assert result.converged == (trajectory[-1] <= problem.tol)
                assert np.array_equal(result.solution.vector(), spec.vector())
                stops.append(stop)
    assert stops.count("stall") >= 5 and stops.count("done") >= 20
