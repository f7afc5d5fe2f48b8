from fractions import Fraction
from math import comb, inf

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
from facevol import inverse
from conftest import perturbed_regular


def regular_target(n):
    return all_face_volumes(regular_simplex(n), n - 2)


def test_round_trip_zero_iterations():
    rng = np.random.default_rng(2)
    for n in (4, 5, 6):
        for _ in range(3):
            spec = perturbed_regular(n, rng)
            target = all_face_volumes(spec, n - 2)
            result = solve(InverseProblem(target=target, start=spec, tol=1e-12))
            assert result.converged
            assert result.iterations <= 1
            assert result.residual_norm <= 1e-12


def test_converges_from_perturbed_start():
    rng = np.random.default_rng(3)
    start = SimplexSpec.from_vector(4, (1 + rng.uniform(-0.01, 0.01, 10)).tolist())
    result = solve(InverseProblem(target=regular_target(4), start=start, tol=1e-10))
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
        result = solve(InverseProblem(target=target, start=start, tol=1e-10))
        assert result.converged
        assert result.residual_norm <= 1e-10
        assert result.solution.vector()[special] == pytest.approx(t_expected, abs=1e-8)


def test_zero_target_does_not_converge():
    target = FaceVolumeVector(4, 2, {key: 0.0 for key in k_subsets(4, 2)})
    result = solve(
        InverseProblem(target=target, start=regular_simplex(4), max_iters=50)
    )
    assert not result.converged
    assert result.stop_reason == "degenerate_face"


def test_start_must_be_realizable():
    lengths = {pair: 1.0 for pair in lex_pairs(3)}
    lengths[(3, 4)] = 10.0
    with pytest.raises(RealizabilityError):
        solve(InverseProblem(target=regular_target(3), start=SimplexSpec(3, lengths)))


def test_target_shape_validated():
    with pytest.raises(ValueError):
        solve(InverseProblem(target=regular_target(3), start=regular_simplex(4)))
    not_codim_2 = all_face_volumes(regular_simplex(4), 1)
    with pytest.raises(ValueError, match="target must hold the 10 face volumes of dimension 2"):
        solve(InverseProblem(target=not_codim_2, start=regular_simplex(4)))


@pytest.mark.parametrize("start_n", [3, 5])
def test_start_of_other_dimension_is_value_error(start_n):
    # a 3-simplex start used to index past its 6 lengths, a 5-simplex one to fail a broadcast
    message = f"start must be a 4-simplex like the target, got n={start_n}"
    with pytest.raises(ValueError, match=message):
        solve(InverseProblem(target=regular_target(4), start=regular_simplex(start_n)))


def test_residual_trajectory_monotone():
    rng = np.random.default_rng(8)
    start = SimplexSpec.from_vector(4, (1 + rng.uniform(-0.2, 0.2, 10)).tolist())
    result = solve(InverseProblem(target=regular_target(4), start=start))
    assert all(b <= a + 1e-15 for a, b in zip(result.trajectory, result.trajectory[1:]))


def test_basin_probe_finds_both_mirror_preimages():
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.minus.spec, 2)
    clusters = basin_probe(target, num_starts=50, seed=0)
    assert len(clusters) >= 2
    specials = sorted(np.sort(c.solution.vector())[-1] for c in clusters)
    assert any(abs(s - 1.5) <= 1e-6 for s in specials)
    assert any(abs(s - 2.5) <= 1e-6 for s in specials)


def test_basin_probe_on_other_mirror_target():
    # the target built from the plus instance has the same two preimages
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.plus.spec, 2)
    clusters = basin_probe(target, num_starts=20, seed=2)
    assert len(clusters) >= 2


def test_basin_probe_regular_target_single_cluster():
    clusters = basin_probe(regular_target(4), num_starts=20, seed=1)
    assert len(clusters) == 1
    assert np.abs(clusters[0].solution.vector() - 1.0).max() <= 1e-6


def test_basin_probe_single_start():
    clusters = basin_probe(regular_target(4), num_starts=1, seed=5)
    assert len(clusters) <= 1
    with pytest.raises(ValueError):
        basin_probe(regular_target(4), num_starts=0, seed=0)


def test_basin_probe_deterministic():
    target = regular_target(4)
    first = basin_probe(target, num_starts=8, seed=7)
    second = basin_probe(target, num_starts=8, seed=7)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.solution.vector(), b.solution.vector())
        assert a.residual_norm == b.residual_norm
        assert a.iterations == b.iterations


def test_result_serialization():
    from facevol import result_to_json

    spec = regular_simplex(4)
    result = solve(InverseProblem(target=regular_target(4), start=spec))
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


@pytest.mark.parametrize("seed, starts", [(63, 1), (89, 1), (105, 2), (170, 2)])
def test_random_realizable_spec_matches_reference_loop_at_6(seed, starts):
    # about 1 in 30,000 draws embeds at n=6; these seeds hit at draws 255 (the
    # last row of the first block), 91, 579 and 960, and 1567 and 2348
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(starts):
        spec = random_realizable_spec(6, rng)
        assert np.array_equal(spec.vector(), reference_start(6, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.uniform() == ref_rng.uniform()


def test_random_realizable_spec_failure_consumes_max_tries_draws(monkeypatch):
    # 300 draws fill one block and part of a second; no draw embeds at n=6
    assert inverse.START_BLOCK < 300 and 300 % inverse.START_BLOCK
    monkeypatch.setattr(inverse, "MAX_START_DRAWS", 300)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    with pytest.raises(StartDrawError, match="no realizable start in 300 draws"):
        random_realizable_spec(6, rng)
    with pytest.raises(AssertionError):
        reference_start(6, ref_rng, max_tries=300)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_basin_probe_mirror_target_pinned_counts():
    # cluster count and per-cluster iterations of the minor-per-entry
    # Jacobian implementation; the batched kernel must not change them
    pair = build_pair(4, Fraction(1, 2))
    clusters = basin_probe(all_face_volumes(pair.minus.spec, 2), num_starts=20, seed=0)
    assert [c.iterations for c in clusters] == [6, 7]
    specials = [np.sort(c.solution.vector())[-1] for c in clusters]
    assert specials == pytest.approx([2.5, 1.5], abs=1e-8)


def reference_solve(problem, max_halvings=None):
    """Halve-and-retest Gauss-Newton with one spec per trial point.

    A step is halved at most max_halvings times (None: down to the 1e-15
    stall).  Returns (solution spec, trajectory, iterations, stop reason).
    """
    n = problem.target.n
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
    trajectory, mu, iterations, stop = [norm], 0.0, 0, "max_iters"
    bound = inf if max_halvings is None else max_halvings
    for _ in range(problem.max_iters):
        if norm <= problem.tol or jac is None:
            stop = "done"
            break
        normal = jac.T @ jac
        if mu <= 0.0:
            mu = 1e-3 * float(np.trace(normal)) / dim
        step = np.linalg.solve(normal + mu * np.eye(dim), jac.T @ (target - values))
        trial, halvings = None, 0
        while np.linalg.norm(step) > 1e-15 and halvings <= bound:
            candidate = SimplexSpec.from_vector(
                n, np.maximum((lengths + step) ** 2, 1e-9).tolist()
            )
            if is_realizable(candidate):
                trial = candidate
                break
            step, halvings = step / 2.0, halvings + 1
        if trial is None:
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
                    target=target, start=random_realizable_spec(n, rng), max_iters=200
                )
                result = solve(problem)
                spec, trajectory, iterations, stop = reference_solve(problem, max_halvings=20)
                assert result.trajectory == trajectory
                assert result.iterations == iterations
                assert result.converged == (trajectory[-1] <= problem.tol)
                assert np.array_equal(result.solution.vector(), spec.vector())
                assert result.stop_reason == reference_stop_reason(stop, result.converged)
                stops.append(stop)
    assert stops.count("stall") >= 5 and stops.count("done") >= 20


def test_halving_bound_loses_no_preimage():
    # uncapped halving reaches the same preimages: converging starts never go 20 deep
    converged = stalled = 0
    for n in (4, 5):
        x_max = float(family_constants(n).x_max)
        for index, fraction in enumerate((0.25, 0.5, 0.75)):
            target = all_face_volumes(build_pair(n, fraction * x_max).minus.spec, n - 2)
            rng = np.random.default_rng(10 * n + index)
            for _ in range(10):
                problem = InverseProblem(
                    target=target, start=random_realizable_spec(n, rng), max_iters=200
                )
                result = solve(problem)
                spec, trajectory, iterations, _ = reference_solve(problem)
                assert result.converged == (trajectory[-1] <= problem.tol)
                if result.converged:
                    assert np.array_equal(result.solution.vector(), spec.vector())
                    assert result.iterations == iterations
                    converged += 1
                stalled += result.stop_reason == "step_stall"
    assert converged >= 20 and stalled >= 5


def reference_stop_reason(stop, converged):
    """reference_solve's stop as a SolveResult.stop_reason.

    A solve that converges on its last allowed round stops as converged.
    """
    if converged:
        return "converged"
    return {"done": "degenerate_face", "stall": "step_stall",
            "damping": "damping_overflow", "max_iters": "max_iters"}[stop]


def test_stop_reason_at_iteration_limit():
    # from this start the solve converges in 6 rounds, none rejected
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.minus.spec, 2)
    start = random_realizable_spec(4, np.random.default_rng(0))
    for max_iters, reason in ((0, "max_iters"), (5, "max_iters"), (6, "converged")):
        result = solve(InverseProblem(target=target, start=start, max_iters=max_iters))
        assert result.stop_reason == reason
        assert result.iterations == max_iters
        assert result.converged == (reason == "converged")


def test_gram_rows_pinned_for_mirror_target(eigvalsh_rows):
    # a mirror-target solve that stalls: its backtracking reaches the third
    # block, and the 20-halving bound keeps it from a fourth
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.minus.spec, 2)
    start = random_realizable_spec(4, np.random.default_rng(1))
    eigvalsh_rows.clear()  # the start draw's tests
    result = solve(InverseProblem(target=target, start=start))
    assert (result.stop_reason, result.iterations) == ("step_stall", 11)
    assert result.gram_rows == sum(eigvalsh_rows) == 205
    assert max(eigvalsh_rows) <= 16  # no block past the third (1 + 4 + 16 = 21 halvings)


def test_stop_reason_damping_overflow(monkeypatch):
    # every trial after the start is worse, so each round rejects and damps 10x more
    point_volumes = inverse.point_volumes
    calls = []

    def worse_after_start(*args):
        values, cm = point_volumes(*args)
        calls.append(None)
        return (values if len(calls) == 1 else values + 1e3), cm

    monkeypatch.setattr(inverse, "point_volumes", worse_after_start)
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.minus.spec, 2)
    result = solve(InverseProblem(target=target, start=regular_simplex(4)))
    assert result.stop_reason == "damping_overflow"
    assert result.iterations == 0 and not result.converged
    assert result.trajectory == [result.residual_norm]
    assert len(calls) > 2  # the start and several rejected trials


def test_rejected_trials_compute_no_inverse(monkeypatch):
    calls = {"inv": 0, "volumes": 0}
    inv, point_volumes = np.linalg.inv, inverse.point_volumes

    def counting_inv(a):
        calls["inv"] += 1
        return inv(a)

    def counting_volumes(*args):
        calls["volumes"] += 1
        return point_volumes(*args)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(inverse, "point_volumes", counting_volumes)
    x = float(family_constants(5).x_max) / 2
    target = all_face_volumes(build_pair(5, x).minus.spec, 3)
    start = random_realizable_spec(5, np.random.default_rng(1))
    result = solve(InverseProblem(target=target, start=start))
    assert result.converged
    assert calls["volumes"] - 1 - result.iterations == 6  # rejected trials
    assert calls["inv"] == 1 + result.iterations  # the start and each accepted trial
