from fractions import Fraction
from math import comb, inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import (
    DegenerateFaceError,
    FaceVolumeVector,
    InverseProblem,
    RealizabilityError,
    SimplexSpec,
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
from facevol import inverse, jacobian
from facevol.simplex import first_realizable
from conftest import SINGULAR_STEP_START, SINGULAR_STEP_TARGET, perturbed_regular


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
    clusters = basin_probe(target, num_starts=50, seed=2)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2**32 - 1))
def test_random_realizable_spec_is_seeded_with_median_one_and_embeds(n, seed):
    spec = random_realizable_spec(n, np.random.default_rng(seed))
    values = spec.vector()
    assert np.array_equal(random_realizable_spec(n, np.random.default_rng(seed)).vector(), values)
    assert np.median(values) == pytest.approx(1.0, rel=1e-14)
    # solve's start check: the lengths squared again, floored, and Gram-tested
    squared = inverse._squared(np.sqrt(values))
    assert first_realizable(n, squared[None]) == (0, 1)


@pytest.mark.parametrize("n", [6, 7])
def test_basin_probe_finds_a_preimage_at_6_and_7(n):
    # every start embeds, whatever n; volumes are checked through the spec path
    target = all_face_volumes(build_pair(n, float(family_constants(n).x_max) / 2).minus.spec, n - 2)
    clusters = basin_probe(target, num_starts=10, seed=0)
    assert clusters
    for cluster in clusters:
        values = all_face_volumes(cluster.solution, n - 2).vector()
        assert np.linalg.norm(values - target.vector()) <= inverse.SOLVE_TOL


def test_basin_probe_refuses_a_target_above_the_jacobian_dimension_limit(monkeypatch):
    monkeypatch.setattr(jacobian, "MAX_JACOBIAN_N", 5)
    assert len(basin_probe(regular_target(5), num_starts=1, seed=0)) == 1
    monkeypatch.setattr(inverse, "solve", None)  # refused before any start is drawn
    with pytest.raises(ValueError, match="^jacobian dimension 6 is above the limit of 5$"):
        basin_probe(regular_target(6), num_starts=1, seed=0)


def test_basin_probe_refuses_a_target_within_the_tolerance(monkeypatch):
    # the regular 15-simplex's 120 volumes of dimension 13 have norm 7.3e-11:
    # every start would count as converged after 0 iterations
    target = regular_target(15)
    with pytest.raises(ValueError, match="^target norm 7.27e-11 is at most the tolerance 1e-10: "):
        basin_probe(target, num_starts=3, seed=0)
    target = regular_target(4)
    norm = float(np.linalg.norm(target.vector()))
    assert basin_probe(target, num_starts=1, seed=0, tol=np.nextafter(norm, 0))
    monkeypatch.setattr(inverse, "solve", None)  # refused before any start is drawn
    with pytest.raises(ValueError, match="^target norm .* every start would converge$"):
        basin_probe(target, num_starts=1, seed=0, tol=norm)


def test_basin_probe_mirror_target_pinned_counts():
    # cluster count, per-cluster iterations and discovery order from the
    # point-drawn starts of seed 0; a change to the solver must not move them
    pair = build_pair(4, Fraction(1, 2))
    clusters = basin_probe(all_face_volumes(pair.minus.spec, 2), num_starts=20, seed=0)
    assert [c.iterations for c in clusters] == [7, 7]
    specials = [np.sort(c.solution.vector())[-1] for c in clusters]
    assert specials == pytest.approx([1.5, 2.5], abs=1e-8)


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
    start = SimplexSpec.from_vector(4, [
        1.2193559408175352, 0.6102522288326675, 1.2988187534981954, 0.6380073290522675,
        0.7404509127221259, 2.9507821386253448, 0.4693156171858172, 1.4071231318860635,
        0.31557643281945197, 2.5150317112091183,
    ])
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
    start = SimplexSpec.from_vector(4, [
        0.5955074390040954, 1.2369600144624109, 3.6980376230219583, 2.141551749587279,
        2.241610770385878, 2.0520615472146835, 1.3085335567266225, 3.183842630285077,
        1.6917549640398706, 1.0009887243072404,
    ])
    eigvalsh_rows.clear()  # the Gram tests of build_pair and all_face_volumes
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
    start = SimplexSpec.from_vector(5, [
        0.319346393287435, 0.32751426846484616, 1.2651751263786597, 0.3534468840262511,
        1.2157223112136195, 0.609603733721746, 1.3069278094375196, 0.4870515021001123,
        1.8239505579595152, 1.4051315711357126, 0.6465265936446333, 0.8006804348538005,
        1.4058487406585432, 2.968606780734327, 0.7887677395713256,
    ])
    result = solve(InverseProblem(target=target, start=start))
    assert result.converged
    assert calls["volumes"] - 1 - result.iterations == 6  # rejected trials
    assert calls["inv"] == 1 + result.iterations  # the start and each accepted trial


def test_singular_damped_system_is_a_rejected_trial(monkeypatch):
    singular = []
    solve_system = np.linalg.solve

    def recording(a, b):
        try:
            return solve_system(a, b)
        except np.linalg.LinAlgError:
            singular.append(len(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    target = all_face_volumes(SimplexSpec.from_vector(4, SINGULAR_STEP_TARGET), 2)
    start = SimplexSpec.from_vector(4, SINGULAR_STEP_START)
    for max_iters in (100, 200):
        singular.clear()
        result = solve(InverseProblem(target=target, start=start, max_iters=max_iters))
        assert (result.stop_reason, result.iterations) == ("step_stall", 32)
        assert singular == [10]  # the solve met one singular damped system and went on


def test_damping_overflows_when_every_damped_system_is_singular(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    target = all_face_volumes(build_pair(4, Fraction(1, 2)).minus.spec, 2)
    result = solve(InverseProblem(target=target, start=regular_simplex(4)))
    assert (result.stop_reason, result.iterations, result.gram_rows) == ("damping_overflow", 0, 1)
