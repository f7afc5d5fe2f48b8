import re
from itertools import combinations
from math import comb, factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import (
    DegenerateFaceError,
    RealizabilityError,
    SimplexSpec,
    all_face_volumes,
    analytic_jacobian,
    build_instance,
    build_kneser_adjacency,
    face_complement,
    family_constants,
    is_realizable,
    jacobian_rank,
    k_subsets,
    lex_pairs,
    regular_point_constants,
    regular_simplex,
    verify_regular_point,
    squared_volume,
    vertices_to_spec,
    volume_gradient,
)
from facevol import jacobian, kneser
from facevol.jacobian import RANK_THRESHOLD, point_jacobian, point_volumes
from facevol.simplex import ZERO_VOLUME_REL_TOL, face_stack, face_vertices, volume_scales
from conftest import FLAT_4_SIMPLEX, perturbed_regular
from oracles import BoundaryError, euler_identity_check, fd_jacobian, minor_gradient, minor_jacobian


def test_regular_point_constants():
    c4 = regular_point_constants(4)
    assert c4.nu == pytest.approx(sqrt(3) / 4, rel=1e-15)
    assert c4.scale == pytest.approx(1 / (2 * sqrt(3)), rel=1e-15)
    # closed form 1/((n-2)! sqrt(n-1) 2^((n-4)/2)) against 2*nu/(n-1)
    for n in range(3, 11):
        c = regular_point_constants(n)
        closed = 1 / (factorial(n - 2) * sqrt(n - 1) * 2 ** ((n - 4) / 2))
        assert c.scale == pytest.approx(closed, rel=1e-14)
    assert regular_point_constants(3).scale == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        regular_point_constants(2)


def test_jacobian_regular_n4_entries():
    jac = analytic_jacobian(regular_simplex(4))
    pattern = build_kneser_adjacency(4, 2).matrix
    nonzero = jac[pattern == 1]
    assert nonzero == pytest.approx(np.full(30, 1 / (2 * sqrt(3))), rel=1e-12)
    assert np.all(jac[pattern == 0] == 0.0)
    assert jac == pytest.approx(jac.T, abs=1e-15)  # constant times a symmetric matrix


def test_jacobian_n3_is_matching_pattern():
    # 1-face volumes are the edge lengths themselves: derivative 1 on the
    # complementary edge, 0 elsewhere
    jac = analytic_jacobian(regular_simplex(3))
    pattern = build_kneser_adjacency(3, 2).matrix.astype(float)
    assert jac == pytest.approx(pattern, abs=1e-12)


def test_sparsity_is_exact_on_random_spec():
    spec = perturbed_regular(5, np.random.default_rng(0))
    jac = analytic_jacobian(spec)
    keys = k_subsets(5, 2)
    edges = lex_pairs(5)
    for row, key in enumerate(keys):
        face = set(face_complement(5, key))
        for col, edge in enumerate(edges):
            if not set(edge) <= face:
                assert jac[row, col] == 0.0
            else:
                assert jac[row, col] != 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=16))
def test_jacobian_index_is_lex_pair_indices(n):
    rows, cols = jacobian._jacobian_index(n)
    assert not rows.flags.writeable and not cols.flags.writeable
    index = {pair: m for m, pair in enumerate(lex_pairs(n))}
    faces = [face_complement(n, key) for key in k_subsets(n, 2)]
    assert rows.tolist() == [[row] * comb(n - 1, 2) for row in range(len(faces))]
    assert cols.tolist() == [[index[pair] for pair in combinations(face, 2)] for face in faces]


def test_fd_agreement_random_n5():
    spec = perturbed_regular(5, np.random.default_rng(1))
    assert np.abs(fd_jacobian(spec, 1e-6) - analytic_jacobian(spec)).max() <= 1e-6


def test_fd_agreement_regular_n4():
    spec = regular_simplex(4)
    fd = fd_jacobian(spec, 1e-6)
    assert np.abs(fd - analytic_jacobian(spec)).max() <= 1e-6
    # a face volume does not move with a non-incident edge, so the central
    # difference is exactly zero there: fd sparsity equals the incidence pattern
    pattern = build_kneser_adjacency(4, 2).matrix
    assert np.all(fd[pattern == 0] == 0.0)
    assert np.all(fd[pattern == 1] != 0.0)


def test_fd_second_order_convergence():
    for n in (4, 5, 6):
        spec = perturbed_regular(n, np.random.default_rng(n), spread=0.05)
        jac = analytic_jacobian(spec)
        errs = [np.abs(fd_jacobian(spec, h) - jac).max() for h in (1e-3, 1e-4, 1e-5)]
        assert 30 < errs[0] / errs[1] < 300  # second order: factor ~100
        assert errs[2] < errs[1]
    # n=3 is linear, so central differences are exact up to round-off
    spec3 = perturbed_regular(3, np.random.default_rng(3))
    jac3 = analytic_jacobian(spec3)
    assert all(
        np.abs(fd_jacobian(spec3, h) - jac3).max() <= 1e-10 for h in (1e-3, 1e-4, 1e-5)
    )


def test_fd_step_validation():
    with pytest.raises(ValueError):
        fd_jacobian(regular_simplex(4), 0.0)
    with pytest.raises(ValueError):
        fd_jacobian(regular_simplex(4), -1e-6)


def test_fd_boundary_error():
    # t just inside the admissible interval: a coarse step walks outside
    upper = float(family_constants(4).t_upper)
    spec = build_instance(4, upper - 1e-6).spec
    with pytest.raises(BoundaryError):
        fd_jacobian(spec, 0.05)


@pytest.mark.parametrize("n, bound", [(4, 1e-10), (8, 1e-9), (3, 1e-12)])
def test_regular_point_identity(n, bound):
    report = verify_regular_point(n, tol=bound)
    assert report["max_abs_deviation"] <= bound
    assert report["passed"]
    assert report["rank"] == comb(n + 1, 2)


@pytest.mark.parametrize("n", range(3, 13))
def test_regular_point_report_matches_full_matrix_oracle(n):
    # the whole Jacobian against constant * adjacency, and its float SVD
    report = verify_regular_point(n)
    jac = analytic_jacobian(regular_simplex(n))
    pattern = build_kneser_adjacency(n, 2).matrix
    assert np.abs(jac - report["constant"] * pattern).max() == report["max_abs_deviation"]
    svals = np.linalg.svd(jac, compute_uv=False)
    assert int(np.sum(svals > RANK_THRESHOLD * svals[0])) == report["rank"]
    assert report["sv_ratio"] == pytest.approx(svals[-1] / svals[0], rel=1e-11, abs=0)


def test_regular_point_builds_no_matrix(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("the regular-point certificate built a full matrix")

    monkeypatch.setattr(jacobian, "analytic_jacobian", no_matrix)
    monkeypatch.setattr(kneser, "build_kneser_adjacency", no_matrix)
    monkeypatch.setattr(np.linalg, "svd", no_matrix)
    for n in range(3, 21):
        report = verify_regular_point(n)
        assert report["passed"] and report["rank"] == comb(n + 1, 2)


def test_regular_point_builds_no_spec(monkeypatch):
    expected = {n: verify_regular_point(n) for n in (3, 10, 93)}

    def no_spec(self):
        raise AssertionError("the regular-point certificate built a SimplexSpec")

    monkeypatch.setattr(SimplexSpec, "__post_init__", no_spec)
    for n, report in expected.items():
        assert verify_regular_point(n) == report and report["passed"]


@pytest.mark.parametrize("n, factor", [(13, 0.0), (4, 1 + 1e-6)])
def test_regular_point_rejects_wrong_gradient(monkeypatch, n, factor):
    # at n = 13 the constant is below 1e-9, so a zero gradient is within an
    # absolute tolerance: the check must be relative to the constant
    gradients = jacobian._gradients
    monkeypatch.setattr(jacobian, "_gradients", lambda *args: factor * gradients(*args))
    assert verify_regular_point(n)["passed"] is False


def test_euler_identity_regular_n4():
    assert euler_identity_check(regular_simplex(4), 2) <= 1e-12


def test_euler_identity_random():
    rng = np.random.default_rng(9)
    spec = perturbed_regular(5, rng)
    scale = all_face_volumes(spec, 3).vector().max()
    assert euler_identity_check(spec, 3) <= 1e-10 * scale


def test_euler_identity_linear_faces_exact():
    assert euler_identity_check(regular_simplex(3), 1) == 0.0


def test_euler_identity_face_dim_validation():
    with pytest.raises(ValueError):
        euler_identity_check(regular_simplex(4), 0)
    with pytest.raises(ValueError):
        euler_identity_check(regular_simplex(4), 5)


def test_rank_regular_n4():
    rank, ratio = jacobian_rank(regular_simplex(4))
    assert rank == 10
    assert ratio >= 1e-3
    # J = c*M with |eigenvalues| {3, 2, 1}: ratio is exactly 1/3
    assert ratio == pytest.approx(1 / 3, rel=1e-10)


def test_rank_regular_n6():
    rank, _ = jacobian_rank(regular_simplex(6))
    assert rank == 21


def test_jacobian_dimension_limit_boundary(monkeypatch):
    monkeypatch.setattr(jacobian, "MAX_JACOBIAN_N", 5)
    assert analytic_jacobian(regular_simplex(5)).shape == (15, 15)
    monkeypatch.setattr(jacobian, "is_realizable", None)  # refused before the Gram test
    with pytest.raises(ValueError, match="^jacobian dimension 6 is above the limit of 5$"):
        jacobian_rank(regular_simplex(6))


def test_stretched_direction_is_singular_at_t0():
    # the volume of every codimension-2 face is stationary in t at t0
    constants = family_constants(4)
    jac = analytic_jacobian(build_instance(4, constants.t0).spec)
    column = lex_pairs(4).index((4, 5))
    assert np.abs(jac[:, column]).max() <= 1e-12


def test_degenerate_face_raises():
    pts = np.random.default_rng(3).normal(size=(5, 4))
    pts[4] = pts[1]
    spec = vertices_to_spec(pts)
    for check in (analytic_jacobian, lambda spec: euler_identity_check(spec, 2)):
        with pytest.raises(DegenerateFaceError, match=r"^face \([\d, ]+\) is degenerate$") as info:
            check(spec)
        face = str(info.value).removeprefix("face (").removesuffix(") is degenerate")
        assert {2, 5} <= {int(v) for v in face.split(", ")}


@pytest.mark.parametrize("n", range(3, 8))
def test_volume_gradient_matches_minor_and_central_differences_for_every_face_size(n):
    # a face of each size 2..n+1: the closed form from H^-1 against one
    # Cayley-Menger minor per entry, and against central differences of the
    # face's volume in each of its edge lengths
    rng = np.random.default_rng(500 + n)
    spec = perturbed_regular(n, rng)
    step = 1e-6
    for size in range(2, n + 2):
        face = tuple(sorted(rng.choice(np.arange(1, n + 2), size, replace=False).tolist()))
        gradient, reference = volume_gradient(spec, face), minor_gradient(spec, face)
        assert list(gradient) == list(reference) == list(combinations(face, 2))
        got, want = np.array(list(gradient.values())), np.array(list(reference.values()))
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
        for (i, j), value in gradient.items():
            lengths = dict(spec.squared_lengths)
            length = sqrt(lengths[i, j])
            volumes = []
            for h in (step, -step):
                lengths[i, j] = (length + h) ** 2
                volumes.append(sqrt(squared_volume(SimplexSpec(n, lengths), face)))
            assert abs((volumes[0] - volumes[1]) / (2 * step) - value) <= 1e-6


def test_volume_gradient_refuses_a_face_with_coincident_vertices():
    points = np.random.default_rng(3).normal(size=(6, 5))
    points[5] = points[1]  # vertices 2 and 6 coincide
    spec = vertices_to_spec(points)
    for face in ((2, 6), (1, 2, 6), (2, 3, 4, 6), (1, 2, 3, 4, 5, 6)):
        message = rf"^face {re.escape(str(face))} is degenerate$"
        with pytest.raises(DegenerateFaceError, match=message):
            volume_gradient(spec, face)
    assert volume_gradient(spec, (1, 2, 3))  # a face without both is fine


@pytest.mark.parametrize("n", range(4, 11))
def test_analytic_jacobian_matches_minor_reference(n):
    spec = perturbed_regular(n, np.random.default_rng(300 + n))
    reference = minor_jacobian(spec)
    assert np.abs(analytic_jacobian(spec) - reference).max() <= 1e-12 * np.abs(reference).max()
    assert np.array_equal(analytic_jacobian(spec) != 0, reference != 0)


def spec_volumes_and_jacobian(n, squared):
    """Face volumes and Jacobian (None at a degenerate face) through a spec."""
    spec = SimplexSpec.from_vector(n, squared.tolist())
    values = all_face_volumes(spec, n - 2).vector()
    try:
        return values, analytic_jacobian(spec)
    except DegenerateFaceError:
        return values, None


@pytest.mark.parametrize("n", range(3, 7))
def test_point_kernel_matches_spec_path_bit_for_bit(n):
    rng = np.random.default_rng(400 + n)
    specs = [perturbed_regular(n, rng, spread) for spread in (0.1, 0.3, 0.5) for _ in range(3)]
    points = [spec.vector() for spec in specs if is_realizable(spec)]
    assert len(points) >= 5
    pts = rng.normal(size=(n + 1, n))
    pts[n] = pts[1]  # vertices 2 and n+1 coincide: every face holding both is degenerate
    points.append(vertices_to_spec(pts).vector())
    for squared in points:
        values, stack = point_volumes(n, squared)
        jac = point_jacobian(n, stack, values)
        ref_values, ref_jac = spec_volumes_and_jacobian(n, squared)
        assert np.array_equal(values, ref_values)
        assert (jac is None) == (ref_jac is None)
        if jac is not None:
            assert np.array_equal(jac, ref_jac)
    assert jac is None  # the degenerate point


def test_negative_face_is_named_the_same_way_by_every_kernel():
    # the Gram test accepts the flat 4-simplex within its tolerance, but its
    # triangle (1, 2, 3) has a negative squared volume beyond round-off
    spec = SimplexSpec.from_vector(4, FLAT_4_SIMPLEX)
    certificate = is_realizable(spec)
    assert certificate and -certificate.tolerance < certificate.min_eigenvalue < 0
    message = r"^face \(1, 2, 3\) has negative squared volume -"
    for compute in (
        lambda: all_face_volumes(spec, 2),
        lambda: analytic_jacobian(spec),
        lambda: euler_identity_check(spec, 2),
    ):
        with pytest.raises(RealizabilityError, match=message):
            compute()


def test_round_off_volume_of_a_collinear_face_is_kept_and_refused_by_the_jacobian():
    # vertices 1, 2, 3 on a line: the float squared volume of their triangle is
    # positive round-off, reported as a tiny volume but degenerate for a gradient
    points = [[0, 0, 0, 0], [1, 0, 0, 0], [1.1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    spec = vertices_to_spec(points)
    assert is_realizable(spec)
    value = all_face_volumes(spec, 2).values[(4, 5)]  # the face keyed by (4, 5) is (1, 2, 3)
    stack, _ = face_stack(spec, face_vertices(4, 2))
    assert 0 < value**2 <= ZERO_VOLUME_REL_TOL * volume_scales(stack)[-1]
    with pytest.raises(DegenerateFaceError, match=r"^face \(1, 2, 3\) is degenerate$"):
        analytic_jacobian(spec)
