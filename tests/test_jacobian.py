from itertools import combinations
from math import comb, factorial, sqrt

import numpy as np
import pytest

from facevol import (
    BoundaryError,
    DegenerateFaceError,
    SimplexSpec,
    all_face_volumes,
    analytic_jacobian,
    build_cm_matrix,
    build_instance,
    build_kneser_adjacency,
    euler_identity_check,
    face_complement,
    family_constants,
    fd_jacobian,
    is_realizable,
    jacobian_rank,
    k_subsets,
    lex_pairs,
    regular_point_constants,
    regular_simplex,
    verify_regular_point,
    vertices_to_spec,
)
from facevol import jacobian, kneser
from facevol.jacobian import DEFAULT_RANK_THRESHOLD, point_jacobian, point_volumes
from conftest import perturbed_regular


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
    assert int(np.sum(svals > DEFAULT_RANK_THRESHOLD * svals[0])) == report["rank"]
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
    with pytest.raises(DegenerateFaceError) as excinfo:
        analytic_jacobian(spec)
    assert {2, 5} <= set(excinfo.value.face)
    with pytest.raises(DegenerateFaceError) as excinfo:
        euler_identity_check(spec, 2)
    assert {2, 5} <= set(excinfo.value.face)


def minor_jacobian(spec):
    """Reference Jacobian: one determinant minor per entry (cofactor rule)."""
    n = spec.n
    edges = lex_pairs(n)
    jac = np.zeros((len(edges), len(edges)))
    for row, key in enumerate(k_subsets(n, 2)):
        face = face_complement(n, key)
        m = len(face) - 1
        cm = build_cm_matrix(spec, face).astype(float)
        prefactor = (-1) ** (m + 1) / (2**m * factorial(m) ** 2)
        vol = sqrt(prefactor * np.linalg.det(cm))
        for a, b in combinations(range(1, m + 2), 2):
            minor = np.delete(np.delete(cm, a, axis=0), b, axis=1)
            cof = (-1) ** (a + b) * np.linalg.det(minor)
            i, j = face[a - 1], face[b - 1]
            jac[row, edges.index((i, j))] = 2.0 * prefactor * cof * sqrt(spec.edge(i, j)) / vol
    return jac


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
        values, cm = point_volumes(n, squared)
        jac = point_jacobian(n, *cm)
        ref_values, ref_jac = spec_volumes_and_jacobian(n, squared)
        assert np.array_equal(values, ref_values)
        assert (jac is None) == (ref_jac is None)
        if jac is not None:
            assert np.array_equal(jac, ref_jac)
    assert jac is None  # the degenerate point
