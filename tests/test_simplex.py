import json
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import numpy as np
import pytest

from facevol import (
    RealizabilityError,
    SimplexSpec,
    all_face_volumes,
    build_cm_matrix,
    build_instance,
    face_complement,
    is_realizable,
    k_subsets,
    lex_pairs,
    regular_simplex,
    relabel,
    spec_from_json,
    spec_to_json,
    squared_volume,
    vertices_to_spec,
)
from conftest import coordinate_volume_sq, perturbed_regular


def test_cm_matrix_345_triangle():
    spec = SimplexSpec.from_vector(2, [9, 16, 25])
    cm = build_cm_matrix(spec, (1, 2, 3))
    assert cm.shape == (4, 4)
    assert all(cm[i, i] == 0 for i in range(4))
    assert all(cm[0, j] == 1 and cm[j, 0] == 1 for j in range(1, 4))
    assert (cm[1, 2], cm[1, 3], cm[2, 3]) == (9, 16, 25)
    assert np.array_equal(cm, cm.T)


def test_cm_matrix_regular_tetrahedron():
    cm = build_cm_matrix(regular_simplex(3), (1, 2, 3, 4))
    assert cm.shape == (5, 5)
    for a in range(1, 5):
        for b in range(1, 5):
            assert cm[a, b] == (0 if a == b else 1)


def test_cm_matrix_face_restriction():
    # 3-vertex face of a 4-simplex: order is m+2 = 4, entries only from the face
    spec = SimplexSpec.from_vector(4, list(range(1, 11)))
    cm = build_cm_matrix(spec, (1, 2, 3))
    assert cm.shape == (4, 4)
    assert cm[1, 2] == spec.edge(1, 2)
    assert cm[1, 3] == spec.edge(1, 3)
    assert cm[2, 3] == spec.edge(2, 3)


def test_cm_matrix_unknown_vertex():
    with pytest.raises(IndexError):
        build_cm_matrix(regular_simplex(3), (1, 5))


def test_squared_volume_345_heron():
    a, b, c = 3.0, 4.0, 5.0
    s = (a + b + c) / 2
    heron = s * (s - a) * (s - b) * (s - c)
    spec = SimplexSpec.from_vector(2, [a**2, b**2, c**2])
    assert float(squared_volume(spec, (1, 2, 3))) == pytest.approx(heron, rel=1e-14)
    # integer inputs take the exact path
    assert squared_volume(SimplexSpec.from_vector(2, [9, 16, 25]), (1, 2, 3)) == 36


def test_squared_volume_regular_tetrahedron():
    # oracle: explicit coordinates (1/sqrt2)*e_i in R^4 span a unit regular tetrahedron
    points = np.eye(4) / sqrt(2)
    oracle = coordinate_volume_sq(points, (1, 2, 3, 4))
    sq = squared_volume(regular_simplex(3), (1, 2, 3, 4))
    assert sq == Fraction(1, 72)
    assert float(sq) == pytest.approx(oracle, rel=1e-12)


def test_squared_volume_segment_and_point():
    spec = SimplexSpec.from_vector(1, [4])
    assert squared_volume(spec, (1, 2)) == 4
    assert squared_volume(spec, (2,)) == 1


def test_all_face_volumes_regular_n4():
    fvv = all_face_volumes(regular_simplex(4), 2)
    assert len(fvv) == 10
    nu = sqrt(4 - 1) / (2 * 2 ** ((4 - 2) / 2))  # sqrt(n-1)/((n-2)! 2^((n-2)/2))
    assert nu == pytest.approx(sqrt(3) / 4)
    assert all(v == pytest.approx(nu, rel=1e-14) for v in fvv.values.values())


def test_all_face_volumes_edges_n3():
    fvv = all_face_volumes(regular_simplex(3), 1)
    assert len(fvv) == 6
    assert all(v == pytest.approx(1.0, rel=1e-15) for v in fvv.values.values())


def test_all_face_volumes_two_values_on_stretched_instance():
    fvv = all_face_volumes(build_instance(4, 2).spec, 2)
    assert len({round(v, 12) for v in fvv.values.values()}) == 2


def test_complement_keying():
    for n in (3, 4, 5):
        for d in range(0, n + 1):
            fvv = all_face_volumes(regular_simplex(n), d)
            assert fvv.keys() == list(combinations(range(1, n + 2), n - d))
            for key in fvv.keys():
                assert set(face_complement(n, key)) | set(key) == set(range(1, n + 2))


def test_realizable_regular():
    cert = is_realizable(regular_simplex(3))
    assert cert
    assert cert.min_eigenvalue > 0


def test_not_realizable_long_edge():
    # edge of length sqrt(10) > 1 + 1 breaks the triangle inequality
    lengths = {pair: 1.0 for pair in lex_pairs(3)}
    lengths[(3, 4)] = 10.0
    spec = SimplexSpec(3, lengths)
    assert not is_realizable(spec)
    with pytest.raises(RealizabilityError) as excinfo:
        all_face_volumes(spec, 1)
    assert set(excinfo.value.face) >= {3, 4}


def test_realizable_stretched_instance_with_rank_oracle():
    instance = build_instance(4, 2)
    edges = instance.vertices[1:] - instance.vertices[0]
    assert np.linalg.matrix_rank(edges) == 4
    assert is_realizable(instance.spec)
    assert is_realizable(vertices_to_spec(instance.vertices))


def test_regular_simplex_entries():
    for n in (2, 4, 10):
        spec = regular_simplex(n)
        assert len(spec.squared_lengths) == comb(n + 1, 2)
        assert set(spec.squared_lengths.values()) == {1}
    with pytest.raises(ValueError):
        regular_simplex(0)


def test_vertices_to_spec_basis_plus_origin():
    points = [[0.0, 0.0], [1 / sqrt(2), 0.0], [0.0, 1 / sqrt(2)]]
    spec = vertices_to_spec(points)
    assert spec.vector() == pytest.approx([0.5, 0.5, 1.0], rel=1e-15)


def test_vertices_to_spec_duplicate_points_accepted():
    pts = np.random.default_rng(3).normal(size=(5, 4))
    pts[4] = pts[1]
    spec = vertices_to_spec(pts)
    assert spec.edge(2, 5) == 0.0


def test_vertices_to_spec_shape_errors():
    with pytest.raises(ValueError):
        vertices_to_spec(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        vertices_to_spec(np.zeros((3, 3)))


def test_spec_validation():
    with pytest.raises(ValueError):
        SimplexSpec(2, {(1, 2): 1.0, (1, 3): 1.0})
    with pytest.raises(ValueError, match="need exactly the 500000500000 pairs"):
        SimplexSpec(10**6, {(1, 2): 1.0})  # rejected on the count, no pair listed
    with pytest.raises(ValueError):
        SimplexSpec.from_vector(2, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        SimplexSpec(0, {})
    with pytest.raises(ValueError):
        SimplexSpec(True, {(1, 2): 1.0})
    for bad in (float("inf"), float("nan"), np.float64("-inf")):
        with pytest.raises(ValueError):
            SimplexSpec.from_vector(2, [1.0, bad, 1.0])
    with pytest.raises(ValueError):
        all_face_volumes(regular_simplex(3), 4)


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    for n in (3, 4, 6):
        spec = perturbed_regular(n, rng)
        perm_values = rng.permutation(range(1, n + 2))
        perm = {i + 1: int(v) for i, v in enumerate(perm_values)}
        relabeled = relabel(spec, perm)
        for d in range(1, n):
            original = all_face_volumes(spec, d)
            permuted = all_face_volumes(relabeled, d)
            for key, value in original.values.items():
                mapped = tuple(sorted(perm[v] for v in key))
                assert permuted.values[mapped] == pytest.approx(value, rel=1e-12)


def test_scaling_law():
    rng = np.random.default_rng(5)
    for n in (3, 5):
        spec = perturbed_regular(n, rng)
        for s in (0.5, 3.0):
            scaled = SimplexSpec.from_vector(n, (s**2 * spec.vector()).tolist())
            for d in range(1, n + 1):
                base = all_face_volumes(spec, d).vector()
                assert all_face_volumes(scaled, d).vector() == pytest.approx(
                    s**d * base, rel=1e-12
                )


def test_oracle_equivalence_random_points():
    rng = np.random.default_rng(42)
    for n in (3, 4, 6):
        points = rng.normal(size=(n + 1, n))
        spec = vertices_to_spec(points)
        for size in range(2, n + 2):
            for face in list(combinations(range(1, n + 2), size))[:8]:
                oracle = coordinate_volume_sq(points, face)
                assert float(squared_volume(spec, face)) == pytest.approx(
                    oracle, rel=1e-10, abs=1e-12
                )


def test_degenerate_duplicate_vertex_volumes():
    pts = np.random.default_rng(3).normal(size=(5, 4))
    pts[4] = pts[1]
    spec = vertices_to_spec(pts)
    assert is_realizable(spec)
    for d in (1, 2, 3):
        fvv = all_face_volumes(spec, d)
        for key, value in fvv.values.items():
            if not {2, 5} & set(key):  # face contains both coinciding vertices
                assert abs(value) <= 1e-14


def test_exact_flag_and_mixed_entries():
    assert regular_simplex(3).is_exact
    assert not SimplexSpec.from_vector(2, [1.0, 1, 1]).is_exact
    # right triangle with legs 1/sqrt2: area 1/4
    exact = SimplexSpec.from_vector(2, [Fraction(1, 2), Fraction(1, 2), 1])
    assert exact.is_exact
    assert squared_volume(exact, (1, 2, 3)) == Fraction(1, 16)


def test_exact_and_float_determinant_paths_agree():
    rng = np.random.default_rng(17)
    for n in (3, 5):
        numerators = rng.integers(8, 13, size=comb(n + 1, 2))
        exact = SimplexSpec.from_vector(n, [Fraction(int(p), 10) for p in numerators])
        floats = SimplexSpec.from_vector(n, [float(v) for v in exact.squared_lengths.values()])
        for size in range(2, n + 2):
            face = tuple(range(1, size + 1))
            sq_exact = squared_volume(exact, face)
            assert isinstance(sq_exact, Fraction)
            assert float(squared_volume(floats, face)) == pytest.approx(
                float(sq_exact), rel=1e-12, abs=1e-15
            )


@pytest.mark.parametrize("n", range(3, 11))
def test_float_volumes_match_exact_bareiss(n):
    # the exact twin holds the float spec's dyadic values, so only the
    # arithmetic differs: batched float determinants against Bareiss
    floats = perturbed_regular(n, np.random.default_rng(200 + n))
    exact = SimplexSpec.from_vector(n, [Fraction(v) for v in floats.vector()])
    assert exact.is_exact and not floats.is_exact
    for d in range(n + 1):
        got = all_face_volumes(floats, d).vector()
        assert got == pytest.approx(all_face_volumes(exact, d).vector(), rel=1e-12, abs=0)


def test_json_round_trip():
    spec = SimplexSpec.from_vector(2, [9, 16.5, 25])
    again = spec_from_json(spec_to_json(spec))
    assert again.squared_lengths == spec.squared_lengths

    data = {"n": 2, "squared_lengths": ["1/2", "1/2", 1]}
    spec = spec_from_json(data)
    assert spec.edge(1, 2) == Fraction(1, 2)
    assert spec.is_exact
    assert spec_to_json(spec)["squared_lengths"] == ["1/2", "1/2", 1]


def test_save_and_load_files(tmp_path):
    from facevol import load_spec, save_spec

    spec = SimplexSpec.from_vector(2, [Fraction(9, 2), 16, 25.5])
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    again = load_spec(path)
    assert again.squared_lengths == spec.squared_lengths
    assert again.edge(1, 2) == Fraction(9, 2)


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        spec_from_json({"n": 2})
    with pytest.raises(ValueError):
        spec_from_json({"n": 2, "squared_lengths": [1, 2]})
    with pytest.raises(ValueError):
        spec_from_json({"n": 2, "squared_lengths": [1, 2, None]})
    with pytest.raises(ValueError):
        spec_from_json(json.loads('{"n": 2, "squared_lengths": [1, 2, "x/y"]}'))
    with pytest.raises(ValueError):
        spec_from_json({"n": True, "squared_lengths": [1]})
    for raw in (5, None):
        with pytest.raises(ValueError, match="must be a list"):
            spec_from_json({"n": 2, "squared_lengths": raw})
    # the count is compared before the 5e11 pairs would be listed
    with pytest.raises(ValueError, match="expected 500000500000 squared lengths, got 1"):
        spec_from_json({"n": 10**6, "squared_lengths": [1]})
