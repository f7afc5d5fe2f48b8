"""Property tests of the float path: face volumes and the Jacobian follow
vertex relabelling and scaling, float specs survive JSON bit for bit, and
float squared volumes agree with the exact ones on the same dyadic input."""

import json
from fractions import Fraction
from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import (
    SimplexSpec,
    all_face_volumes,
    analytic_jacobian,
    is_realizable,
    lex_pairs,
    relabel,
    spec_from_json,
    spec_to_json,
    vertices_to_spec,
)
from facevol.simplex import (
    ZERO_VOLUME_REL_TOL, face_squared_lengths, face_vertices, squared_volumes, volume_scales,
)

REL = 1e-12


@st.composite
def near_regular_specs(draw):
    """Unit squared lengths jittered by at most 5%: at n <= 6 the Gram matrix
    moves by at most 1.5 * 0.05 * n <= 0.45 in norm, below its smallest
    eigenvalue 1/2 at the regular simplex, so every draw embeds."""
    n = draw(st.integers(min_value=3, max_value=6))
    jitter = st.floats(min_value=-0.05, max_value=0.05, allow_nan=False)
    dim = comb(n + 1, 2)
    values = draw(st.lists(jitter, min_size=dim, max_size=dim))
    spec = SimplexSpec.from_vector(n, [1.0 + v for v in values])
    assert is_realizable(spec)
    return spec


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabel_permutes_float_volumes_and_jacobian(data):
    spec = data.draw(near_regular_specs())
    n = spec.n
    labels = list(range(1, n + 2))
    perm = dict(zip(labels, data.draw(st.permutations(labels))))
    relabeled = relabel(spec, perm)
    for face_dim in range(n + 1):
        permuted = all_face_volumes(relabeled, face_dim).values
        for key, value in all_face_volumes(spec, face_dim).values.items():
            mapped = permuted[tuple(sorted(perm[v] for v in key))]
            np.testing.assert_allclose(mapped, value, rtol=REL, atol=0)
    # rows are keyed by complement pairs and columns are edges, both in lex pair order
    index = {pair: m for m, pair in enumerate(lex_pairs(n))}
    moved = [index[tuple(sorted((perm[i], perm[j])))] for i, j in lex_pairs(n)]
    moved_jac = analytic_jacobian(relabeled)[np.ix_(moved, moved)]
    np.testing.assert_allclose(moved_jac, analytic_jacobian(spec), rtol=REL, atol=0)


@settings(max_examples=40, deadline=None)
@given(near_regular_specs(), st.floats(min_value=0.01, max_value=100.0))
def test_scaling_squared_lengths_scales_volumes_and_jacobian(spec, c):
    n = spec.n
    scaled = SimplexSpec.from_vector(n, (c * spec.vector()).tolist())
    np.testing.assert_allclose(
        all_face_volumes(scaled, n - 2).vector(),
        c ** ((n - 2) / 2) * all_face_volumes(spec, n - 2).vector(),
        rtol=REL,
        atol=0,
    )
    np.testing.assert_allclose(
        analytic_jacobian(scaled), c ** ((n - 3) / 2) * analytic_jacobian(spec), rtol=REL, atol=0
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_float_spec_survives_json_bit_for_bit(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    value = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    dim = comb(n + 1, 2)
    spec = SimplexSpec.from_vector(n, data.draw(st.lists(value, min_size=dim, max_size=dim)))
    restored = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert restored.n == n and not restored.is_exact
    assert restored.vector().tobytes() == spec.vector().tobytes()


# Float squared volumes against the exact path on the float spec's own values:
# Fraction(float) is lossless, so only the arithmetic differs.  Near-regular
# rational specs agree to RATIONAL_REL relative to the value.  A near-degenerate
# face has a volume far below its size, so there the bound is relative to
# volume_scales, the size of its largest squared-volume monomial: the float
# error stays below ZERO_VOLUME_REL_TOL times it, so that tolerance reads the
# sign of every face right.
RATIONAL_REL = 1e-13


def exact_twin(spec: SimplexSpec) -> SimplexSpec:
    return SimplexSpec.from_vector(spec.n, [Fraction(v) for v in spec.vector().tolist()])


@st.composite
def rational_specs(draw):
    """Squared lengths 1 + k/60, |k| <= 3, rounded to float, n = 3..10."""
    n = draw(st.integers(min_value=3, max_value=10))
    offsets = st.lists(st.integers(-3, 3), min_size=comb(n + 1, 2), max_size=comb(n + 1, 2))
    return SimplexSpec.from_vector(n, [float(1 + Fraction(k, 60)) for k in draw(offsets)])


@st.composite
def near_degenerate_integer_simplices(draw):
    """Integer points spanning `rank` < n coordinates, the last point lifted by 1 off them."""
    n = draw(st.integers(min_value=3, max_value=10))
    rank = draw(st.integers(min_value=0, max_value=n - 1))
    size = draw(st.integers(min_value=1, max_value=100))
    coords = st.lists(st.integers(-size, size), min_size=rank, max_size=rank)
    points = np.zeros((n + 1, n))
    rows = draw(st.lists(coords, min_size=n + 1, max_size=n + 1))
    points[:, :rank] = np.array(rows).reshape(n + 1, rank)
    points[n, n - 1] = 1
    return vertices_to_spec(points)


@settings(max_examples=25, deadline=None)
@given(rational_specs())
def test_float_squared_volumes_match_exact_on_rational_specs(spec):
    exact = exact_twin(spec)
    for face_dim in (1, 2, spec.n - 2, spec.n):
        faces = face_vertices(spec.n, face_dim)
        want = np.array([float(v) for v in squared_volumes(exact, faces)])
        assert np.all(np.abs(squared_volumes(spec, faces) - want) <= RATIONAL_REL * np.abs(want))


@settings(max_examples=40, deadline=None)
@given(near_degenerate_integer_simplices())
def test_float_squared_volumes_match_exact_on_near_degenerate_simplices(spec):
    exact = exact_twin(spec)
    for face_dim in range(1, spec.n + 1):
        faces = face_vertices(spec.n, face_dim)
        want = np.array([float(v) for v in squared_volumes(exact, faces)])
        scales = volume_scales(face_squared_lengths(spec.distance_matrix, faces))
        assert np.all(np.abs(squared_volumes(spec, faces) - want) <= ZERO_VOLUME_REL_TOL * scales)
