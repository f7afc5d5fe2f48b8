"""Property tests of the float path: face volumes and the Jacobian follow
vertex relabelling and scaling, and float specs survive JSON bit for bit."""

import json
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
