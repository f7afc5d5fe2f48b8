"""Property tests: exact squared volumes obey relabelling and scaling exactly,
their Gram determinants are the Cayley-Menger determinants up to sign, and
exact linear solves either solve or refuse a singular system."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import SimplexSpec, build_cm_matrix, relabel
from facevol.exact import fraction_determinant, int_determinant, solve_fraction_system
from facevol.simplex import exact_gram_determinants, face_vertices, squared_volumes

EXACT_VALUES = st.one_of(
    st.integers(0, 20), st.fractions(min_value=0, max_value=20, max_denominator=12)
)


@st.composite
def exact_specs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    dim = comb(n + 1, 2)
    return SimplexSpec.from_vector(n, draw(st.lists(EXACT_VALUES, min_size=dim, max_size=dim)))


def exact_volumes(spec: SimplexSpec) -> dict[tuple[int, ...], Fraction]:
    """Exact squared volume of every face, keyed by its sorted vertex labels."""
    volumes = {}
    for face_dim in range(spec.n + 1):
        faces = face_vertices(spec.n, face_dim)
        volumes.update(zip(map(tuple, (faces + 1).tolist()), squared_volumes(spec, faces)))
    return volumes


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_relabel_permutes_exact_squared_volumes(data):
    spec = data.draw(exact_specs())
    labels = list(range(1, spec.n + 2))
    perm = dict(zip(labels, data.draw(st.permutations(labels))))
    relabeled = exact_volumes(relabel(spec, perm))
    for face, value in exact_volumes(spec).items():
        assert relabeled[tuple(sorted(perm[v] for v in face))] == value


@settings(max_examples=100, deadline=None)
@given(exact_specs(), st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20))
def test_scaling_multiplies_squared_volumes_by_power(spec, c):
    scaled = SimplexSpec(spec.n, {pair: c * v for pair, v in spec.squared_lengths.items()})
    scaled_volumes = exact_volumes(scaled)
    for face, value in exact_volumes(spec).items():
        assert scaled_volumes[face] == c ** (len(face) - 1) * value


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gram_determinants_are_signed_cm_determinants(data):
    # zero squared lengths give coincident vertices, so degenerate faces come up too
    spec = data.draw(exact_specs())
    face = sorted(data.draw(st.sets(st.integers(1, spec.n + 1), min_size=1)))
    m = len(face) - 1
    distances, scale = spec.exact_distances
    det_h = exact_gram_determinants(distances, np.array([face]) - 1)
    if m == 0:  # a point: empty H, and the CM matrix [[0, 1], [1, 0]]
        assert det_h.tolist() == [1]
        return
    # the CM matrix over the integer squared lengths L*d, its border of ones kept
    cm = [[int(v * scale) if i and j else int(v) for j, v in enumerate(row)]
          for i, row in enumerate(build_cm_matrix(spec, face))]
    assert det_h.tolist() == [(-1) ** (m + 1) * int_determinant(cm)]


SYSTEM_ENTRIES = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def fraction_systems(draw):
    """(a, b) with 1-5 unknowns and Fraction entries of mixed denominators.

    Half the matrices get a last row that is a multiple (maybe 0) of the first,
    so singular systems are common.
    """
    size = draw(st.integers(min_value=1, max_value=5))
    rows = st.lists(SYSTEM_ENTRIES, min_size=size, max_size=size)
    a = draw(st.lists(rows, min_size=size, max_size=size))
    if draw(st.booleans()):
        factor = draw(SYSTEM_ENTRIES)
        a[-1] = [factor * x for x in a[0]]
    return a, draw(rows)


@settings(max_examples=200, deadline=None)
@given(fraction_systems())
def test_solve_fraction_system_solves_or_refuses(system):
    a, b = system
    if fraction_determinant(a) == 0:
        with pytest.raises(ValueError, match="^singular system$"):
            solve_fraction_system(a, b)
    else:
        x = solve_fraction_system(a, b)
        assert [sum(entry * value for entry, value in zip(row, x)) for row in a] == b
