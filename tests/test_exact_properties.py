"""Property tests: exact squared volumes obey relabelling and scaling exactly."""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import SimplexSpec, relabel
from facevol.simplex import face_vertices, squared_volumes

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
