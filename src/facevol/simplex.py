"""Simplices given by squared edge lengths.

A simplex on vertices 1..n+1 is described by the squared lengths of its
binomial(n+1,2) edges.  An m-face's squared volume is the determinant of
its doubled Gram matrix H over its first vertex, of order m, divided by
2^m (m!)^2; when every squared length is an int or Fraction it is
evaluated exactly, otherwise in floating point.  Each spec holds its
squared distances as one symmetric matrix; the Gram matrices of all faces
of a dimension are gathered from it into one stack, so the float path is
a single batched determinant and the exact path a single stacked Bareiss
elimination, both of the same matrices.

Faces of dimension d are keyed by their complementary (n-d)-subset of the
vertex set, in lexicographic order.  That ordering is shared with the
Kneser adjacency matrices so incidence patterns line up without any
permutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb, factorial, isfinite, isqrt, lcm, prod
from numbers import Integral, Real

import numpy as np

from .exact import bareiss_determinants

REALIZABILITY_EIG_TOL = 1e-10  # relative to trace of the Gram matrix
ZERO_VOLUME_REL_TOL = 1e-12
# Most entries all_face_volumes allocates in one call: C(n+1, d+1) faces, each
# counted at (d+2)^2 entries for its order-d Gram matrix and edge lengths, and a
# complement key of n-d vertices.  At the limit a float spec takes at most
# 0.12 s and 98 MB (d = n-2 at n = 52, triangles at n = 66, edges at n = 197),
# the exact regular 52-simplex at d = 50 takes 4.7 s and 173 MB (2-vCPU VM).
MAX_FACE_ENTRIES = 4_000_000


class RealizabilityError(ValueError):
    """Distance data does not embed in Euclidean space."""


def lex_pairs(n: int) -> list[tuple[int, int]]:
    """Edges (i,j), 1 <= i < j <= n+1, in lexicographic order."""
    return list(combinations(range(1, n + 2), 2))


def k_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """k-subsets of {1,...,n+1} as sorted tuples, in lexicographic order."""
    return list(combinations(range(1, n + 2), k))


def face_complement(n: int, key: tuple[int, ...]) -> tuple[int, ...]:
    """Vertex set of the face keyed by its complementary subset."""
    drop = set(key)
    return tuple(v for v in range(1, n + 2) if v not in drop)


@cache
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (row, column) of every edge, in lexicographic pair order."""
    return np.triu_indices(n + 1, 1)


def squared_distance_matrix(n: int, squared: np.ndarray, dtype=float) -> np.ndarray:
    """Symmetric (n+1)x(n+1) matrix with zero diagonal from squared lengths in lex pair order.

    Leading axes are batch axes: squared lengths of shape (..., binomial(n+1, 2))
    give matrices of shape (..., n+1, n+1).
    """
    rows, cols = _pair_indices(n)
    distances = np.zeros(squared.shape[:-1] + (n + 1, n + 1), dtype=dtype)
    distances[..., rows, cols] = squared
    distances[..., cols, rows] = squared
    return distances


@cache
def face_vertices(n: int, face_dim: int) -> np.ndarray:
    """0-based vertices of every dimension-`face_dim` face, one row per face.

    Rows follow the complement-key order of FaceVolumeVector: complements of
    lex-ordered subsets come in reverse lex order.  The array is cached per
    (n, face_dim) and read-only.
    """
    subsets = k_subsets(n, face_dim + 1)[::-1]
    faces = np.array(subsets, dtype=np.intp).reshape(len(subsets), face_dim + 1) - 1
    faces.setflags(write=False)
    return faces


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def _check_dimension(n) -> None:
    """ValueError unless n, a simplex's dimension, is an integer >= 1 (not a bool)."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")


@dataclass(frozen=True)
class SimplexSpec:
    """An n-simplex described by squared edge lengths.

    squared_lengths maps each pair (i,j), 1 <= i < j <= n+1, to a
    finite nonnegative real number, not a bool.  Values may be floats or
    exact ints/Fractions; realizability is a separate check, not an
    invariant.
    """

    n: int
    squared_lengths: dict[tuple[int, int], float | Fraction]

    def __post_init__(self):
        _check_dimension(self.n)
        count = comb(self.n + 1, 2)
        # compare counts first: a wrong count at large n would list every pair
        expected = lex_pairs(self.n) if len(self.squared_lengths) == count else None
        if expected is None or set(self.squared_lengths) != set(expected):
            raise ValueError(
                f"need exactly the {count} pairs (i,j), 1 <= i < j <= {self.n + 1}"
            )
        for pair, value in self.squared_lengths.items():
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"squared length for {pair} must be a real number, got {value!r}")
            if not _is_exact(value) and not isfinite(value):
                raise ValueError(f"squared length for {pair} is not finite: {value}")
            if value < 0:
                raise ValueError(f"squared length for {pair} is negative: {value}")
        # normalize to lexicographic insertion order
        object.__setattr__(
            self, "squared_lengths", {p: self.squared_lengths[p] for p in expected}
        )

    @cached_property
    def is_exact(self) -> bool:
        return all(_is_exact(v) for v in self.squared_lengths.values())

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Read-only float matrix of squared distances; vertex v is row v-1."""
        distances = squared_distance_matrix(self.n, self.vector())
        distances.setflags(write=False)
        return distances

    @cached_property
    def exact_distances(self) -> tuple[np.ndarray, int]:
        """Squared distances times the lcm L of their denominators, and L.

        The matrix holds Python ints (object dtype) and is read-only.
        """
        values = [Fraction(v) for v in self.squared_lengths.values()]
        scale = lcm(*(v.denominator for v in values))
        ints = np.array([v.numerator * (scale // v.denominator) for v in values], dtype=object)
        distances = squared_distance_matrix(self.n, ints, dtype=object)
        distances.setflags(write=False)
        return distances, scale

    def edge(self, i: int, j: int):
        if i == j:
            raise IndexError(f"edge endpoints must differ, got ({i},{j})")
        key = (i, j) if i < j else (j, i)
        try:
            return self.squared_lengths[key]
        except KeyError:
            raise IndexError(f"vertex pair {key} outside 1..{self.n + 1}") from None

    def vector(self) -> np.ndarray:
        """Squared lengths as a float vector in lexicographic pair order."""
        return np.array([float(v) for v in self.squared_lengths.values()])

    @classmethod
    def from_vector(cls, n: int, values) -> "SimplexSpec":
        _check_dimension(n)
        values = list(values)
        # count before listing the pairs
        if len(values) != comb(n + 1, 2):
            raise ValueError(f"expected {comb(n + 1, 2)} squared lengths, got {len(values)}")
        return cls(n, dict(zip(lex_pairs(n), values)))


@dataclass(frozen=True)
class FaceVolumeVector:
    """Volumes of all dimension-`face_dim` faces, keyed by complement subsets."""

    n: int
    face_dim: int
    values: dict[tuple[int, ...], float]

    def keys(self) -> list[tuple[int, ...]]:
        return list(self.values)

    def vector(self) -> np.ndarray:
        return np.array([self.values[k] for k in self.values])

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RealizabilityCertificate:
    realizable: bool
    min_eigenvalue: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.realizable


def regular_simplex(n: int) -> SimplexSpec:
    """All squared edge lengths equal to 1 (exact)."""
    return SimplexSpec(n, {pair: 1 for pair in lex_pairs(n)})


def point_squared_distances(points: np.ndarray) -> np.ndarray:
    """Squared distances of n+1 points, one per row, in lex pair order."""
    rows, cols = _pair_indices(len(points) - 1)
    diff = points[rows] - points[cols]
    return np.einsum("ij,ij->i", diff, diff)


def vertices_to_spec(vertices) -> SimplexSpec:
    """Squared pairwise distances of n+1 points in n-dimensional space."""
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 1:
        raise ValueError(f"expected n+1 points with n coordinates, got shape {pts.shape}")
    return SimplexSpec.from_vector(pts.shape[1], point_squared_distances(pts).tolist())


def relabel(spec: SimplexSpec, perm: dict[int, int]) -> SimplexSpec:
    """Apply a vertex permutation {old: new} to a spec."""
    lengths = {}
    for (i, j), value in spec.squared_lengths.items():
        a, b = perm[i], perm[j]
        lengths[(min(a, b), max(a, b))] = value
    return SimplexSpec(spec.n, lengths)


def _face_row(spec: SimplexSpec, face: tuple[int, ...]) -> np.ndarray:
    """The sorted face as a one-row array of 0-based vertices, after range checks."""
    if len(set(face)) != len(face):
        raise ValueError(f"face has repeated vertices: {face}")
    if face[0] < 1 or face[-1] > spec.n + 1:
        raise IndexError(f"face {face} outside vertex range 1..{spec.n + 1}")
    return np.array([face]) - 1


def build_cm_matrix(spec: SimplexSpec, face) -> np.ndarray:
    """Cayley-Menger matrix of the sub-simplex spanned by `face`.

    For a face with m+1 vertices this is the (m+2) x (m+2) symmetric matrix
    with zero diagonal, a border of ones in row/column 0, and squared edge
    lengths elsewhere.  Exact specs yield an object matrix of Fractions.
    """
    face = tuple(sorted(face))
    if len(face) < 2:
        raise ValueError(f"face needs at least 2 vertices, got {face}")
    vertices = _face_row(spec, face)[0]
    if spec.is_exact:
        distances, scale = spec.exact_distances
        distances = distances * Fraction(1, scale)
    else:
        distances = spec.distance_matrix
    matrix = np.ones((len(face) + 1, len(face) + 1), dtype=distances.dtype)
    matrix[0, 0] = 0
    matrix[1:, 1:] = distances[np.ix_(vertices, vertices)]
    return matrix


def squared_volume(spec: SimplexSpec, face):
    """Squared m-volume of the face from its doubled Gram matrix.

    V^2 = det H / (2^m (m!)^2), a Fraction for exact specs and a float
    otherwise.  Points (m=0) have squared volume 1 by convention;
    the value may be negative for data that does not embed, callers decide
    how to treat that.
    """
    face = tuple(sorted(face))
    if not face:
        raise ValueError("face must have at least one vertex")
    return squared_volumes(spec, _face_row(spec, face)).item()


@cache
def _gram_denominator(m: int) -> int:
    """2^m (m!)^2, the divisor that turns det H of an m-face into V^2."""
    return 2**m * factorial(m) ** 2


def _doubled_gram(base: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """2G over a base vertex: H_ij = D_0i + D_0j - D_ij from base (..., m) and rest (..., m, m)."""
    base = np.ascontiguousarray(base)  # broadcasting a strided base is ~3x slower at n = 50
    gram = base[..., :, None] + base[..., None, :]
    gram -= rest
    return gram


def face_grams(distances: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Doubled Gram matrices of the faces over their first vertices, shape (..., faces, m, m).

    `faces` holds one row of m+1 0-based vertices per face, and leading axes
    of `distances` are batch axes; Python-int entries stay exact.  An
    m-face's H has det H = (-1)^(m+1) det C = 2^m (m!)^2 V^2 for its
    Cayley-Menger matrix C (Blumenthal 1953); a point's empty H has det 1.
    """
    first, others = faces[:, :1], faces[:, 1:]
    rest = distances[..., others[:, :, None], others[:, None, :]]
    return _doubled_gram(distances[..., first, others], rest)


def face_squared_lengths(distances: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Squared lengths of each face's edges in lexicographic order, shape (faces, C(m+1, 2))."""
    a, b = _pair_indices(faces.shape[1] - 1)
    return distances[faces[:, a], faces[:, b]]


def gram_squared_volumes(grams: np.ndarray) -> np.ndarray:
    """Squared volumes det H / (2^m (m!)^2) of faces from a float stack of their H.

    One batched det; the int division rounds the prefactor correctly, to 0
    past a double's range.
    """
    return 1 / _gram_denominator(grams.shape[-1]) * np.linalg.det(grams)


def exact_gram_determinants(distances: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Determinants of the faces' doubled Gram matrices over integer squared distances.

    `distances` holds Python ints (object dtype) and may have leading batch
    axes; the result has shape (..., faces).  Every determinant comes from
    one stacked Bareiss elimination of face_grams.
    """
    stack = face_grams(distances, faces)
    batch = stack.shape[:-2]
    return bareiss_determinants(stack.reshape(prod(batch), *stack.shape[-2:])).reshape(batch)


def exact_floats(distances: np.ndarray, faces: np.ndarray, scales) -> np.ndarray:
    """Squared volumes of the faces as floats, over integer squared distances.

    `scales` broadcasts against the result (..., faces): each is the lcm
    that scaled a spec's squared lengths to integers.  Each value is its
    determinant in one Python int / int division, which rounds correctly,
    as float(Fraction) does, so no Fraction is built.
    """
    m = faces.shape[1] - 1
    dets = exact_gram_determinants(distances, faces)
    return (dets / (_gram_denominator(m) * scales**m)).astype(float)


def squared_volumes(spec: SimplexSpec, faces: np.ndarray) -> np.ndarray:
    """Squared volumes of the faces: Fractions for exact specs, floats otherwise.

    An exact spec's squared lengths are scaled to integers by the lcm L of
    their denominators, which scales an order-m doubled Gram determinant by
    L^m, so V^2 = det H / (2^m (m!)^2 L^m).
    """
    if not spec.is_exact:
        return gram_squared_volumes(face_grams(spec.distance_matrix, faces))
    distances, scale = spec.exact_distances
    m = faces.shape[1] - 1
    return exact_gram_determinants(distances, faces) * Fraction(1, _gram_denominator(m) * scale**m)


def face_stack(spec: SimplexSpec, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The faces' squared edge lengths (face_squared_lengths) and squared volumes, as floats.

    Exact squared volumes are rounded to float only at the end.
    """
    squared = face_squared_lengths(spec.distance_matrix, faces)
    if not spec.is_exact:
        return squared, squared_volumes(spec, faces)
    distances, scale = spec.exact_distances
    return squared, exact_floats(distances, faces, scale)


def volume_scales(squared: np.ndarray) -> np.ndarray:
    """Magnitude of the largest monomial of each face's squared-volume polynomial.

    `squared` holds each face's squared edge lengths, one row of C(m+1, 2)
    per m-face.  Squared volumes are compared with ZERO_VOLUME_REL_TOL times
    this scale: below minus that they are negative, up to it the face is
    degenerate.
    """
    m = (isqrt(8 * squared.shape[-1] + 1) - 1) // 2
    return squared.max(axis=-1, initial=1.0) ** m / _gram_denominator(m)


def face_volumes(faces: np.ndarray, squared: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Volumes of the faces from their squared edge lengths and squared volumes.

    A volume is the root of max(sq, 0): a squared volume <= 0 reads 0, so
    exact degenerate faces get 0, while float round-off stays (a Jacobian
    refuses such a face).  Raises RealizabilityError at the first face, in
    the order of `faces`, whose squared volume is below -ZERO_VOLUME_REL_TOL
    times its volume_scales; the message names the face's vertices.
    """
    negative = sq < -ZERO_VOLUME_REL_TOL * volume_scales(squared)
    if negative.any():
        index = int(np.argmax(negative))
        face = tuple((faces[index] + 1).tolist())
        raise RealizabilityError(f"face {face} has negative squared volume {float(sq[index])}")
    return np.sqrt(np.where(sq > 0.0, sq, 0.0))


def _gram_and_tolerance(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices of squared-distance matrices and the eigenvalue tolerance of each."""
    g = 0.5 * _doubled_gram(distances[..., 0, 1:], distances[..., 1:, 1:])
    trace = g.trace(0, -2, -1)  # offset 0 over the last two axes
    return g, REALIZABILITY_EIG_TOL * np.maximum(trace, 1e-300)


def is_realizable(spec: SimplexSpec) -> RealizabilityCertificate:
    """Check that the distance data embeds in Euclidean space.

    The spec is realizable iff its Gram matrix (base vertex 1) is positive
    semidefinite; we accept eigenvalues down to -1e-10 * trace(G) so that
    boundary cases (degenerate but embeddable data) pass.
    """
    g, tol = _gram_and_tolerance(spec.distance_matrix)
    low, tol = float(np.linalg.eigvalsh(g)[0]), float(tol)
    return RealizabilityCertificate(realizable=low >= -tol, min_eigenvalue=low, tolerance=tol)


def first_realizable(n: int, rows: np.ndarray) -> tuple[int | None, int]:
    """First row of squared lengths that embeds (None if none does), and the rows tested.

    `rows` has shape (count, binomial(n+1, 2)).  The Gram matrices and
    tolerances of all rows are built at once, but eigenvalues are computed
    on blocks of 1, 4, 16, ... rows, up to the first block with a hit; the
    second item counts the rows of those blocks.  eigvalsh treats each
    matrix of a stack on its own, so the blocks move no decision: a row
    embeds exactly when is_realizable accepts its spec.
    """
    g, tol = _gram_and_tolerance(squared_distance_matrix(n, rows))
    start, size = 0, 1
    while start < len(rows):
        stop = min(start + size, len(rows))
        embeds = np.linalg.eigvalsh(g[start:stop])[:, 0] >= -tol[start:stop]
        if embeds.any():
            return start + int(embeds.argmax()), stop
        start, size = stop, 4 * size
    return None, len(rows)


def all_face_volumes(spec: SimplexSpec, face_dim: int) -> FaceVolumeVector:
    """Volumes of every dimension-`face_dim` face, keyed by complement subsets.

    Checks the range of face_dim, then that the C(n+1, face_dim+1) faces
    need at most MAX_FACE_ENTRIES entries (ValueError), then the Gram test:
    a spec that does not embed (is_realizable) raises RealizabilityError
    "spec is not realizable" before any face is computed.  Only the
    requested faces are computed; a face with negative squared volume
    beyond round-off, which the Gram test let pass, raises as face_volumes
    does.  A squared volume <= 0 reads 0, so exact degenerate faces get
    volume 0; float round-off stays.
    """
    n = spec.n
    if not 0 <= face_dim <= n:
        raise ValueError(f"face_dim must be in 0..{n}, got {face_dim}")
    count = comb(n + 1, face_dim + 1)
    entries = count * ((face_dim + 2) ** 2 + n - face_dim)
    if entries > MAX_FACE_ENTRIES:
        raise ValueError(
            f"the {n}-simplex's {count} faces of dimension {face_dim} need {entries} "
            f"entries, above the limit of {MAX_FACE_ENTRIES}"
        )
    if not is_realizable(spec):
        raise RealizabilityError("spec is not realizable")
    faces = face_vertices(n, face_dim)
    values = face_volumes(faces, *face_stack(spec, faces))
    return FaceVolumeVector(
        n=n, face_dim=face_dim, values=dict(zip(k_subsets(n, n - face_dim), values.tolist()))
    )


# --- JSON interchange -------------------------------------------------------

def _value_to_json(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def _value_from_json(raw):
    """A "p/q" string as an exact Fraction; SimplexSpec checks every other value."""
    if not isinstance(raw, str):
        return raw
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad squared length: {raw!r}") from None


def spec_to_json(spec: SimplexSpec) -> dict:
    """{"n": ..., "squared_lengths": [...]} with entries in lexicographic pair order."""
    return {
        "n": spec.n,
        "squared_lengths": [
            _value_to_json(v) for v in spec.squared_lengths.values()
        ],
    }


def spec_from_json(data: dict) -> SimplexSpec:
    try:
        n = data["n"]
        raw = data["squared_lengths"]
    except (KeyError, TypeError):
        raise ValueError('simplex JSON needs keys "n" and "squared_lengths"') from None
    if not isinstance(raw, list):
        raise ValueError(f'"squared_lengths" must be a list, got {raw!r}')
    return SimplexSpec.from_vector(n, [_value_from_json(x) for x in raw])


def load_spec(path) -> SimplexSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))


def save_spec(spec: SimplexSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_json(spec), fh, indent=2)
        fh.write("\n")
