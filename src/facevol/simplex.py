"""Simplices given by squared edge lengths.

A simplex on vertices 1..n+1 is described by the squared lengths of its
binomial(n+1,2) edges.  Squared volumes of faces come from Cayley-Menger
determinants; when every squared length is an int or Fraction the
determinant is evaluated exactly, otherwise in floating point.  Each spec
holds its squared distances as one symmetric matrix; the CM matrices of
all faces of a dimension are gathered from it into one stack, so the float
path is a single batched determinant.

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
from math import comb, factorial, isfinite
from numbers import Integral

import numpy as np

from .exact import fraction_determinant

REALIZABILITY_EIG_TOL = 1e-10  # relative to trace of the Gram matrix
ZERO_VOLUME_REL_TOL = 1e-12


class RealizabilityError(ValueError):
    """Distance data does not embed in Euclidean space."""

    def __init__(self, message, face=None):
        super().__init__(message)
        self.face = face


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

    Rows follow the complement-key order of FaceVolumeVector.  The array is
    cached per (n, face_dim) and read-only.
    """
    faces = np.array([face_complement(n, key) for key in k_subsets(n, n - face_dim)]) - 1
    faces.setflags(write=False)
    return faces


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimplexSpec:
    """An n-simplex described by squared edge lengths.

    squared_lengths maps each pair (i,j), 1 <= i < j <= n+1, to a
    nonnegative number.  Values may be floats or exact ints/Fractions;
    realizability is a separate check, not an invariant.
    """

    n: int
    squared_lengths: dict[tuple[int, int], float | Fraction]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, Integral):
            raise ValueError(f"dimension must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        count = comb(self.n + 1, 2)
        # compare counts first: a wrong count at large n would list every pair
        expected = lex_pairs(self.n) if len(self.squared_lengths) == count else None
        if expected is None or set(self.squared_lengths) != set(expected):
            raise ValueError(
                f"need exactly the {count} pairs (i,j), 1 <= i < j <= {self.n + 1}"
            )
        for pair, value in self.squared_lengths.items():
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
        values = list(values)
        # count before listing the pairs; __post_init__ rejects n < 1
        if n >= 1 and len(values) != comb(n + 1, 2):
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
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return SimplexSpec(n, {pair: 1 for pair in lex_pairs(n)})


def vertices_to_spec(vertices) -> SimplexSpec:
    """Squared pairwise distances of n+1 points in n-dimensional space."""
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 1:
        raise ValueError(f"expected n+1 points with n coordinates, got shape {pts.shape}")
    n = pts.shape[1]
    lengths = {}
    for i, j in lex_pairs(n):
        diff = pts[i - 1] - pts[j - 1]
        lengths[(i, j)] = float(diff @ diff)
    return SimplexSpec(n, lengths)


def relabel(spec: SimplexSpec, perm: dict[int, int]) -> SimplexSpec:
    """Apply a vertex permutation {old: new} to a spec."""
    lengths = {}
    for (i, j), value in spec.squared_lengths.items():
        a, b = perm[i], perm[j]
        lengths[(min(a, b), max(a, b))] = value
    return SimplexSpec(spec.n, lengths)


def _exact_distances(spec: SimplexSpec) -> np.ndarray:
    """Squared distances as an object matrix holding the spec's exact values."""
    values = np.array(list(spec.squared_lengths.values()), dtype=object)
    return squared_distance_matrix(spec.n, values, dtype=object)


def cm_stack(distances: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Cayley-Menger matrices of many faces at once, shape (faces, m+2, m+2).

    `faces` holds one row of m+1 0-based vertex indices per face.  Each
    matrix has a zero corner, a border of ones in row/column 0, and the
    face's squared distances, gathered from `distances` by fancy indexing.
    """
    count, size = faces.shape
    stack = np.ones((count, size + 1, size + 1), dtype=distances.dtype)
    stack[:, 0, 0] = 0
    stack[:, 1:, 1:] = distances[faces[:, :, None], faces[:, None, :]]
    return stack


def build_cm_matrix(spec: SimplexSpec, face) -> np.ndarray:
    """Cayley-Menger matrix of the sub-simplex spanned by `face`.

    For a face with m+1 vertices this is the (m+2) x (m+2) symmetric matrix
    with zero diagonal, a border of ones in row/column 0, and squared edge
    lengths elsewhere.  Exact specs yield an exact (object dtype) matrix.
    """
    face = tuple(sorted(face))
    if len(face) < 2:
        raise ValueError(f"face needs at least 2 vertices, got {face}")
    if len(set(face)) != len(face):
        raise ValueError(f"face has repeated vertices: {face}")
    if face[0] < 1 or face[-1] > spec.n + 1:
        raise IndexError(f"face {face} outside vertex range 1..{spec.n + 1}")
    distances = _exact_distances(spec) if spec.is_exact else spec.distance_matrix
    return cm_stack(distances, np.array([face]) - 1)[0]


def cm_determinant(cm: np.ndarray):
    """Determinant of a Cayley-Menger matrix, exact when entries are exact."""
    if cm.dtype == object:
        return fraction_determinant([list(row) for row in cm])
    return float(np.linalg.det(cm))


def squared_volume(spec: SimplexSpec, face):
    """Squared m-volume of the face via the Cayley-Menger determinant.

    V^2 = (-1)^(m+1) / (2^m (m!)^2) * det C.  Points (m=0) have squared
    volume 1 by convention; the value may be negative for data that does
    not embed, callers decide how to treat that.
    """
    face = tuple(sorted(face))
    m = len(face) - 1
    if m < 0:
        raise ValueError("face must have at least one vertex")
    if m == 0:
        if face[0] < 1 or face[0] > spec.n + 1:
            raise IndexError(f"vertex {face[0]} outside 1..{spec.n + 1}")
        return Fraction(1) if spec.is_exact else 1.0
    det = cm_determinant(build_cm_matrix(spec, face))
    if isinstance(det, Fraction):
        return _cm_prefactor(m) * det
    return float(_cm_prefactor(m)) * det


def _cm_prefactor(m: int) -> Fraction:
    """(-1)^(m+1) / (2^m (m!)^2), the factor that turns det C into V^2."""
    return Fraction((-1) ** (m + 1), 2**m * factorial(m) ** 2)


def cm_squared_volumes(stack: np.ndarray) -> np.ndarray:
    """Squared volumes of the faces of a float CM stack, from one batched det.

    A point's matrix [[0, 1], [1, 0]] gives 1, the m=0 convention.
    """
    return float(_cm_prefactor(stack.shape[-1] - 2)) * np.linalg.det(stack)


def face_stack(spec: SimplexSpec, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float CM stack of the faces and their squared volumes as floats.

    Float specs take one batched determinant; exact specs take Bareiss per
    face, rounded to float only at the end.
    """
    stack = cm_stack(spec.distance_matrix, faces)
    if not spec.is_exact:
        return stack, cm_squared_volumes(stack)
    prefactor = _cm_prefactor(faces.shape[1] - 1)
    exact = cm_stack(_exact_distances(spec), faces)
    return stack, np.array([float(prefactor * cm_determinant(cm)) for cm in exact])


def volume_scales(stack: np.ndarray) -> np.ndarray:
    """Magnitude of the largest monomial of each face's squared-volume polynomial."""
    m = stack.shape[-1] - 2
    qmax = np.maximum(stack[:, 1:, 1:].max(axis=(1, 2)), 1.0)
    return qmax**m / (2**m * factorial(m) ** 2)


def _negative_faces(stack: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Mask of the faces whose squared volume is negative beyond round-off."""
    return sq < -ZERO_VOLUME_REL_TOL * volume_scales(stack)


def face_volumes(faces: np.ndarray, stack: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Volumes of the faces from their CM stack and squared volumes.

    Degenerate faces get 0.  Raises RealizabilityError at the first face
    whose squared volume is negative beyond round-off.
    """
    negative = _negative_faces(stack, sq)
    if negative.any():
        index = int(np.argmax(negative))
        face = tuple((faces[index] + 1).tolist())
        raise RealizabilityError(
            f"face {face} has negative squared volume {float(sq[index])}", face=face
        )
    return np.sqrt(np.where(sq > 0.0, sq, 0.0))


def _gram(distances: np.ndarray) -> np.ndarray:
    """Gram matrix on base vertex 1 of a squared-distance matrix (or a stack of them)."""
    base = distances[..., 0, 1:]
    return 0.5 * (base[..., :, None] + base[..., None, :] - distances[..., 1:, 1:])


def _gram_test(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest Gram eigenvalue and its tolerance for each squared-distance matrix.

    Both results have the batch shape of `distances`; one matrix gives 0-d results.
    """
    g = _gram(distances)
    trace = g.trace(0, -2, -1)  # offset 0 over the last two axes
    return np.linalg.eigvalsh(g)[..., 0], REALIZABILITY_EIG_TOL * np.maximum(trace, 1e-300)


def is_realizable(spec: SimplexSpec) -> RealizabilityCertificate:
    """Check that the distance data embeds in Euclidean space.

    The spec is realizable iff its Gram matrix (base vertex 1) is positive
    semidefinite; we accept eigenvalues down to -1e-10 * trace(G) so that
    boundary cases (degenerate but embeddable data) pass.
    """
    low, tol = map(float, _gram_test(spec.distance_matrix))
    return RealizabilityCertificate(
        realizable=low >= -tol,
        min_eigenvalue=low,
        tolerance=tol,
    )


def realizable_rows(n: int, squared: np.ndarray) -> np.ndarray:
    """The is_realizable test on each row of squared lengths in lex pair order.

    `squared` has shape (..., binomial(n+1, 2)); the boolean result has shape (...).
    """
    low, tol = _gram_test(squared_distance_matrix(n, squared))
    return low >= -tol


def _first_negative_face(spec: SimplexSpec):
    """Smallest (then lexicographically first) face with negative squared volume."""
    n = spec.n
    for face_dim in range(2, n + 1):
        faces = face_vertices(n, face_dim)
        negative = _negative_faces(*face_stack(spec, faces))
        if negative.any():
            return min(tuple(face) for face in (faces[negative] + 1).tolist())
    return tuple(range(1, n + 2))


def all_face_volumes(spec: SimplexSpec, face_dim: int) -> FaceVolumeVector:
    """Volumes of every dimension-`face_dim` face, keyed by complement subsets.

    Raises RealizabilityError (carrying an offending face) if the spec does
    not embed.  Degenerate faces get volume exactly 0.
    """
    n = spec.n
    if not 0 <= face_dim <= n:
        raise ValueError(f"face_dim must be in 0..{n}, got {face_dim}")
    if not is_realizable(spec):
        raise RealizabilityError(
            "spec is not realizable", face=_first_negative_face(spec)
        )
    faces = face_vertices(n, face_dim)
    values = face_volumes(faces, *face_stack(spec, faces))
    return FaceVolumeVector(
        n=n, face_dim=face_dim, values=dict(zip(k_subsets(n, n - face_dim), values.tolist()))
    )


# --- JSON interchange -------------------------------------------------------

def _value_to_json(value):
    if isinstance(value, bool):
        raise TypeError("squared lengths cannot be booleans")
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def _value_from_json(raw):
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad squared length: {raw!r}") from None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"bad squared length: {raw!r}")
    if isinstance(raw, float) and not np.isfinite(raw):
        raise ValueError(f"bad squared length: {raw!r}")
    return raw


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
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f'"n" must be an integer, got {n!r}')
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
