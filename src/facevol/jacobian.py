"""Jacobian of the edge-lengths -> codimension-2 face-volumes map.

Rows are (n-2)-faces keyed by complementary 2-subsets, columns are edges,
both in lexicographic order.  Entries are derivatives with respect to the
plain (not squared) edge length, obtained by cofactor differentiation of
the Cayley-Menger determinant; a central-difference Jacobian serves as an
independent cross-check.  At the all-unit-edges simplex the Jacobian is a
known constant times the Kneser adjacency matrix for k=2, which makes its
rank (hence local algebraic independence of the face volumes) certifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb, factorial, sqrt

import numpy as np

from .kneser import build_kneser_adjacency
from .simplex import (
    RealizabilityError,
    SimplexSpec,
    ZERO_VOLUME_REL_TOL,
    all_face_volumes,
    build_cm_matrix,
    cm_squared_volumes,
    cm_stack,
    face_stack,
    face_vertices,
    face_volumes,
    is_realizable,
    regular_simplex,
    squared_distance_matrix,
    volume_scales,
)

DEFAULT_RANK_THRESHOLD = 1e-8
FD_STEP_FACTOR = 1e-6


class DegenerateFaceError(ValueError):
    """A face has zero volume, so the volume derivative is undefined."""

    def __init__(self, message, face=None):
        super().__init__(message)
        self.face = face


class BoundaryError(ValueError):
    """A finite-difference perturbation left the realizable region."""


@dataclass(frozen=True)
class RegularPointConstants:
    """Constants tied to the all-unit-edges simplex.

    nu is the (n-2)-volume of a regular unit (n-2)-simplex; scale is the
    common value of every nonzero Jacobian entry there, 2*nu/(n-1) =
    1/((n-2)! * sqrt(n-1) * 2^((n-4)/2)).
    """

    n: int
    nu: float
    scale: float


def regular_point_constants(n: int) -> RegularPointConstants:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    nu = sqrt(n - 1) / (factorial(n - 2) * 2 ** ((n - 2) / 2))
    return RegularPointConstants(n=n, nu=nu, scale=2.0 / (n - 1) * nu)


@cache
def _edge_positions(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (a, b), a < b, of the edges of a size-vertex face in its CM matrix."""
    a, b = np.triu_indices(size, 1)
    return a + 1, b + 1


@cache
def _jacobian_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian row and column of each entry of the (n-2)-face gradients.

    Gradient entry [f, e] is the derivative of face f (complement-key
    order) along the face's e-th edge (lexicographic order).
    """
    faces = face_vertices(n, n - 2)
    a, b = _edge_positions(n - 1)
    edge_ids = squared_distance_matrix(n, np.arange(comb(n + 1, 2)), dtype=int)
    cols = edge_ids[faces[:, a - 1], faces[:, b - 1]]
    rows = np.broadcast_to(np.arange(len(faces))[:, None], cols.shape)
    return rows, cols


def _gradients(faces: np.ndarray, stack: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Volume derivatives of each face with respect to its plain edge lengths.

    One row per face, one column per edge inside the face in lexicographic
    order.  dV/dl_e = 2 s_m cof_e l_e / V, with s_m the Cayley-Menger
    prefactor and cof_e the cofactor at the position (a, b) of l_e^2 in the
    face's CM matrix C.  The adjugate gives cof_e = det(C) (C^-1)_ab, and
    s_m det(C) = V^2, so dV/dl_e = 2 V l_e (C^-1)_ab: one batched inverse
    replaces a minor per entry.  Raises DegenerateFaceError at the first
    face with zero volume.
    """
    degenerate = sq <= ZERO_VOLUME_REL_TOL * volume_scales(stack)
    if degenerate.any():
        face = tuple((faces[int(np.argmax(degenerate))] + 1).tolist())
        raise DegenerateFaceError(f"face {face} is degenerate", face=face)
    a, b = _edge_positions(faces.shape[1])
    inverse = np.linalg.inv(stack)
    return 2.0 * np.sqrt(sq)[:, None] * np.sqrt(stack[:, a, b]) * inverse[:, a, b]


def _jacobian(n: int, faces: np.ndarray, stack: np.ndarray, sq: np.ndarray) -> np.ndarray:
    rows, cols = _jacobian_index(n)
    jac = np.zeros((len(faces), comb(n + 1, 2)))
    jac[rows, cols] = _gradients(faces, stack, sq)
    return jac


def volume_gradient(spec: SimplexSpec, face) -> dict[tuple[int, int], float]:
    """Derivatives of the face volume with respect to its plain edge lengths.

    dV/dl_e = 2 * s_m * cof_e * l_e / V, where s_m is the Cayley-Menger
    prefactor and cof_e the cofactor at one of the two symmetric positions
    of l_e^2.  Edges not inside the face have derivative 0 and are omitted.
    """
    face = tuple(sorted(face))
    if len(face) < 2:
        return {}
    stack = build_cm_matrix(spec, face).astype(float)[None]
    gradient = _gradients(np.array([face]) - 1, stack, cm_squared_volumes(stack))
    return dict(zip(combinations(face, 2), gradient[0].tolist()))


def analytic_jacobian(spec: SimplexSpec) -> np.ndarray:
    """Jacobian of all (n-2)-face volumes with respect to plain edge lengths."""
    n = spec.n
    if not is_realizable(spec):
        raise RealizabilityError("spec is not realizable")
    faces = face_vertices(n, n - 2)
    if faces.shape[1] < 2:  # n <= 2: the faces have no edges
        return np.zeros((len(faces), comb(n + 1, 2)))
    stack = cm_stack(spec.distance_matrix, faces)
    return _jacobian(n, faces, stack, cm_squared_volumes(stack))


def volumes_and_jacobian(n: int, squared: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(n-2)-face volumes and their Jacobian from one CM stack (n >= 2).

    `squared` holds float squared lengths in lex pair order, already known
    to embed: there is no Gram check.  Raises RealizabilityError at a face
    with negative squared volume, as all_face_volumes does; the Jacobian is
    None when a face is degenerate.
    """
    faces = face_vertices(n, n - 2)
    stack = cm_stack(squared_distance_matrix(n, squared), faces)
    sq = cm_squared_volumes(stack)
    values = face_volumes(faces, stack, sq)
    try:
        return values, _jacobian(n, faces, stack, sq)
    except DegenerateFaceError:
        return values, None


def fd_jacobian(spec: SimplexSpec, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian, perturbing each plain edge length by +-step."""
    n = spec.n
    lengths = np.sqrt(spec.vector())
    if step is None:
        step = FD_STEP_FACTOR * float(lengths.mean())
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")

    def volumes_at(ls: np.ndarray) -> np.ndarray:
        perturbed = SimplexSpec.from_vector(n, (ls**2).tolist())
        try:
            return all_face_volumes(perturbed, n - 2).vector()
        except RealizabilityError as exc:
            raise BoundaryError(
                f"perturbation by step {step} left the realizable region"
            ) from exc

    jac = np.empty((len(lengths), len(lengths)))
    for idx in range(len(lengths)):
        bumped = lengths.copy()
        bumped[idx] = lengths[idx] + step
        upper = volumes_at(bumped)
        bumped[idx] = lengths[idx] - step
        lower = volumes_at(bumped)
        jac[:, idx] = (upper - lower) / (2.0 * step)
    return jac


def _rank(jac: np.ndarray, rel_threshold: float = DEFAULT_RANK_THRESHOLD) -> tuple[int, float]:
    """Numerical rank and min/max singular value ratio of a Jacobian."""
    svals = np.linalg.svd(jac, compute_uv=False)
    largest = float(svals[0])
    if largest == 0.0:
        return 0, 0.0
    rank = int(np.sum(svals > rel_threshold * largest))
    return rank, float(svals[-1]) / largest


def jacobian_rank(spec: SimplexSpec, rel_threshold: float = DEFAULT_RANK_THRESHOLD):
    """Numerical rank and min/max singular value ratio of the Jacobian.

    Full rank binomial(n+1,2) certifies local algebraic independence of the
    codimension-2 face volumes at this spec.
    """
    return _rank(analytic_jacobian(spec), rel_threshold)


def verify_regular_point(n: int, tol: float = 1e-9) -> dict:
    """Compare the Jacobian at the all-unit simplex against scale * Kneser(k=2).

    Returns a report with the max entrywise deviation plus the rank
    certificate at that point.
    """
    constants = regular_point_constants(n)
    jac = analytic_jacobian(regular_simplex(n))
    pattern = build_kneser_adjacency(n, 2).matrix.astype(float)
    deviation = float(np.abs(jac - constants.scale * pattern).max())
    rank, ratio = _rank(jac)
    return {
        "n": n,
        "constant": constants.scale,
        "max_abs_deviation": deviation,
        "rank": rank,
        "sv_ratio": ratio,
        "tol": tol,
        "passed": bool(deviation <= tol and rank == comb(n + 1, 2)),
    }


def euler_identity_check(spec: SimplexSpec, face_dim: int) -> float:
    """Max over faces of |sum_e l_e * dV/dl_e - face_dim * V|.

    Volume is homogeneous of degree face_dim in the edge lengths, so the residual
    vanishes up to round-off; a degenerate face raises DegenerateFaceError.
    """
    n = spec.n
    if not 1 <= face_dim <= n:
        raise ValueError(f"face_dim must be in 1..{n}, got {face_dim}")
    if not is_realizable(spec):
        raise RealizabilityError("spec is not realizable")
    faces = face_vertices(n, face_dim)
    stack, sq = face_stack(spec, faces)
    a, b = _edge_positions(faces.shape[1])
    weighted = (np.sqrt(stack[:, a, b]) * _gradients(faces, stack, sq)).sum(axis=1)
    return float(np.abs(weighted - face_dim * np.sqrt(sq)).max())
