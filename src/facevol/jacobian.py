"""Jacobian of the edge-lengths -> codimension-2 face-volumes map.

Rows are (n-2)-faces keyed by complementary 2-subsets, columns are edges,
both in lexicographic order.  Entries are derivatives with respect to the
plain (not squared) edge length, obtained by cofactor differentiation of
the Cayley-Menger determinant; a central-difference Jacobian serves as an
independent cross-check.  At the all-unit-edges simplex the Jacobian is a
known constant times the Kneser adjacency matrix for k=2: by symmetry one
face's gradient fixes it, and the exact Kneser spectrum certifies its rank
(hence local algebraic independence of the face volumes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb, factorial, sqrt

import numpy as np

from .kneser import spectrum_report
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


def _gradients(
    faces: np.ndarray, stack: np.ndarray, sq: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """Volume derivatives of each face with respect to its plain edge lengths.

    One row per face, one column per edge inside the face in lexicographic
    order.  dV/dl_e = 2 s_m cof_e l_e / V, with s_m the Cayley-Menger
    prefactor and cof_e the cofactor at the position (a, b) of l_e^2 in the
    face's CM matrix C.  The adjugate gives cof_e = det(C) (C^-1)_ab, and
    s_m det(C) = V^2, so dV/dl_e = 2 V l_e (C^-1)_ab: one batched inverse
    replaces a minor per entry.  Raises DegenerateFaceError at the first
    face with zero volume, judged against the faces' volume_scales.
    """
    degenerate = sq <= ZERO_VOLUME_REL_TOL * scales
    if degenerate.any():
        face = tuple((faces[int(np.argmax(degenerate))] + 1).tolist())
        raise DegenerateFaceError(f"face {face} is degenerate", face=face)
    a, b = _edge_positions(faces.shape[1])
    inverse = np.linalg.inv(stack)
    return 2.0 * np.sqrt(sq)[:, None] * np.sqrt(stack[:, a, b]) * inverse[:, a, b]


def _jacobian(
    n: int, faces: np.ndarray, stack: np.ndarray, sq: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    rows, cols = _jacobian_index(n)
    jac = np.zeros((len(faces), comb(n + 1, 2)))
    jac[rows, cols] = _gradients(faces, stack, sq, scales)
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
    sq = cm_squared_volumes(stack)
    gradient = _gradients(np.array([face]) - 1, stack, sq, volume_scales(stack))
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
    return _jacobian(n, faces, stack, cm_squared_volumes(stack), volume_scales(stack))


def point_volumes(
    n: int, squared: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(n-2)-face volumes at one point, and the CM data they came from (n >= 2).

    `squared` holds float squared lengths in lex pair order, already known
    to embed: there is no Gram check.  Returns the volumes and the faces'
    (CM stack, squared volumes, volume_scales), which point_jacobian takes.
    Raises RealizabilityError at a face with negative squared volume, as
    all_face_volumes does.
    """
    faces = face_vertices(n, n - 2)
    stack = cm_stack(squared_distance_matrix(n, squared), faces)
    sq = cm_squared_volumes(stack)
    scales = volume_scales(stack)
    return face_volumes(faces, sq, scales), (stack, sq, scales)


def point_jacobian(
    n: int, stack: np.ndarray, sq: np.ndarray, scales: np.ndarray
) -> np.ndarray | None:
    """Jacobian of the (n-2)-face volumes from the CM data of point_volumes.

    None when a face is degenerate.
    """
    try:
        return _jacobian(n, face_vertices(n, n - 2), stack, sq, scales)
    except DegenerateFaceError:
        return None


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


def jacobian_rank(spec: SimplexSpec, rel_threshold: float = DEFAULT_RANK_THRESHOLD):
    """Numerical rank and min/max singular value ratio of the Jacobian.

    Full rank binomial(n+1,2) certifies local algebraic independence of the
    codimension-2 face volumes at this spec.
    """
    svals = np.linalg.svd(analytic_jacobian(spec), compute_uv=False)
    largest = float(svals[0])
    if largest == 0.0:
        return 0, 0.0
    return int(np.sum(svals > rel_threshold * largest)), float(svals[-1]) / largest


def verify_regular_point(n: int, tol: float = 1e-9) -> dict:
    """Certify the Jacobian at the all-unit simplex as scale * Kneser(k=2).

    Every vertex permutation is an isometry of the regular simplex, so entry
    [f, e] depends only on how edge e meets the complement pair of face f: it
    is 0 unless they are disjoint (e then lies outside f), and one common value
    otherwise.  So J = scale * A_2, and one face's gradient fixes the value.
    Checks n, then the Kneser order limit (spectrum_report), then the constants.
    The certified spectrum of A_2 gives the rank and sv_ratio = min|lam|/max|lam|;
    passed needs max|gradient - scale| <= tol * scale and full rank.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    spectrum = spectrum_report(n, 2)
    constants = regular_point_constants(n)
    face = np.arange(2, n + 1)[None]  # complement key (1, 2), 0-based vertices
    stack = cm_stack(regular_simplex(n).distance_matrix, face)
    gradient = _gradients(face, stack, cm_squared_volumes(stack), volume_scales(stack))
    deviation = float(np.abs(gradient - constants.scale).max())
    eigenvalues = zip(spectrum["eigenvalues"], spectrum["multiplicities"])
    nonzero = [(abs(lam), m) for lam, m in eigenvalues if lam]
    magnitudes = [lam for lam, _ in nonzero]
    rank = sum(m for _, m in nonzero)
    return {
        "n": n,
        "constant": constants.scale,
        "max_abs_deviation": deviation,
        "rank": rank,
        "sv_ratio": min(magnitudes) / max(magnitudes),
        "tol": tol,
        "passed": bool(deviation <= tol * constants.scale and rank == comb(n + 1, 2)),
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
    gradients = _gradients(faces, stack, sq, volume_scales(stack))
    weighted = (np.sqrt(stack[:, a, b]) * gradients).sum(axis=1)
    return float(np.abs(weighted - face_dim * np.sqrt(sq)).max())
