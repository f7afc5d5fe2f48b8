"""Jacobian of the edge-lengths -> codimension-2 face-volumes map.

Rows are (n-2)-faces keyed by complementary 2-subsets, columns are edges,
both in lexicographic order.  Entries are derivatives with respect to the
plain (not squared) edge length, obtained by cofactor differentiation of
the Cayley-Menger determinant.  At the all-unit-edges simplex the
Jacobian is a known constant times the Kneser adjacency matrix for k=2:
by symmetry one face's gradient fixes it, and the exact Kneser spectrum
certifies its rank (hence local algebraic independence of the face
volumes).  From n = 94 on that face's squared volume underflows a normal
double, and the check is refused with a ValueError.
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
    build_cm_matrix,
    cm_squared_volumes,
    cm_stack,
    face_vertices,
    face_volumes,
    is_realizable,
    squared_distance_matrix,
    volume_scales,
)

RANK_THRESHOLD = 1e-8  # singular values above this times the largest count toward the rank
# Largest n of analytic_jacobian, whose dense C(n+1,2)^2 matrix and full SVD grow
# as n^6: jacobian_rank at n = 50 takes 0.8 s and 138 MB (2-vCPU VM, one BLAS thread).
MAX_JACOBIAN_N = 50
REGULAR_POINT_TOL = 1e-9  # default of verify_regular_point, relative to the constant


class DegenerateFaceError(ValueError):
    """A face has zero volume, so the volume derivative is undefined."""


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
    order) along the face's e-th edge (lexicographic order).  Its column is
    that edge's lex-pair id, gathered from an id matrix at the CM positions
    that _gradients reads.  Both arrays are cached per n and read-only.
    """
    ids = squared_distance_matrix(n, np.arange(comb(n + 1, 2)), dtype=np.intp)
    a, b = _edge_positions(n - 1)
    cols = cm_stack(ids, face_vertices(n, n - 2))[:, a, b]
    cols.setflags(write=False)
    return np.broadcast_to(np.arange(len(cols))[:, None], cols.shape), cols


def _gradients(faces: np.ndarray, stack: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Volume derivatives of each face with respect to its plain edge lengths.

    Takes the faces' float CM stack and their volumes from face_volumes.
    One row per face, one column per edge inside the face in lexicographic
    order.  dV/dl_e = 2 s_m cof_e l_e / V, with s_m the Cayley-Menger
    prefactor and cof_e the cofactor at the position (a, b) of l_e^2 in the
    face's CM matrix C.  The adjugate gives cof_e = det(C) (C^-1)_ab, and
    s_m det(C) = V^2, so dV/dl_e = 2 V l_e (C^-1)_ab: one batched inverse
    replaces a minor per entry.  Raises DegenerateFaceError at the first
    face whose squared volume is at most ZERO_VOLUME_REL_TOL times its
    volume_scales; the message names the face's vertices.
    """
    degenerate = volumes**2 <= ZERO_VOLUME_REL_TOL * volume_scales(stack)
    if degenerate.any():
        face = tuple((faces[int(np.argmax(degenerate))] + 1).tolist())
        raise DegenerateFaceError(f"face {face} is degenerate")
    a, b = _edge_positions(faces.shape[1])
    inverse = np.linalg.inv(stack)
    return 2.0 * volumes[:, None] * np.sqrt(stack[:, a, b]) * inverse[:, a, b]


def _jacobian(n: int, stack: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    rows, cols = _jacobian_index(n)
    jac = np.zeros((len(volumes), comb(n + 1, 2)))
    jac[rows, cols] = _gradients(face_vertices(n, n - 2), stack, volumes)
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
    faces = np.array([face]) - 1
    stack = build_cm_matrix(spec, face).astype(float)[None]
    volumes = face_volumes(faces, stack, cm_squared_volumes(stack))
    return dict(zip(combinations(face, 2), _gradients(faces, stack, volumes)[0].tolist()))


def check_jacobian_dimension(n: int) -> None:
    """ValueError when n is above MAX_JACOBIAN_N, the largest n a Jacobian is built for."""
    if n > MAX_JACOBIAN_N:
        raise ValueError(f"jacobian dimension {n} is above the limit of {MAX_JACOBIAN_N}")


def analytic_jacobian(spec: SimplexSpec) -> np.ndarray:
    """Jacobian of all (n-2)-face volumes with respect to plain edge lengths.

    Checks n against MAX_JACOBIAN_N (ValueError) before anything is built,
    then the Gram test, then gives zeros for n <= 2.  Then point_volumes, the
    solver's kernel, raises at a negative face before _gradients at a
    degenerate one.
    """
    n = spec.n
    check_jacobian_dimension(n)
    if not is_realizable(spec):
        raise RealizabilityError("spec is not realizable")
    if n <= 2:
        return np.zeros((comb(n + 1, 2), comb(n + 1, 2)))
    volumes, stack = point_volumes(n, spec.vector())
    return _jacobian(n, stack, volumes)


def point_volumes(n: int, squared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n-2)-face volumes at one point and the faces' float CM stack (n >= 2).

    `squared` holds float squared lengths in lex pair order, already known
    to embed: there is no Gram check.  point_jacobian takes the stack and
    the volumes.  Raises RealizabilityError at a face with negative squared
    volume, as all_face_volumes does.
    """
    faces = face_vertices(n, n - 2)
    stack = cm_stack(squared_distance_matrix(n, squared), faces)
    return face_volumes(faces, stack, cm_squared_volumes(stack)), stack


def point_jacobian(n: int, stack: np.ndarray, volumes: np.ndarray) -> np.ndarray | None:
    """Jacobian of the (n-2)-face volumes from the stack and volumes of point_volumes.

    None when a face is degenerate.
    """
    try:
        return _jacobian(n, stack, volumes)
    except DegenerateFaceError:
        return None


def jacobian_rank(spec: SimplexSpec):
    """Numerical rank (RANK_THRESHOLD) and min/max singular value ratio of the Jacobian.

    Full rank binomial(n+1,2) certifies local algebraic independence of the
    codimension-2 face volumes at this spec.
    """
    svals = np.linalg.svd(analytic_jacobian(spec), compute_uv=False)
    largest = float(svals[0])
    if largest == 0.0:
        return 0, 0.0
    return int(np.sum(svals > RANK_THRESHOLD * largest)), float(svals[-1]) / largest


def verify_regular_point(n: int, tol: float = REGULAR_POINT_TOL) -> dict:
    """Certify the Jacobian at the all-unit simplex as scale * Kneser(k=2).

    Every vertex permutation is an isometry of the regular simplex, so entry
    [f, e] depends only on how edge e meets the complement pair of face f: it
    is 0 unless they are disjoint (e then lies outside f), and one common value
    otherwise.  So J = scale * A_2, and one face's gradient fixes the value.
    That face, keyed by (1, 2), is a unit regular (n-2)-simplex: its
    Cayley-Menger matrix is J - I of order n, built as it stands, with no
    spec of the whole simplex.  Checks n, then the Kneser order limit
    (spectrum_report), then the constants, then that the face's squared
    volume is a normal double: for n >= 94 it underflows (ValueError).  The
    certified spectrum of A_2 gives the rank and sv_ratio = min|lam|/max|lam|;
    passed needs max|gradient - scale| <= tol * scale and full rank.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    spectrum = spectrum_report(n, 2)
    constants = regular_point_constants(n)
    face = np.arange(2, n + 1)[None]  # complement key (1, 2), 0-based vertices
    stack = (1.0 - np.eye(n))[None]
    sq = cm_squared_volumes(stack)
    if sq[0] < np.finfo(float).tiny:
        raise ValueError(
            f"squared volume {sq[0]:.3g} of a unit {n - 2}-simplex underflows a normal double"
        )
    gradient = _gradients(face, stack, face_volumes(face, stack, sq))
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
