"""Jacobian of the edge-lengths -> codimension-2 face-volumes map.

Rows are (n-2)-faces keyed by complementary 2-subsets, columns are edges,
both in lexicographic order.  Entries are derivatives with respect to the
plain (not squared) edge length, in closed form from the inverse of each
face's doubled Gram matrix H_ij = D_0i + D_0j - D_ij (i, j = 1..m, v_0 its
first vertex).  V^2 = det H / (2^m (m!)^2), so d(V^2)/dD = V^2 tr(H^-1 dH/dD)
(Jacobi).  dH/dD_0i = e_i 1' + 1 e_i', and D_ij (i != j) enters H_ij and
H_ji with sign -1; with D = l^2, dV/dl = (l/V) d(V^2)/dD gives

    dV/dl_0i = 2 V l_0i sum_j (H^-1)_ij,    dV/dl_ij = -2 V l_ij (H^-1)_ij,

so one batched inverse gives every entry.  At the all-unit-edges simplex
the Jacobian is a known constant times the Kneser adjacency matrix for
k=2: by symmetry one face's gradient fixes it, and the exact Kneser
spectrum certifies its rank (hence local algebraic independence of the
face volumes).  From n = 94 on that face's squared volume underflows a
normal double, and the check is refused with a ValueError.
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
    _doubled_gram,
    _face_row,
    _pair_indices,
    face_grams,
    face_squared_lengths,
    face_vertices,
    face_volumes,
    gram_squared_volumes,
    is_realizable,
    squared_distance_matrix,
    volume_scales,
)

RANK_THRESHOLD = 1e-8  # singular values above this times the largest count toward the rank
# Largest n of analytic_jacobian, whose dense C(n+1,2)^2 matrix and full SVD grow
# as n^6: jacobian_rank at n = 50 takes 0.9 s and 138 MB (2-vCPU VM, one BLAS thread).
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
def _gram_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids that gather the (n-2)-faces' squared lengths and doubled Gram matrices.

    cols[f] lists face f's edges lexicographically, its m = n-2 base-vertex
    edges first; pairs[f, i-1, j-1] is the id of edge (v_i, v_j), and of an
    appended zero, C(n+1, 2), on the diagonal.  Cached per n, read-only, in
    the smallest integer type that holds the ids (1/4 of intp at n = 50).
    """
    dim = comb(n + 1, 2)
    ids = squared_distance_matrix(n, np.arange(dim), dtype=np.min_scalar_type(dim))
    np.fill_diagonal(ids, dim)
    faces = face_vertices(n, n - 2)
    cols = face_squared_lengths(ids, faces)
    pairs = ids[faces[:, 1:, None], faces[:, None, 1:]]
    for index in (cols, pairs):
        index.setflags(write=False)
    return cols, pairs


@cache
def _jacobian_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian row (its face) and column (_gram_index's cols) of each (n-2)-face gradient entry."""
    cols = _gram_index(n)[0]
    return np.broadcast_to(np.arange(len(cols))[:, None], cols.shape), cols


def _gradients(
    faces: np.ndarray, grams: np.ndarray, squared: np.ndarray, volumes: np.ndarray
) -> np.ndarray:
    """Volume derivatives of each face along its edges, by the module docstring's closed form.

    Takes the faces' float doubled Gram matrices, squared edge lengths
    (face_squared_lengths) and volumes (face_volumes); one row per face, one
    column per edge in lexicographic order, base-vertex edges first.  Raises
    DegenerateFaceError at the first face whose squared volume is at most
    ZERO_VOLUME_REL_TOL times its volume_scales, naming its vertices.
    """
    degenerate = volumes**2 <= ZERO_VOLUME_REL_TOL * volume_scales(squared)
    if degenerate.any():
        face = tuple((faces[int(np.argmax(degenerate))] + 1).tolist())
        raise DegenerateFaceError(f"face {face} is degenerate")
    inverse = np.linalg.inv(grams)
    m = grams.shape[-1]
    i, j = _pair_indices(m - 1)  # entries above the diagonal, row by row
    gradients = np.empty(squared.shape)
    inverse.sum(axis=-1, out=gradients[:, :m])
    np.negative(inverse[:, i, j], out=gradients[:, m:])
    del inverse  # before the temporaries below, which reach 12 MB each at n = 50
    gradients *= 2.0 * volumes[:, None] * np.sqrt(squared)
    return gradients


def _jacobian(n: int, grams: np.ndarray, squared: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    rows, cols = _jacobian_index(n)
    jac = np.zeros((len(volumes), comb(n + 1, 2)))
    jac[rows, cols] = _gradients(face_vertices(n, n - 2), grams, squared, volumes)
    return jac


def volume_gradient(spec: SimplexSpec, face) -> dict[tuple[int, int], float]:
    """Derivatives of the face volume with respect to its plain edge lengths.

    Edges not inside the face have derivative 0 and are omitted.  Raises
    RealizabilityError at a negative face, then DegenerateFaceError.
    """
    face = tuple(sorted(face))
    if len(face) < 2:
        return {}
    faces = _face_row(spec, face)
    grams = face_grams(spec.distance_matrix, faces)
    squared = face_squared_lengths(spec.distance_matrix, faces)
    volumes = face_volumes(faces, squared, gram_squared_volumes(grams))
    return dict(zip(combinations(face, 2), _gradients(faces, grams, squared, volumes)[0].tolist()))


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
    return _jacobian(n, *stack, volumes)


def point_volumes(n: int, squared: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(n-2)-face volumes at one point, and the faces' stack: (Gram matrices, squared lengths).

    `squared` holds float squared lengths in lex pair order, already known
    to embed: there is no Gram check.  The Gram matrices are gathered
    through _gram_index, entry for entry those of face_grams.  Raises
    RealizabilityError at a face with negative squared volume, as
    all_face_volumes does.
    """
    cols, pairs = _gram_index(n)
    face_squared = squared[cols]
    grams = _doubled_gram(face_squared[:, : n - 2], np.concatenate((squared, [0.0]))[pairs])
    volumes = face_volumes(face_vertices(n, n - 2), face_squared, gram_squared_volumes(grams))
    return volumes, (grams, face_squared)


def point_jacobian(
    n: int, stack: tuple[np.ndarray, np.ndarray], volumes: np.ndarray
) -> np.ndarray | None:
    """Jacobian of the (n-2)-face volumes from the stack and volumes of point_volumes.

    None when a face is degenerate.
    """
    try:
        return _jacobian(n, *stack, volumes)
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
    doubled Gram matrix is I + J of order n-2, built as it stands, with no
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
    grams = (1.0 + np.eye(n - 2))[None]
    squared = np.ones((1, comb(n - 1, 2)))
    sq = gram_squared_volumes(grams)
    if sq[0] < np.finfo(float).tiny:
        raise ValueError(
            f"squared volume {sq[0]:.3g} of a unit {n - 2}-simplex underflows a normal double"
        )
    gradient = _gradients(face, grams, squared, face_volumes(face, squared, sq))
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
