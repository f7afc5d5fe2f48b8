"""Independent references that the tests check the library against.

None of these is called by the package: a central-difference Jacobian,
a Jacobian from one Cayley-Menger minor per entry, Euler's identity for
homogeneous face volumes, the line graph of the complete graph (the
complement of the Kneser graph K(n+1,2)), and the closed form of the
special face of the stretched-edge family T(t).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, sqrt

import numpy as np

from facevol.jacobian import _gradients
from facevol.kneser import _intersection_sizes, build_kneser_adjacency
from facevol.simplex import (
    RealizabilityError,
    SimplexSpec,
    _gram_denominator,
    all_face_volumes,
    build_cm_matrix,
    face_complement,
    face_grams,
    face_stack,
    face_vertices,
    face_volumes,
    is_realizable,
    k_subsets,
    lex_pairs,
)

FD_STEP_FACTOR = 1e-6


class BoundaryError(ValueError):
    """A finite-difference perturbation left the realizable region."""


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


def minor_gradient(spec: SimplexSpec, face) -> dict[tuple[int, int], float]:
    """dV/dl of the face's volume along each of its edges: one Cayley-Menger minor per entry.

    dV/dl_e = 2 s_m cof_e l_e / V, with s_m the Cayley-Menger prefactor and
    cof_e the cofactor at the position of l_e^2 in the face's matrix.
    """
    face = tuple(sorted(face))
    m = len(face) - 1
    cm = build_cm_matrix(spec, face).astype(float)
    prefactor = (-1) ** (m + 1) / (2**m * factorial(m) ** 2)
    vol = sqrt(prefactor * np.linalg.det(cm))
    gradient = {}
    for a, b in combinations(range(1, m + 2), 2):
        minor = np.delete(np.delete(cm, a, axis=0), b, axis=1)
        cof = (-1) ** (a + b) * np.linalg.det(minor)
        gradient[face[a - 1], face[b - 1]] = 2.0 * prefactor * cof * sqrt(cm[a, b]) / vol
    return gradient


def minor_jacobian(spec: SimplexSpec) -> np.ndarray:
    """Jacobian of the codimension-2 face volumes from minor_gradient, row by row."""
    n = spec.n
    edges = {pair: index for index, pair in enumerate(lex_pairs(n))}
    jac = np.zeros((len(edges), len(edges)))
    for row, key in enumerate(k_subsets(n, 2)):
        for edge, value in minor_gradient(spec, face_complement(n, key)).items():
            jac[row, edges[edge]] = value
    return jac


def euler_identity_check(spec: SimplexSpec, face_dim: int) -> float:
    """Max over faces of |sum_e l_e * dV/dl_e - face_dim * V|.

    Volume is homogeneous of degree face_dim in the edge lengths, so the residual
    vanishes up to round-off.  A negative face raises as face_volumes does, and
    then a degenerate one DegenerateFaceError.
    """
    n = spec.n
    if not 1 <= face_dim <= n:
        raise ValueError(f"face_dim must be in 1..{n}, got {face_dim}")
    if not is_realizable(spec):
        raise RealizabilityError("spec is not realizable")
    faces = face_vertices(n, face_dim)
    squared, sq = face_stack(spec, faces)
    volumes = face_volumes(faces, squared, sq)
    gradients = _gradients(faces, face_grams(spec.distance_matrix, faces), squared, volumes)
    weighted = (np.sqrt(squared) * gradients).sum(axis=1)
    return float(np.abs(weighted - face_dim * volumes).max())


def line_graph_adjacency(n: int) -> np.ndarray:
    """Adjacency of L(K_{n+1}) on 2-subsets: 1 iff the subsets share one element."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (_intersection_sizes(n, 2)[1] == 1).astype(np.int64)


def line_graph_complement_check(n: int) -> bool:
    """Certify A + M + I = all-ones and the eigenvalue translation it implies.

    A is the line graph of the complete graph on n+1 vertices, M the
    Kneser adjacency for k=2.  The translation sends the line-graph
    eigenvalues t = (2n-2, -2, n-3) to binomial(n+1,2)-t1-1 and -t_i-1.
    """
    a = line_graph_adjacency(n)
    m = build_kneser_adjacency(n, 2).matrix
    identity_holds = bool(np.all(a + m + np.eye(len(a), dtype=np.int64) == 1))
    t1, t2, t3 = 2 * n - 2, -2, n - 3
    translated = [comb(n + 1, 2) - t1 - 1, -t2 - 1, -t3 - 1]
    translation_holds = translated == [comb(n - 1, 2), 1, 2 - n]
    return identity_holds and translation_holds


def special_face_squared_volume(n: int, t):
    """Squared (n-2)-volume of a face containing both special vertices.

    Equals ((3-n)*t^2 + (2n-4)*t) / (2^(n-2) * ((n-2)!)^2); exact for
    exact t.  Defined for every t; positive exactly on (0, 2*t0), where
    the face itself embeds (a superset of the full simplex's range).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    poly = (3 - n) * t * t + (2 * n - 4) * t
    denom = _gram_denominator(n - 2)
    if isinstance(poly, (int, Fraction)):
        return Fraction(poly, denom)
    return poly / denom
