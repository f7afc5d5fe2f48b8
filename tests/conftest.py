from fractions import Fraction
from math import factorial, sqrt
from typing import NamedTuple

import numpy as np
import pytest

from facevol import SimplexSpec, family_constants, lex_pairs

# A flat 4-simplex: lex squared lengths that the Gram test accepts (min
# eigenvalue -2.0e-11 against a tolerance of 7.0e-10), while the squared
# volume of triangle (1, 2, 3) is negative beyond round-off.
FLAT_4_SIMPLEX = [1, 4 + 1e-10, 1, 1, 1, 2, 2, 5, 5, 2]

# Lex squared lengths of a nearly flat 4-simplex.  Inverting its
# codimension-2 volumes meets a singular damped normal matrix (eigenvalues
# 8.2e-14 to 8.8e4) from SINGULAR_STEP_START, the fifth start at seed 5.
SINGULAR_STEP_TARGET = [
    18.080557941287243, 7.993605157750313, 4.562072336924745, 6.134657625583825,
    7.487277012672893, 6.310774843528793, 6.663570422066983, 1.586616507523961,
    0.2739847483777157, 0.5423127989909685,
]
SINGULAR_STEP_START = [
    1.1961904972524808, 1.3963033220131476, 1.1459467022147725, 0.6565878994611734,
    1.287493400851394, 0.8540532977852273, 0.28993561479983243, 1.229600101907438,
    0.7767153098979163, 0.8173744213541639,
]


def perturbed_regular(n: int, rng: np.random.Generator, spread: float = 0.1) -> SimplexSpec:
    """Random realizable spec: unit squared lengths jittered by +-spread."""
    dim = n * (n + 1) // 2
    return SimplexSpec.from_vector(n, (1.0 + rng.uniform(-spread, spread, dim)).tolist())


def whole_only_spec(n: int, exact: bool = False) -> SimplexSpec:
    """T(t) with t midway between 2n/(n-1) and 2(n-1)/(n-2): only the whole simplex fails to embed.

    T(t) embeds for t < 2n/(n-1), its facets through the stretched edge for
    t < 2(n-1)/(n-2), so every proper face embeds and the Gram test fails.
    """
    t = (Fraction(2 * n, n - 1) + Fraction(2 * (n - 1), n - 2)) / 2
    lengths = {pair: 1 for pair in lex_pairs(n)}
    lengths[(n, n + 1)] = t if exact else float(t)
    return SimplexSpec(n, lengths)


class CircleInstance(NamedTuple):
    """Coordinates of T(t) and the circle parameters that placed its special vertices."""

    vertices: np.ndarray
    p: float
    q: float
    r: float
    s: float


def circle_instance(n: int, t) -> CircleInstance:
    """The circle construction of the stretched-edge family T(t), an oracle that it embeds.

    A regular (n-2)-simplex of unit side spans the first n-2 coordinates.
    Vertices n and n+1 sit over its barycenter, at (p, q) and (r, s) in the
    last two coordinates: p = sqrt(1-c^2), q = 0, and (r, s) is (p, 0)
    rotated by the angle theta with 2*(1-c^2)*(1-cos theta) = t, s >= 0.
    """
    rho_sq = 1 - family_constants(n).c_sq
    base = (sqrt(n - 1) + 1) / (sqrt(2) * (n - 2))
    verts = np.zeros((n + 1, n))
    verts[0, : n - 2] = base
    for i in range(1, n - 1):
        verts[i, i - 1] = 1 / sqrt(2)
    center = verts[: n - 1].mean(axis=0)

    rho = sqrt(float(rho_sq))
    cos_theta = 1.0 - float(t) / (2.0 * float(rho_sq))
    sin_theta = sqrt(max(1.0 - cos_theta**2, 0.0))
    p, q = rho, 0.0
    r, s = rho * cos_theta, rho * sin_theta

    verts[n - 1] = center
    verts[n - 1, n - 2 :] = (p, q)
    verts[n] = center
    verts[n, n - 2 :] = (r, s)
    return CircleInstance(verts, p, q, r, s)


def coordinate_volume_sq(points: np.ndarray, face) -> float:
    """Independent oracle: squared volume from coordinates via the edge Gram matrix."""
    pts = np.asarray(points, dtype=float)[[v - 1 for v in face]]
    m = len(face) - 1
    if m == 0:
        return 1.0
    edges = pts[1:] - pts[0]
    gram = edges @ edges.T
    return float(np.linalg.det(gram)) / factorial(m) ** 2



@pytest.fixture
def eigvalsh_rows(monkeypatch):
    """Number of matrices in each np.linalg.eigvalsh call, in call order."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return seen
