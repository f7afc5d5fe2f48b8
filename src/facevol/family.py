"""One-parameter simplex family with a single stretched edge.

T(t) is the n-simplex whose edges all have length 1 except one, of squared
length t.  It is built from a regular (n-2)-simplex of unit side: the two
remaining vertices sit over the barycenter, each at distance 1 from every
base vertex, on a circle in the last two coordinates; t is controlled by
the angle between them.

Every codimension-2 face volume takes one of two values: faces missing a
special vertex are regular, faces containing both have squared volume
quadratic in t.  That quadratic is symmetric about t0 = (n-2)/(n-3), so
the mirror instances T(t0-x) and T(t0+x) share all codimension-2 face
volumes while being non-congruent with different total volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from .simplex import (
    FaceVolumeVector,
    SimplexSpec,
    all_face_volumes,
    lex_pairs,
    spec_to_json,
    squared_volume,
)

# verify_pair report keys that make a sweep row, in column order
SWEEP_COLUMNS = ["n", "x", "t_minus", "t_plus", "max_facevol_reldiff",
                 "vol_minus", "vol_plus", "vol_reldiff"]


@dataclass(frozen=True)
class FamilyConstants:
    """Exact constants of the family in dimension n.

    c_sq is the squared circumradius of the unit regular (n-2)-simplex
    base, t0 the symmetry point of the special-face volume quadratic
    alpha*t^2 + beta*t, and x_max the largest admissible mirror offset.
    """

    n: int
    c_sq: Fraction
    t0: Fraction
    x_max: Fraction
    alpha: Fraction
    beta: Fraction

    @property
    def t_upper(self) -> Fraction:
        """Open upper bound 4*(1 - c_sq) of the admissible t interval."""
        return 4 * (1 - self.c_sq)


@dataclass
class FamilyInstance:
    """A concrete T(t): coordinates plus the circle parameters used."""

    n: int
    t: float | Fraction
    vertices: np.ndarray
    p: float
    q: float
    r: float
    s: float

    @property
    def spec(self) -> SimplexSpec:
        """Squared edge lengths: all 1 except pair (n, n+1) which is t."""
        lengths = {pair: 1 for pair in lex_pairs(self.n)}
        lengths[(self.n, self.n + 1)] = self.t
        return SimplexSpec(self.n, lengths)


@dataclass
class MirrorPair:
    """Instances at t0-x and t0+x, sharing all codimension-2 face volumes."""

    n: int
    x: float | Fraction
    minus: FamilyInstance
    plus: FamilyInstance
    report: dict | None = None


def family_constants(n: int) -> FamilyConstants:
    if n <= 3:
        raise ValueError(f"family needs n >= 4 (t0 is undefined at n=3), got {n}")
    denom = 2 ** (n - 2) * factorial(n - 2) ** 2
    return FamilyConstants(
        n=n,
        c_sq=Fraction(1, 2) - Fraction(1, 2 * (n - 1)),
        t0=Fraction(n - 2, n - 3),
        x_max=Fraction((n - 2) * (n - 1) - 4, (n - 1) * (n - 3)),
        alpha=Fraction(3 - n, denom),
        beta=Fraction(2 * n - 4, denom),
    )


def special_face_squared_volume(n: int, t):
    """Squared (n-2)-volume of a face containing both special vertices.

    Equals ((3-n)*t^2 + (2n-4)*t) / (2^(n-2) * ((n-2)!)^2); exact for
    exact t.  Defined for every t; positive exactly on (0, 2*t0), where
    the face itself embeds (a superset of the full simplex's range).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    poly = (3 - n) * t * t + (2 * n - 4) * t
    denom = 2 ** (n - 2) * factorial(n - 2) ** 2
    if isinstance(poly, (int, Fraction)):
        return Fraction(poly, denom)
    return poly / denom


def build_instance(n: int, t) -> FamilyInstance:
    """Construct T(t) with the canonical circle parametrization.

    p = sqrt(1-c^2), q = 0; (r,s) is (p,0) rotated by the angle theta with
    2*(1-c^2)*(1-cos theta) = t, taking s >= 0.
    """
    constants = family_constants(n)
    rho_sq = 1 - constants.c_sq
    if not 0 < t < 4 * rho_sq:
        raise ValueError(f"t must lie in (0, {float(4 * rho_sq)}), got {t}")

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
    return FamilyInstance(n=n, t=t, vertices=verts, p=p, q=q, r=r, s=s)


def instance_to_json(instance: FamilyInstance) -> dict:
    """Simplex JSON of the instance plus its coordinate array."""
    data = spec_to_json(instance.spec)
    data["vertices"] = [[float(x) for x in row] for row in instance.vertices]
    return data


def _special_keys(fvv: FaceVolumeVector):
    """Complement keys of faces containing both special vertices n and n+1."""
    special = {fvv.n, fvv.n + 1}
    return [key for key in fvv.keys() if not special & set(key)]


def two_value_check(instance: FamilyInstance, tol: float = 1e-10):
    """Split codimension-2 face volumes into (regular, special) common values.

    Raises ValueError if either group spreads wider than tol (relative).
    """
    fvv = all_face_volumes(instance.spec, instance.n - 2)
    special_keys = set(_special_keys(fvv))
    special = [v for k, v in fvv.values.items() if k in special_keys]
    regular = [v for k, v in fvv.values.items() if k not in special_keys]
    for name, group in (("regular", regular), ("special", special)):
        spread = max(group) - min(group)
        if spread > tol * max(abs(v) for v in group):
            raise ValueError(
                f"{name} face volumes spread by {spread}, more than two values present"
            )
    return float(np.mean(regular)), float(np.mean(special))


def build_pair(n: int, x, tol: float = 1e-10) -> MirrorPair:
    """Mirror instances at t0 -+ x, with the verification report attached."""
    constants = family_constants(n)
    if not 0 < x < constants.x_max:
        raise ValueError(f"x must lie in (0, {float(constants.x_max)}), got {x}")
    t0 = constants.t0 if isinstance(x, (int, Fraction)) else float(constants.t0)
    pair = MirrorPair(
        n=n,
        x=x,
        minus=build_instance(n, t0 - x),
        plus=build_instance(n, t0 + x),
    )
    pair.report = verify_pair(pair, tol)
    return pair


def verify_pair(pair: MirrorPair, tol: float = 1e-10) -> dict:
    """Check equal sorted codimension-2 volumes, unequal edges and volumes.

    Passes iff the sorted codimension-2 volume vectors agree to tol
    (relative), the total volumes differ by more than tol (relative), and
    the edge multisets differ.
    """
    n = pair.n
    spec_minus = pair.minus.spec
    spec_plus = pair.plus.spec

    faces_minus = np.sort(all_face_volumes(spec_minus, n - 2).vector())
    faces_plus = np.sort(all_face_volumes(spec_plus, n - 2).vector())
    face_reldiff = float(np.max(np.abs(faces_plus - faces_minus) / faces_minus))

    full = tuple(range(1, n + 2))
    vol_minus = sqrt(float(squared_volume(spec_minus, full)))
    vol_plus = sqrt(float(squared_volume(spec_plus, full)))
    vol_reldiff = abs(vol_plus - vol_minus) / vol_minus

    edges_minus = np.sort(spec_minus.vector())
    edges_plus = np.sort(spec_plus.vector())
    edge_diff = float(np.max(np.abs(edges_plus - edges_minus)))
    non_congruent = edge_diff > 1e-12 * float(edges_minus.max())

    return {
        "n": n,
        "x": float(pair.x),
        "t_minus": float(pair.minus.t),
        "t_plus": float(pair.plus.t),
        "max_facevol_reldiff": face_reldiff,
        "vol_minus": vol_minus,
        "vol_plus": vol_plus,
        "vol_reldiff": vol_reldiff,
        "non_congruent": bool(non_congruent),
        "tol": tol,
        "passed": bool(face_reldiff <= tol and vol_reldiff > tol and non_congruent),
    }


def sweep_rows(n: int, count: int = 9, tol: float = 1e-10) -> list[dict]:
    """Pair reports on the exact grid x = i/(count+1) * x_max, i = 1..count."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    x_max = family_constants(n).x_max
    reports = [build_pair(n, Fraction(i, count + 1) * x_max, tol).report
               for i in range(1, count + 1)]
    return [{column: report[column] for column in SWEEP_COLUMNS} for report in reports]
