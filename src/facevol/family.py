"""One-parameter simplex family with a single stretched edge.

T(t) is the n-simplex whose edges all have length 1 except one, of squared
length t.  It embeds exactly for 0 < t < 4(1 - c^2), with c the
circumradius of a regular (n-2)-simplex of unit side: the two remaining
vertices sit over that base's barycenter, each at distance 1 from every
base vertex, on a circle of squared radius 1 - c^2, and t is set by the
angle between them.  The family is handled by its squared lengths alone;
the tests keep that coordinate construction as an oracle.

Every codimension-2 face volume takes one of two values: faces missing a
special vertex are regular, faces containing both have squared volume
quadratic in t.  That quadratic is symmetric about t0 = (n-2)/(n-3), so
the mirror instances T(t0-x) and T(t0+x) share all codimension-2 face
volumes while being non-congruent with different total volume.

Every family report sees a face through one kernel, which computes two
faces per call.  Permuting the base vertices 1..n-1, or swapping the
special vertices n and n+1, maps T(t) onto itself, and so maps each
codimension-2 face onto one of equal volume.  The faces, keyed by their
complementary vertex pairs, fall into three orbits by how many special
vertices the key holds: 2 (the base, 1 face), 1 (2(n-1) faces) or 0
(C(n-1,2) faces containing both special vertices).  Within an orbit the
sorted vertex lists even give literally the same doubled Gram matrix, and
the first two orbits share the regular face's matrix, which holds no t:
it is the special face of the regular simplex T(1).  So the regular volume
is computed once per call and the special one once per t; repeated by the
orbit sizes, they give the same sorted volume vector as all C(n+1,2)
faces, for exact and for float t alike, and the two faces are a proof for
all of them.  Exact t take every face from one stacked Bareiss elimination
and every total volume from a second; float t take one batched
determinant each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from .simplex import (
    SimplexSpec, _gram_denominator, exact_floats, face_grams, gram_squared_volumes, lex_pairs,
)

# Largest family dimension and most pairs in one sweep.  The largest sweep
# they allow, n=30 with 100 pairs, takes 1.2-1.6 s and 73 MB (2-vCPU VM).
MAX_N = 30
MAX_SWEEP_COUNT = 100
PAIR_TOL = 1e-10  # default relative tolerance of a mirror-pair report

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


@dataclass(frozen=True)
class FamilyInstance:
    """T(t) in dimension n, given by its parameter, which must lie where T(t) embeds."""

    n: int
    t: float | Fraction

    def __post_init__(self):
        upper = family_constants(self.n).t_upper
        if isinstance(self.t, bool) or not 0 < self.t < upper:
            raise ValueError(f"t must lie in (0, {float(upper)}), got {self.t}")

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
    if n > MAX_N:
        raise ValueError(f"family dimension {n} is above the limit of {MAX_N}")
    denom = _gram_denominator(n - 2)
    return FamilyConstants(
        n=n,
        c_sq=Fraction(1, 2) - Fraction(1, 2 * (n - 1)),
        t0=Fraction(n - 2, n - 3),
        x_max=Fraction((n - 2) * (n - 1) - 4, (n - 1) * (n - 3)),
        alpha=Fraction(3 - n, denom),
        beta=Fraction(2 * n - 4, denom),
    )


def build_instance(n: int, t) -> FamilyInstance:
    """T(t); raises ValueError unless t lies in the open interval where it embeds."""
    return FamilyInstance(n=n, t=t)


def two_value_check(instance: FamilyInstance) -> tuple[float, float]:
    """The two codimension-2 face volumes of the instance: (regular, special).

    Regular faces miss a special vertex (2n-1 faces); special faces contain
    both (C(n-1,2) faces).  An int t counts as exact.
    """
    t = Fraction(instance.t) if isinstance(instance.t, int) else instance.t
    regular, special = _face_volumes(instance.n, [t])
    return regular, float(special[0])


def build_pair(n: int, x, tol: float = PAIR_TOL) -> MirrorPair:
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


def verify_pair(pair: MirrorPair, tol: float = PAIR_TOL) -> dict:
    """Check equal sorted codimension-2 volumes, unequal edges and volumes.

    The pair is the one at offset pair.x; see _pair_reports.
    """
    return _pair_reports(pair.n, [pair.x], tol)[0]


def _squared_volumes(n: int, ts: list, faces: np.ndarray) -> np.ndarray:
    """Squared volumes of the faces of T(t) as floats, one row per t.

    Exact t (all Fractions) take one stacked Bareiss elimination, float t
    one batched determinant, both of the same doubled Gram matrices.
    """
    off = 1 - np.eye(n + 1, dtype=int)
    if isinstance(ts[0], Fraction):
        scales = np.array([[t.denominator] for t in ts], dtype=object)
        distances = off * scales[:, :, None]
        distances[:, n - 1, n] = distances[:, n, n - 1] = [t.numerator for t in ts]
        return exact_floats(distances, faces, scales)
    distances = off * np.ones((len(ts), 1, 1))
    distances[:, n - 1, n] = distances[:, n, n - 1] = ts
    return gram_squared_volumes(face_grams(distances, faces))


def _face_volumes(n: int, ts: list) -> tuple[float, np.ndarray]:
    """The regular codimension-2 face volume, and the special one of T(t) per t.

    The special face is vertices 3..n+1; in T(1) it is the regular face.
    T(t) embeds for every admissible t, so a negative squared volume is
    round-off of a degenerate face and reads 0.
    """
    one = Fraction(1) if isinstance(ts[0], Fraction) else 1.0
    sq = _squared_volumes(n, [one, *ts], np.arange(2, n + 1)[None, :])[:, 0]
    volumes = np.sqrt(np.where(sq > 0.0, sq, 0.0))
    return float(volumes[0]), volumes[1:]


def _sorted_face_volumes(n: int, ts: list) -> np.ndarray:
    """Sorted codimension-2 face volumes of T(t), one row per t: both values repeated by orbit size."""
    regular, special = _face_volumes(n, ts)
    both = np.column_stack([np.full(len(ts), regular), special])
    return np.sort(np.repeat(both, [2 * n - 1, comb(n - 1, 2)], axis=1))


def _pair_reports(n: int, xs: list, tol: float) -> list[dict]:
    """Reports of the mirror pairs at offsets xs, all exact or all float, in (0, x_max).

    A pair passes iff its sorted codimension-2 volume vectors agree to tol
    (relative), its total volumes differ by more than tol (relative), and
    its edge multisets differ.
    """
    constants = family_constants(n)
    t0 = constants.t0 if isinstance(xs[0], (int, Fraction)) else float(constants.t0)
    ts = [t0 - x for x in xs] + [t0 + x for x in xs]
    count, size = len(xs), comb(n + 1, 2)

    faces = _sorted_face_volumes(n, ts)
    total_sq = _squared_volumes(n, ts, np.arange(n + 1)[None, :])[:, 0]
    face_reldiff = np.max(np.abs(faces[count:] - faces[:count]) / faces[:count], axis=1)
    volumes = [sqrt(sq) for sq in total_sq.tolist()]

    edges = np.ones((2 * count, size))
    edges[:, -1] = [float(t) for t in ts]
    edges.sort(axis=1)
    edge_diff = np.max(np.abs(edges[count:] - edges[:count]), axis=1)
    non_congruent = edge_diff > 1e-12 * edges[:count].max(axis=1)

    reports = []
    for i, x in enumerate(xs):
        vol_minus, vol_plus = volumes[i], volumes[count + i]
        vol_reldiff = abs(vol_plus - vol_minus) / vol_minus
        reports.append({
            "n": n,
            "x": float(x),
            "t_minus": float(ts[i]),
            "t_plus": float(ts[count + i]),
            "max_facevol_reldiff": float(face_reldiff[i]),
            "vol_minus": vol_minus,
            "vol_plus": vol_plus,
            "vol_reldiff": vol_reldiff,
            "non_congruent": bool(non_congruent[i]),
            "tol": tol,
            "passed": bool(face_reldiff[i] <= tol and vol_reldiff > tol and non_congruent[i]),
        })
    return reports


def sweep_rows(n: int, count: int = 9, tol: float = PAIR_TOL) -> list[dict]:
    """Pair reports on the exact grid x = i/(count+1) * x_max, i = 1..count."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > MAX_SWEEP_COUNT:
        raise ValueError(f"count {count} is above the limit of {MAX_SWEEP_COUNT}")
    x_max = family_constants(n).x_max
    reports = _pair_reports(n, [Fraction(i, count + 1) * x_max for i in range(1, count + 1)], tol)
    return [{column: report[column] for column in SWEEP_COLUMNS} for report in reports]
