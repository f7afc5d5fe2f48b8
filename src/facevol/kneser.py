"""Exact spectra of Kneser graphs K(n+1,k).

Vertices are the k-subsets of {1,...,n+1} in lexicographic order; two
subsets are adjacent iff disjoint.  The spectrum is certified once, with
exact integer arithmetic and no matrix, in the (k+1)-dimensional algebra of
the Johnson scheme J(n+1,k): an annihilating polynomial proves the listed
eigenvalues exhaust it, power traces confirm the closed-form
multiplicities, and the determinant is read off the certified spectrum.
The adjacency matrix and its certificates are an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import numpy as np

from .exact import exact_matmul, int_determinant, solve_fraction_system
from .simplex import k_subsets

MAX_ORDER = 5000  # largest Kneser order any function here accepts


@dataclass(frozen=True)
class KneserAdjacency:
    """Exact 0/1 adjacency matrix of K(n+1,k), lexicographic subset order."""

    n: int
    k: int
    subsets: tuple[tuple[int, ...], ...]
    matrix: np.ndarray

    @property
    def order(self) -> int:
        return len(self.subsets)

    @property
    def degree(self) -> int:
        return comb(self.n + 1 - self.k, self.k)


@dataclass(frozen=True)
class SpectrumSpec:
    """Integer eigenvalues with their multiplicities."""

    eigenvalues: tuple[int, ...]
    multiplicities: tuple[int, ...]


def _intersection_sizes(n: int, k: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The k-subsets of {1,...,n+1} and |E & F| for every pair of them.

    Sums k column gathers of the 0/1 incidence matrix, one per element of F,
    not a product over the ground set, whose n+1 may far exceed k.
    """
    subsets = k_subsets(n, k)
    elements = np.array(subsets) - 1
    incidence = np.zeros((len(subsets), n + 1), dtype=np.min_scalar_type(k))
    np.put_along_axis(incidence, elements, 1, axis=1)
    return subsets, sum(incidence[:, elements[:, j]] for j in range(k))


def kneser_order(n: int, k: int) -> int:
    """C(n+1,k), the order of K(n+1,k); ValueError for k outside 1..n+1 or an order past MAX_ORDER.

    C(n+1,i) grows with i up to (n+1)/2 and is built step by step, i = 1..min(k, n+1-k).
    The build stops once it passes MAX_ORDER**2 (a larger order is shown as a
    lower bound), so an input far past the limit never computes a huge binomial.
    """
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    steps, order, i = min(k, n + 1 - k), 1, 0
    while i < steps and order <= MAX_ORDER**2:
        i += 1
        order = order * (n + 2 - i) // i
    if order > MAX_ORDER:
        shown = order if i == steps else f"over {order}"
        raise ValueError(
            f"K({n + 1},{k}) has order {shown}, above the limit of {MAX_ORDER} vertices"
        )
    return order


def build_kneser_adjacency(n: int, k: int) -> KneserAdjacency:
    """Adjacency matrix of K(n+1,k): entry (E,F) = 1 iff E and F are disjoint."""
    kneser_order(n, k)
    subsets, sizes = _intersection_sizes(n, k)
    return KneserAdjacency(n=n, k=k, subsets=tuple(subsets), matrix=(sizes == 0).astype(np.int64))


def _check_spectrum_range(n: int, k: int) -> None:
    if not (2 <= k and 2 * k <= n + 1):
        raise ValueError(f"need 2 <= k <= (n+1)/2, got n={n}, k={k}")


def predicted_eigenvalues(n: int, k: int) -> list[int]:
    """The k+1 integers (-1)^i * binomial(n-k-i+1, k-i), i = 0..k."""
    _check_spectrum_range(n, k)
    return [(-1) ** i * comb(n - k - i + 1, k - i) for i in range(k + 1)]


def multiplicities_from_traces(adj: KneserAdjacency, eigenvalues) -> list[int]:
    """Recover multiplicities from power traces, exactly.

    Solves sum_i m_i * lam_i^p = trace(M^p) for p = 0..len(eigenvalues)-1
    over the rationals and certifies that the solution is a nonnegative
    integer vector.  Raises ValueError for repeated eigenvalues and
    ArithmeticError if certification fails.
    """
    lams = [int(lam) for lam in eigenvalues]
    if len(set(lams)) != len(lams):
        raise ValueError(f"eigenvalues must be pairwise distinct: {lams}")
    traces, power = [adj.order], adj.matrix
    for p in range(1, len(lams)):
        if p > 1:
            power = exact_matmul(power, adj.matrix)
        traces.append(int(np.trace(power)))
    rows = [[Fraction(lam) ** p for lam in lams] for p in range(len(lams))]
    solution = solve_fraction_system(rows, [Fraction(t) for t in traces])
    mults = []
    for lam, m in zip(lams, solution):
        if m.denominator != 1 or m < 0:
            raise ArithmeticError(
                f"multiplicity for eigenvalue {lam} is not a nonnegative integer: {m}"
            )
        mults.append(int(m))
    return mults


def predicted_spectrum(n: int, k: int) -> SpectrumSpec:
    """Eigenvalues of K(n+1,k) with their closed-form multiplicities.

    Eigenvalue i has multiplicity binomial(n+1,i) - binomial(n+1,i-1)
    (Lovasz 1979); spectrum_report certifies both.
    """
    lams = predicted_eigenvalues(n, k)
    mults = [comb(n + 1, i) - comb(n + 1, i - 1) if i else 1 for i in range(k + 1)]
    return SpectrumSpec(eigenvalues=tuple(lams), multiplicities=tuple(mults))


def verify_annihilation(adj: KneserAdjacency, spectrum: SpectrumSpec) -> bool:
    """True iff the product of (M - lam*I) over the spectrum is exactly zero."""
    eye = np.eye(adj.order, dtype=np.int64)
    product, *rest = (adj.matrix - int(lam) * eye for lam in spectrum.eigenvalues)
    for factor in rest:
        product = exact_matmul(product, factor)
    return not np.any(product != 0)


def exact_determinant(adj: KneserAdjacency) -> int:
    """Signed determinant of the adjacency matrix, exact."""
    return int_determinant(adj.matrix.tolist())


def product_rule(n: int, k: int) -> list[list[int]]:
    """Multiplication by the Kneser adjacency in the Johnson scheme J(n+1,k).

    A_l joins two k-subsets that meet in k-l points, so A_0 = I and A_k = M.
    For |E & F| = k-l, the G that miss E and meet F in k-j points number
    C(l, k-j) * C(n+1-k-l, j), so A_k A_j = sum_l L[l][j] A_l with L as returned.
    """
    return [[comb(l, k - j) * comb(n + 1 - k - l, j) for j in range(k + 1)] for l in range(k + 1)]


def _apply(rule: list[list[int]], c: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, c)) for row in rule]


def spectrum_report(n: int, k: int) -> dict:
    """Full exact certificate: eigenvalues (descending), multiplicities, det, annihilation.

    M^p = sum_l c_l A_l with c = L^p e_0 (product_rule).  Only A_0 has a nonzero
    diagonal, so trace(M^p) = C(n+1,k) c_0, and the A_l have disjoint nonempty
    supports, so prod(M - lam_i I) = 0 iff prod(L - lam_i I) e_0 = 0.  Raises
    ArithmeticError unless both checks hold (traces for p = 0..k); they certify
    the spectrum, so det = prod lam^m.  Checks k, then the order, then binomials.
    """
    _check_spectrum_range(n, k)
    order = kneser_order(n, k)
    spectrum = predicted_spectrum(n, k)
    pairs = list(zip(spectrum.eigenvalues, spectrum.multiplicities))
    rule = product_rule(n, k)
    power = [1] + [0] * k  # M^0 = A_0
    for p in range(k + 1):
        trace, expected = order * power[0], sum(m * lam**p for lam, m in pairs)
        if trace != expected:
            raise ArithmeticError(f"trace of M^{p} is {trace}, multiplicities give {expected}")
        power = _apply(rule, power)
    product = [1] + [0] * k
    for lam in spectrum.eigenvalues:
        product = [x - lam * y for x, y in zip(_apply(rule, product), product)]
    if any(product):
        raise ArithmeticError(
            f"prod(M - lam I) over the eigenvalues {list(spectrum.eigenvalues)} is not zero"
        )
    pairs.sort(key=lambda pair: -pair[0])
    return {
        "n": n,
        "k": k,
        "eigenvalues": [lam for lam, _ in pairs],
        "multiplicities": [m for _, m in pairs],
        "det": str(prod(lam**m for lam, m in pairs)),
        "annihilation": True,
    }
