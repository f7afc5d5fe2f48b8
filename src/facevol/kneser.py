"""Exact spectra of Kneser graphs K(n+1,k) and line graphs of complete graphs.

Vertices are the k-subsets of {1,...,n+1} in lexicographic order; two
subsets are adjacent iff disjoint.  The spectrum is certified once, with
exact integer arithmetic: an annihilating polynomial product proves the
listed eigenvalues exhaust it, power traces confirm the closed-form
multiplicities, and the determinant is read off the certified spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import numpy as np

from .exact import (
    exact_hadamard_sum,
    exact_int_dtype,
    exact_matmul,
    int_determinant,
    solve_fraction_system,
)
from .simplex import k_subsets

MAX_ORDER_DEFAULT = 5000


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


def build_kneser_adjacency(n: int, k: int, max_order: int = MAX_ORDER_DEFAULT) -> KneserAdjacency:
    """Adjacency matrix of K(n+1,k): entry (E,F) = 1 iff E and F are disjoint."""
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    order = comb(n + 1, k)
    if order > max_order:
        raise ValueError(
            f"K({n + 1},{k}) has order {order}, above the limit of {max_order} "
            f"vertices for an exact adjacency matrix"
        )
    subsets, sizes = _intersection_sizes(n, k)
    return KneserAdjacency(n=n, k=k, subsets=tuple(subsets), matrix=(sizes == 0).astype(np.int64))


def predicted_eigenvalues(n: int, k: int) -> list[int]:
    """The k+1 integers (-1)^i * binomial(n-k-i+1, k-i), i = 0..k."""
    if not (2 <= k and 2 * k <= n + 1):
        raise ValueError(f"need 2 <= k <= (n+1)/2, got n={n}, k={k}")
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
    (Lovasz 1979); spectrum_report certifies both against the adjacency.
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


def _polynomial_at(powers: list[np.ndarray], roots: list[int]) -> np.ndarray:
    """(M - r_1 I)...(M - r_d I) for nonnegative M, exactly, from powers [M, ..., M^h], d <= h.

    Expands the product into coefficients c_j and sums c_j M^j, in a dtype
    chosen from the bound sum_j |c_j| max(M^j) on every entry and partial sum.
    """
    coeffs = [1]  # coeffs[j] multiplies x^j
    for r in roots:
        coeffs = [hi - r * lo for hi, lo in zip([0] + coeffs, coeffs + [0])]
    bound = abs(coeffs[0]) + sum(abs(c) * int(p.max()) for c, p in zip(coeffs[1:], powers))
    dtype = exact_int_dtype(bound)
    value = sum(c * p.astype(dtype, copy=False) for c, p in zip(coeffs[1:], powers))
    value[np.diag_indices_from(value)] += coeffs[0]
    return value


def spectrum_report(n: int, k: int) -> dict:
    """Full exact certificate: eigenvalues (descending), multiplicities, det, annihilation.

    Raises ArithmeticError unless sum_i m_i * lam_i^p = trace(M^p), p = 0..k;
    with annihilation these certify the spectrum, so det = prod lam^m (else Bareiss).

    With h = ceil((k+1)/2), M^2..M^h are built once (h - 1 products).  M is
    symmetric, so trace(M^(a+b)) = sum(M^a o M^b) gives every trace from
    them.  The annihilating polynomial prod(x - lam_i) over all k+1 listed
    eigenvalues (repeats kept) splits as Q*R with deg Q = h >= deg R, so it
    vanishes at M iff Q(M) @ R(M) = 0: one more product, h in all.
    """
    spectrum = predicted_spectrum(n, k)
    pairs = list(zip(spectrum.eigenvalues, spectrum.multiplicities))
    adj = build_kneser_adjacency(n, k)
    h = (k + 2) // 2
    powers = [adj.matrix]  # powers[a - 1] = M^a
    while len(powers) < h:
        powers.append(exact_matmul(powers[-1], adj.matrix))
    traces = [adj.order, int(np.trace(adj.matrix))] + [
        exact_hadamard_sum(powers[(p + 1) // 2 - 1], powers[p // 2 - 1]) for p in range(2, k + 1)
    ]
    for p, trace in enumerate(traces):
        expected = sum(m * lam**p for lam, m in pairs)
        if trace != expected:
            raise ArithmeticError(f"trace of M^{p} is {trace}, multiplicities give {expected}")
    roots = [int(lam) for lam in spectrum.eigenvalues]
    product = exact_matmul(_polynomial_at(powers, roots[:h]), _polynomial_at(powers, roots[h:]))
    annihilated = not np.any(product != 0)
    det = prod(lam**m for lam, m in pairs) if annihilated else exact_determinant(adj)
    pairs.sort(key=lambda pair: -pair[0])
    return {
        "n": n,
        "k": k,
        "eigenvalues": [int(lam) for lam, _ in pairs],
        "multiplicities": [int(m) for _, m in pairs],
        "det": str(det),
        "annihilation": annihilated,
    }
