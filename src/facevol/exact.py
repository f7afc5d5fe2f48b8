"""Exact integer and rational linear algebra (desk scale).

Determinants come from one Bareiss fraction-free elimination kernel over
stacks of Python-int matrices, so they are exact for integers and
Fractions, and linear systems are solved by Cramer's rule on that kernel.
Matrix products run in int64 when an a-priori bound keeps every partial
sum below 2**62, and in Python ints otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import numpy as np

_INT64_SAFE = 2**62


def bareiss_determinants(stack: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of integer matrices, shape (count, m, m).

    Entries must be Python ints (object dtype).  Each elimination step of
    Bareiss fraction-free elimination is one array expression over the whole
    stack; rows are swapped only in the matrices whose pivot is zero.  A
    matrix with no nonzero pivot candidate is singular: its trailing block
    eliminates to zeros, its last pivot is 0, and it is divided by 1, never 0.
    """
    a = np.array(stack, dtype=object)
    count, m = a.shape[0], a.shape[-1]
    odd = np.zeros(count, dtype=bool)  # odd number of row swaps
    prev = np.ones(count, dtype=object)
    for k in range(m - 1):
        zero = np.flatnonzero(a[:, k, k] == 0)
        below = a[zero, k + 1 :, k] != 0
        found = below.any(axis=1)
        swap, rows = zero[found], k + 1 + below[found].argmax(axis=1)
        a[swap, k], a[swap, rows] = a[swap, rows], a[swap, k]
        odd[swap] = ~odd[swap]
        pivot = a[:, k, k]
        # exact division is guaranteed by the Bareiss identity
        a[:, k + 1 :, k + 1 :] = (
            pivot[:, None, None] * a[:, k + 1 :, k + 1 :]
            - a[:, k + 1 :, k, None] * a[:, None, k, k + 1 :]
        ) // prev[:, None, None]
        prev = np.where(pivot == 0, 1, pivot)
    det = a[:, m - 1, m - 1] if m else np.ones(count, dtype=object)
    return np.where(odd, -det, det)


def int_determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (one-matrix Bareiss call)."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    return int(bareiss_determinants(np.array(a, dtype=object).reshape(1, n, n))[0])


def fraction_determinant(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a matrix of Fractions (or ints), each row scaled to integers."""
    frs = [[Fraction(x) for x in row] for row in rows]
    scales = [lcm(*(f.denominator for f in row)) for row in frs]
    scaled = [[int(f * m) for f in row] for row, m in zip(frs, scales)]
    return Fraction(int_determinant(scaled), prod(scales))


def exact_int_dtype(bound: int) -> type:
    """Dtype for exact integer sums whose partial sums are below `bound`.

    int64 below 2**62, else object (Python ints).
    """
    return np.int64 if bound < _INT64_SAFE else object


def _amax(a: np.ndarray) -> int:
    """max|a|, at least 1, so a bound on it also bounds each factor."""
    return max(int(np.abs(a).max(initial=0)), 1)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two integer matrices, int64 unless it needs Python ints.

    The dtype comes from the bound max|a|*max|b|*inner_dim on every partial
    sum: int64 below 2**62, and Python ints above.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    dtype = exact_int_dtype(_amax(a) * _amax(b) * a.shape[1])
    return a.astype(dtype) @ b.astype(dtype)


def solve_fraction_system(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve a small square linear system exactly by Cramer's rule.

    Every determinant is a fraction_determinant, so the elimination is the
    Bareiss kernel's.  Raises ValueError if the matrix is singular.
    """
    det = fraction_determinant(a)
    if det == 0:
        raise ValueError("singular system")
    columns = list(zip(*a))
    return [
        fraction_determinant(list(zip(*columns[:i], b, *columns[i + 1 :]))) / det
        for i in range(len(b))
    ]
