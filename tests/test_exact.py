from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

import numpy as np
import pytest

from facevol import SimplexSpec, build_cm_matrix, squared_volume
from facevol import exact
from facevol.exact import (
    bareiss_determinants,
    exact_matmul,
    fraction_determinant,
    int_determinant,
    solve_fraction_system,
)
from facevol.simplex import face_vertices, squared_volumes


def cofactor_determinant(rows):
    """Independent O(n!) oracle by first-row expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def reference_bareiss(rows):
    """Bareiss elimination on one list-of-lists integer matrix, entry by entry."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def reference_fraction_determinant(rows):
    """Determinant of a Fraction matrix: scale each row to integers, then reference_bareiss."""
    scaled, denom = [], 1
    for row in rows:
        frs = [Fraction(x) for x in row]
        m = lcm(*(f.denominator for f in frs))
        scaled.append([int(f * m) for f in frs])
        denom *= m
    return Fraction(reference_bareiss(scaled), denom)


def test_int_determinant_against_cofactor_expansion():
    rng = np.random.default_rng(0)
    for size in range(1, 7):
        for _ in range(5):
            m = rng.integers(-5, 6, size=(size, size)).tolist()
            assert int_determinant(m) == cofactor_determinant(m)


def test_int_determinant_singular_and_swaps():
    m = [[1, 2, 3], [4, 5, 6], [1, 2, 3]]
    assert int_determinant(m) == 0
    a = [[0, 1], [1, 0]]
    assert int_determinant(a) == -1  # needs a pivot swap
    assert int_determinant([[2]]) == 2
    assert int_determinant([]) == 1
    with pytest.raises(ValueError):
        int_determinant([[1, 2], [3, 4], [5, 6]])


def test_int_determinant_large_values_stay_exact():
    # Hilbert-like integer matrix with a known huge determinant:
    # diag(2^40) of size 8 -> det = 2^320
    size = 8
    m = [[2**40 if i == j else 0 for j in range(size)] for i in range(size)]
    assert int_determinant(m) == 2**320


def test_bareiss_stack_mixed_matrices():
    rng = np.random.default_rng(6)
    size = 6
    matrices = rng.integers(-9, 10, size=(3, size, size)).tolist()
    singular = rng.integers(-9, 10, size=(size, size)).tolist()
    singular[4] = [2 * x - y for x, y in zip(singular[1], singular[2])]
    matrices.append(singular)
    # the step-0 pivot is 1, but step 0 leaves 4 - 2*2 = 0 at the step-1 pivot
    later_swap = rng.integers(-9, 10, size=(size, size)).tolist()
    later_swap[0][:2] = [1, 2]
    later_swap[1][:2] = [2, 4]
    matrices.append(later_swap)
    matrices.append([[2**40 if i == j else 0 for j in range(size)] for i in range(size)])
    matrices.append([[0] * size for _ in range(size)])
    stack = np.array(matrices, dtype=object)
    dets = bareiss_determinants(stack)
    assert np.array_equal(stack, np.array(matrices, dtype=object))  # input untouched
    assert dets.shape == (len(matrices),)
    for det, rows in zip(dets, matrices):
        assert type(det) is int
        assert det == reference_bareiss(rows) == cofactor_determinant(rows)
    assert dets[3] == 0 and dets[-1] == 0 and dets[-2] == 2**240
    assert dets[4] != 0  # the swap at step 1 found a nonzero pivot


def test_bareiss_stack_edge_shapes():
    assert bareiss_determinants(np.zeros((0, 3, 3), dtype=object)).shape == (0,)
    assert bareiss_determinants(np.zeros((2, 0, 0), dtype=object)).tolist() == [1, 1]
    one = np.array([[[5]], [[-3]], [[0]]], dtype=object)
    assert bareiss_determinants(one).tolist() == [5, -3, 0]


def exact_spec(n, rng):
    """Near-regular exact spec with squared lengths 1 + k/60."""
    steps = rng.integers(0, 60, n * (n + 1) // 2).tolist()
    return SimplexSpec.from_vector(n, [1 + Fraction(k, 60) for k in steps])


def reference_squared_volume(spec, face):
    m = len(face) - 1
    prefactor = Fraction((-1) ** (m + 1), 2**m * factorial(m) ** 2)
    return prefactor * reference_fraction_determinant(build_cm_matrix(spec, face).tolist())


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_squared_volumes_match_reference_bareiss(n):
    spec = exact_spec(n, np.random.default_rng(n))
    for face_dim in range(1, n + 1):
        stacked = squared_volumes(spec, face_vertices(n, face_dim))
        for face, value in zip((face_vertices(n, face_dim) + 1).tolist(), stacked):
            assert type(value) is Fraction
            assert value == squared_volume(spec, face) == reference_squared_volume(spec, face)


def test_degenerate_exact_specs_give_exact_zero():
    collinear = SimplexSpec.from_vector(3, [1, 4, 9, 1, 4, 1])  # points 0, 1, 2, 3 on a line
    for size in (3, 4):
        for face in combinations(range(1, 5), size):
            value = squared_volume(collinear, face)
            assert type(value) is Fraction and value == 0
    # points (0,0,0), (1,0,0), (0,2,0), (0,0,1) and a copy of (0,2,0) as vertex 5
    twin = SimplexSpec.from_vector(4, [1, 4, 1, 4, 5, 2, 5, 5, 0, 5])
    for size in range(2, 6):
        for face in combinations(range(1, 6), size):
            value = squared_volume(twin, face)
            assert type(value) is Fraction
            assert (value == 0) == ({3, 5} <= set(face) or size == 5)


def test_fraction_determinant_matches_integer_path():
    rng = np.random.default_rng(1)
    for _ in range(5):
        ints = rng.integers(-4, 5, size=(5, 5)).tolist()
        assert fraction_determinant(ints) == int_determinant(ints)


def test_fraction_determinant_scaling():
    rng = np.random.default_rng(2)
    m = [[Fraction(int(x), 7) for x in row] for row in rng.integers(-4, 5, size=(4, 4))]
    scaled = [[3 * x for x in row] for row in m]
    assert fraction_determinant(scaled) == 3**4 * fraction_determinant(m)


def test_exact_matmul_int64_path():
    rng = np.random.default_rng(3)
    a = rng.integers(-9, 10, size=(6, 6))
    b = rng.integers(-9, 10, size=(6, 6))
    assert np.array_equal(exact_matmul(a, b), a.astype(np.int64) @ b.astype(np.int64))


def test_exact_matmul_bigint_fallback():
    big = 2**40
    a = np.array([[big, 1], [0, big]], dtype=object)
    product = exact_matmul(a, a)
    assert product[0, 0] == big * big  # exceeds int64
    assert product[0, 1] == 2 * big
    assert product.dtype == object


@pytest.fixture
def int_dtype_calls(monkeypatch):
    """Record (bound, dtype) of every int64-or-object choice."""
    calls = []
    choose = exact.exact_int_dtype

    def spy(bound):
        calls.append((bound, choose(bound)))
        return calls[-1][1]

    monkeypatch.setattr(exact, "exact_int_dtype", spy)
    return calls


def pinned(rng, shape, amax):
    """Random int64 entries in [-amax, amax], with entry 0 equal to -amax."""
    a = rng.integers(-amax, amax + 1, size=shape, dtype=np.int64)
    a.flat[0] = -amax
    return a


@pytest.mark.parametrize(
    "inner, amax, bmax, path",
    [
        (2, 2**26, 2**26 - 1, np.int64),  # bound 2**53 - 2**27
        (2, 2**26, 2**26, np.int64),  # bound exactly 2**53
        (4, 2**30, 2**30 - 1, np.int64),  # bound 2**62 - 2**32
        (4, 2**30, 2**30, object),  # bound exactly 2**62
    ],
)
def test_exact_matmul_paths_at_their_bounds(int_dtype_calls, inner, amax, bmax, path):
    rng = np.random.default_rng(inner + amax + bmax)
    a, b = pinned(rng, (3, inner), amax), pinned(rng, (inner, 5), bmax)
    product = exact_matmul(a, b)
    assert int_dtype_calls == [(amax * bmax * inner, path)]
    assert product.dtype == (object if path is object else np.int64)
    assert product.tolist() == np.dot(a.astype(object), b.astype(object)).tolist()


def test_exact_matmul_zero_factor_never_casts_big_entries(int_dtype_calls):
    # max|b| = 0 must not let a's 2**70 through to an int64 cast
    a = np.array([[2**70, 1]], dtype=object)
    product = exact_matmul(a, np.zeros((2, 2), dtype=np.int64))
    assert product.tolist() == [[0, 0]]
    assert int_dtype_calls == [(2**71, object)]


def test_solve_fraction_system_exact():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = [[Fraction(int(x)) for x in row] for row in rng.integers(-5, 6, size=(4, 4))]
        if fraction_determinant(a) == 0:
            continue
        x_true = [Fraction(int(v), 3) for v in rng.integers(-6, 7, size=4)]
        b = [sum(a[i][j] * x_true[j] for j in range(4)) for i in range(4)]
        assert solve_fraction_system(a, b) == x_true


def test_solve_fraction_system_singular():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(ValueError):
        solve_fraction_system(a, [Fraction(1), Fraction(1)])
