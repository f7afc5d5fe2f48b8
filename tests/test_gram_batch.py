"""Property tests: the stacked Gram test agrees with the one-spec test row by row,
the triangle screen changes none of its decisions, and the blocked first-hit
search, with or without the screen in front, agrees with the stacked test."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import SimplexSpec, is_realizable, vertices_to_spec
from facevol.simplex import (
    TRIANGLE_SCREEN_MARGIN,
    _gram_and_tolerance,
    first_realizable,
    squared_distance_matrix,
    triangle_screen,
)

DIMENSIONS = st.integers(min_value=2, max_value=6)


def gram_only(n, rows):
    """The eigvalsh-only decision of each row, in one stacked eigvalsh call."""
    g, tol = _gram_and_tolerance(squared_distance_matrix(n, np.asarray(rows, dtype=float)))
    return np.linalg.eigvalsh(g)[..., 0] >= -tol


def alone(n, row):
    """first_realizable's decision on one row."""
    return first_realizable(n, np.asarray(row, dtype=float)[None])[0] == 0


@st.composite
def flat_simplices(draw, n):
    """n+1 integer points spanning at most n-1 dimensions: Gram rank < n."""
    rank = draw(st.integers(min_value=0, max_value=n - 1))
    coords = st.integers(min_value=-6, max_value=6)
    coefficients = np.array(draw(st.lists(
        st.lists(coords, min_size=rank, max_size=rank), min_size=n + 1, max_size=n + 1
    )), dtype=float).reshape(n + 1, rank)
    basis = np.array(draw(st.lists(
        st.lists(coords, min_size=n, max_size=n), min_size=rank, max_size=rank
    )), dtype=float).reshape(rank, n)
    return vertices_to_spec(coefficients @ basis).vector()


@st.composite
def nudged(draw, row):
    """The row with one squared length moved by a relative 1e-12 .. 1e-3 either way."""
    step = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.integers(3, 12))
    row = row.copy()
    row[draw(st.integers(0, len(row) - 1))] *= 1.0 + step
    return row


@st.composite
def stacks(draw):
    """(n, rows, boundary): free rows, flat rows, flat rows nudged across the
    tolerance band, and rescaled copies of all of them."""
    n = draw(DIMENSIONS)
    dim = comb(n + 1, 2)
    free = draw(st.lists(
        st.lists(st.floats(0.0, 10.0), min_size=dim, max_size=dim), max_size=4
    ))
    flat = draw(st.lists(flat_simplices(n), min_size=1, max_size=4))
    near = [draw(nudged(row)) for row in flat]
    scales = draw(st.lists(
        st.one_of(st.floats(1e-6, 1e6), st.sampled_from([2.0**-40, 2.0**40])),
        min_size=1, max_size=3,
    ))
    base = [np.array(row, dtype=float) for row in free] + flat + near
    boundary = [False] * len(free) + [True] * len(flat) + [False] * len(near)
    rows = base + [scale * row for scale in scales for row in base]
    return n, np.array(rows), boundary * (1 + len(scales))


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stacked_gram_test_matches_single_rows(case):
    n, rows, boundary = case
    screen = triangle_screen(n, rows)
    batched = gram_only(n, rows)
    assert screen.shape == batched.shape == (len(rows),)
    assert (screen & batched).tolist() == batched.tolist()  # the triangle screen moves no decision
    for row, verdict, flat in zip(rows, batched, boundary):
        spec = SimplexSpec.from_vector(n, row.tolist())
        assert bool(verdict) == alone(n, row) == is_realizable(spec).realizable
        if flat:
            assert verdict  # points that span fewer than n dimensions still embed


def first_stacked_hit(n, rows):
    hits = np.flatnonzero(gram_only(n, rows))
    return int(hits[0]) if hits.size else None


def first_screened_hit(n, rows):
    """The start search's first hit: first_realizable on the rows that pass triangle_screen."""
    screened = np.flatnonzero(triangle_screen(n, rows))
    hit, _ = first_realizable(n, rows[screened])
    return None if hit is None else int(screened[hit])


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_first_realizable_matches_stacked_test(case):
    n, rows, _ = case
    verdicts = gram_only(n, rows)
    # every suffix moves the first hit; the rows that fail have none
    for start in range(len(rows)):
        hit = first_stacked_hit(n, rows[start:])
        assert first_realizable(n, rows[start:])[0] == hit == first_screened_hit(n, rows[start:])
    assert first_realizable(n, rows[~verdicts]) == (None, int((~verdicts).sum()))


EMBEDS = np.ones(6)  # the regular tetrahedron
FAILS = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 100.0])  # one edge longer than its triangle allows


@pytest.mark.parametrize("hit, count, tested", [
    (0, 50, 1),    # first block
    (1, 50, 5),    # just past the first block edge
    (4, 50, 5),
    (5, 50, 21),   # just past the second
    (20, 50, 21),
    (21, 50, 50),  # just past the third; the last block is cut at the end
    (49, 50, 50),  # only the last row embeds
    (None, 50, 50),
    (None, 1, 1),
    (None, 0, 0),
])
def test_first_realizable_blocks(eigvalsh_rows, hit, count, tested):
    rows = np.tile(FAILS, (count, 1))
    if hit is not None:
        rows[hit:] = EMBEDS
    assert first_realizable(3, rows) == (hit, tested)
    assert hit == first_stacked_hit(3, rows)
    assert sum(eigvalsh_rows[:-1]) == tested  # the last call is first_stacked_hit's
    assert hit == first_screened_hit(3, rows)


# --- the triangle screen in front of the Gram test ---------------------------

def triangle_low(n, row):
    """Smallest eigenvalue of every triangle's 2x2 Gram matrix at its first vertex, by eigvalsh."""
    d = squared_distance_matrix(n, np.asarray(row, dtype=float))
    return min(
        np.linalg.eigvalsh(np.array([
            [d[i, j], (d[i, j] + d[i, k] - d[j, k]) / 2],
            [(d[i, j] + d[i, k] - d[j, k]) / 2, d[i, k]],
        ]))[0]
        for i, j, k in combinations(range(n + 1), 3)
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_triangle_screen_matches_gram_test_on_log_uniform_blocks(n):
    rng = np.random.default_rng(100 + n)
    rows = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(4000, comb(n + 1, 2))))
    screen = triangle_screen(n, rows)
    assert screen.sum() < len(rows) // 2  # most draws get no eigvalsh
    # huge and tiny rescalings screen the same rows: the screen scales each row by its largest
    for scale in (1.0, 1e-300, 1e300):
        verdicts = gram_only(n, scale * rows)
        assert triangle_screen(n, scale * rows).tolist() == screen.tolist()
        assert (screen & verdicts).tolist() == verdicts.tolist()
    # subnormal rows: the 1e-300 floor under the scale keeps the screen from rejecting any
    tiny = 2.0**-1060 * rows
    assert triangle_screen(n, tiny).all()


def near_collinear(n, nudge):
    """n+1 points in general position but for the last three, which are collinear;
    the squared length of the last edge is then scaled by 1 + nudge."""
    rng = np.random.default_rng(n)
    points = rng.uniform(-1.0, 1.0, size=(n + 1, n))
    points[n] = 2 * points[n - 1] - points[n - 2]
    row = vertices_to_spec(points).vector()
    row[-1] *= 1.0 + nudge
    return row


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_triangle_screen_keeps_rows_that_embed_within_tolerance(n):
    # the triangle on the last three vertices misses vertex 1 (for n > 2) and is
    # slightly negative, but the Gram test accepts: a screen without margin would not
    row = near_collinear(n, -1e-12)
    assert triangle_low(n, row) < 0
    assert gram_only(n, row)
    assert triangle_screen(n, row[None]).tolist() == [True] and alone(n, row)
    far = near_collinear(n, -1e-3)  # well past the tolerance: both tests reject it
    assert not gram_only(n, far) and not triangle_screen(n, far[None])[0] and not alone(n, far)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_triangle_screen_margin(eigvalsh_rows, n):
    # unit lengths but one edge of squared length d; the triangles on it have
    # lam = 2 - d/2 and every row has largest length d.  Each row puts lam / 3 at
    # `factor` times the bar -TRIANGLE_SCREEN_MARGIN * (n+1) * d.
    margin = TRIANGLE_SCREEN_MARGIN * (n + 1)
    factors = [0.34, 0.99, 1.01, 3.0]
    rows = np.ones((len(factors), comb(n + 1, 2)))
    rows[:, -1] = [2 / (0.5 - 3 * factor * margin) for factor in factors]
    for row, factor in zip(rows, factors):
        assert triangle_low(n, row) / 3 / (-margin * row[-1]) == pytest.approx(factor, rel=1e-6)
    eigvalsh_rows.clear()
    screen = triangle_screen(n, rows)
    assert screen.tolist() == [True, True, False, False]  # only the two rows above the bar
    assert first_realizable(n, rows[screen]) == (None, 2)
    assert eigvalsh_rows == [1, 1]  # get an eigvalsh, in blocks of 1 and 4
    assert gram_only(n, rows).tolist() == [False] * 4


@pytest.mark.parametrize("n, rows, verdicts", [
    (1, [[0.0], [1.0], [1e-300], [5e-324], [1e300]], [True] * 5),  # no triangle
    (2, [[0.0] * 3, [1, 1, 4], [1, 1, 4.001], [1, 1, 1e-300]], [True, True, False, True]),
    (3, [[0.0] * 6, [0, 1, 1, 1, 1, 1], [0, 1, 4, 1, 1, 1]], [True, True, False]),
    (5, [[0.0] * 15], [True]),
])
def test_triangle_screen_small_and_zero_rows(n, rows, verdicts):
    # zeros: coincident vertices; n = 1 has no triangle and n = 2 exactly one
    rows = np.array(rows)
    assert (triangle_screen(n, rows) | ~np.array(verdicts)).all()
    assert gram_only(n, rows).tolist() == verdicts
    assert [alone(n, row) for row in rows] == verdicts
    assert first_screened_hit(n, rows) == verdicts.index(True)
