"""Property tests: the stacked Gram test agrees with the one-spec test row by row,
and the blocked first-hit search agrees with the stacked test."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import SimplexSpec, is_realizable, vertices_to_spec
from facevol.simplex import _gram_and_tolerance, first_realizable, squared_distance_matrix

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
    batched = gram_only(n, rows)
    assert batched.shape == (len(rows),)
    for row, verdict, flat in zip(rows, batched, boundary):
        spec = SimplexSpec.from_vector(n, row.tolist())
        assert bool(verdict) == alone(n, row) == is_realizable(spec).realizable
        if flat:
            assert verdict  # points that span fewer than n dimensions still embed


def first_stacked_hit(n, rows):
    hits = np.flatnonzero(gram_only(n, rows))
    return int(hits[0]) if hits.size else None


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_first_realizable_matches_stacked_test(case):
    n, rows, _ = case
    verdicts = gram_only(n, rows)
    # every suffix moves the first hit; the rows that fail have none
    for start in range(len(rows)):
        hit = first_stacked_hit(n, rows[start:])
        assert first_realizable(n, rows[start:])[0] == hit
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
def test_gram_test_keeps_rows_that_embed_within_tolerance(n):
    # the triangle on the last three vertices is slightly negative, but within the tolerance
    row = near_collinear(n, -1e-12)
    assert gram_only(n, row) and alone(n, row)
    far = near_collinear(n, -1e-3)  # well past the tolerance: both tests reject it
    assert not gram_only(n, far) and not alone(n, far)


@pytest.mark.parametrize("n, rows, verdicts", [
    (1, [[0.0], [1.0], [1e-300], [5e-324], [1e300]], [True] * 5),  # no triangle
    (2, [[0.0] * 3, [1, 1, 4], [1, 1, 4.001], [1, 1, 1e-300]], [True, True, False, True]),
    (3, [[0.0] * 6, [0, 1, 1, 1, 1, 1], [0, 1, 4, 1, 1, 1]], [True, True, False]),
    (5, [[0.0] * 15], [True]),
])
def test_gram_test_small_and_zero_rows(n, rows, verdicts):
    # zeros: coincident vertices; n = 1 has no triangle and n = 2 exactly one
    rows = np.array(rows)
    assert gram_only(n, rows).tolist() == verdicts
    assert [alone(n, row) for row in rows] == verdicts
    assert first_realizable(n, rows)[0] == verdicts.index(True)
