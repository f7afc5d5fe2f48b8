"""Property tests: the stacked Gram test agrees with the one-spec test row by row,
and the blocked first-hit search agrees with the stacked test."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import SimplexSpec, is_realizable, vertices_to_spec
from facevol.simplex import first_realizable, realizable_rows

DIMENSIONS = st.integers(min_value=2, max_value=6)


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
    batched = realizable_rows(n, rows)
    assert batched.shape == (len(rows),)
    for row, verdict, flat in zip(rows, batched, boundary):
        spec = SimplexSpec.from_vector(n, row.tolist())
        assert bool(verdict) == is_realizable(spec).realizable
        if flat:
            assert verdict  # points that span fewer than n dimensions still embed


@settings(max_examples=50, deadline=None)
@given(DIMENSIONS, st.integers(min_value=1, max_value=5), st.integers(0, 2**32 - 1))
def test_stacked_gram_test_keeps_batch_shape(n, rows, seed):
    squared = np.random.default_rng(seed).uniform(0.25, 4.0, size=(2, rows, comb(n + 1, 2)))
    batched = realizable_rows(n, squared)
    assert batched.shape == (2, rows)
    assert batched.tolist() == [
        [is_realizable(SimplexSpec.from_vector(n, row.tolist())).realizable for row in block]
        for block in squared
    ]


def first_stacked_hit(n, rows):
    hits = np.flatnonzero(realizable_rows(n, rows))
    return int(hits[0]) if hits.size else None


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_first_realizable_matches_stacked_test(case):
    n, rows, _ = case
    verdicts = realizable_rows(n, rows)
    # every suffix moves the first hit; the rows that fail have none
    for start in range(len(rows)):
        assert first_realizable(n, rows[start:])[0] == first_stacked_hit(n, rows[start:])
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
