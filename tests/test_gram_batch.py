"""Property tests: the stacked Gram test agrees with the one-spec test row by row."""

from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from facevol import SimplexSpec, is_realizable, vertices_to_spec
from facevol.simplex import realizable_rows

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
