"""Exactness of the bulk path's segmented sums (``soastore._ranges_sum``).

A bulk kernel's neighbour sums must be the scalar node function's
``reduce(operator.add, values, 0)`` to the last bit: each segment summed
left to right from 0.  The column sweep gets there with a plain add per
column while every segment is still that long and an add masked to the
longer segments after; these tests hold it to the scalar fold on
hypothesis-drawn layouts (empty segments, the ``+1`` start offset of
``sum_neighbors``, widths up to 12) over values chosen to expose any
reordering -- signed zeros, infinities, nan, subnormals, values near the
float64 limit -- and over object-dtype Python ints.  A planted mutant that
sums with ``np.add.reduceat`` (pairwise, the obvious vectorisation) must
be caught.  Last, ``BulkView.sum_closed``/``sum_neighbors`` on a real
store's dense view and on its sparse views must equal the scalar path's
``NodeView`` lists folded the same way.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SoAStore
from repro.core.soastore import _ranges_sum
from repro.graphs import random_connected_graph

#: Values whose sums depend on the order of the additions.
SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 0.1, 1e-16, float("inf"), float("-inf"), float("nan"),
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
]

floats_st = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
ints_st = st.integers(min_value=-(2**70), max_value=2**70)

# inf - inf and overflow to inf are part of what the sums must reproduce.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _fold(segment):
    """The scalar path's sum: left to right from 0."""
    return reduce(operator.add, segment, 0)


def _assert_exact(out, flat, starts, ends, is_float):
    expected = [_fold(flat[s:e].tolist()) for s, e in zip(starts.tolist(), ends.tolist())]
    got = out.tolist()
    if is_float:
        assert [float.hex(v) for v in got] == [float.hex(float(v)) for v in expected]
    else:
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]


@st.composite
def layouts(draw, values):
    """``(flat, starts, ends, is_float)``: a closed-CSR-like layout whose
    segments are ``flat[indptr[i] + offset : indptr[i + 1]]``."""
    widths = draw(st.lists(st.integers(0, 12), min_size=0, max_size=24))
    offset = draw(st.sampled_from([0, 1]))  # sum_closed / sum_neighbors
    # sum_neighbors' layout has a self value at the head of every segment.
    widths = [max(w, offset) for w in widths]
    indptr = np.zeros(len(widths) + 1, dtype=np.intp)
    np.cumsum(widths, out=indptr[1:])
    items = draw(st.lists(values, min_size=int(indptr[-1]), max_size=int(indptr[-1])))
    is_float = values is floats_st
    flat = np.array(items, dtype=np.float64 if is_float else object)
    return flat, indptr[:-1] + offset, indptr[1:], is_float


def _reduceat_sum(flat, starts, ends):
    """The planted mutant: ``np.add.reduceat`` over ``[start, end)`` index
    pairs (a sentinel keeps the last end in range); empty segments are 0."""
    out = np.zeros(len(starts), dtype=flat.dtype)
    hit = ends > starts
    if hit.any():
        pairs = np.column_stack((starts[hit], ends[hit])).ravel()
        out[hit] = np.add.reduceat(np.append(flat, flat[:1]), pairs)[::2]
    return out


def _exactness_property(sum_fn):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(layout=st.one_of(layouts(floats_st), layouts(ints_st)))
    def check(layout):
        flat, starts, ends, is_float = layout
        _assert_exact(sum_fn(flat, starts, ends), flat, starts, ends, is_float)

    return check


def test_column_sweep_equals_the_scalar_fold():
    _exactness_property(_ranges_sum)()


def test_reduceat_mutant_is_caught():
    with pytest.raises(AssertionError):
        _exactness_property(_reduceat_sum)()


@pytest.mark.parametrize("offset", [0, 1])
def test_masked_columns_leave_short_segments_alone(offset):
    """Hand-made layout: two short segments (1-wide closed, empty open)
    beside wide ones, with nan and -0.0 where a clamped gather reads."""
    nan = float("nan")
    flat = np.array([-0.0, nan, -0.0, 1e308, 1e308, -1e308, 0.1, 0.2, 0.3, -0.0])
    indptr = np.array([0, 1, 2, 6, 10])
    starts, ends = indptr[:-1] + offset, indptr[1:]
    _assert_exact(_ranges_sum(flat, starts, ends), flat, starts, ends, True)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(8, 60),
    values=st.lists(floats_st, min_size=60, max_size=60),
    picks=st.lists(st.integers(0, 59), min_size=1, max_size=20),
)
def test_bulk_views_match_the_scalar_node_lists(seed, n, values, picks):
    """Each class's dense view and sparse views (each gathered twice) of a
    real store against the lists the scalar path hands the node function
    (own value, then neighbour values in adjacency order)."""
    graph = random_connected_graph(n, avg_degree=3.0, seed=seed)
    assignment = [gid % 2 for gid in range(graph.num_nodes)]
    store = SoAStore(0, graph, assignment, lambda gid: values[gid - 1])

    def assert_matches(view):
        own = [store.value_of(gid) for gid in view.gids.tolist()]
        nbrs = [list(map(store.value_of, graph.neighbors(gid))) for gid in view.gids.tolist()]
        closed = [float.hex(float(_fold([v, *ns]))) for v, ns in zip(own, nbrs)]
        open_ = [float.hex(float(_fold(ns))) for ns in nbrs]
        assert [float.hex(v) for v in view.sum_closed().tolist()] == closed
        assert [float.hex(v) for v in view.sum_neighbors().tolist()] == open_

    for part in (0, 1):
        assert_matches(store.bulk_view(None, 0, 0, part))
    owned, split = store.num_owned(), store.num_internal()
    picked = np.unique(np.array(picks) % owned)
    for positions in (picked[picked < split], picked[picked >= split]):
        assert_matches(store.bulk_view(positions, 0, 0))
        assert_matches(store.bulk_view(positions, 0, 0))
