"""Vectorised app kernels against independent oracles, bit for bit.

``pathfinder._pathfinder`` and ``bfs._bfs`` are checked against the
pure-Python ``reference`` oracles (a list-based row DP and a
``deque`` BFS); ``ode_rhs_kernel`` against the plain ``np.roll``
formula, written out here, byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps import bfs, odesolver, pathfinder
from repro.workloads import pathfinder_wall, random_graph


def _run_bfs(nodes, edges, n_nodes, source):
    costs = np.full(n_nodes, 7, dtype=np.int32)  # the kernel must reset it
    bfs.bfs_cpu(nodes, edges, n_nodes, len(edges), source, costs)
    return costs


def _assert_bfs_exact(nodes, edges, sources=None):
    n_nodes = len(nodes) - 1
    for source in range(n_nodes) if sources is None else sources:
        got = _run_bfs(nodes, edges, n_nodes, source)
        assert got.tolist() == bfs.reference(nodes, edges, n_nodes, source).tolist()


def _csr(adjacency):
    nodes = np.zeros(len(adjacency) + 1, dtype=np.int32)
    np.cumsum([len(a) for a in adjacency], out=nodes[1:])
    edges = np.array([v for a in adjacency for v in a], dtype=np.int32)
    return nodes, edges


# -- bfs ------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    n_nodes=st.integers(2, 60),
    avg_degree=st.integers(0, 9),
    seed=st.integers(0, 2**16),
)
def test_bfs_matches_queue_oracle_on_random_graphs(n_nodes, avg_degree, seed):
    nodes, edges = random_graph(n_nodes, avg_degree, seed=seed)
    _assert_bfs_exact(nodes, edges)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n - 1), max_size=6), min_size=n, max_size=n
        )
    )
)
def test_bfs_matches_queue_oracle_on_arbitrary_adjacency(adjacency):
    # self-loops, duplicate edges, sinks and unreachable nodes included
    _assert_bfs_exact(*_csr(adjacency))


def test_bfs_long_ring_and_isolated_node():
    n = 300
    ring = [[(u + 1) % n] for u in range(n)]
    _assert_bfs_exact(*_csr(ring), sources=(0, 1, n // 2, n - 1))
    # node 5 has no edges in or out; every other node sits on the ring
    adjacency = [[(u + 1) % n if u != 4 else 6] for u in range(n)]
    adjacency[5] = []
    nodes, edges = _csr(adjacency)
    _assert_bfs_exact(nodes, edges, sources=(0, 5, 6))
    assert _run_bfs(nodes, edges, n, 0)[5] == -1


def test_bfs_serving_size_every_source():
    nodes, edges = random_graph(1000, 8, seed=3)
    _assert_bfs_exact(nodes, edges, sources=range(0, 1000, 37))


# -- pathfinder -----------------------------------------------------------------

def _run_pathfinder(wall, rows, cols):
    out = np.full(cols, -7, dtype=np.int32)
    pathfinder.pathfinder_cpu(wall, rows, cols, out)
    return out


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 50), cols=st.integers(16, 512), seed=st.integers(0, 2**16))
def test_pathfinder_matches_list_dp(rows, cols, seed):
    wall = pathfinder_wall(rows, cols, seed=seed)
    got = _run_pathfinder(wall, rows, cols)
    assert got.tolist() == pathfinder.reference(wall, rows, cols).tolist()


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(2, 12), st.integers(16, 40)).flatmap(
        lambda rc: st.tuples(
            st.just(rc),
            arrays(np.int32, rc[0] * rc[1], elements=st.integers(-10**6, 10**6)),
        )
    )
)
def test_pathfinder_matches_list_dp_on_signed_weights(case):
    (rows, cols), wall = case
    got = _run_pathfinder(wall, rows, cols)
    assert got.tolist() == pathfinder.reference(wall, rows, cols).tolist()


def test_pathfinder_serving_and_fig6_shapes():
    for rows, cols in ((2, 16), (50, 512), (100, 1000)):
        wall = pathfinder_wall(rows, cols, seed=rows)
        got = _run_pathfinder(wall, rows, cols)
        assert got.tolist() == pathfinder.reference(wall, rows, cols).tolist()


# -- ode right-hand side --------------------------------------------------------

def _rhs_roll_formula(y, k):
    a, b, diff = 1.0, 3.0, 0.02
    left = np.roll(y, 1)
    right = np.roll(y, -1)
    k[:] = (
        a + y * y * (b / (1.0 + y * y)) - y + diff * (left - 2.0 * y + right)
    ).astype(k.dtype)


@pytest.mark.parametrize("n", [2, 3, 16, 1001, 16000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ode_rhs_bytes_equal_roll_formula(n, dtype):
    assert (odesolver._BR_A, odesolver._BR_B, odesolver._DIFF) == (1.0, 3.0, 0.02)
    rng = np.random.default_rng(n)
    y = rng.uniform(0.0, 4.0, n).astype(dtype)
    y[0], y[-1] = 1e-3, 37.5  # the wrap-around neighbours differ from the rest
    expected = np.empty_like(y)
    _rhs_roll_formula(y, expected)
    got = np.full_like(y, np.nan)
    odesolver.ode_rhs_kernel(y, got, n, 0.0)
    assert got.tobytes() == expected.tobytes()
    odesolver.ode_rhs_kernel(y, y, n, 0.0)  # in place: y is also the output
    assert y.tobytes() == expected.tobytes()
