"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blockmodel.blockmodel import Blockmodel, resolve_merge_chain
from repro.blockmodel.deltas import delta_dl_for_merge, delta_dl_for_move
from repro.blockmodel.entropy import h_function
from repro.core.config import BACKENDS
from repro.evaluation.nmi import normalized_mutual_information, partition_entropy
from repro.graphs.graph import Graph
from repro.utils.rng import derive_seed


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw):
    """Random small directed graphs (possibly with self-loops and multi-edges)."""
    num_vertices = draw(st.integers(min_value=2, max_value=12))
    num_edges = draw(st.integers(min_value=1, max_value=40))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_vertices - 1),
                st.integers(min_value=0, max_value=num_vertices - 1),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    return Graph.from_edges(num_vertices, edges)


@st.composite
def graphs_with_assignments(draw):
    graph = draw(small_graphs())
    num_blocks = draw(st.integers(min_value=1, max_value=graph.num_vertices))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_blocks - 1),
            min_size=graph.num_vertices,
            max_size=graph.num_vertices,
        )
    )
    return graph, np.asarray(assignment), num_blocks


# ----------------------------------------------------------------------
# Block matrix invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 9)), max_size=40))
@settings(max_examples=60, deadline=None)
def test_block_matrix_matches_dense_accumulation(backend, entries):
    matrix = BACKENDS[backend](6)
    dense = np.zeros((6, 6), dtype=np.int64)
    for i, j, w in entries:
        matrix.add(i, j, w)
        dense[i, j] += w
    assert np.array_equal(matrix.to_dense(), dense)
    matrix.check_consistent()
    assert matrix.total() == dense.sum()
    assert np.array_equal(matrix.row_sums(), dense.sum(axis=1))
    assert np.array_equal(matrix.col_sums(), dense.sum(axis=0))


# ----------------------------------------------------------------------
# Blockmodel invariants
# ----------------------------------------------------------------------
@given(graphs_with_assignments())
@settings(max_examples=40, deadline=None)
def test_blockmodel_edge_mass_conserved(data):
    graph, assignment, num_blocks = data
    bm = Blockmodel.from_assignment(graph, assignment, num_blocks=num_blocks)
    assert bm.matrix.total() == graph.num_edges
    assert bm.block_out_degrees.sum() == graph.num_edges
    assert bm.block_in_degrees.sum() == graph.num_edges
    assert bm.block_sizes.sum() == graph.num_vertices


@given(graphs_with_assignments(), st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_vertex_move_preserves_invariants_and_matches_delta(data, vertex_pick, target_pick):
    graph, assignment, num_blocks = data
    bm = Blockmodel.from_assignment(graph, assignment, num_blocks=num_blocks)
    vertex = vertex_pick % graph.num_vertices
    target = target_pick % num_blocks
    predicted = delta_dl_for_move(bm, vertex, target).delta_dl
    before = bm.description_length()
    bm.move_vertex(vertex, target)
    bm.check_consistency()
    after = bm.description_length()
    assert abs((after - before) - predicted) < 1e-7
    assert bm.matrix.total() == graph.num_edges


@given(graphs_with_assignments(), st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_merge_delta_matches_rebuild(data, a_pick, b_pick):
    graph, assignment, num_blocks = data
    bm = Blockmodel.from_assignment(graph, assignment, num_blocks=num_blocks)
    block_a = a_pick % num_blocks
    block_b = b_pick % num_blocks
    if block_a == block_b:
        return
    # Compare the likelihood part only (random assignments may leave blocks
    # empty, in which case a relabelling rebuild would change the block count
    # by more than the single merge and the model term would not line up).
    predicted = delta_dl_for_merge(bm, block_a, block_b, include_model_term=False)
    target = np.arange(num_blocks)
    target[block_a] = block_b
    rebuilt = Blockmodel.from_assignment(graph, target[assignment], num_blocks=num_blocks)
    actual = (-rebuilt.log_likelihood()) - (-bm.log_likelihood())
    assert abs(predicted - actual) < 1e-7


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=10, max_size=10))
@settings(max_examples=60, deadline=None)
def test_resolve_merge_chain_is_idempotent_fixpoint(targets):
    resolved = resolve_merge_chain(np.asarray(targets))
    # Every resolved target maps to itself (it is terminal).
    assert np.array_equal(resolve_merge_chain(resolved), resolved)
    for block in range(10):
        terminal = resolved[block]
        assert resolved[terminal] == terminal


# ----------------------------------------------------------------------
# Entropy / metric properties
# ----------------------------------------------------------------------
@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_h_function_nonnegative(x):
    assert h_function(x) >= 0.0


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_nmi_self_comparison_is_one_and_bounded(labels):
    arr = np.asarray(labels)
    assert abs(normalized_mutual_information(arr, arr) - 1.0) < 1e-9
    assert partition_entropy(arr) >= 0.0


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=100),
    st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=100),
)
@settings(max_examples=80, deadline=None)
def test_nmi_symmetric_and_bounded(a, b):
    n = min(len(a), len(b))
    left = np.asarray(a[:n])
    right = np.asarray(b[:n])
    forward = normalized_mutual_information(left, right)
    backward = normalized_mutual_information(right, left)
    assert abs(forward - backward) < 1e-9
    assert 0.0 <= forward <= 1.0


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=100), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_nmi_invariant_under_relabelling(labels, shift):
    arr = np.asarray(labels)
    # A cyclic shift of the label alphabet is a bijective relabelling, so the
    # partition is unchanged and NMI against the original must be exactly 1.
    relabelled = (arr + shift) % 6 + 100
    assert abs(normalized_mutual_information(arr, relabelled) - 1.0) < 1e-9


# ----------------------------------------------------------------------
# RNG determinism
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_derive_seed_deterministic_and_path_dependent(seed, a, b):
    assert derive_seed(seed, a, b) == derive_seed(seed, a, b)
    if a != b:
        assert derive_seed(seed, a, b) != derive_seed(seed, b, a) or a == b
