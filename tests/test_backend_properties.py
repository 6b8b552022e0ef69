"""Property-based cross-backend tests: array backends vs SparseBlockMatrix.

Random interleavings of the mutation and query APIs must leave every
storage backend (dense ``csr`` and true-sparse ``sparse_csr``) in states
identical to the hash-map reference: same matrix, same cached marginals,
same entropy (description length, compared **exactly** — all backends emit
identically-ordered non-zero arrays, so the vectorized likelihood reduction
is bit-identical).

``hypothesis`` is an optional dependency: the module skips cleanly when it
is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.config import get_backend  # noqa: E402
from repro.blockmodel.blockmodel import Blockmodel  # noqa: E402
from repro.blockmodel.sparse_matrix import SparseBlockMatrix  # noqa: E402
from repro.graphs.graph import Graph  # noqa: E402

MATRIX_SIZE = 6

#: The vectorized backends exercised against the hash-map reference.
ARRAY_BACKENDS = ("csr", "sparse_csr")


def _assert_matrices_equal(candidate, ref: SparseBlockMatrix) -> None:
    assert np.array_equal(candidate.to_dense(), ref.to_dense())
    assert np.array_equal(candidate.row_sums(), ref.row_sums())
    assert np.array_equal(candidate.col_sums(), ref.col_sums())
    assert candidate.total() == ref.total()
    assert candidate.nnz() == ref.nnz()
    candidate.check_consistent()
    ref.check_consistent()


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_index = st.integers(min_value=0, max_value=MATRIX_SIZE - 1)

_add_many_op = st.tuples(
    st.just("add_many"),
    st.lists(st.tuples(_index, _index, st.integers(min_value=1, max_value=7)), min_size=1, max_size=8),
)
_set_op = st.tuples(st.just("set"), st.tuples(_index, _index, st.integers(min_value=0, max_value=9)))
_get_many_op = st.tuples(
    st.just("get_many"),
    st.lists(st.tuples(_index, _index), min_size=1, max_size=8),
)
_matrix_ops = st.lists(st.one_of(_add_many_op, _set_op, _get_many_op), min_size=1, max_size=30)


@st.composite
def graph_move_sequences(draw):
    """A small random graph, an initial assignment, and a move sequence."""
    num_vertices = draw(st.integers(min_value=2, max_value=10))
    num_blocks = draw(st.integers(min_value=2, max_value=num_vertices))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1),
                st.integers(0, num_vertices - 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    assignment = draw(
        st.lists(st.integers(0, num_blocks - 1), min_size=num_vertices, max_size=num_vertices)
    )
    moves = draw(
        st.lists(
            st.tuples(st.integers(0, num_vertices - 1), st.integers(0, num_blocks - 1)),
            max_size=25,
        )
    )
    return Graph.from_edges(num_vertices, edges), np.asarray(assignment), num_blocks, moves


# ----------------------------------------------------------------------
# Matrix-level interleavings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ARRAY_BACKENDS)
@given(_matrix_ops)
@settings(max_examples=60, deadline=None)
def test_matrix_op_interleavings_keep_backends_identical(backend, ops):
    candidate = get_backend(backend)(MATRIX_SIZE)
    ref = SparseBlockMatrix(MATRIX_SIZE)
    for op, payload in ops:
        if op == "add_many":
            rows = np.asarray([i for i, _, _ in payload], dtype=np.int64)
            cols = np.asarray([j for _, j, _ in payload], dtype=np.int64)
            deltas = np.asarray([w for _, _, w in payload], dtype=np.int64)
            candidate.add_many(rows, cols, deltas)
            # The reference backend has no batched API: the same logical
            # update goes through scalar adds.
            for i, j, w in payload:
                ref.add(i, j, w)
        elif op == "set":
            i, j, value = payload
            candidate.set(i, j, value)
            ref.set(i, j, value)
        else:  # get_many
            rows = np.asarray([i for i, _ in payload], dtype=np.int64)
            cols = np.asarray([j for _, j in payload], dtype=np.int64)
            batched = candidate.get_many(rows, cols)
            scalars = [ref.get(i, j) for i, j in payload]
            assert batched.tolist() == scalars
        _assert_matrices_equal(candidate, ref)


# ----------------------------------------------------------------------
# Blockmodel-level interleavings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ARRAY_BACKENDS)
@given(graph_move_sequences())
@settings(max_examples=40, deadline=None)
def test_move_vertex_interleavings_keep_backends_identical(backend, data):
    graph, assignment, num_blocks, moves = data
    bm_cand = Blockmodel.from_assignment(graph, assignment, num_blocks, matrix_backend=backend)
    bm_ref = Blockmodel.from_assignment(graph, assignment, num_blocks, matrix_backend="dict")
    _assert_matrices_equal(bm_cand.matrix, bm_ref.matrix)
    for vertex, target in moves:
        bm_cand.move_vertex(vertex, target)
        bm_ref.move_vertex(vertex, target)
        assert np.array_equal(bm_cand.assignment, bm_ref.assignment)
        assert np.array_equal(bm_cand.block_out_degrees, bm_ref.block_out_degrees)
        assert np.array_equal(bm_cand.block_in_degrees, bm_ref.block_in_degrees)
        assert np.array_equal(bm_cand.block_sizes, bm_ref.block_sizes)
        _assert_matrices_equal(bm_cand.matrix, bm_ref.matrix)
        # All backends emit identically-ordered non-zero arrays, so the
        # vectorized entropy reduction must agree to the last bit.
        assert bm_cand.description_length() == bm_ref.description_length()
