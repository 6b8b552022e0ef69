"""Protocol and property tests run against every storage backend.

Every backend in :data:`repro.core.config.BACKENDS` (dense ``csr`` and
true-sparse ``sparse_csr``) must behave as the same
:class:`~repro.blockmodel.backend.BlockMatrixBackend`:

* protocol cases — accumulation, negative totals raising, copy
  independence, ascending ``row_entries`` / ``col_entries`` and the rest of
  the scalar and batched API;
* random interleavings of the mutation and query APIs, checked against a
  plain dense numpy array, and random vertex-move sequences, checked
  against the naive :class:`~repro.core.reference.DenseBlockmodel` oracle;
  the description length is compared **exactly** across backends (all of
  them emit identically-ordered non-zero arrays, so the vectorized
  likelihood reduction is bit-identical);
* the chunked merge scoring of :func:`repro.core.merges.best_segmented_merges`
  against per-candidate :func:`~repro.blockmodel.deltas.delta_dl_for_merge`
  calls, with segments that straddle a chunk boundary.

``hypothesis`` is an optional dependency: the module skips cleanly when it
is not installed.
"""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from repro.blockmodel.blockmodel import Blockmodel  # noqa: E402
from repro.blockmodel.deltas import MERGE_SCORE_CHUNK, delta_dl_for_merge  # noqa: E402
from repro.core.config import BACKENDS, get_backend  # noqa: E402
from repro.core.merges import best_segmented_merges  # noqa: E402
from repro.core.reference import DenseBlockmodel  # noqa: E402
from repro.graphs.generators.degree import DegreeSequenceSpec  # noqa: E402
from repro.graphs.generators.sbm import DCSBMSpec, generate_dcsbm_graph  # noqa: E402
from repro.graphs.graph import Graph  # noqa: E402

MATRIX_SIZE = 6

backends = pytest.mark.parametrize("backend", sorted(BACKENDS))


def _assert_matches_dense(candidate, dense: np.ndarray) -> None:
    assert np.array_equal(candidate.to_dense(), dense)
    assert np.array_equal(candidate.row_sums(), dense.sum(axis=1))
    assert np.array_equal(candidate.col_sums(), dense.sum(axis=0))
    assert candidate.total() == dense.sum()
    assert candidate.nnz() == np.count_nonzero(dense)
    candidate.check_consistent()


# ----------------------------------------------------------------------
# Protocol cases
# ----------------------------------------------------------------------
@backends
class TestProtocol:
    def test_empty_matrix(self, backend):
        m = get_backend(backend)(3)
        assert m.get(0, 0) == 0
        assert m.total() == 0
        assert m.nnz() == 0

    def test_add_accumulates(self, backend):
        m = get_backend(backend)(3)
        m.add(0, 1, 5)
        m.add(0, 1, 2)
        assert m.get(0, 1) == 7
        assert m.get(1, 0) == 0

    def test_add_keeps_column_view_in_sync(self, backend):
        m = get_backend(backend)(4)
        m.add(2, 3, 4)
        assert m.col(3) == {2: 4}
        m.add(2, 3, -4)
        assert m.col(3) == {}
        m.check_consistent()

    def test_negative_totals_raise(self, backend):
        m = get_backend(backend)(2)
        m.add(0, 1, 1)
        with pytest.raises(ValueError):
            m.add(0, 1, -2)
        assert m.get(0, 1) == 1
        with pytest.raises(ValueError):
            m.set(0, 1, -1)
        with pytest.raises(ValueError):
            m.add_many(np.array([1, 0]), np.array([0, 1]), np.array([1, -5]))
        assert m.get(0, 1) == 1 and m.get(1, 0) == 0
        m.check_consistent()

    def test_set_and_remove(self, backend):
        m = get_backend(backend)(2)
        m.set(0, 0, 3)
        assert m.get(0, 0) == 3
        m.set(0, 0, 0)
        assert m.get(0, 0) == 0
        assert m.nnz() == 0

    def test_row_and_col_sums(self, backend):
        m = get_backend(backend)(3)
        m.add(0, 1, 2)
        m.add(0, 2, 3)
        m.add(1, 2, 4)
        assert m.row_sum(0) == 5
        assert m.col_sum(2) == 7
        assert m.row_sums().tolist() == [5, 4, 0]
        assert m.col_sums().tolist() == [0, 2, 7]
        assert m.total() == 9

    def test_entries_iteration(self, backend):
        m = get_backend(backend)(2)
        m.add(1, 1, 2)
        m.add(0, 1, 1)
        assert list(m.entries()) == [(0, 1, 1), (1, 1, 2)]

    def test_row_and_col_entries_ascend(self, backend):
        m = get_backend(backend)(6)
        for i, j, w in ((2, 5, 1), (2, 0, 4), (2, 3, 2), (4, 3, 7), (0, 3, 5)):
            m.add(i, j, w)
        cols, vals = m.row_entries(2)
        assert cols.tolist() == [0, 3, 5] and vals.tolist() == [4, 2, 1]
        rows, vals = m.col_entries(3)
        assert rows.tolist() == [0, 2, 4] and vals.tolist() == [5, 2, 7]
        cols, vals = m.row_entries(1)
        assert cols.size == 0 and vals.size == 0

    def test_get_many_add_many(self, backend):
        m = get_backend(backend)(4)
        rows = np.array([0, 1, 0, 3])
        cols = np.array([1, 2, 1, 0])
        m.add_many(rows, cols, np.array([2, 5, 3, 1]))
        assert m.get(0, 1) == 5  # duplicate positions accumulate
        assert m.get_many(rows, cols).tolist() == [5, 5, 5, 1]
        m.check_consistent()

    def test_from_block_edges_accumulates_duplicates(self, backend):
        m = get_backend(backend).from_block_edges(
            3, np.array([0, 2, 0]), np.array([1, 2, 1]), np.array([1, 4, 2])
        )
        assert m.get(0, 1) == 3 and m.get(2, 2) == 4 and m.nnz() == 2
        m.check_consistent()

    def test_dense_round_trip_and_equality(self, backend):
        dense = np.array([[0, 3], [1, 0]])
        m = get_backend(backend).from_dense(dense)
        assert np.array_equal(m.to_dense(), dense)
        for other in BACKENDS.values():
            assert m == other.from_dense(dense)
        m.add(0, 0, 1)
        for other in BACKENDS.values():
            assert m != other.from_dense(dense)

    def test_from_dense_rejects_non_square(self, backend):
        with pytest.raises(ValueError):
            get_backend(backend).from_dense(np.zeros((2, 3)))

    def test_negative_size_rejected(self, backend):
        with pytest.raises(ValueError):
            get_backend(backend)(-1)

    def test_copy_is_independent(self, backend):
        m = get_backend(backend)(3)
        m.add(0, 1, 2)
        m.add(1, 2, 4)
        c = m.copy()
        c.set(1, 2, 0)
        c.add(2, 0, 9)
        m.add(0, 1, -2)
        m.check_consistent()
        c.check_consistent()
        assert m.get(1, 2) == 4 and c.get(1, 2) == 0
        assert m.get(0, 1) == 0 and c.get(0, 1) == 2
        assert c.get(2, 0) == 9 and m.get(2, 0) == 0
        assert m != c

    def test_mixed_add_set_sequences_drop_zeroed_entries(self, backend):
        m = get_backend(backend)(4)
        m.add(0, 1, 3)
        m.set(1, 2, 5)
        m.add(0, 1, -3)  # entry drops back to zero and must vanish
        m.set(2, 0, 4)
        m.set(2, 0, 0)  # explicit zeroing must also vanish
        m.add(3, 3, 2)
        m.set(3, 3, 7)  # overwrite an existing entry
        m.check_consistent()
        assert m.row(0) == {} and m.col(1) == {}
        assert m.row(2) == {} and m.col(0) == {}
        assert m.get(3, 3) == 7
        assert m.nnz() == 2

    def test_interleaved_operations_match_dense_reference(self, backend):
        rng = np.random.default_rng(9)
        m = get_backend(backend)(5)
        dense = np.zeros((5, 5), dtype=np.int64)
        for _ in range(200):
            i, j = int(rng.integers(5)), int(rng.integers(5))
            if rng.random() < 0.5:
                delta = int(rng.integers(-2, 5))
                if dense[i, j] + delta < 0:
                    continue
                m.add(i, j, delta)
                dense[i, j] += delta
            else:
                value = int(rng.integers(0, 6))
                m.set(i, j, value)
                dense[i, j] = value
        _assert_matches_dense(m, dense)


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
@backends
@given(_matrix_ops)
@settings(max_examples=60, deadline=None)
def test_matrix_op_interleavings_match_dense_array(backend, ops):
    candidate = get_backend(backend)(MATRIX_SIZE)
    dense = np.zeros((MATRIX_SIZE, MATRIX_SIZE), dtype=np.int64)
    for op, payload in ops:
        if op == "add_many":
            rows = np.asarray([i for i, _, _ in payload], dtype=np.int64)
            cols = np.asarray([j for _, j, _ in payload], dtype=np.int64)
            deltas = np.asarray([w for _, _, w in payload], dtype=np.int64)
            candidate.add_many(rows, cols, deltas)
            np.add.at(dense, (rows, cols), deltas)
        elif op == "set":
            i, j, value = payload
            candidate.set(i, j, value)
            dense[i, j] = value
        else:  # get_many
            rows = np.asarray([i for i, _ in payload], dtype=np.int64)
            cols = np.asarray([j for _, j in payload], dtype=np.int64)
            assert candidate.get_many(rows, cols).tolist() == dense[rows, cols].tolist()
            assert [candidate.get(i, j) for i, j in payload] == dense[rows, cols].tolist()
        _assert_matches_dense(candidate, dense)


# ----------------------------------------------------------------------
# Blockmodel-level interleavings
# ----------------------------------------------------------------------
@given(graph_move_sequences())
@settings(max_examples=40, deadline=None)
def test_move_vertex_interleavings_match_dense_oracle(data):
    graph, assignment, num_blocks, moves = data
    models = {
        backend: Blockmodel.from_assignment(graph, assignment, num_blocks, matrix_backend=backend)
        for backend in BACKENDS
    }
    oracle = DenseBlockmodel(graph, assignment, num_blocks)
    for vertex, target in [(None, None), *moves]:
        if vertex is not None:
            oracle.move_vertex(vertex, target)
            for bm in models.values():
                bm.move_vertex(vertex, target)
        for bm in models.values():
            assert np.array_equal(bm.assignment, oracle.assignment)
            assert np.array_equal(bm.block_out_degrees, oracle.block_out_degrees)
            assert np.array_equal(bm.block_in_degrees, oracle.block_in_degrees)
            sizes = np.bincount(oracle.assignment, minlength=num_blocks)
            assert np.array_equal(bm.block_sizes, sizes)
            _assert_matches_dense(bm.matrix, oracle.matrix)
        # Identically-ordered non-zero arrays make the vectorized entropy
        # reduction agree across backends to the last bit.
        assert len({bm.description_length() for bm in models.values()}) == 1


@backends
@given(graph_move_sequences())
@settings(max_examples=40, deadline=None)
def test_batched_moves_match_one_at_a_time_moves(backend, data):
    graph, assignment, num_blocks, moves = data
    batch = dict(moves)  # one target per vertex, as the batched apply requires
    batched = Blockmodel.from_assignment(graph, assignment, num_blocks, matrix_backend=backend)
    single = batched.copy()
    batched.move_vertices(np.asarray(list(batch), dtype=np.int64), np.asarray(list(batch.values())))
    for vertex, target in batch.items():
        single.move_vertex(vertex, target)
    assert np.array_equal(batched.assignment, single.assignment)
    assert np.array_equal(batched.block_out_degrees, single.block_out_degrees)
    assert np.array_equal(batched.block_in_degrees, single.block_in_degrees)
    assert np.array_equal(batched.block_sizes, single.block_sizes)
    assert batched.matrix == single.matrix
    batched.check_consistency()


# ----------------------------------------------------------------------
# Chunked merge scoring
# ----------------------------------------------------------------------
MERGE_GRAPH_BLOCKS = 12


@lru_cache(maxsize=None)
def _merge_graph() -> Graph:
    spec = DCSBMSpec(
        num_vertices=90,
        num_communities=3,
        degree_spec=DegreeSequenceSpec(exponent=2.5, min_degree=1, max_degree=15, duplicate=True),
        intra_inter_ratio=3.0,
        block_size_alpha=4.0,
        name="merge-chunks-90",
    )
    return generate_dcsbm_graph(spec, seed=5)


@st.composite
def segmented_candidates(draw):
    """``(segments, targets)`` tiling more than one scoring chunk.

    Targets differ from their segment's block, so every candidate is scored
    and candidate ``k`` lands in chunk ``k // MERGE_SCORE_CHUNK``.
    """
    lengths = draw(st.lists(st.integers(0, 40), min_size=6, max_size=24))
    segments, targets, start = [], [], 0
    for length in lengths:
        block = draw(st.integers(0, MERGE_GRAPH_BLOCKS - 1))
        others = st.integers(0, MERGE_GRAPH_BLOCKS - 2).map(lambda t, b=block: t + (t >= b))
        targets += draw(st.lists(others, min_size=length, max_size=length))
        segments.append((block, start, start + length))
        start += length
    return segments, targets


@backends
@given(segmented_candidates())
@settings(max_examples=25, deadline=None)
def test_chunked_merge_scoring_matches_per_candidate_kernel(backend, data):
    segments, targets = data
    assume(
        any(
            start < boundary < end
            for start, end in ((seg[1], seg[2]) for seg in segments)
            for boundary in range(MERGE_SCORE_CHUNK, len(targets), MERGE_SCORE_CHUNK)
        )
    )
    bm = Blockmodel.from_graph(
        _merge_graph(), num_blocks=MERGE_GRAPH_BLOCKS, matrix_backend=backend
    )
    expected = []
    for block, start, end in segments:
        best_target, best_delta = -1, float("inf")
        for target in targets[start:end]:
            delta = delta_dl_for_merge(bm, block, target)
            if delta < best_delta:
                best_target, best_delta = target, delta
        if best_target >= 0:
            expected.append((block, best_target, best_delta))
    # Exact tuple equality: the ΔDL floats must agree bitwise.
    assert best_segmented_merges(bm, segments, targets) == expected
