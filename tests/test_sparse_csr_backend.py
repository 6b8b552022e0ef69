"""Tests for the scipy-free true-sparse (CSR/COO) blockmodel backend.

Covers the :class:`SparseCSRBlockMatrix` storage class (delta-buffer
semantics, compaction, clone independence, zero-weight rows), the batched
kernels running on it, and the headline capability: block counts beyond the
dense backend's ``MAX_DENSE_BLOCKS`` ceiling, including a full partition
run that the dense backend cannot even construct.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api import partition
from repro.blockmodel.blockmodel import Blockmodel
from repro.blockmodel.csr_matrix import CSRBlockMatrix, MAX_DENSE_BLOCKS
from repro.blockmodel.deltas import delta_dl_for_move, delta_dl_for_moves
from repro.blockmodel.sparse_csr_matrix import SparseCSRBlockMatrix
from repro.core.config import SBPConfig
from repro.core.proposals import hastings_correction, hastings_corrections
from repro.core.sbp import stochastic_block_partition
from repro.graphs.generators.degree import DegreeSequenceSpec
from repro.graphs.generators.sbm import DCSBMSpec, generate_dcsbm_graph
from repro.graphs.graph import Graph


@pytest.fixture(scope="module")
def equiv_graph() -> Graph:
    """The seeded 200-vertex SBM graph used by the backend equivalence tests."""
    spec = DCSBMSpec(
        num_vertices=200,
        num_communities=4,
        degree_spec=DegreeSequenceSpec(exponent=3.0, min_degree=5, max_degree=25, duplicate=True),
        intra_inter_ratio=3.5,
        block_size_alpha=5.0,
        name="equiv-200",
    )
    return generate_dcsbm_graph(spec, seed=42)


def _ring_graph(num_vertices: int) -> Graph:
    """A directed ring: O(V) edges, so huge block counts stay cheap."""
    edges = [(v, (v + 1) % num_vertices) for v in range(num_vertices)]
    return Graph.from_edges(num_vertices, edges, name=f"ring-{num_vertices}")


class TestSparseCSRBlockMatrix:
    def test_scalar_api_matches_dense_backend(self):
        rng = np.random.default_rng(0)
        dense = rng.integers(0, 5, size=(6, 6))
        sparse = SparseCSRBlockMatrix.from_dense(dense)
        ref = CSRBlockMatrix.from_dense(dense)
        assert sparse.total() == ref.total()
        assert sparse.nnz() == ref.nnz()
        for i in range(6):
            assert sparse.row(i) == ref.row(i)
            assert sparse.col(i) == ref.col(i)
            assert sparse.row_sum(i) == ref.row_sum(i)
            assert sparse.col_sum(i) == ref.col_sum(i)
        assert np.array_equal(sparse.row_sums(), ref.row_sums())
        assert np.array_equal(sparse.col_sums(), ref.col_sums())
        assert list(sparse.entries()) == list(ref.entries())
        sparse.check_consistent()

    def test_cross_backend_equality(self):
        dense = np.array([[0, 2], [3, 1]])
        sparse = SparseCSRBlockMatrix.from_dense(dense)
        csr = CSRBlockMatrix.from_dense(dense)
        assert sparse == csr and csr == sparse
        sparse.add(0, 0, 1)
        assert sparse != csr and csr != sparse

    def test_nonzero_arrays_ordering_matches_dense_backend(self):
        rng = np.random.default_rng(8)
        dense = rng.integers(0, 3, size=(9, 9))
        sparse = SparseCSRBlockMatrix.from_dense(dense)
        i1, j1, v1 = sparse.nonzero_arrays()
        i2, j2, v2 = CSRBlockMatrix.from_dense(dense).nonzero_arrays()
        assert np.array_equal(i1, i2) and np.array_equal(j1, j2) and np.array_equal(v1, v2)

    def test_delta_buffer_reads_before_compaction(self):
        m = SparseCSRBlockMatrix(4)
        m.add(0, 1, 4)
        m.add(1, 2, 7)
        m.add(0, 1, -4)  # entry returns to zero inside the buffer
        assert m.get(0, 1) == 0
        assert m.get(1, 2) == 7
        assert m.row(0) == {}
        assert m.row(1) == {2: 7}
        assert m.col(2) == {1: 7}
        assert m.row_sum(1) == 7 and m.col_sum(2) == 7
        cols, vals = m.row_entries(1)
        assert cols.tolist() == [2] and vals.tolist() == [7]
        m.check_consistent()

    def test_explicit_compaction_is_a_logical_noop(self):
        rng = np.random.default_rng(3)
        m = SparseCSRBlockMatrix(8)
        ref = np.zeros((8, 8), dtype=np.int64)
        for _ in range(40):
            i, j, d = int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(0, 4))
            m.add(i, j, d)
            ref[i, j] += d
        before = m.to_dense()
        m.compact()
        assert np.array_equal(m.to_dense(), before)
        assert np.array_equal(m.to_dense(), ref)
        m.check_consistent()

    def test_auto_compaction_mid_sweep_preserves_state(self):
        """Mutations past the buffer threshold trigger compaction invisibly."""
        m = SparseCSRBlockMatrix(40)
        ref = CSRBlockMatrix(40)
        rng = np.random.default_rng(5)
        compacted_at_least_once = False
        for step in range(500):
            i, j, d = int(rng.integers(40)), int(rng.integers(40)), int(rng.integers(1, 3))
            m.add(i, j, d)
            ref.add(i, j, d)
            if m._delta_count == 0 and step > 0:
                compacted_at_least_once = True
            if step % 97 == 0:
                assert m == ref  # reads mid-sweep see base + buffer merged
        assert compacted_at_least_once, "buffer never auto-compacted"
        m.check_consistent()
        assert m == ref

    def test_clone_then_mutate_independence(self):
        m = SparseCSRBlockMatrix(4)
        m.add(0, 1, 3)
        m.add(2, 3, 5)
        clone = m.copy()
        clone.add(0, 1, 4)
        clone.add(2, 3, -5)  # drop an entry on the clone only
        assert m.get(0, 1) == 3 and m.get(2, 3) == 5
        assert clone.get(0, 1) == 7 and clone.get(2, 3) == 0
        m.check_consistent()
        clone.check_consistent()
        # Mutating the original must not leak into the clone either.
        m.add(1, 1, 9)
        assert clone.get(1, 1) == 0

    def test_add_rejects_negative_total(self):
        m = SparseCSRBlockMatrix(2)
        m.add(0, 1, 2)
        with pytest.raises(ValueError):
            m.add(0, 1, -3)
        assert m.get(0, 1) == 2
        m.check_consistent()

    def test_add_many_rejects_negative_without_partial_application(self):
        m = SparseCSRBlockMatrix(2)
        m.add(0, 1, 2)
        with pytest.raises(ValueError):
            m.add_many(np.array([1, 0]), np.array([0, 1]), np.array([1, -5]))
        assert m.get(0, 1) == 2
        assert m.get(1, 0) == 0
        m.check_consistent()

    def test_out_of_range_reads_raise_instead_of_aliasing(self):
        """An out-of-range column must not alias onto another entry through
        the flattened row·B + col key."""
        m = SparseCSRBlockMatrix(2)
        m.add(1, 0, 7)
        m.compact()
        with pytest.raises(IndexError):
            m.get(0, 2)
        with pytest.raises(IndexError):
            m.get_many(np.array([0]), np.array([2]))
        with pytest.raises(IndexError):
            m.get_many(np.array([-1]), np.array([0]))

    def test_get_many_merges_buffered_deltas(self):
        m = SparseCSRBlockMatrix(4)
        m.add_many(np.array([0, 1, 0, 3]), np.array([1, 2, 1, 0]), np.array([2, 5, 3, 1]))
        assert m.get(0, 1) == 5  # duplicates accumulate
        gathered = m.get_many(np.array([0, 1, 0, 3, 2]), np.array([1, 2, 1, 0, 2]))
        assert gathered.tolist() == [5, 5, 5, 1, 0]
        m.compact()
        gathered2 = m.get_many(np.array([0, 1, 0, 3, 2]), np.array([1, 2, 1, 0, 2]))
        assert gathered2.tolist() == [5, 5, 5, 1, 0]

    def test_zero_weight_rows_after_merges(self, equiv_graph):
        """Merging every vertex out of a block leaves a structurally empty
        row/column whose views and marginals must all read as empty."""
        bm = Blockmodel.from_graph(equiv_graph, num_blocks=6, matrix_backend="sparse_csr")
        merge_target = np.arange(6)
        merge_target[5] = 0  # fold block 5 into block 0
        merged = bm.apply_block_merges(merge_target)
        assert merged.num_blocks == 5  # relabelled: the empty block is gone
        # Emptying a row in place (without relabelling) via moves:
        bm2 = Blockmodel.from_graph(equiv_graph, num_blocks=6, matrix_backend="sparse_csr")
        victims = np.flatnonzero(bm2.assignment == 5)
        for v in victims.tolist():
            bm2.move_vertex(int(v), 0)
        assert bm2.block_sizes[5] == 0
        assert bm2.matrix.row_sum(5) == 0 and bm2.matrix.col_sum(5) == 0
        assert bm2.matrix.row(5) == {} and bm2.matrix.col(5) == {}
        cols, vals = bm2.matrix.row_entries(5)
        assert cols.size == 0 and vals.size == 0
        bm2.matrix.compact()
        cols, vals = bm2.matrix.row_entries(5)
        assert cols.size == 0 and vals.size == 0
        bm2.check_consistency()

    def test_check_consistent_detects_corruption(self):
        m = SparseCSRBlockMatrix.from_dense(np.array([[0, 2], [1, 0]]))
        m.data[0] = 9  # corrupt behind the cached sums
        with pytest.raises(AssertionError):
            m.check_consistent()


class TestBeyondDenseLimit:
    def test_dense_backend_rejects_and_names_registry(self):
        """The dense over-limit error must point at the backend registry."""
        with pytest.raises(ValueError) as excinfo:
            CSRBlockMatrix(MAX_DENSE_BLOCKS + 1)
        message = str(excinfo.value)
        for backend in ("'csr'", "'sparse_csr'"):
            assert backend in message
        assert "'dict'" not in message

    def test_sparse_accepts_block_counts_beyond_dense_limit(self):
        graph = _ring_graph(MAX_DENSE_BLOCKS + 8)
        with pytest.raises(ValueError):
            Blockmodel.from_graph(graph, matrix_backend="csr")
        bm = Blockmodel.from_graph(graph, matrix_backend="sparse_csr")
        assert bm.num_blocks == MAX_DENSE_BLOCKS + 8
        assert bm.matrix.total() == graph.num_edges
        assert bm.matrix_backend == "sparse_csr"

    def test_partition_run_beyond_dense_limit(self):
        """Acceptance: a partition run completes on a graph whose block count
        exceeds MAX_DENSE_BLOCKS, in far less memory than a dense B×B array
        (which would need ~8.7 GB here) would allow."""
        num_vertices = MAX_DENSE_BLOCKS + 232
        graph = _ring_graph(num_vertices)
        config = SBPConfig(
            matrix_backend="sparse_csr",
            merge_proposals_per_block=1,
            max_mcmc_iterations=1,
            mcmc_convergence_threshold=0.5,
            min_blocks=MAX_DENSE_BLOCKS,
            mcmc_variant="batch_gibbs",
            seed=3,
        )
        tracemalloc.start()
        try:
            result = partition(graph, strategy="sequential", config=config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.blockmodel.matrix_backend == "sparse_csr"
        assert result.blockmodel.num_blocks >= 1
        assert len(result.history) >= 1
        dense_bytes = num_vertices * num_vertices * 8
        assert peak < dense_bytes / 8, (
            f"peak traced memory {peak / 1e6:.0f} MB is within 8x of a dense "
            f"B×B allocation — the run must not densify the block matrix"
        )


class TestBatchedKernelsOnSparse:
    def test_delta_dl_for_moves_matches_scalar(self, equiv_graph):
        bm_sparse = Blockmodel.from_graph(equiv_graph, num_blocks=12, matrix_backend="sparse_csr")
        rng = np.random.default_rng(3)
        vertices = rng.integers(0, equiv_graph.num_vertices, size=80)
        targets = rng.integers(0, 12, size=80)
        batch = delta_dl_for_moves(bm_sparse, vertices, targets)
        for k, (v, t) in enumerate(zip(vertices.tolist(), targets.tolist())):
            scalar = delta_dl_for_move(bm_sparse, v, t)
            assert batch.delta_dl[k] == pytest.approx(scalar.delta_dl, abs=1e-9)

    def test_hastings_corrections_match_scalar(self, equiv_graph):
        bm_sparse = Blockmodel.from_graph(equiv_graph, num_blocks=12, matrix_backend="sparse_csr")
        rng = np.random.default_rng(4)
        vertices = rng.integers(0, equiv_graph.num_vertices, size=80)
        targets = rng.integers(0, 12, size=80)
        batch = delta_dl_for_moves(bm_sparse, vertices, targets)
        corrections = hastings_corrections(bm_sparse, batch)
        for k, (v, t) in enumerate(zip(vertices.tolist(), targets.tolist())):
            move = delta_dl_for_move(bm_sparse, v, t)
            if move.from_block == move.to_block:
                assert corrections[k] == 1.0
                continue
            scalar = hastings_correction(bm_sparse, move.counts, move.from_block, move.to_block)
            assert corrections[k] == pytest.approx(scalar, abs=1e-9)

    def test_kernels_see_buffered_mutations(self, equiv_graph):
        """The batched kernels must read through the COO delta buffer: moving
        vertices (buffered writes) then scoring must match a compacted clone."""
        bm = Blockmodel.from_graph(equiv_graph, num_blocks=10, matrix_backend="sparse_csr")
        rng = np.random.default_rng(6)
        for _ in range(10):
            bm.move_vertex(int(rng.integers(equiv_graph.num_vertices)), int(rng.integers(10)))
        compacted = bm.copy()  # copy() compacts
        assert compacted.matrix._delta_count == 0
        vertices = rng.integers(0, equiv_graph.num_vertices, size=40)
        targets = rng.integers(0, 10, size=40)
        live = delta_dl_for_moves(bm, vertices, targets)
        clean = delta_dl_for_moves(compacted, vertices, targets)
        assert np.array_equal(live.delta_dl, clean.delta_dl)


class TestSparseBackendEquivalence:
    @pytest.mark.parametrize("variant", ["metropolis_hastings", "batch_gibbs", "hybrid"])
    def test_identical_partitions_and_dl(self, equiv_graph, variant):
        config = SBPConfig.fast(seed=7).with_overrides(mcmc_variant=variant)
        result_csr = stochastic_block_partition(
            equiv_graph, config.with_overrides(matrix_backend="csr")
        )
        result_sparse = stochastic_block_partition(
            equiv_graph, config.with_overrides(matrix_backend="sparse_csr")
        )
        assert np.array_equal(
            result_csr.blockmodel.assignment, result_sparse.blockmodel.assignment
        )
        assert result_sparse.description_length == result_csr.description_length
        assert result_sparse.blockmodel.matrix_backend == "sparse_csr"

    def test_large_graph_preset_selects_sparse_backend(self):
        config = SBPConfig.from_preset("large_graph")
        assert config.matrix_backend == "sparse_csr"
