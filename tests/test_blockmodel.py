"""Tests for the Blockmodel state and its incremental updates."""

import numpy as np
import pytest

from repro.blockmodel.blockmodel import Blockmodel, resolve_merge_chain


class TestConstruction:
    def test_from_graph_singleton_blocks(self, tiny_graph):
        bm = Blockmodel.from_graph(tiny_graph)
        assert bm.num_blocks == tiny_graph.num_vertices
        assert np.array_equal(bm.assignment, np.arange(tiny_graph.num_vertices))
        assert bm.block_sizes.tolist() == [1] * tiny_graph.num_vertices

    def test_from_graph_limited_blocks(self, tiny_graph):
        bm = Blockmodel.from_graph(tiny_graph, num_blocks=2)
        assert bm.num_blocks == 2
        assert bm.block_sizes.sum() == tiny_graph.num_vertices

    def test_from_assignment_matches_edge_counts(self, tiny_graph):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_graph.true_assignment)
        # Triangle A: 5 internal edges; triangle B: 5; one bridge A->B.
        assert bm.matrix.get(0, 0) == 5
        assert bm.matrix.get(1, 1) == 5
        assert bm.matrix.get(0, 1) == 1
        assert bm.matrix.get(1, 0) == 0

    def test_degrees_match_matrix_sums(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        assert np.array_equal(bm.block_out_degrees, bm.matrix.row_sums())
        assert np.array_equal(bm.block_in_degrees, bm.matrix.col_sums())
        assert bm.block_out_degrees.sum() == planted_graph.num_edges

    def test_relabel_compacts_labels(self, tiny_graph):
        labels = np.array([5, 5, 5, 9, 9, 9])
        bm = Blockmodel.from_assignment(tiny_graph, labels, relabel=True)
        assert bm.num_blocks == 2
        assert set(bm.assignment.tolist()) == {0, 1}

    def test_bad_assignment_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            Blockmodel.from_assignment(tiny_graph, np.array([0, 1]))
        with pytest.raises(ValueError):
            Blockmodel.from_assignment(tiny_graph, np.array([0, 0, 0, 0, 0, 7]), num_blocks=2)

    def test_copy_is_independent(self, tiny_graph):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_graph.true_assignment)
        cp = bm.copy()
        cp.move_vertex(0, 1)
        assert bm.block_of(0) == 0
        assert cp.block_of(0) == 1
        bm.check_consistency()
        cp.check_consistency()


class TestVertexMoves:
    def test_move_updates_assignment_and_sizes(self, tiny_graph):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_graph.true_assignment)
        bm.move_vertex(0, 1)
        assert bm.block_of(0) == 1
        assert bm.block_sizes.tolist() == [2, 4]

    def test_move_keeps_state_consistent(self, planted_graph, rng):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        for _ in range(25):
            v = int(rng.integers(planted_graph.num_vertices))
            bm.move_vertex(v, int(rng.integers(bm.num_blocks)))
        bm.check_consistency()

    def test_move_to_same_block_is_noop(self, tiny_graph):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_graph.true_assignment)
        before = bm.matrix.to_dense()
        bm.move_vertex(0, 0)
        assert np.array_equal(bm.matrix.to_dense(), before)

    def test_move_out_of_range_rejected(self, tiny_graph):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_graph.true_assignment)
        with pytest.raises(ValueError):
            bm.move_vertex(0, 5)
        with pytest.raises(ValueError):
            bm.move_vertices(np.array([0, 1]), np.array([1, 5]))
        bm.check_consistency()  # a rejected batch changes nothing

    def test_move_with_precomputed_counts(self, tiny_graph):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_graph.true_assignment)
        counts = bm.vertex_block_counts(0)
        bm.move_vertex(0, 1, counts)
        bm.check_consistency()

    def test_vertex_block_counts_totals_match_degree(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        for v in range(0, planted_graph.num_vertices, 17):
            counts = bm.vertex_block_counts(v)
            assert counts.out_total == planted_graph.out_degree(v)
            assert counts.in_total == planted_graph.in_degree(v)

    def test_self_loop_handling(self):
        from repro.graphs.graph import Graph

        g = Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
        bm = Blockmodel.from_assignment(g, np.array([0, 0, 1]))
        counts = bm.vertex_block_counts(0)
        assert counts.self_loop == 1
        bm.move_vertex(0, 1, counts)
        bm.check_consistency()
        assert bm.matrix.get(1, 1) == 1  # the self-loop moved with the vertex


class TestBlockMerges:
    def test_apply_block_merges_reduces_blocks(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        target = np.arange(bm.num_blocks)
        target[0] = 1
        merged = bm.apply_block_merges(target)
        assert merged.num_blocks == bm.num_blocks - 1
        merged.check_consistency()

    def test_merge_chain_resolution(self):
        target = np.array([1, 2, 2, 3])
        resolved = resolve_merge_chain(target)
        assert resolved.tolist() == [2, 2, 2, 3]

    def test_merge_cycle_collapses(self):
        target = np.array([1, 0, 2])
        resolved = resolve_merge_chain(target)
        assert resolved[0] == resolved[1]

    def test_merge_target_shape_checked(self, tiny_graph):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_graph.true_assignment)
        with pytest.raises(ValueError):
            bm.apply_block_merges(np.array([0]))

    def test_merge_preserves_total_edges(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        target = np.arange(bm.num_blocks)
        target[2] = 0
        merged = bm.apply_block_merges(target)
        assert merged.matrix.total() == bm.matrix.total()


class TestSamplingAndMetrics:
    def test_sample_neighbor_block_returns_adjacent(self, planted_graph, rng):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        for block in range(bm.num_blocks):
            nbr = bm.sample_neighbor_block(block, rng)
            assert 0 <= nbr < bm.num_blocks
            assert bm.matrix.get(block, nbr) > 0 or bm.matrix.get(nbr, block) > 0

    def test_sample_neighbor_block_isolated(self, rng):
        from repro.graphs.graph import Graph

        g = Graph.from_edges(3, [(0, 1)])
        bm = Blockmodel.from_assignment(g, np.array([0, 1, 2]))
        assert bm.sample_neighbor_block(2, rng) == -1

    def test_nonempty_block_count(self, tiny_graph):
        bm = Blockmodel.from_assignment(tiny_graph, np.array([0, 0, 0, 2, 2, 2]), num_blocks=3)
        assert bm.num_nonempty_blocks() == 2
        assert bm.nonempty_blocks().tolist() == [0, 2]

    def test_description_length_positive(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        assert bm.description_length() > 0
        assert 0 < bm.normalized_description_length() < 2

    def test_truth_has_lower_dl_than_random(self, planted_graph, rng):
        truth_bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        random_assignment = rng.integers(0, 4, planted_graph.num_vertices)
        random_bm = Blockmodel.from_assignment(planted_graph, random_assignment, num_blocks=4)
        assert truth_bm.description_length() < random_bm.description_length()
