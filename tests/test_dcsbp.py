"""Tests for the divide-and-conquer distributed baseline (DC-SBP)."""

import numpy as np
import pytest

from repro.core.config import SBPConfig
from repro.core.dcsbp import PartialResult, divide_and_conquer_sbp, merge_partial_pair
from repro.core.reference import reference_dcsbp
from repro.evaluation import normalized_mutual_information


class TestPartialResult:
    def test_num_communities(self):
        partial = PartialResult(np.array([3, 5, 9]), np.array([0, 1, 1]))
        assert partial.num_communities == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PartialResult(np.array([0, 1]), np.array([0]))


class TestMergePartialPair:
    def test_merges_matching_communities(self, planted_graph, fast_config):
        truth = planted_graph.true_assignment
        half = planted_graph.num_vertices // 2
        first = PartialResult(np.arange(half), truth[:half])
        second = PartialResult(np.arange(half, planted_graph.num_vertices), truth[half:])
        merged = merge_partial_pair(planted_graph, first, second, fast_config)
        assert merged.vertices.shape[0] == planted_graph.num_vertices
        # The merged labelling should align with the planted truth.
        full = np.zeros(planted_graph.num_vertices, dtype=np.int64)
        full[merged.vertices] = merged.assignment
        assert normalized_mutual_information(truth, full) > 0.9
        assert merged.num_communities <= first.num_communities + second.num_communities

    def test_second_communities_absorbed_into_first(self, planted_graph, fast_config):
        truth = planted_graph.true_assignment
        half = planted_graph.num_vertices // 2
        first = PartialResult(np.arange(half), truth[:half])
        second = PartialResult(np.arange(half, planted_graph.num_vertices), truth[half:])
        merged = merge_partial_pair(planted_graph, first, second, fast_config)
        assert merged.num_communities <= first.num_communities

    def test_candidate_subsampling(self, planted_graph, rng):
        config = SBPConfig.fast(seed=1).with_overrides(dcsbp_merge_candidates=2)
        truth = planted_graph.true_assignment
        half = planted_graph.num_vertices // 2
        first = PartialResult(np.arange(half), truth[:half])
        second = PartialResult(np.arange(half, planted_graph.num_vertices), truth[half:])
        merged = merge_partial_pair(planted_graph, first, second, config, rng)
        assert merged.vertices.shape[0] == planted_graph.num_vertices


class TestDCSBPEndToEnd:
    def test_single_rank_equals_sequential_quality(self, planted_graph, fast_config):
        result = divide_and_conquer_sbp(planted_graph, 1, fast_config)
        assert result.nmi() > 0.9
        assert result.num_ranks == 1

    def test_two_ranks_retains_accuracy_on_dense_graph(self, planted_graph, fast_config):
        result = divide_and_conquer_sbp(planted_graph, 2, fast_config)
        assert result.nmi() > 0.7
        assert result.algorithm == "dcsbp"
        assert result.metadata["island_fraction"] < 0.1

    def test_many_ranks_degrade_accuracy(self, planted_graph, fast_config):
        few = divide_and_conquer_sbp(planted_graph, 2, fast_config)
        many = divide_and_conquer_sbp(planted_graph, 16, fast_config)
        assert many.nmi() <= few.nmi() + 0.05

    def test_sparse_graph_has_many_islands(self, sparse_graph, fast_config):
        result = divide_and_conquer_sbp(sparse_graph, 8, fast_config)
        assert result.metadata["island_fraction"] > 0.2

    def test_phase_timings_include_combine_and_finetune(self, planted_graph, fast_config):
        result = divide_and_conquer_sbp(planted_graph, 4, fast_config)
        assert "subgraph_sbp" in result.phase_seconds
        assert "combine" in result.phase_seconds
        assert "finetune" in result.phase_seconds
        assert len(result.metadata["per_rank_phase_seconds"]) == 4
        assert len(result.metadata["per_rank_phase_cpu_seconds"]) == 4

    def test_assignment_covers_every_vertex(self, planted_graph, fast_config):
        result = divide_and_conquer_sbp(planted_graph, 4, fast_config)
        assert result.assignment.shape == (planted_graph.num_vertices,)
        assert result.assignment.min() >= 0

    def test_comm_stats_present(self, planted_graph, fast_config):
        result = divide_and_conquer_sbp(planted_graph, 4, fast_config)
        assert result.comm_stats is not None
        assert result.comm_stats.total_calls > 0

    def test_reference_dcsbp_label_and_quality(self, planted_graph, fast_config):
        result = reference_dcsbp(planted_graph, 2, fast_config)
        assert result.algorithm == "reference-dcsbp"
        assert result.nmi() > 0.5
