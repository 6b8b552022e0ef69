"""Tests for EDiSt, the paper's exact distributed SBP algorithm."""

import numpy as np
import pytest

from repro.blockmodel.blockmodel import Blockmodel
from repro.core.config import SBPConfig
from repro.core.edist import distributed_block_merge, distributed_mcmc_phase, edist, owned_blocks
from repro.core.sbp import stochastic_block_partition
from repro.graphs.partition_ops import degree_balanced_assignment
from repro.mpi.launcher import run_distributed


class TestOwnership:
    def test_owned_blocks_partition_all_blocks(self):
        all_owned = [owned_blocks(20, r, 4) for r in range(4)]
        combined = sorted(int(b) for owned in all_owned for b in owned)
        assert combined == list(range(20))

    def test_owned_blocks_disjoint(self):
        a = set(owned_blocks(17, 1, 4).tolist())
        b = set(owned_blocks(17, 2, 4).tolist())
        assert a.isdisjoint(b)

    def test_more_ranks_than_blocks(self):
        assert owned_blocks(3, 5, 8).size == 0


class TestDistributedPhases:
    def test_distributed_block_merge_replicas_stay_identical(self, planted_graph, fast_config):
        def program(comm):
            rng = np.random.default_rng(100 + comm.rank)
            bm = Blockmodel.from_graph(planted_graph, num_blocks=32)
            merged = distributed_block_merge(comm, bm, 16, fast_config, rng)
            return merged.assignment

        result = run_distributed(4, program)
        for assignment in result.results[1:]:
            assert np.array_equal(assignment, result.results[0])

    def test_distributed_block_merge_reduces_blocks(self, planted_graph, fast_config):
        def program(comm):
            rng = np.random.default_rng(100 + comm.rank)
            bm = Blockmodel.from_graph(planted_graph, num_blocks=32)
            return distributed_block_merge(comm, bm, 16, fast_config, rng).num_blocks

        result = run_distributed(4, program)
        assert result.results == [16, 16, 16, 16]

    def test_distributed_mcmc_replicas_stay_identical(self, planted_graph, fast_config):
        owner = degree_balanced_assignment(planted_graph, 3)

        def program(comm):
            rng = np.random.default_rng(7 + comm.rank)
            bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
            bm, dl, sweeps, accepted = distributed_mcmc_phase(comm, bm, fast_config, rng, owner)
            bm.check_consistency()
            return bm.assignment, dl

        result = run_distributed(3, program)
        reference_assignment, reference_dl = result.results[0]
        for assignment, dl in result.results[1:]:
            assert np.array_equal(assignment, reference_assignment)
            assert dl == pytest.approx(reference_dl)

    def test_distributed_mcmc_improves_corrupted_partition(self, planted_graph, fast_config, rng):
        owner = degree_balanced_assignment(planted_graph, 2)
        corrupted = planted_graph.true_assignment.copy()
        idx = rng.choice(planted_graph.num_vertices, size=40, replace=False)
        corrupted[idx] = rng.integers(0, 4, size=40)
        start_dl = Blockmodel.from_assignment(planted_graph, corrupted, num_blocks=4).description_length()

        def program(comm):
            local_rng = np.random.default_rng(11 + comm.rank)
            bm = Blockmodel.from_assignment(planted_graph, corrupted, num_blocks=4)
            _, dl, _, accepted = distributed_mcmc_phase(comm, bm, fast_config, local_rng, owner)
            return dl, accepted

        result = run_distributed(2, program)
        dl, accepted = result.results[0]
        assert dl < start_dl
        assert accepted > 0


class TestEDiStEndToEnd:
    def test_single_rank_matches_sequential_quality(self, planted_graph, fast_config):
        sequential = stochastic_block_partition(planted_graph, fast_config)
        distributed = edist(planted_graph, 1, fast_config)
        assert distributed.nmi() >= sequential.nmi() - 0.1

    @pytest.mark.parametrize("num_ranks", [2, 4, 8])
    def test_accuracy_maintained_across_rank_counts(self, planted_graph, fast_config, num_ranks):
        result = edist(planted_graph, num_ranks, fast_config)
        assert result.nmi() > 0.85
        assert result.algorithm == "edist"
        assert result.num_ranks == num_ranks

    def test_more_ranks_than_informative_vertices_still_works(self, tiny_graph, fast_config):
        result = edist(tiny_graph, 4, fast_config)
        assert result.assignment.shape == (tiny_graph.num_vertices,)

    def test_history_and_comm_stats_recorded(self, planted_graph, fast_config):
        result = edist(planted_graph, 2, fast_config)
        assert len(result.history) >= 1
        assert result.comm_stats is not None
        assert result.comm_stats.calls.get("allgather", 0) > 0
        assert len(result.metadata["per_rank_phase_seconds"]) == 2
        assert len(result.metadata["per_rank_phase_cpu_seconds"]) == 2

    def test_validate_mode_checks_replica_consistency(self, planted_graph):
        config = SBPConfig.fast(seed=3).with_overrides(validate=True, max_mcmc_iterations=4)
        result = edist(planted_graph, 2, config)
        assert result.nmi() > 0.7

    def test_edist_handles_sparse_graph_without_islands(self, sparse_graph, fast_config):
        # EDiSt duplicates the data, so there are no island vertices by construction:
        # it should behave like the sequential algorithm regardless of rank count.
        sequential = stochastic_block_partition(sparse_graph, fast_config)
        distributed = edist(sparse_graph, 8, fast_config)
        assert abs(distributed.dl_norm() - sequential.dl_norm()) < 0.1
