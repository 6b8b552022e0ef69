"""Merge-phase edge cases, exercised on both storage backends.

Covers the corners the differential suite's random graphs may not hit
reliably: blocks with zero degree (isolated vertices), merge chains that
resolve into already-merged blocks (the paper's optimisation (d)), and the
degenerate single-block model.
"""

import numpy as np
import pytest

from repro.blockmodel.blockmodel import Blockmodel
from repro.blockmodel.deltas import delta_dl_for_merge, delta_dl_for_merges
from repro.core.config import BACKENDS, SBPConfig
from repro.core.merges import MergeProposal, block_merge_phase, propose_merges, select_and_apply_merges
from repro.graphs.graph import Graph


@pytest.fixture
def config() -> SBPConfig:
    return SBPConfig.fast(seed=3)


@pytest.fixture
def islands_graph() -> Graph:
    """Two connected triangles plus two isolated (zero-degree) vertices."""
    edges = [
        (0, 1), (1, 2), (2, 0),
        (3, 4), (4, 5), (5, 3),
        (0, 3),
    ]
    return Graph.from_edges(8, edges)  # vertices 6 and 7 are isolated


@pytest.mark.parametrize("backend", BACKENDS)
class TestZeroDegreeBlocks:
    def test_propose_merges_covers_zero_degree_blocks(self, islands_graph, config, backend):
        bm = Blockmodel.from_graph(islands_graph, matrix_backend=backend)
        proposals = propose_merges(bm, range(bm.num_blocks), config, np.random.default_rng(0))
        # Every block is non-empty (one vertex each), including the
        # zero-degree ones, which reach targets via the uniform fallback.
        assert {p.block for p in proposals} == set(range(8))
        assert all(p.target != p.block for p in proposals)

    def test_merge_involving_zero_degree_block_scores_zero_likelihood(self, islands_graph, backend):
        bm = Blockmodel.from_graph(islands_graph, matrix_backend=backend)
        # Merging one isolated block into another touches no edges at all.
        assert delta_dl_for_merge(bm, 6, 7) == 0.0
        # Merging an isolated block into a connected one only rescales that
        # block's region; it must equal the full recomputation.
        delta = delta_dl_for_merge(bm, 6, 0)
        merge_target = np.arange(8)
        merge_target[6] = 0
        merged = bm.apply_block_merges(merge_target)
        actual = (-merged.log_likelihood()) - (-bm.log_likelihood())
        assert delta == pytest.approx(actual, abs=1e-9)

    def test_block_merge_phase_absorbs_islands(self, islands_graph, config, backend):
        bm = Blockmodel.from_graph(islands_graph, matrix_backend=backend)
        merged = block_merge_phase(bm, num_merges=4, config=config, rng=np.random.default_rng(1))
        assert merged.num_blocks == 4
        merged.check_consistency()
        assert merged.matrix_backend == backend


@pytest.mark.parametrize("backend", BACKENDS)
class TestMergeChainResolution:
    def test_chain_into_already_merged_block(self, islands_graph, backend):
        """Optimisation (d): a proposal targeting a block that has itself
        been merged must land in that block's terminal destination."""
        bm = Blockmodel.from_graph(islands_graph, matrix_backend=backend)
        proposals = [
            MergeProposal(1, 2, -10.0),  # applied first: 1 -> 2
            MergeProposal(0, 1, -9.0),   # 1 already merged: 0 must land in 2
            MergeProposal(3, 4, -8.0),
        ]
        merged = select_and_apply_merges(bm, proposals, num_merges=3)
        merged.check_consistency()
        assert merged.num_blocks == 5
        labels = merged.assignment
        # Vertices 0, 1, 2 all collapsed into one block.
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] != labels[0]

    def test_self_merge_through_chain_is_skipped_without_counting(self, islands_graph, backend):
        bm = Blockmodel.from_graph(islands_graph, matrix_backend=backend)
        proposals = [
            MergeProposal(0, 1, -10.0),
            MergeProposal(1, 0, -9.0),   # chases to 1 == 1: skipped, not counted
            MergeProposal(2, 3, -8.0),
            MergeProposal(4, 5, -7.0),
        ]
        merged = select_and_apply_merges(bm, proposals, num_merges=3)
        # Three *effective* merges were requested; the degenerate one must
        # not consume the budget, so all of 0->1, 2->3 and 4->5 happen.
        assert merged.num_blocks == 5
        labels = merged.assignment
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] == labels[5]


@pytest.mark.parametrize("backend", BACKENDS)
class TestSingleBlock:
    def test_propose_merges_returns_nothing(self, islands_graph, config, backend):
        bm = Blockmodel.from_graph(islands_graph, num_blocks=1, matrix_backend=backend)
        assert propose_merges(bm, range(1), config, np.random.default_rng(0)) == []

    def test_block_merge_phase_is_identity_copy(self, islands_graph, config, backend):
        bm = Blockmodel.from_graph(islands_graph, num_blocks=1, matrix_backend=backend)
        merged = block_merge_phase(bm, num_merges=1, config=config, rng=np.random.default_rng(0))
        assert merged is not bm
        assert merged.num_blocks == 1
        assert np.array_equal(merged.assignment, bm.assignment)
        assert merged.matrix_backend == backend

    def test_self_merge_delta_is_zero(self, islands_graph, backend):
        bm = Blockmodel.from_graph(islands_graph, num_blocks=1, matrix_backend=backend)
        assert delta_dl_for_merge(bm, 0, 0) == 0.0


def test_batched_kernel_zero_degree_blocks_match_scalar(islands_graph):
    bm = Blockmodel.from_graph(islands_graph, matrix_backend="csr")
    pairs = [(6, 7), (6, 0), (0, 6), (7, 7), (2, 5)]
    fr = np.asarray([p[0] for p in pairs])
    to = np.asarray([p[1] for p in pairs])
    batch = delta_dl_for_merges(bm, fr, to)
    for k, (r, s) in enumerate(pairs):
        assert batch[k] == delta_dl_for_merge(bm, r, s)
