"""Phase-boundary differential tests: merge selections and kernels, bitwise.

Where ``test_cross_backend`` checks whole pipelines, these tests pin down
*where* equivalence holds: the raw merge proposals (including their ΔDL
floats, compared bitwise), every block-merge and MCMC boundary of a traced
run — for every candidate backend against the ``"csr"`` reference — and
the batched merge kernel against its per-candidate scalar oracle on every
backend.
"""

import numpy as np
import pytest

from repro.blockmodel.blockmodel import Blockmodel
from repro.blockmodel.deltas import delta_dl_for_merge, delta_dl_for_merges
from repro.core.merges import propose_merges
from repro.testing.differential import (
    ALL_BACKENDS,
    CANDIDATE_BACKENDS,
    REFERENCE_BACKEND,
    assert_traces_identical,
    trace_phases,
)


class TestPhaseTraces:
    @pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
    def test_traces_identical_dense_graph(self, diff_graph_a, diff_config, backend):
        reference = trace_phases(
            diff_graph_a, diff_config.with_overrides(matrix_backend=REFERENCE_BACKEND)
        )
        candidate = trace_phases(diff_graph_a, diff_config.with_overrides(matrix_backend=backend))
        assert reference.snapshots, "trace must cover at least one cycle"
        assert_traces_identical(reference, candidate)

    @pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
    def test_traces_identical_sparse_graph(self, diff_graph_b, diff_config, backend):
        reference = trace_phases(
            diff_graph_b, diff_config.with_overrides(matrix_backend=REFERENCE_BACKEND)
        )
        candidate = trace_phases(diff_graph_b, diff_config.with_overrides(matrix_backend=backend))
        assert_traces_identical(reference, candidate)


class TestMergeSelections:
    @pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
    def test_proposals_identical_for_block_subsets(self, diff_graph_a, diff_config, backend):
        """EDiSt ranks propose for owned subsets; all backends must agree."""
        bm_ref = Blockmodel.from_graph(
            diff_graph_a, num_blocks=24, matrix_backend=REFERENCE_BACKEND
        )
        bm_cand = Blockmodel.from_graph(diff_graph_a, num_blocks=24, matrix_backend=backend)
        for rank, size in ((0, 3), (1, 3), (2, 3)):
            owned = range(rank, 24, size)
            p_ref = propose_merges(bm_ref, owned, diff_config, np.random.default_rng(rank))
            p_cand = propose_merges(bm_cand, owned, diff_config, np.random.default_rng(rank))
            # MergeProposal is a frozen dataclass: == compares (block, target,
            # delta_dl) exactly, i.e. the ΔDL floats bitwise.
            assert p_ref == p_cand

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batched_kernel_matches_scalar_bitwise(self, diff_graph_b, backend):
        bm_ref = Blockmodel.from_graph(
            diff_graph_b, num_blocks=20, matrix_backend=REFERENCE_BACKEND
        )
        bm_cand = Blockmodel.from_graph(diff_graph_b, num_blocks=20, matrix_backend=backend)
        rng = np.random.default_rng(9)
        from_blocks = rng.integers(0, 20, size=200)
        to_blocks = rng.integers(0, 20, size=200)
        batch = delta_dl_for_merges(bm_cand, from_blocks, to_blocks)
        batch_model = delta_dl_for_merges(bm_cand, from_blocks, to_blocks, include_model_term=True)
        for k in range(200):
            r, s = int(from_blocks[k]), int(to_blocks[k])
            scalar_ref = delta_dl_for_merge(bm_ref, r, s)
            scalar_cand = delta_dl_for_merge(bm_cand, r, s)
            assert batch[k] == scalar_ref == scalar_cand
            assert batch_model[k] == delta_dl_for_merge(bm_cand, r, s, include_model_term=True)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batched_kernel_self_merge_is_zero(self, diff_graph_a, backend):
        bm = Blockmodel.from_graph(diff_graph_a, num_blocks=6, matrix_backend=backend)
        deltas = delta_dl_for_merges(bm, np.array([2, 1, 3]), np.array([2, 1, 0]))
        assert deltas[0] == 0.0 and deltas[1] == 0.0
        assert deltas[2] == delta_dl_for_merge(bm, 3, 0)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batched_kernel_empty_batch(self, diff_graph_a, backend):
        bm = Blockmodel.from_graph(diff_graph_a, num_blocks=6, matrix_backend=backend)
        assert delta_dl_for_merges(bm, np.empty(0, np.int64), np.empty(0, np.int64)).shape == (0,)


class TestBackendPlumbing:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_backend_survives_clone_paths(self, diff_graph_a, backend):
        """matrix_backend must survive copy / merges / rebuild round-trips —
        the clone paths the golden-ratio search restarts run through."""
        bm = Blockmodel.from_graph(diff_graph_a, num_blocks=12, matrix_backend=backend)
        assert bm.copy().matrix_backend == backend
        merge_target = np.arange(12)
        merge_target[11] = 0
        assert bm.apply_block_merges(merge_target).matrix_backend == backend
        clone = bm.copy()
        clone.refresh_derived_state()
        assert clone.matrix_backend == backend
        # check_consistency rebuilds internally with the model's own backend.
        clone.check_consistency()
