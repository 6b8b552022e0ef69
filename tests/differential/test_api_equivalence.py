"""Facade vs. core drivers: ``partition()`` must be bit-identical to them.

Under fixed seeds, ``partition(graph, strategy=s)`` reproduces the core
driver it dispatches to (``repro.core.sbp`` / ``dcsbp`` / ``edist`` /
``reference``) exactly — assignments, description lengths, full history —
for every strategy and every registered storage backend.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import Partitioner, partition
from repro.core.dcsbp import divide_and_conquer_sbp
from repro.core.edist import edist
from repro.core.reference import reference_dcsbp
from repro.core.sbp import stochastic_block_partition
from repro.testing.differential import ALL_BACKENDS, assert_results_identical

#: (strategy name, legacy callable, needs ranks)
CASES = [
    ("sequential", lambda g, c: stochastic_block_partition(g, c), 1),
    ("dcsbp", lambda g, c: divide_and_conquer_sbp(g, 2, c), 2),
    ("edist", lambda g, c: edist(g, 2, c), 2),
    ("reference_dcsbp", lambda g, c: reference_dcsbp(g, 2, c), 2),
]


@pytest.mark.parametrize("strategy,legacy,num_ranks", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_facade_matches_legacy_entry_point(
    diff_graph_a, diff_config, strategy, legacy, num_ranks, backend
):
    config = diff_config.with_overrides(matrix_backend=backend)
    via_legacy = legacy(diff_graph_a, config)
    via_facade = partition(diff_graph_a, strategy=strategy, config=config, num_ranks=num_ranks)
    assert_results_identical(via_legacy, via_facade)


@pytest.mark.parametrize("strategy,legacy,num_ranks", CASES[:3], ids=[c[0] for c in CASES[:3]])
def test_facade_matches_legacy_on_sparse_graph(
    diff_graph_b, diff_config, strategy, legacy, num_ranks
):
    via_legacy = legacy(diff_graph_b, diff_config)
    via_facade = partition(diff_graph_b, strategy=strategy, config=diff_config, num_ranks=num_ranks)
    assert_results_identical(via_legacy, via_facade)


def test_top_level_partition_matches_core_drivers(diff_graph_a, diff_config):
    """``repro.partition``, the one top-level entry point, reproduces each driver."""
    for strategy, legacy, num_ranks in CASES[:3]:
        via_top_level = repro.partition(
            diff_graph_a, strategy=strategy, config=diff_config, num_ranks=num_ranks
        )
        assert_results_identical(legacy(diff_graph_a, diff_config), via_top_level)


def test_partitioner_and_handle_match_partition(diff_graph_a, diff_config):
    """Every dispatch route through the facade lands on the same result."""
    direct = partition(diff_graph_a, strategy="edist", config=diff_config, num_ranks=2)
    partitioner = Partitioner("edist", diff_config, num_ranks=2)
    via_run = partitioner.run(diff_graph_a)
    via_handle = partitioner.submit(diff_graph_a).result()
    assert_results_identical(direct, via_run)
    assert_results_identical(direct, via_handle)


def test_lifecycle_plumbing_does_not_perturb_legacy_results(diff_graph_a, diff_config):
    """A context with observers attached must not change the trajectory."""
    from repro.core.context import RunContext, RunObserver

    class Recording(RunObserver):
        def __init__(self):
            self.events = 0

        def on_cycle(self, event):
            self.events += 1

        def on_mcmc_sweep(self, event):
            self.events += 1

    observer = Recording()
    bare = stochastic_block_partition(diff_graph_a, diff_config)
    observed = partition(
        diff_graph_a, strategy="sequential", config=diff_config, observers=[observer]
    )
    assert observer.events > 0
    assert_results_identical(bare, observed)
    assert np.array_equal(bare.assignment, observed.assignment)
