"""The unified public API: strategy table, facade dispatch, config resolution."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.api import (
    PRESETS,
    STRATEGIES,
    Partitioner,
    Strategy,
    get_strategy,
    partition,
    resolve_config,
)
from repro.core.config import BACKENDS, MCMCVariant, SBPConfig
from repro.core.sbp import stochastic_block_partition


class TestStrategyTable:
    def test_strategy_names(self):
        assert list(STRATEGIES) == ["sequential", "dcsbp", "edist", "reference_dcsbp"]

    def test_strategy_instances_satisfy_protocol(self):
        for name, strategy in STRATEGIES.items():
            assert isinstance(strategy, Strategy)
            assert get_strategy(name) is strategy
            assert strategy.name == name

    @pytest.mark.parametrize("call", [
        lambda graph, name: get_strategy(name),
        lambda graph, name: partition(graph, strategy=name),
    ], ids=["get_strategy", "partition"])
    @pytest.mark.parametrize("name", ["does-not-exist", "sbp", "reference-dcsbp"])
    def test_unknown_strategy_lists_strategy_names(self, planted_graph, call, name):
        with pytest.raises(ValueError) as excinfo:
            call(planted_graph, name)
        message = str(excinfo.value)
        assert f"unknown strategy {name!r}" in message
        for valid in STRATEGIES:
            assert repr(valid) in message

    def test_strategy_instance_passthrough(self):
        strategy = get_strategy("sequential")
        assert get_strategy(strategy) is strategy

    def test_non_string_non_strategy_rejected(self):
        with pytest.raises(TypeError):
            get_strategy(42)


class TestConfigResolution:
    def test_none_is_paper_defaults(self):
        assert resolve_config(None) == SBPConfig()

    def test_preset_names(self):
        assert resolve_config("paper") == SBPConfig()
        assert resolve_config("fast") == SBPConfig.fast()

    def test_dict_round_trip(self, fast_config):
        assert resolve_config(fast_config.to_dict()) == fast_config

    def test_overrides_apply_last(self):
        config = resolve_config("fast", seed=1234, matrix_backend="csr")
        assert config.seed == 1234
        assert config.matrix_backend == "csr"
        assert config.max_mcmc_iterations == SBPConfig.fast().max_mcmc_iterations

    @pytest.mark.parametrize("call", [resolve_config, SBPConfig.from_preset])
    def test_unknown_preset_lists_presets(self, call):
        with pytest.raises(ValueError) as excinfo:
            call("warp-speed")
        message = str(excinfo.value)
        assert "unknown preset 'warp-speed'" in message
        for valid in PRESETS:
            assert repr(valid) in message

    def test_unknown_override_field_lists_fields(self):
        with pytest.raises(ValueError, match="matrix_backend"):
            resolve_config("fast", not_a_field=1)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_config(3.14)


class TestConfigValidationMessages:
    """Bad choice names must fail at construction, listing the valid names."""

    def test_bad_mcmc_variant_lists_variants(self):
        with pytest.raises(ValueError) as excinfo:
            SBPConfig(mcmc_variant="gibbs-sampler-3000")
        message = str(excinfo.value)
        for variant in MCMCVariant.ALL:
            assert variant in message

    @pytest.mark.parametrize("name", ["quantum", "dict"])
    def test_bad_matrix_backend_lists_backends(self, name):
        with pytest.raises(ValueError) as excinfo:
            SBPConfig(matrix_backend=name)
        message = str(excinfo.value)
        assert f"unknown matrix_backend {name!r}" in message
        for backend in BACKENDS:
            assert repr(backend) in message

    def test_bad_strategy_fails_before_any_work(self, planted_graph):
        with pytest.raises(ValueError, match="unknown strategy 'edist2'"):
            partition(planted_graph, strategy="edist2")


class TestPartitionFacade:
    def test_default_strategy_is_sequential(self, planted_graph, fast_config):
        result = partition(planted_graph, config=fast_config)
        assert result.algorithm == "sbp"
        assert result.nmi() > 0.9

    @pytest.mark.parametrize("strategy", ["dcsbp", "edist"])
    def test_distributed_strategies_take_ranks(self, planted_graph, fast_config, strategy):
        result = partition(planted_graph, strategy=strategy, config=fast_config, num_ranks=2)
        assert result.num_ranks == 2
        assert result.algorithm == strategy

    def test_sequential_rejects_multiple_ranks(self, planted_graph, fast_config):
        with pytest.raises(ValueError, match="num_ranks"):
            partition(planted_graph, strategy="sequential", config=fast_config, num_ranks=4)

    def test_seed_override_reproducible(self, planted_graph):
        a = partition(planted_graph, config="fast", seed=99)
        b = partition(planted_graph, config="fast", seed=99)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.description_length == b.description_length

    def test_run_context_exclusive_with_observers(self, planted_graph, fast_config):
        from repro.core.context import RunContext, RunObserver

        with pytest.raises(ValueError, match="not both"):
            partition(
                planted_graph,
                config=fast_config,
                run_context=RunContext(),
                observers=[RunObserver()],
            )


class TestPartitioner:
    def test_run_matches_partition(self, planted_graph, fast_config):
        direct = partition(planted_graph, strategy="sequential", config=fast_config)
        via_partitioner = Partitioner("sequential", fast_config).run(planted_graph)
        assert np.array_equal(direct.assignment, via_partitioner.assignment)
        assert direct.description_length == via_partitioner.description_length

    def test_submit_returns_pending_handle(self, planted_graph, fast_config):
        handle = Partitioner("sequential", fast_config).submit(planted_graph)
        assert handle.status == "pending"
        assert not handle.done
        result = handle.result()
        assert handle.status == "completed"
        assert handle.done
        # Idempotent: a second call returns the same object.
        assert handle.result() is result

    def test_with_overrides_copies(self, fast_config):
        base = Partitioner("edist", fast_config, num_ranks=4)
        derived = base.with_overrides(seed=5)
        assert derived.num_ranks == 4
        assert derived.strategy is base.strategy
        assert derived.config.seed == 5
        assert base.config.seed == fast_config.seed


class TestDeprecatedShims:
    """The deprecated top-level shims are gone; the core drivers stay."""

    @pytest.mark.parametrize("name", ["stochastic_block_partition", "divide_and_conquer_sbp", "edist"])
    def test_shim_is_removed(self, name):
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_core_module_entry_points_do_not_warn(self, planted_graph, fast_config):
        # Callers that need a driver directly import it from repro.core.*.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stochastic_block_partition(planted_graph, fast_config)


class TestHarnessDispatch:
    def test_run_algorithm_goes_through_registry(self, planted_graph, fast_config):
        from repro.harness.experiments import run_algorithm

        result = run_algorithm("sequential", planted_graph, 1, fast_config)
        assert result.algorithm == "sbp"
        with pytest.raises(ValueError, match="unknown strategy"):
            run_algorithm("not-an-algorithm", planted_graph, 1, fast_config)

    def test_run_algorithm_rank1_distributed_uses_sequential(self, planted_graph, fast_config):
        from repro.harness.experiments import run_algorithm

        result = run_algorithm("edist", planted_graph, 1, fast_config)
        assert result.num_ranks == 1
        assert result.algorithm == "sbp"
