"""Tests for the shared utilities (RNG registry, timers)."""

import importlib
import time

import numpy as np
import pytest

import repro.utils
from repro.utils.rng import RngRegistry, derive_seed, spawn_rng
from repro.utils.timing import PhaseTimer, Timer


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)

    def test_derive_seed_path_sensitive(self):
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_derive_seed_none_returns_int(self):
        assert isinstance(derive_seed(None, 3), int)

    def test_spawn_rng_streams_independent(self):
        a = spawn_rng(7, 0).random(100)
        b = spawn_rng(7, 1).random(100)
        assert not np.allclose(a, b)

    def test_registry_caches_generators(self):
        reg = RngRegistry(1)
        assert reg.get("mcmc", 0) is reg.get("mcmc", 0)
        assert reg.get("mcmc", 0) is not reg.get("mcmc", 1)
        assert reg.get("mcmc", 0) is not reg.get("merge", 0)

    def test_registry_reproducible_across_instances(self):
        a = RngRegistry(5).get("x", 3).random(10)
        b = RngRegistry(5).get("x", 3).random(10)
        assert np.allclose(a, b)

    def test_registry_child_universe_differs(self):
        reg = RngRegistry(5)
        child_a = reg.child("rank", 0)
        child_b = reg.child("rank", 1)
        assert child_a.root_seed != child_b.root_seed
        assert not np.allclose(child_a.get("m").random(5), child_b.get("m").random(5))

    def test_seed_for_matches_generator(self):
        reg = RngRegistry(9)
        seed = reg.seed_for("phase", 2)
        assert np.allclose(np.random.default_rng(seed).random(5), reg.get("phase", 2).random(5))


class TestTimers:
    def test_timer_accumulates(self):
        t = Timer()
        with t.measure():
            time.sleep(0.01)
        first = t.elapsed
        with t.measure():
            time.sleep(0.01)
        assert t.elapsed > first > 0

    def test_timer_double_start_rejected(self):
        t = Timer()
        t.start()
        with pytest.raises(RuntimeError):
            t.start()
        t.stop()
        with pytest.raises(RuntimeError):
            t.stop()

    def test_phase_timer_buckets(self):
        timers = PhaseTimer()
        with timers.measure("mcmc"):
            time.sleep(0.005)
        timers.add("communication", 1.5)
        assert timers.elapsed("mcmc") > 0
        assert timers.elapsed("communication") == 1.5
        assert timers.elapsed("unknown") == 0.0
        assert timers.total() == pytest.approx(timers.elapsed("mcmc") + 1.5)
        assert set(timers.as_dict()) == {"mcmc", "communication"}

    def test_phase_timer_merge(self):
        a = PhaseTimer()
        a.add("mcmc", 1.0)
        b = PhaseTimer()
        b.add("mcmc", 2.0)
        b.add("merge", 0.5)
        a.merge(b)
        assert a.elapsed("mcmc") == 3.0
        assert a.elapsed("merge") == 0.5


def test_get_logger_is_removed():
    with pytest.raises(AttributeError):
        repro.utils.get_logger
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.utils.log")

