"""Shared utilities: random number management and timers.

These helpers are intentionally dependency-free (beyond NumPy) so that every
other subpackage can use them without creating import cycles.
"""

from repro.utils.rng import RngRegistry, spawn_rng, derive_seed
from repro.utils.timing import Timer, PhaseTimer

__all__ = [
    "RngRegistry",
    "spawn_rng",
    "derive_seed",
    "Timer",
    "PhaseTimer",
]
