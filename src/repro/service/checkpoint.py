"""Mid-run checkpointing: periodic partial-result snapshots + warm resume.

A :class:`CheckpointWriter` is a :class:`~repro.core.context.RunObserver`
that, every N agglomerative cycles, freezes the run's current partition into
a well-formed partial :class:`~repro.core.results.SBPResult` and writes it
with the ordinary ``SBPResult.save`` JSON format — atomically, via a
temporary file and ``os.replace``, so a reader (or a crash) can never see a
torn checkpoint.  The snapshot embeds the graph, making the file
self-contained: a huge-graph job can be inspected mid-run with nothing but
``SBPResult.load``, and resumed warm after a crash with
:func:`resume_strategy`.

Checkpointing requires the cycle events to carry the live blockmodel
(:attr:`~repro.core.context.CycleEvent.blockmodel`), which the sequential
driver and EDiSt's rank 0 provide in-process.  Events that crossed a process
boundary arrive without it and are skipped — the writer counts those in
:attr:`CheckpointWriter.skipped` rather than failing the run.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.blockmodel.blockmodel import Blockmodel
from repro.core.config import SBPConfig
from repro.core.context import CycleEvent, RunContext, RunObserver
from repro.core.results import SBPResult
from repro.core.sbp import stochastic_block_partition
from repro.graphs.graph import Graph

__all__ = ["CheckpointWriter", "load_checkpoint", "resume_strategy", "WarmStartSequential"]

PathLike = Union[str, Path]


class CheckpointWriter(RunObserver):
    """Writes a partial-result checkpoint every ``every`` cycles.

    Parameters
    ----------
    path:
        Destination file; each write atomically replaces the previous
        checkpoint (history is not kept — the latest state supersedes it).
    every:
        Checkpoint cadence in agglomerative cycles (must be >= 1).
    algorithm:
        Label recorded in the snapshot (defaults to ``"checkpoint"``).
    """

    def __init__(self, path: PathLike, every: int, algorithm: str = "checkpoint") -> None:
        if every < 1:
            raise ValueError(f"checkpoint cadence must be at least 1 cycle, got {every}")
        self.path = Path(path)
        self.every = int(every)
        self.algorithm = algorithm
        #: Number of checkpoints successfully written.
        self.written = 0
        #: Cycle events that could not be checkpointed (no in-process blockmodel).
        self.skipped = 0
        #: Cycle number of the latest checkpoint, when any.
        self.last_cycle: Optional[int] = None

    def on_cycle(self, event: CycleEvent) -> None:
        # Cycle 0 is a warm-start record, not progress — never checkpointed.
        if event.cycle < 1 or event.cycle % self.every != 0:
            return
        if event.blockmodel is None:
            self.skipped += 1
            return
        self._write(event)

    def _write(self, event: CycleEvent) -> None:
        source: Blockmodel = event.blockmodel  # type: ignore[assignment]
        graph = source.graph
        # Copy the assignment before the driver mutates the blockmodel again,
        # then rebuild a contiguous, self-owned blockmodel for the snapshot on
        # the run's own storage (a "sparse_csr" run must not go dense here).
        assignment = np.asarray(source.assignment).copy()
        blockmodel = Blockmodel.from_assignment(
            graph, assignment, relabel=True, matrix_backend=source.matrix_backend
        )
        snapshot = SBPResult(
            graph=graph,
            blockmodel=blockmodel,
            description_length=blockmodel.description_length(),
            algorithm=self.algorithm,
            metadata={
                "checkpoint": True,
                "checkpoint_cycle": int(event.cycle),
                "checkpoint_num_blocks": int(event.num_blocks),
            },
        )
        tmp = self.path.with_name(self.path.name + f".tmp.{os.getpid()}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        snapshot.save(tmp, include_graph=True)
        os.replace(tmp, self.path)
        self.written += 1
        self.last_cycle = int(event.cycle)


def load_checkpoint(path: PathLike, graph: Optional[Graph] = None) -> SBPResult:
    """Read a checkpoint written by :class:`CheckpointWriter`.

    Plain persisted results are rejected with an error naming the file, so a
    resume can only start from an actual mid-run snapshot.
    """
    result = SBPResult.load(path, graph=graph)
    if not result.metadata.get("checkpoint"):
        raise ValueError(f"{path} is a persisted SBPResult but not a checkpoint snapshot")
    return result


class WarmStartSequential:
    """A sequential strategy warm-started from a checkpoint partition.

    Satisfies the :class:`~repro.api.strategies.Strategy` protocol, so it runs
    through the ordinary :class:`~repro.api.handle.RunHandle` lifecycle
    (observers, timeout, cancellation), but seeds the agglomerative search
    with the checkpoint's blockmodel instead of one block per vertex — the
    same fine-tuning mode DC-SBP uses to resume from combined partials.
    """

    name = "sequential-warm"

    def __init__(self, checkpoint: SBPResult) -> None:
        self._checkpoint = checkpoint

    def run(
        self,
        graph: Graph,
        config: SBPConfig,
        *,
        num_ranks: int = 1,
        run_context: Optional[RunContext] = None,
    ):
        if num_ranks != 1:
            raise ValueError(
                f"a warm-started resume runs on one rank (got num_ranks={num_ranks})"
            )
        initial = Blockmodel.from_assignment(
            graph,
            np.asarray(self._checkpoint.blockmodel.assignment).copy(),
            relabel=True,
            matrix_backend=config.matrix_backend,
        )
        result = stochastic_block_partition(
            graph,
            config,
            initial_blockmodel=initial,
            algorithm_label="sbp-resumed",
            run_context=run_context,
        )
        result.metadata["resumed_from_cycle"] = self._checkpoint.metadata.get("checkpoint_cycle")
        return result


def resume_strategy(checkpoint_path: PathLike, graph: Optional[Graph] = None) -> WarmStartSequential:
    """Build the warm-start strategy for the checkpoint at ``checkpoint_path``."""
    return WarmStartSequential(load_checkpoint(checkpoint_path, graph=graph))
