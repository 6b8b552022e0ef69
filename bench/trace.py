"""A span tracer that wraps the library's public functions from outside.

The benchmark must not edit ``src/``, so per-layer numbers come from
wrappers bound, for the duration of a traced run, to the names through which
the library calls its own layers (``repro.core.sbp.mcmc_phase``,
``Blockmodel.move_vertex``, ``SequencedCommunicator.allgather`` ...).  Each
wrapper opens a span on entry and closes it on exit; a span's self time is
its duration minus the time its same-thread children cover.

Phase-level calls (one per merge phase, MCMC phase, golden-ratio step ...)
are kept as individual spans.  Everything called per vertex, per proposal
or per sweep is aggregated per (name, parent name, nearest individual
ancestor, thread) into a call count, total time and self time, so a traced
run's memory stays bounded.

Rank threads get a root span (``mpi.rank``) whose parent is the span open
in the thread that launched them; rank programs launched over the
``"processes"`` transport run in forked workers whose spans are not
collected, and :attr:`Tracer.missing` records that instead of reporting
zeros.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from threading import current_thread
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["TARGETS", "ROOT_SPANS", "Tracer"]

#: What to wrap: ``(module, class or None, attributes, layer, per_call)``.
#: The span name is ``<layer>.<attribute>``.  ``per_call`` spans are kept
#: one by one; the rest are aggregated.  A function bound under several
#: names (``metropolis_hastings_sweep`` in ``mcmc`` and ``hybrid_mcmc``) gets
#: one wrapper object, because ``mcmc_phase`` tests ``sweep_fn is
#: metropolis_hastings_sweep``.
TARGETS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str, bool], ...] = (
    ("repro.graphs.generators.realworld", None, ("generate_dcsbm_graph",), "graphs", True),
    ("repro.graphs.generators.scaling", None, ("generate_dcsbm_graph",), "graphs", True),
    ("repro.service.schemas", None, ("generate_dcsbm_graph",), "graphs", True),
    ("repro.blockmodel.blockmodel", "Blockmodel", ("from_graph",), "blockmodel", True),
    (
        "repro.blockmodel.blockmodel",
        "Blockmodel",
        (
            "from_assignment", "refresh_derived_state", "copy", "description_length",
            "vertex_block_counts", "move_vertex", "apply_block_merges", "sample_neighbor_block",
        ),
        "blockmodel",
        False,
    ),
    ("repro.core.sbp", None, ("block_merge_phase",), "merges", True),
    ("repro.core.sbp", None, ("mcmc_phase",), "mcmc", True),
    (
        "repro.core.merges",
        None,
        ("block_merge_phase", "propose_merges", "select_and_apply_merges"),
        "merges",
        True,
    ),
    (
        "repro.core.merges",
        None,
        ("best_segmented_merges", "delta_dl_for_merge", "delta_dl_for_merges"),
        "merges",
        False,
    ),
    ("repro.core.edist", None, ("propose_merges", "select_and_apply_merges"), "merges", True),
    (
        "repro.core.mcmc",
        None,
        ("metropolis_hastings_sweep", "propose_block_for_vertex", "evaluate_vertex_move",
         "acceptance_probability"),
        "mcmc",
        False,
    ),
    (
        "repro.core.hybrid_mcmc",
        None,
        ("metropolis_hastings_sweep", "hybrid_sweep", "batch_gibbs_sweep", "asynchronous_batch",
         "propose_block_for_vertex", "evaluate_vertex_move", "acceptance_probability",
         "acceptance_probabilities", "hastings_corrections", "delta_dl_for_moves"),
        "mcmc",
        False,
    ),
    ("repro.core.proposals", None, ("delta_dl_for_move", "hastings_correction"), "mcmc", False),
    ("repro.core.golden_ratio", "GoldenRatioSearch", ("update",), "golden_ratio", True),
    # Rank programs split the graph and seed their streams before their first
    # phase; with two rank threads these calls have waited 0.1-0.4 s for the
    # GIL, which would otherwise show up as unattributed rank time.
    ("repro.core.edist", None, ("degree_balanced_assignment",), "graphs", True),
    ("repro.core.dcsbp", None, ("round_robin_assignment", "extract_subgraph"), "graphs", True),
    ("repro.utils.rng", "RngRegistry", ("child",), "rng", True),
    ("repro.core.dcsbp", None, ("stochastic_block_partition",), "sbp", True),
    ("repro.core.dcsbp", None, ("merge_partial_pair",), "dcsbp", True),
    ("repro.core.dcsbp", None, ("best_segmented_merges", "delta_dl_for_merge"), "merges", False),
    (
        "repro.mpi.communicator",
        "SequencedCommunicator",
        ("allgather", "bcast", "gather", "send", "recv"),
        "mpi",
        False,
    ),
    ("repro.core.results", "SBPResult", ("to_dict",), "results", True),
    ("repro.service.http_api", None, ("validate_job_request",), "service", True),
    ("repro.api.handle", "RunHandle", ("run",), "api", True),
)

#: Modules whose ``run_distributed`` binding launches rank programs; the
#: wrapper gives every rank thread its ``mpi.rank`` root span.  Its own
#: span, ``launch.run_distributed``, is the caller waiting for its ranks, so
#: it gets a layer of its own rather than counting as communication.
LAUNCHERS = ("repro.core.edist", "repro.core.dcsbp")

#: Spans that own a whole operation: the benchmark's own ``partition()``
#: call, a rank thread, a served job.  ``trace.unattributed_share`` is the
#: largest self-time share among them.
ROOT_SPANS = ("bench.partition", "mpi.rank", "api.run")

#: Sweep entry points; only the outermost one on a stack reports its
#: proposal and acceptance counts (a hybrid sweep contains an MH sweep).
SWEEPS = frozenset(
    {"mcmc.metropolis_hastings_sweep", "mcmc.hybrid_sweep", "mcmc.batch_gibbs_sweep",
     "mcmc.asynchronous_batch"}
)


class _Frame:
    __slots__ = ("name", "parent", "start", "child", "span_id", "anchor", "run")

    def __init__(self, name, parent, span_id, anchor, run):
        self.name = name
        self.parent = parent
        self.span_id = span_id
        self.anchor = anchor
        self.run = run
        self.child = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Installs the wrappers in :data:`TARGETS` while used as a context manager."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: (name, parent name, anchor span id, thread) -> [count, total, self]
        self.aggregates: Dict[Tuple[str, str, Optional[int], threading.Thread], List[float]] = {}
        self.counters: Dict[str, int] = {"mcmc.proposed": 0, "mcmc.accepted": 0, "mcmc.sweeps": 0}
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wrappers: Dict[Tuple[int, str], Callable] = {}
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, per_call: bool, parent: Optional[_Frame] = None) -> _Frame:
        """Open a span on this thread; ``parent`` crosses threads for rank roots."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        span_id = next(self._ids) if per_call else None
        anchor = span_id if per_call else (parent.anchor if parent is not None else None)
        run = parent.run if parent is not None else next(self._ids)
        frame = _Frame(name, parent, span_id, anchor, run)
        stack.append(frame)
        return frame

    def leave(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        parent = frame.parent
        if frame.span_id is not None:
            self.spans.append({
                "id": frame.span_id,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "self": duration - frame.child,
                "parent": parent.anchor if parent is not None else None,
                "run": frame.run,
                "thread": current_thread().name,
            })
            return
        # Keyed by the thread object, not its name: two served jobs can run
        # rank threads of the same name at once, and an entry must only ever
        # be updated by one thread.
        key = (frame.name, parent.name if parent is not None else "", frame.anchor, current_thread())
        entry = self.aggregates.get(key)
        if entry is None:
            entry = self.aggregates[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[_Frame] = None):
        """A per-call span opened by the benchmark itself."""
        frame = self.enter(name, True, parent)
        try:
            yield frame
        finally:
            self.leave(frame)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, per_call: bool) -> Callable:
        key = (id(fn), name)
        if key in self._wrappers:
            return self._wrappers[key]
        enter, leave = self.enter, self.leave
        counts_sweep = name in SWEEPS
        counters, counter_lock = self.counters, self._counter_lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, per_call)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if counts_sweep and (frame.parent is None or frame.parent.name not in SWEEPS):
                with counter_lock:
                    counters["mcmc.sweeps"] += 1
                    counters["mcmc.proposed"] += result.proposed_moves
                    counters["mcmc.accepted"] += result.accepted_moves
            return result

        self._wrappers[key] = traced
        return traced

    def _wrap_launcher(self, run_distributed: Callable) -> Callable:
        tracer = self

        @functools.wraps(run_distributed)
        def launch(num_ranks, fn, *args, **kwargs):
            with tracer.span("launch.run_distributed") as launching:
                if str(kwargs.get("transport")) == "processes" and num_ranks > 1:
                    tracer.missing.append(f"mpi.rank spans of {fn.__name__} (processes transport)")
                    return run_distributed(num_ranks, fn, *args, **kwargs)

                def rank_root(comm, *rank_args, **rank_kwargs):
                    with tracer.span("mpi.rank", parent=launching):
                        return fn(comm, *rank_args, **rank_kwargs)

                return run_distributed(num_ranks, rank_root, *args, **kwargs)

        return launch

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Bind every wrapper; on a missing target, undo what was bound and raise."""
        try:
            for module_name, class_name, attrs, layer, per_call in TARGETS:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for attr in attrs:
                    raw = owner.__dict__[attr]
                    name = f"{layer}.{attr}"
                    if isinstance(raw, classmethod):
                        wrapped: Any = classmethod(self._wrap(raw.__func__, name, per_call))
                    else:
                        wrapped = self._wrap(raw, name, per_call)
                    self._patch(owner, attr, wrapped)
            for module_name in LAUNCHERS:
                module = importlib.import_module(module_name)
                self._patch(module, "run_distributed", self._wrap_launcher(module.run_distributed))
        except (AttributeError, KeyError) as exc:
            self.uninstall()
            raise RuntimeError(f"trace target {exc} no longer exists; update TARGETS") from exc
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, List[float]]:
        """``name -> [count, total seconds, self seconds]`` over every span."""
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            entry = out.setdefault(span["name"], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span["end"] - span["start"]
            entry[2] += span["self"]
        for (name, _parent, _anchor, _thread), (count, total, self_time) in self.aggregates.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += self_time
        return out

    def roots(self) -> List[Dict[str, Any]]:
        """The individual spans that own a whole operation (see :data:`ROOT_SPANS`)."""
        return [span for span in self.spans if span["name"] in ROOT_SPANS]

    def unattributed_share(self) -> float:
        """Largest share of a root's duration not covered by any traced child."""
        return max(
            (span["self"] / (span["end"] - span["start"]) for span in self.roots()),
            default=0.0,
        )

    def layers(self) -> Dict[str, float]:
        """Self seconds per layer (the span-name prefix), summed over threads."""
        out: Dict[str, float] = {}
        for name, (_count, _total, self_time) in self.totals().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_time
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "anchor": anchor, "thread": thread.name,
                 "count": count, "total_s": total, "self_s": self_time}
                for (name, parent, anchor, thread), (count, total, self_time)
                in self.aggregates.items()
            ],
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }
