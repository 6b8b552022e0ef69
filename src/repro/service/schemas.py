"""Request validation for the HTTP API: every error names the offending field.

The serving layer follows the construction-time validation idiom the config
(`SBPConfig`), its name tables, and the run registry (`RunRecord`)
established: a bad request is rejected immediately with a message that names
the field at fault, never half-parsed.  :func:`validate_job_request` turns a
decoded ``POST /jobs`` JSON body into a :class:`JobRequest` — the graph
fully materialised, the config resolved, everything typed — or raises a
:class:`ValidationError` whose ``field`` attribute the HTTP layer surfaces
in the structured 400 response.

Graph specifications (the ``graph`` object) come in three forms:

* an **edge list**: ``{"edges": [[src, dst], [src, dst, weight], ...]}``
  with optional ``num_vertices`` / ``name`` / ``true_assignment`` (vertex
  ids are 0-based);
* the **persisted form** ``graph_to_dict`` produces (``num_vertices`` +
  ``src`` / ``dst`` / ``weight`` arrays) — what a client holding a saved
  ``SBPResult`` already has;
* a **generator spec**: ``{"generator": "challenge", "graph_id": ...}`` or
  ``{"generator": "dcsbm", "num_vertices": ..., "num_communities": ...}``,
  so benchmarking clients need not ship edges at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.api.strategies import STRATEGIES
from repro.core.config import PRESETS, SBPConfig, config_preset, lookup
from repro.graphs.generators import (
    DCSBMSpec,
    DegreeSequenceSpec,
    challenge_graph,
    generate_dcsbm_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.io import graph_from_dict

__all__ = ["ValidationError", "JobRequest", "validate_job_request"]

#: Body keys accepted by ``POST /jobs``; anything else is rejected by name.
_ALLOWED_KEYS = frozenset(
    {"job_id", "priority", "strategy", "num_ranks", "config", "preset",
     "overrides", "timeout", "checkpoint_every", "graph"}
)
_GENERATORS = ("challenge", "dcsbm")


class ValidationError(ValueError):
    """A rejected request body; ``field`` names the offending field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"field {field!r}: {message}")
        self.field = field


@dataclass(frozen=True)
class JobRequest:
    """A validated, fully materialised job submission."""

    graph: Graph
    config: SBPConfig
    preset: Optional[str]
    strategy: str
    num_ranks: int
    priority: int
    job_id: Optional[str]
    timeout: Optional[float]
    checkpoint_every: Optional[int]


def _require_int(body: Dict[str, object], key: str, minimum: Optional[int] = None) -> Optional[int]:
    if key not in body:
        return None
    value = body[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(key, f"must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValidationError(key, f"must be at least {minimum}, got {value}")
    return value


def _build_edge_list_graph(spec: Dict[str, object]) -> Graph:
    edges = spec["edges"]
    if not isinstance(edges, list) or not edges:
        raise ValidationError("graph.edges", "must be a non-empty list of [src, dst(, weight)] rows")
    srcs, dsts, weights = [], [], []
    for i, row in enumerate(edges):
        if not isinstance(row, (list, tuple)) or len(row) not in (2, 3):
            raise ValidationError(
                "graph.edges", f"row {i} must be [src, dst] or [src, dst, weight], got {row!r}"
            )
        if any(isinstance(v, bool) or not isinstance(v, int) for v in row):
            raise ValidationError("graph.edges", f"row {i} must contain integers, got {row!r}")
        if row[0] < 0 or row[1] < 0:
            raise ValidationError("graph.edges", f"row {i} has a negative vertex id: {row!r}")
        srcs.append(row[0])
        dsts.append(row[1])
        weights.append(row[2] if len(row) == 3 else 1)
    inferred = max(max(srcs), max(dsts)) + 1
    num_vertices = spec.get("num_vertices", inferred)
    if isinstance(num_vertices, bool) or not isinstance(num_vertices, int) or num_vertices < inferred:
        raise ValidationError(
            "graph.num_vertices",
            f"must be an integer >= {inferred} (the largest vertex id + 1), got {num_vertices!r}",
        )
    truth = spec.get("true_assignment")
    if truth is not None:
        if not isinstance(truth, list) or len(truth) != num_vertices:
            raise ValidationError(
                "graph.true_assignment", f"must be a list of {num_vertices} labels"
            )
        truth = np.asarray(truth, dtype=np.int64)
    name = spec.get("name", "submitted-graph")
    if not isinstance(name, str):
        raise ValidationError("graph.name", f"must be a string, got {type(name).__name__}")
    return Graph(
        num_vertices,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(weights, dtype=np.int64),
        true_assignment=truth,
        name=name,
    )


def _build_generator_graph(spec: Dict[str, object]) -> Graph:
    generator = spec["generator"]
    if generator not in _GENERATORS:
        raise ValidationError(
            "graph.generator", f"unknown generator {generator!r}; expected one of {list(_GENERATORS)}"
        )
    seed = spec.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError("graph.seed", f"must be an integer, got {seed!r}")
    if generator == "challenge":
        graph_id = spec.get("graph_id")
        if not isinstance(graph_id, str):
            raise ValidationError("graph.graph_id", "required for the challenge generator")
        scale = spec.get("scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)) or scale <= 0:
            raise ValidationError("graph.scale", f"must be a positive number, got {scale!r}")
        try:
            return challenge_graph(graph_id, scale=float(scale), seed=seed)
        except (KeyError, ValueError) as exc:
            raise ValidationError("graph.graph_id", str(exc)) from exc
    # generator == "dcsbm"
    num_vertices = spec.get("num_vertices")
    num_communities = spec.get("num_communities")
    for key, value in (("num_vertices", num_vertices), ("num_communities", num_communities)):
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValidationError(f"graph.{key}", f"must be a positive integer, got {value!r}")
    try:
        kwargs = {}
        degree_keys = ("min_degree", "max_degree", "exponent")
        if any(key in spec for key in degree_keys):
            kwargs["degree_spec"] = DegreeSequenceSpec(
                exponent=float(spec.get("exponent", 3.0)),
                min_degree=int(spec.get("min_degree", 2)),
                max_degree=int(spec.get("max_degree", 30)),
                duplicate=True,
            )
        dcsbm = DCSBMSpec(
            num_vertices=num_vertices,
            num_communities=num_communities,
            intra_inter_ratio=float(spec.get("intra_inter_ratio", 2.0)),
            block_size_alpha=float(spec.get("block_size_alpha", 2.0)),
            name=str(spec.get("name", f"dcsbm-{num_vertices}")),
            **kwargs,
        )
        return generate_dcsbm_graph(dcsbm, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError("graph", str(exc)) from exc


def _build_graph(spec: object) -> Graph:
    if not isinstance(spec, dict):
        raise ValidationError("graph", f"must be an object, got {type(spec).__name__}")
    if "generator" in spec:
        return _build_generator_graph(spec)
    if "edges" in spec:
        return _build_edge_list_graph(spec)
    if "src" in spec and "dst" in spec and "num_vertices" in spec:
        try:
            return graph_from_dict(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("graph", f"invalid persisted graph: {exc}") from exc
    raise ValidationError(
        "graph",
        "must contain 'edges', a persisted graph ('num_vertices'/'src'/'dst'), or a 'generator' spec",
    )


def _lookup_field(field: str, table: Dict[str, object], value: object) -> None:
    """Check ``value`` names a ``table`` entry; the error names the body field."""
    try:
        lookup(field, table, value)
    except ValueError as exc:
        raise ValidationError(field, str(exc)) from None


def validate_job_request(body: object) -> JobRequest:
    """Validate a decoded ``POST /jobs`` body into a :class:`JobRequest`.

    Raises :class:`ValidationError` naming the offending field on any
    problem; never partially succeeds.
    """
    if not isinstance(body, dict):
        raise ValidationError("body", f"must be a JSON object, got {type(body).__name__}")
    unknown = set(body) - _ALLOWED_KEYS
    if unknown:
        raise ValidationError(
            sorted(unknown)[0],
            f"unknown field(s) {sorted(unknown)}; allowed fields: {sorted(_ALLOWED_KEYS)}",
        )
    if "graph" not in body:
        raise ValidationError("graph", "required")
    graph = _build_graph(body["graph"])

    strategy = body.get("strategy", "sequential")
    _lookup_field("strategy", STRATEGIES, strategy)
    preset = body.get("preset")
    if preset is not None:
        _lookup_field("preset", PRESETS, preset)
    config_entry = body.get("config")
    if config_entry is not None and preset is not None:
        raise ValidationError("config", "pass either 'config' or 'preset', not both")
    if config_entry is not None and not isinstance(config_entry, dict):
        raise ValidationError("config", f"must be an object, got {type(config_entry).__name__}")
    try:
        if config_entry is not None:
            config = SBPConfig.from_dict(config_entry)
        elif preset is not None:
            config = config_preset(preset)
        else:
            config = SBPConfig()
    except (TypeError, ValueError) as exc:
        raise ValidationError("config", str(exc)) from exc

    overrides = body.get("overrides")
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ValidationError("overrides", f"must be an object, got {type(overrides).__name__}")
        try:
            config = config.with_overrides(**overrides)
        except (TypeError, ValueError) as exc:
            raise ValidationError("overrides", str(exc)) from exc

    job_id = body.get("job_id")
    if job_id is not None and (not isinstance(job_id, str) or not job_id):
        raise ValidationError("job_id", f"must be a non-empty string, got {job_id!r}")

    priority = _require_int(body, "priority")
    num_ranks = _require_int(body, "num_ranks", minimum=1)
    checkpoint_every = _require_int(body, "checkpoint_every", minimum=0)

    timeout = body.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or timeout < 0:
            raise ValidationError("timeout", f"must be a non-negative number, got {timeout!r}")
        timeout = float(timeout)

    return JobRequest(
        graph=graph,
        config=config,
        preset=preset,
        strategy=strategy,
        num_ranks=num_ranks if num_ranks is not None else 1,
        priority=priority if priority is not None else 0,
        job_id=job_id,
        timeout=timeout,
        checkpoint_every=checkpoint_every,
    )
