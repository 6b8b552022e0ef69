"""Configuration for every SBP variant in the library.

One dataclass drives the sequential baseline, the Hybrid shared-memory
variant, DC-SBP, and EDiSt, so that experiments hold the algorithmic
parameters fixed while varying only the distribution strategy — which is how
the paper's comparisons are set up.

The module also holds the name tables of a config's fixed choices —
:data:`BACKENDS`, :data:`TRANSPORTS` and :data:`PRESETS` — read through
:func:`lookup`, which rejects an unknown name with a :class:`ValueError`
listing the valid ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Type, TypeVar, Union

from repro.blockmodel.backend import BlockMatrixBackend
from repro.blockmodel.csr_matrix import CSRBlockMatrix
from repro.blockmodel.sparse_csr_matrix import SparseCSRBlockMatrix
from repro.mpi.processes import ProcessTransport
from repro.mpi.threaded import ThreadTransport
from repro.mpi.transport import SelfTransport, Transport

__all__ = [
    "SBPConfig",
    "MCMCVariant",
    "MatrixBackend",
    "TransportName",
    "DEFAULT_BACKEND",
    "DEFAULT_TRANSPORT",
    "BACKENDS",
    "TRANSPORTS",
    "PRESETS",
    "lookup",
    "get_backend",
    "get_transport",
    "config_preset",
]

T = TypeVar("T")


def lookup(kind: str, table: Mapping[str, T], name: object) -> T:
    """``table[name]``, or a :class:`ValueError` naming ``kind``, ``name`` and the valid names."""
    try:
        return table[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {kind} {name!r}; expected one of {list(table)}") from None


class MCMCVariant:
    """Names of the supported MCMC engines (see :mod:`repro.core.mcmc`)."""

    METROPOLIS_HASTINGS = "metropolis_hastings"
    HYBRID = "hybrid"
    BATCH_GIBBS = "batch_gibbs"

    ALL = (METROPOLIS_HASTINGS, HYBRID, BATCH_GIBBS)


class MatrixBackend:
    """Names of the blockmodel storage backends (the keys of :data:`BACKENDS`)."""

    #: Dense numpy array with cached marginals — the default and the fastest
    #: at the block counts SBP spends most of its time in; memory is O(B²),
    #: capped at ``MAX_DENSE_BLOCKS``.
    CSR = "csr"
    #: Scipy-free CSR/COO sparse arrays — the vectorized kernels without the
    #: dense memory bound: O(nnz + B) memory at any block count.
    SPARSE_CSR = "sparse_csr"


class TransportName:
    """Names of the distributed transports (the keys of :data:`TRANSPORTS`)."""

    #: Single rank on the calling thread; what every ``num_ranks == 1``
    #: launch uses regardless of the configured transport.
    SELF = "self"
    #: One Python thread per rank — zero startup cost, shared objects, but
    #: the GIL serialises compute.  The default.
    THREADS = "threads"
    #: One OS process per rank — real CPU parallelism; graph arguments are
    #: mapped once via ``multiprocessing.shared_memory``.
    PROCESSES = "processes"


#: The transport of ``SBPConfig()`` and of ``run_distributed(transport=None)``.
DEFAULT_TRANSPORT = TransportName.THREADS

#: The storage backend of ``SBPConfig()`` and of
#: ``Blockmodel.from_graph`` / ``from_assignment(matrix_backend=None)``.
DEFAULT_BACKEND = MatrixBackend.CSR

#: Storage backend name → block matrix class.
BACKENDS: Dict[str, Type[BlockMatrixBackend]] = {
    cls.backend: cls for cls in (CSRBlockMatrix, SparseCSRBlockMatrix)
}

#: Transport name → its shared, stateless instance.
TRANSPORTS: Dict[str, Transport] = {
    transport.name: transport
    for transport in (SelfTransport(), ThreadTransport(), ProcessTransport())
}


def get_backend(name: str) -> Type[BlockMatrixBackend]:
    """The block matrix class of a :data:`BACKENDS` name."""
    return lookup("matrix_backend", BACKENDS, name)


def get_transport(name: Union[str, Transport]) -> Transport:
    """The :data:`TRANSPORTS` instance of a name; a :class:`Transport` passes through."""
    if isinstance(name, Transport):
        return name
    if not isinstance(name, str):
        raise TypeError(f"transport must be a name or Transport instance, got {type(name).__name__}")
    return lookup("transport", TRANSPORTS, name)


@dataclass(frozen=True)
class SBPConfig:
    """Tunable parameters of stochastic block partitioning.

    Defaults follow the Graph Challenge reference implementation, which is
    also what the paper's baselines use.

    Attributes
    ----------
    beta:
        Inverse temperature of the Metropolis-Hastings acceptance
        ``min(1, exp(-beta * ΔDL) * hastings)``.
    block_reduction_rate:
        Fraction of blocks removed per block-merge phase (0.5 halves the
        block count, as in Alg. 1's "until number of communities is halved").
    merge_proposals_per_block:
        ``x`` in Alg. 1/4: candidate merges evaluated per block.
    max_mcmc_iterations:
        ``x`` in Alg. 2/5: maximum MCMC sweeps per phase.
    mcmc_convergence_threshold:
        ``t`` in Alg. 2/5: the phase stops when the absolute change in DL
        over a sweep drops below ``t × DL``.
    min_blocks:
        The agglomeration never merges below this many blocks.
    mcmc_variant:
        ``"metropolis_hastings"`` (strictly sequential, Alg. 2), ``"hybrid"``
        (high-degree vertices sequential + low-degree asynchronous batches,
        the shared-memory parallel formulation of [11]), or
        ``"batch_gibbs"`` (every vertex evaluated against a stale state, the
        original Graph Challenge python parallelism — used by the reference
        DC-SBP implementation of Table VI).
    matrix_backend:
        Blockmodel storage, one of the :data:`BACKENDS` names: ``"csr"``
        (the default: dense numpy arrays with cached marginals, O(B²)
        memory, capped at ``MAX_DENSE_BLOCKS``) or ``"sparse_csr"``
        (scipy-free CSR/COO arrays, O(nnz + B) memory at any block count).
        Both run the same vectorized whole-batch kernels and produce
        bit-identical partitions under a fixed seed.
    transport:
        Where the simulated MPI ranks physically run, one of the
        :data:`TRANSPORTS` names: ``"threads"`` (one thread per rank —
        cheap to launch, GIL-bound compute) or
        ``"processes"`` (one OS process per rank — real CPU parallelism,
        graph shipped once via shared memory).  Single-rank runs always use
        the calling thread whatever this says.  Under a fixed seed the
        transports produce bit-identical partitions.
    hybrid_high_degree_fraction:
        Fraction of vertices (by descending degree) processed sequentially
        by the hybrid MCMC.
    hybrid_batch_size:
        Number of low-degree vertices whose proposals are evaluated against
        the same (stale) blockmodel before their accepted moves are applied.
    dcsbp_combine_threshold:
        DC-SBP merges partial results pairwise until at most this many
        remain (the paper and [13] use 4).
    dcsbp_merge_candidates:
        Candidate target blocks evaluated when merging one partial result's
        community into another's (``None`` evaluates every candidate).
    seed:
        Root random seed.  Every rank and phase derives an independent
        stream from it.
    track_history:
        Record per-iteration DL / block-count history in the result object.
    validate:
        Run expensive consistency checks after each phase (tests only).
    """

    beta: float = 3.0
    block_reduction_rate: float = 0.5
    merge_proposals_per_block: int = 10
    max_mcmc_iterations: int = 30
    mcmc_convergence_threshold: float = 1e-4
    min_blocks: int = 1
    mcmc_variant: str = MCMCVariant.HYBRID
    matrix_backend: str = DEFAULT_BACKEND
    transport: str = DEFAULT_TRANSPORT
    hybrid_high_degree_fraction: float = 0.25
    hybrid_batch_size: int = 64
    dcsbp_combine_threshold: int = 4
    dcsbp_merge_candidates: Optional[int] = None
    seed: Optional[int] = None
    track_history: bool = True
    validate: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.block_reduction_rate < 1.0:
            raise ValueError("block_reduction_rate must lie in (0, 1)")
        if self.merge_proposals_per_block < 1:
            raise ValueError("merge_proposals_per_block must be at least 1")
        if self.max_mcmc_iterations < 1:
            raise ValueError("max_mcmc_iterations must be at least 1")
        if self.mcmc_convergence_threshold < 0:
            raise ValueError("mcmc_convergence_threshold must be non-negative")
        if self.min_blocks < 1:
            raise ValueError("min_blocks must be at least 1")
        if self.mcmc_variant not in MCMCVariant.ALL:
            raise ValueError(
                f"unknown mcmc_variant {self.mcmc_variant!r}; expected one of {MCMCVariant.ALL}"
            )
        lookup("matrix_backend", BACKENDS, self.matrix_backend)
        lookup("transport", TRANSPORTS, self.transport)
        if not 0.0 <= self.hybrid_high_degree_fraction <= 1.0:
            raise ValueError("hybrid_high_degree_fraction must lie in [0, 1]")
        if self.hybrid_batch_size < 1:
            raise ValueError("hybrid_batch_size must be at least 1")
        if self.dcsbp_combine_threshold < 1:
            raise ValueError("dcsbp_combine_threshold must be at least 1")
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def with_seed(self, seed: Optional[int]) -> "SBPConfig":
        """Return a copy with a different root seed."""
        return replace(self, seed=seed)

    def with_overrides(self, **kwargs) -> "SBPConfig":
        """Return a copy with the given fields replaced."""
        unknown = set(kwargs) - {f.name for f in fields(self)}
        if unknown:
            raise ValueError(
                f"unknown SBPConfig field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(f.name for f in fields(self))}"
            )
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict of every field; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SBPConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise (listing the valid field names) rather than being
        silently dropped, so stale or typo'd persisted configs surface
        immediately.
        """
        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise ValueError(
                f"unknown SBPConfig field(s) {sorted(unknown)}; valid fields: {sorted(valid)}"
            )
        return cls(**data)

    @classmethod
    def from_preset(cls, name: str, seed: Optional[int] = None, **overrides) -> "SBPConfig":
        """Instantiate a :data:`PRESETS` entry (see :func:`config_preset`)."""
        config = config_preset(name)
        if seed is not None:
            config = config.with_seed(seed)
        if overrides:
            config = config.with_overrides(**overrides)
        return config

    @classmethod
    def fast(cls, seed: Optional[int] = None) -> "SBPConfig":
        """A configuration tuned for quick test/benchmark runs.

        Fewer MCMC sweeps and merge proposals; accuracy on the small
        laptop-scale graphs used in CI is essentially unaffected while the
        runtime drops severalfold.
        """
        return cls(
            merge_proposals_per_block=4,
            max_mcmc_iterations=12,
            mcmc_convergence_threshold=5e-4,
            seed=seed,
        )


#: Preset name → a factory returning a fresh config: ``"paper"`` is the
#: Graph Challenge reference parameterisation (the library defaults),
#: ``"fast"`` the quick test/benchmark tuning of :meth:`SBPConfig.fast`, and
#: ``"large_graph"`` selects the true-sparse storage backend for graphs whose
#: block count exceeds the dense backend's ``MAX_DENSE_BLOCKS`` ceiling.
PRESETS: Dict[str, Callable[[], SBPConfig]] = {
    "paper": SBPConfig,
    "fast": SBPConfig.fast,
    "large_graph": partial(SBPConfig, matrix_backend=MatrixBackend.SPARSE_CSR),
}


def config_preset(name: str) -> SBPConfig:
    """A fresh config built by the :data:`PRESETS` entry ``name``."""
    return lookup("preset", PRESETS, name)()
