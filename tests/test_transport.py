"""Tests for the transport layer: name table, processes backend, shared graphs.

The name-table tests mirror the matrix-backend conventions
(``tests/test_api_facade.py``): unknown names fail loudly, listing the valid
ones.  The processes-transport tests hold the multiprocess backend to
the same Communicator contract the threaded tests establish — collectives,
point-to-point, failure aggregation with tracebacks, configurable timeouts —
plus the pieces unique to crossing a process boundary: CommStats parity and
shared-memory graph ingestion.
"""

import os
import time

import numpy as np
import pytest

from repro.core.config import SBPConfig, get_transport
from repro.core.config import TRANSPORTS as TRANSPORT_TABLE
from repro.graphs.generators.degree import DegreeSequenceSpec
from repro.graphs.generators.sbm import DCSBMSpec, generate_dcsbm_graph
from repro.graphs.shm import share_graph
from repro.mpi import run_distributed
from repro.mpi.transport import (
    DEFAULT_TIMEOUT,
    DistributedError,
    SelfTransport,
)

TRANSPORTS = ["threads", "processes"]


@pytest.fixture(scope="module")
def small_graph():
    spec = DCSBMSpec(
        num_vertices=60,
        num_communities=3,
        degree_spec=DegreeSequenceSpec(exponent=3.0, min_degree=3, max_degree=12, duplicate=True),
        intra_inter_ratio=3.5,
        block_size_alpha=5.0,
        name="transport-60",
    )
    return generate_dcsbm_graph(spec, seed=13)


class TestTransportTable:
    def test_transport_names_in_order(self):
        assert list(TRANSPORT_TABLE) == ["self", "threads", "processes"]

    def test_get_transport_by_name(self):
        assert get_transport("self") is get_transport("self")
        assert isinstance(get_transport("self"), SelfTransport)
        for name in TRANSPORT_TABLE:
            assert get_transport(name).name == name

    def test_get_transport_instance_passthrough(self):
        instance = get_transport("threads")
        assert get_transport(instance) is instance

    @pytest.mark.parametrize("call", [
        get_transport,
        lambda name: SBPConfig(transport=name),
        lambda name: run_distributed(2, lambda comm: comm.rank, transport=name),
    ], ids=["get_transport", "SBPConfig", "run_distributed"])
    def test_unknown_transport_lists_transport_names(self, call):
        with pytest.raises(ValueError) as excinfo:
            call("smoke-signals")
        message = str(excinfo.value)
        assert "unknown transport 'smoke-signals'" in message
        for name in TRANSPORT_TABLE:
            assert repr(name) in message

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            get_transport(42)

    def test_config_accepts_every_transport(self):
        for name in TRANSPORT_TABLE:
            assert SBPConfig(transport=name).transport == name

    def test_run_distributed_validates_transport_even_for_one_rank(self):
        # The single-rank shortcut must not swallow a typo'd transport name.
        with pytest.raises(ValueError, match="unknown transport 'smoke-signals'"):
            run_distributed(1, lambda comm: comm.rank, transport="smoke-signals")


class TestProcessTransportCollectives:
    def test_allgather_returns_rank_indexed_values(self):
        result = run_distributed(
            4, lambda comm: comm.allgather(comm.rank * 10), transport="processes", timeout=30.0
        )
        assert all(values == [0, 10, 20, 30] for values in result.results)

    def test_send_recv_crosses_process_boundary(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("from-0", dest=1, tag=7)
                return None
            return comm.recv(source=0, tag=7)

        result = run_distributed(2, program, transport="processes", timeout=30.0)
        assert result.results[1] == "from-0"

    def test_numpy_payloads(self):
        def program(comm):
            gathered = comm.allgather(np.full(4, comm.rank))
            return np.concatenate(gathered).sum()

        result = run_distributed(3, program, transport="processes", timeout=30.0)
        assert result.results == [12, 12, 12]

    def test_shared_memory_graph_argument_identical_in_workers(self, small_graph):
        def program(comm, graph):
            src, dst, weight = graph.edge_arrays()
            return (
                graph.num_vertices,
                graph.num_edges,
                int(src.sum()),
                int(dst.sum()),
                int(weight.sum()),
            )

        result = run_distributed(2, program, small_graph, transport="processes", timeout=30.0)
        src, dst, weight = small_graph.edge_arrays()
        expected = (
            small_graph.num_vertices,
            small_graph.num_edges,
            int(src.sum()),
            int(dst.sum()),
            int(weight.sum()),
        )
        assert result.results == [expected, expected]


class TestFailureAggregation:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_distributed_error_preserves_per_rank_tracebacks(self, transport):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            comm.barrier()
            return comm.rank

        with pytest.raises(DistributedError) as excinfo:
            run_distributed(2, program, transport=transport, timeout=10.0)
        error = excinfo.value
        assert "boom on rank 1" in str(error)
        assert 1 in error.tracebacks
        assert "ValueError: boom on rank 1" in error.tracebacks[1]
        assert "program" in error.tracebacks[1]  # the worker frame survived

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_collective_mismatch_names_collective_and_step(self, transport):
        def program(comm):
            comm.barrier()  # step 0, matched
            if comm.rank == 0:
                return comm.allgather(comm.rank)  # step 1: allgather ...
            return comm.gather(comm.rank)  # ... vs gather

        with pytest.raises(DistributedError) as excinfo:
            run_distributed(2, program, transport=transport, timeout=10.0)
        assert "collective mismatch at step 1" in str(excinfo.value)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_timeout_names_collective_and_step(self, transport):
        def program(comm):
            comm.barrier()  # step 0, matched
            if comm.rank == 0:
                comm.barrier()  # step 1: rank 1 never arrives
            else:
                time.sleep(5.0)
            return comm.rank

        start = time.monotonic()
        with pytest.raises(DistributedError) as excinfo:
            run_distributed(2, program, transport=transport, timeout=0.5)
        elapsed = time.monotonic() - start
        assert "'barrier' (step 1) timed out" in str(excinfo.value)
        # The configured timeout was honoured, not DEFAULT_TIMEOUT.
        assert elapsed < DEFAULT_TIMEOUT / 2

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_recv_timeout_names_source_and_tag(self, transport):
        def program(comm):
            if comm.rank == 1:
                return comm.recv(source=0, tag=3)  # rank 0 never sends
            return None

        with pytest.raises(DistributedError) as excinfo:
            run_distributed(2, program, transport=transport, timeout=0.5)
        assert "recv on rank 1 from 0 (tag 3) timed out" in str(excinfo.value)

    def test_default_timeout_is_300_seconds(self):
        assert DEFAULT_TIMEOUT == 300.0
        from repro.mpi.threaded import _DEFAULT_TIMEOUT  # back-compat alias

        assert _DEFAULT_TIMEOUT == DEFAULT_TIMEOUT


class TestCommStatsParity:
    def test_identical_stats_across_transports(self):
        def program(comm):
            comm.barrier()
            comm.bcast({"payload": list(range(32))}, root=0)
            comm.allgather(np.full(8, comm.rank))
            comm.alltoall([(comm.rank, dest) for dest in range(comm.size)])
            gathered = comm.gather(comm.rank, root=0)
            if comm.rank == 0:
                comm.send("ping", dest=1, tag=1)
            elif comm.rank == 1:
                comm.recv(source=0, tag=1)
            return gathered

        runs = {
            transport: run_distributed(3, program, transport=transport, timeout=30.0)
            for transport in TRANSPORTS
        }
        threads, processes = runs["threads"], runs["processes"]
        assert threads.results == processes.results
        # Per-rank accounting is identical call-for-call and byte-for-byte …
        assert threads.comm_stats == processes.comm_stats
        # … so the aggregate the cost model consumes is too.
        threads_total = threads.total_comm_stats()
        processes_total = processes.total_comm_stats()
        assert threads_total.calls == processes_total.calls
        assert threads_total.bytes_sent == processes_total.bytes_sent
        assert threads_total.bytes_received == processes_total.bytes_received


class TestSharedGraph:
    def test_round_trip_preserves_every_array(self, small_graph):
        shared = share_graph(small_graph)
        try:
            attached = shared.attach()
            assert attached.num_vertices == small_graph.num_vertices
            assert attached.num_edges == small_graph.num_edges
            assert attached.name == small_graph.name
            for original, view in (
                (small_graph.out_degrees, attached.out_degrees),
                (small_graph.in_degrees, attached.in_degrees),
                (small_graph.degrees, attached.degrees),
            ):
                assert np.array_equal(original, view)
            for a, b in zip(small_graph.edge_arrays(), attached.edge_arrays()):
                assert np.array_equal(a, b)
            if small_graph.true_assignment is not None:
                assert np.array_equal(small_graph.true_assignment, attached.true_assignment)
        finally:
            shared.close()

    def test_attached_arrays_are_read_only(self, small_graph):
        shared = share_graph(small_graph)
        try:
            attached = shared.attach()
            with pytest.raises(ValueError):
                attached.out_degrees[0] = 99
        finally:
            shared.close()

    def test_descriptor_pickles_without_segment_handle(self, small_graph):
        import pickle

        shared = share_graph(small_graph)
        try:
            clone = pickle.loads(pickle.dumps(shared))
            assert clone._shm is None
            assert clone.shm_name == shared.shm_name
            assert np.array_equal(clone.attach().degrees, small_graph.degrees)
        finally:
            shared.close()


@pytest.mark.skipif(os.cpu_count() < 4, reason="speedup is only observable with >= 4 cores")
class TestProcessSpeedup:
    def test_processes_beat_threads_on_cpu_bound_ranks(self):
        def program(comm):
            # Pure-python CPU burn: the GIL serialises this under threads.
            total = 0
            for i in range(2_000_000):
                total += i * i
            comm.barrier()
            return total

        timings = {}
        for transport in TRANSPORTS:
            start = time.monotonic()
            run_distributed(4, program, transport=transport, timeout=120.0)
            timings[transport] = time.monotonic() - start
        assert timings["processes"] * 1.5 < timings["threads"]
