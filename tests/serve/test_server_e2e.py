"""End-to-end tests of the asyncio simulation service.

Real :class:`ExecutionEngine`, real Unix sockets under ``tmp_path``,
real clients — exercising the acceptance criteria of the serve layer:
dedup under concurrency, cold/warm cache paths, deadline expiry,
queue-full shedding, byte-identical served results and a graceful
drain that leaves no orphaned workers.
"""

import asyncio
import contextlib
import multiprocessing
import os
import signal

import pytest

from repro.config import test_config as tiny_config
from repro.errors import (
    BadRequestError,
    DeadlineExceededError,
    OverloadedError,
    ShuttingDownError,
)
from repro.exec import (
    EventLog,
    ExecutionEngine,
    ResultCache,
    RunKey,
    execute_cell,
    result_bytes,
)
from repro.serve import protocol
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.server import ServeConfig, SimulationServer, run_server
from repro.sim.gpu import SimResult
from repro.workloads import Scale
from tests.serve._gate import EngineGate, wait_for_gate

CELLS = ("MM", "BFS", "FFT", "HST")


def make_engine(tmp_path, jobs=1):
    return ExecutionEngine(jobs=jobs, cache=ResultCache(tmp_path / "cache"),
                           events=EventLog())


@contextlib.asynccontextmanager
async def serving(tmp_path, jobs=1, **config_kwargs):
    """Start a unix-socket server in this loop; always drain on exit."""
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         **config_kwargs)
    server = SimulationServer(make_engine(tmp_path, jobs=jobs), config)
    await server.start()
    try:
        yield server
    finally:
        await server.drain()


def simulate_kwargs(benchmark):
    return dict(benchmark=benchmark, engine="caps", scale="tiny",
                preset="test")


class TestConcurrency:
    def test_32_clients_with_overlapping_configs(self, tmp_path):
        """32 concurrent clients over 4 distinct cells: 4 simulations."""
        async def scenario():
            async with serving(tmp_path) as server:
                async def one(i):
                    async with AsyncServeClient(
                            server.config.socket_path) as client:
                        return await client.simulate(
                            **simulate_kwargs(CELLS[i % len(CELLS)]))

                outcomes = await asyncio.gather(*(one(i) for i in range(32)))
                assert len(outcomes) == 32
                for result, meta in outcomes:
                    assert isinstance(result, SimResult)
                    assert meta["source"] in ("dispatch", "dedup", "memcache")
                stats = server.stats()
                # Each distinct cell simulated exactly once; every other
                # request joined an in-flight cell or hit the memcache.
                assert stats["simulations"] == len(CELLS)
                assert stats["dedup_ratio"] > 0
                assert stats["dedup_joined"] + stats["memcache_hits"] == \
                    32 - len(CELLS)
                # Same-cell responses are byte-identical across clients.
                by_cell = {}
                for result, meta in outcomes:
                    by_cell.setdefault(meta["cell"], set()).add(
                        result_bytes(result))
                assert all(len(blobs) == 1 for blobs in by_cell.values())
        asyncio.run(scenario())


class TestCachePaths:
    def test_warm_duplicate_needs_no_new_dispatch(self, tmp_path):
        """The headline E2E check: a duplicated request is pure cache."""
        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    _, cold_meta = await client.simulate(
                        **simulate_kwargs("MM"))
                    assert cold_meta["source"] == "dispatch"
                    before = server.stats()
                    _, warm_meta = await client.simulate(
                        **simulate_kwargs("MM"))
                    after = server.stats()
                assert warm_meta["source"] == "memcache"
                # Counters prove no new engine dispatch happened.
                assert after["simulations"] == before["simulations"]
                assert after["admitted"] == before["admitted"]
                assert after["batches"] == before["batches"]
                assert after["memcache_hits"] == before["memcache_hits"] + 1
        asyncio.run(scenario())

    def test_served_result_is_byte_identical_to_serial(self, tmp_path):
        """Served payload == the serial in-process run, byte for byte."""
        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    served, _ = await client.simulate(
                        benchmark="MM", engine="caps", scale="tiny",
                        preset="test")
            return served
        served = asyncio.run(scenario())
        serial = execute_cell(
            RunKey("MM", "caps", Scale.TINY,
                   tiny_config().with_scheduler(
                       protocol.request_to_key(protocol.parse_request({
                           "v": protocol.PROTOCOL_VERSION, "id": "x",
                           "op": "simulate", "benchmark": "MM",
                           "engine": "caps", "scale": "tiny",
                           "preset": "test",
                       })).config.scheduler)))
        assert result_bytes(served) == result_bytes(serial)


class TestFailureSemantics:
    def test_deadline_exceeded_then_retry_succeeds(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as server:
                # The held engine guarantees the tiny deadline fires
                # while the cell is still in flight.
                gate = EngineGate(server.engine)
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    with pytest.raises(DeadlineExceededError):
                        await client.simulate(deadline_s=0.01,
                                              **simulate_kwargs("MM"))
                    assert server.counters.deadline_exceeded == 1
                    assert gate.entered.is_set()
                    gate.open()
                    # The cell kept running; an undeadlined retry is
                    # answered from a cache tier or the same flight.
                    _, meta = await client.simulate(**simulate_kwargs("MM"))
                    assert meta["source"] in ("memcache", "dedup")
        asyncio.run(scenario())

    def test_default_deadline_applies_to_requests_without_one(
            self, tmp_path):
        async def scenario():
            async with serving(tmp_path,
                               default_deadline_s=0.05) as server:
                gate = EngineGate(server.engine)
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    patient = asyncio.ensure_future(client.simulate(
                        deadline_s=30, **simulate_kwargs("MM")))
                    # Once a later request on the connection is
                    # answered, the patient one is on the wire, ahead
                    # of whatever follows.
                    assert await client.ping()
                    with pytest.raises(DeadlineExceededError):
                        await client.simulate(**simulate_kwargs("MM"))
                    # The request that carries its own deadline started
                    # waiting first and is waiting still.
                    assert server.counters.deadline_exceeded == 1
                    assert not patient.done()
                    gate.open()
                    _, meta = await patient
                    assert meta["source"] == "dispatch"
                    _, meta = await client.simulate(**simulate_kwargs("MM"))
                    assert meta["source"] == "memcache"
        asyncio.run(scenario())

    def test_queue_full_sheds_with_explicit_overloaded(self, tmp_path):
        async def scenario():
            async with serving(tmp_path, queue_limit=1) as server:
                gate = EngineGate(server.engine)
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    first = asyncio.ensure_future(
                        client.simulate(**simulate_kwargs("MM")))
                    await wait_for_gate(gate.entered)   # MM admitted, held
                    with pytest.raises(OverloadedError):
                        await client.simulate(**simulate_kwargs("BFS"))
                    assert server.stats()["shed"] == 1
                    gate.open()
                    result, _ = await first     # the admitted cell finishes
                    assert isinstance(result, SimResult)
        asyncio.run(scenario())

    def test_draining_server_refuses_new_simulations(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    server._draining = True     # drain began moments ago
                    with pytest.raises(ShuttingDownError):
                        await client.simulate(**simulate_kwargs("MM"))
                    # Liveness probes still answer, and say so.
                    response = await client.request({
                        "v": protocol.PROTOCOL_VERSION, "id": "p",
                        "op": "ping"})
                    assert response["result"]["draining"] is True
                    server._draining = False
        asyncio.run(scenario())

    def test_bad_requests_get_typed_errors(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    with pytest.raises(BadRequestError, match="benchmark"):
                        await client.simulate(benchmark="NOPE")
                    with pytest.raises(BadRequestError, match="version"):
                        await client.request({"v": 999, "id": "x",
                                              "op": "ping"})
                    with pytest.raises(BadRequestError, match="config field"):
                        await client.simulate(
                            overrides={"warp_speed": 9},
                            **simulate_kwargs("MM"))
                    # A well-named field with a malformed value is as
                    # permanent: never admitted, never retried.
                    response = await client.request_raw(
                        protocol.simulate_payload(
                            "malformed", overrides={"prefetch": 5},
                            **simulate_kwargs("MM")))
                    assert response["error"]["code"] == "bad_request"
                    assert response["error"]["kind"] == "permanent"
                assert server.counters.errors == 4
                assert server.stats()["admitted"] == 0
                assert server.stats()["simulations"] == 0
        asyncio.run(scenario())


class TestLifecycle:
    def test_graceful_drain_leaves_no_orphaned_workers(self, tmp_path):
        """Drain with a parallel engine: every pool worker is reaped."""
        async def scenario():
            async with serving(tmp_path, jobs=2) as server:
                async def one(benchmark):
                    async with AsyncServeClient(
                            server.config.socket_path) as client:
                        return await client.simulate(
                            **simulate_kwargs(benchmark))

                await asyncio.gather(*(one(b) for b in CELLS))
                await server.drain()
                assert server.scheduler.queue_depth == 0
                # Engine pools are per-batch; a drained server must not
                # leave worker processes behind.
                assert multiprocessing.active_children() == []
                assert not os.path.exists(server.config.socket_path)
                await server.drain()            # idempotent
        asyncio.run(scenario())

    def test_engine_timeouts_are_rejected(self, tmp_path):
        engine = ExecutionEngine(jobs=1, timeout_s=5)
        with pytest.raises(ValueError, match="timeout_s"):
            SimulationServer(engine, ServeConfig(socket_path="unused"))

    def test_run_server_drains_on_sigterm(self, tmp_path):
        """The CLI path: SIGTERM triggers a drain, not a kill."""
        async def scenario():
            config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                                 batch_window_s=0.01)
            ready = asyncio.Event()
            task = asyncio.ensure_future(run_server(
                make_engine(tmp_path), config, ready=ready))
            await asyncio.wait_for(ready.wait(), 5)
            async with AsyncServeClient(config.socket_path) as client:
                assert await client.ping()
            os.kill(os.getpid(), signal.SIGTERM)
            server = await asyncio.wait_for(task, 10)
            assert server.draining
            assert not os.path.exists(config.socket_path)
        asyncio.run(scenario())

    def test_tcp_listener_with_ephemeral_port(self, tmp_path):
        async def scenario():
            config = ServeConfig(host="127.0.0.1", port=0,
                                 batch_window_s=0.01)
            server = SimulationServer(make_engine(tmp_path), config)
            await server.start()
            try:
                assert config.port != 0     # rebound to the real port
                async with AsyncServeClient(host=config.host,
                                            port=config.port) as client:
                    assert await client.ping()
                    result, meta = await client.simulate(
                        **simulate_kwargs("MM"))
                    assert isinstance(result, SimResult)
                    assert meta["source"] == "dispatch"
            finally:
                await server.drain()
        asyncio.run(scenario())


class TestSyncClient:
    def test_blocking_client_round_trip(self, tmp_path):
        """The repro-request CLI path, driven off-loop via to_thread."""
        async def scenario():
            async with serving(tmp_path) as server:
                def blocking_calls():
                    with ServeClient(server.config.socket_path,
                                     timeout=30) as client:
                        assert client.ping()
                        result, meta = client.simulate(
                            "MM", engine="caps", scale="tiny", preset="test")
                        stats = client.stats()
                    return result, meta, stats

                result, meta, stats = await asyncio.to_thread(blocking_calls)
                assert isinstance(result, SimResult)
                assert meta["source"] == "dispatch"
                assert stats["server"]["requests"] == 3
        asyncio.run(scenario())

    def test_timeout_expires_as_an_oserror(self, tmp_path):
        """``repro request --timeout`` reports an expiry as one more way
        of not reaching the server (exit 5) by catching ``OSError``,
        which ``asyncio.TimeoutError`` is not before Python 3.11."""
        async def scenario():
            async with serving(tmp_path) as server:
                gate = EngineGate(server.engine)

                def impatient_call():
                    with ServeClient(server.config.socket_path,
                                     timeout=0.05) as client:
                        with pytest.raises(OSError, match="0.05s"):
                            client.simulate(**simulate_kwargs("MM"))
                        assert client.ping()    # the connection survives

                try:
                    await asyncio.to_thread(impatient_call)
                finally:
                    gate.open()
        asyncio.run(scenario())

    def test_timeout_holds_when_the_cancellation_is_lost(
            self, tmp_path, monkeypatch):
        """Before Python 3.12 the ``wait_for`` inside ``connect`` returns
        normally when a cancellation lands as the connection opens; the
        call then runs on, and the timeout has to end it all the same."""
        real_connect = AsyncServeClient.connect

        async def connect(self):
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                pass                # the cancellation is lost here
            return await real_connect(self)

        async def scenario():
            async with serving(tmp_path) as server:
                gate = EngineGate(server.engine)

                def impatient_call():
                    with ServeClient(server.config.socket_path,
                                     timeout=0.05) as client:
                        monkeypatch.setattr(AsyncServeClient, "connect",
                                            connect)
                        with pytest.raises(TimeoutError):
                            client.simulate(**simulate_kwargs("MM"))
                        monkeypatch.undo()
                        assert client.ping()

                try:
                    await asyncio.wait_for(
                        asyncio.to_thread(impatient_call), 30)
                finally:
                    gate.open()
        asyncio.run(scenario())

    def test_sync_client_raises_typed_errors(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as server:
                def bad_call():
                    with ServeClient(server.config.socket_path,
                                     timeout=30) as client:
                        with pytest.raises(BadRequestError):
                            client.simulate("NOPE")

                await asyncio.to_thread(bad_call)
        asyncio.run(scenario())
