"""End-to-end tests of predictive prefetching (the ISSUE 6 acceptance
criteria).

A real server over a real engine: a client replaying a stepped sweep
must see most post-warmup requests answered from a speculatively-warmed
cache tier, byte-identical to serial in-process runs; an adversarial
(non-sweep) stream must trigger zero speculation and persist nothing
mispredicted; and under admission pressure speculation is always the
first thing sacrificed (real traffic never sheds while speculative
cells hold queue slots).
"""

import asyncio
import contextlib

import pytest

from repro.exec import (
    EventLog,
    ExecutionEngine,
    ResultCache,
    execute_cell,
    result_bytes,
)
from repro.serve import protocol
from repro.serve.client import AsyncServeClient
from repro.serve.memcache import ServeMemCache
from repro.serve.scheduler import (
    SPECULATIVE_PRIORITY,
    RequestScheduler,
    SpeculationAborted,
)
from repro.serve.server import ServeConfig, SimulationServer
from tests.serve._gate import EngineGate, wait_for_gate

#: The swept knob and its base value for every sweep in this file.
SWEEP_KNOB = "prefetch_window"
SWEEP_BASE = 8


def make_engine(tmp_path, jobs=1):
    return ExecutionEngine(jobs=jobs, cache=ResultCache(tmp_path / "cache"),
                           events=EventLog())


@contextlib.asynccontextmanager
async def serving(tmp_path, **config_kwargs):
    """A unix-socket server (predictor on by default); drains on exit."""
    config_kwargs.setdefault("batch_window_s", 0.01)
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         **config_kwargs)
    server = SimulationServer(make_engine(tmp_path), config)
    await server.start()
    try:
        yield server
    finally:
        await server.drain()


def sweep_kwargs(window, benchmark="MM"):
    return dict(benchmark=benchmark, engine="caps", scale="tiny",
                preset="test",
                overrides={"prefetch": {SWEEP_KNOB: window}})


def key_for(window, benchmark="MM"):
    """The canonical RunKey of one sweep cell (the client's view)."""
    return protocol.request_to_key(protocol.parse_request({
        "v": protocol.PROTOCOL_VERSION, "id": "t", "op": "simulate",
        "benchmark": benchmark, "engine": "caps", "scale": "tiny",
        "preset": "test",
        "overrides": {"prefetch": {SWEEP_KNOB: window}},
    }))


class TestSweepSpeculation:
    def test_stepped_sweep_is_answered_from_warm_tiers(self, tmp_path):
        """Acceptance: >=50% of post-warmup sweep requests come from a
        cache tier, byte-identical to serial runs."""
        steps = 10
        warmup = 3      # the default predict_min_run

        async def scenario():
            async with serving(tmp_path) as server:
                outcomes = []
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    for i in range(steps):
                        outcomes.append(await client.simulate(
                            **sweep_kwargs(SWEEP_BASE + i)))
                return outcomes, server.stats()

        outcomes, stats = asyncio.run(scenario())
        sources = [meta["source"] for _, meta in outcomes]
        post_warmup = sources[warmup:]
        warm = [s for s in post_warmup if s != "dispatch"]
        assert len(warm) >= len(post_warmup) / 2, sources
        # The warm answers really came from speculation, not luck.
        assert any(s.endswith("-speculative") for s in post_warmup), sources
        assert stats["speculation"]["admitted"] > 0
        assert stats["predictor"]["confirmed"] > 0
        assert stats["predictor"]["patterns"] >= 1
        # The predicted tier saw hits in the windowed series.
        assert stats["tiers"]["totals"]["predicted"]["hits"] > 0

        # Byte-identity: served results (speculative or not) match the
        # serial in-process execution of the same cell exactly.
        for i in (warmup, warmup + 1, steps - 1):
            serial = execute_cell(key_for(SWEEP_BASE + i))
            assert result_bytes(outcomes[i][0]) == result_bytes(serial), i

    def test_sweep_priority_class_also_speculates(self, tmp_path):
        """Bulk sweep clients (priority=sweep) get the same treatment."""
        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    sources = []
                    for i in range(6):
                        _, meta = await client.simulate(
                            priority="sweep", **sweep_kwargs(SWEEP_BASE + i))
                        sources.append(meta["source"])
                return sources, server.stats()

        sources, stats = asyncio.run(scenario())
        assert stats["speculation"]["admitted"] > 0
        assert any(s.endswith("-speculative") for s in sources), sources


class TestAdversarialStream:
    #: No two consecutive strides equal: never forms a min_run run.
    ADVERSARIAL_WINDOWS = (8, 20, 9, 30, 10, 40, 11)

    def test_non_sweep_stream_triggers_no_speculation(self, tmp_path):
        """Acceptance: zero mispredicted entries persisted to the disk
        cache, zero speculative dispatches, for a non-sweep stream."""
        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    sources = []
                    for window in self.ADVERSARIAL_WINDOWS:
                        _, meta = await client.simulate(
                            **sweep_kwargs(window))
                        sources.append(meta["source"])
                # Snapshot before drain so queue state is live.
                stats = server.stats()
                disk_entries = len(server.engine.cache)
                return sources, stats, disk_entries

        sources, stats, disk_entries = asyncio.run(scenario())
        assert not any(s.endswith("-speculative") for s in sources), sources
        assert stats["predictor"]["predictions"] == 0
        assert stats["predictor"]["launched"] == 0
        assert stats["speculation"]["admitted"] == 0
        assert stats["memcache"]["spec_puts"] == 0
        # Exactly the requested cells reached the persistent cache.
        assert disk_entries == len(set(self.ADVERSARIAL_WINDOWS))
        # Real traffic was never shed on speculation's account.
        assert stats["shed"] == 0

    def test_mispredicting_group_is_muted(self, tmp_path):
        """A sweep that breaks after predicting charges the group and
        eventually mutes it (the MISPRED_THRESH discipline)."""
        async def scenario():
            config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                                 batch_window_s=0.01)
            server = SimulationServer(make_engine(tmp_path), config)
            # Tight limits so the test stays fast and deterministic.
            server.predictor.ttl_observations = 2
            server.predictor.miner.mispredict_limit = 2
            await server.start()
            try:
                async with AsyncServeClient(config.socket_path) as client:
                    # Form a run (predicts 11, 12), then go elsewhere so
                    # the predictions expire unconfirmed.
                    for window in (8, 9, 10):
                        await client.simulate(**sweep_kwargs(window))
                    for window in (50, 31, 77, 46, 64):
                        await client.simulate(**sweep_kwargs(window))
                return server.stats()
            finally:
                await server.drain()

        stats = asyncio.run(scenario())
        assert stats["predictor"]["mispredicted"] >= 2
        assert stats["predictor"]["muted_groups"] == 1


class TestSpeculationShedsFirst:
    def test_queued_speculation_aborts_before_real_traffic_sheds(
            self, tmp_path):
        """Acceptance: under full load, speculation is sacrificed and
        real requests are admitted in its place (shed stays 0)."""
        async def scenario():
            engine = make_engine(tmp_path)
            gate = EngineGate(engine)
            memcache = ServeMemCache()
            scheduler = RequestScheduler(engine, memcache, queue_limit=2)
            await scheduler.start()
            real_b = asyncio.ensure_future(
                scheduler.submit(key_for(101), "interactive"))
            await wait_for_gate(gate.entered)   # real cell holds the engine
            spec = asyncio.ensure_future(
                scheduler.submit(key_for(100), SPECULATIVE_PRIORITY))
            await asyncio.sleep(0)      # speculative cell queued
            assert scheduler.queue_depth == 2   # queue now full (2/2)
            # A further real request must abort the speculation, not shed.
            real_c = asyncio.ensure_future(
                scheduler.submit(key_for(102), "interactive"))
            with pytest.raises(SpeculationAborted):
                await spec
            gate.open()
            results = await asyncio.gather(real_b, real_c)
            stats = scheduler.stats()
            await scheduler.drain()
            return results, stats, len(engine.cache)

        results, stats, disk_entries = asyncio.run(scenario())
        assert stats["shed"] == 0
        assert stats["speculation"]["aborted"] == 1
        assert stats["admitted"] == 2
        assert all(source == "dispatch" for _, source in results)
        # The aborted cell was never dispatched: nothing persisted.
        assert disk_entries == 2

    def test_aborted_speculation_persists_nothing(self, tmp_path):
        """The never-poison guarantee in isolation: abort-then-drain
        leaves no trace of the speculative cell in any cache tier."""
        async def scenario():
            engine = make_engine(tmp_path)
            gate = EngineGate(engine)
            scheduler = RequestScheduler(engine, ServeMemCache())
            await scheduler.start()
            real = asyncio.ensure_future(
                scheduler.submit(key_for(101), "interactive"))
            await wait_for_gate(gate.entered)   # real cell holds the engine
            spec = asyncio.ensure_future(
                scheduler.submit(key_for(100), SPECULATIVE_PRIORITY))
            await asyncio.sleep(0)      # queued behind the held batch
            drain = asyncio.ensure_future(scheduler.drain())
            with pytest.raises(SpeculationAborted):
                await spec              # drain aborts queued speculation
            gate.open()
            await asyncio.gather(real, drain)
            return engine.cache, scheduler.stats()

        cache, stats = asyncio.run(scenario())
        assert len(cache) == 1          # the real cell and nothing else
        assert cache.get(key_for(100)) is None
        assert stats["speculation"]["aborted"] == 1
        assert stats["memcache"]["spec_puts"] == 0


class TestPromotion:
    def test_real_request_promotes_queued_speculative_flight(self, tmp_path):
        """A demand request for a speculated cell late-merges into the
        flight at real priority (CAP's prefetch late-merge analogue)."""
        async def scenario():
            engine = make_engine(tmp_path)
            gate = EngineGate(engine)
            memcache = ServeMemCache()
            scheduler = RequestScheduler(engine, memcache)
            await scheduler.start()
            blocker = asyncio.ensure_future(
                scheduler.submit(key_for(101), "interactive"))
            await wait_for_gate(gate.entered)   # real cell holds the engine
            spec = asyncio.ensure_future(
                scheduler.submit(key_for(100), SPECULATIVE_PRIORITY))
            await asyncio.sleep(0)      # queued behind the held batch
            promoter = asyncio.ensure_future(
                scheduler.submit(key_for(100), "interactive"))
            await asyncio.sleep(0)      # joined and promoted the flight
            assert scheduler.spec.promoted == 1
            gate.open()
            result, source = await promoter
            spec_result, spec_source = await spec
            await blocker
            stats = scheduler.stats()
            await scheduler.drain()
            return result, source, spec_result, spec_source, stats, memcache

        result, source, spec_result, spec_source, stats, memcache = \
            asyncio.run(scenario())
        assert source == "dedup-speculative"
        assert spec_source == "dispatch"
        assert result_bytes(result) == result_bytes(spec_result)
        assert stats["speculation"]["promoted"] == 1
        # The promoted flight completed as real work (beside the cell
        # that held the engine) and its cache entry is not marked
        # speculative.
        assert stats["completed"] == 2
        assert stats["speculation"]["completed"] == 0
        assert memcache.spec_entries == 0

    def test_spec_warmed_memcache_hit_reports_speculative_source(
            self, tmp_path):
        """The first demand hit on a speculatively-landed entry says so."""
        async def scenario():
            engine = make_engine(tmp_path)
            memcache = ServeMemCache()
            scheduler = RequestScheduler(engine, memcache,
                                         batch_window_s=0.0)
            await scheduler.start()
            await scheduler.submit(key_for(100), SPECULATIVE_PRIORITY)
            first = await scheduler.submit(key_for(100), "interactive")
            second = await scheduler.submit(key_for(100), "interactive")
            stats = scheduler.stats()
            await scheduler.drain()
            return first, second, stats

        (_, first_source), (_, second_source), stats = asyncio.run(scenario())
        assert first_source == "memcache-speculative"
        assert second_source == "memcache"
        assert stats["speculation"]["warm_hits"] == 1
        assert stats["memcache"]["spec_hits"] == 1
