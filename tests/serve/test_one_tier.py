"""The one in-memory result tier, end to end through a real server.

A server bounds its engine's memo by ``memcache_entries`` /
``memcache_bytes`` and answers every success — from the memo, by
joining a flight, or by dispatch — with the envelope spliced around the
entry's stored wire bytes.  These tests hold the bound to a count of
live :class:`SimResult` objects, every answer to the bytes
``protocol.encode`` would have produced, and a memcache hit to doing no
serialisation.  No clock decides a verdict: a held engine batch is a
gate, not a sleep, and a timeout only ends a hang.
"""

import asyncio
import contextlib
import gc
import json
import sys

from repro.exec import (
    EventLog,
    ExecutionEngine,
    ResultCache,
    deserialize_result,
    execute_cell,
    result_bytes,
    serialize_result,
)
from repro.result import SimResult
from repro.serve import protocol
from repro.serve.server import ServeConfig, SimulationServer
from tests.serve._gate import EngineGate, wait_for_gate


def payload(req_id, benchmark="CP", engine="none", threshold=None):
    """A tiny cell; each ``threshold`` names a distinct one."""
    overrides = (None if threshold is None else
                 {"prefetch": {"mispredict_threshold": threshold}})
    return protocol.simulate_payload(req_id, benchmark, engine=engine,
                                     scale="tiny", preset="test",
                                     overrides=overrides)


class Connection:
    """One raw client connection: a request out, its wire line back."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    async def ask(self, body) -> bytes:
        self.writer.write(protocol.encode(body))
        line = await asyncio.wait_for(self.reader.readline(), 30)
        assert line, "connection closed before a response arrived"
        return line


@contextlib.asynccontextmanager
async def serving(tmp_path, **config):
    """A started server with a disk tier, and a way to open connections."""
    engine = ExecutionEngine(cache=ResultCache(tmp_path / "cache"),
                             events=EventLog())
    server = SimulationServer(engine, ServeConfig(
        socket_path=str(tmp_path / "serve.sock"), **config))
    await server.start()
    writers = []

    async def connect():
        reader, writer = await asyncio.open_unix_connection(
            server.config.socket_path, limit=protocol.STREAM_LIMIT)
        writers.append(writer)
        return Connection(reader, writer)

    try:
        yield server, connect
    finally:
        for writer in writers:
            writer.close()
        await server.drain()


def run(scenario):
    """Run ``scenario()`` to completion, or fail it after a minute."""
    return asyncio.run(asyncio.wait_for(scenario(), 60))


def live_results() -> int:
    gc.collect()
    return sum(isinstance(obj, SimResult) for obj in gc.get_objects())


class TestTheBoundIsReal:
    def test_fifty_cells_leave_at_most_four_results(self, tmp_path):
        async def scenario():
            before = live_results()
            async with serving(tmp_path, memcache_entries=4) as (
                    server, connect):
                conn = await connect()
                for n in range(50):
                    answer = json.loads(
                        await conn.ask(payload(f"c{n}", threshold=1000 + n)))
                    assert answer["meta"]["source"] == "dispatch"
                del answer      # the test keeps no result of its own
                assert live_results() - before <= 4
                stats = server.stats()
                assert stats["memcache"]["entries"] <= 4
                assert stats["memcache"]["evictions"] == 46
                assert protocol.validate_stats(stats) == []
                # The first cell was evicted: asking again dispatches,
                # and the engine finds it on disk, not in a memo.
                again = json.loads(await conn.ask(payload("a", threshold=1000)))
                assert again["meta"]["source"] == "dispatch"
                events = server.engine.events
                assert [e.detail for e in events.events
                        if e.kind == "cache_hit"] == ["disk"]
                assert events.simulations() == 50
        run(scenario)


class TestWireIdentity:
    def test_each_tier_answers_the_envelope_of_the_direct_result(
            self, tmp_path):
        """A dispatch, a dedup and a memcache answer of a co-run cell
        (whose ``extra`` carries per-kernel records), byte for byte."""
        corun = payload("dispatch", "MRQ+MM", "caps")

        async def scenario():
            async with serving(tmp_path) as (server, connect):
                gate = EngineGate(server.engine)
                leader, follower = await connect(), await connect()
                first = asyncio.ensure_future(leader.ask(corun))
                await wait_for_gate(gate.entered)
                second = asyncio.ensure_future(
                    follower.ask(dict(corun, id="dedup")))
                while server.scheduler.dedup_joined == 0:
                    await asyncio.sleep(0)
                gate.open()
                lines = [await first, await second]
                lines.append(await leader.ask(dict(corun, id="memcache")))
                return lines

        lines = run(scenario)
        direct = execute_cell(protocol.request_to_key(
            protocol.parse_request(corun)))
        assert direct.extra["kernels"]
        for line in lines:
            answer = json.loads(line)
            meta = answer["meta"]
            assert meta["source"] == answer["id"]
            assert line == protocol.encode(protocol.ok_response(
                answer["id"], serialize_result(direct), meta))
            assert (result_bytes(deserialize_result(answer["result"]))
                    == result_bytes(direct))


def count_calls(monkeypatch, *names):
    """Count calls of the named functions through every ``repro``
    module that binds them, however it imported them."""
    calls = dict.fromkeys(names, 0)
    modules = [m for name, m in list(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for module in modules:
        for name in names:
            original = vars(module).get(name)
            if getattr(original, "__name__", None) != name:
                continue

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


class TestHitPath:
    def test_a_memcache_hit_serialises_nothing(self, tmp_path, monkeypatch):
        async def scenario():
            async with serving(tmp_path) as (server, connect):
                conn = await connect()
                await conn.ask(payload("cold"))
                calls = count_calls(monkeypatch, "serialize_result",
                                    "result_bytes", "key_fingerprint")
                hit = json.loads(await conn.ask(payload("hit")))
                assert hit["meta"]["source"] == "memcache"
                on_hit = dict(calls)
                # The counters see a dispatch's one serialisation.
                await conn.ask(payload("fresh", threshold=7))
                return on_hit, calls

        on_hit, after_dispatch = run(scenario)
        assert on_hit["serialize_result"] == 0
        assert on_hit["result_bytes"] == 0
        assert on_hit["key_fingerprint"] <= 1
        assert after_dispatch["result_bytes"] >= 1
        assert after_dispatch["key_fingerprint"] >= 1
