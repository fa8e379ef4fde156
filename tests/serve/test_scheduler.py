"""Tests for admission, work-conserving dispatch, single-flight and
priorities.

The scheduler only needs ``run_recorded``, ``events`` and ``cache``
from its engine, so these tests drive it with a gate-controlled fake
that can hold a dispatch open (to build queue depth deterministically)
or fail selected cells — no real process pools involved.
"""

import asyncio

import pytest

from repro.config import test_config as tiny_config
from repro.errors import (
    OverloadedError,
    RequestFailedError,
    ShuttingDownError,
)
from repro.exec import EventLog, RunKey, execute_cell, key_fingerprint
from repro.serve.memcache import ServeMemCache
from repro.serve.scheduler import RequestScheduler
from repro.workloads import Scale
from tests.serve._gate import Gate, wait_for_gate


@pytest.fixture(scope="module")
def canned_result():
    """One real SimResult every fake dispatch returns (serializable)."""
    return execute_cell(RunKey("SCN", "none", Scale.TINY, tiny_config()))


def cell(benchmark):
    return RunKey(benchmark, "none", Scale.TINY, tiny_config())


class FakeFailure:
    """Stands in for CellFailure: only describe() is consumed."""

    def __init__(self, key):
        self.key = key

    def describe(self):
        return f"{self.key.describe()}: injected test failure"


class FakeEngine(Gate):
    """run_recorded stub with an optional blocking gate per dispatch.

    Cells are reported through ``on_complete`` one by one, as the real
    engine does; ``hold_at`` places the gate before the cell of that
    index (0: before anything is reported), and a benchmark listed in
    ``vanish_benchmarks`` is neither reported nor returned.
    """

    def __init__(self, result, fail_benchmarks=(), vanish_benchmarks=()):
        super().__init__()
        self.events = EventLog()
        self.cache = None
        self.result = result
        self.fail_benchmarks = set(fail_benchmarks)
        self.vanish_benchmarks = set(vanish_benchmarks)
        self.batches = []
        self.hold_at = 0

    def run_recorded(self, keys, use_cache=True, on_complete=None):
        self.batches.append(list(keys))
        results, failures = {}, {}
        for index, key in enumerate(keys):
            if index == self.hold_at:
                self.hold()
            if key.benchmark in self.vanish_benchmarks:
                continue
            if key.benchmark in self.fail_benchmarks:
                failures[key] = FakeFailure(key)
            else:
                results[key] = self.result
            if on_complete is not None:
                on_complete(key, results.get(key), failures.get(key))
        return results, failures


def make_scheduler(engine, **kwargs):
    return RequestScheduler(engine, ServeMemCache(max_entries=64), **kwargs)


class TestValidation:
    def test_bad_knobs_rejected(self, canned_result):
        engine = FakeEngine(canned_result)
        memcache = ServeMemCache()
        with pytest.raises(ValueError):
            RequestScheduler(engine, memcache, queue_limit=0)
        with pytest.raises(ValueError):
            RequestScheduler(engine, memcache, batch_max=0)


class TestPaths:
    def test_dispatch_then_memcache_hit(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            scheduler = make_scheduler(engine)
            await scheduler.start()
            result, source = await scheduler.submit(cell("MM"))
            assert source == "dispatch"
            again, source2 = await scheduler.submit(cell("MM"))
            assert source2 == "memcache"
            assert again is result
            assert scheduler.memcache_hits == 1
            assert len(engine.batches) == 1
            await scheduler.drain()
        asyncio.run(scenario())

    def test_single_flight_dedup(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            engine.blocking = True
            scheduler = make_scheduler(engine)
            await scheduler.start()
            first = asyncio.ensure_future(scheduler.submit(cell("MM")))
            await wait_for_gate(engine.entered)
            # The cell is mid-dispatch: a second request joins its flight.
            second = asyncio.ensure_future(scheduler.submit(cell("MM")))
            await asyncio.sleep(0)
            assert scheduler.dedup_joined == 1
            engine.blocking = False
            engine.release.set()
            (r1, s1), (r2, s2) = await asyncio.gather(first, second)
            assert (s1, s2) == ("dispatch", "dedup")
            assert r1 is r2
            assert len(engine.batches) == 1  # one simulation for two callers
            assert scheduler.dedup_ratio > 0
            await scheduler.drain()
        asyncio.run(scenario())

    def test_queue_full_sheds_with_overloaded(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            engine.blocking = True
            scheduler = make_scheduler(engine, queue_limit=2, batch_max=1)
            await scheduler.start()
            first = asyncio.ensure_future(scheduler.submit(cell("MM")))
            await wait_for_gate(engine.entered)     # MM holds a dispatch
            second = asyncio.ensure_future(scheduler.submit(cell("BFS")))
            await asyncio.sleep(0)                  # BFS admitted, queued
            assert scheduler.queue_depth == 2
            with pytest.raises(OverloadedError):
                await scheduler.submit(cell("FFT"))
            assert scheduler.shed == 1
            # Shedding is not sticky: draining the backlog re-admits.
            engine.blocking = False
            engine.release.set()
            await asyncio.gather(first, second)
            _, source = await scheduler.submit(cell("FFT"))
            assert source == "dispatch"
            await scheduler.drain()
        asyncio.run(scenario())

    def test_interactive_dispatches_before_sweep(self, canned_result):
        """Cells admitted while a batch runs coalesce into one following
        batch, in priority order — no timer needed to batch them."""
        async def scenario():
            engine = FakeEngine(canned_result)
            engine.blocking = True
            scheduler = make_scheduler(engine, batch_max=8)
            await scheduler.start()
            blocker = asyncio.ensure_future(scheduler.submit(cell("MM")))
            await wait_for_gate(engine.entered)
            laggards = [
                asyncio.ensure_future(scheduler.submit(cell("BFS"), "sweep")),
                asyncio.ensure_future(scheduler.submit(cell("FFT"), "sweep")),
                asyncio.ensure_future(
                    scheduler.submit(cell("HST"), "interactive")),
            ]
            await asyncio.sleep(0)                  # all three enqueue
            engine.blocking = False
            engine.release.set()
            await asyncio.gather(blocker, *laggards)
            assert len(engine.batches) == 2
            order = [key.benchmark for key in engine.batches[1]]
            assert order == ["HST", "BFS", "FFT"]   # interactive first
            await scheduler.drain()
        asyncio.run(scenario())

    def test_batch_max_splits_batches(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            engine.blocking = True
            scheduler = make_scheduler(engine, batch_max=2)
            await scheduler.start()
            blocker = asyncio.ensure_future(scheduler.submit(cell("MM")))
            await wait_for_gate(engine.entered)
            others = [
                asyncio.ensure_future(scheduler.submit(cell(b)))
                for b in ("BFS", "FFT", "HST")
            ]
            await asyncio.sleep(0)
            engine.blocking = False
            engine.release.set()
            await asyncio.gather(blocker, *others)
            sizes = [len(batch) for batch in engine.batches]
            assert sizes[0] == 1
            assert all(size <= 2 for size in sizes)
            assert sum(sizes) == 4
            await scheduler.drain()
        asyncio.run(scenario())


class TestWorkConservingDispatch:
    def test_each_cell_resolves_as_it_finishes(self, canned_result):
        """The first cell of a two-cell batch is answered, and cached,
        while the engine is still held on the second."""
        async def scenario():
            engine = FakeEngine(canned_result)
            engine.blocking = True
            engine.hold_at = 1
            scheduler = make_scheduler(engine)
            first = asyncio.ensure_future(scheduler.submit(cell("MM")))
            second = asyncio.ensure_future(scheduler.submit(cell("BFS")))
            await asyncio.sleep(0)          # both enqueue
            await scheduler.start()
            await wait_for_gate(engine.entered)     # MM reported, BFS held
            result, source = await asyncio.wait_for(first, 5)
            assert (result, source) == (canned_result, "dispatch")
            assert key_fingerprint(cell("MM")) in scheduler.memcache
            assert scheduler.completed == 1
            assert scheduler.queue_depth == 1
            assert not second.done()
            engine.release.set()
            await asyncio.wait_for(second, 5)
            assert engine.batches == [[cell("MM"), cell("BFS")]]
            assert scheduler.latency.totals["dispatch"] == 2
            await scheduler.drain()
        asyncio.run(scenario())

    def test_unreported_cell_fails_its_waiter(self, canned_result):
        """The post-batch backstop: a cell the engine neither reports
        nor returns still resolves."""
        async def scenario():
            engine = FakeEngine(canned_result, vanish_benchmarks={"BFS"})
            scheduler = make_scheduler(engine)
            waiters = [asyncio.ensure_future(scheduler.submit(cell(b)))
                       for b in ("MM", "BFS")]
            await asyncio.sleep(0)          # both enqueue
            await scheduler.start()
            assert (await asyncio.wait_for(waiters[0], 5))[1] == "dispatch"
            with pytest.raises(RequestFailedError, match="vanished"):
                await asyncio.wait_for(waiters[1], 5)
            assert scheduler.queue_depth == 0
            await scheduler.drain()
        asyncio.run(scenario())

    def test_crash_mid_batch_fails_only_unreported_cells(
            self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            scheduler = make_scheduler(engine)

            def report_one_then_explode(keys, use_cache=True,
                                        on_complete=None):
                on_complete(keys[0], canned_result, None)
                raise RuntimeError("pool exploded")

            engine.run_recorded = report_one_then_explode
            waiters = [asyncio.ensure_future(scheduler.submit(cell(b)))
                       for b in ("MM", "BFS")]
            await asyncio.sleep(0)          # both enqueue
            await scheduler.start()
            result, _ = await asyncio.wait_for(waiters[0], 5)
            assert result is canned_result
            with pytest.raises(RequestFailedError, match="pool exploded"):
                await asyncio.wait_for(waiters[1], 5)
            assert (scheduler.completed, scheduler.failed) == (1, 1)
            assert scheduler.queue_depth == 0
            await scheduler.drain()
        asyncio.run(scenario())


class TestFailures:
    def test_failure_reaches_every_waiter(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result, fail_benchmarks={"BFS"})
            engine.blocking = True
            scheduler = make_scheduler(engine)
            await scheduler.start()
            first = asyncio.ensure_future(scheduler.submit(cell("BFS")))
            await wait_for_gate(engine.entered)
            second = asyncio.ensure_future(scheduler.submit(cell("BFS")))
            await asyncio.sleep(0)
            engine.blocking = False
            engine.release.set()
            for waiter in (first, second):
                with pytest.raises(RequestFailedError,
                                   match="injected test failure"):
                    await waiter
            assert scheduler.failed == 1    # one cell, two observers
            assert scheduler.completed == 0
            await scheduler.drain()
        asyncio.run(scenario())

    def test_failure_details_are_total_for_minimal_failures(self):
        """The resolver enriches wire errors from failure objects, but
        engines only owe failures a describe() — a failure carrying
        nothing else must still produce details, never an exception
        (which would strand every waiter of the batch)."""
        from repro.serve.scheduler import _failure_details

        class BareFailure:
            def describe(self):
                return "bare"

        details = _failure_details(BareFailure())
        assert details["error_type"] == "unknown"
        assert details["kind"] == "unknown"
        assert details["attempts"] == 0

    def test_engine_level_crash_fails_batch(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            scheduler = make_scheduler(engine)

            def explode(keys, use_cache=True, on_complete=None):
                raise RuntimeError("pool exploded")

            engine.run_recorded = explode
            await scheduler.start()
            with pytest.raises(RequestFailedError, match="pool exploded"):
                await scheduler.submit(cell("MM"))
            await scheduler.drain()
        asyncio.run(scenario())

    def test_failed_cells_are_not_cached(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result, fail_benchmarks={"BFS"})
            scheduler = make_scheduler(engine)
            await scheduler.start()
            with pytest.raises(RequestFailedError):
                await scheduler.submit(cell("BFS"))
            fingerprint = key_fingerprint(cell("BFS"))
            assert scheduler.memcache.get(fingerprint) is None
            # A retry re-dispatches instead of replaying the failure.
            engine.fail_benchmarks.clear()
            _, source = await scheduler.submit(cell("BFS"))
            assert source == "dispatch"
            await scheduler.drain()
        asyncio.run(scenario())


class TestDrain:
    def test_drain_rejects_new_work(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            scheduler = make_scheduler(engine)
            await scheduler.start()
            await scheduler.drain()
            assert scheduler.draining
            with pytest.raises(ShuttingDownError):
                await scheduler.submit(cell("MM"))
        asyncio.run(scenario())

    def test_drain_finishes_queued_work(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            scheduler = make_scheduler(engine)
            await scheduler.start()
            pending = asyncio.ensure_future(scheduler.submit(cell("MM")))
            await asyncio.sleep(0)      # let the submit enqueue first
            await scheduler.drain()
            result, _ = await pending
            assert result is canned_result
            assert scheduler.queue_depth == 0
        asyncio.run(scenario())


class TestStats:
    def test_stats_snapshot_shape(self, canned_result):
        async def scenario():
            engine = FakeEngine(canned_result)
            scheduler = make_scheduler(engine)
            await scheduler.start()
            await scheduler.submit(cell("MM"))
            await scheduler.submit(cell("MM"))      # memcache hit
            stats = scheduler.stats()
            assert stats["admitted"] == 1
            assert stats["memcache_hits"] == 1
            assert stats["batches"] == 1
            assert stats["completed"] == 1
            assert stats["queue_depth"] == 0
            assert stats["disk_cache"] is None      # fake engine: no disk
            assert stats["memcache"]["entries"] == 1
            assert set(stats["latency_s"]) >= {"queue_wait", "dispatch"}
            await scheduler.drain()
        asyncio.run(scenario())
