"""Tests for the execution engine (repro.exec.runner).

The parallel tests use the real ``spawn`` pool with tiny workloads, so
they double as an end-to-end check that tasks and results pickle across
process boundaries.
"""

import time
from dataclasses import replace

import pytest

from repro.config import test_config as tiny_config
from repro.exec import (
    CellError,
    CellTimeout,
    EventLog,
    ExecutionEngine,
    ResultCache,
    RunKey,
)
from repro.exec.cache import result_bytes
from repro.exec.runner import call_with_timeout
from repro.prefetch.factory import default_scheduler_for
from repro.workloads import Scale


def make_key(bench="SCN", engine="none"):
    cfg = tiny_config().with_scheduler(default_scheduler_for(engine))
    return RunKey(bench, engine, Scale.TINY, cfg)


#: A cell whose worker raises (unknown benchmark) — the crash injector.
BAD_KEY = RunKey("__BOOM__", "none", Scale.TINY, tiny_config())

MATRIX = [make_key("SCN", "none"), make_key("SCN", "nlp"),
          make_key("BFS", "none")]


class TestSerial:
    def test_memo_identity(self):
        engine = ExecutionEngine()
        key = make_key()
        a = engine.run(key)
        b = engine.run(key)
        assert a is b
        assert engine.events.simulations() == 1
        assert engine.events.count("cache_hit") == 1

    def test_use_cache_false_bypasses_memo(self):
        engine = ExecutionEngine()
        key = make_key()
        a = engine.run(key)
        b = engine.run(key, use_cache=False)
        assert a is not b
        assert a == b  # deterministic simulator
        assert key in engine._memo  # uncached run did not pollute the memo
        assert engine._memo[key] is a

    def test_event_stream_order(self):
        engine = ExecutionEngine()
        engine.run(make_key())
        kinds = [e.kind for e in engine.events.events]
        assert kinds == ["queued", "started", "finished"]
        assert engine.events.events[-1].wall_s > 0

    def test_failure_emits_failed_and_raises(self):
        engine = ExecutionEngine()
        with pytest.raises(KeyError):
            engine.run(BAD_KEY)
        assert engine.events.count("failed") == 1

    def test_persistent_cache_shared_across_engines(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = ExecutionEngine(cache=cache)
        key = make_key()
        a = first.run(key)
        second = ExecutionEngine(cache=ResultCache(tmp_path))
        b = second.run(key)
        assert second.events.simulations() == 0
        assert second.events.cells("cache_hit") == [key.describe()]
        assert result_bytes(a) == result_bytes(b)

    def test_run_many_serial_dedupes(self):
        engine = ExecutionEngine()
        out = engine.run_many(MATRIX + MATRIX)
        assert len(out) == len(MATRIX)
        assert engine.events.simulations() == len(MATRIX)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionEngine(jobs=0)
        with pytest.raises(ValueError):
            ExecutionEngine(retries=-1)


class TestTimeout:
    def test_call_with_timeout_expires(self):
        with pytest.raises(CellTimeout):
            call_with_timeout(lambda: time.sleep(2.0), 0.2)

    def test_call_with_timeout_passes_result(self):
        assert call_with_timeout(lambda: 42, 5.0) == 42

    def test_no_timeout_runs_bare(self):
        assert call_with_timeout(lambda: 7, None) == 7


class TestParallel:
    def test_determinism_serial_vs_parallel(self):
        serial = ExecutionEngine(jobs=1).run_many(MATRIX)
        parallel = ExecutionEngine(jobs=2).run_many(MATRIX)
        for key in MATRIX:
            assert result_bytes(serial[key]) == result_bytes(parallel[key])

    def test_crash_is_retried_then_reported(self):
        events = EventLog()
        engine = ExecutionEngine(jobs=2, retries=1, events=events)
        with pytest.raises(CellError) as err:
            engine.run_many([BAD_KEY, make_key("SCN", "none")])
        assert err.value.key == BAD_KEY
        assert err.value.attempts == 2  # initial try + one retry
        assert events.count("retry") == 1
        assert events.count("failed") == 1
        assert "__BOOM__" in events.cells("failed")[0]

    def test_finished_wall_is_run_time_not_queue_wait(self):
        # Eight cells that simulate the same thing under distinct cache
        # identities (the no-prefetch baseline never reads the window).
        base = make_key("SCN", "none")
        cells = [replace(base, config=replace(base.config, prefetch=replace(
            base.config.prefetch, prefetch_window=100 + i)))
            for i in range(8)]
        engine = ExecutionEngine(jobs=2)
        began = time.perf_counter()
        engine.run_many(cells)
        batch_wall = time.perf_counter() - began
        finished = [e for e in engine.events.events if e.kind == "finished"]
        assert len(finished) == 8 and all(e.wall_s > 0 for e in finished)
        # Accounting identity, not a threshold: two workers cannot have
        # been running cells for longer than twice the batch took.
        assert engine.events.total_wall() <= engine.jobs * batch_wall

    def test_parallel_populates_memo_and_disk(self, tmp_path):
        events = EventLog()
        engine = ExecutionEngine(jobs=2, cache=ResultCache(tmp_path),
                                 events=events)
        engine.run_many(MATRIX)
        assert events.simulations() == len(MATRIX)
        # Warm pass: everything served from the memo, zero simulations.
        engine.run_many(MATRIX)
        assert events.simulations() == len(MATRIX)
        assert events.count("cache_hit") == len(MATRIX)
        assert len(ResultCache(tmp_path)) == len(MATRIX)


class TestOneBatchLoop:
    """``run_many`` is ``run_recorded`` plus a callback that raises, and
    the inline and pooled drivers route every attempt through one
    outcome routine: what a batch reports does not depend on ``jobs``."""

    @staticmethod
    def kinds_per_cell(events):
        out = {}
        for event in events.events:
            out.setdefault(event.cell, []).append((event.kind, event.attempt))
        return out

    @pytest.mark.parametrize("retries", (0, 2))
    def test_recorded_batch_is_identical_inline_and_pooled(self, retries):
        runs = {}
        for jobs in (1, 2):
            events = EventLog()
            engine = ExecutionEngine(jobs=jobs, retries=retries,
                                     events=events)
            results, failures = engine.run_recorded(MATRIX + [BAD_KEY])
            runs[jobs] = (
                {key: result_bytes(r) for key, r in results.items()},
                {key: (f.kind, f.attempts, repr(f.error))
                 for key, f in failures.items()},
                self.kinds_per_cell(events),
            )
        assert runs[1] == runs[2]
        results, failures, kinds = runs[1]
        assert sorted(results, key=RunKey.describe) == \
            sorted(MATRIX, key=RunKey.describe)
        assert list(failures) == [BAD_KEY]
        assert failures[BAD_KEY][1] == retries + 1
        # queued, started, [retry, started]*, finished | failed
        assert kinds[BAD_KEY.describe()] == (
            [("queued", 1)]
            + [(kind, n) for n in range(1, retries + 1)
               for kind in ("started", "retry")]
            + [("started", retries + 1), ("failed", retries + 1)])
        assert kinds[MATRIX[0].describe()] == [
            ("queued", 1), ("started", 1), ("finished", 1)]

    def test_bad_cell_raises_the_same_cell_error_at_every_jobs(self):
        raised = {}
        for jobs in (1, 2):
            engine = ExecutionEngine(jobs=jobs, retries=1)
            with pytest.raises(CellError) as err:
                engine.run_many([BAD_KEY, make_key("SCN", "none")])
            assert isinstance(err.value.cause, KeyError)
            assert err.value.__cause__ is err.value.cause
            raised[jobs] = (err.value.key, err.value.attempts,
                            str(err.value))
        assert raised[1] == raised[2]
        assert raised[1][:2] == (BAD_KEY, 2)

    def test_run_still_raises_the_raw_exception(self):
        engine = ExecutionEngine(retries=1)
        with pytest.raises(KeyError, match="__BOOM__"):
            engine.run(BAD_KEY)
        kinds = [e.kind for e in engine.events.events]
        assert kinds == ["queued", "started", "retry", "started", "failed"]

    def test_callback_exception_ends_the_batch(self):
        """Whatever ``on_complete`` raises leaves the loop as-is (the
        pooled driver cancels what is still queued on the way out)."""
        class Stop(Exception):
            pass

        def stop(key, result, failure):
            raise Stop(key.describe())

        for jobs in (1, 2):
            with pytest.raises(Stop):
                ExecutionEngine(jobs=jobs).run_recorded(MATRIX,
                                                        on_complete=stop)
