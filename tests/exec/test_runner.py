"""Tests for the execution engine (repro.exec.runner).

The parallel tests use a real process pool with tiny workloads, so they
double as an end-to-end check that tasks and results pickle across
process boundaries.  The pool forks when the batch starts on the main
thread of a process with no other thread and spawns otherwise; since
earlier tests (serve's) may leave threads alive in this process, which
method those tests get depends on suite order.  ``TestStartMethod``
pins both methods in a fresh interpreter, where the setting is known.
"""

import json
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import repro
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


#: Run in a fresh interpreter by ``TestStartMethod``: a serial batch
#: first (a fresh serial run, which also advances the module-level uid
#: counters a fork then inherits), the same batch pooled from the main
#: thread, and again from a ``threading.Thread`` as ``repro serve``
#: launches it.  ``_start_method`` is wrapped to record what each pool
#: was built with.
PROBE = """
import hashlib, json, multiprocessing, threading
import repro.mem.request, repro.sim.warp
from repro.exec import ExecutionEngine, result_bytes, runner
from tests.exec.test_runner import MATRIX

chosen = []
select = runner._start_method
runner._start_method = lambda: chosen.append(select()) or chosen[-1]

def batch(jobs):
    chosen.clear()
    threads = threading.active_count()
    results = ExecutionEngine(jobs=jobs).run_many(MATRIX)
    return {"threads": threads, "methods": list(chosen),
            "results": {key.describe(): hashlib.sha256(
                result_bytes(result)).hexdigest()
                for key, result in results.items()},
            "live_workers": len(multiprocessing.active_children())}

facts = {"serial": batch(1)}
facts["uids_at_fork"] = [next(repro.sim.warp._warp_uid),
                         next(repro.mem.request._uid)]
facts["main"] = batch(2)
worker = threading.Thread(target=lambda: facts.update(thread=batch(2)))
worker.start()
worker.join()
print(json.dumps(facts))
"""


#: Run in a fresh interpreter by ``TestStartMethod``: a process that has
#: imported the runner but not the simulator batches from its main
#: thread; each forked worker records whether ``repro.sim.gpu`` was
#: already loaded when its first cell began.
PREIMPORT_PROBE = """
import json, sys
from repro.exec import ExecutionEngine, runner
from tests.exec.test_runner import MATRIX

chosen = []
select = runner._start_method
runner._start_method = lambda: chosen.append(select()) or chosen[-1]
execute = runner.execute_cell

def probed(key, faults=None):
    loaded = "repro.sim.gpu" in sys.modules
    result = execute(key, faults)
    result.extra["sim_loaded_at_start"] = loaded
    return result

runner.execute_cell = probed
before = "repro.sim.gpu" in sys.modules
results = ExecutionEngine(jobs=2).run_many(MATRIX)
print(json.dumps({"methods": chosen, "parent_before": before, "workers": [
    r.extra["sim_loaded_at_start"] for r in results.values()]}))
"""


def run_probe(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src.parent,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartMethod:
    """Which start method a pooled batch gets, and that neither method
    changes what the batch returns or leaves running."""

    @pytest.fixture(scope="class")
    def probe(self):
        return run_probe(PROBE)

    def test_main_thread_with_no_other_thread_forks(self, probe):
        assert probe["main"]["threads"] == 1
        assert probe["main"]["methods"] == ["fork"]

    def test_batch_from_a_thread_spawns_as_serve_does(self, probe):
        assert probe["thread"]["threads"] == 2
        assert probe["thread"]["methods"] == ["spawn"]

    @pytest.mark.parametrize("caller", ["main", "thread"])
    def test_pooled_results_are_byte_identical_to_serial(self, probe,
                                                         caller):
        assert len(probe["serial"]["results"]) == len(MATRIX)
        assert probe[caller]["results"] == probe["serial"]["results"]

    def test_forked_workers_inherit_no_result_state(self, probe):
        """The fork parent had simulated cells inline, so its warp and
        request uid counters were well past zero; the workers' results
        still equal the fresh serial run's."""
        assert min(probe["uids_at_fork"]) > 0
        assert probe["main"]["methods"] == ["fork"]
        assert probe["main"]["results"] == probe["serial"]["results"]

    @pytest.mark.parametrize("caller", ["main", "thread"])
    def test_no_worker_outlives_the_batch(self, probe, caller):
        assert probe[caller]["live_workers"] == 0

    def test_forked_workers_start_with_the_simulator_loaded(self):
        """Importing the runner loads no simulator; a fork pool imports
        it in the parent first, so no worker compiles it on its own."""
        facts = run_probe(PREIMPORT_PROBE)
        assert facts["methods"] == ["fork"]
        assert facts["parent_before"] is False
        assert facts["workers"] == [True] * len(MATRIX)
