"""Resilient sweep tests: a re-run keeps finished cells, diagnostic
bundles, and corrupted-cache degradation."""

import json

import pytest

from repro.analysis import driver
from repro.cli import main
from repro.config import small_config
from repro.config import test_config as tiny_config
from repro.errors import ConfigError, FailureKind
from repro.exec import EventLog, ExecutionEngine, ResultCache, read_events
from repro.guard.faults import FaultPlan
from repro.workloads import Scale


@pytest.fixture
def engine_guard():
    """Restore the process-wide engine after each test."""
    saved = driver.get_engine()
    yield
    driver.set_engine(saved)


def _install(tmp_path, **kw):
    events = EventLog()
    engine = ExecutionEngine(cache=ResultCache(tmp_path), events=events,
                             **kw)
    driver.set_engine(engine)
    return events


def _sweep(tmp_path, benches=("SCN", "BFS"), engines=("none", "caps"),
           **cfg_overrides):
    return driver.run_sweep(
        list(benches), list(engines), config=tiny_config(**cfg_overrides),
        scale=Scale.TINY, cache_root=tmp_path)


def test_rerun_simulates_only_unfinished_cells(tmp_path, engine_guard,
                                               capsys):
    """A sweep killed half-way left two cells in the result cache and
    two never started.  Re-running it with the same ``--cache``
    simulates only the two unfinished cells."""
    cache = tmp_path / "cache"
    prep = ExecutionEngine(cache=ResultCache(cache))
    for engine in ("none", "caps"):
        prep.run(driver.make_key("SCN", engine, config=small_config(),
                                 scale=Scale.TINY))

    log = tmp_path / "events.jsonl"
    assert main(["sweep", "--benchmarks", "SCN,BFS", "--engines", "caps",
                 "--scale", "tiny", "--cache", str(cache),
                 "--events-log", str(log)]) == 0
    assert "geomean" in capsys.readouterr().out
    started = [e.cell for e in read_events(log) if e.kind == "started"]
    assert len(started) == 2
    assert all(cell.startswith("BFS/") for cell in started)


def test_resume_flag_is_gone(tmp_path, capsys, monkeypatch):
    """``--resume`` is gone: the result cache is the only record of a
    finished cell, so a re-run with the same ``--cache`` resumes."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--benchmarks", "SCN", "--scale", "tiny",
              "--resume"])
    assert err.value.code == 2
    assert "unrecognized arguments: --resume" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_cell_recorded_with_bundle_not_aborting(tmp_path,
                                                       engine_guard):
    """A permanently failing cell (cycle-limited) is recorded — with a
    diagnostic bundle — while the rest of the sweep completes."""
    _install(tmp_path)
    report = _sweep(tmp_path, max_cycles=40, hang_cycles=0,
                    engines=("none",))
    assert not report.ok
    assert set(report.failures) == {("SCN", "none"), ("BFS", "none")}
    for failure in report.failures.values():
        assert failure.kind is FailureKind.PERMANENT
    assert len(report.bundles) == 2
    bundle = json.loads(report.bundles[0].read_text())
    assert bundle["error"]["type"] == "IncompleteRunError"
    assert bundle["snapshot"]["cycle"] == 40
    assert bundle["config"]["max_cycles"] == 40
    assert bundle["events_tail"]


# ----------------------------------------------------- cache degradation
def test_truncated_cache_entry_is_miss_and_evicted(tmp_path):
    cache = ResultCache(tmp_path)
    engine = ExecutionEngine(cache=cache)
    key = driver.make_key("SCN", "none", config=tiny_config(),
                          scale=Scale.TINY)
    engine.run(key)
    path = cache.path_for(key)
    path.write_text(path.read_text()[:40])

    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.invalidated == 1
    assert not path.exists()
    # The engine degrades to re-simulation, then repopulates the entry.
    events = EventLog()
    engine2 = ExecutionEngine(cache=ResultCache(tmp_path), events=events)
    engine2.run(key)
    assert events.simulations() == 1
    assert ResultCache(tmp_path).get(key) is not None


@pytest.mark.parametrize("payload", ["42", '"oops"', '{"schema": 2}',
                                     '{"schema": 2, "key": [1]}'])
def test_malformed_cache_payloads_are_misses(tmp_path, payload):
    cache = ResultCache(tmp_path)
    engine = ExecutionEngine(cache=cache)
    key = driver.make_key("SCN", "none", config=tiny_config(),
                          scale=Scale.TINY)
    engine.run(key)
    cache.path_for(key).write_text(payload)
    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.invalidated == 1


def test_corrupt_cache_fault_plan_degrades_gracefully(tmp_path):
    """A plan that truncates every written entry: every lookup misses,
    every run still succeeds (chaos-as-a-miss)."""
    plan = FaultPlan(seed=2, corrupt_cache_rate=1.0)
    cache = ResultCache(tmp_path, faults=plan)
    engine = ExecutionEngine(cache=cache)
    key = driver.make_key("SCN", "none", config=tiny_config(),
                          scale=Scale.TINY)
    engine.run(key)
    assert ResultCache(tmp_path).get(key) is None  # entry was mangled
    engine2 = ExecutionEngine(cache=ResultCache(tmp_path))
    assert engine2.run(key).completed


# ----------------------------------------------------------- config errors
def test_config_cross_field_validation():
    with pytest.raises(ConfigError, match="ready_queue_size"):
        tiny_config(ready_queue_size=64)
    with pytest.raises(ConfigError, match="hang_cycles"):
        tiny_config(hang_cycles=-1)
    with pytest.raises(ConfigError, match="mshr"):
        from repro.config import CacheConfig
        CacheConfig(size_bytes=4096, line_bytes=128, assoc=4,
                    hit_latency=10, mshr_entries=0)
