"""In-process probes of the ``exec`` layer, for the traced ``sweep-exec``
run: what one cache write, read, (de)serialisation, fingerprint, memo
hit, pool spawn and parallel batch cost on their own.

Each predicts a part of ``sweep-exec``: spawn, parallel speed-up and
``put`` move its cold invocation; ``get``, deserialise and fingerprint
move its warm ones.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List

from harness import NPROC, median

from repro.config import small_config, test_config
from repro.exec import (
    ExecutionEngine,
    ResultCache,
    RunKey,
    deserialize_result,
    execute_cell,
    key_fingerprint,
    serialize_result,
)
from repro.workloads import Scale

#: Cells of the parallel batch: equal work, distinct cache identity.
PARALLEL_CELLS = 8


def _distinct(key: RunKey, count: int) -> List[RunKey]:
    """``count`` cells that simulate exactly what ``key`` does under
    another fingerprint: the no-prefetch baseline never reads the
    prefetch window."""
    return [replace(key, config=replace(
        key.config, prefetch=replace(key.config.prefetch,
                                     prefetch_window=100 + i)))
        for i in range(count)]


def _median_of(ctx, name: str, fn: Callable[[], object], calls: int,
               scale: float) -> float:
    """Median wall of ``calls`` calls of ``fn`` under one span, times
    ``scale`` (1e3 for ms, 1e6 for us)."""
    walls = []
    with ctx.tracer.span(name, calls=calls):
        for _ in range(calls):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
    return median(walls) * scale


def _batch(ctx, name: str, keys: List[RunKey], jobs: int) -> float:
    engine = ExecutionEngine(jobs=jobs)
    with ctx.tracer.span(name, jobs=jobs, cells=len(keys)):
        t0 = time.perf_counter()
        results = engine.run_many(keys)
        wall = time.perf_counter() - t0
    ctx.ledger.check(len(results) == len(keys)
                     and all(r.completed for r in results.values()),
                     f"{name}: batch incomplete")
    return wall


def measure(ctx) -> Dict[str, float]:
    tiny = RunKey("SCN", "none", Scale.TINY, test_config())
    result = execute_cell(tiny)
    payload = serialize_result(result)
    cache = ResultCache(ctx.tmp / "probe-cache")
    calls = 20 if ctx.smoke else 200
    out = {
        "exec.cache.put_ms": _median_of(
            ctx, "exec.ResultCache.put", lambda: cache.put(tiny, result),
            calls // 4, 1e3),
        "exec.cache.get_ms": _median_of(
            ctx, "exec.ResultCache.get", lambda: cache.get(tiny),
            calls // 4, 1e3),
        "exec.cache.entry_bytes": cache.path_for(tiny).stat().st_size,
        "exec.serialize_ms": _median_of(
            ctx, "exec.serialize_result", lambda: serialize_result(result),
            calls, 1e3),
        "exec.deserialize_ms": _median_of(
            ctx, "exec.deserialize_result",
            lambda: deserialize_result(payload), calls, 1e3),
        "exec.key_fingerprint_us": _median_of(
            ctx, "exec.key_fingerprint", lambda: key_fingerprint(tiny),
            calls, 1e6),
    }
    ctx.ledger.check(cache.get(tiny) is not None,
                     "probe cache lost the entry it was given")
    engine = ExecutionEngine(jobs=1)
    engine.run(tiny)
    out["exec.memo_hit_us"] = _median_of(
        ctx, "exec.ExecutionEngine.run(memo)", lambda: engine.run(tiny),
        calls, 1e6)

    # Pool spawn: the same 2*nproc trivial cells through a pool and
    # inline; what is left over is what the pool itself costs.
    trivial = _distinct(tiny, 2 * NPROC)
    out["exec.spawn_s"] = (
        _batch(ctx, "exec.run_many(pool)", trivial, max(2, NPROC))
        - _batch(ctx, "exec.run_many(inline)", trivial, 1))

    equal = _distinct(
        RunKey("SCN", "none", Scale.TINY, test_config()) if ctx.smoke
        else RunKey("MM", "none", Scale.SMALL, small_config()),
        PARALLEL_CELLS)
    out["exec.parallel_speedup"] = (
        _batch(ctx, "exec.run_many(serial)", equal, 1)
        / _batch(ctx, "exec.run_many(parallel)", equal, max(2, NPROC)))
    return out
