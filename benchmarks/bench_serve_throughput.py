"""Serving-layer throughput micro-benchmark (infrastructure, not a
paper figure).

Two client mixes against one in-process :class:`SimulationServer`:

* **uniform** — closed-loop clients at 1 / 4 / 16 concurrency, each
  issuing requests drawn round-robin from a fixed pool of 4 distinct
  cells (TINY scale, test config).  With more clients than distinct
  cells, most requests must be answered by the single-flight dedup or
  the in-memory tier — the table records req/s, p50/p99 request
  latency and the dedup + memcache hit ratios that prove it.
* **sweep-shaped** — one client stepping a single config knob
  monotonically (the pattern the ``repro.serve.predict`` miner is
  built for).  The table reports the **predicted-hit ratio**: the
  fraction of post-warmup requests answered from speculatively-warmed
  state (``*-speculative`` sources), with the predictor's own
  admitted/confirmed counters alongside.
* **fleet scaling** — the same warm uniform mix against a supervised
  1-backend and ``FLEET_BACKENDS``-backend fleet behind the consistent
  hashing router (real spawned backend processes): req/s and request
  latency per fleet size, proving the router adds bounded overhead and
  an N-backend fleet keeps up with one server on a partitioned
  keyspace.

The first uniform level pays the 4 real simulations (they land in the
disk cache); later levels exercise the pure serving overhead.
"""

import asyncio
import time

from conftest import run_once

from repro.analysis.report import format_table
from repro.exec import EventLog, ExecutionEngine, ResultCache
from repro.obs import percentile
from repro.serve.client import AsyncServeClient
from repro.serve.fleet.router import RouterConfig, make_fleet
from repro.serve.server import ServeConfig, SimulationServer

BENCHES = ("SCN", "MM", "BPR", "BFS")
CONCURRENCIES = (1, 4, 16)
REQUESTS_PER_CLIENT = 8

#: Fleet sizes compared by the scaling benchmark (1 = router overhead
#: baseline; the larger size exercises ring partitioning).
FLEET_SIZES = (1, 3)
FLEET_BACKENDS = FLEET_SIZES[-1]
FLEET_CLIENTS = 4

#: Sweep-mix shape: one knob stepped monotonically over this many cells.
SWEEP_STEPS = 10
SWEEP_KNOB = "prefetch_window"
SWEEP_BASE = 8
#: Requests before the miner can have formed a run (default min_run).
SWEEP_WARMUP = 3


async def closed_loop(socket_path, client_index, latencies):
    """One client: connect, then issue its requests back to back."""
    async with AsyncServeClient(socket_path) as client:
        for i in range(REQUESTS_PER_CLIENT):
            benchmark = BENCHES[(client_index + i) % len(BENCHES)]
            t0 = time.perf_counter()
            await client.simulate(benchmark=benchmark, engine="caps",
                                  scale="tiny", preset="test")
            latencies.append(time.perf_counter() - t0)


async def sweep_loop(socket_path, latencies, sources):
    """One sweep client stepping SWEEP_KNOB monotonically."""
    async with AsyncServeClient(socket_path) as client:
        for i in range(SWEEP_STEPS):
            t0 = time.perf_counter()
            _, meta = await client.simulate(
                benchmark="MM", engine="caps", scale="tiny", preset="test",
                overrides={"prefetch": {SWEEP_KNOB: SWEEP_BASE + i}},
            )
            latencies.append(time.perf_counter() - t0)
            sources.append(meta["source"])


async def drive_sweep(tmp_path):
    """The sweep-shaped mix: returns one row + the predictor stats."""
    engine = ExecutionEngine(jobs=1,
                             cache=ResultCache(tmp_path / "sweep-cache"),
                             events=EventLog())
    config = ServeConfig(socket_path=str(tmp_path / "bench-sweep.sock"))
    server = SimulationServer(engine, config)
    await server.start()
    try:
        latencies, sources = [], []
        t0 = time.perf_counter()
        await sweep_loop(config.socket_path, latencies, sources)
        wall = time.perf_counter() - t0
    finally:
        await server.drain()
    stats = server.stats()
    post_warmup = sources[SWEEP_WARMUP:]
    predicted = [s for s in post_warmup if s.endswith("-speculative")]
    predicted_ratio = len(predicted) / len(post_warmup)
    row = (
        "sweep",
        SWEEP_STEPS,
        f"{SWEEP_STEPS / wall:.0f}",
        f"{percentile(latencies, 0.50) * 1e3:.1f}",
        f"{percentile(latencies, 0.99) * 1e3:.1f}",
        f"{predicted_ratio:.2f}",
        f"{stats['speculation']['admitted']}",
        f"{stats['predictor']['confirmed']}",
    )
    return row, predicted_ratio, stats


async def drive(tmp_path):
    engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path / "cache"),
                             events=EventLog())
    rows = []
    for concurrency in CONCURRENCIES:
        config = ServeConfig(
            socket_path=str(tmp_path / f"bench-{concurrency}.sock"))
        server = SimulationServer(engine, config)
        await server.start()
        try:
            latencies = []
            t0 = time.perf_counter()
            await asyncio.gather(*(
                closed_loop(config.socket_path, i, latencies)
                for i in range(concurrency)
            ))
            wall = time.perf_counter() - t0
        finally:
            await server.drain()
        stats = server.stats()
        total = concurrency * REQUESTS_PER_CLIENT
        assert len(latencies) == total
        rows.append((
            concurrency,
            total,
            f"{total / wall:.0f}",
            f"{percentile(latencies, 0.50) * 1e3:.1f}",
            f"{percentile(latencies, 0.99) * 1e3:.1f}",
            f"{stats['dedup_ratio']:.2f}",
            f"{stats['memcache']['hit_ratio']:.2f}",
        ))
    return rows


async def drive_fleet(tmp_path):
    """Warm uniform mix against spawned fleets of each FLEET_SIZES."""
    rows = []
    for backends in FLEET_SIZES:
        runtime = tmp_path / f"fleet-{backends}"
        supervisor, router = make_fleet(
            backends, str(runtime),
            cache_dir=str(runtime / "cache"),
            router_config=RouterConfig(probe_interval_s=0.2))
        supervisor.start()
        await router.start()
        try:
            assert await router.wait_backends_ready(timeout_s=30)
            # Warm round: pay the real simulations once per fleet, so
            # the measured phase is pure serving + routing overhead.
            async with AsyncServeClient(router.config.socket_path) as c:
                for bench in BENCHES:
                    await c.simulate(benchmark=bench, engine="caps",
                                     scale="tiny", preset="test")
            latencies = []
            t0 = time.perf_counter()
            await asyncio.gather(*(
                closed_loop(router.config.socket_path, i, latencies)
                for i in range(FLEET_CLIENTS)
            ))
            wall = time.perf_counter() - t0
            stats = router.stats()
        finally:
            await router.drain()
            await asyncio.get_running_loop().run_in_executor(
                None, supervisor.drain)
        total = FLEET_CLIENTS * REQUESTS_PER_CLIENT
        assert len(latencies) == total
        rows.append((
            backends,
            total,
            f"{total / wall:.0f}",
            f"{percentile(latencies, 0.50) * 1e3:.1f}",
            f"{percentile(latencies, 0.99) * 1e3:.1f}",
            stats["router"]["failovers"],
        ))
    return rows


def test_serve_throughput(benchmark, emit, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("serve-bench")

    rows = run_once(benchmark, lambda: asyncio.run(drive(tmp_path)))
    emit(
        "serve_throughput",
        format_table(
            ["clients", "requests", "req/s", "p50 [ms]", "p99 [ms]",
             "dedup", "memcache hit"],
            rows,
            title=f"Serving throughput over {len(BENCHES)} TINY cells "
                  f"({REQUESTS_PER_CLIENT} requests/client, closed loop)",
        ),
    )
    # The warm levels must be pure cache: with 4 distinct cells and a
    # shared engine, at most the first level's 4 dispatches simulate.
    warm = rows[-1]
    assert float(warm[6]) > 0, "warm level never hit the memcache"


def test_serve_sweep_prediction(benchmark, emit, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("serve-bench-sweep")

    row, predicted_ratio, stats = run_once(
        benchmark, lambda: asyncio.run(drive_sweep(tmp_path)))
    emit(
        "serve_sweep_prediction",
        format_table(
            ["mix", "requests", "req/s", "p50 [ms]", "p99 [ms]",
             "predicted hit", "spec admitted", "confirmed"],
            [row],
            title=f"Sweep-shaped mix: {SWEEP_KNOB} stepped over "
                  f"{SWEEP_STEPS} cells (predicted-hit ratio is the "
                  f"fraction of post-warmup answers from speculation)",
        ),
    )
    # A clean stepped sweep is exactly what the miner exists for: at
    # least half the post-warmup requests must land on warmed state.
    assert predicted_ratio >= 0.5, row
    assert stats["predictor"]["confirmed"] > 0


def test_fleet_scaling(benchmark, emit, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("serve-bench-fleet")

    rows = run_once(benchmark, lambda: asyncio.run(drive_fleet(tmp_path)))
    emit(
        "fleet_scaling",
        format_table(
            ["backends", "requests", "req/s", "p50 [ms]", "p99 [ms]",
             "failovers"],
            rows,
            title=f"Fleet scaling: warm uniform mix ({FLEET_CLIENTS} "
                  f"clients) through the consistent-hashing router, "
                  f"1 vs {FLEET_BACKENDS} spawned backends",
        ),
    )
    # A healthy fleet run never needs failover, and the large fleet must
    # not collapse: its warm throughput stays within 5x of the single
    # backend (spawn/IPC jitter makes a tighter bound flaky).
    assert all(row[5] == 0 for row in rows), rows
    small, large = float(rows[0][2]), float(rows[-1][2])
    assert large > small / 5, rows
