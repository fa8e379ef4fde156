"""Probes for the traced ``serve-mix`` run: what the wire protocol costs
per message, and what a router in front of the backends would add.

The fleet numbers are informational.  The router is not in the path of
``serve-mix``; they are the before of an ablation of it, and say what
``p50_ms`` would gain or lose if it were.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Sequence, Tuple

from harness import NPROC, median, short_path

from repro.exec import execute_cell, serialize_result
from repro.serve import protocol
from repro.serve.client import AsyncServeClient
from repro.serve.fleet.router import make_fleet

import serve_mix

#: Warm requests per fleet size (one closed-loop client).
FLEET_REQUESTS = 200


def _protocol_probes(ctx, hot: Sequence[Tuple[str, str]]) -> Dict[str, float]:
    payload = serve_mix.simulate_payload(
        (hot[0][0], hot[0][1], {"prefetch": {"prefetch_window": 9}}))
    request = protocol.parse_request(payload)
    response = protocol.ok_response(
        "perfbench",
        serialize_result(execute_cell(protocol.request_to_key(request))),
        meta={"source": "memcache"})
    calls = 100 if ctx.smoke else 2000

    def per_call_us(name, fn) -> float:
        with ctx.tracer.span(name, calls=calls):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            return (time.perf_counter() - t0) / calls * 1e6

    return {
        "serve.protocol.parse_us": per_call_us(
            "serve.protocol.parse_request",
            lambda: protocol.parse_request(payload)),
        "serve.protocol.encode_us": per_call_us(
            "serve.protocol.encode", lambda: protocol.encode(response)),
    }


async def _warm_loop(socket: str, hot, requests: int) -> Tuple[float, float]:
    """``(requests/s, p50 s)`` of one client cycling the warm hot set."""
    async with AsyncServeClient(socket) as client:
        for benchmark, engine in hot:           # pay the simulations once
            await client.simulate(benchmark, engine, scale="tiny",
                                  preset="test")
        latencies = []
        started = time.perf_counter()
        for i in range(requests):
            benchmark, engine = hot[i % len(hot)]
            t0 = time.perf_counter()
            await client.simulate(benchmark, engine, scale="tiny",
                                  preset="test")
            latencies.append(time.perf_counter() - t0)
        return requests / (time.perf_counter() - started), median(latencies)


async def _fleet(ctx, backends: int, hot, requests: int
                 ) -> Tuple[float, float, float]:
    """``(ready s, requests/s, p50 s)`` through a router over
    ``backends`` spawned backends."""
    runtime = short_path(ctx.tmp / f"fleet-{backends}")
    started = time.perf_counter()
    with ctx.tracer.span("serve.fleet", backends=backends):
        supervisor, router = make_fleet(backends, runtime,
                                        cache_dir=f"{runtime}/cache")
        supervisor.start()
        try:
            await router.start()
            try:
                ready = await router.wait_backends_ready(timeout_s=30)
                ctx.ledger.check(
                    ready, f"fleet of {backends} backend(s) never ready")
                ready_s = time.perf_counter() - started
                rate, p50 = await _warm_loop(router.config.socket_path, hot,
                                             requests)
            finally:
                await router.drain()
        finally:
            await asyncio.get_running_loop().run_in_executor(
                None, supervisor.drain)
    return ready_s, rate, p50


async def _fleet_probes(ctx, hot) -> Dict[str, float]:
    requests = 20 if ctx.smoke else FLEET_REQUESTS
    direct = await serve_mix.start_warm(ctx, "serve-direct")
    try:
        _, direct_p50 = await _warm_loop(direct.socket, hot, requests)
    finally:
        serve_mix.teardown(ctx, direct)
    ready_s, rate_1, hop_p50 = await _fleet(ctx, 1, hot, requests)
    many = max(2, NPROC)
    _, rate_n, _ = await _fleet(ctx, many, hot, requests)
    return {
        "fleet.ready_s": ready_s,
        "fleet.router_hop_ms": (hop_p50 - direct_p50) * 1e3,
        "fleet.warm_req_per_s.1": rate_1,
        "fleet.warm_req_per_s.n": rate_n,
        "fleet.scaling_ratio": rate_n / rate_1,
    }


def measure(ctx, hot) -> Dict[str, float]:
    out = _protocol_probes(ctx, hot)
    out.update(asyncio.run(_fleet_probes(ctx, hot)))
    return out
