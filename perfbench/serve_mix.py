"""The serve tier under a mixed request stream: ``python -m repro serve``
at its product defaults in its own process, two closed-loop connections.

The stream is made of rounds.  In a round both clients send one request
and wait for both replies.  Three rounds in four are *hot*: each client
draws, Zipf-like, from eight cells warmed in set-up (memcache).  The
fourth is a *sweep* round: both clients ask for the same next cell of a
shared sequence of ten-step ``prefetch.prefetch_window`` sweeps over
seeded (benchmark, engine) pairs, so one of them dispatches through
``exec`` into ``sim`` (or finds the predictor's speculative flight) and
the other joins it in flight (dedup).  Lock-step rounds make the count
of answers from each tier repeat exactly for a seed.

This is the one workload where ``serve/`` does most of the work: the
cells are tiny (15 to 30 ms of simulation behind a 20 ms batch window).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    ServerStartError,
    Tracer,
    child_env,
    median,
    percentile,
    run_child,
    short_path,
    summary,
    tail_percentile,
)

from repro.exec import execute_cell, result_bytes
from repro.serve import protocol
from repro.serve.client import AsyncServeClient

CLIENTS = 2
ROUNDS_PER_BLOCK = 100
SWEEP_ROUNDS_PER_BLOCK = 25
SWEEP_LENGTH = 10

#: Blocks every run makes, and over which the per-tier counts are
#: taken: a fixed stretch of the trace, so the counts repeat exactly.
FIXED_BLOCKS = 3

#: Hot set: no prefetch engine, so that no sweep shares a predictor
#: group (benchmark, engine) with a hot cell.
HOT_CELLS = tuple((b, "none") for b in
                  ("CP", "SCN", "JC1", "LPS", "HSP", "BPR", "MM", "CNV"))
HOT_WEIGHTS = tuple(1.0 / (rank + 1) for rank in range(len(HOT_CELLS)))

#: Sweeps draw from benchmarks whose tiny cell costs 15 to 30 ms, so
#: that the cost of a fresh cell depends little on the seed.
SWEEP_BENCHMARKS = ("SCN", "JC1", "LPS", "HSP", "BPR", "MM")
SWEEP_ENGINES = ("intra", "inter", "nlp", "caps")

#: Served cells compared byte for byte with a direct ``execute_cell``.
VERIFIED_CELLS = 16

READY_DEADLINE_S = 30.0

Spec = Tuple[str, str, Optional[Dict[str, Any]]]


# ---------------------------------------------------------------- trace
def sweep_cell(seed: int, index: int) -> Spec:
    """Cell ``index`` of the shared sweep sequence.  Sweep ``k`` steps
    the prefetch window from 8 under its own mispredict threshold, so
    no two sweeps of a run ever name the same cell."""
    sweep, step = divmod(index, SWEEP_LENGTH)
    rng = random.Random(f"{seed}/sweep/{sweep}")
    return (rng.choice(SWEEP_BENCHMARKS), rng.choice(SWEEP_ENGINES),
            {"prefetch": {"prefetch_window": 8 + step,
                          "mispredict_threshold": 1000 + sweep}})


def block_rounds(seed: int, block: int,
                 rounds: int = ROUNDS_PER_BLOCK,
                 sweep_rounds: int = SWEEP_ROUNDS_PER_BLOCK
                 ) -> List[Tuple[Spec, ...]]:
    """The rounds of one block: exactly ``sweep_rounds`` sweep rounds at
    seeded positions, hot rounds elsewhere.  A function of the seed and
    the block index alone, so a run can make as many blocks as its time
    allows and two runs of a seed make the same ones."""
    rng = random.Random(f"{seed}/block/{block}")
    sweep_at = set(rng.sample(range(rounds), sweep_rounds))
    next_sweep = block * sweep_rounds
    out = []
    for position in range(rounds):
        if position in sweep_at:
            out.append((sweep_cell(seed, next_sweep),) * CLIENTS)
            next_sweep += 1
        else:
            out.append(tuple(
                rng.choices(HOT_CELLS, HOT_WEIGHTS)[0] + (None,)
                for _ in range(CLIENTS)))
    return out


def simulate_payload(spec: Spec) -> Dict[str, Any]:
    benchmark, engine, overrides = spec
    payload = {"v": protocol.PROTOCOL_VERSION, "id": "perfbench",
               "op": "simulate", "benchmark": benchmark, "engine": engine,
               "scale": "tiny", "preset": "test"}
    if overrides:
        payload["overrides"] = overrides
    return payload


# --------------------------------------------------------------- server
class Server:
    """One ``python -m repro serve`` process under the run's temp root."""

    def __init__(self, ctx, name: str):
        self.root: Path = ctx.tmp / name
        self.root.mkdir()
        self.socket = short_path(self.root / "serve.sock")
        self._stderr = open(self.root / "stderr.log", "w+")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--cache", str(self.root / "cache")],
            env=child_env(ctx.tmp), stdout=subprocess.DEVNULL,
            stderr=self._stderr)

    def stderr_tail(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read()[-600:]

    async def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_DEADLINE_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            if os.path.exists(self.socket):
                try:
                    async with AsyncServeClient(self.socket) as client:
                        if await client.ping():
                            return
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    pass
            await asyncio.sleep(0.01)
        raise ServerStartError(
            f"repro serve not ready after {READY_DEADLINE_S}s "
            f"(exit code {self.process.poll()}): {self.stderr_tail()}")

    def stop(self) -> Tuple[Optional[int], str]:
        """SIGTERM and reap, on every path; returns the exit code and
        the tail of what the server wrote to stderr."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(20)
                except subprocess.TimeoutExpired:
                    self.process.kill()
            return self.process.wait(), self.stderr_tail()
        finally:
            self._stderr.close()


async def start_warm(ctx, name: str) -> Server:
    server = Server(ctx, name)
    try:
        await server.wait_ready()
        async with AsyncServeClient(server.socket) as client:
            for benchmark, engine in HOT_CELLS:
                await client.simulate(benchmark, engine, scale="tiny",
                                      preset="test")
    except BaseException:
        server.stop()
        raise
    return server


def setup(ctx) -> Server:
    """Spawn the server, wait until it answers, warm the hot set."""
    return asyncio.run(start_warm(ctx, f"serve-{time.monotonic_ns()}"))


def teardown(ctx, server: Server) -> None:
    code, stderr = server.stop()
    ctx.ledger.check(code == 0, f"repro serve exited with {code}: {stderr}")


# -------------------------------------------------------------- driving
class Answers:
    """Every reply of a run: latency, tier, block, and whether traced."""

    def __init__(self) -> None:
        self.rows: List[Tuple[int, str, float]] = []   # block, source, s
        self.block_walls: List[Tuple[float, bool]] = []
        self.cli_walls: List[float] = []
        self.served: Dict[str, bytes] = {}

    def latencies(self, *sources: str) -> List[float]:
        return [s for _, source, s in self.rows
                if not sources or source in sources]

    def sources(self, blocks: int) -> Counter:
        return Counter(source for block, source, _ in self.rows
                       if block < blocks)


#: What the first and the other answers of a sweep round may come from:
#: one request leads (a dispatch of its own, or the predictor's flight
#: or entry), every other follows it (in flight, or just completed).
LEADER_SOURCES = {"dispatch", "dedup-speculative", "memcache-speculative"}
FOLLOWER_SOURCES = {"dedup", "memcache"}


async def _one(client, spec: Spec, block: int, answers: Answers, ctx,
               tracer: Tracer, parent: Optional[int]) -> Optional[str]:
    """One request; returns the tier that answered, None if it failed."""
    benchmark, engine, overrides = spec
    t0 = time.perf_counter()
    try:
        result, meta = await client.simulate(
            benchmark, engine, scale="tiny", preset="test",
            overrides=overrides)
    except Exception as exc:  # a failed request, counted not raised
        ctx.ledger.fail(f"{spec}: {exc!r}")
        return None
    t1 = time.perf_counter()
    source = meta.get("source", "?")
    ctx.ledger.check(result.completed, f"{spec}: incomplete result")
    answers.rows.append((block, source, t1 - t0))
    if tracer.enabled:
        tracer.record("serve.AsyncServeClient.simulate", t0, t1, parent,
                      source=source, fingerprint=meta.get("fingerprint"))
    name = json.dumps(spec, sort_keys=True)
    if name not in answers.served:
        answers.served[name] = result_bytes(result)
    return source


def _check_round(ctx, specs: Tuple[Spec, ...], sources: List[str]) -> None:
    """Each tier answered what it should: a hot round from memcache; a
    sweep round simulated once, whoever asked first."""
    if specs[0][2] is None:
        expected = all(source == "memcache" for source in sources)
    else:
        leaders = [s for s in sources if s in LEADER_SOURCES]
        followers = [s for s in sources if s in FOLLOWER_SOURCES]
        expected = (len(leaders) == 1
                    and len(followers) == len(sources) - 1)
    ctx.ledger.check(expected, f"{specs[0]}: answered from {sources}")


async def _run_block(ctx, clients, block: int, answers: Answers,
                     tracer: Tracer) -> None:
    rounds = block_rounds(ctx.seed, block,
                          *((20, 5) if ctx.smoke else ()))
    with tracer.span("serve.block", index=block) as parent:
        t0 = time.perf_counter()
        for specs in rounds:
            sources = await asyncio.gather(*(
                _one(client, spec, block, answers, ctx, tracer, parent)
                for client, spec in zip(clients, specs)))
            if None not in sources:
                _check_round(ctx, specs, sources)
        answers.block_walls.append((time.perf_counter() - t0,
                                    tracer.enabled))


async def _drive(ctx, server: Server, deadline: float,
                 answers: Answers) -> Dict[str, Any]:
    """Blocks until another would overrun ``deadline``, a cold ``repro
    request`` after each (the clients are idle then, and the probes
    sample the whole run rather than one stretch of it); a traced run
    leaves every other block untraced, to have a side to compare."""
    clients = [await AsyncServeClient(server.socket).connect()
               for _ in range(CLIENTS)]
    fixed = ctx.few(FIXED_BLOCKS)
    snapshot: Dict[str, Any] = {}
    try:
        block = 0
        longest = 0.0
        while block < fixed or time.perf_counter() + longest < deadline:
            tracer = ctx.tracer if block % 2 == 0 else Tracer(False)
            t0 = time.perf_counter()
            await _run_block(ctx, clients, block, answers, tracer)
            answers.cli_walls.append(_cli_probe(ctx, server))
            longest = max(longest, time.perf_counter() - t0)
            block += 1
            if block == fixed:
                snapshot["fixed"] = await clients[0].stats()
        with ctx.tracer.span("serve.stats"):
            snapshot["final"] = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return snapshot


def _cli_probe(ctx, server: Server) -> float:
    """One cold ``repro request`` process on a hot cell; its wall time."""
    benchmark, engine = HOT_CELLS[0]
    with ctx.tracer.span("cli.request"):
        wall, done = run_child(
            ["-m", "repro", "request", benchmark, "--engine", engine,
             "--scale", "tiny", "--preset", "test", "--json",
             "--socket", server.socket],
            ctx.tmp, ctx.ledger, "repro request on a warm cell",
            cwd=os.getcwd())
    try:
        source = json.loads(done.stdout)["meta"]["source"]
    except (ValueError, KeyError):
        source = None
    ctx.ledger.check(source == "memcache",
                     f"repro request answered from {source!r}")
    return wall


def _verify_served(ctx, answers: Answers) -> None:
    """A seeded sample of served cells against a direct ``execute_cell``
    of the key the server derives from the same request."""
    specs = sorted(answers.served)
    rng = random.Random(f"{ctx.seed}/verify")
    for name in rng.sample(specs, min(VERIFIED_CELLS, len(specs))):
        request = protocol.parse_request(simulate_payload(json.loads(name)))
        direct = result_bytes(execute_cell(protocol.request_to_key(request)))
        ctx.ledger.check(direct == answers.served[name],
                         f"{name}: served bytes differ from execute_cell")


def measure(ctx, server: Server) -> Dict[str, float]:
    started = time.perf_counter()
    answers = Answers()
    snapshot = asyncio.run(
        _drive(ctx, server, started + ctx.seconds, answers))
    _verify_served(ctx, answers)
    if ctx.ledger.failed:
        return {}
    walls = [wall for wall, _ in answers.block_walls]
    everything = answers.latencies()
    rank, tail = tail_percentile(everything)
    ctx.note(f"blocks of {len(everything) // len(walls) // CLIENTS} rounds "
             f"x {CLIENTS} clients: {summary(walls)}")
    ctx.note(f"latency over {len(everything)} requests: p50 "
             f"{median(everything) * 1e3:.3f} ms, p{rank:g} {tail * 1e3:.2f} ms")
    ctx.note("repro request on a warm cell (cold process, one after each "
             f"block): {summary(answers.cli_walls)}")
    fixed = ctx.few(FIXED_BLOCKS)
    ctx.note(f"answers by tier over the first {fixed} block(s): "
             f"{dict(answers.sources(fixed))}")
    out = {
        "wall_s": median(walls),
        "work_per_s": len(everything) / sum(walls),
        "p50_ms": median(everything) * 1e3,
        "tail_ms": tail * 1e3,
        "cli_s": min(answers.cli_walls),
    }
    if ctx.trace:
        out.update(_layer_metrics(ctx, answers, snapshot, fixed))
    return out


# ---------------------------------------------------- the traced extras
def _p(values: List[float], p: float) -> float:
    return percentile(values, p) * 1e3 if values else 0.0


def _layer_metrics(ctx, answers: Answers, snapshot, fixed: int
                   ) -> Dict[str, float]:
    import serve_probes

    speculative = ("memcache-speculative", "dedup-speculative")
    counts = answers.sources(fixed)
    final = snapshot["final"]
    stages = final["latency_s"]
    spec = final["speculation"]
    traced = [w for w, on in answers.block_walls if on]
    untraced = [w for w, on in answers.block_walls if not on]
    out = {
        "serve.memcache.p50_ms": _p(answers.latencies("memcache"), 50),
        "serve.dedup.p50_ms": _p(answers.latencies("dedup"), 50),
        "serve.dispatch.p50_ms": _p(answers.latencies("dispatch"), 50),
        "serve.dispatch.p90_ms": _p(answers.latencies("dispatch"), 90),
        "serve.speculative.p50_ms": _p(answers.latencies(*speculative), 50),
        "serve.src.memcache": counts["memcache"],
        "serve.src.dedup": counts["dedup"],
        "serve.src.dispatch": counts["dispatch"],
        "serve.src.speculative": sum(counts[s] for s in speculative),
        "serve.simulations": snapshot["fixed"]["simulations"],
        "serve.queue_wait.p50_ms": stages["queue_wait"]["p50"] * 1e3,
        "serve.queue_wait.p99_ms": stages["queue_wait"]["p99"] * 1e3,
        "serve.dispatch_stage.p50_ms": stages["dispatch"]["p50"] * 1e3,
        "serve.total_stage.p50_ms": stages["total"]["p50"] * 1e3,
        "serve.batches": final["batches"],
        "serve.mean_batch_cells":
            final["dispatched_cells"] / max(1, final["batches"]),
        "serve.memcache.hit_ratio": final["memcache"]["hit_ratio"],
        "serve.memcache.entries": final["memcache"]["entries"],
        "serve.spec.admitted": spec["admitted"],
        "serve.spec.warm_hits": spec["warm_hits"],
        "serve.spec.useful_ratio":
            spec["warm_hits"] / max(1, spec["completed"]),
        "serve.shed": final["shed"],
        "serve.failed": final["failed"],
        "host.trace_overhead":
            median(traced) / median(untraced) if untraced else 1.0,
    }
    out.update(serve_probes.measure(ctx, HOT_CELLS))
    return out
