"""Request scheduling: admission, batching, single-flight, priorities.

:class:`RequestScheduler` sits between the asyncio front-end
(:mod:`repro.serve.server`) and the synchronous
:class:`~repro.exec.runner.ExecutionEngine`:

* **admission** — at most ``queue_limit`` cells may be admitted-but-
  unresolved; past that, new work is shed with
  :class:`~repro.errors.OverloadedError` (the server answers
  ``overloaded`` instead of queueing unboundedly or hanging);
* **single-flight** — concurrent requests for the same cell fingerprint
  share one in-flight future, so N clients asking for the same config
  cost one simulation (``dedup_joined`` counts the sharers);
* **batching** — dispatch is work-conserving: a real cell that finds
  the engine idle is dispatched at once, with no coalescing timer.
  Batches form by themselves while the engine is busy — everything
  admitted during a running batch is the next batch (up to
  ``batch_max``), one :meth:`~ExecutionEngine.run_recorded` call on a
  worker thread, which lets the engine deduplicate, parallelize across
  its process pool, and serve its cache tiers in one pass.  Each cell's
  waiters are answered as that cell finishes (the engine's
  ``on_complete`` hook), not when the slowest cell of its batch does;
* **priorities** — every queued ``interactive`` cell dispatches before
  any ``sweep`` cell, so cheap ad-hoc queries are not stuck behind a
  bulk sweep's backlog.

Cell failures resolve the shared future with
:class:`~repro.errors.RequestFailedError` (code ``simulation_failed``);
the waiting requests — however many joined the flight — all observe it.

The dispatcher is a single task awaiting one engine batch at a time, so
the engine's non-thread-safe internals (memo dict, event log) are only
ever touched from one executor thread at a time.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.config import DEFAULT_BATCH_MAX, DEFAULT_QUEUE_LIMIT
from repro.errors import (
    ConfigError,
    IncompleteRunError,
    InvariantViolation,
    OverloadedError,
    RequestFailedError,
    ShuttingDownError,
    SimulationHangError,
)
from repro.exec.cache import RunKey, key_fingerprint, result_bytes
from repro.exec.runner import ExecutionEngine
from repro.obs.cachestats import TierHitSeries
from repro.obs.latency import LatencyRecorder
from repro.serve.memcache import ServeMemCache
from repro.serve.protocol import PRIORITIES
from repro.serve.stats import DiskCacheStats, SchedulerStats, SpeculationStats
from repro.sim.gpu import SimResult


def _failure_details(failure) -> Dict[str, Any]:
    """JSON-able diagnostic payload of one :class:`CellFailure`.

    Carried to the client as ``error.details`` on the wire, so a remote
    caller triages a server-side wedge with exactly the artifacts a
    local run would surface — most importantly the watchdog's hang
    snapshot (from a :class:`SimulationHangError` directly, or from the
    truncated result of an :class:`IncompleteRunError`).

    Total by construction: the batch resolver calls this while holding
    unresolved waiter futures, so it must never raise. Engines are only
    contractually required to give failures a ``describe()`` — every
    richer field is optional here.
    """
    error = getattr(failure, "error", None)
    kind = getattr(failure, "kind", None)
    details: Dict[str, Any] = {
        "error_type": (type(error).__name__ if error is not None
                       else "unknown"),
        "kind": getattr(kind, "value",
                        kind if isinstance(kind, str) else "unknown"),
        "attempts": getattr(failure, "attempts", 0),
    }
    if isinstance(error, SimulationHangError):
        details["hang_snapshot"] = error.snapshot
        details["cycle"] = error.cycle
        details["stalled_for"] = error.stalled_for
    elif isinstance(error, IncompleteRunError):
        extra = getattr(error.result, "extra", None) or {}
        snapshot = extra.get("hang_snapshot")
        if snapshot:
            details["hang_snapshot"] = snapshot
    elif isinstance(error, InvariantViolation):
        details["invariant"] = error.name
        details["invariant_details"] = error.details
    return details


@dataclass
class QueuedCell:
    """One admitted cell awaiting dispatch."""

    fingerprint: str
    key: RunKey
    enqueued_at: float


class RequestScheduler:
    """Batches, deduplicates and prioritizes simulation requests."""

    def __init__(
        self,
        engine: ExecutionEngine,
        memcache: ServeMemCache,
        *,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        batch_max: int = DEFAULT_BATCH_MAX,
        latency: Optional[LatencyRecorder] = None,
        tiers: Optional[TierHitSeries] = None,
    ):
        if queue_limit < 1:
            raise ConfigError(f"queue_limit must be >= 1 (got {queue_limit})")
        if batch_max < 1:
            raise ConfigError(f"batch_max must be >= 1 (got {batch_max})")
        self.engine = engine
        self.memcache = memcache
        self.queue_limit = queue_limit
        self.batch_max = batch_max
        self.latency = latency if latency is not None else LatencyRecorder(
            stages=("queue_wait", "dispatch", "total"))
        self.tiers = tiers
        self._queues: Dict[str, Deque[QueuedCell]] = {
            p: deque() for p in PRIORITIES
        }
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._draining = False
        # Lifetime counters (the stats introspection payload).
        self.memcache_hits = 0
        self.dedup_joined = 0
        self.admitted = 0
        self.shed = 0
        self.batches = 0
        self.dispatched_cells = 0
        self.completed = 0
        self.failed = 0

    # ---------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the dispatcher task (idempotent)."""
        if self._task is None:
            self._wakeup = asyncio.Event()
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Stop admitting new work, finish what is queued, then return."""
        self._draining = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun; new work is rejected."""
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Admitted-but-unresolved cells (queued plus dispatching)."""
        return self._pending

    # ---------------------------------------------------------- admission
    def _record_tier(self, tier: str, hit: bool) -> None:
        if self.tiers is not None:
            self.tiers.record(tier, hit)

    async def submit(self, key: RunKey,
                     priority: str = "interactive") -> Tuple[SimResult, str]:
        """Resolve one cell: memcache, single-flight join, or dispatch.

        Returns ``(result, source)`` where ``source`` is ``"memcache"``,
        ``"dedup"`` (joined an in-flight cell) or ``"dispatch"``.
        Raises :class:`OverloadedError` when the admission queue is
        full, :class:`ShuttingDownError` during drain, and
        :class:`RequestFailedError` when the dispatched cell fails.
        """
        fingerprint = key_fingerprint(key)
        cached = self.memcache.get(fingerprint)
        self._record_tier("memcache", cached is not None)
        if cached is not None:
            self.memcache_hits += 1
            return cached, "memcache"
        flight = self._inflight.get(fingerprint)
        self._record_tier("dedup", flight is not None)
        if flight is not None:
            self.dedup_joined += 1
            return await asyncio.shield(flight), "dedup"
        if self._draining:
            raise ShuttingDownError(
                "server is draining and no longer admits new simulations")
        if self._pending >= self.queue_limit:
            self.shed += 1
            raise OverloadedError(
                f"admission queue is full ({self._pending}/"
                f"{self.queue_limit} cells in flight); retry later")
        future = asyncio.get_running_loop().create_future()
        # Mark failures as observed even if every waiter's deadline
        # expired, so abandoned flights never log "exception was never
        # retrieved" from the GC.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[fingerprint] = future
        self._pending += 1
        self.admitted += 1
        self._queues[priority].append(
            QueuedCell(fingerprint, key, time.perf_counter()))
        if self._wakeup is not None:
            self._wakeup.set()
        return await asyncio.shield(future), "dispatch"

    # --------------------------------------------------------- dispatcher
    def _take_batch(self) -> List[QueuedCell]:
        batch: List[QueuedCell] = []
        for priority in PRIORITIES:  # interactive strictly first
            queue = self._queues[priority]
            while queue and len(batch) < self.batch_max:
                batch.append(queue.popleft())
        return batch

    async def _run(self) -> None:
        assert self._wakeup is not None
        while True:
            # No await between these checks and the wait below, so no
            # submit or drain can slip in unseen.
            if any(self._queues.values()):
                await self._dispatch(self._take_batch())
            elif self._draining:
                return
            else:
                self._wakeup.clear()
                await self._wakeup.wait()

    async def _dispatch(self, batch: List[QueuedCell]) -> None:
        """Run one engine batch, resolving each cell as it finishes."""
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        for cell in batch:
            self.latency.record("queue_wait", start - cell.enqueued_at)
        self.batches += 1
        self.dispatched_cells += len(batch)
        unresolved = {cell.key: cell for cell in batch}

        def resolve(key, result, failure, fallback=None):
            cell = unresolved.pop(key, None)
            if cell is not None:
                self._resolve(cell, result, failure, fallback,
                              time.perf_counter() - start)

        def on_complete(key, result, failure):
            # Fires on the executor thread; futures, counters and the
            # memcache belong to the loop.
            loop.call_soon_threadsafe(resolve, key, result, failure)

        results: Dict[RunKey, SimResult] = {}
        failures: Dict[RunKey, Any] = {}
        fallback: Optional[Exception] = None
        try:
            results, failures = await loop.run_in_executor(
                None, partial(self.engine.run_recorded, list(unresolved),
                              on_complete=on_complete))
        except Exception as exc:  # engine-level failure: fail the rest
            fallback = exc
        # Backstop: on_complete callbacks were queued to the loop ahead
        # of the batch's own completion, so whatever is still unresolved
        # here was never reported cell by cell.
        for key in list(unresolved):
            resolve(key, results.get(key), failures.get(key), fallback)

    def _resolve(self, cell: QueuedCell, result: Optional[SimResult],
                 failure: Any, fallback: Optional[Exception],
                 wall: float) -> None:
        """Settle one dispatched cell: counters, memcache, its future."""
        self.latency.record("dispatch", wall)
        future = self._inflight.pop(cell.fingerprint, None)
        self._pending -= 1
        if result is not None:
            self.completed += 1
            self.memcache.put(cell.fingerprint, result,
                              len(result_bytes(result)))
            if future is not None and not future.done():
                future.set_result(result)
            return
        self.failed += 1
        if failure is not None:
            # Any exception past this point would strand the cell's
            # waiters — resolve no matter what.
            try:
                error: Exception = RequestFailedError(
                    failure.describe(),
                    details=_failure_details(failure))
            except Exception as exc:
                error = RequestFailedError(
                    f"{cell.key.describe()}: cell failed (and its "
                    f"failure could not be described: {exc!r})")
        elif fallback is not None:
            error = RequestFailedError(
                f"batch dispatch failed: {fallback!r}")
        else:  # engine contract violation; surface loudly
            error = RequestFailedError(
                f"{cell.key.describe()}: cell vanished from the batch")
        if future is not None and not future.done():
            future.set_exception(error)

    # -------------------------------------------------------------- stats
    @property
    def requests_total(self) -> int:
        """Simulate-requests resolved by any path (including shed)."""
        return (self.memcache_hits + self.dedup_joined + self.admitted
                + self.shed)

    @property
    def dedup_ratio(self) -> float:
        """Share of requests that joined an in-flight cell."""
        total = self.requests_total
        return self.dedup_joined / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Snapshot for the ``stats`` introspection request (the
        :class:`~repro.serve.stats.SchedulerStats` block)."""
        disk = self.engine.cache
        return asdict(SchedulerStats(
            queue_depth=self.queue_depth,
            queue_limit=self.queue_limit,
            queued_interactive=len(self._queues["interactive"]),
            queued_sweep=len(self._queues["sweep"]),
            admitted=self.admitted,
            shed=self.shed,
            memcache_hits=self.memcache_hits,
            dedup_joined=self.dedup_joined,
            dedup_ratio=round(self.dedup_ratio, 4),
            batches=self.batches,
            dispatched_cells=self.dispatched_cells,
            completed=self.completed,
            failed=self.failed,
            simulations=self.engine.events.simulations(),
            speculation=SpeculationStats(),
            memcache=self.memcache.stats(),
            disk_cache=(DiskCacheStats(hits=disk.hits, misses=disk.misses,
                                       invalidated=disk.invalidated)
                        if disk is not None else None),
            latency_s=self.latency.summary(),
        ))
