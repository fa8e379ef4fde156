"""Execution engine: runs experiment-matrix cells, serially or in parallel.

:class:`ExecutionEngine` owns three layers of reuse and resilience:

* an **in-process memo** (:class:`repro.exec.memo.ResultMemo`,
  `RunKey` → the exact `SimResult` object): unbounded by default, so
  repeated lookups inside one process return the identical object —
  the contract the analysis layer has always had — and bounded LRU
  under ``repro serve``, whose scheduler answers hits from it;
* an optional **persistent cache** (:class:`repro.exec.cache.ResultCache`)
  shared across processes and invocations;
* a **process pool** (``jobs > 1``) with a per-task timeout
  (delivered via ``SIGALRM`` inside the worker, so a wedged simulation
  cannot wedge the pool), bounded retry on worker failure, and recovery
  from a broken pool (a worker dying hard re-creates the pool and
  resubmits the in-flight cells).  With ``jobs=1`` everything runs
  inline in the calling process — no subprocess is ever spawned.

The pool's start method is picked per batch by :func:`_start_method`:
``fork`` when the batch is launched on Linux from the main thread of a
process that runs no other Python thread (the CLI's batch commands),
after the parent has imported the simulator, so workers start with it
loaded; ``spawn`` otherwise
(``repro serve`` and the fleet backends batch from an executor thread,
where a fork could copy a lock another thread holds and the event
loop's signal wake-up fd).  Either way tasks and results cross the
pool by pickle.

Retry is **classification-aware** (see :mod:`repro.errors`): transient
failures (worker death, timeout, broken pool, injected chaos faults)
are resubmitted at once, up to the budget; permanent failures (hangs,
invariant violations, bad configs) are reported immediately —
re-running a deterministic simulator cannot change the outcome.

There is one batch loop and two ways to report its failures:

* :meth:`ExecutionEngine.run_recorded` — record-and-continue: failures
  become :class:`CellFailure` records and the batch always finishes;
  this is what ``repro sweep`` builds on.
* :meth:`ExecutionEngine.run_many` — fail-fast: ``run_recorded`` with a
  completion callback that raises :class:`CellError` for the first
  cell that exhausts its budget, at every ``jobs``.

The module-level :func:`execute_cell` is the single place that maps a
:class:`RunKey` onto a simulation; it is importable by name so tasks
pickle to workers of either start method.  The simulator is imported
by the first cell that runs, not by this module: a batch whose cells
are all cache hits loads none of it.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.errors import (
    CellError,
    FailureKind,
    IncompleteRunError,
    TransientError,
    classify,
)
from repro.exec.cache import ResultCache, RunKey, config_fingerprint
from repro.exec.events import EventLog
from repro.exec.memo import ResultMemo
from repro.result import SimResult
from repro.workloads.base import Scale

if TYPE_CHECKING:
    from repro.guard.faults import FaultPlan
    from repro.sim.kernel import KernelInfo


class CellTimeout(TransientError):
    """A cell exceeded the engine's per-task timeout."""


@dataclass
class CellFailure:
    """Terminal failure record for one cell (``run_recorded``)."""

    key: RunKey
    error: BaseException
    kind: FailureKind
    attempts: int

    def describe(self) -> str:
        """One-line summary of the failed cell and its error."""
        return (f"{self.key.describe()}: {self.error!r} "
                f"[{self.kind.value}, {self.attempts} attempt(s)]")


def build(benchmark: str, scale: Scale) -> KernelInfo:
    """Build the kernel a cell's benchmark names: a Table IV model or
    one of :data:`repro.workloads.extra.KERNELS`."""
    from repro.workloads.extra import KERNELS
    from repro.workloads.suite import build as build_suite

    extra = KERNELS.get(benchmark)
    return extra(scale) if extra is not None else build_suite(benchmark, scale)


def simulate(*args, **kwargs) -> SimResult:
    """:func:`repro.sim.gpu.simulate`, imported on first call."""
    from repro.sim.gpu import simulate as run

    return run(*args, **kwargs)


def execute_cell(key: RunKey, faults: Optional[FaultPlan] = None) -> SimResult:
    """Simulate one matrix cell (no caching; raises on incomplete runs).

    A benchmark of the form ``"A+B"`` is a *co-run* cell: the named
    kernels execute concurrently on one GPU under
    ``key.config.multi.alloc_policy`` (see :mod:`repro.sim.cta`) and
    the result carries one record per kernel (name, CTA counts, finish
    cycle) in ``extra["kernels"]``.
    A cell whose engine is :data:`~repro.prefetch.factory.TRACE` runs
    the inert load tracer and carries Figure 1's view of the load
    stream in ``extra["first_loads"]`` (:func:`repro.sim.trace.first_loads`).

    The :class:`IncompleteRunError` raised for a cycle-limited run
    carries the truncated result — its ``extra["hang_snapshot"]`` is the
    end-of-run diagnostic.
    """
    from repro.prefetch.factory import TRACE, make_prefetcher

    recorder = None
    if key.prefetcher == TRACE:
        from repro.sim.trace import LoadRecorder, first_loads

        factory = recorder = LoadRecorder()
    elif key.prefetcher != "none":
        factory = make_prefetcher(key.prefetcher)
    else:
        factory = None
    if "+" in key.benchmark:
        from repro.sim.multi import simulate_corun

        kernels = [build(name, key.scale)
                   for name in key.benchmark.split("+")]
        result = simulate_corun(kernels, key.config, factory, faults=faults)
    else:
        result = simulate(build(key.benchmark, key.scale), key.config,
                          factory, faults=faults)
    if recorder is not None:
        result.extra["first_loads"] = first_loads(recorder.records())
    if not result.completed:
        raise IncompleteRunError(
            f"{key.benchmark}/{key.prefetcher} hit the cycle limit "
            f"({key.config.max_cycles}) before completing",
            result=result,
        )
    return result


def call_with_timeout(fn: Callable[[], SimResult],
                      timeout_s: Optional[float]) -> SimResult:
    """Run ``fn`` under a ``SIGALRM`` deadline (main thread only)."""
    if not timeout_s:
        return fn()

    def _expired(signum, frame):
        raise CellTimeout(f"cell exceeded the {timeout_s}s timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _worker(key: RunKey, timeout_s: Optional[float],
            faults: Optional[FaultPlan] = None,
            attempt: int = 1) -> Tuple[SimResult, float]:
    """One attempt of one cell, pooled or inline, with the per-task
    deadline armed.

    Returns the result with the attempt's run time, measured here —
    where the cell runs — so the time a pooled cell waits in the queue
    is never reported as cell time; a failing attempt carries the same
    measurement out as ``wall_s`` on its exception.
    """
    began = time.perf_counter()
    try:
        if faults is not None and faults.should_crash(attempt):
            faults.crash(attempt, key.describe())
        result = call_with_timeout(lambda: execute_cell(key, faults),
                                   timeout_s)
    except Exception as exc:
        exc.wall_s = time.perf_counter() - began
        raise
    return result, time.perf_counter() - began


def _start_method() -> str:
    """The start method for a pool about to be built by this thread:
    ``fork`` on Linux from the main thread with no other Python thread
    (none could hold a lock the child inherits), else ``spawn``."""
    if (sys.platform.startswith("linux")
            and threading.current_thread() is threading.main_thread()
            and threading.active_count() == 1):
        return "fork"
    return "spawn"


class ExecutionEngine:
    """Executes :class:`RunKey` cells with caching, retry and parallelism.

    Parameters
    ----------
    jobs:
        Worker processes for batch execution; ``1`` (the default) runs
        every cell inline.
    cache:
        Optional persistent :class:`ResultCache` shared across
        processes/invocations.  ``None`` keeps only the in-process
        :attr:`memo`, which a server replaces with a bounded one.
    events:
        :class:`EventLog` receiving the telemetry stream (one is created
        if omitted).
    timeout_s:
        Per-cell wall-time budget, enforced inside workers (and inline
        when running serially).
    retries:
        How many times a *transiently* failing cell is resubmitted
        (immediately) before being declared failed.  Permanent failures
        are never retried.
    faults:
        Optional :class:`repro.guard.faults.FaultPlan` threaded into
        every cell for chaos testing.  Plans that perturb simulation
        timing disable persistent-cache writes so perturbed results
        never pollute the shared cache.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        events: Optional[EventLog] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        faults: Optional[FaultPlan] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.events = events if events is not None else EventLog()
        self.timeout_s = timeout_s
        self.retries = retries
        self.faults = faults
        self.memo = ResultMemo()

    # ------------------------------------------------------------- memo
    def _emit(self, kind: str, key: RunKey, **kw) -> None:
        self.events.emit(kind, key.describe(),
                         config_fingerprint(key.config)[:12], **kw)

    def _lookup(self, key: RunKey) -> Optional[SimResult]:
        entry = self.memo.get(key)
        if entry is not None:
            self._emit("cache_hit", key, detail="memo")
            return entry.result
        if self.cache is not None:
            result = self.cache.get(key)
            if result is not None:
                self.memo.put(key, result)
                self._emit("cache_hit", key, detail="disk")
                return result
        return None

    def _store(self, key: RunKey, result: SimResult) -> None:
        self.memo.put(key, result)
        if self.cache is not None and not self._perturbed():
            self.cache.put(key, result)

    def _perturbed(self) -> bool:
        return self.faults is not None and self.faults.affects_simulation

    # -------------------------------------------------------- execution
    def run(self, key: RunKey, use_cache: bool = True) -> SimResult:
        """Execute one cell inline (cache layers apply unless disabled).

        A failure raises the cell's own exception, unwrapped."""
        if use_cache:
            hit = self._lookup(key)
            if hit is not None:
                return hit
        self._emit("queued", key)
        result, failure = self._run_inline(key, use_cache)
        if failure is not None:
            raise failure.error
        return result

    def _settle(self, key: RunKey, attempt: int, use_cache: bool,
                fetch: Callable[[], Tuple[SimResult, float]]):
        """Finish one attempt of ``key``, inline or pooled.

        ``fetch()`` returns what :func:`_worker` returned or raises its
        error (a worker that died hard measured nothing: ``wall_s`` 0).
        Emits ``finished`` / ``retry`` / ``failed`` and stores a
        success.  Returns ``None`` when the attempt is to be retried,
        else the ``(result, failure)`` pair the cell resolved to.
        """
        try:
            result, wall = fetch()
        except Exception as exc:
            wall = getattr(exc, "wall_s", 0.0)
            kind = classify(exc)
            if kind is FailureKind.TRANSIENT and attempt <= self.retries:
                self._emit("retry", key, attempt=attempt, wall_s=wall,
                           error=repr(exc))
                return None
            self._emit("failed", key, attempt=attempt, wall_s=wall,
                       error=repr(exc))
            return None, CellFailure(key, exc, kind, attempt)
        if use_cache:
            self._store(key, result)
        self._emit("finished", key, attempt=attempt, wall_s=wall)
        return result, None

    def _run_inline(self, key: RunKey, use_cache: bool):
        attempt = 0
        while True:
            attempt += 1
            self._emit("started", key, attempt=attempt)
            outcome = self._settle(
                key, attempt, use_cache,
                lambda: _worker(key, self.timeout_s, self.faults, attempt))
            if outcome is not None:
                return outcome

    def run_many(self, keys: Sequence[RunKey],
                 use_cache: bool = True) -> Dict[RunKey, SimResult]:
        """Execute a batch of cells, deduplicated, cache-first (fail-fast).

        Returns a dict covering every distinct key.  Raises
        :class:`CellError` (after cancelling outstanding work) if any
        cell still fails once its retry budget is spent.
        """
        def fail_fast(key, result, failure):
            if failure is not None:
                raise CellError(key, failure.error,
                                failure.attempts) from failure.error

        return self.run_recorded(keys, use_cache, on_complete=fail_fast)[0]

    def run_recorded(
        self,
        keys: Sequence[RunKey],
        use_cache: bool = True,
        on_complete: Optional[
            Callable[[RunKey, Optional[SimResult],
                      Optional[CellFailure]], None]] = None,
    ) -> Tuple[Dict[RunKey, SimResult], Dict[RunKey, CellFailure]]:
        """Execute a batch, recording failures instead of raising.

        Every distinct key ends up in exactly one of the two returned
        dicts.  ``on_complete(key, result, failure)`` fires as each cell
        resolves (including cache hits), which is where a sweep writes
        its diagnostic bundles; exactly one of ``result``/``failure`` is non-None.
        An exception it raises ends the batch: outstanding pool work is
        cancelled and the exception propagates.
        """
        results: Dict[RunKey, SimResult] = {}
        failures: Dict[RunKey, CellFailure] = {}
        pending: List[RunKey] = []

        def resolve(key, result, failure):
            if failure is None:
                results[key] = result
            else:
                failures[key] = failure
            if on_complete is not None:
                on_complete(key, result, failure)

        for key in dict.fromkeys(keys):
            hit = self._lookup(key) if use_cache else None
            if hit is not None:
                resolve(key, hit, None)
            else:
                self._emit("queued", key)
                pending.append(key)
        if self.jobs == 1 or len(pending) <= 1:
            for key in pending:
                resolve(key, *self._run_inline(key, use_cache))
        else:
            self._run_parallel(pending, use_cache, resolve)
        return results, failures

    def _run_parallel(self, keys: List[RunKey], use_cache: bool,
                      resolve) -> None:
        # Imported where a pool is built: serial runs (and every process
        # that only imports this module) skip multiprocessing's set-up.
        import multiprocessing
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        method = _start_method()
        if method == "fork":
            # Load the simulator once, here, so every forked worker
            # starts with it instead of importing it on its first cell.
            import repro.sim.gpu  # noqa: F401
            import repro.workloads.suite  # noqa: F401
        ctx = multiprocessing.get_context(method)
        workers = min(self.jobs, len(keys))
        attempts: Dict[RunKey, int] = {k: 0 for k in keys}
        future_key: Dict[object, RunKey] = {}
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)

        def submit(key: RunKey) -> None:
            attempts[key] += 1
            self._emit("started", key, attempt=attempts[key])
            future_key[pool.submit(_worker, key, self.timeout_s,
                                   self.faults, attempts[key])] = key

        try:
            for key in keys:
                submit(key)
            while future_key:
                done, _ = wait(list(future_key), return_when=FIRST_COMPLETED)
                resubmit: List[RunKey] = []
                broken = False
                for fut in done:
                    key = future_key.pop(fut)
                    broken = broken or isinstance(fut.exception(),
                                                  BrokenProcessPool)
                    outcome = self._settle(key, attempts[key], use_cache,
                                           fut.result)
                    if outcome is None:
                        resubmit.append(key)
                    else:
                        resolve(key, *outcome)
                if broken:
                    # A worker died hard: the executor is unusable and
                    # every in-flight future is doomed.  Rebuild the pool
                    # and resubmit what had not finished.  The broken
                    # pool has already terminated its workers; joining
                    # its manager thread first means a fork context
                    # still forks from a process with no other thread.
                    pool.shutdown(wait=True, cancel_futures=True)
                    resubmit.extend(future_key.values())
                    future_key.clear()
                    pool = ProcessPoolExecutor(max_workers=workers,
                                               mp_context=ctx)
                for key in resubmit:
                    submit(key)
        finally:
            # Join the workers: when a batch returns, no worker process
            # is left behind (the serve layer's graceful-drain contract
            # asserts this).  At this point every future has resolved
            # or been cancelled, so the workers are idle and exit.
            pool.shutdown(wait=True, cancel_futures=True)
