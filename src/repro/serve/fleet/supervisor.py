"""Backend process supervision: spawn, babysit, restart, drain.

The supervisor owns N backend :class:`~repro.serve.server.SimulationServer`
processes, each listening on its own Unix socket and built inside the
child (:func:`_backend_main`) from a picklable :class:`BackendSpec` —
the parent never pickles an engine or a live server.

Lifecycle guarantees:

* **restart-on-crash** — :meth:`BackendSupervisor.poll` notices a dead
  process (any nonzero exit: a chaos kill, an OOM, a bug) and respawns
  it, but only after an exponential backoff (:data:`RESTART_BACKOFF`:
  0.2 s doubling per restart, capped at 5 s) and only while the
  per-backend ``restart_budget`` lasts — a crash-looping backend
  eventually stays down instead of burning the host, and the router's
  circuit breaker keeps routing around it;
* **graceful drain** — :meth:`BackendSupervisor.drain` SIGTERMs every
  child (the server's own signal handler finishes in-flight work and
  answers it before exiting), escalating to ``terminate``/``kill`` only
  on timeout; after drain no child of this process is left alive
  (``multiprocessing.active_children() == []`` — the chaos CI job's
  clean-exit assertion).

Backends are spawned (never forked): the engine's process pools and the
asyncio loop must not inherit a forked parent's state.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import ServeConfig
from repro.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.exec.runner import ExecutionEngine
from repro.serve.retry import RetryPolicy

#: Default cap on restarts per backend.
DEFAULT_RESTART_BUDGET = 3

#: Delay before restart ``n`` of a backend: ``min(5, 0.2 * 2**(n-1))``
#: seconds, unjittered (the restarts of one fleet need no decorrelating).
RESTART_BACKOFF = RetryPolicy(base_delay_s=0.2, max_delay_s=5.0, jitter=0.0)


@dataclass(frozen=True)
class BackendSpec:
    """Picklable recipe for one backend process.

    Everything the child needs to build its engine and server; the
    ``serve`` config carries the backend's socket path, capacity knobs
    and (under chaos) its fault plan + ``backend_index``.
    """

    index: int
    serve: ServeConfig
    jobs: int = 1
    cache_dir: Optional[str] = None

    @property
    def endpoint(self) -> str:
        """The backend's listener address."""
        return self.serve.endpoint


def _backend_main(spec: BackendSpec) -> None:  # pragma: no cover - child
    """Child entry point: build the engine, serve until SIGTERM."""
    import asyncio

    from repro.serve.server import run_server

    cache = ResultCache(spec.cache_dir) if spec.cache_dir else None
    engine = ExecutionEngine(jobs=spec.jobs, cache=cache)
    asyncio.run(run_server(engine, spec.serve))


@dataclass
class BackendProcessState:
    """Supervisor-side bookkeeping for one backend slot."""

    spec: BackendSpec
    process: Optional[multiprocessing.process.BaseProcess] = None
    restarts: int = 0
    exits: List[int] = field(default_factory=list)
    #: Monotonic time before which a restart must not happen (backoff).
    not_before: float = 0.0
    #: True once the restart budget is exhausted and the slot is dead.
    given_up: bool = False


class BackendSupervisor:
    """Spawns and babysits the fleet's backend processes."""

    def __init__(self, specs: List[BackendSpec],
                 restart_budget: int = DEFAULT_RESTART_BUDGET):
        if not specs:
            raise ValueError("supervisor needs at least one backend spec")
        if restart_budget < 0:
            raise ConfigError(
                f"restart_budget must be >= 0 (got {restart_budget})")
        self.restart_budget = restart_budget
        self._ctx = multiprocessing.get_context("spawn")
        self.backends: Dict[int, BackendProcessState] = {
            spec.index: BackendProcessState(spec) for spec in specs
        }
        #: Restart/give-up events (JSON-able, for logs and stats).
        self.events: List[Dict[str, Any]] = []

    # --------------------------------------------------------- lifecycle
    def _spawn(self, state: BackendProcessState) -> None:
        process = self._ctx.Process(
            target=_backend_main, args=(state.spec,),
            name=f"repro-backend-{state.spec.index}", daemon=False)
        process.start()
        state.process = process

    def start(self) -> None:
        """Spawn every backend (idempotent per slot)."""
        for state in self.backends.values():
            if state.process is None:
                self._spawn(state)

    def alive(self, index: int) -> bool:
        """Whether backend ``index`` currently has a live process."""
        process = self.backends[index].process
        return process is not None and process.is_alive()

    def poll(self) -> List[Dict[str, Any]]:
        """Reap dead backends and restart within budget/backoff.

        Non-blocking; call it periodically (the router's monitor task
        does).  Returns the events this call produced.
        """
        now = time.monotonic()
        produced: List[Dict[str, Any]] = []
        for state in self.backends.values():
            process = state.process
            if process is None or process.is_alive() or state.given_up:
                continue
            exitcode = process.exitcode
            if exitcode is None:  # still shutting down; look again later
                continue
            if not state.exits or state.not_before <= 0:
                # First observation of this death: record it and arm
                # the backoff clock.
                state.exits.append(exitcode)
                process.join()
                if state.restarts >= self.restart_budget:
                    state.given_up = True
                    event = {"event": "gave_up",
                             "backend": state.spec.index,
                             "exitcode": exitcode,
                             "restarts": state.restarts}
                    self.events.append(event)
                    produced.append(event)
                    continue
                state.not_before = now + RESTART_BACKOFF.delay_s(
                    state.restarts + 1)
            if state.not_before > 0 and now < state.not_before:
                continue
            state.not_before = 0.0
            state.restarts += 1
            self._spawn(state)
            event = {"event": "restarted", "backend": state.spec.index,
                     "exitcode": exitcode, "restarts": state.restarts}
            self.events.append(event)
            produced.append(event)
        return produced

    def drain(self, timeout_s: float = 10.0) -> None:
        """Gracefully stop every backend; escalate on timeout.

        SIGTERM first (the server drains in-flight work), then
        ``terminate``/``kill`` for stragglers.  On return every child
        has been joined.
        """
        for state in self.backends.values():
            process = state.process
            if process is not None and process.is_alive():
                process.terminate()  # SIGTERM: graceful server drain
        deadline = time.monotonic() + timeout_s
        for state in self.backends.values():
            process = state.process
            if process is None:
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - drain timed out
                process.kill()
                process.join(5.0)

    # ------------------------------------------------------------- stats
    def restarts(self, index: int) -> int:
        """Restarts consumed by backend ``index`` so far."""
        return self.backends[index].restarts

    def stats(self) -> Dict[str, Any]:
        """JSON-able supervision snapshot (router stats ``supervisor``)."""
        return {
            "restart_budget": self.restart_budget,
            "backends": {
                str(index): {
                    "alive": self.alive(index),
                    "restarts": state.restarts,
                    "exits": list(state.exits),
                    "given_up": state.given_up,
                }
                for index, state in self.backends.items()
            },
            "events": list(self.events),
        }
