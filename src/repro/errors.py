"""Failure taxonomy shared by the simulator, the guard layer and the
execution engine.

Every failure a sweep can encounter is classified into exactly one of
two kinds:

``TRANSIENT``
    environmental and worth retrying — a worker process died, a cell
    exceeded its wall-clock budget, the process pool broke.  The
    execution engine retries these with bounded exponential backoff.
``PERMANENT``
    deterministic — re-running the same cell would fail the same way
    (a wedged simulation, a violated invariant, an invalid config).
    Resilient sweeps record these and continue; retrying would only
    burn time.

The classifier is intentionally conservative: an exception it does not
recognize defaults to ``TRANSIENT`` so that a crash of unknown origin
still gets its retry budget before the cell is declared failed.

Exception classes that carry structured payloads (:class:`SimulationHangError`
snapshots, :class:`IncompleteRunError` results) implement ``__reduce__``
so they survive pickling across the process-pool boundary.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional


class FailureKind(enum.Enum):
    TRANSIENT = "transient"
    PERMANENT = "permanent"


class ReproError(RuntimeError):
    """Base class of every structured error this package raises.

    Subclasses :class:`RuntimeError` so pre-taxonomy call sites that
    catch ``RuntimeError`` around a simulation keep working.
    """


class TransientError(ReproError):
    """An environmental failure; retrying the operation may succeed."""


class PermanentError(ReproError):
    """A deterministic failure; retrying cannot succeed."""


class ConfigError(PermanentError, ValueError):
    """An invalid :class:`repro.config.GPUConfig` (or sub-config).

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working; the CLI catches it specifically to print
    the actionable message without a traceback.
    """


class SimulationHangError(PermanentError):
    """The watchdog detected no forward progress for too many cycles.

    Carries a JSON-able diagnostic ``snapshot`` (see
    :func:`repro.guard.watchdog.build_snapshot`), the ``cycle`` the hang
    was declared at, and ``stalled_for`` — the cycles elapsed since the
    last observed progress.
    """

    def __init__(self, message: str, snapshot: Optional[Dict[str, Any]] = None,
                 cycle: int = -1, stalled_for: int = 0):
        super().__init__(message)
        self.snapshot = snapshot or {}
        self.cycle = cycle
        self.stalled_for = stalled_for

    def __reduce__(self):
        return (self.__class__,
                (self.args[0], self.snapshot, self.cycle, self.stalled_for))


class InvariantViolation(PermanentError):
    """A runtime conservation/consistency check failed.

    ``name`` identifies the invariant; ``details`` holds the offending
    counters (JSON-able).
    """

    def __init__(self, message: str, name: str = "",
                 details: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.name = name
        self.details = details or {}

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.name, self.details))


class IncompleteRunError(PermanentError):
    """The simulation hit the cycle limit before completing.

    ``result`` (when present) is the truncated
    :class:`repro.result.SimResult`, whose ``extra["hang_snapshot"]``
    holds the end-of-run diagnostic snapshot.
    """

    def __init__(self, message: str, result: Any = None):
        super().__init__(message)
        self.result = result

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.result))


def hang_snapshot(exc: BaseException) -> Optional[Dict[str, Any]]:
    """The watchdog diagnostic ``exc`` carries, if any: a hang's own
    ``snapshot``, or the ``extra["hang_snapshot"]`` of the truncated
    result inside an :class:`IncompleteRunError`."""
    snapshot = getattr(exc, "snapshot", None)
    if not snapshot and getattr(exc, "result", None) is not None:
        snapshot = exc.result.extra.get("hang_snapshot")
    return snapshot or None


class CellError(RuntimeError):
    """A cell failed after exhausting its retry budget
    (:meth:`repro.exec.runner.ExecutionEngine.run_many`); ``key`` is the
    cell's :class:`~repro.exec.cache.RunKey`, ``cause`` the last error."""

    def __init__(self, key: Any, cause: BaseException, attempts: int):
        super().__init__(
            f"{key.describe()} failed after {attempts} attempt(s): {cause!r}"
        )
        self.key = key
        self.cause = cause
        self.attempts = attempts


class RequestError(ReproError):
    """Base class of request-level failures in the serving layer.

    Every subclass carries a stable wire ``code`` — the ``error.code``
    field of a :mod:`repro.serve.protocol` error response — so clients
    can react programmatically (back off on ``overloaded``, fix the
    payload on ``bad_request``) without parsing messages.
    """

    #: Stable protocol error code (overridden by every subclass).
    code = "internal"


class BadRequestError(RequestError, PermanentError):
    """The request payload is malformed or names unknown entities.

    Deterministic: resubmitting the same payload fails the same way.
    """

    code = "bad_request"


class OverloadedError(RequestError, TransientError):
    """The server's admission queue is full; the request was shed.

    Transient by definition — the same request may succeed once load
    drains.  Clients should back off and retry.
    """

    code = "overloaded"


class DeadlineExceededError(RequestError, TransientError):
    """The request's deadline expired before a result was available.

    The underlying simulation (if one was dispatched) keeps running and
    lands in the cache, so a retry typically completes quickly.
    """

    code = "deadline_exceeded"


class ShuttingDownError(RequestError, TransientError):
    """The server is draining (SIGTERM) and no longer admits requests."""

    code = "shutting_down"


class DegradedError(RequestError, TransientError):
    """No healthy backend can serve the request right now.

    Raised by the fleet router when every candidate backend is down (or
    circuit-open) and the shared disk cache holds no answer either.
    Carries ``retry_after_s`` — the router's hint for how long a client
    should back off before retrying (supervised backends restart on a
    known schedule, so the hint is informed, not arbitrary).
    """

    code = "degraded"

    def __init__(self, message: str, retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.retry_after_s))


class RequestFailedError(RequestError, PermanentError):
    """The dispatched simulation failed; the failure detail is attached.

    Wraps a :class:`CellFailure`-shaped server-side outcome (a hang, an
    invariant violation, an exhausted retry budget) for the client.
    ``details`` is a JSON-able payload carried verbatim across the wire
    (``error.details`` in the protocol envelope) — for a hang it holds
    the watchdog's diagnostic snapshot, so the client can triage a
    remote wedge exactly as it would a local one.
    """

    code = "simulation_failed"

    def __init__(self, message: str,
                 details: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.details = details or {}

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.details))


class InjectedFault(TransientError):
    """Base class of failures raised by the deterministic fault injector."""


class InjectedWorkerCrash(InjectedFault):
    """A fault-plan-scheduled worker crash (transient by construction)."""


def classify(exc: BaseException) -> FailureKind:
    """Map an exception to its :class:`FailureKind`.

    Only :class:`PermanentError` is permanent.  Everything else —
    :class:`TransientError`, ``BrokenProcessPool`` (a worker died
    hard), anything unknown — is transient, so it still receives a
    bounded retry before being recorded as failed.
    """
    if isinstance(exc, PermanentError):
        return FailureKind.PERMANENT
    return FailureKind.TRANSIENT


def is_transient(exc: BaseException) -> bool:
    return classify(exc) is FailureKind.TRANSIENT
