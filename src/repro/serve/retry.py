"""Client-side resilience: bounded retry with backoff.

Every ``simulate`` request is deterministic and idempotent — the cell
is named by its content hash (:func:`repro.exec.cache.key_fingerprint`)
and two executions of the same cell are byte-identical — so retrying a
request, or replaying it against a different backend, can never change
the answer.  :class:`RetryPolicy` exploits that: bounded exponential
backoff with jitter, classified through the :mod:`repro.errors`
taxonomy.  Transient wire errors (``overloaded``, ``deadline_exceeded``,
``shutting_down``, ``degraded``) and transport failures (connection
refused/reset, a dead socket, a timeout) are retried; permanent ones
(``bad_request``, ``simulation_failed``) fail immediately because
resubmission would fail identically.  A server-supplied
``retry_after_s`` hint (the ``degraded`` error of the fleet router)
floors the computed delay.  :meth:`RetryPolicy.delay_s` is the serve
tier's one backoff schedule: the fleet supervisor spaces backend
restarts with it too.

:class:`RetryStats` counters let the caller (client CLI, fleet router,
benchmarks) export attempt/retry accounting into its stats payload.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Optional

from repro.errors import RequestError, is_transient

#: Default attempts a :class:`RetryPolicy` makes (1 initial + 2 retries).
DEFAULT_ATTEMPTS = 3

#: Default base delay before the first retry (seconds).
DEFAULT_BASE_DELAY_S = 0.05

#: Default cap on any single backoff delay (seconds).
DEFAULT_MAX_DELAY_S = 2.0


def retryable(exc: BaseException) -> bool:
    """Whether a failed request attempt is worth retrying.

    Wire-level :class:`~repro.errors.RequestError` subclasses follow the
    transient/permanent taxonomy; transport-level failures (connection
    refused/reset/closed, timeouts, a vanished Unix socket) are always
    retryable — a supervised backend may be restarting.  Anything else
    (a programming error) is never swallowed by a retry loop.
    """
    if isinstance(exc, RequestError):
        return is_transient(exc)
    # ConnectionError, socket.timeout and the builtin TimeoutError are
    # all OSErrors; asyncio.TimeoutError is one only from Python 3.11.
    return isinstance(exc, (OSError, asyncio.TimeoutError))


@dataclass
class RetryStats:
    """Counters one retry consumer accumulates across calls."""

    attempts: int = 0
    retries: int = 0
    gave_up: int = 0
    succeeded: int = 0
    slept_s: float = 0.0
    last_error: str = ""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter over idempotent requests.

    ``attempts`` is the total number of tries (so ``attempts=1`` means
    no retry at all).  Delay before retry *n* (1-based) is
    ``min(max_delay_s, base_delay_s * 2**(n-1))``, shrunk by up
    to ``jitter`` (a fraction in [0, 1]) so a thundering herd of
    identical clients decorrelates.  A ``retry_after_s`` hint attached
    to the failure (see :class:`~repro.errors.DegradedError`) raises
    the delay to at least the hint.
    """

    attempts: int = DEFAULT_ATTEMPTS
    base_delay_s: float = DEFAULT_BASE_DELAY_S
    max_delay_s: float = DEFAULT_MAX_DELAY_S
    jitter: float = 0.5
    #: Optional seed; when set, the jitter stream is deterministic
    #: (chaos tests assert exact schedules).
    seed: Optional[int] = None

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1 (got {self.attempts})")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1] (got {self.jitter})")

    def rng(self) -> random.Random:
        """Fresh jitter stream (seeded and reproducible when ``seed`` set)."""
        return random.Random(self.seed)

    def delay_s(self, retry: int, rng: Optional[random.Random] = None,
                hint_s: Optional[float] = None) -> float:
        """Backoff before retry ``retry`` (1-based), jittered and floored.

        The jitter only ever *shrinks* the delay (full-jitter style), so
        ``delay_s`` never exceeds ``max_delay_s`` — except when the
        server's ``hint_s`` demands a longer wait.
        """
        base = min(self.max_delay_s, self.base_delay_s * 2 ** (retry - 1))
        if self.jitter and base > 0:
            rng = rng if rng is not None else random
            base *= 1.0 - self.jitter * rng.random()
        if hint_s is not None:
            base = max(base, hint_s)
        return base

    async def acall(self, fn: Callable[[], Awaitable[Any]], *,
                    stats: Optional[RetryStats] = None,
                    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
                    ) -> Any:
        """Await ``fn()`` under the policy; return its value or re-raise.

        Retries only failures :func:`retryable` approves, sleeping the
        jittered backoff in between.  ``stats`` (when given) accrues the
        attempt accounting; ``sleep`` is injectable for tests.
        """
        stats = stats if stats is not None else RetryStats()
        rng = self.rng()
        for attempt in range(1, self.attempts + 1):
            stats.attempts += 1
            try:
                value = await fn()
            except Exception as exc:
                stats.last_error = repr(exc)
                if attempt >= self.attempts or not retryable(exc):
                    stats.gave_up += 1
                    raise
                stats.retries += 1
                delay = self.delay_s(attempt, rng,
                                     getattr(exc, "retry_after_s", None))
                stats.slept_s += delay
                if delay > 0:
                    await sleep(delay)
            else:
                stats.succeeded += 1
                return value
        raise AssertionError("unreachable: attempts >= 1")
