"""Per-backend health: the closed → open → half-open circuit breaker.

Each backend of the fleet gets one :class:`CircuitBreaker` fed from two
signals — *passive* error accounting (every forwarded request records
success or failure) and *active* ping probes (the router's prober task)
— and consulted before every routing decision:

``closed``
    healthy; requests flow.  ``failure_threshold`` consecutive
    failures trip the breaker to ``open`` (one success resets the
    streak).
``open``
    requests are not sent at all — the backend is presumed dead and
    every attempt would burn a connect timeout.  After
    ``reset_timeout_s`` the breaker *lazily* moves to ``half_open``
    (the transition happens on the next :attr:`state` read, so an idle
    router still reports the true state).
``half_open``
    at most ``half_open_max`` trial requests are let through.  The
    first success closes the breaker; any failure re-opens it and
    restarts the reset clock.

Every transition is appended to :attr:`CircuitBreaker.transitions`
(monotonic timestamp, from-state, to-state, reason) — the chaos suite
asserts the closed→open→half_open→closed recovery trajectory off this
series, exported verbatim in the router's stats payload.
"""

from __future__ import annotations

import enum
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, List

from repro.config import DEFAULT_FAILURE_THRESHOLD, DEFAULT_RESET_TIMEOUT_S
from repro.errors import ConfigError
from repro.serve.stats import CircuitStats


class CircuitState(enum.Enum):
    """Wire-stable states of one backend's circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One backend's failure-detection state machine."""

    def __init__(self,
                 failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
                 reset_timeout_s: float = DEFAULT_RESET_TIMEOUT_S,
                 half_open_max: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1 (got {failure_threshold})")
        if reset_timeout_s <= 0:
            raise ConfigError(
                f"reset_timeout_s must be > 0 (got {reset_timeout_s})")
        if half_open_max < 1:
            raise ConfigError(
                f"half_open_max must be >= 1 (got {half_open_max})")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_max = half_open_max
        self._clock = clock
        self._state = CircuitState.CLOSED
        self._failure_streak = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0
        #: Totals since construction (monotonically increasing).
        self.failures = 0
        self.successes = 0
        self.opened = 0
        #: Recorded state changes: ``{"t", "from", "to", "reason"}``.
        self.transitions: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- state
    def _move(self, to: CircuitState, reason: str) -> None:
        self.transitions.append({
            "t": round(self._clock(), 6),
            "from": self._state.value,
            "to": to.value,
            "reason": reason,
        })
        self._state = to

    @property
    def state(self) -> CircuitState:
        """Current state (lazily promotes open → half_open on expiry)."""
        if (self._state is CircuitState.OPEN
                and self._clock() - self._opened_at >= self.reset_timeout_s):
            self._move(CircuitState.HALF_OPEN, "reset timeout expired")
            self._half_open_inflight = 0
        return self._state

    def allow(self) -> bool:
        """Whether one request may be sent to this backend right now.

        ``half_open`` admits at most ``half_open_max`` concurrent trial
        requests; callers MUST follow up with :meth:`record_success` or
        :meth:`record_failure` for every allowed request.
        """
        state = self.state
        if state is CircuitState.CLOSED:
            return True
        if state is CircuitState.OPEN:
            return False
        if self._half_open_inflight >= self.half_open_max:
            return False
        self._half_open_inflight += 1
        return True

    # ----------------------------------------------------------- signals
    def record_success(self) -> None:
        """A request (or probe) to this backend succeeded."""
        self.successes += 1
        self._failure_streak = 0
        if self.state is CircuitState.HALF_OPEN:
            self._half_open_inflight = 0
            self._move(CircuitState.CLOSED, "trial request succeeded")

    def reset(self, reason: str = "reset") -> None:
        """Force the breaker closed (records the transition).

        For *startup-style* evidence of liveness only — e.g. the fleet's
        readiness barrier, whose direct probes may have raced a backend
        bind and tripped the breaker before the backend was even
        supposed to be up.  Steady-state recovery must go through the
        half-open trial path instead so the open → half_open → closed
        trajectory stays observable.
        """
        self._failure_streak = 0
        self._half_open_inflight = 0
        if self._state is not CircuitState.CLOSED:
            self._move(CircuitState.CLOSED, reason)

    def record_failure(self, reason: str = "request failed") -> None:
        """A request (or probe) to this backend failed at transport level."""
        self.failures += 1
        self._failure_streak += 1
        state = self.state
        if state is CircuitState.HALF_OPEN:
            self._half_open_inflight = 0
            self._opened_at = self._clock()
            self.opened += 1
            self._move(CircuitState.OPEN, f"trial failed: {reason}")
        elif (state is CircuitState.CLOSED
                and self._failure_streak >= self.failure_threshold):
            self._opened_at = self._clock()
            self.opened += 1
            self._move(
                CircuitState.OPEN,
                f"{self._failure_streak} consecutive failures: {reason}")

    # ------------------------------------------------------------- stats
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state for the router's stats payload (the
        :class:`~repro.serve.stats.CircuitStats` block)."""
        return asdict(CircuitStats(
            state=self.state.value,
            failures=self.failures,
            successes=self.successes,
            failure_streak=self._failure_streak,
            opened=self.opened,
            transitions=self.transitions,
        ))
