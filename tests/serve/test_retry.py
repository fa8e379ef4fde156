"""Retry policy: classification, backoff, accounting."""

import asyncio

import pytest

from repro.errors import (
    BadRequestError,
    DegradedError,
    OverloadedError,
    RequestFailedError,
)
from repro.serve.retry import RetryPolicy, RetryStats, retryable


async def no_wait(_delay):
    """Injected backoff: the schedule is computed, nothing waits."""


class TestClassification:
    def test_transient_wire_errors_are_retryable(self):
        assert retryable(OverloadedError("full"))
        assert retryable(DegradedError("fleet down", retry_after_s=1.0))

    def test_permanent_wire_errors_are_not(self):
        assert not retryable(BadRequestError("no such bench"))
        assert not retryable(RequestFailedError("deterministic bug"))

    def test_transport_failures_are_retryable(self):
        assert retryable(ConnectionRefusedError())
        assert retryable(ConnectionResetError())
        assert retryable(asyncio.TimeoutError())
        assert retryable(OSError(2, "socket vanished"))

    def test_programming_errors_are_not(self):
        assert not retryable(KeyError("bug"))
        assert not retryable(ValueError("bug"))


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)


class TestDelays:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5, jitter=0.0)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.4)
        assert policy.delay_s(4) == pytest.approx(0.5)  # capped

    def test_jitter_only_shrinks(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=7)
        rng = policy.rng()
        for retry in (1, 2, 3):
            ceiling = min(policy.max_delay_s,
                          policy.base_delay_s * 2 ** (retry - 1))
            delay = policy.delay_s(retry, rng)
            assert 0 < delay <= ceiling

    def test_seeded_schedule_is_deterministic(self):
        policy = RetryPolicy(seed=42)
        a = [policy.delay_s(r, policy.rng()) for r in (1, 2)]
        b = [policy.delay_s(r, policy.rng()) for r in (1, 2)]
        assert a == b

    def test_retry_after_hint_floors_the_delay(self):
        policy = RetryPolicy(base_delay_s=0.01, jitter=0.0)
        assert policy.delay_s(1, hint_s=0.75) == pytest.approx(0.75)


class TestCall:
    def test_eventual_success_after_transient_failures(self):
        calls = []

        async def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ConnectionResetError("boom")
            return "ok"

        stats = RetryStats()
        policy = RetryPolicy(attempts=3, base_delay_s=0.0)
        assert asyncio.run(
            policy.acall(flaky, stats=stats, sleep=no_wait)) == "ok"
        assert stats.attempts == 3
        assert stats.retries == 2
        assert stats.succeeded == 1
        assert stats.gave_up == 0

    def test_permanent_failure_raises_immediately(self):
        calls = []

        async def broken():
            calls.append(1)
            raise BadRequestError("no")

        policy = RetryPolicy(attempts=5, base_delay_s=0.0)
        with pytest.raises(BadRequestError):
            asyncio.run(policy.acall(broken, sleep=no_wait))
        assert len(calls) == 1

    def test_exhaustion_raises_last_error(self):
        async def down():
            raise ConnectionRefusedError("always down")

        stats = RetryStats()
        policy = RetryPolicy(attempts=3, base_delay_s=0.0)
        with pytest.raises(ConnectionRefusedError):
            asyncio.run(policy.acall(down, stats=stats, sleep=no_wait))
        assert stats.attempts == 3
        assert stats.gave_up == 1

    def test_no_retry_policy_is_single_shot(self):
        calls = []

        async def failing():
            calls.append(1)
            raise ConnectionResetError()

        with pytest.raises(ConnectionResetError):
            asyncio.run(
                RetryPolicy(attempts=1).acall(failing, sleep=no_wait))
        assert len(calls) == 1

    def test_sleeps_follow_the_schedule(self):
        slept = []

        async def down():
            raise ConnectionRefusedError()

        async def record(delay):
            slept.append(delay)

        policy = RetryPolicy(attempts=3, base_delay_s=0.1, jitter=0.0)
        with pytest.raises(ConnectionRefusedError):
            asyncio.run(policy.acall(down, sleep=record))
        assert slept == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_acall_matches_call(self):
        calls = []

        async def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise OverloadedError("shed")
            return 42

        policy = RetryPolicy(attempts=3, base_delay_s=0.0)
        assert asyncio.run(policy.acall(flaky)) == 42
        assert len(calls) == 2
