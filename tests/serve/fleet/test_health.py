"""Circuit breaker state machine."""

import pytest

from repro.serve.fleet.health import CircuitBreaker, CircuitState


class Clock:
    """Controllable monotonic clock for deterministic breaker tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_breaker(**kwargs):
    clock = Clock()
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("reset_timeout_s", 1.0)
    return CircuitBreaker(clock=clock, **kwargs), clock


class TestValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_max=0)


class TestClosedToOpen:
    def test_threshold_consecutive_failures_open(self):
        breaker, _ = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED
        breaker.record_failure("third strike")
        assert breaker.state is CircuitState.OPEN
        assert breaker.opened == 1
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, _ = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED


class TestRecovery:
    def test_full_trajectory_closed_open_half_open_closed(self):
        """The chaos suite's acceptance trajectory, off the transitions
        series the router exports verbatim."""
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure("backend died")
        assert breaker.state is CircuitState.OPEN
        clock.advance(1.5)  # past reset_timeout_s
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.allow()          # the trial request
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert [(t["from"], t["to"]) for t in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_open_blocks_until_reset_timeout(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(0.5)
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()

    def test_half_open_admits_bounded_trials(self):
        breaker, clock = make_breaker(half_open_max=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        assert not breaker.allow()  # second concurrent trial refused

    def test_failed_trial_reopens_and_rearms_the_clock(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure("still dead")
        assert breaker.state is CircuitState.OPEN
        assert breaker.opened == 2
        clock.advance(0.5)
        assert breaker.state is CircuitState.OPEN  # clock restarted
        clock.advance(1.0)
        assert breaker.state is CircuitState.HALF_OPEN

    def test_success_while_open_does_not_close(self):
        """Steady-state recovery must go through the half-open trial
        (only reset() may shortcut, for startup races)."""
        breaker, _ = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        breaker.record_success()
        assert breaker.state is CircuitState.OPEN


class TestReset:
    def test_reset_closes_from_open_and_records_transition(self):
        breaker, _ = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        breaker.reset("startup probe succeeded")
        assert breaker.state is CircuitState.CLOSED
        assert breaker.transitions[-1]["reason"] == "startup probe succeeded"

    def test_reset_when_closed_records_nothing(self):
        breaker, _ = make_breaker()
        breaker.reset()
        assert breaker.transitions == []


class TestSnapshot:
    def test_snapshot_is_json_able_and_complete(self):
        import json

        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        breaker.allow()
        breaker.record_success()
        snap = breaker.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["state"] == "closed"
        assert snap["failures"] == 3
        assert snap["successes"] == 1
        assert snap["opened"] == 1
        assert len(snap["transitions"]) == 3
