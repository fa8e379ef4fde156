"""`repro request` hardening: retry policy wiring and exit codes.

The CLI must retry transient failures (3 attempts with backoff by
default) before conceding exit code 5, and ``--retries 1`` must disable
retrying entirely.  The fake client records what the CLI built so the
wiring — not just the outcome — is asserted.
"""

import asyncio

import pytest

import repro.serve.client as client_module
from repro.cli import EXIT_OK, EXIT_UNAVAILABLE, build_parser, main
from repro.serve.retry import RetryPolicy


class FakeServeClient:
    """Stands in for ServeClient; records ctor args, scripts outcomes."""

    built = []
    ping_outcomes = []

    def __init__(self, socket_path=None, host=None, port=None,
                 timeout=None, connect_timeout=None, retry=None):
        self.socket_path = socket_path
        self.retry = retry
        self.attempts = 0
        FakeServeClient.built.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def ping(self):
        async def attempt():
            self.attempts += 1
            outcome = FakeServeClient.ping_outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        async def no_wait(_delay):
            pass

        if self.retry is None:
            return asyncio.run(attempt())
        return asyncio.run(self.retry.acall(attempt, sleep=no_wait))


@pytest.fixture
def fake_client(monkeypatch):
    FakeServeClient.built = []
    FakeServeClient.ping_outcomes = []
    monkeypatch.setattr(client_module, "ServeClient", FakeServeClient)
    return FakeServeClient


class TestParserDefaults:
    def test_request_defaults_to_three_attempts(self):
        args = build_parser().parse_args(
            ["request", "--ping", "--socket", "/tmp/x.sock"])
        assert args.retries == 3

    def test_retries_below_one_is_rejected(self, fake_client):
        with pytest.raises(SystemExit):
            main(["request", "--ping", "--socket", "/tmp/x.sock",
                  "--retries", "0"])


class TestRetryWiring:
    def test_default_builds_a_three_attempt_policy(self, fake_client):
        fake_client.ping_outcomes = [True]
        assert main(["request", "--ping",
                     "--socket", "/tmp/x.sock"]) == EXIT_OK
        (client,) = fake_client.built
        assert isinstance(client.retry, RetryPolicy)
        assert client.retry.attempts == 3

    def test_retries_one_disables_the_policy(self, fake_client):
        fake_client.ping_outcomes = [True]
        assert main(["request", "--ping", "--socket", "/tmp/x.sock",
                     "--retries", "1"]) == EXIT_OK
        (client,) = fake_client.built
        assert client.retry is None


class TestOutcomes:
    def test_transient_failures_then_success(self, fake_client):
        """Two connection refusals then a pong: exit 0, three attempts."""
        fake_client.ping_outcomes = [
            ConnectionRefusedError("booting"),
            ConnectionRefusedError("still booting"),
            True,
        ]
        assert main(["request", "--ping",
                     "--socket", "/tmp/x.sock"]) == EXIT_OK
        assert fake_client.built[0].attempts == 3

    def test_exhaustion_exits_unavailable_after_all_attempts(
            self, fake_client):
        fake_client.ping_outcomes = [ConnectionRefusedError("down")] * 3
        assert main(["request", "--ping",
                     "--socket", "/tmp/x.sock"]) == EXIT_UNAVAILABLE
        assert fake_client.built[0].attempts == 3

    def test_single_attempt_exits_immediately(self, fake_client):
        fake_client.ping_outcomes = [ConnectionRefusedError("down"), True]
        assert main(["request", "--ping", "--socket", "/tmp/x.sock",
                     "--retries", "1"]) == EXIT_UNAVAILABLE
        assert fake_client.built[0].attempts == 1
