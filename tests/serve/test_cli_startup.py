"""`repro serve` / `repro fleet` that cannot start exit at once.

Each case runs the real CLI in a subprocess under a timeout.  A knob a
serve component rejects is a configuration error (exit 2, one line); an
endpoint the listener cannot bind is one ``cannot listen on`` line and
exit 1.  Neither leaves a process waiting forever on a listener that
died before it was ready, and neither prints a traceback.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import EXIT_CONFIG, EXIT_FAIL

SRC = pathlib.Path(repro.__file__).resolve().parent.parent


def repro_cli(tmp_path, *argv):
    """Run ``python -m repro *argv`` in ``tmp_path``; fail on a hang."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--no-disk-cache"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def assert_one_line(proc, exit_code, prefix):
    assert proc.returncode == exit_code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr


@pytest.mark.parametrize("knob", [
    ("--queue-limit", "0"),
    ("--batch-max", "0"),
    ("--memcache-entries", "-5"),
], ids=lambda knob: knob[0])
def test_rejected_serve_knob_is_a_configuration_error(tmp_path, knob):
    proc = repro_cli(tmp_path, "serve", "--socket", str(tmp_path / "s.sock"),
                     *knob)
    assert_one_line(proc, EXIT_CONFIG, "configuration error: ")
    assert not (tmp_path / "s.sock").exists()


@pytest.mark.parametrize("knob", [
    ("--reset-timeout", "-1"),
    ("--restart-budget", "-1"),
    ("--chaos-slow-rate", "2"),
    ("--chaos-kill-backend", "5", "--chaos-kill-after", "1"),
    ("--chaos-kill-backend", "0"),
], ids=["--reset-timeout", "--restart-budget", "--chaos-slow-rate",
        "kill-past-the-fleet", "kill-never-fires"])
def test_rejected_fleet_knob_is_a_configuration_error(tmp_path, knob):
    """Includes chaos knobs that could never fire: a kill aimed past the
    one backend, or a kill with no request to count down to."""
    proc = repro_cli(tmp_path, "fleet", "--backends", "1",
                     "--runtime-dir", str(tmp_path / "rt"), *knob)
    assert_one_line(proc, EXIT_CONFIG, "configuration error: ")
    assert not any((tmp_path / "rt").glob("*.sock"))


@pytest.mark.parametrize("command, endpoint", [
    (("serve", "--port", "70000"), "tcp:127.0.0.1:70000"),
    (("serve", "--socket", "{tmp}/missing/s.sock"), "unix:{tmp}/missing/s.sock"),
    (("fleet", "--backends", "1", "--runtime-dir", "{tmp}/rt",
      "--socket", "{tmp}/missing/r.sock"), "unix:{tmp}/missing/r.sock"),
], ids=["serve-port", "serve-socket-dir", "fleet-socket-dir"])
def test_unbindable_endpoint_is_one_line(tmp_path, command, endpoint):
    """The fleet case also drains the backend it spawned before the
    router's bind failed: an orphan would keep the CLI from exiting."""
    proc = repro_cli(tmp_path, *(arg.format(tmp=tmp_path) for arg in command))
    assert_one_line(proc, EXIT_FAIL, f"repro {command[0]}: cannot listen on "
                    f"{endpoint.format(tmp=tmp_path)}: ")
