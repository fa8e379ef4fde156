"""The gate the serve tests hold an engine's batches with.

A test that needs cells to stay queued holds the batch ahead of them at
a :class:`Gate` for exactly as long as it needs, whatever a simulation
or a timer takes.  ``tests/serve/test_scheduler.py::FakeEngine`` builds
on it with canned results; :class:`EngineGate` puts it in front of a
real :class:`~repro.exec.runner.ExecutionEngine` so results stay real.
"""

import asyncio
import threading


class Gate:
    """``hold()`` blocks the calling (executor) thread while ``blocking``."""

    def __init__(self, blocking=False):
        self.blocking = blocking
        self.entered = threading.Event()
        self.release = threading.Event()

    def hold(self):
        if self.blocking:
            self.entered.set()
            if not self.release.wait(timeout=30):
                raise RuntimeError("test gate never released")

    def open(self):
        """Let the held batch, and every later one, run."""
        self.blocking = False
        self.release.set()


class EngineGate(Gate):
    """Installed over ``engine.run_recorded``; starts closed."""

    def __init__(self, engine):
        super().__init__(blocking=True)
        self._run_recorded = engine.run_recorded
        engine.run_recorded = self.run_recorded

    def run_recorded(self, keys, use_cache=True, on_complete=None):
        self.hold()
        return self._run_recorded(keys, use_cache, on_complete=on_complete)


async def wait_for_gate(event):
    """Block the test coroutine (not the loop) on a threading.Event."""
    entered = await asyncio.get_running_loop().run_in_executor(
        None, event.wait, 5)
    assert entered, "dispatch gate was never entered"
