"""Shared plumbing of the perfbench workloads.

Everything here is measurement machinery that knows nothing about a
particular workload: the in-memory span tracer, the summary
statistics the metrics are built from, the operation ledger behind
``attempted``/``failed``, the calibration spin, and the one temp root
all sockets, caches and outputs of a run live under.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout this benchmark sits in (``perfbench/`` is one level down).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every run's sockets, caches and outputs live under one directory
#: below this one.  It is inside the checkout because the benchmark may
#: not write outside it, and relative paths to it stay short enough for
#: ``AF_UNIX`` (108 bytes) wherever the checkout itself is mounted.
TMP_PARENT = ROOT / ".perfbench-tmp"

NPROC = os.cpu_count() or 1


class ServerStartError(RuntimeError):
    """A served process never became ready; carries its stderr tail."""


# ------------------------------------------------------------ statistics
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _rank(n: int, p: float) -> int:
    """Index of the nearest-rank ``p``-th percentile among ``n`` sorted
    samples."""
    return max(0, min(n - 1, int(round(p / 100.0 * (n - 1)))))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in [0, 100]."""
    return sorted(values)[_rank(len(values), p)]


#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(p, value)`` for the highest percentile of ``values`` that
    still has at least ten samples beyond it; ``(100, max)`` when not
    even the median has."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - 1 - _rank(n, p) >= 10:
            return p, percentile(values, p)
    return 100.0, max(values)


def summary(values: Sequence[float]) -> str:
    """``best / median / IQR (n)`` of a list of seconds, for the table."""
    return (f"best {min(values):.4f}s  median {median(values):.4f}s  "
            f"IQR {iqr(values):.4f}s  n={len(values)}")


# -------------------------------------------------------------- ledger
class Ledger:
    """Counts operations attempted and failed, and why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, condition: bool, problem: str) -> bool:
        """One correctness check: an attempted operation that fails
        when ``condition`` is false."""
        if condition:
            self.attempted += 1
        else:
            self.fail(problem)
        return condition


# -------------------------------------------------------------- tracer
class Tracer:
    """In-memory spans, recorded from perfbench only.

    A span is ``{id, parent, name, start, end, attrs}`` with times in
    seconds since the tracer was created.  ``span()`` nests by a stack
    (single-threaded callers); concurrent callers pass ``parent``
    explicitly to :meth:`record`.  A disabled tracer records nothing
    and wraps nothing, so untraced runs execute the unmodified program.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._origin = time.perf_counter()
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, **attrs: Any) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "parent": parent, "name": name,
            "start": start - self._origin, "end": end - self._origin,
            "attrs": attrs,
        })
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        span_id = self.record(name, time.perf_counter(), 0.0,
                              self._stack[-1] if self._stack else None,
                              **attrs)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.perf_counter() - self._origin

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a version that records a span
        around every call, until :meth:`unwrap_all`."""
        if not self.enabled:
            return
        original = getattr(owner, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span's duration minus the part
        its direct children cover."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0)
                    + span["end"] - span["start"])
        out: Dict[str, float] = {}
        for span in self.spans:
            own = (span["end"] - span["start"]
                   - child_time.get(span["id"], 0.0))
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out


# ---------------------------------------------------------- environment
def spin_kloops_per_s(loops: int = 100_000, rounds: int = 7) -> float:
    """Fixed pure-Python spin, best of ``rounds``: a reading of how fast
    this host runs interpreter bytecode right now."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i & 3
        best = min(best, time.perf_counter() - start)
    return loops / best / 1000.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment of every child process: ``PYTHONPATH=src`` so it
    imports this checkout's program, temp files under the run's root."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{SRC}{os.pathsep}{inherited}" if inherited
                         else str(SRC))
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv: Sequence[str], tmp: Path, ledger: Ledger,
              what: str, cwd: Optional[str] = None, timeout: float = 120.0
              ) -> Tuple[float, subprocess.CompletedProcess]:
    """Run ``python <argv>`` to completion (in ``tmp`` unless ``cwd`` is
    given); returns its wall time and the completed process.  A non-zero
    exit is a failed op."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=cwd or tmp,
                          env=child_env(tmp), capture_output=True,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - start
    ledger.check(done.returncode == 0,
                 f"{what}: exit {done.returncode}: {done.stderr[-300:]}")
    return wall, done


# ------------------------------------------------- descendant processes
#: How long descendants get to end on their own before they are killed.
REAP_GRACE_S = 10.0

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the one orphaned descendants are handed to.

    ``repro figures`` and ``repro serve`` run their cells in spawn pools,
    and every spawn pool comes with a ``multiprocessing`` resource
    tracker that outlives the process that started it by a moment.
    Handed to this process rather than to init, such a straggler is one
    :func:`reap_descendants` can wait for.  False where the kernel has
    no such call."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..."; comm may itself hold ") ".
        if int(stat.rpartition(") ")[2].split()[1]) == me:
            out.append(int(entry))
    return out


def reap_descendants(grace_s: float = REAP_GRACE_S) -> int:
    """Wait until no child of this process, started or adopted, is left;
    returns how many had to be killed because they outstayed ``grace_s``.

    This process's own resource tracker (the traced probes run spawn
    pools in-process) only ends when told to, so it is stopped first."""
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker,
                                                              "_stop"):
        tracker._stop()
    killed = 0
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.005)
            continue
        # Their own children are handed to us as they die, and the loop
        # meets them on its next turn.
        for child in _children():
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
                killed += 1
        with contextlib.suppress(ChildProcessError):
            os.waitpid(-1, 0)


@contextlib.contextmanager
def temp_root() -> Iterator[Path]:
    """The one directory a run writes to; removed on every exit path."""
    TMP_PARENT.mkdir(exist_ok=True)
    root = TMP_PARENT / f"run-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()  # only when no concurrent run is using it


def short_path(path: Path) -> str:
    """``path`` relative to the working directory when that is shorter
    (Unix socket paths are limited to ~108 bytes)."""
    relative = os.path.relpath(path)
    return relative if len(relative) < len(str(path)) else str(path)
