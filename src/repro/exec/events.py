"""Progress/telemetry event stream for the execution engine.

Every state transition of a matrix cell emits one :class:`ExecEvent`:

``queued``
    the cell was accepted for execution (not served from cache);
``started``
    a simulation for the cell began (on a worker or inline) — the count
    of ``started`` events is therefore the number of simulations a run
    actually performed, which is what the warm-cache acceptance check
    asserts is zero;
``cache_hit``
    the cell was served from the in-process memo or the persistent
    cache (``detail`` says which);
``finished``
    the simulation completed (``wall_s`` holds the cell's run time,
    measured where it ran: a pooled cell's wait in the queue is not in
    it, so the sum over a batch is at most ``jobs`` × the batch's wall);
``retry``
    the attempt failed and the cell was resubmitted (``wall_s``: how
    long the attempt ran, 0 when its worker died before reporting);
``failed``
    the cell failed after its retry budget was exhausted.

:class:`EventLog` records events in order and fans them out to
subscribers; :class:`JSONLSink` appends them to a JSON-lines file and
:class:`TTYProgress` renders a one-line-per-cell progress view.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, List

EVENT_KINDS = ("queued", "started", "cache_hit", "finished", "retry",
               "failed")


@dataclass(frozen=True)
class ExecEvent:
    """One state transition of one matrix cell."""

    kind: str
    cell: str           #: e.g. ``CNV/caps@small/pas``
    config_hash: str    #: short config fingerprint
    seq: int            #: monotonic per-log sequence number
    ts: float           #: wall-clock timestamp (time.time())
    attempt: int = 1
    wall_s: float = 0.0
    error: str = ""
    detail: str = ""    #: e.g. cache_hit source ("memo" / "disk")


class EventLog:
    """Ordered in-memory event record with subscriber fan-out."""

    def __init__(self):
        self.events: List[ExecEvent] = []
        self._subscribers: List[Callable[[ExecEvent], None]] = []
        self._seq = 0

    def subscribe(self, fn: Callable[[ExecEvent], None]) -> None:
        """Register a callback invoked for every emitted event."""
        self._subscribers.append(fn)

    def emit(self, kind: str, cell: str, config_hash: str = "", *,
             attempt: int = 1, wall_s: float = 0.0, error: str = "",
             detail: str = "") -> ExecEvent:
        """Record an event and fan it out to subscribers."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = ExecEvent(
            kind=kind, cell=cell, config_hash=config_hash, seq=self._seq,
            ts=time.time(), attempt=attempt, wall_s=wall_s, error=error,
            detail=detail,
        )
        self._seq += 1
        self.events.append(event)
        for fn in self._subscribers:
            fn(event)
        return event

    # ---------------------------------------------------------- queries
    def count(self, kind: str) -> int:
        """Number of recorded events of ``kind``."""
        return sum(1 for e in self.events if e.kind == kind)

    def cells(self, kind: str) -> List[str]:
        """Cell labels of every recorded event of ``kind``."""
        return [e.cell for e in self.events if e.kind == kind]

    def simulations(self) -> int:
        """Number of simulations actually performed (``started`` events)."""
        return self.count("started")

    def total_wall(self) -> float:
        """Summed per-cell wall time of completed simulations."""
        return sum(e.wall_s for e in self.events if e.kind == "finished")


class JSONLSink:
    """Append events to a JSON-lines telemetry file.

    Crash-durability contract: every event is written as one line and
    flushed immediately, and :meth:`close` fsyncs before closing — a
    killed server or worker leaves a log whose every complete line
    parses, losing at most the line being written at the instant of
    death.  :func:`read_events` is the matching tolerant reader.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")

    def __call__(self, event: ExecEvent) -> None:
        self._fh.write(json.dumps(asdict(event), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Flush, fsync and close the underlying JSONL file."""
        if self._fh.closed:
            return
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - e.g. a pipe target
            pass
        self._fh.close()


def read_events(path) -> List[ExecEvent]:
    """Parse a JSONL event log, tolerating a torn trailing line.

    The sink flushes per event, so a crash can only tear the *final*
    line; a truncated tail is silently dropped.  A malformed line
    anywhere else means the file is not a sink-written log (or was
    corrupted in place) and raises :class:`ValueError`.
    """
    events: List[ExecEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            events.append(ExecEvent(**payload))
        except (json.JSONDecodeError, TypeError) as exc:
            if lineno == len(lines) - 1:
                break  # torn tail from a kill mid-write
            raise ValueError(
                f"{path}: malformed event on line {lineno + 1}: {exc}"
            ) from exc
    return events


class TTYProgress:
    """One line per completed cell: ``[done/total] cell: status``."""

    _TERMINAL = ("finished", "cache_hit", "failed")

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.done = 0

    def __call__(self, event: ExecEvent) -> None:
        if event.kind == "queued":
            self.total += 1
            return
        if event.kind == "cache_hit":
            self.total += 1
        elif event.kind == "retry":
            print(f"  retry {event.cell} (attempt {event.attempt} "
                  f"failed: {event.error})", file=self.stream)
            return
        if event.kind not in self._TERMINAL:
            return
        self.done += 1
        if event.kind == "finished":
            status = f"{event.wall_s:.2f}s"
        elif event.kind == "cache_hit":
            status = f"cached ({event.detail})"
        else:
            status = f"FAILED: {event.error}"
        total = max(self.total, self.done)
        print(f"[{self.done:>3}/{total:>3}] {event.cell}: {status}",
              file=self.stream)
