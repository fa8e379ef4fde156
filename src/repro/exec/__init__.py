"""Parallel experiment-execution engine with a persistent result cache.

Every figure of the paper is a view over the same
(benchmark × prefetcher × scale × config) simulation matrix, so the
execution layer is factored out of the analysis code:

* :mod:`repro.exec.cache` — :class:`RunKey` (one cell of the matrix),
  stable content hashing of :class:`repro.config.GPUConfig`, lossless
  JSON serialization of :class:`repro.sim.gpu.SimResult`, and the
  on-disk :class:`ResultCache` under ``.repro-cache/``;
* :mod:`repro.exec.events` — the progress/telemetry event stream
  (queued / started / cache_hit / finished / retry / failed) with a
  JSONL sink and a TTY renderer;
* :mod:`repro.exec.runner` — :class:`ExecutionEngine`, which executes
  cells serially or on a spawn-safe process pool with per-task timeout
  and classification-aware bounded retry — one batch loop,
  ``run_recorded``, which records failures; ``run_many`` is the same
  loop with a callback that raises on the first one;
* :mod:`repro.exec.journal` — :class:`SweepJournal`, the crash-safe
  per-cell completion record that ``repro sweep --resume`` replays.

See ``docs/execution.md`` and ``docs/robustness.md`` for the design.
"""

from repro.errors import IncompleteRunError
from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    CacheEntryInfo,
    GCReport,
    ResultCache,
    RunKey,
    config_fingerprint,
    deserialize_result,
    key_fingerprint,
    result_bytes,
    serialize_result,
)
from repro.exec.events import (
    EventLog,
    ExecEvent,
    JSONLSink,
    TTYProgress,
    read_events,
)
from repro.exec.journal import SweepJournal, sweep_id
from repro.exec.runner import (
    CellError,
    CellFailure,
    CellTimeout,
    ExecutionEngine,
    execute_cell,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "RunKey",
    "config_fingerprint",
    "deserialize_result",
    "key_fingerprint",
    "serialize_result",
    "CacheEntryInfo",
    "GCReport",
    "result_bytes",
    "EventLog",
    "ExecEvent",
    "JSONLSink",
    "TTYProgress",
    "read_events",
    "CellError",
    "CellFailure",
    "CellTimeout",
    "ExecutionEngine",
    "IncompleteRunError",
    "SweepJournal",
    "sweep_id",
    "execute_cell",
]
