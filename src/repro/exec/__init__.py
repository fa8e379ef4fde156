"""Parallel experiment-execution engine with a persistent result cache.

Every figure of the paper is a view over the same
(benchmark × prefetcher × scale × config) simulation matrix, so the
execution layer is factored out of the analysis code:

* :mod:`repro.exec.cache` — :class:`RunKey` (one cell of the matrix),
  stable content hashing of :class:`repro.config.GPUConfig`, lossless
  JSON serialization of :class:`repro.result.SimResult`, and the
  on-disk :class:`ResultCache` under ``.repro-cache/``;
* :mod:`repro.exec.events` — the progress/telemetry event stream
  (queued / started / cache_hit / finished / retry / failed) with a
  JSONL sink and a TTY renderer;
* :mod:`repro.exec.memo` — :class:`ResultMemo`, the one in-memory
  result tier (unbounded for the CLI, a bounded LRU under a server);
* :mod:`repro.exec.runner` — :class:`ExecutionEngine`, which executes
  cells serially or on a process pool (forked from a single-threaded
  main thread, spawned from any other caller) with per-task timeout
  and classification-aware bounded retry — one batch loop,
  ``run_recorded``, which records failures; ``run_many`` is the same
  loop with a callback that raises on the first one.

The result cache is also the only record of a finished cell: a result
is stored the moment its cell succeeds, so re-running a killed
``repro sweep --cache DIR`` simulates only the cells that had not
finished.

See ``docs/execution.md`` and ``docs/robustness.md`` for the design.
"""

from repro._lazy import lazy_exports

#: Where ``--cache`` and :class:`ResultCache` persist unless told
#: otherwise.  Defined here, not in a submodule, so an argument parser
#: can name the default without importing the cache.
DEFAULT_CACHE_DIR = ".repro-cache"

_EXPORTS = {
    "repro.errors": ("CellError", "IncompleteRunError"),
    "repro.exec.cache": (
        "CACHE_SCHEMA_VERSION",
        "CacheEntryInfo",
        "GCReport",
        "ResultCache",
        "RunKey",
        "config_fingerprint",
        "key_fingerprint",
        "make_key",
        "result_bytes",
    ),
    "repro.result": ("deserialize_result", "serialize_result"),
    "repro.exec.events": (
        "EventLog",
        "ExecEvent",
        "JSONLSink",
        "TTYProgress",
        "read_events",
    ),
    "repro.exec.memo": ("MemoEntry", "ResultMemo"),
    "repro.exec.runner": (
        "CellFailure",
        "CellTimeout",
        "ExecutionEngine",
        "execute_cell",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
__all__.append("DEFAULT_CACHE_DIR")
