"""Persistent on-disk result cache keyed by run-content hashes.

A :class:`RunKey` names one cell of the experiment matrix.  Its cache
identity is a SHA-256 over the *content* of the cell — benchmark,
prefetcher, scale and every field of the :class:`~repro.config.GPUConfig`
(enums flattened to their values) — so two configs that compare equal
always hash equal, regardless of how they were constructed, and any
config change (a cache knob, a scheduler, a queue depth) produces a new
cache entry instead of silently reusing a stale one.

Layout::

    .repro-cache/
      v3/                      # bumping CACHE_SCHEMA_VERSION retires
        <key-hash>.json        # every old entry wholesale
        ...

Each entry embeds the key description and the config hash it was
computed under; :meth:`ResultCache.get` re-derives the hash and treats
any mismatch (or unreadable/corrupt/truncated file) as a miss, logging
and deleting the bad entry — a mangled cache can degrade a sweep to
re-simulation but can never poison it or crash it.  Writes are atomic
(temp file + ``os.replace``) so a killed sweep can never leave a
half-written entry behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import logging
import os
import pathlib
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional

from repro.config import GPUConfig, SchedulerKind, small_config
from repro.exec import DEFAULT_CACHE_DIR
from repro.prefetch.factory import default_scheduler_for
from repro.result import SimResult, deserialize_result, serialize_result
from repro.workloads.base import Scale

log = logging.getLogger(__name__)

#: Bump whenever the serialized form of SimResult (or the key content
#: that feeds the hash) changes incompatibly; old entries are ignored.
#: v2: GPUConfig grew the guard knobs (hang_cycles, deep_checks) and
#: SimResult.extra may hold structured snapshots.
#: v3: GPUConfig grew the observability knobs (obs.*) and SimResult.extra
#: may hold timeseries/trace/profile payloads (see repro.obs).
#: v4: GPUConfig grew the concurrent-kernel knobs (multi.*), RunKey
#: benchmarks may be co-run pairs ("A+B") and SimResult.extra may hold
#: per-kernel sub-records — single-kernel v3 entries must never be
#: served for a co-run request (or vice versa).
#: v5: a co-run's per-kernel records shrank to name, CTA counts and
#: finish cycle.
CACHE_SCHEMA_VERSION = 5


@dataclass(frozen=True)
class RunKey:
    """One cell of the (benchmark × prefetcher × scale × config) matrix."""

    benchmark: str
    prefetcher: str
    scale: Scale
    config: GPUConfig

    def describe(self) -> str:
        """Short human-readable cell label for logs and errors."""
        return (f"{self.benchmark}/{self.prefetcher}"
                f"@{self.scale.value}/{self.config.scheduler.value}")


def make_key(
    benchmark: str,
    prefetcher: str = "none",
    *,
    config: Optional[GPUConfig] = None,
    scale: Scale = Scale.SMALL,
    scheduler: Optional[SchedulerKind] = None,
) -> RunKey:
    """Resolve defaults into the canonical :class:`RunKey` for one cell.

    The one place a cell is named: the serial driver, the CLI and the
    serve protocol all come through here, so equivalent requests share
    one cache cell.  ``benchmark`` may be a single abbreviation or a
    ``"A+B"`` co-run pair; either form is canonicalized (uppercased,
    aliases resolved).  The scheduler defaults to the engine's Figure 10
    pairing.  The co-run allocation policy travels inside the config
    (``config.multi``) and is folded into the cache fingerprint with
    every other config field.
    """
    from repro.workloads.suite import normalize_benchmark

    cfg = config if config is not None else small_config()
    kind = scheduler if scheduler is not None else default_scheduler_for(prefetcher)
    if cfg.scheduler is not kind:   # configs are frozen: reuse, don't copy
        cfg = cfg.with_scheduler(kind)
    return RunKey(normalize_benchmark(benchmark), prefetcher, scale, cfg)


def _jsonify(obj: Any) -> Any:
    """Recursively flatten dataclasses/enums into JSON-encodable values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonify(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _canonical(obj: Any) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=None)
def config_fingerprint(config: GPUConfig) -> str:
    """Stable content hash of every field of a :class:`GPUConfig`."""
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def key_fingerprint(key: RunKey) -> str:
    """Stable content hash identifying one cache entry."""
    payload = _canonical({
        "schema": CACHE_SCHEMA_VERSION,
        "benchmark": key.benchmark,
        "prefetcher": key.prefetcher,
        "scale": key.scale.value,
        "config": config_fingerprint(key.config),
    })
    return hashlib.sha256(payload.encode()).hexdigest()


def result_bytes(result: SimResult) -> bytes:
    """Canonical byte serialization (the determinism-test currency)."""
    return _canonical(serialize_result(result)).encode()


class ResultCache:
    """Persistent :class:`RunKey` → :class:`SimResult` cache.

    ``hits``/``misses``/``invalidated`` count lookups since construction
    (telemetry and tests read them).
    """

    def __init__(self, root: Any = DEFAULT_CACHE_DIR, faults: Any = None):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        # Chaos hook: a FaultPlan with corrupt_cache_rate > 0 truncates
        # a seeded fraction of entries right after they are written,
        # exercising the corrupt-entry-as-miss path end to end.
        self._fault_plan = faults
        self._fault_rng = (faults.stream("cache")
                           if faults is not None else None)

    @property
    def version_dir(self) -> pathlib.Path:
        """Schema-versioned subdirectory holding the cached cells."""
        return self.root / f"v{CACHE_SCHEMA_VERSION}"

    def path_for(self, key: RunKey) -> pathlib.Path:
        """On-disk path of the cache entry for ``key``."""
        return self.version_dir / f"{key_fingerprint(key)}.json"

    def _entry_paths(self):
        """Paths of every entry of the current schema (none when the
        cache directory does not exist yet)."""
        return self.version_dir.glob("*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def get(self, key: RunKey) -> Optional[SimResult]:
        """Load a cached result, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._invalidate(path, "unreadable or truncated entry")
            return None
        if not isinstance(payload, dict):
            self._invalidate(path, "entry is not a JSON object")
            return None
        entry_key = payload.get("key", {})
        if not isinstance(entry_key, dict):
            self._invalidate(path, "malformed key block")
            return None
        if (payload.get("schema") != CACHE_SCHEMA_VERSION
                or entry_key.get("config_hash")
                != config_fingerprint(key.config)):
            self._invalidate(path, "schema or config-hash mismatch")
            return None
        try:
            result = deserialize_result(payload["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            self._invalidate(path, "undeserializable result payload")
            return None
        self.hits += 1
        return result

    def _invalidate(self, path: pathlib.Path, reason: str) -> None:
        self.misses += 1
        self.invalidated += 1
        log.warning("evicting corrupt cache entry %s: %s", path.name, reason)
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: RunKey, result: SimResult) -> pathlib.Path:
        """Atomically persist ``result``; returns the entry path."""
        path = self.path_for(key)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": {
                "benchmark": key.benchmark,
                "prefetcher": key.prefetcher,
                "scale": key.scale.value,
                "scheduler": key.config.scheduler.value,
                "config_hash": config_fingerprint(key.config),
            },
            "result": serialize_result(result),
        }
        text = json.dumps(payload, indent=1)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        try:
            try:
                tmp.write_text(text)
            except FileNotFoundError:
                # The first put of a fresh cache, or the directory was
                # removed underneath us: make it and write again.
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_text(text)
            os.replace(tmp, path)
        except BaseException:
            # Best effort: the error being raised is the write's, never
            # a cleanup's (an unwritable root fails the unlink too).
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        if (self._fault_rng is not None
                and self._fault_plan.should_corrupt_cache(self._fault_rng)):
            # Truncate mid-payload: a syntactically broken entry that the
            # next get() must evict and treat as a miss.
            data = path.read_text()
            path.write_text(data[: max(1, len(data) // 3)])
        return path

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the count."""
        removed = 0
        for p in self._entry_paths():
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -------------------------------------------------------- maintenance
    def entries(self) -> List["CacheEntryInfo"]:
        """Stat every entry of the current schema (oldest first).

        Entries that vanish mid-scan (a concurrent gc or clear) are
        skipped rather than raised.
        """
        out: List[CacheEntryInfo] = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append(CacheEntryInfo(path=path, size_bytes=stat.st_size,
                                      mtime=stat.st_mtime))
        out.sort(key=lambda e: (e.mtime, e.path.name))
        return out

    def disk_stats(self) -> Dict[str, Any]:
        """On-disk usage summary (the ``repro cache stats`` payload)."""
        entries = self.entries()
        total = sum(e.size_bytes for e in entries)
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA_VERSION,
            "entries": len(entries),
            "total_bytes": total,
            "oldest_mtime": entries[0].mtime if entries else None,
            "newest_mtime": entries[-1].mtime if entries else None,
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
        }

    def gc(self, max_bytes: Optional[int] = None,
           older_than_s: Optional[float] = None,
           now: Optional[float] = None) -> "GCReport":
        """Evict entries by age and/or total size; returns a report.

        Two independent policies, applied in order:

        1. ``older_than_s`` — delete every entry whose mtime is older
           than ``now - older_than_s``.  Entries at or newer than the
           cutoff are **never** deleted by this pass, regardless of
           size pressure from the second pass being disabled.
        2. ``max_bytes`` — delete oldest-first until the surviving
           total is at or under the budget.

        Each eviction is a single atomic ``unlink``; a reader racing a
        gc sees either the complete entry or a miss, never a torn file.
        Entries that disappear mid-gc (concurrent maintenance) are
        counted as already gone.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0 (got {max_bytes})")
        if older_than_s is not None and older_than_s < 0:
            raise ValueError(
                f"older_than_s must be >= 0 (got {older_than_s})")
        moment = time.time() if now is None else now
        entries = self.entries()
        removed: List[CacheEntryInfo] = []
        kept: List[CacheEntryInfo] = []
        if older_than_s is not None:
            cutoff = moment - older_than_s
            for entry in entries:
                if entry.mtime < cutoff:
                    removed.append(entry)
                else:
                    kept.append(entry)
        else:
            kept = list(entries)
        if max_bytes is not None:
            total = sum(e.size_bytes for e in kept)
            survivors: List[CacheEntryInfo] = []
            for i, entry in enumerate(kept):  # oldest first
                if total > max_bytes:
                    removed.append(entry)
                    total -= entry.size_bytes
                else:
                    survivors.extend(kept[i:])
                    break
            kept = survivors
        for entry in removed:
            try:
                entry.path.unlink()
            except OSError:
                pass
        return GCReport(
            removed=len(removed),
            removed_bytes=sum(e.size_bytes for e in removed),
            kept=len(kept),
            kept_bytes=sum(e.size_bytes for e in kept),
        )


@dataclass(frozen=True)
class CacheEntryInfo:
    """Stat record of one on-disk cache entry."""

    path: pathlib.Path
    size_bytes: int
    mtime: float


@dataclass(frozen=True)
class GCReport:
    """Outcome of one :meth:`ResultCache.gc` pass."""

    removed: int
    removed_bytes: int
    kept: int
    kept_bytes: int
