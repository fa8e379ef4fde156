"""Request-stream pattern miner: finds sweep-shaped request sequences.

CAP infers the addresses warps will need from the strides earlier CTAs
exhibited; this miner applies the same discipline one layer up.  The
serve tier's request stream is a sequence of cells — benchmark, engine,
scale, preset, scheduler plus config overrides (the exact coordinates
:func:`repro.serve.protocol.request_to_key` resolves) — and a client
replaying a parameter sweep steps exactly one numeric config knob by a
constant stride while everything else stays fixed.  After ``min_run``
consecutive same-stride steps the miner extrapolates the next ``depth``
values and emits them as :class:`Prediction` objects for the
speculative dispatcher.

Structure mirrors the paper's per-CTA stride tables (and their
``MISPRED_THRESH`` mute counter, SNIPPETS.md):

* requests group by their **base signature** — (benchmark, engine,
  scale, preset, scheduler) — into a bounded table of ``max_groups``
  groups, least-recently-seen evicted first, so interleaved sweeps
  over different benchmarks track independently and the table cannot
  grow without bound;
* each group remembers its last override vector and the current run
  (knob, stride, length); a step that changes zero knobs is neutral, a
  step that changes more than one (or a non-numeric one) resets the
  run;
* groups whose predictions keep expiring unconfirmed accumulate
  mispredictions and are **muted** past ``mispredict_limit`` — an
  adversarial or random client stops costing speculative work.

The miner is pure bookkeeping: no asyncio, no engine — the speculative
dispatcher (:mod:`repro.serve.predict.speculator`) owns the racy parts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.config import DEFAULT_DEPTH, DEFAULT_MIN_RUN, DEFAULT_MISPREDICT_LIMIT
from repro.errors import ConfigError

#: Default bound on concurrently-tracked base signatures.
DEFAULT_MAX_GROUPS = 32


def flatten_overrides(overrides: Dict[str, Any],
                      prefix: str = "") -> Dict[str, Any]:
    """Flatten a nested override dict to dotted-path leaves.

    ``{"prefetch": {"prefetch_window": 8}}`` becomes
    ``{"prefetch.prefetch_window": 8}`` — the same dotted syntax the
    ``repro request --override`` CLI flag speaks.
    """
    flat: Dict[str, Any] = {}
    for name, value in overrides.items():
        path = f"{prefix}{name}"
        if isinstance(value, dict):
            flat.update(flatten_overrides(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def unflatten_overrides(flat: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild the nested override dict from dotted-path leaves."""
    nested: Dict[str, Any] = {}
    for path, value in flat.items():
        parts = path.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return nested


def _is_steppable(value: Any) -> bool:
    """True for values a sweep can step: real numbers, not booleans."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CellSpec:
    """Wire-level coordinates of one simulate request.

    Everything is kept in its wire form (strings, flattened override
    leaves) so specs hash and compare structurally without resolving
    configs; :meth:`repro.serve.predict.speculator.Predictor` converts
    a predicted spec back into a protocol request when it speculates.
    """

    benchmark: str
    engine: str
    scale: str
    preset: str
    scheduler: Optional[str]
    overrides: Tuple[Tuple[str, Any], ...]

    @classmethod
    def from_request(cls, request) -> "CellSpec":
        """Build a spec from a validated :class:`protocol.Request`."""
        flat = flatten_overrides(request.overrides)
        return cls(
            benchmark=request.benchmark,
            engine=request.engine,
            scale=request.scale.value,
            preset=request.preset,
            scheduler=(request.scheduler.value
                       if request.scheduler is not None else None),
            overrides=tuple(sorted(flat.items())),
        )

    @property
    def signature(self) -> Tuple:
        """Group identity: every coordinate except the override vector."""
        return (self.benchmark, self.engine, self.scale, self.preset,
                self.scheduler)

    def override_map(self) -> Dict[str, Any]:
        """The flattened override vector as a plain dict."""
        return dict(self.overrides)

    def with_override(self, knob: str, value: Any) -> "CellSpec":
        """A copy of this spec with one dotted-path knob replaced."""
        flat = self.override_map()
        flat[knob] = value
        return replace(self, overrides=tuple(sorted(flat.items())))

    def nested_overrides(self) -> Dict[str, Any]:
        """The override vector re-nested for the wire payload."""
        return unflatten_overrides(self.override_map())


@dataclass(frozen=True)
class Prediction:
    """One extrapolated future cell, ranked by distance from the stream.

    ``rank`` is 1 for the immediately-next cell; ``confidence`` is the
    run length that produced it (longer observed runs rank higher when
    the dispatcher must choose).
    """

    spec: CellSpec
    knob: str
    value: Any
    rank: int
    confidence: int
    group: Tuple


class _Group:
    """Per-signature tracking state (one row of the bounded table)."""

    __slots__ = ("last_overrides", "run_knob", "run_stride", "run_length",
                 "mispredictions", "muted", "last_seen")

    def __init__(self, last_seen: int):
        self.last_overrides: Optional[Dict[str, Any]] = None
        self.run_knob: Optional[str] = None
        self.run_stride: Any = None
        self.run_length = 0
        self.mispredictions = 0
        self.muted = False
        self.last_seen = last_seen

    def reset_run(self) -> None:
        """Forget the current run (the pattern broke)."""
        self.run_knob = None
        self.run_stride = None
        self.run_length = 0


class PatternMiner:
    """Detects monotone single-knob sweeps and extrapolates them."""

    def __init__(self, min_run: int = DEFAULT_MIN_RUN,
                 depth: int = DEFAULT_DEPTH,
                 max_groups: int = DEFAULT_MAX_GROUPS,
                 mispredict_limit: int = DEFAULT_MISPREDICT_LIMIT):
        if min_run < 2:
            raise ConfigError(f"min_run must be >= 2 (got {min_run})")
        if depth < 1:
            raise ConfigError(f"depth must be >= 1 (got {depth})")
        if max_groups < 1:
            raise ConfigError(f"max_groups must be >= 1 (got {max_groups})")
        if mispredict_limit < 1:
            raise ConfigError(
                f"mispredict_limit must be >= 1 (got {mispredict_limit})")
        self.min_run = min_run
        self.depth = depth
        self.max_groups = max_groups
        self.mispredict_limit = mispredict_limit
        self._groups: Dict[Tuple, _Group] = {}
        self._clock = 0
        # Lifetime counters for the predictor stats block.
        self.observed = 0
        self.patterns = 0
        self.predictions = 0
        self.group_evictions = 0

    @property
    def muted_groups(self) -> int:
        """Tracked groups currently muted for mispredicting."""
        return sum(1 for g in self._groups.values() if g.muted)

    @property
    def tracked_groups(self) -> int:
        """Base signatures currently resident in the table."""
        return len(self._groups)

    def _group_for(self, signature: Tuple) -> _Group:
        group = self._groups.get(signature)
        if group is None:
            if len(self._groups) >= self.max_groups:
                victim = min(self._groups,
                             key=lambda sig: self._groups[sig].last_seen)
                del self._groups[victim]
                self.group_evictions += 1
            group = _Group(self._clock)
            self._groups[signature] = group
        group.last_seen = self._clock
        return group

    def observe(self, spec: CellSpec) -> List[Prediction]:
        """Feed one observed request; returns predictions (often none).

        Predictions are ranked nearest-first and are only emitted once
        the group's run reaches ``min_run`` consecutive same-knob,
        same-stride steps; every subsequent step keeps predicting the
        sliding next-``depth`` window.
        """
        self.observed += 1
        self._clock += 1
        group = self._group_for(spec.signature)
        flat = spec.override_map()
        prev, group.last_overrides = group.last_overrides, flat
        if prev is None or group.muted:
            return []
        if set(prev) != set(flat):
            group.reset_run()
            return []
        diffs = [k for k in flat if flat[k] != prev[k]]
        if not diffs:
            # Exact repeat (a retry, a dedup'd client): neutral — the
            # run neither extends nor breaks.
            return []
        if len(diffs) != 1:
            group.reset_run()
            return []
        knob = diffs[0]
        before, after = prev[knob], flat[knob]
        if not (_is_steppable(before) and _is_steppable(after)):
            group.reset_run()
            return []
        stride = after - before
        if group.run_knob == knob and group.run_stride == stride:
            group.run_length += 1
        else:
            group.run_knob = knob
            group.run_stride = stride
            group.run_length = 2    # this step plus the one before it
        if group.run_length < self.min_run:
            return []
        if group.run_length == self.min_run:
            self.patterns += 1
        out: List[Prediction] = []
        value = after
        for rank in range(1, self.depth + 1):
            value = value + stride
            out.append(Prediction(
                spec=spec.with_override(knob, value),
                knob=knob, value=value, rank=rank,
                confidence=group.run_length, group=spec.signature,
            ))
        self.predictions += len(out)
        return out

    def record_misprediction(self, signature: Tuple) -> None:
        """Charge one expired-unconfirmed prediction against its group.

        Past ``mispredict_limit`` the group is muted: its stream stops
        producing predictions (the ``MISPRED_THRESH`` discipline), so a
        request mix that defeats the miner costs nothing speculative.
        """
        group = self._groups.get(signature)
        if group is None:
            return
        group.mispredictions += 1
        if group.mispredictions >= self.mispredict_limit:
            group.muted = True
            group.reset_run()

    def stats(self) -> Dict[str, Any]:
        """Snapshot of miner counters for the predictor stats block."""
        return {
            "observed": self.observed,
            "patterns": self.patterns,
            "predictions": self.predictions,
            "tracked_groups": self.tracked_groups,
            "muted_groups": self.muted_groups,
            "group_evictions": self.group_evictions,
        }
