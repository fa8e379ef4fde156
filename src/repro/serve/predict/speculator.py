"""Speculative dispatcher: turns mined predictions into warm cache tiers.

:class:`Predictor` is the server-side owner of one
:class:`~repro.serve.predict.miner.PatternMiner`.  Every real simulate
request is fed through :meth:`Predictor.observe` *before* it is
scheduled; when the miner extrapolates a sweep, the predictor spawns
one asyncio task per predicted cell that:

1. rebuilds the prediction into a validated protocol request and
   resolves it through :func:`~repro.serve.protocol.request_to_key` —
   exactly the path a real request takes, so a predicted cell is
   *definitionally* the same cell a client would ask for (a prediction
   whose extrapolated knob value fails config validation is dropped and
   counted, never dispatched);
2. skips cells already resident in the memcache (a counter-free
   :meth:`~repro.serve.memcache.ServeMemCache.peek`) or already in
   flight;
3. submits the cell to the scheduler at the internal ``speculative``
   priority, where it only ever occupies idle capacity and is aborted
   or rejected the moment real traffic wants the space.

Prediction accuracy is tracked against the request stream itself: an
outstanding prediction is **confirmed** when a real request for its
fingerprint arrives within ``ttl_observations`` subsequent requests,
and expires as a **misprediction** otherwise — which charges the
miner's per-group mute counter, so a stream that defeats the miner
goes quiet instead of burning idle slots forever.

Everything here runs on the event loop; the predictor owns no thread
and no lock.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.config import DEFAULT_DEPTH, DEFAULT_MIN_RUN, DEFAULT_MISPREDICT_LIMIT
from repro.errors import (
    BadRequestError,
    ConfigError,
    OverloadedError,
    RequestError,
    ShuttingDownError,
)
from repro.exec.cache import key_fingerprint
from repro.serve import protocol
from repro.serve.predict.miner import CellSpec, PatternMiner, Prediction
from repro.serve.scheduler import (
    SPECULATIVE_PRIORITY,
    RequestScheduler,
    SpeculationAborted,
)

#: Default bound on predictions awaiting confirmation.
DEFAULT_MAX_OUTSTANDING = 64

#: Default confirmation horizon: a prediction unconfirmed after this
#: many subsequent observed requests counts as a misprediction.
DEFAULT_TTL_OBSERVATIONS = 16


def prediction_to_request(prediction: Prediction) -> protocol.Request:
    """Materialize a mined prediction as a validated wire request.

    Round-trips through :func:`protocol.parse_request` so a predicted
    cell passes exactly the validation a client payload would — an
    extrapolated value that walks outside a field's legal range raises
    :class:`~repro.errors.BadRequestError` here and the prediction is
    dropped before any engine work.
    """
    spec = prediction.spec
    return protocol.parse_request(protocol.simulate_payload(
        f"predict-{prediction.knob}-{prediction.value}",
        spec.benchmark, spec.engine, spec.scale, spec.preset,
        spec.nested_overrides(), spec.scheduler, priority="sweep"))


@dataclass
class _Outstanding:
    """One prediction awaiting confirmation by the real stream."""

    group: Tuple
    issued_at: int


class Predictor:
    """Observes the request stream; speculates into idle scheduler slots."""

    def __init__(self, scheduler: RequestScheduler, *,
                 enabled: bool = True,
                 min_run: int = DEFAULT_MIN_RUN,
                 depth: int = DEFAULT_DEPTH,
                 mispredict_limit: int = DEFAULT_MISPREDICT_LIMIT,
                 max_outstanding: int = DEFAULT_MAX_OUTSTANDING,
                 ttl_observations: int = DEFAULT_TTL_OBSERVATIONS):
        if max_outstanding < 1:
            raise ConfigError(
                f"max_outstanding must be >= 1 (got {max_outstanding})")
        if ttl_observations < 1:
            raise ConfigError(
                f"ttl_observations must be >= 1 (got {ttl_observations})")
        self.scheduler = scheduler
        self.enabled = enabled
        self.max_outstanding = max_outstanding
        self.ttl_observations = ttl_observations
        self.miner = PatternMiner(min_run=min_run, depth=depth,
                                  mispredict_limit=mispredict_limit)
        # fingerprint -> outstanding record, oldest first.
        self._outstanding: "OrderedDict[str, _Outstanding]" = OrderedDict()
        self._tasks: Set[asyncio.Task] = set()
        self._seq = 0
        # Lifetime counters for the ``predictor`` stats block.
        self.confirmed = 0
        self.mispredicted = 0
        self.invalid = 0
        self.already_cached = 0
        self.launched = 0
        self.rejected = 0
        self.aborted = 0
        self.failed = 0

    # ----------------------------------------------------------- observe
    def observe(self, request: protocol.Request,
                fingerprint: str) -> None:
        """Feed one real simulate request through the prediction loop.

        Called synchronously by the server for every simulate request
        (warm hits included — a sweep stays tracked even when every
        cell is already cached).  Confirms or expires outstanding
        predictions, advances the miner, and launches speculation tasks
        for anything newly predicted.
        """
        if not self.enabled:
            return
        self._seq += 1
        hit = self._outstanding.pop(fingerprint, None)
        if hit is not None:
            self.confirmed += 1
        self._expire_stale()
        for prediction in self.miner.observe(CellSpec.from_request(request)):
            self._launch(prediction)

    def _expire_stale(self) -> None:
        while self._outstanding:
            fingerprint, record = next(iter(self._outstanding.items()))
            if self._seq - record.issued_at < self.ttl_observations:
                break
            self._outstanding.pop(fingerprint)
            self.mispredicted += 1
            self.miner.record_misprediction(record.group)

    # --------------------------------------------------------- speculate
    def _launch(self, prediction: Prediction) -> None:
        try:
            request = prediction_to_request(prediction)
            key = protocol.request_to_key(request)
        except (BadRequestError, ConfigError):
            self.invalid += 1
            return
        fingerprint = key_fingerprint(key)
        if fingerprint in self._outstanding:
            return      # this cell is already predicted and pending
        if len(self._outstanding) >= self.max_outstanding:
            stale_fp, stale = self._outstanding.popitem(last=False)
            self.mispredicted += 1
            self.miner.record_misprediction(stale.group)
        self._outstanding[fingerprint] = _Outstanding(
            group=prediction.group, issued_at=self._seq)
        if self.scheduler.memcache.peek(fingerprint) is not None:
            # Already resident: the prediction stays outstanding for
            # accuracy accounting but costs no speculative dispatch.
            self.already_cached += 1
            return
        self.launched += 1
        task = asyncio.get_running_loop().create_task(
            self._speculate(key), name=f"speculate-{key.describe()}")
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _speculate(self, key) -> None:
        """One speculation task: submit and absorb every expected outcome."""
        try:
            await self.scheduler.submit(key, SPECULATIVE_PRIORITY)
        except OverloadedError:
            self.rejected += 1      # no idle capacity; prediction dropped
        except SpeculationAborted:
            self.aborted += 1       # sacrificed to real admission pressure
        except ShuttingDownError:
            pass                    # drain raced the launch
        except RequestError:
            self.failed += 1        # the cell itself failed; real requests
            #                         for it will observe the same failure
        except asyncio.CancelledError:
            raise

    # ---------------------------------------------------------- lifecycle
    async def drain(self) -> None:
        """Stop predicting and cancel every in-flight speculation task."""
        self.enabled = False
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._tasks.clear()

    # -------------------------------------------------------------- stats
    @property
    def accuracy(self) -> float:
        """Confirmed share of settled predictions (0.0 before any)."""
        settled = self.confirmed + self.mispredicted
        return self.confirmed / settled if settled else 0.0

    def stats(self) -> Dict[str, Any]:
        """The ``predictor`` stats block of the introspection payload."""
        out: Dict[str, Any] = {
            "enabled": self.enabled,
            "outstanding": len(self._outstanding),
            "confirmed": self.confirmed,
            "mispredicted": self.mispredicted,
            "accuracy": round(self.accuracy, 4),
            "invalid": self.invalid,
            "already_cached": self.already_cached,
            "launched": self.launched,
            "rejected": self.rejected,
            "aborted": self.aborted,
            "failed": self.failed,
        }
        out.update(self.miner.stats())
        return out


def build_predictor(scheduler: RequestScheduler,
                    config) -> Optional["Predictor"]:
    """Construct the predictor for one server from its
    :class:`~repro.config.ServeConfig`.

    Returns ``None`` when prediction is disabled — the server then
    skips the observe hook entirely (the same ``obs is None`` shape the
    simulator uses for its zero-overhead contract).
    """
    if not getattr(config, "predict", True):
        return None
    return Predictor(
        scheduler,
        min_run=config.predict_min_run,
        depth=config.predict_depth,
        mispredict_limit=config.mispredict_limit,
    )
