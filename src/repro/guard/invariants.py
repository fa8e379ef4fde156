"""Runtime conservation and consistency checks for the cycle model.

The paper's headline numbers are *ratios of counters* (IPC, coverage,
accuracy, traffic overhead); a silent accounting leak produces plausible
but wrong figures.  This module cross-checks the counters against each
other:

**Always-on end-of-run conservation** (:meth:`InvariantChecker.verify_end`,
cost: one pass over the machine after the run):

* read-request conservation — demand+prefetch requests injected into the
  interconnect equal responses delivered plus requests still in flight
  plus responses the fault injector deliberately dropped;
* store conservation — stores injected equal DRAM writes plus stores
  still buffered;
* MSHR balance — every L1/L2 MSHR file has ``allocated == released +
  occupancy`` and is empty after a completed, drained run;
* cache counter coherence — ``hits + misses == accesses`` for every L1
  and L2 partition;
* prefetch outcome conservation — prefetches issued equal
  useful + late-merged + early-evicted + unused-at-end (the Figure 12/14
  classification is exhaustive);
* CTA conservation — on a completed run, every launched CTA retired;
  the distributor's per-kernel retirements sum to the SMs' and, once
  complete, equal each kernel's CTA count (one kernel or several).

**Opt-in per-cycle audits** (:meth:`InvariantChecker.check_cycle`,
enabled by ``GPUConfig.deep_checks`` / ``--deep-checks``): scheduler
ready-queue bounds, warp-state/counter agreement, queue-depth bounds and
the unused-prefetched-lines count — O(warps) per cycle, for hunting
the cycle a violation first appears.

Violations raise :class:`repro.errors.InvariantViolation` carrying the
offending counters.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import InvariantViolation
from repro.mem.request import Access
from repro.sim.warp import WarpState


def _violate(name: str, message: str, details: Dict[str, Any]) -> None:
    pairs = ", ".join(f"{k}={v}" for k, v in details.items())
    raise InvariantViolation(f"invariant {name!r} violated: {message} "
                             f"({pairs})", name=name, details=details)


def memory_inflight_reads(sub) -> int:
    """Demand/prefetch requests alive anywhere behind the SMs.

    A read that missed L2 is represented by its partition MSHR entry for
    its entire below-L2 lifetime (the DRAM queue and read-completion
    FIFO hold the same request object), so only the MSHR side is counted —
    each request appears in exactly one term.
    """
    count = sum(1 for _, req in sub.request_pipe.entries()
                if not req.is_store)
    count += len(sub.response_pipe)
    count += len(sub._l2_wait)
    for part in sub.partitions:
        count += sum(1 for req in part.in_queue if not req.is_store)
        count += part.mshr.outstanding_requests()
    return count


def memory_inflight_stores(sub) -> int:
    """Store requests alive anywhere behind the SMs.

    ``DramChannel.writes`` increments when a store is *issued* to the
    banks (it leaves the write queue and only its done cycle stays on
    the channel, in the write-completion FIFO), so a store still completing is already counted as a DRAM write and must
    not be counted as in flight too.
    """
    count = sum(1 for _, req in sub.request_pipe.entries() if req.is_store)
    for part in sub.partitions:
        count += sum(1 for req in part.in_queue if req.is_store)
    for ch in sub.channels:
        count += len(ch.write_queue)
    return count


class InvariantChecker:
    """Cross-checks a :class:`repro.sim.gpu.GPU`'s counters."""

    def __init__(self, config):
        self.config = config
        self.cycle_checks = 0

    # --------------------------------------------------- end-of-run
    def verify_end(self, gpu, completed: bool) -> None:
        """Always-on conservation checks; call after SM finalization."""
        sub = gpu.subsystem
        dropped = sub.faults.dropped if sub.faults is not None else 0

        issued_reads = sub.core_demand_requests + sub.core_prefetch_requests
        inflight = memory_inflight_reads(sub)
        # Pending L1-side queues: requests created but not yet injected
        # into the interconnect (an incomplete run can end mid-burst).
        sm_queued = sum(
            len(sm.miss_queue) + len(sm.prefetch_miss_queue)
            for sm in gpu.sms
        )
        delivered = sub.responses_delivered
        if issued_reads != delivered + inflight + dropped:
            _violate(
                "read_request_conservation",
                "requests injected != responses delivered + in-flight "
                "+ injected drops",
                {"injected": issued_reads, "delivered": delivered,
                 "inflight": inflight, "dropped": dropped,
                 "sm_queued": sm_queued, "completed": completed},
            )

        store_inflight = memory_inflight_stores(sub)
        if sub.core_store_requests != sub.dram_writes + store_inflight:
            _violate(
                "store_conservation",
                "stores injected != DRAM writes + stores in flight",
                {"injected": sub.core_store_requests,
                 "dram_writes": sub.dram_writes,
                 "inflight": store_inflight, "completed": completed},
            )

        for sm in gpu.sms:
            self._check_mshr(f"l1.{sm.sm_id}", sm.l1.mshr)
            self._check_cache_counters(sm.l1)
        for part in sub.partitions:
            self._check_mshr(f"l2.{part.pid}", part.mshr)
            self._check_cache_counters(part.cache)

        pstats = self._merged_pstats(gpu)
        accounted = (pstats.useful + pstats.late_merge
                     + pstats.early_evicted + pstats.unused_at_end)
        # Exhaustive at any cut: a prefetch still in flight is either
        # already counted as late_merge (a demand merged into it — the
        # outcome is recorded at merge time, whether or not a truncated
        # run or the fault injector ever delivers the fill) or counted
        # by finalize() as unused_at_end.
        if pstats.issued != accounted:
            _violate(
                "prefetch_outcome_conservation",
                "issued prefetches != useful + late_merge + early_evicted "
                "+ unused_at_end",
                {"issued": pstats.issued, "useful": pstats.useful,
                 "late_merge": pstats.late_merge,
                 "early_evicted": pstats.early_evicted,
                 "unused_at_end": pstats.unused_at_end,
                 "completed": completed},
            )

        retired = sum(sm.stats.ctas_executed for sm in gpu.sms)
        app = gpu.app
        if completed and retired != app.num_ctas:
            _violate(
                "cta_conservation",
                "CTAs retired != CTAs launched at kernel end",
                {"retired": retired, "launched": app.num_ctas,
                 "undistributed": gpu.distributor.remaining},
            )
        # The distributor's per-kernel retirements account for every
        # CTA the SMs retired, and a completed run retired each kernel.
        done = gpu.distributor.finished_ctas
        if sum(done) != retired:
            _violate(
                "per_kernel_cta_conservation",
                "per-kernel CTA retirements disagree with the SMs",
                {"per_kernel": list(done), "retired": retired},
            )
        if completed:
            for kid, kernel in enumerate(app.kernels):
                if done[kid] != kernel.num_ctas:
                    _violate(
                        "per_kernel_cta_conservation",
                        "completed run left a kernel with unretired CTAs",
                        {"kernel_id": kid, "retired": done[kid],
                         "launched": kernel.num_ctas},
                    )
            for sm in gpu.sms:
                if sm.unfinished_warps:
                    _violate(
                        "warp_retirement",
                        "completed run left unfinished warps on an SM",
                        {"sm": sm.sm_id,
                         "unfinished": sm.unfinished_warps},
                    )

    @staticmethod
    def _check_mshr(name: str, mshr) -> None:
        if mshr.allocated != mshr.released + len(mshr):
            _violate(
                "mshr_balance",
                f"{name}: allocations != releases + occupancy (leak)",
                {"mshr": name, "allocated": mshr.allocated,
                 "released": mshr.released, "occupancy": len(mshr)},
            )

    @staticmethod
    def _check_cache_counters(cache) -> None:
        if cache.hits + cache.misses != cache.accesses:
            _violate(
                "cache_counter_coherence",
                f"{cache.name}: hits + misses != accesses",
                {"cache": cache.name, "hits": cache.hits,
                 "misses": cache.misses, "accesses": cache.accesses},
            )

    @staticmethod
    def _merged_pstats(gpu):
        from repro.prefetch.stats import PrefetchStats

        merged = PrefetchStats()
        for sm in gpu.sms:
            merged.merge(sm.pstats)
        return merged

    # --------------------------------------------------- per-cycle (deep)
    def check_cycle(self, gpu, now: int) -> None:
        """Opt-in structural audit; O(resident warps) per call."""
        self.cycle_checks += 1
        for sm in gpu.sms:
            self._deep_check_sm(sm, now)
        sub = gpu.subsystem
        for part in sub.partitions:
            if len(part.in_queue) > part.in_capacity:
                _violate(
                    "l2_queue_bound",
                    "L2 partition input queue exceeded its capacity",
                    {"pid": part.pid, "depth": len(part.in_queue),
                     "capacity": part.in_capacity, "cycle": now},
                )
        for ch in sub.channels:
            if len(ch.queue) > ch.config.queue_entries:
                _violate(
                    "dram_queue_bound",
                    "DRAM read queue exceeded its capacity",
                    {"channel": ch.channel_id, "depth": len(ch.queue),
                     "capacity": ch.config.queue_entries, "cycle": now},
                )

    def _deep_check_sm(self, sm, now: int) -> None:
        cfg = self.config
        ready = getattr(sm.scheduler, "ready", None)
        if ready is not None and len(ready) > cfg.ready_queue_size:
            _violate(
                "ready_queue_bound",
                "two-level ready queue exceeded its configured size",
                {"sm": sm.sm_id, "depth": len(ready),
                 "limit": cfg.ready_queue_size, "cycle": now},
            )
        unfinished = waiting = 0
        for warp in sm.warps_by_uid.values():
            if warp.pending_pieces < 0:
                _violate(
                    "warp_pieces_nonnegative",
                    "warp has negative outstanding load pieces",
                    {"sm": sm.sm_id, "warp": warp.slot,
                     "pieces": warp.pending_pieces, "cycle": now},
                )
            if warp.state is not WarpState.FINISHED:
                unfinished += 1
            if warp.state is WarpState.WAITING_MEM:
                waiting += 1
        if unfinished != sm.unfinished_warps:
            _violate(
                "unfinished_warp_count",
                "SM unfinished-warp counter disagrees with warp states",
                {"sm": sm.sm_id, "counter": sm.unfinished_warps,
                 "actual": unfinished, "cycle": now},
            )
        if waiting != sm.waiting_mem_warps:
            _violate(
                "waiting_warp_count",
                "SM waiting-on-memory counter disagrees with warp states",
                {"sm": sm.sm_id, "counter": sm.waiting_mem_warps,
                 "actual": waiting, "cycle": now},
            )
        if len(sm.l1.mshr) > sm.l1.mshr.capacity:
            _violate(
                "mshr_bound",
                "L1 MSHR occupancy exceeded its capacity",
                {"sm": sm.sm_id, "occupancy": len(sm.l1.mshr),
                 "capacity": sm.l1.mshr.capacity, "cycle": now},
            )
        if len(sm.miss_queue) > sm.miss_queue_depth:
            _violate(
                "miss_queue_bound",
                "L1 miss queue exceeded its configured depth",
                {"sm": sm.sm_id, "depth": len(sm.miss_queue),
                 "limit": sm.miss_queue_depth, "cycle": now},
            )
        resident = sum(
            1 for cset in sm.l1._sets for line in cset.values()
            if line.prefetched and not line.used
        )
        if resident != sm.unused_prefetched_resident:
            _violate(
                "prefetch_resident_count",
                "unused-prefetched-line counter disagrees with the "
                "tag store",
                {"sm": sm.sm_id, "counter": sm.unused_prefetched_resident,
                 "actual": resident, "cycle": now},
            )
        for req in sm.miss_queue:
            if req.access is Access.STORE:
                _violate(
                    "miss_queue_class",
                    "store request found in the demand miss queue",
                    {"sm": sm.sm_id, "line": req.line_addr, "cycle": now},
                )
