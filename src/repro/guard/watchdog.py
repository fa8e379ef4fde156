"""No-forward-progress watchdog for the simulation main loop.

A wedged cycle model (a scheduler that never issues, a lost memory
response, an MSHR leak) previously spun inside ``GPU.run`` until
``max_cycles`` — minutes of wall time at full scale — and then returned
a bare ``completed=False``.  The watchdog instead samples a cheap
*progress signature* (instructions issued, memory responses delivered,
DRAM transactions serviced) every ``check_interval`` cycles and raises
:class:`repro.errors.SimulationHangError` once the signature has been
frozen for ``limit`` cycles, attaching a structured snapshot of every
stall-relevant queue so the hang is diagnosable post-mortem.

The snapshot is plain dicts/lists/ints (JSON-able), so it survives
pickling out of worker processes, serialization into diagnostic
bundles, and storage in ``SimResult.extra``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import SimulationHangError
from repro.sim.isa import KINDS
from repro.sim.warp import WarpState

#: Default cycles of zero progress before a hang is declared
#: (``GPUConfig.hang_cycles``).
DEFAULT_HANG_CYCLES = 50_000

#: Per-SM cap on warps detailed in a snapshot (the scoreboard view).
SNAPSHOT_WARP_LIMIT = 16

#: Cap on in-flight request ages sampled per queue.
SNAPSHOT_REQ_LIMIT = 32


class Watchdog:
    """Detects a simulation that stopped making forward progress.

    Parameters
    ----------
    limit:
        Cycles of unchanged progress signature before declaring a hang.
    check_interval:
        How often (in cycles) the signature is sampled.  Defaults to
        ``limit // 8`` capped at 4096, so detection latency is at most
        ``limit + check_interval`` cycles while the per-cycle cost stays
        one modulo test.
    """

    def __init__(self, limit: int = DEFAULT_HANG_CYCLES,
                 check_interval: int = 0):
        if limit < 1:
            raise ValueError("watchdog limit must be >= 1 cycle")
        self.limit = limit
        self.check_interval = check_interval or max(1, min(limit // 8, 4096))
        self.last_progress_cycle = 0
        self._last_sig: Tuple[int, int, int] = (-1, -1, -1)
        self.checks = 0

    def signature(self, gpu) -> Tuple[int, int, int]:
        """Monotonic counters that move iff the simulation does."""
        instrs = 0
        for sm in gpu.sms:
            instrs += sm.stats.instructions
        sub = gpu.subsystem
        return (instrs, sub.responses_delivered,
                sub.dram_reads + sub.dram_writes)

    def check(self, gpu, now: int) -> None:
        """Sample progress; raise :class:`SimulationHangError` on a hang."""
        self.checks += 1
        sig = self.signature(gpu)
        if sig != self._last_sig:
            self._last_sig = sig
            self.last_progress_cycle = now
            return
        stalled = now - self.last_progress_cycle
        if stalled >= self.limit:
            snapshot = build_snapshot(gpu, now)
            snapshot["stalled_for"] = stalled
            raise SimulationHangError(
                f"no forward progress for {stalled} cycles (limit "
                f"{self.limit}) at cycle {now} of kernel "
                f"{gpu.app.name!r}: no instruction issued, no memory "
                "response delivered, no DRAM transaction serviced",
                snapshot=snapshot,
                cycle=now,
                stalled_for=stalled,
            )


# ------------------------------------------------------------- snapshot
def _warp_view(warp, now: int) -> Dict[str, Any]:
    view = {
        "slot": warp.slot,
        "cta": warp.cta_id,
        "state": warp.state.value,
        "pending_pieces": warp.pending_pieces,
        "ready_at": warp.ready_at,
        "blocked_since": warp.blocked_since,
        "blocked_for": (now - warp.blocked_since
                        if warp.blocked_since >= 0 else 0),
        "instructions_issued": warp.instructions_issued,
        "leading": warp.leading,
    }
    cursor = warp.cursor
    view["next_instr"] = "?" if cursor.done else KINDS[cursor.kind].value
    return view


def _req_ages(entries, now: int) -> List[int]:
    ages = [now - req.issue_cycle for req in entries]
    ages.sort(reverse=True)
    return ages[:SNAPSHOT_REQ_LIMIT]


def build_snapshot(gpu, now: int) -> Dict[str, Any]:
    """Structured, JSON-able state dump of every stall-relevant queue."""
    sms = []
    for sm in gpu.sms:
        sched = sm.scheduler
        ready = [w.slot for w in getattr(sched, "ready", [])]
        eligible = len(getattr(sched, "eligible", ()))
        blocked = sorted(
            (w for w in sm.warps_by_uid.values()
             if w.state is WarpState.WAITING_MEM),
            key=lambda w: w.blocked_since,
        )
        sms.append({
            "sm_id": sm.sm_id,
            "unfinished_warps": sm.unfinished_warps,
            "waiting_mem_warps": sm.waiting_mem_warps,
            "ready_queue": ready,
            "eligible_pool": eligible,
            "l1_mshr_occupancy": len(sm.l1.mshr),
            "l1_mshr_capacity": sm.l1.mshr.capacity,
            "miss_queue": len(sm.miss_queue),
            "store_queue": len(sm.store_queue),
            "prefetch_queue": len(sm.prefetch_queue),
            "prefetch_miss_queue": len(sm.prefetch_miss_queue),
            "inflight_prefetches": len(sm._inflight_prefetch),
            "replay_blocked": sm.replay is not None,
            "warps": [_warp_view(w, now)
                      for w in blocked[:SNAPSHOT_WARP_LIMIT]],
        })
    sub = gpu.subsystem
    memory = {
        "request_pipe": len(sub.request_pipe),
        "response_pipe": len(sub.response_pipe),
        "request_ages": _req_ages(
            [req for _, req in sub.request_pipe.entries()], now),
        "l2_partitions": [
            {"pid": part.pid, "in_queue": len(part.in_queue),
             "mshr_occupancy": len(part.mshr),
             "mshr_capacity": part.mshr.capacity,
             "stall_cycles": part.stall_cycles}
            for part in sub.partitions
        ],
        "dram_channels": [
            {"channel": ch.channel_id, "read_queue": len(ch.queue),
             "write_queue": len(ch.write_queue), "inflight": ch.inflight,
             "read_queue_ages": _req_ages(ch.queue, now)}
            for ch in sub.channels
        ],
        "responses_delivered": sub.responses_delivered,
        "responses_dropped": getattr(sub.faults, "dropped", 0)
        if getattr(sub, "faults", None) else 0,
    }
    return {
        "cycle": now,
        "kernel": gpu.app.name,
        "scheduler": gpu.config.scheduler.value,
        "ctas": {
            "total": gpu.app.num_ctas,
            "issued": gpu.app.num_ctas - gpu.distributor.remaining,
            "retired": sum(sm.stats.ctas_executed for sm in gpu.sms),
        },
        "sms": sms,
        "memory": memory,
    }


def format_snapshot(snapshot: Dict[str, Any], max_sms: int = 4) -> str:
    """Human-readable multi-line summary of a hang snapshot."""
    if not snapshot:
        return "(no snapshot available)"
    lines = [
        f"hang snapshot @ cycle {snapshot.get('cycle', '?')} "
        f"(kernel {snapshot.get('kernel', '?')}, "
        f"scheduler {snapshot.get('scheduler', '?')}, stalled for "
        f"{snapshot.get('stalled_for', '?')} cycles)"
    ]
    ctas = snapshot.get("ctas", {})
    lines.append(
        f"  CTAs: {ctas.get('retired', '?')}/{ctas.get('total', '?')} "
        f"retired, {ctas.get('issued', '?')} issued"
    )
    for sm in snapshot.get("sms", [])[:max_sms]:
        lines.append(
            f"  SM{sm['sm_id']}: {sm['unfinished_warps']} unfinished warps "
            f"({sm['waiting_mem_warps']} waiting on memory), ready queue "
            f"{sm['ready_queue']}, L1 MSHR "
            f"{sm['l1_mshr_occupancy']}/{sm['l1_mshr_capacity']}, "
            f"miss queue {sm['miss_queue']}, "
            f"in-flight prefetches {sm['inflight_prefetches']}"
        )
    rest = len(snapshot.get("sms", [])) - max_sms
    if rest > 0:
        lines.append(f"  ... and {rest} more SM(s)")
    mem = snapshot.get("memory", {})
    if mem:
        ages = mem.get("request_ages") or [0]
        dram = ", ".join(
            f"ch{c['channel']}:{c['read_queue']}r/{c['write_queue']}w"
            for c in mem.get("dram_channels", [])
        )
        lines.append(
            f"  memory: icnt {mem.get('request_pipe', 0)} req / "
            f"{mem.get('response_pipe', 0)} resp in flight "
            f"(oldest age {max(ages)}), DRAM queues [{dram}], "
            f"{mem.get('responses_dropped', 0)} response(s) dropped"
        )
    return "\n".join(lines)
