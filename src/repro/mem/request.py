"""Memory request/response records flowing through the hierarchy."""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass, field

#: ``slots=True`` trims per-request memory and attribute-access cost on
#: the hot path, but the dataclass parameter only exists on 3.10+.
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


class Access(enum.Enum):
    """Request classes; priority order is DEMAND > PREFETCH at every
    arbitration point (L1 port, FR-FCFS pick)."""

    DEMAND = "demand"
    PREFETCH = "prefetch"
    STORE = "store"


_uid = itertools.count()


@dataclass(**DATACLASS_SLOTS)
class MemoryRequest:
    """One cache-line-sized request.

    ``line_addr`` is the byte address of the 128B-aligned line.  For
    prefetches, ``target_warp`` is the warp the prefetched data is bound
    to (Section V-A warp wake-up) and ``pc`` identifies the load being
    covered so the stats unit can attribute usefulness per load site.
    """

    line_addr: int
    sm_id: int
    access: Access
    pc: int = -1
    warp_uid: int = -1
    target_warp: int = -1
    issue_cycle: int = 0
    # owning kernel in a concurrent-kernel run (always 0 single-kernel)
    kernel_id: int = 0
    uid: int = field(default_factory=_uid.__next__)
    # set on the return path
    l2_hit: bool = False
    # set by the fault injector so a response is delayed at most once
    fault_delayed: bool = False
    # earliest delivery cycle of a read, known once it is past its L2
    # lookup (-1 before); see MemorySubsystem.due_heaps
    due: int = -1
    # (bank, row) memoized by DramChannel.push — pure address geometry,
    # cached so FR-FCFS scans don't re-derive it every cycle
    dram_bank: int = -1
    dram_row: int = -1
    # L2 partition index, set once by MemorySubsystem.submit
    part: int = -1

    @property
    def is_prefetch(self) -> bool:
        return self.access is Access.PREFETCH

    @property
    def is_store(self) -> bool:
        return self.access is Access.STORE
