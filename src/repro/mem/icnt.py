"""Interconnect pipe: fixed latency + bounded per-cycle bandwidth.

The crossbar between SMs and L2 partitions (and the return path) is
modeled as a :class:`Pipe`: a request entering at cycle ``t`` becomes
deliverable at ``t + latency``, and at most ``requests_per_cycle``
deliverables drain per cycle, subject to space in the destination queue.
Finite occupancy produces backpressure toward the SMs when miss bursts
exceed network bandwidth.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Tuple

from repro.mem.request import MemoryRequest


class Pipe:
    """Latency/bandwidth-limited FIFO with bounded occupancy."""

    def __init__(self, latency: int, requests_per_cycle: int, capacity: int):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if requests_per_cycle < 1:
            raise ValueError("requests_per_cycle must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.latency = latency
        self.bw = requests_per_cycle
        self.capacity = capacity
        self._q: Deque[Tuple[int, MemoryRequest]] = deque()
        self.total_entered = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._q)

    def entries(self) -> Tuple[Tuple[int, MemoryRequest], ...]:
        """Snapshot of ``(ready_at, request)`` pairs (diagnostics)."""
        return tuple(self._q)

    @property
    def full(self) -> bool:
        return len(self._q) >= self.capacity

    def can_accept(self) -> bool:
        return not self.full

    def push(self, req: MemoryRequest, now: int) -> None:
        if len(self._q) >= self.capacity:
            raise OverflowError("pipe full")
        self._q.append((now + self.latency, req))
        self.total_entered += 1
        if len(self._q) > self.peak_occupancy:
            self.peak_occupancy = len(self._q)

    def drain(
        self,
        now: int,
        accept: Callable[[MemoryRequest], bool],
    ) -> int:
        """Deliver up to ``bw`` ripe requests to ``accept``.

        ``accept`` returns False to refuse (destination full); refusal
        blocks the head (in-order delivery), modeling head-of-line
        blocking in a real VC-less crossbar port.  Returns the number of
        delivered requests.
        """
        delivered = 0
        while self._q and delivered < self.bw:
            ready_at, req = self._q[0]
            if ready_at > now:
                break
            if not accept(req):
                break
            self._q.popleft()
            delivered += 1
        return delivered
