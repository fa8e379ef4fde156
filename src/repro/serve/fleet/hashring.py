"""Consistent hashing of request fingerprints onto fleet backends.

The router places every backend on a ring at ``vnodes`` pseudo-random
points (SHA-256 of ``node#replica`` — never Python's salted ``hash``,
so the placement is identical in every process) and routes a request to
the first point at or clockwise of its fingerprint's own position.

Why consistent hashing instead of round-robin: a cell's fingerprint
always lands on the same backend, so one backend's memcache and
single-flight dedup see the whole history of a sweep, and an
N-backend fleet keeps the same warm-hit behaviour as one server, just
partitioned.  When a
backend dies, only its ring arcs move (to the next point clockwise);
the other backends' partitions — and their warm caches — are
undisturbed.

:meth:`HashRing.preference` returns the full failover order (each
distinct backend once, in ring order), which is what the router walks
when the primary's circuit is open.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Sequence

from repro.config import DEFAULT_VNODES


def _point(label: str) -> int:
    """Ring position of a label: first 8 bytes of its SHA-256."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring over integer backend indices."""

    def __init__(self, nodes: Sequence[int], vnodes: int = DEFAULT_VNODES):
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1 (got {vnodes})")
        self.nodes = tuple(nodes)
        self.vnodes = vnodes
        points: Dict[int, int] = {}
        for node in self.nodes:
            for replica in range(vnodes):
                points[_point(f"{node}#{replica}")] = node
        self._points = sorted(points)
        self._owner = points

    def preference(self, fingerprint: str,
                   count: Optional[int] = None) -> List[int]:
        """Failover order of a fingerprint: distinct nodes in ring order.

        The first entry is the primary owner; each further entry is the
        node the key falls over to when everything before it is down.
        ``count`` truncates the walk (default: every node).
        """
        want = len(self.nodes) if count is None else min(count,
                                                        len(self.nodes))
        start = bisect.bisect_left(self._points, _point(fingerprint))
        order: List[int] = []
        seen = set()
        for step in range(len(self._points)):
            point = self._points[(start + step) % len(self._points)]
            node = self._owner[point]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) >= want:
                    break
        return order

    def node_for(self, fingerprint: str) -> int:
        """Primary owner of a fingerprint."""
        return self.preference(fingerprint, count=1)[0]

    def __len__(self) -> int:
        """Ring points (``nodes × vnodes``, bar 64-bit hash collisions)."""
        return len(self._points)
