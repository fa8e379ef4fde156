"""GPU memory-system substrate.

Models the path an L1 miss takes in the paper's Table III machine:
per-SM L1D with MSHRs -> crossbar interconnect -> address-interleaved L2
partitions -> FR-FCFS GDDR5 channels, with finite queues everywhere so
that bursty miss streams produce the super-linear queueing delays the
paper identifies as the cost of unhidden latency.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.mem.request": ("Access", "MemoryRequest"),
    "repro.mem.cache": (
        "Cache",
        "CacheLine",
        "EvictedLine",
        "Mshr",
        "MshrFullError",
    ),
    "repro.mem.icnt": ("Pipe",),
    "repro.mem.dram": ("DramChannel",),
    "repro.mem.subsystem": ("MemorySubsystem",),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
