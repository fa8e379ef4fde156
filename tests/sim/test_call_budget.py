"""The issue path's cost as a checked property (no wall clock).

Python calls made inside ``repro/`` per simulated warp-instruction,
counted under ``cProfile``: exact for a commit, so host noise cannot
move it (``perfbench`` reports the same count over its SMALL cells as
``sim.py_calls_per_instr``).  Each row sits 5 % above what a memory
path that pays per request, not per hop, reads: a DRAM write is no
event (only the last write of a burst wakes its channel), ``submit``
routes a request to its L2 partition once and one subsystem method
drains the request pipe, a DRAM read's completion is one callback,
cache LRU is dict order, and the prefetcher next-event hook is gone.
Before that change the rows read 21.54, 17.23, 5.66 and 9.23.

Earlier steps the rows pinned: the compiled ``WarpProgram``
(``sim/isa.py``; the tree-walking cursor it replaced needed 8.25 on MM
and 13.20 on STE), the event step's backpressure wedges (MSHR-full L2
partitions and SMs behind a full request pipe sleep instead of
re-polling every cycle; re-polling needed 36.88 on HST) and, for the
BFS row on the 4-SM sweep machine, the per-SM response horizon (capping
every SM's span at the next delivery to *any* SM needed 27.02).
"""

import cProfile

import pytest

from repro.config import small_config
from repro.config import test_config as tiny_config
from repro.exec import RunKey, execute_cell
from repro.workloads import Scale

#: (benchmark, prefetcher) -> most calls per instruction allowed.
BUDGET = {
    ("BFS", "caps"): 20.07,  # reads 19.11
    ("HST", "caps"): 12.66,  # reads 12.06
    ("MM", "caps"): 5.52,    # reads 5.26
    ("STE", "none"): 8.90,   # reads 8.48
}
#: Rows run on the tiny 2-SM test machine unless named here.
MACHINE = {("BFS", "caps"): small_config}


def calls_per_instr(benchmark: str, prefetcher: str) -> float:
    config = MACHINE.get((benchmark, prefetcher), tiny_config)()
    key = RunKey(benchmark, prefetcher, Scale.TINY, config)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = execute_cell(key)
    finally:
        profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats()
                if "/repro/" in getattr(entry.code, "co_filename", ""))
    return calls / result.instructions


@pytest.mark.parametrize("cell", sorted(BUDGET), ids="/".join)
def test_calls_per_instruction_within_budget(cell):
    assert calls_per_instr(*cell) <= BUDGET[cell]
