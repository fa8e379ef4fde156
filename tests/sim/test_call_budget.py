"""The issue path's cost as a checked property (no wall clock).

Python calls made inside ``repro/`` per simulated warp-instruction,
counted under ``cProfile``: exact for a commit, so host noise cannot
move it (``perfbench`` reports the same count over its SMALL cells as
``sim.py_calls_per_instr``).  The MM and STE rows sit 5 % above what
the compiled ``WarpProgram`` (``sim/isa.py``) read; the tree-walking
cursor it replaced needed 8.25 and 13.20.  The HST row sits 5 % above
what the event step's backpressure wedges read (MSHR-full L2 partitions
and SMs behind a full request pipe sleep instead of re-polling every
cycle); re-polling needed 36.88.  The BFS row, on the 4-SM sweep
machine, sits 5 % above what the per-SM response horizon reads; capping
every SM's span at the next delivery to *any* SM needed 27.02.
"""

import cProfile

import pytest

from repro.config import small_config
from repro.config import test_config as tiny_config
from repro.exec import RunKey, execute_cell
from repro.workloads import Scale

#: (benchmark, prefetcher) -> most calls per instruction allowed.
BUDGET = {
    ("BFS", "caps"): 22.60,  # reads 21.52
    ("HST", "caps"): 18.45,  # reads 17.22
    ("MM", "caps"): 6.91,    # reads 5.64 (6.58 when set)
    ("STE", "none"): 10.93,  # reads 9.21 (10.41 when set)
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
