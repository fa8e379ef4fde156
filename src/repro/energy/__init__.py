"""Energy model (paper Section VI-F, Figure 15).

The paper estimates GPU energy with GPUWattch and CAPS's own tables with
CACTI + synthesized RTL.  We substitute a per-event energy model: each
simulated event class (instruction issue, L1/L2 access, DRAM read/write,
prefetcher table access) carries an energy constant, plus per-SM static
power integrated over the run.  Relative energy — the only thing
Figure 15 reports — depends on event counts and cycle counts, both of
which the simulator produces.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.energy.model": (
        "EnergyBreakdown",
        "EnergyModel",
        "normalized_energy",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
