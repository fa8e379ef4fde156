"""Per-event GPU energy accounting (GPUWattch substitute).

Event energies are loosely calibrated to published per-operation numbers
for a 40/45nm GPU (instruction issue+execute a few tens of pJ, L1 access
tens of pJ, DRAM access a few nJ); only *relative* energy matters for
Figure 15.  The CAPS table overhead uses the paper's synthesis results
(15.07 pJ per table access, 550 µW static per SM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.hwcost import CAPS_ACCESS_ENERGY_PJ, CAPS_STATIC_POWER_UW
from repro.result import SimResult

#: Core clock used to convert static power to energy (Table III).
CORE_CLOCK_GHZ = 1.4


@dataclass(frozen=True)
class EnergyCoefficients:
    """Per-event energies in picojoules, plus static power per SM."""

    instruction_pj: float = 40.0
    l1_access_pj: float = 30.0
    l2_access_pj: float = 120.0
    dram_read_pj: float = 2400.0
    dram_write_pj: float = 2400.0
    icnt_request_pj: float = 60.0
    sm_static_uw: float = 80_000.0  # 80 mW/SM leakage+clock
    caps_table_access_pj: float = CAPS_ACCESS_ENERGY_PJ
    caps_static_uw: float = CAPS_STATIC_POWER_UW


@dataclass
class EnergyBreakdown:
    """Energy per component for one run, in nanojoules."""

    instructions: float
    l1: float
    l2: float
    dram: float
    icnt: float
    static: float
    prefetcher: float

    @property
    def total(self) -> float:
        return (
            self.instructions + self.l1 + self.l2 + self.dram
            + self.icnt + self.static + self.prefetcher
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "instructions": self.instructions,
            "l1": self.l1,
            "l2": self.l2,
            "dram": self.dram,
            "icnt": self.icnt,
            "static": self.static,
            "prefetcher": self.prefetcher,
            "total": self.total,
        }


class EnergyModel:
    """Maps a :class:`SimResult` to an :class:`EnergyBreakdown`."""

    def __init__(self, num_sms: int, coeffs: Optional[EnergyCoefficients] = None):
        if num_sms < 1:
            raise ValueError("need at least one SM")
        self.num_sms = num_sms
        self.coeffs = coeffs or EnergyCoefficients()

    def evaluate(self, result: SimResult) -> EnergyBreakdown:
        c = self.coeffs
        pj_to_nj = 1e-3
        # Static energy: P[µW] * t[cycles / (GHz*1e9)] -> nJ
        seconds = result.cycles / (CORE_CLOCK_GHZ * 1e9)
        static_uw = self.num_sms * c.sm_static_uw
        has_prefetcher = result.prefetcher != "none"
        pf_static_uw = self.num_sms * c.caps_static_uw if has_prefetcher else 0.0
        # Prefetcher dynamic: one table access per observed load plus one
        # per generated candidate (the request generator's adds).
        pf_accesses = 0
        if has_prefetcher:
            pf_accesses = (
                result.sm_stats.loads_issued
                + result.prefetch_stats.candidates
                + result.prefetch_stats.issued
            )
        l2_accesses = result.core_requests  # every request probes its slice
        return EnergyBreakdown(
            instructions=result.instructions * c.instruction_pj * pj_to_nj,
            l1=(result.l1_accesses + result.prefetch_stats.issued)
            * c.l1_access_pj * pj_to_nj,
            l2=l2_accesses * c.l2_access_pj * pj_to_nj,
            dram=(result.dram_reads * c.dram_read_pj
                  + result.dram_writes * c.dram_write_pj) * pj_to_nj,
            icnt=result.core_requests * c.icnt_request_pj * pj_to_nj,
            static=(static_uw + pf_static_uw) * seconds * 1e3,
            prefetcher=pf_accesses * c.caps_table_access_pj * pj_to_nj,
        )


def normalized_energy(
    result: SimResult,
    baseline: SimResult,
    num_sms: int,
    coeffs: Optional[EnergyCoefficients] = None,
) -> float:
    """Figure 15's metric: run energy over no-prefetch baseline energy."""
    model = EnergyModel(num_sms, coeffs)
    base = model.evaluate(baseline).total
    if base <= 0:
        raise ValueError("baseline energy must be positive")
    return model.evaluate(result).total / base
