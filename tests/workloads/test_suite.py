"""Tests for the workload models (repro.workloads)."""

import pytest

from repro.sim.isa import AddressContext
from repro.workloads import (
    ALL_BENCHMARKS,
    IRREGULAR,
    REGULAR,
    WORKLOADS,
    Scale,
    build,
    get_spec,
)
from repro.workloads.base import SCALE_CTAS


class TestRegistry:
    def test_sixteen_benchmarks(self):
        assert len(ALL_BENCHMARKS) == 16
        assert set(REGULAR) | set(IRREGULAR) == set(ALL_BENCHMARKS)
        assert not set(REGULAR) & set(IRREGULAR)

    def test_paper_table4_membership(self):
        assert set(ALL_BENCHMARKS) == {
            "CP", "LPS", "BPR", "HSP", "MRQ", "STE", "CNV", "HST",
            "JC1", "FFT", "SCN", "MM", "PVR", "CCL", "BFS", "KM",
        }
        assert set(IRREGULAR) == {"PVR", "CCL", "BFS", "KM"}

    def test_get_spec_case_insensitive(self):
        assert get_spec("mm").abbr == "MM"

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError):
            get_spec("NOPE")

    def test_fig4_stats_present(self):
        for spec in WORKLOADS.values():
            assert spec.fig4.total_loads >= spec.fig4.looped_loads >= 0
            assert spec.fig4.paper_mean_iterations >= 1.0


class TestBuiltKernels:
    @pytest.mark.parametrize("abbr", ALL_BENCHMARKS)
    def test_builds_at_every_scale(self, abbr):
        for scale in Scale:
            k = build(abbr, scale)
            assert k.num_ctas >= SCALE_CTAS[scale] // 2
            assert k.warps_per_cta >= 1
            assert k.program.dynamic_instruction_count() > 0

    @pytest.mark.parametrize("abbr", ALL_BENCHMARKS)
    def test_builds_are_fresh_objects(self, abbr):
        a, b = build(abbr), build(abbr)
        assert a is not b
        assert a.program is not b.program

    def test_paper_stated_geometries(self):
        assert build("LPS").warps_per_cta == 4   # (32,4) threads
        assert build("MM").warps_per_cta == 8    # Figure 1
        assert build("HSP").warps_per_cta == 8

    @pytest.mark.parametrize("abbr", IRREGULAR)
    def test_irregular_apps_have_indirect_loads(self, abbr):
        k = build(abbr)
        assert k.irregular
        assert any(s.indirect for s in k.program.load_sites())

    @pytest.mark.parametrize("abbr", REGULAR)
    def test_regular_apps_have_no_indirect_loads(self, abbr):
        k = build(abbr)
        assert not k.irregular
        assert not any(s.indirect for s in k.program.load_sites())

    @pytest.mark.parametrize("abbr", ALL_BENCHMARKS)
    def test_addresses_deterministic(self, abbr):
        a, b = build(abbr), build(abbr)
        ctx = AddressContext(cta_id=3, warp_in_cta=1, iteration=0,
                             warps_per_cta=a.warps_per_cta,
                             num_ctas=a.num_ctas)
        for sa, sb in zip(a.program.load_sites(), b.program.load_sites()):
            assert sa.addresses(ctx) == sb.addresses(ctx)

    @pytest.mark.parametrize("abbr", ALL_BENCHMARKS)
    def test_coalescing_within_warp_budget(self, abbr):
        k = build(abbr, Scale.TINY)
        ctx = AddressContext(cta_id=0, warp_in_cta=0, iteration=0,
                             warps_per_cta=k.warps_per_cta,
                             num_ctas=k.num_ctas)
        for s in k.program.load_sites():
            assert 1 <= len(s.addresses(ctx)) <= 32

    def test_regular_sites_stride_across_warps(self):
        """Every non-indirect load must have a constant inter-warp
        stride — the property CAP detects (Section IV)."""
        for abbr in ("CP", "LPS", "BPR", "MRQ", "CNV", "JC1", "SCN", "MM"):
            k = build(abbr, Scale.TINY)
            for s in k.program.load_sites():
                if s.indirect:
                    continue
                addr = []
                for w in range(min(3, k.warps_per_cta)):
                    ctx = AddressContext(cta_id=1, warp_in_cta=w, iteration=0,
                                         warps_per_cta=k.warps_per_cta,
                                         num_ctas=k.num_ctas)
                    addr.append(s.addresses(ctx)[0])
                if len(addr) == 3:
                    assert addr[1] - addr[0] == addr[2] - addr[1], (abbr, s.name)

    def test_hsp_strides_are_irregular(self):
        k = build("HSP", Scale.TINY)
        site = k.program.load_sites()[0]
        addrs = [
            site.addresses(AddressContext(0, w, 0, k.warps_per_cta, k.num_ctas))[0]
            for w in range(4)
        ]
        deltas = {b - a for a, b in zip(addrs, addrs[1:])}
        assert len(deltas) > 1

    def test_inter_cta_base_distances_irregular_on_sm(self):
        """The LPS observation: base-address deltas between the CTAs an
        SM actually receives are not one constant stride."""
        k = build("LPS", Scale.SMALL)
        site = k.program.load_sites()[0]
        # CTAs an SM might see under round-robin: 0, 4, 8, 33, ...
        bases = [
            site.addresses(AddressContext(c, 0, 0, k.warps_per_cta, k.num_ctas))[0]
            for c in (0, 4, 8, 33, 47)
        ]
        deltas = {b - a for a, b in zip(bases, bases[1:])}
        assert len(deltas) > 1
