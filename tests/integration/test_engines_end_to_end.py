"""End-to-end behaviour of the baseline engines inside the full machine
(unit tests drive them in isolation; here they run against real traffic)."""


from repro.config import test_config as tiny_config
from repro.prefetch import make_prefetcher
from repro.sim.gpu import simulate
from repro.sim.isa import ComputeOp, LoadOp, LoadSite, LoopOp, WarpProgram
from repro.sim.kernel import KernelInfo
from repro.workloads.generators import linear

from tests.conftest import make_stream_kernel


def loop_kernel(trips=6, ctas=4, warps=2):
    site = LoadSite(
        pc=0,
        pattern=linear(1 << 22, warp_stride=16 * 128, iter_stride=128),
    )
    prog = WarpProgram(
        ops=[ComputeOp(4), LoopOp(trips, [LoadOp(site), ComputeOp(10)])]
    )
    return KernelInfo("loop", ctas, warps, prog)


class TestIntraEndToEnd:
    def test_covers_loop_iterations(self):
        r = simulate(loop_kernel(), tiny_config(), make_prefetcher("intra"))
        ps = r.prefetch_stats
        assert ps.issued > 0
        assert ps.consumed > 0
        # intra predictions on a fixed iteration stride are exact
        assert r.accuracy() > 0.5

    def test_idle_on_loopfree_kernel(self):
        k = make_stream_kernel(loads=2)
        r = simulate(k, tiny_config(), make_prefetcher("intra"))
        assert r.prefetch_stats.issued == 0


class TestNlpLapEndToEnd:
    def test_nlp_covers_streaming_neighbours(self):
        k = make_stream_kernel(num_ctas=6, warps_per_cta=4, loads=2)
        r = simulate(k, tiny_config(), make_prefetcher("nlp"))
        ps = r.prefetch_stats
        assert ps.issued > 0
        # next line == next warp's line on a 128B-stride stream
        assert ps.consumed > 0

    def test_lap_macroblocks_fire_in_system(self):
        k = make_stream_kernel(num_ctas=6, warps_per_cta=4, loads=2)
        r = simulate(k, tiny_config(), make_prefetcher("lap"))
        assert r.prefetch_stats.candidates > 0

    def test_inter_trains_in_system(self):
        k = make_stream_kernel(num_ctas=6, warps_per_cta=4, loads=2)
        r = simulate(k, tiny_config(), make_prefetcher("inter"))
        assert r.prefetch_stats.issued > 0


class TestEmptyRunDefaults:
    def test_subsystem_rates_default_zero(self):
        from repro.mem.subsystem import MemorySubsystem
        cfg = tiny_config()
        sub = MemorySubsystem(cfg, cfg.num_sms, lambda r: None)
        assert sub.l2_hit_rate() == 0.0
        assert sub.dram_row_hit_rate == 0.0
        assert sub.dram_reads == 0
