"""Integration tests for the SM pipeline and the top-level GPU driver."""

import pytest

from repro.config import SchedulerKind
from repro.config import test_config as tiny_config
from repro.prefetch.base import Prefetcher, PrefetchCandidate
from repro.sim.gpu import GPU, simulate
from repro.sim.isa import ComputeOp, LoadOp, LoadSite, StoreOp, WarpProgram, strided_pattern
from repro.sim.kernel import KernelInfo

from tests.conftest import make_stream_kernel


class TestEndToEnd:
    def test_kernel_runs_to_completion(self, cfg, stream_kernel):
        r = simulate(stream_kernel, cfg)
        assert r.completed
        assert r.cycles > 0

    def test_every_instruction_issued_exactly_once(self, cfg):
        k = make_stream_kernel(num_ctas=6, warps_per_cta=3, loads=2)
        expected = k.dynamic_instructions()
        r = simulate(k, cfg)
        assert r.instructions == expected

    def test_all_ctas_execute(self, cfg):
        k = make_stream_kernel(num_ctas=10)
        r = simulate(k, cfg)
        assert r.sm_stats.ctas_executed == 10

    def test_deterministic(self, cfg):
        a = simulate(make_stream_kernel(), cfg)
        b = simulate(make_stream_kernel(), cfg)
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert a.dram_reads == b.dram_reads

    def test_load_counts(self, cfg):
        k = make_stream_kernel(num_ctas=4, warps_per_cta=2, loads=3)
        r = simulate(k, cfg)
        assert r.sm_stats.loads_issued == 4 * 2 * 3

    def test_demand_accesses_reach_memory_once_per_line(self, cfg):
        # Distinct lines everywhere: misses == accesses == DRAM reads.
        k = make_stream_kernel(num_ctas=4, warps_per_cta=2, loads=2)
        r = simulate(k, cfg)
        assert r.l1_misses == r.l1_accesses
        assert r.dram_reads == r.l1_misses

    def test_l1_reuse_detected(self, cfg):
        # All warps read the same line -> 1 miss + hits/merges only.
        site = LoadSite(pc=0, pattern=lambda ctx: (0x100000,))
        prog = WarpProgram(ops=[ComputeOp(2), LoadOp(site), ComputeOp(4)])
        k = KernelInfo("bcast", 4, 2, prog)
        r = simulate(k, cfg)
        assert r.dram_reads == 1

    def test_cycle_limit_reports_incomplete(self, cfg, stream_kernel):
        gpu = GPU([stream_kernel], cfg)
        r = gpu.run(max_cycles=10)
        assert not r.completed
        assert r.cycles == 10

    def test_stores_counted(self, cfg):
        site = LoadSite(pc=0, pattern=strided_pattern(1 << 22, warp_stride=128))
        out = LoadSite(pc=0, pattern=strided_pattern(1 << 23, warp_stride=128))
        prog = WarpProgram(ops=[ComputeOp(2), LoadOp(site), StoreOp(out)])
        k = KernelInfo("st", 4, 2, prog)
        r = simulate(k, cfg)
        assert r.sm_stats.stores_issued == 8
        assert r.dram_writes == 8

    def test_ipc_bounded_by_issue_width(self, cfg, stream_kernel):
        r = simulate(stream_kernel, cfg)
        assert 0 < r.ipc <= cfg.num_sms

    def test_result_as_dict_roundtrips(self, cfg, stream_kernel):
        d = simulate(stream_kernel, cfg).as_dict()
        assert d["kernel"] == "stream"
        assert d["prefetcher"] == "none"
        assert 0 <= d["l1_hit_rate"] <= 1

    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_all_schedulers_complete(self, kind):
        cfg = tiny_config().with_scheduler(kind)
        r = simulate(make_stream_kernel(), cfg)
        assert r.completed
        assert r.instructions == make_stream_kernel().dynamic_instructions()


class TestOccupancyIntegration:
    def test_cta_limit_respected(self):
        cfg = tiny_config(max_ctas_per_sm=2)
        k = make_stream_kernel(num_ctas=8, warps_per_cta=2)
        gpu = GPU([k], cfg)
        assert gpu.distributor.kernel_cta_limit == [2]
        r = gpu.run()
        assert r.completed

    def test_warp_limited_kernel(self):
        cfg = tiny_config()  # 16 warps/SM max
        k = make_stream_kernel(num_ctas=4, warps_per_cta=10)
        gpu = GPU([k], cfg)
        assert gpu.distributor.kernel_cta_limit == [1]
        assert gpu.run().completed

    def test_too_wide_cta_rejected(self):
        cfg = tiny_config()
        k = make_stream_kernel(num_ctas=2, warps_per_cta=17)
        with pytest.raises(ValueError):
            GPU([k], cfg)


class _OneShotPrefetcher(Prefetcher):
    """Issues a single prefetch for a fixed line on the first load."""

    name = "oneshot"
    wants_eager_wakeup = True

    def __init__(self, config, sm_id, line):
        super().__init__(config, sm_id)
        self.line = line
        self.fired = False

    def on_load_issue(self, warp, site, addresses, line_addrs, iteration, now):
        if self.fired:
            return []
        self.fired = True
        return self._emit([PrefetchCandidate(line_addr=self.line, pc=site.pc)])


class TestPrefetchPlumbing:
    def _kernel_two_loads(self, second_base):
        a = LoadSite(pc=0, pattern=strided_pattern(1 << 22, warp_stride=128))
        b = LoadSite(pc=0, pattern=strided_pattern(second_base, warp_stride=128))
        prog = WarpProgram(
            ops=[ComputeOp(2), LoadOp(a), ComputeOp(30), LoadOp(b), ComputeOp(4)]
        )
        return KernelInfo("two", 1, 1, prog)

    def test_useful_prefetch_counted(self):
        cfg = tiny_config(num_sms=1)
        second = 1 << 23
        k = self._kernel_two_loads(second)
        r = simulate(
            k, cfg, lambda c, s: _OneShotPrefetcher(c, s, second)
        )
        ps = r.prefetch_stats
        assert ps.issued == 1
        assert ps.consumed == 1
        assert r.accuracy() == 1.0

    def test_useless_prefetch_counted(self):
        cfg = tiny_config(num_sms=1)
        k = self._kernel_two_loads(1 << 23)
        r = simulate(
            k, cfg, lambda c, s: _OneShotPrefetcher(c, s, 1 << 26)
        )
        ps = r.prefetch_stats
        assert ps.issued == 1
        assert ps.consumed == 0
        assert ps.unused_at_end + ps.early_evicted == 1
        assert r.accuracy() == 0.0

    def test_prefetch_traffic_classified(self):
        cfg = tiny_config(num_sms=1)
        second = 1 << 23
        k = self._kernel_two_loads(second)
        r = simulate(k, cfg, lambda c, s: _OneShotPrefetcher(c, s, second))
        assert r.core_prefetch_requests == 1
