"""Tests for the per-figure experiment functions (repro.analysis.figures).

These run tiny configurations — ``repro figures`` / ``repro validate``
run the full-size ones and ``analysis/validate.py`` grades them; here we
only check that each function produces structurally sound data.
"""

import pytest

from repro.analysis import driver
from repro.analysis.figures import (
    Fig1Point,
    STUDIES,
    _variants,
    fig_caps_variants,
    fig1_interwarp_accuracy,
    fig4_loop_iterations,
    fig10_normalized_ipc,
    fig11_cta_sweep,
    fig12_coverage_accuracy,
    fig13_bandwidth_overhead,
    fig14a_early_prefetch_ratio,
    fig14b_prefetch_distance,
    fig15_energy,
    sec1_nn_stalls,
)
from repro.config import test_config as tiny_config
from repro.exec import ExecutionEngine, ResultCache, result_bytes
from repro.exec.cache import make_key
from repro.exec.runner import execute_cell
from repro.sim.gpu import simulate
from repro.sim.trace import trace_kernel
from repro.workloads import Scale, build
from repro.workloads.extra import build_nn

BENCHES = ("SCN", "BFS")
ENGINES = ("nlp", "caps")


@pytest.fixture(scope="module")
def cfg():
    return tiny_config(max_cycles=600_000)


class TestFig1:
    def test_accuracy_decays_across_cta_boundary(self, cfg):
        pts = fig1_interwarp_accuracy(
            distances=(1, 8), scale=Scale.TINY, config=cfg
        )
        acc = {p.distance: p.accuracy for p in pts}
        assert acc[1] > acc[8]
        assert all(0 <= p.accuracy <= 1 for p in pts)
        assert all(p.samples > 0 for p in pts)

    def test_gap_grows_with_distance(self, cfg):
        pts = fig1_interwarp_accuracy(
            distances=(1, 4), scale=Scale.TINY, config=cfg
        )
        assert pts[0].mean_gap_cycles < pts[1].mean_gap_cycles

    def test_nearest_neighbor_stall_breakdown(self, cfg):
        nn = sec1_nn_stalls(scale=Scale.TINY, config=cfg)
        assert nn["completed"] == 1.0
        assert 0 < nn["stall_all"] < 1
        assert nn["stall_all"] + nn["stall_partial"] + nn["issuing"] <= 1.0


def fig1_from_trace(distances, scale, config):
    """Figure 1 computed the way it was before it became an engine
    cell: straight from :func:`trace_kernel`'s records (the oracle)."""
    trace = trace_kernel(build("MM", scale), config)
    per_sm = {}
    for r in trace.records:
        if r.iteration != 0 or r.indirect:
            continue
        slots = per_sm.setdefault(r.sm_id, {}).setdefault(r.pc, {})
        slots.setdefault(r.warp_slot, (r.address, r.cycle))
    points = []
    for d in distances:
        correct = total = gap_sum = 0
        for by_pc in per_sm.values():
            for slots in by_pc.values():
                stride = None
                for s in sorted(slots):
                    if s + 1 in slots:
                        stride = slots[s + 1][0] - slots[s][0]
                        break
                if stride is None:
                    continue
                for s in sorted(slots):
                    if s + d not in slots:
                        continue
                    actual, cyc_t = slots[s + d]
                    total += 1
                    gap_sum += max(0, cyc_t - slots[s][1])
                    correct += slots[s][0] + d * stride == actual
        points.append(Fig1Point(d, correct / total if total else 0.0,
                                gap_sum / total if total else 0.0, total))
    return points


class TestEngineCells:
    """Figure 1's trace and Section I's NN run are engine cells: they
    equal the direct simulations they replaced, and a second engine on
    the same cache answers both without simulating."""

    DISTANCES = tuple(range(1, 11))

    @pytest.fixture
    def engine_on(self, tmp_path):
        saved = driver.get_engine()

        def install():
            return driver.set_engine(
                ExecutionEngine(cache=ResultCache(tmp_path)))
        yield install
        driver.set_engine(saved)

    def test_fig1_equals_the_trace_kernel_oracle(self, engine_on):
        engine_on()
        cfg = tiny_config()
        assert fig1_interwarp_accuracy(
            self.DISTANCES, scale=Scale.TINY, config=cfg) == fig1_from_trace(
            self.DISTANCES, Scale.TINY, cfg)

    def test_sec1_equals_a_direct_simulation(self, engine_on):
        engine_on()
        cfg = tiny_config()
        r = simulate(build_nn(Scale.TINY), cfg)
        s = r.sm_stats
        assert sec1_nn_stalls(scale=Scale.TINY, config=cfg) == {
            "stall_all": r.stall_fraction(),
            "stall_partial": s.stall_mem_partial / s.active_cycles,
            "issuing": s.issue_cycles / s.active_cycles,
            "ipc": r.ipc,
            "completed": float(r.completed),
        }

    def test_a_second_engine_reads_both_from_the_cache(self, engine_on):
        cfg = tiny_config()

        def both():
            return (fig1_interwarp_accuracy(scale=Scale.TINY, config=cfg),
                    sec1_nn_stalls(scale=Scale.TINY, config=cfg))

        cold = engine_on()
        first = both()
        assert [e.kind for e in cold.events.events].count("started") == 2
        warm = engine_on()
        assert both() == first
        assert [e.kind for e in warm.events.events] == ["cache_hit"] * 2
        assert {e.detail for e in warm.events.events} == {"disk"}


class TestFig4:
    def test_all_benchmarks_present(self):
        rows = fig4_loop_iterations()
        assert {r.benchmark for r in rows} == {
            "CP", "LPS", "BPR", "HSP", "MRQ", "STE", "CNV", "HST",
            "JC1", "FFT", "SCN", "MM", "PVR", "CCL", "BFS", "KM",
        }
        assert all(r.model_mean_iterations >= 1 for r in rows)


class TestFig10:
    def test_structure_and_means(self, cfg):
        data = fig10_normalized_ipc(
            scale=Scale.TINY, config=cfg, benchmarks=BENCHES, engines=ENGINES
        )
        assert set(data["SCN"]) == set(ENGINES)
        assert "Mean(all)" in data
        assert all(v > 0 for v in data["Mean(all)"].values())


class TestFig11:
    def test_limits_and_normalization(self, cfg):
        data = fig11_cta_sweep(
            cta_limits=(1, 4), scale=Scale.TINY, config=cfg,
            benchmarks=("SCN",), engines=("caps",),
        )
        assert set(data) == {1, 4}
        # the reference point normalizes to ~1
        assert data[4]["none"] == pytest.approx(1.0)
        assert data[1]["none"] < 1.0


class TestFig12_13:
    def test_ranges(self, cfg):
        cov = fig12_coverage_accuracy(
            scale=Scale.TINY, config=cfg, benchmarks=BENCHES, engines=ENGINES
        )
        for b in BENCHES + ("Mean",):
            for e in ENGINES:
                c, a = cov[b][e]
                assert c >= 0
                assert 0 <= a <= 1

    def test_traffic_ratios(self, cfg):
        bw = fig13_bandwidth_overhead(
            scale=Scale.TINY, config=cfg, benchmarks=BENCHES, engines=ENGINES
        )
        for e in ENGINES:
            req, dram = bw["Mean"][e]
            assert req >= 0.9  # prefetching never removes demand traffic
            assert dram > 0


class TestFig14_15:
    def test_early_ratio_keys(self, cfg):
        data = fig14a_early_prefetch_ratio(
            scale=Scale.TINY, config=cfg, benchmarks=BENCHES
        )
        assert set(data) == {"intra", "inter", "mta", "caps",
                             "caps_no_wakeup"}
        # None: that engine issued no prefetch on these two benchmarks.
        assert all(v is None or 0 <= v <= 1 for v in data.values())

    def test_distance_keys(self, cfg):
        data = fig14b_prefetch_distance(
            scale=Scale.TINY, config=cfg, benchmarks=("SCN",)
        )
        assert set(data) == {"LRR", "TLV", "PA-TLV"}
        assert all(v is None or v >= 0 for v in data.values())

    def test_energy_near_unity(self, cfg):
        data = fig15_energy(scale=Scale.TINY, config=cfg, benchmarks=BENCHES)
        assert set(data) == set(BENCHES) | {"Mean"}
        assert all(0.5 < v < 1.5 for v in data.values())


#: The ablation points that vary the prefetcher alone.
PREFETCH_POINTS = [(study, label) for study in ("threshold", "tables",
                                                "window")
                   for label in _variants(tiny_config())[study]]


class TestStudies:
    @pytest.fixture(scope="class")
    def baselines(self):
        return {b: result_bytes(execute_cell(make_key(
            b, "none", config=tiny_config(), scale=Scale.TINY)))
            for b in STUDIES["ablations"][0]}

    @pytest.mark.parametrize("study, label", PREFETCH_POINTS)
    def test_baseline_reads_no_prefetcher_knob(self, baselines, study,
                                               label):
        """Why a study's ``none`` cells keep the unvaried prefetcher
        config: on the two-level scheduler the run comes out the same
        to the byte."""
        machine, _ = _variants(tiny_config())[study][label]
        for b, expect in baselines.items():
            key = make_key(b, "none", config=machine, scale=Scale.TINY)
            assert result_bytes(execute_cell(key)) == expect, b

    def test_every_variant_has_speedups_and_a_baseline(self, cfg):
        benchmarks, studies = STUDIES["sensitivity"]
        data = fig_caps_variants("sensitivity", scale=Scale.TINY, config=cfg)
        assert tuple(data) == studies
        assert list(data["dram"]) == [1, 2, 4]
        for variants in data.values():
            for v in variants.values():
                assert tuple(v["speedup"]) == benchmarks
                assert v["geomean"] > 0 and v["base_ipc"] > 0
