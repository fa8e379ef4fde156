"""Validation tests for GPUConfig's cross-field invariants."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    DRAMConfig,
    GPUConfig,
    MAX_CACHE_LINES,
    InterconnectConfig,
    PrefetcherConfig,
    fermi_config,
)
from repro.errors import ConfigError


#: The baseline prefetch engines' knobs, each bounded to 1..64.
ENGINE_KNOBS = ("inter_warp_distance", "intra_warp_depth", "nlp_degree",
                "lap_macroblock_lines", "lap_miss_trigger")


def l1(line=128):
    return CacheConfig(size_bytes=16 * 1024, line_bytes=line, assoc=4,
                       hit_latency=28, mshr_entries=32)


class TestGPUConfigValidation:
    def test_partitions_must_divide_channels(self):
        """An uneven partition->channel map makes one channel hot and
        skews every bandwidth experiment (found the hard way)."""
        with pytest.raises(ValueError, match="multiple of dram.channels"):
            GPUConfig(l2_partitions=4, dram=DRAMConfig(channels=3))

    def test_even_mapping_accepted(self):
        cfg = GPUConfig(l2_partitions=6, dram=DRAMConfig(channels=3))
        assert cfg.l2_partitions == 6

    def test_line_sizes_must_match(self):
        with pytest.raises(ValueError, match="line sizes"):
            GPUConfig(
                l1d=l1(line=128),
                l2=CacheConfig(size_bytes=64 * 1024, line_bytes=256, assoc=8,
                               hit_latency=120, mshr_entries=32),
            )

    def test_zero_sms_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(num_sms=0)

    def test_zero_ready_queue_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(ready_queue_size=0)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            dataclasses.replace(fermi_config(), num_sms=0)

    def test_default_configs_all_valid(self):
        from repro.config import small_config, test_config
        for cfg in (fermi_config(), small_config(), test_config()):
            assert cfg.l2_partitions % cfg.dram.channels == 0
            assert cfg.l1d.line_bytes == cfg.l2.line_bytes

    @pytest.mark.parametrize("build", [
        lambda: GPUConfig(num_sms=1025),
        lambda: GPUConfig(max_warps_per_sm=1025),
        lambda: GPUConfig(max_ctas_per_sm=257),
        lambda: GPUConfig(l2_partitions=1026, dram=DRAMConfig(channels=6)),
        lambda: CacheConfig(size_bytes=1 << 25, line_bytes=128, assoc=4,
                            hit_latency=1, mshr_entries=4),
        lambda: CacheConfig(size_bytes=1 << 24, line_bytes=1, assoc=1,
                            hit_latency=1, mshr_entries=4),
        lambda: GPUConfig(num_sms=1024),
        lambda: dataclasses.replace(l1(), mshr_entries=4097),
        lambda: dataclasses.replace(l1(), miss_queue_depth=4097),
        lambda: DRAMConfig(channels=257),
        lambda: DRAMConfig(banks_per_channel=257),
        lambda: DRAMConfig(queue_entries=4097),
        lambda: InterconnectConfig(queue_depth=4097),
        # A baseline engine's knob sizes the candidate list one load or
        # L1 miss builds.
        *(lambda name=name: PrefetcherConfig(**{name: 10**9})
          for name in ENGINE_KNOBS),
        lambda: PrefetcherConfig(lap_macroblock_lines=65),
    ])
    def test_sizes_have_upper_bounds(self, build):
        """A structure-sizing field above its bound is refused before
        anything is allocated for it."""
        with pytest.raises(ValueError, match="must be <="):
            build()

    @pytest.mark.parametrize("fields", [
        {"row_bytes": 0}, {"row_bytes": -4096},
        {"row_hit_cycles": 0}, {"row_hit_cycles": -5, "row_miss_cycles": -5},
    ], ids=["row_bytes=0", "row_bytes<0", "row_hit=0", "row_hit<0"])
    def test_dram_geometry_and_timing_refused(self, fields):
        """A zero row divides by zero in the bank map, and a burst under
        one cycle finishes before it issues."""
        with pytest.raises(ConfigError, match="must be >= 1"):
            DRAMConfig(**fields)

    @pytest.mark.parametrize("name", ENGINE_KNOBS)
    def test_engine_knob_zero_refused(self, name):
        """LAP divides by its macro-block size; a zero distance, depth,
        degree or trigger names no line to prefetch."""
        with pytest.raises(ConfigError, match=f"prefetch.{name} must be >= 1"):
            PrefetcherConfig(**{name: 0})

    def test_largest_study_within_cache_line_bound(self):
        """The 64KB-L1 study on the 15-SM preset is the biggest cache
        footprint any caller builds; the bound leaves it 4x headroom."""
        cfg = fermi_config()
        cfg = dataclasses.replace(cfg, l1d=dataclasses.replace(
            cfg.l1d, size_bytes=64 * 1024))
        lines = (cfg.num_sms * cfg.l1d.num_lines
                 + cfg.l2_partitions * cfg.l2.num_lines)
        assert 4 * lines <= MAX_CACHE_LINES
