"""GPU configuration (paper Table III) and occupancy calculation.

The default :class:`GPUConfig` mirrors the Fermi GTX480-like configuration
used by the paper's GPGPU-Sim setup: 15 SMs, 48 concurrent warps and 8
concurrent CTAs per SM, 16KB/128B/4-way L1D with 32 MSHRs, a 12-partition
L2 (64KB/partition, 8-way), and 6 GDDR5 channels scheduled FR-FCFS with
16-entry queues.

Because the reproduction runs on a pure-Python cycle model, scaled-down
presets (:func:`small_config`, :func:`test_config`) are provided for tests
and experiment sweeps; every structural knob of Table III is preserved,
only the core count and workload scale shrink.

The serve tier's knobs live here too (:class:`ServeConfig`,
:class:`RouterConfig`), as the one declaration the ``repro serve`` /
``repro fleet`` flags are generated from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.guard.faults import FaultPlan


#: Bound on cache lines, per cache and summed over every L1 and L2
#: slice of a GPU: a cache allocates one tag-set dict per set up front
#: and fills up to this many lines.  The largest user (the 64KB-L1 study
#: on the 15-SM preset) holds 13824.
MAX_CACHE_LINES = 1 << 16


def _check_upper_bounds(section: str, obj, limits) -> None:
    """Refuse a size above its bound.  Each bounded field sizes a
    per-SM, per-partition or per-channel structure, so an absurd value
    from a client would allocate without limit; every preset, study and
    test stays at least 4x below its bound."""
    for name, hi in limits:
        value = getattr(obj, name)
        if value > hi:
            raise ConfigError(f"{section}{name} must be <= {hi} (got {value})")


class SchedulerKind(enum.Enum):
    """Warp scheduler selection.

    ``TWO_LEVEL`` is the paper's baseline (8-entry ready queue).  ``PAS``
    is the prefetch-aware two-level scheduler of Section V-A.  ``LRR`` and
    ``GTO`` are the classic loose-round-robin and greedy-then-oldest
    policies used in Figure 14b's scheduler sweep.
    """

    LRR = "lrr"
    GTO = "gto"
    TWO_LEVEL = "two_level"
    PAS = "pas"
    #: PAS's leading-warp prioritization grafted onto LRR / GTO
    #: (Section V-A: "it is also possible to make simple enhancements to
    #: the loose round-robin scheduler ... also, in the GTO ...").
    PAS_LRR = "pas_lrr"
    PAS_GTO = "pas_gto"

    @property
    def prefetch_aware(self) -> bool:
        """True for the PAS family (leading-warp aware) schedulers."""
        return self in (SchedulerKind.PAS, SchedulerKind.PAS_LRR,
                        SchedulerKind.PAS_GTO)


@dataclass(frozen=True)
class CacheConfig:
    """Set-associative cache geometry and timing."""

    size_bytes: int
    line_bytes: int
    assoc: int
    hit_latency: int
    mshr_entries: int
    miss_queue_depth: int = 8

    @property
    def num_lines(self) -> int:
        """Total cache lines (size / line size)."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.num_lines // self.assoc

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.assoc <= 0:
            raise ConfigError(
                f"cache size ({self.size_bytes}), line size "
                f"({self.line_bytes}) and associativity ({self.assoc}) "
                "must be positive"
            )
        _check_upper_bounds("cache ", self, (
            ("num_lines", MAX_CACHE_LINES), ("mshr_entries", 4096),
            ("miss_queue_depth", 4096)))
        if self.size_bytes % self.line_bytes:
            raise ConfigError(
                f"cache size {self.size_bytes} must be a multiple of the "
                f"line size {self.line_bytes}"
            )
        lines = self.size_bytes // self.line_bytes
        if lines % self.assoc:
            raise ConfigError(
                f"line count {lines} must be a multiple of associativity "
                f"{self.assoc}"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(
                f"set count must be a power of two (got {self.num_sets}); "
                "adjust size_bytes or assoc"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(
                f"line size must be a power of two (got {self.line_bytes})"
            )
        if self.mshr_entries < 1:
            raise ConfigError(
                f"mshr_entries must be >= 1 (got {self.mshr_entries}); a "
                "cache with zero MSHRs can never service a miss"
            )
        if self.hit_latency < 1:
            raise ConfigError(
                f"hit_latency must be >= 1 cycle (got {self.hit_latency})"
            )
        if self.miss_queue_depth < 1:
            raise ConfigError(
                f"miss_queue_depth must be >= 1 (got {self.miss_queue_depth})"
            )


@dataclass(frozen=True)
class DRAMConfig:
    """GDDR5 channel model parameters (paper Table III timings).

    Timings are expressed in core cycles.  ``row_hit_cycles`` approximates
    CL + burst for an open-row access; ``row_miss_cycles`` adds
    precharge + activate (tRP + tRCD).
    """

    channels: int = 6
    queue_entries: int = 16
    banks_per_channel: int = 16
    row_bytes: int = 4096
    row_hit_cycles: int = 6
    row_miss_cycles: int = 36
    # FR-FCFS serves row hits first; demand requests outrank prefetches.
    prefetch_low_priority: bool = True

    def __post_init__(self) -> None:
        _check_upper_bounds("dram.", self, (
            ("channels", 256), ("banks_per_channel", 256),
            ("queue_entries", 4096)))
        if self.channels < 1:
            raise ConfigError(f"dram.channels must be >= 1 (got {self.channels})")
        if self.queue_entries < 1:
            raise ConfigError(
                f"dram.queue_entries must be >= 1 (got {self.queue_entries})"
            )
        if self.banks_per_channel < 1:
            raise ConfigError(
                f"dram.banks_per_channel must be >= 1 "
                f"(got {self.banks_per_channel})"
            )
        if self.row_bytes < 1:
            raise ConfigError(f"dram.row_bytes must be >= 1 (got {self.row_bytes})")
        if self.row_hit_cycles < 1:
            raise ConfigError(
                f"dram.row_hit_cycles must be >= 1 (got {self.row_hit_cycles}): "
                "a burst holds the data bus for at least one cycle"
            )
        if self.row_miss_cycles < self.row_hit_cycles:
            raise ConfigError(
                f"dram.row_miss_cycles ({self.row_miss_cycles}) must be >= "
                f"row_hit_cycles ({self.row_hit_cycles}): a miss pays the "
                "hit burst plus precharge+activate"
            )


@dataclass(frozen=True)
class InterconnectConfig:
    """SM <-> L2 crossbar: fixed latency plus per-cycle flit bandwidth."""

    latency: int = 8
    requests_per_cycle: int = 16
    queue_depth: int = 32

    def __post_init__(self) -> None:
        _check_upper_bounds("icnt.", self, (("queue_depth", 4096),))
        if self.latency < 0:
            raise ConfigError(f"icnt.latency must be >= 0 (got {self.latency})")
        if self.requests_per_cycle < 1:
            raise ConfigError(
                f"icnt.requests_per_cycle must be >= 1 "
                f"(got {self.requests_per_cycle})"
            )
        if self.queue_depth < 1:
            raise ConfigError(
                f"icnt.queue_depth must be >= 1 (got {self.queue_depth})"
            )


@dataclass(frozen=True)
class PrefetcherConfig:
    """Knobs shared by the prefetch engines.

    ``dist_entries``/``percta_entries`` and ``mispredict_threshold`` follow
    Section V-B (four entries each, one-byte counter, threshold 128).
    ``max_coalesced_targets`` is the paper's "no more than four coalesced
    memory accesses" targeting rule.
    """

    percta_entries: int = 4
    dist_entries: int = 4
    mispredict_threshold: int = 128
    max_coalesced_targets: int = 4
    inter_warp_distance: int = 4
    intra_warp_depth: int = 1
    nlp_degree: int = 1
    lap_macroblock_lines: int = 4
    lap_miss_trigger: int = 2
    eager_wakeup: bool = True
    #: Depth of the SM's prefetch network-injection queue.
    prefetch_miss_queue_depth: int = 16
    #: In-flight prefetch buffer entries per SM (the prefetch request
    #: generator's bookkeeping; prefetches do not occupy demand MSHRs).
    prefetch_inflight_entries: int = 32
    #: CAPS prefetch-ahead window: prefetches are generated for at most
    #: this many warps beyond the furthest warp that has already issued
    #: the load, and topped up as trailing warps execute.  Prevents a
    #: freshly detected stride from flooding the (128-line) L1 with
    #: far-future lines that would be evicted before use.
    prefetch_window: int = 16

    def __post_init__(self) -> None:
        for name in ("percta_entries", "dist_entries", "mispredict_threshold",
                     "max_coalesced_targets", "prefetch_miss_queue_depth",
                     "prefetch_inflight_entries", "prefetch_window"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"prefetch.{name} must be >= 1 (got {getattr(self, name)})"
                )


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs (see :mod:`repro.obs` and docs/observability.md).

    Everything here defaults to *off*: a config with the default
    ``ObsConfig`` runs the exact hot loop the simulator has always run
    (the <2% budget is read as ``obs.on_overhead`` on perfbench's two
    ``sim-*`` workloads).  Because :class:`ObsConfig` is part of
    :class:`GPUConfig`, enabling a collector changes the run's cache
    fingerprint — observed and unobserved runs never share a cache cell,
    even though the simulated outcome is identical.
    """

    #: Enable the windowed time-series collectors (per-SM IPC, stall
    #: breakdown, queue/MSHR occupancy, prefetch outcome series).
    metrics: bool = False
    #: Sampling window in cycles: one time-series sample is emitted per
    #: ``window`` cycles (plus one final partial window).
    window: int = 512
    #: Record a Chrome trace-event timeline (warp exec/stall spans,
    #: leading-warp spans, prefetch lifetimes, PerCTA writes).
    trace: bool = False
    #: Hard cap on recorded trace events; the recorder counts (and
    #: reports) events dropped beyond the cap instead of growing
    #: without bound.
    trace_limit: int = 100_000
    #: Time the host-side cost of each simulator phase (SM issue, memory
    #: system, collectors) with :class:`repro.obs.profiler.PhaseProfiler`.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(
                f"obs.window must be >= 1 cycle (got {self.window})"
            )
        if self.trace_limit < 1:
            raise ConfigError(
                f"obs.trace_limit must be >= 1 (got {self.trace_limit})"
            )

    @property
    def enabled(self) -> bool:
        """True when any collector (metrics/trace/profile) is on."""
        return self.metrics or self.trace or self.profile


#: Valid values for :attr:`GPUConfig.engine`.
SIM_ENGINES = ("cycle", "event")

#: Valid values for :attr:`MultiConfig.alloc_policy`.
ALLOC_POLICIES = ("spatial", "leftover", "preempt")


@dataclass(frozen=True)
class MultiConfig:
    """Concurrent-kernel execution knobs (see docs/architecture.md).

    Only acts when a run co-schedules more than one kernel (``repro run
    A+B``): with one kernel every policy grants the same CTAs in the
    same order (``tests/sim/test_differential_engines.py`` pins it).
    Single-kernel runs still fingerprint the fields, so co-run results
    can never alias a cached single-kernel cell (exec-cache schema v4).
    """

    #: Inter-kernel CTA allocation policy:
    #: ``spatial``  — fixed SM partition per kernel (an SM never hosts
    #:                CTAs from two kernels, idles when its kernel drains);
    #: ``leftover`` — kernel 0 owns every slot it can fill, later kernels
    #:                drain into whatever is left (FCFS draining);
    #: ``preempt``  — CTA-boundary preemption: every free slot goes to
    #:                the kernel with the shortest *predicted* remaining
    #:                runtime (online structural prediction a la Pai et
    #:                al.), so short kernels overtake long ones.
    alloc_policy: str = "leftover"
    #: ``spatial`` policy: fraction of SMs owned by kernel 0 (the rest
    #: are split evenly over the remaining kernels).
    spatial_split: float = 0.5
    #: ``preempt`` policy: exponential-moving-average weight for observed
    #: CTA durations (1.0 = latest sample only).
    predictor_ema: float = 0.5
    #: ``preempt`` policy: before any CTA of a kernel completes, its
    #: per-CTA runtime is predicted structurally from the kernel's static
    #: instruction mix scaled by this many cycles per dynamic instruction.
    predictor_cpi_prior: float = 4.0

    def __post_init__(self) -> None:
        if self.alloc_policy not in ALLOC_POLICIES:
            raise ConfigError(
                f"multi.alloc_policy must be one of {ALLOC_POLICIES} "
                f"(got {self.alloc_policy!r})"
            )
        if not 0.0 < self.spatial_split < 1.0:
            raise ConfigError(
                f"multi.spatial_split must be in (0, 1) "
                f"(got {self.spatial_split})"
            )
        if not 0.0 < self.predictor_ema <= 1.0:
            raise ConfigError(
                f"multi.predictor_ema must be in (0, 1] "
                f"(got {self.predictor_ema})"
            )
        if self.predictor_cpi_prior <= 0:
            raise ConfigError(
                f"multi.predictor_cpi_prior must be > 0 "
                f"(got {self.predictor_cpi_prior})"
            )


@dataclass(frozen=True)
class GPUConfig:
    """Top-level configuration (paper Table III)."""

    num_sms: int = 15
    simt_width: int = 32
    max_warps_per_sm: int = 48
    max_ctas_per_sm: int = 8
    registers_per_sm: int = 32768  # 128KB / 4B
    shared_mem_per_sm: int = 48 * 1024
    ready_queue_size: int = 8
    scheduler: SchedulerKind = SchedulerKind.TWO_LEVEL
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=16 * 1024,
            line_bytes=128,
            assoc=4,
            hit_latency=28,
            mshr_entries=32,
        )
    )
    l2_partitions: int = 12
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=64 * 1024,
            line_bytes=128,
            assoc=8,
            hit_latency=120,
            mshr_entries=32,
        )
    )
    icnt: InterconnectConfig = field(default_factory=InterconnectConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    prefetch: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    max_cycles: int = 2_000_000
    #: Watchdog: declare a hang after this many cycles with no retired
    #: instruction and no completed memory request (0 disables).
    hang_cycles: int = 50_000
    #: Audit structural invariants every cycle (expensive; the cheap
    #: end-of-run conservation checks are always on).
    deep_checks: bool = False
    #: Observability layer (time-series collectors, timeline tracing,
    #: phase profiling); everything defaults to off — see
    #: docs/observability.md.
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Step of the one run loop (repro.sim.fastcore): ``"event"``
    #: (default) skips provably quiet cycles in batches; ``"cycle"`` is
    #: the reference every-component-every-cycle step the event step is
    #: differentially tested against (see docs/architecture.md and
    #: tests/sim/test_differential_engines.py).  Both produce
    #: bit-identical results; ``deep_checks`` and ``obs.profile`` are
    #: hooks of the loop and apply to whichever step is configured.
    engine: str = "event"
    #: Concurrent-kernel execution knobs; inert for single-kernel runs
    #: but always part of the cache fingerprint (schema v4).
    multi: MultiConfig = field(default_factory=MultiConfig)

    def __post_init__(self) -> None:
        _check_upper_bounds("", self, (
            ("num_sms", 1024), ("max_warps_per_sm", 1024),
            ("max_ctas_per_sm", 256), ("l2_partitions", 1024)))
        if self.num_sms < 1:
            raise ConfigError(f"need at least one SM (got {self.num_sms})")
        if self.simt_width < 1:
            raise ConfigError(f"simt_width must be >= 1 (got {self.simt_width})")
        if self.max_warps_per_sm < 1 or self.max_ctas_per_sm < 1:
            raise ConfigError(
                f"max_warps_per_sm ({self.max_warps_per_sm}) and "
                f"max_ctas_per_sm ({self.max_ctas_per_sm}) must be >= 1"
            )
        if self.l2_partitions < 1:
            raise ConfigError(
                f"need at least one L2 partition (got {self.l2_partitions})"
            )
        if self.l2_partitions % self.dram.channels:
            # An uneven partition->channel mapping creates a permanently
            # hot channel and skews every bandwidth experiment.
            raise ConfigError(
                "l2_partitions must be a multiple of dram.channels "
                f"(got {self.l2_partitions} / {self.dram.channels}); use e.g. "
                f"{self.dram.channels * max(1, self.l2_partitions // self.dram.channels)}"
                " partitions or adjust the channel count"
            )
        if self.l1d.line_bytes != self.l2.line_bytes:
            raise ConfigError(
                f"L1 and L2 line sizes must match (got {self.l1d.line_bytes} "
                f"vs {self.l2.line_bytes})"
            )
        lines = (self.num_sms * self.l1d.num_lines
                 + self.l2_partitions * self.l2.num_lines)
        if lines > MAX_CACHE_LINES:
            raise ConfigError(
                f"cache lines over all L1s and L2 slices must be <= "
                f"{MAX_CACHE_LINES} (got {lines})"
            )
        if self.ready_queue_size < 1:
            raise ConfigError(
                f"ready queue needs at least one entry "
                f"(got {self.ready_queue_size})"
            )
        if self.ready_queue_size > self.max_warps_per_sm:
            raise ConfigError(
                f"ready_queue_size ({self.ready_queue_size}) cannot exceed "
                f"max_warps_per_sm ({self.max_warps_per_sm}): the two-level "
                "scheduler's ready queue holds resident warps"
            )
        if self.max_cycles < 1:
            raise ConfigError(f"max_cycles must be >= 1 (got {self.max_cycles})")
        if self.hang_cycles < 0:
            raise ConfigError(
                f"hang_cycles must be >= 0 (got {self.hang_cycles}); "
                "0 disables the watchdog"
            )
        if self.engine not in SIM_ENGINES:
            raise ConfigError(
                f"engine must be one of {SIM_ENGINES} (got {self.engine!r})"
            )

    @property
    def line_bytes(self) -> int:
        """Cache-line size in bytes (L1 and L2 lines always match)."""
        return self.l1d.line_bytes

    def with_scheduler(self, kind: SchedulerKind) -> "GPUConfig":
        """Copy of this config with the warp scheduler replaced."""
        return replace(self, scheduler=kind)

    def with_cta_limit(self, max_ctas: int) -> "GPUConfig":
        """Copy of this config with ``max_ctas_per_sm`` replaced."""
        if max_ctas < 1:
            raise ConfigError(f"max_ctas must be >= 1 (got {max_ctas})")
        return replace(self, max_ctas_per_sm=max_ctas)

    def with_engine(self, engine: str) -> "GPUConfig":
        """Copy of this config with the simulator core replaced
        (``"cycle"`` reference step or ``"event"`` fast core)."""
        return replace(self, engine=engine)

    def with_multi(self, **overrides) -> "GPUConfig":
        """Copy of this config with :class:`MultiConfig` fields replaced
        (``cfg.with_multi(alloc_policy="preempt")`` for co-run sweeps)."""
        return replace(self, multi=replace(self.multi, **overrides))

    def with_obs(self, **overrides) -> "GPUConfig":
        """Copy of this config with :class:`ObsConfig` fields replaced.

        ``cfg.with_obs(metrics=True, window=256)`` is the usual way to
        turn a collector on for one run; see docs/observability.md.
        """
        return replace(self, obs=replace(self.obs, **overrides))


@dataclass(frozen=True)
class CTAResources:
    """Per-CTA resource demand used by the occupancy calculator."""

    threads: int
    registers_per_thread: int = 24
    shared_mem_bytes: int = 0


def occupancy(config: GPUConfig, res: CTAResources) -> int:
    """Maximum concurrent CTAs per SM (Section II-B).

    The limit is the minimum over four constraints: the hardware CTA
    limit, the warp limit, the register file, and shared memory.  Returns
    0 when a single CTA cannot fit at all.
    """

    if res.threads <= 0:
        raise ValueError("CTA must have at least one thread")
    warps_per_cta = (res.threads + config.simt_width - 1) // config.simt_width
    by_warps = config.max_warps_per_sm // warps_per_cta
    regs = res.threads * res.registers_per_thread
    by_regs = config.registers_per_sm // regs if regs else config.max_ctas_per_sm
    if res.shared_mem_bytes:
        by_smem = config.shared_mem_per_sm // res.shared_mem_bytes
    else:
        by_smem = config.max_ctas_per_sm
    return max(0, min(config.max_ctas_per_sm, by_warps, by_regs, by_smem))


def fermi_config(**overrides) -> GPUConfig:
    """The paper's Table III configuration."""

    return replace(GPUConfig(), **overrides) if overrides else GPUConfig()


def small_config(**overrides) -> GPUConfig:
    """Scaled-down configuration for experiment sweeps.

    Fewer SMs and L2 partitions keep pure-Python simulation times
    manageable while preserving the per-SM structure (warp/CTA limits,
    cache geometry, queue depths) that the paper's mechanisms exercise.
    """

    base = GPUConfig(
        num_sms=4,
        l2_partitions=4,
        icnt=InterconnectConfig(requests_per_cycle=8),
        dram=DRAMConfig(channels=2),
        # Runs are ~10,000x shorter than the paper's 1B-instruction
        # simulations; the throttle threshold scales accordingly so
        # irregular-stride PCs shut off within the same fraction of a run.
        prefetch=PrefetcherConfig(mispredict_threshold=4),
        max_cycles=400_000,
    )
    return replace(base, **overrides) if overrides else base


def test_config(**overrides) -> GPUConfig:
    """Tiny configuration for unit/integration tests."""

    base = GPUConfig(
        num_sms=2,
        max_warps_per_sm=16,
        max_ctas_per_sm=4,
        ready_queue_size=4,
        l1d=CacheConfig(
            size_bytes=4 * 1024,
            line_bytes=128,
            assoc=4,
            hit_latency=10,
            mshr_entries=8,
            miss_queue_depth=4,
        ),
        l2_partitions=2,
        l2=CacheConfig(
            size_bytes=16 * 1024,
            line_bytes=128,
            assoc=8,
            hit_latency=40,
            mshr_entries=8,
            miss_queue_depth=4,
        ),
        icnt=InterconnectConfig(latency=4, requests_per_cycle=4, queue_depth=8),
        dram=DRAMConfig(channels=2, queue_entries=8),
        max_cycles=200_000,
    )
    return replace(base, **overrides) if overrides else base


# ------------------------------------------------------------- serve tier
#: Serve-tier defaults.  The knobs below read them, and so do the serve
#: components' own constructors, so a component built without a config
#: agrees with one built from the default config; each is described
#: once, at the field that reads it.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642
DEFAULT_QUEUE_LIMIT = 64
DEFAULT_BATCH_MAX = 32
DEFAULT_MAX_ENTRIES = 256
DEFAULT_MAX_BYTES = 64 * 1024 * 1024  # of canonical result JSON
DEFAULT_PROBE_INTERVAL_S = 0.25
#: Long enough for a real simulation, short enough that a blackholed
#: backend is detected and the request fails over instead of hanging.
DEFAULT_FORWARD_TIMEOUT_S = 60.0
DEFAULT_FAILURE_THRESHOLD = 3
DEFAULT_RESET_TIMEOUT_S = 1.0


def _flag(default, help, **spelling):
    """A field that is also a ``repro serve`` / ``repro fleet`` flag
    (``repro.cli`` generates it): ``help`` is its ``--help`` text, where
    ``%(default)s`` expands to the default; ``spelling`` holds what the
    field does not say itself — the ``flag`` when it is not
    ``--field-name``, the ``metavar``, the ``type`` of a ``None``
    default."""
    return field(default=default, metadata=dict(help=help, **spelling))


@dataclass
class Endpoint:
    """Where a serve-tier listener binds (or a client connects); a Unix
    ``socket_path`` wins over TCP ``host``/``port`` when both are set."""

    socket_path: Optional[str] = _flag(
        None, "Unix domain socket path (preferred over TCP when given)",
        flag="--socket", metavar="PATH", type=str)
    host: str = _flag(DEFAULT_HOST,
                      "TCP bind/connect address (default: %(default)s)")
    port: int = _flag(DEFAULT_PORT,
                      "TCP port (default: %(default)s; 0 binds an "
                      "ephemeral port on serve)")

    @property
    def endpoint(self) -> str:
        """Human-readable listener address (``unix:…`` / ``tcp:…``)."""
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"


@dataclass
class ServeConfig(Endpoint):
    """Capacity-planning knobs of one server instance (docs/serving.md)."""

    queue_limit: int = _flag(
        DEFAULT_QUEUE_LIMIT,
        "admitted-but-unresolved cell bound; past it requests are shed "
        "with 'overloaded' (default: %(default)s)", metavar="N")
    batch_max: int = _flag(
        DEFAULT_BATCH_MAX,
        "max cells per dispatched batch (default: %(default)s)", metavar="N")
    default_deadline_s: Optional[float] = _flag(
        None, "deadline applied to requests that carry none (default: "
        "wait indefinitely)", flag="--default-deadline", metavar="SECONDS",
        type=float)
    memcache_entries: int = _flag(
        DEFAULT_MAX_ENTRIES,
        "in-memory result-cache entry cap (default: %(default)s)",
        metavar="N")
    memcache_bytes: int = _flag(
        DEFAULT_MAX_BYTES,
        "in-memory result-cache byte cap (default: %(default)s; accepts "
        "K/M/G suffixes)", metavar="SIZE")
    #: Position of this server within a fleet (0 when standalone);
    #: selects the fault streams of ``fault_plan`` and shows up in
    #: stats so the router can correlate.
    backend_index: int = 0
    #: Optional chaos plan whose serve-tier faults this server injects
    #: (see :class:`repro.guard.faults.FaultPlan`).  ``None`` (the
    #: production default) keeps every fault path compiled out.
    fault_plan: Optional[FaultPlan] = None


@dataclass
class RouterConfig(Endpoint):
    """Listener address and failure-detection knobs of one fleet router
    (docs/fleet.md)."""

    probe_interval_s: float = _flag(
        DEFAULT_PROBE_INTERVAL_S,
        "active health-probe cadence (default: %(default)s)",
        flag="--probe-interval", metavar="SECONDS")
    forward_timeout_s: Optional[float] = _flag(
        DEFAULT_FORWARD_TIMEOUT_S,
        "bound on one forwarded request (default: %(default)g; detects "
        "blackholed backends)", flag="--forward-timeout", metavar="SECONDS")
    failure_threshold: int = _flag(
        DEFAULT_FAILURE_THRESHOLD,
        "consecutive failures that open a backend's circuit breaker "
        "(default: %(default)s)", metavar="N")
    reset_timeout_s: float = _flag(
        DEFAULT_RESET_TIMEOUT_S,
        "how long an open breaker waits before half-open trial requests "
        "(default: %(default)s)", flag="--reset-timeout", metavar="SECONDS")
    #: Read-only disk-cache fallback for fully-degraded keys.
    degraded_cache_dir: Optional[str] = None
