"""System configuration for the MemScale reproduction.

All default values come from Table 2 of the paper (ASPLOS 2011) and the
surrounding text of Section 4.1. Every knob the sensitivity analysis
(Section 4.2.4) varies is an explicit field here: number of channels,
memory power fraction, MC/register power proportionality, CPI bound,
epoch length, and profiling length.

Unit conventions used throughout the package:

* time        -- nanoseconds (float)
* frequency   -- MHz (float); 1 cycle at ``f`` MHz lasts ``1000 / f`` ns
* voltage     -- volts
* current     -- amperes
* power       -- watts
* energy      -- joules
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Bus frequencies the memory subsystem supports, in MHz (Section 4.1).
#: The memory controller always runs at twice the bus frequency.
AVAILABLE_BUS_FREQS_MHZ: Tuple[float, ...] = (
    800.0, 733.0, 667.0, 600.0, 533.0, 467.0, 400.0, 333.0, 267.0, 200.0,
)

#: Nanoseconds per millisecond / microsecond, used by callers configuring
#: epoch lengths.
NS_PER_US = 1_000.0
NS_PER_MS = 1_000_000.0


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


@dataclass(frozen=True)
class DramTimings:
    """DDR3 device timing parameters (Table 2).

    Array-internal timings (``t_rcd``, ``t_rp``, ``t_cl``, ``t_ras``,
    ``t_rrd``, ``t_rtp``, ``t_faw``, powerdown exits, refresh) are fixed in
    *nanoseconds*: the DRAM arrays are not scaled, so their wall-clock
    latency does not change with bus frequency (Section 2.2).  Quantities
    fixed in *bus cycles* (burst length, MC processing) live on
    :class:`FrequencyPoint` because their wall-clock time scales.
    """

    t_rcd_ns: float = 15.0          #: activate -> column command
    t_rp_ns: float = 15.0           #: precharge
    t_cl_ns: float = 15.0           #: column access (CAS) latency
    t_ras_ns: float = 35.0          #: 28 bus cycles at 800 MHz
    t_rrd_ns: float = 5.0           #: 4 bus cycles at 800 MHz
    t_rtp_ns: float = 6.25          #: 5 bus cycles at 800 MHz
    t_faw_ns: float = 25.0          #: 20 bus cycles at 800 MHz
    t_wr_ns: float = 15.0           #: write recovery before precharge
    t_xp_ns: float = 6.0            #: exit fast-exit powerdown
    t_xpdll_ns: float = 24.0        #: exit slow-exit powerdown
    t_rfc_ns: float = 110.0         #: refresh cycle time (1 Gb device)
    t_ckesr_ns: float = 15.0        #: min CKE-low residency in self-refresh
    t_xs_ns: float = 120.0          #: exit self-refresh (~tRFC + 10 ns)
    refresh_period_ns: float = 64.0 * NS_PER_MS  #: retention window
    refresh_rows: int = 8192        #: rows refreshed per retention window

    @property
    def t_refi_ns(self) -> float:
        """Average interval between per-rank refresh commands."""
        return self.refresh_period_ns / self.refresh_rows

    @property
    def t_rc_ns(self) -> float:
        """Minimum activate-to-activate time for one bank."""
        return self.t_ras_ns + self.t_rp_ns

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and value <= 0:
                raise ConfigError(f"DramTimings.{f.name} must be positive, got {value}")
        if self.t_ras_ns < self.t_rcd_ns:
            raise ConfigError("t_ras must cover at least the activate time t_rcd")
        if self.t_refi_ns <= self.t_rfc_ns:
            raise ConfigError("refresh interval must exceed refresh cycle time")


@dataclass(frozen=True)
class DramCurrents:
    """Per-DRAM-chip current draws at 800 MHz (Table 2).

    Named after the conventional IDD numbering of DDR3 datasheets.
    Standby and powerdown currents are derated linearly with bus
    frequency, following Micron's power calculator (Section 4.1).
    """

    vdd: float = 1.575                 #: supply voltage (not scaled; Section 3.4)
    idd0: float = 0.120                #: activate-precharge current
    idd2n: float = 0.070               #: precharge standby
    idd2p: float = 0.045               #: precharge powerdown
    idd3n: float = 0.067               #: active standby
    idd3p: float = 0.045               #: active powerdown
    idd4r: float = 0.250               #: burst read
    idd4w: float = 0.250               #: burst write
    idd5: float = 0.240                #: refresh
    idd6: float = 0.012                #: self-refresh (CKE low, clock stopped)
    #: Fraction of standby/powerdown current that does *not* scale with
    #: frequency (leakage and refresh logic). The frequency-dependent
    #: remainder is derated by ``f / 800``.
    static_fraction: float = 0.35
    #: Average termination power dissipated in a rank while another rank on
    #: the same channel drives a read/write burst (ODT), in watts per rank.
    termination_w_read: float = 0.73
    termination_w_write: float = 1.10

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ConfigError(f"DramCurrents.{f.name} must be non-negative")
        if not 0.0 <= self.static_fraction <= 1.0:
            raise ConfigError("static_fraction must lie in [0, 1]")
        if self.idd4r < self.idd3n or self.idd4w < self.idd3n:
            raise ConfigError("burst currents must exceed active standby current")


@dataclass(frozen=True)
class MemoryOrgConfig:
    """Physical organization of the memory subsystem (Table 2)."""

    channels: int = 4               #: independent DDR3 channels
    dimms_per_channel: int = 2      #: registered DIMMs per channel
    ranks_per_dimm: int = 2         #: dual-ranked DIMMs
    chips_per_rank: int = 9         #: x8 chips, 72-bit wide with ECC
    banks_per_rank: int = 8         #: banks per DRAM chip / rank
    rows_per_bank: int = 32768
    row_size_bytes: int = 8192      #: row-buffer (page) size
    cache_line_bytes: int = 64
    dimm_capacity_gib: int = 2
    #: Row-buffer management: "closed" (precharge after each access unless
    #: a same-row access is already pending — the paper's choice, better
    #: for multi-core [40]) or "open" (rows stay open until a conflict).
    row_policy: str = "closed"

    @property
    def ranks_per_channel(self) -> int:
        return self.dimms_per_channel * self.ranks_per_dimm

    @property
    def total_ranks(self) -> int:
        return self.channels * self.ranks_per_channel

    @property
    def total_dimms(self) -> int:
        return self.channels * self.dimms_per_channel

    @property
    def total_banks(self) -> int:
        return self.total_ranks * self.banks_per_rank

    @property
    def lines_per_row(self) -> int:
        return self.row_size_bytes // self.cache_line_bytes

    def validate(self) -> None:
        for name in ("channels", "dimms_per_channel", "ranks_per_dimm",
                     "chips_per_rank", "banks_per_rank", "rows_per_bank"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"MemoryOrgConfig.{name} must be positive")
        if self.row_size_bytes % self.cache_line_bytes != 0:
            raise ConfigError("row size must be a multiple of the cache line size")
        if self.row_policy not in ("closed", "open"):
            raise ConfigError(
                f"row_policy must be 'closed' or 'open', got {self.row_policy!r}")


@dataclass(frozen=True)
class CpuConfig:
    """Processor-side parameters (Table 2)."""

    cores: int = 16
    freq_mhz: float = 4000.0        #: 4 GHz
    #: Average CPU cycles per instruction for instructions that do not miss
    #: the LLC, including L1/L2 hit stalls. The paper models this as fixed
    #: (Section 3.3); 2.0 reproduces the baseline CPIs of 2-6 its Figure 7b
    #: shows for the MID workloads.
    cpi_cpu: float = 2.0
    llc_miss_per_core: int = 1      #: one outstanding LLC miss per core

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.freq_mhz

    def validate(self) -> None:
        if self.cores <= 0:
            raise ConfigError("CpuConfig.cores must be positive")
        if self.freq_mhz <= 0:
            raise ConfigError("CpuConfig.freq_mhz must be positive")
        if self.cpi_cpu <= 0:
            raise ConfigError("CpuConfig.cpi_cpu must be positive")


@dataclass(frozen=True)
class PowerConfig:
    """Non-DRAM power parameters (Section 4.1).

    ``proportionality_idle_frac`` is the idle power of the MC and the DIMM
    registers expressed as a fraction of their peak power: 0.0 is perfect
    power proportionality, 1.0 is none. The paper's default is 0.5 and
    Figure 15 sweeps {0.0, 0.5, 1.0}.
    """

    mc_peak_w: float = 15.0
    register_peak_w_per_dimm: float = 0.5
    pll_w_per_dimm: float = 0.5
    proportionality_idle_frac: float = 0.5
    mc_vmin: float = 0.65
    mc_vmax: float = 1.20
    #: DIMM (DRAM + PLL/REG) share of total system power at the baseline,
    #: used to derive the fixed rest-of-system power (40% default;
    #: Figure 14 sweeps {0.30, 0.40, 0.50}).
    memory_power_fraction: float = 0.40

    @property
    def mc_idle_w(self) -> float:
        return self.mc_peak_w * self.proportionality_idle_frac

    @property
    def register_idle_w_per_dimm(self) -> float:
        return self.register_peak_w_per_dimm * self.proportionality_idle_frac

    def validate(self) -> None:
        if self.mc_peak_w <= 0 or self.register_peak_w_per_dimm <= 0:
            raise ConfigError("peak powers must be positive")
        if not 0.0 <= self.proportionality_idle_frac <= 1.0:
            raise ConfigError("proportionality_idle_frac must lie in [0, 1]")
        if not 0.0 < self.memory_power_fraction < 1.0:
            raise ConfigError("memory_power_fraction must lie in (0, 1)")
        if self.mc_vmin <= 0 or self.mc_vmax <= self.mc_vmin:
            raise ConfigError("MC voltage range is inconsistent")


@dataclass(frozen=True)
class PolicyConfig:
    """MemScale OS-policy parameters (Sections 3.2 and 4.1)."""

    #: Maximum allowable per-application CPI degradation (gamma, Eq. 1).
    cpi_bound: float = 0.10
    #: OS time quantum / control epoch.
    epoch_ns: float = 5.0 * NS_PER_MS
    #: On-line profiling phase at the start of each epoch.
    profile_ns: float = 300.0 * NS_PER_US
    #: Frequency transition cost: 512 memory-bus cycles plus 28 ns
    #: (DLL re-lock through precharge powerdown, Section 4.1). Float so
    #: scaled configurations can shrink the cost proportionally with the
    #: epoch, preserving the paper's epoch-to-penalty ratio.
    transition_cycles: float = 512.0
    transition_extra_ns: float = 28.0

    def transition_penalty_ns(self, bus_freq_mhz: float) -> float:
        """Wall-clock cost of a frequency switch at the *departing* frequency."""
        return self.transition_cycles * (1000.0 / bus_freq_mhz) + self.transition_extra_ns

    def validate(self) -> None:
        if self.cpi_bound < 0:
            raise ConfigError("cpi_bound must be non-negative")
        if self.epoch_ns <= 0 or self.profile_ns <= 0:
            raise ConfigError("epoch and profile lengths must be positive")
        if self.profile_ns >= self.epoch_ns:
            raise ConfigError("profiling phase must be shorter than the epoch")


@dataclass(frozen=True)
class PlacementConfig:
    """Rank-aware page placement / self-refresh parking parameters.

    Disabled by default: with ``enabled=False`` the memory controller
    decodes addresses through the plain cache-line interleaver and no
    rank ever enters self-refresh, so results are byte-identical to a
    build without this section (pinned by the golden snapshot and a
    Hypothesis property).

    When enabled, physical pages (``page_lines`` consecutive cache
    lines) are homed on a single *rank group* — the same within-channel
    rank index on every channel, preserving channel interleaving while
    concentrating rank traffic. Per epoch, up to
    ``migrations_per_epoch`` hot pages (``hot_page_min_accesses``+
    accesses) are migrated off cold groups into the
    ``hot_group_fraction`` hottest groups (copy cost modeled as real
    read+write traffic), and groups that stay access-free for
    ``sr_idle_epochs`` consecutive epochs are parked in SELF_REFRESH.
    """

    enabled: bool = False
    #: Cache lines per OS page (128 x 64 B = 8 KiB, one row buffer).
    page_lines: int = 128
    #: Fraction of rank groups kept hot (migration targets; never parked).
    hot_group_fraction: float = 0.25
    #: Page-migration budget per epoch (0 disables migration).
    migrations_per_epoch: int = 16
    #: Accesses per epoch for a page on a cold group to qualify for
    #: migration into a hot group.
    hot_page_min_accesses: int = 1
    #: Consecutive access-free epochs before a cold group is parked.
    sr_idle_epochs: int = 1
    #: Home new pages round-robin across groups until the policy has
    #: established a hot set (models an unmanaged first-touch allocator);
    #: False homes every new page on a hot group from the start.
    spread_initial: bool = True

    def validate(self) -> None:
        if self.page_lines <= 0:
            raise ConfigError("PlacementConfig.page_lines must be positive")
        if not 0.0 < self.hot_group_fraction <= 1.0:
            raise ConfigError("hot_group_fraction must lie in (0, 1]")
        if self.migrations_per_epoch < 0:
            raise ConfigError("migrations_per_epoch must be non-negative")
        if self.hot_page_min_accesses < 1:
            raise ConfigError("hot_page_min_accesses must be at least 1")
        if self.sr_idle_epochs < 1:
            raise ConfigError("sr_idle_epochs must be at least 1")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundle.

    Use :func:`default_config` (or :meth:`replace`) rather than constructing
    sub-configs by hand; ``validate`` is invoked by the simulator before any
    run.
    """

    timings: DramTimings = field(default_factory=DramTimings)
    currents: DramCurrents = field(default_factory=DramCurrents)
    org: MemoryOrgConfig = field(default_factory=MemoryOrgConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    bus_freqs_mhz: Tuple[float, ...] = AVAILABLE_BUS_FREQS_MHZ
    #: Arm the runtime DDR3 protocol validator (memsim/validate.py). An
    #: observer only — simulated results are identical either way, so the
    #: experiment cache deliberately ignores this flag.
    validate_protocol: bool = False
    #: Batch idle-period housekeeping (refresh ticks, powerdown
    #: residency) analytically instead of event by event
    #: (memsim/controller.py). Results are byte-identical on or off —
    #: pinned by the golden snapshot and a property test — so the
    #: experiment cache ignores this flag too; it exists as an escape
    #: hatch and for measuring the speedup itself.
    fast_forward: bool = True

    def sorted_bus_freqs(self) -> List[float]:
        """Candidate bus frequencies, descending (highest first)."""
        return sorted(self.bus_freqs_mhz, reverse=True)

    def validate(self) -> None:
        sections = (self.timings, self.currents, self.org, self.cpu,
                    self.power, self.policy, self.placement)
        # NaN slips through every ``value <= 0`` test below, so reject
        # non-finite numbers first, by name.
        numeric = [(f"{type(section).__name__}.{f.name}",
                    getattr(section, f.name))
                   for section in sections
                   for f in dataclasses.fields(section)]
        numeric += [("SystemConfig.bus_freqs_mhz", f)
                    for f in self.bus_freqs_mhz]
        for name, value in numeric:
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for section in sections:
            section.validate()
        if self.placement.enabled:
            interleave = self.org.channels * self.org.banks_per_rank
            if self.placement.page_lines % interleave != 0:
                raise ConfigError(
                    "placement.page_lines must be a multiple of "
                    f"channels*banks_per_rank ({interleave}) so pages keep "
                    "full channel/bank interleaving within a rank group")
        if not self.bus_freqs_mhz:
            raise ConfigError("at least one bus frequency is required")
        if len(set(self.bus_freqs_mhz)) != len(self.bus_freqs_mhz):
            raise ConfigError("bus frequencies must be distinct")
        for f in self.bus_freqs_mhz:
            if f <= 0:
                raise ConfigError("bus frequencies must be positive")

    def replace(self, **section_overrides: object) -> "SystemConfig":
        """Return a copy with whole sections replaced (e.g. ``policy=...``)."""
        return dataclasses.replace(self, **section_overrides)

    def with_policy(self, **kwargs: object) -> "SystemConfig":
        return self.replace(policy=dataclasses.replace(self.policy, **kwargs))

    def with_power(self, **kwargs: object) -> "SystemConfig":
        return self.replace(power=dataclasses.replace(self.power, **kwargs))

    def with_org(self, **kwargs: object) -> "SystemConfig":
        return self.replace(org=dataclasses.replace(self.org, **kwargs))

    def with_cpu(self, **kwargs: object) -> "SystemConfig":
        return self.replace(cpu=dataclasses.replace(self.cpu, **kwargs))

    def with_placement(self, **kwargs: object) -> "SystemConfig":
        return self.replace(
            placement=dataclasses.replace(self.placement, **kwargs))


def config_to_dict(config: SystemConfig) -> Dict[str, object]:
    """JSON-ready dictionary capturing every field of ``config``.

    The inverse of :func:`config_from_dict`; the sweep service's
    persistent job ledger stores this so an interrupted sweep can be
    resumed by a later process with the exact same configuration.
    """
    return dataclasses.asdict(config)


def config_from_dict(payload: Dict[str, object]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output.

    Unknown top-level keys are rejected (a payload from a newer code
    version should fail loudly, not silently drop a knob); the result
    is validated before being returned. The retired
    ``approx_steady_state`` flag is dropped when false; true means the
    payload describes approximate results this code cannot reproduce.
    The retired ``busy_absorption`` flag is dropped whatever its value:
    that path was exact, so results written either way reproduce.
    """
    payload = dict(payload)
    payload.pop("busy_absorption", None)
    if payload.pop("approx_steady_state", False):
        raise ConfigError(
            "approx_steady_state is true, but the approximate steady-state "
            "surrogate has been removed: this directory holds approximate "
            "results that cannot be reproduced; start a fresh --dir")
    known = {f.name for f in dataclasses.fields(SystemConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(
            f"unknown SystemConfig fields in payload: {sorted(unknown)}")
    sections = {
        "timings": DramTimings, "currents": DramCurrents,
        "org": MemoryOrgConfig, "cpu": CpuConfig,
        "power": PowerConfig, "policy": PolicyConfig,
        "placement": PlacementConfig,
    }
    kwargs: Dict[str, object] = {}
    for name, cls in sections.items():
        if name in payload:
            kwargs[name] = cls(**payload[name])
    if "bus_freqs_mhz" in payload:
        kwargs["bus_freqs_mhz"] = tuple(payload["bus_freqs_mhz"])
    for flag in ("validate_protocol", "fast_forward"):
        if flag in payload:
            kwargs[flag] = bool(payload[flag])
    config = SystemConfig(**kwargs)
    config.validate()
    return config


def default_config() -> SystemConfig:
    """The paper's Table 2 configuration."""
    cfg = SystemConfig()
    cfg.validate()
    return cfg


def scaled_config(epoch_ns: float = 20.0 * NS_PER_US,
                  profile_ns: float = 2.0 * NS_PER_US) -> SystemConfig:
    """Table 2 configuration with epochs shortened for pure-Python runs.

    The paper shows MemScale is insensitive to epoch/profile length
    (Section 4.2.4); shrinking both keeps every other physical parameter
    at its published value while making full sweeps tractable. The
    frequency-transition cost is shrunk by the same factor so that the
    epoch-to-penalty ratio (0.014% of a 5 ms epoch) is preserved —
    otherwise transitions would be ~400x more expensive relative to an
    epoch than in the paper's system. See DESIGN.md, "Substitutions".
    """
    base = default_config()
    ratio = epoch_ns / base.policy.epoch_ns
    cfg = base.with_policy(
        epoch_ns=epoch_ns, profile_ns=profile_ns,
        transition_cycles=base.policy.transition_cycles * ratio,
        transition_extra_ns=base.policy.transition_extra_ns * ratio)
    cfg.validate()
    return cfg
