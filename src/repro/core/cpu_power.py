"""Core-domain DVFS model: frequency ladder, V^2*f power, compute time.

MemScale scales only the memory domain; SysScale-style multi-domain
coordination needs the compute side of the same two models the memory
domain already has:

* a **frequency ladder** of (frequency, voltage) operating points,
  mirroring :class:`repro.core.frequency.FrequencyLadder` — voltage is
  interpolated linearly with frequency across the configured range;
* a **power model** mirroring :meth:`PowerModel.mc_power_w
  <repro.core.power_model.PowerModel.mc_power_w>`: utilization-linear
  between idle and peak, then scaled by ``V^2 * f`` relative to the
  nominal operating point;
* the **compute time per instruction** at a core point,
  ``cpi_cpu * cycle(f_core)``: the one term of Eq. 3 a core clock
  changes. :meth:`PerformanceModel.cpi
  <repro.core.perf_model.PerformanceModel.cpi>` prices a candidate
  with it, so slowing the cores stretches only the compute term while
  E[TPI_mem] comes from the memory-side model unchanged.

The simulated timeline never re-clocks the cores (``Core`` fixes its
instruction time at construction); the model is *analytical*, exactly
like the OS policy's view of candidate memory frequencies. The
multi-domain governor charges modeled core power and constrains modeled
slowdown — the memory-side simulation stays byte-identical when the
core domain is pinned at nominal frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import SystemConfig

#: Core DVFS steps as fractions of the nominal clock, descending. The
#: 1.0..0.5 range mirrors contemporary server parts (Table 2's 4 GHz
#: nominal scales down to 2 GHz).
CORE_FREQ_STEPS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)


@dataclass(frozen=True)
class CoreDvfsConfig:
    """Parameters of the core frequency/voltage ladder and power model."""

    #: Available core frequencies as fractions of the nominal clock,
    #: descending; the first entry must be 1.0 (nominal).
    freq_steps: Tuple[float, ...] = CORE_FREQ_STEPS
    vmin: float = 0.75              #: supply voltage at the slowest step
    vmax: float = 1.10              #: supply voltage at the nominal step
    #: Peak power of one fully-busy core at nominal frequency/voltage.
    #: 4 W/core puts a busy 16-core cluster at 64 W — inside the
    #: rest-of-system power the 40% DIMM-share calibration implies.
    peak_w_per_core: float = 4.0
    #: Idle power as a fraction of the same-point peak (clock tree,
    #: leakage); mirrors the MC model's idle/peak split.
    idle_frac: float = 0.30

    def validate(self) -> None:
        if len(self.freq_steps) < 1:
            raise ValueError("need at least one core frequency step")
        if self.freq_steps[0] != 1.0:
            raise ValueError("first core frequency step must be 1.0 "
                             "(the nominal clock)")
        if any(s <= 0 for s in self.freq_steps):
            raise ValueError("core frequency steps must be positive")
        if list(self.freq_steps) != sorted(self.freq_steps, reverse=True):
            raise ValueError("core frequency steps must be descending")
        if len(set(self.freq_steps)) != len(self.freq_steps):
            raise ValueError("duplicate core frequency steps")
        if not 0.0 < self.vmin <= self.vmax:
            raise ValueError("need 0 < vmin <= vmax")
        if self.peak_w_per_core <= 0:
            raise ValueError("peak_w_per_core must be positive")
        if not 0.0 <= self.idle_frac <= 1.0:
            raise ValueError("idle_frac must lie in [0, 1]")


@dataclass(frozen=True)
class CoreFrequencyPoint:
    """One operating point of the core domain."""

    freq_mhz: float
    voltage: float
    index: int  #: position in the descending ladder (0 = nominal/fastest)

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.freq_mhz

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.freq_mhz:.0f}MHz(core)@{self.voltage:.3f}V"


class CoreFrequencyLadder:
    """Descending core operating points, voltage interpolated linearly.

    Mirrors :class:`~repro.core.frequency.FrequencyLadder`: index 0 is
    the nominal (fastest) point, ``len - 1`` the slowest; voltage scales
    linearly between ``vmin`` and ``vmax`` over the frequency range.
    """

    def __init__(self, dvfs: CoreDvfsConfig, nominal_mhz: float):
        dvfs.validate()
        if nominal_mhz <= 0:
            raise ValueError("nominal_mhz must be positive")
        freqs = [step * nominal_mhz for step in dvfs.freq_steps]
        f_max, f_min = max(freqs), min(freqs)
        points: List[CoreFrequencyPoint] = []
        for idx, mhz in enumerate(freqs):
            if f_max == f_min:
                voltage = dvfs.vmax
            else:
                voltage = dvfs.vmin + (dvfs.vmax - dvfs.vmin) \
                    * (mhz - f_min) / (f_max - f_min)
            points.append(CoreFrequencyPoint(freq_mhz=mhz, voltage=voltage,
                                             index=idx))
        self._points = tuple(points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index: int) -> CoreFrequencyPoint:
        return self._points[index]

    @property
    def points(self) -> Sequence[CoreFrequencyPoint]:
        return self._points

    @property
    def fastest(self) -> CoreFrequencyPoint:
        return self._points[0]

    @property
    def slowest(self) -> CoreFrequencyPoint:
        return self._points[-1]


class CorePowerModel:
    """V^2*f core power and compute time per instruction (the compute
    domain).

    The power idiom is :meth:`PowerModel.mc_power_w`'s: a base power
    linear in utilization between idle and peak, scaled by
    ``(V^2 * f) / (V_nom^2 * f_nom)``. Utilization is the busy fraction
    of the *simulated* (nominal-clock) timeline — committed instructions
    times the fixed compute time per instruction over the interval.
    """

    def __init__(self, config: SystemConfig,
                 dvfs: Optional[CoreDvfsConfig] = None):
        config.validate()
        self._config = config
        self._dvfs = dvfs if dvfs is not None else CoreDvfsConfig()
        self._dvfs.validate()
        self._ladder = CoreFrequencyLadder(self._dvfs, config.cpu.freq_mhz)
        self._nominal = self._ladder.fastest
        self._cpi_cpu = config.cpu.cpi_cpu
        #: Compute time per instruction at the nominal clock.
        self._tpi_cpu_nominal_ns = self._cpi_cpu * config.cpu.cycle_ns

    @property
    def dvfs(self) -> CoreDvfsConfig:
        return self._dvfs

    @property
    def ladder(self) -> CoreFrequencyLadder:
        return self._ladder

    @property
    def nominal(self) -> CoreFrequencyPoint:
        return self._nominal

    # -- power ---------------------------------------------------------------

    def core_power_w(self, utilization: float,
                     point: CoreFrequencyPoint) -> float:
        """One core's power at ``point``, utilization-linear then V^2*f."""
        d = self._dvfs
        util = min(1.0, max(0.0, utilization))
        base = d.peak_w_per_core * (d.idle_frac + (1.0 - d.idle_frac) * util)
        vf_ratio = ((point.voltage ** 2) * point.freq_mhz
                    / ((self._nominal.voltage ** 2) * self._nominal.freq_mhz))
        return base * vf_ratio

    def cluster_power_w(self, utilizations: Sequence[float],
                        point: CoreFrequencyPoint) -> float:
        """Total power of all cores, each at its own utilization."""
        return sum(self.core_power_w(u, point) for u in utilizations)

    # -- utilization ---------------------------------------------------------

    def utilizations(self, delta) -> List[float]:
        """Per-core busy fraction over a profiled interval.

        ``delta`` is a :class:`~repro.memsim.counters.CounterDelta`; the
        busy time is committed instructions times the fixed nominal
        compute time per instruction (memory-stall time is *not* core
        busy time — it is what the idle fraction of the power model
        charges for).
        """
        interval = delta.interval_ns
        if interval <= 0:
            return [0.0] * len(delta.tic)
        return [min(1.0, float(t) * self._tpi_cpu_nominal_ns / interval)
                for t in delta.tic]

    def run_utilizations(self, result) -> List[float]:
        """Per-core busy fraction over a whole run.

        ``result`` is a :class:`~repro.sim.results.RunResult`; each
        core's commit rate is its target instruction count over its
        completion time, so the busy fraction matches the per-epoch
        definition of :meth:`utilizations` in steady state.
        """
        out = []
        for t_ns in result.core_time_at_target_ns:
            if t_ns <= 0:
                out.append(0.0)
                continue
            busy = result.target_instructions * self._tpi_cpu_nominal_ns
            out.append(min(1.0, busy / t_ns))
        return out

    def run_power_w(self, result, point: CoreFrequencyPoint) -> float:
        """Modeled cluster power over a whole run at a fixed point."""
        return self.cluster_power_w(self.run_utilizations(result), point)

    # -- performance ---------------------------------------------------------

    def tpi_cpu_ns(self, point: CoreFrequencyPoint) -> float:
        """Compute time per instruction at ``point`` (Eq. 3's TPI_cpu)."""
        return self._cpi_cpu * point.cycle_ns
