"""Memory-subsystem frequency domain.

A single :class:`FrequencyPoint` captures everything that changes when the
OS re-locks the memory subsystem to a new bus frequency (Section 2.2):

* the bus/DIMM clock and the derived MC clock (always 2x the bus clock);
* the MC supply voltage, scaled linearly with MC frequency across the
  configured range (0.65 V - 1.2 V by default, Section 4.1);
* wall-clock durations of the *cycle-denominated* operations -- the data
  burst (4 bus cycles for a 64-byte line on an x64 DDR channel) and MC
  request processing (5 MC cycles, Section 3.3).

Array-internal DRAM timings do **not** live here: they are fixed in
nanoseconds and come from :class:`repro.config.DramTimings`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import SystemConfig

#: DDR burst occupies 4 bus cycles for a 64-byte line (8 beats, double
#: data rate), Section 2.1.
BURST_BUS_CYCLES = 4
#: Each request spends 5 MC cycles of processing in the absence of
#: queueing (Section 3.3).
MC_PROCESSING_CYCLES = 5


@dataclass(frozen=True)
class FrequencyPoint:
    """One operating point of the memory subsystem."""

    bus_mhz: float
    mc_mhz: float
    mc_voltage: float
    index: int  #: position in the descending frequency ladder (0 = fastest)

    @property
    def bus_cycle_ns(self) -> float:
        return 1000.0 / self.bus_mhz

    @property
    def mc_cycle_ns(self) -> float:
        return 1000.0 / self.mc_mhz

    @property
    def burst_ns(self) -> float:
        """Wall-clock data-burst (channel transfer) time."""
        return BURST_BUS_CYCLES * self.bus_cycle_ns

    @property
    def mc_latency_ns(self) -> float:
        """Wall-clock MC processing latency per request."""
        return MC_PROCESSING_CYCLES * self.mc_cycle_ns

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.bus_mhz:.0f}MHz(bus)/{self.mc_mhz:.0f}MHz(MC)@{self.mc_voltage:.3f}V"


class FrequencyLadder:
    """The ordered set of operating points a system supports.

    Points are kept in descending bus-frequency order, so index 0 is the
    fastest point and ``len(ladder) - 1`` the slowest. The MC voltage for
    each point is interpolated linearly between ``PowerConfig.mc_vmin`` and
    ``mc_vmax`` over the MC frequency range, mirroring how the paper scales
    MC voltage with frequency.
    """

    def __init__(self, config: SystemConfig):
        self._config = config
        freqs = config.sorted_bus_freqs()
        mc_freqs = [2.0 * f for f in freqs]
        mc_max, mc_min = max(mc_freqs), min(mc_freqs)
        vmin, vmax = config.power.mc_vmin, config.power.mc_vmax
        points: List[FrequencyPoint] = []
        for idx, bus in enumerate(freqs):
            mc = 2.0 * bus
            if mc_max == mc_min:
                voltage = vmax
            else:
                voltage = vmin + (vmax - vmin) * (mc - mc_min) / (mc_max - mc_min)
            points.append(FrequencyPoint(bus_mhz=bus, mc_mhz=mc,
                                         mc_voltage=voltage, index=idx))
        self._points = tuple(points)
        self._by_bus = {p.bus_mhz: p for p in self._points}

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index: int) -> FrequencyPoint:
        return self._points[index]

    @property
    def points(self) -> Sequence[FrequencyPoint]:
        return self._points

    @property
    def fastest(self) -> FrequencyPoint:
        return self._points[0]

    @property
    def slowest(self) -> FrequencyPoint:
        return self._points[-1]

    def at_bus_mhz(self, bus_mhz: float) -> FrequencyPoint:
        """Look up the point with exactly this bus frequency."""
        try:
            return self._by_bus[bus_mhz]
        except KeyError:
            raise ValueError(
                f"{bus_mhz} MHz is not an available bus frequency; "
                f"choose one of {sorted(self._by_bus)}"
            ) from None
