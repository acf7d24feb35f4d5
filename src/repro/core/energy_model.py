"""Full-system energy model and SER frequency ranking (Eq. 10).

The System Energy Ratio of a candidate memory frequency is

    SER(f) = (T_f * P_f) / (T_base * P_base)

where ``T_f`` is the predicted execution time of the profiled work at
``f`` and ``P_f = P_mem(f) + P_rest`` adds a *fixed* rest-of-system power
to the modeled memory-subsystem power. Minimizing SER is what stops the
policy from slowing memory past the point where longer runtime costs the
rest of the server more energy than memory saves (Section 3.3).

``P_rest`` is calibrated from a baseline run so that DIMM power is the
configured fraction of total system power (40% by default, Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import SystemConfig
from repro.core.frequency import FrequencyPoint
from repro.core.perf_model import PerformanceModel
from repro.core.power_model import PowerBreakdown, PowerModel
from repro.memsim.counters import CounterDelta


def rest_of_system_power_w(avg_dimm_power_w: float,
                           memory_fraction: float) -> float:
    """Fixed non-memory power implied by the DIMM share of system power.

    With DIMMs at ``memory_fraction`` of the total, the remaining
    ``1 - memory_fraction`` belongs to everything else.
    """
    if not 0.0 < memory_fraction < 1.0:
        raise ValueError("memory_fraction must lie in (0, 1)")
    if avg_dimm_power_w < 0:
        raise ValueError("avg_dimm_power_w must be non-negative")
    return avg_dimm_power_w * (1.0 - memory_fraction) / memory_fraction


@dataclass(frozen=True)
class EnergyEstimate:
    """Predicted energy terms for one candidate frequency.

    :meth:`EnergyModel.estimate_ladder` returns one record for the whole
    ladder, every field (and the breakdown's) a per-point array.
    """

    freq_bus_mhz: float
    time_scale: float          #: T(candidate) / T(profiled interval)
    breakdown: PowerBreakdown
    system_power_w: float
    ser: float                 #: Eq. 10, relative to the base frequency
    memory_energy_ratio: float  #: memory-only variant (MemEnergy policy)


def _inf_like(value):
    """``inf`` shaped like ``value`` (a float for a scalar)."""
    return np.full(np.shape(value), np.inf) if np.ndim(value) else float("inf")


class EnergyModel:
    """Ranks candidate frequencies by predicted full-system energy."""

    def __init__(self, config: SystemConfig, rest_power_w: float,
                 perf_model: Optional[PerformanceModel] = None,
                 power_model: Optional[PowerModel] = None):
        config.validate()
        if rest_power_w < 0:
            raise ValueError("rest_power_w must be non-negative")
        self._config = config
        self.rest_power_w = rest_power_w
        self._perf = perf_model if perf_model is not None else PerformanceModel(config)
        self._power = power_model if power_model is not None else PowerModel(config)

    @property
    def perf_model(self) -> PerformanceModel:
        return self._perf

    @property
    def power_model(self) -> PowerModel:
        return self._power

    def _estimate(self, freq_bus_mhz, time_scale, breakdown: PowerBreakdown,
                  scale_base: float, memory_base_w: float) -> EnergyEstimate:
        """Eq. 10 for one point (floats) or many (arrays) against the
        base point's time scale and memory power."""
        memory_w = breakdown.memory_w
        system_w = memory_w + self.rest_power_w
        denom = scale_base * (memory_base_w + self.rest_power_w)
        mem_denom = scale_base * memory_base_w
        return EnergyEstimate(
            freq_bus_mhz=freq_bus_mhz,
            time_scale=time_scale,
            breakdown=breakdown,
            system_power_w=system_w,
            ser=((time_scale * system_w) / denom if denom > 0
                 else _inf_like(time_scale)),
            memory_energy_ratio=((time_scale * memory_w) / mem_denom
                                 if mem_denom > 0 else _inf_like(time_scale)),
        )

    def estimate(self, delta: CounterDelta, profiled_freq: FrequencyPoint,
                 candidate: FrequencyPoint,
                 base: FrequencyPoint) -> EnergyEstimate:
        """Predict SER and power for running the profiled work at ``candidate``.

        ``base`` is the SER reference (the paper's nominal frequency: the
        maximum). All predictions derive from counters profiled at
        ``profiled_freq``.
        """
        scale_cand = self._perf.time_scale(delta, profiled_freq, candidate)
        scale_base = self._perf.time_scale(delta, profiled_freq, base)
        p_base = self._power.predict(delta, base, scale_base)
        p_cand = self._power.predict(delta, candidate, scale_cand)
        return self._estimate(candidate.bus_mhz, scale_cand, p_cand,
                              scale_base, p_base.memory_w)

    def estimate_ladder(self, delta: CounterDelta,
                        profiled_freq: FrequencyPoint) -> EnergyEstimate:
        """:meth:`estimate` for every ladder point in one pass, with the
        fastest point as ``base``; fields are per-point arrays."""
        scale = self._perf.time_scale_ladder(delta, profiled_freq)
        power = self._power.predict_ladder(delta, scale)
        return self._estimate(self._perf.ladder_bus_mhz, scale, power,
                              scale[0], power.memory_w[0])
