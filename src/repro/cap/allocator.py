"""FastCap-style max-min fairness allocator.

Each epoch the allocator searches the joint frequency space — the
global (MC + bus) ladder crossed with per-channel one-step-down
refinements — for the configuration that **maximizes the minimum
per-core normalized performance subject to the power cap**:

    maximize   min_c  CPI_max(c) / CPI_k(c)
    subject to P_predicted(k) <= budget_w

where ``CPI_max`` is the predicted CPI at the fastest point (execution
without energy management) and ``P_predicted`` is the Micron-style
power model's memory-subsystem prediction for configuration ``k``. The
normalized-performance objective is FastCap's fairness criterion: no
application is sacrificed to keep the others fast.

The search is exhaustive over the global ladder (ten points) and greedy
over per-channel refinements: from each global point, channels are
dropped one ladder step in ascending-utilization order, each cumulative
prefix forming one more candidate — at most ``ladder x (1 + channels)``
evaluations per epoch, all through the pure perf/power models: the
drop order and each step's cost are
:meth:`~repro.core.perf_model.PerformanceModel.channel_steps`, and a
refined candidate's CPI is Eq. 3
(:meth:`~repro.core.perf_model.PerformanceModel.cpi`) at its
E[TPI_mem].

When no candidate fits the budget the allocator *degrades gracefully*:
it returns the lowest-predicted-power configuration (throttle-hardest)
flagged ``feasible=False`` so the governor can count the epoch as
infeasible rather than silently overshooting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.core.energy_model import EnergyModel
from repro.core.frequency import FrequencyLadder, FrequencyPoint
from repro.core.perf_model import PerformanceModel
from repro.core.power_model import PowerModel
from repro.memsim.counters import CounterDelta


@dataclass(frozen=True)
class CapCandidate:
    """One point of the joint (global x per-channel) frequency space."""

    global_point: FrequencyPoint
    #: Per-channel bus MHz, or None when every channel runs at the
    #: global frequency (no refinement).
    channel_bus_mhz: Optional[Tuple[float, ...]]
    predicted_power_w: float     #: predicted memory-subsystem power
    predicted_cpi: np.ndarray    #: per-core CPI at this configuration
    min_perf: float              #: min over cores of CPI_max/CPI (<= 1)
    #: Expected memory time per LLC miss (Eq. 9) at this configuration;
    #: lets the multi-domain allocator re-price the compute term of each
    #: core's CPI at a different core clock without re-deriving Eq. 9.
    tpi_mem_ns: Optional[float] = None


@dataclass(frozen=True)
class Allocation:
    """The allocator's decision for one epoch."""

    chosen: CapCandidate
    budget_w: float
    feasible: bool               #: False -> throttle-hardest fallback
    candidates_evaluated: int

    @property
    def global_point(self) -> FrequencyPoint:
        return self.chosen.global_point

    @property
    def channel_bus_mhz(self) -> Optional[Tuple[float, ...]]:
        return self.chosen.channel_bus_mhz

    @property
    def predicted_power_w(self) -> float:
        return self.chosen.predicted_power_w

    @property
    def min_perf(self) -> float:
        return self.chosen.min_perf


def min_perf(cpi: np.ndarray, cpi_max: np.ndarray) -> float:
    """Fairness score: the worst core's normalized performance
    ``cpi_max / cpi``. Cores without a positive CPI on either side are
    skipped."""
    worst = 1.0
    for core in range(len(cpi)):
        if cpi[core] <= 0 or cpi_max[core] <= 0:
            continue
        ratio = cpi_max[core] / cpi[core]
        # Max frequency can never be slower than a candidate: clamp,
        # mirroring MemScalePolicy._feasible's guard.
        if ratio > 1.0:
            ratio = 1.0
        if ratio < worst:
            worst = ratio
    return worst


class CapAllocator:
    """Per-epoch joint-frequency search under a power budget."""

    def __init__(self, config: SystemConfig, energy_model: EnergyModel,
                 n_cores: int):
        config.validate()
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self._perf: PerformanceModel = energy_model.perf_model
        self._power: PowerModel = energy_model.power_model
        self._ladder = self._perf.ladder

    @property
    def ladder(self) -> FrequencyLadder:
        return self._ladder

    @property
    def power_model(self) -> PowerModel:
        return self._power

    @property
    def perf_model(self) -> PerformanceModel:
        return self._perf

    # -- candidate enumeration ------------------------------------------------

    def candidates(self, delta: CounterDelta,
                   current_freq: FrequencyPoint) -> List[CapCandidate]:
        """Every configuration the epoch search considers, with its
        predicted power and fairness score. Exposed separately from
        :meth:`allocate` so tests can verify the selection property
        against the full candidate set."""
        perf = self._perf
        base = self._ladder.fastest
        # Reference: execution without energy management (max frequency,
        # no powerdown-exit term) — the same reference Eq. 1 uses.
        cpi_max = perf.predict(delta, base, 0.0,
                               profiled_freq=current_freq).cpi
        n_channels = len(delta.channel_busy_ns)
        _, steps = perf.channel_steps(delta)
        # The global ladder in one batched pass.
        pred = perf.predict_ladder(delta, None, profiled_freq=current_freq)
        tpi_mem = pred.tpi_mem_ns.tolist()
        scales = perf.time_scale_ladder(delta, current_freq)
        powers = self._power.predict_ladder(delta, scales).memory_w.tolist()
        scales = scales.tolist()

        out: List[CapCandidate] = []
        for g in self._ladder:
            cpi_g = pred.cpi[g.index]
            out.append(CapCandidate(
                global_point=g, channel_bus_mhz=None,
                predicted_power_w=powers[g.index], predicted_cpi=cpi_g,
                min_perf=min_perf(cpi_g, cpi_max),
                tpi_mem_ns=tpi_mem[g.index]))
            if g.index >= len(self._ladder) - 1 or not steps:
                continue
            lower = self._ladder[g.index + 1]
            burst_step_ns = lower.burst_ns - g.burst_ns
            channel_mhz = [g.bus_mhz] * n_channels
            extra_tpi_ns = 0.0
            for ch, weight in steps:
                channel_mhz[ch] = lower.bus_mhz
                extra_tpi_ns += weight * burst_step_ns
                tpi_mem_k = tpi_mem[g.index] + extra_tpi_ns
                cpi_k = perf.cpi(delta, tpi_mem_k)
                power_k = self._power.predict(
                    delta, g, scales[g.index],
                    channel_bus_mhz=tuple(channel_mhz)).memory_w
                out.append(CapCandidate(
                    global_point=g, channel_bus_mhz=tuple(channel_mhz),
                    predicted_power_w=power_k, predicted_cpi=cpi_k,
                    min_perf=min_perf(cpi_k, cpi_max),
                    tpi_mem_ns=tpi_mem_k))
        return out

    # -- selection ------------------------------------------------------------

    def allocate(self, delta: CounterDelta, current_freq: FrequencyPoint,
                 budget_w: float) -> Allocation:
        """Pick the epoch's configuration for the given budget.

        Selection property (pinned by a hypothesis test): whenever any
        candidate's predicted power fits the budget, the allocation is
        feasible and maximizes ``min_perf`` among the fitting candidates
        (ties broken toward lower predicted power); only when *no*
        candidate fits does it fall back to the throttle-hardest point.
        """
        if budget_w <= 0:
            raise ValueError("budget_w must be positive")
        cands = self.candidates(delta, current_freq)
        feasible = [c for c in cands if c.predicted_power_w <= budget_w]
        if feasible:
            chosen = max(feasible,
                         key=lambda c: (c.min_perf, -c.predicted_power_w))
            return Allocation(chosen=chosen, budget_w=budget_w,
                              feasible=True,
                              candidates_evaluated=len(cands))
        # Throttle-hardest: nothing fits, so take the configuration with
        # the lowest predicted power (least overshoot), never a faster
        # point that would overshoot by more.
        chosen = min(cands, key=lambda c: (c.predicted_power_w,
                                           -c.min_perf))
        return Allocation(chosen=chosen, budget_w=budget_w, feasible=False,
                          candidates_evaluated=len(cands))
