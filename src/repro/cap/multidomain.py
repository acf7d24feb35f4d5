"""Multi-domain coordinated DVFS: one watt budget split across CPU + memory.

The cap governor enforces a budget on the memory subsystem alone; this
module redistributes a single **global** budget between the core and
memory domains each epoch, the SysScale-style coordination MemScale's
Section 7 leaves as future work. Each epoch the
:class:`MultiDomainAllocator` crosses the core frequency ladder
(:class:`~repro.core.cpu_power.CoreFrequencyLadder`) with the memory
side's joint candidate space (the cap allocator's global ladder plus
per-channel refinements, reused verbatim) and picks the
**minimum-predicted-energy** pair that

* fits the global budget: ``P_core + P_mem <= budget_w``, and
* meets the performance-degradation bound: every core's predicted
  slowdown vs (nominal cores, fastest memory) stays within
  ``PolicyConfig.cpi_bound``.

When the bound cannot be met inside the budget, the allocator maximizes
the minimum normalized performance among budget-fitting pairs (the cap
allocator's max-min fairness, extended to two domains); when *nothing*
fits, it degrades to the lowest-total-power pair flagged infeasible —
never a silent overshoot.

The core domain is analytical: the simulated timeline never re-clocks
the cores, so the governor programs only the memory controller, charges
modeled core power against the ledger, and constrains modeled slowdown.
Per-domain infeasibility counters record when either domain pinned at
its maximum frequency could not fit the budget alone — the coordinated
split's reason to exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cap.allocator import CapAllocator, CapCandidate, min_perf
from repro.cap.budget import PowerBudget
from repro.cap.governor import CapGovernor
from repro.config import SystemConfig
from repro.core.cpu_power import (CoreFrequencyLadder, CoreFrequencyPoint,
                                  CorePowerModel)
from repro.core.energy_model import EnergyModel
from repro.core.frequency import FrequencyPoint
from repro.memsim.controller import MemoryController
from repro.memsim.counters import CounterDelta


@dataclass(frozen=True)
class MultiDomainCandidate:
    """One (core point x memory candidate) pair of the joint search."""

    core_point: CoreFrequencyPoint
    mem: CapCandidate
    core_power_w: float          #: modeled cluster power at ``core_point``
    total_power_w: float         #: core + predicted memory power
    predicted_cpi: np.ndarray    #: per-core CPI (nominal cycles) at the pair
    min_perf: float              #: min over cores of CPI_ref/CPI (<= 1)
    meets_bound: bool            #: every core within the slowdown bound
    energy_score: float          #: predicted system energy, relative units


@dataclass(frozen=True)
class MultiDomainAllocation:
    """The joint allocator's decision for one epoch."""

    chosen: MultiDomainCandidate
    budget_w: float
    feasible: bool               #: total predicted power fits the budget
    bound_met: bool              #: chosen pair meets the slowdown bound
    #: Cores pinned at nominal frequency could not fit the budget even
    #: with the cheapest memory configuration.
    core_max_infeasible: bool
    #: Memory pinned at its fastest point could not fit the budget even
    #: with the slowest core point.
    mem_max_infeasible: bool
    candidates_evaluated: int

    @property
    def core_point(self) -> CoreFrequencyPoint:
        return self.chosen.core_point

    @property
    def global_point(self) -> FrequencyPoint:
        return self.chosen.mem.global_point

    @property
    def channel_bus_mhz(self) -> Optional[Tuple[float, ...]]:
        return self.chosen.mem.channel_bus_mhz

    @property
    def core_power_w(self) -> float:
        return self.chosen.core_power_w

    @property
    def memory_power_w(self) -> float:
        return self.chosen.mem.predicted_power_w

    @property
    def total_power_w(self) -> float:
        return self.chosen.total_power_w

    @property
    def min_perf(self) -> float:
        return self.chosen.min_perf

    @property
    def budget_split(self) -> Dict[str, float]:
        """How the decision divides the global budget between domains."""
        return {"core_w": self.core_power_w, "memory_w": self.memory_power_w}


class MultiDomainAllocator:
    """Per-epoch (core ladder x memory candidates) search under one budget."""

    def __init__(self, config: SystemConfig, energy_model: EnergyModel,
                 n_cores: int, core_model: Optional[CorePowerModel] = None,
                 perf_bound: Optional[float] = None):
        config.validate()
        self._mem = CapAllocator(config, energy_model, n_cores)
        self._core = (core_model if core_model is not None
                      else CorePowerModel(config))
        self._bound = (perf_bound if perf_bound is not None
                       else config.policy.cpi_bound)
        if self._bound < 0:
            raise ValueError("perf_bound must be non-negative")
        self._rest_w = energy_model.rest_power_w

    @property
    def mem_allocator(self) -> CapAllocator:
        return self._mem

    @property
    def core_model(self) -> CorePowerModel:
        return self._core

    @property
    def core_ladder(self) -> CoreFrequencyLadder:
        return self._core.ladder

    @property
    def power_model(self):
        return self._mem.power_model

    @property
    def perf_bound(self) -> float:
        return self._bound

    # -- candidate enumeration ------------------------------------------------

    def candidates(self, delta: CounterDelta,
                   current_freq: FrequencyPoint
                   ) -> List[MultiDomainCandidate]:
        """Every (core, memory) pair the epoch search considers.

        Memory candidates come from :meth:`CapAllocator.candidates`
        unchanged; each is re-priced at every core point by
        :meth:`PerformanceModel.cpi
        <repro.core.perf_model.PerformanceModel.cpi>` at the candidate's
        E[TPI_mem] and the core point's compute time, and its slowdown
        is the model's :meth:`weighted_ratio
        <repro.core.perf_model.PerformanceModel.weighted_ratio>`. The
        reference for slowdown and energy is (nominal cores, fastest
        memory, no powerdown exits) — execution without energy
        management in *either* domain.
        """
        mem_cands = self._mem.candidates(delta, current_freq)
        utils = self._core.utilizations(delta)
        perf = self._mem.perf_model
        tpi_mem_ref = perf.tpi_mem_ns(delta, self._mem.ladder.fastest, 0.0,
                                      profiled_freq=current_freq)
        cpi_ref = perf.cpi(delta, tpi_mem_ref,
                           self._core.tpi_cpu_ns(self.core_ladder.fastest))
        tpi_mem = np.array([mc.tpi_mem_ns for mc in mem_cands])
        min_perf_floor = 1.0 / (1.0 + self._bound)

        out: List[MultiDomainCandidate] = []
        for cp in self.core_ladder:
            p_core = self._core.cluster_power_w(utils, cp)
            # (memory candidates x cores), and the instruction-weighted
            # slowdown vs the reference, one per memory candidate.
            cpi = perf.cpi(delta, tpi_mem, self._core.tpi_cpu_ns(cp))
            time_scales = perf.weighted_ratio(delta, cpi, cpi_ref).tolist()
            for mc, cpi_k, time_scale in zip(mem_cands, cpi, time_scales):
                worst = min_perf(cpi_k, cpi_ref)
                total_w = p_core + mc.predicted_power_w
                energy_score = (total_w + self._rest_w) * time_scale
                out.append(MultiDomainCandidate(
                    core_point=cp, mem=mc, core_power_w=p_core,
                    total_power_w=total_w, predicted_cpi=cpi_k,
                    min_perf=worst,
                    meets_bound=worst >= min_perf_floor - 1e-12,
                    energy_score=energy_score))
        return out

    # -- selection ------------------------------------------------------------

    def allocate(self, delta: CounterDelta, current_freq: FrequencyPoint,
                 budget_w: float) -> MultiDomainAllocation:
        """Pick the epoch's (core, memory) pair for the given budget.

        Selection property (pinned by a hypothesis test): whenever any
        pair's total predicted power fits the budget, the allocation is
        feasible and its total predicted power is within the budget;
        among bound-meeting fitting pairs the minimum-energy one wins,
        among bound-violating fitting pairs the max-min-fair one; only
        when nothing fits does it fall back to the lowest-total-power
        pair flagged infeasible.
        """
        if budget_w <= 0:
            raise ValueError("budget_w must be positive")
        cands = self.candidates(delta, current_freq)
        # Per-domain-max feasibility: could either domain have stayed at
        # its maximum frequency under this budget?
        core_max_min_w = min(c.total_power_w for c in cands
                             if c.core_point.index == 0)
        mem_max_min_w = min(c.total_power_w for c in cands
                            if c.mem.global_point.index == 0
                            and c.mem.channel_bus_mhz is None)
        core_max_infeasible = core_max_min_w > budget_w
        mem_max_infeasible = mem_max_min_w > budget_w

        feasible = [c for c in cands if c.total_power_w <= budget_w]
        if feasible:
            bound_ok = [c for c in feasible if c.meets_bound]
            if bound_ok:
                chosen = min(bound_ok,
                             key=lambda c: (c.energy_score, -c.min_perf))
            else:
                chosen = max(feasible,
                             key=lambda c: (c.min_perf, -c.total_power_w))
            return MultiDomainAllocation(
                chosen=chosen, budget_w=budget_w, feasible=True,
                bound_met=chosen.meets_bound,
                core_max_infeasible=core_max_infeasible,
                mem_max_infeasible=mem_max_infeasible,
                candidates_evaluated=len(cands))
        chosen = min(cands, key=lambda c: (c.total_power_w, -c.min_perf))
        return MultiDomainAllocation(
            chosen=chosen, budget_w=budget_w, feasible=False,
            bound_met=chosen.meets_bound,
            core_max_infeasible=core_max_infeasible,
            mem_max_infeasible=mem_max_infeasible,
            candidates_evaluated=len(cands))


class MultiDomainGovernor(CapGovernor):
    """Coordinated CPU+memory governor under one global power budget.

    A :class:`~repro.cap.governor.CapGovernor` whose allocator is the
    joint (core x memory) search: it allocates at each profile
    boundary and programs the memory side (global point plus
    per-channel down-steps) through the cap governor's path, and
    ledgers the epoch's **total** (measured memory + modeled core)
    average power at each epoch end. The core point decided for the
    epoch is charged analytically; the simulated memory timeline is
    identical to an uncapped run at the same memory decisions.
    """

    def __init__(self, allocator: MultiDomainAllocator, budget: PowerBudget):
        super().__init__(allocator, budget)
        self.name = f"MultiDomain-{budget.min_watts:.2f}W"
        #: Epochs where the chosen pair missed the slowdown bound.
        self.bound_missed_epochs = 0
        #: Epochs where cores at nominal frequency alone broke the budget.
        self.core_max_infeasible_epochs = 0
        #: Epochs where memory at its fastest point alone broke the budget.
        self.mem_max_infeasible_epochs = 0
        #: Modeled core energy accumulated over ledgered epochs (joules).
        self.core_energy_j = 0.0
        #: Wall time covered by the ledgered epochs (nanoseconds) —
        #: core_energy_j / this is the run-average modeled core power.
        self.ledgered_time_ns = 0.0
        self._last_core_power_w: Optional[float] = None
        self._core_mhz_sum = 0.0

    def on_profile_end(self, delta: CounterDelta,
                       controller: MemoryController,
                       epoch_remaining_ns: float) -> None:
        super().on_profile_end(delta, controller, epoch_remaining_ns)
        allocation = self._last_allocation
        if not allocation.bound_met:
            self.bound_missed_epochs += 1
        if allocation.core_max_infeasible:
            self.core_max_infeasible_epochs += 1
        if allocation.mem_max_infeasible:
            self.mem_max_infeasible_epochs += 1
        self._core_mhz_sum += allocation.core_point.freq_mhz

    def _log_entry(self, now: float, allocation) -> Tuple[float, ...]:
        """(time_ns, bus_mhz, core_mhz) after every decision."""
        return (now, allocation.global_point.bus_mhz,
                allocation.core_point.freq_mhz)

    def _epoch_power_w(self, delta: CounterDelta,
                       controller: MemoryController,
                       epoch_wall_ns: float) -> float:
        """Measured memory power plus the modeled core power of the
        epoch's core point, whose energy is booked here too."""
        core_model = self._allocator.core_model
        core_point = (self._last_allocation.core_point
                      if self._last_allocation is not None
                      else core_model.nominal)
        core_w = core_model.cluster_power_w(
            core_model.utilizations(delta), core_point)
        self.core_energy_j += core_w * epoch_wall_ns * 1e-9
        self.ledgered_time_ns += epoch_wall_ns
        self._last_core_power_w = core_w
        return (super()._epoch_power_w(delta, controller, epoch_wall_ns)
                + core_w)

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Cap fields plus the per-domain fields of telemetry schema v3."""
        allocation = self._last_allocation
        if allocation is None:
            return {}
        return {
            "predicted_cpi": [float(c) for c in
                              allocation.chosen.predicted_cpi],
            "budget_w": float(allocation.budget_w),
            "predicted_power_w": float(allocation.total_power_w),
            "cap_feasible": bool(allocation.feasible),
            "min_perf_norm": float(allocation.min_perf),
            "core_freq_mhz": float(allocation.core_point.freq_mhz),
            "core_power_w": (float(self._last_core_power_w)
                             if self._last_core_power_w is not None
                             else float(allocation.core_power_w)),
            "domain_budget_split": {
                k: float(v) for k, v in allocation.budget_split.items()},
        }

    def multidomain_summary(self) -> Dict[str, object]:
        """JSON-serializable run summary for the multi-domain experiments."""
        summary = self.cap_summary()
        summary["bound_missed_epochs"] = self.bound_missed_epochs
        summary["core_max_infeasible_epochs"] = self.core_max_infeasible_epochs
        summary["mem_max_infeasible_epochs"] = self.mem_max_infeasible_epochs
        summary["core_energy_j"] = self.core_energy_j
        summary["avg_core_power_w"] = (
            self.core_energy_j / (self.ledgered_time_ns * 1e-9)
            if self.ledgered_time_ns > 0 else None)
        summary["avg_core_mhz"] = (self._core_mhz_sum / self._epochs_decided
                                   if self._epochs_decided else None)
        return summary
