"""Future-work extensions sketched in Section 6 of the paper.

``PerChannelMemScaleGovernor`` implements the first item — "selecting
different frequencies for different channels". The policy first makes
the standard global SER/slack decision, then refines it: channels whose
utilization sits well below the mean are dropped one more ladder step,
provided the modeled extra per-miss time keeps every core within its
slack budget. DIMM background and register/PLL power then follow each
channel's own clock (the MC keeps the global frequency).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.governor import MemScaleGovernor
from repro.core.policy import MemScalePolicy
from repro.memsim.controller import MemoryController
from repro.memsim.counters import CounterDelta

#: A channel qualifies for an extra step down when its utilization is
#: below this fraction of the mean channel utilization.
LOW_UTILIZATION_FRACTION = 0.5


class PerChannelMemScaleGovernor(MemScaleGovernor):
    """MemScale with per-channel frequency refinement (Section 6)."""

    def __init__(self, policy: MemScalePolicy):
        super().__init__(policy, use_powerdown=False)
        self.name = "MemScale/channel"
        self.per_channel_drops = 0

    def on_profile_end(self, delta: CounterDelta,
                       controller: MemoryController,
                       epoch_remaining_ns: float) -> None:
        policy = self.policy
        decision = policy.select_frequency(delta, controller.freq,
                                           epoch_remaining_ns)
        controller.set_frequency(decision.chosen)
        self.frequency_log.append(
            (controller.engine.now, decision.chosen.bus_mhz))
        self._refine_channels(delta, controller, decision,
                              epoch_remaining_ns)

    def _refine_channels(self, delta: CounterDelta,
                         controller: MemoryController, decision,
                         epoch_remaining_ns: float) -> None:
        ladder = controller.ladder
        chosen = decision.chosen
        if chosen.index >= len(ladder) - 1:
            return  # already at the floor; nothing lower to offer
        lower = ladder[chosen.index + 1]
        utils = np.array([delta.channel_utilization(c)
                          for c in range(len(controller.channels))])
        accesses = delta.channel_reads + delta.channel_writes
        total_accesses = float(accesses.sum())
        if total_accesses <= 0 or utils.mean() <= 0:
            return
        threshold = LOW_UTILIZATION_FRACTION * utils.mean()

        perf = self.policy._perf
        base = ladder.fastest
        cpi_max = perf.predict(delta, base, 0.0, profiled_freq=chosen).cpi
        xi_product = perf.xi_bank(delta) * perf.xi_bus(delta)
        extra_burst_ns = lower.burst_ns - chosen.burst_ns

        transition_ns = self.policy._config.policy.transition_penalty_ns(
            chosen.bus_mhz)
        cumulative_extra_ns = 0.0
        for ch in np.argsort(utils):
            ch = int(ch)
            if utils[ch] >= threshold:
                continue
            # Only this channel's share of misses pays the longer burst;
            # drops accumulate, and each re-lock stalls the subsystem.
            share = float(accesses[ch]) / total_accesses
            extra_tpi_ns = (cumulative_extra_ns
                            + xi_product * share * extra_burst_ns)
            cpi_f = self._cpi_with_extra_memory_time(delta, chosen,
                                                     extra_tpi_ns)
            if self.policy._feasible(cpi_f, cpi_max, epoch_remaining_ns,
                                     transition_ns):
                controller.set_channel_frequency(ch, lower)
                self.per_channel_drops += 1
                cumulative_extra_ns = extra_tpi_ns

    def _cpi_with_extra_memory_time(self, delta: CounterDelta, freq,
                                    extra_tpi_ns: float) -> np.ndarray:
        perf = self.policy._perf
        tpi_mem = perf.tpi_mem_ns(delta, freq, None,
                                  profiled_freq=freq) + extra_tpi_ns
        n = len(delta.tic)
        cpi = np.empty(n)
        cycle_ns = self.policy._config.cpu.cycle_ns
        for core in range(n):
            alpha = delta.alpha(core)
            cpi[core] = (perf.tpi_cpu_ns + alpha * tpi_mem) / cycle_ns
        return cpi

    def channel_bus_mhz(self, controller: MemoryController
                        ) -> Optional[List[float]]:
        return controller.channel_bus_mhz_list()
