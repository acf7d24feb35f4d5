"""Future-work extensions sketched in Section 6 of the paper.

``PerChannelMemScaleGovernor`` implements the first item — "selecting
different frequencies for different channels". The policy first makes
the standard global SER/slack decision, then refines it: channels whose
utilization sits well below the mean are dropped one more ladder step,
provided the modeled extra per-miss time keeps every core within its
slack budget. The drop order and each drop's cost are the performance
model's per-channel down-step model
(:meth:`~repro.core.perf_model.PerformanceModel.channel_steps`, which
the power-cap search shares), priced with its Eq. 3. DIMM background
and register/PLL power then follow each channel's own clock (the MC
keeps the global frequency).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.frequency import FrequencyPoint
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
        # The counters were collected at the frequency in force before
        # the global decision; the refinement prices against it, as the
        # policy's ladder scan did.
        profiled = controller.freq
        super().on_profile_end(delta, controller, epoch_remaining_ns)
        self._refine_channels(delta, controller, profiled,
                              epoch_remaining_ns)

    def _refine_channels(self, delta: CounterDelta,
                         controller: MemoryController,
                         profiled: FrequencyPoint,
                         epoch_remaining_ns: float) -> None:
        ladder = controller.ladder
        chosen = self.policy.decisions[-1].chosen
        if chosen.index >= len(ladder) - 1:
            return  # already at the floor; nothing lower to offer
        perf = self.policy._perf
        utils, steps = perf.channel_steps(delta)
        if not steps or utils.mean() <= 0:
            return
        threshold = LOW_UTILIZATION_FRACTION * utils.mean()
        lower = ladder[chosen.index + 1]
        burst_step_ns = lower.burst_ns - chosen.burst_ns
        cpi_max = perf.predict(delta, ladder.fastest, 0.0,
                               profiled_freq=profiled).cpi
        tpi_mem_ns = perf.tpi_mem_ns(delta, chosen, None,
                                     profiled_freq=profiled)
        transition_ns = self.policy._config.policy.transition_penalty_ns(
            chosen.bus_mhz)
        dropped_ns = 0.0
        for ch, weight in steps:
            if utils[ch] >= threshold:
                continue
            # Drops accumulate, and each re-lock stalls the subsystem.
            extra_ns = dropped_ns + weight * burst_step_ns
            cpi_f = perf.cpi(delta, tpi_mem_ns + extra_ns)
            if self.policy._feasible(cpi_f, cpi_max, epoch_remaining_ns,
                                     transition_ns):
                controller.set_channel_frequency(ch, lower)
                self.per_channel_drops += 1
                dropped_ns = extra_ns

    def channel_bus_mhz(self, controller: MemoryController
                        ) -> Optional[List[float]]:
        return controller.channel_bus_mhz_list()
