"""Budget-enforcing governor plugged into the epoch loop.

``CapGovernor`` is a drop-in :class:`~repro.core.governor.Governor`: the
system simulator's call sites are unchanged. At each profile boundary it
asks the :class:`~repro.cap.allocator.CapAllocator` for the max-min-fair
configuration under the budget currently in force and programs the MC
(global point, then any per-channel down-steps). At each epoch end it
*measures* the epoch's average memory-subsystem power with the same
power model the simulator's energy accounting uses and books it against
the :class:`~repro.cap.budget.PowerBudget` ledger — so every over-budget
epoch is recorded, never silently absorbed.

When the allocator finds no feasible point it already degrades to the
throttle-hardest configuration; the governor additionally counts such
epochs in :attr:`infeasible_epochs` so the experiment report can show
how often the budget was simply unreachable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cap.allocator import Allocation, CapAllocator
from repro.cap.budget import PowerBudget
from repro.core.governor import Governor
from repro.memsim.controller import MemoryController
from repro.memsim.counters import CounterDelta


class CapGovernor(Governor):
    """Power-capping governor: allocate under budget, ledger every epoch.

    :class:`~repro.cap.multidomain.MultiDomainGovernor` derives from it:
    its allocation programs the controller and reads measured power
    back through the same methods, and it adds the core domain through
    :meth:`_log_entry` and :meth:`_epoch_power_w`.
    """

    def __init__(self, allocator: CapAllocator, budget: PowerBudget):
        self._allocator = allocator
        self._budget = budget
        self.name = f"Cap-{budget.min_watts:.2f}W"
        #: Epochs where no candidate fit the budget (throttle fallback).
        self.infeasible_epochs = 0
        #: (time_ns, bus_mhz) after every decision, for timeline figures.
        self.frequency_log: List[Tuple[float, ...]] = []
        self._last_allocation: Optional[Allocation] = None
        self._epochs_decided = 0

    @property
    def allocator(self) -> CapAllocator:
        return self._allocator

    @property
    def budget(self) -> PowerBudget:
        return self._budget

    @property
    def last_allocation(self) -> Optional[Allocation]:
        return self._last_allocation

    def on_profile_end(self, delta: CounterDelta,
                       controller: MemoryController,
                       epoch_remaining_ns: float) -> None:
        now = controller.engine.now
        allocation = self._allocator.allocate(
            delta, controller.freq, self._budget.budget_at(now))
        # set_frequency clears any per-channel overrides from the
        # previous epoch, so the refinement below starts from a clean
        # all-global state.
        controller.set_frequency(allocation.global_point)
        if allocation.channel_bus_mhz is not None:
            ladder = controller.ladder
            for ch, mhz in enumerate(allocation.channel_bus_mhz):
                if mhz != allocation.global_point.bus_mhz:
                    controller.set_channel_frequency(
                        ch, ladder.at_bus_mhz(mhz))
        if not allocation.feasible:
            self.infeasible_epochs += 1
        self._last_allocation = allocation
        self._epochs_decided += 1
        self.frequency_log.append(self._log_entry(now, allocation))

    def _log_entry(self, now: float, allocation) -> Tuple[float, ...]:
        return (now, allocation.global_point.bus_mhz)

    def on_epoch_end(self, delta: CounterDelta,
                     controller: MemoryController,
                     epoch_wall_ns: float) -> None:
        t_end = controller.engine.now
        self._budget.account(t_end - epoch_wall_ns, t_end,
                             self._epoch_power_w(delta, controller,
                                                 epoch_wall_ns))

    def _epoch_power_w(self, delta: CounterDelta,
                       controller: MemoryController,
                       epoch_wall_ns: float) -> float:
        """The epoch's average power booked against the budget: the
        memory subsystem's, measured at the clocks it ran at."""
        return self._allocator.power_model.measure(
            delta, controller.freq,
            channel_bus_mhz=controller.channel_bus_mhz_list()).memory_w

    def channel_bus_mhz(self, controller: MemoryController
                        ) -> Optional[List[float]]:
        return controller.channel_bus_mhz_list()

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Cap fields for the epoch telemetry record (schema v2)."""
        allocation = self._last_allocation
        if allocation is None:
            return {}
        return {
            "predicted_cpi": [float(c) for c in
                              allocation.chosen.predicted_cpi],
            "budget_w": float(allocation.budget_w),
            "predicted_power_w": float(allocation.predicted_power_w),
            "cap_feasible": bool(allocation.feasible),
            "min_perf_norm": float(allocation.min_perf),
        }

    def cap_summary(self) -> Dict[str, object]:
        """JSON-serializable run summary for the cap experiments."""
        summary = self._budget.summary()
        summary["infeasible_epochs"] = self.infeasible_epochs
        summary["epochs_decided"] = self._epochs_decided
        return summary
