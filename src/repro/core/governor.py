"""Governor interface and the MemScale governor.

A governor is the piece of software that manages memory-subsystem energy
during a run. The system simulator calls it at simulation start, at the
end of each profiling phase, and at each epoch boundary; it responds by
reprogramming the memory controller (frequency, powerdown behaviour).
The MemScale governor wraps :class:`~repro.core.policy.MemScalePolicy`;
the comparison policies of Section 4.2.3 live in
:mod:`repro.core.baselines`.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from repro.core.policy import MemScalePolicy, PolicyObjective
from repro.memsim.controller import MemoryController
from repro.memsim.counters import CounterDelta
from repro.memsim.states import PowerdownMode


class Governor(abc.ABC):
    """Energy-management driver plugged into the system simulator."""

    #: Human-readable policy name used in reports.
    name: str = "governor"

    @property
    def powerdown_mode(self) -> PowerdownMode:
        """How the MC should manage rank idleness under this governor."""
        return PowerdownMode.NONE

    def setup(self, controller: MemoryController) -> None:
        """One-time configuration before the simulation starts."""

    def on_profile_end(self, delta: CounterDelta,
                       controller: MemoryController,
                       epoch_remaining_ns: float) -> None:
        """Profiling phase finished; may reprogram the frequency."""

    def on_epoch_end(self, delta: CounterDelta,
                     controller: MemoryController,
                     epoch_wall_ns: float) -> None:
        """Epoch finished; bookkeeping (e.g. slack update)."""

    def device_bus_mhz(self, controller: MemoryController) -> Optional[float]:
        """DRAM-device clock for power modeling, when decoupled from the bus."""
        return None

    def channel_bus_mhz(self, controller: MemoryController
                        ) -> Optional[List[float]]:
        """Per-channel clocks for power modeling (per-channel DFS), or
        None when all channels share the global frequency."""
        return None

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Policy-side fields for the epoch telemetry record.

        Called by the simulator once per epoch — only when a telemetry
        sink is attached, so governors pay nothing by default. Keys a
        governor may contribute (see the JSONL schema in EXPERIMENTS.md):
        ``predicted_cpi``, ``slack_ns``, ``feasible_bus_mhz``,
        ``limited_by_slack``. Governors without a prediction model
        (the Section 4.2.3 baselines) return an empty dict.
        """
        return {}


class MemScaleGovernor(Governor):
    """The paper's policy: profile, select SER-minimal frequency, track slack."""

    def __init__(self, policy: MemScalePolicy,
                 use_powerdown: bool = False):
        self._policy = policy
        self._use_powerdown = use_powerdown
        name = ("MemScale(MemEnergy)"
                if policy.objective is PolicyObjective.MEMORY_ENERGY
                else "MemScale")
        self.name = f"{name}+Fast-PD" if use_powerdown else name
        #: (time_ns, bus_mhz) after every decision, for timeline figures.
        self.frequency_log: List[Tuple[float, float]] = []

    @property
    def policy(self) -> MemScalePolicy:
        return self._policy

    @property
    def powerdown_mode(self) -> PowerdownMode:
        return (PowerdownMode.FAST_EXIT if self._use_powerdown
                else PowerdownMode.NONE)

    def on_profile_end(self, delta: CounterDelta,
                       controller: MemoryController,
                       epoch_remaining_ns: float) -> None:
        decision = self._policy.select_frequency(
            delta, controller.freq, epoch_remaining_ns)
        controller.set_frequency(decision.chosen)
        self.frequency_log.append(
            (controller.engine.now, decision.chosen.bus_mhz))

    def on_epoch_end(self, delta: CounterDelta,
                     controller: MemoryController,
                     epoch_wall_ns: float) -> None:
        self._policy.update_slack(delta, epoch_wall_ns,
                                  freq_used=controller.freq)

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Last decision's prediction and the current slack balance
        (Section 3.2 stages 2 and 4), for the epoch telemetry record."""
        if not self._policy.decisions:
            return {}
        decision = self._policy.decisions[-1]
        return {
            "predicted_cpi": [float(c) for c in decision.predicted_cpi],
            "slack_ns": [float(s) for s in self._policy.slack_ns],
            "feasible_bus_mhz": [float(f) for f in decision.feasible],
            "limited_by_slack": bool(decision.limited_by_slack),
        }
