"""Top-level system simulator.

Wires the CPU cluster, the memory subsystem, and a governor into the
two-step methodology of Section 4.1: traces drive the cores, the memory
simulator models the subsystem in detail, and the governor runs at
profile/epoch boundaries exactly as the OS policy would. The simulation
terminates when the slowest core has committed the target instruction
count (other cores keep replaying their traces in a loop, as in the
paper), and energy is integrated over the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.config import SystemConfig
from repro.core.governor import Governor
from repro.core.power_model import PowerModel
from repro.cpu.core_model import CpuCluster
from repro.cpu.trace import WorkloadTrace
from repro.memsim.controller import MemoryController
from repro.memsim.counters import CounterFile, CounterSnapshot
from repro.memsim.engine import EventEngine
from repro.sim.results import (
    EpochSample,
    RunResult,
    accumulate_energy,
    breakdown_to_energy_dict,
)
from repro.sim.telemetry import TelemetrySink, epoch_record


def _mean(values: List[float]) -> float:
    """``float(np.mean(values))``: np.mean's own arithmetic (one
    ``add.reduce``, then a division by the count) without its
    per-call dispatch."""
    return float(np.add.reduce(np.array(values)) / len(values))


class SystemSimulator:
    """One run: a workload trace under one energy-management governor.

    ``telemetry`` optionally attaches a
    :class:`~repro.sim.telemetry.TelemetrySink` that receives one JSONL
    record per epoch (schema in EXPERIMENTS.md). The default ``None``
    keeps the epoch loop free of telemetry work beyond a single
    ``is None`` test, so disabled telemetry has no measurable overhead.
    """

    def __init__(self, config: SystemConfig, workload: WorkloadTrace,
                 governor: Governor,
                 target_instructions: Optional[int] = None,
                 max_epochs: int = 200_000,
                 refresh_enabled: bool = True,
                 telemetry: Optional[TelemetrySink] = None):
        config.validate()
        if len(workload) == 0:
            raise ValueError("workload has no cores")
        self.config = config
        self.workload = workload
        self.governor = governor
        self.engine = EventEngine()
        self.controller = MemoryController(
            self.engine, config,
            powerdown_mode=governor.powerdown_mode,
            refresh_enabled=refresh_enabled,
            n_cores=len(workload))
        self.cluster = CpuCluster(self.engine, self.controller, config.cpu,
                                  workload.cores, loop_traces=True)
        self.power_model = PowerModel(config)
        self._core_apps = [(core.core_id, core.app_name)
                           for core in self.cluster.cores]
        if target_instructions is None:
            target_instructions = min(c.total_instructions
                                      for c in workload.cores)
        self.target_instructions = target_instructions
        self._max_epochs = max_epochs
        self._telemetry = telemetry

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunResult:
        """Execute until every core reaches the instruction target."""
        cfg = self.config.policy
        governor = self.governor
        controller = self.controller
        engine = self.engine

        governor.setup(controller)
        self.cluster.set_target(self.target_instructions)
        self.cluster.start()

        energy_j: Dict[str, float] = {}
        timeline: List[EpochSample] = []
        device_mhz = governor.device_bus_mhz(controller)

        def take_snapshot() -> CounterSnapshot:
            self.cluster.sync_committed()
            return controller.snapshot()

        telemetry = self._telemetry
        epoch = 0
        epoch_start = engine.now
        snap_epoch = take_snapshot()
        finished = False
        while epoch < self._max_epochs and not finished:
            if telemetry is not None:
                energy_at_epoch_start = dict(energy_j)
            # ---- profiling phase (stage 1) ----
            freq_profile = controller.freq
            channels_profile = governor.channel_bus_mhz(controller)
            profile_end = epoch_start + cfg.profile_ns
            finished = self._run_until_or_done(profile_end)
            snap_profile = take_snapshot()
            delta_profile = CounterFile.delta(snap_epoch, snap_profile)
            self._account(energy_j, delta_profile, freq_profile, device_mhz,
                          channels_profile)
            if finished:
                delta_epoch = delta_profile
                freq_body = freq_profile
                epoch_end = engine.now
            else:
                # ---- control algorithm + re-lock (stages 2-3) ----
                epoch_end = epoch_start + cfg.epoch_ns
                governor.on_profile_end(delta_profile, controller,
                                        epoch_end - engine.now)

                # ---- epoch body at the new frequency ----
                freq_body = controller.freq
                channels_body = governor.channel_bus_mhz(controller)
                finished = self._run_until_or_done(epoch_end)
                epoch_end = engine.now
                snap_end = take_snapshot()
                delta_body = CounterFile.delta(snap_profile, snap_end)
                self._account(energy_j, delta_body, freq_body, device_mhz,
                              channels_body)

                # ---- slack update (stage 4) ----
                delta_epoch = CounterFile.delta(snap_epoch, snap_end)
                governor.on_epoch_end(delta_epoch, controller,
                                      epoch_end - epoch_start)
                snap_epoch = snap_end

            sample = self._sample_epoch(epoch_end, freq_body, delta_epoch,
                                        device_mhz)
            timeline.append(sample)
            if telemetry is not None:
                epoch_energy = {
                    k: v - energy_at_epoch_start.get(k, 0.0)
                    for k, v in energy_j.items()}
                telemetry.emit(epoch_record(
                    workload=self.workload.name,
                    governor=governor.name,
                    epoch=epoch,
                    t_start_ns=epoch_start,
                    t_end_ns=epoch_end,
                    bus_mhz=sample.bus_mhz,
                    actual_cpi=sample.app_cpi,
                    energy_j=epoch_energy,
                    memory_power_w=sample.memory_power_w,
                    channel_util=list(sample.channel_util),
                    governor_state=governor.telemetry_snapshot()))
            epoch += 1
            epoch_start = epoch_end
        if not finished:
            raise RuntimeError(
                f"workload {self.workload.name!r} did not reach "
                f"{self.target_instructions} instructions within "
                f"{self._max_epochs} epochs")

        if controller.validator is not None:
            controller.validator.finalize()

        wall = max(core.time_at_target_ns for core in self.cluster.cores)
        return RunResult(
            workload=self.workload.name,
            governor=governor.name,
            target_instructions=self.target_instructions,
            wall_time_ns=wall,
            sim_time_ns=engine.now,
            core_apps=[core.app_name for core in self.cluster.cores],
            core_time_at_target_ns=[core.time_at_target_ns
                                    for core in self.cluster.cores],
            energy_j=energy_j,
            timeline=timeline,
            transition_count=controller.transition_count,
            epochs=epoch,
        )

    # -- helpers --------------------------------------------------------------

    def _run_until_or_done(self, time_ns: float) -> bool:
        """Advance to ``time_ns``, stopping early the moment every core
        reaches its instruction target. Returns True when all reached.

        Delegates to the engine's fused loop so the per-event cost is a
        single heap pop plus one stop-predicate call, instead of the
        peek/step/check round-trip through three method boundaries.
        """
        return bool(self.engine.run_until_stopped(
            time_ns, self.cluster.all_reached_probe))

    def _account(self, energy_j: Dict[str, float], delta, freq,
                 device_mhz: Optional[float],
                 channel_mhz=None) -> None:
        if delta.interval_ns <= 0:
            return
        breakdown = self.power_model.measure(delta, freq,
                                             device_bus_mhz=device_mhz,
                                             channel_bus_mhz=channel_mhz)
        seconds = delta.interval_ns * 1e-9
        accumulate_energy(energy_j, breakdown_to_energy_dict(breakdown, seconds))

    def _sample_epoch(self, time_ns: float, freq, delta,
                      device_mhz: Optional[float]) -> EpochSample:
        cycle_ns = self.config.cpu.cycle_ns
        interval = delta.interval_ns
        instructions = delta.tic.tolist()
        app_cpi: Dict[str, List[float]] = {}
        for core_id, app in self._core_apps:
            instr = instructions[core_id]
            if instr <= 0:
                continue
            app_cpi.setdefault(app, []).append(interval / (instr * cycle_ns))
        breakdown = self.power_model.measure(delta, freq,
                                             device_bus_mhz=device_mhz)
        if interval <= 0:
            util = np.zeros(self.config.org.channels)
        else:
            util = delta.channel_busy_ns / interval
        return EpochSample(
            time_ns=time_ns,
            bus_mhz=freq.bus_mhz,
            app_cpi={app: _mean(v) for app, v in app_cpi.items()},
            channel_util=util,
            memory_power_w=breakdown.memory_w,
        )
