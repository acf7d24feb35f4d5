"""Experiment runner: builds workloads, runs policies, compares results.

This is the orchestration layer every benchmark and example uses. It
caches the generated trace and the all-on baseline run for each mix so
that several policies can be compared against identical work, and it
wires the MemScale policy's energy model to the rest-of-system power
calibrated from that baseline (Section 4.1's 40% DIMM-share assumption).

Two optional collaborators extend the in-memory caches:

* an :class:`~repro.sim.cache.ExperimentCache` persists traces and
  baseline runs on disk, keyed by content, so they survive the process
  and are shared between the parallel runner's workers;
* a :class:`~repro.sim.telemetry.TelemetrySink` passed to the run
  methods streams one JSONL record per epoch of the policy run.

For fan-out across (mix x policy) combinations, use
:func:`repro.sim.parallel.run_sweep`, which drives this class from a
process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.config import SystemConfig, scaled_config
from repro.core.baselines import (
    BaselineGovernor,
    DecoupledDimmGovernor,
    StaticFrequencyGovernor,
)
from repro.core.energy_model import EnergyModel, rest_of_system_power_w
from repro.core.governor import Governor, MemScaleGovernor
from repro.core.policy import MemScalePolicy, PolicyObjective
from repro.cpu.trace import WorkloadTrace
from repro.cpu.workloads import TraceGenerator
from repro.memsim.states import PowerdownMode
from repro.sim.cache import ExperimentCache
from repro.sim.results import PolicyComparison, RunResult, compare_to_baseline
from repro.sim.system import SystemSimulator
from repro.sim.telemetry import TelemetrySink

#: Mix names with this prefix refer to *imported* external traces in
#: the attached experiment cache (``repro trace import --name foo``
#: then ``--mix trace:foo``) rather than synthetic generator specs.
IMPORTED_TRACE_PREFIX = "trace:"

#: Names accepted by :meth:`ExperimentRunner.run_named_policy`, mirroring
#: the alternatives of Section 4.2.3.
POLICY_NAMES = (
    "Baseline", "Fast-PD", "Slow-PD", "Static", "Decoupled",
    "MemScale", "MemScale(MemEnergy)", "MemScale+Fast-PD",
)

#: Every registered governor:
#: (name, powerdown mode, one-line description, config knobs, doc link).
#: The first eight are the sweep-able :data:`POLICY_NAMES`; the rest are
#: reachable through their own entry points (``repro cap``,
#: ``repro multidomain``, the extensions API). ``repro governors``
#: prints this table; the knobs column names the constructor/config
#: parameters that shape each governor's decisions.
GOVERNOR_INFO = (
    ("Baseline", "none",
     "All ranks on at maximum frequency; the reference every run is "
     "normalized against.",
     "(none)", "docs/governors.md#baselines"),
    ("Fast-PD", "fast-exit",
     "Baseline plus fast-exit precharge powerdown on idle ranks.",
     "powerdown_mode", "docs/governors.md#baselines"),
    ("Slow-PD", "slow-exit",
     "Baseline plus slow-exit (self-refresh-like) powerdown.",
     "powerdown_mode", "docs/governors.md#baselines"),
    ("Static", "none",
     "Boot-time static low bus frequency; never adapts at runtime.",
     "bus_mhz", "docs/governors.md#baselines"),
    ("Decoupled", "none",
     "Decoupled DIMMs: full-speed channel with slow DRAM devices.",
     "device_mhz", "docs/governors.md#baselines"),
    ("MemScale", "none",
     "The paper's policy: per-epoch SER-minimal frequency under the "
     "CPI slowdown bound.",
     "policy.cpi_bound, policy.epoch_us, policy.profile_fraction",
     "docs/governors.md#memscale"),
    ("MemScale(MemEnergy)", "none",
     "MemScale variant minimizing memory energy only (Section 4.2.3).",
     "objective=MEMORY_ENERGY", "docs/governors.md#memscale"),
    ("MemScale+Fast-PD", "fast-exit",
     "MemScale combined with fast-exit powerdown between requests.",
     "use_powerdown=True", "docs/governors.md#memscale"),
    ("MemScale/channel", "none",
     "MemScale with per-channel down-steps (Section 6 extension; "
     "repro.core.extensions API).",
     "policy.cpi_bound, per-channel ladder", "docs/governors.md#memscale"),
    ("Cap", "none",
     "Budget-enforcing max-min-fair governor over (MC x per-channel) "
     "frequencies (run via `repro cap`).",
     "budget_w | budget_fraction | schedule, tolerance_frac",
     "docs/power-capping.md"),
    ("MultiDomain", "none",
     "Coordinated CPU+memory DVFS splitting one global budget between "
     "domains (run via `repro multidomain`).",
     "budget_w | budget_fraction, perf_bound, CoreDvfsConfig",
     "docs/multidomain.md"),
    ("MemScale+Placement", "none",
     "MemScale plus rank-aware page placement: hot-page migration onto "
     "few rank groups and self-refresh parking of cold ranks (run via "
     "`repro placement`).",
     "config.placement (page_lines, hot_group_fraction, "
     "migrations_per_epoch, sr_idle_epochs)",
     "docs/placement.md"),
)


def governor_listing() -> str:
    """Multi-line ``name (powerdown): description`` listing for errors
    and the ``repro governors`` subcommand."""
    width = max(len(name) for name, *_ in GOVERNOR_INFO)
    lines = [f"  {name:<{width}}  [{mode}]  {desc}"
             for name, mode, desc, *_ in GOVERNOR_INFO]
    lines.append("  (see docs/governors.md for the Governor protocol "
                 "and per-governor knobs)")
    return "\n".join(lines)


@dataclass(frozen=True)
class RunnerSettings:
    """Scale knobs for a batch of experiments."""

    cores: int = 16
    instructions_per_core: int = 60_000
    seed: int = 2011

    def __post_init__(self) -> None:
        for name in ("cores", "instructions_per_core"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"RunnerSettings.{name} must be >= 1, "
                                 f"got {value!r}")


class ExperimentRunner:
    """Runs and compares energy-management policies on Table 1 mixes."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 settings: Optional[RunnerSettings] = None,
                 cache: Optional[ExperimentCache] = None):
        self.config = config if config is not None else scaled_config()
        self.config.validate()
        self.settings = settings if settings is not None else RunnerSettings()
        self.cache = cache
        self._traces: Dict[str, WorkloadTrace] = {}
        self._baselines: Dict[str, RunResult] = {}
        self._generator = TraceGenerator(seed=self.settings.seed)

    # -- workload / baseline caches ------------------------------------------

    def trace(self, mix: str) -> WorkloadTrace:
        """The (cached) deterministic trace of ``mix``.

        Consults the on-disk cache first when one is attached; a miss
        regenerates the trace and stores it for future processes.

        A ``trace:<name>`` mix resolves to the *imported* trace stored
        under ``<name>`` in the attached cache (``repro trace import``)
        instead of the synthetic generator; imported traces replay
        verbatim, so the runner's ``instructions_per_core`` knob does
        not apply and ``cores`` must match the import.
        """
        if mix not in self._traces:
            if mix.startswith(IMPORTED_TRACE_PREFIX):
                self._traces[mix] = self._imported_trace(mix)
                return self._traces[mix]
            trace = None
            key = None
            if self.cache is not None:
                key = self.cache.trace_key(
                    mix, self.settings.cores,
                    self.settings.instructions_per_core, self.settings.seed)
                trace = self.cache.load_trace(key)
            if trace is None:
                trace = self._generator.generate_mix(
                    mix, cores=self.settings.cores,
                    instructions_per_core=self.settings.instructions_per_core)
                if self.cache is not None:
                    self.cache.store_trace(key, trace)
            self._traces[mix] = trace
        return self._traces[mix]

    def _imported_trace(self, mix: str) -> WorkloadTrace:
        """Resolve a ``trace:<name>`` mix from the imported-trace store."""
        name = mix[len(IMPORTED_TRACE_PREFIX):]
        if self.cache is None:
            raise ValueError(
                f"mix {mix!r} names an imported trace, which requires an "
                "experiment cache; attach one (the CLI's --cache-dir, on "
                "by default) or pass cache= to ExperimentRunner")
        trace = self.cache.load_imported_trace(name)
        if trace is None:
            known = self.cache.imported_names()
            raise ValueError(
                f"no imported trace named {name!r} in cache "
                f"{self.cache.root} (have: {known or 'none'}); import it "
                f"first with `repro trace import FILE --name {name}`")
        if len(trace.cores) != self.settings.cores:
            raise ValueError(
                f"imported trace {name!r} was ingested for "
                f"{len(trace.cores)} cores but the runner is configured "
                f"for {self.settings.cores}; pass --cores "
                f"{len(trace.cores)} (or re-import with --cores "
                f"{self.settings.cores})")
        return trace

    def run_governor(self, mix: str, governor: Governor,
                     telemetry: Optional[TelemetrySink] = None) -> RunResult:
        """Simulate ``mix`` under ``governor`` (no caching)."""
        sim = SystemSimulator(self.config, self.trace(mix), governor,
                              telemetry=telemetry)
        return sim.run()

    def baseline(self, mix: str) -> RunResult:
        """The (cached) all-on max-frequency reference run for ``mix``.

        With an on-disk cache attached, the baseline is loaded from
        disk when a content-identical run (same config, settings, and
        mix) was stored by any earlier process or parallel worker.
        """
        if mix not in self._baselines:
            result = None
            key = None
            if self.cache is not None:
                key_mix = mix
                if mix.startswith(IMPORTED_TRACE_PREFIX):
                    # Bind the baseline to the imported trace *content*:
                    # re-importing a different file under the same name
                    # must never resurrect the old baseline.
                    name = mix[len(IMPORTED_TRACE_PREFIX):]
                    key_mix = f"{mix}@{self.cache.imported_trace_digest(name)}"
                key = self.cache.baseline_key(
                    self.config, key_mix, self.settings.cores,
                    self.settings.instructions_per_core, self.settings.seed)
                result = self.cache.load_run(key)
            if result is None:
                result = self.run_governor(mix, BaselineGovernor())
                if self.cache is not None:
                    self.cache.store_run(key, result)
            self._baselines[mix] = result
        return self._baselines[mix]

    def warm(self, mix: str) -> None:
        """Populate the trace and baseline caches for ``mix``."""
        self.baseline(mix)

    def rest_power_w(self, mix: str) -> float:
        """Fixed rest-of-system power calibrated from the mix's baseline."""
        return rest_of_system_power_w(
            self.baseline(mix).avg_dimm_power_w,
            self.config.power.memory_power_fraction)

    # -- policy construction ------------------------------------------------------

    def make_memscale_governor(self, mix: str,
                               objective: PolicyObjective =
                               PolicyObjective.SYSTEM_ENERGY,
                               use_powerdown: bool = False) -> MemScaleGovernor:
        """A MemScale governor calibrated against the mix's baseline."""
        energy_model = EnergyModel(self.config, self.rest_power_w(mix))
        pd_exit = (self.config.timings.t_xp_ns if use_powerdown else None)
        policy = MemScalePolicy(self.config, energy_model,
                                n_cores=self.settings.cores,
                                objective=objective, pd_exit_ns=pd_exit)
        return MemScaleGovernor(policy, use_powerdown=use_powerdown)

    def make_placement_governor(self, mix: str,
                                use_powerdown: bool = False
                                ) -> "PlacementGovernor":
        """MemScale wrapped with rank-aware page placement/self-refresh.

        Requires a placement-enabled config (``config.placement.enabled``)
        so the controller builds a page table; :meth:`run_governor` will
        raise from the governor's ``setup`` otherwise.
        """
        from repro.placement import PlacementGovernor
        inner = self.make_memscale_governor(mix, use_powerdown=use_powerdown)
        return PlacementGovernor(inner)

    def make_named_governor(self, mix: str, name: str) -> Governor:
        if name == "Baseline":
            return BaselineGovernor()
        if name == "Fast-PD":
            return BaselineGovernor(PowerdownMode.FAST_EXIT)
        if name == "Slow-PD":
            return BaselineGovernor(PowerdownMode.SLOW_EXIT)
        if name == "Static":
            return StaticFrequencyGovernor()
        if name == "Decoupled":
            return DecoupledDimmGovernor()
        if name == "MemScale":
            return self.make_memscale_governor(mix)
        if name == "MemScale(MemEnergy)":
            return self.make_memscale_governor(
                mix, objective=PolicyObjective.MEMORY_ENERGY)
        if name == "MemScale+Fast-PD":
            return self.make_memscale_governor(mix, use_powerdown=True)
        raise ValueError(
            f"unknown policy {name!r}; registered governors are:\n"
            f"{governor_listing()}")

    def make_cap_governor(self, mix: str,
                          budget_w: Optional[float] = None,
                          budget_fraction: Optional[float] = None,
                          schedule: Optional["BudgetSchedule"] = None,
                          tolerance_frac: float = 0.01) -> "CapGovernor":
        """A power-capping governor calibrated against the mix's baseline.

        The budget can be given as absolute ``budget_w`` watts, as a
        ``budget_fraction`` of the mix's baseline average memory power
        (how the cap sweep expresses budgets), or as a full
        :class:`~repro.cap.budget.BudgetSchedule` for time-varying caps.
        """
        from repro.cap import (BudgetSchedule, CapAllocator, CapGovernor,
                               PowerBudget)
        given = [budget_w is not None, budget_fraction is not None,
                 schedule is not None]
        if sum(given) != 1:
            raise ValueError("give exactly one of budget_w, "
                             "budget_fraction, or schedule")
        if budget_fraction is not None:
            if budget_fraction <= 0:
                raise ValueError("budget_fraction must be positive")
            budget_w = budget_fraction * self.baseline(mix).avg_memory_power_w
        if schedule is not None:
            budget = PowerBudget(schedule=schedule,
                                 tolerance_frac=tolerance_frac)
        else:
            budget = PowerBudget(watts=budget_w,
                                 tolerance_frac=tolerance_frac)
        energy_model = EnergyModel(self.config, self.rest_power_w(mix))
        allocator = CapAllocator(self.config, energy_model,
                                 n_cores=self.settings.cores)
        return CapGovernor(allocator, budget)

    def baseline_core_power_w(self, mix: str) -> float:
        """Modeled core-cluster power of the mix's baseline run at the
        nominal core operating point — the core-domain reference every
        multi-domain budget and energy comparison is expressed against."""
        from repro.core.cpu_power import CorePowerModel
        model = CorePowerModel(self.config)
        return model.run_power_w(self.baseline(mix), model.nominal)

    def multidomain_reference_power_w(self, mix: str) -> float:
        """Reference power for multi-domain budget fractions: baseline
        average memory power plus modeled nominal core power. A fraction
        of this is the global budget, the analogue of the cap sweep's
        fraction of baseline memory power."""
        return (self.baseline(mix).avg_memory_power_w
                + self.baseline_core_power_w(mix))

    def platform_other_power_w(self, mix: str) -> float:
        """Rest-of-system power *excluding* the modeled core cluster.

        The calibrated rest-of-system power already contains the CPU
        package; subtracting the modeled nominal core power leaves the
        ``other`` component (fans, disks, board) so multi-domain system
        energy can charge core energy explicitly without double
        counting. Clamped at zero in case the core model exceeds the
        calibration.
        """
        return max(0.0,
                   self.rest_power_w(mix) - self.baseline_core_power_w(mix))

    def make_multidomain_governor(self, mix: str,
                                  budget_w: Optional[float] = None,
                                  budget_fraction: Optional[float] = None,
                                  tolerance_frac: float = 0.01,
                                  perf_bound: Optional[float] = None
                                  ) -> "MultiDomainGovernor":
        """A coordinated CPU+memory governor for a *global* power budget.

        The budget covers both domains: absolute ``budget_w`` watts, or
        ``budget_fraction`` of :meth:`multidomain_reference_power_w`
        (baseline memory power + nominal core power — how the
        multi-domain sweep expresses budgets).
        """
        from repro.cap import (MultiDomainAllocator, MultiDomainGovernor,
                               PowerBudget)
        given = [budget_w is not None, budget_fraction is not None]
        if sum(given) != 1:
            raise ValueError("give exactly one of budget_w or "
                             "budget_fraction")
        if budget_fraction is not None:
            if budget_fraction <= 0:
                raise ValueError("budget_fraction must be positive")
            budget_w = budget_fraction * self.multidomain_reference_power_w(mix)
        budget = PowerBudget(watts=budget_w, tolerance_frac=tolerance_frac)
        energy_model = EnergyModel(self.config, self.rest_power_w(mix))
        allocator = MultiDomainAllocator(self.config, energy_model,
                                         n_cores=self.settings.cores,
                                         perf_bound=perf_bound)
        return MultiDomainGovernor(allocator, budget)

    # -- comparisons --------------------------------------------------------------

    def compare(self, mix: str, governor: Governor,
                telemetry: Optional[TelemetrySink] = None
                ) -> PolicyComparison:
        """Run ``governor`` on ``mix`` and normalize to the baseline."""
        _, comparison = self.run_and_compare(mix, governor, telemetry)
        return comparison

    def compare_named(self, mix: str, name: str,
                      telemetry: Optional[TelemetrySink] = None
                      ) -> PolicyComparison:
        return self.compare(mix, self.make_named_governor(mix, name),
                            telemetry=telemetry)

    def run_and_compare(self, mix: str, governor: Governor,
                        telemetry: Optional[TelemetrySink] = None
                        ) -> Tuple[RunResult, PolicyComparison]:
        """Run ``governor`` on ``mix``; return the run and its comparison."""
        base = self.baseline(mix)
        result = self.run_governor(mix, governor, telemetry=telemetry)
        comparison = compare_to_baseline(
            base, result,
            cycle_ns=self.config.cpu.cycle_ns,
            memory_power_fraction=self.config.power.memory_power_fraction)
        return result, comparison

    def run_named_policy(self, mix: str, name: str,
                         telemetry: Optional[TelemetrySink] = None
                         ) -> Tuple[RunResult, PolicyComparison]:
        """Run the policy called ``name`` (one of :data:`POLICY_NAMES`)
        on ``mix`` and compare it against the all-on baseline.

        ``"Baseline"`` compares the reference run against itself (all
        savings zero), which lets sweeps include it uniformly.
        """
        if name == "Baseline":
            base = self.baseline(mix)
            comparison = compare_to_baseline(
                base, base,
                cycle_ns=self.config.cpu.cycle_ns,
                memory_power_fraction=self.config.power.memory_power_fraction)
            return base, comparison
        return self.run_and_compare(mix, self.make_named_governor(mix, name),
                                    telemetry=telemetry)

    def run_memscale(self, mix: str,
                     telemetry: Optional[TelemetrySink] = None, **kwargs
                     ) -> Tuple[RunResult, PolicyComparison]:
        """Convenience: MemScale run plus its baseline comparison."""
        governor = self.make_memscale_governor(mix, **kwargs)
        return self.run_and_compare(mix, governor, telemetry=telemetry)
