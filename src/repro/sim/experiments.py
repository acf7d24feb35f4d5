"""Programmatic experiment API.

High-level functions that regenerate each of the paper's result sets as
structured data (lists of row dicts). The benchmark harness prints the
same numbers; this module is the API a downstream user or the CLI calls
to run the experiments at any scale and post-process the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, scaled_config
from repro.core.baselines import StaticFrequencyGovernor
from repro.cpu.workloads import MIXES, mix_names
from repro.sim.parallel import (JobSpec, Outcome, cap_specs,
                                multidomain_specs, run_specs, split_outcomes)
from repro.sim.results import PolicyComparison
from repro.sim.runner import ExperimentRunner, RunnerSettings


@dataclass
class ExperimentResult:
    """Structured output of one experiment: named rows plus notes."""

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def column(self, key: str) -> List[object]:
        return [row[key] for row in self.rows]


def _comparison_row(mix: str, cmp: PolicyComparison) -> Dict[str, object]:
    return {
        "workload": mix,
        "policy": cmp.governor,
        "memory_savings": cmp.memory_energy_savings,
        "system_savings": cmp.system_energy_savings,
        "avg_cpi_increase": cmp.avg_cpi_increase,
        "worst_cpi_increase": cmp.worst_cpi_increase,
    }


def energy_savings(runner: ExperimentRunner,
                   mixes: Optional[Sequence[str]] = None
                   ) -> ExperimentResult:
    """Figures 5 and 6: MemScale vs baseline for each mix."""
    mixes = list(mixes) if mixes is not None else list(MIXES)
    result = ExperimentResult(
        "fig5_6_energy_savings",
        notes="MemScale vs all-on baseline at the configured CPI bound")
    for mix in mixes:
        _, cmp = runner.run_memscale(mix)
        result.rows.append(_comparison_row(mix, cmp))
    return result


def policy_comparison(runner: ExperimentRunner,
                      mixes: Optional[Sequence[str]] = None,
                      policies: Optional[Sequence[str]] = None
                      ) -> ExperimentResult:
    """Figures 9-11: every policy vs the baseline on the given mixes."""
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    if policies is None:
        policies = ["Fast-PD", "Slow-PD", "Decoupled", "Static",
                    "MemScale(MemEnergy)", "MemScale", "MemScale+Fast-PD"]
    result = ExperimentResult(
        "fig9_11_policy_comparison",
        notes="all policies on identical traces, vs the all-on baseline")
    for policy in policies:
        for mix in mixes:
            cmp = runner.compare_named(mix, policy)
            result.rows.append(_comparison_row(mix, cmp))
    return result


def _sweep(configs: Iterable[Tuple[object, SystemConfig]],
           settings: RunnerSettings,
           mixes: Sequence[str], name: str, param: str) -> ExperimentResult:
    result = ExperimentResult(name)
    for value, config in configs:
        runner = ExperimentRunner(config=config, settings=settings)
        for mix in mixes:
            _, cmp = runner.run_memscale(mix)
            row = _comparison_row(mix, cmp)
            row[param] = value
            result.rows.append(row)
    return result


def sensitivity_cpi_bound(bounds: Sequence[float] = (0.01, 0.05, 0.10, 0.15),
                          settings: Optional[RunnerSettings] = None,
                          mixes: Optional[Sequence[str]] = None
                          ) -> ExperimentResult:
    """Figure 12: sweep the allowed CPI degradation."""
    settings = settings or RunnerSettings()
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    configs = [(b, scaled_config().with_policy(cpi_bound=b)) for b in bounds]
    return _sweep(configs, settings, mixes, "fig12_cpi_bound", "cpi_bound")


def sensitivity_channels(channels: Sequence[int] = (2, 3, 4),
                         settings: Optional[RunnerSettings] = None,
                         mixes: Optional[Sequence[str]] = None
                         ) -> ExperimentResult:
    """Figure 13: sweep the channel count (total DIMMs held ~constant)."""
    settings = settings or RunnerSettings()
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    configs = [
        (c, scaled_config().with_org(channels=c,
                                     dimms_per_channel=max(1, round(8 / c))))
        for c in channels
    ]
    return _sweep(configs, settings, mixes, "fig13_channels", "channels")


def sensitivity_memory_fraction(fractions: Sequence[float] = (0.3, 0.4, 0.5),
                                settings: Optional[RunnerSettings] = None,
                                mixes: Optional[Sequence[str]] = None
                                ) -> ExperimentResult:
    """Figure 14: sweep the DIMM share of server power."""
    settings = settings or RunnerSettings()
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    configs = [(f, scaled_config().with_power(memory_power_fraction=f))
               for f in fractions]
    return _sweep(configs, settings, mixes, "fig14_memory_fraction",
                  "memory_fraction")


def sensitivity_proportionality(idle_fracs: Sequence[float] = (0.0, 0.5, 1.0),
                                settings: Optional[RunnerSettings] = None,
                                mixes: Optional[Sequence[str]] = None
                                ) -> ExperimentResult:
    """Figure 15: sweep MC/register idle power (power proportionality)."""
    settings = settings or RunnerSettings()
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    configs = [(i, scaled_config().with_power(proportionality_idle_frac=i))
               for i in idle_fracs]
    return _sweep(configs, settings, mixes, "fig15_proportionality",
                  "idle_frac")


#: Default cap sweep: uncapped reference power down to ~60% of it.
DEFAULT_BUDGET_FRACTIONS = (1.0, 0.9, 0.8, 0.7, 0.6)


def cap_outcome_row(outcome: Outcome) -> Dict[str, object]:
    """Flatten one cap-kind :class:`~repro.sim.parallel.Outcome` to a
    row dict (the shape :func:`repro.analysis.cap_summary_table`
    renders)."""
    extras = outcome.extras
    cap = extras["cap"] or {}
    return {
        "workload": outcome.mix,
        "governor": extras["governor"],
        "budget_fraction": outcome.spec.budget_fraction,
        "budget_w": extras["budget_w"],
        "avg_power_w": extras["avg_power_w"],
        "violations": cap.get("violation_count"),
        "time_over_frac": cap.get("time_over_cap_fraction"),
        "infeasible_epochs": cap.get("infeasible_epochs"),
        "peak_power_w": cap.get("peak_power_w"),
        "min_perf": extras["min_perf"],
        "worst_cpi_increase": outcome.comparison.worst_cpi_increase,
        "memory_savings": outcome.comparison.memory_energy_savings,
        "system_savings": outcome.comparison.system_energy_savings,
    }


def cap_sweep(mixes: Optional[Sequence[str]] = None,
              budget_fractions: Sequence[float] = DEFAULT_BUDGET_FRACTIONS,
              config: Optional[SystemConfig] = None,
              settings: Optional[RunnerSettings] = None,
              jobs: Optional[int] = None,
              cache_dir: Optional[str] = None,
              telemetry_dir: Optional[str] = None,
              include_throttle: bool = True) -> ExperimentResult:
    """Power-cap budget sweep (the FastCap-style dual experiment).

    For each mix, sweeps the power budget from the uncapped baseline
    power down to ~60% of it and reports per-point violation, fairness
    (min-app normalized performance), and slowdown statistics, plus a
    naive lowest-frequency throttle reference row per mix. Routed
    through :func:`repro.sim.parallel.run_specs`, so runs share the
    on-disk trace/baseline cache with every other experiment.
    """
    notes = ("budgets are fractions of each mix's baseline average "
             "memory power; Throttle rows pin the slowest static "
             "frequency (the naive capping alternative)")
    specs = cap_specs(mixes if mixes is not None else mix_names("MID"),
                      budget_fractions, include_throttle=include_throttle)
    return _spec_experiment("cap_sweep", notes, cap_outcome_row, specs,
                            config=config, settings=settings, jobs=jobs,
                            cache_dir=cache_dir, telemetry_dir=telemetry_dir)


#: Default multi-domain sweep: global (CPU + memory) budget from the
#: uncoordinated reference power down to ~65% of it.
DEFAULT_MULTIDOMAIN_FRACTIONS = (1.0, 0.9, 0.8, 0.7, 0.65)


def multidomain_outcome_row(outcome: Outcome) -> Dict[str, object]:
    """Flatten one multidomain-kind :class:`~repro.sim.parallel.Outcome`
    to a row dict (the shape
    :func:`repro.analysis.multidomain_summary_table` renders)."""
    extras = outcome.extras
    summary = extras["summary"] or {}
    return {
        "workload": outcome.mix,
        "governor": extras["governor"],
        "coordinated": outcome.spec.coordinated,
        "budget_fraction": outcome.spec.budget_fraction,
        "budget_w": extras["budget_w"],
        "avg_power_w": extras["avg_power_w"],
        "avg_core_power_w": extras["avg_core_power_w"],
        "avg_core_mhz": summary.get("avg_core_mhz"),
        "violations": summary.get("violation_count"),
        "time_over_frac": summary.get("time_over_cap_fraction"),
        "infeasible_epochs": summary.get("infeasible_epochs"),
        "core_max_infeasible_epochs":
            summary.get("core_max_infeasible_epochs"),
        "mem_max_infeasible_epochs":
            summary.get("mem_max_infeasible_epochs"),
        "min_perf": extras["min_perf"],
        "worst_cpi_increase": outcome.comparison.worst_cpi_increase,
        "system_energy_j": extras["system_energy_j"],
    }


def multidomain_sweep(mixes: Optional[Sequence[str]] = None,
                      budget_fractions: Sequence[float] =
                      DEFAULT_MULTIDOMAIN_FRACTIONS,
                      config: Optional[SystemConfig] = None,
                      settings: Optional[RunnerSettings] = None,
                      jobs: Optional[int] = None,
                      cache_dir: Optional[str] = None,
                      telemetry_dir: Optional[str] = None,
                      include_memory_only: bool = True) -> ExperimentResult:
    """Coordinated CPU+memory budget sweep (the SysScale-style dual).

    For each mix, sweeps a *global* power budget — a fraction of the
    mix's baseline memory power plus modeled nominal core power — and
    runs both the coordinated :class:`MultiDomainGovernor` and the
    memory-only reference (a CapGovernor given the budget left after
    nominal core power). Reports per-point violation, per-domain
    infeasibility, fairness, and explicit-split system energy. Routed
    through :func:`repro.sim.parallel.run_specs`.
    """
    notes = ("budgets are fractions of each mix's baseline memory power "
             "plus modeled nominal core power; MemOnly rows give the "
             "whole remaining budget to a memory-only CapGovernor "
             "(the uncoordinated split)")
    specs = multidomain_specs(
        mixes if mixes is not None else mix_names("MID"), budget_fractions,
        include_memory_only=include_memory_only)
    return _spec_experiment("multidomain_sweep", notes,
                            multidomain_outcome_row, specs, config=config,
                            settings=settings, jobs=jobs,
                            cache_dir=cache_dir, telemetry_dir=telemetry_dir)


def _spec_experiment(name: str, notes: str,
                     row: Callable[[Outcome], Dict[str, object]],
                     specs: List[JobSpec], **run_args) -> ExperimentResult:
    """Run ``specs`` (``run_args`` go to :func:`run_specs`) and tabulate
    the good outcomes with ``row``; failed jobs are listed in the notes
    instead."""
    good, failed = split_outcomes(run_specs(specs, **run_args))
    if failed:
        notes += ("\nFAILED JOBS (excluded from the table):\n  "
                  + "\n  ".join(f.summary() for f in failed))
    return ExperimentResult(name, rows=[row(o) for o in good], notes=notes)


def timeline(runner: ExperimentRunner, mix: str) -> ExperimentResult:
    """Figures 7/8: per-epoch frequency / CPI / utilization series."""
    result_run, cmp = runner.run_memscale(mix)
    result = ExperimentResult(f"timeline_{mix}",
                              notes=f"worst CPI increase "
                                    f"{cmp.worst_cpi_increase:.1%}")
    for sample in result_run.timeline:
        result.rows.append({
            "time_us": sample.time_ns / 1000.0,
            "bus_mhz": sample.bus_mhz,
            "app_cpi": dict(sample.app_cpi),
            "mean_channel_util": float(sample.channel_util.mean()),
            "memory_power_w": sample.memory_power_w,
        })
    return result


def best_static_frequency(runner: ExperimentRunner, mix: str,
                          cpi_bound: Optional[float] = None
                          ) -> Tuple[float, PolicyComparison]:
    """The paper's hypothetical "manually tuned" static point: the lowest-
    energy static frequency that keeps every app within the bound.

    This is the unrealistic per-workload oracle Section 4.2.3 argues
    MemScale approximates without reboots.
    """
    if cpi_bound is None:
        cpi_bound = runner.config.policy.cpi_bound
    best: Optional[Tuple[float, PolicyComparison]] = None
    for bus_mhz in runner.config.sorted_bus_freqs():
        cmp = runner.compare(mix, StaticFrequencyGovernor(bus_mhz))
        if cmp.worst_cpi_increase > cpi_bound:
            continue
        if best is None or cmp.system_energy_savings > best[1].system_energy_savings:
            best = (bus_mhz, cmp)
    if best is None:
        raise RuntimeError(f"no static frequency satisfies the bound on {mix}")
    return best
