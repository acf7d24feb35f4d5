"""Programmatic experiment API.

High-level functions that regenerate each of the paper's result sets as
structured data (lists of row dicts). Each figure sweep is defined once
here and runs through :func:`repro.sim.parallel.run_specs`, so
``repro figure N``, the ``benchmarks/`` suite and a downstream user get
the same rows with the same cache, workers and fault isolation. Every
sweep function forwards ``**run_args`` (``config``, ``settings``,
``jobs``, ``cache_dir``, ``telemetry_dir``, ``retries``,
``fail_labels``) to :func:`run_specs` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig, scaled_config
from repro.core.baselines import StaticFrequencyGovernor
from repro.cpu.workloads import MIXES, mix_names
from repro.sim.parallel import (KINDS, JobFailure, JobSpec, Outcome,
                                cap_specs, multidomain_specs, policy_specs,
                                run_specs, split_outcomes)
from repro.sim.results import PolicyComparison
from repro.sim.runner import ExperimentRunner

#: The policies of Figures 9-11, in the paper's order.
FIG9_POLICIES = ("Fast-PD", "Slow-PD", "Decoupled", "Static",
                 "MemScale(MemEnergy)", "MemScale", "MemScale+Fast-PD")


@dataclass
class ExperimentResult:
    """Structured output of one experiment: named rows plus notes.

    ``outcomes`` is everything :func:`run_specs` returned, failed jobs
    included, in spec order; ``rows`` tabulate the good ones.
    """

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""
    outcomes: List[Union[Outcome, JobFailure]] = field(default_factory=list)

    def column(self, key: str) -> List[object]:
        return [row[key] for row in self.rows]

    @property
    def failures(self) -> List[JobFailure]:
        return split_outcomes(self.outcomes)[1]


def _comparison_row(outcome: Outcome) -> Dict[str, object]:
    cmp = outcome.comparison
    return {
        "workload": outcome.mix,
        "policy": cmp.governor,
        "memory_savings": cmp.memory_energy_savings,
        "system_savings": cmp.system_energy_savings,
        "avg_cpi_increase": cmp.avg_cpi_increase,
        "worst_cpi_increase": cmp.worst_cpi_increase,
    }


def _experiment(name: str, notes: str,
                outcomes: List[Union[Outcome, JobFailure]],
                rows: List[Dict[str, object]]) -> ExperimentResult:
    """Bundle a sweep's outcomes and rows; failed jobs are listed in the
    notes instead of the table."""
    result = ExperimentResult(name, rows=rows, notes=notes,
                              outcomes=outcomes)
    if result.failures:
        lines = ["FAILED JOBS (excluded from the table):"] + [
            f"  {f.summary()}" for f in result.failures]
        result.notes = "\n".join(filter(None, [notes] + lines))
    return result


def _spec_experiment(name: str, notes: str,
                     row: Callable[[Outcome], Dict[str, object]],
                     specs: List[JobSpec], **run_args) -> ExperimentResult:
    """Run ``specs`` (``run_args`` go to :func:`run_specs`) and tabulate
    the good outcomes with ``row``."""
    outcomes = run_specs(specs, **run_args)
    return _experiment(name, notes, outcomes,
                       [row(o) for o in split_outcomes(outcomes)[0]])


def energy_savings(mixes: Optional[Sequence[str]] = None,
                   **run_args) -> ExperimentResult:
    """Figures 5 and 6: MemScale vs baseline for each mix."""
    specs = policy_specs(list(mixes) if mixes is not None else list(MIXES),
                         ["MemScale"])
    return _spec_experiment(
        "fig5_6_energy_savings",
        "MemScale vs all-on baseline at the configured CPI bound",
        _comparison_row, specs, **run_args)


def policy_comparison(mixes: Optional[Sequence[str]] = None,
                      policies: Sequence[str] = FIG9_POLICIES,
                      **run_args) -> ExperimentResult:
    """Figures 9-11: every policy vs the baseline on the given mixes,
    ordered policy-major."""
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    specs = [JobSpec("policy", mix, policy=policy)
             for policy in policies for mix in mixes]
    return _spec_experiment(
        "fig9_11_policy_comparison",
        "all policies on identical traces, vs the all-on baseline",
        _comparison_row, specs, **run_args)


def sensitivity(name: str, param: str,
                points: Sequence[Tuple[object, SystemConfig]],
                mixes: Optional[Sequence[str]] = None,
                **run_args) -> ExperimentResult:
    """MemScale on ``mixes`` (default: the MID mixes) at each ``(value,
    config)`` point, one :func:`run_specs` call per point; each row is
    tagged ``param: value``. All points share each mix's trace."""
    specs = policy_specs(list(mixes) if mixes is not None
                         else mix_names("MID"), ["MemScale"])
    outcomes: List[Union[Outcome, JobFailure]] = []
    rows: List[Dict[str, object]] = []
    for value, config in points:
        point = run_specs(specs, config=config, **run_args)
        outcomes += point
        rows += [dict(_comparison_row(o), **{param: value})
                 for o in split_outcomes(point)[0]]
    return _experiment(name, "", outcomes, rows)


def sensitivity_cpi_bound(bounds: Sequence[float] = (0.01, 0.05, 0.10, 0.15),
                          mixes: Optional[Sequence[str]] = None,
                          **run_args) -> ExperimentResult:
    """Figure 12: sweep the allowed CPI degradation."""
    points = [(b, scaled_config().with_policy(cpi_bound=b)) for b in bounds]
    return sensitivity("fig12_cpi_bound", "cpi_bound", points, mixes,
                       **run_args)


def sensitivity_channels(channels: Sequence[int] = (2, 3, 4),
                         mixes: Optional[Sequence[str]] = None,
                         **run_args) -> ExperimentResult:
    """Figure 13: sweep the channel count (total DIMMs held ~constant)."""
    points = [
        (c, scaled_config().with_org(channels=c,
                                     dimms_per_channel=max(1, round(8 / c))))
        for c in channels
    ]
    return sensitivity("fig13_channels", "channels", points, mixes,
                       **run_args)


def sensitivity_memory_fraction(fractions: Sequence[float] = (0.3, 0.4, 0.5),
                                mixes: Optional[Sequence[str]] = None,
                                **run_args) -> ExperimentResult:
    """Figure 14: sweep the DIMM share of server power."""
    points = [(f, scaled_config().with_power(memory_power_fraction=f))
              for f in fractions]
    return sensitivity("fig14_memory_fraction", "memory_fraction", points,
                       mixes, **run_args)


def sensitivity_proportionality(idle_fracs: Sequence[float] = (0.0, 0.5, 1.0),
                                mixes: Optional[Sequence[str]] = None,
                                **run_args) -> ExperimentResult:
    """Figure 15: sweep MC/register idle power (power proportionality)."""
    points = [(i, scaled_config().with_power(proportionality_idle_frac=i))
              for i in idle_fracs]
    return sensitivity("fig15_proportionality", "idle_frac", points, mixes,
                       **run_args)


#: Default cap sweep: uncapped reference power down to ~60% of it.
DEFAULT_BUDGET_FRACTIONS = (1.0, 0.9, 0.8, 0.7, 0.6)


def cap_sweep(mixes: Optional[Sequence[str]] = None,
              budget_fractions: Sequence[float] = DEFAULT_BUDGET_FRACTIONS,
              **run_args) -> ExperimentResult:
    """Power-cap budget sweep (the FastCap-style dual experiment).

    For each mix, sweeps the power budget from the uncapped baseline
    power down to ~60% of it and reports per-point violation, fairness
    (min-app normalized performance), and slowdown statistics, plus a
    naive lowest-frequency throttle reference row per mix. Routed
    through :func:`repro.sim.parallel.run_specs`, so runs share the
    on-disk trace/baseline cache with every other experiment.
    """
    specs = cap_specs(mixes if mixes is not None else mix_names("MID"),
                      budget_fractions)
    kind = KINDS["cap"]
    return _spec_experiment("cap_sweep", kind.notes, kind.row, specs,
                            **run_args)


#: Default multi-domain sweep: global (CPU + memory) budget from the
#: uncoordinated reference power down to ~65% of it.
DEFAULT_MULTIDOMAIN_FRACTIONS = (1.0, 0.9, 0.8, 0.7, 0.65)


def multidomain_sweep(mixes: Optional[Sequence[str]] = None,
                      budget_fractions: Sequence[float] =
                      DEFAULT_MULTIDOMAIN_FRACTIONS,
                      **run_args) -> ExperimentResult:
    """Coordinated CPU+memory budget sweep (the SysScale-style dual).

    For each mix, sweeps a *global* power budget — a fraction of the
    mix's baseline memory power plus modeled nominal core power — and
    runs both the coordinated :class:`MultiDomainGovernor` and the
    memory-only reference (a CapGovernor given the budget left after
    nominal core power). Reports per-point violation, per-domain
    infeasibility, fairness, and explicit-split system energy. Routed
    through :func:`repro.sim.parallel.run_specs`.
    """
    specs = multidomain_specs(
        mixes if mixes is not None else mix_names("MID"), budget_fractions)
    kind = KINDS["multidomain"]
    return _spec_experiment("multidomain_sweep", kind.notes, kind.row,
                            specs, **run_args)


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
