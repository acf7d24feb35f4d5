"""Figure 6 — CPI overhead under MemScale, per workload.

Average and worst per-application CPI increase vs the baseline, for all
12 mixes at a 10% bound.

Paper: no application slowed more than 9.2%; per-mix averages never
above 7.2%; degradations smallest for ILP, then MID, then MEM.
"""

from benchmarks.conftest import experiment, run_once
from repro.analysis import format_table
from repro.cpu.workloads import MIXES, mix_names
from repro.sim import experiments

#: Tolerance over the strict bound for the scaled-down simulation (the
#: paper's own MemEnergy variant exceeds the bound by 0.8%).
BOUND_SLOP = 0.02


def test_fig6_cpi_overhead(benchmark):
    def run_all():
        outcomes = experiment(experiments.energy_savings).outcomes
        return {o.mix: o.comparison for o in outcomes}

    comparisons = run_once(benchmark, run_all)

    rows = [[mix,
             f"{comparisons[mix].avg_cpi_increase * 100:5.1f}%",
             f"{comparisons[mix].worst_cpi_increase * 100:5.1f}%"]
            for mix in MIXES]
    print()
    print(format_table(
        ["workload", "Multiprogram Average", "Worst Program in Mix"], rows,
        title="Figure 6: CPI increase (MemScale, 10% bound)"))

    for mix, cmp in comparisons.items():
        assert cmp.worst_cpi_increase <= 0.10 + BOUND_SLOP, mix
        assert cmp.avg_cpi_increase <= cmp.worst_cpi_increase + 1e-9, mix

    def cat_mean(cat):
        vals = [comparisons[m].avg_cpi_increase for m in mix_names(cat)]
        return sum(vals) / len(vals)

    # ILP degrades least
    assert cat_mean("ILP") < cat_mean("MID")
    assert cat_mean("ILP") < cat_mean("MEM")
