"""Figure 5 — memory and full-system energy savings per workload.

MemScale vs the all-on baseline at a 10% CPI bound, for all 12 mixes.
The twelve runs are ``repro figure 5``'s
(:func:`repro.sim.experiments.energy_savings`); Figure 6 reuses them.

Paper: memory savings 17%-71%, system savings 6%-31%; ILP mixes save
the most (system >= 30%), MID at least 15%, MEM at least 6%.
"""

from benchmarks.conftest import experiment, run_once
from repro.analysis import format_bar_chart, format_table
from repro.cpu.workloads import MIXES, mix_names
from repro.sim import experiments


def test_fig5_energy_savings(benchmark):
    def run_all():
        outcomes = experiment(experiments.energy_savings).outcomes
        return {o.mix: o.comparison for o in outcomes}

    comparisons = run_once(benchmark, run_all)

    rows = [[mix,
             f"{comparisons[mix].memory_energy_savings * 100:5.1f}%",
             f"{comparisons[mix].system_energy_savings * 100:5.1f}%"]
            for mix in MIXES]
    print()
    print(format_table(["workload", "Memory System Energy",
                        "Full System Energy"], rows,
                       title="Figure 5: energy savings (MemScale vs baseline, "
                             "10% CPI bound)"))
    print()
    print(format_bar_chart(
        [(mix, comparisons[mix].system_energy_savings) for mix in MIXES],
        scale=0.4, title="Full-system energy savings"))

    # Shape contract: every mix saves memory energy; category ordering.
    for mix, cmp in comparisons.items():
        assert cmp.memory_energy_savings > 0.05, mix
        assert cmp.system_energy_savings > 0.0, mix

    def cat_mean(cat, attr):
        vals = [getattr(comparisons[m], attr) for m in mix_names(cat)]
        return sum(vals) / len(vals)

    assert (cat_mean("ILP", "system_energy_savings")
            > cat_mean("MID", "system_energy_savings")
            > cat_mean("MEM", "system_energy_savings"))
    assert cat_mean("ILP", "system_energy_savings") > 0.20
    assert cat_mean("MID", "system_energy_savings") > 0.08
    assert cat_mean("MEM", "system_energy_savings") > 0.01
