"""Figure 11 — CPI overhead by policy (MID average).

Paper: MemScale's CPI increases stay under the 10% bound;
MemScale (MemEnergy) slightly exceeds it; Slow-PD hurts one app by 15%;
Fast-PD/Decoupled/Static cost only a few percent.
"""

from benchmarks.conftest import experiment, run_once
from repro.analysis import format_table
from repro.sim import experiments
from repro.sim.experiments import FIG9_POLICIES as POLICIES


def test_fig11_policy_cpi(benchmark):
    def run_all():
        outcomes = experiment(experiments.policy_comparison).outcomes
        out = {}
        for policy in POLICIES:
            avgs, worsts = [], []
            for cmp in (o.comparison for o in outcomes
                        if o.policy == policy):
                avgs.append(cmp.avg_cpi_increase)
                worsts.append(cmp.worst_cpi_increase)
            out[policy] = (sum(avgs) / len(avgs), max(worsts))
        return out

    stats = run_once(benchmark, run_all)

    rows = [[p, f"{stats[p][0] * 100:5.1f}%", f"{stats[p][1] * 100:5.1f}%"]
            for p in POLICIES]
    print()
    print(format_table(
        ["policy", "Multiprogram Average", "Worst Program"], rows,
        title="Figure 11: MID-average CPI increase by policy"))

    # MemScale within the bound (small slop for the scaled simulation).
    assert stats["MemScale"][1] <= 0.10 + 0.02
    # The cheap static policies barely degrade performance.
    for policy in ("Fast-PD", "Decoupled"):
        assert stats[policy][0] < 0.05
    # Slow-PD hurts markedly more than Fast-PD.
    assert stats["Slow-PD"][1] > 2 * stats["Fast-PD"][1]
    # MemEnergy degrades at least as much as system-aware MemScale.
    assert stats["MemScale(MemEnergy)"][0] >= stats["MemScale"][0] - 0.01
