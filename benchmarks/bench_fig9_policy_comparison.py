"""Figure 9 — energy savings of MemScale vs alternative policies.

Average memory/system energy savings across the MID workloads for:
Fast-PD, Slow-PD, Decoupled DIMMs, Static, MemScale (MemEnergy),
MemScale, and MemScale + Fast-PD. The 4 x 7 (mix, policy) grid is
``repro figure 9``'s (:func:`repro.sim.experiments.policy_comparison`);
Figures 10/11 reuse the same runs.

Paper: Fast-PD saves little; Slow-PD *loses* system energy; Decoupled
beats Fast-PD; Static beats Decoupled; MemScale beats Static and saves
~3x more than Decoupled.
"""

from benchmarks.conftest import experiment, run_once
from repro.analysis import format_table
from repro.sim import experiments
from repro.sim.experiments import FIG9_POLICIES as POLICIES


def policy_average(outcomes, policy):
    mems, syss = [], []
    for cmp in (o.comparison for o in outcomes if o.policy == policy):
        mems.append(cmp.memory_energy_savings)
        syss.append(cmp.system_energy_savings)
    return sum(mems) / len(mems), sum(syss) / len(syss)


def test_fig9_policy_comparison(benchmark):
    def run_all():
        outcomes = experiment(experiments.policy_comparison).outcomes
        return {p: policy_average(outcomes, p) for p in POLICIES}

    averages = run_once(benchmark, run_all)

    rows = [[p, f"{averages[p][0] * 100:6.1f}%", f"{averages[p][1] * 100:6.1f}%"]
            for p in POLICIES]
    print()
    print(format_table(["policy", "Memory System Energy",
                        "Full System Energy"], rows,
                       title="Figure 9: MID-average energy savings by policy"))

    sys = {p: averages[p][1] for p in POLICIES}
    mem = {p: averages[p][0] for p in POLICIES}
    # Fast-PD: small but positive savings.
    assert 0.0 < sys["Fast-PD"] < 0.15
    # Slow-PD: so slow it wastes system energy.
    assert sys["Slow-PD"] < sys["Fast-PD"]
    # Decoupled modest; Static better; MemScale best of the static-capable.
    assert sys["Decoupled"] > 0.0
    assert sys["Static"] > sys["Decoupled"]
    assert mem["MemScale"] > mem["Static"]
    # MemScale saves a large multiple of Decoupled's system energy.
    assert sys["MemScale"] > 1.5 * sys["Decoupled"]
    # MemEnergy saves more memory energy than plain MemScale.
    assert mem["MemScale(MemEnergy)"] >= mem["MemScale"] - 0.03
