"""Figure 10 — system energy breakdown by policy (MID average).

Energy normalized to the baseline, split into DRAM, PLL/Reg, MC, and
rest-of-system components.

Paper: MemScale reduces DRAM, PLL/Reg, and MC energy more than the
alternatives; Decoupled only reduces DRAM energy.
"""

from benchmarks.conftest import experiment, run_once
from repro.analysis import format_table
from repro.sim import experiments

POLICIES = ["Fast-PD", "Decoupled", "Static", "MemScale"]
DRAM_KEYS = ("background", "refresh", "actpre", "rdwr", "termination")


def grouped_energy(cmp):
    """(dram, pll_reg, mc) joules of the policy run and its baseline."""
    pol = cmp.energy_breakdown_j
    base = cmp.baseline_breakdown_j
    def group(d):
        return (sum(d[k] for k in DRAM_KEYS), d["pll_reg"], d["mc"])
    return group(pol), group(base)


def test_fig10_energy_breakdown(benchmark):
    def run_all():
        outcomes = experiment(experiments.policy_comparison).outcomes
        out = {}
        for policy in POLICIES:
            dram_p = reg_p = mc_p = dram_b = reg_b = mc_b = 0.0
            for cmp in (o.comparison for o in outcomes
                        if o.policy == policy):
                (dp, rp, mp), (db, rb, mb) = grouped_energy(cmp)
                dram_p += dp; reg_p += rp; mc_p += mp
                dram_b += db; reg_b += rb; mc_b += mb
            out[policy] = {
                "DRAM": dram_p / dram_b,
                "PLL/Reg": reg_p / reg_b,
                "MC": mc_p / mc_b,
            }
        return out

    ratios = run_once(benchmark, run_all)

    rows = [[p] + [f"{ratios[p][k]:.3f}" for k in ("DRAM", "PLL/Reg", "MC")]
            for p in POLICIES]
    print()
    print(format_table(
        ["policy", "DRAM", "PLL/Reg", "MC"], rows,
        title="Figure 10: MID-average energy by component "
              "(normalized to baseline; lower is better)"))

    # MemScale cuts every component below baseline.
    for key in ("DRAM", "PLL/Reg", "MC"):
        assert ratios["MemScale"][key] < 1.0
    # Decoupled reduces DRAM energy but not MC energy.
    assert ratios["Decoupled"]["DRAM"] < 1.0
    assert ratios["Decoupled"]["MC"] > 0.95
    # MemScale reduces PLL/Reg and MC energy more than Decoupled.
    assert ratios["MemScale"]["PLL/Reg"] < ratios["Decoupled"]["PLL/Reg"]
    assert ratios["MemScale"]["MC"] < ratios["Decoupled"]["MC"]
    # Static reduces MC energy too (lower static frequency), but
    # MemScale matches or beats it on DRAM energy.
    assert ratios["Static"]["MC"] < 1.0
    assert ratios["MemScale"]["DRAM"] <= ratios["Static"]["DRAM"] + 0.05
