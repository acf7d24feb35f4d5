"""Figure 2 — conventional memory subsystem power breakdown.

Average power breakdown (Background / Act-Pre / W+R / TERM / PLL+REG /
MC) of the all-on baseline for the MEM, MID, and ILP workload averages.

Paper's qualitative claims to match:
  (1) background power is significant, especially for ILP and MID;
  (2) act/pre and read/write power matter only for MEM;
  (3) register/PLL power contributes significantly;
  (4) the MC contributes a significant share.
"""

import numpy as np

from benchmarks.conftest import bench_runner, run_once
from repro.analysis import format_table
from repro.cpu.workloads import mix_names

COMPONENT_LABELS = [
    ("background", "Background"),
    ("refresh", "Refresh"),
    ("actpre", "Act/Pre"),
    ("rdwr", "W/R"),
    ("termination", "TERM"),
    ("pll_reg", "PLL/REG"),
    ("mc", "MC"),
]


def test_fig2_power_breakdown(benchmark):
    runner = bench_runner()

    def run_baselines():
        return {cat: [runner.baseline(m) for m in mix_names(cat)]
                for cat in ("MEM", "MID", "ILP")}

    by_cat = run_once(benchmark, run_baselines)

    shares = {}
    for cat, results in by_cat.items():
        totals = {k: 0.0 for k, _ in COMPONENT_LABELS}
        seconds = sum(r.sim_time_s for r in results)
        for r in results:
            for k, _ in COMPONENT_LABELS:
                totals[k] += r.energy_j.get(k, 0.0)
        power = {k: v / seconds for k, v in totals.items()}
        total_w = sum(power.values())
        shares[cat] = {k: power[k] / total_w for k, _ in COMPONENT_LABELS}

    rows = []
    for key, label in COMPONENT_LABELS:
        rows.append([label] + [f"{shares[c][key] * 100:5.1f}%"
                               for c in ("MEM", "MID", "ILP")])
    print()
    print(format_table(["component", "AVG_MEM", "AVG_MID", "AVG_ILP"], rows,
                       title="Figure 2: memory subsystem power breakdown "
                             "(share of memory power)"))

    # (1) background significant for ILP and MID
    assert shares["ILP"]["background"] > 0.25
    assert shares["MID"]["background"] > 0.20
    # (2) act/pre + rd/wr matter mostly for MEM
    mem_dynamic = shares["MEM"]["actpre"] + shares["MEM"]["rdwr"]
    ilp_dynamic = shares["ILP"]["actpre"] + shares["ILP"]["rdwr"]
    assert mem_dynamic > 3 * ilp_dynamic
    # (3) register/PLL contributes significantly
    for cat in shares:
        assert shares[cat]["pll_reg"] > 0.05
    # (4) the MC contributes a significant share
    for cat in shares:
        assert shares[cat]["mc"] > 0.15
