"""Ablation — closed-page vs open-page row-buffer management.

The paper adopts closed-page management, citing evidence that it beats
open-page for multi-core multiprogrammed workloads [40]: with many
independent access streams, a row left open is usually the *wrong* row
for the next request, so open page pays extra precharge-on-conflict
latency. This ablation verifies that design choice inside our
simulator and shows MemScale's savings hold under either policy.
"""

from benchmarks.conftest import (bench_runner, experiment, mid_average,
                                 run_once)
from repro.analysis import format_table
from repro.config import scaled_config
from repro.cpu.workloads import mix_names
from repro.sim import experiments

#: Bench label -> row policy.
ROW_POLICIES = {"closed-page (paper)": "closed", "open-page": "open"}

#: (row policy, config) sensitivity points.
POINTS = tuple((policy, scaled_config().with_org(row_policy=policy))
               for policy in ROW_POLICIES.values())


def baseline_mean_cpi(config):
    """MID-average baseline CPI (loaded from the disk cache the MemScale
    sweep filled, when the cache is on)."""
    runner = bench_runner(config=config)
    cpis = [float(runner.baseline(mix).core_cpi(config.cpu.cycle_ns).mean())
            for mix in mix_names("MID")]
    return sum(cpis) / len(cpis)


def test_ablation_row_policy(benchmark):
    def run_all():
        memscale = mid_average(experiment(
            experiments.sensitivity, name="ablation_row_policy",
            param="row_policy", points=POINTS), "row_policy")
        return {name: (baseline_mean_cpi(config), *memscale[policy])
                for name, (policy, config) in zip(ROW_POLICIES, POINTS)}

    stats = run_once(benchmark, run_all)

    rows = [[name, f"{cpi:.3f}", f"{s * 100:5.1f}%", f"{w * 100:5.1f}%"]
            for name, (cpi, s, w) in stats.items()]
    print()
    print(format_table(
        ["row policy", "baseline mean CPI", "MemScale sys savings",
         "worst CPI increase"],
        rows, title="Ablation: row-buffer management (MID average)"))

    closed = stats["closed-page (paper)"]
    open_page = stats["open-page"]
    # Closed page is at least competitive for multiprogrammed mixes
    # (the paper's design rationale): baseline CPI no worse than open.
    assert closed[0] <= open_page[0] + 0.05
    # MemScale saves energy within the bound under both policies.
    for name, (_, savings, worst) in stats.items():
        assert savings > 0.0, name
        assert worst <= 0.10 + 0.025, name
