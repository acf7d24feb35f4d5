"""Section 4.2.4 — more cores, same memory system (traffic scaling).

The paper runs the MID mixes on 32 cores with the same 4 channels,
multiplying memory traffic 2-4x; system savings drop to 7.6%-10.4% but
the bound still holds.
"""

from benchmarks.conftest import (bench_settings, experiment, mid_average,
                                 run_once)
from repro.analysis import format_table
from repro.config import scaled_config
from repro.cpu.workloads import mix_names
from repro.sim import experiments


def test_sec424_more_cores(benchmark):
    def run_all():
        out = {}
        out[16] = mid_average(experiment(experiments.energy_savings))[None]
        out[32] = mid_average(experiment(
            experiments.energy_savings, mixes=tuple(mix_names("MID")),
            config=scaled_config().with_cpu(cores=32),
            settings=bench_settings(cores=32)))[None]
        return out

    stats = run_once(benchmark, run_all)

    rows = [[f"{cores} cores",
             f"{stats[cores][0] * 100:5.1f}%", f"{stats[cores][1] * 100:5.1f}%"]
            for cores in (16, 32)]
    print()
    print(format_table(
        ["config", "System Energy Reduction", "Worst-case CPI Increase"],
        rows, title="Section 4.2.4: 32-core traffic scaling (MID average)"))

    # Doubling traffic shrinks, but does not eliminate, the savings.
    assert 0.0 < stats[32][0] < stats[16][0]
    # Bound holds under heavier traffic.
    assert stats[32][1] <= 0.10 + 0.03
