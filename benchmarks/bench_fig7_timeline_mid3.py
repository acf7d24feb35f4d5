"""Figure 7 — dynamic behaviour on MID3 (apsi phase change).

Timeline of (a) the bus frequency the policy selects, (b) per-app CPI,
and (c) channel utilization. The paper's story: the policy drops to a
low frequency early, detects apsi's massive phase change at a quantum
boundary, and raises the frequency; apsi stays within the bound.
"""

import numpy as np

from benchmarks.conftest import bench_runner, run_once
from repro.analysis import format_table


def test_fig7_timeline_mid3(benchmark):
    runner = bench_runner()
    result, comparison = run_once(benchmark,
                                  lambda: runner.run_memscale("MID3"))

    rows = []
    for sample in result.timeline:
        apsi = sample.app_cpi.get("apsi", float("nan"))
        rows.append([
            f"{sample.time_ns / 1000.0:8.1f}",
            f"{sample.bus_mhz:5.0f}",
            f"{apsi:6.2f}",
            " ".join(f"{u * 100:4.1f}%" for u in sample.channel_util),
        ])
    print()
    print(format_table(
        ["time (us)", "bus MHz", "apsi CPI", "channel utilization"],
        rows, title="Figure 7: MID3 timeline (frequency / CPI / "
                    "channel utilization)"))

    freqs = [s.bus_mhz for s in result.timeline]
    apsi_cpi = [s.app_cpi.get("apsi") for s in result.timeline
                if "apsi" in s.app_cpi]

    # The policy scales below maximum early in the run...
    assert min(freqs[: max(2, len(freqs) // 3)]) < 800.0
    # ...and reacts to the phase change: apsi's CPI rises mid-run and the
    # policy responds by raising frequency after the low phase.
    first_third = np.mean(apsi_cpi[: max(1, len(apsi_cpi) // 3)])
    last_third = np.mean(apsi_cpi[-max(1, len(apsi_cpi) // 3):])
    assert last_third > first_third
    low_floor = min(freqs[: max(2, len(freqs) // 3)])
    assert max(freqs[len(freqs) // 2:]) > low_floor
    # Despite the reaction delay, apsi stays within the allowed bound.
    assert comparison.app_cpi_increase["apsi"] <= 0.10 + 0.02
