"""Figure 13 — sensitivity to the number of memory channels.

System energy savings and worst-case CPI increase (MID average) with
2, 3, and 4 channels. Fewer channels concentrate the same traffic, so
frequencies cannot drop as far.

Paper: more channels -> larger savings; even at 2 channels MemScale
still saves roughly 14% system energy within the bound.
"""

from benchmarks.conftest import experiment, mid_average, run_once
from repro.analysis import format_table
from repro.sim import experiments

CHANNELS = (2, 3, 4)


def test_fig13_channels(benchmark):
    def run_all():
        # The ~same 8 DIMMs are redistributed over fewer channels (the
        # paper varies channel count, not memory capacity).
        return mid_average(experiment(experiments.sensitivity_channels,
                                      channels=CHANNELS), "channels")

    stats = run_once(benchmark, run_all)

    rows = [[f"{c} channels",
             f"{stats[c][0] * 100:5.1f}%", f"{stats[c][1] * 100:5.1f}%"]
            for c in CHANNELS]
    print()
    print(format_table(
        ["config", "System Energy Reduction", "Worst-case CPI Increase"],
        rows, title="Figure 13: impact of channel count (MID average)"))

    # More channels -> at least as much savings.
    assert stats[4][0] >= stats[3][0] - 0.01
    assert stats[3][0] >= stats[2][0] - 0.01
    # Doubling per-channel traffic (4 -> 2 channels) still saves energy.
    assert stats[2][0] > 0.0
    # The bound holds at every channel count.
    for c in CHANNELS:
        assert stats[c][1] <= 0.10 + 0.025
