"""Figure 14 — sensitivity to the memory share of server power.

System energy savings (MID average) when DIMMs account for 30%, 40%,
or 50% of total server power.

Paper: raising the fraction from 30% to 50% more than doubles system
savings (11% vs 24%); worst-case CPI stays within the bound.
"""

from benchmarks.conftest import experiment, mid_average, run_once
from repro.analysis import format_table
from repro.sim import experiments

FRACTIONS = (0.30, 0.40, 0.50)


def test_fig14_memory_fraction(benchmark):
    def run_all():
        return mid_average(
            experiment(experiments.sensitivity_memory_fraction,
                       fractions=FRACTIONS), "memory_fraction")

    stats = run_once(benchmark, run_all)

    rows = [[f"{f * 100:.0f}% Mem",
             f"{stats[f][0] * 100:5.1f}%", f"{stats[f][1] * 100:5.1f}%"]
            for f in FRACTIONS]
    print()
    print(format_table(
        ["fraction", "System Energy Reduction", "Worst-case CPI Increase"],
        rows, title="Figure 14: impact of the memory power fraction "
                    "(MID average)"))

    # Larger memory share -> larger system savings, markedly so.
    assert stats[0.30][0] < stats[0.40][0] < stats[0.50][0]
    assert stats[0.50][0] > 1.5 * stats[0.30][0]
    for f in FRACTIONS:
        assert stats[f][1] <= 0.10 + 0.025
