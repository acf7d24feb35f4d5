"""Figure 12 — sensitivity to the maximum allowable CPI degradation.

System energy savings and worst-case CPI increase (MID average) for
bounds of 1%, 5%, 10%, and 15%.

Paper: tighter bounds save less; past ~10% the savings stop improving
because lengthening execution costs the rest of the system more energy
than memory saves.
"""

from benchmarks.conftest import experiment, mid_average, run_once
from repro.analysis import format_table
from repro.sim import experiments

BOUNDS = (0.01, 0.05, 0.10, 0.15)


def test_fig12_cpi_bound(benchmark):
    def run_all():
        return mid_average(experiment(experiments.sensitivity_cpi_bound,
                                      bounds=BOUNDS), "cpi_bound")

    stats = run_once(benchmark, run_all)

    rows = [[f"{b * 100:.0f}% bound",
             f"{stats[b][0] * 100:5.1f}%", f"{stats[b][1] * 100:5.1f}%"]
            for b in BOUNDS]
    print()
    print(format_table(
        ["bound", "System Energy Reduction", "Worst-case CPI Increase"],
        rows, title="Figure 12: impact of the CPI degradation bound "
                    "(MID average)"))

    # Tighter bounds save less energy.
    assert stats[0.01][0] < stats[0.10][0]
    assert stats[0.05][0] <= stats[0.10][0] + 0.01
    # Saturation: 15% does not improve much over 10%.
    assert stats[0.15][0] <= stats[0.10][0] + 0.03
    # Worst-case degradation respects each bound (with scaled-sim slop).
    for bound in BOUNDS:
        assert stats[bound][1] <= bound + 0.025, bound
