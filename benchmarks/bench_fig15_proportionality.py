"""Figure 15 — sensitivity to MC/register power proportionality.

System energy savings (MID average) with the MC/register idle power at
0%, 50%, and 100% of peak.

Paper: the *less* power-proportional the components (higher idle
power), the more MemScale saves — up to ~23% — because frequency
scaling is then the only way to cut their draw.
"""

from benchmarks.conftest import experiment, mid_average, run_once
from repro.analysis import format_table
from repro.sim import experiments

IDLE_FRACTIONS = (0.0, 0.5, 1.0)


def test_fig15_proportionality(benchmark):
    def run_all():
        return mid_average(
            experiment(experiments.sensitivity_proportionality,
                       idle_fracs=IDLE_FRACTIONS), "idle_frac")

    stats = run_once(benchmark, run_all)

    rows = [[f"{i * 100:.0f}% Idle Power",
             f"{stats[i][0] * 100:5.1f}%", f"{stats[i][1] * 100:5.1f}%"]
            for i in IDLE_FRACTIONS]
    print()
    print(format_table(
        ["idle power", "System Energy Reduction", "Worst-case CPI Increase"],
        rows, title="Figure 15: impact of MC/register power "
                    "proportionality (MID average)"))

    # Less proportional hardware -> bigger savings from scaling.
    assert stats[1.0][0] > stats[0.5][0] > stats[0.0][0]
    for i in IDLE_FRACTIONS:
        assert stats[i][1] <= 0.10 + 0.025
