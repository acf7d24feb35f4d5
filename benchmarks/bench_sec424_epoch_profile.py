"""Section 4.2.4 — sensitivity to epoch and profiling lengths.

The paper sweeps quanta of 1/5/10 ms and profiling windows of
0.1/0.3/0.5 ms and finds MemScale "essentially insensitive" to both.
We sweep the same ratios at the scaled epoch size (epoch x0.5/x1/x2,
profile 5%/10%/25% of the epoch).
"""

from benchmarks.conftest import experiment, mid_average, run_once
from repro.analysis import format_table
from repro.config import NS_PER_US, scaled_config
from repro.sim import experiments

EPOCHS_US = (10.0, 20.0, 40.0)
PROFILE_FRACS = (0.05, 0.10, 0.25)

#: (("epoch" | "profile", value), config) sensitivity points.
POINTS = tuple(
    [(("epoch", epoch_us),
      scaled_config(epoch_ns=epoch_us * NS_PER_US,
                    profile_ns=0.10 * epoch_us * NS_PER_US))
     for epoch_us in EPOCHS_US]
    + [(("profile", frac),
        scaled_config(epoch_ns=20.0 * NS_PER_US,
                      profile_ns=frac * 20.0 * NS_PER_US))
       for frac in PROFILE_FRACS])


def test_sec424_epoch_and_profile_length(benchmark):
    def run_all():
        return mid_average(
            experiment(experiments.sensitivity, name="sec424_epoch_profile",
                       param="setting", points=POINTS), "setting")

    stats = run_once(benchmark, run_all)

    rows = []
    for epoch_us in EPOCHS_US:
        s, w = stats[("epoch", epoch_us)]
        rows.append([f"epoch {epoch_us:.0f} us",
                     f"{s * 100:5.1f}%", f"{w * 100:5.1f}%"])
    for frac in PROFILE_FRACS:
        s, w = stats[("profile", frac)]
        rows.append([f"profile {frac * 100:.0f}% of epoch",
                     f"{s * 100:5.1f}%", f"{w * 100:5.1f}%"])
    print()
    print(format_table(
        ["setting", "System Energy Reduction", "Worst-case CPI Increase"],
        rows, title="Section 4.2.4: epoch / profiling length sensitivity "
                    "(MID average)"))

    # Insensitivity: savings vary by only a few points across settings.
    epoch_savings = [stats[("epoch", e)][0] for e in EPOCHS_US]
    profile_savings = [stats[("profile", f)][0] for f in PROFILE_FRACS]
    assert max(epoch_savings) - min(epoch_savings) < 0.06
    assert max(profile_savings) - min(profile_savings) < 0.06
    for key, (_, worst) in stats.items():
        assert worst <= 0.10 + 0.03, key
