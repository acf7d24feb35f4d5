"""Validation — performance-model prediction accuracy.

The OS policy acts on the Eq. 2-9 CPI predictions, so their accuracy
bounds how well the slack mechanism can do. This bench compares, for
every epoch of the MID runs, the CPI the policy predicted at its chosen
frequency against the CPI the simulator then actually delivered, and
reports the mean absolute percentage error. The paper relies on these
predictions being accurate enough that "small estimation errors are
corrected through the slack mechanism".
"""

import numpy as np

from benchmarks.conftest import bench_runner, run_once
from repro.analysis import cpi_errors, format_table
from repro.cpu.workloads import mix_names


def epoch_errors(runner, mix):
    """Per-epoch |predicted - achieved| / achieved for each app."""
    governor = runner.make_memscale_governor(mix)
    result = runner.run_governor(mix, governor)
    trace = runner.trace(mix)
    return cpi_errors(governor.policy.decisions, result.timeline,
                      [c.app_name for c in trace.cores])


def test_model_prediction_accuracy(benchmark):
    runner = bench_runner()

    def run_all():
        return {mix: epoch_errors(runner, mix) for mix in mix_names("MID")}

    per_mix = run_once(benchmark, run_all)

    rows = []
    all_errors = []
    for mix, errors in per_mix.items():
        rows.append([mix, len(errors),
                     f"{np.mean(errors) * 100:5.1f}%",
                     f"{np.percentile(errors, 90) * 100:5.1f}%"])
        all_errors.extend(errors)
    print()
    print(format_table(
        ["workload", "predictions", "mean abs error", "p90 abs error"],
        rows, title="Validation: predicted vs achieved per-app CPI "
                    "(per epoch, at the chosen frequency)"))

    # The counter-based model is accurate enough to steer the policy:
    # average error well under the 10% performance bound it manages.
    assert np.mean(all_errors) < 0.10
    # And no systematic catastrophic misprediction.
    assert np.percentile(all_errors, 90) < 0.25
