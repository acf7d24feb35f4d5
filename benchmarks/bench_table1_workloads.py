"""Table 1 — workload descriptions (RPKI / WPKI per mix).

Regenerates the paper's workload table from the synthetic trace
generator and checks the calibration against the published targets.
The twelve traces land in the on-disk cache, so every later bench loads
instead of regenerating.

Paper values: RPKI 0.16 (ILP2) .. 17.03 (MEM1); WPKI 0.01 .. 3.71.
"""

import pytest

from benchmarks.conftest import bench_runner, run_once
from repro.analysis import format_table
from repro.cpu.workloads import MIXES


def test_table1_workloads(benchmark):
    def build():
        runner = bench_runner()
        return {mix: runner.trace(mix) for mix in MIXES}

    traces = run_once(benchmark, build)

    rows = []
    for name, mix in MIXES.items():
        trace = traces[name]
        rows.append([
            name,
            f"{trace.rpki:.2f}", f"{mix.target_rpki:.2f}",
            f"{trace.wpki:.2f}", f"{mix.target_wpki:.2f}",
            " ".join(mix.apps),
        ])
    print()
    print(format_table(
        ["Name", "RPKI", "paper", "WPKI", "paper", "Applications (x4 each)"],
        rows, title="Table 1: workload descriptions (measured vs paper)"))

    for name, mix in MIXES.items():
        assert traces[name].rpki == pytest.approx(mix.target_rpki, rel=0.08), name
        assert traces[name].wpki == pytest.approx(mix.target_wpki, rel=0.40), name
