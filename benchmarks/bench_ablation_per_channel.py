"""Ablation — per-channel frequency selection (Section 6 future work).

Uniform MemScale must clock every channel for the hottest one. On a
channel-imbalanced workload (here: half the cores stream a single
channel via strided addresses, the rest are nearly idle), the
per-channel extension drops the cold channels one more ladder step and
saves additional energy at no extra CPI cost.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis import format_table
from repro.config import scaled_config
from repro.core.energy_model import EnergyModel, rest_of_system_power_w
from repro.core.extensions import PerChannelMemScaleGovernor
from repro.core.governor import MemScaleGovernor
from repro.core.baselines import BaselineGovernor
from repro.core.policy import MemScalePolicy
from repro.cpu.trace import CoreTrace, WorkloadTrace
from repro.sim.results import compare_to_baseline
from repro.sim.system import SystemSimulator

N_INSTR = 100_000


def skewed_workload(config):
    """8 cores: 4 hammer channel 0 (stride = #channels), 4 nearly idle."""
    channels = config.org.channels
    cores = []
    rng = np.random.default_rng(99)
    for i in range(8):
        hot = i < 4
        rpki = 6.0 if hot else 0.3
        mean_gap = 1000.0 / rpki
        n = max(1, int(N_INSTR / mean_gap))
        gaps = np.maximum(1, rng.exponential(mean_gap, n)).astype(np.int64)
        gaps[-1] += max(0, N_INSTR - int(gaps.sum()))
        base = i << 26
        if hot:
            # stride of `channels` lines keeps every access on channel 0
            offsets = rng.integers(0, 1 << 16, n) * channels
        else:
            offsets = rng.integers(0, 1 << 18, n)
        reads = (base + offsets).astype(np.int64)
        wbs = np.full(n, -1, dtype=np.int64)
        cores.append(CoreTrace("hot" if hot else "cold", int(hot), gaps,
                               reads, wbs))
    return WorkloadTrace("skewed", cores)


def run_policy(config, workload, per_channel):
    """The run, its comparison with the baseline and the per-channel
    drops the governor made (0 for uniform MemScale)."""
    baseline = SystemSimulator(config, workload, BaselineGovernor()).run()
    rest_w = rest_of_system_power_w(baseline.avg_dimm_power_w,
                                    config.power.memory_power_fraction)
    policy = MemScalePolicy(config, EnergyModel(config, rest_w),
                            n_cores=len(workload))
    governor = (PerChannelMemScaleGovernor(policy) if per_channel
                else MemScaleGovernor(policy))
    result = SystemSimulator(config, workload, governor).run()
    cmp = compare_to_baseline(baseline, result,
                              cycle_ns=config.cpu.cycle_ns,
                              memory_power_fraction=
                              config.power.memory_power_fraction,
                              rest_power_w=rest_w)
    drops = getattr(governor, "per_channel_drops", 0)
    return result, cmp, drops


def test_ablation_per_channel_frequency(benchmark):
    config = scaled_config().with_cpu(cores=8)
    workload = skewed_workload(config)

    def run_all():
        return {
            "uniform": run_policy(config, workload, per_channel=False),
            "per-channel": run_policy(config, workload, per_channel=True),
        }

    stats = run_once(benchmark, run_all)

    rows = [[name, f"{cmp.memory_energy_savings * 100:5.1f}%",
             f"{cmp.system_energy_savings * 100:5.1f}%",
             f"{cmp.worst_cpi_increase * 100:5.1f}%", drops]
            for name, (_, cmp, drops) in stats.items()]
    print()
    print(format_table(
        ["policy", "mem savings", "sys savings", "worst CPI", "drops"],
        rows, title="Ablation: per-channel DFS on a channel-skewed "
                    "workload"))

    _, uniform, _ = stats["uniform"]
    _, per_channel, drops = stats["per-channel"]
    # The refinement actually fires on the skewed workload...
    assert drops > 0
    # ...saves at least as much memory energy as uniform MemScale...
    assert (per_channel.memory_energy_savings
            >= uniform.memory_energy_savings - 0.005)
    # ...and stays within the CPI bound.
    assert per_channel.worst_cpi_increase <= 0.10 + 0.02
