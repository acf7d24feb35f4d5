"""Tests for the programmatic experiment API (tiny scales)."""

import pytest

from repro.config import scaled_config
from repro.sim import experiments
from repro.sim.runner import ExperimentRunner, RunnerSettings

SMALL = RunnerSettings(instructions_per_core=30_000, seed=5)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(config=scaled_config(), settings=SMALL)


@pytest.fixture(scope="module")
def run_args(tmp_path_factory):
    """Inline runs on one module-wide cache, so the figure functions
    share traces and baselines."""
    return {"settings": SMALL, "jobs": 1,
            "cache_dir": tmp_path_factory.mktemp("cache")}


class TestEnergySavings:
    def test_rows_per_mix(self, run_args):
        result = experiments.energy_savings(mixes=["ILP2", "MID1"],
                                            **run_args)
        assert [r["workload"] for r in result.rows] == ["ILP2", "MID1"]
        for row in result.rows:
            assert row["policy"] == "MemScale"
            assert -1.0 < row["memory_savings"] < 1.0
            assert row["worst_cpi_increase"] >= row["avg_cpi_increase"] - 1e-9
        assert [o.mix for o in result.outcomes] == ["ILP2", "MID1"]
        assert result.failures == []

    def test_column_accessor(self, run_args):
        result = experiments.energy_savings(mixes=["ILP2"], **run_args)
        assert result.column("workload") == ["ILP2"]

    def test_failed_job_is_listed_not_tabulated(self, run_args):
        result = experiments.energy_savings(
            mixes=["ILP2", "MID1"], fail_labels=["MID1/MemScale"],
            **run_args)
        assert result.column("workload") == ["ILP2"]
        assert len(result.outcomes) == 2
        assert [f.label for f in result.failures] == ["MID1/MemScale"]
        assert "FAILED JOBS" in result.notes
        assert "MID1/MemScale: InjectedFailure" in result.notes


class TestPolicyComparison:
    def test_policies_times_mixes(self, run_args):
        result = experiments.policy_comparison(
            mixes=["MID1"], policies=["Fast-PD", "Static"], **run_args)
        assert len(result.rows) == 2
        assert {r["policy"] for r in result.rows} == {"Fast-PD",
                                                      "Static-467MHz"}

    def test_rows_are_policy_major(self, run_args):
        result = experiments.policy_comparison(
            mixes=["ILP2", "MID1"], policies=["Fast-PD", "Static"],
            **run_args)
        assert result.column("workload") == ["ILP2", "MID1"] * 2
        assert [o.policy for o in result.outcomes] == (["Fast-PD"] * 2
                                                       + ["Static"] * 2)

    def test_memenergy_rows_are_labelled(self, run_args):
        result = experiments.policy_comparison(
            mixes=["MID1"], policies=["MemScale(MemEnergy)", "MemScale"],
            **run_args)
        assert result.column("policy") == ["MemScale(MemEnergy)",
                                           "MemScale"]


class TestSweeps:
    def test_cpi_bound_sweep_shape(self, run_args):
        result = experiments.sensitivity_cpi_bound(
            bounds=(0.02, 0.10), mixes=["MID1"], **run_args)
        assert len(result.rows) == 2
        assert [r["cpi_bound"] for r in result.rows] == [0.02, 0.10]
        # looser bound saves at least as much energy
        assert (result.rows[1]["system_savings"]
                >= result.rows[0]["system_savings"] - 0.02)

    def test_channels_sweep_shape(self, run_args):
        result = experiments.sensitivity_channels(
            channels=(2, 4), mixes=["MID1"], **run_args)
        assert [r["channels"] for r in result.rows] == [2, 4]

    def test_memory_fraction_sweep_direction(self, run_args):
        result = experiments.sensitivity_memory_fraction(
            fractions=(0.3, 0.5), mixes=["MID1"], **run_args)
        assert (result.rows[1]["system_savings"]
                > result.rows[0]["system_savings"])

    def test_proportionality_sweep_direction(self, run_args):
        result = experiments.sensitivity_proportionality(
            idle_fracs=(0.0, 1.0), mixes=["MID1"], **run_args)
        assert (result.rows[1]["system_savings"]
                > result.rows[0]["system_savings"])

    def test_parallel_point_matches_serial_runner(self, tmp_path):
        # Two channels change the address decode: the job path must
        # carry the point's config to the workers, the warm phase and
        # the baseline cache key.
        result = experiments.sensitivity_channels(
            channels=(2,), mixes=["MID1"], settings=SMALL, jobs=2,
            cache_dir=tmp_path)
        config = scaled_config().with_org(channels=2, dimms_per_channel=4)
        _, expected = ExperimentRunner(
            config=config, settings=SMALL).run_memscale("MID1")
        [outcome] = result.outcomes
        assert outcome.comparison == expected
        assert result.rows[0]["channels"] == 2


class TestTimeline:
    def test_rows_match_epochs(self, runner):
        result = experiments.timeline(runner, "MID1")
        assert len(result.rows) >= 1
        for row in result.rows:
            assert row["bus_mhz"] in runner.config.bus_freqs_mhz
            assert 0.0 <= row["mean_channel_util"] <= 1.0
            assert row["memory_power_w"] > 0


class TestBestStatic:
    def test_oracle_satisfies_bound(self, runner):
        bus_mhz, cmp = experiments.best_static_frequency(runner, "MID1")
        assert bus_mhz in runner.config.bus_freqs_mhz
        assert cmp.worst_cpi_increase <= runner.config.policy.cpi_bound
        assert cmp.system_energy_savings > 0

    def test_impossible_bound_raises(self, runner):
        with pytest.raises(RuntimeError):
            experiments.best_static_frequency(runner, "MEM1",
                                              cpi_bound=-1.0)
