"""Additional runner and comparison-path tests."""

import pytest

from repro.config import scaled_config
from repro.core.baselines import BaselineGovernor, StaticFrequencyGovernor
from repro.sim.runner import POLICY_NAMES, ExperimentRunner, RunnerSettings


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(
        config=scaled_config(),
        settings=RunnerSettings(instructions_per_core=30_000, seed=77))


class TestRunnerConstruction:
    def test_default_config_is_scaled(self):
        r = ExperimentRunner()
        assert r.config.policy.epoch_ns < 1e6  # scaled, not 5 ms

    def test_invalid_config_rejected(self):
        import dataclasses
        bad = dataclasses.replace(scaled_config(), bus_freqs_mhz=())
        with pytest.raises(Exception):
            ExperimentRunner(config=bad)

    def test_policy_names_complete(self):
        assert "Baseline" in POLICY_NAMES
        assert len(POLICY_NAMES) == 8

    @pytest.mark.parametrize("field", ["cores", "instructions_per_core"])
    def test_nonpositive_scale_rejected(self, field):
        with pytest.raises(ValueError,
                           match=f"RunnerSettings.{field} must be >= 1"):
            RunnerSettings(**{field: 0})


class TestComparisonPaths:
    def test_compare_accepts_explicit_governor(self, runner):
        cmp = runner.compare("ILP2", StaticFrequencyGovernor(600.0))
        assert cmp.governor == "Static-600MHz"
        assert cmp.memory_energy_savings > 0

    def test_baseline_vs_itself_is_zero(self, runner):
        cmp = runner.compare("ILP2", BaselineGovernor())
        assert cmp.memory_energy_savings == pytest.approx(0.0, abs=1e-6)
        assert cmp.avg_cpi_increase == pytest.approx(0.0, abs=1e-6)

    def test_comparisons_share_one_baseline_run(self, runner):
        runner.compare_named("ILP2", "Fast-PD")
        base_before = runner.baseline("ILP2")
        runner.compare_named("ILP2", "Decoupled")
        assert runner.baseline("ILP2") is base_before

    def test_rest_power_consistent_across_policies(self, runner):
        a = runner.compare_named("ILP2", "Static")
        b = runner.compare_named("ILP2", "Decoupled")
        assert a.rest_power_w == pytest.approx(b.rest_power_w)

    def test_memscale_governors_are_fresh_per_run(self, runner):
        g1 = runner.make_memscale_governor("ILP2")
        g2 = runner.make_memscale_governor("ILP2")
        assert g1 is not g2
        assert g1.policy is not g2.policy


class TestDeterminismAcrossRunners:
    def test_same_settings_same_results(self):
        settings = RunnerSettings(instructions_per_core=20_000, seed=5)
        results = []
        for _ in range(2):
            r = ExperimentRunner(config=scaled_config(), settings=settings)
            _, cmp = r.run_memscale("MID1")
            results.append(cmp)
        assert results[0].memory_energy_savings == pytest.approx(
            results[1].memory_energy_savings)
        assert results[0].worst_cpi_increase == pytest.approx(
            results[1].worst_cpi_increase)

    def test_different_seed_changes_trace_but_not_shape(self):
        a = ExperimentRunner(
            config=scaled_config(),
            settings=RunnerSettings(instructions_per_core=20_000, seed=1))
        b = ExperimentRunner(
            config=scaled_config(),
            settings=RunnerSettings(instructions_per_core=20_000, seed=2))
        _, cmp_a = a.run_memscale("ILP2")
        _, cmp_b = b.run_memscale("ILP2")
        # both save plenty of memory energy on a compute-bound mix
        assert cmp_a.memory_energy_savings > 0.3
        assert cmp_b.memory_energy_savings > 0.3
