"""Tests for the cap-sweep experiment plumbing: the structure of a
cap-kind sweep through run_specs, determinism with the on-disk cache,
row flattening, table rendering, and the v2 telemetry it streams."""

import pytest

from repro.config import NS_PER_US, scaled_config
from repro.sim import load_telemetry, run_specs
from repro.sim.telemetry import TELEMETRY_SCHEMA_VERSION
from repro.sim.experiments import cap_sweep
from repro.sim.parallel import KINDS, cap_specs, outcome_table
from repro.sim.runner import RunnerSettings

CFG = scaled_config(epoch_ns=20 * NS_PER_US, profile_ns=2 * NS_PER_US)
SETTINGS = RunnerSettings(cores=4, instructions_per_core=8_000, seed=2011)
FRACTIONS = (0.9, 0.75)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cap_cache")
    return cap_run(cap_specs(["MID1"], FRACTIONS), cache_dir=str(cache))


def cap_run(specs, **kwargs):
    """Cap-kind specs through run_specs at this file's scale."""
    return run_specs(specs, config=CFG, settings=SETTINGS, jobs=1, **kwargs)


class TestRunCapSweep:
    def test_one_outcome_per_point_plus_throttle(self, outcomes):
        labels = [o.point for o in outcomes]
        assert labels == ["Cap0.90", "Cap0.75", "Throttle"]

    def test_throttle_row_has_no_cap_bookkeeping(self, outcomes):
        throttle = outcomes[-1]
        assert throttle.spec.budget_fraction is None
        assert throttle.extras["budget_w"] is None
        assert throttle.extras["cap"] is None
        assert throttle.extras["governor"].startswith("Static")

    def test_capped_rows_carry_ledger(self, outcomes):
        for o in outcomes[:-1]:
            cap = o.extras["cap"]
            assert o.extras["budget_w"] > 0
            assert cap["epochs_accounted"] > 0
            assert "violation_count" in cap
            assert "infeasible_epochs" in cap
            assert 0.0 < o.extras["min_perf"] <= 1.0

    def test_tighter_budget_never_uses_more_power(self, outcomes):
        by_frac = {o.spec.budget_fraction: o.extras for o in outcomes}
        assert by_frac[0.75]["avg_power_w"] \
            <= by_frac[0.9]["avg_power_w"] + 1e-9

    def test_cap_at_least_as_fair_as_throttle(self, outcomes):
        throttle = outcomes[-1]
        for o in outcomes[:-1]:
            assert o.extras["min_perf"] \
                >= throttle.extras["min_perf"] - 1e-9

    def test_deterministic_under_cache(self, outcomes, tmp_path):
        again = cap_run(cap_specs(["MID1"], FRACTIONS),
                        cache_dir=str(tmp_path / "fresh"))
        for a, b in zip(outcomes, again):
            assert a.extras["avg_power_w"] == b.extras["avg_power_w"]
            assert a.extras["min_perf"] == b.extras["min_perf"]
            assert a.extras["cap"] == b.extras["cap"]

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            cap_specs([], (0.9,))
        with pytest.raises(ValueError):
            cap_specs(["MID1"], ())

    def test_telemetry_streams_v2_records(self, tmp_path):
        tdir = tmp_path / "telemetry"
        # The capped point only: the throttle reference has no budget.
        out = cap_run(cap_specs(["MID1"], (0.9,))[:1],
                      cache_dir=str(tmp_path / "c"), telemetry_dir=str(tdir))
        records = load_telemetry(out[0].telemetry_path)
        assert records
        assert all(r["schema"] == TELEMETRY_SCHEMA_VERSION
                   for r in records)
        assert all(r["budget_w"] is not None for r in records)


class TestRowsAndTable:
    def test_cap_outcome_row_shape(self, outcomes):
        row = KINDS["cap"].row(outcomes[0])
        assert row["workload"] == "MID1"
        assert row["budget_fraction"] == 0.9
        assert row["violations"] \
            == outcomes[0].extras["cap"]["violation_count"]
        throttle_row = KINDS["cap"].row(outcomes[-1])
        assert throttle_row["budget_w"] is None
        assert throttle_row["violations"] is None

    def test_table_renders_none_as_dash(self, outcomes):
        table = outcome_table(outcomes, "power-cap sweep")
        lines = table.splitlines()
        assert lines[0] == "power-cap sweep"
        throttle_line = next(line for line in lines
                             if outcomes[-1].extras["governor"] in line)
        # All the budget/ledger columns are None for the throttle
        # reference and must render as bare dashes.
        assert throttle_line.split().count("-") >= 4

    def test_experiment_api_wraps_sweep(self, tmp_path):
        result = cap_sweep(mixes=["MID1"], budget_fractions=(0.9,),
                           config=CFG, settings=SETTINGS, jobs=1,
                           cache_dir=str(tmp_path / "c"))
        assert result.name == "cap_sweep"
        assert len(result.rows) == 2  # one capped point + throttle
        assert result.column("workload") == ["MID1", "MID1"]
        assert result.notes == KINDS["cap"].notes
