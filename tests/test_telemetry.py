"""Tests for the per-epoch telemetry stream (sim/telemetry.py)."""

import json

import pytest

from repro.config import NS_PER_US, scaled_config
from repro.sim.runner import ExperimentRunner, RunnerSettings
from repro.sim.system import SystemSimulator
from repro.sim.telemetry import (
    EPOCH_RECORD_FIELDS,
    EPOCH_RECORD_FIELDS_BY_VERSION,
    TELEMETRY_SCHEMA_VERSION,
    JsonlTelemetry,
    ListTelemetry,
    epoch_record,
    load_telemetry,
    read_telemetry,
    validate_epoch_record,
)

SETTINGS = RunnerSettings(cores=4, instructions_per_core=20_000, seed=7)

_V1 = ("schema", "kind", "workload", "governor", "epoch",
       "t_start_ns", "t_end_ns", "bus_mhz",
       "predicted_cpi", "actual_cpi", "slack_ns",
       "feasible_bus_mhz", "limited_by_slack",
       "energy_j", "memory_power_w", "channel_util")
_V2 = _V1 + ("budget_w", "predicted_power_w", "cap_feasible",
             "min_perf_norm")
_V3 = _V2 + ("core_freq_mhz", "core_power_w", "domain_budget_split")
_V4 = _V3 + ("migrations_per_epoch", "rank_state_residency")

#: Every schema version ever written, with the exact field tuple a
#: writer of that version emitted — spelled out here, independently of
#: the module's table. New schema bumps add one entry here and the
#: forward-compat matrix below covers them automatically.
VERSION_FIELDS = {1: _V1, 2: _V2, 3: _V3, 4: _V4}


def _record_for_version(version):
    """A valid record exactly as a writer of ``version`` emitted it."""
    record = epoch_record(
        workload="MID1", governor="MemScale", epoch=0,
        t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
        actual_cpi={}, energy_j={}, memory_power_w=0.0,
        channel_util=[])
    keep = set(VERSION_FIELDS[version])
    for name in list(record):
        if name not in keep:
            del record[name]
    record["schema"] = version
    return record


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(settings=SETTINGS)


class TestSchema:
    def test_epoch_record_has_every_schema_field(self):
        record = epoch_record(
            workload="MID1", governor="MemScale", epoch=0,
            t_start_ns=0.0, t_end_ns=20_000.0, bus_mhz=800.0,
            actual_cpi={"ammp": 2.0}, energy_j={"mc": 0.1},
            memory_power_w=25.0, channel_util=[0.1, 0.2, 0.3, 0.4])
        assert tuple(record) == EPOCH_RECORD_FIELDS
        validate_epoch_record(record)

    def test_governor_state_fields_default_to_null(self):
        record = epoch_record(
            workload="MID1", governor="Baseline", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        assert record["predicted_cpi"] is None
        assert record["slack_ns"] is None
        assert record["limited_by_slack"] is None

    def test_validate_rejects_missing_field(self):
        record = epoch_record(
            workload="MID1", governor="MemScale", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        del record["bus_mhz"]
        with pytest.raises(ValueError, match="missing"):
            validate_epoch_record(record)

    def test_validate_rejects_wrong_schema_version(self):
        record = epoch_record(
            workload="MID1", governor="MemScale", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        # a future version, and non-int look-alikes of a valid one
        for bad in (TELEMETRY_SCHEMA_VERSION + 1, True, 1.0):
            record["schema"] = bad
            with pytest.raises(ValueError, match="schema"):
                validate_epoch_record(record)

    def test_cap_fields_default_to_null(self):
        record = epoch_record(
            workload="MID1", governor="MemScale", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        for name in ("budget_w", "predicted_power_w", "cap_feasible",
                     "min_perf_norm"):
            assert record[name] is None

    def test_cap_fields_flow_from_governor_state(self):
        record = epoch_record(
            workload="MID1", governor="Cap-20.00W", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[],
            governor_state={"budget_w": 20.0, "predicted_power_w": 18.5,
                            "cap_feasible": True, "min_perf_norm": 0.97})
        assert record["budget_w"] == 20.0
        assert record["cap_feasible"] is True
        validate_epoch_record(record)

    def test_v2_record_missing_cap_field_rejected(self):
        record = epoch_record(
            workload="MID1", governor="MemScale", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        del record["budget_w"]
        with pytest.raises(ValueError, match="missing"):
            validate_epoch_record(record)

    def test_bad_cap_field_types_rejected(self):
        record = epoch_record(
            workload="MID1", governor="Cap-20.00W", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        record["budget_w"] = "twenty"
        with pytest.raises(ValueError, match="budget_w"):
            validate_epoch_record(record)
        record["budget_w"] = None
        record["cap_feasible"] = 1.5
        with pytest.raises(ValueError, match="cap_feasible"):
            validate_epoch_record(record)

    def test_per_domain_fields_default_to_null(self):
        record = epoch_record(
            workload="MID1", governor="MemScale", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        for name in ("core_freq_mhz", "core_power_w",
                     "domain_budget_split"):
            assert record[name] is None
        validate_epoch_record(record)

    def test_per_domain_fields_flow_from_governor_state(self):
        record = epoch_record(
            workload="MID1", governor="MultiDomain-25.00W", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[],
            governor_state={"budget_w": 25.0, "predicted_power_w": 22.0,
                            "cap_feasible": True, "min_perf_norm": 0.96,
                            "core_freq_mhz": 3600.0, "core_power_w": 11.2,
                            "domain_budget_split": {"core_w": 11.2,
                                                    "memory_w": 10.8}})
        assert record["core_freq_mhz"] == 3600.0
        assert record["core_power_w"] == 11.2
        assert record["domain_budget_split"]["memory_w"] == 10.8
        validate_epoch_record(record)

    def test_v3_record_missing_per_domain_field_rejected(self):
        record = epoch_record(
            workload="MID1", governor="MultiDomain-25.00W", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        del record["domain_budget_split"]
        with pytest.raises(ValueError, match="missing"):
            validate_epoch_record(record)

    def test_bad_per_domain_field_types_rejected(self):
        record = epoch_record(
            workload="MID1", governor="MultiDomain-25.00W", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[])
        record["core_freq_mhz"] = "fast"
        with pytest.raises(ValueError, match="core_freq_mhz"):
            validate_epoch_record(record)
        record["core_freq_mhz"] = None
        record["domain_budget_split"] = [11.2, 10.8]
        with pytest.raises(ValueError, match="domain_budget_split"):
            validate_epoch_record(record)

class TestForwardCompatMatrix:
    """Every historical schema version loads through every reader.

    Replaces the per-version acceptance tests that accumulated with each
    schema bump: the matrix is (version x reader), so adding v5 means
    appending one entry to ``VERSION_FIELDS``.
    """

    @pytest.mark.parametrize("version", sorted(VERSION_FIELDS))
    def test_versioned_record_has_exactly_its_fields(self, version):
        record = _record_for_version(version)
        assert tuple(record) == VERSION_FIELDS[version]

    @pytest.mark.parametrize("reader",
                             ["validate", "read", "load"])
    @pytest.mark.parametrize("version", sorted(VERSION_FIELDS))
    def test_old_records_still_load(self, version, reader, tmp_path):
        record = _record_for_version(version)
        if reader == "validate":
            validate_epoch_record(record)
            return
        path = tmp_path / f"v{version}.jsonl"
        path.write_text(json.dumps(record) + "\n")
        if reader == "read":
            records, skipped = read_telemetry(path)
            assert skipped == 0
        else:
            records = load_telemetry(path)
        assert records == [record]

    @pytest.mark.parametrize("version", sorted(VERSION_FIELDS))
    def test_versioned_record_missing_its_last_field_rejected(
            self, version):
        record = _record_for_version(version)
        del record[VERSION_FIELDS[version][-1]]
        with pytest.raises(ValueError, match="missing"):
            validate_epoch_record(record)

    def test_current_version_is_the_matrix_maximum(self):
        assert TELEMETRY_SCHEMA_VERSION == max(VERSION_FIELDS)
        assert VERSION_FIELDS[TELEMETRY_SCHEMA_VERSION] \
            == EPOCH_RECORD_FIELDS
        assert EPOCH_RECORD_FIELDS_BY_VERSION == VERSION_FIELDS


class TestSimulatorEmission:
    def test_disabled_by_default(self, runner):
        trace = runner.trace("MID1")
        sim = SystemSimulator(runner.config, trace,
                              runner.make_memscale_governor("MID1"))
        assert sim._telemetry is None
        sim.run()  # no sink: must run exactly as before

    def test_one_record_per_epoch(self, runner):
        sink = ListTelemetry()
        governor = runner.make_memscale_governor("MID1")
        result = runner.run_governor("MID1", governor, telemetry=sink)
        assert len(sink.records) == result.epochs
        for i, record in enumerate(sink.records):
            validate_epoch_record(record)
            assert record["epoch"] == i
            assert record["workload"] == "MID1"
            assert record["governor"] == "MemScale"
        # Epochs tile the run: each record starts where the last ended.
        for prev, cur in zip(sink.records, sink.records[1:]):
            assert cur["t_start_ns"] == prev["t_end_ns"]

    def test_memscale_records_carry_policy_state(self, runner):
        sink = ListTelemetry()
        governor = runner.make_memscale_governor("MID1")
        runner.run_governor("MID1", governor, telemetry=sink)
        # Any epoch after a frequency decision has prediction + slack.
        decided = [r for r in sink.records if r["predicted_cpi"] is not None]
        assert decided, "no epoch carried policy state"
        for record in decided:
            assert len(record["predicted_cpi"]) == SETTINGS.cores
            assert len(record["slack_ns"]) == SETTINGS.cores
            assert isinstance(record["limited_by_slack"], bool)
            assert all(f > 0 for f in record["feasible_bus_mhz"])

    def test_baseline_records_have_null_policy_state(self, runner):
        from repro.core.baselines import BaselineGovernor
        sink = ListTelemetry()
        runner.run_governor("MID1", BaselineGovernor(), telemetry=sink)
        assert sink.records
        for record in sink.records:
            assert record["predicted_cpi"] is None
            assert record["slack_ns"] is None

    def test_epoch_energy_sums_to_run_total(self, runner):
        sink = ListTelemetry()
        governor = runner.make_memscale_governor("MID2")
        result = runner.run_governor("MID2", governor, telemetry=sink)
        for component, total in result.energy_j.items():
            streamed = sum(r["energy_j"].get(component, 0.0)
                           for r in sink.records)
            assert streamed == pytest.approx(total, rel=1e-9), component

    def test_telemetry_does_not_change_results(self, runner):
        from repro.sim.serialize import run_result_to_dict
        plain = runner.run_governor("MID1",
                                    runner.make_memscale_governor("MID1"))
        sink = ListTelemetry()
        observed = runner.run_governor(
            "MID1", runner.make_memscale_governor("MID1"), telemetry=sink)
        assert (json.dumps(run_result_to_dict(plain), sort_keys=True)
                == json.dumps(run_result_to_dict(observed), sort_keys=True))


class TestJsonlSink:
    def test_round_trip_through_file(self, runner, tmp_path):
        path = tmp_path / "mid1.jsonl"
        with JsonlTelemetry(path) as sink:
            governor = runner.make_memscale_governor("MID1")
            result = runner.run_governor("MID1", governor, telemetry=sink)
        records = load_telemetry(path)
        assert len(records) == result.epochs
        assert all(r["kind"] == "epoch" for r in records)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with JsonlTelemetry(path) as sink:
            sink.emit(epoch_record(
                workload="MID1", governor="MemScale", epoch=0,
                t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
                actual_cpi={}, energy_j={}, memory_power_w=0.0,
                channel_util=[]))
        assert len(load_telemetry(path)) == 1

    def test_a_file_holds_one_run(self, tmp_path):
        # Re-running into the same file replaces the earlier run rather
        # than appending a second one after it.
        from repro.cli import main
        path = tmp_path / "t.jsonl"
        argv = ["run", "MID1", "--instructions", "4000", "--cores", "4",
                "--no-cache", "--telemetry", str(path)]
        main(argv)
        first = load_telemetry(path)
        main(argv)
        assert load_telemetry(path) == first
        assert [r["epoch"] for r in first] == list(range(len(first)))

    def test_load_rejects_invalid_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 1, "kind": "epoch"}\n')
        with pytest.raises(ValueError):
            load_telemetry(path)


class TestTruncatedTail:
    """A run killed mid-write leaves a partial final JSONL line; the
    readers must skip (and count) it rather than lose the file."""

    def _valid_line(self):
        return json.dumps(epoch_record(
            workload="MID1", governor="MemScale", epoch=0,
            t_start_ns=0.0, t_end_ns=1.0, bus_mhz=800.0,
            actual_cpi={}, energy_j={}, memory_power_w=0.0,
            channel_util=[]))

    def test_truncated_final_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._valid_line() + '\n{"schema": 3, "kind": "ep')
        records, skipped = read_telemetry(path)
        assert len(records) == 1
        assert skipped == 1
        assert load_telemetry(path) == records

    def test_intact_file_skips_nothing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._valid_line() + "\n")
        records, skipped = read_telemetry(path)
        assert (len(records), skipped) == (1, 0)

    def test_truncation_before_the_tail_still_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"broken\n' + self._valid_line() + "\n")
        with pytest.raises(ValueError):
            read_telemetry(path)

    def test_parseable_but_invalid_tail_still_raises(self, tmp_path):
        # Only an *unparseable* final line is the truncation signature;
        # a well-formed record violating the schema is real corruption.
        path = tmp_path / "t.jsonl"
        path.write_text(self._valid_line()
                        + '\n{"schema": 1, "kind": "epoch"}\n')
        with pytest.raises(ValueError, match="missing"):
            read_telemetry(path)
