"""Tests for the sharded content-addressed result store (sim/store.py):
outcome round-trips, record schemas, query filters, and the
deterministic digest the crash-resume checks compare."""

import copy
import json

import pytest

from repro.sim.parallel import JobFailure, JobSpec, Outcome, run_sweep
from repro.sim.runner import RunnerSettings
from repro.sim.serialize import run_result_to_dict
from repro.sim.store import (STORE_FORMAT, ResultStore, deterministic_digest,
                             failure_record, ok_record, outcome_from_dict,
                             outcome_to_dict)

SETTINGS = RunnerSettings(cores=4, instructions_per_core=4_000, seed=7)


@pytest.fixture(scope="module")
def sweep_outcome():
    """One real policy-kind Outcome (module-scoped: simulate once)."""
    return run_sweep(["MID1"], ["Static"], settings=SETTINGS, jobs=1,
                     cache_dir=None)[0]


def _cap_outcome(base):
    return Outcome(
        spec=JobSpec("cap", base.mix, budget_fraction=0.8),
        result=base.result, comparison=base.comparison,
        extras={"budget_w": 10.5, "governor": "Cap-gov", "min_perf": 0.93,
                "avg_power_w": 9.8,
                "cap": {"violation_count": 0, "epochs_accounted": 4}},
        wall_s=base.wall_s, cache_hits=1, telemetry_path=None)


def _md_outcome(base):
    return Outcome(
        spec=JobSpec("multidomain", base.mix, budget_fraction=0.7,
                     coordinated=True),
        result=base.result, comparison=base.comparison,
        extras={"budget_w": 40.0, "governor": "MultiDomain-gov",
                "min_perf": 0.91, "avg_power_w": 30.0,
                "avg_core_power_w": 20.0, "core_energy_j": 1.5,
                "system_energy_j": 4.0,
                "summary": {"epochs_decided": 4}},
        wall_s=base.wall_s)


def _job(label="MID1/Static"):
    mix, policy = label.split("/")
    return {"kind": "policy", "mix": mix, "policy": policy,
            "budget_fraction": None, "coordinated": None, "label": label}


def _failure():
    return JobFailure(job=JobSpec("policy", "MID1", policy="Static"),
                      label="MID1/Static",
                      error_type="ValueError", message="boom",
                      traceback="Traceback ...", attempts=2, wall_s=0.1)


class TestOutcomeRoundTrip:
    def test_sweep_outcome(self, sweep_outcome):
        back = outcome_from_dict(outcome_to_dict(sweep_outcome))
        assert isinstance(back, type(sweep_outcome))
        assert (back.mix, back.policy) == (sweep_outcome.mix,
                                           sweep_outcome.policy)
        assert run_result_to_dict(back.result) \
            == run_result_to_dict(sweep_outcome.result)
        assert back.comparison.system_energy_savings \
            == sweep_outcome.comparison.system_energy_savings

    def test_cap_outcome(self, sweep_outcome):
        outcome = _cap_outcome(sweep_outcome)
        back = outcome_from_dict(outcome_to_dict(outcome))
        assert isinstance(back, Outcome) and back.spec.kind == "cap"
        assert back.spec.budget_fraction == 0.8
        assert back.extras["cap"] == outcome.extras["cap"]
        assert back.extras["min_perf"] == outcome.extras["min_perf"]

    def test_multidomain_outcome(self, sweep_outcome):
        outcome = _md_outcome(sweep_outcome)
        back = outcome_from_dict(outcome_to_dict(outcome))
        assert isinstance(back, Outcome) and back.spec.kind == "multidomain"
        assert back.spec.coordinated is True
        assert back.extras["system_energy_j"] \
            == outcome.extras["system_energy_j"]
        assert back.extras["summary"] == outcome.extras["summary"]

    def test_rejects_unknown_payloads(self, sweep_outcome):
        with pytest.raises(TypeError):
            outcome_to_dict("not an outcome")
        bad = outcome_to_dict(sweep_outcome)
        bad["kind"] = "mystery"
        with pytest.raises(ValueError, match="mystery"):
            outcome_from_dict(bad)

    def test_round_trip_is_json_stable(self, sweep_outcome):
        """Serializing a deserialized outcome reproduces the bytes —
        the property store identity checks rely on."""
        first = outcome_to_dict(sweep_outcome)
        second = outcome_to_dict(outcome_from_dict(first))
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True)


class TestRecords:
    def test_ok_record_schema(self, sweep_outcome):
        record = ok_record("ab" * 32, _job(), sweep_outcome, "cfg", "set")
        assert record["format"] == STORE_FORMAT
        assert record["status"] == "ok"
        assert record["job"]["label"] == "MID1/Static"
        assert record["outcome"]["kind"] == "policy"
        assert "error" not in record

    def test_failure_record_schema(self):
        record = failure_record("cd" * 32, _job(), _failure(), "cfg", "set")
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert record["error"]["error_type"] == "ValueError"
        assert "boom" in record["error"]["message"]
        assert "outcome" not in record


class TestDeterministicDigest:
    def test_ignores_volatile_fields(self, sweep_outcome):
        record = ok_record("ab" * 32, _job(), sweep_outcome, "cfg", "set")
        other = copy.deepcopy(record)
        other["attempts"] = 5
        other["wall_s"] = 99.0
        other["outcome"]["wall_s"] = 99.0
        other["outcome"]["cache_hits"] = 42
        other["outcome"]["telemetry_path"] = "/elsewhere.jsonl"
        assert deterministic_digest(record) == deterministic_digest(other)

    def test_sensitive_to_result_content(self, sweep_outcome):
        record = ok_record("ab" * 32, _job(), sweep_outcome, "cfg", "set")
        other = copy.deepcopy(record)
        other["outcome"]["result"]["wall_time_ns"] += 1
        assert deterministic_digest(record) != deterministic_digest(other)

    def test_failure_digest_ignores_traceback(self):
        a = failure_record("cd" * 32, _job(), _failure(), "cfg", "set")
        b = copy.deepcopy(a)
        b["error"]["traceback"] = "different addresses 0xdeadbeef"
        b["error"]["message"] = "boom (retry 3)"
        assert deterministic_digest(a) == deterministic_digest(b)


class TestResultStore:
    def test_put_get_round_trip_and_sharding(self, tmp_path, sweep_outcome):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "0" * 62
        record = ok_record(key, _job(), sweep_outcome, "cfg", "set")
        path = store.put(record)
        assert path.parent.name == "ab"  # two-hex-char shard
        assert store.get(key)["status"] == "ok"
        assert store.status(key) == "ok"

    def test_missing_and_corrupt_records_read_as_none(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.get("ee" + "0" * 62) is None
        key = "ff" + "0" * 62
        path = store.path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{ truncated")
        assert store.get(key) is None
        path.write_text(json.dumps({"format": 999, "key": key}))
        assert store.get(key) is None  # unknown format
        assert store.status(key) is None

    def test_put_requires_a_key(self, tmp_path):
        with pytest.raises(ValueError, match="key"):
            ResultStore(tmp_path / "s").put({"status": "ok"})

    def test_query_filters(self, tmp_path, sweep_outcome):
        store = ResultStore(tmp_path / "s")
        store.put(ok_record("aa" + "0" * 62, _job("MID1/Static"),
                            sweep_outcome, "cfg", "set"))
        store.put(failure_record("bb" + "0" * 62, _job("MID2/MemScale"),
                                 _failure(), "cfg", "set"))
        assert len(store.query()) == 2
        assert len(store.query(mix="MID1")) == 1
        assert len(store.query(policy="MemScale")) == 1
        assert len(store.query(status="failed")) == 1
        assert len(store.query(kind="policy")) == 2
        assert store.query(mix="MID1", status="failed") == []

    def test_query_matches_point_labels(self, tmp_path, sweep_outcome):
        store = ResultStore(tmp_path / "s")
        job = {"kind": "cap", "mix": "MID1", "policy": None,
               "budget_fraction": 0.8, "coordinated": None,
               "label": "MID1/Cap0.80"}
        store.put(ok_record("cc" + "0" * 62, job,
                            _cap_outcome(sweep_outcome), "cfg", "set"))
        assert len(store.query(policy="Cap0.80")) == 1
        assert store.query(policy="Cap0.90") == []

    def test_counts_and_digests(self, tmp_path, sweep_outcome):
        store = ResultStore(tmp_path / "s")
        assert store.counts() == {"total": 0, "ok": 0, "failed": 0}
        store.put(ok_record("aa" + "0" * 62, _job(), sweep_outcome,
                            "cfg", "set"))
        store.put(failure_record("bb" + "0" * 62, _job("MID2/MemScale"),
                                 _failure(), "cfg", "set"))
        assert store.counts() == {"total": 2, "ok": 1, "failed": 1}
        digests = store.digests()
        assert set(digests) == {"aa" + "0" * 62, "bb" + "0" * 62}

    def test_records_skips_unreadable_files(self, tmp_path, sweep_outcome):
        store = ResultStore(tmp_path / "s")
        store.put(ok_record("aa" + "0" * 62, _job(), sweep_outcome,
                            "cfg", "set"))
        junk = store.root / "zz"
        junk.mkdir(parents=True)
        (junk / ("zz" + "0" * 62 + ".json")).write_text("not json")
        assert len(list(store.records())) == 1
