"""Tests for the crash-safe sweep service (sim/service.py): persistent
queue semantics, failure isolation + retry limits, crash resume (both a
controlled interrupt and a real SIGKILL of an in-flight `repro service
run`), and byte-identity of a resumed store against an uninterrupted
serial sweep."""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.sim.parallel import (KINDS, JobFailure, JobSpec, cap_specs,
                                multidomain_specs, placement_specs,
                                policy_specs, run_specs, run_sweep,
                                scenario_specs, split_outcomes)
from repro.sim.runner import RunnerSettings
from repro.sim.serialize import run_result_to_dict
from repro.sim.service import (LEDGER_NAME, LOCK_NAME, ServiceError,
                               ServiceLock, SweepService, read_ledger)
from repro.sim.store import (deterministic_digest, outcome_from_dict,
                             outcome_to_dict)

SETTINGS = RunnerSettings(cores=4, instructions_per_core=4_000, seed=7)


def result_bytes(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True).encode()


def make_service(root, **kwargs):
    kwargs.setdefault("settings", SETTINGS)
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("retries", 0)
    return SweepService(root, **kwargs)


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec("mystery", "MID1")
        with pytest.raises(ValueError, match="policy"):
            JobSpec("policy", "MID1")
        with pytest.raises(ValueError, match="multidomain"):
            JobSpec("multidomain", "MID1", budget_fraction=0.8)

    def test_labels(self):
        assert JobSpec("policy", "MID1", policy="Static").label \
            == "MID1/Static"
        assert JobSpec("cap", "MID1", budget_fraction=0.8).label \
            == "MID1/Cap0.80"
        assert JobSpec("cap", "MID1").label == "MID1/Throttle"
        assert JobSpec("multidomain", "MID1", budget_fraction=0.7,
                       coordinated=True).label == "MID1/MD0.70"

    def test_key_is_content_addressed(self):
        spec = JobSpec("policy", "MID1", policy="Static")
        assert spec.key("cfg", "set") == spec.key("cfg", "set")
        assert spec.key("cfg", "set") != spec.key("cfg2", "set")
        assert spec.key("cfg", "set") != spec.key("cfg", "set2")
        other = JobSpec("policy", "MID1", policy="MemScale")
        assert spec.key("cfg", "set") != other.key("cfg", "set")

    def test_dict_round_trip(self):
        spec = JobSpec("multidomain", "MID2", budget_fraction=0.7,
                       coordinated=False)
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert spec.job_dict()["label"] == "MID2/MemOnly0.70"

    def test_builders_match_sweep_order(self):
        assert [s.label for s in policy_specs(["MID1"], ["A", "B"])] \
            == ["MID1/A", "MID1/B"]
        assert [s.label for s in cap_specs(["MID1"], [0.9])] \
            == ["MID1/Cap0.90", "MID1/Throttle"]
        assert [s.label
                for s in cap_specs(["MID1"], [0.9],
                                   include_throttle=False)] \
            == ["MID1/Cap0.90"]
        assert [s.label for s in multidomain_specs(["MID1"], [0.8])] \
            == ["MID1/MD0.80", "MID1/MemOnly0.80"]


class TestLedger:
    def test_truncated_tail_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"type": "meta"}\n{"type": "enq')
        records, skipped = read_ledger(path)
        assert [r["type"] for r in records] == ["meta"]
        assert skipped == 1

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"type": "meta"}\nGARBAGE\n{"type": "done"}\n')
        with pytest.raises(ServiceError, match="corrupt ledger line 2"):
            read_ledger(path)

    def test_missing_ledger_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == ([], 0)


class TestQueue:
    def test_submit_is_idempotent_and_composes(self, tmp_path):
        svc = make_service(tmp_path / "s")
        specs = policy_specs(["MID1"], ["Static"])
        assert len(svc.submit(specs)) == 1
        assert svc.submit(specs) == []  # resubmit adds nothing
        superset = policy_specs(["MID1"], ["Static", "MemScale"])
        added = svc.submit(superset)
        assert [s.label for s in added] == ["MID1/MemScale"]
        assert len(svc.enqueued()) == 2

    def test_mismatched_config_is_rejected(self, tmp_path):
        svc = make_service(tmp_path / "s")
        svc.submit(policy_specs(["MID1"], ["Static"]))
        other = make_service(
            tmp_path / "s",
            settings=RunnerSettings(cores=4, instructions_per_core=4_000,
                                    seed=8))
        with pytest.raises(ServiceError, match="different config"):
            other.submit(policy_specs(["MID1"], ["Static"]))

    def test_open_requires_a_service_directory(self, tmp_path):
        with pytest.raises(ServiceError, match="meta"):
            SweepService.open(tmp_path / "nothing")


class TestFailureIsolation:
    def test_poisoned_job_yields_failure_record(self, tmp_path):
        svc = make_service(tmp_path / "s")
        out = svc.run(policy_specs(["MID1"], ["Static", "MemScale"]),
                      fail_labels=["MID1/MemScale"])
        good, bad = split_outcomes(out)
        assert len(good) == 1 and len(bad) == 1
        failure = bad[0]
        assert failure.error_type == "InjectedFailure"
        assert failure.label == "MID1/MemScale"
        assert "injected failure" in failure.message
        assert failure.attempts == 1
        record = svc.store.get(svc.key_of(
            JobSpec("policy", "MID1", policy="MemScale")))
        assert record["status"] == "failed"
        assert "InjectedFailure" in record["error"]["traceback"]

    def test_retry_limit_is_honored(self, tmp_path):
        svc = make_service(tmp_path / "s", retries=2)
        out = svc.run(policy_specs(["MID1"], ["MemScale"]),
                      fail_labels=["MID1/MemScale"])
        _, bad = split_outcomes(out)
        assert bad[0].attempts == 3  # 1 + 2 retries, then recorded

    def test_resume_heals_an_injected_failure(self, tmp_path):
        svc = make_service(tmp_path / "s")
        svc.run(policy_specs(["MID1"], ["Static", "MemScale"]),
                fail_labels=["MID1/MemScale"])
        assert svc.status()["failed"] == 1
        resumed = SweepService.open(tmp_path / "s").resume()
        good, bad = split_outcomes(resumed)
        assert not bad and len(good) == 2


class TestCrashResume:
    def test_interrupt_then_resume_runs_only_the_rest(self, tmp_path):
        svc = make_service(tmp_path / "s")
        specs = policy_specs(["MID1"], ["Static", "MemScale"])
        # Controlled interrupt: stop after one job, like a crash between
        # two jobs would.
        svc.run(specs, max_jobs=1)
        status = svc.status()
        assert (status["ok"], status["pending"]) == (1, 1)
        done_key = svc.key_of(specs[0])
        done_path = svc.store.path(done_key)
        stamp = done_path.stat().st_mtime_ns

        resumed = SweepService.open(tmp_path / "s").resume()
        assert len(resumed) == 2
        # The finished job was not re-executed: its record is untouched.
        assert done_path.stat().st_mtime_ns == stamp

        # Byte-identical to an uninterrupted serial sweep.
        reference = run_sweep(["MID1"], ["Static", "MemScale"],
                              settings=SETTINGS, jobs=1, cache_dir=None)
        for mine, ref in zip(resumed, reference):
            assert result_bytes(mine.result) == result_bytes(ref.result)

    def test_resumed_store_digests_match_uninterrupted_run(self, tmp_path):
        specs = policy_specs(["MID1"], ["Static", "MemScale"])
        interrupted = make_service(tmp_path / "a")
        interrupted.run(specs, max_jobs=1)
        SweepService.open(tmp_path / "a").resume()

        uninterrupted = make_service(tmp_path / "b")
        uninterrupted.run(specs)
        a = {r["key"]: deterministic_digest(r)
             for r in interrupted.store.records()}
        b = {r["key"]: deterministic_digest(r)
             for r in uninterrupted.store.records()}
        assert a == b and len(a) == 2

    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        """The acceptance scenario: SIGKILL an in-flight `repro service
        run`, then resume; completed outcomes survive, only unfinished
        jobs re-execute, and the final results are byte-identical to an
        uninterrupted serial run."""
        directory = tmp_path / "svc"
        policies = ["Static", "MemScale", "Fast-PD", "Slow-PD",
                    "Decoupled", "Baseline"]
        argv = [sys.executable, "-m", "repro", "service", "run",
                "--dir", str(directory), "--mixes", "MID1",
                "--policies", *policies, "--jobs", "1", "--retries", "0",
                "--instructions", "120000", "--cores", "4", "--seed", "7"]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                  / "src"))
        proc = subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        store_glob = directory / "store"
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill it
                if list(store_glob.glob("*/*.json")):
                    break  # at least one job landed: kill mid-sweep
                time.sleep(0.001)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)

        survivors = {p: p.stat().st_mtime_ns
                     for p in store_glob.glob("*/*.json")}
        assert survivors, "completed outcomes must survive the kill"
        assert len(survivors) < len(policies), \
            "the kill must land mid-sweep, not after it finished"

        resumed_svc = SweepService.open(directory)
        pending_before = {key for key, _ in resumed_svc.pending()}
        assert pending_before
        resumed = resumed_svc.resume()
        good, bad = split_outcomes(resumed)
        assert not bad and len(good) == len(policies)
        # Survivor records were not rewritten (only unfinished jobs ran)
        # — except a job that was mid-flight when the ledger line made
        # it down but the kill hit, which legitimately re-runs.
        for path, stamp in survivors.items():
            key = path.stem
            if key not in pending_before:
                assert path.stat().st_mtime_ns == stamp

        reference = run_sweep(
            ["MID1"], policies,
            settings=RunnerSettings(cores=4, instructions_per_core=120_000,
                                    seed=7),
            jobs=1, cache_dir=None)
        for mine, ref in zip(good, reference):
            assert (mine.mix, mine.policy) == (ref.mix, ref.policy)
            assert result_bytes(mine.result) == result_bytes(ref.result)


class TestOpenRoundTrip:
    def test_open_rebuilds_config_and_settings(self, tmp_path):
        config = scaled_config().with_policy(cpi_bound=0.05)
        svc = make_service(tmp_path / "s", config=config, retries=3)
        svc.submit(policy_specs(["MID1"], ["Static"]))
        reopened = SweepService.open(tmp_path / "s")
        assert reopened.settings == SETTINGS
        assert reopened.config_hash == svc.config_hash
        assert reopened.config.policy.cpi_bound == 0.05
        assert reopened.retries == 3
        assert reopened.cache_dir == svc.cache_dir
        # overrides win over the recorded values
        assert SweepService.open(tmp_path / "s", jobs=1, retries=0).retries \
            == 0

    def test_results_and_ledger_survive_reopen(self, tmp_path):
        svc = make_service(tmp_path / "s")
        svc.run(policy_specs(["MID1"], ["Static"]))
        results = SweepService.open(tmp_path / "s").results()
        assert len(results) == 1
        assert not isinstance(results[0], JobFailure)
        records, skipped = read_ledger(tmp_path / "s" / LEDGER_NAME)
        assert skipped == 0
        assert [r["type"] for r in records] \
            == ["meta", "enqueue", "done"]


class TestServiceKinds:
    def test_cap_jobs_run_through_the_service(self, tmp_path):
        svc = make_service(tmp_path / "s")
        out = svc.run(cap_specs(["MID1"], [0.9], include_throttle=True))
        good, bad = split_outcomes(out)
        assert not bad and len(good) == 2
        budget, throttle = good
        assert budget.spec.budget_fraction == 0.9
        assert throttle.spec.budget_fraction is None
        assert svc.store.query(kind="cap", status="ok")

    def test_multidomain_jobs_run_through_the_service(self, tmp_path):
        svc = make_service(tmp_path / "s")
        out = svc.run(multidomain_specs(["MID1"], [0.8],
                                        include_memory_only=False))
        good, bad = split_outcomes(out)
        assert not bad and len(good) == 1
        assert good[0].spec.coordinated is True
        assert svc.store.query(kind="multidomain", status="ok")

    def test_placement_jobs_run_through_the_service(self, tmp_path):
        svc = make_service(tmp_path / "s")
        out = svc.run(placement_specs(["MID1"]))
        good, bad = split_outcomes(out)
        assert not bad and len(good) == 2
        placed, reference = good
        assert placed.spec.coordinated is True
        assert reference.spec.coordinated is False
        assert placed.extras["placement"] is not None
        assert placed.extras["placement"]["pages_allocated"] > 0
        assert reference.extras["placement"] is None
        assert svc.store.query(kind="placement", status="ok")
        assert [s.label for s in placement_specs(["MID1"])] \
            == ["MID1/Placed", "MID1/NoPlacement"]
        assert [s.label
                for s in placement_specs(["MID1"],
                                         include_reference=False)] \
            == ["MID1/Placed"]


class TestScenarioKind:
    def test_spec_validation_and_round_trip(self):
        with pytest.raises(ValueError, match="device"):
            JobSpec("scenario", "mix2", policy="MemScale")
        spec = JobSpec("scenario", "mix2", policy="MemScale",
                       device="stt-mram")
        assert spec.label == "mix2/MemScale@stt-mram"
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert [s.label for s in scenario_specs(["mix2"], ["MemScale"],
                                                ["ddr3-1333", "ddr3l"])] \
            == ["mix2/MemScale@ddr3-1333", "mix2/MemScale@ddr3l"]

    def test_device_free_keys_unchanged_by_the_device_field(self):
        # Pre-scenario service directories content-address their jobs
        # without a device entry; adding the field must not shift the
        # keys of any existing kind.
        spec = JobSpec("policy", "MID1", policy="Static")
        payload = {"format": 1, "kind": "policy", "mix": "MID1",
                   "policy": "Static", "budget_fraction": None,
                   "coordinated": None, "config": "c", "settings": "s"}
        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest()
        assert spec.key("c", "s") == expected

    def test_scenario_jobs_run_through_the_service(self, tmp_path):
        svc = make_service(tmp_path / "s")
        out = svc.run(scenario_specs(["mix2"], ["MemScale"],
                                     ["ddr3-1333", "stt-mram"]))
        good, bad = split_outcomes(out)
        assert not bad and len(good) == 2
        ddr3, stt = good
        assert (ddr3.spec.device, stt.spec.device) \
            == ("ddr3-1333", "stt-mram")
        # The STT-MRAM-like table has near-zero standby power, so its
        # background share of DIMM energy must sit well below DDR3's.
        assert stt.extras["background_share"] \
            < ddr3.extras["background_share"]
        assert svc.store.query(kind="scenario", status="ok")

    def test_parallel_jobs_load_their_device_baseline(self, tmp_path):
        # The warm phase builds each (mix, device) baseline before the
        # fan-out, so every job loads its trace *and* its device's
        # baseline from the cache instead of simulating the baseline
        # again alongside its siblings.
        svc = make_service(tmp_path / "s", jobs=2)
        out = svc.run(scenario_specs(["mix2"], ["MemScale", "Static"],
                                     ["stt-mram"]))
        good, bad = split_outcomes(out)
        assert not bad and len(good) == 2
        assert [o.cache_hits for o in good] == [2, 2]


class TestServiceLock:
    def test_second_locker_fails_fast(self, tmp_path):
        root = tmp_path / "s"
        with ServiceLock(root):
            assert (root / LOCK_NAME).exists()
            with pytest.raises(ServiceError, match="another service "
                                                   "process holds"):
                ServiceLock(root).acquire()
        # Released on exit: a later locker succeeds.
        with ServiceLock(root):
            pass

    def test_run_holds_the_directory_lock(self, tmp_path):
        calls = []

        class Probe(SweepService):
            def _execute(self, pending, **kwargs):
                with pytest.raises(ServiceError, match="holds the lock"):
                    ServiceLock(self.root).acquire()
                calls.append("probed")
                return super()._execute(pending, **kwargs)

        svc = Probe(tmp_path / "s", settings=SETTINGS, jobs=1, retries=0)
        svc.run(policy_specs(["MID1"], ["Static"]))
        assert calls == ["probed"]
        # After run() returns the lock is free again.
        ServiceLock(tmp_path / "s").acquire()


class TestPlacementDifferential:
    """The placement acceptance differential: the same placement specs
    run serially, with worker fan-out, and through a SIGKILLed-then-
    resumed service must land byte-identical store records."""

    def test_serial_vs_parallel_store_digests_match(self, tmp_path):
        specs = placement_specs(["MID1", "MID2"])
        serial = make_service(tmp_path / "serial", jobs=1)
        serial.run(specs)
        fanned = make_service(tmp_path / "fanned", jobs=4)
        fanned.run(specs)
        a = {r["key"]: deterministic_digest(r)
             for r in serial.store.records()}
        b = {r["key"]: deterministic_digest(r)
             for r in fanned.store.records()}
        assert a == b and len(a) == 4

    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        directory = tmp_path / "svc"
        mixes = ["MID1", "MID2", "MID3", "MID4"]
        argv = [sys.executable, "-m", "repro", "service", "run",
                "--dir", str(directory), "--kind", "placement",
                "--mixes", *mixes, "--jobs", "1", "--retries", "0",
                "--instructions", "60000", "--cores", "4", "--seed", "7"]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                  / "src"))
        proc = subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        store_glob = directory / "store"
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill it
                if list(store_glob.glob("*/*.json")):
                    break  # at least one job landed: kill mid-sweep
                time.sleep(0.001)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)

        survivors = list(store_glob.glob("*/*.json"))
        assert survivors, "completed outcomes must survive the kill"
        assert len(survivors) < 2 * len(mixes), \
            "the kill must land mid-sweep, not after it finished"

        resumed_svc = SweepService.open(directory)
        resumed = resumed_svc.resume()
        good, bad = split_outcomes(resumed)
        assert not bad and len(good) == 2 * len(mixes)

        settings = RunnerSettings(cores=4, instructions_per_core=60_000,
                                  seed=7)
        reference = run_specs(placement_specs(mixes), settings=settings,
                              jobs=1, cache_dir=None)
        for mine, ref in zip(good, reference):
            assert (mine.mix, mine.spec.coordinated) \
                == (ref.mix, ref.spec.coordinated)
            assert result_bytes(mine.result) == result_bytes(ref.result)

        # digest-level: the resumed store matches an uninterrupted one
        uninterrupted = make_service(tmp_path / "b", settings=settings)
        uninterrupted.run(placement_specs(mixes))
        a = {r["key"]: deterministic_digest(r)
             for r in resumed_svc.store.records()}
        b = {r["key"]: deterministic_digest(r)
             for r in uninterrupted.store.records()}
        assert a == b and len(a) == 2 * len(mixes)


#: A service directory written by the per-kind sweep code this layer
#: replaced: 10 jobs over all five kinds at 4 cores x 2 000
#: instructions per core, seed 2011, no experiment cache.
LEGACY = Path(__file__).parent / "data" / "legacy_service"


def legacy_specs():
    return (policy_specs(["MID1"], ["Static", "MemScale"])
            + cap_specs(["MID1"], [0.9])
            + multidomain_specs(["MID1"], [0.8])
            + placement_specs(["MID1"])
            + scenario_specs(["mix2"], ["MemScale"],
                             ["ddr3-1333", "stt-mram"]))


class TestLegacyServiceDirectory:
    @pytest.fixture
    def legacy(self, tmp_path):
        root = tmp_path / "legacy"
        shutil.copytree(LEGACY, root)
        return SweepService.open(root)

    def test_resumes_with_nothing_to_execute(self, legacy):
        status = legacy.status()
        assert (status["enqueued"], status["ok"], status["pending"]) \
            == (10, 10, 0)
        records = list(legacy.root.glob("store/*/*.json"))
        stamps = {p: p.stat().st_mtime_ns for p in records}
        ledger = legacy.ledger_path.read_bytes()
        outcomes = legacy.resume()
        assert len(outcomes) == 10 and not split_outcomes(outcomes)[1]
        assert {p: p.stat().st_mtime_ns for p in records} == stamps
        assert legacy.ledger_path.read_bytes() == ledger

    def test_every_outcome_loads_with_its_extras(self, legacy):
        outcomes = {o.spec.label: o for o in legacy.results()}
        assert {o.spec.kind for o in outcomes.values()} == set(KINDS)
        assert outcomes["MID1/Static"].extras == {}
        capped = outcomes["MID1/Cap0.90"].extras
        assert capped["cap"]["budget_min_w"] == capped["budget_w"] > 0
        assert capped["governor"].startswith("Cap-")
        throttle = outcomes["MID1/Throttle"].extras
        assert throttle["cap"] is None and throttle["budget_w"] is None
        coordinated = outcomes["MID1/MD0.80"].extras
        memory_only = outcomes["MID1/MemOnly0.80"].extras
        assert coordinated["governor"].startswith("MultiDomain-")
        assert "violation_count" in coordinated["summary"]
        assert coordinated["budget_w"] == memory_only["budget_w"]
        assert coordinated["system_energy_j"] > 0
        placed = outcomes["MID1/Placed"].extras["placement"]
        assert placed["pages_allocated"] > 0
        assert outcomes["MID1/NoPlacement"].extras["placement"] is None
        assert outcomes["mix2/MemScale@stt-mram"].extras["background_share"] \
            < outcomes["mix2/MemScale@ddr3-1333"].extras["background_share"]
        for record in legacy.store.records():
            assert outcome_to_dict(outcome_from_dict(record["outcome"])) \
                == record["outcome"]

    def test_fresh_run_reproduces_keys_and_digests(self, legacy, tmp_path):
        fresh = make_service(tmp_path / "fresh", config=legacy.config,
                             settings=legacy.settings, cache_dir=None)
        specs = legacy_specs()
        assert [fresh.key_of(spec) for spec in specs] \
            == [key for key, _ in legacy.enqueued()]
        fresh.run(specs)
        digests = fresh.store.digests()
        assert len(digests) == 10
        assert digests == legacy.store.digests()
