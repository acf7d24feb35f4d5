"""Tests for the parallel runner (sim/parallel.py) and the on-disk
cache (sim/cache.py): hit/miss/invalidation semantics, corruption
fallback, and serial-vs-parallel determinism."""

import json
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.config import scaled_config
from repro.sim.cache import ExperimentCache
from repro.sim.parallel import (
    JobFailure,
    JobSpec,
    _run_spec,
    default_jobs,
    execute_jobs,
    outcome_table,
    run_sweep,
    split_outcomes,
    telemetry_filename,
)
from repro.sim.runner import ExperimentRunner, RunnerSettings
from repro.sim.serialize import run_result_to_dict
from repro.sim.telemetry import load_telemetry

SETTINGS = RunnerSettings(cores=4, instructions_per_core=8_000, seed=7)


def result_bytes(result):
    """Canonical byte representation for exact-equality assertions."""
    return json.dumps(run_result_to_dict(result), sort_keys=True).encode()


class TestCache:
    def test_trace_miss_then_hit(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        runner = ExperimentRunner(settings=SETTINGS, cache=cache)
        runner.trace("MID1")
        assert (cache.hits, cache.misses) == (0, 1)
        # A fresh runner over the same cache loads instead of generating.
        cache2 = ExperimentCache(tmp_path)
        runner2 = ExperimentRunner(settings=SETTINGS, cache=cache2)
        trace = runner2.trace("MID1")
        assert (cache2.hits, cache2.misses) == (1, 0)
        assert trace.rpki == runner.trace("MID1").rpki

    def test_baseline_miss_then_hit_is_identical(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        runner = ExperimentRunner(settings=SETTINGS, cache=cache)
        first = runner.baseline("MID1")
        runner2 = ExperimentRunner(settings=SETTINGS,
                                   cache=ExperimentCache(tmp_path))
        second = runner2.baseline("MID1")
        assert result_bytes(first) == result_bytes(second)

    def test_config_change_invalidates_baseline(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        config = scaled_config()
        key_a = cache.baseline_key(config, "MID1", 4, 8_000, 7)
        key_b = cache.baseline_key(config.with_policy(cpi_bound=0.05),
                                   "MID1", 4, 8_000, 7)
        assert key_a != key_b

    def test_settings_change_invalidates_trace(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        assert cache.trace_key("MID1", 4, 8_000, 7) \
            != cache.trace_key("MID1", 4, 8_000, 8)
        assert cache.trace_key("MID1", 4, 8_000, 7) \
            != cache.trace_key("MID1", 4, 16_000, 7)
        assert cache.trace_key("MID1", 4, 8_000, 7) \
            != cache.trace_key("MID2", 4, 8_000, 7)

    def test_trace_key_ignores_config(self, tmp_path):
        """Config sweeps (Figures 12-15) must share one trace per mix."""
        cache = ExperimentCache(tmp_path)
        runner_a = ExperimentRunner(config=scaled_config(),
                                    settings=SETTINGS, cache=cache)
        runner_a.trace("MID1")
        cache_b = ExperimentCache(tmp_path)
        runner_b = ExperimentRunner(
            config=scaled_config().with_policy(cpi_bound=0.05),
            settings=SETTINGS, cache=cache_b)
        runner_b.trace("MID1")
        assert cache_b.hits == 1

    def test_corrupted_trace_falls_back_to_regeneration(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        runner = ExperimentRunner(settings=SETTINGS, cache=cache)
        expected = runner.trace("MID1")
        path = cache._trace_path(
            cache.trace_key("MID1", SETTINGS.cores,
                            SETTINGS.instructions_per_core, SETTINGS.seed))
        path.write_bytes(b"not an npz file")
        cache2 = ExperimentCache(tmp_path)
        runner2 = ExperimentRunner(settings=SETTINGS, cache=cache2)
        regenerated = runner2.trace("MID1")
        assert cache2.hits == 0 and cache2.misses == 1
        assert not path.exists() or path.stat().st_size > 20
        assert regenerated.rpki == expected.rpki

    def test_trace_entry_with_bad_address_is_a_miss(self, tmp_path):
        # a well-formed entry whose records are corrupt: discarded and
        # regenerated, not replayed into a mid-run address error
        cache = ExperimentCache(tmp_path)
        runner = ExperimentRunner(settings=SETTINGS, cache=cache)
        expected = runner.trace("MID1")
        key = cache.trace_key("MID1", SETTINGS.cores,
                              SETTINGS.instructions_per_core, SETTINGS.seed)
        path = cache._trace_path(key)
        data = np.load(str(path), mmap_mode="r+")
        data[2, 0] = -7  # writeback column, first record
        data.flush()
        del data
        cache2 = ExperimentCache(tmp_path)
        assert cache2.load_trace(key) is None
        assert cache2.misses == 1 and not path.exists()
        regenerated = ExperimentRunner(settings=SETTINGS,
                                       cache=cache2).trace("MID1")
        np.testing.assert_array_equal(regenerated.cores[0].wb_addrs,
                                      expected.cores[0].wb_addrs)

    def test_corrupted_baseline_falls_back_to_rerun(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        runner = ExperimentRunner(settings=SETTINGS, cache=cache)
        expected = runner.baseline("MID1")
        key = cache.baseline_key(runner.config, "MID1", SETTINGS.cores,
                                 SETTINGS.instructions_per_core,
                                 SETTINGS.seed)
        cache._run_path(key).write_text("{ truncated json")
        cache2 = ExperimentCache(tmp_path)
        runner2 = ExperimentRunner(settings=SETTINGS, cache=cache2)
        rerun = runner2.baseline("MID1")
        assert result_bytes(rerun) == result_bytes(expected)

    def test_entries_counts_stored_artifacts(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        assert cache.entries == 0
        runner = ExperimentRunner(settings=SETTINGS, cache=cache)
        runner.baseline("MID1")
        assert cache.entries == 2  # one trace + one baseline run

    def test_cached_trace_loads_as_shared_memory_map(self, tmp_path):
        import numpy as np
        cache = ExperimentCache(tmp_path)
        ExperimentRunner(settings=SETTINGS, cache=cache).trace("MID1")
        cache2 = ExperimentCache(tmp_path)
        trace = ExperimentRunner(settings=SETTINGS, cache=cache2).trace("MID1")
        assert cache2.hits == 1
        base = trace.cores[0].gaps.base
        assert isinstance(base, np.memmap)
        # every core slices the same on-disk map — the zero-copy fan-out
        assert all(c.gaps.base is base for c in trace.cores)

    def test_stats_reports_counts_and_footprint(self, tmp_path):
        cache = ExperimentCache(tmp_path / "c")
        empty = cache.stats()
        assert empty["trace_entries"] == 0
        assert empty["run_entries"] == 0
        assert empty["total_bytes"] == 0
        runner = ExperimentRunner(settings=SETTINGS, cache=cache)
        runner.baseline("MID1")
        stats = cache.stats()
        assert stats["trace_entries"] == 1
        assert stats["run_entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["root"] == str(cache.root)

    def test_prune_removes_everything_but_the_root(self, tmp_path):
        cache = ExperimentCache(tmp_path / "c")
        ExperimentRunner(settings=SETTINGS, cache=cache).baseline("MID1")
        # a stray file of the retired .npz trace format is no entry
        stray = cache.root / "traces" / "stray.npz"
        stray.write_bytes(b"PK\x03\x04 retired format")
        assert cache.entries == 2
        assert cache.load_trace("stray") is None
        before = cache.stats()["total_bytes"]
        removed = cache.prune()
        assert removed["files_removed"] >= 4  # trace + sidecar + run + stray
        assert not stray.exists()
        assert removed["bytes_removed"] == before
        assert cache.stats()["total_bytes"] == 0
        assert cache.entries == 0
        # the cache still works after a prune
        cache2 = ExperimentCache(cache.root)
        ExperimentRunner(settings=SETTINGS, cache=cache2).trace("MID1")
        assert cache2.misses == 1
        assert cache2.entries == 1

    def test_prune_on_missing_root_is_a_noop(self, tmp_path):
        cache = ExperimentCache(tmp_path / "never-created")
        assert cache.prune() == {"files_removed": 0, "bytes_removed": 0}


class TestRunSweep:
    def test_rejects_unknown_inputs(self):
        with pytest.raises(ValueError, match="unknown mix"):
            run_sweep(["NOPE"], ["MemScale"], settings=SETTINGS,
                      cache_dir=None, jobs=1)
        with pytest.raises(ValueError, match="unknown policy"):
            run_sweep(["MID1"], ["NOPE"], settings=SETTINGS,
                      cache_dir=None, jobs=1)
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(["MID1"], ["MemScale"], settings=SETTINGS,
                      cache_dir=None, jobs=0)

    def test_outcomes_in_input_order(self, tmp_path):
        outcomes = run_sweep(["MID2", "MID1"], ["Static", "MemScale"],
                             settings=SETTINGS, jobs=1,
                             cache_dir=tmp_path / "c")
        assert [(o.mix, o.policy) for o in outcomes] == [
            ("MID2", "Static"), ("MID2", "MemScale"),
            ("MID1", "Static"), ("MID1", "MemScale")]
        assert outcome_table(outcomes, None)  # report rows render

    def test_parallel_matches_serial_byte_identically(self, tmp_path):
        mixes, policies = ["MID1", "ILP1"], ["MemScale", "Static"]
        serial = run_sweep(mixes, policies, settings=SETTINGS, jobs=1,
                           cache_dir=None)
        parallel = run_sweep(mixes, policies, settings=SETTINGS, jobs=2,
                             cache_dir=tmp_path / "c")
        for a, b in zip(serial, parallel):
            assert (a.mix, a.policy) == (b.mix, b.policy)
            assert result_bytes(a.result) == result_bytes(b.result)
            assert a.comparison.system_energy_savings \
                == b.comparison.system_energy_savings

    def test_four_workers_match_serial_byte_identically(self, tmp_path):
        # Worker count must never leak into results: fan-out only
        # changes scheduling, the per-run simulation is sequential.
        mixes, policies = ["MID1"], ["MemScale", "Static"]
        serial = run_sweep(mixes, policies, settings=SETTINGS, jobs=1,
                           cache_dir=None)
        wide = run_sweep(mixes, policies, settings=SETTINGS, jobs=4,
                         cache_dir=tmp_path / "c")
        for a, b in zip(serial, wide):
            assert (a.mix, a.policy) == (b.mix, b.policy)
            assert result_bytes(a.result) == result_bytes(b.result)

    def test_validator_does_not_perturb_results(self, tmp_path):
        # The DDR3 protocol validator is an observer: arming it must not
        # change a single bit of the simulation outcome.
        plain = run_sweep(["MID1"], ["MemScale"], settings=SETTINGS,
                          jobs=1, cache_dir=None)
        armed = run_sweep(["MID1"], ["MemScale"],
                          config=scaled_config().replace(
                              validate_protocol=True),
                          settings=SETTINGS, jobs=1, cache_dir=None)
        assert result_bytes(plain[0].result) == result_bytes(armed[0].result)
        assert plain[0].comparison.system_energy_savings \
            == armed[0].comparison.system_energy_savings

    def test_rerun_with_warm_cache_is_identical(self, tmp_path):
        cold = run_sweep(["MID1"], ["MemScale"], settings=SETTINGS,
                         jobs=2, cache_dir=tmp_path / "c")
        warm = run_sweep(["MID1"], ["MemScale"], settings=SETTINGS,
                         jobs=2, cache_dir=tmp_path / "c")
        assert result_bytes(cold[0].result) == result_bytes(warm[0].result)
        assert warm[0].cache_hits >= 2  # trace + baseline both from disk

    def test_baseline_policy_compares_to_itself(self, tmp_path):
        outcomes = run_sweep(["MID1"], ["Baseline"], settings=SETTINGS,
                             jobs=1, cache_dir=tmp_path / "c")
        cmp = outcomes[0].comparison
        assert cmp.memory_energy_savings == pytest.approx(0.0)
        assert cmp.worst_cpi_increase == pytest.approx(0.0)

    def test_telemetry_files_written_per_run(self, tmp_path):
        outcomes = run_sweep(["MID1"], ["MemScale", "Static"],
                             settings=SETTINGS, jobs=2,
                             cache_dir=tmp_path / "c",
                             telemetry_dir=tmp_path / "t")
        for o in outcomes:
            assert o.telemetry_path is not None
            records = load_telemetry(o.telemetry_path)
            assert len(records) == o.result.epochs
            # Governor names may embed detail (e.g. "Static-467MHz").
            assert records[0]["governor"].startswith(o.policy)

    def test_telemetry_filename_is_filesystem_safe(self):
        name = telemetry_filename("MID1", "MemScale(MemEnergy)")
        assert "(" not in name and ")" not in name
        assert name.endswith(".jsonl")


# -- fault isolation --------------------------------------------------------
# Worker functions must live at module level: the fork pool pickles them
# by reference.

def _echo_job(args):
    return f"ran:{args}"


def _raise_on_poison(args):
    if args == "poison":
        raise ValueError("simulated job failure")
    return f"ran:{args}"


def _kill_worker_on_poison(args):
    if args == "poison":
        os.kill(os.getpid(), signal.SIGKILL)
    return f"ran:{args}"


def _fail_until_marker(args):
    """Fail until a marker file exists (then create it): attempt #1
    fails, attempt #2 succeeds — exercises the retry path."""
    marker = Path(args)
    if not marker.exists():
        marker.write_text("seen")
        raise RuntimeError("transient failure")
    return f"ran:{args}"


class TestExecuteJobs:
    def test_inline_failure_is_isolated(self):
        jobs_meta = [JobSpec("policy", "MID1", policy="Static"),
                     JobSpec("policy", "MID1", policy="MemScale"),
                     JobSpec("policy", "MID2", policy="Static")]
        results = execute_jobs(_raise_on_poison, ["a", "poison", "c"],
                               jobs_meta, jobs=1)
        assert results[0] == "ran:a"
        assert results[2] == "ran:c"
        failure = results[1]
        assert isinstance(failure, JobFailure)
        assert failure.label == "MID1/MemScale"
        assert failure.mix == "MID1"
        assert failure.error_type == "ValueError"
        assert "simulated job failure" in failure.message
        assert "simulated job failure" in failure.traceback
        assert failure.attempts == 1
        assert "after 1 attempt)" in failure.summary()

    def test_pool_failure_is_isolated(self):
        results = execute_jobs(_raise_on_poison, ["a", "poison", "c"],
                               ["a", "poison", "c"], jobs=2, retries=2)
        assert results[0] == "ran:a"
        assert results[2] == "ran:c"
        assert isinstance(results[1], JobFailure)
        assert results[1].attempts == 3  # 1 + retries, then recorded
        assert "after 3 attempts)" in results[1].summary()

    def test_killed_worker_becomes_a_failure_record(self):
        """A job that SIGKILLs its own worker (OOM-kill stand-in) must
        not cost the rest of the sweep — the broken-pool survivors
        retry in isolation and only the poison job records a failure."""
        args = ["a", "b", "poison", "c", "d"]
        results = execute_jobs(_kill_worker_on_poison, args, args, jobs=2)
        for i, arg in enumerate(args):
            if arg == "poison":
                continue
            assert results[i] == f"ran:{arg}", f"job {arg} was lost"
        failure = results[2]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "BrokenProcessPool"
        assert "worker process died" in failure.message

    def test_retry_recovers_a_transient_failure(self, tmp_path):
        marker = str(tmp_path / "marker")
        results = execute_jobs(_fail_until_marker, [marker], [marker],
                               jobs=1, retries=1)
        assert results == [f"ran:{marker}"]

    def test_on_outcome_fires_once_per_settled_job(self):
        settled = []
        results = execute_jobs(
            _raise_on_poison, ["a", "poison"], ["a", "poison"], jobs=1,
            on_outcome=lambda i, outcome: settled.append((i, outcome)))
        assert [i for i, _ in settled] == [0, 1]
        assert settled[0][1] == results[0]
        assert settled[1][1] is results[1]

    def test_meta_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="jobs_meta"):
            execute_jobs(_echo_job, ["a"], [], jobs=1)

    def test_real_sweep_job_failure_yields_partial_results(self, tmp_path):
        """The acceptance shape: one bad job in an otherwise good sweep
        returns N-1 full outcomes plus one structured failure."""
        config = scaled_config()
        good_job = JobSpec("policy", "MID1", policy="Static")
        # worker-side ValueError
        bad_job = JobSpec("policy", "MID1", policy="NotAPolicy")
        job_args = [(job, config, SETTINGS, None, None, frozenset())
                    for job in (good_job, bad_job)]
        results = execute_jobs(_run_spec, job_args, [good_job, bad_job],
                               jobs=1)
        good, bad = split_outcomes(results)
        assert len(good) == 1 and len(bad) == 1
        assert good[0].policy == "Static"
        assert good[0].result.epochs > 0
        assert bad[0].label == "MID1/NotAPolicy"
        assert bad[0].error_type == "ValueError"


class TestDefaultJobs:
    def test_prefers_scheduling_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert default_jobs() == 2

    def test_affinity_is_capped_at_eight(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(32)))
        assert default_jobs() == 8

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_jobs() == 3


class TestSplitAndTable:
    def _failure(self):
        return JobFailure(job=JobSpec("policy", "MID1", policy="MemScale"),
                          label="MID1/MemScale", error_type="ValueError",
                          message="boom", attempts=2, wall_s=0.5)

    def test_split_outcomes_partitions(self, tmp_path):
        good_run = run_sweep(["MID1"], ["Static"], settings=SETTINGS,
                             jobs=1, cache_dir=tmp_path / "c")
        outcomes = [good_run[0], self._failure()]
        good, bad = split_outcomes(outcomes)
        assert good == [good_run[0]]
        assert bad == [outcomes[1]]

    def test_sweep_table_renders_failed_rows(self, tmp_path):
        good_run = run_sweep(["MID1"], ["Static"], settings=SETTINGS,
                             jobs=1, cache_dir=tmp_path / "c")
        lines = outcome_table([good_run[0], self._failure()],
                              None).splitlines()
        assert lines[2].split()[:2] == ["MID1", "Static"]
        assert lines[3].split() == ["MID1", "MemScale", "FAILED",
                                    "ValueError", "-", "-"]


class TestCacheOrphans:
    def _populated(self, tmp_path):
        cache = ExperimentCache(tmp_path / "c")
        ExperimentRunner(settings=SETTINGS, cache=cache).baseline("MID1")
        return cache

    def test_lone_sidecar_is_an_orphan(self, tmp_path):
        cache = self._populated(tmp_path)
        npy = next(cache.root.glob("traces/*.npy"))
        npy.unlink()
        stats = cache.stats()
        assert stats["trace_entries"] == 0
        assert stats["orphan_files"] == 1
        assert cache.entries == 1  # only the run entry remains usable

    def test_lone_data_file_is_an_orphan(self, tmp_path):
        cache = self._populated(tmp_path)
        sidecar = next(cache.root.glob("traces/*.npy.meta.json"))
        sidecar.unlink()
        stats = cache.stats()
        assert stats["trace_entries"] == 0
        assert stats["orphan_files"] == 1

    def test_complete_pair_is_not_an_orphan(self, tmp_path):
        stats = self._populated(tmp_path).stats()
        assert stats["trace_entries"] == 1
        assert stats["orphan_files"] == 0

    def test_prune_sweeps_orphans(self, tmp_path):
        cache = self._populated(tmp_path)
        next(cache.root.glob("traces/*.npy")).unlink()
        before = cache.stats()["total_bytes"]
        removed = cache.prune()
        assert removed["bytes_removed"] == before
        assert cache.stats()["orphan_files"] == 0
        assert cache.stats()["total_bytes"] == 0
