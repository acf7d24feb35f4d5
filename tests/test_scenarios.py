"""Tests for the scenario subsystem (repro/scenarios/): k6 + CSV trace
ingestion with re-interleaving, the trace -> phase fitter, the
MPKI-laddered mix library, the device technology tables, the
imported-trace cache store, the runner's ``trace:<name>`` resolution,
and the (mix x policy x device) scenario sweep."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro import scenarios as scn
from repro.cli import main
from repro.config import scaled_config
from repro.cpu.workloads import (MixSpec, TraceGenerator, known_mix_names,
                                 lookup_mix, register_app_profile,
                                 register_mix)
from repro.scenarios.fit import fit_trace, row_hit_flags, seed_mix_from_fit
from repro.scenarios.ingest import (ImportSummary, TraceFormatError,
                                    convert_records, detect_format,
                                    import_trace, iter_csv, iter_k6,
                                    read_records, reinterleave)
from repro.sim.cache import ExperimentCache, check_trace_name
from repro.sim.parallel import run_specs, run_sweep, scenario_specs
from repro.sim.runner import (IMPORTED_TRACE_PREFIX, ExperimentRunner,
                              RunnerSettings)

SAMPLE = Path(__file__).parent / "data" / "sample_k6.trc"
ORG = scaled_config().org
SETTINGS = RunnerSettings(cores=4, instructions_per_core=4_000, seed=7)


class TestK6Parsing:
    def test_all_command_aliases_and_comments(self):
        text = ("; leading comment\n"
                "# another comment\n"
                "\n"
                "0x1000 P_MEM_RD 5\n"
                "0x2000 READ 7\n"
                "7f40 P_FETCH 9\n"          # bare hex, no 0x prefix
                "0x3000 P_MEM_WR 11\n"
                "0x4000 WRITE 12\n")
        records = list(iter_k6(io.StringIO(text)))
        assert [r[0] for r in records] == [0x1000, 0x2000, 0x7F40,
                                           0x3000, 0x4000]
        assert [r[1] for r in records] == [False, False, False, True, True]
        assert [r[2] for r in records] == [5, 7, 9, 11, 12]

    def test_wrong_field_count_names_the_line(self):
        with pytest.raises(TraceFormatError, match=r"t\.trc:2.*2 fields"):
            list(iter_k6(io.StringIO("0x10 READ 1\n0x20 READ\n"),
                         source="t.trc"))

    def test_unknown_command_lists_the_vocabulary(self):
        with pytest.raises(TraceFormatError, match="unknown command 'EVICT'"):
            list(iter_k6(io.StringIO("0x10 EVICT 1\n")))

    def test_bad_address_and_cycle_rejected(self):
        with pytest.raises(TraceFormatError, match="bad address"):
            list(iter_k6(io.StringIO("zz&& READ 1\n")))
        with pytest.raises(TraceFormatError, match="bad cycle"):
            list(iter_k6(io.StringIO("0x10 READ soon\n")))


class TestCsvParsing:
    def test_header_row_is_skipped(self):
        text = "addr,cmd,cycle\n0x10,READ,1\n32,WRITE,4\n"
        records = list(iter_csv(io.StringIO(text)))
        assert records == [(0x10, False, 1), (32, True, 4)]

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(TraceFormatError, match="cells"):
            list(iter_csv(io.StringIO("0x10,READ\n")))

    def test_detect_format(self, tmp_path):
        k6 = tmp_path / "a.trc"
        k6.write_text("; comment\n0x10 READ 1\n")
        csv = tmp_path / "b.csv"
        csv.write_text("0x10,READ,1\n")
        assert detect_format(k6) == "k6"
        assert detect_format(csv) == "csv"
        empty = tmp_path / "c.trc"
        empty.write_text("# only comments\n")
        with pytest.raises(TraceFormatError, match="empty"):
            detect_format(empty)

    def test_read_records_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "a.trc"
        path.write_text("0x10 READ 1\n")
        with pytest.raises(ValueError, match="unknown trace format"):
            read_records(path, fmt="elf")

    def test_read_records_rejects_request_free_file(self, tmp_path):
        path = tmp_path / "a.trc"
        path.write_text("; nothing here\n")
        # Auto-detect calls the comment-only file out as empty...
        with pytest.raises(TraceFormatError, match="empty trace file"):
            read_records(path)
        # ...and an explicit format reaches the no-requests check.
        with pytest.raises(TraceFormatError, match="no requests"):
            read_records(path, fmt="k6")


class TestReinterleave:
    def test_dense_and_order_preserving(self):
        lines = np.array([900, 100, 500, 100, 901], dtype=np.int64)
        remapped = reinterleave(lines, ORG)
        # Dense: the distinct lines land on [0, footprint).
        assert sorted(set(remapped.tolist())) == [0, 1, 2, 3]
        # Monotone: relative order of distinct addresses survives.
        assert remapped[1] < remapped[2] < remapped[0] < remapped[4]
        # Repeats stay identical.
        assert remapped[1] == remapped[3]

    def test_adjacency_survives(self):
        base = 1 << 30
        lines = np.arange(base, base + 64, dtype=np.int64)
        remapped = reinterleave(lines, ORG)
        assert (np.diff(remapped) == 1).all()

    def test_footprint_folds_modulo_capacity(self):
        import dataclasses
        tiny = dataclasses.replace(ORG, rows_per_bank=4)
        capacity = (tiny.channels * tiny.ranks_per_channel
                    * tiny.banks_per_rank * tiny.rows_per_bank
                    * tiny.lines_per_row)
        lines = np.arange(0, capacity + 7, dtype=np.int64)
        remapped = reinterleave(lines, tiny)
        assert remapped.max() < capacity
        assert remapped[capacity] == 0  # folded back to the start


class TestConvertRecords:
    def test_fifo_writeback_attachment_and_gap_carry(self):
        addrs = np.array([0x00, 0x40, 0x80, 0xC0, 0x100], dtype=np.int64)
        is_write = np.array([False, True, True, False, False])
        cycles = np.array([0, 3, 5, 9, 10], dtype=np.int64)
        trace, unattached, non_monotonic = convert_records(
            "t", addrs, is_write, cycles, ORG, cores=1)
        core = trace.cores[0]
        # Reads at cycles 0, 9, 10; the two writes attach FIFO to the
        # reads after them, and their cycle deltas carry into read 2's gap.
        assert core.read_addrs.tolist() == [0, 3, 4]
        assert core.wb_addrs.tolist() == [-1, 1, 2]
        assert core.gaps.tolist() == [0, 9, 1]
        assert (unattached, non_monotonic) == (0, 0)

    def test_trailing_write_is_counted_unattached(self):
        addrs = np.array([0x00, 0x40], dtype=np.int64)
        is_write = np.array([False, True])
        cycles = np.array([0, 5], dtype=np.int64)
        _, unattached, _ = convert_records("t", addrs, is_write, cycles,
                                           ORG, cores=1)
        assert unattached == 1

    def test_non_monotonic_cycles_clamped_and_counted(self):
        addrs = np.array([0x00, 0x40, 0x80], dtype=np.int64)
        is_write = np.zeros(3, dtype=bool)
        cycles = np.array([10, 4, 20], dtype=np.int64)
        trace, _, non_monotonic = convert_records(
            "t", addrs, is_write, cycles, ORG, cores=1)
        assert non_monotonic == 1
        assert (trace.cores[0].gaps >= 0).all()

    def test_write_only_trace_rejected(self):
        addrs = np.array([0x00], dtype=np.int64)
        with pytest.raises(TraceFormatError, match="no read requests"):
            convert_records("t", addrs, np.array([True]),
                            np.array([0], dtype=np.int64), ORG, cores=1)

    def test_bad_core_count_rejected(self):
        addrs = np.array([0x00], dtype=np.int64)
        with pytest.raises(ValueError, match="core count"):
            convert_records("t", addrs, np.array([False]),
                            np.array([0], dtype=np.int64), ORG, cores=0)


class TestBundledSample:
    def test_import_summary_matches_the_file(self):
        trace, summary = import_trace(SAMPLE, "sample", ORG, cores=4)
        assert isinstance(summary, ImportSummary)
        assert summary.format == "k6"
        assert summary.requests == summary.reads + summary.writes
        assert summary.reads == 300 and summary.writes == 25
        assert summary.non_monotonic_cycles == 0
        assert summary.cores == 4 and len(trace.cores) == 4
        assert summary.rpki == pytest.approx(trace.rpki)
        assert summary.rpki > 1.0
        assert summary.first_cycle < summary.last_cycle

    def test_fit_finds_phase_structure(self):
        trace, _ = import_trace(SAMPLE, "sample", ORG, cores=4)
        fit = fit_trace(trace, ORG)
        assert len(fit.windows) == 8
        assert 1 <= len(fit.phases) <= 8
        assert fit.rpki == pytest.approx(trace.rpki, rel=1e-6)
        assert 0.0 < fit.row_hit_ratio < 1.0
        assert 0.0 < fit.stream_fraction < 1.0
        assert fit.working_set_lines >= 1024


class TestFitter:
    def test_row_hit_flags_counts_same_row_runs(self):
        # Same channel/rank/bank, same row: every access after the
        # first hits the row the previous one opened.
        stride = ORG.channels * ORG.banks_per_rank * ORG.ranks_per_channel
        lines = np.arange(4, dtype=np.int64) * stride
        flags = row_hit_flags(lines, ORG)
        assert not flags[0] and flags[1:].all()
        assert row_hit_flags(np.zeros(0, dtype=np.int64), ORG).size == 0

    def test_two_phase_trace_yields_two_phases(self):
        # Dense half then sparse half: intensities differ 4x, far beyond
        # the merge tolerance, so the fitter must keep them apart.
        gaps = np.array([10] * 200 + [40] * 200, dtype=np.int64)
        n = len(gaps)
        from repro.cpu.trace import CoreTrace, WorkloadTrace
        trace = WorkloadTrace("2ph", [CoreTrace(
            app_name="2ph", app_id=0, gaps=gaps,
            read_addrs=np.arange(n, dtype=np.int64),
            wb_addrs=np.full(n, -1, dtype=np.int64))])
        fit = fit_trace(trace, ORG, windows=10)
        assert len(fit.phases) >= 2
        assert fit.instructions == int(gaps.sum())
        fractions = [p.fraction for p in fit.phases.phases]
        assert sum(fractions) == pytest.approx(1.0)

    def test_seed_mix_from_fit_round_trips_through_the_generator(self):
        trace, _ = import_trace(SAMPLE, "sample", ORG, cores=4)
        fit = fit_trace(trace, ORG)
        spec = seed_mix_from_fit(fit, "fitted-sample-test")
        assert lookup_mix("fitted-sample-test") == spec
        synth = TraceGenerator(seed=3).generate_mix(
            "fitted-sample-test", cores=4, instructions_per_core=20_000)
        assert synth.rpki == pytest.approx(fit.rpki, rel=0.35)


class TestLadder:
    def test_rungs_descend_strictly_in_rpki(self):
        targets = [s.target_rpki for s in scn.SCENARIO_LADDER]
        assert targets == sorted(targets, reverse=True)
        assert len(set(targets)) == len(targets)
        assert scn.scenario_names() == [f"mix{i}" for i in range(1, 8)]

    def test_rungs_resolve_like_table1_mixes(self):
        for name in scn.scenario_names():
            spec = lookup_mix(name)
            assert spec.category == scn.SCENARIO_CATEGORY
        assert set(scn.scenario_names()) <= set(known_mix_names())

    def test_generated_rung_tracks_its_calibration_target(self):
        spec = scn.SCENARIO_MIXES["mix2"]
        trace = TraceGenerator(seed=3).generate_mix(
            "mix2", cores=4, instructions_per_core=40_000)
        assert trace.rpki == pytest.approx(spec.target_rpki, rel=0.3)

    def test_shadowing_guards(self):
        with pytest.raises(ValueError, match="shadow built-in mix"):
            register_mix(MixSpec("MID1", "SCN", ("ammp",), 1.0, 0.1))
        with pytest.raises(ValueError, match="different spec"):
            register_mix(MixSpec("mix1", "SCN", ("ammp",), 1.0, 0.1))
        # Identical re-registration is a no-op (module re-import safety).
        register_mix(scn.SCENARIO_MIXES["mix1"].mix_spec())
        from repro.cpu.workloads import APP_PROFILES
        with pytest.raises(ValueError, match="shadow built-in app"):
            register_app_profile(APP_PROFILES["ammp"])

    def test_listing_mentions_every_rung(self):
        listing = scn.scenario_listing()
        for name in scn.scenario_names():
            assert name in listing


class TestDeviceTables:
    def test_every_preset_validates(self):
        for name in scn.device_names():
            scn.lookup_device(name).validate()
        assert scn.DEFAULT_DEVICE in scn.DEVICE_TABLES

    def test_unknown_device_lists_the_registry(self):
        with pytest.raises(KeyError, match="ddr3-1333"):
            scn.lookup_device("hbm9")

    def test_apply_device_swaps_only_timings_and_currents(self):
        config = scaled_config()
        stt = scn.apply_device(config, "stt-mram")
        assert stt.currents.vdd == pytest.approx(1.2)
        assert stt.timings.refresh_period_ns > 1e15
        assert stt.org == config.org and stt.policy == config.policy
        # The baseline table round-trips to the stock config sections.
        same = scn.apply_device(config, "ddr3-1333")
        assert same.timings == config.timings
        assert same.currents == config.currents

    def test_device_configs_never_share_a_cache_fingerprint(self):
        cache = ExperimentCache("unused")
        config = scaled_config()
        keys = {cache.baseline_key(scn.apply_device(config, name),
                                   "mix2", 4, 4_000, 7)
                for name in scn.device_names()}
        assert len(keys) == len(scn.device_names())

    def test_listing_mentions_every_device(self):
        listing = scn.device_listing()
        for name in scn.device_names():
            assert name in listing


class TestImportedTraceStore:
    def test_store_load_round_trip_with_digest(self, tmp_path):
        trace, summary = import_trace(SAMPLE, "s1", ORG, cores=4)
        cache = ExperimentCache(tmp_path)
        import dataclasses
        cache.store_imported_trace("s1", trace,
                                   dataclasses.asdict(summary))
        loaded = cache.load_imported_trace("s1")
        assert loaded.name == trace.name
        np.testing.assert_array_equal(loaded.cores[0].read_addrs,
                                      trace.cores[0].read_addrs)
        assert cache.imported_names() == ["s1"]
        digest = cache.imported_trace_digest("s1")
        assert digest and digest == cache.imported_trace_digest("s1")
        meta = cache.imported_trace_meta("s1")
        assert meta["digest"] == digest
        assert meta["summary"]["reads"] == summary.reads
        assert cache.stats()["imported_entries"] == 1

    def test_missing_trace_loads_as_none(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        assert cache.load_imported_trace("absent") is None
        assert cache.imported_trace_digest("absent") is None
        assert cache.imported_names() == []

    def test_trace_names_are_validated(self):
        assert check_trace_name("ok-name_1.2") == "ok-name_1.2"
        for bad in ("", "a/b", "a b", "a\0"):
            with pytest.raises(ValueError, match="invalid trace name"):
                check_trace_name(bad)


class TestRunnerTraceResolution:
    def _import(self, tmp_path):
        trace, _ = import_trace(SAMPLE, "s1", ORG, cores=4)
        cache = ExperimentCache(tmp_path)
        cache.store_imported_trace("s1", trace)
        return cache

    def test_requires_a_cache(self):
        runner = ExperimentRunner(settings=SETTINGS, cache=None)
        with pytest.raises(ValueError, match="experiment cache"):
            runner.trace(IMPORTED_TRACE_PREFIX + "s1")

    def test_unknown_name_lists_the_store(self, tmp_path):
        cache = self._import(tmp_path)
        runner = ExperimentRunner(settings=SETTINGS, cache=cache)
        with pytest.raises(ValueError, match="s1"):
            runner.trace(IMPORTED_TRACE_PREFIX + "nope")

    def test_imported_trace_replays_through_run_sweep(self, tmp_path):
        self._import(tmp_path)
        outcomes = run_sweep([IMPORTED_TRACE_PREFIX + "s1"], ["MemScale"],
                             settings=SETTINGS, jobs=1,
                             cache_dir=tmp_path)
        (outcome,) = outcomes
        assert outcome.result.target_instructions > 0
        assert outcome.comparison.memory_energy_savings is not None


class TestScenarioSweep:
    def test_device_axis_orders_and_accounts(self, tmp_path):
        outcomes = run_specs(
            scenario_specs(["mix2"], ("MemScale",),
                           ("ddr3-1333", "stt-mram")),
            settings=SETTINGS, jobs=1, cache_dir=tmp_path)
        assert [(o.policy, o.spec.device) for o in outcomes] \
            == [("MemScale", "ddr3-1333"), ("MemScale", "stt-mram")]
        ddr3, stt = outcomes
        assert stt.point == "MemScale@stt-mram"
        for o in outcomes:
            assert 0.0 <= o.extras["background_share"] <= 1.0
            assert o.wall_s >= 0.0
        # Near-zero standby currents: the STT-MRAM-like table's
        # background share of DIMM energy sits below DDR3's.
        assert stt.extras["background_share"] \
            < ddr3.extras["background_share"]


class TestScenarioCli:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "mix1" in out and "mix7" in out
        assert "ddr3-1333" in out and "stt-mram" in out

    def test_trace_info_and_import(self, capsys, tmp_path):
        assert main(["trace", "info", str(SAMPLE), "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "requests" in out and "phase fit" in out

        assert main(["trace", "import", str(SAMPLE), "--name", "s1",
                     "--cores", "4", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "imported as 'trace:s1'" in out
        assert ExperimentCache(tmp_path).imported_names() == ["s1"]

    def test_trace_import_rejects_bad_name(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid trace name"):
            main(["trace", "import", str(SAMPLE), "--name", "a/b",
                  "--cache-dir", str(tmp_path)])

    def test_trace_info_surfaces_format_errors(self, tmp_path):
        bad = tmp_path / "bad.trc"
        bad.write_text("0x10 EVICT 1\n")
        with pytest.raises(SystemExit, match="unknown command"):
            main(["trace", "info", str(bad)])

    def test_run_unknown_imported_trace_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no imported trace named"):
            main(["run", "trace:nope", "--cache-dir", str(tmp_path)])

    def test_run_imported_trace_core_mismatch_is_a_clean_error(
            self, tmp_path):
        main(["trace", "import", str(SAMPLE), "--name", "app",
              "--cores", "8", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="pass --cores 8"):
            main(["run", "trace:app", "--cores", "4",
                  "--cache-dir", str(tmp_path)])

    def test_run_rejects_unknown_device(self):
        with pytest.raises(SystemExit, match="unknown device table"):
            main(["run", "mix2", "--device", "hbm9",
                  "--instructions", "4000"])

    def test_run_on_a_rung_with_a_device(self, capsys, tmp_path):
        assert main(["run", "mix2", "--device", "stt-mram",
                     "--cores", "4", "--instructions", "4000",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "MemScale@stt-mram" in out

    def test_sweep_scenarios_and_devices(self, capsys, tmp_path):
        assert main(["sweep", "--scenarios", "mix5", "--policies",
                     "MemScale", "--devices", "ddr3-1333", "ddr3l",
                     "--cores", "4", "--instructions", "4000",
                     "--jobs", "1", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep: 1 mixes x 1 policies x 2 devices" in out
        assert "standby" in out and "ddr3l" in out

    def test_device_sweep_save_is_deterministic(self, capsys, tmp_path):
        args = ["sweep", "--scenarios", "mix5", "--policies", "MemScale",
                "--devices", "ddr3-1333", "stt-mram",
                "--cores", "4", "--instructions", "4000",
                "--cache-dir", str(tmp_path / "cache")]
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(args + ["--jobs", "1", "--save", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--save", str(parallel)]) == 0
        out = capsys.readouterr().out
        assert f"results saved to {serial}" in out
        assert serial.read_bytes() == parallel.read_bytes()
