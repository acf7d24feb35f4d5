"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

SCALE = ["--instructions", "25000"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("table1", "run", "figure", "timeline", "stats",
                    "best-static", "sweep", "bench", "cap", "multidomain",
                    "governors", "cache", "service", "query"):
            args = parser.parse_args(
                [cmd] + (["MID1"] if cmd in ("run", "timeline", "stats",
                                             "best-static") else
                         ["5"] if cmd == "figure" else
                         ["status", "--dir", "d"] if cmd == "service" else
                         ["--dir", "d"] if cmd == "query" else []))
            assert args.command == cmd


class TestCommands:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1", *SCALE)
        assert code == 0
        assert "Table 1" in out
        assert "MEM1" in out

    def test_run_memscale(self, capsys):
        code, out = run_cli(capsys, "run", "ILP2", *SCALE)
        assert code == 0
        assert "memory energy savings" in out
        assert "worst CPI increase" in out

    def test_run_unknown_mix(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "NOPE", *SCALE])

    def test_run_unknown_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "MID1", "--policy", "Bogus", *SCALE])

    def test_run_with_custom_bound(self, capsys):
        code, out = run_cli(capsys, "run", "ILP2", "--bound", "0.05", *SCALE)
        assert code == 0

    def test_stats(self, capsys):
        code, out = run_cli(capsys, "stats", "MID3", *SCALE)
        assert code == 0
        assert "apsi" in out
        assert "bank entropy" in out

    def test_timeline(self, capsys):
        code, out = run_cli(capsys, "timeline", "ILP2", *SCALE)
        assert code == 0
        assert "bus MHz" in out

    def test_figure_5(self, capsys):
        code, out = run_cli(capsys, "figure", "5", *SCALE)
        assert code == 0
        assert "fig5_6_energy_savings" in out
        assert "MEM1" in out

    def test_figure_unsupported(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "7", *SCALE])

    def test_best_static(self, capsys):
        code, out = run_cli(capsys, "best-static", "ILP2", *SCALE)
        assert code == 0
        assert "best static frequency" in out
        assert "MemScale" in out


class TestSweepCommand:
    SMALL = ["--instructions", "8000", "--cores", "4"]

    def test_sweep_serial(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "sweep", "--mixes", "MID1", "--policies", "MemScale",
            "Static", "--jobs", "1", "--cache-dir", str(tmp_path / "c"),
            *self.SMALL)
        assert code == 0
        assert "sweep: 1 mixes x 2 policies" in out
        assert "MemScale" in out and "Static" in out

    def test_sweep_parallel_with_telemetry_and_save(self, capsys, tmp_path):
        save = tmp_path / "results.json"
        code, out = run_cli(
            capsys, "sweep", "--mixes", "MID1", "ILP1",
            "--policies", "MemScale", "--jobs", "2",
            "--cache-dir", str(tmp_path / "c"),
            "--telemetry", str(tmp_path / "t"),
            "--save", str(save), *self.SMALL)
        assert code == 0
        assert (tmp_path / "t" / "MID1__MemScale.jsonl").exists()
        from repro.sim.serialize import load_results
        loaded = load_results(save)
        assert len(loaded) == 4  # 2 results + 2 comparisons

    def test_sweep_rejects_unknown_mix(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--mixes", "NOPE", "--jobs", "1",
                  "--cache-dir", str(tmp_path / "c"), *self.SMALL])

    def test_sweep_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--mixes", "MID1", "--policies", "Bogus",
                  "--jobs", "1", "--cache-dir", str(tmp_path / "c"),
                  *self.SMALL])

    def test_sweep_no_cache(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "sweep", "--mixes", "MID1", "--policies", "Static",
            "--jobs", "1", "--no-cache", *self.SMALL)
        assert code == 0
        assert "cache=disabled" in out


class TestBenchCommand:
    def test_smoke_passes(self, capsys, tmp_path):
        """The `make bench-smoke` target: 2 workers, tiny mix, parallel
        path end to end (wired into tier-1 via this test)."""
        code, out = run_cli(capsys, "bench", "--smoke", "--jobs", "2",
                            "--cache-dir", str(tmp_path / "c"))
        assert code == 0
        assert "SMOKE OK" in out
        assert "cap: capped leg passed" in out

    def test_requires_smoke_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--cache-dir", str(tmp_path / "c")])


class TestCapCommand:
    def test_cap_smoke_passes(self, capsys, tmp_path):
        """The acceptance smoke: a 2-point budget sweep whose enforcement
        and fairness checks must hold (wired into tier-1 here)."""
        code, out = run_cli(capsys, "cap", "--smoke", "--jobs", "1",
                            "--cache-dir", str(tmp_path / "c"))
        assert code == 0
        assert "CAP SMOKE OK" in out
        assert "power-cap sweep" in out

    def test_cap_custom_budgets(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "cap", "--mixes", "MID1", "--budgets", "0.9",
            "--jobs", "1", "--cache-dir", str(tmp_path / "c"),
            "--instructions", "8000", "--cores", "4")
        assert code == 0
        assert "90%" in out        # the budget column
        assert "min perf" in out   # the fairness column

    def test_cap_rejects_unknown_mix(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cap", "--mixes", "NOPE", "--jobs", "1",
                  "--cache-dir", str(tmp_path / "c"),
                  "--instructions", "8000", "--cores", "4"])


class TestGovernorsCommand:
    def test_lists_every_registered_governor(self, capsys):
        from repro.sim.runner import GOVERNOR_INFO, POLICY_NAMES

        code, out = run_cli(capsys, "governors")
        assert code == 0
        for name, _, _, _, _ in GOVERNOR_INFO:
            assert name in out
        for name in POLICY_NAMES:
            assert name in out
        assert "MemScale/channel" in out
        assert "MultiDomain" in out

    def test_lists_config_knobs_and_doc_pointers(self, capsys):
        from repro.sim.runner import GOVERNOR_INFO

        code, out = run_cli(capsys, "governors")
        assert code == 0
        assert "config knobs" in out     # the knobs column
        for _, _, _, knobs, doc in GOVERNOR_INFO:
            assert knobs in out
            assert doc in out
        assert "docs/governors.md" in out

    def test_unknown_policy_error_names_alternatives(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "MID1", "--policy", "Bogus",
                  "--instructions", "8000"])
        message = str(exc.value)
        assert "Bogus" in message
        assert "MemScale" in message  # the listing, not a bare KeyError
        assert "docs/governors.md" in message  # the developer-guide pointer


class TestMultiDomainCommand:
    def test_multidomain_smoke_passes(self, capsys, tmp_path):
        """The acceptance smoke: under a budget infeasible for either
        domain alone, the coordinated governor finds a feasible split,
        never exceeds the budget, and beats memory-only capping on
        system energy (wired into tier-1 here)."""
        code, out = run_cli(capsys, "multidomain", "--smoke", "--jobs", "1",
                            "--cache-dir", str(tmp_path / "c"))
        assert code == 0
        assert "MULTIDOMAIN SMOKE OK" in out
        assert "multi-domain budget sweep" in out
        assert "MultiDomain-" in out and "Cap-" in out

    def test_multidomain_custom_budgets(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "multidomain", "--mixes", "MID1", "--budgets", "0.8",
            "--jobs", "1", "--cache-dir", str(tmp_path / "c"),
            "--instructions", "8000", "--cores", "4")
        assert code == 0
        assert "80%" in out        # the budget column
        assert "core W" in out     # the per-domain split column

    def test_multidomain_rejects_unknown_mix(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["multidomain", "--mixes", "NOPE", "--jobs", "1",
                  "--cache-dir", str(tmp_path / "c"),
                  "--instructions", "8000", "--cores", "4"])


class TestPlacementCommand:
    def test_placement_smoke_passes(self, capsys, tmp_path):
        """The `make placement-smoke` acceptance leg, validator armed:
        the placed leg beats plain MemScale on memory energy with ranks
        parked and the copy ledger conserved (wired into tier-1 here)."""
        code, out = run_cli(capsys, "placement", "--smoke", "--jobs", "1",
                            "--cache-dir", str(tmp_path / "c"))
        assert code == 0
        assert "PLACEMENT SMOKE OK" in out
        assert "protocol validator: armed on every simulated run" in out


class TestScenariosCommand:
    def test_scenarios_smoke_passes(self, capsys, tmp_path):
        """The `make scenarios-smoke` acceptance leg: the bundled k6
        trace replays byte-identically, every ladder rung runs, and
        MemScale beats Static on each device table (wired into tier-1
        here)."""
        trace = Path(__file__).parent / "data" / "sample_k6.trc"
        code, out = run_cli(capsys, "scenarios", "--smoke", "--jobs", "2",
                            "--trace", str(trace),
                            "--dir", str(tmp_path / "smoke"))
        assert code == 0
        assert "SCENARIOS SMOKE OK" in out
        assert (tmp_path / "smoke" / "summary.json").exists()


class TestValidateFlag:
    """--validate arms the DDR3 protocol validator (PR-2 tentpole)."""

    SMALL = ["--instructions", "8000", "--cores", "4"]

    def test_run_with_validator(self, capsys):
        code, out = run_cli(capsys, "run", "MID1", "--validate",
                            *self.SMALL)
        assert code == 0
        assert "protocol validator: armed, zero violations" in out

    def test_sweep_with_validator(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "sweep", "--mixes", "MID1", "--policies", "MemScale",
            "--jobs", "1", "--cache-dir", str(tmp_path / "c"),
            "--validate", *self.SMALL)
        assert code == 0
        assert "protocol validator: armed on every simulated run" in out

    def test_bench_smoke_with_validator(self, capsys, tmp_path):
        """The `make validate` target: armed smoke end to end."""
        code, out = run_cli(capsys, "bench", "--smoke", "--jobs", "2",
                            "--cache-dir", str(tmp_path / "c"),
                            "--validate")
        assert code == 0
        assert "SMOKE OK" in out
        assert "validator: armed leg passed" in out


class TestFastForwardFlag:
    """--no-fast-forward disables idle-period batching everywhere; the
    output must be indistinguishable (results are byte-identical)."""

    SMALL = ["--instructions", "8000", "--cores", "4"]

    def test_flag_parses_on_every_simulating_command(self):
        parser = build_parser()
        for argv in (["run", "MID1", "--no-fast-forward"],
                     ["sweep", "--no-fast-forward"],
                     ["cap", "--smoke", "--no-fast-forward"],
                     ["bench", "--smoke", "--no-fast-forward"]):
            args = parser.parse_args(argv)
            assert args.no_fast_forward is True

    def test_run_output_identical_either_way(self, capsys):
        code_on, out_on = run_cli(capsys, "run", "ILP2", *self.SMALL)
        code_off, out_off = run_cli(capsys, "run", "ILP2",
                                    "--no-fast-forward", *self.SMALL)
        assert code_on == code_off == 0
        assert out_on == out_off


class TestCacheCommand:
    def populate(self, cache_dir):
        from repro.sim.cache import ExperimentCache
        from repro.sim.runner import ExperimentRunner, RunnerSettings
        runner = ExperimentRunner(
            settings=RunnerSettings(cores=4, instructions_per_core=8_000,
                                    seed=7),
            cache=ExperimentCache(cache_dir))
        runner.trace("MID1")

    def test_stats_on_empty_cache(self, capsys, tmp_path):
        code, out = run_cli(capsys, "cache",
                            "--cache-dir", str(tmp_path / "c"))
        assert code == 0
        assert "trace entries    : 0" in out
        assert "run entries      : 0" in out
        assert "pruned" not in out

    def test_stats_after_population(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        self.populate(cache_dir)
        code, out = run_cli(capsys, "cache", "--cache-dir", str(cache_dir))
        assert code == 0
        assert "trace entries    : 1" in out
        assert str(cache_dir) in out

    def test_prune_empties_the_cache(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        self.populate(cache_dir)
        code, out = run_cli(capsys, "cache", "--cache-dir", str(cache_dir),
                            "--prune")
        assert code == 0
        assert "pruned 2 files" in out  # columnar trace + sidecar
        code, out = run_cli(capsys, "cache", "--cache-dir", str(cache_dir))
        assert "trace entries    : 0" in out


class TestServiceCommand:
    SMALL = ["--instructions", "8000", "--cores", "4", "--seed", "7"]

    def test_smoke_leg(self, capsys, tmp_path):
        """The `make service-smoke` target: poisoned job isolated,
        resume heals it, store digest-identical to a serial sweep."""
        code, out = run_cli(capsys, "service", "smoke",
                            "--dir", str(tmp_path / "svc"), "--jobs", "1")
        assert code == 0
        assert "SERVICE SMOKE OK" in out
        assert "poisoned job isolated (MID1/MemScale)" in out

    def test_run_status_query_resume_round_trip(self, capsys, tmp_path):
        directory = str(tmp_path / "svc")
        code, out = run_cli(
            capsys, "service", "run", "--dir", directory,
            "--mixes", "MID1", "--policies", "Static", "MemScale",
            "--jobs", "1", "--retries", "0",
            "--fail-label", "MID1/MemScale", *self.SMALL)
        assert code == 0
        assert "FAILED" in out and "InjectedFailure" in out
        assert "1 ok, 1 failed" in out

        code, out = run_cli(capsys, "service", "status",
                            "--dir", directory)
        assert code == 0
        assert "enqueued             : 2" in out
        assert "failed               : 1" in out
        assert "pending: MID1/MemScale (failed)" in out

        code, out = run_cli(capsys, "query", "--dir", directory,
                            "--status", "failed")
        assert code == 0
        assert "InjectedFailure" in out
        assert "1 of 2 records matched" in out

        code, out = run_cli(capsys, "service", "resume",
                            "--dir", directory)
        assert code == 0
        assert "2 ok, 0 failed" in out

        code, out = run_cli(capsys, "query", "--dir", directory,
                            "--status", "ok", "--jsonl")
        assert code == 0
        import json
        records = [json.loads(line) for line in out.splitlines() if line]
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)

    def test_rerun_is_idempotent(self, capsys, tmp_path):
        directory = str(tmp_path / "svc")
        argv = ["service", "run", "--dir", directory, "--mixes", "MID1",
                "--policies", "Static", "--jobs", "1", *self.SMALL]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "1 ok, 0 failed, 0 never-ran of 1 enqueued" in out

    def test_run_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["service", "run", "--dir", str(tmp_path / "svc"),
                  "--policies", "Bogus", "--jobs", "1", *self.SMALL])

    def test_cap_kind_needs_budgets(self, tmp_path):
        with pytest.raises(SystemExit, match="--budgets"):
            main(["service", "run", "--dir", str(tmp_path / "svc"),
                  "--kind", "cap", "--jobs", "1", *self.SMALL])

    def test_status_on_non_service_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="no service ledger meta"):
            main(["service", "status", "--dir", str(tmp_path / "empty")])


class TestCacheOrphanDisplay:
    def test_orphan_files_are_reported(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        TestCacheCommand().populate(cache_dir)
        next(cache_dir.glob("traces/*.npy")).unlink()
        code, out = run_cli(capsys, "cache", "--cache-dir", str(cache_dir))
        assert code == 0
        assert "orphan files     : 1" in out
        assert "trace entries    : 0" in out
        code, out = run_cli(capsys, "cache", "--cache-dir", str(cache_dir),
                            "--prune")
        assert code == 0
        code, out = run_cli(capsys, "cache", "--cache-dir", str(cache_dir))
        assert "orphan files" not in out
