"""Command-line interface.

Every experiment is reachable from the shell::

    python -m repro table1
    python -m repro run MID3 --policy MemScale --instructions 200000
    python -m repro sweep --mixes MID1 MID2 --policies MemScale Static --jobs 4
    python -m repro sweep --scenarios mix1 mix4 --devices ddr3-1333 stt-mram
    python -m repro cap --mixes MID1 --budgets 0.9 0.8 0.7
    python -m repro placement --mixes MID1 --jobs 4
    python -m repro governors
    python -m repro scenarios
    python -m repro trace import k6.trc --name myapp --cores 4
    python -m repro run trace:myapp --cores 4
    python -m repro bench --smoke
    python -m repro cache --prune
    python -m repro service run --dir sweeps --mixes MID1 --policies MemScale
    python -m repro service resume --dir sweeps
    python -m repro query --dir sweeps --status failed
    python -m repro figure 5
    python -m repro timeline MID3
    python -m repro stats MEM1
    python -m repro best-static MID1

All output is plain text (the same tables the benchmark harness prints).
``sweep`` fans (mix x policy) combinations across worker processes with
an on-disk artifact cache (``--jobs``, ``--cache-dir``, ``--no-cache``)
and optional per-epoch telemetry JSONL streams (``--telemetry DIR``);
``bench --smoke`` is the CI smoke target running one tiny mix through
the parallel path. ``scenarios`` lists the MPKI-laddered mix library
and the device technology tables; ``trace import`` converts external
DRAMSim2-style traces into replayable ``trace:<name>`` mixes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, List, Optional, Sequence

from repro.analysis import (cap_summary_table, device_energy_table,
                            format_table, multidomain_summary_table)
from repro.config import SystemConfig, scaled_config
from repro.cpu.stats import workload_stats
from repro.cpu.workloads import MIXES, mix_names
from repro.sim import experiments
from repro.sim.cache import DEFAULT_CACHE_DIR, ExperimentCache
from repro.sim.parallel import (KINDS, JobFailure, JobSpec, Outcome,
                                cap_specs, check_mixes, check_specs,
                                multidomain_specs, placement_specs,
                                policy_specs, run_specs, run_sweep,
                                scenario_specs, split_outcomes, sweep_table)
from repro.sim.runner import (GOVERNOR_INFO, IMPORTED_TRACE_PREFIX,
                              POLICY_NAMES, ExperimentRunner,
                              RunnerSettings, governor_listing)
from repro.sim.telemetry import JsonlTelemetry

#: Scale of the tiny acceptance sweeps (`bench`, `cap`, `multidomain`
#: and `service` smokes).
SMOKE_SETTINGS = RunnerSettings(cores=4, instructions_per_core=8_000,
                                seed=2011)

#: Budget points of the cap smoke leg (`repro cap --smoke` and the
#: capped leg of `repro bench --smoke`): a loose and a tight cap.
SMOKE_BUDGET_FRACTIONS = (0.9, 0.75)

#: Global-budget points of `repro multidomain --smoke`: a loose budget
#: both domains could meet alone, and a tight one neither can — the
#: point that demonstrates a coordinated split.
SMOKE_MULTIDOMAIN_FRACTIONS = (0.8, 0.55)

#: Default directory of `repro service smoke` (the CI artifact).
SERVICE_SMOKE_DIR = ".repro_service_smoke"

#: Default directory of `repro scenarios --smoke` (the CI artifact).
SCENARIOS_SMOKE_DIR = ".repro_scenarios_smoke"

#: Bundled DRAMSim2-style k6 trace the scenarios smoke imports.
SCENARIOS_SMOKE_TRACE = "tests/data/sample_k6.trc"

#: Ladder rungs x devices of the scenarios smoke's device leg: one
#: high-MPKI rung (large savings headroom) and one low-MPKI rung.
SCENARIOS_SMOKE_RUNGS = ("mix2", "mix5")

#: CPI-degradation bound of the device leg. Tighter than the default
#: 10%: the lowest static frequency happens to respect a loose bound on
#: the low-power device tables at smoke scale, which would make the
#: "MemScale beats Static" acceptance vacuous. At 5% the pinned-lowest
#: Static violates the bound on the high-MPKI rungs of every device
#: while MemScale adapts to stay inside it — the paper's actual claim.
SCENARIOS_SMOKE_CPI_BOUND = 0.05

#: Compliance slack on that bound (controller overshoot jitter).
SCENARIOS_SMOKE_CPI_SLACK = 0.01

#: Epoch/profile lengths of `repro placement --smoke` (ns). The
#: placement policy acts only at epoch boundaries, so the smoke
#: shortens epochs until a tiny run spans enough of them for
#: classification, migration, and self-refresh parking to all fire.
SMOKE_PLACEMENT_EPOCH_NS = 4_000.0
SMOKE_PLACEMENT_PROFILE_NS = 400.0

#: CPI-increase slack the placement smoke tolerates beyond the
#: configured MemScale bound: self-refresh wake-ups and migration copy
#: traffic add latency the frequency policy does not model.
SMOKE_PLACEMENT_CPI_SLACK = 0.05

#: The line the sweep commands print when the validator was armed.
VALIDATOR_ARMED = ("protocol validator: armed on every simulated run, "
                   "zero violations")


def _report_failures(failed, what: str) -> None:
    """Print failed-job records and exit non-zero; a sweep with one bad
    job still printed its N-1 good rows before landing here."""
    if not failed:
        return
    lines = [f.summary() for f in failed]
    raise SystemExit(f"{what}: {len(failed)} job(s) FAILED "
                     f"(good outcomes above are complete):\n  "
                     + "\n  ".join(lines))


def _cache_dir(args) -> Optional[str]:
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _device_config(config, device: Optional[str]):
    """Swap a named device technology table into ``config`` (no-op when
    ``device`` is falsy); unknown names exit with the registry listing."""
    if not device:
        return config
    from repro.scenarios.devices import apply_device
    try:
        return apply_device(config, device)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _config_from_args(args,
                      config: Optional[SystemConfig] = None) -> SystemConfig:
    """``config`` (default: the scaled Table 2 config) with whatever
    config flags the command accepts applied."""
    config = config if config is not None else scaled_config()
    if getattr(args, "bound", None) is not None:
        config = config.with_policy(cpi_bound=args.bound)
    if getattr(args, "validate", False):
        config = config.replace(validate_protocol=True)
    if getattr(args, "no_fast_forward", False):
        config = config.replace(fast_forward=False)
    return _device_config(config, getattr(args, "device", None))


def _settings_from_args(args) -> RunnerSettings:
    return RunnerSettings(cores=args.cores,
                          instructions_per_core=args.instructions,
                          seed=args.seed)


def _make_runner(args) -> ExperimentRunner:
    cache_dir = _cache_dir(args)
    return ExperimentRunner(
        config=_config_from_args(args), settings=_settings_from_args(args),
        cache=ExperimentCache(cache_dir) if cache_dir is not None else None)


def _specs(build: Callable[[], List[JobSpec]]) -> List[JobSpec]:
    """A sweep's specs; a bad mix, policy, device or budget exits with
    the builder's message."""
    try:
        specs = build()
        check_specs(specs)
    except (ValueError, KeyError) as exc:
        raise SystemExit(exc.args[0])
    return specs


def _sweep(args, what: str, specs: Sequence[JobSpec], config: SystemConfig,
           settings: RunnerSettings,
           table: Callable[[List[object]], str], notes: str = "",
           check: Callable[[List[Outcome]], List[str]] = lambda good: [],
           smoke_detail: str = "", done_note: str = "checks passed"
           ) -> None:
    """The path every sweep command shares: run ``specs`` under the
    command's --jobs/--cache-dir/--telemetry/--retries flags, print
    ``table(outcomes)`` and ``notes``, exit non-zero on a failed
    acceptance ``check`` or failed jobs, and print the summary line
    (``<WHAT> SMOKE OK`` under --smoke)."""
    if args.jobs is not None and args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    start = time.perf_counter()
    outcomes = run_specs(specs, config=config, settings=settings,
                         jobs=args.jobs, cache_dir=_cache_dir(args),
                         telemetry_dir=args.telemetry,
                         retries=args.retries)
    wall = time.perf_counter() - start
    good, failed = split_outcomes(outcomes)
    if good:
        print(table(outcomes))
    if notes:
        print(f"\n{notes}")
    if config.validate_protocol:
        print(VALIDATOR_ARMED)
    if args.telemetry:
        print(f"per-epoch telemetry JSONL files in {args.telemetry}/")
    if getattr(args, "save", None):
        from repro.sim.serialize import save_results
        save_results(args.save, [o.result for o in good]
                     + [o.comparison for o in good])
        print(f"results saved to {args.save}")
    failures = check(good)
    if failures:
        raise SystemExit(f"{what.upper()} CHECKS FAILED:\n  "
                         + "\n  ".join(failures))
    _report_failures(failed, f"{what} sweep")
    if getattr(args, "smoke", False):
        print(f"\n{what.upper()} SMOKE OK: {len(good)} runs "
              f"({smoke_detail}), {wall:.2f}s wall")
    else:
        print(f"\n{len(good)} runs in {wall:.2f}s wall ({done_note})")


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instructions", type=int, default=120_000,
                        help="instructions per core (default 120000)")
    parser.add_argument("--cores", type=int, default=16,
                        help="core count, multiple of 4 (default 16)")
    parser.add_argument("--seed", type=int, default=2011,
                        help="trace generator seed")


def _add_ff_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-fast-forward", action="store_true",
                        help="disable idle-period fast-forward (results are "
                             "byte-identical either way; this is the "
                             "debugging escape hatch)")


def _add_cache_args(parser: argparse.ArgumentParser,
                    default: Optional[str] = DEFAULT_CACHE_DIR) -> None:
    note = default if default is not None else "disabled"
    parser.add_argument("--cache-dir", default=default,
                        help=f"on-disk trace/baseline cache root "
                             f"(default: {note})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk cache")


def _add_retries_arg(parser: argparse.ArgumentParser,
                     default: int = 0) -> None:
    parser.add_argument("--retries", type=int, default=default,
                        help="extra attempts per job before recording "
                             f"its failure (default {default})")


def _check_mix(mix: str) -> str:
    try:
        check_mixes([mix])
    except ValueError as exc:
        raise SystemExit(str(exc))
    return mix


def _add_device_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--device", default=None, metavar="NAME",
                        help="device technology table to swap in "
                             "(see `repro scenarios`; default: the "
                             "config's DDR3-1333 timings/currents)")


def cmd_table1(args) -> None:
    runner = _make_runner(args)
    rows = []
    for name, mix in MIXES.items():
        trace = runner.trace(name)
        rows.append([name, f"{trace.rpki:.2f}", f"{trace.wpki:.2f}",
                     " ".join(mix.apps)])
    print(format_table(["Name", "RPKI", "WPKI", "Applications (x4 each)"],
                       rows, title="Table 1: workload descriptions"))


def cmd_run(args) -> None:
    mix = _check_mix(args.mix)
    runner = _make_runner(args)
    if mix.startswith(IMPORTED_TRACE_PREFIX):
        # Resolve now so a missing import or core-count mismatch is a
        # clean CLI error, not a traceback from inside the run.
        try:
            runner.trace(mix)
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.policy not in POLICY_NAMES or args.policy == "Baseline":
        raise SystemExit(
            f"unknown policy {args.policy!r}; registered governors are:\n"
            f"{governor_listing()}\n"
            f"(`run` accepts the sweep-able names except 'Baseline')")
    telemetry = JsonlTelemetry(args.telemetry) if args.telemetry else None
    try:
        cmp = runner.compare_named(mix, args.policy, telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
    rows = [
        ["memory energy savings", f"{cmp.memory_energy_savings:+.1%}"],
        ["system energy savings", f"{cmp.system_energy_savings:+.1%}"],
        ["average CPI increase", f"{cmp.avg_cpi_increase:+.1%}"],
        ["worst CPI increase", f"{cmp.worst_cpi_increase:+.1%}"],
    ]
    point = (JobSpec("scenario", mix, policy=args.policy,
                     device=args.device).point
             if args.device else args.policy)
    print(format_table(["metric", "value"], rows,
                       title=f"{point} on {mix} vs baseline"))
    app_rows = [[app, f"{inc:+.1%}"]
                for app, inc in sorted(cmp.app_cpi_increase.items())]
    print()
    print(format_table(["application", "CPI increase"], app_rows))
    if args.telemetry:
        print(f"\nper-epoch telemetry written to {args.telemetry}")
    if args.validate:
        print("\nprotocol validator: armed, zero violations")


def _device_table(outcomes, **table_args) -> str:
    return device_energy_table([_scenario_row(o) for o in
                                split_outcomes(outcomes)[0]], **table_args)


def _scenario_row(o) -> dict:
    """One :func:`device_energy_table` row from a scenario outcome."""
    return {
        "workload": o.mix, "policy": o.policy, "device": o.spec.device,
        "memory_energy_j": o.result.memory_energy_j,
        "background_share": o.extras["background_share"],
        "mem_savings": o.comparison.memory_energy_savings,
        "worst_cpi_increase": o.comparison.worst_cpi_increase,
    }


def cmd_sweep(args) -> None:
    if args.mixes:
        mixes = list(args.mixes)
    elif args.scenarios:
        mixes = []
    else:
        mixes = list(MIXES)
    if args.scenarios:
        mixes += [m for m in args.scenarios if m not in mixes]
    policies = args.policies
    jobs = args.jobs if args.jobs is not None else "auto"
    cache_note = _cache_dir(args) or "disabled"
    done_note = f"jobs={jobs}, cache={cache_note}"
    config = _config_from_args(args)
    settings = _settings_from_args(args)
    if args.devices:
        specs = _specs(lambda: scenario_specs(mixes, policies, args.devices))
        _sweep(args, "scenario", specs, config, settings,
               table=lambda outcomes: _device_table(
                   outcomes, title=f"scenario sweep: {len(mixes)} mixes x "
                                   f"{len(policies)} policies x "
                                   f"{len(args.devices)} devices"),
               notes="savings are normalized within each device (vs that "
                     "device's own baseline);\n'standby' is background "
                     "energy as a share of DIMM energy",
               done_note=done_note)
        return
    specs = _specs(lambda: policy_specs(mixes, policies))
    _sweep(args, "policy", specs, config, settings,
           table=lambda outcomes: format_table(
               ["workload", "policy", "mem savings", "sys savings",
                "worst CPI", "job wall"], sweep_table(outcomes),
               title=f"sweep: {len(mixes)} mixes x "
                     f"{len(policies)} policies"),
           done_note=done_note)


def _check_cap_outcomes(outcomes) -> List[str]:
    """Smoke-grade acceptance checks on a cap sweep's outcomes.

    Returns failure strings (empty = pass). Checks, per capped point:
    (a) no silent overshoot — every accounted epoch stayed within the
    budget's tolerance band or the ledger recorded a violation; and
    (b) fairness — the capped run's min-app normalized performance is
    no lower than the naive lowest-frequency throttle reference.
    """
    failures: List[str] = []
    throttle = {o.mix: o for o in outcomes
                if o.spec.budget_fraction is None}
    for o in outcomes:
        if o.spec.budget_fraction is None:
            continue
        label = o.spec.label
        cap = o.extras["cap"] or {}
        budget_w = o.extras["budget_w"]
        min_perf = o.extras["min_perf"]
        if not cap.get("epochs_accounted"):
            failures.append(f"{label}: ledger accounted no epochs")
            continue
        tol = 1.0 + 0.01 + 1e-9
        if (cap.get("violation_count", 0) == 0
                and cap.get("peak_power_w", 0.0) > budget_w * tol):
            failures.append(
                f"{label}: silent overshoot — peak epoch power "
                f"{cap['peak_power_w']:.2f}W over budget {budget_w:.2f}W "
                f"with no recorded violation")
        ref = throttle.get(o.mix)
        if ref is not None and min_perf < ref.extras["min_perf"] - 1e-9:
            failures.append(
                f"{label}: min-app normalized perf {min_perf:.4f} below "
                f"the throttle reference {ref.extras['min_perf']:.4f}")
    return failures


def cmd_cap(args) -> None:
    if args.smoke:
        mixes, fractions = ["MID1"], list(SMOKE_BUDGET_FRACTIONS)
        settings = SMOKE_SETTINGS
    else:
        mixes = args.mixes if args.mixes else mix_names("MID")
        fractions = args.budgets
        settings = _settings_from_args(args)
    specs = _specs(lambda: cap_specs(mixes, fractions))
    _sweep(args, "cap", specs, _config_from_args(args), settings,
           table=lambda outcomes: cap_summary_table(
               [experiments.cap_outcome_row(o)
                for o in split_outcomes(outcomes)[0]],
               title=f"power-cap sweep: {len(mixes)} mixes x "
                     f"{len(fractions)} budgets (+throttle reference)"),
           notes="budgets are fractions of each mix's baseline average "
                 "memory power;\nThrottle rows pin the slowest static "
                 "frequency (the naive alternative)",
           check=_check_cap_outcomes,
           smoke_detail=f"{len(fractions)} budgets + throttle",
           done_note="cap enforcement checks passed")


def _check_multidomain_outcomes(outcomes,
                                require_coordinated_split: bool = False
                                ) -> List[str]:
    """Smoke-grade acceptance checks on a multi-domain sweep's outcomes.

    Returns failure strings (empty = pass). Per global-budget point:
    (a) the ledger accounted epochs and recorded zero violations on the
    coordinated leg — the governor never exceeds the global budget;
    (b) the coordinated leg beats the memory-only CapGovernor reference
    on explicit-split system energy. With ``require_coordinated_split``
    (the smoke), the tightest budget must also be a genuinely
    *coordinated* split: infeasible for either domain alone at max
    frequency, yet with feasible (core, memory) pairs found.
    """
    failures: List[str] = []
    coordinated = [o for o in outcomes if o.spec.coordinated]
    memory_only = {(o.mix, o.spec.budget_fraction): o
                   for o in outcomes if not o.spec.coordinated}
    for o in coordinated:
        label = o.spec.label
        summary = o.extras["summary"] or {}
        if not summary.get("epochs_accounted"):
            failures.append(f"{label}: ledger accounted no epochs")
            continue
        if summary.get("violation_count", 0) > 0:
            failures.append(
                f"{label}: {summary['violation_count']} epochs exceeded "
                f"the global budget {o.extras['budget_w']:.2f}W")
        ref = memory_only.get((o.mix, o.spec.budget_fraction))
        mine_j = o.extras["system_energy_j"]
        if ref is not None and mine_j >= ref.extras["system_energy_j"]:
            failures.append(
                f"{label}: coordinated system energy {mine_j:.4f}J does "
                f"not beat the memory-only reference "
                f"{ref.extras['system_energy_j']:.4f}J")
    if coordinated and require_coordinated_split:
        tight = min(coordinated, key=lambda o: o.spec.budget_fraction)
        label = tight.spec.label
        summary = tight.extras["summary"] or {}
        if not summary.get("core_max_infeasible_epochs"):
            failures.append(
                f"{label}: budget never infeasible for nominal cores "
                f"alone (no coordination needed)")
        if not summary.get("mem_max_infeasible_epochs"):
            failures.append(
                f"{label}: budget never infeasible for max-frequency "
                f"memory alone (no coordination needed)")
        decided = summary.get("epochs_decided", 0)
        if decided - summary.get("infeasible_epochs", 0) <= 0:
            failures.append(
                f"{label}: governor found no feasible (core, memory) "
                f"pair in any epoch")
    return failures


def cmd_multidomain(args) -> None:
    if args.smoke:
        mixes, fractions = ["MID1"], list(SMOKE_MULTIDOMAIN_FRACTIONS)
        settings = SMOKE_SETTINGS
    else:
        mixes = args.mixes if args.mixes else mix_names("MID")
        fractions = args.budgets
        settings = _settings_from_args(args)
    specs = _specs(lambda: multidomain_specs(mixes, fractions))
    _sweep(args, "multidomain", specs, _config_from_args(args), settings,
           table=lambda outcomes: multidomain_summary_table(
               [experiments.multidomain_outcome_row(o)
                for o in split_outcomes(outcomes)[0]],
               title=f"multi-domain budget sweep: {len(mixes)} mixes x "
                     f"{len(fractions)} global budgets "
                     f"(+memory-only reference)"),
           notes="budgets are fractions of each mix's baseline memory "
                 "power plus modeled\nnominal core power; MemOnly rows "
                 "give the whole remaining budget to a\nmemory-only "
                 "CapGovernor (the uncoordinated split)",
           check=lambda good: _check_multidomain_outcomes(
               good, require_coordinated_split=args.smoke),
           smoke_detail=f"{len(fractions)} budgets x "
                        f"coordinated+memory-only",
           done_note="budget-ledger checks passed")


def _check_placement_outcomes(outcomes, cpi_bound: float,
                              require_parking: bool = False) -> List[str]:
    """Smoke-grade acceptance checks on a placement sweep's outcomes.

    Returns failure strings (empty = pass). Per placed leg: (a) lower
    absolute memory energy than the plain-MemScale reference on the
    same mix (the legs share the trace and the CPI-degradation target,
    so the energy comparison is at equal perf loss); (b) CPI increase
    within the MemScale bound plus a small slack for self-refresh
    wake-ups and copy traffic. With ``require_parking`` (the smoke),
    the placed leg must also show the machinery actually engaged:
    pages migrated, ranks parked in self-refresh, and the migration
    copy ledger conserved — every migrated line was either copied or
    is still in the pump's tracked backlog when the run ends (nothing
    silently dropped).
    """
    failures: List[str] = []
    references = {o.mix: o for o in outcomes if not o.spec.coordinated}
    for o in outcomes:
        if not o.spec.coordinated:
            continue
        label = o.spec.label
        summary = o.extras["placement"] or {}
        ref = references.get(o.mix)
        if ref is not None \
                and o.result.memory_energy_j >= ref.result.memory_energy_j:
            failures.append(
                f"{label}: memory energy {o.result.memory_energy_j:.4f}J "
                f"does not beat plain MemScale "
                f"{ref.result.memory_energy_j:.4f}J")
        worst = o.comparison.worst_cpi_increase
        if worst > cpi_bound + SMOKE_PLACEMENT_CPI_SLACK:
            failures.append(
                f"{label}: worst CPI increase {worst:+.1%} exceeds the "
                f"bound {cpi_bound:.1%} plus "
                f"{SMOKE_PLACEMENT_CPI_SLACK:.1%} slack")
        if require_parking:
            if not summary.get("parked_ranks"):
                failures.append(f"{label}: no rank ever entered "
                                "self-refresh")
            if not summary.get("migrations"):
                failures.append(f"{label}: no page was ever migrated")
            copied = summary.get("lines_copied", 0)
            backlog = summary.get("backlog", 0)
            migrated = summary.get("migrated_lines", 0)
            if copied + backlog != migrated:
                failures.append(
                    f"{label}: migration copy ledger does not conserve "
                    f"— {copied} lines copied + {backlog} backlog != "
                    f"{migrated} migrated")
    return failures


def _placement_table(outcomes, title: str) -> str:
    rows = []
    for o in split_outcomes(outcomes)[0]:
        summary = o.extras["placement"] or {}
        rows.append([
            o.mix, "Placed" if o.spec.coordinated else "MemScale",
            f"{o.result.memory_energy_j:.4f}",
            f"{o.comparison.worst_cpi_increase:+.1%}",
            str(summary.get("migrations", "-")),
            str(summary.get("parked_ranks", "-")),
            f"{o.wall_s:.2f}s",
        ])
    return format_table(["workload", "leg", "mem energy (J)", "worst CPI",
                         "migrations", "parks", "job wall"], rows,
                        title=title)


def cmd_placement(args) -> None:
    if args.smoke:
        mixes = ["MID1"]
        settings = RunnerSettings(cores=4, instructions_per_core=60_000,
                                  seed=2011)
        # Short epochs so classification/parking cycle many times, and
        # small pages in gentle per-epoch batches so the paced migration
        # pump can drain them: the placed leg has to *win* on energy.
        # The smoke always arms the protocol validator: zero violations
        # with self-refresh parking active is part of the acceptance.
        base = scaled_config().with_policy(
            epoch_ns=SMOKE_PLACEMENT_EPOCH_NS,
            profile_ns=SMOKE_PLACEMENT_PROFILE_NS).with_placement(
            page_lines=32, migrations_per_epoch=4).replace(
            validate_protocol=True)
    else:
        mixes = args.mixes if args.mixes else mix_names("MID")
        settings = _settings_from_args(args)
        base = None
    config = _config_from_args(args, base)
    specs = _specs(lambda: placement_specs(mixes))
    _sweep(args, "placement", specs, config, settings,
           table=lambda outcomes: _placement_table(
               outcomes, title=f"placement sweep: {len(mixes)} mixes x "
                               f"(placed + plain-MemScale reference)"),
           notes="legs share the trace and the CPI bound; energies are "
                 "absolute joules\n(enabling placement changes the "
                 "baseline run's decode, so the legs are\nnot normalized "
                 "to a common baseline)",
           check=lambda good: _check_placement_outcomes(
               good, cpi_bound=config.policy.cpi_bound,
               require_parking=args.smoke),
           smoke_detail="placed + reference on MID1",
           done_note="placement checks passed")


def cmd_governors(args) -> None:
    rows = [[name, mode, knobs, doc, desc]
            for name, mode, desc, knobs, doc in GOVERNOR_INFO]
    print(format_table(
        ["governor", "powerdown", "config knobs", "doc", "description"],
        rows, title="registered governors"))
    print("\nthe first eight are accepted by `run --policy` and "
          "`sweep --policies`;\nCap runs via `repro cap`, MultiDomain "
          "via `repro multidomain`,\nMemScale+Placement via `repro "
          "placement`, MemScale/channel via the\nrepro.core.extensions "
          "API (protocol + worked example: docs/governors.md)")


def cmd_bench(args) -> None:
    if not args.smoke:
        raise SystemExit("only --smoke is supported; run the full suite "
                         "with: pytest benchmarks/ --benchmark-only -s")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    config = _config_from_args(args)
    mix = _check_mix(args.scenario) if args.scenario else "MID1"
    # One parallel sweep: the policy leg on the smoke mix plus a capped
    # leg (a 2-point budget sweep on MID1) checking the power-capping
    # governor's no-silent-overshoot and fairness guarantees in tier-1.
    specs = (policy_specs([mix], ["MemScale", "Static"])
             + cap_specs(["MID1"], SMOKE_BUDGET_FRACTIONS))
    start = time.perf_counter()
    outcomes = run_specs(specs, config=config, settings=SMOKE_SETTINGS,
                         jobs=args.jobs, cache_dir=_cache_dir(args))
    wall = time.perf_counter() - start
    policy_runs = [o for o, spec in zip(outcomes, specs)
                   if spec.kind == "policy"]
    good, failed_jobs = split_outcomes(outcomes)
    failures = [f.summary() for f in failed_jobs]
    for o in good:
        if o.spec.kind != "policy":
            continue
        if o.result.epochs <= 0:
            failures.append(f"{o.spec.label}: no epochs simulated")
        if not -1.0 <= o.comparison.system_energy_savings <= 1.0:
            failures.append(f"{o.spec.label}: implausible savings "
                            f"{o.comparison.system_energy_savings:+.1%}")
        if o.comparison.memory_energy_savings <= 0.0:
            failures.append(f"{o.spec.label}: no memory savings")
    failures.extend(_check_cap_outcomes(
        [o for o in good if o.spec.kind == "cap"]))
    # Validator-armed leg: a tiny in-process run (DVFS + powerdown +
    # refresh) with the DDR3 protocol validator raising on any violation,
    # so tier-1 exercises the armed path even when the sweep above was
    # satisfied from cache.
    from repro.memsim.validate import ProtocolViolation
    vrunner = ExperimentRunner(
        config=scaled_config().replace(validate_protocol=True),
        settings=RunnerSettings(cores=4, instructions_per_core=2_000,
                                seed=2011),
        cache=None)
    try:
        vrunner.run_named_policy("MID1", "MemScale+Fast-PD")
    except ProtocolViolation as exc:
        failures.append(f"validator: {exc}")
    print(format_table(
        ["workload", "policy", "mem savings", "sys savings",
         "worst CPI", "job wall"],
        sweep_table(policy_runs), title="bench smoke (parallel path)"))
    if failures:
        raise SystemExit("SMOKE FAILED:\n  " + "\n  ".join(failures))
    print("validator: armed leg passed (zero protocol violations)")
    print(f"cap: capped leg passed ({len(SMOKE_BUDGET_FRACTIONS)} budgets "
          f"+ throttle reference on MID1)")
    print(f"\nSMOKE OK: {len(outcomes)} runs, {args.jobs} workers, "
          f"{wall:.2f}s wall")


def cmd_cache(args) -> None:
    cache = ExperimentCache(args.cache_dir)
    stats = cache.stats()
    print(f"cache root       : {stats['root']}")
    print(f"trace entries    : {stats['trace_entries']}")
    print(f"run entries      : {stats['run_entries']}")
    if stats["orphan_files"]:
        print(f"orphan files     : {stats['orphan_files']} "
              f"(half-deleted columnar entries; --prune sweeps them)")
    print(f"on-disk size     : {stats['total_bytes'] / 1e6:.2f} MB "
          f"({stats['total_bytes']} bytes)")
    if args.prune:
        removed = cache.prune()
        print(f"pruned {removed['files_removed']} files "
              f"({removed['bytes_removed'] / 1e6:.2f} MB)")


def _import_summary_rows(summary) -> List[List[str]]:
    return [
        ["source", summary.source],
        ["format", summary.format],
        ["requests", str(summary.requests)],
        ["reads", str(summary.reads)],
        ["writes", str(summary.writes)],
        ["unattached writebacks", str(summary.unattached_writebacks)],
        ["non-monotonic cycles", str(summary.non_monotonic_cycles)],
        ["distinct lines", str(summary.distinct_lines)],
        ["cycle span", f"{summary.first_cycle} .. {summary.last_cycle}"],
        ["replay cores", str(summary.cores)],
        ["RPKI (replayed)", f"{summary.rpki:.2f}"],
    ]


def cmd_trace(args) -> None:
    import dataclasses as _dc

    from repro.scenarios.fit import fit_trace
    from repro.scenarios.ingest import TraceFormatError, import_trace
    from repro.sim.cache import check_trace_name

    org = scaled_config().org
    name = getattr(args, "name", None) or "trace"
    if args.trace_command == "import":
        try:
            check_trace_name(name)
        except ValueError as exc:
            raise SystemExit(str(exc))
    try:
        trace, summary = import_trace(args.file, name, org,
                                      cores=args.cores, fmt=args.format)
    except (TraceFormatError, FileNotFoundError, OSError) as exc:
        raise SystemExit(str(exc))
    print(format_table(["field", "value"], _import_summary_rows(summary),
                       title=f"trace {args.file}"))
    fit = fit_trace(trace, org)
    print(f"\nphase fit: {len(fit.phases)} phases over "
          f"{len(fit.windows)} windows; row-hit {fit.row_hit_ratio:.0%}, "
          f"stream {fit.stream_fraction:.0%}, "
          f"working set {fit.working_set_lines} lines")
    if args.trace_command == "info":
        return
    cache = ExperimentCache(args.cache_dir)
    cache.store_imported_trace(name, trace, _dc.asdict(summary))
    print(f"\nimported as 'trace:{name}' into {cache.root}")
    print(f"replay: repro run trace:{name} --cores {summary.cores} "
          f"--cache-dir {args.cache_dir}")


def _check_scenario_outcomes(outcomes, devices,
                             cpi_bound: float = SCENARIOS_SMOKE_CPI_BOUND
                             ) -> List[str]:
    """Acceptance checks of the scenarios smoke's device leg.

    Per device table: MemScale must beat Static on at least one ladder
    rung, where "beats" honours the performance bound — a policy only
    qualifies while its worst CPI increase stays within the bound (plus
    controller-jitter slack), and among qualifying policies higher
    memory savings wins. Across tables: the STT-MRAM-like part's
    near-zero standby currents must show up as a lower background
    (standby) share of DIMM energy than the DDR3-1333 baseline's.
    """
    failures: List[str] = []
    by = {(o.mix, o.policy, o.spec.device): o for o in outcomes}
    mixes = list(dict.fromkeys(o.mix for o in outcomes))
    limit = cpi_bound + SCENARIOS_SMOKE_CPI_SLACK

    def qualifies(o) -> bool:
        return o.comparison.worst_cpi_increase <= limit

    def beats(mix: str, device: str) -> bool:
        mine = by.get((mix, "MemScale", device))
        ref = by.get((mix, "Static", device))
        if mine is None or ref is None:
            return False
        if not (qualifies(mine)
                and mine.comparison.memory_energy_savings > 0):
            return False
        return (not qualifies(ref)
                or (mine.comparison.memory_energy_savings
                    > ref.comparison.memory_energy_savings))

    for device in devices:
        if not any(beats(mix, device) for mix in mixes):
            failures.append(
                f"{device}: MemScale beat Static on no ladder rung "
                f"(within the {cpi_bound:.0%} CPI bound)")

    def share(device: str) -> float:
        vals = [o.extras["background_share"] for o in outcomes
                if o.spec.device == device]
        return sum(vals) / len(vals) if vals else 0.0

    if "stt-mram" in devices and "ddr3-1333" in devices:
        if share("stt-mram") >= share("ddr3-1333"):
            failures.append(
                f"stt-mram standby share {share('stt-mram'):.1%} is not "
                f"below ddr3-1333's {share('ddr3-1333'):.1%}")
    return failures


def _scenarios_smoke(args) -> None:
    """CI leg: trace ingestion + ladder + device tables, end to end.

    Three checks, all validator-armed: (a) the bundled k6 trace imports
    into the smoke directory's cache and replays byte-identically
    across serial, ``--jobs N``, and fast-forward-off legs; (b) every
    ladder rung runs under MemScale with zero protocol violations; (c)
    a (rung x policy x device) sweep where MemScale beats Static on at
    least one rung per device and the STT-MRAM table shows the expected
    standby-power shift. Writes ``summary.json`` for the CI artifact.
    """
    import dataclasses as _dc
    import json as _json
    import shutil
    from pathlib import Path

    from repro import scenarios as scn
    from repro.scenarios.ingest import TraceFormatError, import_trace
    from repro.sim.serialize import run_result_to_dict

    directory = Path(args.dir if args.dir else SCENARIOS_SMOKE_DIR)
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True, exist_ok=True)
    cache_dir = str(directory / "cache")
    failures: List[str] = []
    start = time.perf_counter()
    config = scaled_config().replace(validate_protocol=True)
    settings = RunnerSettings(cores=4,
                              instructions_per_core=args.instructions,
                              seed=2011)

    # Leg 1: ingest the bundled k6 trace, replay it three ways.
    try:
        trace, summary = import_trace(args.trace, "sample-k6", config.org,
                                      cores=4)
    except (TraceFormatError, FileNotFoundError, OSError) as exc:
        raise SystemExit(f"SCENARIOS SMOKE FAILED:\n  cannot ingest "
                         f"{args.trace}: {exc}")
    ExperimentCache(cache_dir).store_imported_trace(
        "sample-k6", trace, _dc.asdict(summary))
    mix = "trace:sample-k6"
    replay_legs = {}
    for leg, jobs, cfg in (
            ("serial", 1, config),
            (f"jobs={args.jobs}", args.jobs, config),
            ("no-fast-forward", 1, config.replace(fast_forward=False))):
        outcomes = run_sweep([mix], ["MemScale", "Static"], config=cfg,
                             settings=settings, jobs=jobs,
                             cache_dir=cache_dir)
        good, failed = split_outcomes(outcomes)
        failures.extend(f"replay {leg}: {f.summary()}" for f in failed)
        replay_legs[leg] = _json.dumps(
            {o.policy: run_result_to_dict(o.result) for o in good},
            sort_keys=True)
    if len(set(replay_legs.values())) > 1:
        failures.append("imported-trace replay is not byte-identical "
                        "across serial / parallel / fast-forward legs")
    else:
        print(f"trace: {summary.requests} requests ({summary.format}) "
              f"-> {mix}; replay byte-identical across "
              f"{len(replay_legs)} legs")

    # Leg 2: every ladder rung under MemScale, validator armed.
    rungs = scn.scenario_names()
    outcomes = run_sweep(rungs, ["MemScale"], config=config,
                         settings=settings, jobs=args.jobs,
                         cache_dir=cache_dir)
    good, failed = split_outcomes(outcomes)
    failures.extend(f"ladder: {f.summary()}" for f in failed)
    print(f"ladder: {len(good)}/{len(rungs)} rungs ran validator-armed "
          f"under MemScale, zero violations")

    # Leg 3: (rung x policy x device), each device against its own
    # baseline, under the tight performance bound (see
    # SCENARIOS_SMOKE_CPI_BOUND).
    devices = scn.device_names()
    device_config = config.with_policy(
        cpi_bound=SCENARIOS_SMOKE_CPI_BOUND)
    outcomes = run_specs(scenario_specs(SCENARIOS_SMOKE_RUNGS,
                                        ("MemScale", "Static"), devices),
                         config=device_config, settings=settings,
                         jobs=args.jobs, cache_dir=cache_dir)
    dev_good, failed = split_outcomes(outcomes)
    failures.extend(f"devices: {f.summary()}" for f in failed)
    if dev_good:
        print()
        print(_device_table(dev_good))
    failures.extend(_check_scenario_outcomes(dev_good, devices))

    wall = time.perf_counter() - start
    (directory / "summary.json").write_text(_json.dumps({
        "import": _dc.asdict(summary),
        "replay_identical": len(set(replay_legs.values())) == 1,
        "ladder_rungs": rungs,
        "devices": [_scenario_row(o) for o in dev_good],
        "failures": failures,
        "wall_s": wall,
    }, indent=1, sort_keys=True) + "\n")
    if failures:
        raise SystemExit("SCENARIOS SMOKE FAILED:\n  "
                         + "\n  ".join(failures))
    print(f"\nSCENARIOS SMOKE OK: {len(rungs)} rungs, "
          f"{len(devices)} device tables, ingested replay deterministic; "
          f"{wall:.2f}s wall (artifacts in {directory}/)")


def cmd_scenarios(args) -> None:
    from repro import scenarios as scn

    if args.smoke:
        _scenarios_smoke(args)
        return
    print(scn.scenario_listing())
    print()
    print(scn.device_listing())
    print("\nrun a rung    : repro run mix2 --cores 4 --device stt-mram"
          "\nsweep devices : repro sweep --scenarios mix1 mix4 "
          "--devices ddr3-1333 stt-mram"
          "\nimport traces : repro trace import FILE --name NAME; "
          "repro run trace:NAME")


def _service_specs(args) -> List[JobSpec]:
    """The JobSpec list a `repro service run` invocation asks for."""
    mixes = args.mixes if args.mixes else ["MID1"]
    if args.kind in ("cap", "multidomain") and not args.budgets:
        raise SystemExit(f"--kind {args.kind} needs --budgets")
    build = {
        "policy": lambda: policy_specs(mixes, args.policies),
        "cap": lambda: cap_specs(mixes, args.budgets),
        "multidomain": lambda: multidomain_specs(mixes, args.budgets),
        "placement": lambda: placement_specs(mixes),
        "scenario": lambda: scenario_specs(
            mixes, args.policies, args.devices or ["ddr3-1333"]),
    }[args.kind]
    return _specs(build)


def _service_report(service, outcomes, wall: float, verb: str) -> None:
    """Shared tail of `service run` / `service resume`."""
    good, failed = split_outcomes(outcomes)
    rows = []
    for o in outcomes:
        if isinstance(o, JobFailure):
            rows.append([o.mix, o.label.split("/", 1)[-1], "FAILED",
                         f"{o.error_type}: {o.message}"])
        else:
            rows.append([o.mix, o.point, "ok",
                         f"sys {o.comparison.system_energy_savings:+.1%}"])
    status = service.status()
    print(format_table(["workload", "point", "status", "detail"], rows,
                       title=f"service {verb}: {status['root']}"))
    print(f"\n{status['ok']} ok, {status['failed']} failed, "
          f"{status['pending'] - status['failed']} never-ran of "
          f"{status['enqueued']} enqueued ({wall:.2f}s wall); "
          f"store: {service.store.root}")
    if failed:
        print("failed jobs (a later `repro service resume` retries "
              "them):\n  " + "\n  ".join(f.summary() for f in failed))


def cmd_service(args) -> None:
    from repro.sim import service as svc

    try:
        _cmd_service(args, svc)
    except svc.ServiceError as exc:
        raise SystemExit(str(exc))


def _cmd_service(args, svc) -> None:
    if args.service_command == "status":
        service = svc.SweepService.open(args.dir)
        status = service.status()
        for key in ("root", "enqueued", "ok", "failed", "pending",
                    "ledger_lines_skipped", "jobs", "retries"):
            print(f"{key:21}: {status[key]}")
        for key, spec in service.pending():
            state = service.store.status(key) or "never ran"
            print(f"  pending: {spec.label} ({state})")
        return

    if args.service_command == "resume":
        service = svc.SweepService.open(args.dir, jobs=args.jobs,
                                        retries=args.retries)
        start = time.perf_counter()
        outcomes = service.resume()
        _service_report(service, outcomes, time.perf_counter() - start,
                        "resume")
        return

    if args.service_command == "smoke":
        _service_smoke(args)
        return

    # run
    specs = _service_specs(args)
    service = svc.SweepService(args.dir, config=_config_from_args(args),
                               settings=_settings_from_args(args),
                               telemetry_dir=args.telemetry,
                               jobs=args.jobs, retries=args.retries)
    start = time.perf_counter()
    outcomes = service.run(specs, fail_labels=args.fail_label or None)
    _service_report(service, outcomes, time.perf_counter() - start, "run")


def _service_smoke(args) -> None:
    """CI leg: tiny sweep with one injected failing job, resume, query.

    Exercises the whole crash-safe path — failure record instead of a
    sweep-wide raise, resume executing only the unfinished job, store
    identical (by deterministic digest) to what a straight serial sweep
    produces.
    """
    import shutil

    from repro.sim import service as svc
    from repro.sim.serialize import run_result_to_dict
    from repro.sim.store import deterministic_digest

    directory = args.dir if args.dir else SERVICE_SMOKE_DIR
    shutil.rmtree(directory, ignore_errors=True)
    settings = SMOKE_SETTINGS
    mixes, policies = ["MID1"], ["Static", "MemScale"]
    poison = "MID1/MemScale"
    failures: List[str] = []
    start = time.perf_counter()

    service = svc.SweepService(directory, settings=settings,
                               jobs=args.jobs, retries=0)
    outcomes = service.run(policy_specs(mixes, policies),
                           fail_labels=[poison])
    good, failed = split_outcomes(outcomes)
    if len(good) != len(policies) - 1 or len(failed) != 1:
        failures.append(f"poisoned run: expected {len(policies) - 1} ok "
                        f"+ 1 failure, got {len(good)} ok "
                        f"+ {len(failed)} failed")
    elif failed[0].error_type != "InjectedFailure":
        failures.append(f"failure record carries {failed[0].error_type}, "
                        "expected InjectedFailure")

    # Interrupted-then-resumed service == uninterrupted serial sweep.
    resumed = svc.SweepService.open(directory).resume()
    _, still_failed = split_outcomes(resumed)
    if still_failed:
        failures.append("resume did not heal the injected failure")
    reference = run_sweep(mixes, policies, settings=settings, jobs=1,
                          cache_dir=service.cache_dir)
    by_spec = {o.spec: o for o in split_outcomes(resumed)[0]}
    for ref in reference:
        mine = by_spec.get(ref.spec)
        if mine is None or (run_result_to_dict(mine.result)
                            != run_result_to_dict(ref.result)):
            failures.append(f"{ref.spec.label}: resumed result "
                            "differs from the uninterrupted serial run")
    digests = {r["key"]: deterministic_digest(r)
               for r in service.store.records()}
    if len(digests) != len(policies):
        failures.append(f"store holds {len(digests)} records, "
                        f"expected {len(policies)}")

    # Query path over the accumulated store.
    hits = service.store.query(mix="MID1", status="ok")
    if len(hits) != len(policies):
        failures.append(f"query returned {len(hits)} ok records, "
                        f"expected {len(policies)}")

    wall = time.perf_counter() - start
    if failures:
        raise SystemExit("SERVICE SMOKE FAILED:\n  "
                         + "\n  ".join(failures))
    print(f"service: poisoned job isolated ({poison}), "
          f"{len(good)} good outcomes preserved")
    print(f"service: resume healed the failure; store byte-identical "
          f"to the uninterrupted serial sweep")
    print(f"query: {len(hits)} ok records for MID1")
    print(f"\nSERVICE SMOKE OK: store in {directory}/, {wall:.2f}s wall")


def cmd_query(args) -> None:
    import json as _json

    from repro.sim.store import ResultStore
    from repro.sim.service import STORE_NAME

    root = f"{args.dir}/{STORE_NAME}"
    store = ResultStore(root)
    records = store.query(mix=args.mix, policy=args.policy,
                          kind=args.kind, status=args.status)
    if args.jsonl:
        for record in records:
            print(_json.dumps(record))
        return
    rows = []
    for record in records:
        job = record.get("job", {})
        if record["status"] == "ok":
            outcome = record.get("outcome", {})
            comparison = outcome.get("comparison", {})
            detail = (f"sys {comparison.get('system_energy_savings', 0):+.1%}"
                      if comparison else "-")
        else:
            error = record.get("error", {})
            detail = f"{error.get('error_type')}: {error.get('message')}"
        rows.append([job.get("mix", "?"),
                     job.get("label", "?").split("/", 1)[-1],
                     job.get("kind", "?"), record["status"],
                     str(record.get("attempts", 1)), detail])
    counts = store.counts()
    print(format_table(
        ["workload", "point", "kind", "status", "attempts", "detail"],
        rows, title=f"result store: {root}"))
    print(f"\n{len(records)} of {counts['total']} records matched "
          f"({counts['ok']} ok, {counts['failed']} failed in store)")


def cmd_figure(args) -> None:
    runner = _make_runner(args)
    settings = runner.settings
    fig = args.number
    if fig in (5, 6):
        result = experiments.energy_savings(runner)
    elif fig in (9, 10, 11):
        result = experiments.policy_comparison(runner)
    elif fig == 12:
        result = experiments.sensitivity_cpi_bound(settings=settings)
    elif fig == 13:
        result = experiments.sensitivity_channels(settings=settings)
    elif fig == 14:
        result = experiments.sensitivity_memory_fraction(settings=settings)
    elif fig == 15:
        result = experiments.sensitivity_proportionality(settings=settings)
    else:
        raise SystemExit("supported figures: 5 6 9 10 11 12 13 14 15 "
                         "(7/8 via the 'timeline' command)")
    if not result.rows:
        raise SystemExit("experiment produced no rows")
    columns = [c for c in result.rows[0] if c != "app_cpi"]
    rows = [[_fmt(row[c]) for c in columns] for row in result.rows]
    print(format_table(columns, rows, title=result.name))
    if result.notes:
        print(f"\n{result.notes}")


def cmd_timeline(args) -> None:
    mix = _check_mix(args.mix)
    runner = _make_runner(args)
    result = experiments.timeline(runner, mix)
    rows = []
    for row in result.rows:
        worst_app = max(row["app_cpi"], key=row["app_cpi"].get) \
            if row["app_cpi"] else "-"
        rows.append([
            f"{row['time_us']:.1f}", f"{row['bus_mhz']:.0f}",
            f"{row['mean_channel_util']:.1%}",
            f"{row['memory_power_w']:.1f}", worst_app,
        ])
    print(format_table(
        ["time (us)", "bus MHz", "mean util", "memory W", "slowest app"],
        rows, title=f"timeline of {mix} under MemScale"))
    print(f"\n{result.notes}")


def cmd_stats(args) -> None:
    mix = _check_mix(args.mix)
    runner = _make_runner(args)
    stats = workload_stats(runner.trace(mix), runner.config.org)
    print(f"{mix}: {stats.cores} cores, RPKI={stats.rpki:.2f}, "
          f"WPKI={stats.wpki:.2f}")
    rows = []
    for app, s in stats.per_app.items():
        rows.append([app, f"{s.rpki:.2f}", f"{s.wpki:.2f}",
                     f"{s.mean_gap:.0f}", f"{s.gap_cv:.2f}",
                     f"{s.sequential_fraction:.0%}",
                     f"{s.bank_entropy:.2f}"])
    print(format_table(
        ["app", "RPKI", "WPKI", "mean gap", "gap CV", "seq%", "bank entropy"],
        rows, title="per-application trace statistics"))


def cmd_best_static(args) -> None:
    mix = _check_mix(args.mix)
    runner = _make_runner(args)
    bus_mhz, cmp = experiments.best_static_frequency(runner, mix)
    print(f"best static frequency for {mix}: {bus_mhz:.0f} MHz")
    print(f"  system energy savings : {cmp.system_energy_savings:+.1%}")
    print(f"  worst CPI increase    : {cmp.worst_cpi_increase:+.1%}")
    _, memscale = runner.run_memscale(mix)
    print(f"MemScale (no reboot, no oracle) on the same trace:")
    print(f"  system energy savings : {memscale.system_energy_savings:+.1%}")
    print(f"  worst CPI increase    : {memscale.worst_cpi_increase:+.1%}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MemScale (ASPLOS 2011) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate Table 1")
    _add_scale_args(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("run", help="run one policy on one mix")
    p.add_argument("mix")
    p.add_argument("--policy", default="MemScale",
                   help=f"one of {[n for n in POLICY_NAMES if n != 'Baseline']}")
    p.add_argument("--bound", type=float, default=None,
                   help="CPI degradation bound (default 0.10)")
    p.add_argument("--telemetry", default=None, metavar="FILE",
                   help="stream per-epoch telemetry JSONL to FILE")
    p.add_argument("--validate", action="store_true",
                   help="arm the DDR3 protocol validator (raises on any "
                        "timing/invariant violation)")
    _add_device_arg(p)
    _add_scale_args(p)
    _add_cache_args(p, default=None)
    _add_ff_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep",
                       help="parallel (mix x policy) sweep with caching")
    p.add_argument("--mixes", nargs="+", default=None, metavar="MIX",
                   help="mixes to sweep (default: all twelve Table-1 "
                        "mixes, or just --scenarios when given)")
    p.add_argument("--scenarios", nargs="+", default=None, metavar="NAME",
                   help="scenario-library rungs to add to the mix list "
                        "(mix1..mix7; see `repro scenarios`)")
    p.add_argument("--devices", nargs="+", default=None, metavar="NAME",
                   help="device technology tables: sweep (mix x policy "
                        "x device) instead, each device compared against "
                        "its own baseline")
    p.add_argument("--policies", nargs="+", default=["MemScale"],
                   metavar="POLICY", help=f"policies from {POLICY_NAMES}")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: up to 8, one per CPU)")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="write one per-epoch telemetry JSONL file per run "
                        "into DIR")
    p.add_argument("--bound", type=float, default=None,
                   help="CPI degradation bound (default 0.10)")
    p.add_argument("--save", default=None, metavar="FILE",
                   help="save all results/comparisons to a JSON file")
    p.add_argument("--validate", action="store_true",
                   help="arm the DDR3 protocol validator in every worker")
    _add_scale_args(p)
    _add_cache_args(p)
    _add_ff_arg(p)
    _add_retries_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cap",
                       help="power-cap budget sweep with violation and "
                            "fairness stats")
    p.add_argument("--mixes", nargs="+", default=None, metavar="MIX",
                   help="mixes to cap (default: the four MID mixes)")
    p.add_argument("--budgets", nargs="+", type=float,
                   default=list(experiments.DEFAULT_BUDGET_FRACTIONS),
                   metavar="FRAC",
                   help="budgets as fractions of each mix's baseline "
                        "memory power (default: 1.0 .. 0.6)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny 2-point sweep on MID1 with acceptance "
                        "checks (cap enforcement + fairness)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: up to 8, one per CPU)")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="write one per-epoch telemetry JSONL file per run "
                        "into DIR")
    p.add_argument("--validate", action="store_true",
                   help="arm the DDR3 protocol validator in every worker")
    _add_scale_args(p)
    _add_cache_args(p)
    _add_ff_arg(p)
    _add_retries_arg(p)
    p.set_defaults(func=cmd_cap)

    p = sub.add_parser("multidomain",
                       help="coordinated CPU+memory sweep under one "
                            "global power budget")
    p.add_argument("--mixes", nargs="+", default=None, metavar="MIX",
                   help="mixes to run (default: the four MID mixes)")
    p.add_argument("--budgets", nargs="+", type=float,
                   default=list(experiments.DEFAULT_MULTIDOMAIN_FRACTIONS),
                   metavar="FRAC",
                   help="global budgets as fractions of each mix's "
                        "baseline memory + nominal core power "
                        "(default: 1.0 .. 0.65)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny 2-point sweep on MID1 with acceptance "
                        "checks (budget enforcement + coordinated split "
                        "beats memory-only capping)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: up to 8, one per CPU)")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="write one per-epoch telemetry JSONL file per run "
                        "into DIR")
    p.add_argument("--validate", action="store_true",
                   help="arm the DDR3 protocol validator in every worker")
    _add_scale_args(p)
    _add_cache_args(p)
    _add_ff_arg(p)
    _add_retries_arg(p)
    p.set_defaults(func=cmd_multidomain)

    p = sub.add_parser("placement",
                       help="rank-aware page placement + self-refresh "
                            "sweep vs plain MemScale")
    p.add_argument("--mixes", nargs="+", default=None, metavar="MIX",
                   help="mixes to run (default: the four MID mixes)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny shortened-epoch run on MID1 with "
                        "acceptance checks (placement+SR beats plain "
                        "MemScale on memory energy, validator armed, "
                        "ranks actually parked)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: up to 8, one per CPU)")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="write one per-epoch telemetry JSONL file per run "
                        "into DIR")
    p.add_argument("--validate", action="store_true",
                   help="arm the DDR3 protocol validator in every worker "
                        "(the smoke always does)")
    _add_scale_args(p)
    _add_cache_args(p)
    _add_ff_arg(p)
    _add_retries_arg(p)
    p.set_defaults(func=cmd_placement)

    p = sub.add_parser("governors",
                       help="list every registered governor")
    p.set_defaults(func=cmd_governors)

    p = sub.add_parser("bench", help="benchmark entry points (CI smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="run one tiny mix through the parallel path")
    p.add_argument("--jobs", type=int, default=2,
                   help="worker processes for the smoke run (default 2)")
    p.add_argument("--validate", action="store_true",
                   help="also arm the DDR3 protocol validator in the "
                        "smoke sweep itself")
    p.add_argument("--scenario", default=None, metavar="MIX",
                   help="run the smoke sweep on this mix/ladder rung "
                        "instead of MID1")
    _add_device_arg(p)
    _add_cache_args(p)
    _add_ff_arg(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("scenarios",
                       help="list the MPKI-laddered scenario library "
                            "and device technology tables")
    p.add_argument("--smoke", action="store_true",
                   help="acceptance leg: ingest the bundled k6 trace, "
                        "replay it deterministically, run every ladder "
                        "rung and device table validator-armed")
    p.add_argument("--jobs", type=int, default=2,
                   help="worker processes for the smoke legs (default 2)")
    p.add_argument("--instructions", type=int, default=8_000,
                   help="instructions per core in the smoke runs "
                        "(default 8000)")
    p.add_argument("--trace", default=SCENARIOS_SMOKE_TRACE,
                   metavar="FILE",
                   help=f"k6 trace the smoke ingests (default "
                        f"{SCENARIOS_SMOKE_TRACE})")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help=f"smoke working directory (default "
                        f"{SCENARIOS_SMOKE_DIR}; recreated fresh)")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("trace",
                       help="import or inspect external memory traces "
                            "(DRAMSim2 k6 / CSV)")
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = tsub.add_parser("import",
                         help="parse a trace file, re-interleave it onto "
                              "the configured geometry, and store it as "
                              "a replayable trace:<name> mix")
    tp.add_argument("file", help="trace file (k6: 'addr cmd cycle'; or "
                                 "CSV with the same columns)")
    tp.add_argument("--name", required=True,
                    help="store name; replay with `repro run "
                         "trace:<name>`")
    tp.add_argument("--format", choices=["auto", "k6", "csv"],
                    default="auto",
                    help="input format (default: detect)")
    tp.add_argument("--cores", type=int, default=16,
                    help="cores to round-robin the requests onto "
                         "(default 16; replay needs --cores to match)")
    tp.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                    help=f"cache root holding the imported store "
                         f"(default: {DEFAULT_CACHE_DIR})")
    tp.set_defaults(func=cmd_trace)

    tp = tsub.add_parser("info",
                         help="parse and summarize a trace file without "
                              "storing anything")
    tp.add_argument("file")
    tp.add_argument("--format", choices=["auto", "k6", "csv"],
                    default="auto",
                    help="input format (default: detect)")
    tp.add_argument("--cores", type=int, default=16,
                    help="cores the summary's replay stats assume "
                         "(default 16)")
    tp.set_defaults(func=cmd_trace)

    p = sub.add_parser("cache",
                       help="show on-disk experiment-cache statistics")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help=f"cache root (default: {DEFAULT_CACHE_DIR})")
    p.add_argument("--prune", action="store_true",
                   help="delete every cached entry after printing stats")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("service",
                       help="crash-safe sweep service: persistent queue "
                            "+ resumable result store")
    ssub = p.add_subparsers(dest="service_command", required=True)

    sp = ssub.add_parser("run", help="enqueue a sweep and execute it "
                                     "(idempotent: reruns only add "
                                     "missing jobs)")
    sp.add_argument("--dir", required=True, metavar="DIR",
                    help="service directory (queue.jsonl + store/ + "
                         "cache/)")
    sp.add_argument("--kind", choices=list(KINDS), default="policy",
                    help="sweep flavour (default policy)")
    sp.add_argument("--mixes", nargs="+", default=None, metavar="MIX",
                    help="mixes to sweep (default: MID1)")
    sp.add_argument("--policies", nargs="+", default=["MemScale"],
                    metavar="POLICY",
                    help=f"policies from {POLICY_NAMES} "
                         f"(kind=policy/scenario)")
    sp.add_argument("--budgets", nargs="+", type=float, default=None,
                    metavar="FRAC",
                    help="budget fractions (kind=cap/multidomain)")
    sp.add_argument("--devices", nargs="+", default=None, metavar="NAME",
                    help="device technology tables (kind=scenario; "
                         "default ddr3-1333)")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: up to 8, one per "
                         "CPU)")
    sp.add_argument("--telemetry", default=None, metavar="DIR",
                    help="write per-epoch telemetry JSONL files into DIR")
    sp.add_argument("--validate", action="store_true",
                    help="arm the DDR3 protocol validator in every "
                         "worker")
    sp.add_argument("--fail-label", nargs="+", default=None,
                    metavar="MIX/POINT",
                    help="inject a deterministic failure into the named "
                         "jobs (testing hook, e.g. MID1/MemScale)")
    _add_scale_args(sp)
    _add_ff_arg(sp)
    _add_retries_arg(sp, default=1)
    sp.set_defaults(func=cmd_service)

    sp = ssub.add_parser("resume",
                         help="finish an interrupted sweep: execute only "
                              "the jobs without a successful store "
                              "record")
    sp.add_argument("--dir", required=True, metavar="DIR")
    sp.add_argument("--jobs", type=int, default=None,
                    help="override the recorded worker count")
    sp.add_argument("--retries", type=int, default=None,
                    help="override the recorded retry budget")
    sp.set_defaults(func=cmd_service)

    sp = ssub.add_parser("status",
                         help="queue/store progress of a service "
                              "directory")
    sp.add_argument("--dir", required=True, metavar="DIR")
    sp.set_defaults(func=cmd_service)

    sp = ssub.add_parser("smoke",
                         help="CI leg: tiny sweep with one injected "
                              "failing job, resume, query, store "
                              "digest check")
    sp.add_argument("--dir", default=None, metavar="DIR",
                    help=f"service directory (default "
                         f"{SERVICE_SMOKE_DIR}; recreated fresh)")
    sp.add_argument("--jobs", type=int, default=2,
                    help="worker processes (default 2)")
    sp.set_defaults(func=cmd_service)

    p = sub.add_parser("query",
                       help="query a service directory's accumulated "
                            "result store")
    p.add_argument("--dir", required=True, metavar="DIR",
                   help="service directory (the `service run --dir`)")
    p.add_argument("--mix", default=None, help="filter by mix")
    p.add_argument("--policy", default=None,
                   help="filter by point (policy name, Cap0.80, "
                        "MD0.70, ...)")
    p.add_argument("--kind", default=None, choices=list(KINDS),
                   help="filter by sweep flavour")
    p.add_argument("--status", default=None, choices=["ok", "failed"],
                   help="filter by record status")
    p.add_argument("--jsonl", action="store_true",
                   help="emit raw store records as JSONL instead of a "
                        "table")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int)
    _add_scale_args(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("timeline", help="per-epoch timeline (Figures 7/8)")
    p.add_argument("mix")
    _add_scale_args(p)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("stats", help="trace statistics for a mix")
    p.add_argument("mix")
    _add_scale_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("best-static",
                       help="oracle static frequency vs MemScale")
    p.add_argument("mix")
    _add_scale_args(p)
    p.set_defaults(func=cmd_best_static)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
