"""Tests for what each sweep kind reports and must satisfy: the rows,
columns, notes and acceptance checks on the ``KINDS`` entries, and the
one ``outcome_table`` renderer.

Every check is fed a real smoke-scale outcome set (the scale and points
of the CLI smokes) with one field doctored, so each failure message is
shown to fire on exactly the fault it names.
"""

import dataclasses
import re

import pytest

from repro.cli import (SCENARIOS_SMOKE_CPI_BOUND, SCENARIOS_SMOKE_RUNGS,
                       SMOKE_BUDGET_FRACTIONS, SMOKE_MULTIDOMAIN_FRACTIONS,
                       SMOKE_PLACEMENT_EPOCH_NS, SMOKE_PLACEMENT_PROFILE_NS,
                       SMOKE_SETTINGS)
from repro.config import scaled_config
from repro.scenarios.devices import device_names
from repro.sim.parallel import (KINDS, JobFailure, cap_specs,
                                multidomain_specs, outcome_table,
                                placement_specs, policy_specs, run_specs,
                                scenario_specs, split_outcomes)
from repro.sim.runner import RunnerSettings


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """kind -> (good outcomes, config) of that kind's smoke sweep."""
    cache = str(tmp_path_factory.mktemp("kinds_cache"))
    placement_config = scaled_config().with_policy(
        epoch_ns=SMOKE_PLACEMENT_EPOCH_NS,
        profile_ns=SMOKE_PLACEMENT_PROFILE_NS).with_placement(
        page_lines=32, migrations_per_epoch=4)
    scenario_config = scaled_config().with_policy(
        cpi_bound=SCENARIOS_SMOKE_CPI_BOUND)
    sweeps = {
        "policy": (policy_specs(["MID1"], ["MemScale", "Static"]),
                   scaled_config(), SMOKE_SETTINGS),
        "cap": (cap_specs(["MID1"], SMOKE_BUDGET_FRACTIONS),
                scaled_config(), SMOKE_SETTINGS),
        "multidomain": (multidomain_specs(["MID1"],
                                          SMOKE_MULTIDOMAIN_FRACTIONS),
                        scaled_config(), SMOKE_SETTINGS),
        "placement": (placement_specs(["MID1"]), placement_config,
                      RunnerSettings(cores=4, instructions_per_core=60_000,
                                     seed=2011)),
        "scenario": (scenario_specs(SCENARIOS_SMOKE_RUNGS,
                                    ("MemScale", "Static"), device_names()),
                     scenario_config, SMOKE_SETTINGS),
    }
    sets = {}
    for kind, (specs, config, settings) in sweeps.items():
        good, failed = split_outcomes(run_specs(
            specs, config=config, settings=settings, jobs=1,
            cache_dir=cache))
        assert not failed, failed
        sets[kind] = (good, config)
    return sets


def replace_at(outcomes, label, change):
    """``outcomes`` with the one labelled ``label`` replaced by
    ``change(outcome)``; the others are the same objects."""
    assert label in [o.spec.label for o in outcomes]
    return [change(o) if o.spec.label == label else o for o in outcomes]


def with_extras(o, **fields):
    return dataclasses.replace(o, extras=dict(o.extras, **fields))


def with_summary(o, key, **fields):
    """``o`` with fields of its ``extras[key]`` dict replaced."""
    return with_extras(o, **{key: dict(o.extras[key], **fields)})


def with_comparison(o, **fields):
    return dataclasses.replace(
        o, comparison=dataclasses.replace(o.comparison, **fields))


def with_result(o, **fields):
    return dataclasses.replace(o, result=dataclasses.replace(o.result,
                                                             **fields))


def check(smoke, kind, outcomes, strict):
    return KINDS[kind].check(outcomes, smoke[kind][1], strict)


def assert_one_failure(failures, label, message):
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{label}: "), failures
    assert message in failures[0], failures


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("strict", [False, True])
def test_smoke_outcomes_pass(smoke, kind, strict):
    good, config = smoke[kind]
    assert KINDS[kind].check(good, config, strict) == []


class TestPolicyCheck:
    CASES = [
        (with_result, {"epochs": 0}, "no epochs simulated"),
        (with_comparison, {"system_energy_savings": 1.5},
         "implausible savings +150.0%"),
        (with_comparison, {"memory_energy_savings": 0.0},
         "no memory savings"),
    ]

    @pytest.mark.parametrize("change,fields,message", CASES,
                             ids=["epochs", "plausible", "savings"])
    def test_strict_claims(self, smoke, change, fields, message):
        doctored = replace_at(smoke["policy"][0], "MID1/MemScale",
                              lambda o: change(o, **fields))
        assert_one_failure(check(smoke, "policy", doctored, True),
                           "MID1/MemScale", message)
        assert check(smoke, "policy", doctored, False) == []


class TestCapCheck:
    def test_ledger_with_no_epochs(self, smoke):
        doctored = replace_at(
            smoke["cap"][0], "MID1/Cap0.90",
            lambda o: with_summary(o, "cap", epochs_accounted=0))
        for strict in (False, True):
            assert_one_failure(check(smoke, "cap", doctored, strict),
                               "MID1/Cap0.90", "ledger accounted no epochs")

    def test_silent_overshoot(self, smoke):
        doctored = replace_at(
            smoke["cap"][0], "MID1/Cap0.75",
            lambda o: with_summary(o, "cap", violation_count=0,
                                   peak_power_w=2 * o.extras["budget_w"]))
        assert_one_failure(check(smoke, "cap", doctored, False),
                           "MID1/Cap0.75", "silent overshoot")

    def test_recorded_overshoot_is_not_silent(self, smoke):
        doctored = replace_at(
            smoke["cap"][0], "MID1/Cap0.75",
            lambda o: with_summary(o, "cap", violation_count=2,
                                   peak_power_w=2 * o.extras["budget_w"]))
        assert check(smoke, "cap", doctored, True) == []

    def test_less_fair_than_throttle(self, smoke):
        doctored = replace_at(smoke["cap"][0], "MID1/Cap0.90",
                              lambda o: with_extras(o, min_perf=0.5))
        assert_one_failure(check(smoke, "cap", doctored, False),
                           "MID1/Cap0.90", "below the throttle reference")


class TestMultiDomainCheck:
    def test_ledger_with_no_epochs(self, smoke):
        doctored = replace_at(
            smoke["multidomain"][0], "MID1/MD0.80",
            lambda o: with_summary(o, "summary", epochs_accounted=0))
        assert_one_failure(check(smoke, "multidomain", doctored, False),
                           "MID1/MD0.80", "ledger accounted no epochs")

    def test_budget_violations(self, smoke):
        doctored = replace_at(
            smoke["multidomain"][0], "MID1/MD0.80",
            lambda o: with_summary(o, "summary", violation_count=3))
        assert_one_failure(check(smoke, "multidomain", doctored, False),
                           "MID1/MD0.80",
                           "3 epochs exceeded the global budget")

    def test_loses_to_memory_only(self, smoke):
        doctored = replace_at(
            smoke["multidomain"][0], "MID1/MD0.80",
            lambda o: with_extras(
                o, system_energy_j=2 * o.extras["system_energy_j"]))
        assert_one_failure(check(smoke, "multidomain", doctored, False),
                           "MID1/MD0.80",
                           "does not beat the memory-only reference")

    STRICT_CASES = [
        ({"core_max_infeasible_epochs": 0},
         "budget never infeasible for nominal cores alone"),
        ({"mem_max_infeasible_epochs": 0},
         "budget never infeasible for max-frequency memory alone"),
        ({"infeasible_epochs": 10 ** 9},
         "governor found no feasible (core, memory) pair"),
    ]

    @pytest.mark.parametrize("fields,message", STRICT_CASES,
                             ids=["cores", "memory", "feasible"])
    def test_strict_coordinated_split(self, smoke, fields, message):
        # The claim is about the tightest budget of the sweep.
        doctored = replace_at(
            smoke["multidomain"][0], "MID1/MD0.55",
            lambda o: with_summary(o, "summary", **fields))
        assert_one_failure(check(smoke, "multidomain", doctored, True),
                           "MID1/MD0.55", message)
        assert check(smoke, "multidomain", doctored, False) == []


class TestPlacementCheck:
    def test_loses_to_plain_memscale(self, smoke):
        doctored = replace_at(
            smoke["placement"][0], "MID1/Placed",
            lambda o: with_result(o, energy_j={
                k: 2 * v for k, v in o.result.energy_j.items()}))
        assert_one_failure(check(smoke, "placement", doctored, False),
                           "MID1/Placed", "does not beat plain MemScale")

    def test_close_energies_are_told_apart(self, smoke):
        # Both legs near 4.2e-5 J, the placed one 2e-5 (relative) above:
        # four decimals would print 0.0000 for both, in the cells and
        # in the message.
        target = {"MID1/NoPlacement": 4.2e-5,
                  "MID1/Placed": 4.2e-5 * (1 + 2e-5)}

        def scaled(o):
            factor = target[o.spec.label] / o.result.memory_energy_j
            return with_result(o, energy_j={
                k: factor * v for k, v in o.result.energy_j.items()})

        doctored = [scaled(o) for o in smoke["placement"][0]]
        failures = check(smoke, "placement", doctored, False)
        assert_one_failure(failures, "MID1/Placed",
                           "does not beat plain MemScale")
        mine, ref, gap = re.search(
            r"energy (\S+)J does not beat plain MemScale (\S+)J "
            r"\((\S+)% above\)", failures[0]).groups()
        assert mine != ref
        assert float(gap) == pytest.approx(2e-3, rel=0.05)
        lines = outcome_table(doctored, None).splitlines()
        column = cells(lines[0]).index("mem energy (J)")
        joules = [cells(line)[column] for line in lines[2:]]
        assert len(joules) == 2 and "0.0000" not in joules
        assert all(float(j) == pytest.approx(4.2e-5, rel=1e-3)
                   for j in joules), joules

    def test_cpi_beyond_bound_and_slack(self, smoke):
        doctored = replace_at(
            smoke["placement"][0], "MID1/Placed",
            lambda o: with_comparison(o, worst_cpi_increase=0.5))
        assert_one_failure(check(smoke, "placement", doctored, False),
                           "MID1/Placed",
                           "worst CPI increase +50.0% exceeds the bound "
                           "10.0% plus 5.0% slack")

    STRICT_CASES = [
        ({"parked_ranks": 0}, "no rank ever entered self-refresh"),
        ({"migrations": 0}, "no page was ever migrated"),
        ({"backlog": 10 ** 6}, "migration copy ledger does not conserve"),
    ]

    @pytest.mark.parametrize("fields,message", STRICT_CASES,
                             ids=["parked", "migrated", "ledger"])
    def test_strict_engagement(self, smoke, fields, message):
        doctored = replace_at(
            smoke["placement"][0], "MID1/Placed",
            lambda o: with_summary(o, "placement", **fields))
        assert_one_failure(check(smoke, "placement", doctored, True),
                           "MID1/Placed", message)
        assert check(smoke, "placement", doctored, False) == []


class TestScenarioCheck:
    def test_memscale_never_beats_static(self, smoke):
        # MemScale over the CPI bound on every rung of one device: it
        # never qualifies, so it beats Static nowhere on that table.
        doctored = smoke["scenario"][0]
        for rung in SCENARIOS_SMOKE_RUNGS:
            doctored = replace_at(
                doctored, f"{rung}/MemScale@ddr3l",
                lambda o: with_comparison(o, worst_cpi_increase=0.5))
        failures = check(smoke, "scenario", doctored, True)
        assert failures == ["ddr3l: MemScale beat Static on no ladder "
                            "rung (within the 5% CPI bound)"]
        assert check(smoke, "scenario", doctored, False) == []

    def test_no_standby_shift(self, smoke):
        doctored = smoke["scenario"][0]
        for rung in SCENARIOS_SMOKE_RUNGS:
            for policy in ("MemScale", "Static"):
                doctored = replace_at(
                    doctored, f"{rung}/{policy}@stt-mram",
                    lambda o: with_extras(o, background_share=0.99))
        failures = check(smoke, "scenario", doctored, True)
        assert len(failures) == 1
        assert failures[0].startswith("stt-mram standby share 99.0% is "
                                      "not below ddr3-1333's")
        assert check(smoke, "scenario", doctored, False) == []

    def test_devices_come_from_the_outcomes(self, smoke):
        ddr3 = [o for o in smoke["scenario"][0]
                if o.spec.device == "ddr3-1333"]
        assert check(smoke, "scenario", ddr3, True) == []


def cells(line):
    """A rendered table line split into its cells."""
    return re.split(r"\s{2,}", line.strip())


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestOutcomeTable:
    def test_headers_are_the_kind_columns(self, smoke, kind):
        good = smoke[kind][0]
        lines = outcome_table(good, "title").splitlines()
        assert lines[0] == "title"
        assert cells(lines[1]) == [h for h, _, _ in KINDS[kind].columns]
        assert len(lines) == 3 + len(good)

    def test_failure_renders_as_failed_row(self, smoke, kind):
        good = smoke[kind][0]
        spec = good[0].spec
        failure = JobFailure(job=spec, label=spec.label,
                             error_type="ValueError", message="boom")
        lines = outcome_table([failure] + good, None).splitlines()
        width = len(KINDS[kind].columns)
        assert cells(lines[2]) == ([spec.mix, spec.point, "FAILED",
                                    "ValueError"] + ["-"] * (width - 4))
        assert len(lines) == 3 + len(good)


NONE_CELLS = {
    # kind: (label, doctoring or None for a natural None, header)
    "policy": ("MID1/MemScale",
               lambda o: with_comparison(o, worst_cpi_increase=None),
               "worst CPI"),
    "cap": ("MID1/Throttle", None, "cap W"),
    "multidomain": ("MID1/MemOnly0.80", None, "core MHz"),
    "placement": ("MID1/NoPlacement", None, "migrations"),
    "scenario": ("mix2/MemScale@stt-mram",
                 lambda o: with_extras(o, background_share=None),
                 "standby"),
}


@pytest.mark.parametrize("kind", sorted(NONE_CELLS))
def test_none_cell_renders_as_dash(smoke, kind):
    label, change, header = NONE_CELLS[kind]
    good = smoke[kind][0]
    if change is not None:
        good = replace_at(good, label, change)
    lines = outcome_table(good, None).splitlines()
    column = cells(lines[0]).index(header)
    index = [o.spec.label for o in good].index(label)
    assert cells(lines[2 + index])[column] == "-"


def test_empty_input_is_rejected():
    with pytest.raises(ValueError, match="no outcomes"):
        outcome_table([], "title")


@pytest.mark.parametrize("kind,governor", [("cap", "Static-"),
                                           ("multidomain", "Cap-")])
def test_notes_name_rows_the_table_prints(smoke, kind, governor):
    # The reference legs print under their governor names, which the
    # notes under the table must use.
    assert f"{governor}<" in KINDS[kind].notes
    table = outcome_table(smoke[kind][0], None)
    assert any(cells(line)[1].startswith(governor)
               for line in table.splitlines()[2:])


def test_only_policy_has_no_notes():
    assert [kind for kind in KINDS if not KINDS[kind].notes] == ["policy"]
