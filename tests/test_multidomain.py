"""Tests for multi-domain coordinated DVFS (core/cpu_power.py +
cap/multidomain.py).

The load-bearing piece is the hypothesis property: over randomized
profiles and global budgets, the joint allocator never selects a
(core, memory) pair above the budget when any pair fits — which is what
makes the governor's zero-violation ledger a guarantee rather than an
accident of the smoke mix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cap import MultiDomainAllocator, MultiDomainGovernor, PowerBudget
from repro.config import scaled_config
from repro.core.cpu_power import (CORE_FREQ_STEPS, CoreDvfsConfig,
                                  CoreFrequencyLadder, CorePowerModel)
from repro.core.energy_model import EnergyModel
from repro.core.frequency import FrequencyLadder
from repro.core.perf_model import PerformanceModel
from repro.sim import ListTelemetry
from repro.sim.runner import ExperimentRunner, RunnerSettings
from tests.conftest import make_delta

CFG = scaled_config()
LADDER = FrequencyLadder(CFG)
ALLOC = MultiDomainAllocator(CFG, EnergyModel(CFG, rest_power_w=40.0),
                             n_cores=4)

SETTINGS = RunnerSettings(cores=4, instructions_per_core=8_000, seed=2011)


def delta_for(tlm=20.0, busy_frac=0.2, reads=90.0, writes=10.0):
    return make_delta(CFG, tlm_per_core=tlm, busy_frac=busy_frac,
                      reads=reads, writes=writes)


class TestCoreDvfsConfig:
    def test_defaults_validate(self):
        CoreDvfsConfig().validate()

    def test_first_step_must_be_nominal(self):
        with pytest.raises(ValueError, match="1.0"):
            CoreDvfsConfig(freq_steps=(0.9, 0.8)).validate()

    def test_steps_must_descend(self):
        with pytest.raises(ValueError, match="descending"):
            CoreDvfsConfig(freq_steps=(1.0, 0.8, 0.9)).validate()

    def test_duplicate_steps_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CoreDvfsConfig(freq_steps=(1.0, 0.8, 0.8)).validate()

    def test_voltage_ordering_enforced(self):
        with pytest.raises(ValueError, match="vmin"):
            CoreDvfsConfig(vmin=1.2, vmax=1.0).validate()

    def test_idle_frac_bounds(self):
        with pytest.raises(ValueError, match="idle_frac"):
            CoreDvfsConfig(idle_frac=1.5).validate()


class TestCoreFrequencyLadder:
    def test_points_descend_from_nominal(self):
        ladder = CoreFrequencyLadder(CoreDvfsConfig(), 4000.0)
        freqs = [p.freq_mhz for p in ladder]
        assert freqs[0] == 4000.0
        assert freqs == sorted(freqs, reverse=True)
        assert len(ladder) == len(CORE_FREQ_STEPS)
        assert ladder.fastest.index == 0
        assert ladder.slowest.index == len(ladder) - 1

    def test_voltage_interpolates_between_vmin_and_vmax(self):
        dvfs = CoreDvfsConfig(vmin=0.75, vmax=1.10)
        ladder = CoreFrequencyLadder(dvfs, 4000.0)
        assert ladder.fastest.voltage == pytest.approx(1.10)
        assert ladder.slowest.voltage == pytest.approx(0.75)
        volts = [p.voltage for p in ladder]
        assert volts == sorted(volts, reverse=True)

    def test_single_step_ladder_uses_vmax(self):
        ladder = CoreFrequencyLadder(CoreDvfsConfig(freq_steps=(1.0,)),
                                     4000.0)
        assert len(ladder) == 1
        assert ladder.fastest.voltage == pytest.approx(1.10)


class TestCorePowerModel:
    def test_power_scales_with_v2f(self):
        model = CorePowerModel(CFG)
        nominal = model.nominal
        slowest = model.ladder.slowest
        p_hi = model.core_power_w(0.5, nominal)
        p_lo = model.core_power_w(0.5, slowest)
        expected = ((slowest.voltage ** 2) * slowest.freq_mhz
                    / ((nominal.voltage ** 2) * nominal.freq_mhz))
        assert p_lo / p_hi == pytest.approx(expected)

    def test_power_linear_in_utilization_between_idle_and_peak(self):
        model = CorePowerModel(CFG)
        d = model.dvfs
        idle = model.core_power_w(0.0, model.nominal)
        peak = model.core_power_w(1.0, model.nominal)
        assert idle == pytest.approx(d.peak_w_per_core * d.idle_frac)
        assert peak == pytest.approx(d.peak_w_per_core)
        mid = model.core_power_w(0.5, model.nominal)
        assert mid == pytest.approx((idle + peak) / 2)

    def test_utilization_clamped_to_unity(self):
        model = CorePowerModel(CFG)
        assert model.core_power_w(3.0, model.nominal) == \
            model.core_power_w(1.0, model.nominal)
        delta = make_delta(CFG, tic_per_core=1e9)
        assert model.utilizations(delta) == [1.0] * 4

    def test_predicted_cpi_stretches_only_compute_term(self):
        model = CorePowerModel(CFG)
        perf = PerformanceModel(CFG)
        delta = delta_for()
        tpi_mem = 40.0
        cpi_fast = perf.cpi(delta, tpi_mem, model.tpi_cpu_ns(model.nominal))
        cpi_slow = perf.cpi(delta, tpi_mem,
                            model.tpi_cpu_ns(model.ladder.slowest))
        # The memory term (alpha * tpi_mem) is identical; the compute
        # term doubles at half the clock.
        cycle = CFG.cpu.cycle_ns
        for core in range(4):
            alpha = delta.tlm[core] / delta.tic[core]
            mem_cycles = alpha * tpi_mem / cycle
            compute_fast = cpi_fast[core] - mem_cycles
            compute_slow = cpi_slow[core] - mem_cycles
            assert compute_slow == pytest.approx(2.0 * compute_fast)

    def test_cluster_power_sums_cores(self):
        model = CorePowerModel(CFG)
        utils = [0.1, 0.2, 0.3, 0.4]
        total = model.cluster_power_w(utils, model.nominal)
        assert total == pytest.approx(sum(
            model.core_power_w(u, model.nominal) for u in utils))


class TestMultiDomainCandidates:
    def test_crosses_core_ladder_with_memory_candidates(self):
        delta = delta_for()
        mem_cands = ALLOC.mem_allocator.candidates(delta, LADDER.fastest)
        cands = ALLOC.candidates(delta, LADDER.fastest)
        assert len(cands) == len(mem_cands) * len(ALLOC.core_ladder)

    def test_nominal_pair_is_reference(self):
        """Cores at nominal with the fastest memory is the slowdown
        reference: its min_perf is 1 and it meets any non-negative
        bound."""
        cands = ALLOC.candidates(delta_for(), LADDER.fastest)
        ref = [c for c in cands
               if c.core_point.index == 0
               and c.mem.global_point.index == 0
               and c.mem.channel_bus_mhz is None]
        assert len(ref) == 1
        assert ref[0].min_perf == pytest.approx(1.0)
        assert ref[0].meets_bound

    def test_slower_pairs_cost_less_power(self):
        cands = ALLOC.candidates(delta_for(), LADDER.fastest)
        fastest = max(cands, key=lambda c: (c.core_point.freq_mhz,
                                            c.mem.global_point.bus_mhz))
        cheapest = min(cands, key=lambda c: c.total_power_w)
        assert cheapest.total_power_w < fastest.total_power_w
        assert cheapest.core_point.index > 0

    def test_total_power_is_core_plus_memory(self):
        for c in ALLOC.candidates(delta_for(), LADDER.fastest):
            assert c.total_power_w == pytest.approx(
                c.core_power_w + c.mem.predicted_power_w)


class TestMultiDomainAllocation:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget_w"):
            ALLOC.allocate(delta_for(), LADDER.fastest, 0.0)

    def test_loose_budget_meets_bound_at_min_energy(self):
        delta = delta_for()
        cands = ALLOC.candidates(delta, LADDER.fastest)
        budget = max(c.total_power_w for c in cands) + 1.0
        a = ALLOC.allocate(delta, LADDER.fastest, budget)
        assert a.feasible and a.bound_met
        bound_ok = [c for c in cands if c.meets_bound]
        assert a.chosen.energy_score == min(c.energy_score
                                            for c in bound_ok)

    def test_impossible_budget_degrades_to_cheapest(self):
        delta = delta_for()
        cands = ALLOC.candidates(delta, LADDER.fastest)
        a = ALLOC.allocate(delta, LADDER.fastest, 1e-3)
        assert not a.feasible
        assert a.core_max_infeasible and a.mem_max_infeasible
        assert a.total_power_w == min(c.total_power_w for c in cands)

    def test_per_domain_infeasibility_flags(self):
        delta = delta_for()
        cands = ALLOC.candidates(delta, LADDER.fastest)
        core_max_min = min(c.total_power_w for c in cands
                           if c.core_point.index == 0)
        mem_max_min = min(c.total_power_w for c in cands
                          if c.mem.global_point.index == 0
                          and c.mem.channel_bus_mhz is None)
        # A budget between the cheapest pair and both single-domain-max
        # floors: only a coordinated split fits.
        tight = min(core_max_min, mem_max_min) - 1e-6
        cheapest = min(c.total_power_w for c in cands)
        assert cheapest < tight  # the regime exists for this profile
        a = ALLOC.allocate(delta, LADDER.fastest, tight)
        assert a.feasible
        assert a.core_max_infeasible or a.mem_max_infeasible
        assert a.core_point.index > 0 or a.global_point.index > 0

    def test_budget_split_sums_to_total(self):
        a = ALLOC.allocate(delta_for(), LADDER.fastest, 30.0)
        split = a.budget_split
        assert split["core_w"] + split["memory_w"] == \
            pytest.approx(a.total_power_w)


@given(
    tlm=st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
    busy_frac=st.floats(min_value=0.0, max_value=0.8, allow_nan=False),
    writes=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    budget_quantile=st.floats(min_value=-0.2, max_value=1.2,
                              allow_nan=False),
    start_index=st.integers(min_value=0, max_value=len(LADDER) - 1),
)
@settings(max_examples=40, deadline=None)
def test_never_exceeds_global_budget_when_feasible_split_exists(
        tlm, busy_frac, writes, budget_quantile, start_index):
    """The acceptance property: for any profile and any global budget,
    if some (core, memory) pair fits, the allocation is feasible and its
    total predicted power is within the budget — so the governor built
    on it never *chooses* to exceed the global budget."""
    delta = delta_for(tlm=tlm, busy_frac=busy_frac, writes=writes)
    current = LADDER[start_index]
    cands = ALLOC.candidates(delta, current)
    powers = sorted(c.total_power_w for c in cands)
    lo, hi = powers[0], powers[-1]
    budget = max(1e-6, lo + (hi - lo) * budget_quantile)

    a = ALLOC.allocate(delta, current, budget)
    feasible = [c for c in cands if c.total_power_w <= budget]
    if feasible:
        assert a.feasible
        assert a.total_power_w <= budget
        bound_ok = [c for c in feasible if c.meets_bound]
        if bound_ok:
            assert a.bound_met
            assert a.chosen.energy_score == min(c.energy_score
                                                for c in bound_ok)
        else:
            assert a.min_perf == max(c.min_perf for c in feasible)
    else:
        assert not a.feasible
        assert a.total_power_w == powers[0]


class TestMultiDomainGovernor:
    @pytest.fixture(scope="class")
    def md_runner(self):
        return ExperimentRunner(settings=SETTINGS)

    def test_name_carries_budget(self, md_runner):
        governor = md_runner.make_multidomain_governor(
            "MID1", budget_fraction=0.8)
        assert governor.name.startswith("MultiDomain-")
        assert f"{governor.budget.min_watts:.2f}W" in governor.name

    def test_requires_exactly_one_budget_form(self, md_runner):
        with pytest.raises(ValueError, match="exactly one"):
            md_runner.make_multidomain_governor("MID1")
        with pytest.raises(ValueError, match="exactly one"):
            md_runner.make_multidomain_governor("MID1", budget_w=30.0,
                                                budget_fraction=0.8)

    def test_run_ledger_clean_under_feasible_budget(self, md_runner):
        governor = md_runner.make_multidomain_governor(
            "MID1", budget_fraction=0.8)
        md_runner.run_governor("MID1", governor)
        summary = governor.multidomain_summary()
        assert summary["epochs_accounted"] > 0
        assert summary["violation_count"] == 0
        assert summary["infeasible_epochs"] == 0
        assert summary["avg_core_mhz"] is not None
        assert summary["core_energy_j"] > 0
        assert summary["avg_core_power_w"] > 0

    def test_tight_budget_slows_cores(self, md_runner):
        """At a budget infeasible for either domain alone, the governor
        picks a coordinated split (cores below nominal) and still keeps
        the ledger clean."""
        governor = md_runner.make_multidomain_governor(
            "MID1", budget_fraction=0.55)
        md_runner.run_governor("MID1", governor)
        summary = governor.multidomain_summary()
        assert summary["core_max_infeasible_epochs"] > 0
        assert summary["mem_max_infeasible_epochs"] > 0
        assert summary["epochs_decided"] > summary["infeasible_epochs"]
        assert summary["violation_count"] == 0
        assert summary["avg_core_mhz"] < CFG.cpu.freq_mhz

    def test_frequency_log_has_both_domains(self, md_runner):
        governor = md_runner.make_multidomain_governor(
            "MID1", budget_fraction=0.8)
        md_runner.run_governor("MID1", governor)
        assert governor.frequency_log
        for t_ns, bus_mhz, core_mhz in governor.frequency_log:
            assert bus_mhz in [p.bus_mhz for p in LADDER]
            assert core_mhz in [p.freq_mhz
                                for p in governor.allocator.core_ladder]

    def test_snapshot_empty_before_first_decision(self, md_runner):
        governor = md_runner.make_multidomain_governor(
            "MID1", budget_fraction=0.8)
        assert governor.telemetry_snapshot() == {}

    def test_telemetry_carries_per_domain_fields(self, md_runner):
        governor = md_runner.make_multidomain_governor(
            "MID1", budget_fraction=0.8)
        sink = ListTelemetry()
        md_runner.run_governor("MID1", governor, telemetry=sink)
        decided = [r for r in sink.records
                   if r["core_freq_mhz"] is not None]
        assert decided, "no epoch carried multi-domain state"
        for record in decided:
            assert record["core_power_w"] > 0
            split = record["domain_budget_split"]
            assert set(split) == {"core_w", "memory_w"}
            assert record["budget_w"] == pytest.approx(
                governor.budget.min_watts)
            assert record["cap_feasible"] in (True, False)

    def test_memory_timeline_matches_cap_governor_decisions(self, md_runner):
        """The core domain is analytical: a multi-domain run programs
        only the memory side, so its simulated result is identical to
        re-running the same memory decisions without the core model."""
        governor = md_runner.make_multidomain_governor(
            "MID1", budget_fraction=0.8)
        result = md_runner.run_governor("MID1", governor)
        assert result.epochs > 0
        assert result.sim_time_ns > 0
