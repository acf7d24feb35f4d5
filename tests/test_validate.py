"""Tests for the runtime DDR3 protocol validator (memsim/validate.py).

Three layers:

* unit tests driving each constraint checker directly with hand-built
  illegal command sequences (collect mode, so several violations can be
  inspected);
* validator-pinned regressions reproducing the exact pre-fix behavior of
  the PR-2 bugfixes as hook sequences and asserting the validator flags
  them;
* property-based tests (hypothesis) replaying randomized address
  streams x powerdown modes x row policies x mid-run frequency switches
  against a real armed controller, asserting zero violations — plus
  armed full-system runs (MemScale smoke, 4-frequency static ladder).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import scaled_config
from repro.core.frequency import FrequencyLadder
from repro.memsim.address import MemoryLocation
from repro.memsim.controller import (
    MemoryController,
    WRITEBACK_QUEUE_CAPACITY,
)
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest, RequestKind
from repro.memsim.states import PowerdownMode, RankPowerState
from repro.memsim.timing import AccessClass
from repro.memsim.validate import (
    ProtocolValidator,
    ProtocolViolation,
    Violation,
)

CFG = scaled_config()
LADDER = FrequencyLadder(CFG)
T = CFG.timings
T_REFI = T.t_refi_ns


def make_validator(mode="collect"):
    return ProtocolValidator(CFG, mode=mode)


def make_request(kind=RequestKind.READ, channel=0, rank=0, bank=0, row=0):
    return MemRequest(kind, MemoryLocation(channel=channel, rank=rank,
                                           bank=bank, row=row, column=0))


def service(v, time_ns, channel=0, rank=0, bank=0, row=0,
            access=AccessClass.CLOSED_BANK_MISS):
    """Drive one service-start hook with a legal closed-bank activate."""
    request = make_request(channel=channel, rank=rank, bank=bank, row=row)
    request.act_ns = time_ns
    v.on_service_start(channel, rank, bank, request, access, time_ns,
                       time_ns + T.t_rcd_ns + T.t_cl_ns)
    return request


def rules(v):
    return [violation.rule for violation in v.violations]


class TestViolationPlumbing:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ProtocolValidator(CFG, mode="warn")

    def test_collect_mode_accumulates(self):
        v = make_validator()
        service(v, 0.0, bank=0)
        service(v, 1.0, bank=1)  # tRRD violation: gap 1 < 5
        assert v.violation_count == 1
        assert rules(v) == ["tRRD"]

    def test_raise_mode_raises_structured(self):
        v = make_validator(mode="raise")
        service(v, 0.0, bank=0)
        with pytest.raises(ProtocolViolation) as exc:
            service(v, 1.0, bank=1)
        assert exc.value.violation.rule == "tRRD"
        assert exc.value.violation.required_ns == pytest.approx(T.t_rrd_ns)
        assert exc.value.violation.actual_ns == pytest.approx(1.0)
        assert "tRRD" in str(exc.value)

    def test_report_schema(self):
        v = make_validator()
        service(v, 0.0, bank=0)
        service(v, 1.0, bank=1)
        report = v.report()
        assert report["schema"] == 1
        assert report["mode"] == "collect"
        assert report["violation_count"] == 1
        assert report["checks"]["tRRD"] >= 1
        entry = report["violations"][0]
        assert entry["rule"] == "tRRD"
        assert entry["rank"] == 0

    def test_violation_to_dict_omits_none(self):
        violation = Violation(rule="tFAW", time_ns=1.0, message="m", rank=2)
        d = violation.to_dict()
        assert d == {"rule": "tFAW", "time_ns": 1.0, "message": "m",
                     "rank": 2}


class TestBankConstraints:
    def test_trrd_spacing_enforced(self):
        v = make_validator()
        service(v, 100.0, bank=0)
        service(v, 100.0 + T.t_rrd_ns - 1.0, bank=1)
        assert rules(v) == ["tRRD"]

    def test_trrd_exact_gap_is_legal(self):
        v = make_validator()
        service(v, 100.0, bank=0)
        service(v, 100.0 + T.t_rrd_ns, bank=1)
        assert v.violation_count == 0

    def test_tfaw_window_enforced(self):
        v = make_validator()
        # four activates spaced exactly tRRD apart, then a fifth inside
        # the 4-activate window (gaps satisfy tRRD so only tFAW fires)
        for i in range(4):
            service(v, i * (T.t_rrd_ns + 1.0), bank=i)
        fifth = 3 * (T.t_rrd_ns + 1.0) + T.t_rrd_ns + 1.0
        assert fifth < T.t_faw_ns
        service(v, fifth, bank=4)
        assert rules(v) == ["tFAW"]

    def test_trc_same_bank_enforced(self):
        v = make_validator()
        service(v, 0.0, bank=0, row=0)
        # open-row miss on the same bank re-activates before tRC elapsed
        request = make_request(bank=0, row=1)
        request.act_ns = T.t_rp_ns + 5.0  # inline tRP satisfied, tRC not
        v.on_service_start(0, 0, 0, request, AccessClass.OPEN_ROW_MISS,
                           0.0, request.act_ns + T.t_rcd_ns + T.t_cl_ns)
        assert "tRC" in rules(v)

    def test_tras_before_precharge_enforced(self):
        v = make_validator()
        service(v, 0.0, bank=0)
        v.on_precharge(0, 0, 0, T.t_ras_ns - 5.0,
                       T.t_ras_ns - 5.0 + T.t_rp_ns)
        assert rules(v) == ["tRAS"]

    def test_trp_duration_enforced(self):
        v = make_validator()
        service(v, 0.0, bank=0)
        v.on_precharge(0, 0, 0, T.t_ras_ns, T.t_ras_ns + T.t_rp_ns - 2.0)
        assert rules(v) == ["tRP"]

    def test_activate_before_precharge_end_enforced(self):
        v = make_validator()
        service(v, 0.0, bank=0)
        pre_end = T.t_ras_ns + T.t_rp_ns
        v.on_precharge(0, 0, 0, T.t_ras_ns, pre_end)
        service(v, pre_end - 1.0, bank=0)
        assert "tRP" in rules(v)

    def test_trcd_data_ready_enforced(self):
        v = make_validator()
        request = make_request()
        request.act_ns = 0.0
        v.on_service_start(0, 0, 0, request, AccessClass.CLOSED_BANK_MISS,
                           0.0, T.t_rcd_ns + T.t_cl_ns - 1.0)
        assert "tRCD" in rules(v)

    def test_row_hit_tcl_enforced(self):
        v = make_validator()
        service(v, 0.0, bank=0, row=7)
        request = make_request(bank=0, row=7)
        v.on_service_start(0, 0, 0, request, AccessClass.ROW_HIT,
                           100.0, 100.0 + T.t_cl_ns - 2.0)
        assert "tCL" in rules(v)

    def test_row_state_consistency(self):
        v = make_validator()
        # claiming a row hit with no open row is inconsistent
        request = make_request(bank=0, row=3)
        v.on_service_start(0, 0, 0, request, AccessClass.ROW_HIT,
                           0.0, T.t_cl_ns)
        assert "row-state" in rules(v)

    def test_row_state_tracks_precharge(self):
        v = make_validator()
        service(v, 0.0, bank=0, row=3)
        v.on_precharge(0, 0, 0, T.t_ras_ns, T.t_ras_ns + T.t_rp_ns)
        # after the precharge the bank is closed: a row hit is illegal...
        request = make_request(bank=0, row=3)
        v.on_service_start(0, 0, 0, request, AccessClass.ROW_HIT,
                           100.0, 100.0 + T.t_cl_ns)
        assert "row-state" in rules(v)


class TestChannelConstraints:
    def test_bus_overlap_detected(self):
        v = make_validator()
        a, b = make_request(), make_request(bank=1)
        a.bank_done_ns = 0.0
        b.bank_done_ns = 0.0
        v.on_burst(0, a, 0.0, 5.0)
        v.on_burst(0, b, 3.0, 8.0)
        assert "bus-overlap" in rules(v)

    def test_distinct_channels_may_overlap(self):
        v = make_validator()
        a, b = make_request(channel=0), make_request(channel=1)
        a.bank_done_ns = 0.0
        b.bank_done_ns = 0.0
        v.on_burst(0, a, 0.0, 5.0)
        v.on_burst(1, b, 3.0, 8.0)
        assert v.violation_count == 0

    def test_burst_before_bank_done_detected(self):
        v = make_validator()
        a = make_request()
        a.bank_done_ns = 10.0
        v.on_burst(0, a, 5.0, 10.0)
        assert "bus-order" in rules(v)

    def test_burst_length_matches_channel_clock(self):
        v = make_validator()
        v.on_global_freeze(0.0, LADDER.fastest)  # 800 MHz: burst 5 ns
        a = make_request()
        a.bank_done_ns = 0.0
        v.on_burst(0, a, 10.0, 30.0)  # 20 ns is the 200 MHz burst
        assert "burst-length" in rules(v)


class TestFreezeWindows:
    def test_service_inside_global_freeze_detected(self):
        v = make_validator()
        v.on_global_freeze(100.0, LADDER.at_bus_mhz(400.0))
        service(v, 50.0)
        assert "freeze-service" in rules(v)

    def test_burst_inside_channel_freeze_detected(self):
        v = make_validator()
        point = LADDER.at_bus_mhz(200.0)
        v.on_channel_freeze(2, 100.0, point)
        a = make_request(channel=2)
        a.bank_done_ns = 0.0
        v.on_burst(2, a, 50.0, 50.0 + point.burst_ns)
        assert "freeze-burst" in rules(v)

    def test_channel_freeze_does_not_gate_other_channels(self):
        v = make_validator()
        v.on_channel_freeze(2, 100.0, LADDER.at_bus_mhz(200.0))
        service(v, 10.0, channel=0)
        assert v.violation_count == 0

    def test_freeze_cleared_forgets_windows(self):
        v = make_validator()
        v.on_global_freeze(100.0, LADDER.at_bus_mhz(400.0))
        v.on_freeze_cleared()
        service(v, 10.0)
        assert v.violation_count == 0

    def test_mc_latency_swallowed_by_freeze_detected(self):
        """The exact pre-fix `submit` bug: a request submitted during a
        freeze window arrived at freeze-end, paying no MC latency."""
        v = make_validator()
        point = LADDER.at_bus_mhz(400.0)
        v.on_global_freeze(100.0, point)
        request = make_request()
        v.on_submit(request, 50.0, point.mc_latency_ns)
        v.on_arrive(request, 100.0)  # pre-fix arrival: max(latency, freeze)
        assert rules(v) == ["mc-latency"]

    def test_mc_latency_after_freeze_is_legal(self):
        v = make_validator()
        point = LADDER.at_bus_mhz(400.0)
        v.on_global_freeze(100.0, point)
        request = make_request()
        v.on_submit(request, 50.0, point.mc_latency_ns)
        v.on_arrive(request, 100.0 + point.mc_latency_ns)
        assert v.violation_count == 0


class TestRefreshConstraints:
    def test_first_due_past_trefi_detected(self):
        """The exact pre-fix stagger bug: rank k's first refresh timer
        fired at tREFI + k/16 * tREFI, beyond the refresh interval."""
        v = make_validator()
        v.on_refresh_due(3, T_REFI + 3.0 / 16.0 * T_REFI)
        assert rules(v) == ["refresh-cadence"]

    def test_first_due_within_trefi_is_legal(self):
        v = make_validator()
        v.on_refresh_due(3, T_REFI - 3.0 / 16.0 * T_REFI)
        assert v.violation_count == 0

    def test_timer_gap_beyond_trefi_detected(self):
        v = make_validator()
        v.on_refresh_due(0, 0.5 * T_REFI)
        v.on_refresh_due(0, 2.0 * T_REFI)
        assert "refresh-cadence" in rules(v)

    def test_refresh_overlap_detected(self):
        v = make_validator()
        v.on_refresh_issue(0, 0.0, T.t_rfc_ns, False)
        v.on_refresh_issue(0, T.t_rfc_ns / 2.0, 1.5 * T.t_rfc_ns, False)
        assert "refresh-overlap" in rules(v)

    def test_short_refresh_cycle_detected(self):
        v = make_validator()
        v.on_refresh_issue(0, 0.0, T.t_rfc_ns - 10.0, False)
        assert "tRFC" in rules(v)

    def test_service_inside_refresh_window_detected(self):
        v = make_validator()
        v.on_refresh_issue(0, 0.0, T.t_rfc_ns, False)
        service(v, T.t_rfc_ns / 2.0, rank=0)
        assert "refresh-window" in rules(v)

    def test_issue_gap_within_postponement_budget_is_legal(self):
        v = make_validator()
        v.on_refresh_issue(0, 0.0, T.t_rfc_ns, False)
        v.on_refresh_issue(0, 5.0 * T_REFI, 5.0 * T_REFI + T.t_rfc_ns, False)
        assert v.violation_count == 0

    def test_issue_gap_beyond_postponement_budget_detected(self):
        v = make_validator()
        v.on_refresh_issue(0, 0.0, T.t_rfc_ns, False)
        late = 10.0 * T_REFI
        v.on_refresh_issue(0, late, late + T.t_rfc_ns, False)
        assert "refresh-cadence" in rules(v)


class TestPowerdownConstraints:
    def test_entry_with_busy_bank_detected(self):
        v = make_validator()
        v.on_rank_state(0, RankPowerState.ACTIVE_STANDBY,
                        RankPowerState.ACTIVE_POWERDOWN, 100.0,
                        any_bank_busy=True)
        assert "powerdown-entry" in rules(v)

    def test_precharge_powerdown_with_open_row_detected(self):
        v = make_validator()
        service(v, 0.0, rank=0, bank=0, row=5)  # opens row 5
        v.on_rank_state(0, RankPowerState.PRECHARGE_STANDBY,
                        RankPowerState.PRECHARGE_POWERDOWN, 100.0,
                        any_bank_busy=False)
        assert "powerdown-entry" in rules(v)

    def test_entry_inside_refresh_window_detected(self):
        v = make_validator()
        v.on_refresh_issue(0, 0.0, T.t_rfc_ns, False)
        v.on_rank_state(0, RankPowerState.PRECHARGE_STANDBY,
                        RankPowerState.PRECHARGE_POWERDOWN,
                        T.t_rfc_ns / 2.0, any_bank_busy=False)
        assert "powerdown-entry" in rules(v)

    def test_legal_entry_and_exit_counted(self):
        v = make_validator()
        v.on_rank_state(0, RankPowerState.PRECHARGE_STANDBY,
                        RankPowerState.PRECHARGE_POWERDOWN, 100.0,
                        any_bank_busy=False)
        v.on_powerdown_exit(0, 200.0)
        v.on_rank_state(0, RankPowerState.PRECHARGE_POWERDOWN,
                        RankPowerState.PRECHARGE_STANDBY, 200.0,
                        any_bank_busy=False)
        v.finalize()
        assert v.violation_count == 0

    def test_exit_without_epdc_event_detected(self):
        v = make_validator()
        v.on_rank_state(0, RankPowerState.PRECHARGE_STANDBY,
                        RankPowerState.PRECHARGE_POWERDOWN, 100.0,
                        any_bank_busy=False)
        # CKE comes back up with neither an EPDC event nor a refresh wake
        v.on_rank_state(0, RankPowerState.PRECHARGE_POWERDOWN,
                        RankPowerState.PRECHARGE_STANDBY, 200.0,
                        any_bank_busy=False)
        v.finalize()
        assert "powerdown-exit-epdc" in rules(v)

    def test_refresh_wake_balances_exit(self):
        v = make_validator()
        v.on_rank_state(0, RankPowerState.PRECHARGE_STANDBY,
                        RankPowerState.PRECHARGE_POWERDOWN, 100.0,
                        any_bank_busy=False)
        v.on_rank_state(0, RankPowerState.PRECHARGE_POWERDOWN,
                        RankPowerState.PRECHARGE_STANDBY, 200.0,
                        any_bank_busy=False)
        v.on_refresh_issue(0, 200.0, 200.0 + T.t_rfc_ns,
                           was_powered_down=True)
        v.finalize()
        assert v.violation_count == 0


def park(v, rank=0, t=100.0):
    """Drive a legal self-refresh entry (hook order matches rank.py)."""
    v.on_sr_enter(rank, t)
    v.on_rank_state(rank, RankPowerState.PRECHARGE_STANDBY,
                    RankPowerState.SELF_REFRESH, t, any_bank_busy=False)


def unpark(v, rank=0, t=500.0, entered=100.0, for_access=False):
    """Drive a legal exit: ``on_sr_exit`` fires *before* the rank-state
    change (the transition clears the validator's in-SR flag)."""
    ready = max(t, entered + T.t_ckesr_ns) + T.t_xs_ns
    v.on_sr_exit(rank, t, ready, for_access)
    v.on_rank_state(rank, RankPowerState.SELF_REFRESH,
                    RankPowerState.PRECHARGE_STANDBY, t,
                    any_bank_busy=False)
    return ready


class TestSelfRefreshConstraints:
    """Each illegal sequence is mutation-style: deleting the rule from
    the validator makes the matching test fail."""

    def test_activate_while_parked_detected(self):
        v = make_validator()
        park(v)
        service(v, 200.0, rank=0)
        assert "sr-activate" in rules(v)

    def test_service_inside_exit_window_detected(self):
        v = make_validator()
        park(v, t=100.0)
        ready = unpark(v, t=500.0, entered=100.0)
        service(v, ready - 10.0, rank=0)
        assert "sr-exit" in rules(v)

    def test_service_after_exit_window_is_legal(self):
        v = make_validator()
        park(v, t=100.0)
        ready = unpark(v, t=500.0, entered=100.0)
        service(v, ready, rank=0)
        assert v.violation_count == 0

    def test_refresh_timer_tick_while_parked_detected(self):
        v = make_validator()
        park(v)
        v.on_refresh_due(0, 200.0)
        assert "sr-refresh" in rules(v)

    def test_external_refresh_issue_while_parked_detected(self):
        v = make_validator()
        park(v)
        v.on_refresh_issue(0, 200.0, 200.0 + T.t_rfc_ns, False)
        assert "sr-refresh" in rules(v)

    def test_short_exit_window_detected(self):
        v = make_validator()
        park(v, t=100.0)
        # ready before the tCKESR residual plus tXS elapse
        v.on_sr_exit(0, 500.0, 500.0 + T.t_xs_ns - 1.0, False)
        assert "sr-exit" in rules(v)

    def test_exit_must_cover_residual_tckesr(self):
        v = make_validator()
        park(v, t=100.0)
        # exit immediately: the unexpired tCKESR residency extends the
        # window beyond a bare tXS
        v.on_sr_exit(0, 100.0, 100.0 + T.t_xs_ns, False)
        assert "sr-exit" in rules(v)

    def test_exit_without_entry_detected(self):
        v = make_validator()
        v.on_sr_exit(0, 500.0, 500.0 + T.t_xs_ns, False)
        assert "sr-exit" in rules(v)

    def test_double_entry_detected(self):
        v = make_validator()
        park(v)
        v.on_sr_enter(0, 300.0)
        assert "sr-entry" in rules(v)

    def test_entry_with_open_row_detected(self):
        v = make_validator()
        service(v, 0.0, rank=0, bank=2, row=5)  # opens row 5
        v.on_sr_enter(0, 100.0)
        assert "sr-entry" in rules(v)

    def test_entry_with_pending_refresh_detected(self):
        v = make_validator()
        v.on_refresh_due(0, 50.0)  # pending: due but never issued
        v.on_sr_enter(0, 100.0)
        assert "sr-entry" in rules(v)

    def test_entry_inside_refresh_window_detected(self):
        v = make_validator()
        v.on_refresh_due(0, 50.0)
        v.on_refresh_issue(0, 50.0, 50.0 + T.t_rfc_ns, False)
        v.on_sr_enter(0, 50.0 + T.t_rfc_ns / 2.0)
        assert "sr-entry" in rules(v)

    def test_legal_policy_park_cycle_balances(self):
        v = make_validator()
        park(v, t=100.0)
        unpark(v, t=500.0, entered=100.0, for_access=False)
        v.finalize()
        assert v.violation_count == 0

    def test_legal_demand_wake_balances(self):
        v = make_validator()
        park(v, t=100.0)
        v.on_powerdown_exit(0, 500.0)  # EPDC recorded on the access path
        unpark(v, t=500.0, entered=100.0, for_access=True)
        v.finalize()
        assert v.violation_count == 0

    def test_unpark_without_exit_category_detected(self):
        v = make_validator()
        park(v, t=100.0)
        # CKE comes back up without on_sr_exit (no EPDC, no policy
        # unpark): the exit-accounting conservation must flag it
        v.on_rank_state(0, RankPowerState.SELF_REFRESH,
                        RankPowerState.PRECHARGE_STANDBY, 500.0,
                        any_bank_busy=False)
        v.finalize()
        assert "powerdown-exit-epdc" in rules(v)

    def test_refresh_cadence_restarts_at_exit(self):
        v = make_validator()
        v.on_refresh_due(0, 0.5 * T_REFI)
        v.on_refresh_issue(0, 0.5 * T_REFI, 0.5 * T_REFI + T.t_rfc_ns,
                           False)
        park(v, t=T_REFI)
        # parked across many tREFI: the device refreshed itself, so the
        # first external tick after the exit is *not* a cadence gap
        exit_t = 20.0 * T_REFI
        unpark(v, t=exit_t, entered=T_REFI)
        v.on_refresh_due(0, exit_t + T_REFI)
        v.on_refresh_issue(0, exit_t + T_REFI,
                           exit_t + T_REFI + T.t_rfc_ns, False)
        v.finalize()
        assert v.violation_count == 0


class TestConservation:
    def test_wb_capacity_overflow_detected(self):
        v = make_validator()
        v.on_wb_occupancy(0, WRITEBACK_QUEUE_CAPACITY + 1, 0.0)
        assert "wb-capacity" in rules(v)

    def test_negative_wb_occupancy_detected(self):
        v = make_validator()
        v.on_wb_occupancy(0, -1, 0.0)
        assert "wb-occupancy" in rules(v)

    def test_timestamp_chain_audited(self):
        v = make_validator()
        request = make_request()
        request.issue_ns = 0.0
        request.arrive_bank_ns = 5.0
        request.bank_start_ns = 5.0
        request.bank_done_ns = 40.0
        request.bus_start_ns = 40.0
        request.complete_ns = 30.0  # completes before its burst started
        v.on_complete(request, 30.0)
        assert "timestamps" in rules(v)

    def test_submitted_completed_balance_on_live_controller(self):
        engine = EventEngine()
        mc = MemoryController(engine, CFG.replace(validate_protocol=True),
                              refresh_enabled=False, n_cores=4)
        for i in range(8):
            mc.submit_read(i * 4096)
        engine.run()
        mc.validator.finalize()  # raise mode: any imbalance would throw
        assert mc.validator.submitted == 8
        assert mc.validator.completed == 8

    def test_rank_state_integral_mismatch_detected(self):
        engine = EventEngine()
        mc = MemoryController(engine, CFG, refresh_enabled=False, n_cores=4)
        v = ProtocolValidator(CFG, mode="collect")
        mc.attach_validator(v)
        done = []
        mc.submit_read(0, on_complete=lambda r: done.append(r))
        engine.run()
        # corrupt one rank's state-time integral behind the validator
        mc.counters.rank_state_ns[0][0] += 123.0
        v.finalize()
        assert "conservation" in rules(v)


class TestValidatorOverheadPath:
    def test_hooks_disabled_by_default(self):
        engine = EventEngine()
        mc = MemoryController(engine, CFG, refresh_enabled=False, n_cores=4)
        assert mc.validator is None

    def test_config_flag_arms_validator(self):
        engine = EventEngine()
        mc = MemoryController(engine, CFG.replace(validate_protocol=True),
                              refresh_enabled=False, n_cores=4)
        assert isinstance(mc.validator, ProtocolValidator)
        assert mc.ranks[0].validator is mc.validator


POWERDOWN_MODES = [PowerdownMode.NONE, PowerdownMode.FAST_EXIT,
                   PowerdownMode.SLOW_EXIT]


class TestRandomizedProtocol:
    """Property tests: randomized traffic on a real armed controller.

    The validator runs in raise mode, so any timing or invariant
    violation fails the test at the exact offending command.
    """

    @pytest.mark.parametrize("row_policy", ["closed", "open"])
    @pytest.mark.parametrize("powerdown", POWERDOWN_MODES)
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_traffic_zero_violations(self, row_policy, powerdown,
                                            data):
        cfg = (scaled_config().with_org(row_policy=row_policy)
               .replace(validate_protocol=True))
        engine = EventEngine()
        mc = MemoryController(engine, cfg, powerdown_mode=powerdown,
                              refresh_enabled=True, n_cores=4)
        n_ops = data.draw(st.integers(min_value=30, max_value=120),
                          label="n_ops")
        for _ in range(n_ops):
            action = data.draw(st.integers(min_value=0, max_value=9),
                               label="action")
            if action == 0:
                mhz = data.draw(st.sampled_from(cfg.bus_freqs_mhz),
                                label="bus_mhz")
                mc.set_frequency_by_bus_mhz(mhz)
            elif action == 1:
                channel = data.draw(
                    st.integers(min_value=0,
                                max_value=cfg.org.channels - 1),
                    label="channel")
                mhz = data.draw(st.sampled_from(cfg.bus_freqs_mhz),
                                label="channel_mhz")
                mc.set_channel_frequency(channel, mc.ladder.at_bus_mhz(mhz))
            else:
                addr = data.draw(st.integers(min_value=0,
                                             max_value=(1 << 20) - 1),
                                 label="line_addr")
                if data.draw(st.booleans(), label="is_read"):
                    mc.submit_read(addr)
                else:
                    # the LLC applies backpressure before the writeback
                    # queue can overflow; model that here
                    channel = mc.mapper.decode(addr).channel
                    if (mc.wb_queue_occupancy(channel)
                            < WRITEBACK_QUEUE_CAPACITY):
                        mc.submit_writeback(addr)
            gap = data.draw(st.floats(min_value=0.0, max_value=40.0),
                            label="gap_ns")
            engine.run_until(engine.now + gap)
        # drain everything (several tREFI so refreshes keep ticking)
        engine.run_until(engine.now + 60_000.0)
        assert mc.pending_requests == 0
        mc.validator.finalize()
        assert mc.validator.violation_count == 0

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_hot_bank_bursts_zero_violations(self, seed):
        """Same-bank/same-row pressure: row hits, tRC back-pressure, and
        bus blocking all in one bank while frequencies walk the ladder."""
        cfg = scaled_config().replace(validate_protocol=True)
        engine = EventEngine()
        mc = MemoryController(engine, cfg,
                              powerdown_mode=PowerdownMode.FAST_EXIT,
                              refresh_enabled=True, n_cores=4)
        ladder_walk = (800.0, 533.0, 333.0, 200.0, 800.0)
        for step, mhz in enumerate(ladder_walk):
            mc.set_frequency_by_bus_mhz(mhz)
            base = (seed + step * 7919) % (1 << 18)
            for i in range(24):
                # alternate one hot line and a scatter of others
                mc.submit_read(base if i % 3 else base + i * 613)
                engine.run_until(engine.now + float(i % 5))
            engine.run_until(engine.now + 2_000.0)
        engine.run_until(engine.now + 60_000.0)
        assert mc.pending_requests == 0
        mc.validator.finalize()
        assert mc.validator.violation_count == 0


class TestArmedSystemRuns:
    """Full-system runs (CPU cluster + governor + epoch loop), armed."""

    def _runner(self, **overrides):
        from repro.sim.runner import ExperimentRunner, RunnerSettings
        cfg = scaled_config().replace(validate_protocol=True)
        settings = RunnerSettings(cores=4, instructions_per_core=4_000,
                                  seed=2011)
        return ExperimentRunner(config=cfg, settings=settings, cache=None)

    def test_memscale_with_powerdown_zero_violations(self):
        runner = self._runner()
        result, cmp = runner.run_named_policy("MID1", "MemScale+Fast-PD")
        assert result.epochs >= 1

    def test_four_frequency_static_sweep_zero_violations(self):
        from repro.core.baselines import StaticFrequencyGovernor
        runner = self._runner()
        for mhz in (800.0, 600.0, 400.0, 200.0):
            result = runner.run_governor(
                "MID1", StaticFrequencyGovernor(bus_mhz=mhz))
            assert result.sim_time_ns > 0
