"""Unit tests for the hardware performance-counter file (Section 3.1)."""

import numpy as np
import pytest

from repro.memsim.counters import _STATE_ORDER, CounterFile, state_index
from repro.memsim.states import RankPowerState


@pytest.fixture()
def counters():
    return CounterFile(n_cores=4, n_channels=2, n_ranks=4)


class TestUpdateHooks:
    def test_commit_instructions(self, counters):
        counters.commit_instructions(0, 100)
        counters.commit_instructions(0, 50)
        counters.commit_instructions(3, 7)
        assert counters.tic[0] == 150
        assert counters.tic[3] == 7
        assert counters.tic[1] == 0

    def test_llc_miss(self, counters):
        counters.record_llc_miss(2)
        counters.record_llc_miss(2)
        assert counters.tlm[2] == 2

    def test_bank_arrival_accumulator(self, counters):
        counters.record_bank_arrival(3.0)
        counters.record_bank_arrival(0.0)
        assert counters.bto == 3.0
        assert counters.btc == 2.0

    def test_channel_arrival_accumulator(self, counters):
        counters.record_channel_arrival(1.0)
        assert counters.cto == 1.0
        assert counters.ctc == 1.0

    def test_row_buffer_counters(self, counters):
        counters.record_row_hit()
        counters.record_open_row_miss()
        counters.record_closed_bank_miss()
        counters.record_closed_bank_miss()
        assert (counters.rbhc, counters.obmc, counters.cbmc) == (1, 1, 2)

    def test_powerdown_exit_counter(self, counters):
        counters.record_powerdown_exit()
        assert counters.epdc == 1

    def test_activate_counter(self, counters):
        counters.record_activate()
        counters.record_activate()
        assert counters.pocc == 2

    def test_access_records_channel_busy(self, counters):
        counters.record_access(0, is_read=True, burst_ns=5.0)
        counters.record_access(0, is_read=False, burst_ns=5.0)
        counters.record_access(1, is_read=True, burst_ns=10.0)
        assert counters.reads == 2
        assert counters.writes == 1
        assert counters.channel_busy_ns[0] == 10.0
        assert counters.channel_busy_ns[1] == 10.0
        assert counters.channel_reads[0] == 1
        assert counters.channel_writes[0] == 1

    def test_rank_state_accounting(self, counters):
        counters.account_rank_state(1, RankPowerState.ACTIVE_STANDBY, 30.0)
        counters.account_rank_state(1, RankPowerState.PRECHARGE_POWERDOWN, 70.0)
        assert sum(counters.rank_state_ns[1]) == 100.0

    def test_negative_duration_rejected(self, counters):
        with pytest.raises(ValueError):
            counters.account_rank_state(0, RankPowerState.ACTIVE_STANDBY, -1.0)

    def test_refresh_counter(self, counters):
        counters.record_refresh(2)
        assert counters.refreshes[2] == 1

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            CounterFile(n_cores=0, n_channels=1, n_ranks=1)


class TestSnapshotDelta:
    def test_delta_isolates_interval(self, counters):
        counters.commit_instructions(0, 100)
        counters.record_access(0, True, 5.0)
        s0 = counters.snapshot(time_ns=10.0)
        counters.commit_instructions(0, 50)
        counters.record_access(1, False, 5.0)
        s1 = counters.snapshot(time_ns=20.0)
        delta = CounterFile.delta(s0, s1)
        assert delta.interval_ns == 10.0
        assert delta.tic[0] == 50
        assert delta.reads == 0
        assert delta.writes == 1

    def test_snapshot_is_a_copy(self, counters):
        s0 = counters.snapshot(0.0)
        counters.commit_instructions(0, 5)
        assert s0.tic[0] == 0

    def test_reversed_snapshots_rejected(self, counters):
        s0 = counters.snapshot(10.0)
        s1 = counters.snapshot(20.0)
        with pytest.raises(ValueError):
            CounterFile.delta(s1, s0)


class TestDerivedMetrics:
    def _delta(self, counters, t0=0.0, t1=100.0):
        s0 = counters.snapshot(t0)
        return s0, counters.snapshot(t1)

    def test_xi_ratios(self, counters):
        s0 = counters.snapshot(0.0)
        counters.record_bank_arrival(2.0)
        counters.record_bank_arrival(4.0)
        counters.record_channel_arrival(1.0)
        delta = CounterFile.delta(s0, counters.snapshot(10.0))
        assert delta.xi_bank == pytest.approx(3.0)
        assert delta.xi_bus == pytest.approx(1.0)

    def test_xi_zero_when_no_arrivals(self, counters):
        s0 = counters.snapshot(0.0)
        delta = CounterFile.delta(s0, counters.snapshot(10.0))
        assert delta.xi_bank == 0.0
        assert delta.xi_bus == 0.0

    def test_alpha(self, counters):
        s0 = counters.snapshot(0.0)
        counters.commit_instructions(1, 1000)
        for _ in range(5):
            counters.record_llc_miss(1)
        delta = CounterFile.delta(s0, counters.snapshot(10.0))
        assert delta.alpha(1) == pytest.approx(0.005)
        assert delta.alpha(0) == 0.0

    def test_accesses_sum(self, counters):
        s0 = counters.snapshot(0.0)
        counters.record_row_hit()
        counters.record_open_row_miss()
        counters.record_closed_bank_miss()
        delta = CounterFile.delta(s0, counters.snapshot(10.0))
        assert delta.accesses == 3

    def test_ptc_fraction(self, counters):
        s0 = counters.snapshot(0.0)
        for rank in range(4):
            counters.account_rank_state(
                rank, RankPowerState.PRECHARGE_STANDBY, 60.0)
            counters.account_rank_state(
                rank, RankPowerState.ACTIVE_STANDBY, 40.0)
        delta = CounterFile.delta(s0, counters.snapshot(100.0))
        assert delta.ptc == pytest.approx(0.6)
        assert delta.ptckel == 0.0
        assert delta.atckel == 0.0

    def test_ptckel_and_atckel(self, counters):
        s0 = counters.snapshot(0.0)
        for rank in range(4):
            counters.account_rank_state(
                rank, RankPowerState.PRECHARGE_POWERDOWN, 50.0)
            counters.account_rank_state(
                rank, RankPowerState.ACTIVE_POWERDOWN, 25.0)
            counters.account_rank_state(
                rank, RankPowerState.ACTIVE_STANDBY, 25.0)
        delta = CounterFile.delta(s0, counters.snapshot(100.0))
        assert delta.ptckel == pytest.approx(0.5)
        assert delta.atckel == pytest.approx(0.25)
        assert delta.ptc == pytest.approx(0.5)

    def test_channel_utilization(self, counters):
        s0 = counters.snapshot(0.0)
        counters.record_access(0, True, 25.0)
        delta = CounterFile.delta(s0, counters.snapshot(100.0))
        assert delta.channel_utilization(0) == pytest.approx(0.25)
        assert delta.channel_utilization(1) == 0.0
        assert delta.mean_channel_utilization == pytest.approx(0.125)

    def test_rank_state_fraction(self, counters):
        s0 = counters.snapshot(0.0)
        counters.account_rank_state(3, RankPowerState.ACTIVE_STANDBY, 30.0)
        delta = CounterFile.delta(s0, counters.snapshot(100.0))
        assert delta.rank_state_fraction(
            3, RankPowerState.ACTIVE_STANDBY) == pytest.approx(0.3)

    def test_zero_interval_fractions_are_zero(self, counters):
        s0 = counters.snapshot(5.0)
        delta = CounterFile.delta(s0, counters.snapshot(5.0))
        assert delta.ptc == 0.0
        assert delta.mean_channel_utilization == 0.0


class TestStateColumns:
    """``RankPowerState.column`` is the one state-to-column mapping of
    ``rank_state_ns``; the power model unpacks the columns in this order
    (IDD3N, IDD2N, IDD3P, IDD2P, IDD6)."""

    def test_column_is_the_state_index(self):
        for state in RankPowerState:
            assert state.column == state_index(state)
            assert _STATE_ORDER[state.column] is state

    def test_columns_are_pinned_with_self_refresh_last(self):
        assert {s: s.column for s in RankPowerState} == {
            RankPowerState.ACTIVE_STANDBY: 0,
            RankPowerState.PRECHARGE_STANDBY: 1,
            RankPowerState.ACTIVE_POWERDOWN: 2,
            RankPowerState.PRECHARGE_POWERDOWN: 3,
            RankPowerState.SELF_REFRESH: 4,
        }
        assert RankPowerState.SELF_REFRESH.column == len(_STATE_ORDER) - 1
