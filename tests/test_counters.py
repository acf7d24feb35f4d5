"""Unit tests for the hardware performance-counter file (Section 3.1)."""

import numpy as np
import pytest

from repro.config import scaled_config
from repro.cpu.core_model import CpuCluster
from repro.cpu.trace import CoreTrace
from repro.memsim.address import MemoryLocation
from repro.memsim.controller import MemoryController
from repro.memsim.counters import _STATE_ORDER, CounterFile
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest, RequestKind
from repro.memsim.states import PowerdownMode, RankPowerState

CFG = scaled_config()
READ = RequestKind.READ
WRITE = RequestKind.WRITE


@pytest.fixture()
def counters():
    return CounterFile(n_cores=4, n_channels=2, n_ranks=4)


def request_set():
    """Drive a hand-built request set through an armed controller.

    Open page, Fast-PD, refresh on, 800 MHz (burst 5 ns, MC latency
    3.125 ns); locations are (channel, rank, bank, row):

    * t=0: to (0,0,0) a read of row 1 (closed-bank miss), a read of
      row 1 (row hit) and a write of row 2 (open-row miss: open page
      kept row 1 open); a read to (0,1,0) (closed-bank miss) and a
      write to (1,0,0) (closed-bank miss). All five reach their banks
      at 3.125 ns; the three to (0,0,0) find 0, 1 and 2 requests ahead.
    * t=31 ns: a read to (0,1,1) (closed-bank miss) reaches its bank at
      34.125 ns, while channel 0 bursts the first read (33.125-38.125
      ns) with the read to rank 1 waiting behind it.
    * t=tREFI: each rank has refreshed once (the first ticks are
      staggered within tREFI); ranks left without open rows sit in
      precharge powerdown. A read to (1,1,0) wakes its rank.
    * run to 8000 ns, before any rank's second refresh (17/16 tREFI).
    """
    cfg = (CFG.with_org(row_policy="open")
           .replace(validate_protocol=True))
    engine = EventEngine()
    mc = MemoryController(engine, cfg, powerdown_mode=PowerdownMode.FAST_EXIT,
                          refresh_enabled=True, n_cores=1)

    def submit(kind, channel, rank, bank, row, column=0):
        mc.submit(MemRequest(kind, MemoryLocation(channel, rank, bank,
                                                  row, column)))

    submit(READ, 0, 0, 0, 1)
    submit(READ, 0, 0, 0, 1, column=1)
    submit(WRITE, 0, 0, 0, 2)
    submit(READ, 0, 1, 0, 0)
    submit(WRITE, 1, 0, 0, 0)
    engine.run_until(31.0)
    submit(READ, 0, 1, 1, 0)
    engine.run_until(cfg.timings.t_refi_ns + 1.0)
    submit(READ, 1, 1, 0, 0)
    engine.run_until(8000.0)
    assert mc.pending_requests == 0
    # raise mode: the command stream is legal; also flushes residency
    mc.validator.finalize()
    return mc.counters


@pytest.fixture(scope="module")
def driven():
    return request_set()


def one_core(gaps):
    """A started one-core cluster replaying ``gaps`` once."""
    engine = EventEngine()
    mc = MemoryController(engine, CFG, refresh_enabled=False, n_cores=1)
    n = len(gaps)
    trace = CoreTrace("t", 0, np.asarray(gaps, dtype=np.int64),
                      np.arange(n, dtype=np.int64) * 64,
                      np.full(n, -1, dtype=np.int64))
    cluster = CpuCluster(engine, mc, CFG.cpu, [trace], loop_traces=False)
    cluster.start()
    return engine, mc, cluster.cores[0], cluster


class TestUpdateHooks:
    """Every register as the simulator writes it on the request path.

    The core model writes TIC and TLM, the controller BTO/BTC and
    CTO/CTC at bank arrival, the banks RBHC/OBMC/CBMC and POCC, the
    channels the burst counts and busy time, and the ranks EPDC,
    refreshes and state residency. The counter file has no update
    methods; these tests drive the code that writes the registers.
    """

    def test_commit_instructions(self):
        engine, mc, core, cluster = one_core([10_000, 100])
        # halfway through the first gap, a sync commits its done part
        engine.run_until(5_000 * CFG.cpu.cpi_cpu * CFG.cpu.cycle_ns)
        cluster.sync_committed()
        assert 0 < mc.counters.tic[0] == core.instructions_committed < 10_000
        engine.run()
        # both gaps plus one instruction per completed miss
        assert mc.counters.tic[0] == core.instructions_committed == 10_102

    def test_llc_miss(self):
        engine, mc, core, _ = one_core([10, 20, 30])
        engine.run()
        assert mc.counters.tlm[0] == core.misses_issued == 3

    def test_bank_arrival_accumulator(self, driven):
        assert (driven.btc, driven.bto) == (7, 0 + 1 + 2)

    def test_channel_arrival_accumulator(self, driven):
        # only the t=31 ns read found its channel busy: one burst in
        # progress plus one waiter
        assert (driven.ctc, driven.cto) == (7, 2)

    def test_row_buffer_counters(self, driven):
        assert (driven.rbhc, driven.obmc, driven.cbmc) == (1, 1, 5)

    def test_powerdown_exit_counter(self, driven):
        assert driven.epdc == 1

    def test_activate_counter(self, driven):
        # every miss activates, a row hit does not
        assert driven.pocc == driven.obmc + driven.cbmc == 6

    def test_access_records_channel_busy(self, driven):
        assert (driven.reads, driven.writes) == (5, 2)
        assert driven.channel_reads == [4, 1, 0, 0]
        assert driven.channel_writes == [1, 1, 0, 0]
        assert driven.channel_busy_ns == pytest.approx(
            [5 * 5.0, 2 * 5.0, 0.0, 0.0])

    def test_rank_state_accounting(self, driven):
        residency = driven.rank_state_ns
        assert [sum(row) for row in residency] == pytest.approx(
            [8000.0] * len(residency))
        pd = RankPowerState.PRECHARGE_POWERDOWN.column
        # rank 0 kept rows open throughout; rank 5, (1,1), was woken
        # from precharge powerdown
        assert residency[0][pd] == 0.0
        assert residency[5][pd] > 0.0

    def test_refresh_counter(self, driven):
        assert driven.refreshes == [1.0] * 16

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            CounterFile(n_cores=0, n_channels=1, n_ranks=1)


class TestSnapshotDelta:
    def test_delta_isolates_interval(self, counters):
        counters.tic[0] += 100
        counters.reads += 1.0
        s0 = counters.snapshot(time_ns=10.0)
        counters.tic[0] += 50
        counters.writes += 1.0
        s1 = counters.snapshot(time_ns=20.0)
        delta = CounterFile.delta(s0, s1)
        assert delta.interval_ns == 10.0
        assert delta.tic[0] == 50
        assert delta.reads == 0
        assert delta.writes == 1

    def test_snapshot_is_a_copy(self, counters):
        s0 = counters.snapshot(0.0)
        counters.tic[0] += 5
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
        counters.bto += 2.0 + 4.0
        counters.btc += 2.0
        counters.cto += 1.0
        counters.ctc += 1.0
        delta = CounterFile.delta(s0, counters.snapshot(10.0))
        assert delta.xi_bank == pytest.approx(3.0)
        assert delta.xi_bus == pytest.approx(1.0)

    def test_xi_zero_when_no_arrivals(self, counters):
        s0 = counters.snapshot(0.0)
        delta = CounterFile.delta(s0, counters.snapshot(10.0))
        assert delta.xi_bank == 0.0
        assert delta.xi_bus == 0.0

    def test_accesses_sum(self, counters):
        s0 = counters.snapshot(0.0)
        counters.rbhc += 1.0
        counters.obmc += 1.0
        counters.cbmc += 1.0
        delta = CounterFile.delta(s0, counters.snapshot(10.0))
        assert delta.accesses == 3

    def test_ptc_fraction(self, counters):
        s0 = counters.snapshot(0.0)
        for row in counters.rank_state_ns:
            row[RankPowerState.PRECHARGE_STANDBY.column] += 60.0
            row[RankPowerState.ACTIVE_STANDBY.column] += 40.0
        delta = CounterFile.delta(s0, counters.snapshot(100.0))
        assert delta.ptc == pytest.approx(0.6)
        assert delta.ptckel == 0.0
        assert delta.atckel == 0.0

    def test_ptckel_and_atckel(self, counters):
        s0 = counters.snapshot(0.0)
        for row in counters.rank_state_ns:
            row[RankPowerState.PRECHARGE_POWERDOWN.column] += 50.0
            row[RankPowerState.ACTIVE_POWERDOWN.column] += 25.0
            row[RankPowerState.ACTIVE_STANDBY.column] += 25.0
        delta = CounterFile.delta(s0, counters.snapshot(100.0))
        assert delta.ptckel == pytest.approx(0.5)
        assert delta.atckel == pytest.approx(0.25)
        assert delta.ptc == pytest.approx(0.5)

    def test_channel_utilization(self, counters):
        s0 = counters.snapshot(0.0)
        counters.channel_busy_ns[0] += 25.0
        delta = CounterFile.delta(s0, counters.snapshot(100.0))
        assert delta.channel_utilization(0) == pytest.approx(0.25)
        assert delta.channel_utilization(1) == 0.0
        assert delta.mean_channel_utilization == pytest.approx(0.125)

    def test_rank_state_fraction(self, counters):
        s0 = counters.snapshot(0.0)
        counters.rank_state_ns[3][RankPowerState.ACTIVE_STANDBY.column] += 30.0
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
