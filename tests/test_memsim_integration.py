"""Integration tests for the memory subsystem: banks, channels, controller.

These drive a real :class:`MemoryController` with hand-built requests and
check latencies, classification, blocking, powerdown, and frequency
transitions against the DDR3 timing arithmetic of Table 2.
"""

import pytest

from repro.config import NS_PER_US, scaled_config
from repro.memsim.address import MemoryLocation
from repro.memsim.controller import (
    MemoryController,
    WRITEBACK_QUEUE_CAPACITY,
)
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest, RequestKind
from repro.memsim.states import PowerdownMode, RankPowerState


CFG = scaled_config()


def make_controller(powerdown=PowerdownMode.NONE, refresh=False):
    engine = EventEngine()
    mc = MemoryController(engine, CFG, powerdown_mode=powerdown,
                          refresh_enabled=refresh, n_cores=4)
    return engine, mc


def loc(channel=0, rank=0, bank=0, row=0, column=0):
    return MemoryLocation(channel=channel, rank=rank, bank=bank,
                          row=row, column=column)


def submit_read(mc, location, done):
    request = MemRequest(RequestKind.READ, location,
                         on_complete=lambda r: done.append(r))
    mc.submit(request)
    return request


class TestSingleAccessLatency:
    def test_closed_bank_read_latency_at_800mhz(self):
        engine, mc = make_controller()
        done = []
        request = submit_read(mc, loc(), done)
        engine.run()
        assert len(done) == 1
        # MC 5 cycles @1600MHz + tRCD + tCL + burst 4 cycles @800MHz
        expected = 5 * 0.625 + 15.0 + 15.0 + 4 * 1.25
        assert request.total_latency_ns == pytest.approx(expected)

    def test_latency_grows_at_lower_frequency(self):
        engine, mc = make_controller()
        mc.set_frequency_by_bus_mhz(200.0)
        engine.run_until(mc.frozen_until_ns)  # wait out the re-lock
        done = []
        request = submit_read(mc, loc(), done)
        engine.run()
        expected = 5 * 2.5 + 30.0 + 4 * 5.0
        assert request.total_latency_ns == pytest.approx(expected)

    def test_write_completes_without_callback(self):
        engine, mc = make_controller()
        request = MemRequest(RequestKind.WRITE, loc())
        mc.submit(request)
        engine.run()
        assert request.complete_ns > 0
        assert mc.completed_writes == 1

    def test_counters_record_classification(self):
        engine, mc = make_controller()
        done = []
        submit_read(mc, loc(), done)
        engine.run()
        assert mc.counters.cbmc == 1
        assert mc.counters.pocc == 1
        assert mc.counters.reads == 1


class TestRowBufferPolicy:
    def test_back_to_back_same_row_is_row_hit(self):
        engine, mc = make_controller()
        done = []
        submit_read(mc, loc(row=7, column=0), done)
        submit_read(mc, loc(row=7, column=1), done)
        engine.run()
        assert mc.counters.rbhc == 1
        assert mc.counters.cbmc == 1
        # the second read is the hit: it issued no activate
        assert done[0].act_ns >= 0
        assert done[1].act_ns == -1.0

    def test_closed_page_precharges_when_no_pending_same_row(self):
        engine, mc = make_controller()
        done = []
        submit_read(mc, loc(row=7), done)
        engine.run()
        done2 = []
        submit_read(mc, loc(row=7), done2)
        engine.run()
        # the row was closed after the first access: second is a fresh miss
        assert mc.counters.cbmc == 2
        assert mc.counters.rbhc == 0

    def test_queued_different_row_is_not_open_miss_under_closed_page(self):
        engine, mc = make_controller()
        done = []
        submit_read(mc, loc(row=1), done)
        submit_read(mc, loc(row=2), done)
        engine.run()
        # row 1 closes (row 2 pending, different row) => row 2 sees a
        # precharged bank, not an open-row conflict
        assert mc.counters.obmc == 0
        assert mc.counters.cbmc == 2

    def test_row_hit_is_faster(self):
        engine, mc = make_controller()
        done = []
        first = submit_read(mc, loc(row=7, column=0), done)
        second = submit_read(mc, loc(row=7, column=1), done)
        engine.run()
        service_first = first.complete_ns - first.arrive_bank_ns
        service_second = second.complete_ns - first.complete_ns
        assert service_second < service_first


class TestQueueingAndBlocking:
    def test_same_bank_requests_serialize(self):
        engine, mc = make_controller()
        done = []
        for row in range(4):
            submit_read(mc, loc(row=row * 2), done)
        engine.run()
        assert len(done) == 4
        finish_times = [r.complete_ns for r in done]
        assert finish_times == sorted(finish_times)
        # tRC limits per-bank activate rate: accesses at least tRC apart
        gaps = [b - a for a, b in zip(finish_times, finish_times[1:])]
        assert all(g >= CFG.timings.t_rc_ns - 1e-6 for g in gaps)

    def test_bus_serializes_bursts_across_banks(self):
        engine, mc = make_controller()
        done = []
        # all to distinct banks of one channel: array access in parallel,
        # bursts must serialize on the shared bus
        for bank in range(4):
            submit_read(mc, loc(bank=bank), done)
        engine.run()
        starts = sorted(r.bus_start_ns for r in done)
        burst = 4 * 1.25
        for a, b in zip(starts, starts[1:]):
            assert b - a >= burst - 1e-9

    def test_bank_arrival_counters_see_queue_depth(self):
        engine, mc = make_controller()
        done = []
        for _ in range(3):
            submit_read(mc, loc(row=0), done)
        engine.run()
        # arrivals saw 0, then 1, then 2 requests ahead
        assert mc.counters.btc == 3
        assert mc.counters.bto == pytest.approx(0 + 1 + 2)

    def test_trrd_spaces_activates_to_same_rank(self):
        engine, mc = make_controller()
        done = []
        for bank in range(2):
            submit_read(mc, loc(bank=bank), done)
        engine.run()
        starts = sorted(r.bank_start_ns for r in done)
        # second activate waited at least tRRD after the first
        assert done[1].complete_ns - done[0].complete_ns >= 1.25

    def test_pending_requests_counts_in_flight(self):
        engine, mc = make_controller()
        done = []
        submit_read(mc, loc(), done)
        assert mc.pending_requests == 1
        engine.run()
        assert mc.pending_requests == 0


class TestWritebackPriority:
    def test_reads_win_when_wb_queue_shallow(self):
        engine, mc = make_controller()
        done = []
        # one write then one read to the same bank while bank busy with
        # an earlier read
        submit_read(mc, loc(row=0), done)
        mc.submit(MemRequest(RequestKind.WRITE, loc(row=1)))
        submit_read(mc, loc(row=2), done)
        engine.run()
        # the read issued after the write still completed before it
        assert mc.completed_reads == 2
        assert done[1].complete_ns < mc.engine.now

    def test_priority_flips_when_wb_queue_half_full(self):
        engine, mc = make_controller()
        half = WRITEBACK_QUEUE_CAPACITY // 2
        for i in range(half):
            mc.submit(MemRequest(RequestKind.WRITE, loc(row=i)))
        assert mc.writebacks_have_priority(0)
        engine.run()
        assert not mc.writebacks_have_priority(0)

    def test_priority_stays_with_reads_below_half(self):
        engine, mc = make_controller()
        for i in range(3):
            mc.submit(MemRequest(RequestKind.WRITE, loc(row=i)))
        assert not mc.writebacks_have_priority(0)


class TestPowerdown:
    def test_rank_powers_down_when_idle(self):
        engine, mc = make_controller(powerdown=PowerdownMode.FAST_EXIT)
        done = []
        submit_read(mc, loc(), done)
        engine.run()
        rank = mc.ranks[0]
        assert rank.state is RankPowerState.PRECHARGE_POWERDOWN

    def test_no_powerdown_in_none_mode(self):
        engine, mc = make_controller(powerdown=PowerdownMode.NONE)
        done = []
        submit_read(mc, loc(), done)
        engine.run()
        assert mc.ranks[0].state is RankPowerState.PRECHARGE_STANDBY

    def test_powerdown_exit_recorded_and_slower(self):
        engine, mc = make_controller(powerdown=PowerdownMode.FAST_EXIT)
        done = []
        first = submit_read(mc, loc(row=0), done)
        engine.run()
        assert mc.counters.epdc == 0
        second = submit_read(mc, loc(row=0), done)
        engine.run()
        assert mc.counters.epdc == 1
        assert (second.total_latency_ns
                >= first.total_latency_ns + CFG.timings.t_xp_ns - 1e-9)

    def test_slow_exit_costs_more(self):
        results = {}
        for mode in (PowerdownMode.FAST_EXIT, PowerdownMode.SLOW_EXIT):
            engine, mc = make_controller(powerdown=mode)
            done = []
            submit_read(mc, loc(), done)
            engine.run()
            request = submit_read(mc, loc(), done)
            engine.run()
            results[mode] = request.total_latency_ns
        assert (results[PowerdownMode.SLOW_EXIT]
                == pytest.approx(results[PowerdownMode.FAST_EXIT]
                                 + CFG.timings.t_xpdll_ns
                                 - CFG.timings.t_xp_ns))


class TestFrequencyTransitions:
    def test_transition_sets_freeze_window(self):
        engine, mc = make_controller()
        penalty = mc.set_frequency_by_bus_mhz(400.0)
        assert penalty > 0
        assert mc.frozen_until_ns == pytest.approx(penalty)
        assert mc.transition_count == 1
        assert mc.freq.bus_mhz == 400.0

    def test_same_frequency_is_free(self):
        engine, mc = make_controller()
        assert mc.set_frequency_by_bus_mhz(800.0) == 0.0
        assert mc.transition_count == 0

    def test_requests_stall_until_unfrozen(self):
        engine, mc = make_controller()
        mc.set_frequency_by_bus_mhz(400.0)
        freeze_end = mc.frozen_until_ns
        done = []
        request = submit_read(mc, loc(), done)
        engine.run()
        assert request.bank_start_ns >= freeze_end - 1e-9

    def test_unknown_frequency_rejected(self):
        engine, mc = make_controller()
        with pytest.raises(ValueError):
            mc.set_frequency_by_bus_mhz(555.0)

    def test_decoupled_device_latency(self):
        engine, mc = make_controller()
        mc.set_device_extra_latency_ns(5.0)
        done = []
        request = submit_read(mc, loc(), done)
        engine.run()
        expected = 5 * 0.625 + 30.0 + 5.0 + 4 * 1.25
        assert request.total_latency_ns == pytest.approx(expected)

    def test_negative_device_latency_rejected(self):
        engine, mc = make_controller()
        with pytest.raises(ValueError):
            mc.set_device_extra_latency_ns(-1.0)


class TestRefresh:
    def test_refresh_fires_periodically(self):
        engine = EventEngine()
        mc = MemoryController(engine, CFG, refresh_enabled=True, n_cores=4)
        engine.run_until(3 * CFG.timings.t_refi_ns)
        assert sum(mc.counters.refreshes) > 0

    def test_refresh_blocks_accesses(self):
        engine = EventEngine()
        mc = MemoryController(engine, CFG, refresh_enabled=True, n_cores=4)
        rank = mc.ranks[0]
        # force a refresh to begin right now via the real machinery
        rank._refresh_due = True
        rank._maybe_start_refresh()
        blocked_until = rank.refresh_busy_until
        assert blocked_until > engine.now
        done = []
        request = submit_read(mc, loc(), done)
        # run_until (not run): the refresh timer reschedules forever
        engine.run_until(engine.now + 2 * CFG.timings.t_rfc_ns)
        assert done
        assert request.bank_start_ns >= blocked_until - 1e-9


class TestAccounting:
    def test_sync_accounting_flushes_state_time(self):
        engine, mc = make_controller()
        engine.run_until(1000.0)
        mc.sync_accounting()
        total = [sum(row) for row in mc.counters.rank_state_ns]
        assert all(abs(t - 1000.0) < 1e-6 for t in total)

    def test_snapshot_includes_sync(self):
        engine, mc = make_controller()
        engine.run_until(500.0)
        snap = mc.snapshot()
        assert snap.rank_state_ns.sum() == pytest.approx(
            500.0 * len(mc.ranks))


class TestBugfixRegressions:
    """Pin the four DDR3 timing bugs fixed alongside the validator.

    Each test fails against the pre-fix code (documented inline) and
    passes after the fix.
    """

    def test_submit_during_freeze_still_pays_mc_latency(self):
        # Pre-fix, submit() charged max(mc_latency, freeze_wait), so a
        # request submitted mid-freeze arrived exactly at freeze-end
        # with the MC pipeline latency swallowed.
        engine, mc = make_controller()
        mc.set_frequency_by_bus_mhz(400.0)
        freeze_end = mc.frozen_until_ns
        assert freeze_end > 0.0
        done = []
        request = submit_read(mc, loc(), done)
        engine.run()
        assert request.arrive_bank_ns == pytest.approx(
            freeze_end + mc.freq.mc_latency_ns)

    def test_channel_frequency_freeze_is_per_channel(self):
        # Pre-fix, set_channel_frequency stamped the *global*
        # frozen_until_ns, stalling every channel for one channel's
        # re-lock.
        engine, mc = make_controller()
        point = mc.ladder.at_bus_mhz(200.0)
        mc.set_channel_frequency(2, point)
        assert mc.frozen_until_ns == 0.0
        assert mc.channel_frozen_until_ns(2) > 0.0
        # channel 0 is untouched: same latency as a fresh controller
        done = []
        request = submit_read(mc, loc(channel=0), done)
        engine.run_until(engine.now + 100.0)
        expected = 5 * 0.625 + 15.0 + 15.0 + 4 * 1.25
        assert request.total_latency_ns == pytest.approx(expected)

    def test_channel_freeze_stalls_that_channels_requests(self):
        engine, mc = make_controller()
        point = mc.ladder.at_bus_mhz(200.0)
        mc.set_channel_frequency(2, point)
        blocked_until = mc.channel_frozen_until_ns(2)
        done = []
        request = submit_read(mc, loc(channel=2), done)
        engine.run()
        assert done
        assert request.bank_start_ns >= blocked_until - 1e-9

    def test_every_rank_refreshes_within_first_trefi(self):
        # Pre-fix, rank k's first refresh timer fired at
        # tREFI * (1 + k/16) — every rank except rank 0 blew through
        # the JEDEC refresh interval on its very first cycle.
        engine, mc = make_controller(refresh=True)
        engine.run_until(CFG.timings.t_refi_ns + 1.0)
        assert all(r >= 1 for r in mc.counters.refreshes)

    def test_wb_queue_drains_at_service_not_completion(self):
        # Pre-fix, _wb_pending was decremented when a write's burst
        # completed, so writes being serviced still counted against the
        # writeback queue and read-priority stayed depressed too long.
        engine, mc = make_controller()
        # 16 writes to 16 distinct banks: all dequeue for service at
        # the same instant, none complete yet.
        for b in range(16):
            request = MemRequest(RequestKind.WRITE,
                                 loc(bank=b % 8, rank=b // 8))
            mc.submit(request)
        assert mc.writebacks_have_priority(0)
        engine.run_until(mc.freq.mc_latency_ns + 0.5)
        # every write has left the queue for bank service...
        assert mc.wb_queue_occupancy(0) == 0
        # ...so reads regain priority immediately, not at completion
        assert not mc.writebacks_have_priority(0)
        assert mc.completed_writes == 0

    def test_wb_overflow_counted(self):
        engine, mc = make_controller()
        # same bank: nothing can drain before the burst of submissions
        for i in range(WRITEBACK_QUEUE_CAPACITY + 1):
            request = MemRequest(RequestKind.WRITE, loc(row=i))
            mc.submit(request)
        assert mc.wb_overflow_count == 1
        engine.run()
