"""DDR3 access timing (Table 2, Section 2.2), measured on a real controller.

Section 2.2 splits latency into two classes: array operations
(precharge, activate, column access, powerdown exit, refresh) take a
fixed time in ns at every bus frequency, while interface operations
(data burst, MC processing) take a fixed number of cycles, so their
time scales with frequency. Each test drives hand-placed requests
through a :class:`MemoryController` and reads the timestamps the
request path stamps on them; the expected values come from
``config.DramTimings`` alone.
"""

import pytest

from repro.config import scaled_config
from repro.memsim.address import MemoryLocation
from repro.memsim.controller import MemoryController
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest, RequestKind
from repro.memsim.states import AccessClass, PowerdownMode

CFG = scaled_config()
T = CFG.timings

ROW_HIT = AccessClass.ROW_HIT
CLOSED_BANK_MISS = AccessClass.CLOSED_BANK_MISS
OPEN_ROW_MISS = AccessClass.OPEN_ROW_MISS


def read(mc, bank=0, row=0, column=0):
    request = MemRequest(RequestKind.READ,
                         MemoryLocation(0, 0, bank, row, column))
    mc.submit(request)
    return request


def requests_by_class(bus_mhz=800.0):
    """One read of each access class on an open-page controller.

    Two reads to row 1 of an idle bank (a closed-bank miss, then a row
    hit), then, once both completed, a read to row 2: open page left
    row 1 open, so it is an open-row miss.
    """
    engine = EventEngine()
    mc = MemoryController(engine, CFG.with_org(row_policy="open"),
                          refresh_enabled=False, n_cores=1)
    mc.set_frequency_by_bus_mhz(bus_mhz)
    engine.run_until(mc.frozen_until_ns)  # wait out the re-lock
    closed = read(mc, row=1)
    hit = read(mc, row=1, column=1)
    engine.run()
    open_miss = read(mc, row=2)
    engine.run()
    counters = mc.counters
    assert (counters.cbmc, counters.rbhc, counters.obmc) == (1, 1, 1)
    return {CLOSED_BANK_MISS: closed, ROW_HIT: hit, OPEN_ROW_MISS: open_miss}


def array_ns(request):
    """Bank service start to data ready: the array part of an access."""
    return request.bank_done_ns - request.bank_start_ns


@pytest.fixture(scope="module")
def at_800():
    return requests_by_class(800.0)


@pytest.fixture(scope="module")
def at_200():
    return requests_by_class(200.0)


class TestArrayLatencies:
    def test_row_hit_is_cas_only(self, at_800):
        assert array_ns(at_800[ROW_HIT]) == pytest.approx(T.t_cl_ns)

    def test_closed_bank_miss(self, at_800):
        assert array_ns(at_800[CLOSED_BANK_MISS]) == pytest.approx(
            T.t_rcd_ns + T.t_cl_ns)

    def test_open_row_miss_adds_precharge(self, at_800):
        assert array_ns(at_800[OPEN_ROW_MISS]) == pytest.approx(
            T.t_rp_ns + T.t_rcd_ns + T.t_cl_ns)

    def test_ordering_hit_lt_closed_lt_open(self, at_800):
        hit, closed, open_miss = (array_ns(at_800[access]) for access in
                                  (ROW_HIT, CLOSED_BANK_MISS, OPEN_ROW_MISS))
        assert hit < closed < open_miss

    def test_needs_activate(self, at_800):
        # act_ns stays -1 for a row hit; a miss activates once its
        # precharge (open-row miss only) is done
        assert at_800[ROW_HIT].act_ns == -1.0
        closed = at_800[CLOSED_BANK_MISS]
        assert closed.act_ns == closed.bank_start_ns
        open_miss = at_800[OPEN_ROW_MISS]
        assert open_miss.act_ns == pytest.approx(
            open_miss.bank_start_ns + T.t_rp_ns)


def wake(mode):
    """(bank-start delay, EPDC) of a read that finds its rank idle.

    The first read leaves the rank idle: Fast-PD and Slow-PD then power
    it down, so the second read pays the exit before its activate.
    """
    engine = EventEngine()
    mc = MemoryController(engine, CFG, powerdown_mode=mode,
                          refresh_enabled=False, n_cores=1)
    read(mc)
    engine.run()
    waking = read(mc)
    engine.run()
    return waking.bank_start_ns - waking.arrive_bank_ns, mc.counters.epdc


class TestPowerdownExits:
    def test_fast_exit(self):
        assert wake(PowerdownMode.FAST_EXIT) == pytest.approx((T.t_xp_ns, 1.0))
        assert T.t_xp_ns == 6.0

    def test_slow_exit(self):
        assert wake(PowerdownMode.SLOW_EXIT) == pytest.approx(
            (T.t_xpdll_ns, 1.0))
        assert T.t_xpdll_ns == 24.0

    def test_none_mode_has_no_exit_cost(self):
        assert wake(PowerdownMode.NONE) == pytest.approx((0.0, 0.0))


def activates(locations):
    """Activate times of reads submitted together (closed page)."""
    engine = EventEngine()
    mc = MemoryController(engine, CFG, refresh_enabled=False, n_cores=1)
    requests = []
    for bank, row in locations:
        requests.append(read(mc, bank=bank, row=row))
    engine.run()
    return sorted(r.act_ns for r in requests)


class TestWindowsAndRefresh:
    """Exact placements; ``test_timing_windows`` bounds them from below."""

    def test_activation_windows(self):
        # five banks of one rank: tRRD spaces the first four, tFAW holds
        # the fifth until the window of the first has passed
        acts = activates([(bank, 0) for bank in range(5)])
        assert [a - acts[0] for a in acts] == pytest.approx(
            [0.0, T.t_rrd_ns, 2 * T.t_rrd_ns, 3 * T.t_rrd_ns,
             max(4 * T.t_rrd_ns, T.t_faw_ns)])

    def test_row_cycle(self):
        # two rows of one bank: the second activate waits exactly tRC
        first, second = activates([(0, 1), (0, 2)])
        assert second - first == pytest.approx(T.t_rc_ns)

    def test_refresh_times(self):
        # rank 0 carries no stagger offset: it refreshes at every
        # multiple of tREFI, and each refresh holds it for tRFC
        engine = EventEngine()
        mc = MemoryController(engine, CFG, refresh_enabled=True, n_cores=1)
        rank = mc.ranks[0]
        for k in (1, 2):
            engine.run_until(k * T.t_refi_ns - 1.0)
            assert mc.counters.refreshes[0] == k - 1
            engine.run_until(k * T.t_refi_ns)
            assert mc.counters.refreshes[0] == k
            assert rank.refresh_busy_until == pytest.approx(
                k * T.t_refi_ns + T.t_rfc_ns)
        assert T.t_refi_ns == pytest.approx(64e6 / 8192)


class TestFrequencyDependentOperations:
    def test_array_latencies_independent_of_frequency(self, at_800, at_200):
        # Device-internal timings must not change with bus frequency.
        for access in AccessClass:
            assert array_ns(at_200[access]) == pytest.approx(
                array_ns(at_800[access]))

    def test_burst_scales_with_frequency(self, at_800, at_200):
        for access in AccessClass:
            fast = at_800[access].complete_ns - at_800[access].bus_start_ns
            slow = at_200[access].complete_ns - at_200[access].bus_start_ns
            assert fast == pytest.approx(4 * 1.25)  # 4 bus cycles
            assert slow == pytest.approx(fast * 800.0 / 200.0)

    def test_mc_latency_scales_with_frequency(self, at_800, at_200):
        for access in AccessClass:
            fast = at_800[access].arrive_bank_ns - at_800[access].issue_ns
            slow = at_200[access].arrive_bank_ns - at_200[access].issue_ns
            assert fast == pytest.approx(5 * 0.625)  # 5 MC cycles
            assert slow == pytest.approx(fast * 4.0)
