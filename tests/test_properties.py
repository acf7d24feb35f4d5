"""Property-based invariants of the memory-system simulator.

Hypothesis drives randomized request streams through a real controller
and checks conservation and ordering invariants that must hold for any
workload: every request completes exactly once, latencies decompose
monotonically, counters are consistent with completions, and state-time
accounting always sums to wall-clock time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MemoryOrgConfig, scaled_config
from repro.memsim.address import AddressMapper, MemoryLocation
from repro.memsim.controller import MemoryController
from repro.memsim.engine import CALLBACK, EventEngine
from repro.memsim.request import MemRequest, RequestKind
from repro.memsim.states import PowerdownMode

CFG = scaled_config()

#: A request spec: (delay offset ns, line address, is_read).
request_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
        st.integers(min_value=0, max_value=1 << 20),
        st.booleans(),
    ),
    min_size=1, max_size=60,
)


def post_requests(engine, mc, specs):
    """Post each spec's submission at its delay; returns the list the
    completed reads land in."""
    completed = []

    def submit(spec):
        _, addr, is_read = spec
        if is_read:
            mc.submit_read(addr, on_complete=completed.append)
        else:
            mc.submit_writeback(addr)

    for spec in specs:
        engine.post(spec[0], submit, spec)
    return completed


def drive(specs, powerdown=PowerdownMode.NONE):
    engine = EventEngine()
    mc = MemoryController(engine, CFG, powerdown_mode=powerdown,
                          refresh_enabled=False, n_cores=2)
    completed = post_requests(engine, mc, specs)
    engine.run()
    return engine, mc, completed


class TestConservation:
    @given(request_specs)
    @settings(max_examples=40, deadline=None)
    def test_every_request_completes_exactly_once(self, specs):
        engine, mc, completed = drive(specs)
        reads = sum(1 for _, _, r in specs if r)
        writes = len(specs) - reads
        assert mc.completed_reads == reads
        assert mc.completed_writes == writes
        assert len(completed) == reads
        assert mc.pending_requests == 0

    @given(request_specs)
    @settings(max_examples=40, deadline=None)
    def test_counters_match_completions(self, specs):
        engine, mc, _ = drive(specs)
        n = len(specs)
        # every access is classified exactly once
        assert mc.counters.rbhc + mc.counters.obmc + mc.counters.cbmc == n
        # every request sampled the queue accumulators exactly once
        assert mc.counters.btc == n
        assert mc.counters.ctc == n
        # every non-hit performed an activate
        assert mc.counters.pocc == n - mc.counters.rbhc

    @given(request_specs)
    @settings(max_examples=40, deadline=None)
    def test_latency_decomposition_is_ordered(self, specs):
        engine, mc, completed = drive(specs)
        for request in completed:
            assert request.issue_ns <= request.arrive_bank_ns
            assert request.arrive_bank_ns <= request.bank_start_ns
            assert request.bank_start_ns < request.bank_done_ns
            assert request.bank_done_ns <= request.bus_start_ns
            assert request.bus_start_ns < request.complete_ns

    @given(request_specs)
    @settings(max_examples=30, deadline=None)
    def test_minimum_latency_floor(self, specs):
        """No request can beat MC + fastest array access + burst."""
        engine, mc, completed = drive(specs)
        floor = (CFG.timings.t_cl_ns  # best case: row hit
                 + 5 * 0.625          # MC processing at 1600 MHz
                 + 4 * 1.25)          # burst at 800 MHz
        for request in completed:
            assert request.total_latency_ns >= floor - 1e-9

    @given(request_specs)
    @settings(max_examples=25, deadline=None)
    def test_state_time_accounting_sums_to_wall_clock(self, specs):
        engine, mc, _ = drive(specs)
        mc.sync_accounting()
        wall = engine.now
        totals = np.array(mc.counters.rank_state_ns).sum(axis=1)
        assert np.allclose(totals, wall, atol=1e-6)

    @given(request_specs)
    @settings(max_examples=25, deadline=None)
    def test_powerdown_mode_preserves_conservation(self, specs):
        engine, mc, completed = drive(specs,
                                      powerdown=PowerdownMode.FAST_EXIT)
        reads = sum(1 for _, _, r in specs if r)
        assert len(completed) == reads
        assert mc.pending_requests == 0


class TestBusExclusivity:
    @given(request_specs)
    @settings(max_examples=30, deadline=None)
    def test_bursts_on_one_channel_never_overlap(self, specs):
        engine, mc, completed = drive(specs)
        by_channel = {}
        for request in completed:
            by_channel.setdefault(request.location.channel, []).append(
                (request.bus_start_ns, request.complete_ns))
        for intervals in by_channel.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9

    @given(request_specs)
    @settings(max_examples=30, deadline=None)
    def test_channel_busy_time_equals_burst_sum(self, specs):
        engine, mc, _ = drive(specs)
        n = len(specs)
        burst = 4 * 1.25
        assert sum(mc.counters.channel_busy_ns) == pytest.approx(n * burst)


class TestFrequencyInvariance:
    @given(request_specs,
           st.sampled_from([800.0, 533.0, 333.0, 200.0]))
    @settings(max_examples=25, deadline=None)
    def test_all_requests_complete_at_any_frequency(self, specs, bus_mhz):
        engine = EventEngine()
        mc = MemoryController(engine, CFG, refresh_enabled=False, n_cores=2)
        mc.set_frequency_by_bus_mhz(bus_mhz)
        completed = post_requests(engine, mc, specs)
        engine.run()
        reads = sum(1 for _, _, r in specs if r)
        assert len(completed) == reads
        assert mc.pending_requests == 0

    @given(st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=20, deadline=None)
    def test_isolated_read_slower_at_lower_frequency(self, addr):
        latencies = []
        for bus_mhz in (800.0, 200.0):
            engine = EventEngine()
            mc = MemoryController(engine, CFG, refresh_enabled=False,
                                  n_cores=1)
            mc.set_frequency_by_bus_mhz(bus_mhz)
            engine.run_until(mc.frozen_until_ns)
            done = []
            mc.submit_read(addr, on_complete=done.append)
            engine.run()
            latencies.append(done[0].total_latency_ns)
        assert latencies[1] > latencies[0]


#: Randomized but always-valid memory geometries for the address mapper.
#: Tests draw addresses below each geometry's capacity, where encode is
#: a true inverse of decode (beyond it the row index wraps).
geometries = st.builds(
    lambda channels, banks, ranks, lines, rows: MemoryOrgConfig(
        channels=channels, dimms_per_channel=1, ranks_per_dimm=ranks,
        banks_per_rank=banks, rows_per_bank=rows,
        cache_line_bytes=64, row_size_bytes=64 * lines),
    channels=st.integers(min_value=1, max_value=8),
    banks=st.integers(min_value=1, max_value=16),
    ranks=st.integers(min_value=1, max_value=4),
    lines=st.integers(min_value=1, max_value=256),
    rows=st.integers(min_value=1 << 16, max_value=1 << 20),
)


class TestAddressMapping:
    """decode/encode are mutually inverse bijections on any geometry."""

    @given(geometries, st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_from_address(self, org, data):
        org.validate()
        mapper = AddressMapper(org)
        # Stay below the geometry's capacity in cache lines: beyond it
        # the row index wraps (decode is total, encode inverts only the
        # non-wrapped range).
        capacity = (org.channels * org.ranks_per_channel
                    * org.banks_per_rank * org.rows_per_bank
                    * org.lines_per_row)
        addr = data.draw(
            st.integers(0, min(capacity, 1 << 40) - 1), label="addr")
        loc = mapper.decode(addr)
        assert 0 <= loc.channel < org.channels
        assert 0 <= loc.rank < org.ranks_per_channel
        assert 0 <= loc.bank < org.banks_per_rank
        assert 0 <= loc.row < org.rows_per_bank
        assert 0 <= loc.column < org.lines_per_row
        assert mapper.encode(loc) == addr

    @given(geometries, st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_from_location(self, org, data):
        mapper = AddressMapper(org)
        loc = MemoryLocation(
            channel=data.draw(st.integers(0, org.channels - 1)),
            rank=data.draw(st.integers(0, org.ranks_per_channel - 1)),
            bank=data.draw(st.integers(0, org.banks_per_rank - 1)),
            row=data.draw(st.integers(0, org.rows_per_bank - 1)),
            column=data.draw(st.integers(0, org.lines_per_row - 1)),
        )
        assert mapper.decode(mapper.encode(loc)) == loc

    @given(geometries, st.data())
    @settings(max_examples=100, deadline=None)
    def test_decode_is_injective(self, org, data):
        mapper = AddressMapper(org)
        capacity = (org.channels * org.ranks_per_channel
                    * org.banks_per_rank * org.rows_per_bank
                    * org.lines_per_row)
        addrs = data.draw(
            st.lists(st.integers(0, min(capacity, 1 << 40) - 1),
                     min_size=2, max_size=50, unique=True), label="addrs")
        locations = [mapper.decode(a) for a in addrs]
        assert len(set(locations)) == len(locations)

    @given(geometries)
    @settings(max_examples=50, deadline=None)
    def test_consecutive_lines_interleave_channels(self, org):
        # Cache-line interleaving: consecutive addresses walk channels
        # round-robin before anything else changes.
        mapper = AddressMapper(org)
        for addr in range(min(4 * org.channels, 64)):
            assert mapper.decode(addr).channel == addr % org.channels


#: An event plan: per event a (delay, cancel_me) pair. Cancellation is
#: decided up front so the expected firing set is computable.
event_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=1, max_size=80,
)


class TestEngineOrderingUnderCancellation:
    """The event loop's contract survives arbitrary cancellation.

    Housekeeping entries are the cancellable kind, so the events here
    are posted with ``post_housekeeping`` and cancelled with
    ``tombstone``."""

    @given(event_plans)
    @settings(max_examples=100, deadline=None)
    def test_fired_events_sorted_and_cancelled_skipped(self, plan):
        engine = EventEngine()
        fired = []
        events = []
        for i, (delay, _) in enumerate(plan):
            events.append(engine.post_housekeeping(
                delay, lambda i=i: fired.append((engine.now, i))))
        for event, (_, cancel_me) in zip(events, plan):
            if cancel_me:
                engine.tombstone(event)
        engine.run()
        expected = [i for i, (_, c) in enumerate(plan) if not c]
        assert sorted(f[1] for f in fired) == expected
        # (time, insertion seq) ordering: times never decrease, and ties
        # fire in submission order.
        times = [t for t, _ in fired]
        assert times == sorted(times)
        for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
            if t1 == t2:
                assert i1 < i2
        assert engine.pending == 0

    @given(event_plans, st.data())
    @settings(max_examples=100, deadline=None)
    def test_callbacks_cancelling_future_events(self, plan, data):
        # Cancels issued *from inside callbacks* (the simulator's actual
        # pattern) must prevent later-scheduled victims from firing.
        engine = EventEngine()
        fired = []
        events = []
        victims = {}
        for i, (delay, _) in enumerate(plan):
            def callback(i=i):
                fired.append(i)
                victim = victims.get(i)
                if victim is not None:
                    engine.tombstone(victim)
            events.append(engine.post_housekeeping(delay, callback))
        # Each cancelling event picks a victim that fires strictly later.
        order = sorted(range(len(plan)), key=lambda i: (plan[i][0], i))
        for pos, i in enumerate(order):
            if plan[i][1] and pos + 1 < len(order):
                target_pos = data.draw(
                    st.integers(pos + 1, len(order) - 1), label="victim")
                victims[i] = events[order[target_pos]]
        engine.run()
        # Exactly the never-cancelled events fired, once each, in
        # (time, seq) order; victims sort strictly after their canceller,
        # so every cancel lands before its victim would have popped.
        expected = [i for i in order if events[i][CALLBACK] is not None]
        assert fired == expected
        assert engine.pending == 0
        assert engine.events_processed >= len(fired)
