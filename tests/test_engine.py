"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.memsim.engine import (ARG, HOUSEKEEPING_LEN, TAG, WORKLOAD_LEN,
                                  EventEngine, SimulationError)


class TestScheduling:
    def test_starts_at_zero(self):
        assert EventEngine().now == 0.0

    def test_custom_start_time(self):
        assert EventEngine(start_time_ns=42.0).now == 42.0

    def test_schedule_and_step(self):
        engine = EventEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(engine.now))
        assert engine.step() is True
        assert fired == [5.0]
        assert engine.now == 5.0

    def test_step_empty_returns_false(self):
        assert EventEngine().step() is False

    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        order = []
        engine.schedule(10.0, lambda: order.append("late"))
        engine.schedule(1.0, lambda: order.append("early"))
        engine.schedule(5.0, lambda: order.append("middle"))
        engine.run()
        assert order == ["early", "middle", "late"]

    def test_ties_fire_in_scheduling_order(self):
        engine = EventEngine()
        order = []
        for i in range(5):
            engine.schedule(3.0, lambda i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_in_past_raises(self):
        engine = EventEngine()
        engine.schedule(10.0, lambda: None)
        engine.step()
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            EventEngine().schedule(-1.0, lambda: None)

    def test_nested_scheduling(self):
        engine = EventEngine()
        fired = []

        def outer():
            fired.append(("outer", engine.now))
            engine.schedule(2.0, lambda: fired.append(("inner", engine.now)))

        engine.schedule(1.0, outer)
        engine.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = EventEngine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_pending_excludes_cancelled(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        handle = engine.schedule(2.0, lambda: None)
        handle.cancel()
        assert engine.pending == 1


class TestCancelledHead:
    """Regression: a cancelled head event with an otherwise-empty queue
    must behave exactly like an empty queue in every engine entry point
    (lazy deletion: ``run_until_stopped``, ``step`` and ``peek_time``
    drop tombstones as they surface; ``note_tombstone`` compacts)."""

    def make_engine_with_cancelled_only_event(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule(5.0, lambda: fired.append(5))
        handle.cancel()
        return engine, fired

    def test_peek_time_reports_empty(self):
        engine, _ = self.make_engine_with_cancelled_only_event()
        assert engine.peek_time() is None

    def test_step_reports_no_events_and_keeps_clock(self):
        engine, fired = self.make_engine_with_cancelled_only_event()
        assert engine.step() is False
        assert engine.now == 0.0
        assert fired == []
        assert engine.events_processed == 0

    def test_run_until_still_advances_clock(self):
        engine, fired = self.make_engine_with_cancelled_only_event()
        engine.run_until(100.0)
        assert engine.now == 100.0
        assert fired == []

    def test_run_drains_without_firing(self):
        engine, fired = self.make_engine_with_cancelled_only_event()
        engine.run()
        assert fired == []
        assert engine.pending == 0

    def test_pending_is_zero(self):
        engine, _ = self.make_engine_with_cancelled_only_event()
        assert engine.pending == 0

    def test_cancel_head_beyond_cutoff_then_run_until(self):
        # The cancelled head lies beyond the cutoff: run_until must not
        # fire it, and must leave the clock at the cutoff.
        engine = EventEngine()
        fired = []
        handle = engine.schedule(50.0, lambda: fired.append(50))
        handle.cancel()
        engine.run_until(10.0)
        assert engine.now == 10.0
        assert fired == []

    def test_callback_cancels_same_time_successor(self):
        # An event cancelling its same-timestamp successor leaves the
        # queue with a cancelled head; the engine must then be empty.
        engine = EventEngine()
        fired = []
        later = engine.schedule(5.0, lambda: fired.append("later"))
        engine.schedule_at(0.0, later.cancel)
        engine.schedule_at(5.0, lambda: fired.append("first"))
        engine.run()
        assert fired == ["first"]
        assert engine.peek_time() is None

    def test_scheduling_after_cancelled_only_queue(self):
        engine, fired = self.make_engine_with_cancelled_only_event()
        assert engine.peek_time() is None
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [2]


class TestRunUntil:
    def test_advances_clock_even_when_queue_empty(self):
        engine = EventEngine()
        engine.run_until(100.0)
        assert engine.now == 100.0

    def test_runs_events_up_to_and_including_boundary(self):
        engine = EventEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(5))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.schedule(10.5, lambda: fired.append(10.5))
        engine.run_until(10.0)
        assert fired == [5, 10]
        assert engine.now == 10.0
        engine.run_until(11.0)
        assert fired == [5, 10, 10.5]

    def test_backwards_raises(self):
        engine = EventEngine()
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_peek_time(self):
        engine = EventEngine()
        assert engine.peek_time() is None
        engine.schedule(7.0, lambda: None)
        assert engine.peek_time() == 7.0


class TestRun:
    def test_max_events_limit(self):
        engine = EventEngine()
        fired = []

        def recur():
            fired.append(engine.now)
            engine.schedule(1.0, recur)

        engine.schedule(0.0, recur)
        engine.run(max_events=10)
        assert len(fired) == 10

    def test_events_processed_counter(self):
        engine = EventEngine()
        for i in range(4):
            engine.schedule(float(i), lambda: None)
        engine.run()
        assert engine.events_processed == 4


class TestTombstoneCompaction:
    """Cancelled entries must not accumulate: once tombstones outnumber
    live entries (and the queue is past the minimum size), the heap is
    compacted in place and physically shrinks."""

    def test_queue_shrinks_when_tombstones_dominate(self):
        engine = EventEngine()
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(20)]
        assert len(engine._queue) == 20
        for handle in handles[:11]:  # 11 * 2 > 20 triggers compaction
            handle.cancel()
        assert len(engine._queue) == 9
        assert engine.pending == 9

    def test_small_queues_are_never_compacted(self):
        engine = EventEngine()
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(4)]
        for handle in handles:
            handle.cancel()
        # below _COMPACT_MIN: lazy deletion only, no compaction pass
        assert len(engine._queue) == 4
        assert engine.pending == 0

    def test_surviving_events_fire_in_order_after_compaction(self):
        engine = EventEngine()
        fired = []
        keep = []
        for i in range(24):
            handle = engine.schedule(float(i + 1),
                                     lambda i=i: fired.append(i))
            if i % 2:
                keep.append(i)
            else:
                handle.cancel()
        assert len(engine._queue) < 24
        engine.run()
        assert fired == keep

    def test_compaction_preserves_queue_identity_mid_run(self):
        # run_until holds a local reference to the queue list; a callback
        # that triggers compaction must not swap the list out from under
        # it. 16 pending cancels from inside the first event crosses the
        # threshold mid-loop.
        engine = EventEngine()
        fired = []
        doomed = [engine.schedule(50.0 + i, lambda: fired.append("doomed"))
                  for i in range(16)]

        def cancel_all():
            for handle in doomed:
                handle.cancel()

        engine.schedule(1.0, cancel_all)
        engine.schedule(2.0, lambda: fired.append("after"))
        engine.run_until(100.0)
        assert fired == ["after"]

    def test_cancel_via_raw_entry_tombstone(self):
        engine = EventEngine()
        fired = []
        entry = engine.post_housekeeping(5.0, lambda: fired.append(1))
        engine.tombstone(entry)
        engine.tombstone(entry)  # idempotent
        engine.run()
        assert fired == []


class TestHousekeeping:
    def test_housekeeping_events_fire_like_normal_ones(self):
        engine = EventEngine()
        fired = []
        engine.post_housekeeping(2.0, lambda: fired.append("hk"))
        engine.post(1.0, lambda: fired.append("workload"))
        engine.run()
        assert fired == ["workload", "hk"]

    def test_workload_horizon_ignores_housekeeping_and_tombstones(self):
        engine = EventEngine()
        engine.post_housekeeping(5.0, lambda: None)
        engine.post_housekeeping(1.0, lambda: None, tag=object())
        engine.push_reserved(2.0, engine.reserve_seq(), lambda: None)
        dead = engine.schedule(7.0, lambda: None)
        dead.cancel()
        engine.post_chain_at(9.0, print, None)
        engine.post_at(11.0, lambda: None)
        assert engine.workload_horizon(100.0) == 9.0

    def test_workload_horizon_caps_at_bound(self):
        engine = EventEngine()
        engine.post_at(50.0, lambda: None)
        assert engine.workload_horizon(20.0) == 20.0

    def test_workload_horizon_cache_sees_new_posts(self):
        engine = EventEngine()
        engine.post_at(50.0, lambda: None)
        assert engine.workload_horizon(100.0) == 50.0  # primes the cache
        engine.post_at(30.0, lambda: None)
        assert engine.workload_horizon(100.0) == 30.0

    def test_workload_horizon_cache_advances_past_dispatch(self):
        engine = EventEngine()
        engine.post_at(10.0, lambda: None)
        engine.post_at(40.0, lambda: None)
        assert engine.workload_horizon(100.0) == 10.0
        engine.run_until(20.0)  # dispatches the 10 ns event
        assert engine.workload_horizon(100.0) == 40.0

    def test_reserved_seq_matches_normal_allocation(self):
        engine = EventEngine()
        a = engine.reserve_seq()
        b = engine.reserve_seq()
        assert b == a + 1
        event = engine.schedule(1.0, lambda: None)
        assert event.seq == b + 1

    def test_reserve_seq_block_matches_serial_reservation(self):
        engine = EventEngine()
        base = engine.reserve_seq_block(2)
        # the block covers base+1 .. base+2, like two reserve_seq calls
        assert engine.reserve_seq() == base + 3

    def test_push_reserved_orders_by_reserved_seq(self):
        # Two entries at the same timestamp: the one carrying the earlier
        # reserved seq must fire first, regardless of push order.
        engine = EventEngine()
        fired = []
        first = engine.reserve_seq()
        second = engine.reserve_seq()
        engine.push_reserved(3.0, second, lambda: fired.append("second"))
        engine.push_reserved(3.0, first, lambda: fired.append("first"))
        engine.run()
        assert fired == ["first", "second"]


class TestEntryLayout:
    """Workload entries are ``[time, seq, callback, arg]`` dispatched as
    ``callback(arg)``; housekeeping entries are ``[time, seq, callback,
    None, tag]`` dispatched as ``callback()``. The zero-argument
    interfaces store a shim callback and the caller's callable as arg."""

    def test_entry_lengths_and_slots(self):
        engine = EventEngine()
        engine.post_chain_at(1.0, print, "x")  # no run loop: heap push
        hk = engine.post_housekeeping(2.0, lambda: None, tag="rank")
        workload = [e for e in engine._queue if e is not hk]
        assert len(workload) == 1 and len(workload[0]) == WORKLOAD_LEN
        assert workload[0][ARG] == "x"
        assert len(hk) == HOUSEKEEPING_LEN
        assert hk[ARG] is None and hk[TAG] == "rank"

    @pytest.mark.parametrize("drive", ["run", "run_until"])
    def test_zero_argument_interfaces_dispatch_and_cancel(self, drive):
        engine = EventEngine()
        fired = []
        engine.post(1.0, lambda: fired.append("post"))
        engine.post_at(2.0, lambda: fired.append("post_at"))
        engine.schedule(3.0, lambda: fired.append("schedule"))
        engine.schedule_at(4.0, lambda: fired.append("schedule_at"))
        dead = engine.schedule(5.0, lambda: fired.append("dead"))
        dead_at = engine.schedule_at(6.0, lambda: fired.append("dead_at"))
        dead.cancel()
        dead_at.cancel()
        assert dead.cancelled and dead_at.cancelled
        if drive == "run":
            engine.run()
        else:
            engine.run_until(10.0)
        assert fired == ["post", "post_at", "schedule", "schedule_at"]
        assert engine.events_processed == 4

    def test_post_chain_at_absorbed_inline_calls_fn_with_arg(self):
        engine = EventEngine()
        engine.set_chain_absorption(True)
        fired = []
        engine.post_at(1.0, lambda: engine.post_chain_at(
            4.0, fired.append, "chained"))
        engine.run_until(10.0)
        assert fired == ["chained"]
        assert engine.events_busy_absorbed == 1
        assert engine.events_processed == 1

    @pytest.mark.parametrize("absorb", [True, False])
    def test_post_chain_at_tie_with_head_falls_back_in_seq_order(
            self, absorb):
        # The tied workload entry was posted first, so it carries the
        # lower seq: the continuation must go through the heap and fire
        # after it, exactly as with absorption off.
        engine = EventEngine()
        engine.set_chain_absorption(absorb)
        fired = []

        def first():
            fired.append("first")
            engine.post_chain_at(5.0, fired.append, "chained")

        engine.post_at(1.0, first)
        engine.post_at(5.0, lambda: fired.append("tied"))
        engine.run_until(10.0)
        assert fired == ["first", "tied", "chained"]
        assert engine.events_busy_absorbed == 0
        assert engine.events_processed == 3

    @pytest.mark.parametrize("absorb", [True, False])
    def test_chain_seq_is_allocated_at_post_time(self, absorb):
        # A continuation posted before a same-time plain post keeps the
        # lower seq wherever it ends up (marker or heap).
        engine = EventEngine()
        engine.set_chain_absorption(absorb)
        fired = []

        def first():
            engine.post_chain(4.0, fired.append, "chained")  # due at 5.0
            engine.post_at(5.0, lambda: fired.append("later"))

        engine.post_at(1.0, first)
        engine.run_until(10.0)
        assert fired == ["chained", "later"]


class TestFastForwardDelegate:
    def test_delegate_only_sees_housekeeping_heads(self):
        engine = EventEngine()
        seen = []

        def delegate(head, bound_ns):
            seen.append((head[0], bound_ns))
            return False  # decline: normal execution proceeds

        engine.set_fast_forward(delegate)
        engine.post(1.0, lambda: None)
        engine.post_housekeeping(2.0, lambda: None)
        engine.run_until(10.0)
        assert seen == [(2.0, 10.0)]
        assert engine.events_processed == 2

    def test_delegate_absorbing_the_head_skips_dispatch(self):
        engine = EventEngine()
        fired = []
        engine.post_housekeeping(2.0, lambda: fired.append("hk"))

        def delegate(head, bound_ns):
            engine.pop_absorbed_head()
            engine.count_fast_forwarded(1)
            return True

        engine.set_fast_forward(delegate)
        engine.run_until(10.0)
        assert fired == []
        assert engine.events_processed == 0
        assert engine.events_fast_forwarded == 1
        assert engine.now == 10.0

    def test_delegate_may_absorb_via_tombstone(self):
        engine = EventEngine()
        fired = []
        entry = engine.post_housekeeping(2.0, lambda: fired.append("hk"))

        def delegate(head, bound_ns):
            engine.tombstone(entry)
            engine.count_fast_forwarded(1)
            return True

        engine.set_fast_forward(delegate)
        engine.run_until(10.0)
        assert fired == []
        assert engine.events_processed == 0
        assert engine.events_fast_forwarded == 1
        assert engine.now == 10.0

    def test_counts_are_disjoint(self):
        engine = EventEngine()
        engine.post(1.0, lambda: None)
        engine.run_until(5.0)
        engine.count_fast_forwarded(7)
        assert engine.events_processed == 1
        assert engine.events_fast_forwarded == 7


class TestOrderingProperty:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    def test_fire_times_are_sorted(self, delays):
        engine = EventEngine()
        fire_times = []
        for d in delays:
            engine.schedule(d, lambda: fire_times.append(engine.now))
        engine.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=30),
           st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_run_until_partitions_events(self, delays, cutoff):
        engine = EventEngine()
        fired = []
        for d in delays:
            engine.schedule(d, lambda d=d: fired.append(d))
        engine.run_until(cutoff)
        assert all(d <= cutoff for d in fired)
        assert sorted(fired) == sorted(d for d in delays if d <= cutoff)
