"""Discrete-event simulation engine.

A minimal, fast event loop used by the whole memory-system simulator
(the second step of the paper's two-step methodology, Section 4.1).
Events are callbacks ordered by (time, insertion sequence); ties in time
therefore execute in scheduling order, which keeps simulations
deterministic — the property the parallel experiment runner relies on
to make fan-out runs byte-identical to serial ones. Time is float
nanoseconds.

Hot-path design
---------------
The heap stores plain lists whose first two slots are ``time`` and a
unique ``seq``, so ``heapq`` orders entries with C-level list
comparison: comparisons never reach the callback slot and no Python
``__lt__`` is ever invoked. A workload event is posted with
:meth:`post` / :meth:`post_at` as a callback and its one argument; its
entry is ``[time, seq, callback, arg]`` and is dispatched as
``callback(arg)``. The simulator's request path posts a bound method
and its argument (a bank completion posts ``(bank._bank_done,
request)``), so no per-event closure is built, no second Python frame
runs, and no handle is allocated: a post is one list and one heap push.

Cancellation is a tombstone and applies to housekeeping entries only
(below): :meth:`tombstone` clears the entry's callback slot in place (a
decrease-key-free lazy deletion), and every queue consumer
(:meth:`run_until_stopped`, :meth:`step`) drops dead entries as they
surface at the head — so a cancelled head with an otherwise-empty queue
behaves exactly like an empty queue, the case
``tests/test_engine.py::TestCancelledHead`` pins down. Tombstones are
counted, and when they outnumber the live entries :meth:`tombstone`
compacts the heap in place (the queue list's identity is preserved
because the run loops hold a local reference to it). The slot indices
are named once, below (``TIME`` … ``TAG``).

Fast-forward
------------
Periodic *housekeeping* events (the rank refresh timers and their
completions) are tagged by length: they are pushed as 5-element
``[time, seq, callback, None, tag]`` lists and dispatched as
``callback()``, while workload entries stay 4 elements long. When a
housekeeping entry surfaces at the head of the queue inside
:meth:`run_until` / :meth:`run_until_stopped` and a fast-forward
delegate is installed (see :meth:`set_fast_forward`), the delegate gets
a chance to batch the idle period analytically — replaying the skipped
events' exact counter and sequence-number effects — instead of
grinding through them one heap pop at a time. The delegate returns
True when it consumed work (the loop then re-examines the head) and
False to fall back to normal execution. Skipped events are tallied in
:attr:`events_fast_forwarded`; ``events_processed +
events_fast_forwarded`` is therefore the simulated-event count with
fast-forward on or off.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: Slot indices of a heap entry. A workload entry is
#: ``[time, seq, callback, arg]``; a housekeeping entry is
#: ``[time, seq, callback, None, tag]``. The two kinds are told apart
#: by length (:data:`WORKLOAD_LEN` versus :data:`HOUSEKEEPING_LEN`).
TIME, SEQ, CALLBACK, ARG, TAG = 0, 1, 2, 3, 4
WORKLOAD_LEN = 4
HOUSEKEEPING_LEN = 5

#: Entries below this queue length are never worth compacting.
_COMPACT_MIN = 8


def _never() -> bool:
    """The stop predicate of :meth:`EventEngine.run_until`."""
    return False


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class EventEngine:
    """A deterministic discrete-event scheduler over float-ns time."""

    __slots__ = ("_now", "_queue", "_seq", "_events_processed",
                 "_events_fast_forwarded", "_fast_forward", "_tombstones",
                 "_horizon")

    def __init__(self, start_time_ns: float = 0.0):
        self._now = start_time_ns
        self._queue: list = []
        self._seq = 0
        self._events_processed = 0
        self._events_fast_forwarded = 0
        self._fast_forward: Optional[Callable[[list, float], bool]] = None
        self._tombstones = 0
        # Cached earliest workload event time (None = recompute).
        # Workload entries cannot be cancelled, so the cache is
        # invalidated only when one is posted or dispatched; going
        # stale-low is safe (it only shortens a fast-forward reach),
        # going stale-high never happens.
        self._horizon: Optional[float] = None

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled ones excluded)."""
        return self._events_processed

    @property
    def events_fast_forwarded(self) -> int:
        """Events skipped by the fast-forward path but accounted
        analytically — they *did* happen in simulated time."""
        return self._events_fast_forwarded

    @property
    def events_busy_absorbed(self) -> int:
        """Always 0: busy-period chain absorption has been removed.

        Kept read-only for its one reader, the benchmark tracer
        (``bench/layers.py``), which reads it after every traced
        :meth:`~repro.sim.system.SystemSimulator.run`.
        """
        return 0

    @property
    def pending(self) -> int:
        """Number of queued *live* events; tombstoned (cancelled) entries
        still sitting in the heap are not counted."""
        return sum(1 for e in self._queue if e[CALLBACK] is not None)

    # -- scheduling ----------------------------------------------------------

    def post_at(self, time_ns: float, callback: Callable[[Any], None],
                arg: Any) -> None:
        """Schedule ``callback(arg)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns: current time is {self._now} ns"
            )
        self._seq = seq = self._seq + 1
        heappush(self._queue, [time_ns, seq, callback, arg])
        self._horizon = None

    def post(self, delay_ns: float, callback: Callable[[Any], None],
             arg: Any) -> None:
        """Schedule ``callback(arg)`` after ``delay_ns`` nanoseconds.

        The body of :meth:`post_at` is duplicated rather than delegated:
        this is called once per request-path continuation.
        """
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, [self._now + delay_ns, seq, callback, arg])
        self._horizon = None

    def post_housekeeping_at(self, time_ns: float,
                             callback: Callable[[], None],
                             tag: object = True) -> list:
        """Schedule ``callback()`` at ``time_ns``, tagged as periodic
        housekeeping, and return the raw heap entry so the scheduler of
        the event can :meth:`tombstone` it later.

        The entry is ``[time, seq, callback, None, tag]``. ``tag`` fills
        the fifth slot: ``True`` for plain housekeeping, or any
        scheduler-chosen object the fast-forward delegate can use to
        recognize an absorbable head without introspecting the callback
        (the memory controller passes the owning rank of each refresh
        timer).
        """
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns: current time is {self._now} ns"
            )
        self._seq = seq = self._seq + 1
        entry = [time_ns, seq, callback, None, tag]
        heappush(self._queue, entry)
        return entry

    def post_housekeeping(self, delay_ns: float,
                          callback: Callable[[], None],
                          tag: object = True) -> list:
        """Housekeeping-tagged post after ``delay_ns`` ns; returns the
        raw heap entry."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.post_housekeeping_at(self._now + delay_ns, callback, tag)

    # -- fast-forward support ------------------------------------------------

    def set_fast_forward(self, delegate: Optional[Callable[[list, float],
                                                           bool]]
                         ) -> None:
        """Install (or clear) the idle-period fast-forward delegate.

        ``delegate(head, bound_ns)`` is invoked by the run loops when a
        housekeeping-tagged entry surfaces at the head of the queue and
        is due within the loop's bound. It must either absorb the head
        analytically — applying its side effects, advancing ``_seq`` by
        the sequence numbers dispatch would have allocated, removing the
        head from ``_queue`` (or tombstoning it) and adding the skipped
        events to ``_events_fast_forwarded`` — and return True, or touch
        nothing and return False.
        """
        self._fast_forward = delegate

    def push_reserved(self, time_ns: float, seq: int,
                      callback: Callable[[], None],
                      tag: object = True) -> list:
        """Push a housekeeping entry carrying an already-reserved ``seq``.

        The fast-forward delegate uses this to leave behind exactly the
        heap entries (timer re-posts, a refresh completion that crosses
        the jump target) the skipped events would have pushed, with the
        sequence numbers they would have carried. ``tag`` is the same
        fifth-slot marker :meth:`post_housekeeping_at` takes.
        """
        entry = [time_ns, seq, callback, None, tag]
        heappush(self._queue, entry)
        return entry

    def workload_horizon(self, bound_ns: float) -> float:
        """Earliest workload (non-housekeeping) event time, capped at
        ``bound_ns`` — how far a fast-forward batch may reach.

        The uncapped minimum is cached between workload-set changes, so
        the per-tick fast-forward path pays a queue scan only once per
        idle window instead of once per absorbed tick.
        """
        horizon = self._horizon
        if horizon is None:
            horizon = float("inf")
            for entry in self._queue:
                if len(entry) == WORKLOAD_LEN and entry[TIME] < horizon:
                    horizon = entry[TIME]
            self._horizon = horizon
        return horizon if horizon < bound_ns else bound_ns

    def tombstone(self, entry: list) -> None:
        """Cancel a housekeeping entry in place; safe to repeat.

        When tombstones come to dominate the queue it is compacted *in
        place* (slice assignment + re-heapify), so run loops holding a
        local reference to the list keep seeing the live heap.
        """
        if entry[CALLBACK] is None:
            return
        entry[CALLBACK] = None
        self._tombstones += 1
        queue = self._queue
        if len(queue) >= _COMPACT_MIN and self._tombstones * 2 > len(queue):
            queue[:] = [e for e in queue if e[CALLBACK] is not None]
            heapify(queue)
            self._tombstones = 0

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the next live event. Returns False when no live events
        remain (cancelled-only queues count as empty); the clock is not
        advanced in that case."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            callback = entry[CALLBACK]
            if callback is None:
                if self._tombstones:
                    self._tombstones -= 1
                continue
            self._now = entry[TIME]
            self._events_processed += 1
            if len(entry) == WORKLOAD_LEN:
                self._horizon = None
                callback(entry[ARG])
            else:
                callback()
            return True
        return False

    def run_until(self, time_ns: float) -> None:
        """Run all events scheduled strictly up to and at ``time_ns``.

        On return the clock reads exactly ``time_ns`` even when the queue
        drained early, so periodic controllers can rely on the clock.
        This is :meth:`run_until_stopped` with a stop predicate that
        never holds.
        """
        self.run_until_stopped(time_ns, _never)

    def run_until_stopped(self, time_ns: float,
                          should_stop: Callable[[], bool]) -> bool:
        """Run all events scheduled up to and at ``time_ns``, evaluating
        ``should_stop()`` after every event and returning True the moment
        it holds — leaving the clock at that event's time. Otherwise the
        clock advances to exactly ``time_ns`` and ``should_stop()``'s
        value is returned.

        This is the simulation main loop fused into the engine: one
        Python loop per event instead of the peek/step/check triple the
        system layer would otherwise pay. Workload entries dispatch as
        ``callback(arg)``, housekeeping entries as ``callback()``.
        """
        if time_ns < self._now:
            raise SimulationError(
                f"cannot run backwards to {time_ns} ns from {self._now} ns"
            )
        if should_stop():
            return True
        queue = self._queue
        ff = self._fast_forward
        while queue:
            head = queue[0]
            callback = head[CALLBACK]
            if callback is None:
                heappop(queue)
                if self._tombstones:
                    self._tombstones -= 1
                continue
            if head[TIME] > time_ns:
                break
            if len(head) == WORKLOAD_LEN:
                self._horizon = None
                heappop(queue)
                self._now = head[TIME]
                self._events_processed += 1
                callback(head[ARG])
            else:
                if ff is not None and ff(head, time_ns):
                    continue
                heappop(queue)
                self._now = head[TIME]
                self._events_processed += 1
                callback()
            if should_stop():
                return True
        self._now = time_ns
        return should_stop()

    def run(self) -> None:
        """Run until the queue drains."""
        while self.step():
            pass
