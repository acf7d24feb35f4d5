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
``__lt__`` is ever invoked. A workload entry is ``[time, seq, callback,
arg]`` and is dispatched as ``callback(arg)``: the simulator's request
path posts a bound method and its one argument (a bank completion posts
``(bank._bank_done, request)``), so no per-event closure is built and
no second Python frame runs. The public zero-argument interfaces share
that one form by storing the module-level :func:`_call` shim as the
callback and the user's callable as ``arg``:

* :meth:`schedule` / :meth:`schedule_at` return an :class:`Event`
  handle supporting :meth:`Event.cancel`;
* :meth:`post` / :meth:`post_at` allocate *no* handle at all — the
  per-event cost is one list and one heap push.

Cancellation is a tombstone: :meth:`Event.cancel` clears the entry's
callback slot in place (a decrease-key-free lazy deletion), and every
queue consumer (:meth:`run_until_stopped`, :meth:`step`,
:meth:`peek_time`) drops dead entries as they surface at the head — so
a cancelled head with an otherwise-empty queue behaves exactly like an
empty queue, the case ``tests/test_engine.py::TestCancelledHead`` pins
down. Tombstones are counted, and when they outnumber the live entries
:meth:`note_tombstone` compacts the heap in place (the queue list's
identity is preserved because the run loops hold a local reference to
it). The slot indices are named once, below (``TIME`` … ``TAG``).

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
events_fast_forwarded + events_busy_absorbed`` is therefore the
simulated-event count independent of which absorption modes are on.

Busy-period chain absorption
----------------------------
The idle delegate above only helps when the workload sleeps. Busy
stretches are dominated by *continuation chains*: a request's arrival
event posts its bank completion, which posts its bus burst, which posts
the bank precharge release — each the sole successor of the previous
one. :meth:`post_chain_at` lets those sites declare the continuation
relationship: the sequence number is allocated immediately (preserving
global tie ordering), but while a run loop is active and chain
absorption is armed (:meth:`set_chain_absorption`) the
``[time, seq, callback, arg]`` entry is parked in a one-deep marker
instead of the heap. After the posting callback fully unwinds back to
the run loop, the marker is executed inline — skipping the heap
push/pop pair — *only* when doing so is indistinguishable from
dispatch: the continuation is due within the loop bound and strictly
earlier than the heap head (ties fall back to a normal push so seq
ordering decides, exactly as dispatch would). A second chain post while
the marker is occupied, a stop-predicate hit, or loop exit all flush
the marker to the heap with its already-correct sequence number, so
results are byte-identical with the feature on or off. Absorbed
continuations are tallied in :attr:`events_busy_absorbed`.
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


def _call(callback: Callable[[], None]) -> None:
    """Dispatch shim of the zero-argument interfaces (``post``,
    ``schedule`` and their ``_at`` forms): their entries hold this as
    the callback and the caller's callable as the argument, so every
    workload entry dispatches as ``callback(arg)``."""
    callback()


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class Event:
    """Handle for a scheduled callback; supports cancellation.

    Wraps the engine's internal ``[time, seq, _call, callback]`` heap
    entry; cancelling tombstones the entry in place (its callback slot
    becomes None), so the heap never needs a scan or re-sift. The owning
    engine is kept so cancellation feeds the tombstone-compaction
    accounting.
    """

    __slots__ = ("_entry", "_engine")

    def __init__(self, entry: list, engine: Optional["EventEngine"] = None):
        self._entry = entry
        self._engine = engine

    @property
    def time(self) -> float:
        """Absolute fire time in nanoseconds."""
        return self._entry[TIME]

    @property
    def seq(self) -> int:
        """Insertion sequence number (the time tiebreaker)."""
        return self._entry[SEQ]

    @property
    def cancelled(self) -> bool:
        return self._entry[CALLBACK] is None

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call repeatedly."""
        if self._entry[CALLBACK] is None:
            return
        self._entry[CALLBACK] = None
        if self._engine is not None:
            self._engine.note_tombstone()
            self._engine._horizon = None


class EventEngine:
    """A deterministic discrete-event scheduler over float-ns time."""

    __slots__ = ("_now", "_queue", "_seq", "_events_processed",
                 "_events_fast_forwarded", "_fast_forward", "_tombstones",
                 "_horizon", "_chain", "_chain_armed", "_absorb_chains",
                 "_chain_absorbed")

    def __init__(self, start_time_ns: float = 0.0):
        self._now = start_time_ns
        self._queue: list = []
        self._seq = 0
        self._events_processed = 0
        self._events_fast_forwarded = 0
        self._fast_forward: Optional[Callable[[list, float], bool]] = None
        self._tombstones = 0
        # One-deep deferred-continuation marker (see module docstring):
        # a [time, seq, callback, arg] entry parked instead of
        # heap-pushed. Only ever non-None while a run loop is active.
        self._chain: Optional[list] = None
        self._chain_armed = False
        self._absorb_chains = False
        self._chain_absorbed = 0
        # Cached earliest live workload event time (None = recompute).
        # Invalidated whenever a workload entry is posted, dispatched,
        # or cancelled; going stale-low is safe (it only shortens a
        # fast-forward reach), going stale-high never happens.
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
        """Continuation events executed inline by chain absorption —
        like :attr:`events_fast_forwarded` they *did* happen in
        simulated time, they just never touched the heap."""
        return self._chain_absorbed

    @property
    def pending(self) -> int:
        """Number of queued *live* events; tombstoned (cancelled) entries
        still sitting in the heap are not counted."""
        return sum(1 for e in self._queue if e[CALLBACK] is not None)

    # -- scheduling ----------------------------------------------------------

    def post_at(self, time_ns: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback()`` at ``time_ns`` with no cancel handle.

        The allocation-free public path: one heap entry, no
        :class:`Event`.
        """
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns: current time is {self._now} ns"
            )
        self._seq = seq = self._seq + 1
        heappush(self._queue, [time_ns, seq, _call, callback])
        self._horizon = None

    def post(self, delay_ns: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback()`` after ``delay_ns`` ns, handle-free."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        self.post_at(self._now + delay_ns, callback)

    def post_chain_at(self, time_ns: float, callback: Callable[[Any], None],
                      arg: Any) -> None:
        """Schedule ``callback(arg)`` at ``time_ns``, declaring it the sole
        continuation of the currently-executing event.

        The sequence number is allocated here, exactly as :meth:`post_at`
        would — so however the entry later reaches execution (inline
        absorption or heap fallback), tie ordering against every other
        event is unchanged. While a run loop is active with chain
        absorption armed and the marker is free, the entry is parked for
        inline execution; otherwise it is heap-pushed normally.
        """
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns: current time is {self._now} ns"
            )
        self._seq = seq = self._seq + 1
        if self._chain_armed and self._chain is None:
            self._chain = [time_ns, seq, callback, arg]
            return
        heappush(self._queue, [time_ns, seq, callback, arg])
        self._horizon = None

    def post_chain(self, delay_ns: float, callback: Callable[[Any], None],
                   arg: Any) -> None:
        """Continuation-declaring :meth:`post` (relative delay).

        The body of :meth:`post_chain_at` is duplicated rather than
        delegated: this is called once per request-path continuation.
        """
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        time_ns = self._now + delay_ns
        self._seq = seq = self._seq + 1
        if self._chain_armed and self._chain is None:
            self._chain = [time_ns, seq, callback, arg]
            return
        heappush(self._queue, [time_ns, seq, callback, arg])
        self._horizon = None

    def set_chain_absorption(self, enabled: bool) -> None:
        """Arm (or disarm) busy-period chain absorption for subsequent
        run loops. Disarmed, :meth:`post_chain_at` degenerates to a plain
        heap push — the off-switch the equivalence tests flip."""
        self._absorb_chains = bool(enabled)

    def post_housekeeping_at(self, time_ns: float,
                             callback: Callable[[], None],
                             tag: object = True) -> list:
        """Like :meth:`post_at`, but tag the entry as periodic
        housekeeping and return the raw heap entry so the scheduler of
        the event can tombstone it later.

        The entry is ``[time, seq, callback, None, tag]`` and dispatches
        as ``callback()``. ``tag`` fills the fifth slot: ``True`` for
        plain housekeeping, or any scheduler-chosen object the
        fast-forward delegate can use to recognize an absorbable head
        without introspecting the callback (the memory controller passes
        the owning rank of each refresh timer).
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
        """Housekeeping-tagged :meth:`post`; returns the raw heap entry."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.post_housekeeping_at(self._now + delay_ns, callback, tag)

    def schedule_at(self, time_ns: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback()`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns: current time is {self._now} ns"
            )
        self._seq = seq = self._seq + 1
        entry = [time_ns, seq, _call, callback]
        heappush(self._queue, entry)
        self._horizon = None
        return Event(entry, self)

    def schedule(self, delay_ns: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback()`` after ``delay_ns`` nanoseconds."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.schedule_at(self._now + delay_ns, callback)

    # -- fast-forward support ------------------------------------------------

    def set_fast_forward(self, delegate: Optional[Callable[[list, float],
                                                           bool]]
                         ) -> None:
        """Install (or clear) the idle-period fast-forward delegate.

        ``delegate(head, bound_ns)`` is invoked by the run loops when a
        housekeeping-tagged entry surfaces at the head of the queue and
        is due within the loop's bound. It must either absorb the head
        analytically — applying its side effects, allocating the exact
        sequence numbers dispatch would have, and removing it via
        :meth:`pop_absorbed_head` (or a tombstone) — and return True,
        or touch nothing and return False.
        """
        self._fast_forward = delegate

    def reserve_seq(self) -> int:
        """Consume and return the next sequence number.

        Used by the fast-forward path to mirror the sequence numbers the
        skipped events would have allocated, so tie ordering of every
        later event is unchanged.
        """
        self._seq += 1
        return self._seq

    def reserve_seq_block(self, n: int) -> int:
        """Consume ``n`` sequence numbers at once; returns the value
        *before* the first reserved one (the block is ``base+1 ..
        base+n``, matching ``n`` successive :meth:`reserve_seq` calls).
        One call instead of ``n`` keeps the fast-forward hot loop cheap.
        """
        base = self._seq
        self._seq = base + n
        return base

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
        """Earliest live workload (non-housekeeping) event time, capped
        at ``bound_ns`` — how far a fast-forward batch may reach.

        The uncapped minimum is cached between workload-set changes, so
        the per-tick fast-forward path pays a queue scan only once per
        idle window instead of once per absorbed tick.
        """
        horizon = self._horizon
        if horizon is None:
            horizon = float("inf")
            for entry in self._queue:
                if (len(entry) == WORKLOAD_LEN
                        and entry[CALLBACK] is not None
                        and entry[TIME] < horizon):
                    horizon = entry[TIME]
            self._horizon = horizon
        return horizon if horizon < bound_ns else bound_ns

    def pop_absorbed_head(self) -> None:
        """Drop the queue head the fast-forward delegate just absorbed
        analytically (it is neither dispatched nor counted processed)."""
        heappop(self._queue)

    def count_fast_forwarded(self, n: int) -> None:
        """Record ``n`` events as analytically skipped."""
        self._events_fast_forwarded += n

    # -- tombstone accounting / compaction -----------------------------------

    def tombstone(self, entry: list) -> None:
        """Cancel a raw heap entry (fast-forward timer replacement)."""
        if entry[CALLBACK] is None:
            return
        entry[CALLBACK] = None
        self.note_tombstone()

    def note_tombstone(self) -> None:
        """Register one new tombstone; compact when they dominate.

        Compaction rewrites the queue *in place* (slice assignment +
        re-heapify) so run loops holding a local reference to the list
        keep seeing the live heap.
        """
        self._tombstones += 1
        queue = self._queue
        if len(queue) >= _COMPACT_MIN and self._tombstones * 2 > len(queue):
            queue[:] = [e for e in queue if e[CALLBACK] is not None]
            heapify(queue)
            self._tombstones = 0

    # -- execution -----------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is drained."""
        queue = self._queue
        while queue:
            head = queue[0]
            if head[CALLBACK] is not None:
                return head[TIME]
            heappop(queue)
            if self._tombstones:
                self._tombstones -= 1
        return None

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
        prev_armed = self._chain_armed
        self._chain_armed = self._absorb_chains
        try:
            while True:
                chain = self._chain
                if chain is not None:
                    self._chain = None
                    if chain[TIME] <= time_ns and (
                            not queue or chain[TIME] < queue[0][TIME]):
                        self._now = chain[TIME]
                        self._chain_absorbed += 1
                        chain[CALLBACK](chain[ARG])
                        if should_stop():
                            return True
                        continue
                    heappush(queue, chain)
                    self._horizon = None
                if not queue:
                    break
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
        finally:
            self._chain_armed = prev_armed
            chain = self._chain
            if chain is not None:
                self._chain = None
                heappush(queue, chain)
                self._horizon = None
        self._now = time_ns
        return should_stop()

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or ``max_events`` is reached)."""
        remaining = max_events
        while self.step():
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return
