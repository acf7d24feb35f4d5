"""DRAM bank model.

Each bank is a FCFS server (Figure 4): requests queue per bank, are
serviced through the activate/column-access sequence, and then *hold the
bank* until the channel bus accepts their data burst (transfer blocking).
Row-buffer management is closed-page: the row is precharged after every
access unless the next request already queued for the bank targets the
same row (Section 4.1).

Hot-path notes: the bank owns a request from arrival to release.
``MemoryController.submit`` posts ``(bank._arrive, request)``; an
arrival at an idle bank starts service in the same handler, a release
starts the next queued request itself, and the bank-done and
precharge-release continuations are pushed onto the engine heap inline
(see the engine module). The fixed-in-ns DDR timings of
``config.DramTimings``, the rank's tRRD/tFAW among them, are cached as
plain floats at construction, and the bank maintains its rank's
``_active_banks`` / ``_open_rows`` counters at the activity transition
points so the rank never scans its banks. Enum members read per access
are module constants (a class-attribute read of an ``Enum`` member is
a descriptor call).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Optional, TYPE_CHECKING

from repro.config import DramTimings
from repro.memsim.counters import CounterFile
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest
from repro.memsim.rank import Rank
from repro.memsim.states import AccessClass, RankPowerState

_ACTIVE_STANDBY = RankPowerState.ACTIVE_STANDBY
_PRECHARGE_STANDBY = RankPowerState.PRECHARGE_STANDBY
_ROW_HIT = AccessClass.ROW_HIT
_OPEN_ROW_MISS = AccessClass.OPEN_ROW_MISS
_CLOSED_BANK_MISS = AccessClass.CLOSED_BANK_MISS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.memsim.channel import Channel
    from repro.memsim.controller import MemoryController


class Bank:
    """One bank of a rank, with its request queues and row buffer."""

    __slots__ = (
        "_engine", "_counters", "_controller", "_channel",
        "_rank", "bank_id", "read_q", "write_q", "busy", "open_row",
        "_in_service", "_last_act_ns", "_current_act_ns",
        "_t_cl_ns", "_t_rcd_ns", "_t_rp_ns", "_t_rc_ns", "_t_ras_ns",
        "_t_rrd_ns", "_t_faw_ns", "_channel_id", "_open_page",
    )

    def __init__(self, engine: EventEngine, timings: DramTimings,
                 counters: CounterFile, controller: "MemoryController",
                 channel: "Channel", rank: Rank, bank_id: int):
        self._engine = engine
        self._counters = counters
        self._controller = controller
        self._channel = channel
        self._rank = rank
        self.bank_id = bank_id
        self.read_q: Deque[MemRequest] = deque()
        self.write_q: Deque[MemRequest] = deque()
        self.busy = False
        self.open_row: Optional[int] = None
        self._in_service: Optional[MemRequest] = None
        self._last_act_ns = float("-inf")
        self._current_act_ns = float("-inf")
        # fixed-in-ns constants, cached out of the per-command path
        self._t_cl_ns = timings.t_cl_ns
        self._t_rcd_ns = timings.t_rcd_ns
        self._t_rp_ns = timings.t_rp_ns
        self._t_rc_ns = timings.t_rc_ns
        self._t_ras_ns = timings.t_ras_ns
        self._t_rrd_ns = timings.t_rrd_ns
        self._t_faw_ns = timings.t_faw_ns
        # run-constant lookups hoisted off the per-access path
        self._channel_id = channel.channel_id
        self._open_page = controller.row_policy == "open"

    # -- arrival -------------------------------------------------------------

    def _arrive(self, request: MemRequest) -> None:
        """The request reached this bank after MC processing.

        Stamps the arrival and samples the transactions-outstanding
        accumulators (Section 3.1) before the request joins a queue. On
        an idle bank with empty queues outside a refresh window the
        request is the one :meth:`_select_next` would pick, so it starts
        at once without queueing.
        """
        now = self._engine._now
        request.arrive_bank_ns = now
        controller = self._controller
        v = controller.validator
        if v is not None:
            v.on_arrive(request, now)
        read_q = self.read_q
        write_q = self.write_q
        busy = self.busy
        channel = self._channel
        counters = self._counters
        counters.bto += len(read_q) + len(write_q) + (1 if busy else 0)
        counters.btc += 1.0
        counters.cto += len(channel._waiting) + (1 if channel._bus_busy else 0)
        counters.ctc += 1.0
        rank = self._rank
        if not busy and not read_q and not write_q:
            # idle-with-empty-queues -> active transition (rank bookkeeping)
            rank._active_banks += 1
            if rank.refresh_busy_until <= now:
                if not request.is_read:
                    # the writeback leaves its queue (see _pop_write)
                    controller.on_write_dequeued(self._channel_id)
                self._start_service(request)
                return
        if request.is_read:
            read_q.append(request)
        else:
            write_q.append(request)
        if busy or rank.refresh_busy_until > now:
            # resume when the service or the refresh completes
            return
        self._start_service(self._select_next())

    def kick(self) -> None:
        """Start servicing the next request, if idle (the rank calls
        this when a refresh completes)."""
        if self.busy or not (self.read_q or self.write_q):
            return
        if self._rank.refresh_busy_until > self._engine._now:
            # resume when the refresh completes (the rank kicks us back)
            return
        request = self._select_next()
        if request is not None:
            self._start_service(request)

    def _select_next(self) -> Optional[MemRequest]:
        """FCFS reads-first, unless the channel writeback queue pressure
        flipped priority to writebacks (Section 4.1)."""
        if self._controller._wb_priority[self._channel.channel_id]:
            if self.write_q:
                return self._pop_write()
            if self.read_q:
                return self.read_q.popleft()
        else:
            if self.read_q:
                return self.read_q.popleft()
            if self.write_q:
                return self._pop_write()
        return None

    def _pop_write(self) -> MemRequest:
        """Dequeue a writeback and drop the channel's queue-pressure count
        (occupancy excludes in-service writes, Section 4.1)."""
        request = self.write_q.popleft()
        self._controller.on_write_dequeued(self._channel.channel_id)
        return request

    # -- service -------------------------------------------------------------

    def _start_service(self, request: MemRequest) -> None:
        # The hottest handler of the request path: run-constant
        # collaborator lookups are hoisted to locals, the controller's
        # freeze-window method, the rank's activation-window check and
        # its standby-transition wrapper are inlined, and the clock is
        # read once without the property.
        engine = self._engine
        controller = self._controller
        rank = self._rank
        counters = self._counters
        now = engine._now
        start = controller._channel_frozen_until_ns[self._channel_id]
        t = controller.frozen_until_ns
        if t > start:
            start = t
        if now > start:
            start = now
        t = rank.refresh_busy_until
        if t > start:
            start = t
        t = rank.sr_ready_until
        if t > start:
            start = t
        # Exiting powerdown costs tXP / tXPDLL and is counted via EPDC.
        state = rank._state
        if state is not _ACTIVE_STANDBY and state is not _PRECHARGE_STANDBY:
            start += rank.wake_for_access()
        open_row = self.open_row
        row = request.location.row
        if open_row is None:
            access = _CLOSED_BANK_MISS
            counters.cbmc += 1.0
        elif open_row == row:
            access = _ROW_HIT
            counters.rbhc += 1.0
        else:
            access = _OPEN_ROW_MISS
            counters.obmc += 1.0

        if access is not _ROW_HIT:
            act = start
            if access is _OPEN_ROW_MISS:
                act += self._t_rp_ns
            # per-bank tRC: a new activate must wait out the row cycle
            t = self._last_act_ns + self._t_rc_ns
            if t > act:
                act = t
            # the rank's activation window (tRRD, tFAW), then its refresh
            recent = rank._recent_activates
            if recent:
                t = recent[-1] + self._t_rrd_ns
                if t > act:
                    act = t
                if len(recent) == 4:
                    t = recent[0] + self._t_faw_ns
                    if t > act:
                        act = t
            t = rank.refresh_busy_until
            if t > act:
                act = t
            recent.append(act)
            counters.pocc += 1.0
            self._last_act_ns = act
            self._current_act_ns = act
            request.act_ns = act
            data_ready = act + self._t_rcd_ns + self._t_cl_ns
        else:
            self._current_act_ns = self._last_act_ns
            data_ready = start + self._t_cl_ns

        # Decoupled-DIMM mode: slower devices behind a full-speed channel
        # add a fixed device-side transfer delay per access.
        data_ready += controller._device_extra_ns

        self.busy = True
        self._in_service = request
        if open_row is None:
            rank._open_rows += 1
        self.open_row = row
        if rank._state is not _ACTIVE_STANDBY:
            rank._transition_at(_ACTIVE_STANDBY, now)
        request.bank_start_ns = start
        v = controller.validator
        if v is not None:
            v.on_service_start(self._channel_id,
                               rank.global_rank_index, self.bank_id,
                               request, access, start, data_ready)
        # the body of engine.post_at(data_ready, self._bank_done, request)
        engine._seq = seq = engine._seq + 1
        heappush(engine._queue, [data_ready, seq, self._bank_done, request])
        engine._horizon = None

    def _bank_done(self, request: MemRequest) -> None:
        """Array access complete; hold the bank and wait for the bus.

        The bus request is made here directly — one event per access
        runs through here: start the burst on an idle bus, otherwise
        join the channel's wait list.
        """
        request.bank_done_ns = self._engine._now
        channel = self._channel
        if channel._bus_busy:
            channel._waiting.append((request, self))
        else:
            channel._start_burst(request, self)

    # -- post-burst release (called by the channel) ---------------------------

    def release_after_burst(self, request: MemRequest) -> None:
        """Burst finished: close or keep the row, then free the bank.

        Closed-page policy (the default, Section 4.1): keep the row open
        only when the next request this bank would service targets the
        same row (it will then be a row-buffer hit); otherwise precharge.
        Open-page policy: always keep the row open; a later conflicting
        access pays the precharge as an open-row miss.
        """
        burst_end = self._engine._now
        if self._open_page:
            keep_open = True
        else:
            # peek at the request _select_next would pick next
            if self._controller._wb_priority[self._channel_id]:
                queue = self.write_q or self.read_q
            else:
                queue = self.read_q or self.write_q
            keep_open = (len(queue) > 0
                         and queue[0].location.row == request.location.row)
        if keep_open:
            self._free(burst_end)
        else:
            # tRAS: the row must stay open at least tRAS after its activate.
            pre_start = self._current_act_ns + self._t_ras_ns
            if burst_end > pre_start:
                pre_start = burst_end
            free_at = pre_start + self._t_rp_ns
            self.open_row = None
            self._rank._open_rows -= 1
            v = self._controller.validator
            if v is not None:
                v.on_precharge(self._channel_id,
                               self._rank.global_rank_index, self.bank_id,
                               pre_start, free_at)
            # the body of engine.post_at(free_at, self._free, free_at)
            engine = self._engine
            engine._seq = seq = engine._seq + 1
            heappush(engine._queue, [free_at, seq, self._free, free_at])
            engine._horizon = None

    def _free(self, _at_ns: float) -> None:
        """The bank is free: start its next request, or go idle."""
        self.busy = False
        self._in_service = None
        rank = self._rank
        if self.read_q or self.write_q:
            if rank.refresh_busy_until > self._engine._now:
                # resume when the refresh completes (the rank kicks us back)
                return
            self._start_service(self._select_next())
        else:
            # active -> idle transition (rank bookkeeping)
            rank._active_banks -= 1
            if not rank._active_banks:
                rank.notify_all_banks_idle()
