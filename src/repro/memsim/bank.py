"""DRAM bank model.

Each bank is a FCFS server (Figure 4): requests queue per bank, are
serviced through the activate/column-access sequence, and then *hold the
bank* until the channel bus accepts their data burst (transfer blocking).
Row-buffer management is closed-page: the row is precharged after every
access unless the next request already queued for the bank targets the
same row (Section 4.1).

Hot-path notes: the fixed-in-ns DDR timings are cached as plain floats
at construction (they never change over a run), the bank maintains its
rank's ``_active_banks`` / ``_open_rows`` counters at the activity
transition points so the rank never scans its banks, and service/
precharge completions are posted closure-free as ``(bound method, arg)``
continuations through the engine's ``post_at``. Enum members read
per access are module constants (a class-attribute read of an ``Enum``
member is a descriptor call).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from repro.memsim.counters import CounterFile
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest
from repro.memsim.rank import Rank
from repro.memsim.states import RankPowerState
from repro.memsim.timing import AccessClass, TimingCalculator

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
        "_engine", "_timing", "_counters", "_controller", "_channel",
        "_rank", "bank_id", "read_q", "write_q", "busy", "open_row",
        "_in_service", "_last_act_ns", "_current_act_ns",
        "_t_cl_ns", "_t_rcd_ns", "_t_rp_ns", "_t_rc_ns", "_t_ras_ns",
        "_channel_id", "_open_page",
    )

    def __init__(self, engine: EventEngine, timing: TimingCalculator,
                 counters: CounterFile, controller: "MemoryController",
                 channel: "Channel", rank: Rank, bank_id: int):
        self._engine = engine
        self._timing = timing
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
        table = timing.table
        self._t_cl_ns = table.t_cl_ns
        self._t_rcd_ns = table.t_rcd_ns
        self._t_rp_ns = table.t_rp_ns
        self._t_rc_ns = table.t_rc_ns
        self._t_ras_ns = table.t_ras_ns
        # run-constant lookups hoisted off the per-access path
        self._channel_id = channel.channel_id
        self._open_page = controller.row_policy == "open"

    # -- queue interface ----------------------------------------------------

    def enqueue(self, request: MemRequest) -> None:
        """Add a request; the controller has already stamped its arrival.

        The idle-bank kick is inlined (rather than delegated to
        :meth:`kick`) because this runs once per simulated request.
        """
        if not self.busy and not self.read_q and not self.write_q:
            # idle-with-empty-queues -> active transition (rank bookkeeping)
            self._rank._active_banks += 1
        if request.is_read:
            self.read_q.append(request)
        else:
            self.write_q.append(request)
        if self.busy:
            return
        if self._rank.refresh_busy_until > self._engine._now:
            # resume when the refresh completes (the rank kicks us back)
            return
        request = self._select_next()
        if request is not None:
            self._start_service(request)

    def kick(self) -> None:
        """Attempt to start servicing the next request, if idle."""
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
        # freeze-window method and the rank's standby-transition wrapper
        # are inlined, and the clock is read once without the property.
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
            exit_penalty = rank.wake_for_access()
            if exit_penalty > 0:
                request.powerdown_exit = True
                start += exit_penalty
        open_row = self.open_row
        row = request.location.row
        if open_row is None:
            access = _CLOSED_BANK_MISS
            counters.cbmc += 1.0
        elif open_row == row:
            access = _ROW_HIT
            request.row_hit = True
            counters.rbhc += 1.0
        else:
            access = _OPEN_ROW_MISS
            request.open_row_miss = True
            counters.obmc += 1.0

        if access is not _ROW_HIT:
            not_before = start
            if access is _OPEN_ROW_MISS:
                not_before += self._t_rp_ns
            # per-bank tRC: a new activate must wait out the row cycle
            row_cycle_ok = self._last_act_ns + self._t_rc_ns
            if row_cycle_ok > not_before:
                not_before = row_cycle_ok
            act = rank.earliest_activate_ns(not_before)
            rank._recent_activates.append(act)
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
        engine.post_at(data_ready, self._bank_done, request)

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
            self._engine.post_at(free_at, self._free, free_at)

    def _free(self, _at_ns: float) -> None:
        self.busy = False
        self._in_service = None
        if self.read_q or self.write_q:
            self.kick()
        else:
            # active -> idle transition (rank bookkeeping)
            self._rank._active_banks -= 1
            self._rank.notify_all_banks_idle()
