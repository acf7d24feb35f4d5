"""Memory channel (bus) model.

The channel bus is a zero-queue-depth server (Figure 4): a request that
finishes its bank access must hold its bank until the bus is free, then
occupies the bus for one burst time (4 bus cycles at the current
frequency). Waiting requests are served in bank-completion order.

The per-burst duration is a plain cached attribute (``burst_ns``) that
the controller refreshes on every global or per-channel re-lock, so the
per-burst path never chases frequency-point properties.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple, TYPE_CHECKING

from repro.memsim.counters import CounterFile
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.memsim.bank import Bank
    from repro.memsim.controller import MemoryController


class Channel:
    """One DDR channel: the shared data bus and its wait list."""

    __slots__ = ("_engine", "_counters", "_controller", "channel_id",
                 "burst_ns", "_bus_busy", "_waiting")

    def __init__(self, engine: EventEngine, counters: CounterFile,
                 controller: "MemoryController", channel_id: int):
        self._engine = engine
        self._counters = counters
        self._controller = controller
        self.channel_id = channel_id
        #: burst duration at this channel's current frequency; kept in
        #: sync by MemoryController.set_frequency/set_channel_frequency
        self.burst_ns = 0.0
        self._bus_busy = False
        self._waiting: Deque[Tuple[MemRequest, "Bank"]] = deque()

    def _start_burst(self, request: MemRequest, bank: "Bank") -> None:
        # Hot path: freeze-window lookup and the counter-file access
        # bookkeeping are inlined (one call per burst otherwise).
        engine = self._engine
        controller = self._controller
        channel_id = self.channel_id
        now = engine._now
        start = controller._channel_frozen_until_ns[channel_id]
        t = controller.frozen_until_ns
        if t > start:
            start = t
        if now > start:
            start = now
        burst_ns = self.burst_ns
        self._bus_busy = True
        request.bus_start_ns = start
        counters = self._counters
        if request.is_read:
            counters.reads += 1.0
            counters.channel_reads[channel_id] += 1.0
        else:
            counters.writes += 1.0
            counters.channel_writes[channel_id] += 1.0
        counters.channel_busy_ns[channel_id] += burst_ns
        end = start + burst_ns
        v = controller.validator
        if v is not None:
            v.on_burst(channel_id, request, start, end)
        engine.post_at(end, self._end_burst, bank)

    def _end_burst(self, bank: "Bank") -> None:
        """The burst finished: free the bank, complete the request at the
        controller, and start the next waiting burst.

        The request is the bank's ``_in_service``: a bank holds its
        request from service start until :meth:`Bank.release_after_burst`.
        """
        request = bank._in_service
        request.complete_ns = now = self._engine._now
        self._bus_busy = False
        # Free the bank first so a same-row follow-up is visible as a hit.
        bank.release_after_burst(request)
        controller = self._controller
        controller._in_flight -= 1
        if request.is_read:
            controller.completed_reads += 1
            if request.on_complete is not None:
                request.on_complete(request)
        else:
            controller.completed_writes += 1
        v = controller.validator
        if v is not None:
            v.on_complete(request, now)
        if self._waiting:
            next_request, next_bank = self._waiting.popleft()
            self._start_burst(next_request, next_bank)
