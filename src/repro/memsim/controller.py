"""Memory controller and memory-subsystem top level.

Owns the channels, ranks, and banks; accepts LLC miss/writeback requests
from the CPU model; and implements the mechanisms of Section 3.1:

* FCFS read scheduling with writebacks deprioritized until the writeback
  queue is half-full (Section 4.1);
* bank interleaving via the address mapper (each request is handed to
  its bank, which runs it from arrival to release);
* per-rank powerdown management (Fast-PD / Slow-PD baselines);
* dynamic frequency re-locking: on ``set_frequency`` memory operation is
  suspended for 512 bus cycles + 28 ns while DLLs re-synchronize
  (Sections 3.1, 4.1);
* the performance-counter file the OS policy reads.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import Callable, Dict, List, Optional

from repro.config import SystemConfig
from repro.core.frequency import FrequencyLadder, FrequencyPoint
from repro.memsim.address import AddressMapper, MemoryLocation
from repro.memsim.bank import Bank
from repro.memsim.channel import Channel
from repro.memsim.counters import CounterFile
from repro.memsim.engine import (CALLBACK, HOUSEKEEPING_LEN, TAG, TIME,
                                  EventEngine)
from repro.memsim.rank import Rank
from repro.memsim.request import MemRequest, RequestKind
from repro.memsim.states import PowerdownMode
from repro.memsim.validate import ProtocolValidator

#: Writeback queue capacity per channel; reads lose priority when the
#: occupancy reaches half of this (Section 4.1).
WRITEBACK_QUEUE_CAPACITY = 32

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE


class MemoryController:
    """The simulated memory subsystem (MC + channels + DIMMs)."""

    def __init__(self, engine: EventEngine, config: SystemConfig,
                 powerdown_mode: PowerdownMode = PowerdownMode.NONE,
                 refresh_enabled: bool = True,
                 n_cores: Optional[int] = None):
        config.validate()
        self._engine = engine
        self._config = config
        self._ladder = FrequencyLadder(config)
        self._freq = self._ladder.fastest
        self._channel_freqs: Dict[int, FrequencyPoint] = {}
        self._device_extra_ns = 0.0
        self.powerdown_mode = powerdown_mode
        self.mapper = AddressMapper(config.org)
        #: page-granular placement indirection; None when disabled, in
        #: which case ``_decode`` is exactly ``mapper.decode`` (same
        #: bound method -> byte-identical off-path behaviour)
        self.placement = None
        self._decode = self.mapper.decode
        if config.placement.enabled:
            from repro.placement.table import PageTable
            self.placement = PageTable(config.org, config.placement)
            self._decode = self.placement.decode
        org = config.org
        cores = n_cores if n_cores is not None else config.cpu.cores
        self.counters = CounterFile(n_cores=cores,
                                    n_channels=org.channels,
                                    n_ranks=org.total_ranks)
        self.frozen_until_ns = 0.0
        self._channel_frozen_until_ns: List[float] = [0.0] * org.channels
        self.transition_count = 0
        self.completed_reads = 0
        self.completed_writes = 0
        self._in_flight = 0
        self._wb_pending: List[int] = [0] * org.channels
        self._wb_priority: List[bool] = [False] * org.channels
        self.wb_overflow_count = 0
        self.validator: Optional[ProtocolValidator] = None

        self.channels: List[Channel] = [
            Channel(engine, self.counters, self, c) for c in range(org.channels)
        ]
        self.ranks: List[Rank] = []
        #: flat bank array indexed ((channel * ranks_per_channel) + rank)
        #: * banks_per_rank + bank — the per-request lookup on the submit
        #: path, replacing a tuple-keyed dict probe
        self._bank_list: List[Bank] = []
        self._ranks_per_channel = org.ranks_per_channel
        self._banks_per_rank = org.banks_per_rank
        timings = config.timings
        for c in range(org.channels):
            for r in range(org.ranks_per_channel):
                global_rank = c * org.ranks_per_channel + r
                rank = Rank(engine, timings, self.counters,
                            global_rank_index=global_rank,
                            n_banks=org.banks_per_rank,
                            powerdown_mode=powerdown_mode,
                            refresh_enabled=refresh_enabled)
                banks = []
                for b in range(org.banks_per_rank):
                    bank = Bank(engine, timings, self.counters, self,
                                self.channels[c], rank, bank_id=b)
                    self._bank_list.append(bank)
                    banks.append(bank)
                rank.attach_banks(banks)
                self.ranks.append(rank)

        # seed the channels' cached burst duration at the boot frequency
        self._mc_latency_ns = self._freq.mc_latency_ns
        burst = self._freq.burst_ns
        for channel in self.channels:
            channel.burst_ns = burst

        #: idle periods batched analytically (diagnostic)
        self.fast_forward_batches = 0
        self._t_refi_ns = timings.t_refi_ns
        if config.fast_forward:
            engine.set_fast_forward(self._fast_forward_idle)

        if config.validate_protocol:
            self.attach_validator(ProtocolValidator(config))

    # -- public properties ----------------------------------------------------

    @property
    def engine(self) -> EventEngine:
        """The discrete-event engine driving this memory subsystem."""
        return self._engine

    @property
    def config(self) -> SystemConfig:
        """The Table 2 system configuration this controller was built from."""
        return self._config

    @property
    def ladder(self) -> FrequencyLadder:
        """The ten bus/MC operating points of Section 4.1 (800-200 MHz)."""
        return self._ladder

    @property
    def freq(self) -> FrequencyPoint:
        """The active frequency point (bus + MC)."""
        return self._freq

    @property
    def device_extra_latency_ns(self) -> float:
        """Extra per-access device latency (Decoupled-DIMM mode), else 0."""
        return self._device_extra_ns

    def attach_validator(self, validator: ProtocolValidator) -> None:
        """Install a protocol validator; hooks fire on every command event.

        Attach before traffic flows (ideally at construction, via
        ``SystemConfig.validate_protocol``) so the conservation invariants
        are exact. When no validator is attached every hook site costs a
        single ``is None`` check.
        """
        self.validator = validator
        for rank in self.ranks:
            rank.validator = validator
        validator.bind(self)

    def channel_frozen_until_ns(self, channel_id: int) -> float:
        """When channel ``channel_id`` may next start a command.

        The later of the global (MC) freeze window and the channel's own
        re-lock window from :meth:`set_channel_frequency`.
        """
        per = self._channel_frozen_until_ns[channel_id]
        return per if per > self.frozen_until_ns else self.frozen_until_ns

    def channel_freq(self, channel_id: int) -> FrequencyPoint:
        """The frequency of one channel (per-channel DFS extension).

        Defaults to the global frequency unless a per-channel override
        was installed via :meth:`set_channel_frequency`.
        """
        return self._channel_freqs.get(channel_id, self._freq)

    def channel_bus_mhz_list(self) -> List[float]:
        """Per-channel bus frequencies, for power accounting."""
        return [self.channel_freq(c).bus_mhz
                for c in range(self._config.org.channels)]

    @property
    def row_policy(self) -> str:
        """Row-buffer management policy: "closed" or "open"."""
        return self._config.org.row_policy

    # -- request path -----------------------------------------------------------

    def submit(self, request: MemRequest) -> None:
        """Accept a request from the LLC; it reaches its bank after the MC
        processing latency (5 MC cycles at the current frequency).

        During a frequency-transition freeze the MC is suspended, so a
        request first waits out the freeze window and *then* pays the MC
        processing latency. The target bank is resolved here and owns
        the request from then on: the arrival event is
        ``(bank._arrive, request)``, pushed inline (see the engine
        module).
        """
        engine = self._engine
        now = engine._now
        request.issue_ns = now
        self._in_flight += 1
        v = self.validator
        if v is not None:
            v.on_submit(request, now, self._mc_latency_ns)
        loc = request.location
        if not request.is_read:
            ch = loc.channel
            self._wb_pending[ch] += 1
            if self._wb_pending[ch] > WRITEBACK_QUEUE_CAPACITY:
                self.wb_overflow_count += 1
            self._update_wb_priority(ch)
            if v is not None:
                v.on_wb_occupancy(ch, self._wb_pending[ch], now)
        freeze_wait = self.frozen_until_ns - now
        if freeze_wait < 0.0:
            freeze_wait = 0.0
        mc_delay = freeze_wait + self._mc_latency_ns
        bank = self._bank_list[
            (loc.channel * self._ranks_per_channel + loc.rank)
            * self._banks_per_rank + loc.bank]
        # the body of engine.post(mc_delay, bank._arrive, request)
        engine._seq = seq = engine._seq + 1
        heappush(engine._queue, [now + mc_delay, seq, bank._arrive, request])
        engine._horizon = None

    def submit_read(self, line_addr: int, core_id: int = 0, app_id: int = 0,
                    on_complete: Optional[Callable[[MemRequest], None]] = None
                    ) -> MemRequest:
        """Convenience wrapper: decode an address and submit an LLC miss."""
        request = MemRequest(_READ, self._decode(line_addr),
                             core_id=core_id, app_id=app_id,
                             on_complete=on_complete)
        self.submit(request)
        return request

    def submit_writeback(self, line_addr: int, core_id: int = 0,
                         app_id: int = 0) -> MemRequest:
        """Convenience wrapper: decode an address and submit an LLC
        writeback (deprioritized per Section 4.1's queue rule)."""
        request = MemRequest(_WRITE, self._decode(line_addr),
                             core_id=core_id, app_id=app_id)
        self.submit(request)
        return request

    # -- writeback priority -------------------------------------------------------

    def on_write_dequeued(self, channel_id: int) -> None:
        """A writeback left its queue for bank service.

        The Section 4.1 priority rule is driven by queue *occupancy*, so
        the pressure count drops here — when the write is dequeued — not
        at burst completion.
        """
        self._wb_pending[channel_id] -= 1
        self._update_wb_priority(channel_id)
        v = self.validator
        if v is not None:
            v.on_wb_occupancy(channel_id, self._wb_pending[channel_id],
                              self._engine.now)

    def wb_queue_occupancy(self, channel_id: int) -> int:
        """Writebacks queued on ``channel_id`` (excludes in-service writes)."""
        return self._wb_pending[channel_id]

    def writebacks_have_priority(self, channel_id: int) -> bool:
        """True while the channel's writeback queue is at least half
        full, inverting the read-first scheduling rule (Section 4.1)."""
        return self._wb_priority[channel_id]

    def _update_wb_priority(self, channel_id: int) -> None:
        self._wb_priority[channel_id] = (
            self._wb_pending[channel_id] >= WRITEBACK_QUEUE_CAPACITY // 2
        )

    # -- frequency control ----------------------------------------------------------

    def set_frequency(self, point: FrequencyPoint) -> float:
        """Re-lock the memory subsystem to ``point``.

        Returns the transition penalty in ns (0 when already at ``point``).
        During the penalty window memory operation is suspended: banks do
        not start new accesses and the MC does not forward requests.
        """
        if point is self._freq or point.bus_mhz == self._freq.bus_mhz:
            return 0.0
        penalty = self._config.policy.transition_penalty_ns(self._freq.bus_mhz)
        self.frozen_until_ns = max(self.frozen_until_ns,
                                   self._engine.now + penalty)
        self._freq = point
        self._channel_freqs.clear()
        # refresh the cached per-frequency durations (see Channel.burst_ns)
        self._mc_latency_ns = point.mc_latency_ns
        burst = point.burst_ns
        for channel in self.channels:
            channel.burst_ns = burst
        self.transition_count += 1
        v = self.validator
        if v is not None:
            v.on_global_freeze(self.frozen_until_ns, point)
        return penalty

    def set_frequency_by_bus_mhz(self, bus_mhz: float) -> float:
        return self.set_frequency(self._ladder.at_bus_mhz(bus_mhz))

    def set_channel_frequency(self, channel_id: int,
                              point: FrequencyPoint) -> float:
        """Per-channel DFS (the paper's first future-work item).

        Re-locks a single channel (and its DIMMs) to ``point``; other
        channels and the MC keep the global frequency *and keep
        operating* — only this channel's freeze window is stamped, so an
        unrelated channel never stalls on another channel's re-lock.
        Returns the transition penalty (channels re-lock through the same
        precharge powerdown + DLL resync path).
        """
        if not 0 <= channel_id < self._config.org.channels:
            raise ValueError(f"no such channel: {channel_id}")
        current = self.channel_freq(channel_id)
        if point.bus_mhz == current.bus_mhz:
            return 0.0
        penalty = self._config.policy.transition_penalty_ns(current.bus_mhz)
        self._channel_frozen_until_ns[channel_id] = max(
            self._channel_frozen_until_ns[channel_id],
            self._engine.now + penalty)
        self._channel_freqs[channel_id] = point
        self.channels[channel_id].burst_ns = point.burst_ns
        self.transition_count += 1
        v = self.validator
        if v is not None:
            v.on_channel_freeze(channel_id,
                                self._channel_frozen_until_ns[channel_id],
                                point)
        return penalty

    def clear_freeze(self) -> None:
        """Drop all pending freeze windows (boot-time configuration only;
        baseline governors use this so their initial frequency choice is
        not charged as a runtime transition)."""
        self.frozen_until_ns = 0.0
        for channel_id in range(len(self._channel_frozen_until_ns)):
            self._channel_frozen_until_ns[channel_id] = 0.0
        v = self.validator
        if v is not None:
            v.on_freeze_cleared()

    def set_device_extra_latency_ns(self, extra_ns: float) -> None:
        """Decoupled-DIMM support: slower devices behind a full-speed bus
        add a fixed per-access device latency (Section 4.1)."""
        if extra_ns < 0:
            raise ValueError("extra device latency must be non-negative")
        self._device_extra_ns = extra_ns

    # -- idle-period fast-forward -------------------------------------------

    def _fast_forward_idle(self, head: list, bound_ns: float) -> bool:
        """Absorb one idle refresh timer tick analytically.

        Invoked by the engine when a housekeeping entry surfaces at the
        head of the queue. Preconditions: the head is a rank's refresh
        timer, no request anywhere between MC submit and burst
        completion (``_in_flight == 0`` — which implies every queue is
        empty), the rank's banks quiescent, no refresh pending or in
        progress, and the tick due before the earliest workload-driven
        event (or the run-loop bound). The tick's side effects —
        counter updates, residency slices, the timer re-post, a
        completion event when it crosses the workload horizon — are
        applied with the exact sequence numbers event dispatch would
        have allocated at this very point, so the heap, the counters,
        and all later tie-breaking are byte-identical to normal
        execution. An idle window is consumed as a run of these
        absorptions: each re-posted timer surfaces next and is absorbed
        in turn until the horizon, without dispatch overhead.
        """
        rank = head[TAG]
        if rank is True or self._in_flight:
            return False  # plain housekeeping (refresh completions etc.)
        t = head[TIME]
        if (rank._refresh_due or rank._active_banks > 0
                or rank.refresh_busy_until > t):
            return False  # the tick would defer, not issue
        engine = self._engine
        limit = engine.workload_horizon(bound_ns)
        if t >= limit:
            return False
        # Absorb a *run* of consecutive idle ticks (all ranks, heap
        # order) in one call: during the run nothing workload-driven is
        # posted, so ``limit`` stays valid, and the per-tick loop below
        # only touches hoisted locals plus one heapreplace. Pop order
        # depends solely on entry contents ``(time, seq)`` — never on
        # the heap's internal layout — so replacing pop-then-push with
        # heapreplace cannot perturb results.
        queue = engine._queue
        refreshes = self.counters.refreshes
        t_refi = self._t_refi_ns
        v = self.validator
        skipped_total = 0
        ticks = 0
        while True:
            # the sequence numbers this tick's `_refresh_timer` would
            # have allocated: timer re-post first, completion second
            seq = engine._seq
            engine._seq = seq + 2
            if v is not None:
                v.on_fast_forward(t, limit, 0)
            skipped = rank.ff_refresh_tick(t, seq + 2, limit)
            entry = [t + t_refi, seq + 1, rank._refresh_timer, None, rank]
            rank._timer_entry = entry
            heapreplace(queue, entry)  # drop absorbed head, land re-post
            # same bytes as the event path's refresh count in
            # Rank._maybe_start_refresh
            refreshes[rank.global_rank_index] += 1.0
            skipped_total += skipped
            ticks += 1
            head = queue[0]
            if len(head) != HOUSEKEEPING_LEN or head[CALLBACK] is None:
                # a workload entry, or a tombstoned timer (a rank
                # parked in self-refresh cancels its entry): let the
                # run loop pop it instead of replaying a dead tick
                break
            rank = head[TAG]
            if rank is True:
                break
            t = head[TIME]
            if (t >= limit or rank._refresh_due or rank._active_banks > 0
                    or rank.refresh_busy_until > t):
                break
        engine._events_fast_forwarded += skipped_total
        self.fast_forward_batches += ticks
        return True

    # -- accounting -------------------------------------------------------------------

    def sync_accounting(self) -> None:
        """Flush rank state-time integrals up to 'now' (call before snapshots)."""
        for rank in self.ranks:
            rank.sync_accounting()

    def snapshot(self):
        """Counter snapshot at the current instant, with accounting synced."""
        self.sync_accounting()
        return self.counters.snapshot(self._engine.now)

    @property
    def pending_requests(self) -> int:
        """Requests submitted but not yet completed."""
        return self._in_flight
