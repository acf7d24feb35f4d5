"""Trace-driven in-order core model.

Each core replays its :class:`~repro.cpu.trace.CoreTrace` against the
memory controller, matching the processor model of Section 3.3: in-order
execution with a fixed time per CPU instruction and exactly one
outstanding LLC miss — so every nanosecond of extra memory latency shows
up directly in execution time. Writebacks are posted asynchronously and
never block the core.

When a core exhausts its trace it wraps around (the replay loops), so
fixed-duration simulations always have live traffic; per-core committed
instruction counts keep growing monotonically either way.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

from repro.config import CpuConfig
from repro.cpu.trace import CoreTrace
from repro.memsim.controller import MemoryController
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest, RequestKind

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE


class Core:
    """One in-order core replaying a trace.

    The trace's numpy arrays are unpacked into plain Python int lists at
    construction: the replay loop touches one element per event, where a
    numpy scalar read plus ``int()`` costs several times a list index.
    The per-instruction time is likewise computed once.
    """

    __slots__ = (
        "_engine", "_controller", "_counters", "_cpu", "_trace", "core_id",
        "app_id", "app_name", "_loop", "_cursor", "_passes", "_len",
        "instructions_committed", "misses_issued", "blocked", "finished",
        "_started", "target_instructions", "time_at_target_ns",
        "_gap_start_ns", "_gap_total", "_gap_done", "_instr_ns",
        "_gaps", "_read_addrs", "_wb_addrs", "on_target_reached",
    )

    def __init__(self, engine: EventEngine, controller: MemoryController,
                 cpu: CpuConfig, trace: CoreTrace, core_id: int,
                 loop_trace: bool = True):
        if len(trace) == 0:
            raise ValueError(f"core {core_id}: empty trace")
        self._engine = engine
        self._controller = controller
        self._counters = controller.counters
        self._cpu = cpu
        self._trace = trace
        self.core_id = core_id
        self.app_id = trace.app_id
        self.app_name = trace.app_name
        self._loop = loop_trace
        self._cursor = 0
        self._passes = 0
        self._len = len(trace)
        # ndarray.tolist() yields the same plain-int lists as a Python
        # loop but in one C pass — and, for a memory-mapped columnar
        # trace, reads the shared pages exactly once per row.
        self._gaps = trace.gaps.tolist()
        self._read_addrs = trace.read_addrs.tolist()
        self._wb_addrs = trace.wb_addrs.tolist()
        self._instr_ns = cpu.cpi_cpu * cpu.cycle_ns
        self.instructions_committed = 0
        self.misses_issued = 0
        self.blocked = False
        self.finished = False
        self._started = False
        self.target_instructions: Optional[int] = None
        self.time_at_target_ns: Optional[float] = None
        #: Optional callback fired once, when the target is first reached.
        self.on_target_reached = None
        # progressive-commit state for the gap currently being executed
        self._gap_start_ns = 0.0
        self._gap_total = 0
        self._gap_done = 0

    @property
    def trace_passes(self) -> int:
        """Complete passes through the trace so far."""
        return self._passes

    def set_target(self, instructions: int) -> None:
        """Record the time at which this core commits its N-th instruction.

        Mirrors the paper's measurement window: each application's CPI is
        evaluated over its first N instructions even though replay
        continues until the slowest core finishes.
        """
        if instructions <= 0:
            raise ValueError("target must be positive")
        self.target_instructions = instructions
        self._check_target()

    @property
    def reached_target(self) -> bool:
        return self.time_at_target_ns is not None

    def _check_target(self) -> None:
        if (self.target_instructions is not None
                and self.time_at_target_ns is None
                and self.instructions_committed >= self.target_instructions):
            self.time_at_target_ns = self._engine.now
            if self.on_target_reached is not None:
                self.on_target_reached()

    def start(self) -> None:
        """Begin replay; the first miss issues after its leading gap."""
        if self._started:
            raise RuntimeError(f"core {self.core_id} already started")
        self._started = True
        self._schedule_next_issue()

    # -- replay loop -----------------------------------------------------

    def _schedule_next_issue(self) -> None:
        if self._cursor >= self._len:
            if not self._loop:
                self.finished = True
                return
            self._cursor = 0
            self._passes += 1
        gap = self._gaps[self._cursor]
        self._gap_start_ns = self._engine.now
        self._gap_total = gap
        self._gap_done = 0
        self._engine.post(gap * self._instr_ns, self._issue, gap)

    def sync_committed(self) -> None:
        """Commit the instructions of the in-progress compute gap.

        Called before counter snapshots so per-interval TIC reflects
        actual progress instead of lumping whole gaps at miss-issue time
        (which would make short profiling windows noisy).
        """
        if self.blocked or self.finished or self._gap_total <= 0:
            return
        elapsed = self._engine.now - self._gap_start_ns
        done = min(self._gap_total, int(elapsed / self._instr_ns))
        if done > self._gap_done:
            delta = done - self._gap_done
            self._gap_done = done
            self.instructions_committed += delta
            self._counters.tic[self.core_id] += delta
            self._check_target()

    def _issue(self, gap: int) -> None:
        """Commit the rest of the compute gap, then issue the LLC miss.

        Hot path: the target check is inlined (same guard order-
        insensitive conjunction as :meth:`_check_target`), per-event
        collaborator lookups are hoisted, and the requests are built here
        and handed to ``controller.submit`` directly. The writeback's
        address is decoded before the read's: placement's page-table
        decode is stateful, so the order is part of the result.
        """
        counters = self._counters
        core_id = self.core_id
        remaining = gap - self._gap_done
        self._gap_done = gap
        if remaining > 0:
            committed = self.instructions_committed + remaining
            self.instructions_committed = committed
            counters.tic[core_id] += remaining
        else:
            committed = self.instructions_committed
        target = self.target_instructions
        if (target is not None and self.time_at_target_ns is None
                and committed >= target):
            self.time_at_target_ns = self._engine._now
            if self.on_target_reached is not None:
                self.on_target_reached()
        i = self._cursor
        self._cursor += 1
        read_addr = self._read_addrs[i]
        wb_addr = self._wb_addrs[i]
        controller = self._controller
        decode = controller._decode
        app_id = self.app_id
        if wb_addr >= 0:
            controller.submit(MemRequest(_WRITE, decode(wb_addr), core_id,
                                         app_id))
        counters.tlm[core_id] += 1.0
        self.misses_issued += 1
        self.blocked = True
        controller.submit(MemRequest(_READ, decode(read_addr), core_id,
                                     app_id, self._on_miss_complete))

    def _on_miss_complete(self, _request: MemRequest) -> None:
        # The missing instruction itself commits when its data returns.
        self.blocked = False
        committed = self.instructions_committed + 1
        self.instructions_committed = committed
        self._counters.tic[self.core_id] += 1
        target = self.target_instructions
        if (target is not None and self.time_at_target_ns is None
                and committed >= target):
            self.time_at_target_ns = self._engine._now
            if self.on_target_reached is not None:
                self.on_target_reached()
        # inlined _schedule_next_issue (one call per serviced miss)
        cursor = self._cursor
        if cursor >= self._len:
            if not self._loop:
                self.finished = True
                return
            cursor = self._cursor = 0
            self._passes += 1
        gap = self._gaps[cursor]
        engine = self._engine
        now = engine._now
        self._gap_start_ns = now
        self._gap_total = gap
        self._gap_done = 0
        # the body of engine.post(gap * self._instr_ns, self._issue, gap)
        engine._seq = seq = engine._seq + 1
        heappush(engine._queue, [now + gap * self._instr_ns, seq,
                                 self._issue, gap])
        engine._horizon = None


class CpuCluster:
    """All cores of the simulated server."""

    def __init__(self, engine: EventEngine, controller: MemoryController,
                 cpu: CpuConfig, traces, loop_traces: bool = True):
        if len(traces) == 0:
            raise ValueError("at least one core trace is required")
        self.cores = [
            Core(engine, controller, cpu, trace, core_id=i,
                 loop_trace=loop_traces)
            for i, trace in enumerate(traces)
        ]
        self.reached_count = 0
        # The run loop's stop predicate is called after *every* event, so
        # it must be as close to free as possible: ``all_reached_probe``
        # is the bound ``list.__len__`` of a flag list that goes from
        # empty to one element the moment the last core reaches its
        # target — a C-level call with no Python frame, truthy exactly
        # when every core is done.
        self._all_reached: list = []
        self.all_reached_probe = self._all_reached.__len__
        for core in self.cores:
            core.on_target_reached = self._on_core_reached

    def _on_core_reached(self) -> None:
        self.reached_count += 1
        if self.reached_count >= len(self.cores):
            self._all_reached.append(True)

    def __len__(self) -> int:
        return len(self.cores)

    def start(self) -> None:
        for core in self.cores:
            core.start()

    def min_instructions_committed(self) -> int:
        """Progress of the slowest core (the paper's termination criterion)."""
        return min(core.instructions_committed for core in self.cores)

    def set_target(self, instructions: int) -> None:
        for core in self.cores:
            core.set_target(instructions)

    def sync_committed(self) -> None:
        """Flush partially-executed compute gaps into the counters."""
        for core in self.cores:
            core.sync_committed()

    def all_reached_target(self) -> bool:
        return all(core.reached_target for core in self.cores)
