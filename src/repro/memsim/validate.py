"""Runtime DDR3 protocol / invariant validation (Table 2, Section 4.1).

An *observer* that hooks command events in the bank, rank, channel, and
controller layers and re-derives — from its own independent bookkeeping,
not the simulator's — that the command stream obeys the device timing
constraints and the scheduling rules of Section 4.1:

* per-bank: tRCD (activate -> data), tRP (precharge before re-activate),
  tRAS (activate -> precharge), tRC (activate -> activate), row-buffer
  state consistency (a claimed row hit must target the open row);
* per-rank: tRRD spacing, the rolling 4-activate tFAW window, refresh
  cadence (the per-rank timer must tick within every tREFI, and issued
  refreshes may be postponed at most ``max_postponed_refreshes``
  intervals), no refresh overlap, powerdown entry legality (CKE may go
  low only with every bank idle; precharge powerdown additionally needs
  every row closed), EPDC accounting on every access-path exit, and the
  self-refresh state machine (entry only with the rank drained and no
  refresh pending, no commands or external refreshes while parked, and
  the tCKESR + tXS exit window honored before the next command);
* per-channel: data-burst non-overlap, burst length consistent with the
  channel's clock, no burst or bank service start inside a
  frequency-transition freeze window;
* controller: MC processing latency is paid *after* a freeze window (not
  swallowed by it), writeback queue occupancy stays within
  ``WRITEBACK_QUEUE_CAPACITY``, and the conservation invariants
  submitted = completed + in-flight and sum(rank state-time) = wall
  clock hold at the end of the run.

The validator is attached via
:meth:`~repro.memsim.controller.MemoryController.attach_validator`
(or automatically when ``SystemConfig.validate_protocol`` is set).  When
it is *not* attached, every hook site costs a single ``is None`` test —
the same zero-overhead pattern the telemetry layer uses.  In ``raise``
mode the first violation raises :class:`ProtocolViolation`; in
``collect`` mode violations accumulate and :meth:`ProtocolValidator.report`
returns a JSON-serializable summary (schema below).

Report schema (``schema`` 1)::

    {"schema": 1, "mode": "collect", "violation_count": 2,
     "checks": {"tRRD": 120, "tFAW": 118, ...},
     "violations": [{"rule": "tRRD", "time_ns": ..., "message": ...,
                     "channel": 0, "rank": 1, "bank": 3,
                     "request_id": 17,
                     "required_ns": 5.0, "actual_ns": 3.2}, ...]}

Notes on intentional non-checks: a precharge *completing* inside a
freeze window is allowed (in-flight operations drain while the DLLs
re-lock; only new command starts are gated), and MC-queue arrival during
a freeze is legal — the request simply waits.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.memsim.states import RankPowerState
from repro.memsim.timing import AccessClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guards for type hints
    from repro.core.frequency import FrequencyPoint
    from repro.memsim.controller import MemoryController
    from repro.memsim.request import MemRequest

#: Slop for float-ns comparisons of single command gaps.
EPS_NS = 1e-9

#: DDR3 allows postponing up to 8 refresh commands, so two issued
#: refreshes may sit at most 9 x tREFI apart (JESD79-3).
MAX_POSTPONED_REFRESHES = 8

#: Version stamped into :meth:`ProtocolValidator.report` output.
VALIDATION_REPORT_SCHEMA = 1


@dataclass(frozen=True)
class Violation:
    """One observed protocol/invariant violation, fully located."""

    rule: str                    #: constraint slug, e.g. "tRRD", "tFAW"
    time_ns: float               #: simulation time of the offense
    message: str                 #: human-readable description
    channel: Optional[int] = None
    rank: Optional[int] = None
    bank: Optional[int] = None
    request_id: Optional[int] = None
    required_ns: Optional[float] = None   #: the constraint's required gap
    actual_ns: Optional[float] = None     #: the gap actually observed

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (``None`` fields omitted)."""
        return {k: v for k, v in dataclasses.asdict(self).items()
                if v is not None}


class ProtocolViolation(RuntimeError):
    """Raised (in ``raise`` mode) on the first observed violation."""

    def __init__(self, violation: Violation):
        super().__init__(
            f"[{violation.rule}] t={violation.time_ns:.3f}ns: "
            f"{violation.message}")
        self.violation = violation


class ProtocolValidator:
    """Observer asserting DDR3 timing and Section 4.1 scheduling rules.

    All state is the validator's own: activate histories, precharge
    completions, open rows, freeze windows, and refresh schedules are
    rebuilt from the hook events, so a bookkeeping bug in the simulator
    proper cannot hide itself.
    """

    def __init__(self, config: SystemConfig, mode: str = "raise",
                 max_postponed_refreshes: int = MAX_POSTPONED_REFRESHES):
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        config.validate()
        self.mode = mode
        self._t = config.timings
        self._org = config.org
        self._max_postponed = max_postponed_refreshes
        self.violations: List[Violation] = []
        self.checks: Dict[str, int] = {}

        # per-rank activate window (tRRD / tFAW)
        self._rank_acts: Dict[int, Deque[float]] = {}
        # per-(rank, bank) state
        self._last_act: Dict[Tuple[int, int], float] = {}
        self._pre_end: Dict[Tuple[int, int], float] = {}
        self._open_row: Dict[Tuple[int, int], Optional[int]] = {}
        # per-channel bus state
        self._last_burst_end: Dict[int, float] = {}
        # freeze windows (validator's own copy, fed by on_*_freeze)
        self._mc_frozen_until = 0.0
        self._channel_frozen: Dict[int, float] = {}
        self._global_freq: Optional["FrequencyPoint"] = None
        self._channel_freq: Dict[int, "FrequencyPoint"] = {}
        # refresh schedule per rank
        self._refresh_due_last: Dict[int, float] = {}
        self._refresh_issue_last: Dict[int, float] = {}
        self._refresh_busy_until: Dict[int, float] = {}
        # self-refresh state machine (validator's own copy)
        self._in_sr: Dict[int, bool] = {}
        self._sr_enter: Dict[int, float] = {}
        self._sr_ready: Dict[int, float] = {}
        # powerdown accounting
        self._pd_exits_total = 0       # CKE-low -> CKE-high transitions
        self._pd_exits_access = 0      # exits that recorded an EPDC event
        self._pd_exits_refresh = 0     # wakes performed to issue a refresh
        self._pd_exits_sr = 0          # policy-driven self-refresh unparks
        # conservation
        self.submitted = 0
        self.completed = 0
        self._expected_arrival: Dict[int, float] = {}
        # bound controller (for finalize-time conservation checks)
        self._controller: Optional["MemoryController"] = None
        self._base_completed = 0
        self._base_pending = 0
        self._base_pending_initial = 0
        self._base_epdc = 0.0
        self._bind_time_ns = 0.0

    # -- attachment ---------------------------------------------------------

    def bind(self, controller: "MemoryController") -> None:
        """Record the controller and its counter baselines; called by
        :meth:`MemoryController.attach_validator`."""
        self._controller = controller
        self._base_completed = (controller.completed_reads
                                + controller.completed_writes)
        self._base_pending = controller.pending_requests
        self._base_pending_initial = self._base_pending
        self._base_epdc = controller.counters.epdc
        self._bind_time_ns = controller.engine.now
        controller.sync_accounting()
        self._base_rank_state = np.array(controller.counters.rank_state_ns,
                                         dtype=np.float64)
        self._global_freq = controller.freq

    # -- violation plumbing -------------------------------------------------

    def _check(self, rule: str, ok: bool, time_ns: float, message: str,
               channel: Optional[int] = None, rank: Optional[int] = None,
               bank: Optional[int] = None, request_id: Optional[int] = None,
               required_ns: Optional[float] = None,
               actual_ns: Optional[float] = None) -> None:
        self.checks[rule] = self.checks.get(rule, 0) + 1
        if ok:
            return
        violation = Violation(rule=rule, time_ns=time_ns, message=message,
                              channel=channel, rank=rank, bank=bank,
                              request_id=request_id, required_ns=required_ns,
                              actual_ns=actual_ns)
        self.violations.append(violation)
        if self.mode == "raise":
            raise ProtocolViolation(violation)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def report(self) -> Dict[str, object]:
        """JSON-serializable summary of everything checked and found."""
        return {
            "schema": VALIDATION_REPORT_SCHEMA,
            "mode": self.mode,
            "violation_count": len(self.violations),
            "checks": dict(self.checks),
            "violations": [v.to_dict() for v in self.violations],
        }

    # -- freeze-window bookkeeping ------------------------------------------

    def _channel_frozen_until(self, channel: int) -> float:
        per = self._channel_frozen.get(channel, 0.0)
        return per if per > self._mc_frozen_until else self._mc_frozen_until

    def on_global_freeze(self, until_ns: float,
                         point: "FrequencyPoint") -> None:
        """The MC re-locked the whole subsystem to ``point``."""
        if until_ns > self._mc_frozen_until:
            self._mc_frozen_until = until_ns
        self._global_freq = point
        self._channel_freq.clear()

    def on_channel_freeze(self, channel: int, until_ns: float,
                          point: "FrequencyPoint") -> None:
        """One channel re-locked to ``point`` (per-channel DFS)."""
        if until_ns > self._channel_frozen.get(channel, 0.0):
            self._channel_frozen[channel] = until_ns
        self._channel_freq[channel] = point

    def on_freeze_cleared(self) -> None:
        """Boot-time configuration dropped all pending freeze windows."""
        self._mc_frozen_until = 0.0
        self._channel_frozen.clear()

    # -- controller hooks ---------------------------------------------------

    def on_submit(self, request: "MemRequest", now_ns: float,
                  mc_latency_ns: float) -> None:
        """A request entered the MC; it must pay ``mc_latency_ns`` *after*
        any active MC freeze window (the PR-2 freeze/latency bugfix)."""
        self.submitted += 1
        expected = max(now_ns, self._mc_frozen_until) + mc_latency_ns
        self._expected_arrival[request.request_id] = expected

    def on_arrive(self, request: "MemRequest", now_ns: float) -> None:
        """The request reached its bank queue after MC processing."""
        expected = self._expected_arrival.pop(request.request_id, None)
        if expected is None:
            return
        self._check(
            "mc-latency", now_ns >= expected - EPS_NS, now_ns,
            f"request #{request.request_id} reached its bank at "
            f"{now_ns:.3f}ns, before freeze window plus MC latency "
            f"({expected:.3f}ns) elapsed",
            channel=request.location.channel,
            request_id=request.request_id,
            required_ns=expected, actual_ns=now_ns)

    def on_wb_occupancy(self, channel: int, occupancy: int,
                        now_ns: float) -> None:
        """The channel's writeback queue occupancy changed."""
        self._check(
            "wb-occupancy", 0 <= occupancy, now_ns,
            f"writeback occupancy went negative ({occupancy}) on channel "
            f"{channel}", channel=channel, actual_ns=float(occupancy))
        from repro.memsim.controller import WRITEBACK_QUEUE_CAPACITY
        self._check(
            "wb-capacity", occupancy <= WRITEBACK_QUEUE_CAPACITY, now_ns,
            f"writeback occupancy {occupancy} exceeds queue capacity "
            f"{WRITEBACK_QUEUE_CAPACITY} on channel {channel}",
            channel=channel, required_ns=float(WRITEBACK_QUEUE_CAPACITY),
            actual_ns=float(occupancy))

    def on_complete(self, request: "MemRequest", now_ns: float) -> None:
        """The request's data burst finished; audit its timestamp chain."""
        if self._base_pending > 0:
            # request was already in flight when the validator attached;
            # audit its timestamps but keep it out of conservation counts
            self._base_pending -= 1
        else:
            self.completed += 1
        stamps = [("issue", request.issue_ns),
                  ("arrive_bank", request.arrive_bank_ns),
                  ("bank_start", request.bank_start_ns),
                  ("bank_done", request.bank_done_ns),
                  ("bus_start", request.bus_start_ns),
                  ("complete", request.complete_ns)]
        ordered = all(a[1] <= b[1] + EPS_NS
                      for a, b in zip(stamps, stamps[1:]))
        stamped = all(s[1] >= 0 for s in stamps)
        self._check(
            "timestamps", ordered and stamped, now_ns,
            f"request #{request.request_id} has a non-monotonic or missing "
            f"timestamp chain: "
            + ", ".join(f"{n}={v:.3f}" for n, v in stamps),
            channel=request.location.channel, rank=request.location.rank,
            bank=request.location.bank, request_id=request.request_id)
        self._check(
            "conservation", self.completed <= self.submitted, now_ns,
            f"completed count {self.completed} exceeds submitted count "
            f"{self.submitted}", request_id=request.request_id)

    # -- bank hooks ----------------------------------------------------------

    def on_service_start(self, channel: int, rank_index: int, bank_id: int,
                         request: "MemRequest", access: AccessClass,
                         start_ns: float, data_ready_ns: float) -> None:
        """A bank began servicing ``request`` (activate and/or column)."""
        key = (rank_index, bank_id)
        t = self._t
        self._check(
            "freeze-service",
            start_ns >= self._channel_frozen_until(channel) - EPS_NS,
            start_ns,
            f"bank service started at {start_ns:.3f}ns inside the freeze "
            f"window of channel {channel} "
            f"(until {self._channel_frozen_until(channel):.3f}ns)",
            channel=channel, rank=rank_index, bank=bank_id,
            request_id=request.request_id,
            required_ns=self._channel_frozen_until(channel),
            actual_ns=start_ns)
        self._check(
            "refresh-window",
            start_ns >= self._refresh_busy_until.get(rank_index, 0.0) - EPS_NS,
            start_ns,
            f"bank service started at {start_ns:.3f}ns inside rank "
            f"{rank_index}'s refresh window (until "
            f"{self._refresh_busy_until.get(rank_index, 0.0):.3f}ns)",
            channel=channel, rank=rank_index, bank=bank_id,
            request_id=request.request_id,
            required_ns=self._refresh_busy_until.get(rank_index, 0.0),
            actual_ns=start_ns)
        self._check(
            "sr-activate", not self._in_sr.get(rank_index, False), start_ns,
            f"bank service started at {start_ns:.3f}ns while rank "
            f"{rank_index} is in self-refresh (CKE low, no commands legal)",
            channel=channel, rank=rank_index, bank=bank_id,
            request_id=request.request_id, actual_ns=start_ns)
        sr_ready = self._sr_ready.get(rank_index, 0.0)
        self._check(
            "sr-exit", start_ns >= sr_ready - EPS_NS, start_ns,
            f"bank service started at {start_ns:.3f}ns inside rank "
            f"{rank_index}'s self-refresh exit window (tXS until "
            f"{sr_ready:.3f}ns)", channel=channel, rank=rank_index,
            bank=bank_id, request_id=request.request_id,
            required_ns=sr_ready, actual_ns=start_ns)

        # row-buffer state consistency against the validator's own map
        open_row = self._open_row.get(key)
        row = request.location.row
        if access is AccessClass.ROW_HIT:
            expected_ok = open_row is not None and open_row == row
        elif access is AccessClass.OPEN_ROW_MISS:
            expected_ok = open_row is not None and open_row != row
        else:
            expected_ok = open_row is None
        self._check(
            "row-state", expected_ok, start_ns,
            f"access classified {access.value} but bank ({rank_index},"
            f"{bank_id}) has open row {open_row} and request targets row "
            f"{row}", channel=channel, rank=rank_index, bank=bank_id,
            request_id=request.request_id)

        if access is AccessClass.ROW_HIT:
            self._check(
                "tCL", data_ready_ns >= start_ns + t.t_cl_ns - EPS_NS,
                start_ns,
                f"row-hit data ready after {data_ready_ns - start_ns:.3f}ns, "
                f"below tCL={t.t_cl_ns}ns", channel=channel, rank=rank_index,
                bank=bank_id, request_id=request.request_id,
                required_ns=t.t_cl_ns, actual_ns=data_ready_ns - start_ns)
        else:
            self._audit_activate(channel, rank_index, bank_id, request,
                                 access, start_ns, data_ready_ns)
        self._open_row[key] = row

    def _audit_activate(self, channel: int, rank_index: int, bank_id: int,
                        request: "MemRequest", access: AccessClass,
                        start_ns: float, data_ready_ns: float) -> None:
        key = (rank_index, bank_id)
        t = self._t
        act = request.act_ns
        self._check(
            "tRCD", data_ready_ns >= act + t.t_rcd_ns + t.t_cl_ns - EPS_NS,
            act,
            f"data ready {data_ready_ns - act:.3f}ns after activate, below "
            f"tRCD+tCL={t.t_rcd_ns + t.t_cl_ns}ns", channel=channel,
            rank=rank_index, bank=bank_id, request_id=request.request_id,
            required_ns=t.t_rcd_ns + t.t_cl_ns, actual_ns=data_ready_ns - act)
        if access is AccessClass.OPEN_ROW_MISS:
            # the conflicting row is precharged inline before the activate
            self._check(
                "tRP", act >= start_ns + t.t_rp_ns - EPS_NS, act,
                f"open-row-miss activate {act - start_ns:.3f}ns after "
                f"service start, inside the inline precharge "
                f"tRP={t.t_rp_ns}ns", channel=channel, rank=rank_index,
                bank=bank_id, request_id=request.request_id,
                required_ns=t.t_rp_ns, actual_ns=act - start_ns)
        pre_end = self._pre_end.get(key)
        if pre_end is not None:
            self._check(
                "tRP", act >= pre_end - EPS_NS, act,
                f"activate at {act:.3f}ns before the bank's precharge "
                f"completed at {pre_end:.3f}ns", channel=channel,
                rank=rank_index, bank=bank_id,
                request_id=request.request_id,
                required_ns=pre_end, actual_ns=act)
        last_act = self._last_act.get(key)
        if last_act is not None:
            self._check(
                "tRC", act - last_act >= t.t_rc_ns - EPS_NS, act,
                f"bank activate-to-activate gap {act - last_act:.3f}ns "
                f"below tRC={t.t_rc_ns}ns", channel=channel, rank=rank_index,
                bank=bank_id, request_id=request.request_id,
                required_ns=t.t_rc_ns, actual_ns=act - last_act)
        acts = self._rank_acts.get(rank_index)
        if acts is None:
            acts = self._rank_acts[rank_index] = deque(maxlen=4)
        if acts:
            self._check(
                "tRRD", act - acts[-1] >= t.t_rrd_ns - EPS_NS, act,
                f"rank activate-to-activate gap {act - acts[-1]:.3f}ns "
                f"below tRRD={t.t_rrd_ns}ns", channel=channel,
                rank=rank_index, bank=bank_id,
                request_id=request.request_id,
                required_ns=t.t_rrd_ns, actual_ns=act - acts[-1])
        if len(acts) == 4:
            self._check(
                "tFAW", act - acts[0] >= t.t_faw_ns - EPS_NS, act,
                f"five activates to rank {rank_index} within "
                f"{act - acts[0]:.3f}ns, below tFAW={t.t_faw_ns}ns",
                channel=channel, rank=rank_index, bank=bank_id,
                request_id=request.request_id,
                required_ns=t.t_faw_ns, actual_ns=act - acts[0])
        acts.append(act)
        self._last_act[key] = act

    def on_precharge(self, channel: int, rank_index: int, bank_id: int,
                     pre_start_ns: float, free_at_ns: float) -> None:
        """The bank precharged its open row after a burst."""
        key = (rank_index, bank_id)
        t = self._t
        last_act = self._last_act.get(key)
        if last_act is not None:
            self._check(
                "tRAS", pre_start_ns >= last_act + t.t_ras_ns - EPS_NS,
                pre_start_ns,
                f"precharge {pre_start_ns - last_act:.3f}ns after activate, "
                f"below tRAS={t.t_ras_ns}ns", channel=channel,
                rank=rank_index, bank=bank_id,
                required_ns=t.t_ras_ns, actual_ns=pre_start_ns - last_act)
        self._check(
            "tRP", free_at_ns >= pre_start_ns + t.t_rp_ns - EPS_NS,
            pre_start_ns,
            f"precharge freed the bank after {free_at_ns - pre_start_ns:.3f}"
            f"ns, below tRP={t.t_rp_ns}ns", channel=channel, rank=rank_index,
            bank=bank_id, required_ns=t.t_rp_ns,
            actual_ns=free_at_ns - pre_start_ns)
        self._pre_end[key] = free_at_ns
        self._open_row[key] = None

    # -- channel hooks -------------------------------------------------------

    def on_burst(self, channel: int, request: "MemRequest",
                 start_ns: float, end_ns: float) -> None:
        """The channel bus began a data burst for ``request``."""
        last_end = self._last_burst_end.get(channel)
        if last_end is not None:
            self._check(
                "bus-overlap", start_ns >= last_end - EPS_NS, start_ns,
                f"burst started at {start_ns:.3f}ns while channel {channel} "
                f"was bursting until {last_end:.3f}ns", channel=channel,
                request_id=request.request_id,
                required_ns=last_end, actual_ns=start_ns)
        self._check(
            "freeze-burst",
            start_ns >= self._channel_frozen_until(channel) - EPS_NS,
            start_ns,
            f"burst started at {start_ns:.3f}ns inside the freeze window of "
            f"channel {channel} (until "
            f"{self._channel_frozen_until(channel):.3f}ns)", channel=channel,
            request_id=request.request_id,
            required_ns=self._channel_frozen_until(channel),
            actual_ns=start_ns)
        self._check(
            "bus-order", start_ns >= request.bank_done_ns - EPS_NS, start_ns,
            f"burst started at {start_ns:.3f}ns before its bank access "
            f"finished at {request.bank_done_ns:.3f}ns", channel=channel,
            request_id=request.request_id,
            required_ns=request.bank_done_ns, actual_ns=start_ns)
        freq = self._channel_freq.get(channel, self._global_freq)
        if freq is not None:
            self._check(
                "burst-length",
                abs((end_ns - start_ns) - freq.burst_ns) <= 1e-6, start_ns,
                f"burst on channel {channel} took {end_ns - start_ns:.4f}ns; "
                f"expected {freq.burst_ns:.4f}ns at {freq.bus_mhz:.0f}MHz",
                channel=channel, request_id=request.request_id,
                required_ns=freq.burst_ns, actual_ns=end_ns - start_ns)
        self._last_burst_end[channel] = end_ns

    # -- rank hooks ----------------------------------------------------------

    def on_refresh_due(self, rank_index: int, now_ns: float) -> None:
        """The rank's refresh timer ticked (refresh became pending)."""
        self._check(
            "sr-refresh", not self._in_sr.get(rank_index, False), now_ns,
            f"rank {rank_index}'s external refresh timer ticked at "
            f"{now_ns:.1f}ns while the rank is in self-refresh (the timer "
            f"must be suspended)", rank=rank_index, actual_ns=now_ns)
        t_refi = self._t.t_refi_ns
        last = self._refresh_due_last.get(rank_index)
        if last is None:
            self._check(
                "refresh-cadence", now_ns <= t_refi + EPS_NS, now_ns,
                f"rank {rank_index}'s first refresh became due at "
                f"{now_ns:.1f}ns, past tREFI={t_refi:.1f}ns (stagger must "
                f"stay within the first interval)", rank=rank_index,
                required_ns=t_refi, actual_ns=now_ns)
        else:
            self._check(
                "refresh-cadence", now_ns - last <= t_refi + EPS_NS, now_ns,
                f"rank {rank_index}'s refresh timer gap "
                f"{now_ns - last:.1f}ns exceeds tREFI={t_refi:.1f}ns",
                rank=rank_index, required_ns=t_refi, actual_ns=now_ns - last)
        self._refresh_due_last[rank_index] = now_ns

    def on_refresh_issue(self, rank_index: int, now_ns: float,
                         busy_until_ns: float,
                         was_powered_down: bool) -> None:
        """A refresh command actually issued to the rank."""
        t = self._t
        self._check(
            "sr-refresh", not self._in_sr.get(rank_index, False), now_ns,
            f"external refresh issued at {now_ns:.1f}ns to rank "
            f"{rank_index} while it is in self-refresh", rank=rank_index,
            actual_ns=now_ns)
        prev_busy = self._refresh_busy_until.get(rank_index, 0.0)
        self._check(
            "refresh-overlap", now_ns >= prev_busy - EPS_NS, now_ns,
            f"refresh issued at {now_ns:.1f}ns while rank {rank_index} was "
            f"still refreshing until {prev_busy:.1f}ns", rank=rank_index,
            required_ns=prev_busy, actual_ns=now_ns)
        self._check(
            "tRFC", busy_until_ns >= now_ns + t.t_rfc_ns - EPS_NS, now_ns,
            f"refresh occupied rank {rank_index} for "
            f"{busy_until_ns - now_ns:.1f}ns, below tRFC={t.t_rfc_ns}ns",
            rank=rank_index, required_ns=t.t_rfc_ns,
            actual_ns=busy_until_ns - now_ns)
        last_issue = self._refresh_issue_last.get(rank_index)
        max_gap = (1 + self._max_postponed) * t.t_refi_ns
        if last_issue is not None:
            self._check(
                "refresh-cadence", now_ns - last_issue <= max_gap + EPS_NS,
                now_ns,
                f"rank {rank_index} went {now_ns - last_issue:.1f}ns "
                f"between refreshes; DDR3 allows at most "
                f"{self._max_postponed} postponements "
                f"({max_gap:.1f}ns)", rank=rank_index,
                required_ns=max_gap, actual_ns=now_ns - last_issue)
        self._refresh_issue_last[rank_index] = now_ns
        self._refresh_busy_until[rank_index] = busy_until_ns
        if was_powered_down:
            self._pd_exits_refresh += 1

    def on_sr_enter(self, rank_index: int, now_ns: float) -> None:
        """The rank is being parked in self-refresh (policy decision)."""
        self._check(
            "sr-entry", not self._in_sr.get(rank_index, False), now_ns,
            f"rank {rank_index} entered self-refresh at {now_ns:.1f}ns but "
            f"was already in self-refresh", rank=rank_index)
        open_rows = [b for b in range(self._org.banks_per_rank)
                     if self._open_row.get((rank_index, b)) is not None]
        self._check(
            "sr-entry", not open_rows, now_ns,
            f"rank {rank_index} entered self-refresh with open rows in "
            f"banks {open_rows}", rank=rank_index)
        busy_until = self._refresh_busy_until.get(rank_index, 0.0)
        self._check(
            "sr-entry", now_ns >= busy_until - EPS_NS, now_ns,
            f"rank {rank_index} entered self-refresh at {now_ns:.1f}ns "
            f"inside its refresh window (until {busy_until:.1f}ns)",
            rank=rank_index, required_ns=busy_until, actual_ns=now_ns)
        due = self._refresh_due_last.get(rank_index)
        issue = self._refresh_issue_last.get(rank_index)
        pending = due is not None and (issue is None or issue < due - EPS_NS)
        self._check(
            "sr-entry", not pending, now_ns,
            f"rank {rank_index} entered self-refresh with an external "
            f"refresh still pending (due at {due}, last issued at {issue})",
            rank=rank_index)
        self._sr_enter[rank_index] = now_ns

    def on_sr_exit(self, rank_index: int, now_ns: float, ready_ns: float,
                   for_access: bool) -> None:
        """The rank left self-refresh; commands are legal from ``ready_ns``.

        ``for_access`` marks demand-access wakes (EPDC was recorded by
        the rank); policy unparks land in their own exit category.
        Resets the refresh-cadence baselines: the device refreshed
        itself while parked, so external cadence restarts at the exit.
        """
        self._check(
            "sr-exit", self._in_sr.get(rank_index, False), now_ns,
            f"rank {rank_index} exited self-refresh at {now_ns:.1f}ns "
            f"without having entered it", rank=rank_index)
        enter = self._sr_enter.get(rank_index)
        if enter is not None:
            t = self._t
            required = max(now_ns, enter + t.t_ckesr_ns) + t.t_xs_ns
            self._check(
                "sr-exit", ready_ns >= required - EPS_NS, now_ns,
                f"rank {rank_index}'s self-refresh exit window ends at "
                f"{ready_ns:.1f}ns, before tCKESR residency plus "
                f"tXS={t.t_xs_ns}ns elapse ({required:.1f}ns)",
                rank=rank_index, required_ns=required, actual_ns=ready_ns)
        self._in_sr[rank_index] = False
        self._sr_ready[rank_index] = ready_ns
        # cadence baselines restart at the exit point
        self._refresh_due_last[rank_index] = now_ns
        self._refresh_issue_last[rank_index] = now_ns
        if not for_access:
            self._pd_exits_sr += 1

    def on_rank_state(self, rank_index: int, old: RankPowerState,
                      new: RankPowerState, now_ns: float,
                      any_bank_busy: bool) -> None:
        """The rank power-state machine transitioned ``old`` -> ``new``."""
        if new.cke_low and not old.cke_low:
            self._check(
                "powerdown-entry", not any_bank_busy, now_ns,
                f"rank {rank_index} dropped CKE ({old.value} -> {new.value}) "
                f"with a bank still busy or queued", rank=rank_index)
            self._check(
                "powerdown-entry",
                now_ns >= self._refresh_busy_until.get(rank_index, 0.0)
                - EPS_NS,
                now_ns,
                f"rank {rank_index} dropped CKE inside its refresh window",
                rank=rank_index,
                required_ns=self._refresh_busy_until.get(rank_index, 0.0),
                actual_ns=now_ns)
            if new in (RankPowerState.PRECHARGE_POWERDOWN,
                       RankPowerState.SELF_REFRESH):
                open_rows = [b for b in range(self._org.banks_per_rank)
                             if self._open_row.get((rank_index, b))
                             is not None]
                self._check(
                    "powerdown-entry", not open_rows, now_ns,
                    f"rank {rank_index} entered {new.value} with "
                    f"open rows in banks {open_rows}", rank=rank_index)
        if old.cke_low and not new.cke_low:
            self._pd_exits_total += 1
        if new is RankPowerState.SELF_REFRESH:
            self._in_sr[rank_index] = True
        elif old is RankPowerState.SELF_REFRESH:
            self._in_sr[rank_index] = False

    def on_powerdown_exit(self, rank_index: int, now_ns: float) -> None:
        """The rank exited powerdown for an access (EPDC was recorded)."""
        self._pd_exits_access += 1

    def on_fast_forward(self, now_ns: float, limit_ns: float,
                        in_flight: int) -> None:
        """The controller is about to batch idle-period refresh ticks.

        Fast-forward replays each skipped tick through the *same*
        per-tick hooks (:meth:`on_refresh_due`, :meth:`on_rank_state`,
        :meth:`on_refresh_issue`) in the same chronological order as
        event-driven execution, so every refresh/freeze/powerdown rule
        keeps firing with identical inputs. What is new — and checked
        here — is the batch's own precondition: the subsystem must be
        completely idle (no request between MC submit and burst
        completion), and the jump target must not move time backwards.
        """
        self._check(
            "fast-forward", in_flight == 0, now_ns,
            f"fast-forward attempted with {in_flight} requests in flight",
            actual_ns=float(in_flight))
        self._check(
            "fast-forward", limit_ns >= now_ns - EPS_NS, now_ns,
            f"fast-forward target {limit_ns:.1f}ns precedes current time "
            f"{now_ns:.1f}ns", required_ns=now_ns, actual_ns=limit_ns)

    # -- end-of-run invariants ----------------------------------------------

    def finalize(self) -> None:
        """Check the conservation invariants; call once at end of run.

        Requires :meth:`bind` (done by ``attach_validator``) for the
        controller-level checks; an unbound validator checks only its own
        internal consistency.
        """
        controller = self._controller
        now = controller.engine.now if controller is not None else 0.0
        self._check(
            "powerdown-exit-epdc",
            self._pd_exits_total
            == self._pd_exits_access + self._pd_exits_refresh
            + self._pd_exits_sr,
            now,
            f"{self._pd_exits_total} CKE-low exits observed but only "
            f"{self._pd_exits_access} EPDC events, "
            f"{self._pd_exits_refresh} refresh wakes and "
            f"{self._pd_exits_sr} self-refresh unparks were recorded")
        if controller is None:
            return
        completed = (controller.completed_reads + controller.completed_writes
                     - self._base_completed)
        if self._base_pending == 0:
            # exact once every pre-bind in-flight request has drained
            self._check(
                "conservation",
                self.submitted == self.completed
                + controller.pending_requests, now,
                f"submitted ({self.submitted}) != completed "
                f"({self.completed}) + in-flight "
                f"({controller.pending_requests})")
            self._check(
                "conservation",
                self.completed == completed - self._base_pending_initial,
                now,
                f"validator saw {self.completed} completions but the "
                f"controller counted {completed} "
                f"(of which {self._base_pending_initial} pre-date binding)")
        epdc = controller.counters.epdc - self._base_epdc
        self._check(
            "powerdown-exit-epdc", epdc == self._pd_exits_access, now,
            f"EPDC counter advanced by {epdc:.0f} but "
            f"{self._pd_exits_access} access-path powerdown exits occurred")
        for ch in range(self._org.channels):
            occupancy = controller.wb_queue_occupancy(ch)
            self._check(
                "wb-occupancy", occupancy == 0 or controller.pending_requests
                > 0, now,
                f"writeback queue of channel {ch} reports occupancy "
                f"{occupancy} with no requests in flight", channel=ch,
                actual_ns=float(occupancy))
        controller.sync_accounting()
        elapsed = now - self._bind_time_ns
        tolerance = 1e-6 + 1e-9 * max(elapsed, 1.0)
        totals = (np.array(controller.counters.rank_state_ns, dtype=np.float64)
                  - self._base_rank_state).sum(axis=1)
        for rank_index, total in enumerate(totals):
            self._check(
                "conservation", abs(float(total) - elapsed) <= tolerance,
                now,
                f"rank {rank_index} state-time integral {float(total):.3f}ns "
                f"!= wall clock {elapsed:.3f}ns", rank=rank_index,
                required_ns=elapsed, actual_ns=float(total))
