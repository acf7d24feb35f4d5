"""DRAM rank model: power states, activation window, refresh.

The rank is the granularity of DDR3 power management (Section 1): CKE is
per-rank, so powerdown requires *every* bank of the rank to be idle — the
very property that makes idle low-power states hard to exploit and
motivates MemScale. The rank also keeps the window of recent activates
that its banks check against the cross-bank constraints tRRD and tFAW,
and periodically refreshes itself.

Hot-path notes: instead of scanning every bank (busy, or with requests
queued) on each idle/refresh decision, the rank keeps ``_active_banks``
and ``_open_rows`` counters that its banks maintain at the exact
transition points (a bank becomes active when a request lands in an
empty idle bank; inactive when it frees with nothing queued). The
fixed-in-ns timing constants of ``config.DramTimings`` are cached as
plain floats at construction, the powerdown exit latency among them.
State residency is added straight into this rank's row of
``CounterFile.rank_state_ns`` at the column each :class:`RankPowerState`
carries, and the enum members are read from module constants: hashing
an ``Enum`` key and reading an ``Enum`` class attribute both run Python
code.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.config import DramTimings
from repro.memsim.counters import CounterFile
from repro.memsim.engine import EventEngine
from repro.memsim.states import PowerdownMode, RankPowerState

_ACTIVE_STANDBY = RankPowerState.ACTIVE_STANDBY
_PRECHARGE_STANDBY = RankPowerState.PRECHARGE_STANDBY
_ACTIVE_POWERDOWN = RankPowerState.ACTIVE_POWERDOWN
_PRECHARGE_POWERDOWN = RankPowerState.PRECHARGE_POWERDOWN
_SELF_REFRESH = RankPowerState.SELF_REFRESH
_NO_POWERDOWN = PowerdownMode.NONE


class Rank:
    """One rank of DRAM chips plus its power/refresh state machine."""

    __slots__ = (
        "_engine", "_counters", "global_rank_index", "n_banks",
        "powerdown_mode", "_banks", "validator", "_state", "_state_since",
        "_recent_activates", "refresh_busy_until", "_refresh_due",
        "_refresh_enabled", "_t_refi_ns",
        "_t_rfc_ns", "_active_banks", "_open_rows", "_timer_entry",
        "_t_ckesr_ns", "_t_xs_ns", "_pd_exit_ns", "_sr_enter_ns",
        "sr_ready_until", "_residency",
    )

    def __init__(self, engine: EventEngine, timings: DramTimings,
                 counters: CounterFile, global_rank_index: int,
                 n_banks: int, powerdown_mode: PowerdownMode,
                 refresh_enabled: bool = True):
        self._engine = engine
        self._counters = counters
        self.global_rank_index = global_rank_index
        self.n_banks = n_banks
        self.powerdown_mode = powerdown_mode
        self._banks: List[object] = []  # populated by the controller wiring
        #: protocol validator, installed by MemoryController.attach_validator
        self.validator = None
        # power state accounting: this rank's row of the counter file's
        # state-time integrals, indexed by ``RankPowerState.column``
        self._state = _PRECHARGE_STANDBY
        self._state_since = engine.now
        self._residency = counters.rank_state_ns[global_rank_index]
        #: activation window: times of the most recent activates, which
        #: the banks check against tRRD and tFAW and append to
        self._recent_activates: Deque[float] = deque(maxlen=4)
        # fixed-in-ns constants, cached out of the per-command path
        self._t_refi_ns = timings.t_refi_ns
        self._t_rfc_ns = timings.t_rfc_ns
        self._t_ckesr_ns = timings.t_ckesr_ns
        self._t_xs_ns = timings.t_xs_ns
        # latency to wake from powerdown, by the flavour this rank enters
        if powerdown_mode is PowerdownMode.SLOW_EXIT:
            self._pd_exit_ns = timings.t_xpdll_ns
        elif powerdown_mode is PowerdownMode.FAST_EXIT:
            self._pd_exit_ns = timings.t_xp_ns
        else:
            self._pd_exit_ns = 0.0
        # self-refresh parking (entered only by explicit policy calls)
        self._sr_enter_ns = -1.0
        #: earliest time a command may issue after a self-refresh exit
        #: (tCKESR residual + tXS); gates bank service starts like
        #: ``refresh_busy_until`` does for refresh windows.
        self.sr_ready_until = -1.0
        # bank-activity counters maintained by the banks (see module docstring)
        self._active_banks = 0
        self._open_rows = 0
        # refresh machinery
        self.refresh_busy_until = -1.0
        self._refresh_due = False
        self._refresh_enabled = refresh_enabled
        #: live heap entry of the next refresh-timer tick; tracked so the
        #: fast-forward path can consume the tick analytically (None
        #: when refresh is disabled). Timer entries carry this rank as
        #: their housekeeping tag so the fast-forward delegate can
        #: recognize an absorbable queue head with one list index.
        self._timer_entry = None
        if refresh_enabled:
            # Stagger the first refresh across ranks to avoid lock-step.
            # The offset pulls the first tick *earlier* so that every
            # rank's first refresh lands within one tREFI of time zero.
            offset = (global_rank_index % 16) / 16.0 * self._t_refi_ns
            self._timer_entry = engine.post_housekeeping(
                self._t_refi_ns - offset, self._refresh_timer, self)

    # -- wiring -----------------------------------------------------------

    def attach_banks(self, banks: List[object]) -> None:
        """Called once by the controller after banks are constructed."""
        self._banks = banks

    # -- power-state machine ----------------------------------------------

    @property
    def state(self) -> RankPowerState:
        return self._state

    @property
    def cke_low(self) -> bool:
        """True in the powerdown and self-refresh states (only the two
        standby states keep the clock enabled)."""
        state = self._state
        return state is not _ACTIVE_STANDBY and state is not _PRECHARGE_STANDBY

    def sync_accounting(self) -> None:
        """Flush elapsed time in the current state into the counter file."""
        now = self._engine.now
        elapsed = now - self._state_since
        if elapsed > 0:
            self._residency[self._state.column] += elapsed
        self._state_since = now

    def _transition(self, new_state: RankPowerState) -> None:
        if new_state is self._state:
            return
        self._transition_at(new_state, self._engine._now)

    def _transition_at(self, new_state: RankPowerState,
                       now_ns: float) -> None:
        """State change with an explicit timestamp.

        The event path always passes ``engine.now``; the fast-forward
        path passes the time the skipped event would have executed, so
        the per-state residency integrals receive the same additions in
        the same order as normal execution (float addition is not
        associative, and the golden snapshot pins exact bytes).
        """
        v = self.validator
        if v is not None:
            v.on_rank_state(self.global_rank_index, self._state, new_state,
                            now_ns, self._active_banks > 0)
        elapsed = now_ns - self._state_since
        if elapsed > 0:
            self._residency[self._state.column] += elapsed
        self._state_since = now_ns
        self._state = new_state

    def notify_all_banks_idle(self) -> None:
        """All banks precharged & queues empty — maybe enter powerdown."""
        if self._active_banks > 0:
            return
        if self._state is _SELF_REFRESH:
            # parked by policy; only an explicit exit (or a demand access
            # through wake_for_access) takes the rank out of self-refresh
            return
        if self.powerdown_mode is _NO_POWERDOWN:
            self._transition(_PRECHARGE_STANDBY)
        else:
            # Aggressive MC: immediate transition to precharge powerdown
            # when the last bank of the rank closes (Section 4.2.3).
            if self._open_rows == 0:
                self._transition(_PRECHARGE_POWERDOWN)
            else:
                self._transition(_ACTIVE_STANDBY)
        self._maybe_start_refresh()

    def wake_for_access(self) -> float:
        """Exit powerdown for a new access; returns the exit penalty in ns.

        Records an EPDC event when an exit actually occurs (Section 3.1).
        """
        if not self.cke_low:
            return 0.0
        state = self._state
        if state is _SELF_REFRESH:
            return self.exit_self_refresh(for_access=True)
        self._counters.epdc += 1.0
        v = self.validator
        if v is not None:
            v.on_powerdown_exit(self.global_rank_index, self._engine.now)
        # a powerdown exit lands in the matching standby state
        self._transition(_PRECHARGE_STANDBY
                         if state is _PRECHARGE_POWERDOWN
                         else _ACTIVE_STANDBY)
        return self._pd_exit_ns

    # -- self-refresh parking ------------------------------------------------

    def can_enter_self_refresh(self) -> bool:
        """Entry legality: every bank idle and precharged, no refresh in
        progress or pending, and any previous exit window fully elapsed."""
        now = self._engine.now
        return (self._state is not _SELF_REFRESH
                and self._active_banks == 0
                and self._open_rows == 0
                and not self._refresh_due
                and self.refresh_busy_until <= now
                and self.sr_ready_until <= now)

    def enter_self_refresh(self) -> bool:
        """Park the rank in self-refresh (policy call, e.g. rank drained).

        Suspends the external refresh timer — the device refreshes
        itself — and starts the tCKESR residency clock. Returns False
        without side effects when entry is not currently legal.
        """
        if not self.can_enter_self_refresh():
            return False
        now = self._engine.now
        v = self.validator
        if v is not None:
            v.on_sr_enter(self.global_rank_index, now)
        if self._timer_entry is not None:
            self._engine.tombstone(self._timer_entry)
            self._timer_entry = None
        self._sr_enter_ns = now
        self._transition(_SELF_REFRESH)
        return True

    def exit_self_refresh(self, for_access: bool = False) -> float:
        """Leave self-refresh; returns the exit penalty in nanoseconds.

        The penalty is the unexpired part of the tCKESR minimum
        residency plus tXS. The caller (policy unpark, or the bank's
        demand-access wake path) must not issue a command to the rank
        before ``now + penalty``; ``sr_ready_until`` records that bound
        so concurrent accesses to other banks are gated too. External
        refresh resumes with a fresh tREFI interval (the device kept
        every row alive internally while parked).
        """
        if self._state is not _SELF_REFRESH:
            return 0.0
        now = self._engine.now
        residual = self._sr_enter_ns + self._t_ckesr_ns - now
        if residual < 0.0:
            residual = 0.0
        penalty = residual + self._t_xs_ns
        ready = now + penalty
        self.sr_ready_until = ready
        if for_access:
            self._counters.epdc += 1.0
            v = self.validator
            if v is not None:
                v.on_powerdown_exit(self.global_rank_index, now)
        # Notify the exit while still in SR: on_rank_state clears the
        # validator's in-SR flag, so the order is exit, then transition.
        v = self.validator
        if v is not None:
            v.on_sr_exit(self.global_rank_index, now, ready, for_access)
        self._transition(_PRECHARGE_STANDBY)
        if self._refresh_enabled:
            self._timer_entry = self._engine.post_housekeeping(
                self._t_refi_ns, self._refresh_timer, self)
        return penalty

    # -- refresh ------------------------------------------------------------

    def _refresh_timer(self) -> None:
        self._refresh_due = True
        v = self.validator
        if v is not None:
            v.on_refresh_due(self.global_rank_index, self._engine.now)
        self._timer_entry = self._engine.post_housekeeping(
            self._t_refi_ns, self._refresh_timer, self)
        self._maybe_start_refresh()

    def _maybe_start_refresh(self) -> None:
        """Issue the pending refresh as soon as every bank is quiescent."""
        if not self._refresh_due or self._active_banks > 0:
            return
        now = self._engine.now
        if self.refresh_busy_until > now:
            return
        self._refresh_due = False
        # refresh executes from standby: wake the rank without an access
        was_powered_down = self.cke_low
        if was_powered_down:
            self._transition(_PRECHARGE_STANDBY)
        self.refresh_busy_until = now + self._t_rfc_ns
        self._counters.refreshes[self.global_rank_index] += 1.0
        v = self.validator
        if v is not None:
            v.on_refresh_issue(self.global_rank_index, now,
                               self.refresh_busy_until, was_powered_down)
        self._engine.post_housekeeping_at(self.refresh_busy_until,
                                          self._refresh_done)

    def _refresh_done(self) -> None:
        for bank in self._banks:
            bank.kick()
        self.notify_all_banks_idle()

    # -- fast-forward (analytic refresh batching) ---------------------------
    #
    # When the memory controller detects a fully idle subsystem it
    # replays this rank's refresh ticks analytically instead of through
    # the event loop. The method below reproduces the *exact* side
    # effects of `_refresh_timer` + `_maybe_start_refresh` +
    # `_refresh_done` on an idle rank: same validator hook order, same
    # per-slice residency additions, same sequence numbers for the
    # events left behind. The refresh count is the one deviation — the
    # controller adds the same `+= 1.0` to the refresh counter itself,
    # so the counter bytes cannot differ.

    def ff_refresh_tick(self, t_ns: float, done_seq: int,
                        limit_ns: float) -> int:
        """Apply one refresh tick at ``t_ns`` analytically.

        Returns the number of events skipped: 2 when the completion at
        ``t_ns + tRFC`` is also absorbed, 1 when it crosses ``limit_ns``
        and must stay a real event (banks blocked on the refresh window
        are re-kicked by it), in which case it is pushed carrying the
        reserved ``done_seq``.

        This runs once per skipped tick on the idle hot path, so the two
        state transitions are :meth:`_transition_at` inlined: the same
        float operations in the same order, with the validator hooks
        behind ``v is not None``. A rank parked in self-refresh never
        gets here (its refresh timer is tombstoned), so only the two
        powerdown states need waking.
        """
        v = self.validator
        residency = self._residency
        rank_index = self.global_rank_index
        state = self._state
        since = self._state_since
        if v is not None:
            v.on_refresh_due(rank_index, t_ns)
        # refresh executes from standby: wake the rank without an access
        was_powered_down = (state is _ACTIVE_POWERDOWN
                            or state is _PRECHARGE_POWERDOWN)
        if was_powered_down:
            if v is not None:
                v.on_rank_state(rank_index, state, _PRECHARGE_STANDBY, t_ns,
                                self._active_banks > 0)
            elapsed = t_ns - since
            if elapsed > 0:
                residency[state.column] += elapsed
            since = t_ns
            state = _PRECHARGE_STANDBY
        done_ns = t_ns + self._t_rfc_ns
        self.refresh_busy_until = done_ns
        if v is not None:
            v.on_refresh_issue(rank_index, t_ns, done_ns, was_powered_down)
        if done_ns >= limit_ns:
            self._state = state
            self._state_since = since
            self._engine.push_reserved(done_ns, done_seq, self._refresh_done)
            return 1
        # completion absorbed too: settle back into the idle power state
        # (the `notify_all_banks_idle` outcome for an idle rank)
        if self.powerdown_mode is _NO_POWERDOWN:
            target = _PRECHARGE_STANDBY
        elif self._open_rows == 0:
            target = _PRECHARGE_POWERDOWN
        else:
            target = _ACTIVE_STANDBY
        if target is not state:
            if v is not None:
                v.on_rank_state(rank_index, state, target, done_ns,
                                self._active_banks > 0)
            elapsed = done_ns - since
            if elapsed > 0:
                residency[state.column] += elapsed
            since = done_ns
            state = target
        self._state = state
        self._state_since = since
        return 2
