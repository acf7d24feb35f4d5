"""Hardware performance counters (Section 3.1).

The MC exposes exactly the counter file the paper describes; the OS policy
reads it at profiling-phase and epoch boundaries and never touches
simulator internals. All counters accumulate monotonically; consumers
take :meth:`CounterFile.snapshot` and subtract two snapshots to get the
activity of an interval.

Counter inventory (names follow the paper):

* per-core ``TIC`` / ``TLM`` -- instructions committed, LLC misses;
* ``BTO``/``BTC`` and ``CTO``/``CTC`` -- transactions-outstanding
  accumulators and arrival counters for banks and channels; their ratios
  approximate the queueing terms xi_bank and xi_bus of Eq. 7-9;
* ``RBHC``/``OBMC``/``CBMC``/``EPDC`` -- row-buffer hits, open-row misses,
  closed-bank misses, powerdown exits (Eq. 6);
* ``PTC``/``PTCKEL``/``ATCKEL`` -- per-rank state-time integrals feeding
  the Micron-style power model;
* ``POCC`` -- page open/close pairs (activate count);
* read/write burst counts and channel busy time (power model inputs and
  the channel-utilization series of Figure 7c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim.states import RankPowerState


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable copy of the counter file at one instant."""

    time_ns: float
    tic: np.ndarray            #: per-core instructions committed
    tlm: np.ndarray            #: per-core LLC misses (reads to memory)
    bto: float
    btc: float
    cto: float
    ctc: float
    rbhc: float
    obmc: float
    cbmc: float
    epdc: float
    pocc: float
    reads: float
    writes: float
    #: per-rank time integrals (ns) indexed [rank, state-index]
    rank_state_ns: np.ndarray
    #: per-rank refresh command count
    refreshes: np.ndarray
    #: per-channel ns of bus busy (burst) time
    channel_busy_ns: np.ndarray
    #: per-channel read/write burst counts (termination power input)
    channel_reads: np.ndarray
    channel_writes: np.ndarray


@dataclass(frozen=True)
class CounterDelta:
    """Difference of two snapshots: the activity within an interval."""

    interval_ns: float
    tic: np.ndarray
    tlm: np.ndarray
    bto: float
    btc: float
    cto: float
    ctc: float
    rbhc: float
    obmc: float
    cbmc: float
    epdc: float
    pocc: float
    reads: float
    writes: float
    rank_state_ns: np.ndarray
    refreshes: np.ndarray
    channel_busy_ns: np.ndarray
    channel_reads: np.ndarray
    channel_writes: np.ndarray

    # -- derived quantities used by the models ---------------------------

    @property
    def accesses(self) -> float:
        """Column accesses observed (row hits + both kinds of misses)."""
        return self.rbhc + self.obmc + self.cbmc

    @property
    def xi_bank(self) -> float:
        """Average outstanding work a bank arrival finds ahead of it (BTO/BTC)."""
        return self.bto / self.btc if self.btc > 0 else 0.0

    @property
    def xi_bus(self) -> float:
        """Average outstanding work a channel arrival finds ahead of it (CTO/CTC)."""
        return self.cto / self.ctc if self.ctc > 0 else 0.0

    @property
    def total_instructions(self) -> float:
        return float(self.tic.sum())

    @property
    def total_misses(self) -> float:
        return float(self.tlm.sum())

    def rank_state_fraction(self, rank: int, state: RankPowerState) -> float:
        """Fraction of the interval rank ``rank`` spent in ``state``."""
        if self.interval_ns <= 0:
            return 0.0
        return float(self.rank_state_ns[rank, state.column]) / self.interval_ns

    @property
    def ptc(self) -> float:
        """Fraction of time all banks were precharged, averaged over ranks."""
        if self.interval_ns <= 0 or self.rank_state_ns.shape[0] == 0:
            return 0.0
        pre = self.rank_state_ns[:, RankPowerState.PRECHARGE_STANDBY.column] \
            + self.rank_state_ns[:, RankPowerState.PRECHARGE_POWERDOWN.column]
        return float(pre.mean()) / self.interval_ns

    @property
    def ptckel(self) -> float:
        """Fraction of time all banks precharged with CKE low (avg over ranks)."""
        if self.interval_ns <= 0 or self.rank_state_ns.shape[0] == 0:
            return 0.0
        col = self.rank_state_ns[:, RankPowerState.PRECHARGE_POWERDOWN.column]
        return float(col.mean()) / self.interval_ns

    @property
    def atckel(self) -> float:
        """Fraction of time some bank active with CKE low (avg over ranks)."""
        if self.interval_ns <= 0 or self.rank_state_ns.shape[0] == 0:
            return 0.0
        col = self.rank_state_ns[:, RankPowerState.ACTIVE_POWERDOWN.column]
        return float(col.mean()) / self.interval_ns

    def channel_utilization(self, channel: int) -> float:
        """Fraction of the interval channel ``channel`` spent bursting data."""
        if self.interval_ns <= 0:
            return 0.0
        return float(self.channel_busy_ns[channel]) / self.interval_ns

    @property
    def mean_channel_utilization(self) -> float:
        if self.interval_ns <= 0 or self.channel_busy_ns.size == 0:
            return 0.0
        return float(self.channel_busy_ns.mean()) / self.interval_ns


#: Column order of the per-rank state-time integrals: the members in
#: definition order, which is ``RankPowerState.column`` order (the one
#: state-to-column mapping; SELF_REFRESH is last, see its docstring).
_STATE_ORDER = tuple(RankPowerState)


class CounterFile:
    """Mutable counter registers, updated by the simulator as events occur.

    The simulator writes the registers directly where each event
    happens (core model, controller, bank, channel, rank); there are no
    update methods. Hot-path storage is deliberately plain Python:
    scalar registers are floats and the per-core / per-rank /
    per-channel registers are Python lists, because a single-element
    numpy ``arr[i] += x`` costs roughly an order of magnitude more than
    a list index. The numpy arrays the models consume are materialized
    once per :meth:`snapshot` (a per-epoch operation), not per event.
    """

    def __init__(self, n_cores: int, n_channels: int, n_ranks: int):
        if n_cores <= 0 or n_channels <= 0 or n_ranks <= 0:
            raise ValueError("counter dimensions must be positive")
        self.n_cores = n_cores
        self.n_channels = n_channels
        self.n_ranks = n_ranks
        self.tic = [0.0] * n_cores
        self.tlm = [0.0] * n_cores
        self.bto = 0.0
        self.btc = 0.0
        self.cto = 0.0
        self.ctc = 0.0
        self.rbhc = 0.0
        self.obmc = 0.0
        self.cbmc = 0.0
        self.epdc = 0.0
        self.pocc = 0.0
        self.reads = 0.0
        self.writes = 0.0
        self.rank_state_ns = [[0.0] * len(_STATE_ORDER)
                              for _ in range(n_ranks)]
        self.refreshes = [0.0] * n_ranks
        self.channel_busy_ns = [0.0] * n_channels
        self.channel_reads = [0.0] * n_channels
        self.channel_writes = [0.0] * n_channels

    # -- snapshot / delta -------------------------------------------------

    def snapshot(self, time_ns: float) -> CounterSnapshot:
        """Materialize the registers as immutable numpy arrays.

        This is the list -> ndarray boundary: everything downstream
        (power model, policies, validator) keeps seeing numpy.
        """
        return CounterSnapshot(
            time_ns=time_ns,
            tic=np.array(self.tic, dtype=np.float64),
            tlm=np.array(self.tlm, dtype=np.float64),
            bto=self.bto, btc=self.btc, cto=self.cto, ctc=self.ctc,
            rbhc=self.rbhc, obmc=self.obmc, cbmc=self.cbmc, epdc=self.epdc,
            pocc=self.pocc, reads=self.reads, writes=self.writes,
            rank_state_ns=np.array(self.rank_state_ns, dtype=np.float64),
            refreshes=np.array(self.refreshes, dtype=np.float64),
            channel_busy_ns=np.array(self.channel_busy_ns, dtype=np.float64),
            channel_reads=np.array(self.channel_reads, dtype=np.float64),
            channel_writes=np.array(self.channel_writes, dtype=np.float64),
        )

    @staticmethod
    def delta(start: CounterSnapshot, end: CounterSnapshot) -> CounterDelta:
        """Activity between two snapshots (``end`` must not precede ``start``)."""
        if end.time_ns < start.time_ns:
            raise ValueError("snapshots supplied in reverse order")
        return CounterDelta(
            interval_ns=end.time_ns - start.time_ns,
            tic=end.tic - start.tic, tlm=end.tlm - start.tlm,
            bto=end.bto - start.bto, btc=end.btc - start.btc,
            cto=end.cto - start.cto, ctc=end.ctc - start.ctc,
            rbhc=end.rbhc - start.rbhc, obmc=end.obmc - start.obmc,
            cbmc=end.cbmc - start.cbmc, epdc=end.epdc - start.epdc,
            pocc=end.pocc - start.pocc,
            reads=end.reads - start.reads, writes=end.writes - start.writes,
            rank_state_ns=end.rank_state_ns - start.rank_state_ns,
            refreshes=end.refreshes - start.refreshes,
            channel_busy_ns=end.channel_busy_ns - start.channel_busy_ns,
            channel_reads=end.channel_reads - start.channel_reads,
            channel_writes=end.channel_writes - start.channel_writes,
        )
