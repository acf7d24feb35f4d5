"""Counter-based performance model (Section 3.3, Eqs. 2-9).

Predicts each application's CPI at any candidate memory frequency from
one profiling interval's performance counters, sidestepping the
intractable transfer-blocking queueing network (Figure 4) with the
transactions-outstanding accumulators:

* ``xi_bus = 1 + CTO/CTC`` and ``xi_bank = 1 + BTO/BTC`` estimate the
  total work (queue ahead plus the request itself) a new arrival faces at
  the channel and bank servers (Eqs. 7-8; the "+1" is request *k* itself,
  which the paper folds into its summation);
* the average DRAM device time comes from the row-buffer counters
  (Eq. 6) and is frequency-independent (array timings are fixed in ns);
* MC processing and burst transfer scale with MC/bus frequency;
* ``E[TPI_mem] = xi_bank * (S_bank + xi_bus * S_bus)`` (Eq. 9), and
  per-core CPI follows from the miss fraction alpha = TLM/TIC (Eq. 3).

Every frequency search prices its candidates here: MemScale's ladder
scan, the power-cap and multi-domain searches (which re-price Eq. 3 at
a per-channel refinement's E[TPI_mem] or a core point's compute time
with :meth:`PerformanceModel.cpi`) and the per-channel refinement,
whose down-step cost is :meth:`PerformanceModel.channel_steps`.

The xi values measured at the profiling frequency are assumed to hold at
every candidate frequency — the paper's approximation, whose residual
error the slack mechanism absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.core.frequency import FrequencyLadder, FrequencyPoint
from repro.memsim.counters import CounterDelta


@dataclass(frozen=True)
class CpiPrediction:
    """Per-core CPI predictions at one candidate frequency.

    :meth:`PerformanceModel.predict_ladder` returns the same record for
    the whole ladder: ``freq_bus_mhz`` and ``tpi_mem_ns`` are then
    per-point arrays and ``cpi`` is (points x cores).
    """

    freq_bus_mhz: float
    cpi: np.ndarray          #: predicted CPI per core
    tpi_mem_ns: float        #: expected memory time per LLC miss
    device_time_ns: float    #: Eq. 6 expected device access time
    xi_bank: float
    xi_bus: float


class PerformanceModel:
    """Implements Eqs. 2-9 on top of a :class:`CounterDelta`.

    With ``scale_queues=True`` (the default), the queueing terms measured
    at the profiling frequency are corrected when predicting at another
    frequency: the outstanding work an arrival sees is proportional to
    how long requests reside in the servers, so ``xi - 1`` is scaled by
    the ratio of total service times. This implements the refinement the
    paper sketches for deep queues ("profiling at one more frequency and
    interpolating") analytically; disable it to get the paper's plain
    constant-xi approximation.

    Every equation has one implementation that takes the candidate
    point's constants either as floats (one point: :meth:`predict`,
    :meth:`tpi_mem_ns`, :meth:`time_scale`) or as per-point arrays (the
    whole ladder at once: :meth:`predict_ladder`,
    :meth:`time_scale_ladder`). Both evaluate the same elementwise
    expressions in the same operand order, so a ladder row equals the
    single-point result bit for bit.
    """

    def __init__(self, config: SystemConfig, scale_queues: bool = True):
        config.validate()
        self._config = config
        self._cycle_ns = config.cpu.cycle_ns
        self._tpi_cpu_ns = config.cpu.cpi_cpu * self._cycle_ns
        self._scale_queues = scale_queues
        self._ladder = FrequencyLadder(config)
        # Per-point constants of the candidate ladder, fastest first.
        self._bus_mhz = np.array([p.bus_mhz for p in self._ladder])
        self._mc_latency_ns = np.array([p.mc_latency_ns for p in self._ladder])
        self._burst_ns = np.array([p.burst_ns for p in self._ladder])

    @property
    def tpi_cpu_ns(self) -> float:
        """Fixed wall-clock time per non-missing instruction."""
        return self._tpi_cpu_ns

    @property
    def ladder(self) -> FrequencyLadder:
        """The points the ``*_ladder`` methods evaluate, fastest first."""
        return self._ladder

    @property
    def ladder_bus_mhz(self) -> np.ndarray:
        """Bus MHz of every :attr:`ladder` point, fastest first."""
        return self._bus_mhz

    # -- Eq. 6: expected device access time --------------------------------

    def device_time_ns(self, delta: CounterDelta,
                       pd_exit_ns: Optional[float] = None) -> float:
        """Average array-access latency from the row-buffer counters."""
        t = self._config.timings
        if pd_exit_ns is None:
            pd_exit_ns = t.t_xp_ns
        accesses = delta.rbhc + delta.cbmc + delta.obmc
        if accesses <= 0:
            # No accesses profiled: fall back to a closed-bank access,
            # the common case under closed-page management.
            return t.t_rcd_ns + t.t_cl_ns
        t_hit = t.t_cl_ns * delta.rbhc
        t_cb = (t.t_rcd_ns + t.t_cl_ns) * delta.cbmc
        t_ob = (t.t_rp_ns + t.t_rcd_ns + t.t_cl_ns) * delta.obmc
        t_pd = pd_exit_ns * delta.epdc
        return (t_hit + t_cb + t_ob + t_pd) / accesses

    # -- queueing multipliers -------------------------------------------------

    @staticmethod
    def xi_bank(delta: CounterDelta) -> float:
        """Expected bank-server multiplicity seen by an arrival (>= 1)."""
        return 1.0 + delta.xi_bank

    @staticmethod
    def xi_bus(delta: CounterDelta) -> float:
        """Expected channel-server multiplicity seen by an arrival (>= 1)."""
        return 1.0 + delta.xi_bus

    # -- Eqs. 5, 9: memory time per miss ----------------------------------------

    def s_bank_ns(self, delta: CounterDelta, freq: FrequencyPoint,
                  pd_exit_ns: Optional[float] = None) -> float:
        """E[S_bank]: MC processing plus device time, no queueing (Eq. 5)."""
        return freq.mc_latency_ns + self.device_time_ns(delta, pd_exit_ns)

    def _tpi_mem(self, delta: CounterDelta, device_ns: float,
                 mc_latency_ns, burst_ns,
                 profiled_freq: Optional[FrequencyPoint]):
        """Eq. 9 for candidate constants given as floats or arrays.

        With queue scaling, the measured xi terms are adjusted by the
        ratio of candidate to profiled total service time (S_bank plus
        the burst).
        """
        s_bank = mc_latency_ns + device_ns
        scale = 1.0
        if self._scale_queues and profiled_freq is not None:
            s_prof = ((profiled_freq.mc_latency_ns + device_ns)
                      + profiled_freq.burst_ns)
            if s_prof > 0:
                scale = (s_bank + burst_ns) / s_prof
        xi_bank = 1.0 + delta.xi_bank * scale
        xi_bus = 1.0 + delta.xi_bus * scale
        return xi_bank * (s_bank + xi_bus * burst_ns)

    def tpi_mem_ns(self, delta: CounterDelta, freq: FrequencyPoint,
                   pd_exit_ns: Optional[float] = None,
                   profiled_freq: Optional[FrequencyPoint] = None) -> float:
        """E[TPI_mem] at ``freq`` (Eq. 9)."""
        return self._tpi_mem(delta, self.device_time_ns(delta, pd_exit_ns),
                             freq.mc_latency_ns, freq.burst_ns,
                             profiled_freq)

    # -- Section 6: per-channel down-steps ------------------------------------

    def channel_steps(self, delta: CounterDelta
                      ) -> Tuple[np.ndarray, List[Tuple[int, float]]]:
        """The per-channel down-step model of the Section 6 refinement.

        Returns each channel's utilization and the order channels drop
        in: stable ascending utilization, each channel paired with its
        step weight ``xi_bank * xi_bus * share``. Dropping a channel one
        ladder step adds ``weight * (burst_ns(lower) - burst_ns(point))``
        to E[TPI_mem]: only its ``share`` of the interval's accesses pays
        the longer burst, queued as Eq. 9 queues it. Drops accumulate.
        The order is empty when the interval saw no accesses.
        """
        n_channels = len(delta.channel_busy_ns)
        utils = np.array([delta.channel_utilization(c)
                          for c in range(n_channels)])
        accesses = delta.channel_reads + delta.channel_writes
        total = float(accesses.sum())
        if total <= 0:
            return utils, []
        xi_product = self.xi_bank(delta) * self.xi_bus(delta)
        return utils, [(int(ch), xi_product * (float(accesses[ch]) / total))
                       for ch in np.argsort(utils, kind="stable")]

    # -- Eq. 3: per-core CPI -------------------------------------------------------

    def cpi(self, delta: CounterDelta, tpi_mem_ns,
            tpi_cpu_ns: Optional[float] = None) -> np.ndarray:
        """Eq. 3: per-core CPI at an expected memory time per miss.

        ``tpi_mem_ns`` is E[TPI_mem], a float or one value per candidate
        (``cpi`` is then candidates x cores). ``tpi_cpu_ns`` is the
        compute time per instruction, :attr:`tpi_cpu_ns` unless a
        candidate re-clocks the cores; CPI stays in nominal cycles, so
        CPI ratios are wall-clock ratios. ``alpha`` is TLM/TIC per core
        (0 where a core committed nothing).
        """
        tic = np.asarray(delta.tic, dtype=np.float64)
        alpha = np.divide(delta.tlm, tic, out=np.zeros(len(tic)),
                          where=tic > 0)
        per_point = (tpi_mem_ns[:, None] if isinstance(tpi_mem_ns, np.ndarray)
                     else tpi_mem_ns)
        if tpi_cpu_ns is None:
            tpi_cpu_ns = self._tpi_cpu_ns
        return (tpi_cpu_ns + alpha * per_point) / self._cycle_ns

    def _predict(self, delta: CounterDelta, bus_mhz, mc_latency_ns,
                 burst_ns, pd_exit_ns: Optional[float],
                 profiled_freq: Optional[FrequencyPoint]) -> CpiPrediction:
        """Eq. 3 on top of Eq. 9, for one point or many (with per-point
        arrays, ``cpi`` is points x cores)."""
        device_ns = self.device_time_ns(delta, pd_exit_ns)
        tpi_mem = self._tpi_mem(delta, device_ns, mc_latency_ns, burst_ns,
                                profiled_freq)
        return CpiPrediction(
            freq_bus_mhz=bus_mhz, cpi=self.cpi(delta, tpi_mem),
            tpi_mem_ns=tpi_mem,
            device_time_ns=device_ns,
            xi_bank=self.xi_bank(delta), xi_bus=self.xi_bus(delta),
        )

    def predict(self, delta: CounterDelta, freq: FrequencyPoint,
                pd_exit_ns: Optional[float] = None,
                profiled_freq: Optional[FrequencyPoint] = None
                ) -> CpiPrediction:
        """Predicted per-core CPI if the profiled interval ran at ``freq``.

        ``profiled_freq`` is the frequency the counters were collected at;
        when given (and queue scaling is enabled) the xi terms are
        adjusted to the candidate frequency.
        """
        return self._predict(delta, freq.bus_mhz, freq.mc_latency_ns,
                             freq.burst_ns, pd_exit_ns, profiled_freq)

    def predict_ladder(self, delta: CounterDelta,
                       pd_exit_ns: Optional[float] = None,
                       profiled_freq: Optional[FrequencyPoint] = None
                       ) -> CpiPrediction:
        """:meth:`predict` at every :attr:`ladder` point in one pass.

        ``freq_bus_mhz`` and ``tpi_mem_ns`` become per-point arrays and
        ``cpi`` a (points x cores) matrix; row ``k`` equals
        ``predict(delta, ladder[k], ...)``.
        """
        return self._predict(delta, self._bus_mhz, self._mc_latency_ns,
                             self._burst_ns, pd_exit_ns, profiled_freq)

    # -- execution-time ratio ----------------------------------------------------

    @staticmethod
    def weighted_ratio(delta: CounterDelta, at_to: np.ndarray,
                       at_from: np.ndarray):
        """Instruction-weighted mean of the per-core ratios at_to / at_from,
        over the last axis (one value per row of a matrix): cores with
        more committed work dominate the epoch's wall-clock length."""
        weights = np.asarray(delta.tic, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            return np.ones(at_to.shape[:-1])
        ratios = np.divide(at_to, at_from,
                           out=np.ones_like(at_to), where=at_from > 0)
        return (ratios * weights).sum(axis=-1) / total

    def time_scale(self, delta: CounterDelta, from_freq: FrequencyPoint,
                   to_freq: FrequencyPoint,
                   pd_exit_ns: Optional[float] = None) -> float:
        """Predicted execution-time ratio T(to) / T(from) for the mix:
        the :meth:`weighted_ratio` of the per-core CPIs."""
        at_from = self.predict(delta, from_freq, pd_exit_ns,
                               profiled_freq=from_freq).cpi
        at_to = self.predict(delta, to_freq, pd_exit_ns,
                             profiled_freq=from_freq).cpi
        return float(self.weighted_ratio(delta, at_to, at_from))

    def time_scale_ladder(self, delta: CounterDelta,
                          from_freq: FrequencyPoint,
                          pd_exit_ns: Optional[float] = None) -> np.ndarray:
        """:meth:`time_scale` from ``from_freq`` to every ladder point."""
        at_from = self.predict(delta, from_freq, pd_exit_ns,
                               profiled_freq=from_freq).cpi
        at_to = self.predict_ladder(delta, pd_exit_ns,
                                    profiled_freq=from_freq).cpi
        return self.weighted_ratio(delta, at_to, at_from)
