"""Memory-subsystem power model (Micron-calculator style, Section 2.1).

Computes the power breakdown of Figure 2 from the performance-counter
activity of an interval:

* **background** — standby/powerdown currents of every DRAM chip, chosen
  by the per-rank state-time integrals (PTC/PTCKEL/ATCKEL counters), with
  the frequency-dependent portion derated linearly with bus frequency;
* **refresh** — IDD5 bursts, from the refresh command count;
* **activate/precharge** — per-activation energy (POCC count);
* **read/write** — IDD4 minus standby while the channel bursts;
* **termination** — ODT power in non-target ranks during bursts;
* **PLL/register** — per-DIMM, register power linear in utilization,
  PLL fixed; both scale linearly with channel frequency;
* **memory controller** — linear in utilization between idle and peak,
  scaled by V^2*f relative to the maximum operating point (MC DVFS).

The same model serves two roles: *measuring* the energy of a simulated
interval, and *predicting* power at a different candidate frequency for
the OS policy (Section 3.3), where small errors are later corrected by
the slack mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.core.frequency import (BURST_BUS_CYCLES, FrequencyLadder,
                                  FrequencyPoint)
from repro.memsim.counters import CounterDelta


_FIELDS = ("background_w", "refresh_w", "actpre_w", "rdwr_w",
           "termination_w", "pll_reg_w", "mc_w")


@dataclass(frozen=True)
class PowerBreakdown:
    """Average power (watts) of the memory subsystem over an interval.

    :meth:`PowerModel.predict_ladder` returns one breakdown whose fields
    are per-point arrays; the derived properties then work elementwise
    and :meth:`at` extracts one point.
    """

    background_w: float
    refresh_w: float
    actpre_w: float
    rdwr_w: float
    termination_w: float
    pll_reg_w: float
    mc_w: float

    @property
    def dram_w(self) -> float:
        """All power dissipated in the DRAM chips."""
        return (self.background_w + self.refresh_w + self.actpre_w
                + self.rdwr_w + self.termination_w)

    @property
    def dimm_w(self) -> float:
        """DRAM chips plus the DIMM's register and PLL devices."""
        return self.dram_w + self.pll_reg_w

    @property
    def memory_w(self) -> float:
        """The whole memory subsystem: DIMMs plus memory controller."""
        return self.dimm_w + self.mc_w

    def at(self, index: int) -> "PowerBreakdown":
        """Point ``index`` of a breakdown with per-point array fields."""
        return PowerBreakdown(*(float(getattr(self, f)[index])
                                for f in _FIELDS))


def _channel_sums(delta: CounterDelta) -> Tuple[float, float, float]:
    """(busy ns, reads, writes) summed over channels."""
    return (float(delta.channel_busy_ns.sum()),
            float(delta.channel_reads.sum()),
            float(delta.channel_writes.sum()))


def _clamp01(utilization):
    """``min(1.0, max(0.0, u))``, elementwise for arrays (NaN -> 0.0)."""
    if isinstance(utilization, np.ndarray):
        low = np.where(utilization > 0.0, utilization, 0.0)
        return np.where(low < 1.0, low, 1.0)
    return min(1.0, max(0.0, utilization))


class PowerModel:
    """Evaluates :class:`PowerBreakdown` for measured or predicted activity.

    :meth:`predict` and :meth:`predict_ladder` share one kernel that
    takes the candidate points' constants (burst time, standby derate,
    register/PLL clock ratio, MC V^2*f ratio) as arrays; the ladder's
    constants are computed once per model. The per-channel-DFS
    prediction reuses the kernel's standby-stretch and burst-power
    parts. Sums over ranks, channels and state columns keep the
    historical left-to-right order, so the numpy kernels reproduce the
    scalar arithmetic bit for bit.
    """

    def __init__(self, config: SystemConfig):
        config.validate()
        self._config = config
        self._ladder = FrequencyLadder(config)
        self._f_max = self._ladder.fastest
        cur = config.currents
        t = config.timings
        chips = config.org.chips_per_rank
        # Per-rank activate/precharge energy at nominal currents: the IDD0
        # envelope over one row cycle minus the standby floor underneath it.
        e_act_chip = cur.vdd * (
            cur.idd0 * t.t_rc_ns
            - (cur.idd3n * t.t_ras_ns + cur.idd2n * (t.t_rc_ns - t.t_ras_ns))
        ) * 1e-9  # ns -> s, yielding joules
        self._e_actpre_rank_j = max(0.0, e_act_chip) * chips
        # Per-rank refresh energy: IDD5 burst above precharge standby.
        self._e_refresh_rank_j = (cur.vdd * (cur.idd5 - cur.idd2n)
                                  * t.t_rfc_ns * 1e-9) * chips
        #: Current of each rank-state column, in counters._STATE_ORDER.
        self._idd_by_state = np.array([cur.idd3n, cur.idd2n, cur.idd3p,
                                       cur.idd2p, cur.idd6])
        self._ladder_constants = self._point_constants(self._ladder.points)

    @property
    def config(self) -> SystemConfig:
        return self._config

    @property
    def ladder(self) -> FrequencyLadder:
        return self._ladder

    # -- frequency derating -------------------------------------------------

    def _freq_derate(self, bus_mhz: float) -> float:
        """Linear derating of clocked standby currents with bus frequency."""
        cur = self._config.currents
        ratio = bus_mhz / self._f_max.bus_mhz
        return cur.static_fraction + (1.0 - cur.static_fraction) * ratio

    def _rank_derates(self, channel_bus_mhz: Sequence[float]) -> np.ndarray:
        """Standby derate of every rank, from its own channel's clock."""
        return np.repeat([self._freq_derate(mhz) for mhz in channel_bus_mhz],
                         self._config.org.ranks_per_channel)

    def _vf_ratio(self, freq: FrequencyPoint) -> float:
        """MC V^2 * f relative to the maximum operating point."""
        return ((freq.mc_voltage ** 2) * freq.mc_mhz
                / ((self._f_max.mc_voltage ** 2) * self._f_max.mc_mhz))

    def _point_constants(self, points: Sequence[FrequencyPoint]) -> tuple:
        """(burst ns, standby derate, register/PLL clock ratio, MC V^2*f
        ratio) per point, as arrays."""
        return (np.array([p.burst_ns for p in points]),
                np.array([self._freq_derate(p.bus_mhz) for p in points]),
                np.array([p.bus_mhz / self._f_max.bus_mhz for p in points]),
                np.array([self._vf_ratio(p) for p in points]))

    # -- component models -----------------------------------------------------

    def _background_w(self, delta: CounterDelta, derate) -> float:
        """Standby/powerdown power summed over ranks.

        ``derate`` is one factor for every rank or one per rank. Each
        term is ``frac * idd * vdd * chips * derate`` (self-refresh
        keeps only IDD6; its clock is stopped, so no derate); a rank's
        five terms add left to right, then the rank totals do.
        """
        interval = delta.interval_ns
        if interval <= 0:
            return 0.0
        terms = delta.rank_state_ns / interval
        terms *= self._idd_by_state
        terms *= self._config.currents.vdd
        terms *= self._config.org.chips_per_rank
        terms[:, :4] *= derate
        total = 0.0
        for rank_w in terms.cumsum(axis=1)[:, -1].tolist():
            total += rank_w
        return total

    def _stretched_background_w(self, delta: CounterDelta,
                                interval: np.ndarray, derate) -> np.ndarray:
        """Predicted background power at each point's ``interval`` (ns,
        positive): absolute active and powerdown time is held while
        precharge standby absorbs the change in interval length.

        ``derate`` scales the clocked states' terms ``terms[rank, state,
        point]``: one factor per point, or shape ``(ranks, 1, 1)`` for
        one per rank. The rank-major, state-minor sequence of terms adds
        left to right from 0.0 (one cumsum per point).
        """
        cur = self._config.currents
        chips = self._config.org.chips_per_rank
        states = np.asarray(delta.rank_state_ns, dtype=np.float64)
        act_stby, _, act_pd, pre_pd, self_ref = states.T
        pre_stby_new = interval - (act_stby + act_pd + pre_pd + self_ref)[:, None]
        frac = states[:, :, None] / interval
        frac[:, 1] = np.where(pre_stby_new > 0.0, pre_stby_new, 0.0) / interval
        terms = frac * self._idd_by_state[:, None] * cur.vdd * chips
        terms[:, :4] *= derate
        n_points = len(interval)
        return np.cumsum(
            np.concatenate((np.zeros((1, n_points)),
                            terms.reshape(-1, n_points))), axis=0)[-1]

    def background_power_w(self, delta: CounterDelta, bus_mhz: float) -> float:
        """Standby/powerdown background power across all ranks."""
        return self._background_w(delta, self._freq_derate(bus_mhz))

    def refresh_power_w(self, delta: CounterDelta) -> float:
        if delta.interval_ns <= 0:
            return 0.0
        count = float(delta.refreshes.sum())
        return count * self._e_refresh_rank_j / (delta.interval_ns * 1e-9)

    def actpre_power_w(self, delta: CounterDelta) -> float:
        if delta.interval_ns <= 0:
            return 0.0
        return delta.pocc * self._e_actpre_rank_j / (delta.interval_ns * 1e-9)

    def _burst_powers(self, reads: float, writes: float) -> tuple:
        """(IDD4 burst power above standby, ODT termination power) while
        the channel bursts, weighted by the read share of ``reads +
        writes`` (which must be positive)."""
        cur = self._config.currents
        chips = self._config.org.chips_per_rank
        read_share = reads / (reads + writes)
        p_read = (cur.idd4r - cur.idd3n) * cur.vdd * chips
        p_write = (cur.idd4w - cur.idd3n) * cur.vdd * chips
        p_burst = read_share * p_read + (1.0 - read_share) * p_write
        p_term = (read_share * cur.termination_w_read
                  + (1.0 - read_share) * cur.termination_w_write)
        return p_burst, p_term

    def _rdwr_term_w(self, delta: CounterDelta, total_busy: float,
                     reads: float, writes: float) -> tuple:
        """Measured (read/write, termination) power from channel sums."""
        if delta.interval_ns <= 0:
            return 0.0, 0.0
        ops = reads + writes
        if ops <= 0 or total_busy <= 0:
            return 0.0, 0.0
        p_burst, p_term = self._burst_powers(reads, writes)
        busy_frac = total_busy / delta.interval_ns
        term_w = (p_term * busy_frac
                  if self._config.org.ranks_per_channel - 1 > 0 else 0.0)
        return p_burst * busy_frac, term_w

    def rdwr_power_w(self, delta: CounterDelta) -> float:
        """IDD4 burst power above standby, weighted by channel busy time."""
        return self._rdwr_term_w(delta, *_channel_sums(delta))[0]

    def termination_power_w(self, delta: CounterDelta) -> float:
        """ODT power in the channel's other ranks while a burst is driven."""
        return self._rdwr_term_w(delta, *_channel_sums(delta))[1]

    def _pll_reg_w(self, load, ratio):
        """Register + PLL power of every DIMM at clamped utilization
        ``load`` and clock ``ratio`` of the maximum (floats or arrays)."""
        p = self._config.power
        reg = (p.register_idle_w_per_dimm
               + (p.register_peak_w_per_dimm - p.register_idle_w_per_dimm)
               * load)
        pll = p.pll_w_per_dimm
        return (reg + pll) * ratio * self._config.org.total_dimms

    def pll_reg_power_w(self, utilization: float, bus_mhz: float) -> float:
        """Register + PLL power for every DIMM, linear in channel frequency."""
        return self._pll_reg_w(_clamp01(utilization),
                               bus_mhz / self._f_max.bus_mhz)

    def _mc_w(self, load, vf_ratio):
        """MC power at clamped utilization ``load`` and V^2*f ratio
        ``vf_ratio`` (floats or arrays)."""
        p = self._config.power
        return (p.mc_idle_w + (p.mc_peak_w - p.mc_idle_w) * load) * vf_ratio

    def mc_power_w(self, utilization: float, freq: FrequencyPoint) -> float:
        """MC power: utilization-linear, then scaled by V^2 * f (DVFS)."""
        return self._mc_w(_clamp01(utilization), self._vf_ratio(freq))

    # -- top-level entry points --------------------------------------------------

    def measure(self, delta: CounterDelta, freq: FrequencyPoint,
                device_bus_mhz: Optional[float] = None,
                channel_bus_mhz: Optional[Sequence[float]] = None
                ) -> PowerBreakdown:
        """Power breakdown of a simulated interval.

        ``device_bus_mhz`` decouples the DRAM-device clock from the channel
        clock (Decoupled-DIMM baseline); by default they are equal.
        ``channel_bus_mhz`` gives per-channel frequencies (per-channel DFS
        extension): each channel's DIMM background and register/PLL power
        is then derated by its own clock.
        """
        org = self._config.org
        if channel_bus_mhz is not None and len(channel_bus_mhz) != org.channels:
            raise ValueError("channel_bus_mhz must cover every channel")
        interval = delta.interval_ns
        total_busy, reads, writes = _channel_sums(delta)
        n_channels = delta.channel_busy_ns.size
        # mean channel utilization (ndarray.mean() is this sum / count)
        load = _clamp01(0.0 if interval <= 0 or n_channels == 0
                        else total_busy / n_channels / interval)
        refresh_w = self.refresh_power_w(delta)
        actpre_w = self.actpre_power_w(delta)
        rdwr_w, term_w = self._rdwr_term_w(delta, total_busy, reads, writes)
        if channel_bus_mhz is not None:
            derate = self._rank_derates(channel_bus_mhz)
            # pll_reg_power_w covers all DIMMs; dividing by the channel
            # count yields one channel's share (DIMMs/channel is uniform).
            pll_reg = sum(
                self.pll_reg_power_w(delta.channel_utilization(ch), mhz)
                / org.channels
                for ch, mhz in enumerate(channel_bus_mhz)
            )
            return PowerBreakdown(
                background_w=self._background_w(delta, derate[:, None]),
                refresh_w=refresh_w, actpre_w=actpre_w, rdwr_w=rdwr_w,
                termination_w=term_w, pll_reg_w=pll_reg,
                mc_w=self._mc_w(load, self._vf_ratio(freq)),
            )
        dev_mhz = device_bus_mhz if device_bus_mhz is not None else freq.bus_mhz
        return PowerBreakdown(
            background_w=self.background_power_w(delta, dev_mhz),
            refresh_w=refresh_w, actpre_w=actpre_w, rdwr_w=rdwr_w,
            termination_w=term_w,
            pll_reg_w=self._pll_reg_w(load, freq.bus_mhz / self._f_max.bus_mhz),
            mc_w=self._mc_w(load, self._vf_ratio(freq)),
        )

    def predict(self, delta: CounterDelta, candidate: FrequencyPoint,
                time_scale: float,
                channel_bus_mhz: Optional[Sequence[float]] = None
                ) -> PowerBreakdown:
        """Predict the breakdown if the profiled interval ran at ``candidate``.

        ``time_scale`` is the performance model's predicted execution-time
        ratio T(candidate) / T(profiled). Event *counts* (activations,
        accesses, refreshes-per-second) are held fixed; busy time is
        recomputed from the candidate burst length; state-time fractions
        keep their absolute active time (device operations have fixed
        wall-clock duration) while standby absorbs the change in interval
        length.

        ``channel_bus_mhz`` predicts a per-channel-DFS configuration (cap
        allocator's joint search): each channel's burst time, DIMM
        background derate and register/PLL power follow its own clock,
        while the MC stays at ``candidate``. With the default ``None``
        the computation is exactly the historical global-frequency path.
        """
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        if delta.interval_ns <= 0:
            return self.measure(delta, candidate,
                                channel_bus_mhz=channel_bus_mhz)
        if channel_bus_mhz is not None:
            return self._predict_per_channel(delta, candidate,
                                             delta.interval_ns * time_scale,
                                             channel_bus_mhz)
        return self._predict_points(
            delta, np.array([time_scale]),
            self._point_constants((candidate,))).at(0)

    def predict_ladder(self, delta: CounterDelta,
                       time_scale: np.ndarray) -> PowerBreakdown:
        """:meth:`predict` at every :attr:`ladder` point in one pass.

        ``time_scale[k]`` is point ``k``'s execution-time ratio; the
        breakdown's fields are per-point arrays. Unlike :meth:`predict`
        a non-positive ratio is not rejected here: its entries are
        meaningless and left for the caller to ignore.
        """
        if delta.interval_ns <= 0:
            points = [self.measure(delta, p) for p in self._ladder]
            return PowerBreakdown(*(np.array([getattr(b, f) for b in points])
                                    for f in _FIELDS))
        return self._predict_points(delta, time_scale,
                                    self._ladder_constants)

    def _predict_points(self, delta: CounterDelta, time_scale: np.ndarray,
                        constants: tuple) -> PowerBreakdown:
        """Global-frequency prediction kernel behind :meth:`predict` and
        :meth:`predict_ladder`: one entry per point, ``interval_ns > 0``."""
        burst_ns, derate, pll_ratio, vf_ratio = constants
        interval = delta.interval_ns * time_scale
        reads = float(delta.channel_reads.sum())
        writes = float(delta.channel_writes.sum())
        busy_ns = (reads + writes) * burst_ns
        busy_frac = busy_ns / interval
        load = _clamp01(busy_ns / (interval
                                   * max(1, len(delta.channel_busy_ns))))
        background = self._stretched_background_w(delta, interval, derate)
        n_points = len(interval)

        interval_s = interval * 1e-9
        refresh_w = (float(delta.refreshes.sum()) * time_scale
                     * self._e_refresh_rank_j / interval_s)
        actpre_w = delta.pocc * self._e_actpre_rank_j / interval_s

        if reads + writes > 0:
            p_burst, p_term = self._burst_powers(reads, writes)
            rdwr_w = p_burst * busy_frac
            if self._config.org.ranks_per_channel - 1 > 0:
                term_w = p_term * busy_frac
            else:
                term_w = np.zeros(n_points)
        else:
            rdwr_w = term_w = np.zeros(n_points)

        return PowerBreakdown(
            background_w=background,
            refresh_w=refresh_w,
            actpre_w=actpre_w,
            rdwr_w=rdwr_w,
            termination_w=term_w,
            pll_reg_w=self._pll_reg_w(load, pll_ratio),
            mc_w=self._mc_w(load, vf_ratio),
        )

    def _predict_per_channel(self, delta: CounterDelta,
                             candidate: FrequencyPoint, interval: float,
                             channel_bus_mhz: Sequence[float]
                             ) -> PowerBreakdown:
        """Per-channel-DFS prediction backing :meth:`predict`.

        Shares the global path's stretch-the-standby and burst-power
        kernels, but each channel's burst time and clock-derated
        components follow its own frequency. The MC remains at the
        global ``candidate``.
        """
        org = self._config.org
        if len(channel_bus_mhz) != org.channels:
            raise ValueError("channel_bus_mhz must cover every channel")

        # Busy time per channel from its own burst length.
        busy_by_channel = []
        for ch, mhz in enumerate(channel_bus_mhz):
            accesses = float(delta.channel_reads[ch]
                             + delta.channel_writes[ch])
            burst_ns = BURST_BUS_CYCLES * 1000.0 / mhz
            busy_by_channel.append(accesses * burst_ns)
        busy_ns = sum(busy_by_channel)
        util = busy_ns / (interval * max(1, org.channels))

        # Background: each rank's standby derates with its channel's clock.
        background = self._stretched_background_w(
            delta, np.array([interval]),
            self._rank_derates(channel_bus_mhz)[:, None, None])

        time_scale = interval / delta.interval_ns
        refresh_w = (float(delta.refreshes.sum()) * time_scale
                     * self._e_refresh_rank_j / (interval * 1e-9))
        actpre_w = delta.pocc * self._e_actpre_rank_j / (interval * 1e-9)

        reads = float(delta.channel_reads.sum())
        writes = float(delta.channel_writes.sum())
        rdwr_w = term_w = 0.0
        if reads + writes > 0 and busy_ns > 0:
            p_burst, p_term = self._burst_powers(reads, writes)
            rdwr_w = p_burst * (busy_ns / interval)
            if org.ranks_per_channel > 1:
                term_w = p_term * (busy_ns / interval)

        # pll_reg_power_w covers all DIMMs; one channel's share is 1/channels.
        pll_reg = sum(
            self.pll_reg_power_w(busy_by_channel[ch] / interval, mhz)
            / org.channels
            for ch, mhz in enumerate(channel_bus_mhz)
        )
        return PowerBreakdown(
            background_w=float(background[0]),
            refresh_w=refresh_w,
            actpre_w=actpre_w,
            rdwr_w=rdwr_w,
            termination_w=term_w,
            pll_reg_w=pll_reg,
            mc_w=self.mc_power_w(util, candidate),
        )
