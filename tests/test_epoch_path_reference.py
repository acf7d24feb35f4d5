"""The batched epoch path reproduces the per-candidate reference exactly.

``MemScalePolicy.select_frequency`` evaluates the whole frequency ladder
in one batched pass (a points x cores CPI matrix, per-point time scales,
powers and energy ratios, one slack-feasibility mask),
``PowerModel.measure`` / ``predict`` use numpy kernels in place of
per-rank loops, ``update_slack`` takes its reference CPI from the same
CPI kernel, and ``CapAllocator`` prices its global ladder with them. :class:`Reference`
below is the earlier scalar implementation, one candidate, rank and core
at a time. The properties require exact equality (``==``, never approx)
over randomized counter deltas: zero TIC/TLM cores, zero accesses, a
zero-length interval, powerdown exits, self-refresh residency, per-core
bounds, both objectives and positive to deep-negative slack.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cap import CapAllocator
from repro.config import SystemConfig, scaled_config
from repro.core.energy_model import EnergyModel
from repro.core.frequency import (BURST_BUS_CYCLES, FrequencyLadder,
                                  FrequencyPoint)
from repro.core.perf_model import PerformanceModel
from repro.core.policy import MemScalePolicy, PolicyObjective
from repro.core.power_model import PowerBreakdown, PowerModel
from repro.memsim.counters import CounterDelta

CFG = scaled_config()
#: One rank per channel: no termination power in the other ranks.
CFG_ONE_RANK = CFG.with_org(dimms_per_channel=1, ranks_per_dimm=1)
LADDER = FrequencyLadder(CFG)
PERF, POWER = PerformanceModel(CFG), PowerModel(CFG)
ALLOC = CapAllocator(CFG, EnergyModel(CFG, 40.0, PERF, POWER), n_cores=4)


class Decision(NamedTuple):
    chosen: FrequencyPoint
    feasible: List[float]
    ser: float
    predicted_cpi: np.ndarray
    limited_by_slack: bool


class Reference:
    """The scalar epoch path: per-candidate, per-rank and per-core loops."""

    def __init__(self, config: SystemConfig, rest_power_w: float = 0.0):
        self.cfg = config
        self.rest_power_w = rest_power_w
        self.ladder = FrequencyLadder(config)
        self.f_max = self.ladder.fastest
        cur, t = config.currents, config.timings
        chips = config.org.chips_per_rank
        e_act_chip = cur.vdd * (
            cur.idd0 * t.t_rc_ns
            - (cur.idd3n * t.t_ras_ns + cur.idd2n * (t.t_rc_ns - t.t_ras_ns))
        ) * 1e-9
        self.e_actpre = max(0.0, e_act_chip) * chips
        self.e_refresh = (cur.vdd * (cur.idd5 - cur.idd2n)
                          * t.t_rfc_ns * 1e-9) * chips

    # -- performance model (Eqs. 2-9) -------------------------------------

    def device_time_ns(self, delta, pd_exit_ns):
        t = self.cfg.timings
        if pd_exit_ns is None:
            pd_exit_ns = t.t_xp_ns
        accesses = delta.rbhc + delta.cbmc + delta.obmc
        if accesses <= 0:
            return t.t_rcd_ns + t.t_cl_ns
        t_hit = t.t_cl_ns * delta.rbhc
        t_cb = (t.t_rcd_ns + t.t_cl_ns) * delta.cbmc
        t_ob = (t.t_rp_ns + t.t_rcd_ns + t.t_cl_ns) * delta.obmc
        t_pd = pd_exit_ns * delta.epdc
        return (t_hit + t_cb + t_ob + t_pd) / accesses

    def tpi_mem_ns(self, delta, freq, pd_exit_ns, profiled_freq):
        s_bank = freq.mc_latency_ns + self.device_time_ns(delta, pd_exit_ns)
        scale = 1.0
        if profiled_freq is not None:
            s_prof = ((profiled_freq.mc_latency_ns
                       + self.device_time_ns(delta, pd_exit_ns))
                      + profiled_freq.burst_ns)
            s_cand = ((freq.mc_latency_ns
                       + self.device_time_ns(delta, pd_exit_ns))
                      + freq.burst_ns)
            scale = s_cand / s_prof if s_prof > 0 else 1.0
        xi_bank = 1.0 + delta.xi_bank * scale
        xi_bus = 1.0 + delta.xi_bus * scale
        return xi_bank * (s_bank + xi_bus * freq.burst_ns)

    def cpi(self, delta, freq, pd_exit_ns=None, profiled_freq=None):
        tpi_mem = self.tpi_mem_ns(delta, freq, pd_exit_ns, profiled_freq)
        cycle = self.cfg.cpu.cycle_ns
        tpi_cpu = self.cfg.cpu.cpi_cpu * cycle
        cpi = np.empty(len(delta.tic), dtype=np.float64)
        for core in range(len(delta.tic)):
            tic = float(delta.tic[core])
            alpha = float(delta.tlm[core]) / tic if tic > 0 else 0.0
            cpi[core] = (tpi_cpu + alpha * tpi_mem) / cycle
        return cpi

    def time_scale(self, delta, from_freq, to_freq):
        at_from = self.cpi(delta, from_freq, None, from_freq)
        at_to = self.cpi(delta, to_freq, None, from_freq)
        weights = np.asarray(delta.tic, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            return 1.0
        ratios = np.divide(at_to, at_from,
                           out=np.ones_like(at_to), where=at_from > 0)
        return float((ratios * weights).sum() / total)

    # -- power model ------------------------------------------------------------

    def derate(self, bus_mhz):
        cur = self.cfg.currents
        ratio = bus_mhz / self.f_max.bus_mhz
        return cur.static_fraction + (1.0 - cur.static_fraction) * ratio

    def rank_background_w(self, delta, rank, bus_mhz):
        interval = delta.interval_ns
        if interval <= 0:
            return 0.0
        cur = self.cfg.currents
        vdd, chips = cur.vdd, self.cfg.org.chips_per_rank
        derate = self.derate(bus_mhz)
        act_stby, pre_stby, act_pd, pre_pd, self_ref = \
            delta.rank_state_ns[rank].tolist()
        total = (act_stby / interval) * cur.idd3n * vdd * chips * derate
        total += (pre_stby / interval) * cur.idd2n * vdd * chips * derate
        total += (act_pd / interval) * cur.idd3p * vdd * chips * derate
        total += (pre_pd / interval) * cur.idd2p * vdd * chips * derate
        total += (self_ref / interval) * cur.idd6 * vdd * chips
        return total

    def rdwr_term_w(self, delta):
        cur = self.cfg.currents
        chips = self.cfg.org.chips_per_rank
        if delta.interval_ns <= 0:
            return 0.0, 0.0
        total_busy = float(delta.channel_busy_ns.sum())
        reads = float(delta.channel_reads.sum())
        writes = float(delta.channel_writes.sum())
        ops = reads + writes
        if ops <= 0 or total_busy <= 0:
            return 0.0, 0.0
        read_share = reads / ops
        p_read = (cur.idd4r - cur.idd3n) * cur.vdd * chips
        p_write = (cur.idd4w - cur.idd3n) * cur.vdd * chips
        p_burst = read_share * p_read + (1.0 - read_share) * p_write
        rdwr = p_burst * (total_busy / delta.interval_ns)
        if self.cfg.org.ranks_per_channel - 1 <= 0:
            return rdwr, 0.0
        p_term = (read_share * cur.termination_w_read
                  + (1.0 - read_share) * cur.termination_w_write)
        return rdwr, p_term * (total_busy / delta.interval_ns)

    def pll_reg_w(self, utilization, bus_mhz):
        p = self.cfg.power
        ratio = bus_mhz / self.f_max.bus_mhz
        reg = (p.register_idle_w_per_dimm
               + (p.register_peak_w_per_dimm - p.register_idle_w_per_dimm)
               * min(1.0, max(0.0, utilization)))
        return (reg + p.pll_w_per_dimm) * ratio * self.cfg.org.total_dimms

    def mc_w(self, utilization, freq):
        p = self.cfg.power
        base = (p.mc_idle_w + (p.mc_peak_w - p.mc_idle_w)
                * min(1.0, max(0.0, utilization)))
        vf_ratio = ((freq.mc_voltage ** 2) * freq.mc_mhz
                    / ((self.f_max.mc_voltage ** 2) * self.f_max.mc_mhz))
        return base * vf_ratio

    def measure(self, delta, freq, device_bus_mhz=None,
                channel_bus_mhz=None):
        org = self.cfg.org
        interval = delta.interval_ns
        util = (0.0 if interval <= 0 or delta.channel_busy_ns.size == 0
                else float(delta.channel_busy_ns.mean()) / interval)
        refresh = (0.0 if interval <= 0 else float(delta.refreshes.sum())
                   * self.e_refresh / (interval * 1e-9))
        actpre = (0.0 if interval <= 0
                  else delta.pocc * self.e_actpre / (interval * 1e-9))
        rdwr, term = self.rdwr_term_w(delta)
        # Sums run left to right from 0.0, as builtin sum() did through
        # Python 3.11.
        background = 0.0
        pll_reg = 0.0
        if channel_bus_mhz is not None:
            for rank in range(org.total_ranks):
                background += self.rank_background_w(
                    delta, rank,
                    channel_bus_mhz[rank // org.ranks_per_channel])
            for ch, mhz in enumerate(channel_bus_mhz):
                ch_util = (0.0 if interval <= 0 else
                           float(delta.channel_busy_ns[ch]) / interval)
                pll_reg += self.pll_reg_w(ch_util, mhz) / org.channels
        else:
            dev = device_bus_mhz if device_bus_mhz is not None \
                else freq.bus_mhz
            if interval > 0:
                for rank in range(delta.rank_state_ns.shape[0]):
                    background += self.rank_background_w(delta, rank, dev)
            pll_reg = self.pll_reg_w(util, freq.bus_mhz)
        return PowerBreakdown(background, refresh, actpre, rdwr, term,
                              pll_reg, self.mc_w(util, freq))

    def predict(self, delta, candidate, time_scale, channel_bus_mhz=None):
        if delta.interval_ns <= 0:
            return self.measure(delta, candidate,
                                channel_bus_mhz=channel_bus_mhz)
        interval = delta.interval_ns * time_scale
        if channel_bus_mhz is not None:
            return self.predict_per_channel(delta, candidate, interval,
                                            channel_bus_mhz)
        accesses = float(delta.channel_reads.sum()
                         + delta.channel_writes.sum())
        busy_ns = accesses * candidate.burst_ns
        util = busy_ns / (interval * max(1, len(delta.channel_busy_ns)))
        cur = self.cfg.currents
        vdd, chips = cur.vdd, self.cfg.org.chips_per_rank
        derate = self.derate(candidate.bus_mhz)
        total_bg = 0.0
        for row in delta.rank_state_ns.tolist():
            act_stby, pre_stby, act_pd, pre_pd, self_ref = row
            fixed = act_stby + act_pd + pre_pd + self_ref
            pre_stby_new = max(0.0, interval - fixed)
            total_bg += (act_stby / interval) * cur.idd3n * vdd * chips * derate
            total_bg += (pre_stby_new / interval) * cur.idd2n * vdd * chips * derate
            total_bg += (act_pd / interval) * cur.idd3p * vdd * chips * derate
            total_bg += (pre_pd / interval) * cur.idd2p * vdd * chips * derate
            total_bg += (self_ref / interval) * cur.idd6 * vdd * chips
        refresh_w = (float(delta.refreshes.sum()) * time_scale
                     * self.e_refresh / (interval * 1e-9))
        actpre_w = delta.pocc * self.e_actpre / (interval * 1e-9)
        reads = float(delta.channel_reads.sum())
        writes = float(delta.channel_writes.sum())
        ops = reads + writes
        rdwr_w = term_w = 0.0
        if ops > 0:
            read_share = reads / ops
            p_read = (cur.idd4r - cur.idd3n) * cur.vdd * chips
            p_write = (cur.idd4w - cur.idd3n) * cur.vdd * chips
            p_burst = read_share * p_read + (1.0 - read_share) * p_write
            rdwr_w = p_burst * (busy_ns / interval)
            p_term = (read_share * cur.termination_w_read
                      + (1.0 - read_share) * cur.termination_w_write)
            if self.cfg.org.ranks_per_channel - 1 > 0:
                term_w = p_term * (busy_ns / interval)
        return PowerBreakdown(total_bg, refresh_w, actpre_w, rdwr_w, term_w,
                              self.pll_reg_w(util, candidate.bus_mhz),
                              self.mc_w(util, candidate))

    def predict_per_channel(self, delta, candidate, interval,
                            channel_bus_mhz):
        org, cur = self.cfg.org, self.cfg.currents
        vdd, chips = cur.vdd, org.chips_per_rank
        busy_by_channel = []
        for ch, mhz in enumerate(channel_bus_mhz):
            accesses = float(delta.channel_reads[ch]
                             + delta.channel_writes[ch])
            burst_ns = BURST_BUS_CYCLES * 1000.0 / mhz
            busy_by_channel.append(accesses * burst_ns)
        busy_ns = sum(busy_by_channel)
        util = busy_ns / (interval * max(1, org.channels))
        total_bg = 0.0
        for rank, row in enumerate(delta.rank_state_ns.tolist()):
            derate = self.derate(
                channel_bus_mhz[rank // org.ranks_per_channel])
            act_stby, pre_stby, act_pd, pre_pd, self_ref = row
            fixed = act_stby + act_pd + pre_pd + self_ref
            pre_stby_new = max(0.0, interval - fixed)
            total_bg += (act_stby / interval) * cur.idd3n * vdd * chips * derate
            total_bg += (pre_stby_new / interval) * cur.idd2n * vdd * chips * derate
            total_bg += (act_pd / interval) * cur.idd3p * vdd * chips * derate
            total_bg += (pre_pd / interval) * cur.idd2p * vdd * chips * derate
            total_bg += (self_ref / interval) * cur.idd6 * vdd * chips
        time_scale = interval / delta.interval_ns
        refresh_w = (float(delta.refreshes.sum()) * time_scale
                     * self.e_refresh / (interval * 1e-9))
        actpre_w = delta.pocc * self.e_actpre / (interval * 1e-9)
        reads = float(delta.channel_reads.sum())
        writes = float(delta.channel_writes.sum())
        ops = reads + writes
        rdwr_w = term_w = 0.0
        if ops > 0 and busy_ns > 0:
            read_share = reads / ops
            p_read = (cur.idd4r - cur.idd3n) * vdd * chips
            p_write = (cur.idd4w - cur.idd3n) * vdd * chips
            p_burst = read_share * p_read + (1.0 - read_share) * p_write
            rdwr_w = p_burst * (busy_ns / interval)
            p_term = (read_share * cur.termination_w_read
                      + (1.0 - read_share) * cur.termination_w_write)
            if org.ranks_per_channel > 1:
                term_w = p_term * (busy_ns / interval)
        pll_reg = sum(self.pll_reg_w(busy_by_channel[ch] / interval, mhz)
                      / org.channels
                      for ch, mhz in enumerate(channel_bus_mhz))
        return PowerBreakdown(total_bg, refresh_w, actpre_w, rdwr_w, term_w,
                              pll_reg, self.mc_w(util, candidate))

    # -- energy model (Eq. 10) and policy ----------------------------------

    def estimate(self, delta, profiled_freq, candidate, base):
        scale_cand = self.time_scale(delta, profiled_freq, candidate)
        scale_base = self.time_scale(delta, profiled_freq, base)
        p_base = self.predict(delta, base, scale_base)
        p_cand = self.predict(delta, candidate, scale_cand)
        sys_cand = p_cand.memory_w + self.rest_power_w
        sys_base = p_base.memory_w + self.rest_power_w
        denom = scale_base * sys_base
        ser = (scale_cand * sys_cand) / denom if denom > 0 else float("inf")
        mem_denom = scale_base * p_base.memory_w
        mem_ratio = ((scale_cand * p_cand.memory_w) / mem_denom
                     if mem_denom > 0 else float("inf"))
        return ser, mem_ratio

    @staticmethod
    def is_feasible(cpi_f, cpi_max, remaining_ns, transition_ns, slack,
                    gammas):
        for core in range(len(cpi_f)):
            if cpi_max[core] <= 0:
                continue
            ratio = cpi_max[core] / cpi_f[core] if cpi_f[core] > 0 else 1.0
            ratio = min(ratio, 1.0)
            projected = (slack[core]
                         + remaining_ns * ((1.0 + gammas[core]) * ratio - 1.0)
                         - transition_ns)
            if projected < 0:
                return False
        return True

    def select(self, delta, current_freq, remaining_ns, slack, gammas,
               objective, pd_exit_ns):
        base = self.ladder.fastest
        cpi_max = self.cpi(delta, base, 0.0, current_freq)
        best, best_score, best_cpi = None, float("inf"), None
        feasible, rejected = [], False
        for candidate in self.ladder:
            cpi_f = self.cpi(delta, candidate, pd_exit_ns, current_freq)
            transition_ns = (
                self.cfg.policy.transition_penalty_ns(current_freq.bus_mhz)
                if candidate.bus_mhz != current_freq.bus_mhz else 0.0)
            if not self.is_feasible(cpi_f, cpi_max, remaining_ns,
                                    transition_ns, slack, gammas):
                rejected = True
                continue
            feasible.append(candidate.bus_mhz)
            ser, mem_ratio = self.estimate(delta, current_freq, candidate,
                                           base)
            score = (ser if objective is PolicyObjective.SYSTEM_ENERGY
                     else mem_ratio)
            if score < best_score:
                best, best_score, best_cpi = candidate, score, cpi_f
        if best is None:
            best, best_score, best_cpi = base, 1.0, cpi_max
        return Decision(best, feasible, best_score, best_cpi, rejected)

    def update_slack(self, delta, epoch_wall_ns, freq_used, slack, gammas):
        cpi_max = self.cpi(delta, self.ladder.fastest, 0.0, freq_used)
        cycle = self.cfg.cpu.cycle_ns
        for core in range(len(slack)):
            instructions = float(delta.tic[core])
            if instructions <= 0:
                continue
            t_maxfreq = min(instructions * cpi_max[core] * cycle,
                            epoch_wall_ns)
            slack[core] += t_maxfreq * (1.0 + gammas[core]) - epoch_wall_ns


# -- strategies -----------------------------------------------------------------

def _values(high: float) -> st.SearchStrategy:
    """Non-negative counter values, zero with a fair probability."""
    return st.one_of(st.just(0.0),
                     st.floats(min_value=1e-3, max_value=high,
                               allow_nan=False, allow_infinity=False))


@st.composite
def deltas(draw, config: SystemConfig = CFG,
           n_cores: Optional[int] = None) -> CounterDelta:
    org = config.org
    if n_cores is None:
        n_cores = draw(st.integers(min_value=1, max_value=20))
    interval = draw(st.one_of(st.just(0.0),
                              st.floats(min_value=1.0, max_value=5e6)))

    def vector(n, high):
        return np.array(draw(st.lists(_values(high), min_size=n,
                                      max_size=n)), dtype=np.float64)

    states = vector(org.total_ranks * 5, 2.0 * max(interval, 1.0))
    return CounterDelta(
        interval_ns=interval,
        tic=vector(n_cores, 1e7), tlm=vector(n_cores, 1e5),
        bto=draw(_values(1e6)), btc=draw(_values(1e5)),
        cto=draw(_values(1e6)), ctc=draw(_values(1e5)),
        rbhc=draw(_values(1e5)), obmc=draw(_values(1e5)),
        cbmc=draw(_values(1e5)), epdc=draw(_values(1e5)),
        pocc=draw(_values(1e5)),
        reads=draw(_values(1e5)), writes=draw(_values(1e5)),
        rank_state_ns=states.reshape(org.total_ranks, 5),
        refreshes=vector(org.total_ranks, 1e3),
        channel_busy_ns=vector(org.channels, max(interval, 1.0)),
        channel_reads=vector(org.channels, 1e5),
        channel_writes=vector(org.channels, 1e5),
    )


slack_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e6),       # positive
    st.floats(min_value=-1e6, max_value=0.0),      # negative
    st.just(-1e12),                                # deep negative
)
ladder_points = st.sampled_from(list(LADDER))
pd_exits = st.sampled_from([None, CFG.timings.t_xp_ns])


def assert_same_breakdown(new: PowerBreakdown, ref: PowerBreakdown) -> None:
    assert [float(v) for v in vars(new).values()] == list(vars(ref).values())


# -- properties --------------------------------------------------------------------

@given(data=st.data(),
       objective=st.sampled_from(list(PolicyObjective)),
       pd_exit_ns=pd_exits,
       rest_power_w=st.floats(min_value=0.0, max_value=200.0),
       current=ladder_points,
       remaining_ns=st.floats(min_value=1.0, max_value=5e6),
       per_core=st.booleans())
@settings(max_examples=150, deadline=None)
def test_select_frequency_matches_per_candidate_loop(
        data, objective, pd_exit_ns, rest_power_w, current, remaining_ns,
        per_core):
    delta = data.draw(deltas())
    n_cores = len(delta.tic)
    bounds = (data.draw(st.lists(st.floats(min_value=0.0, max_value=0.5),
                                 min_size=n_cores, max_size=n_cores))
              if per_core else None)
    slack = data.draw(st.lists(slack_values, min_size=n_cores,
                               max_size=n_cores))
    energy = EnergyModel(CFG, rest_power_w, PERF, POWER)
    policy = MemScalePolicy(CFG, energy, n_cores, objective=objective,
                            pd_exit_ns=pd_exit_ns, per_core_bounds=bounds)
    policy.slack_ns[:] = slack

    new = policy.select_frequency(delta, current, remaining_ns)
    ref = Reference(CFG, rest_power_w).select(
        delta, current, remaining_ns, np.array(slack, dtype=np.float64),
        policy.gamma_per_core, objective, pd_exit_ns)

    assert new.chosen == ref.chosen
    assert new.feasible == ref.feasible
    assert new.ser == ref.ser
    assert new.predicted_cpi.tolist() == ref.predicted_cpi.tolist()
    assert new.limited_by_slack == ref.limited_by_slack


@given(data=st.data(),
       epoch_wall_ns=st.floats(min_value=1.0, max_value=5e6),
       freq_used=st.one_of(st.none(), ladder_points),
       per_core=st.booleans())
@settings(max_examples=60, deadline=None)
def test_update_slack_matches_per_core_loop(data, epoch_wall_ns, freq_used,
                                            per_core):
    delta = data.draw(deltas())
    n_cores = len(delta.tic)
    bounds = (data.draw(st.lists(st.floats(min_value=0.0, max_value=0.5),
                                 min_size=n_cores, max_size=n_cores))
              if per_core else None)
    slack = data.draw(st.lists(slack_values, min_size=n_cores,
                               max_size=n_cores))
    policy = MemScalePolicy(CFG, EnergyModel(CFG, 40.0, PERF, POWER),
                            n_cores, per_core_bounds=bounds)
    policy.slack_ns[:] = slack
    expected = np.array(slack, dtype=np.float64)

    policy.update_slack(delta, epoch_wall_ns, freq_used=freq_used)
    Reference(CFG).update_slack(delta, epoch_wall_ns, freq_used, expected,
                                policy.gamma_per_core)

    assert policy.slack_ns.tolist() == expected.tolist()


@given(data=st.data(),
       config=st.sampled_from([CFG, CFG_ONE_RANK]),
       freq=ladder_points,
       device_bus_mhz=st.one_of(
           st.none(), st.sampled_from([p.bus_mhz for p in LADDER]),
           st.floats(min_value=100.0, max_value=1000.0)),
       per_channel=st.booleans())
@settings(max_examples=80, deadline=None)
def test_measure_matches_per_rank_loop(data, config, freq, device_bus_mhz,
                                       per_channel):
    delta = data.draw(deltas(config, n_cores=4))
    channel_bus_mhz = (data.draw(st.lists(
        st.sampled_from([p.bus_mhz for p in LADDER]),
        min_size=config.org.channels, max_size=config.org.channels))
        if per_channel else None)

    new = PowerModel(config).measure(delta, freq, device_bus_mhz,
                                     channel_bus_mhz)
    ref = Reference(config).measure(delta, freq, device_bus_mhz,
                                    channel_bus_mhz)

    assert_same_breakdown(new, ref)


@given(data=st.data(),
       config=st.sampled_from([CFG, CFG_ONE_RANK]),
       time_scale=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_predict_matches_per_rank_loop(data, config, time_scale):
    """The global prediction, one point at a time and for the whole
    ladder at once, and the per-channel-DFS prediction."""
    delta = data.draw(deltas(config, n_cores=4))
    model, ref = PowerModel(config), Reference(config)
    scales = np.array(data.draw(st.lists(
        st.floats(min_value=0.05, max_value=20.0),
        min_size=len(model.ladder), max_size=len(model.ladder))))
    channel_bus_mhz = data.draw(st.lists(
        st.sampled_from([p.bus_mhz for p in LADDER]),
        min_size=config.org.channels, max_size=config.org.channels))

    ladder = model.predict_ladder(delta, scales)
    for k, point in enumerate(model.ladder):
        assert_same_breakdown(model.predict(delta, point, time_scale),
                              ref.predict(delta, point, time_scale))
        assert_same_breakdown(ladder.at(k),
                              ref.predict(delta, point, float(scales[k])))
        assert_same_breakdown(
            model.predict(delta, point, time_scale, channel_bus_mhz),
            ref.predict(delta, point, time_scale, channel_bus_mhz))


@given(data=st.data(), current=ladder_points)
@settings(max_examples=40, deadline=None)
def test_cap_allocator_global_ladder_matches_per_point_loop(data, current):
    """Predicted power, CPI and memory time per miss of the cap
    allocator's global candidates, one ladder point at a time."""
    delta = data.draw(deltas())
    ref = Reference(CFG)
    got = [(c.predicted_power_w, c.predicted_cpi.tolist(), c.tpi_mem_ns)
           for c in ALLOC.candidates(delta, current)
           if c.channel_bus_mhz is None]
    want = [(ref.predict(delta, g, ref.time_scale(delta, current, g)).memory_w,
             ref.cpi(delta, g, None, current).tolist(),
             ref.tpi_mem_ns(delta, g, None, current))
            for g in ref.ladder]
    assert got == want
