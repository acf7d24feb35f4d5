"""MemScale OS energy-management policy (Section 3.2).

Runs once per OS epoch. Each epoch:

1. profile the counter file for a short window;
2. predict per-core CPI at every candidate frequency (Eqs. 2-9) and
   full-system energy (Eq. 10);
3. pick the frequency minimizing SER among candidates that keep every
   core within its slack-adjusted performance target (Eq. 1);
4. at epoch end, compare achieved progress against the estimated
   max-frequency execution and fold the difference into per-core slack,
   carried to the next epoch (Figure 3).

Slack bookkeeping is in wall-clock nanoseconds. A core's slack grows
when it runs faster than its target (``(1+gamma) x`` its max-frequency
time) and shrinks — possibly below zero — when it runs slower; negative
slack forces higher frequencies until the deficit is repaid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence  # noqa: F401 (Sequence in hints)

import numpy as np

from repro.config import SystemConfig
from repro.core.energy_model import EnergyModel
from repro.core.frequency import FrequencyLadder, FrequencyPoint
from repro.core.perf_model import PerformanceModel
from repro.memsim.counters import CounterDelta


class PolicyObjective(enum.Enum):
    """What the frequency search minimizes (Section 4.2.3)."""

    SYSTEM_ENERGY = "system"    #: full-system SER (the MemScale default)
    MEMORY_ENERGY = "memory"    #: memory-only energy (MemScale (MemEnergy))


@dataclass
class FrequencyDecision:
    """Outcome of one epoch's frequency selection, for logs and tests."""

    chosen: FrequencyPoint
    feasible: List[float]       #: bus MHz of candidates satisfying slack
    ser: float                  #: predicted objective value of the choice
    predicted_cpi: np.ndarray   #: per-core CPI at the chosen frequency
    limited_by_slack: bool      #: True if some candidate was rejected


class MemScalePolicy:
    """Per-epoch frequency selection with cross-epoch slack accounting."""

    def __init__(self, config: SystemConfig, energy_model: EnergyModel,
                 n_cores: int,
                 objective: PolicyObjective = PolicyObjective.SYSTEM_ENERGY,
                 pd_exit_ns: Optional[float] = None,
                 per_core_bounds: Optional[Sequence[float]] = None):
        """``per_core_bounds`` optionally gives each core (i.e. each
        program instance) its own maximum slowdown, as Section 3.1
        allows ("defined by users on a per-application basis"); it
        overrides the global ``config.policy.cpi_bound``."""
        config.validate()
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self._config = config
        self._energy = energy_model
        self._perf: PerformanceModel = energy_model.perf_model
        self._ladder = self._perf.ladder
        if per_core_bounds is not None:
            bounds = np.asarray(per_core_bounds, dtype=np.float64)
            if bounds.shape != (n_cores,):
                raise ValueError(
                    f"per_core_bounds must have one entry per core "
                    f"({n_cores}), got shape {bounds.shape}")
            if (bounds < 0).any():
                raise ValueError("per-core bounds must be non-negative")
            self._gamma_per_core = bounds
        else:
            self._gamma_per_core = np.full(
                n_cores, config.policy.cpi_bound, dtype=np.float64)
        self._gamma = float(self._gamma_per_core.min())
        #: 1 + gamma per core: a target is the max-frequency time times this.
        self._gamma_factor = 1.0 + self._gamma_per_core
        self._pd_exit_ns = pd_exit_ns
        self.objective = objective
        self.slack_ns = np.zeros(n_cores, dtype=np.float64)
        self.decisions: List[FrequencyDecision] = []

    @property
    def ladder(self) -> FrequencyLadder:
        """The candidate frequency ladder searched each epoch (Section 3.2):
        the energy model's, so the batched scan and its models agree."""
        return self._ladder

    @property
    def gamma(self) -> float:
        """The tightest per-core bound (the scalar bound when uniform)."""
        return self._gamma

    @property
    def gamma_per_core(self) -> np.ndarray:
        """Per-core maximum slowdown bounds (Section 3.1's per-application
        gamma; uniform ``cpi_bound`` unless overridden)."""
        return self._gamma_per_core

    # -- stage 2: frequency selection ---------------------------------------

    def select_frequency(self, profile_delta: CounterDelta,
                         current_freq: FrequencyPoint,
                         epoch_remaining_ns: float) -> FrequencyDecision:
        """Pick the epoch's frequency from the profiling counters.

        A candidate ``f`` is feasible for core ``c`` when running the rest
        of the epoch at ``f`` is predicted to leave the core's slack
        non-negative:

            slack_c + D * ((1+gamma) * CPI_max(c)/CPI_f(c) - 1) >= 0

        where ``D`` is the remaining epoch wall time. The exhaustive
        search over the (ten) candidates is the paper's own approach; it
        runs as one batched evaluation of the whole ladder (a points x
        cores CPI matrix, per-point energy ratios, one feasibility mask)
        followed by the choice in ladder order.
        """
        if epoch_remaining_ns <= 0:
            raise ValueError("epoch_remaining_ns must be positive")
        ladder = self._ladder
        base = ladder.fastest
        # The degradation reference is execution *without energy
        # management* (Eq. 1): maximum frequency and no powerdown, so the
        # powerdown-exit term of Eq. 6 is excluded from the reference CPI.
        cpi_max = self._perf.predict(profile_delta, base, 0.0,
                                     profiled_freq=current_freq).cpi
        cpi = self._perf.predict_ladder(profile_delta, self._pd_exit_ns,
                                        profiled_freq=current_freq).cpi
        # Switching frequencies suspends memory operation while the DLLs
        # re-lock; charge that stall against the epoch's slack budget (it
        # is negligible for millisecond epochs but real for scaled-down
        # ones).
        penalty_ns = self._config.policy.transition_penalty_ns(
            current_freq.bus_mhz)
        transition_ns = np.array([0.0 if p.bus_mhz == current_freq.bus_mhz
                                  else penalty_ns for p in ladder])
        feasible_mask = self._feasible(cpi, cpi_max, epoch_remaining_ns,
                                       transition_ns[:, None]).tolist()
        estimate = self._energy.estimate_ladder(profile_delta, current_freq)
        scores = (estimate.ser
                  if self.objective is PolicyObjective.SYSTEM_ENERGY
                  else estimate.memory_energy_ratio).tolist()
        best: Optional[int] = None
        best_score = float("inf")
        feasible: List[float] = []
        for k, candidate in enumerate(ladder):
            if not feasible_mask[k]:
                continue
            feasible.append(candidate.bus_mhz)
            # strict < keeps the highest-frequency minimum on ties
            if scores[k] < best_score:
                best, best_score = k, scores[k]
        if best is None:
            # Even the maximum frequency misses the target (deep negative
            # slack): run flat out and repay the deficit.
            chosen, best_score, best_cpi = base, 1.0, cpi_max
        else:
            chosen, best_cpi = ladder[best], cpi[best].copy()
        decision = FrequencyDecision(
            chosen=chosen, feasible=feasible, ser=best_score,
            predicted_cpi=best_cpi,
            limited_by_slack=len(feasible) < len(ladder))
        self.decisions.append(decision)
        return decision

    def _feasible(self, cpi: np.ndarray, cpi_max: np.ndarray,
                  remaining_ns: float, transition_ns=0.0) -> np.ndarray:
        """Slack test per candidate: one row of ``cpi`` per candidate (or
        a single 1-D row), True where every core keeps its slack.

        A core whose reference CPI is not positive is exempt.
        """
        # Max frequency can never be slower than a candidate: clamping the
        # ratio at 1 guards against queueing-term (xi) mispredictions
        # inflating the apparent headroom (Section 3.3's approximation).
        ratio = np.divide(cpi_max, cpi, out=np.ones_like(cpi),
                          where=cpi > 0)
        ratio = np.where(1.0 < ratio, 1.0, ratio)
        projected = (self.slack_ns
                     + remaining_ns * (self._gamma_factor * ratio - 1.0)
                     - transition_ns)
        return ~((projected < 0) & ~(cpi_max <= 0)).any(axis=-1)

    # -- stage 4: slack update ------------------------------------------------

    def update_slack(self, epoch_delta: CounterDelta,
                     epoch_wall_ns: float,
                     freq_used: Optional[FrequencyPoint] = None) -> None:
        """Fold the finished epoch's achieved-vs-target gap into slack.

        The counters of the whole epoch estimate what each core's progress
        *would have cost* at maximum frequency (Eq. 1's ``T_MaxFreq``); the
        target is that time stretched by ``1 + gamma``; the achieved time
        is the epoch's wall-clock length. ``freq_used`` is the frequency
        the epoch body executed at (for queue-term correction).
        """
        if epoch_wall_ns <= 0:
            raise ValueError("epoch_wall_ns must be positive")
        # Reference is the no-energy-management execution: no powerdown
        # exits at max frequency (see select_frequency).
        cpi_max = self._perf.predict(epoch_delta, self._ladder.fastest, 0.0,
                                     profiled_freq=freq_used).cpi
        cycle = self._config.cpu.cycle_ns
        for core in range(len(self.slack_ns)):
            instructions = float(epoch_delta.tic[core])
            if instructions <= 0:
                continue
            t_maxfreq = instructions * cpi_max[core] * cycle
            # The work cannot have been slower at max frequency than it
            # actually was: cap the estimate to keep slack conservative
            # when the model overestimates max-frequency CPI.
            t_maxfreq = min(t_maxfreq, epoch_wall_ns)
            gamma = self._gamma_per_core[core]
            self.slack_ns[core] += t_maxfreq * (1.0 + gamma) - epoch_wall_ns
