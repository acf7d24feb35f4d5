"""Steady-state surrogate (``approx_steady_state``) tests.

Unlike idle fast-forward and chain absorption, the surrogate is
*deliberately not bit-exact*: it scales window counter deltas instead
of replaying events. The contract tested here is therefore different —
default off, bounded wall/energy error when on, engagement on
stationary busy mixes, hard vetoes for state the extrapolation cannot
represent (armed validator, SELF_REFRESH-parked ranks, in-flight
migration pumps, open freeze windows), and a cache fingerprint that
separates approximate results from exact ones.
"""

from types import SimpleNamespace

from repro.config import default_config, scaled_config
from repro.memsim.states import RankPowerState
from repro.memsim.steady import SPARSE_STRIKES, SteadyStateAbsorber
from repro.sim.runner import ExperimentRunner, RunnerSettings
from repro.sim.system import SystemSimulator

CONFIG = scaled_config()

#: Wall/energy tolerance for the differential test: the detector's
#: STABILITY_TOL is 10% relative per window, and measured end-to-end
#: errors across the committed mixes stay under ~8%.
ERROR_BOUND = 0.15


def build_sim(mix, policy, cores, instructions, approx, **overrides):
    config = CONFIG.replace(approx_steady_state=approx, **overrides)
    runner = ExperimentRunner(
        config=config,
        settings=RunnerSettings(cores=cores,
                                instructions_per_core=instructions,
                                seed=2011),
        cache=None)
    governor = runner.make_named_governor(mix, policy)
    return SystemSimulator(config, runner.trace(mix), governor)


class TestDefaultOff:
    def test_flag_defaults_off(self):
        assert default_config().approx_steady_state is False
        assert CONFIG.approx_steady_state is False

    def test_absorber_not_built_when_off(self):
        sim = build_sim("MID1", "MemScale", 4, 2_000, approx=False)
        assert sim._absorber is None
        sim.run()
        assert sim.engine.events_steady_skipped == 0


#: (mix, cores, instructions per core) shapes the surrogate must engage
#: on: a stationary ladder rung, and MID1 at full width (it does not
#: engage on MID1 at 4 cores).
STATIONARY_SHAPES = (("mix2", 4, 8_000), ("MID1", 16, 60_000))


class TestEngagement:
    def test_stationary_mix_engages(self):
        for mix, cores, instructions in STATIONARY_SHAPES:
            sim = build_sim(mix, "MemScale", cores, instructions,
                            approx=True)
            sim.run()
            shape = f"{mix} at {cores} cores x {instructions}"
            assert sim.engine.events_steady_skipped > 0, shape
            assert sim._absorber.absorbed_spans > 0, shape
            assert sim._absorber.absorbed_ns > 0.0, shape

    def test_all_cores_still_reach_target(self):
        sim = build_sim("mix2", "MemScale", 4, 8_000, approx=True)
        result = sim.run()
        for core in sim.cluster.cores:
            assert core.time_at_target_ns is not None
            assert core.time_at_target_ns <= sim.engine.now
        assert result.wall_time_ns > 0

    def test_sparse_mix_trips_bypass(self):
        # Low-MPKI traffic never yields trustworthy window statistics;
        # after SPARSE_STRIKES bodies the absorber must get out of the
        # way (the idle fast-forward path owns that regime).
        sim = build_sim("ILP2", "MemScale", 4, 200_000, approx=True)
        sim.run()
        assert sim.engine.events_steady_skipped == 0
        assert sim._absorber._sparse_strikes >= SPARSE_STRIKES
        assert sim.engine.events_fast_forwarded > 0


class TestBoundedError:
    def test_wall_and_energy_within_bound(self):
        results = {}
        for approx in (False, True):
            sim = build_sim("mix2", "MemScale", 4, 8_000, approx=approx)
            results[approx] = sim.run()
        exact, approx = results[False], results[True]
        wall_err = (abs(approx.wall_time_ns - exact.wall_time_ns)
                    / exact.wall_time_ns)
        e_exact = sum(exact.energy_j.values())
        e_approx = sum(approx.energy_j.values())
        energy_err = abs(e_approx - e_exact) / e_exact
        assert wall_err <= ERROR_BOUND
        assert energy_err <= ERROR_BOUND


class TestVetoes:
    """Conditions under which a jump must never happen — the bug class
    from PR 8 (tombstoned refresh under fast-forward) generalized to
    the approximate path."""

    def make_absorber(self, governor=None):
        sim = build_sim("MID1", "MemScale", 4, 2_000, approx=True)
        absorber = sim._absorber
        if governor is not None:
            absorber = SteadyStateAbsorber(sim.engine, sim.controller,
                                           sim.cluster, governor)
        return sim, absorber

    def test_clean_state_not_vetoed(self):
        sim, absorber = self.make_absorber()
        assert absorber._vetoed() is False

    def test_armed_validator_vetoes(self):
        sim = build_sim("MID1", "MemScale", 4, 2_000, approx=True,
                        validate_protocol=True)
        assert sim.controller.validator is not None
        assert sim._absorber._vetoed() is True

    def test_self_refresh_parked_rank_vetoes(self):
        sim, absorber = self.make_absorber()
        rank = sim.controller.ranks[0]
        saved = rank._state
        rank._state = RankPowerState.SELF_REFRESH
        try:
            assert absorber._vetoed() is True
        finally:
            rank._state = saved
        assert absorber._vetoed() is False

    def test_inflight_migration_pump_vetoes(self):
        sim, busy = self.make_absorber(
            governor=SimpleNamespace(pump=SimpleNamespace(idle=False)))
        assert busy._vetoed() is True
        _, idle = self.make_absorber(
            governor=SimpleNamespace(pump=SimpleNamespace(idle=True)))
        assert idle._vetoed() is False

    def test_freeze_window_vetoes(self):
        sim, absorber = self.make_absorber()
        sim.controller.frozen_until_ns = sim.engine.now + 1_000.0
        assert absorber._vetoed() is True
        sim.controller.frozen_until_ns = 0.0
        assert absorber._vetoed() is False

    def test_fully_vetoed_run_is_byte_identical(self):
        # With the validator armed every window is vetoed, so the
        # windowed body must degenerate to plain exact simulation:
        # same events, same serialized result.
        import json

        from repro.sim.serialize import run_result_to_dict

        def run(approx):
            sim = build_sim("mix2", "MemScale", 4, 8_000, approx=approx,
                            validate_protocol=True)
            result = sim.run()
            return sim, result

        sim_on, on = run(True)
        sim_off, off = run(False)
        assert sim_on.engine.events_steady_skipped == 0
        assert (json.dumps(run_result_to_dict(on), sort_keys=True)
                == json.dumps(run_result_to_dict(off), sort_keys=True))
