"""Idle-period fast-forward equivalence and engagement tests.

The PR-level invariant: enabling fast-forward (``SystemConfig.
fast_forward``, the default) must be *invisible* in simulation results —
the analytic batch replays exactly the counter updates, residency
accounting, and event sequence numbers the skipped refresh housekeeping
would have produced, so a run serializes byte-identically either way.
The golden snapshot pins this for the committed mixes; the hypothesis
property here pins it across random mixes x policies (spanning every
powerdown mode) x static frequencies x validator arming.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.config import scaled_config
from repro.core.baselines import StaticFrequencyGovernor
from repro.sim.cache import config_fingerprint
from repro.sim.runner import ExperimentRunner, RunnerSettings
from repro.sim.serialize import run_result_to_dict
from repro.sim.system import SystemSimulator

CONFIG = scaled_config()
SETTINGS = RunnerSettings(cores=4, instructions_per_core=2_000, seed=2011)

#: Policy dimension: spans no-powerdown, fast-exit, slow-exit, DVFS, and
#: DVFS+powerdown. "Static-sampled" is replaced by a
#: StaticFrequencyGovernor at a sampled ladder frequency.
POLICIES = ("Baseline", "Fast-PD", "Slow-PD", "MemScale",
            "MemScale+Fast-PD", "Static-sampled")


def result_bytes(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True).encode()


def run_once(mix, policy, bus_mhz, validate, fast_forward=True,
             busy_absorption=True):
    config = CONFIG.replace(validate_protocol=validate,
                            fast_forward=fast_forward,
                            busy_absorption=busy_absorption)
    runner = ExperimentRunner(config=config, settings=SETTINGS)
    if policy == "Static-sampled":
        return runner.run_governor(mix, StaticFrequencyGovernor(bus_mhz))
    result, _ = runner.run_named_policy(mix, policy)
    return result


class TestFastForwardEquivalence:
    @given(mix=st.sampled_from(["MID1", "ILP1", "ILP2", "MEM1"]),
           policy=st.sampled_from(POLICIES),
           bus_mhz=st.sampled_from(list(CONFIG.sorted_bus_freqs())),
           validate=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_run_results_byte_identical(self, mix, policy, bus_mhz,
                                        validate):
        on = run_once(mix, policy, bus_mhz, validate, fast_forward=True)
        off = run_once(mix, policy, bus_mhz, validate, fast_forward=False)
        assert result_bytes(on) == result_bytes(off)


class TestFastForwardEngagement:
    """The equivalence above would be vacuous if the batch path never
    ran; these pin that it actually fires on low-MPKI workloads."""

    def make_sim(self, fast_forward, policy="MemScale"):
        config = CONFIG.replace(fast_forward=fast_forward)
        runner = ExperimentRunner(
            config=config,
            settings=RunnerSettings(cores=4, instructions_per_core=8_000,
                                    seed=2011))
        governor = runner.make_named_governor("ILP2", policy)
        return SystemSimulator(config, runner.trace("ILP2"), governor)

    def test_low_mpki_run_fast_forwards_events(self):
        sim = self.make_sim(fast_forward=True)
        sim.run()
        assert sim.engine.events_fast_forwarded > 0
        assert sim.controller.fast_forward_batches > 0

    def test_disabled_config_never_batches(self):
        sim = self.make_sim(fast_forward=False)
        sim.run()
        assert sim.engine.events_fast_forwarded == 0
        assert sim.controller.fast_forward_batches == 0

    def test_event_conservation_across_modes(self):
        # processed + fast-forwarded is the mode-independent simulated
        # event count.
        on = self.make_sim(fast_forward=True)
        on.run()
        off = self.make_sim(fast_forward=False)
        off.run()
        assert (on.engine.events_processed + on.engine.events_fast_forwarded
                == off.engine.events_processed)
        assert on.engine.events_processed < off.engine.events_processed


class TestBusyAbsorptionEquivalence:
    """Chain absorption (``SystemConfig.busy_absorption``, default on)
    batches deferred-marker event chains on the *busy* path; like idle
    fast-forward it must be byte-invisible in serialized results."""

    @given(mix=st.sampled_from(["MID1", "ILP1", "ILP2", "MEM1"]),
           policy=st.sampled_from(POLICIES),
           bus_mhz=st.sampled_from(list(CONFIG.sorted_bus_freqs())),
           validate=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_run_results_byte_identical(self, mix, policy, bus_mhz,
                                        validate):
        on = run_once(mix, policy, bus_mhz, validate, busy_absorption=True)
        off = run_once(mix, policy, bus_mhz, validate,
                       busy_absorption=False)
        assert result_bytes(on) == result_bytes(off)

    def test_placement_run_byte_identical(self):
        # Placement adds self-refresh parking and migration traffic —
        # the busiest housekeeping mix in the repo, and the bug class
        # (PR 8's tombstoned refresh) that motivates extra coverage.
        def placement_run(busy_absorption):
            config = CONFIG.with_policy(
                epoch_ns=4_000.0, profile_ns=400.0).with_placement(
                enabled=True).replace(busy_absorption=busy_absorption)
            runner = ExperimentRunner(
                config=config, settings=SETTINGS, cache=None)
            governor = runner.make_placement_governor("MID1")
            return runner.run_governor("MID1", governor)

        assert (result_bytes(placement_run(True))
                == result_bytes(placement_run(False)))


class TestBusyAbsorptionEngagement:
    def make_sim(self, busy_absorption):
        config = CONFIG.replace(busy_absorption=busy_absorption)
        runner = ExperimentRunner(config=config, settings=SETTINGS)
        governor = runner.make_named_governor("MID1", "MemScale")
        return SystemSimulator(config, runner.trace("MID1"), governor)

    def test_busy_run_absorbs_chains(self):
        sim = self.make_sim(busy_absorption=True)
        sim.run()
        assert sim.engine.events_busy_absorbed > 0

    def test_disabled_config_never_absorbs(self):
        sim = self.make_sim(busy_absorption=False)
        sim.run()
        assert sim.engine.events_busy_absorbed == 0

    def test_event_conservation_across_modes(self):
        # processed + fast-forwarded + busy-absorbed is the
        # mode-independent simulated event count.
        on = self.make_sim(busy_absorption=True)
        on.run()
        off = self.make_sim(busy_absorption=False)
        off.run()
        total = lambda sim: (sim.engine.events_processed
                             + sim.engine.events_fast_forwarded
                             + sim.engine.events_busy_absorbed)
        assert total(on) == total(off)
        assert on.engine.events_processed < off.engine.events_processed


class TestCacheKeyInsensitivity:
    def test_fingerprint_ignores_fast_forward(self):
        # Byte-identical results may share cache entries, exactly like
        # the observe-only validator flag.
        assert (config_fingerprint(CONFIG.replace(fast_forward=True))
                == config_fingerprint(CONFIG.replace(fast_forward=False)))

    def test_fingerprint_ignores_busy_absorption(self):
        assert (config_fingerprint(CONFIG.replace(busy_absorption=True))
                == config_fingerprint(CONFIG.replace(busy_absorption=False)))

    def test_fingerprint_keeps_approx_steady_state(self):
        # The steady-state surrogate is NOT bit-exact, so its flag must
        # split the cache key.
        assert (config_fingerprint(
                    CONFIG.replace(approx_steady_state=True))
                != config_fingerprint(
                    CONFIG.replace(approx_steady_state=False)))
