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
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.config import scaled_config
from repro.core.baselines import StaticFrequencyGovernor
from repro.sim.cache import (ExperimentCache, config_fingerprint,
                              content_digest)
from repro.sim.runner import ExperimentRunner, RunnerSettings
from repro.sim.serialize import run_result_to_dict
from repro.sim.system import SystemSimulator

CONFIG = scaled_config()
SETTINGS = RunnerSettings(cores=4, instructions_per_core=2_000, seed=2011)
LEGACY_LEDGER = (Path(__file__).parent / "data" / "legacy_service"
                 / "queue.jsonl")

#: Policy dimension: spans no-powerdown, fast-exit, slow-exit, DVFS, and
#: DVFS+powerdown. "Static-sampled" is replaced by a
#: StaticFrequencyGovernor at a sampled ladder frequency.
POLICIES = ("Baseline", "Fast-PD", "Slow-PD", "MemScale",
            "MemScale+Fast-PD", "Static-sampled")


def result_bytes(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True).encode()


def run_once(mix, policy, bus_mhz, validate, fast_forward=True):
    config = CONFIG.replace(validate_protocol=validate,
                            fast_forward=fast_forward)
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

    def test_placement_run_byte_identical(self):
        # Placement adds self-refresh parking and migration traffic —
        # the busiest housekeeping mix in the repo, and the bug class
        # (a refresh timer tombstoned while its rank is parked) that
        # motivates extra coverage. ILP1 at 4 x 200k is idle enough for
        # fast-forward to engage, which the "on" leg asserts so the
        # identity cannot pass vacuously.
        def placement_run(fast_forward):
            config = CONFIG.with_policy(
                epoch_ns=4_000.0, profile_ns=400.0).with_placement(
                enabled=True).replace(fast_forward=fast_forward)
            runner = ExperimentRunner(
                config=config,
                settings=RunnerSettings(cores=4,
                                        instructions_per_core=200_000,
                                        seed=2011),
                cache=None)
            sim = SystemSimulator(config, runner.trace("ILP1"),
                                  runner.make_placement_governor("ILP1"))
            return sim.run(), sim.engine.events_fast_forwarded

        on, on_skipped = placement_run(True)
        off, off_skipped = placement_run(False)
        assert on_skipped > 0 and off_skipped == 0
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


class TestCacheKeyInsensitivity:
    def test_fingerprint_ignores_fast_forward(self):
        # Byte-identical results may share cache entries, exactly like
        # the observe-only validator flag.
        assert (config_fingerprint(CONFIG.replace(fast_forward=True))
                == config_fingerprint(CONFIG.replace(fast_forward=False)))

    def test_retired_surrogate_flag_keeps_keys_stable(self):
        # The removed surrogate's flag stays in the fingerprint as a
        # false constant, so keys written before its removal still
        # match: the committed legacy service directory's config hash
        # and a default-shape cache baseline key.
        config_hash = content_digest(config_fingerprint(CONFIG))
        assert config_hash == (
            "ccb852f1a230ca52a5896328780f552f515430b2983751a4bcee27c051e5584e")
        meta = json.loads(LEGACY_LEDGER.read_text().splitlines()[0])
        assert meta["config_hash"] == config_hash
        key = ExperimentCache("unused").baseline_key(
            CONFIG, "MID1", 16, 60_000, 2011)
        assert key == (
            "9a0d3c3d14f89456615cdc21c41b995c05544e224c7c3917a716e2297f3725a7")
