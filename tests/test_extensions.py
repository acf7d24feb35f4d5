"""Tests for the per-channel DFS extension (Section 6 future work)."""

import numpy as np
import pytest

from repro.config import scaled_config
from repro.core.energy_model import EnergyModel
from repro.core.extensions import PerChannelMemScaleGovernor
from repro.core.policy import MemScalePolicy
from repro.core.power_model import PowerModel
from repro.core.frequency import FrequencyLadder
from repro.memsim.controller import MemoryController
from repro.memsim.engine import EventEngine
from tests.conftest import make_delta

CFG = scaled_config()
LADDER = FrequencyLadder(CFG)


def make_governor(n_cores=4):
    energy = EnergyModel(CFG, rest_power_w=40.0)
    policy = MemScalePolicy(CFG, energy, n_cores=n_cores)
    return PerChannelMemScaleGovernor(policy)


def make_controller():
    engine = EventEngine()
    return engine, MemoryController(engine, CFG, refresh_enabled=False,
                                    n_cores=4)


class TestControllerPerChannel:
    def test_channels_default_to_global_frequency(self):
        engine, mc = make_controller()
        mc.set_frequency_by_bus_mhz(400.0)
        assert all(f == 400.0 for f in mc.channel_bus_mhz_list())

    def test_channel_override(self):
        engine, mc = make_controller()
        penalty = mc.set_channel_frequency(2, mc.ladder.at_bus_mhz(333.0))
        assert penalty > 0
        assert mc.channel_freq(2).bus_mhz == 333.0
        assert mc.channel_freq(0).bus_mhz == 800.0

    def test_same_channel_frequency_is_free(self):
        engine, mc = make_controller()
        assert mc.set_channel_frequency(1, mc.freq) == 0.0

    def test_global_change_clears_overrides(self):
        engine, mc = make_controller()
        mc.set_channel_frequency(1, mc.ladder.at_bus_mhz(200.0))
        mc.set_frequency_by_bus_mhz(467.0)
        assert mc.channel_freq(1).bus_mhz == 467.0

    def test_invalid_channel_rejected(self):
        engine, mc = make_controller()
        with pytest.raises(ValueError):
            mc.set_channel_frequency(99, mc.ladder.fastest)

    def test_burst_uses_channel_clock(self):
        from repro.memsim.request import MemRequest, RequestKind
        from repro.memsim.address import MemoryLocation
        engine, mc = make_controller()
        mc.set_channel_frequency(0, mc.ladder.at_bus_mhz(200.0))
        engine.run_until(mc.channel_frozen_until_ns(0))
        done = []
        req = MemRequest(RequestKind.READ,
                         MemoryLocation(0, 0, 0, 0, 0),
                         on_complete=lambda r: done.append(r))
        mc.submit(req)
        engine.run()
        # burst at 200 MHz: 20 ns instead of 5 ns
        assert req.complete_ns - req.bus_start_ns == pytest.approx(20.0)


class TestPowerModelPerChannel:
    def test_per_channel_background_derating(self):
        model = PowerModel(CFG)
        delta = make_delta(CFG)
        uniform = model.measure(delta, LADDER.fastest)
        mixed = model.measure(delta, LADDER.fastest,
                              channel_bus_mhz=[800.0, 800.0, 200.0, 200.0])
        assert mixed.background_w < uniform.background_w
        assert mixed.pll_reg_w < uniform.pll_reg_w
        assert mixed.mc_w == pytest.approx(uniform.mc_w)

    def test_uniform_list_matches_scalar_path(self):
        model = PowerModel(CFG)
        delta = make_delta(CFG)
        scalar = model.measure(delta, LADDER.fastest)
        listed = model.measure(delta, LADDER.fastest,
                               channel_bus_mhz=[800.0] * 4)
        assert listed.background_w == pytest.approx(scalar.background_w)
        assert listed.pll_reg_w == pytest.approx(scalar.pll_reg_w, rel=0.02)

    def test_wrong_length_rejected(self):
        model = PowerModel(CFG)
        with pytest.raises(ValueError):
            model.measure(make_delta(CFG), LADDER.fastest,
                          channel_bus_mhz=[800.0])


class TestPerChannelGovernor:
    def test_reports_channel_clocks(self):
        gov = make_governor()
        engine, mc = make_controller()
        assert gov.channel_bus_mhz(mc) == [800.0] * 4

    def test_balanced_load_never_drops(self):
        gov = make_governor()
        engine, mc = make_controller()
        delta = make_delta(CFG, tlm_per_core=20.0)  # even channel split
        gov.on_profile_end(delta, mc, CFG.policy.epoch_ns)
        assert gov.per_channel_drops == 0
        freqs = set(mc.channel_bus_mhz_list())
        assert len(freqs) == 1

    def test_skewed_load_drops_cold_channels(self):
        import dataclasses
        gov = make_governor()
        engine, mc = make_controller()
        delta = make_delta(CFG, tlm_per_core=20.0, busy_frac=0.1)
        # concentrate traffic on channel 0
        busy = delta.channel_busy_ns.copy()
        busy[:] = [8000.0, 10.0, 10.0, 10.0]
        reads = delta.channel_reads.copy()
        reads[:] = [1000.0, 2.0, 2.0, 2.0]
        delta = dataclasses.replace(delta, channel_busy_ns=busy,
                                    channel_reads=reads)
        gov.on_profile_end(delta, mc, CFG.policy.epoch_ns)
        freqs = mc.channel_bus_mhz_list()
        if gov.policy.decisions[-1].chosen.index < len(mc.ladder) - 1:
            assert gov.per_channel_drops >= 1
            assert min(freqs[1:]) < freqs[0] or len(set(freqs)) > 1

    def test_no_refinement_at_ladder_floor(self):
        gov = make_governor()
        engine, mc = make_controller()
        # compute-bound: the global decision lands on the slowest point,
        # leaving nothing lower for refinement
        delta = make_delta(CFG, tlm_per_core=0.2, bto=0.0, cto=0.0,
                           reads=1.0, writes=0.0, busy_frac=0.0005)
        gov.on_profile_end(delta, mc, CFG.policy.epoch_ns)
        if mc.freq.bus_mhz == 200.0:
            assert gov.per_channel_drops == 0


class TestRefinementEdgeCases:
    """Degenerate profiles: empty counter sets and single-app mixes."""

    def test_empty_profile_never_refines(self):
        # No accesses at all (idle epoch): refinement must bail before
        # dividing by the zero access total.
        gov = make_governor()
        engine, mc = make_controller()
        delta = make_delta(CFG, tlm_per_core=0.0, reads=0.0, writes=0.0,
                           busy_frac=0.0, bto=0.0, cto=0.0)
        gov.on_profile_end(delta, mc, CFG.policy.epoch_ns)
        assert gov.per_channel_drops == 0
        assert len(set(mc.channel_bus_mhz_list())) == 1

    def test_zero_utilization_with_accesses_never_refines(self):
        # Accesses recorded but no measured channel busy time (can
        # happen on a profile slice boundary): mean utilization is 0,
        # so no channel can qualify as "well below the mean".
        gov = make_governor()
        engine, mc = make_controller()
        delta = make_delta(CFG, busy_frac=0.0)
        gov.on_profile_end(delta, mc, CFG.policy.epoch_ns)
        assert gov.per_channel_drops == 0

    def test_single_app_mix_end_to_end(self):
        # One core / one app: the per-core feasibility reduction must
        # work on a length-1 vector.
        gov = make_governor(n_cores=1)
        engine = EventEngine()
        mc = MemoryController(engine, CFG, refresh_enabled=False,
                              n_cores=1)
        delta = make_delta(CFG, n_cores=1)
        gov.on_profile_end(delta, mc, CFG.policy.epoch_ns)
        assert len(gov.policy.decisions) == 1
        assert len(gov.policy.decisions[-1].predicted_cpi) == 1

    def test_single_channel_config(self):
        # A 1-channel organization: the "coldest channel" set is the
        # whole machine; dropping it below the mean is impossible, so
        # the governor must hold a uniform frequency.
        cfg = scaled_config().with_org(channels=1, dimms_per_channel=8)
        energy = EnergyModel(cfg, rest_power_w=40.0)
        policy = MemScalePolicy(cfg, energy, n_cores=4)
        gov = PerChannelMemScaleGovernor(policy)
        engine = EventEngine()
        mc = MemoryController(engine, cfg, refresh_enabled=False, n_cores=4)
        delta = make_delta(cfg)
        gov.on_profile_end(delta, mc, cfg.policy.epoch_ns)
        assert gov.per_channel_drops == 0
        assert len(mc.channel_bus_mhz_list()) == 1


class TestRefinementPricing:
    def test_drop_is_priced_at_the_profiled_frequency(self):
        # Counters profiled at 800 MHz with queueing, the global decision
        # lower: a drop that costs nothing (channel 1 saw no accesses)
        # must be priced at exactly the CPI the policy's ladder scan
        # predicted for the chosen point from the same profile.
        import dataclasses
        gov = make_governor()
        engine, mc = make_controller()
        profiled = mc.freq
        delta = dataclasses.replace(
            make_delta(CFG, tlm_per_core=50.0, busy_frac=0.1, bto=50.0,
                       cto=60.0),
            channel_busy_ns=np.array([8000.0, 0.0, 10.0, 10.0]),
            channel_reads=np.array([1000.0, 0.0, 2.0, 2.0]),
            channel_writes=np.array([10.0, 0.0, 1.0, 1.0]))
        priced = []
        feasible = gov.policy._feasible

        def spy(cpi, *args):
            if cpi.ndim == 1:  # the refinement's per-drop test
                priced.append(cpi.copy())
            return feasible(cpi, *args)

        gov.policy._feasible = spy
        gov.on_profile_end(delta, mc, CFG.policy.epoch_ns)
        chosen = gov.policy.decisions[-1].chosen
        assert chosen != profiled
        assert chosen.index < len(LADDER) - 1
        want = gov.policy._perf.predict_ladder(
            delta, profiled_freq=profiled).cpi[chosen.index]
        assert priced[0].tolist() == want.tolist()
