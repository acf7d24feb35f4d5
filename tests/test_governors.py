"""Tests for governors: baselines and the MemScale governor wiring."""

import pytest

from repro.config import scaled_config
from repro.core.baselines import (
    DECOUPLED_DEVICE_MHZ,
    STATIC_BASELINE_BUS_MHZ,
    BaselineGovernor,
    DecoupledDimmGovernor,
    StaticFrequencyGovernor,
)
from repro.core.energy_model import EnergyModel
from repro.core.governor import MemScaleGovernor
from repro.core.policy import MemScalePolicy, PolicyObjective
from repro.memsim.controller import MemoryController
from repro.memsim.engine import EventEngine
from repro.memsim.states import PowerdownMode
from tests.conftest import make_delta

CFG = scaled_config()


def make_controller(governor):
    engine = EventEngine()
    mc = MemoryController(engine, CFG,
                          powerdown_mode=governor.powerdown_mode,
                          refresh_enabled=False, n_cores=4)
    governor.setup(mc)
    return engine, mc


class TestBaselineGovernor:
    def test_names(self):
        assert BaselineGovernor().name == "Baseline"
        assert BaselineGovernor(PowerdownMode.FAST_EXIT).name == "Fast-PD"
        assert BaselineGovernor(PowerdownMode.SLOW_EXIT).name == "Slow-PD"

    def test_powerdown_modes(self):
        assert BaselineGovernor().powerdown_mode is PowerdownMode.NONE
        assert (BaselineGovernor(PowerdownMode.FAST_EXIT).powerdown_mode
                is PowerdownMode.FAST_EXIT)

    def test_setup_leaves_max_frequency(self):
        engine, mc = make_controller(BaselineGovernor())
        assert mc.freq.bus_mhz == 800.0
        assert mc.frozen_until_ns == 0.0

    def test_profile_hook_is_noop(self):
        gov = BaselineGovernor()
        engine, mc = make_controller(gov)
        gov.on_profile_end(make_delta(CFG), mc, 1000.0)
        assert mc.freq.bus_mhz == 800.0


class TestStaticGovernor:
    def test_default_static_frequency(self):
        gov = StaticFrequencyGovernor()
        assert gov.bus_mhz == STATIC_BASELINE_BUS_MHZ
        engine, mc = make_controller(gov)
        assert mc.freq.bus_mhz == 467.0

    def test_no_boot_transition_penalty(self):
        engine, mc = make_controller(StaticFrequencyGovernor())
        assert mc.frozen_until_ns == 0.0

    def test_custom_frequency(self):
        engine, mc = make_controller(StaticFrequencyGovernor(333.0))
        assert mc.freq.bus_mhz == 333.0

    def test_invalid_frequency_raises_at_setup(self):
        gov = StaticFrequencyGovernor(123.0)
        with pytest.raises(ValueError):
            make_controller(gov)


class TestDecoupledGovernor:
    def test_device_latency_installed(self):
        gov = DecoupledDimmGovernor()
        engine, mc = make_controller(gov)
        # 4-cycle burst at 400 vs 800 MHz: 10 - 5 = 5 ns extra
        assert mc.device_extra_latency_ns == pytest.approx(5.0)
        assert mc.freq.bus_mhz == 800.0

    def test_device_clock_reported_for_power_model(self):
        gov = DecoupledDimmGovernor()
        engine, mc = make_controller(gov)
        assert gov.device_bus_mhz(mc) == DECOUPLED_DEVICE_MHZ

    def test_rejects_device_faster_than_channel(self):
        gov = DecoupledDimmGovernor(device_mhz=1600.0)
        with pytest.raises(ValueError):
            make_controller(gov)

    def test_rejects_nonpositive_device_clock(self):
        with pytest.raises(ValueError):
            DecoupledDimmGovernor(device_mhz=0.0)


class TestMemScaleGovernor:
    def _make(self, use_powerdown=False,
              objective=PolicyObjective.SYSTEM_ENERGY):
        energy = EnergyModel(CFG, rest_power_w=40.0)
        policy = MemScalePolicy(CFG, energy, n_cores=4, objective=objective)
        return MemScaleGovernor(policy, use_powerdown=use_powerdown)

    def test_names(self):
        assert self._make().name == "MemScale"
        assert self._make(use_powerdown=True).name == "MemScale+Fast-PD"
        assert (self._make(objective=PolicyObjective.MEMORY_ENERGY).name
                == "MemScale(MemEnergy)")

    def test_powerdown_wiring(self):
        assert self._make().powerdown_mode is PowerdownMode.NONE
        assert (self._make(True).powerdown_mode is PowerdownMode.FAST_EXIT)

    def test_profile_end_reprograms_frequency_and_logs(self):
        gov = self._make()
        engine, mc = make_controller(gov)
        delta = make_delta(CFG, tlm_per_core=0.5, bto=0.0, cto=0.0,
                           reads=2.0, writes=0.0, busy_frac=0.001)
        gov.on_profile_end(delta, mc, CFG.policy.epoch_ns)
        assert mc.freq.bus_mhz < 800.0
        assert len(gov.frequency_log) == 1
        assert gov.frequency_log[0][1] == mc.freq.bus_mhz

    def test_epoch_end_updates_slack(self):
        gov = self._make()
        engine, mc = make_controller(gov)
        delta = make_delta(CFG, interval_ns=CFG.policy.epoch_ns,
                           tic_per_core=100.0, tlm_per_core=0.0)
        gov.on_epoch_end(delta, mc, CFG.policy.epoch_ns)
        assert any(s != 0 for s in gov.policy.slack_ns)
