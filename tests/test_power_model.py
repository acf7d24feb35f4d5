"""Unit and property tests for the DDR3/MC power model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import default_config
from repro.core.frequency import FrequencyLadder
from repro.core.power_model import PowerBreakdown, PowerModel
from tests.conftest import make_delta

CFG = default_config()
MODEL = PowerModel(CFG)
LADDER = FrequencyLadder(CFG)

FREQS = st.sampled_from([p.bus_mhz for p in LADDER])


def freq(bus_mhz):
    return LADDER.at_bus_mhz(bus_mhz)


class TestBreakdownArithmetic:
    def test_dram_w_sums_components(self):
        b = PowerBreakdown(1, 2, 3, 4, 5, 6, 7)
        assert b.dram_w == 15
        assert b.dimm_w == 21
        assert b.memory_w == 28

class TestBackgroundPower:
    def test_all_standby_positive(self):
        delta = make_delta(CFG, act_frac=0.0)
        p = MODEL.background_power_w(delta, 800.0)
        assert p > 0

    def test_powerdown_cheaper_than_standby(self):
        standby = MODEL.background_power_w(
            make_delta(CFG, act_frac=0.0, pre_pd_frac=0.0), 800.0)
        powered_down = MODEL.background_power_w(
            make_delta(CFG, act_frac=0.0, pre_pd_frac=1.0), 800.0)
        assert powered_down < standby

    def test_active_costlier_than_precharge_standby(self):
        # IDD3N (67mA) < IDD2N (70mA) in Table 2 is unusual but faithful;
        # verify the model follows the configured currents either way.
        active = MODEL.background_power_w(
            make_delta(CFG, act_frac=1.0), 800.0)
        pre = MODEL.background_power_w(
            make_delta(CFG, act_frac=0.0), 800.0)
        ratio = CFG.currents.idd3n / CFG.currents.idd2n
        assert active / pre == pytest.approx(ratio, rel=1e-6)

    def test_scales_linearly_with_frequency_above_static_floor(self):
        delta = make_delta(CFG)
        p800 = MODEL.background_power_w(delta, 800.0)
        p400 = MODEL.background_power_w(delta, 400.0)
        s = CFG.currents.static_fraction
        expected_ratio = (s + (1 - s) * 0.5) / 1.0
        assert p400 / p800 == pytest.approx(expected_ratio, rel=1e-9)

    def test_zero_interval_gives_zero(self):
        delta = make_delta(CFG, interval_ns=10.0)
        delta = dataclasses.replace(delta, interval_ns=0.0)
        assert MODEL.background_power_w(delta, 800.0) == 0.0


class TestActivityPower:
    def test_actpre_proportional_to_activations(self):
        a = MODEL.actpre_power_w(make_delta(CFG, pocc=100.0))
        b = MODEL.actpre_power_w(make_delta(CFG, pocc=200.0))
        assert b == pytest.approx(2 * a)

    def test_rdwr_power_proportional_to_busy_time(self):
        a = MODEL.rdwr_power_w(make_delta(CFG, busy_frac=0.1))
        b = MODEL.rdwr_power_w(make_delta(CFG, busy_frac=0.2))
        assert b == pytest.approx(2 * a)

    def test_rdwr_zero_without_accesses(self):
        delta = make_delta(CFG, reads=0.0, writes=0.0, busy_frac=0.0)
        assert MODEL.rdwr_power_w(delta) == 0.0

    def test_termination_zero_with_single_rank_channels(self):
        cfg = CFG.with_org(dimms_per_channel=1, ranks_per_dimm=1)
        model = PowerModel(cfg)
        delta = make_delta(cfg)
        assert model.termination_power_w(delta) == 0.0

    def test_termination_positive_with_multiple_ranks(self):
        assert MODEL.termination_power_w(make_delta(CFG)) > 0

    def test_refresh_power_counts_refreshes(self):
        quiet = MODEL.refresh_power_w(make_delta(CFG, refreshes=0.0))
        busy = MODEL.refresh_power_w(make_delta(CFG, refreshes=2.0))
        assert quiet == 0.0
        assert busy > 0


class TestPllRegAndMc:
    def test_pll_reg_scales_with_frequency(self):
        full = MODEL.pll_reg_power_w(0.5, 800.0)
        half = MODEL.pll_reg_power_w(0.5, 400.0)
        assert half == pytest.approx(full / 2)

    def test_register_power_grows_with_utilization(self):
        idle = MODEL.pll_reg_power_w(0.0, 800.0)
        busy = MODEL.pll_reg_power_w(1.0, 800.0)
        assert busy > idle
        # the delta is the register swing across all DIMMs
        expected = (CFG.power.register_peak_w_per_dimm
                    - CFG.power.register_idle_w_per_dimm) * CFG.org.total_dimms
        assert busy - idle == pytest.approx(expected)

    def test_mc_power_at_peak(self):
        p = MODEL.mc_power_w(1.0, LADDER.fastest)
        assert p == pytest.approx(CFG.power.mc_peak_w)

    def test_mc_power_at_idle_max_freq(self):
        p = MODEL.mc_power_w(0.0, LADDER.fastest)
        assert p == pytest.approx(CFG.power.mc_idle_w)

    def test_mc_dvfs_scales_superlinearly(self):
        # P proportional to V^2 f: halving frequency more than halves power.
        full = MODEL.mc_power_w(0.5, LADDER.fastest)
        half = MODEL.mc_power_w(0.5, LADDER.at_bus_mhz(400.0))
        assert half < full / 2

    def test_mc_power_monotone_in_frequency(self):
        powers = [MODEL.mc_power_w(0.5, p) for p in LADDER]
        assert powers == sorted(powers, reverse=True)

    def test_utilization_clamped(self):
        assert (MODEL.mc_power_w(2.0, LADDER.fastest)
                == pytest.approx(CFG.power.mc_peak_w))
        assert (MODEL.mc_power_w(-1.0, LADDER.fastest)
                == pytest.approx(CFG.power.mc_idle_w))


class TestMeasure:
    def test_all_components_nonnegative(self):
        b = MODEL.measure(make_delta(CFG), LADDER.fastest)
        for field in dataclasses.fields(b):
            assert getattr(b, field.name) >= 0

    def test_memory_power_decreases_with_frequency(self):
        delta = make_delta(CFG)
        p800 = MODEL.measure(delta, LADDER.fastest).memory_w
        p200 = MODEL.measure(delta, LADDER.slowest).memory_w
        assert p200 < p800

    def test_device_clock_decoupling(self):
        delta = make_delta(CFG)
        coupled = MODEL.measure(delta, LADDER.fastest)
        decoupled = MODEL.measure(delta, LADDER.fastest,
                                  device_bus_mhz=400.0)
        # device background drops, but PLL/REG and MC stay at full speed
        assert decoupled.background_w < coupled.background_w
        assert decoupled.pll_reg_w == pytest.approx(coupled.pll_reg_w)
        assert decoupled.mc_w == pytest.approx(coupled.mc_w)

    @given(FREQS)
    @settings(max_examples=20, deadline=None)
    def test_measure_nonnegative_for_all_frequencies(self, bus_mhz):
        b = MODEL.measure(make_delta(CFG), freq(bus_mhz))
        assert b.memory_w >= 0


class TestPredict:
    def test_predict_at_same_frequency_close_to_measure(self):
        # a self-consistent delta: recorded busy time equals the burst
        # time implied by the access counts at the measured frequency
        reads, writes = 90.0, 10.0
        busy_frac = ((reads + writes) * LADDER.fastest.burst_ns
                     / (CFG.org.channels * 10_000.0))
        delta = make_delta(CFG, reads=reads, writes=writes,
                           busy_frac=busy_frac)
        measured = MODEL.measure(delta, LADDER.fastest)
        predicted = MODEL.predict(delta, LADDER.fastest, time_scale=1.0)
        assert predicted.memory_w == pytest.approx(measured.memory_w,
                                                   rel=0.05)

    def test_predict_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            MODEL.predict(make_delta(CFG), LADDER.fastest, time_scale=0.0)

    def test_predicted_power_lower_at_lower_frequency(self):
        delta = make_delta(CFG)
        fast = MODEL.predict(delta, LADDER.fastest, time_scale=1.0)
        slow = MODEL.predict(delta, LADDER.slowest, time_scale=1.1)
        assert slow.memory_w < fast.memory_w

    def test_longer_runtime_spreads_actpre_power(self):
        delta = make_delta(CFG)
        short = MODEL.predict(delta, LADDER.fastest, time_scale=1.0)
        long = MODEL.predict(delta, LADDER.fastest, time_scale=2.0)
        # same activation count over twice the time = half the power
        assert long.actpre_w == pytest.approx(short.actpre_w / 2)

    @given(FREQS, st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_predict_components_nonnegative(self, bus_mhz, scale):
        b = MODEL.predict(make_delta(CFG), freq(bus_mhz), time_scale=scale)
        for field in dataclasses.fields(b):
            assert getattr(b, field.name) >= 0


class TestProportionalityKnob:
    def test_less_proportional_hardware_draws_more_at_idle(self):
        flat = PowerModel(CFG.with_power(proportionality_idle_frac=1.0))
        prop = PowerModel(CFG.with_power(proportionality_idle_frac=0.0))
        assert (flat.mc_power_w(0.0, LADDER.fastest)
                > prop.mc_power_w(0.0, LADDER.fastest))
        assert (flat.pll_reg_power_w(0.0, 800.0)
                > prop.pll_reg_power_w(0.0, 800.0))

    def test_peak_power_unchanged_by_proportionality(self):
        flat = PowerModel(CFG.with_power(proportionality_idle_frac=1.0))
        prop = PowerModel(CFG.with_power(proportionality_idle_frac=0.0))
        assert (flat.mc_power_w(1.0, LADDER.fastest)
                == pytest.approx(prop.mc_power_w(1.0, LADDER.fastest)))
