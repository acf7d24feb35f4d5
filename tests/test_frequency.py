"""Unit tests for the frequency ladder and operating points."""

import pytest
from hypothesis import given, strategies as st

from repro.config import default_config
from repro.core.frequency import (
    BURST_BUS_CYCLES,
    MC_PROCESSING_CYCLES,
    FrequencyLadder,
    FrequencyPoint,
)


@pytest.fixture(scope="module")
def ladder():
    return FrequencyLadder(default_config())


class TestFrequencyPoint:
    def test_mc_runs_at_double_bus_frequency(self, ladder):
        for point in ladder:
            assert point.mc_mhz == pytest.approx(2.0 * point.bus_mhz)

    def test_cycle_times(self, ladder):
        fastest = ladder.fastest
        assert fastest.bus_cycle_ns == pytest.approx(1.25)
        assert fastest.mc_cycle_ns == pytest.approx(0.625)

    def test_burst_is_four_bus_cycles(self, ladder):
        for point in ladder:
            assert point.burst_ns == pytest.approx(
                BURST_BUS_CYCLES * 1000.0 / point.bus_mhz)

    def test_mc_latency_is_five_mc_cycles(self, ladder):
        for point in ladder:
            assert point.mc_latency_ns == pytest.approx(
                MC_PROCESSING_CYCLES * 1000.0 / point.mc_mhz)

class TestFrequencyLadder:
    def test_length_and_ordering(self, ladder):
        assert len(ladder) == 10
        freqs = [p.bus_mhz for p in ladder]
        assert freqs == sorted(freqs, reverse=True)

    def test_fastest_slowest(self, ladder):
        assert ladder.fastest.bus_mhz == 800.0
        assert ladder.slowest.bus_mhz == 200.0

    def test_indices_match_positions(self, ladder):
        for i, point in enumerate(ladder):
            assert point.index == i
            assert ladder[i] is point

    def test_voltage_interpolation_endpoints(self, ladder):
        cfg = default_config()
        assert ladder.fastest.mc_voltage == pytest.approx(cfg.power.mc_vmax)
        assert ladder.slowest.mc_voltage == pytest.approx(cfg.power.mc_vmin)

    def test_voltage_monotone_with_frequency(self, ladder):
        volts = [p.mc_voltage for p in ladder]
        assert volts == sorted(volts, reverse=True)

    def test_at_bus_mhz_exact_lookup(self, ladder):
        assert ladder.at_bus_mhz(467.0).bus_mhz == 467.0

    def test_at_bus_mhz_unknown_raises(self, ladder):
        with pytest.raises(ValueError, match="not an available"):
            ladder.at_bus_mhz(450.0)

    def test_single_frequency_ladder(self):
        cfg = default_config().replace(bus_freqs_mhz=(800.0,))
        single = FrequencyLadder(cfg)
        assert len(single) == 1
        assert single.fastest is single.slowest
        # With one MC frequency, voltage pins to the maximum.
        assert single.fastest.mc_voltage == pytest.approx(cfg.power.mc_vmax)


class TestScalingProperties:
    @given(st.sampled_from([800.0, 733.0, 667.0, 600.0, 533.0,
                            467.0, 400.0, 333.0, 267.0, 200.0]))
    def test_burst_time_inverse_in_frequency(self, bus_mhz):
        ladder = FrequencyLadder(default_config())
        point = ladder.at_bus_mhz(bus_mhz)
        assert point.burst_ns * point.bus_mhz == pytest.approx(
            BURST_BUS_CYCLES * 1000.0)

    def test_burst_monotone_decreasing_with_frequency(self):
        ladder = FrequencyLadder(default_config())
        bursts = [p.burst_ns for p in ladder]
        assert bursts == sorted(bursts)  # ascending as frequency descends
