"""Tests for the per-epoch performance-model error (analysis/model_error.py)."""

import numpy as np
import pytest

from repro.analysis import cpi_errors
from repro.config import scaled_config
from repro.core.frequency import FrequencyLadder
from repro.core.policy import FrequencyDecision
from repro.sim.results import EpochSample

POINT = FrequencyLadder(scaled_config()).fastest
CORE_APPS = ["mcf", "mcf", "gcc", "art"]


def decision(*predicted_cpi):
    return FrequencyDecision(chosen=POINT, feasible=[POINT.bus_mhz],
                             ser=1.0, predicted_cpi=np.array(predicted_cpi),
                             limited_by_slack=False)


def sample(app_cpi):
    return EpochSample(time_ns=0.0, bus_mhz=POINT.bus_mhz, app_cpi=app_cpi,
                       channel_util=np.zeros(4), memory_power_w=0.0)


class TestCpiErrors:
    def test_app_prediction_is_the_mean_over_its_cores(self):
        # mcf runs on cores 0 and 1: predicted (1 + 3) / 2 = 2
        errors = cpi_errors([decision(1.0, 3.0, 2.0, 5.0)],
                            [sample({"mcf": 2.5, "art": 4.0})], CORE_APPS)
        assert errors == pytest.approx([0.5 / 2.5, 1.0 / 4.0])

    def test_skips_non_positive_achieved_and_unknown_apps(self):
        errors = cpi_errors(
            [decision(1.0, 3.0, 2.0, 5.0)],
            [sample({"mcf": 0.0, "gcc": -1.0, "swim": 2.0, "art": 4.0})],
            CORE_APPS)
        assert errors == pytest.approx([0.25])

    def test_pairs_epochs_in_order_and_stops_at_the_shorter(self):
        decisions = [decision(2.0, 2.0, 2.0, 2.0),
                     decision(3.0, 3.0, 3.0, 3.0)]
        timeline = [sample({"gcc": 4.0}), sample({"gcc": 2.0}),
                    sample({"gcc": 1.0})]
        assert cpi_errors(decisions, timeline, CORE_APPS) \
            == pytest.approx([0.5, 0.5])
        assert cpi_errors(decisions[:1], timeline, CORE_APPS) \
            == pytest.approx([0.5])

    def test_no_epochs_no_errors(self):
        assert cpi_errors([], [sample({"gcc": 1.0})], CORE_APPS) == []
