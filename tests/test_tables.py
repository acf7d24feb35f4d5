"""Unit tests for the reporting helpers."""

import pytest

from repro.analysis import (
    bar,
    format_bar_chart,
    format_series,
    format_table,
    percent,
    savings_table,
)


class TestFormatTable:
    def test_alignment_and_rows(self):
        out = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_floats_formatted(self):
        out = format_table(["x"], [[1.23456]])
        assert "1.235" in out

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestPercentAndBar:
    def test_percent(self):
        assert percent(0.123) == "+12.3%"
        assert percent(-0.05) == "-5.0%"

    def test_bar_full_and_empty(self):
        assert bar(1.0, scale=1.0, width=10) == "#" * 10
        assert bar(0.0, scale=1.0, width=10) == ""

    def test_bar_clamps(self):
        assert bar(5.0, scale=1.0, width=10) == "#" * 10
        assert bar(-1.0, scale=1.0, width=10) == ""

    def test_bar_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            bar(0.5, scale=0.0)


class TestCharts:
    def test_bar_chart_lines(self):
        out = format_bar_chart([("a", 0.5), ("long", 0.25)], scale=1.0,
                               width=8, title="chart")
        lines = out.splitlines()
        assert lines[0] == "chart"
        assert len(lines) == 3
        assert "50.0%" in lines[1]

    def test_series(self):
        out = format_series([1.0, 2.0], [10.0, 20.0], "t", "v",
                            y_format="{:.0f}")
        assert "10" in out and "20" in out

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series([1.0], [1.0, 2.0], "t", "v")


class TestSavingsTable:
    def test_rows_and_columns(self):
        out = savings_table({"MID1": {"mem": 0.4, "sys": 0.15}})
        assert "MID1" in out
        assert "+40.0%" in out
        assert "+15.0%" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            savings_table({})


class TestCapSummaryTable:
    """The cap kind's table, rendered through ``outcome_table`` from
    hand-built outcomes."""

    @staticmethod
    def outcome(mix="MID1", budget_fraction=0.9, governor="Cap-20.00W",
                budget_w=20.0, cap=None, min_perf=0.95):
        from repro.sim.parallel import JobSpec, Outcome
        from repro.sim.results import PolicyComparison

        if cap is None and budget_fraction is not None:
            cap = {"violation_count": 0, "time_over_cap_fraction": 0.0,
                   "infeasible_epochs": 1, "peak_power_w": 20.1}
        comparison = PolicyComparison(
            workload=mix, governor=governor, memory_energy_savings=0.2,
            system_energy_savings=0.08, avg_cpi_increase=0.03,
            worst_cpi_increase=0.05, app_cpi_increase={},
            rest_power_w=0.0, energy_breakdown_j={},
            baseline_breakdown_j={})
        return Outcome(
            spec=JobSpec("cap", mix, budget_fraction=budget_fraction),
            result=None, comparison=comparison,
            extras={"budget_w": budget_w, "governor": governor,
                    "min_perf": min_perf, "avg_power_w": 19.2, "cap": cap},
            wall_s=0.0)

    def test_renders_all_columns(self):
        from repro.sim.parallel import outcome_table
        out = outcome_table([self.outcome()], "power-cap sweep")
        assert "power-cap sweep" in out
        assert "90%" in out
        assert "20.00" in out
        assert "0.950" in out
        assert "+5.0%" in out and "+8.0%" in out

    def test_empty_rejected(self):
        from repro.sim.parallel import outcome_table
        with pytest.raises(ValueError, match="no outcomes"):
            outcome_table([], "power-cap sweep")

    def test_none_budget_columns_render_as_dash(self):
        from repro.sim.parallel import outcome_table
        throttle = self.outcome(governor="Static-200MHz",
                                budget_fraction=None, budget_w=None)
        out = outcome_table([throttle], title=None)
        row_line = out.splitlines()[-1]
        assert row_line.split().count("-") >= 5

    def test_single_row_single_app_mix(self):
        from repro.sim.parallel import outcome_table
        out = outcome_table([self.outcome(mix="ILP1", min_perf=1.0)],
                            "power-cap sweep")
        assert "ILP1" in out
        assert "1.000" in out
