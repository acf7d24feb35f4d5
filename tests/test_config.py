"""Unit tests for repro.config (Table 2 parameters and validation)."""

import dataclasses

import pytest

from repro.config import (
    AVAILABLE_BUS_FREQS_MHZ,
    NS_PER_MS,
    NS_PER_US,
    ConfigError,
    CpuConfig,
    DramCurrents,
    DramTimings,
    MemoryOrgConfig,
    PolicyConfig,
    PowerConfig,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    scaled_config,
)


class TestDramTimings:
    def test_table2_defaults(self):
        t = DramTimings()
        assert t.t_rcd_ns == 15.0
        assert t.t_rp_ns == 15.0
        assert t.t_cl_ns == 15.0
        assert t.t_xp_ns == 6.0
        assert t.t_xpdll_ns == 24.0
        assert t.refresh_period_ns == 64.0 * NS_PER_MS

    def test_cycle_denominated_params_converted_at_800mhz(self):
        # Table 2 gives tFAW=20, tRTP=5, tRAS=28, tRRD=4 in 800 MHz cycles.
        t = DramTimings()
        cycle = 1000.0 / 800.0
        assert t.t_faw_ns == pytest.approx(20 * cycle)
        assert t.t_rtp_ns == pytest.approx(5 * cycle)
        assert t.t_ras_ns == pytest.approx(28 * cycle)
        assert t.t_rrd_ns == pytest.approx(4 * cycle)

    def test_trc_is_ras_plus_rp(self):
        t = DramTimings()
        assert t.t_rc_ns == pytest.approx(t.t_ras_ns + t.t_rp_ns)

    def test_trefi_from_retention_window(self):
        t = DramTimings()
        assert t.t_refi_ns == pytest.approx(64.0 * NS_PER_MS / 8192)

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DramTimings(), t_cl_ns=0.0).validate()

    def test_rejects_ras_below_rcd(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DramTimings(), t_ras_ns=10.0).validate()

    def test_rejects_refresh_interval_below_rfc(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DramTimings(),
                                refresh_period_ns=8192 * 50.0).validate()


class TestDramCurrents:
    def test_table2_defaults(self):
        c = DramCurrents()
        assert c.vdd == 1.575
        assert c.idd4r == 0.250
        assert c.idd0 == 0.120
        assert c.idd3n == 0.067
        assert c.idd2n == 0.070
        assert c.idd2p == 0.045
        assert c.idd5 == 0.240

    def test_rejects_negative_current(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DramCurrents(), idd0=-1.0).validate()

    def test_rejects_static_fraction_out_of_range(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DramCurrents(), static_fraction=1.5).validate()

    def test_rejects_burst_current_below_standby(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DramCurrents(), idd4r=0.01).validate()


class TestMemoryOrgConfig:
    def test_table2_topology(self):
        org = MemoryOrgConfig()
        assert org.channels == 4
        assert org.total_dimms == 8
        assert org.ranks_per_channel == 4
        assert org.total_ranks == 16
        assert org.total_banks == 128

    def test_lines_per_row(self):
        org = MemoryOrgConfig()
        assert org.lines_per_row == 8192 // 64

    def test_rejects_zero_channels(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(MemoryOrgConfig(), channels=0).validate()

    def test_rejects_misaligned_row_size(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(MemoryOrgConfig(),
                                row_size_bytes=100).validate()


class TestCpuConfig:
    def test_defaults(self):
        cpu = CpuConfig()
        assert cpu.cores == 16
        assert cpu.freq_mhz == 4000.0
        assert cpu.cycle_ns == pytest.approx(0.25)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(CpuConfig(), cores=0).validate()
        with pytest.raises(ConfigError):
            dataclasses.replace(CpuConfig(), cpi_cpu=0.0).validate()


class TestPowerConfig:
    def test_mc_power_range(self):
        p = PowerConfig()
        assert p.mc_peak_w == 15.0
        assert p.mc_idle_w == pytest.approx(7.5)  # 50% proportionality

    def test_register_power_range(self):
        p = PowerConfig()
        assert p.register_peak_w_per_dimm == 0.5
        assert p.register_idle_w_per_dimm == pytest.approx(0.25)

    def test_proportionality_moves_idle_power(self):
        p = dataclasses.replace(PowerConfig(), proportionality_idle_frac=0.0)
        assert p.mc_idle_w == 0.0
        p = dataclasses.replace(PowerConfig(), proportionality_idle_frac=1.0)
        assert p.mc_idle_w == p.mc_peak_w

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PowerConfig(),
                                memory_power_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            dataclasses.replace(PowerConfig(),
                                proportionality_idle_frac=2.0).validate()

    def test_rejects_bad_voltage_range(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PowerConfig(), mc_vmax=0.5).validate()


class TestPolicyConfig:
    def test_defaults(self):
        p = PolicyConfig()
        assert p.cpi_bound == 0.10
        assert p.epoch_ns == 5.0 * NS_PER_MS
        assert p.profile_ns == 300.0 * NS_PER_US

    def test_transition_penalty_at_800mhz(self):
        p = PolicyConfig()
        assert p.transition_penalty_ns(800.0) == pytest.approx(512 * 1.25 + 28)

    def test_transition_penalty_grows_at_lower_frequency(self):
        p = PolicyConfig()
        assert p.transition_penalty_ns(200.0) > p.transition_penalty_ns(800.0)

    def test_rejects_profile_longer_than_epoch(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PolicyConfig(), profile_ns=6.0 * NS_PER_MS,
                                epoch_ns=5.0 * NS_PER_MS).validate()


class TestSystemConfig:
    def test_default_is_valid(self):
        default_config().validate()

    def test_ten_frequencies(self):
        assert len(AVAILABLE_BUS_FREQS_MHZ) == 10
        assert max(AVAILABLE_BUS_FREQS_MHZ) == 800.0
        assert min(AVAILABLE_BUS_FREQS_MHZ) == 200.0

    def test_sorted_bus_freqs_descending(self):
        cfg = default_config()
        freqs = cfg.sorted_bus_freqs()
        assert freqs == sorted(freqs, reverse=True)
        assert freqs[0] == 800.0

    def test_rejects_duplicate_frequencies(self):
        cfg = dataclasses.replace(default_config(),
                                  bus_freqs_mhz=(800.0, 800.0))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_empty_frequency_set(self):
        cfg = dataclasses.replace(default_config(), bus_freqs_mhz=())
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_with_policy_returns_new_config(self):
        cfg = default_config()
        cfg2 = cfg.with_policy(cpi_bound=0.05)
        assert cfg2.policy.cpi_bound == 0.05
        assert cfg.policy.cpi_bound == 0.10  # original untouched

    def test_with_org_and_cpu_helpers(self):
        cfg = default_config().with_org(channels=2).with_cpu(cores=32)
        assert cfg.org.channels == 2
        assert cfg.cpu.cores == 32

    @pytest.mark.parametrize("name, config", [
        ("DramTimings.t_rcd_ns",
         default_config().replace(timings=DramTimings(t_rcd_ns=float("nan")))),
        ("DramCurrents.idd0",
         default_config().replace(currents=DramCurrents(idd0=float("nan")))),
        ("PolicyConfig.cpi_bound",
         default_config().with_policy(cpi_bound=float("nan"))),
        ("PolicyConfig.epoch_ns",
         default_config().with_policy(epoch_ns=float("nan"))),
        ("PowerConfig.mc_peak_w",
         default_config().with_power(mc_peak_w=float("inf"))),
        ("SystemConfig.bus_freqs_mhz",
         dataclasses.replace(default_config(),
                             bus_freqs_mhz=(800.0, float("nan")))),
        ("SystemConfig.bus_freqs_mhz",
         dataclasses.replace(default_config(),
                             bus_freqs_mhz=(float("inf"), 800.0))),
    ], ids=["t_rcd_ns-nan", "idd0-nan", "cpi_bound-nan", "epoch_ns-nan",
            "mc_peak_w-inf", "bus_freq-nan", "bus_freq-inf"])
    def test_rejects_non_finite_values_by_name(self, name, config):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            config.validate()


class TestConfigFromDict:
    def test_drops_the_retired_surrogate_flag_when_false(self):
        payload = config_to_dict(scaled_config())
        payload["approx_steady_state"] = False
        assert config_from_dict(payload) == scaled_config()

    def test_refuses_the_retired_surrogate_flag_when_true(self):
        payload = config_to_dict(scaled_config())
        payload["approx_steady_state"] = True
        with pytest.raises(ConfigError,
                           match="surrogate has been removed.*fresh --dir"):
            config_from_dict(payload)

    @pytest.mark.parametrize("value", [True, False])
    def test_drops_the_retired_busy_absorption_flag(self, value):
        # The removed chain-absorption path was exact either way, so a
        # ledger written with it on or off still describes this config.
        payload = config_to_dict(scaled_config())
        payload["busy_absorption"] = value
        assert config_from_dict(payload) == scaled_config()

    def test_rejects_unknown_fields(self):
        payload = config_to_dict(scaled_config())
        payload["warp_drive"] = True
        with pytest.raises(ConfigError, match="warp_drive"):
            config_from_dict(payload)


class TestScaledConfig:
    def test_scaled_epoch_lengths(self):
        cfg = scaled_config(epoch_ns=50_000.0, profile_ns=5_000.0)
        assert cfg.policy.epoch_ns == 50_000.0
        assert cfg.policy.profile_ns == 5_000.0

    def test_transition_cost_shrinks_proportionally(self):
        paper = default_config()
        scaled = scaled_config(epoch_ns=paper.policy.epoch_ns / 250)
        ratio_paper = (paper.policy.transition_penalty_ns(800.0)
                       / paper.policy.epoch_ns)
        ratio_scaled = (scaled.policy.transition_penalty_ns(800.0)
                        / scaled.policy.epoch_ns)
        assert ratio_scaled == pytest.approx(ratio_paper, rel=1e-6)

    def test_physical_parameters_unchanged(self):
        cfg = scaled_config()
        assert cfg.timings == default_config().timings
        assert cfg.currents == default_config().currents
