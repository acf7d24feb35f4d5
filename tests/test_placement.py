"""Tests for rank-aware page placement (placement/) and SR parking.

Four layers:

* unit tests of the :class:`PageTable` indirection — decode geometry,
  migration pair generation, allocation steering, epoch counters;
* a hypothesis *off-path* property: with ``placement.enabled`` False
  the knob values must be invisible — a run serializes byte-identically
  to the pristine config (the golden-snapshot-style guard, modeled on
  test_fast_forward.py);
* hypothesis protocol properties: randomized traffic x migration
  cadence x SR thresholds against a real armed controller — zero
  violations, and the migration copy ledger conserves (every migrated
  line was copied or sits in the pump's tracked backlog);
* full-system accounting: the placed leg's extra controller traffic is
  exactly the pump's reads and writes (migration copies are real,
  power-accounted requests, not free).
"""

import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import scaled_config
from repro.cpu import core_model
from repro.memsim.controller import (
    WRITEBACK_QUEUE_CAPACITY,
    MemoryController,
)
from repro.memsim.engine import EventEngine
from repro.memsim.states import PowerdownMode
from repro.placement.policy import MigrationPump, PlacementPolicy
from repro.placement.table import PageTable
from repro.sim.runner import ExperimentRunner, RunnerSettings
from repro.sim.serialize import run_result_to_dict
from repro.sim.system import SystemSimulator

CFG = scaled_config()
ORG = CFG.org
SETTINGS = RunnerSettings(cores=4, instructions_per_core=2_000, seed=2011)

#: Legal page sizes: multiples of channels * banks_per_rank (= 32).
PAGE_LINES = (32, 64, 128)


def make_table(**overrides):
    placement = dataclasses.replace(CFG.placement, enabled=True, **overrides)
    return PageTable(ORG, placement)


def result_bytes(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True).encode()


class TestPageTable:
    def test_page_lines_must_stripe_evenly(self):
        with pytest.raises(ValueError, match="multiple of"):
            make_table(page_lines=ORG.channels * ORG.banks_per_rank + 1)

    def test_decode_confines_a_page_to_its_group(self):
        table = make_table(page_lines=32)
        page = 5
        locations = [table.decode(page * 32 + off) for off in range(32)]
        group = table.group_of(page)
        assert {loc.rank for loc in locations} == {group}
        # full bus parallelism: the page still stripes over every
        # channel and every bank
        assert {loc.channel for loc in locations} \
            == set(range(ORG.channels))
        assert {loc.bank for loc in locations} \
            == set(range(ORG.banks_per_rank))

    def test_spread_initial_uses_every_group(self):
        table = make_table(page_lines=32)
        for page in range(table.n_groups):
            table.decode(page * 32)
        groups = {table.group_of(p) for p in range(table.n_groups)}
        assert groups == set(range(table.n_groups))

    def test_group_ranks_one_per_channel(self):
        table = make_table()
        rpc = ORG.ranks_per_channel
        for group in range(table.n_groups):
            ranks = table.group_ranks(group)
            assert ranks == [c * rpc + group for c in range(ORG.channels)]
        # groups partition the global rank space
        every = sorted(r for g in range(table.n_groups)
                       for r in table.group_ranks(g))
        assert every == list(range(ORG.total_ranks))

    def test_migrate_generates_full_copy_pairs_and_remaps(self):
        table = make_table(page_lines=32)
        page = 0
        table.decode(page * 32)
        old_group = table.group_of(page)
        new_group = (old_group + 1) % table.n_groups
        pairs = table.migrate(page, new_group)
        assert len(pairs) == 32
        assert all(old.rank == old_group and new.rank == new_group
                   for old, new in pairs)
        # the copy preserves the channel/bank stripe line-for-line
        assert all((old.channel, old.bank) == (new.channel, new.bank)
                   for old, new in pairs)
        # demand decode follows the new home immediately
        assert table.decode(page * 32).rank == new_group
        assert table.stats()["migrated_lines"] == 32

    def test_migrate_to_same_group_is_a_no_op(self):
        table = make_table(page_lines=32)
        table.decode(0)
        assert table.migrate(0, table.group_of(0)) == []
        assert table.stats()["migrations"] == 0

    def test_migrate_to_unknown_group_rejected(self):
        table = make_table(page_lines=32)
        table.decode(0)
        with pytest.raises(ValueError, match="no such rank group"):
            table.migrate(0, table.n_groups)

    def test_steering_redirects_first_touch_allocation(self):
        table = make_table(page_lines=32)
        table.steer_to([2])
        table.decode(7 * 32)
        assert table.group_of(7) == 2
        table.steer_to(None)
        table.decode(9 * 32)
        assert table.group_of(9) == 9 % table.n_groups

    def test_collect_epoch_returns_and_resets_counts(self):
        table = make_table(page_lines=32)
        for _ in range(3):
            table.decode(0)
        table.decode(32)
        assert table.collect_epoch() == {0: 3, 1: 1}
        # counters reset: an empty epoch collects nothing
        assert table.collect_epoch() == {}


class TestDisabledPlacementIsInvisible:
    """Satellite guard: placement *disabled* must be a byte-level no-op.

    The controller keeps ``_decode = mapper.decode`` (the same bound
    method) when ``placement.enabled`` is False, so whatever the other
    knobs say, a run must serialize byte-identically to the pristine
    config — the same invariant the golden snapshot pins for the
    committed mixes.
    """

    @given(mix=st.sampled_from(["MID1", "ILP1", "MEM1"]),
           policy=st.sampled_from(["Baseline", "MemScale",
                                   "MemScale+Fast-PD"]),
           page_lines=st.sampled_from(PAGE_LINES),
           migrations=st.integers(min_value=0, max_value=32),
           sr_idle=st.integers(min_value=1, max_value=4),
           spread=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_knobs_without_enable_are_byte_invisible(
            self, mix, policy, page_lines, migrations, sr_idle, spread):
        knobbed = CFG.with_placement(page_lines=page_lines,
                                     migrations_per_epoch=migrations,
                                     sr_idle_epochs=sr_idle,
                                     spread_initial=spread)
        assert not knobbed.placement.enabled
        base_result, _ = ExperimentRunner(
            config=CFG, settings=SETTINGS,
            cache=None).run_named_policy(mix, policy)
        knob_result, _ = ExperimentRunner(
            config=knobbed, settings=SETTINGS,
            cache=None).run_named_policy(mix, policy)
        assert result_bytes(base_result) == result_bytes(knob_result)

    def test_disabled_config_builds_no_page_table(self):
        engine = EventEngine()
        mc = MemoryController(engine, CFG, refresh_enabled=False, n_cores=4)
        assert mc.placement is None
        assert mc._decode == mc.mapper.decode


class TestRandomizedPlacementProtocol:
    """Randomized traffic x cadence x thresholds on an armed controller.

    The validator runs in raise mode (``validate_protocol=True``), so
    any self-refresh state-machine, refresh-suspension, or timing
    offense fails at the exact command; afterwards the migration copy
    ledger must conserve.
    """

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_traffic_and_migration_zero_violations(self, data):
        cfg = scaled_config().with_placement(
            enabled=True,
            page_lines=data.draw(st.sampled_from(PAGE_LINES),
                                 label="page_lines"),
            migrations_per_epoch=data.draw(st.integers(1, 8),
                                           label="migrations_per_epoch"),
            sr_idle_epochs=data.draw(st.integers(1, 3),
                                     label="sr_idle_epochs"),
            hot_group_fraction=data.draw(st.sampled_from([0.25, 0.5]),
                                         label="hot_group_fraction"),
        ).replace(validate_protocol=True)
        engine = EventEngine()
        mc = MemoryController(
            engine, cfg,
            powerdown_mode=data.draw(
                st.sampled_from([PowerdownMode.NONE,
                                 PowerdownMode.FAST_EXIT]),
                label="powerdown"),
            refresh_enabled=True, n_cores=4)
        table = mc.placement
        policy = PlacementPolicy(cfg.placement, cfg.org)
        pump = MigrationPump(mc)
        hot_span = 4 * cfg.placement.page_lines
        for _ in range(data.draw(st.integers(3, 6), label="n_epochs")):
            for _ in range(data.draw(st.integers(5, 40), label="n_ops")):
                addr = data.draw(st.integers(0, (1 << 20) - 1),
                                 label="line_addr")
                if data.draw(st.booleans(), label="is_hot"):
                    addr %= hot_span  # skew: half the traffic is hot
                if data.draw(st.booleans(), label="is_read"):
                    mc.submit_read(addr)
                else:
                    channel = mc.mapper.decode(addr).channel
                    if (mc.wb_queue_occupancy(channel)
                            < WRITEBACK_QUEUE_CAPACITY):
                        mc.submit_writeback(addr)
                gap = data.draw(st.floats(min_value=0.0, max_value=40.0),
                                label="gap_ns")
                engine.run_until(engine.now + gap)
            engine.run_until(engine.now + 500.0)
            policy.on_epoch_end(mc, table, pump)
            engine.run_until(engine.now + 2_000.0)
        # drain demand and copy traffic, then keep refreshing a while
        engine.run_until(engine.now + 60_000.0)
        assert mc.pending_requests == 0
        mc.validator.finalize()
        assert mc.validator.violation_count == 0
        # copy-ledger conservation: nothing silently dropped, and with
        # the subsystem quiescent the backlog has fully drained
        assert pump.backlog == 0
        assert pump.lines_copied == table.migrated_lines
        assert pump.reads_submitted == pump.writes_submitted \
            == pump.lines_copied

    @given(mix=st.sampled_from(["MID1", "ILP2"]),
           page_lines=st.sampled_from(PAGE_LINES),
           migrations=st.integers(min_value=1, max_value=8),
           sr_idle=st.integers(min_value=1, max_value=3))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_armed_governor_runs_conserve(self, mix, page_lines,
                                          migrations, sr_idle):
        """Full-system PlacementGovernor runs, validator in raise mode:
        the run completing *is* the zero-violations assertion."""
        cfg = scaled_config().with_policy(
            epoch_ns=4_000.0, profile_ns=400.0).with_placement(
            enabled=True, page_lines=page_lines,
            migrations_per_epoch=migrations,
            sr_idle_epochs=sr_idle).replace(validate_protocol=True)
        runner = ExperimentRunner(
            config=cfg,
            settings=RunnerSettings(cores=4, instructions_per_core=8_000,
                                    seed=2011),
            cache=None)
        governor = runner.make_placement_governor(mix)
        result = runner.run_governor(mix, governor)
        assert result.epochs >= 1
        summary = governor.placement_summary()
        assert summary["lines_copied"] + summary["backlog"] \
            == summary["migrated_lines"]
        assert summary["reads_submitted"] >= summary["writes_submitted"] \
            == summary["lines_copied"]


class TestMigrationTrafficAccounting:
    """Migration copies are real controller traffic: the placed leg's
    extra completed reads/writes equal the pump's submissions exactly,
    so their energy and timing cost is fully accounted."""

    def _run(self, cfg, make_governor):
        runner = ExperimentRunner(
            config=cfg,
            settings=RunnerSettings(cores=4, instructions_per_core=20_000,
                                    seed=2011),
            cache=None)
        governor = make_governor(runner)
        sim = SystemSimulator(cfg, runner.trace("MID1"), governor)
        # count demand requests where the cores create them (each one
        # is submitted at once; the migration pump builds its own), so
        # the accounting identity below is exact even though cores that
        # finish early keep issuing timing-dependent traffic until the
        # last core reaches its target
        demand = {"n": 0}
        real_request = core_model.MemRequest

        def counting_request(*args, **kwargs):
            demand["n"] += 1
            return real_request(*args, **kwargs)

        with mock.patch.object(core_model, "MemRequest", counting_request):
            sim.run()
        return sim.controller, governor, demand["n"]

    def test_extra_traffic_equals_pump_submissions(self):
        base = scaled_config().with_policy(epoch_ns=4_000.0,
                                           profile_ns=400.0)
        off_mc, _, off_demand = self._run(
            base, lambda r: r.make_memscale_governor("MID1"))
        placed = base.with_placement(enabled=True, page_lines=32,
                                     migrations_per_epoch=4)
        on_mc, governor, on_demand = self._run(
            placed, lambda r: r.make_placement_governor("MID1"))
        summary = governor.placement_summary()
        assert summary["migrations"] > 0
        pump_total = summary["reads_submitted"] + summary["writes_submitted"]
        assert pump_total > 0
        # every submission is accounted: completed + in-flight covers
        # demand plus the pump's copy traffic, on both legs
        off_sub = (off_mc.completed_reads + off_mc.completed_writes
                   + off_mc.pending_requests)
        on_sub = (on_mc.completed_reads + on_mc.completed_writes
                  + on_mc.pending_requests)
        assert off_sub == off_demand
        assert on_sub == on_demand + pump_total


class TestPlacementGovernorWiring:
    def test_governor_requires_enabled_placement(self):
        runner = ExperimentRunner(config=CFG, settings=SETTINGS, cache=None)
        governor = runner.make_placement_governor("MID1")
        with pytest.raises(ValueError, match="placement.enabled"):
            runner.run_governor("MID1", governor)

    def test_telemetry_carries_placement_fields(self):
        from repro.sim.telemetry import (ListTelemetry,
                                         validate_epoch_record)
        cfg = scaled_config().with_policy(
            epoch_ns=4_000.0, profile_ns=400.0).with_placement(
            enabled=True, page_lines=32, migrations_per_epoch=4)
        runner = ExperimentRunner(
            config=cfg,
            settings=RunnerSettings(cores=4, instructions_per_core=8_000,
                                    seed=2011),
            cache=None)
        governor = runner.make_placement_governor("MID1")
        sink = ListTelemetry()
        runner.run_governor("MID1", governor, telemetry=sink)
        assert sink.records
        for record in sink.records:
            validate_epoch_record(record)
            assert isinstance(record["migrations_per_epoch"], int)
            assert set(record["rank_state_residency"]) == {"self_ref"}
            residency = record["rank_state_residency"]["self_ref"]
            assert len(residency) == ORG.total_ranks
            assert all(0.0 <= f <= 1.0 for f in residency)
        assert sum(r["migrations_per_epoch"] for r in sink.records) > 0
