"""Focused tests on the DDR3 inter-command windows (tFAW, tRRD, tRC).

These issue carefully-placed request bursts at a real controller and
verify the rank-level activation throttles from first principles.
"""

import pytest

from repro.config import scaled_config
from repro.memsim.address import MemoryLocation
from repro.memsim.controller import MemoryController
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest, RequestKind

CFG = scaled_config()


def drive_reads(locations):
    engine = EventEngine()
    mc = MemoryController(engine, CFG, refresh_enabled=False, n_cores=1)
    done = []
    for loc in locations:
        mc.submit(MemRequest(RequestKind.READ, loc,
                             on_complete=done.append))
    engine.run()
    return mc, done


class TestFourActivateWindow:
    def test_fifth_activate_waits_for_tfaw(self):
        # five simultaneous requests to five banks of ONE rank
        locs = [MemoryLocation(0, 0, bank, 0, 0) for bank in range(5)]
        mc, done = drive_reads(locs)
        acts = sorted(r.act_ns for r in done)
        # the 5th activate must sit at least tFAW after the 1st
        assert acts[4] - acts[0] >= CFG.timings.t_faw_ns - 1e-6

    def test_ranks_have_independent_windows(self):
        # five requests spread over two ranks: no tFAW stall needed
        locs = [MemoryLocation(0, rank % 2, bank, 0, 0)
                for rank, bank in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))]
        mc, done = drive_reads(locs)
        per_rank = {}
        for r in done:
            per_rank.setdefault(r.location.rank, []).append(r.act_ns)
        for acts in per_rank.values():
            acts.sort()
            # within a rank, consecutive activates spaced >= tRRD only
            for a, b in zip(acts, acts[1:]):
                assert b - a >= CFG.timings.t_rrd_ns - 1e-6


class TestMinActivateGap:
    def test_trrd_spacing_two_banks(self):
        locs = [MemoryLocation(0, 0, 0, 0, 0), MemoryLocation(0, 0, 1, 0, 0)]
        mc, done = drive_reads(locs)
        acts = sorted(r.act_ns for r in done)
        assert acts[1] - acts[0] >= CFG.timings.t_rrd_ns - 1e-6


class TestRowCycle:
    def test_same_bank_activates_spaced_by_trc(self):
        locs = [MemoryLocation(0, 0, 0, row, 0) for row in (1, 2)]
        mc, done = drive_reads(locs)
        acts = sorted(r.act_ns for r in done)
        assert acts[1] - acts[0] >= CFG.timings.t_rc_ns - 1e-6

    def test_row_hit_not_throttled_by_trc(self):
        # same row back-to-back: second is a hit, no new activate
        locs = [MemoryLocation(0, 0, 0, 7, col) for col in (0, 1)]
        mc, done = drive_reads(locs)
        assert mc.counters.rbhc == 1
        miss, hit = done
        # the hit performed no activate and starts as soon as the miss
        # releases the bank, well before a tRC would have elapsed
        assert miss.act_ns >= 0
        assert hit.act_ns == -1.0
        assert hit.bank_start_ns - miss.bank_start_ns < CFG.timings.t_rc_ns
