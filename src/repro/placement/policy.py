"""Placement policy: hot/cold classification, migration, SR parking.

Runs once per epoch (from :class:`~repro.placement.governor.
PlacementGovernor`). Three mechanisms, in order:

1. **Migration** — the hottest pages living outside the target (hot)
   groups are re-homed into them, up to the per-epoch budget. The copy
   cost is not a constant but real traffic: every migrated line becomes
   a READ from the old location plus a WRITE to the new one, driven
   through the controller by the :class:`MigrationPump` so it is timed,
   power-accounted, and protocol-validated like demand traffic.
2. **Allocation steering** — once the hot set is established, new pages
   are first-touch allocated into hot groups instead of spread.
3. **Parking (adaptive demotion)** — a group with zero accesses for
   ``sr_idle_epochs`` consecutive epochs has all its ranks parked in
   SELF_REFRESH (IDD6 power, refresh suspended). A later demand access
   wakes the rank through the normal powerdown-exit path, paying the
   tCKESR residual plus tXS. Groups touched by in-flight migration
   traffic are never parked in the same epoch.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.config import MemoryOrgConfig, PlacementConfig
from repro.memsim.address import MemoryLocation
from repro.memsim.controller import (WRITEBACK_QUEUE_CAPACITY,
                                     MemoryController)
from repro.memsim.request import MemRequest, RequestKind
from repro.placement.table import PageTable

#: Outstanding migration reads the pump keeps in flight; each completed
#: read submits its paired write and the next read, so copy traffic
#: trickles in behind demand traffic instead of flooding the queues.
MAX_MIGRATION_READS_IN_FLIGHT = 4

#: Writeback-queue headroom the pump preserves: a migration write is
#: deferred while its channel's queue is this close to capacity.
WB_HEADROOM = 4

#: Delay before re-trying a deferred migration write (ns).
WB_RETRY_NS = 200.0


class MigrationPump:
    """Drives page-copy traffic through the controller at a bounded rate."""

    def __init__(self, controller: MemoryController,
                 max_in_flight: int = MAX_MIGRATION_READS_IN_FLIGHT):
        self._controller = controller
        self._engine = controller.engine
        self._max_in_flight = max_in_flight
        self._queue: Deque[Tuple[MemoryLocation, MemoryLocation]] = deque()
        self._reads_in_flight = 0
        self.reads_submitted = 0
        self.writes_submitted = 0
        self.lines_copied = 0

    @property
    def controller(self) -> MemoryController:
        return self._controller

    @property
    def idle(self) -> bool:
        """No copy traffic queued or in flight."""
        return not self._queue and self._reads_in_flight == 0

    @property
    def backlog(self) -> int:
        return len(self._queue) + self._reads_in_flight

    def enqueue(self, pairs: List[Tuple[MemoryLocation,
                                        MemoryLocation]]) -> None:
        self._queue.extend(pairs)
        self._kick()

    def _kick(self) -> None:
        while self._reads_in_flight < self._max_in_flight and self._queue:
            old_loc, new_loc = self._queue.popleft()
            self._reads_in_flight += 1
            self.reads_submitted += 1
            request = MemRequest(
                RequestKind.READ, old_loc,
                on_complete=lambda req, dst=new_loc: self._read_done(dst))
            self._controller.submit(request)

    def _read_done(self, new_loc: MemoryLocation) -> None:
        self._reads_in_flight -= 1
        self._submit_write(new_loc)
        self._kick()

    def _submit_write(self, new_loc: MemoryLocation) -> None:
        controller = self._controller
        occupancy = controller.wb_queue_occupancy(new_loc.channel)
        if occupancy >= WRITEBACK_QUEUE_CAPACITY - WB_HEADROOM:
            # queue near capacity: retry shortly instead of overflowing
            self._engine.post(WB_RETRY_NS, self._submit_write, new_loc)
            return
        self.writes_submitted += 1
        self.lines_copied += 1
        controller.submit(MemRequest(RequestKind.WRITE, new_loc))

    def stats(self) -> Dict[str, int]:
        return {
            "reads_submitted": self.reads_submitted,
            "writes_submitted": self.writes_submitted,
            "lines_copied": self.lines_copied,
            "backlog": self.backlog,
        }


class PlacementPolicy:
    """Per-epoch page classification, migration planning, and parking."""

    def __init__(self, placement: PlacementConfig, org: MemoryOrgConfig):
        placement.validate()
        self._cfg = placement
        n_groups = org.ranks_per_channel
        hot_n = min(n_groups,
                    max(1, math.ceil(n_groups * placement.hot_group_fraction)))
        #: migration targets; never parked
        self.hot_groups: Tuple[int, ...] = tuple(range(hot_n))
        self._n_groups = n_groups
        self._idle_epochs = [0] * n_groups
        self._target_rr = 0
        self._steered = False
        # per-epoch outputs (telemetry)
        self.last_migrations = 0
        self.last_parked_ranks = 0
        self.total_migrations = 0
        self.total_parks = 0

    def on_epoch_end(self, controller: MemoryController, table: PageTable,
                     pump: MigrationPump) -> Dict[str, int]:
        """One policy step; returns this epoch's placement actions."""
        cfg = self._cfg
        counts = table.collect_epoch()
        group_counts = [0] * self._n_groups
        for page, count in counts.items():
            group_counts[table.group_of(page)] += count

        # 1. migrate hot off-target pages into the hot groups; only plan
        #    new copies once the previous epoch's traffic has drained
        hot_set = set(self.hot_groups)
        migrated_groups = set()
        migrations = 0
        if cfg.migrations_per_epoch > 0 and pump.idle:
            candidates = sorted(
                ((count, page) for page, count in counts.items()
                 if count >= cfg.hot_page_min_accesses
                 and table.group_of(page) not in hot_set),
                reverse=True)
            for count, page in candidates[:cfg.migrations_per_epoch]:
                target = self.hot_groups[self._target_rr
                                         % len(self.hot_groups)]
                self._target_rr += 1
                old_group = table.group_of(page)
                pairs = table.migrate(page, target)
                if not pairs:
                    continue
                pump.enqueue(pairs)
                migrated_groups.add(old_group)
                migrated_groups.add(target)
                migrations += 1
        self.last_migrations = migrations
        self.total_migrations += migrations

        # 2. steer new allocations to the hot set once traffic was seen
        if not self._steered and counts:
            table.steer_to(self.hot_groups)
            self._steered = True

        # 3. park groups that stayed cold (adaptive demotion to SR)
        parked = 0
        copy_active = not pump.idle
        for group in range(self._n_groups):
            active = (group_counts[group] > 0 or group in migrated_groups
                      or group in hot_set)
            if active or copy_active:
                self._idle_epochs[group] = 0
                continue
            self._idle_epochs[group] += 1
            if self._idle_epochs[group] >= cfg.sr_idle_epochs:
                for rank_index in table.group_ranks(group):
                    if controller.ranks[rank_index].enter_self_refresh():
                        parked += 1
        self.last_parked_ranks = parked
        self.total_parks += parked

        return {
            "migrations": migrations,
            "parked_ranks": parked,
            "group_accesses": group_counts,
        }
