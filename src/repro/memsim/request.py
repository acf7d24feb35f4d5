"""Memory request objects flowing through the simulated controller."""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

from repro.memsim.address import MemoryLocation

_request_ids = itertools.count()


class RequestKind(enum.Enum):
    """LLC miss (read) or LLC writeback (write)."""

    READ = "read"
    WRITE = "write"


_READ = RequestKind.READ


class MemRequest:
    """One cache-line transfer request.

    Timestamps are filled in as the request progresses so that latency can
    be decomposed into MC processing, bank queueing, bank service, bus
    blocking, and burst transfer — the same decomposition the performance
    model of Section 3.3 uses.
    """

    __slots__ = (
        "request_id", "kind", "is_read", "core_id", "app_id", "location",
        "issue_ns", "arrive_bank_ns", "bank_start_ns",
        "act_ns", "bank_done_ns", "bus_start_ns", "complete_ns",
        "on_complete", "row_hit", "open_row_miss", "powerdown_exit",
    )

    def __init__(self, kind: RequestKind, location: MemoryLocation,
                 core_id: int = 0, app_id: int = 0,
                 on_complete: Optional[Callable[["MemRequest"], None]] = None):
        self.request_id = next(_request_ids)
        self.kind = kind
        #: plain attribute (not a property): read on every scheduling
        #: decision, so the enum comparison is paid once at construction
        self.is_read = kind is _READ
        self.core_id = core_id
        self.app_id = app_id
        self.location = location
        self.on_complete = on_complete
        self.issue_ns: float = -1.0
        self.arrive_bank_ns: float = -1.0
        self.bank_start_ns: float = -1.0
        self.act_ns: float = -1.0  #: activate command time (-1 for row hits)
        self.bank_done_ns: float = -1.0
        self.bus_start_ns: float = -1.0
        self.complete_ns: float = -1.0
        self.row_hit = False
        self.open_row_miss = False
        self.powerdown_exit = False

    @property
    def total_latency_ns(self) -> float:
        """Issue-to-completion latency; -1 if not yet complete."""
        if self.complete_ns < 0 or self.issue_ns < 0:
            return -1.0
        return self.complete_ns - self.issue_ns

    @property
    def bank_queue_ns(self) -> float:
        """Time spent waiting for the bank to become available."""
        if self.bank_start_ns < 0 or self.arrive_bank_ns < 0:
            return -1.0
        return self.bank_start_ns - self.arrive_bank_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemRequest(#{self.request_id} {self.kind.value} "
                f"core={self.core_id} ch={self.location.channel} "
                f"rank={self.location.rank} bank={self.location.bank} "
                f"row={self.location.row})")
