"""Memory-subsystem simulator substrate.

Event-driven model of a DDR3 memory subsystem: controller, channels,
ranks, banks, powerdown states, frequency re-locking, and the hardware
performance-counter file of Section 3.1. The Table 2 device timings are
``repro.config.DramTimings``; banks and ranks cache them as floats.
"""

from repro.memsim.address import AddressMapper, MemoryLocation
from repro.memsim.controller import MemoryController, WRITEBACK_QUEUE_CAPACITY
from repro.memsim.counters import CounterDelta, CounterFile, CounterSnapshot
from repro.memsim.engine import EventEngine, SimulationError
from repro.memsim.request import MemRequest, RequestKind
from repro.memsim.states import AccessClass, PowerdownMode, RankPowerState
from repro.memsim.validate import (
    ProtocolValidator,
    ProtocolViolation,
    Violation,
)

__all__ = [
    "AccessClass",
    "AddressMapper",
    "CounterDelta",
    "CounterFile",
    "CounterSnapshot",
    "EventEngine",
    "MemoryController",
    "MemoryLocation",
    "MemRequest",
    "PowerdownMode",
    "ProtocolValidator",
    "ProtocolViolation",
    "RankPowerState",
    "RequestKind",
    "SimulationError",
    "Violation",
    "WRITEBACK_QUEUE_CAPACITY",
]
