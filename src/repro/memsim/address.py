"""Physical address decomposition.

Maps a cache-line-aligned physical address onto the memory topology using
cache-line interleaving across channels, then banks, then ranks — the
layout that maximizes bank-level parallelism for the multiprogrammed
workloads the paper studies (its MC "exploits bank interleaving",
Section 4.1). Consecutive lines walk channels first, then banks, so a
streaming access pattern spreads across all channels and banks before it
revisits one.

:class:`MemoryLocation` is a :class:`~typing.NamedTuple` rather than a
frozen dataclass: it is created once per simulated request on the MC's
submit path, and tuple construction/field access run at C speed while
keeping value equality and hashability. :meth:`AddressMapper.decode`
builds it through ``tuple.__new__`` directly, skipping the Python-level
``__new__`` the named tuple generates, and takes the low-order
channel/bank/rank digits of the address in one ``divmod`` and one table
lookup.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from repro.config import MemoryOrgConfig


class MemoryLocation(NamedTuple):
    """Fully decoded target of one memory access."""

    channel: int
    rank: int   #: rank index within the channel
    bank: int   #: bank index within the rank
    row: int
    column: int  #: cache-line index within the row

    def bank_key(self) -> tuple:
        """Hashable global identity of the target bank."""
        return (self.channel, self.rank, self.bank)


#: ``_make_location((channel, rank, bank, row, column))`` is
#: ``MemoryLocation(channel, rank, bank, row, column)`` without a
#: Python frame.
_make_location = partial(tuple.__new__, MemoryLocation)


class AddressMapper:
    """Bidirectional line-address <-> :class:`MemoryLocation` mapping."""

    __slots__ = ("_org", "_channels", "_banks_per_rank", "_ranks_per_channel",
                 "_lines_per_row", "_rows_per_bank", "_interleave",
                 "_interleave_digits")

    def __init__(self, org: MemoryOrgConfig):
        self._org = org
        # geometry divisors hoisted out of the per-request decode loop
        self._channels = org.channels
        self._banks_per_rank = org.banks_per_rank
        self._ranks_per_channel = org.ranks_per_channel
        self._lines_per_row = org.lines_per_row
        self._rows_per_bank = org.rows_per_bank
        # Channel, bank and rank are the low-order mixed-radix digits of
        # a line address (channel fastest), so one divmod by their
        # product splits them off; this table maps that remainder to
        # (channel, rank, bank), split one field at a time.
        self._interleave = interleave = org.total_banks
        digits = []
        for low in range(interleave):
            addr, channel = divmod(low, self._channels)
            addr, bank = divmod(addr, self._banks_per_rank)
            _, rank = divmod(addr, self._ranks_per_channel)
            digits.append((channel, rank, bank))
        self._interleave_digits = tuple(digits)

    @property
    def org(self) -> MemoryOrgConfig:
        return self._org

    def decode(self, line_addr: int) -> MemoryLocation:
        """Decode a cache-line index into its physical location."""
        if line_addr < 0:
            raise ValueError(f"negative line address: {line_addr}")
        addr, low = divmod(line_addr, self._interleave)
        channel, rank, bank = self._interleave_digits[low]
        row_index, column = divmod(addr, self._lines_per_row)
        row = row_index % self._rows_per_bank
        return _make_location((channel, rank, bank, row, column))

    def encode(self, loc: MemoryLocation) -> int:
        """Inverse of :meth:`decode` (modulo row wrap-around)."""
        addr = loc.row
        addr = addr * self._lines_per_row + loc.column
        addr = addr * self._ranks_per_channel + loc.rank
        addr = addr * self._banks_per_rank + loc.bank
        addr = addr * self._channels + loc.channel
        return addr
