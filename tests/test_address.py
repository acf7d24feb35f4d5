"""Unit and property tests for physical address mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.config import MemoryOrgConfig
from repro.memsim.address import AddressMapper, MemoryLocation


@pytest.fixture(scope="module")
def mapper():
    return AddressMapper(MemoryOrgConfig())


class TestDecode:
    def test_line_zero(self, mapper):
        loc = mapper.decode(0)
        assert loc == MemoryLocation(channel=0, rank=0, bank=0, row=0, column=0)

    def test_consecutive_lines_interleave_channels(self, mapper):
        channels = [mapper.decode(i).channel for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_channel_stride_walks_banks(self, mapper):
        org = MemoryOrgConfig()
        banks = [mapper.decode(i * org.channels).bank
                 for i in range(org.banks_per_rank)]
        assert banks == list(range(org.banks_per_rank))

    def test_fields_within_bounds(self, mapper):
        org = MemoryOrgConfig()
        for addr in [0, 1, 12345, 999_999, 123_456_789]:
            loc = mapper.decode(addr)
            assert 0 <= loc.channel < org.channels
            assert 0 <= loc.rank < org.ranks_per_channel
            assert 0 <= loc.bank < org.banks_per_rank
            assert 0 <= loc.row < org.rows_per_bank
            assert 0 <= loc.column < org.lines_per_row

    def test_negative_address_raises(self, mapper):
        with pytest.raises(ValueError):
            mapper.decode(-1)

    def test_bank_key_identity(self, mapper):
        loc = mapper.decode(4242)
        assert loc.bank_key() == (loc.channel, loc.rank, loc.bank)


class TestEncodeDecodeRoundtrip:
    @given(st.integers(min_value=0, max_value=2**34))
    def test_roundtrip_within_capacity(self, addr):
        mapper = AddressMapper(MemoryOrgConfig())
        org = mapper.org
        capacity_lines = (org.channels * org.ranks_per_channel
                          * org.banks_per_rank * org.rows_per_bank
                          * org.lines_per_row)
        addr = addr % capacity_lines
        assert mapper.encode(mapper.decode(addr)) == addr

    @given(st.integers(min_value=0, max_value=2**40))
    def test_decode_total_distinct_banks(self, addr):
        mapper = AddressMapper(MemoryOrgConfig())
        loc = mapper.decode(addr)
        # same line decodes identically every time (purity)
        assert mapper.decode(addr) == loc


class TestSmallOrganizations:
    def test_single_channel_org(self):
        org = MemoryOrgConfig(channels=1)
        mapper = AddressMapper(org)
        assert all(mapper.decode(i).channel == 0 for i in range(16))

    def test_two_channel_spread(self):
        org = MemoryOrgConfig(channels=2)
        mapper = AddressMapper(org)
        assert [mapper.decode(i).channel for i in range(4)] == [0, 1, 0, 1]


def chain_decode(org, line_addr):
    """Reference decode: one divmod per field, channel first."""
    addr, channel = divmod(line_addr, org.channels)
    addr, bank = divmod(addr, org.banks_per_rank)
    addr, rank = divmod(addr, org.ranks_per_channel)
    row_index, column = divmod(addr, org.lines_per_row)
    return MemoryLocation(channel, rank, bank,
                          row_index % org.rows_per_bank, column)


class TestOneSplitDecode:
    """`decode` splits channel, bank and rank off in one divmod; that
    must equal the field-by-field chain for every geometry."""

    @given(channels=st.integers(1, 6), dimms=st.integers(1, 3),
           ranks=st.integers(1, 4), banks=st.integers(1, 16),
           rows=st.integers(1, 1 << 16),
           addr=st.integers(min_value=0, max_value=2**48))
    def test_matches_field_by_field_chain(self, channels, dimms, ranks,
                                          banks, rows, addr):
        org = MemoryOrgConfig(channels=channels, dimms_per_channel=dimms,
                              ranks_per_dimm=ranks, banks_per_rank=banks,
                              rows_per_bank=rows)
        mapper = AddressMapper(org)
        for line in (addr, addr + 1, addr // 7):
            assert mapper.decode(line) == chain_decode(org, line)
