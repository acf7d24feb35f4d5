"""Unit tests for memory request objects."""

import pytest

from repro.memsim.address import MemoryLocation
from repro.memsim.request import MemRequest, RequestKind


def make_request(kind=RequestKind.READ):
    return MemRequest(kind, MemoryLocation(1, 2, 3, 4, 5),
                      core_id=7, app_id=2)


class TestMemRequest:
    def test_ids_are_unique_and_increasing(self):
        a, b = make_request(), make_request()
        assert b.request_id > a.request_id

    def test_kind_predicates(self):
        assert make_request(RequestKind.READ).is_read
        assert not make_request(RequestKind.WRITE).is_read

    def test_location_carried(self):
        request = make_request()
        assert request.location.channel == 1
        assert request.location.bank_key() == (1, 2, 3)

    def test_latency_unset_before_completion(self):
        request = make_request()
        assert request.total_latency_ns == -1.0
        assert request.bank_queue_ns == -1.0

    def test_latency_after_timestamps(self):
        request = make_request()
        request.issue_ns = 10.0
        request.arrive_bank_ns = 15.0
        request.bank_start_ns = 18.0
        request.complete_ns = 60.0
        assert request.total_latency_ns == pytest.approx(50.0)
        assert request.bank_queue_ns == pytest.approx(3.0)

    def test_repr_mentions_location(self):
        text = repr(make_request())
        assert "ch=1" in text and "bank=3" in text

    def test_callback_stored(self):
        sink = []
        request = MemRequest(RequestKind.READ, MemoryLocation(0, 0, 0, 0, 0),
                             on_complete=sink.append)
        request.on_complete(request)
        assert sink == [request]
