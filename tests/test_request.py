"""Unit tests for memory request objects."""

import pytest

from repro.config import scaled_config
from repro.memsim.address import MemoryLocation
from repro.memsim.controller import MemoryController
from repro.memsim.engine import EventEngine
from repro.memsim.request import MemRequest, RequestKind
from repro.memsim.validate import ProtocolValidator


def make_request(kind=RequestKind.READ):
    return MemRequest(kind, MemoryLocation(1, 2, 3, 4, 5),
                      core_id=7, app_id=2)


def armed_run():
    """Submit a fixed request stream to a validator-armed controller and
    run it to completion; returns the ids the requests carry."""
    config = scaled_config()
    engine = EventEngine()
    controller = MemoryController(engine, config)
    validator = ProtocolValidator(config, mode="collect")
    controller.attach_validator(validator)
    requests = [controller.submit_read(line) for line in range(0, 96, 3)]
    requests.append(controller.submit_writeback(7))
    engine.run_until(20_000.0)
    assert validator.violation_count == 0
    assert validator.completed == len(requests)
    return [request.request_id for request in requests]


class TestMemRequest:
    def test_validator_numbers_requests_per_run(self):
        """Ids count one validator's submissions from 0, so a second
        run in the same process names the same requests."""
        first = armed_run()
        assert armed_run() == first
        assert first == list(range(len(first)))
        assert make_request().request_id is None

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
