"""Shared fixtures for the MemScale reproduction test suite.

Simulation fixtures are session-scoped and deliberately tiny (tens of
thousands of instructions) so the full suite stays fast while still
exercising every subsystem end to end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import NS_PER_US, SystemConfig, default_config, scaled_config
from repro.core.frequency import FrequencyLadder
from repro.memsim.controller import MemoryController
from repro.memsim.counters import _STATE_ORDER, CounterDelta
from repro.memsim.engine import EventEngine
from repro.sim.runner import ExperimentRunner, RunnerSettings


@pytest.fixture(scope="session")
def paper_config() -> SystemConfig:
    """The unmodified Table 2 configuration."""
    return default_config()


@pytest.fixture(scope="session")
def test_config() -> SystemConfig:
    """Scaled configuration used by simulation tests."""
    return scaled_config(epoch_ns=20 * NS_PER_US, profile_ns=2 * NS_PER_US)


@pytest.fixture(scope="session")
def ladder(test_config) -> FrequencyLadder:
    return FrequencyLadder(test_config)


@pytest.fixture()
def engine() -> EventEngine:
    return EventEngine()


@pytest.fixture()
def controller(engine, test_config) -> MemoryController:
    """A fresh memory controller with refresh disabled for determinism."""
    return MemoryController(engine, test_config, refresh_enabled=False,
                            n_cores=4)


@pytest.fixture(scope="session")
def runner(test_config) -> ExperimentRunner:
    """Shared runner with tiny traces; baselines are cached across tests."""
    return ExperimentRunner(
        config=test_config,
        settings=RunnerSettings(instructions_per_core=40_000, seed=7))


def make_delta(config: SystemConfig, *, interval_ns: float = 10_000.0,
               tic_per_core: float = 10_000.0, tlm_per_core: float = 20.0,
               n_cores: int = 4, bto: float = 10.0, btc: float = 100.0,
               cto: float = 30.0, ctc: float = 100.0, rbhc: float = 5.0,
               obmc: float = 3.0, cbmc: float = 92.0, epdc: float = 0.0,
               pocc: float = 95.0, reads: float = 90.0, writes: float = 10.0,
               busy_frac: float = 0.2, refreshes: float = 0.0,
               pre_pd_frac: float = 0.0, act_frac: float = 0.3
               ) -> CounterDelta:
    """Hand-build a plausible CounterDelta for model unit tests.

    Rank state time is split between active standby (``act_frac``),
    precharge powerdown (``pre_pd_frac``), and precharge standby (the
    remainder). Channel busy time is spread evenly.
    """
    org = config.org
    n_ranks = org.total_ranks
    n_channels = org.channels
    pre_stby_frac = 1.0 - act_frac - pre_pd_frac
    if pre_stby_frac < 0:
        raise ValueError("state fractions exceed 1.0")
    rank_state = np.zeros((n_ranks, len(_STATE_ORDER)))
    rank_state[:, 0] = act_frac * interval_ns        # active standby
    rank_state[:, 1] = pre_stby_frac * interval_ns   # precharge standby
    rank_state[:, 3] = pre_pd_frac * interval_ns     # precharge powerdown
    ops = reads + writes
    channel_reads = np.full(n_channels, reads / n_channels)
    channel_writes = np.full(n_channels, writes / n_channels)
    return CounterDelta(
        interval_ns=interval_ns,
        tic=np.full(n_cores, tic_per_core),
        tlm=np.full(n_cores, tlm_per_core),
        bto=bto, btc=btc, cto=cto, ctc=ctc,
        rbhc=rbhc, obmc=obmc, cbmc=cbmc, epdc=epdc, pocc=pocc,
        reads=reads, writes=writes,
        rank_state_ns=rank_state,
        refreshes=np.full(n_ranks, refreshes),
        channel_busy_ns=np.full(n_channels, busy_frac * interval_ns),
        channel_reads=channel_reads,
        channel_writes=channel_writes,
    )


def jsonify(data):
    """Round-trip through JSON so numpy scalars/arrays compare as the
    plain types a golden snapshot stores."""
    return json.loads(json.dumps(data))


def field_diff(path, got, want, out):
    """Collect leaf-level differences between a run and its golden
    snapshot into ``out``, for a readable failure message."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            field_diff(f"{path}.{key}", got.get(key), want.get(key), out)
    elif isinstance(want, list) and isinstance(got, list) \
            and len(want) == len(got):
        for i, (g, w) in enumerate(zip(got, want)):
            field_diff(f"{path}[{i}]", g, w, out)
    elif got != want:
        out.append(f"{path}: got {got!r}, golden {want!r}")


@pytest.fixture()
def delta_factory(test_config):
    """Factory fixture wrapping :func:`make_delta` with the test config."""
    def factory(**kwargs):
        return make_delta(test_config, **kwargs)
    return factory


class BitFlipper:
    """Flips one byte of a file between its writer and its reader — the
    file-level form of a memory test XOR-ing a mask into read data."""

    @staticmethod
    def xor(path, offset: int, mask: int = 0x01) -> None:
        data = bytearray(path.read_bytes())
        data[offset] ^= mask
        path.write_bytes(bytes(data))

    def number(self, path, field: str) -> None:
        """Flip the low bit of the last digit of the first JSON number
        stored under ``field``: a digit stays a digit, so the file
        still parses."""
        text = path.read_bytes()
        end = text.index(f'"{field}": '.encode()) + len(field) + 4
        while chr(text[end]) in "0123456789.eE+-":
            end += 1
        self.xor(path, end - 1)

    def npy_data(self, path) -> None:
        """Flip the low bit of the first element of an ``.npy``'s data
        region (past its header)."""
        array = np.load(str(path), mmap_mode="r")
        offset = path.stat().st_size - array.nbytes
        del array
        self.xor(path, offset)


@pytest.fixture()
def bit_flipper() -> BitFlipper:
    return BitFlipper()
