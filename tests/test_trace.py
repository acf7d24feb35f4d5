"""Unit and property tests for the trace format."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cpu.trace import (CoreTrace, WorkloadTrace,
                             columnar_sidecar_path)
from repro.records import DIGEST_FIELD, RecordError


def make_core_trace(n=10, app="swim", app_id=0, gap=100, wb_every=2):
    gaps = np.full(n, gap, dtype=np.int64)
    reads = np.arange(n, dtype=np.int64)
    wbs = np.where(np.arange(n) % wb_every == 0,
                   np.arange(n, dtype=np.int64) + 1000, -1).astype(np.int64)
    return CoreTrace(app_name=app, app_id=app_id, gaps=gaps,
                     read_addrs=reads, wb_addrs=wbs)


class TestCoreTrace:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            CoreTrace("x", 0, np.zeros(3, np.int64), np.zeros(2, np.int64),
                      np.zeros(3, np.int64))

    def test_negative_gaps_rejected(self):
        with pytest.raises(ValueError):
            CoreTrace("x", 0, np.array([-1], np.int64),
                      np.zeros(1, np.int64), np.full(1, -1, np.int64))

    def test_negative_read_address_rejected_naming_app_and_record(self):
        reads = np.array([4, -3, 9], np.int64)
        with pytest.raises(ValueError, match=r"app 'swim': record 1 has "
                                             r"read line address -3"):
            CoreTrace("swim", 0, np.ones(3, np.int64), reads,
                      np.full(3, -1, np.int64))

    def test_writeback_below_minus_one_rejected(self):
        # -1 means "no writeback"; anything lower is a corrupt record,
        # not a silently dropped writeback
        wbs = np.array([-1, 12, -7, -9], np.int64)
        with pytest.raises(ValueError, match=r"app 'gap': record 2 has "
                                             r"writeback line address -7"):
            CoreTrace("gap", 1, np.ones(4, np.int64),
                      np.arange(4, dtype=np.int64), wbs)

    def test_totals(self):
        t = make_core_trace(n=10, gap=100, wb_every=2)
        assert t.total_instructions == 1000
        assert t.total_reads == 10
        assert t.total_writebacks == 5
        assert len(t) == 10

    def test_rpki_wpki(self):
        t = make_core_trace(n=10, gap=100, wb_every=2)
        assert t.rpki == pytest.approx(10.0)
        assert t.wpki == pytest.approx(5.0)

    def test_rpki_zero_instructions(self):
        t = CoreTrace("x", 0, np.zeros(1, np.int64), np.zeros(1, np.int64),
                      np.full(1, -1, np.int64))
        assert t.rpki == 0.0


class TestWorkloadTrace:
    def test_app_names_unique_ordered(self):
        wt = WorkloadTrace("mix", [
            make_core_trace(app="a", app_id=0),
            make_core_trace(app="b", app_id=1),
            make_core_trace(app="a", app_id=0),
        ])
        assert wt.app_names == ["a", "b"]

    def test_cores_of_app(self):
        wt = WorkloadTrace("mix", [
            make_core_trace(app="a"), make_core_trace(app="b"),
            make_core_trace(app="a"),
        ])
        assert wt.cores_of_app("a") == [0, 2]
        assert wt.cores_of_app("missing") == []

    def test_aggregate_rpki(self):
        wt = WorkloadTrace("mix", [make_core_trace(n=10, gap=100),
                                   make_core_trace(n=10, gap=300)])
        # 20 reads / 4000 instructions
        assert wt.rpki == pytest.approx(5.0)


class TestColumnarFormat:
    """The mmap-able flat layout the experiment cache stores."""

    def make_mix(self):
        return WorkloadTrace("MID1", [
            make_core_trace(n=10, app="ammp", app_id=0),
            make_core_trace(n=7, app="gap", app_id=1, gap=50),
        ])

    def test_roundtrip(self, tmp_path):
        wt = self.make_mix()
        path = tmp_path / "trace.npy"
        wt.save_columnar(path)
        loaded = WorkloadTrace.load_columnar(path)
        assert loaded.name == "MID1"
        assert [c.app_name for c in loaded.cores] == ["ammp", "gap"]
        assert [c.app_id for c in loaded.cores] == [0, 1]
        for orig, new in zip(wt.cores, loaded.cores):
            np.testing.assert_array_equal(orig.gaps, new.gaps)
            np.testing.assert_array_equal(orig.read_addrs, new.read_addrs)
            np.testing.assert_array_equal(orig.wb_addrs, new.wb_addrs)

    def test_sidecar_written_next_to_data(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        assert path.exists()
        assert columnar_sidecar_path(path).exists()

    def test_mmap_load_returns_readonly_views(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        loaded = WorkloadTrace.load_columnar(path, mmap=True)
        core = loaded.cores[0]
        assert isinstance(core.gaps, np.memmap) or \
            isinstance(core.gaps.base, np.memmap)
        with pytest.raises(ValueError):
            core.gaps[0] = 1  # the shared map must be read-only

    def test_non_mmap_load(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        loaded = WorkloadTrace.load_columnar(path, mmap=False)
        assert not isinstance(loaded.cores[0].gaps.base, np.memmap)
        np.testing.assert_array_equal(loaded.cores[0].gaps,
                                      self.make_mix().cores[0].gaps)

    def test_missing_data_half_names_the_orphan(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        path.unlink()
        with pytest.raises(RecordError) as exc:
            WorkloadTrace.load_columnar(path)
        message = str(exc.value)
        assert f"data file {path}" in message
        assert "sidecar" not in message.split("missing ")[1].split(";")[0]
        assert "repro cache --prune" in message

    def test_missing_sidecar_half_names_the_orphan(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        columnar_sidecar_path(path).unlink()
        with pytest.raises(RecordError) as exc:
            WorkloadTrace.load_columnar(path)
        message = str(exc.value)
        assert f"sidecar {columnar_sidecar_path(path)}" in message
        assert "repro cache --prune" in message

    def test_both_halves_missing_names_both(self, tmp_path):
        path = tmp_path / "absent.npy"
        with pytest.raises(RecordError, match="incomplete columnar pair: "
                                              "missing data file .* and "
                                              "sidecar"):
            WorkloadTrace.load_columnar(path)

    def edit_sidecar(self, path, edit):
        """Rewrite the sidecar as an unsigned (pre-digest) record."""
        sidecar = columnar_sidecar_path(path)
        meta = json.loads(sidecar.read_text())
        del meta[DIGEST_FIELD], meta["data_sha256"]
        edit(meta)
        sidecar.write_text(json.dumps(meta))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        self.edit_sidecar(path, lambda meta: meta.update(version=99))
        with pytest.raises(RecordError, match="format 99, this code "
                                              "reads 1"):
            WorkloadTrace.load_columnar(path)

    def test_out_of_range_sidecar_rejected(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        # the last core holds 7 records; claim one more
        self.edit_sidecar(
            path, lambda meta: meta["cores"][-1].update(count=8))
        with pytest.raises(RecordError, match="out of range"):
            WorkloadTrace.load_columnar(path)

    def test_negative_address_fails_at_load(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        data = np.load(str(path), mmap_mode="r+")
        data[1, 10 + 3] = -3  # the second core's fourth read
        data.flush()
        del data
        with pytest.raises(RecordError, match="data digest mismatch"):
            WorkloadTrace.load_columnar(path)
        # Without a data digest (a pre-digest sidecar) the address
        # check still catches the record.
        self.edit_sidecar(path, lambda meta: None)
        with pytest.raises(RecordError, match=r"app 'gap': record 3 has "
                                              r"read line address -3"):
            WorkloadTrace.load_columnar(path)

    def test_bad_address_names_one_next_step(self, tmp_path):
        # A pre-digest entry reaches the address check; the error states
        # the cause once and ends in the loader's one remedy.
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        data = np.load(str(path), mmap_mode="r+")
        data[1, 10 + 3] = -3
        data.flush()
        del data
        self.edit_sidecar(path, lambda meta: None)
        with pytest.raises(RecordError) as err:
            WorkloadTrace.load_columnar(path, remedy="the one next step")
        message = str(err.value)
        assert "read addresses must be >= 0" in message
        assert message.count(";") == 1
        assert message.endswith("; the one next step")

    def test_bad_shape_rejected(self, tmp_path):
        path = tmp_path / "trace.npy"
        self.make_mix().save_columnar(path)
        np.save(str(path), np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            WorkloadTrace.load_columnar(path)


class TestRoundtripProperty:
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10_000),   # gap
        st.integers(min_value=0, max_value=2**40),    # read addr
        st.integers(min_value=-1, max_value=2**40),   # wb addr
    ), min_size=1, max_size=50))
    def test_stats_invariants(self, records):
        gaps = np.array([r[0] for r in records], dtype=np.int64)
        reads = np.array([r[1] for r in records], dtype=np.int64)
        wbs = np.array([r[2] for r in records], dtype=np.int64)
        t = CoreTrace("x", 0, gaps, reads, wbs)
        assert t.total_reads == len(records)
        assert 0 <= t.total_writebacks <= t.total_reads
        if t.total_instructions > 0:
            assert t.wpki <= t.rpki
