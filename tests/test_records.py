"""Tests for the one record layer (repro/records.py): the atomic writer,
the signed JSON record pair, the JSON-lines reader, and what each
consumer does with a damaged file — driven by flipping one byte between
a writer and its reader."""

import json
import os
import re
import stat
from pathlib import Path

import pytest

from repro.cpu.trace import columnar_sidecar_path
from repro.config import scaled_config
from repro.records import (DIGEST_FIELD, RecordError, atomic_write,
                           read_jsonl, read_record, signed, write_record)
from repro.scenarios.ingest import import_trace
from repro.sim.cache import ExperimentCache
from repro.sim.parallel import JobFailure, JobSpec, policy_specs
from repro.sim.runner import (IMPORTED_TRACE_PREFIX, ExperimentRunner,
                              RunnerSettings)
from repro.sim.service import LEDGER_NAME, SweepService
from repro.sim.store import ResultStore, failure_record

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SAMPLE = Path(__file__).parent / "data" / "sample_k6.trc"
SETTINGS = RunnerSettings(cores=4, instructions_per_core=4_000, seed=7)


def unsign(path):
    """Rewrite a record as a writer from before digests would have."""
    data = json.loads(path.read_text())
    data.pop(DIGEST_FIELD)
    data.pop("data_sha256", None)
    path.write_text(json.dumps(data))


@pytest.fixture
def cache(tmp_path):
    """A cache holding MID1's trace and baseline run."""
    cache = ExperimentCache(tmp_path / "c")
    ExperimentRunner(settings=SETTINGS, cache=cache).baseline("MID1")
    return cache


def trace_path(cache):
    return cache._trace_path(cache.trace_key(
        "MID1", SETTINGS.cores, SETTINGS.instructions_per_core,
        SETTINGS.seed))


def run_key(cache):
    return cache.baseline_key(scaled_config(), "MID1", SETTINGS.cores,
                              SETTINGS.instructions_per_core, SETTINGS.seed)


@pytest.fixture
def imported(tmp_path):
    """A cache holding the bundled k6 trace imported as ``s1``."""
    cache = ExperimentCache(tmp_path / "c")
    trace, _ = import_trace(SAMPLE, "s1", scaled_config().org, cores=4)
    cache.store_imported_trace("s1", trace, {"reads": 1234})
    return cache


def failed_store_record(store):
    job = JobSpec("policy", "MID1", policy="Static")
    failure = JobFailure(job=job, label=job.label, error_type="ValueError",
                         message="boom", traceback="", attempts=2,
                         wall_s=0.1)
    key = "ab" + "0" * 62
    store.put(failure_record(key, job.job_dict(), failure, "cfg", "set"))
    return key


class TestRecordPair:
    def test_round_trip_embeds_and_strips_the_digest(self, tmp_path):
        path = tmp_path / "r.json"
        payload = {"format": 1, "x": [0.1, -2.5e-07, None], "s": "é"}
        write_record(path, payload)
        assert DIGEST_FIELD in json.loads(path.read_text())
        assert read_record(path, "unused") == payload

    def test_non_string_keys_verify(self, tmp_path):
        # JSON stringifies the keys, and "10" sorts before "2".
        path = tmp_path / "r.json"
        write_record(path, {"by_rank": {2: 0.5, 10: 0.25}})
        assert read_record(path, "unused") \
            == {"by_rank": {"2": 0.5, "10": 0.25}}

    def test_error_names_path_cause_and_next_step(self, tmp_path,
                                                  bit_flipper):
        path = tmp_path / "r.json"
        write_record(path, {"wall_time_ns": 2266.875})
        bit_flipper.number(path, "wall_time_ns")
        assert json.loads(path.read_text())["wall_time_ns"] == 2266.874
        with pytest.raises(RecordError) as info:
            read_record(path, "do this next")
        assert str(info.value) \
            == f"{path}: record digest mismatch; do this next"

    @pytest.mark.parametrize("text, cause", [
        ("[1, 2]", "not a JSON object"),
        ('{"a": ', "unreadable"),
        (b"\xff\xfe{", "unreadable"),
    ], ids=["list", "truncated", "not-utf8"])
    def test_damage_is_a_record_error(self, tmp_path, text, cause):
        path = tmp_path / "r.json"
        atomic_write(path, text)
        with pytest.raises(RecordError,
                           match=re.escape(f"{path}: {cause}")):
            read_record(path, "next")

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(RecordError, match="absent.json: unreadable"):
            read_record(tmp_path / "absent.json", "next")

    def test_unsigned_record_reads_as_before(self, tmp_path):
        path = tmp_path / "r.json"
        atomic_write(path, json.dumps({"a": 1}))
        assert read_record(path, "unused") == {"a": 1}

    def test_version_is_checked(self, tmp_path):
        path = tmp_path / "r.json"
        write_record(path, {"format": 2})
        assert read_record(path, "next", version=("format", 2))
        with pytest.raises(RecordError,
                           match="format 2, this code reads 1; next"):
            read_record(path, "next", version=("format", 1))


class TestJsonLines:
    def write(self, path, lines):
        path.write_text("".join(json.dumps(signed(line)) + "\n"
                                for line in lines))

    def test_signed_lines_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self.write(path, [{"n": 1}, {"n": 2}])
        assert read_jsonl(path, "next") == ([{"n": 1}, {"n": 2}], 0)

    def test_truncated_final_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self.write(path, [{"n": 1}, {"n": 2}])
        text = path.read_text()
        path.write_text(text[:len(text) - 20])
        assert read_jsonl(path, "next") == ([{"n": 1}], 1)

    def test_final_line_failing_its_digest_raises(self, tmp_path,
                                                  bit_flipper):
        path = tmp_path / "s.jsonl"
        self.write(path, [{"n": 1}, {"m": 2}])
        bit_flipper.number(path, "m")
        with pytest.raises(RecordError, match=re.escape(
                f"{path}:2: record digest mismatch; next")):
            read_jsonl(path, "next")


class TestOneWriter:
    """Every whole-file write in the package goes through records.py."""

    PATTERN = re.compile(
        r"mkstemp|os\.replace|\.write_text\(|\.write_bytes\(|np\.save\(")

    def test_no_file_is_written_outside_the_record_layer(self):
        offenders = [
            f"{path.relative_to(SRC.parent)}:{n}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            if path != SRC / "records.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if self.PATTERN.search(line)]
        assert offenders == []


class TestFileModes:
    @pytest.fixture
    def umask(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_records_get_the_mode_of_a_plain_open(self, umask, cache):
        store = ResultStore(cache.root / "store")
        failed_store_record(store)
        npy = trace_path(cache)
        written = [npy, columnar_sidecar_path(npy),
                   cache._run_path(run_key(cache)),
                   next(store.root.glob("*/*.json"))]
        modes = {}
        for path in written:
            probe = path.parent / "probe"
            with open(probe, "w"):
                pass
            modes[path.name] = (stat.S_IMODE(path.stat().st_mode),
                                stat.S_IMODE(probe.stat().st_mode))
        assert all(mode == plain for mode, plain in modes.values()), modes


class TestFaultInjection:
    """One flipped byte between writer and reader is caught where the
    file is read: derived cache data is a counted miss and regenerates
    byte for byte; originals raise a RecordError naming file and cause."""

    def assert_counted_miss(self, cache, files, flip, load, regenerate):
        originals = {path: path.read_bytes() for path in files}
        flip()
        fresh = ExperimentCache(cache.root)
        assert load(fresh) is None
        assert (fresh.hits, fresh.misses) == (0, 1)
        assert not any(path.exists() for path in files)
        regenerate(ExperimentRunner(settings=SETTINGS, cache=fresh))
        assert {path: path.read_bytes() for path in files} == originals

    def test_flipped_baseline_run_is_a_counted_miss(self, cache,
                                                    bit_flipper):
        path = cache._run_path(run_key(cache))
        self.assert_counted_miss(
            cache, [path], lambda: bit_flipper.number(path, "wall_time_ns"),
            lambda fresh: fresh.load_run(run_key(fresh)),
            lambda runner: runner.baseline("MID1"))

    def test_flipped_trace_sidecar_is_a_counted_miss(self, cache,
                                                     bit_flipper):
        npy = trace_path(cache)
        sidecar = columnar_sidecar_path(npy)
        self.assert_counted_miss(
            cache, [npy, sidecar],
            lambda: bit_flipper.number(sidecar, "count"),
            lambda fresh: fresh.load_trace(npy.stem),
            lambda runner: runner.trace("MID1"))

    def test_flipped_trace_data_is_a_counted_miss(self, cache, bit_flipper):
        npy = trace_path(cache)
        self.assert_counted_miss(
            cache, [npy, columnar_sidecar_path(npy)],
            lambda: bit_flipper.npy_data(npy),
            lambda fresh: fresh.load_trace(npy.stem),
            lambda runner: runner.trace("MID1"))

    def test_flipped_import_meta_raises(self, imported, bit_flipper):
        meta = imported._imported_meta_path("s1")
        bit_flipper.number(meta, "reads")
        runner = ExperimentRunner(settings=SETTINGS, cache=imported)
        with pytest.raises(RecordError) as info:
            runner.baseline(IMPORTED_TRACE_PREFIX + "s1")
        assert str(info.value) == (
            f"{meta}: record digest mismatch; re-import it with "
            "`repro trace import FILE --name s1`")

    def test_flipped_import_data_raises(self, imported, bit_flipper):
        npy = imported._imported_path("s1")
        bit_flipper.npy_data(npy)
        with pytest.raises(RecordError, match=re.escape(
                f"{npy}: data digest mismatch; re-import")):
            imported.load_imported_trace("s1")

    def test_flipped_store_record_raises(self, tmp_path, bit_flipper):
        store = ResultStore(tmp_path / "store")
        key = failed_store_record(store)
        bit_flipper.number(store.path(key), "attempts")
        with pytest.raises(RecordError, match=re.escape(
                f"{store.path(key)}: record digest mismatch; delete it "
                "to re-run its job")):
            store.status(key)

    def test_flipped_ledger_line_raises(self, tmp_path, bit_flipper):
        root = tmp_path / "svc"
        SweepService(root, settings=SETTINGS, jobs=1, retries=0).submit(
            policy_specs(["MID1"], ["Static", "MemScale"]))
        ledger = root / LEDGER_NAME
        bit_flipper.number(ledger, "retries")  # the meta line, line 1
        with pytest.raises(RecordError, match=re.escape(
                f"{ledger}:1: record digest mismatch; restore the ledger "
                "or use a fresh --dir")):
            SweepService.open(root)

    def test_truncated_final_ledger_line_is_skipped(self, tmp_path):
        root = tmp_path / "svc"
        SweepService(root, settings=SETTINGS, jobs=1, retries=0).submit(
            policy_specs(["MID1"], ["Static", "MemScale"]))
        ledger = root / LEDGER_NAME
        text = ledger.read_text()
        ledger.write_text(text[:len(text) - 30])
        service = SweepService.open(root)
        assert service.status()["ledger_lines_skipped"] == 1
        assert [spec.label for _, spec in service.enqueued()] \
            == ["MID1/Static"]


class TestUnsignedRecords:
    """Records written before digests existed load as before."""

    def test_cached_run(self, cache):
        path = cache._run_path(run_key(cache))
        unsign(path)
        fresh = ExperimentCache(cache.root)
        assert fresh.load_run(run_key(cache)) is not None
        assert fresh.hits == 1

    def test_trace_sidecar(self, cache):
        npy = trace_path(cache)
        unsign(columnar_sidecar_path(npy))
        fresh = ExperimentCache(cache.root)
        assert fresh.load_trace(npy.stem) is not None
        assert fresh.hits == 1

    def test_import_meta(self, imported):
        digest = imported.imported_trace_digest("s1")
        unsign(imported._imported_meta_path("s1"))
        assert imported.imported_trace_digest("s1") == digest

    def test_store_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = failed_store_record(store)
        record = store.get(key)
        unsign(store.path(key))
        assert store.get(key) == record

    def test_ledger_lines(self, tmp_path):
        root = tmp_path / "svc"
        SweepService(root, settings=SETTINGS, jobs=1, retries=0).submit(
            policy_specs(["MID1"], ["Static"]))
        ledger = root / LEDGER_NAME
        lines = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert all(DIGEST_FIELD in line for line in lines)
        ledger.write_text("".join(
            json.dumps({k: v for k, v in line.items() if k != DIGEST_FIELD})
            + "\n" for line in lines))
        assert [spec.label for _, spec in SweepService.open(root).enqueued()] \
            == ["MID1/Static"]
