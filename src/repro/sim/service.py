"""Crash-safe sweep service: persistent job queue + resumable store.

The one-shot :func:`~repro.sim.parallel.run_sweep` executes a (mix x
point) cross product and returns the outcomes in memory — interrupt it
and everything is gone. This module is the durable layer the ROADMAP's
fleet-scale direction asks for: jobs live in an on-disk queue, workers
write every settled outcome into a sharded content-addressed store
(:mod:`repro.sim.store`), and a crashed or interrupted sweep resumes by
re-executing only the jobs without a stored result.

Layout, all under one service directory (``--dir`` on the CLI)::

    <root>/queue.jsonl     append-only ledger (meta, enqueue, done)
    <root>/store/ab/<key>.json   one record per settled job
    <root>/cache/          experiment cache (default; override-able)

The ledger is the queue: ``enqueue`` lines define the job set (in
order), the store defines completion. A ``done`` line is appended
*after* the store record lands, so the ledger is advisory — on resume,
pending = enqueued jobs whose store record is missing **or failed**
(failed jobs get another chance; if they fail again the fresh failure
record simply replaces the old one). Every ledger line carries its
``record_sha256`` and is read back through
:func:`repro.records.read_jsonl`: a truncated trailing line — the
signature a SIGKILL leaves — is skipped and counted, never fatal; any
other damaged line raises :class:`~repro.records.RecordError` naming
``queue.jsonl:<line>``. A damaged store record raises the same way.

Job identity is content-addressed: a job's key hashes its spec
(kind, mix, point) together with the config and settings fingerprints,
so sweeps *compose* — running a superset sweep over an existing service
directory executes only the new jobs, and ``repro query`` answers from
everything accumulated so far.

Execution goes through :func:`~repro.sim.parallel.run_specs`, the same
driver the in-memory sweeps use, so the service inherits its warm phase,
its per-job fault isolation (a raising job or a killed worker becomes a
:class:`~repro.sim.parallel.JobFailure` record, the rest of the sweep
completes) and its byte-identical serial/parallel determinism. Outcomes
are persisted incrementally through the driver's ``on_outcome`` hook as
each job settles: a crash loses at most the jobs that were in flight.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

try:  # POSIX-only; the lockfile degrades to a no-op elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.config import (ConfigError, SystemConfig, config_from_dict,
                          config_to_dict, scaled_config)
from repro.records import content_digest, read_jsonl, signed
from repro.sim.cache import config_fingerprint
from repro.sim.parallel import (SERVICE_FORMAT, JobFailure, JobSpec,
                                check_specs, default_jobs, run_specs)
from repro.sim.runner import RunnerSettings
from repro.sim.store import (ResultStore, failure_record, ok_record,
                             outcome_from_dict)

PathLike = Union[str, Path]

#: Ledger file name inside the service directory.
LEDGER_NAME = "queue.jsonl"

#: Result-store subdirectory inside the service directory.
STORE_NAME = "store"

#: Advisory lock file inside the service directory.
LOCK_NAME = "lock"

#: Next step named by a damaged ledger line.
LEDGER_REMEDY = "restore the ledger or use a fresh --dir"


class ServiceError(RuntimeError):
    """A service directory is unusable or was used inconsistently."""


def settings_fingerprint(settings: RunnerSettings) -> Dict[str, object]:
    """JSON-serializable dict capturing every runner-settings field."""
    return dataclasses.asdict(settings)


# -- ledger ----------------------------------------------------------------

def _append_jsonl(path: Path, record: Dict[str, object]) -> None:
    """Append one signed ledger line durably (flush + fsync: the queue
    must survive the power cord, not just the process)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(signed(record)) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


# -- service-directory lock -------------------------------------------------

class ServiceLock:
    """Advisory exclusive lock on a service directory.

    Two service processes executing over the same ``--dir`` would race
    the ledger and double-run pending jobs, so :meth:`SweepService.run`
    and :meth:`SweepService.resume` hold this lock for their duration.
    It is an OS-level ``flock`` on ``<root>/lock``: contention fails
    fast with :class:`ServiceError` instead of corrupting anything, and
    the kernel releases the lock when the holder exits — even via
    SIGKILL — so a crashed sweep never leaves a stale lock behind.
    On platforms without ``fcntl`` the lock degrades to a no-op.
    """

    def __init__(self, root: PathLike) -> None:
        self.path = Path(root) / LOCK_NAME
        self._fh = None

    def acquire(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a+")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            fh.close()
            raise ServiceError(
                f"{self.path.parent}: another service process holds the "
                "lock on this directory; wait for it to finish or use a "
                "different --dir")
        self._fh = fh

    def release(self) -> None:
        if self._fh is None:
            return
        fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "ServiceLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


# -- one read of a service directory ----------------------------------------

@dataclasses.dataclass
class Snapshot:
    """A service directory as one command reads it: the ledger's meta
    record, the count of truncated ledger lines it skipped, its
    enqueued jobs (key -> spec, ledger order) and the store record of
    each job that has one. A command takes one snapshot, adds the jobs
    it enqueues and the records it writes, and answers from it: it
    parses the ledger once and reads each store record at most once.
    """

    meta: Optional[Dict[str, object]]
    skipped: int
    jobs: Dict[str, JobSpec] = dataclasses.field(default_factory=dict)
    records: Dict[str, Dict[str, object]] = dataclasses.field(
        default_factory=dict)

    def state(self, key: str) -> Optional[str]:
        """``"ok"``, ``"failed"``, or None when ``key`` has no record."""
        record = self.records.get(key)
        return record.get("status") if record is not None else None

    def pending(self) -> List[Tuple[str, JobSpec]]:
        """Enqueued jobs still owed a successful outcome: no store
        record at all (never ran, or crashed mid-run) or a failed one
        (gets retried — a fresh failure record replaces the old)."""
        return [(key, spec) for key, spec in self.jobs.items()
                if self.state(key) != "ok"]

    def outcomes(self) -> List[object]:
        """Outcome per enqueued job, enqueue order: an
        :class:`~repro.sim.parallel.Outcome` for ok records, a
        :class:`JobFailure` for failed ones. Jobs still pending are
        omitted."""
        out: List[object] = []
        for key, spec in self.jobs.items():
            record = self.records.get(key)
            if record is None:
                continue
            if record["status"] == "ok":
                out.append(outcome_from_dict(record["outcome"]))
            else:
                error = record.get("error", {})
                out.append(JobFailure(
                    job=spec, label=spec.label,
                    error_type=error.get("error_type", "?"),
                    message=error.get("message", ""),
                    traceback=error.get("traceback", ""),
                    attempts=record.get("attempts", 1),
                    wall_s=record.get("wall_s", 0.0)))
        return out


def _meta(ledger: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    return next((r for r in ledger if r.get("type") == "meta"), None)


# -- the service -----------------------------------------------------------

class SweepService:
    """Persistent, resumable sweep execution over one service directory.

    Construct directly for a fresh sweep (config/settings default to
    the standard scaled experiment), or :meth:`open` an existing
    directory to resume — the ledger's meta record carries everything
    needed to rebuild the exact configuration.
    """

    def __init__(self, root: PathLike,
                 config: Optional[SystemConfig] = None,
                 settings: Optional[RunnerSettings] = None,
                 cache_dir: Optional[PathLike] = "",
                 telemetry_dir: Optional[PathLike] = None,
                 jobs: Optional[int] = None,
                 retries: int = 1) -> None:
        self.root = Path(root)
        self.config = config if config is not None else scaled_config()
        self.settings = (settings if settings is not None
                         else RunnerSettings())
        # "" (the default) means "cache inside the service directory";
        # None disables caching entirely.
        if cache_dir == "":
            cache_dir = self.root / "cache"
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.telemetry_dir = (str(telemetry_dir)
                              if telemetry_dir is not None else None)
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.retries = retries
        self.config_hash = content_digest(config_fingerprint(self.config))
        self.settings_hash = content_digest(
            settings_fingerprint(self.settings))
        self.store = ResultStore(self.root / STORE_NAME)
        #: The directory as the last :meth:`run` or :meth:`resume` left
        #: it, for a report that must not read it again.
        self.last_snapshot: Optional[Snapshot] = None

    # -- opening an existing directory -------------------------------------

    @classmethod
    def open(cls, root: PathLike,
             jobs: Optional[int] = None,
             retries: Optional[int] = None) -> "SweepService":
        """Rebuild a service from its ledger's meta record (for
        ``repro service resume/status`` after the original process is
        long gone). ``jobs``/``retries`` override the recorded values."""
        root = Path(root)
        meta = _meta(read_jsonl(root / LEDGER_NAME, LEDGER_REMEDY)[0])
        if meta is None:
            raise ServiceError(f"{root}: no service ledger meta record "
                               f"(is this a service directory?)")
        if meta.get("format") != SERVICE_FORMAT:
            raise ServiceError(
                f"{root}: ledger format {meta.get('format')!r} is not "
                f"{SERVICE_FORMAT}")
        try:
            config = config_from_dict(meta["config"])
        except (ConfigError, KeyError, TypeError) as exc:
            raise ServiceError(f"{root}: cannot rebuild config: {exc}")
        try:
            settings = RunnerSettings(**meta["settings"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"{root}: cannot rebuild runner settings: {exc}")
        return cls(root, config=config, settings=settings,
                   cache_dir=meta.get("cache_dir"),
                   telemetry_dir=meta.get("telemetry_dir"),
                   jobs=jobs if jobs is not None else meta.get("jobs"),
                   retries=(retries if retries is not None
                            else meta.get("retries", 1)))

    # -- ledger access ------------------------------------------------------

    @property
    def ledger_path(self) -> Path:
        return self.root / LEDGER_NAME

    def snapshot(self) -> Snapshot:
        """One read of the directory: one ledger parse, and one store
        read per enqueued job."""
        ledger, skipped = read_jsonl(self.ledger_path, LEDGER_REMEDY)
        snap = Snapshot(_meta(ledger), skipped)
        for line in ledger:
            if (line.get("type") == "enqueue"
                    and line.get("key") not in snap.jobs):
                self._add_job(snap, line.get("key"),
                              JobSpec.from_dict(line["spec"]))
        return snap

    def _add_job(self, snap: Snapshot, key: str, spec: JobSpec) -> None:
        snap.jobs[key] = spec
        record = self.store.get(key)
        if record is not None:
            snap.records[key] = record

    def _ensure_meta(self, meta: Optional[Dict[str, object]]) -> None:
        if meta is not None:
            if (meta.get("config_hash") != self.config_hash
                    or meta.get("settings_hash") != self.settings_hash):
                raise ServiceError(
                    f"{self.root}: service directory was created with a "
                    "different config/settings; use a fresh --dir")
            return
        self.root.mkdir(parents=True, exist_ok=True)
        _append_jsonl(self.ledger_path, {
            "type": "meta", "format": SERVICE_FORMAT,
            "config": config_to_dict(self.config),
            "settings": settings_fingerprint(self.settings),
            "config_hash": self.config_hash,
            "settings_hash": self.settings_hash,
            "cache_dir": self.cache_dir,
            "telemetry_dir": self.telemetry_dir,
            "jobs": self.jobs, "retries": self.retries,
        })

    def key_of(self, spec: JobSpec) -> str:
        return spec.key(self.config_hash, self.settings_hash)

    def enqueued(self) -> List[Tuple[str, JobSpec]]:
        """Every enqueued ``(key, spec)``, ledger order, de-duplicated."""
        return list(self.snapshot().jobs.items())

    # -- queueing -----------------------------------------------------------

    def submit(self, specs: Sequence[JobSpec]) -> List[JobSpec]:
        """Enqueue the specs not already in the ledger; returns the
        newly enqueued ones. Idempotent: submitting a sweep twice (or a
        superset) only adds what is missing. A spec naming an unknown
        mix or policy raises before anything reaches the ledger."""
        return self._submit(specs, self.snapshot())

    def _submit(self, specs: Sequence[JobSpec],
                snap: Snapshot) -> List[JobSpec]:
        check_specs(specs)
        self._ensure_meta(snap.meta)
        added = []
        for spec in specs:
            key = self.key_of(spec)
            if key in snap.jobs:
                continue
            _append_jsonl(self.ledger_path, {
                "type": "enqueue", "key": key, "spec": spec.to_dict()})
            self._add_job(snap, key, spec)
            added.append(spec)
        return added

    def pending(self) -> List[Tuple[str, JobSpec]]:
        """:meth:`Snapshot.pending` of a fresh snapshot."""
        return self.snapshot().pending()

    # -- execution ----------------------------------------------------------

    def run(self, specs: Sequence[JobSpec],
            fail_labels: Optional[Sequence[str]] = None,
            max_jobs: Optional[int] = None) -> List[object]:
        """Enqueue ``specs`` and execute everything pending.

        Returns the full outcome list (see :meth:`results`): stored
        outcomes for jobs that were already complete, fresh ones for
        jobs executed now, :class:`JobFailure` records for jobs that
        exhausted their attempts. ``fail_labels`` injects a
        deterministic failure into matching jobs (tests/smoke);
        ``max_jobs`` bounds how many pending jobs this call executes —
        the controlled-interrupt hook. :attr:`last_snapshot` holds the
        directory as the call left it.

        Holds the directory's :class:`ServiceLock` for the duration: a
        second concurrent ``run``/``resume`` over the same ``--dir``
        fails fast with :class:`ServiceError`.
        """
        with ServiceLock(self.root):
            snap = self.snapshot()
            self._submit(specs, snap)
            self._execute(snap, fail_labels=fail_labels, max_jobs=max_jobs)
        self.last_snapshot = snap
        return snap.outcomes()

    def resume(self, max_jobs: Optional[int] = None) -> List[object]:
        """Finish an interrupted sweep: execute only the pending jobs
        (no failure injection — a resumed job gets a clean attempt).
        Takes the directory's :class:`ServiceLock` like :meth:`run`."""
        with ServiceLock(self.root):
            snap = self.snapshot()
            self._execute(snap, max_jobs=max_jobs)
        self.last_snapshot = snap
        return snap.outcomes()

    def _execute(self, snap: Snapshot,
                 fail_labels: Optional[Sequence[str]] = None,
                 max_jobs: Optional[int] = None) -> None:
        pending = snap.pending()
        if max_jobs is not None:
            pending = pending[:max_jobs]
        if not pending:
            return
        keys = [key for key, _ in pending]
        specs = [spec for _, spec in pending]

        def persist(i: int, outcome: object) -> None:
            # Store record first, ledger line second: the store is the
            # source of truth, the done line is a cheap index hint. A
            # crash between the two re-runs at most one finished job.
            if isinstance(outcome, JobFailure):
                record = failure_record(keys[i], specs[i].job_dict(),
                                        outcome, self.config_hash,
                                        self.settings_hash)
            else:
                record = ok_record(keys[i], specs[i].job_dict(), outcome,
                                   self.config_hash, self.settings_hash)
            self.store.put(record)
            # The record as a reader gets it back (JSON types).
            snap.records[keys[i]] = json.loads(json.dumps(record))
            _append_jsonl(self.ledger_path, {
                "type": "done", "key": keys[i],
                "status": record["status"]})

        run_specs(specs, config=self.config, settings=self.settings,
                  jobs=self.jobs, cache_dir=self.cache_dir,
                  telemetry_dir=self.telemetry_dir, retries=self.retries,
                  fail_labels=fail_labels or (), on_outcome=persist)

    # -- results ------------------------------------------------------------

    def results(self) -> List[object]:
        """:meth:`Snapshot.outcomes` of a fresh snapshot."""
        return self.snapshot().outcomes()

    def status(self, snap: Optional[Snapshot] = None) -> Dict[str, object]:
        """Queue/store progress summary (for ``repro service status``)
        of ``snap``, by default a fresh snapshot."""
        if snap is None:
            snap = self.snapshot()
        states = [snap.state(key) for key in snap.jobs]
        ok = states.count("ok")
        return {
            "root": str(self.root),
            "enqueued": len(states),
            "ok": ok,
            "failed": states.count("failed"),
            "pending": len(states) - ok,
            "ledger_lines_skipped": snap.skipped,
            "jobs": self.jobs,
            "retries": self.retries,
        }
