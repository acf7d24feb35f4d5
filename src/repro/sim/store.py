"""Sharded content-addressed result store for the sweep service.

Every finished job of a :class:`~repro.sim.service.SweepService` —
successful or failed — becomes one JSON record on disk, addressed by
the job's content key (a sha256 over mix, point, config hash, and
settings hash; see :meth:`repro.sim.parallel.JobSpec.key`). Records are
sharded into 256 two-hex-digit subdirectories so a store accumulated
over thousands of sweeps never puts them all in one directory:

    <root>/ab/abcdef....json

Properties mirror the experiment cache's:

* **content-addressed** — the key covers everything that determines
  the outcome, so re-running an identical job overwrites the record
  with identical deterministic content, and sweeps *compose*: a later
  sweep over a superset of jobs only executes the new ones;
* **verified** — records are written and read through
  :mod:`repro.records`: atomically, so readers (and a crash mid-write)
  only ever observe complete records, and with their ``record_sha256``
  checked on every read. A record that is unreadable, fails its digest
  or carries another ``format`` raises
  :class:`~repro.records.RecordError` naming the file: a damaged
  outcome is never served, and its job never silently re-runs;
* **self-describing** — each record carries its job spec, status,
  attempt count, and either the full serialized outcome or a
  structured failure (exception class, message, worker traceback), so
  ``repro query`` needs nothing but the store.

Record schema (``STORE_FORMAT`` 1)::

    {"format": 1, "key": "<sha256>", "status": "ok" | "failed",
     "job": {"kind": ..., "mix": ..., "policy": ...,
             "budget_fraction": ..., "coordinated": ..., "device": ...,
             "label": ...},
     "config_hash": "...", "settings_hash": "...",
     "attempts": 1, "wall_s": 0.42,
     "outcome": {...}        # ok records: serialized outcome
     "error": {"error_type": ..., "message": ..., "traceback": ...},
     "record_sha256": "<sha256>"}   # stripped on read; absent in
                                    # records written before digests

``outcome`` is the serialized :class:`~repro.sim.parallel.Outcome`:
the job's kind, mix and point fields, the serialized
:class:`~repro.sim.results.RunResult` plus its
:class:`~repro.sim.results.PolicyComparison`, the kind's extras under
their own field names (cap ledger, per-domain energy, placement
counters, standby share), and the volatile execution metadata.
:func:`outcome_to_dict` / :func:`outcome_from_dict` round-trip every
kind.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.records import content_digest, read_record, write_record
from repro.sim.parallel import KINDS, JobFailure, JobSpec, Outcome
from repro.sim.serialize import (comparison_from_dict, comparison_to_dict,
                                 run_result_from_dict, run_result_to_dict)

PathLike = Union[str, Path]

#: Bumped whenever the record layout changes incompatibly.
STORE_FORMAT = 1

#: Outcome fields that vary between identical re-executions (timing,
#: cache luck, file placement) — excluded from deterministic digests.
VOLATILE_OUTCOME_FIELDS = ("wall_s", "cache_hits", "telemetry_path")

#: Serialized-outcome fields that are not a kind's extras.
_CORE_FIELDS = ("kind", "mix", "result", "comparison",
                *VOLATILE_OUTCOME_FIELDS)


# -- outcome (de)serialization ---------------------------------------------

def outcome_to_dict(outcome: Outcome) -> Dict[str, object]:
    """JSON-ready dictionary of a sweep outcome of any kind."""
    if not isinstance(outcome, Outcome):
        raise TypeError(f"cannot serialize {type(outcome).__name__}")
    spec = outcome.spec
    data: Dict[str, object] = {"kind": spec.kind, "mix": spec.mix}
    for name, attr in KINDS[spec.kind].fields:
        data[name] = getattr(spec, attr)
    data["result"] = run_result_to_dict(outcome.result)
    data["comparison"] = comparison_to_dict(outcome.comparison)
    data.update(outcome.extras)
    data.update(wall_s=outcome.wall_s, cache_hits=outcome.cache_hits,
                telemetry_path=outcome.telemetry_path)
    return data


def outcome_from_dict(data: Dict[str, object]) -> Outcome:
    """Inverse of :func:`outcome_to_dict`."""
    kind = KINDS.get(data.get("kind"))
    if kind is None:
        raise ValueError(f"unknown outcome kind {data.get('kind')!r}")
    point = {name: attr for name, attr in kind.fields}
    spec = JobSpec(data["kind"], data["mix"],
                   **{attr: data[name] for name, attr in point.items()})
    extras = {k: v for k, v in data.items()
              if k not in _CORE_FIELDS and k not in point}
    return Outcome(spec=spec, result=run_result_from_dict(data["result"]),
                   comparison=comparison_from_dict(data["comparison"]),
                   extras=extras, wall_s=data["wall_s"],
                   cache_hits=data["cache_hits"],
                   telemetry_path=data["telemetry_path"])


def ok_record(key: str, job: Dict[str, object], outcome: object,
              config_hash: str, settings_hash: str,
              attempts: int = 1) -> Dict[str, object]:
    """Build one successful-outcome store record."""
    payload = outcome_to_dict(outcome)
    return {
        "format": STORE_FORMAT, "key": key, "status": "ok",
        "job": dict(job), "config_hash": config_hash,
        "settings_hash": settings_hash, "attempts": attempts,
        "wall_s": payload.get("wall_s", 0.0), "outcome": payload,
    }


def failure_record(key: str, job: Dict[str, object], failure: JobFailure,
                   config_hash: str, settings_hash: str
                   ) -> Dict[str, object]:
    """Build one failed-job store record (the structured error)."""
    return {
        "format": STORE_FORMAT, "key": key, "status": "failed",
        "job": dict(job), "config_hash": config_hash,
        "settings_hash": settings_hash, "attempts": failure.attempts,
        "wall_s": failure.wall_s,
        "error": {
            "error_type": failure.error_type,
            "message": failure.message,
            "traceback": failure.traceback,
        },
    }


def deterministic_digest(record: Dict[str, object]) -> str:
    """sha256 of a record's deterministic content.

    Volatile fields (wall clock, cache hits, telemetry file placement,
    attempt counts, failure tracebacks with memory addresses) and the
    record's own ``record_sha256`` are excluded, so two executions of
    the same job — e.g. an interrupted sweep resumed later vs an
    uninterrupted one — digest identically exactly when the simulation
    results are byte-identical.
    """
    payload = {
        "key": record.get("key"),
        "status": record.get("status"),
        "job": record.get("job"),
        "config_hash": record.get("config_hash"),
        "settings_hash": record.get("settings_hash"),
    }
    outcome = record.get("outcome")
    if outcome is not None:
        outcome = {k: v for k, v in outcome.items()
                   if k not in VOLATILE_OUTCOME_FIELDS}
        payload["outcome"] = outcome
    error = record.get("error")
    if error is not None:
        payload["error"] = {"error_type": error.get("error_type")}
    return content_digest(payload)


# -- the store -------------------------------------------------------------

class ResultStore:
    """Directory-backed, sharded store of per-job outcome records."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        """On-disk location of ``key``'s record (two-hex-char shard)."""
        return self.root / key[:2] / f"{key}.json"

    # -- writes ------------------------------------------------------------

    def put(self, record: Dict[str, object]) -> Path:
        """Atomically write one record; returns its path."""
        key = record.get("key")
        if not key:
            raise ValueError("record has no key")
        return write_record(self.path(key), record)

    # -- reads -------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The record for ``key``, or None when it has none. A crash can
        only leave complete files, but disks rot: a damaged record
        raises :class:`~repro.records.RecordError`."""
        path = self.path(key)
        if not path.exists():
            return None
        return _read(path)

    def status(self, key: str) -> Optional[str]:
        """``"ok"``, ``"failed"``, or None when ``key`` has no record."""
        record = self.get(key)
        return record.get("status") if record is not None else None

    def records(self) -> Iterator[Dict[str, object]]:
        """Every record in the store, key order; a damaged one raises
        :class:`~repro.records.RecordError`."""
        for path in sorted(self.root.glob("*/*.json")):
            yield _read(path)

    def query(self, mix: Optional[str] = None,
              policy: Optional[str] = None,
              kind: Optional[str] = None,
              status: Optional[str] = None) -> List[Dict[str, object]]:
        """Records matching every given filter (None = match all).

        ``policy`` matches the job's display point — the policy name
        for policy jobs, the ``Cap0.80`` / ``MD0.70`` style label for
        budget jobs — so one query API spans all sweep flavours.
        """
        out = []
        for record in self.records():
            job = record.get("job", {})
            if mix is not None and job.get("mix") != mix:
                continue
            if kind is not None and job.get("kind") != kind:
                continue
            if status is not None and record.get("status") != status:
                continue
            if policy is not None:
                label = job.get("label", "")
                point = label.split("/", 1)[-1]
                if job.get("policy") != policy and point != policy:
                    continue
            out.append(record)
        return out

    def counts(self) -> Dict[str, int]:
        """Record totals by status (plus ``"total"``)."""
        totals = {"total": 0, "ok": 0, "failed": 0}
        for record in self.records():
            totals["total"] += 1
            status = record.get("status")
            if status in totals:
                totals[status] += 1
        return totals

    def digests(self) -> Dict[str, str]:
        """Deterministic digest per key (see
        :func:`deterministic_digest`) — the store-identity check the
        crash-resume tests and the service smoke compare."""
        return {r["key"]: deterministic_digest(r) for r in self.records()}


def _read(path: Path) -> Dict[str, object]:
    return read_record(path, "delete it to re-run its job",
                       version=("format", STORE_FORMAT))
