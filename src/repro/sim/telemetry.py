"""Structured per-epoch telemetry.

The simulator and governor can stream one JSON record per epoch to a
:class:`TelemetrySink` — the observability layer the gem5 power-down
study (Jagtap et al.) argues is what makes epoch-based DVFS simulations
debuggable. Telemetry is *disabled by default*: the simulator holds
``None`` instead of a sink and pays only a single ``is None`` test per
epoch, so there is no measurable overhead unless a sink is attached.

Records follow the JSONL schema documented field-by-field in
``EXPERIMENTS.md`` ("Telemetry JSONL schema"). One line = one epoch:

    {"schema": 1, "kind": "epoch", "workload": "MID1",
     "governor": "MemScale", "epoch": 3, "t_start_ns": ..., ...}

Sinks:

* :class:`JsonlTelemetry` — stream one run's records to a ``.jsonl``
  file, replacing what the file held before;
* :class:`ListTelemetry`  — keep records in memory (tests, notebooks).

Files are read back with :func:`read_telemetry`, which is
:func:`repro.records.read_jsonl` plus schema validation: a partial
final line is skipped and counted, any other damage raises. Telemetry
lines carry no record digest: the documented field list is their
schema.
"""

from __future__ import annotations

import abc
import json
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.records import read_jsonl

PathLike = Union[str, Path]

#: The fields each schema version appended to the record, in emission
#: order — the one table of the JSONL schema (documented field by field
#: in EXPERIMENTS.md). Every later version only appends nullable
#: fields, so files of every listed version remain loadable. A schema
#: bump is one new entry here.
_FIELDS_ADDED_BY_VERSION: Dict[int, Tuple[str, ...]] = {
    # v1: the original epoch record
    1: ("schema", "kind", "workload", "governor", "epoch",
        "t_start_ns", "t_end_ns", "bus_mhz",
        "predicted_cpi", "actual_cpi", "slack_ns",
        "feasible_bus_mhz", "limited_by_slack",
        "energy_j", "memory_power_w", "channel_util"),
    # v2: power-cap fields, null for every governor without a budget
    2: ("budget_w", "predicted_power_w", "cap_feasible", "min_perf_norm"),
    # v3: per-domain fields, null except for
    # :class:`~repro.cap.multidomain.MultiDomainGovernor`
    3: ("core_freq_mhz", "core_power_w", "domain_budget_split"),
    # v4: placement fields, null except for
    # :class:`~repro.placement.governor.PlacementGovernor`
    4: ("migrations_per_epoch", "rank_state_residency"),
}

#: Field names of an epoch record of each schema version, in emission
#: order: the fields its version and every earlier one appended.
EPOCH_RECORD_FIELDS_BY_VERSION: Dict[int, Tuple[str, ...]] = dict(zip(
    _FIELDS_ADDED_BY_VERSION, accumulate(_FIELDS_ADDED_BY_VERSION.values())))

#: Version written into every record: the newest in the table.
TELEMETRY_SCHEMA_VERSION = max(EPOCH_RECORD_FIELDS_BY_VERSION)

#: Field names of a current epoch record, in emission order (the JSONL
#: schema contract checked by tests and documented in EXPERIMENTS.md).
EPOCH_RECORD_FIELDS = EPOCH_RECORD_FIELDS_BY_VERSION[TELEMETRY_SCHEMA_VERSION]


class TelemetrySink(abc.ABC):
    """Receiver of per-epoch telemetry records."""

    @abc.abstractmethod
    def emit(self, record: Dict[str, object]) -> None:
        """Consume one epoch record (a JSON-serializable dict)."""

    def close(self) -> None:
        """Flush and release any underlying resources."""

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ListTelemetry(TelemetrySink):
    """In-memory sink; ``records`` holds every emitted dict."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def emit(self, record: Dict[str, object]) -> None:
        self.records.append(record)


class JsonlTelemetry(TelemetrySink):
    """File sink writing one JSON object per line.

    A file holds one run: opening truncates it, so re-running into the
    same path (or a job's retry attempt) never appends a second run.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")

    def emit(self, record: Dict[str, object]) -> None:
        self._fh.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def epoch_record(workload: str, governor: str, epoch: int,
                 t_start_ns: float, t_end_ns: float, bus_mhz: float,
                 actual_cpi: Dict[str, float],
                 energy_j: Dict[str, float],
                 memory_power_w: float,
                 channel_util: List[float],
                 governor_state: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """Build one schema-conformant epoch record.

    ``governor_state`` carries the policy-side fields contributed by
    :meth:`repro.core.governor.Governor.telemetry_snapshot`
    (``predicted_cpi``, ``slack_ns``, ``feasible_bus_mhz``,
    ``limited_by_slack``, the cap governor's ``budget_w``,
    ``predicted_power_w``, ``cap_feasible``, ``min_perf_norm``, the
    multi-domain governor's ``core_freq_mhz``, ``core_power_w``,
    ``domain_budget_split``, and the placement governor's
    ``migrations_per_epoch``, ``rank_state_residency``); governors
    without the matching model leave them ``None``.
    """
    state = governor_state or {}
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "kind": "epoch",
        "workload": workload,
        "governor": governor,
        "epoch": epoch,
        "t_start_ns": float(t_start_ns),
        "t_end_ns": float(t_end_ns),
        "bus_mhz": float(bus_mhz),
        "predicted_cpi": state.get("predicted_cpi"),
        "actual_cpi": {app: float(v) for app, v in actual_cpi.items()},
        "slack_ns": state.get("slack_ns"),
        "feasible_bus_mhz": state.get("feasible_bus_mhz"),
        "limited_by_slack": state.get("limited_by_slack"),
        "energy_j": {k: float(v) for k, v in energy_j.items()},
        "memory_power_w": float(memory_power_w),
        "channel_util": [float(u) for u in channel_util],
        "budget_w": state.get("budget_w"),
        "predicted_power_w": state.get("predicted_power_w"),
        "cap_feasible": state.get("cap_feasible"),
        "min_perf_norm": state.get("min_perf_norm"),
        "core_freq_mhz": state.get("core_freq_mhz"),
        "core_power_w": state.get("core_power_w"),
        "domain_budget_split": state.get("domain_budget_split"),
        "migrations_per_epoch": state.get("migrations_per_epoch"),
        "rank_state_residency": state.get("rank_state_residency"),
    }


def validate_epoch_record(record: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` matches the JSONL schema.

    Used by tests and by consumers replaying telemetry files from
    other runs; checks field presence, types, and the schema version.
    Every version in :data:`EPOCH_RECORD_FIELDS_BY_VERSION` is accepted
    and must carry that version's fields — v1 files lack the cap
    fields, v2 files lack the per-domain fields, v3 files lack the
    placement fields. The version must be a plain ``int``: ``true`` or
    ``1.0`` are rejected, not read as v1.
    """
    version = record.get("schema")
    if (type(version) is not int
            or version not in EPOCH_RECORD_FIELDS_BY_VERSION):
        raise ValueError(f"unsupported telemetry schema {version!r}")
    required = EPOCH_RECORD_FIELDS_BY_VERSION[version]
    missing = [f for f in required if f not in record]
    if missing:
        raise ValueError(f"epoch record missing fields: {missing}")
    if record["kind"] != "epoch":
        raise ValueError(f"unknown record kind {record['kind']!r}")
    for name, types in (("workload", str), ("governor", str), ("epoch", int),
                        ("t_start_ns", (int, float)),
                        ("t_end_ns", (int, float)),
                        ("bus_mhz", (int, float)),
                        ("memory_power_w", (int, float)),
                        ("actual_cpi", dict), ("energy_j", dict),
                        ("channel_util", list)):
        if not isinstance(record[name], types):
            raise ValueError(f"field {name!r} has type "
                             f"{type(record[name]).__name__}")
    for name in ("predicted_cpi", "slack_ns", "feasible_bus_mhz"):
        if record[name] is not None and not isinstance(record[name], list):
            raise ValueError(f"field {name!r} must be a list or null")
    if record["limited_by_slack"] is not None \
            and not isinstance(record["limited_by_slack"], bool):
        raise ValueError("field 'limited_by_slack' must be a bool or null")
    if version == 1:
        return
    for name in ("budget_w", "predicted_power_w", "min_perf_norm"):
        if record[name] is not None \
                and not isinstance(record[name], (int, float)):
            raise ValueError(f"field {name!r} must be a number or null")
    if record["cap_feasible"] is not None \
            and not isinstance(record["cap_feasible"], bool):
        raise ValueError("field 'cap_feasible' must be a bool or null")
    if version == 2:
        return
    for name in ("core_freq_mhz", "core_power_w"):
        if record[name] is not None \
                and not isinstance(record[name], (int, float)):
            raise ValueError(f"field {name!r} must be a number or null")
    if record["domain_budget_split"] is not None \
            and not isinstance(record["domain_budget_split"], dict):
        raise ValueError("field 'domain_budget_split' must be a dict "
                         "or null")
    if version == 3:
        return
    if record["migrations_per_epoch"] is not None \
            and not isinstance(record["migrations_per_epoch"], int):
        raise ValueError("field 'migrations_per_epoch' must be an int "
                         "or null")
    if record["rank_state_residency"] is not None \
            and not isinstance(record["rank_state_residency"], dict):
        raise ValueError("field 'rank_state_residency' must be a dict "
                         "or null")


def read_telemetry(path: PathLike
                   ) -> Tuple[List[Dict[str, object]], int]:
    """Read and validate a telemetry JSONL file; ``(records, skipped)``.

    A run killed mid-write (SIGKILL, OOM, power loss) leaves a partial
    final line; :func:`repro.records.read_jsonl` skips and counts that
    fragment — losing one epoch record must not lose the file. A line
    that fails to parse anywhere before the end raises
    :class:`~repro.records.RecordError`, and one that parses but
    violates the epoch schema raises ``ValueError``.
    """
    records, skipped = read_jsonl(path, "re-run to regenerate it")
    for record in records:
        validate_epoch_record(record)
    return records, skipped


def load_telemetry(path: PathLike) -> List[Dict[str, object]]:
    """Read and validate every record of a telemetry JSONL file.

    Convenience wrapper over :func:`read_telemetry` that discards the
    truncated-tail count; callers that want to surface it (``repro
    query``, analysis notebooks) should use :func:`read_telemetry`.
    """
    records, _ = read_telemetry(path)
    return records
