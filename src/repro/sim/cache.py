"""Content-keyed on-disk cache for traces and baseline runs.

Every experiment regenerates the same two expensive artifacts: the
deterministic :class:`~repro.cpu.trace.WorkloadTrace` of a mix and the
all-on maximum-frequency baseline :class:`~repro.sim.results.RunResult`
that every policy comparison normalizes against (Section 4.1). Neither
survives the process in the serial runner, so a Figure sweep pays for
them on every invocation. This cache keys both by the *content* of what
produced them — the trace generator inputs for traces, the full
:class:`~repro.config.SystemConfig` plus runner settings for baselines —
and stores them under ``.repro_cache/``: traces in the *columnar*
``.npy`` + sidecar layout (``WorkloadTrace.save_columnar``), which
workers of a parallel sweep load with ``mmap_mode="r"`` so one on-disk
copy feeds every process through the OS page cache; run results as
:mod:`repro.sim.serialize` JSON.

Properties:

* **hit/miss by construction** — any change to the configuration, the
  scale settings, or the seed changes the key, so stale entries can
  never be returned; they are simply never looked up again;
* **verified** — every entry is written and read through
  :mod:`repro.records`: atomically, so concurrent writers (the parallel
  runner's workers) only ever observe complete entries, and with a
  content digest checked on load. Generated traces and baseline runs
  are derived data, so an entry that fails to load (a
  :class:`~repro.records.RecordError`) is deleted and counted as a
  miss, and regenerated. Imported traces are originals that cannot be
  regenerated: damage raises, naming the re-import command.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.cpu.trace import WorkloadTrace, columnar_sidecar_path
from repro.records import (RecordError, content_digest, file_sha256,
                           read_record, write_record)
from repro.sim.results import RunResult
from repro.sim.serialize import run_result_from_dict, run_result_to_dict

PathLike = Union[str, Path]

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Bumped whenever the cached representation (or the simulation it
#: captures) changes incompatibly; old entries then become unreachable.
#: Format 2: DDR3 timing bugfixes (freeze-window MC latency, per-channel
#: freeze, refresh stagger, writeback-pressure accounting) changed
#: simulated results, so format-1 baselines are stale.
CACHE_FORMAT = 2


def config_fingerprint(config: SystemConfig) -> Dict[str, object]:
    """A JSON-serializable dict capturing every field of ``config``.

    ``validate_protocol`` is excluded: the validator only observes, so a
    run produces byte-identical results armed or not and the two may
    share cache entries. ``fast_forward`` is excluded for the same
    reason — the analytic idle-period batch reproduces event-driven
    results bit for bit, so both settings may share entries.
    """
    payload = dataclasses.asdict(config)
    payload.pop("validate_protocol", None)
    payload.pop("fast_forward", None)
    # Retired surrogate flag, pinned false so existing keys stay valid.
    payload["approx_steady_state"] = False
    return payload


#: Next step named by a damaged cache entry, which the cache takes
#: itself: the entry is deleted and counted as a miss.
_REGENERATE = "the cache deletes and regenerates it"

#: Characters allowed in an imported-trace name (it becomes a file name).
_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def check_trace_name(name: str) -> str:
    """Validate a user-chosen imported-trace name; returns it unchanged."""
    if not name or not set(name) <= _NAME_OK:
        raise ValueError(
            f"invalid trace name {name!r}: use letters, digits, and ._- only")
    return name


class ExperimentCache:
    """Directory-backed store of traces and baseline run results."""

    def __init__(self, root: PathLike = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- keys --------------------------------------------------------------

    def trace_key(self, mix: str, cores: int, instructions_per_core: int,
                  seed: int) -> str:
        """Content key of a generated trace.

        Traces depend only on the generator inputs, not on the memory
        configuration, so configuration sweeps (Figures 12-15) share
        one cached trace per mix.
        """
        return content_digest({
            "format": CACHE_FORMAT, "kind": "trace", "mix": mix,
            "cores": cores, "instructions": instructions_per_core,
            "seed": seed,
        })

    def baseline_key(self, config: SystemConfig, mix: str, cores: int,
                     instructions_per_core: int, seed: int) -> str:
        """Content key of an all-on baseline run (config-sensitive)."""
        return content_digest({
            "format": CACHE_FORMAT, "kind": "baseline", "mix": mix,
            "cores": cores, "instructions": instructions_per_core,
            "seed": seed, "config": config_fingerprint(config),
        })

    # -- traces ------------------------------------------------------------

    def load_trace(self, key: str) -> Optional[WorkloadTrace]:
        """The cached trace for ``key``, or None on a miss.

        Columnar entries are loaded with ``mmap_mode="r"``: the arrays
        handed to the replayer are views of a shared read-only map, so
        concurrent sweep workers pay for the trace bytes once (in the
        OS page cache) instead of once per process.
        """
        path = self._trace_path(key)
        sidecar = columnar_sidecar_path(path)
        # A lone half may be a concurrent writer's entry in progress:
        # a plain miss, left in place.
        if path.exists() and sidecar.exists():
            try:
                trace = WorkloadTrace.load_columnar(path, mmap=True,
                                                    remedy=_REGENERATE)
            except RecordError:
                path.unlink(missing_ok=True)
                sidecar.unlink(missing_ok=True)
            else:
                self.hits += 1
                return trace
        self.misses += 1
        return None

    def store_trace(self, key: str, trace: WorkloadTrace) -> Path:
        path = self._trace_path(key)
        trace.save_columnar(path)
        return path

    # -- imported external traces -------------------------------------------
    #
    # Unlike generated traces (content-keyed, regenerable on a miss),
    # imported traces are *named* originals: the source file may be gone,
    # so entries live under ``imported/<name>`` with a JSON meta record
    # carrying a content digest. The digest folds into baseline cache
    # keys so re-importing a different trace under the same name can
    # never resurrect a stale baseline.

    def store_imported_trace(self, name: str, trace: WorkloadTrace,
                             summary: Optional[Dict[str, object]] = None
                             ) -> Path:
        """Persist an ingested trace under ``imported/<name>``.

        Data, sidecar, then the meta record last: a reader only trusts
        the entry once all pieces exist.
        """
        check_trace_name(name)
        path = self._imported_path(name)
        trace.save_columnar(path)
        write_record(self._imported_meta_path(name), {
            "name": name,
            "digest": file_sha256(path, columnar_sidecar_path(path)),
            "summary": summary or {}})
        return path

    def load_imported_trace(self, name: str) -> Optional[WorkloadTrace]:
        """The imported trace stored under ``name``, or None."""
        path = self._imported_path(name)
        if not (path.exists() and columnar_sidecar_path(path).exists()):
            return None
        return WorkloadTrace.load_columnar(path, mmap=True,
                                           remedy=_reimport(name))

    def imported_trace_digest(self, name: str) -> Optional[str]:
        """Content digest of the named imported trace, or None.

        The digest comes from the meta record, which must verify; an
        entry without one (imported before meta records existed) is
        hashed from its data and sidecar files.
        """
        meta_path = self._imported_meta_path(name)
        if meta_path.exists():
            return str(read_record(meta_path, _reimport(name))["digest"])
        path = self._imported_path(name)
        sidecar = columnar_sidecar_path(path)
        if path.exists() and sidecar.exists():
            return file_sha256(path, sidecar)
        return None

    def imported_names(self) -> List[str]:
        """Names of complete imported traces (both halves present)."""
        imported = self.root / "imported"
        if not imported.exists():
            return []
        return sorted(
            p.stem for p in imported.glob("*.npy")
            if columnar_sidecar_path(p).exists())

    def _imported_path(self, name: str) -> Path:
        return self.root / "imported" / f"{name}.npy"

    def _imported_meta_path(self, name: str) -> Path:
        return self.root / "imported" / f"{name}.import.json"

    # -- baseline run results ----------------------------------------------

    def load_run(self, key: str) -> Optional[RunResult]:
        """The cached run result for ``key``, or None on a miss."""
        path = self._run_path(key)
        try:
            result = run_result_from_dict(read_record(path, _REGENERATE))
        except RecordError:
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store_run(self, key: str, result: RunResult) -> Path:
        return write_record(self._run_path(key), run_result_to_dict(result))

    # -- bookkeeping -------------------------------------------------------

    @property
    def entries(self) -> int:
        """Number of *usable* cache entries currently on disk.

        Columnar trace entries count only when both halves (``.npy``
        plus its sidecar) exist — a lone half can never be loaded.
        """
        if not self.root.exists():
            return 0
        complete, _ = self._scan_traces()
        return (len(complete)
                + sum(1 for _ in self.root.glob("runs/*.json")))

    def _scan_traces(self) -> Tuple[List[Path], List[Path]]:
        """Columnar trace files on disk: ``(complete, orphans)``.

        ``complete`` holds the ``.npy`` paths whose sidecar is present;
        ``orphans`` holds lone halves — a ``.npy`` missing its sidecar
        or a sidecar missing its data file, the residue of an
        interrupted writer or a half-finished prune. Orphans are dead
        weight: :meth:`load_trace` will never trust them, so stats must
        not count them as entries and :meth:`prune` sweeps them.
        """
        complete: List[Path] = []
        orphans: List[Path] = []
        traces = self.root / "traces"
        if not traces.exists():
            return complete, orphans
        npys = set(traces.glob("*.npy"))
        sidecars = set(traces.glob("*.npy.meta.json"))
        for npy in sorted(npys):
            if columnar_sidecar_path(npy) in sidecars:
                complete.append(npy)
            else:
                orphans.append(npy)
        for sidecar in sorted(sidecars):
            data = Path(str(sidecar)[:-len(".meta.json")])
            if data not in npys:
                orphans.append(sidecar)
        return complete, orphans

    def stats(self) -> Dict[str, object]:
        """Entry counts and on-disk footprint (for ``repro cache``)."""
        trace_entries = run_entries = 0
        orphan_files = 0
        total_bytes = 0
        imported_entries = 0
        if self.root.exists():
            complete, orphans = self._scan_traces()
            trace_entries = len(complete)
            orphan_files = len(orphans)
            imported_entries = len(self.imported_names())
            for path in self.root.rglob("*"):
                if not path.is_file():
                    continue
                total_bytes += path.stat().st_size
                if path.parent.name == "runs" and path.suffix == ".json":
                    run_entries += 1
        return {
            "root": str(self.root),
            "trace_entries": trace_entries,
            "imported_entries": imported_entries,
            "run_entries": run_entries,
            "orphan_files": orphan_files,
            "total_bytes": total_bytes,
        }

    def prune(self) -> Dict[str, int]:
        """Delete every entry (traces, sidecars, runs, orphan halves);
        returns what was removed. The root directory itself is kept.

        The order of deletion does not matter: the lone half of a
        columnar entry an interrupted prune can leave is never loaded,
        and the next prune sweeps it.
        """
        files_removed = 0
        bytes_removed = 0
        if self.root.exists():
            for path in sorted(self.root.rglob("*"), reverse=True):
                if path.is_file():
                    bytes_removed += path.stat().st_size
                    path.unlink()
                    files_removed += 1
                elif path.is_dir():
                    try:
                        path.rmdir()
                    except OSError:  # pragma: no cover - non-empty dir
                        pass
        return {"files_removed": files_removed,
                "bytes_removed": bytes_removed}

    def _trace_path(self, key: str) -> Path:
        return self.root / "traces" / f"{key}.npy"

    def _run_path(self, key: str) -> Path:
        return self.root / "runs" / f"{key}.json"


def _reimport(name: str) -> str:
    """Next step for a damaged imported trace: it is an original."""
    return f"re-import it with `repro trace import FILE --name {name}`"
