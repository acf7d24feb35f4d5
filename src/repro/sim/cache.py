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
* **corruption-safe** — unreadable or truncated entries are treated as
  misses (and deleted), falling back to regeneration;
* **atomic** — entries are written to a temp file and ``os.replace``d
  into place, so concurrent writers (the parallel runner's workers)
  can only ever observe complete entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.cpu.trace import WorkloadTrace, columnar_sidecar_path
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
    share cache entries. ``fast_forward`` and ``busy_absorption`` are
    excluded for the same reason — the analytic idle-period batch and
    the inline continuation-chain path both reproduce event-driven
    results bit for bit, so all settings may share entries.
    """
    payload = dataclasses.asdict(config)
    payload.pop("validate_protocol", None)
    payload.pop("fast_forward", None)
    payload.pop("busy_absorption", None)
    # Retired surrogate flag, pinned false so existing keys stay valid.
    payload["approx_steady_state"] = False
    return payload


def content_digest(payload: Dict[str, object]) -> str:
    """Stable sha256 of a JSON-serializable payload (canonical form)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
        if path.exists() and sidecar.exists():
            try:
                trace = WorkloadTrace.load_columnar(path, mmap=True)
            except Exception:
                # Corrupted / truncated entry: discard and regenerate.
                path.unlink(missing_ok=True)
                sidecar.unlink(missing_ok=True)
            else:
                self.hits += 1
                return trace
        self.misses += 1
        return None

    def store_trace(self, key: str, trace: WorkloadTrace) -> Path:
        path = self._trace_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # np.save appends ".npy" unless the name already ends with it,
        # so the temp files must carry the final suffix. The data file
        # is moved into place before the sidecar: a reader only trusts
        # an entry once both halves exist.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npy")
        os.close(fd)
        tmp_sidecar = columnar_sidecar_path(tmp)
        try:
            trace.save_columnar(tmp)
            os.replace(tmp, path)
            os.replace(tmp_sidecar, columnar_sidecar_path(path))
        finally:
            Path(tmp).unlink(missing_ok=True)
            tmp_sidecar.unlink(missing_ok=True)
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
        """Persist an ingested trace under ``imported/<name>``."""
        check_trace_name(name)
        path = self._imported_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npy")
        os.close(fd)
        tmp_sidecar = columnar_sidecar_path(tmp)
        try:
            trace.save_columnar(tmp)
            digest = self._file_digest(Path(tmp), tmp_sidecar)
            meta = {"name": name, "digest": digest,
                    "summary": summary or {}}
            fd, tmp_meta = tempfile.mkstemp(dir=path.parent,
                                            suffix=".import.json.tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(meta))
            # Data first, sidecar second, meta last: a reader only
            # trusts the entry once all pieces exist.
            os.replace(tmp, path)
            os.replace(tmp_sidecar, columnar_sidecar_path(path))
            os.replace(tmp_meta, self._imported_meta_path(name))
        finally:
            Path(tmp).unlink(missing_ok=True)
            tmp_sidecar.unlink(missing_ok=True)
        return path

    def load_imported_trace(self, name: str) -> Optional[WorkloadTrace]:
        """The imported trace stored under ``name``, or None."""
        path = self._imported_path(name)
        if not (path.exists() and columnar_sidecar_path(path).exists()):
            return None
        return WorkloadTrace.load_columnar(path, mmap=True)

    def imported_trace_digest(self, name: str) -> Optional[str]:
        """Content digest of the named imported trace, or None."""
        meta_path = self._imported_meta_path(name)
        if meta_path.exists():
            try:
                return str(json.loads(meta_path.read_text())["digest"])
            except (ValueError, KeyError):
                pass
        path = self._imported_path(name)
        sidecar = columnar_sidecar_path(path)
        if path.exists() and sidecar.exists():
            return self._file_digest(path, sidecar)
        return None

    def imported_trace_meta(self, name: str) -> Optional[Dict[str, object]]:
        """The stored import record (digest + ingestion summary)."""
        meta_path = self._imported_meta_path(name)
        if not meta_path.exists():
            return None
        try:
            return json.loads(meta_path.read_text())
        except ValueError:
            return None

    def imported_names(self) -> List[str]:
        """Names of complete imported traces (both halves present)."""
        imported = self.root / "imported"
        if not imported.exists():
            return []
        return sorted(
            p.stem for p in imported.glob("*.npy")
            if columnar_sidecar_path(p).exists())

    @staticmethod
    def _file_digest(*paths: Path) -> str:
        h = hashlib.sha256()
        for path in paths:
            h.update(path.read_bytes())
        return h.hexdigest()

    def _imported_path(self, name: str) -> Path:
        return self.root / "imported" / f"{name}.npy"

    def _imported_meta_path(self, name: str) -> Path:
        return self.root / "imported" / f"{name}.import.json"

    # -- baseline run results ----------------------------------------------

    def load_run(self, key: str) -> Optional[RunResult]:
        """The cached run result for ``key``, or None on a miss."""
        path = self._run_path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            result = run_result_from_dict(json.loads(path.read_text()))
        except Exception:
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store_run(self, key: str, result: RunResult) -> Path:
        path = self._run_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(run_result_to_dict(result))
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
        return path

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
        """Delete every entry (traces, sidecars, runs); returns what was
        removed. The root directory itself is kept.

        Columnar entries are removed pair-wise, data half first: an
        interruption between the two unlinks leaves an orphan
        *sidecar*, which readers already refuse to load and the next
        prune (or stats) treats as stale rather than as an entry.
        Pre-existing orphan halves are swept the same way.
        """
        files_removed = 0
        bytes_removed = 0

        def _rm(path: Path) -> None:
            nonlocal files_removed, bytes_removed
            if path.is_file():
                bytes_removed += path.stat().st_size
                path.unlink()
                files_removed += 1

        if self.root.exists():
            complete, orphans = self._scan_traces()
            for npy in complete:
                _rm(npy)
                _rm(columnar_sidecar_path(npy))
            for orphan in orphans:
                _rm(orphan)
            for path in sorted(self.root.rglob("*"), reverse=True):
                if path.is_file():
                    _rm(path)
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
