"""LLC miss/writeback trace format.

The paper's first simulation step collects memory-access traces (LLC
misses and writebacks) with M5 (Section 4.1); the second step replays
them in the memory-system simulator. This module defines the replayable
trace format: for each core, a sequence of records

    (gap_instructions, read_line_addr, writeback_line_addr)

meaning "commit ``gap_instructions`` instructions, then miss the LLC at
``read_line_addr``; if ``writeback_line_addr >= 0``, the miss also evicts
a dirty line that is written back". Traces are stored as parallel numpy
arrays. On disk (:meth:`WorkloadTrace.save_columnar` /
:meth:`WorkloadTrace.load_columnar`) a trace is one *uncompressed* flat
``.npy`` (a ``(3, total_records)`` int64 matrix: gaps, read addresses,
writeback addresses, with every core's records concatenated) plus a
small JSON sidecar mapping cores to column ranges. Uncompressed arrays
can be memory-mapped: workers of a parallel sweep
``np.load(..., mmap_mode="r")`` the one file the experiment cache
stores and share its pages through the OS page cache instead of each
regenerating a private copy — the zero-copy fan-out path. Both halves
go through :mod:`repro.records`; the sidecar is a signed record that
also carries ``data_sha256``, the sha256 of the ``.npy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.records import (RecordError, file_sha256, read_record,
                           write_array, write_record)

#: Version tag of the columnar (.npy + sidecar) trace layout.
COLUMNAR_TRACE_VERSION = 1


def columnar_sidecar_path(path: "Path | str") -> Path:
    """The JSON sidecar accompanying a columnar trace file."""
    return Path(str(path) + ".meta.json")


@dataclass
class CoreTrace:
    """The access trace replayed by one core."""

    app_name: str
    app_id: int
    gaps: np.ndarray        #: int64, instructions committed before each miss
    read_addrs: np.ndarray  #: int64, cache-line index of each LLC miss
    wb_addrs: np.ndarray    #: int64, writeback line index or -1 for none

    def __post_init__(self) -> None:
        n = len(self.gaps)
        if len(self.read_addrs) != n or len(self.wb_addrs) != n:
            raise ValueError("trace arrays must have equal length")
        if not n:
            return
        if self.gaps.min() < 0:
            raise ValueError("instruction gaps must be non-negative")
        # Addresses are checked here, at the boundary, so a bad record
        # fails when the trace is built or loaded (a corrupted cache
        # entry is then an ordinary miss), never mid-run in the MC.
        for kind, addrs, lowest, rule in (
                ("read", self.read_addrs, 0, ">= 0"),
                ("writeback", self.wb_addrs, -1,
                 ">= 0, or -1 for no writeback")):
            if addrs.min() < lowest:
                index = int(np.argmax(addrs < lowest))
                raise ValueError(
                    f"trace of app {self.app_name!r}: record {index} has "
                    f"{kind} line address {int(addrs[index])}, but {kind} "
                    f"addresses must be {rule}")

    def __len__(self) -> int:
        return len(self.gaps)

    @property
    def total_instructions(self) -> int:
        """Instructions committed over one full pass of the trace."""
        return int(self.gaps.sum())

    @property
    def total_reads(self) -> int:
        return len(self.read_addrs)

    @property
    def total_writebacks(self) -> int:
        return int((self.wb_addrs >= 0).sum())

    @property
    def rpki(self) -> float:
        """LLC misses per kilo-instruction over the trace."""
        instr = self.total_instructions
        return 1000.0 * self.total_reads / instr if instr else 0.0

    @property
    def wpki(self) -> float:
        """LLC writebacks per kilo-instruction over the trace."""
        instr = self.total_instructions
        return 1000.0 * self.total_writebacks / instr if instr else 0.0


@dataclass
class WorkloadTrace:
    """A multiprogrammed mix: one :class:`CoreTrace` per core."""

    name: str
    cores: List[CoreTrace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def app_names(self) -> List[str]:
        """Distinct application names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for core in self.cores:
            seen.setdefault(core.app_name, None)
        return list(seen)

    def cores_of_app(self, app_name: str) -> List[int]:
        return [i for i, c in enumerate(self.cores) if c.app_name == app_name]

    @property
    def rpki(self) -> float:
        """Mix-level misses per kilo-instruction (aggregate, as Table 1)."""
        instr = sum(c.total_instructions for c in self.cores)
        reads = sum(c.total_reads for c in self.cores)
        return 1000.0 * reads / instr if instr else 0.0

    @property
    def wpki(self) -> float:
        instr = sum(c.total_instructions for c in self.cores)
        wbs = sum(c.total_writebacks for c in self.cores)
        return 1000.0 * wbs / instr if instr else 0.0

    # -- persistence -----------------------------------------------------

    def save_columnar(self, path: "Path | str") -> None:
        """Serialize as one flat uncompressed ``.npy`` + JSON sidecar.

        The matrix layout is row-major ``(3, total_records)`` — gaps,
        read addresses, writeback addresses — so each per-core slice of
        a row is contiguous and loading with ``mmap_mode="r"`` hands the
        replayer views without copying or decompressing anything. The
        data file lands before the sidecar that vouches for it.
        """
        total = sum(len(c) for c in self.cores)
        data = np.empty((3, total), dtype=np.int64)
        meta_cores = []
        offset = 0
        for core in self.cores:
            n = len(core)
            data[0, offset:offset + n] = core.gaps
            data[1, offset:offset + n] = core.read_addrs
            data[2, offset:offset + n] = core.wb_addrs
            meta_cores.append({"app_name": core.app_name,
                               "app_id": core.app_id,
                               "offset": offset, "count": n})
            offset += n
        data_sha256 = write_array(path, data)
        write_record(columnar_sidecar_path(path), {
            "version": COLUMNAR_TRACE_VERSION,
            "name": self.name,
            "cores": meta_cores,
            "data_sha256": data_sha256,
        })

    @classmethod
    def load_columnar(cls, path: "Path | str", mmap: bool = True,
                      remedy: str = "delete the entry (for cache entries: "
                      "`repro cache --prune`) and regenerate or re-import "
                      "the trace") -> "WorkloadTrace":
        """Load a columnar trace; with ``mmap`` (the default) the core
        arrays are read-only views of a shared memory map.

        Both digests are checked before the data is mapped. Every way
        an entry fails to load — a missing half, a digest mismatch, a
        bad shape or core range, an address :class:`CoreTrace` rejects
        — raises :class:`~repro.records.RecordError` ending in
        ``remedy``.
        """
        data_path = Path(str(path))
        sidecar_path = columnar_sidecar_path(path)
        missing = []
        if not data_path.exists():
            missing.append(f"data file {data_path}")
        if not sidecar_path.exists():
            missing.append(f"sidecar {sidecar_path}")
        if missing:
            raise RecordError(
                data_path, "incomplete columnar pair: missing "
                + " and ".join(missing), remedy)
        meta = read_record(sidecar_path, remedy,
                           version=("version", COLUMNAR_TRACE_VERSION))
        if ("data_sha256" in meta
                and file_sha256(data_path) != meta["data_sha256"]):
            raise RecordError(data_path, "data digest mismatch", remedy)
        try:
            data = np.load(str(path), mmap_mode="r" if mmap else None,
                           allow_pickle=False)
            if data.ndim != 2 or data.shape[0] != 3:
                raise ValueError(f"bad columnar trace shape {data.shape}")
            cores = []
            for entry in meta["cores"]:
                lo = int(entry["offset"])
                hi = lo + int(entry["count"])
                if hi > data.shape[1]:
                    raise ValueError("columnar trace sidecar out of range")
                cores.append(CoreTrace(app_name=str(entry["app_name"]),
                                       app_id=int(entry["app_id"]),
                                       gaps=data[0, lo:hi],
                                       read_addrs=data[1, lo:hi],
                                       wb_addrs=data[2, lo:hi]))
            name = str(meta["name"])
        except (OSError, EOFError, ValueError, KeyError, TypeError) as exc:
            raise RecordError(data_path, f"unloadable ({exc})",
                              remedy) from exc
        return cls(name=name, cores=cores)
