"""The one record layer: every file the program reads back.

Cache traces and baseline runs, trace sidecars, imported traces, the
service's result store and ledger, telemetry, ``--save`` files and
``summary.json`` are written by :func:`atomic_write`: a temp file in
the target directory, then ``os.replace``, so readers and crashes only
see complete files. JSON records carry ``record_sha256``, the
:func:`content_digest` of their payload, which :func:`read_record` and
:func:`read_jsonl` verify when present (records from before digests
existed read unverified). Every failure is one :class:`RecordError`;
each consumer decides what it means — the experiment cache counts a
miss and regenerates, the store, the ledger and imported traces raise.
It sits at the top level because ``cpu/trace.py`` writes trace
sidecars and ``cpu/`` must not import ``sim/``.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

#: Field carrying a record's own content digest.
DIGEST_FIELD = "record_sha256"


class RecordError(ValueError):
    """A persisted file is incomplete, unreadable or fails its digest;
    the message reads ``"<path>[:line]: <cause>; <next step>"``."""

    def __init__(self, path: PathLike, cause: str, remedy: str,
                 line: Optional[int] = None) -> None:
        where = f"{path}:{line}" if line is not None else f"{path}"
        super().__init__(f"{where}: {cause}; {remedy}")


def content_digest(payload: Dict[str, object]) -> str:
    """Stable sha256 of a JSON-serializable payload (canonical form)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_sha256(*paths: PathLike) -> str:
    """sha256 of the concatenated bytes of ``paths``, read in 1 MiB
    chunks so a large trace is never held in memory whole."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """A binary temp file beside ``path``, moved onto it on success."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        # Mode "x" creates the file as a plain open() does, 0o666 less
        # the umask; mkstemp's 0o600 would lock other users out of a
        # shared cache or service directory.
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write(path: PathLike, data: Union[str, bytes]) -> Path:
    """Write ``data`` (text as UTF-8) to ``path`` atomically."""
    path = Path(path)
    with _replacing(path) as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    return path


def write_array(path: PathLike, array: np.ndarray) -> str:
    """Write ``array`` as an uncompressed ``.npy`` atomically, streamed
    from the array without a copy; returns the file's sha256."""
    with _replacing(Path(path)) as fh:
        np.save(fh, array, allow_pickle=False)
        fh.flush()
        return file_sha256(fh.name)


def signed(payload: Dict[str, object]) -> Dict[str, object]:
    """``payload`` with its :data:`DIGEST_FIELD` appended, digested as a
    reader parses it back (JSON turns non-string keys into strings,
    which reorders the canonical form)."""
    data = json.loads(json.dumps(payload))
    data[DIGEST_FIELD] = content_digest(data)
    return data


def write_record(path: PathLike, payload: Dict[str, object]) -> Path:
    """Write ``payload`` as a signed JSON record, atomically."""
    return atomic_write(path, json.dumps(signed(payload)))


def _verified(data: object, path: PathLike, remedy: str,
              line: Optional[int] = None) -> Dict[str, object]:
    """A parsed record minus its digest, which must match if present."""
    if not isinstance(data, dict):
        raise RecordError(path, "not a JSON object", remedy, line)
    digest = data.pop(DIGEST_FIELD, None)
    if digest is not None and digest != content_digest(data):
        raise RecordError(path, "record digest mismatch", remedy, line)
    return data


def read_record(path: PathLike, remedy: str,
                version: Optional[Tuple[str, int]] = None
                ) -> Dict[str, object]:
    """The verified payload of the JSON record at ``path``; ``version``
    is a ``(field, value)`` pair it must carry. Every failure is a
    :class:`RecordError` ending in ``remedy``."""
    try:
        data = json.loads(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise RecordError(path, f"unreadable ({exc})", remedy) from exc
    record = _verified(data, path, remedy)
    if version is not None and record.get(version[0]) != version[1]:
        raise RecordError(
            path, f"format {record.get(version[0])!r}, this code reads "
            f"{version[1]}", remedy)
    return record


def read_jsonl(path: PathLike, remedy: str
               ) -> Tuple[List[Dict[str, object]], int]:
    """The records of a JSON-lines stream: ``(records, skipped)``.

    Each line is verified as :func:`read_record` verifies a file. An
    unparseable *final* line — what a writer killed mid-append leaves —
    is skipped and counted; damage on any other line, or a final line
    that parses but fails its digest, raises :class:`RecordError`
    naming ``path:line``. A stream not yet created has no records.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise RecordError(path, f"unreadable ({exc})", remedy) from exc
    lines = [(n, line) for n, line in enumerate(raw.splitlines(), 1)
             if line.strip()]
    records: List[Dict[str, object]] = []
    skipped = 0
    for pos, (n, line) in enumerate(lines):
        try:
            data = json.loads(line)
        except ValueError as exc:
            if pos == len(lines) - 1:
                skipped += 1
                continue
            raise RecordError(path, f"unreadable ({exc})", remedy,
                              n) from exc
        records.append(_verified(data, path, remedy, n))
    return records, skipped
