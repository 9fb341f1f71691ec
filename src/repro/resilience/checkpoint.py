"""Crash-safe checkpointing of in-flight ATMULT executions.

A multiplication over a big AT Matrix runs long enough that an
unattended process crash — OOM kill, node reboot, ``kill -9`` — must not
cost the whole run (see ``docs/RESILIENCE.md``).  The
:class:`CheckpointStore` journals every *completed* tile-pair of an
:class:`~repro.engine.plan.ExecutionPlan` to a spill directory:

``<dir>/MANIFEST.json``
    The plan fingerprint, result shape and pair count the journal
    belongs to, written before the first record.
``<dir>/pairs/pair-<ti>-<tj>.npz``
    One record per completed pair: a JSON meta member (plan
    fingerprint, pair coordinates, tile geometry and kind, CRC-32C of
    the payload bytes) plus the result-tile payload arrays, stored
    uncompressed (``np.savez``: deflate saves little on float tiles and
    costs several times the fsync).  Records written compressed by
    older versions still load, so their journals resume.  Pairs whose
    product is all-zero are recorded with ``empty=true`` and no payload
    so a resume does not re-execute them either.

Every file lands via :func:`~repro.ioutil.atomic_write` (temp file +
fsync + rename), so a crash leaves either a complete record or no
record — never a torn one.  On resume the store validates the manifest
against the *current* plan's fingerprint (mismatched topology raises
:class:`~repro.errors.PlanMismatchError`) and every record's checksum
(corruption raises :class:`~repro.errors.IntegrityError`), then hands
:func:`~repro.engine.executor.execute_plan` the completed tiles so only
unfinished pairs run.

The granularity of recovery is the flush interval
(:attr:`~repro.engine.options.MultiplyOptions.checkpoint_flush_pairs`):
a crash costs at most the pairs buffered since the last flush.
"""

from __future__ import annotations

import contextlib
import json
import threading
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.tile import Tile
from ..errors import IntegrityError, PlanMismatchError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..ioutil import atomic_write, atomic_write_text, crc32c
from ..kinds import StorageKind
from ..observe import session as observe_session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.plan import ExecutionPlan

    PairCoords = tuple[int, int]

__all__ = ["CheckpointStore"]

#: Checkpoint journal layout version.
JOURNAL_VERSION = 1

_MANIFEST = "MANIFEST.json"
_PAIR_DIR = "pairs"


def _record_name(ti: int, tj: int) -> str:
    return f"pair-{ti:05d}-{tj:05d}.npz"


def _payload_arrays(tile: Tile) -> dict[str, np.ndarray]:
    if isinstance(tile.data, DenseMatrix):
        return {"dense": tile.data.array}
    return {
        "indptr": tile.data.indptr,
        "indices": tile.data.indices,
        "values": tile.data.values,
    }


def _payload_crc(arrays: dict[str, np.ndarray]) -> int:
    """Chained CRC-32C over the payload arrays in stable name order."""
    crc = 0
    for name in sorted(arrays):
        crc = crc32c(arrays[name], crc)
    return crc


class CheckpointStore:
    """A durable journal of completed tile-pairs under one plan.

    The store is safe to share between the executor's worker threads:
    records are buffered under a lock and written out in batches by
    :meth:`flush`.  Lifecycle::

        store = CheckpointStore(directory, resume=True)
        completed = store.begin(plan)      # {} on a fresh run
        ... execute_plan(..., options=MultiplyOptions(checkpoint=store))  # records + flushes
        store.flush()                      # final drain

    Attributes
    ----------
    directory:
        The spill directory (created on demand).
    flushes, records_written:
        Lifetime counters, surfaced by the executor's report.
    """

    def __init__(self, directory: str | Path, *, resume: bool = False) -> None:
        self.directory = Path(directory)
        self.resume = resume
        self.flushes = 0
        self.records_written = 0
        self._plan_fingerprint: str | None = None
        self._buffer: dict[tuple[int, int], Tile | None] = {}
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    def begin(self, plan: ExecutionPlan) -> dict[PairCoords, Tile | None]:
        """Bind the store to ``plan`` and return the pairs already done.

        On a resumed run with a matching journal this loads and
        validates every record; on a fresh run (or ``resume=False``) any
        stale journal content is cleared and an empty mapping returned.
        """
        with self._lock:
            return self._begin_locked(plan)

    def _begin_locked(self, plan: ExecutionPlan) -> dict[PairCoords, Tile | None]:
        self._plan_fingerprint = plan.fingerprint
        self._buffer.clear()
        pair_dir = self.directory / _PAIR_DIR
        pair_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / _MANIFEST
        completed: dict[tuple[int, int], Tile | None] = {}
        if self.resume and manifest_path.exists():
            manifest = self._read_manifest(manifest_path)
            if manifest.get("plan") != plan.fingerprint:
                raise PlanMismatchError(
                    "checkpoint journal belongs to a different plan "
                    f"(journal {str(manifest.get('plan'))[:12]}... vs "
                    f"plan {plan.fingerprint[:12]}...); point --checkpoint-dir "
                    "at a fresh directory or drop --resume"
                )
            for record_path in sorted(pair_dir.glob("pair-*.npz")):
                coords, tile = self._load_record(record_path)
                completed[coords] = tile
            observe_session.counter("checkpoint.records_loaded").inc(len(completed))
            return completed
        # Fresh run: a stale journal under this directory belongs to a
        # previous invocation and must not leak into this one.
        for record_path in pair_dir.glob("pair-*.npz"):
            with contextlib.suppress(OSError):
                record_path.unlink()
        manifest = {
            "version": JOURNAL_VERSION,
            "plan": plan.fingerprint,
            "shape": list(plan.shape),
            "pairs": len(plan.pairs),
        }
        atomic_write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")
        return completed

    @staticmethod
    def _read_manifest(path: Path) -> dict[str, Any]:
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise IntegrityError(
                f"checkpoint manifest {path} is unreadable: {error}"
            ) from error
        if not isinstance(loaded, dict) or loaded.get("version") != JOURNAL_VERSION:
            raise IntegrityError(
                f"checkpoint manifest {path} has unsupported layout "
                f"(expected version {JOURNAL_VERSION})"
            )
        return loaded

    # -- recording ---------------------------------------------------------
    def record(self, coords: PairCoords, tile: Tile | None) -> None:
        """Buffer one completed pair (``None`` for an all-zero product)."""
        with self._lock:
            self._buffer[coords] = tile

    def pending(self) -> int:
        """Number of buffered records not yet flushed to disk."""
        with self._lock:
            return len(self._buffer)

    def flush(self) -> int:
        """Write every buffered record durably; returns the count."""
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        if not self._buffer:
            return 0
        drained = sorted(self._buffer.items())
        self._buffer.clear()
        with observe_session.maybe_span(
            "checkpoint.flush", attrs={"records": len(drained)}
        ):
            for coords, tile in drained:
                self._write_record_locked(coords, tile)
        self.flushes += 1
        self.records_written += len(drained)
        observe_session.counter("checkpoint.flushes").inc()
        observe_session.counter("checkpoint.records").inc(len(drained))
        return len(drained)

    def _write_record_locked(self, coords: PairCoords, tile: Tile | None) -> None:
        assert self._plan_fingerprint is not None, "flush before begin()"
        arrays = {} if tile is None else _payload_arrays(tile)
        meta: dict[str, Any] = {
            "version": JOURNAL_VERSION,
            "plan": self._plan_fingerprint,
            "pair": list(coords),
            "empty": tile is None,
            "crc": _payload_crc(arrays),
        }
        if tile is not None:
            meta.update(
                kind=tile.kind.value,
                row0=tile.row0,
                col0=tile.col0,
                rows=tile.rows,
                cols=tile.cols,
                numa_node=tile.numa_node,
            )
        target = self.directory / _PAIR_DIR / _record_name(*coords)
        with atomic_write(target) as handle:
            np.savez(handle, meta=np.array(json.dumps(meta)), **arrays)

    # -- resume ------------------------------------------------------------
    def _load_record(self, path: Path) -> tuple[PairCoords, Tile | None]:
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"][()]))
                arrays = {
                    name: archive[name] for name in archive.files if name != "meta"
                }
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as error:
            raise IntegrityError(
                f"checkpoint record {path} is unreadable: {error}"
            ) from error
        if meta.get("plan") != self._plan_fingerprint:
            raise IntegrityError(
                f"checkpoint record {path} belongs to a different plan"
            )
        actual = _payload_crc(arrays)
        if actual != meta.get("crc"):
            raise IntegrityError(
                f"checkpoint record {path} failed its CRC-32C check "
                f"(stored {meta.get('crc')}, computed {actual})"
            )
        coords = (int(meta["pair"][0]), int(meta["pair"][1]))
        if meta.get("empty"):
            return coords, None
        kind = StorageKind(meta["kind"])
        if kind is StorageKind.DENSE:
            payload: CSRMatrix | DenseMatrix = DenseMatrix(
                arrays["dense"], copy=False
            )
        else:
            payload = CSRMatrix(
                int(meta["rows"]),
                int(meta["cols"]),
                arrays["indptr"],
                arrays["indices"],
                arrays["values"],
            )
        tile = Tile(
            int(meta["row0"]),
            int(meta["col0"]),
            int(meta["rows"]),
            int(meta["cols"]),
            kind,
            payload,
            numa_node=int(meta.get("numa_node", 0)),
        )
        return coords, tile
