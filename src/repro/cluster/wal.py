"""Coordinator durability: append-only JSONL WAL plus snapshots.

PR 6's coordinator kept every manifest and placement record in memory,
so one coordinator crash silently orphaned the whole archive — the
blocks survived on the storage nodes, but nothing remembered which
object they belonged to.  This module is the fix: every
manifest/placement mutation is journaled to an append-only JSONL
write-ahead log *before* the operation is acknowledged, and a restarted
coordinator replays snapshot + tail to reconstruct byte-identical
state (verified via the canonical state digest, in the style of the
checkpoint/resume sweeps of :mod:`repro.sim.montecarlo`).

File layout inside the WAL directory::

    wal.jsonl       one JSON record per line, monotonically increasing
                    ``seq``, ``crc`` = CRC-32 of the canonical body
    snapshot.json   {"seq": N, "state": {...}} — full coordinator state
                    as of record N, written atomically (tmp + rename)

Recovery invariants:

* **Torn tail is not corruption.**  A crash mid-append leaves at most
  one partial or CRC-failing record at the *end* of the log; replay
  drops it (the mutation was never acknowledged, so dropping it is
  correct).  A bad record anywhere *before* the tail means real damage
  and raises :class:`WalCorruptError` — recovery never guesses.
* **Sequence numbers are monotonic across snapshots.**  A snapshot
  truncates ``wal.jsonl`` but the next append continues the sequence,
  so replay can always order snapshot and tail.
* **Appends are durable before acknowledgment, and all or nothing.**
  One ``append(*records)`` call writes all its records unbuffered and
  then ``fsync``\\ s once, before ``seq`` advances: a repair wave's
  per-stripe records share one fsync (group commit, one writer).  The
  fsync latency is observed into the ``cluster.wal.fsync_seconds``
  histogram so operators can price durability.  A failed append (ENOSPC
  mid-write, a failing fsync) is cut back off the file, so none of its
  records is replayed and no torn line is left mid-log.  If that cut
  fails too, the log may end in garbage and every later append raises
  :class:`WalUnwritableError`.  A crash mid-append leaves a complete
  prefix of the call's records plus at most one torn line; replaying
  that prefix is safe, because each record describes work that was
  already done on the nodes before the append began.

The WAL stores *metadata only* (manifests, placements, membership,
repair accounting) — block bytes live on the storage nodes and are
re-derived by the erasure code, which is the whole point of the paper.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any

from ..obs.registry import registry

__all__ = ["CoordinatorWal", "WalCorruptError", "WalUnwritableError"]

_WAL_NAME = "wal.jsonl"
_SNAPSHOT_NAME = "snapshot.json"


class WalCorruptError(RuntimeError):
    """The WAL is damaged before its tail; recovery refuses to guess."""


class WalUnwritableError(OSError):
    """A failed append could not be rolled back; no append follows it."""


def _canonical(body: dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _crc(body: dict[str, Any]) -> int:
    return zlib.crc32(_canonical(body).encode())


class CoordinatorWal:
    """Append-only journal + snapshot pair for one coordinator.

    ``fresh=True`` starts an empty log (truncating any prior state);
    the default opens the directory for recovery-then-continue: replay
    what is there, keep appending after it.
    """

    def __init__(self, directory: str | os.PathLike, *, fresh: bool = False):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.wal_path = os.path.join(self.directory, _WAL_NAME)
        self.snapshot_path = os.path.join(self.directory, _SNAPSHOT_NAME)
        self.appended = 0  # records appended by *this* process
        self.fsyncs = 0
        if fresh:
            for path in (self.wal_path, self.snapshot_path):
                if os.path.exists(path):
                    os.remove(path)
        snapshot_seq, records = self._scan()
        self.seq = max(
            snapshot_seq, records[-1]["seq"] if records else 0
        )
        self._records_since_snapshot = len(records)
        self._fh = open(self.wal_path, "ab", buffering=0)
        # Set when a failed append could not be rolled back: no append
        # is written after it.
        self._unwritable: OSError | None = None

    # ------------------------------------------------------------------
    # Reading / recovery
    # ------------------------------------------------------------------

    def _scan(self) -> tuple[int, list[dict[str, Any]]]:
        """(snapshot seq, replayable tail records after it)."""
        snapshot_seq = 0
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, encoding="utf-8") as fh:
                try:
                    snapshot_seq = int(json.load(fh)["seq"])
                except (ValueError, KeyError, TypeError) as exc:
                    raise WalCorruptError(
                        f"snapshot {self.snapshot_path} is unreadable: "
                        f"{exc}"
                    ) from None
        return snapshot_seq, self._read_records(snapshot_seq)

    def _read_records(self, after_seq: int) -> list[dict[str, Any]]:
        if not os.path.exists(self.wal_path):
            return []
        with open(self.wal_path, "rb") as fh:
            lines = fh.read().split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        records: list[dict[str, Any]] = []
        last_seq = after_seq
        for i, line in enumerate(lines):
            record = self._parse_record(line)
            if record is None:
                if i == len(lines) - 1:
                    # Torn tail: the crash happened mid-append, the
                    # mutation was never acknowledged — drop it.
                    registry().counter("cluster.wal.torn_tail").inc()
                    break
                raise WalCorruptError(
                    f"{self.wal_path}: record {i + 1} is corrupt and "
                    "not the final record"
                )
            if record["seq"] <= last_seq and record["seq"] > after_seq:
                raise WalCorruptError(
                    f"{self.wal_path}: sequence regressed at record "
                    f"{i + 1} ({record['seq']} after {last_seq})"
                )
            if record["seq"] > after_seq:
                records.append(record)
                last_seq = record["seq"]
        return records

    @staticmethod
    def _parse_record(line: bytes) -> dict[str, Any] | None:
        """One validated record, or None if the line is torn/damaged."""
        try:
            record = json.loads(line)
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict):
            return None
        crc = record.pop("crc", None)
        if (
            not isinstance(record.get("seq"), int)
            or crc != _crc(record)
        ):
            return None
        return record

    def load(self) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
        """(snapshot state or None, WAL records to replay after it)."""
        state: dict[str, Any] | None = None
        snapshot_seq = 0
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            snapshot_seq = int(payload["seq"])
            state = payload["state"]
        return state, self._read_records(snapshot_seq)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, *records: dict[str, Any]) -> int:
        """Durably journal mutations; returns the last sequence number.

        Every record is written, then one fsync covers them all, and
        ``seq`` advances only after it.  On any failure the file is
        truncated back to where this append began, and the error
        propagates.
        """
        if self._unwritable is not None:
            raise WalUnwritableError(
                f"{self.wal_path}: a failed append could not be rolled "
                f"back ({self._unwritable}); refusing to append after it"
            )
        lines = []
        for seq, record in enumerate(records, self.seq + 1):
            body = {"seq": seq, **record}
            body["crc"] = _crc({k: v for k, v in body.items() if k != "crc"})
            lines.append(_canonical(body).encode() + b"\n")
        data = memoryview(b"".join(lines))
        fd = self._fh.fileno()
        start = os.fstat(fd).st_size
        try:
            while data:
                data = data[os.write(fd, data):]
            t0 = time.perf_counter()
            os.fsync(fd)
        except BaseException:
            try:
                os.ftruncate(fd, start)
                os.fsync(fd)
            except OSError as exc:
                self._unwritable = exc
            raise
        registry().histogram("cluster.wal.fsync_seconds").observe(
            time.perf_counter() - t0
        )
        self.seq += len(records)
        self.appended += len(records)
        self.fsyncs += 1
        self._records_since_snapshot += len(records)
        return self.seq

    def snapshot(self, state: dict[str, Any]) -> int:
        """Atomically persist full state and truncate the journal."""
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"seq": self.seq, "state": state}, fh, sort_keys=True
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        self._fh.close()
        self._fh = open(self.wal_path, "wb")
        self._fh.close()
        self._fh = open(self.wal_path, "ab", buffering=0)
        self._records_since_snapshot = 0
        return self.seq

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @property
    def records_since_snapshot(self) -> int:
        return self._records_since_snapshot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Recovery-exposure facts for ``repro cluster status``."""
        wal_bytes = (
            os.path.getsize(self.wal_path)
            if os.path.exists(self.wal_path)
            else 0
        )
        snapshot_age: float | None = None
        snapshot_bytes = 0
        if os.path.exists(self.snapshot_path):
            snapshot_bytes = os.path.getsize(self.snapshot_path)
            snapshot_age = max(
                0.0, time.time() - os.path.getmtime(self.snapshot_path)
            )
        return {
            "directory": self.directory,
            "seq": self.seq,
            "wal_bytes": wal_bytes,
            "records_since_snapshot": self._records_since_snapshot,
            "snapshot_bytes": snapshot_bytes,
            "last_snapshot_age_seconds": snapshot_age,
            "appends": self.appended,
            "fsyncs": self.fsyncs,
        }
