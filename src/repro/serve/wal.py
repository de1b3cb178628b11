"""Append-only decision WAL for the admission service.

One JSONL record per *state-changing* operation (offers — admissions
and rejections both mutate allocator state — and releases).  Each
record carries a dense sequence number and a CRC32 of its own body, and
is flushed (and by default ``fsync``'d) before the operation is
acknowledged, so an acknowledged decision survives process death.

Recovery reads the log back with :func:`read_wal`, which distinguishes
the two failure shapes loudly:

- a **torn tail** — the final record was cut mid-write by a crash or
  power loss.  :func:`repair_wal` truncates the file back to the last
  complete record; the lost operation was never acknowledged and is
  simply re-executed by the caller.
- **mid-file corruption** — a record that fails its checksum *before*
  later valid records, or a sequence-number gap.  That is never
  repairable (silently dropping an interior decision would fork the
  state machine), so it raises
  :class:`~repro.exceptions.ValidationError`.

The WAL is the complete decision history of a service directory: it is
never compacted or truncated by snapshots, which lets the chaos suite
compare a kill-and-restore run's stitched decision sequence against an
uninterrupted one record-for-record.

**Group commit:** :meth:`DecisionWal.append_many` appends a whole batch
of records as one contiguous write and one ``fsync``.  Durability
semantics are unchanged — no record in the batch is acknowledged before
the shared fsync returns — and a crash mid-batch tears only the suffix:
the records before the cut are complete (repairable tail), and nothing
after the cut was ever written, so the torn-tail/mid-file distinction
above still holds exactly.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.config import SERVE_DURABILITIES
from repro.exceptions import ValidationError

#: Valid WAL durability levels (re-exported from :mod:`repro.config`,
#: which owns their validation): ``fsync`` forces
#: every commit to disk before acknowledging (survives power loss);
#: ``flush`` stops at the OS page cache (survives process death —
#: e.g. SIGKILL — but not the machine losing power).
WAL_DURABILITIES = SERVE_DURABILITIES


def _body_checksum(body: "dict[str, object]") -> str:
    """CRC32 (hex) of a record body's canonical JSON form."""
    canonical = json.dumps(body, sort_keys=True).encode()
    return format(zlib.crc32(canonical), "08x")


def encode_record(body: "dict[str, object]") -> bytes:
    """Encode one WAL record body as a checksummed JSONL line.

    Serializes the body once: because ``"crc"`` sorts before every key
    the service writes (``k`` < ``key`` < ``op`` < ``seq`` < ``users``),
    splicing the checksum field into the canonical dump is byte-identical
    to re-dumping the full record with ``sort_keys=True`` — the hot
    group-commit path encodes each record with a single ``json.dumps``.
    """
    canonical = json.dumps(body, sort_keys=True)
    crc = format(zlib.crc32(canonical.encode()), "08x")
    if body and min(body) > "crc":
        return ('{"crc": "%s", ' % crc + canonical[1:] + "\n").encode()
    # A key sorting at/before "crc" (not produced by the service, but
    # this module is generic): fall back to the two-pass dump.
    record = dict(body)
    record["crc"] = crc
    return json.dumps(record, sort_keys=True).encode() + b"\n"


def decode_record(line: bytes) -> "dict[str, object]":
    """Decode one WAL line, raising ``ValidationError`` if it is damaged."""
    try:
        record = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"undecodable WAL record: {exc}") from None
    if not isinstance(record, dict) or "crc" not in record:
        raise ValidationError("WAL record is not a checksummed JSON object")
    crc = record.pop("crc")
    if crc != _body_checksum(record):
        raise ValidationError("WAL record failed its checksum")
    return record


class FileSink:
    """Append-only binary file with explicit durability accounting.

    Tracks ``written_bytes`` (handed to the OS) separately from
    ``synced_bytes`` (known durable via ``fsync``) so the fault harness
    can simulate power loss precisely: everything past ``synced_bytes``
    may vanish, and the in-flight suffix may additionally be torn.
    """

    def __init__(self, path: "str | Path", *, durability: str = "fsync") -> None:
        if durability not in WAL_DURABILITIES:
            raise ValidationError(
                f"unknown WAL durability {durability!r}; pick one of {WAL_DURABILITIES}"
            )
        self.path = Path(path)
        self.durability = durability
        self._handle = self.path.open("ab")
        size = self._handle.tell()
        self.written_bytes = size
        # Bytes present at open are assumed durable: recovery only ever
        # opens a sink after read/repair has validated that prefix.
        self.synced_bytes = size
        self.sync_count = 0

    def append(self, data: bytes) -> None:
        """Append ``data`` and make it durable per the sink's level.

        ``data`` may hold one record or a whole group-commit batch —
        either way it is one write, one flush, and (under ``fsync``
        durability) one fsync, which is exactly what group commit
        amortizes.  ``sync_count`` tallies the fsyncs issued so tests
        and benchmarks can assert the amortization actually happened.
        """
        self._handle.write(data)
        self._handle.flush()
        self.written_bytes += len(data)
        if self.durability == "fsync":
            os.fsync(self._handle.fileno())
            self.synced_bytes = self.written_bytes
            self.sync_count += 1

    def sync(self) -> None:
        """Force all written bytes to disk regardless of durability level."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.synced_bytes = self.written_bytes
        self.sync_count += 1

    def close(self) -> None:
        """Close the underlying handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()


def read_wal(
    path: "str | Path", *, what: str = "decision WAL"
) -> "tuple[list[dict[str, object]], int]":
    """Read every complete record; return ``(records, good_bytes)``.

    ``good_bytes`` is the offset of the end of the last complete record
    — the truncation point :func:`repair_wal` uses when the tail is
    torn.  A damaged record *followed by* any valid one, or a sequence
    discontinuity, is mid-file corruption and raises
    :class:`~repro.exceptions.ValidationError` instead of being
    silently dropped.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    records: "list[dict[str, object]]" = []
    good_bytes = 0
    offset = 0
    damaged_at: "int | None" = None
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # Partial final line with no terminator: torn in-flight write.
            damaged_at = offset
            break
        line = data[offset:newline]
        try:
            record = decode_record(line)
        except ValidationError:
            damaged_at = offset
            break
        if record.get("seq") != len(records):
            raise ValidationError(
                f"{what} {str(path)!r} has a sequence gap at record "
                f"{len(records)} (found seq {record.get('seq')!r}); "
                "the log is corrupt and cannot be repaired"
            )
        records.append(record)
        offset = newline + 1
        good_bytes = offset
    if damaged_at is not None:
        # Repairable only if *nothing* after the damage decodes: then it
        # is the torn tail of the final in-flight append.
        tail = data[damaged_at:]
        for probe in tail.split(b"\n"):
            if not probe:
                continue
            try:
                decode_record(probe)
            except ValidationError:
                continue
            raise ValidationError(
                f"{what} {str(path)!r} is corrupt mid-file at byte "
                f"{damaged_at}: a damaged record precedes valid ones; "
                "refusing to silently drop interior decisions"
            )
    return records, good_bytes


def repair_wal(
    path: "str | Path", *, what: str = "decision WAL"
) -> "tuple[list[dict[str, object]], int]":
    """Truncate a torn tail off the WAL; return ``(records, dropped_bytes)``.

    Safe by construction: only bytes past the last complete record are
    ever dropped, and those belong to an append that was never
    acknowledged.  Mid-file corruption still raises.
    """
    path = Path(path)
    records, good_bytes = read_wal(path, what=what)
    size = path.stat().st_size if path.exists() else 0
    dropped = size - good_bytes
    if dropped > 0:
        with path.open("r+b") as handle:
            handle.truncate(good_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    return records, dropped


class DecisionWal:
    """Writer for the admission service's decision log.

    Assigns dense sequence numbers, encodes checksummed records and
    appends them through a sink (a :class:`FileSink`, or a fault-harness
    wrapper around one).  ``append`` returns only after the sink has
    made the record durable at its configured level.
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        durability: str = "fsync",
        next_seq: int = 0,
        sink: "FileSink | None" = None,
    ) -> None:
        self.path = Path(path)
        self.sink = sink if sink is not None else FileSink(self.path, durability=durability)
        self.next_seq = int(next_seq)

    def append(self, body: "dict[str, object]") -> "dict[str, object]":
        """Durably append one record; returns it with its ``seq`` filled in."""
        record = dict(body)
        record["seq"] = self.next_seq
        self.sink.append(encode_record(record))
        self.next_seq += 1
        return record

    def append_many(
        self, bodies: "list[dict[str, object]]"
    ) -> "list[dict[str, object]]":
        """Group-commit a batch: one contiguous write, one fsync, all records.

        Assigns dense sequence numbers in list order and hands the
        concatenated encoding to the sink as a single append, so the
        whole batch shares one durability round trip.  ``next_seq``
        advances only after the sink returns: if the append fails (torn
        write, fsync error, injected crash) *no* record in the batch
        was acknowledged, and recovery's torn-tail repair truncates at
        the last complete record — an acknowledged record is never torn
        because acknowledgement happens strictly after the shared sync.
        A batch of one is byte-identical to :meth:`append`.
        """
        if not bodies:
            return []
        records: "list[dict[str, object]]" = []
        lines: "list[bytes]" = []
        seq = self.next_seq
        for body in bodies:
            record = dict(body)
            record["seq"] = seq
            records.append(record)
            lines.append(encode_record(record))
            seq += 1
        self.sink.append(b"".join(lines))
        self.next_seq = seq
        return records

    def sync(self) -> None:
        """Force everything appended so far to disk."""
        self.sink.sync()

    def close(self) -> None:
        """Close the underlying sink (idempotent)."""
        self.sink.close()
