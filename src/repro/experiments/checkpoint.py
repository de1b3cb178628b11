"""Checkpoint I/O: the runner's per-unit JSONL files and their lock.

A checkpoint is a plain JSONL file — one row appended (and flushed) per
completed work unit — whose append discipline makes sweeps resumable: a
killed run loses at most the row being written, and ``resume=True``
re-reads the file, skips the completed unit ids and repairs a torn
trailing line in place.

Two rules keep the format trustworthy:

- **single writer** — every open-for-append acquires an exclusive
  sibling lockfile (``<checkpoint>.lock`` holding the writer's pid and
  host).  A second writer — e.g. two runners pointed at one file —
  is refused loudly instead of interleaving JSONL rows; a *stale* lock
  left behind by a SIGKILLed run (its pid no longer alive on this
  host) is taken over silently, so crash-resume keeps working.
- **spec identity** — every row records the 12-hex ``spec_hash`` of
  the grid that produced it, so resuming (or merging) against the
  wrong spec is detected by hash instead of by luck.

:class:`CheckpointWriter` packages the whole append side — refusal
without ``resume``, torn-tail repair, lock acquisition, per-row flush —
so every runner shares one implementation.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path

from repro.exceptions import ValidationError

#: Suffix of the sibling lockfile guarding a checkpoint against
#: concurrent writers.
LOCK_SUFFIX = ".lock"


def row_text(row: "dict[str, object]") -> str:
    """Canonical one-line JSON form (sorted keys: byte-stable)."""
    return json.dumps(row, sort_keys=True)


def read_checkpoint(path: "str | Path") -> "dict[int, dict[str, object]]":
    """Parse a checkpoint JSONL into ``{unit_index: row}``.

    A malformed line — in practice the torn tail of a killed run — ends
    the parse: everything before it is kept, it and anything after are
    re-executed on resume.
    """
    rows: "dict[int, dict[str, object]]" = {}
    path = Path(path)
    if not path.exists():
        return rows
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            unit = int(row["unit"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            break
        rows[unit] = row
    return rows


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but owned by someone else — alive
    return True


class CheckpointLock:
    """Exclusive pid-marker lockfile for one checkpoint file.

    ``acquire`` creates ``<checkpoint>.lock`` with ``O_EXCL`` holding
    ``{"pid", "host"}``.  An existing lock whose pid is dead *on this
    host* is stale (the writer was SIGKILLed mid-run) and is taken
    over; a live or foreign-host lock raises
    :class:`~repro.exceptions.ValidationError` loudly — two writers
    interleaving one JSONL would corrupt it silently otherwise.
    """

    def __init__(self, checkpoint: "str | Path"):
        """Prepare the lock for ``checkpoint`` (not yet acquired)."""
        self.checkpoint = Path(checkpoint)
        self.path = Path(str(checkpoint) + LOCK_SUFFIX)
        self._held = False

    def acquire(self) -> "CheckpointLock":
        """Create the lockfile, taking over stale locks; loud otherwise."""
        payload = json.dumps(
            {"pid": os.getpid(), "host": socket.gethostname()}, sort_keys=True
        ).encode()
        while not self._held:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._refuse_or_reap()
                continue
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            self._held = True
        return self

    def _refuse_or_reap(self) -> None:
        """Remove a stale lockfile or raise on a live/foreign one."""
        try:
            holder = json.loads(self.path.read_text())
            pid = int(holder["pid"])
            host = str(holder.get("host", ""))
        except FileNotFoundError:
            return  # released between our open and this read: retry
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise ValidationError(
                f"checkpoint {str(self.checkpoint)!r} has an unreadable "
                f"lockfile {str(self.path)!r}; remove it by hand if no "
                "other writer is running"
            ) from None
        if host == socket.gethostname() and not _pid_alive(pid):
            # Stale: the writer died without cleanup (e.g. SIGKILL).
            # Unlink may race another reaper; a vanished file is fine.
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            return
        raise ValidationError(
            f"checkpoint {str(self.checkpoint)!r} is already being written "
            f"by pid {pid} on {host or 'unknown host'} (lockfile "
            f"{str(self.path)!r}); two concurrent writers would interleave "
            "JSONL rows — stop the other run, point this one at a "
            "different --checkpoint, or remove the stale lockfile"
        )

    def release(self) -> None:
        """Remove the lockfile if held (idempotent)."""
        if self._held:
            self._held = False
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass


class CheckpointWriter:
    """The append side of one (optional) checkpoint file.

    Construction performs the whole open discipline in order: refuse a
    non-empty file without ``resume``; acquire the exclusive lock; read
    the completed rows; verify their recorded ``spec_hash`` against the
    spec being run; atomically repair a torn tail; open for append.
    ``path=None`` degrades to a no-op writer (no file, no lock), so
    callers never branch.

    Attributes
    ----------
    done:
        ``{unit_index: row}`` parsed from the file when resuming.
    """

    def __init__(
        self,
        path: "str | Path | None",
        *,
        resume: bool = False,
        spec_hash: "str | None" = None,
    ):
        """Open ``path`` for appending rows (see class docstring)."""
        self.path = Path(path) if path is not None else None
        self.done: "dict[int, dict[str, object]]" = {}
        self._lock: "CheckpointLock | None" = None
        self._handle = None
        if self.path is None:
            return
        if not resume and self.path.exists() and self.path.stat().st_size > 0:
            raise ValidationError(
                f"checkpoint {str(path)!r} already has rows; pass "
                "resume=True (--resume) to continue it, or remove the file "
                "to start over"
            )
        self._lock = CheckpointLock(self.path).acquire()
        try:
            if resume:
                self.done = read_checkpoint(self.path)
                self._check_spec_hash(spec_hash)
                if self.path.exists():
                    self._repair()
            self._handle = self.path.open("a")
        except BaseException:
            self._lock.release()
            raise

    def _check_spec_hash(self, spec_hash: "str | None") -> None:
        """Refuse to resume rows recorded under a different spec hash."""
        if spec_hash is None:
            return
        theirs = {
            str(row["spec_hash"])
            for row in self.done.values()
            if "spec_hash" in row
        }
        foreign = sorted(theirs - {spec_hash})
        if foreign:
            raise ValidationError(
                f"checkpoint {str(self.path)!r} was written by a different "
                f"spec (hash {', '.join(foreign)}) than the one being "
                f"resumed (hash {spec_hash}); resuming would mix grids — "
                "point --checkpoint at the matching spec's file"
            )

    def _repair(self) -> None:
        """Atomically rewrite the parseable rows, dropping a torn tail.

        Writes to a sibling temp file and renames it over the
        checkpoint, so a second kill during the rewrite can never lose
        already-completed rows.
        """
        repaired = self.path.with_name(self.path.name + ".repair")
        with repaired.open("w") as handle:
            for row in self.done.values():
                handle.write(row_text(row))
                handle.write("\n")
        os.replace(repaired, self.path)

    def append(self, row: "dict[str, object]") -> None:
        """Append one completed row (flushed immediately); no-op unfiled."""
        if self._handle is None:
            return
        self._handle.write(row_text(row))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the file and release the lock (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def __enter__(self) -> "CheckpointWriter":
        """Context-manager entry: the writer itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close and unlock."""
        self.close()
