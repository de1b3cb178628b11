"""Deterministic fault injection for the admission service.

Everything here is *seedable and replayable*: a :class:`FaultPlan` is a
pure function of its constructor arguments, keyed off monotone
operation counters, so a chaos-suite failure reproduces from its seed
alone.  Faults are injected at two seams:

- **storage** — :class:`FaultySink` wraps the WAL's
  :class:`~repro.serve.wal.FileSink` and can tear the in-flight append,
  fail ``fsync``, or simulate process death (``kill``: every byte
  handed to the OS survives, the in-flight record may be torn) and
  power loss (``power``: only ``fsync``'d bytes are guaranteed; the
  unsynced suffix is cut at an adversarial, seed-chosen offset);
- **transport** — the HTTP layer consults :meth:`FaultPlan.on_response`
  to drop acknowledgements after executing a request (forcing the
  client to retry an operation that already happened — the idempotency
  test), and the chaos client duplicates requests outright.

Injected faults are real exceptions derived from
:class:`~repro.exceptions.ReproError` so production ``except`` clauses
treat them exactly like their organic counterparts.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from repro.exceptions import ReproError, ValidationError
from repro.serve.wal import FileSink

#: Simulated-crash flavors: ``kill`` models SIGKILL (written bytes
#: survive in the page cache), ``power`` models power loss (only
#: fsync'd bytes are guaranteed durable).
CRASH_MODES = ("kill", "power")


class InjectedFault(ReproError):
    """Base class for every harness-injected failure."""


class InjectedCrash(InjectedFault):
    """Simulated process death raised out of a faulted storage append.

    Carries the crash ``mode`` (``"kill"`` or ``"power"``) so the chaos
    harness can report which durability contract was exercised.
    """

    def __init__(self, mode: str, op: int) -> None:
        super().__init__(f"injected {mode} crash at WAL op {op}")
        self.mode = mode
        self.op = op


class InjectedFsyncError(InjectedFault, OSError):
    """Simulated ``fsync`` failure (disk refusing to make bytes durable)."""


class FaultPlan:
    """A deterministic schedule of faults keyed by operation counts.

    Parameters name the operation indices (0-based, counted per seam) at
    which each fault fires.  ``seed`` drives only the *adversarial
    details* (where a torn write is cut), never *whether* a fault fires
    — so schedules compose predictably in tests.
    """

    def __init__(
        self,
        *,
        crash_at: "tuple[int, ...] | list[int]" = (),
        crash_mode: str = "kill",
        fsync_fail_at: "tuple[int, ...] | list[int]" = (),
        drop_response_at: "tuple[int, ...] | list[int]" = (),
        duplicate_at: "tuple[int, ...] | list[int]" = (),
        seed: int = 0,
    ) -> None:
        if crash_mode not in CRASH_MODES:
            raise ValidationError(
                f"unknown crash mode {crash_mode!r}; pick one of {CRASH_MODES}"
            )
        self.crash_at = frozenset(int(i) for i in crash_at)
        self.crash_mode = crash_mode
        self.fsync_fail_at = frozenset(int(i) for i in fsync_fail_at)
        self.drop_response_at = frozenset(int(i) for i in drop_response_at)
        self.duplicate_at = frozenset(int(i) for i in duplicate_at)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.wal_ops = 0
        self.responses = 0
        self.requests = 0

    def torn_cut(self, length: int) -> int:
        """Adversarial cut offset for a torn write of ``length`` bytes."""
        if length <= 0:
            return 0
        return self._rng.randrange(length)

    def on_append(self, op: "int | None" = None) -> "str | None":
        """Fault decision for the next storage append: ``crash``/``fsync``/None."""
        index = self.wal_ops if op is None else op
        self.wal_ops = index + 1
        if index in self.crash_at:
            return "crash"
        if index in self.fsync_fail_at:
            return "fsync"
        return None

    def on_response(self) -> "str | None":
        """Fault decision for the next acknowledgement: ``drop`` or None."""
        index = self.responses
        self.responses = index + 1
        return "drop" if index in self.drop_response_at else None

    def on_request(self) -> "str | None":
        """Fault decision for the next outgoing request: ``duplicate`` or None."""
        index = self.requests
        self.requests = index + 1
        return "duplicate" if index in self.duplicate_at else None


class FaultySink:
    """A :class:`~repro.serve.wal.FileSink` wrapper that injects storage faults.

    Drop-in for the real sink: same ``append``/``sync``/``close`` surface
    and durability accounting, but each append first consults the plan.
    A ``crash`` decision writes an adversarially torn prefix of the
    record, makes the on-disk file match the crash mode's durability
    contract, and raises :class:`InjectedCrash`; an ``fsync`` decision
    leaves the bytes written but not durable and raises
    :class:`InjectedFsyncError`.
    """

    def __init__(self, inner: FileSink, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    @property
    def path(self) -> Path:
        """Path of the underlying WAL file."""
        return self.inner.path

    @property
    def written_bytes(self) -> int:
        """Bytes handed to the OS so far (delegated)."""
        return self.inner.written_bytes

    @property
    def synced_bytes(self) -> int:
        """Bytes known durable so far (delegated)."""
        return self.inner.synced_bytes

    @property
    def sync_count(self) -> int:
        """Fsyncs issued so far (delegated)."""
        return self.inner.sync_count

    def append(self, data: bytes) -> None:
        """Append through the inner sink unless the plan injects a fault."""
        op = self.plan.wal_ops
        action = self.plan.on_append()
        if action == "crash":
            self._crash(data, op)
        if action == "fsync":
            # The write itself lands; durability is what fails.
            handle = self.inner._handle
            handle.write(data)
            handle.flush()
            self.inner.written_bytes += len(data)
            raise InjectedFsyncError(
                f"injected fsync failure at WAL op {op}: bytes written but not durable"
            )
        self.inner.append(data)

    def _crash(self, data: bytes, op: int) -> None:
        """Tear the in-flight append and die per the plan's crash mode."""
        cut = self.plan.torn_cut(len(data))
        handle = self.inner._handle
        handle.write(data[:cut])
        handle.flush()
        written = self.inner.written_bytes + cut
        if self.plan.crash_mode == "power":
            # Power loss: the unsynced suffix (earlier flush-only appends
            # plus the torn prefix) survives only up to an adversarial,
            # seed-chosen writeback point.
            synced = self.inner.synced_bytes
            keep_tail = self._rng_keep(written - synced)
            handle.close()
            with self.inner.path.open("r+b") as repairer:
                repairer.truncate(synced + keep_tail)
                repairer.flush()
                os.fsync(repairer.fileno())
        else:
            handle.close()
        raise InjectedCrash(self.plan.crash_mode, op)

    def _rng_keep(self, tail: int) -> int:
        """How many unsynced tail bytes 'made it' before the power cut."""
        if tail <= 0:
            return 0
        return self.plan._rng.randrange(tail + 1)

    def sync(self) -> None:
        """Force durability through the inner sink."""
        self.inner.sync()

    def close(self) -> None:
        """Close the inner sink."""
        self.inner.close()
