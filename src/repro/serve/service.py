"""The durable admission state machine behind the HTTP front door.

:class:`AdmissionCore` wraps one
:class:`~repro.core.allocate.OnlineAllocator` with the write-ahead
discipline that makes every acknowledged decision crash-safe:

1. execute the decision on the in-memory allocator;
2. durably append one WAL record describing it (op, stream index,
   receiver indices, optional idempotency key);
3. only then acknowledge, cache the response under its idempotency
   key, and — every ``snapshot_every`` records — commit an atomic
   snapshot.

If step 2 fails (injected or organic: torn write, fsync error,
process death) the in-memory state is *ahead* of the log by exactly
one unacknowledged operation.  The core then enters a **failed**
state and refuses further work; :meth:`AdmissionCore.restore` rebuilds
from disk (snapshot + WAL tail), which rolls that operation back, and
the client's idempotent retry re-executes it — so the WAL, the
allocator, and every acknowledgement stay mutually consistent through
arbitrary crash points (the chaos suite fuzzes exactly this).

The core is strictly single-writer: the HTTP layer funnels all
state-changing requests through one worker.  Reads (``stats``,
``health``) are safe from anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.config import resolve_commit_batch, resolve_durability
from repro.core.allocate import OnlineAllocator
from repro.exceptions import ReproError, ValidationError
from repro.serve.faults import FaultPlan, FaultySink, InjectedCrash, InjectedFault
from repro.serve.snapshot import (
    INSTANCE_NAME,
    MANIFEST_NAME,
    SHARD_MANIFEST_NAME,
    WAL_NAME,
    load_snapshot,
    read_instance,
    read_root_manifest,
    write_instance,
    write_root_manifest,
    write_snapshot,
)
from repro.serve.wal import DecisionWal, FileSink, repair_wal


class ServeFailure(ReproError):
    """The service lost its durability guarantee and went read-only.

    Raised when a WAL append fails (the in-memory allocator is ahead of
    the durable log) and on every subsequent state-changing call until
    the owner restores from disk.
    """


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the admission service (all validated loudly).

    Attributes
    ----------
    snapshot_every:
        WAL records between atomic state snapshots (restore-time bound).
    keep_snapshots:
        Snapshot directories retained after each commit.
    durability:
        WAL durability level — ``"fsync"`` (default, survives power
        loss) or ``"flush"`` (survives process death only).
    max_pending:
        Admission-queue depth beyond which new state-changing requests
        are shed with 503 + ``Retry-After`` instead of queued.
    max_wait:
        Estimated queueing delay (seconds; depth × rolling mean decision
        latency) beyond which requests are shed even under the depth cap.
    retry_after:
        ``Retry-After`` hint (seconds) attached to shed responses.
    commit_batch:
        Maximum decisions group-committed per WAL fsync.  1 (the
        default) degenerates to the original one-fsync-per-decision
        service; larger batches amortize the durability round trip
        without weakening it (no decision is acknowledged before its
        batch's shared fsync returns).
    """

    snapshot_every: int = 1024
    keep_snapshots: int = 2
    durability: str = "fsync"
    max_pending: int = 64
    max_wait: float = 0.5
    retry_after: float = 0.25
    commit_batch: int = 1

    def validated(self) -> "ServeConfig":
        """Return ``self`` after loud validation of every field."""
        if int(self.snapshot_every) < 1:
            raise ValidationError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if int(self.keep_snapshots) < 1:
            raise ValidationError(
                f"keep_snapshots must be >= 1, got {self.keep_snapshots}"
            )
        if int(self.max_pending) < 1:
            raise ValidationError(f"max_pending must be >= 1, got {self.max_pending}")
        if not self.max_wait > 0:
            raise ValidationError(f"max_wait must be > 0, got {self.max_wait}")
        if not self.retry_after > 0:
            raise ValidationError(f"retry_after must be > 0, got {self.retry_after}")
        return replace(
            self,
            snapshot_every=int(self.snapshot_every),
            keep_snapshots=int(self.keep_snapshots),
            durability=resolve_durability(self.durability),
            max_pending=int(self.max_pending),
            max_wait=float(self.max_wait),
            retry_after=float(self.retry_after),
            commit_batch=resolve_commit_batch(self.commit_batch),
        )


class _BatchAlias:
    """Placeholder linking a repeated in-batch idempotency key to its first use."""

    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = slot


class AdmissionCore:
    """Crash-safe offer/release service state over one allocator.

    Construct via :meth:`create` (fresh directory), :meth:`restore`
    (existing directory, after any crash) or the constructor itself,
    which opens-or-creates.  All state-changing calls must come from a
    single thread.
    """

    def __init__(
        self,
        root: "str | Path",
        *,
        instance=None,
        mu: "float | None" = None,
        config: "ServeConfig | None" = None,
        fault_plan: "FaultPlan | None" = None,
        must_exist: "bool | None" = None,
    ) -> None:
        self.root = Path(root)
        self.config = (config or ServeConfig()).validated()
        self.fault_plan = fault_plan
        self.failed = False
        self.started_at = time.time()
        if (self.root / SHARD_MANIFEST_NAME).exists():
            raise ValidationError(
                f"{str(self.root)!r} holds {SHARD_MANIFEST_NAME}: it is a "
                "sharded service directory, and this build does not serve "
                "sharded directories"
            )
        exists = (self.root / MANIFEST_NAME).exists()
        if must_exist is True and not exists:
            raise ValidationError(
                f"{str(self.root)!r} is not a serve directory (no {MANIFEST_NAME}); "
                "create the service first"
            )
        if must_exist is False and exists:
            raise ValidationError(
                f"{str(self.root)!r} is already a serve directory; "
                "restore it instead of creating over it"
            )
        if exists:
            self._restore_from_disk(instance, mu)
        else:
            if instance is None:
                raise ValidationError(
                    "creating a new serve directory requires an instance"
                )
            self._create_fresh(instance, mu)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        instance,
        root: "str | Path",
        *,
        mu: "float | None" = None,
        config: "ServeConfig | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> "AdmissionCore":
        """Initialize a fresh service directory (loud if one exists)."""
        return cls(
            root,
            instance=instance,
            mu=mu,
            config=config,
            fault_plan=fault_plan,
            must_exist=False,
        )

    @classmethod
    def restore(
        cls,
        root: "str | Path",
        *,
        config: "ServeConfig | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> "AdmissionCore":
        """Recover a service from its directory after a stop or crash.

        Repairs any torn WAL tail, loads the newest snapshot, replays
        the WAL records past it (verifying each replayed decision
        against the recorded one), and reopens for appends.  The
        result is bit-identical (``state_digest``) to the uninterrupted
        service at the same WAL sequence.
        """
        return cls(root, config=config, fault_plan=fault_plan, must_exist=True)

    def _create_fresh(self, instance, mu: "float | None") -> None:
        """Create-path initialization: persist instance, µ, empty WAL."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.instance = instance
        self.allocator = OnlineAllocator(instance, mu=mu)
        write_instance(self.root, instance)
        write_root_manifest(
            self.root, wal_seq=0, snapshot=None, mu=self.allocator.mu
        )
        self._idempotency: "dict[str, dict[str, object]]" = {}
        self._snap_seq = 0
        self.batch_sizes: "dict[int, int]" = {}
        self.restore_info: "dict[str, object]" = {"created": True}
        self.wal = self._open_wal(next_seq=0)

    def _restore_from_disk(self, instance, mu: "float | None") -> None:
        """Restore-path initialization: snapshot + verified WAL-tail replay."""
        manifest = read_root_manifest(self.root)
        stored = read_instance(self.root)
        if instance is not None and instance.to_json() != stored.to_json():
            raise ValidationError(
                f"instance mismatch: {str(self.root)!r} was created for a "
                "different instance than the one provided"
            )
        stored_mu = float(manifest["mu"])
        if mu is not None and float(mu) != stored_mu:
            raise ValidationError(
                f"service was created with mu={stored_mu!r} but restore "
                f"asked for mu={mu!r}"
            )
        self.instance = stored
        self.allocator = OnlineAllocator(stored, mu=stored_mu)
        records, repaired_bytes = repair_wal(self.root / WAL_NAME)
        snap_name = manifest.get("snapshot")
        self._idempotency = {}
        self.batch_sizes = {}
        snap_seq = 0
        if snap_name is not None:
            snap_seq, state, self._idempotency = load_snapshot(self.root, snap_name)
            if snap_seq > len(records):
                raise ValidationError(
                    f"snapshot {snap_name!r} covers {snap_seq} WAL records but "
                    f"only {len(records)} survive; snapshots always sync the "
                    "WAL first, so this directory is corrupt"
                )
            self.allocator.load_state(state)
        self._snap_seq = snap_seq
        for record in records[snap_seq:]:
            self._replay_record(record)
        self.restore_info = {
            "created": False,
            "snapshot": snap_name,
            "snapshot_seq": snap_seq,
            "replayed": len(records) - snap_seq,
            "repaired_bytes": repaired_bytes,
        }
        self.wal = self._open_wal(next_seq=len(records))

    def _open_wal(self, *, next_seq: int) -> DecisionWal:
        """Open the WAL for appends, wrapping the sink when faults are on."""
        path = self.root / WAL_NAME
        sink = FileSink(path, durability=self.config.durability)
        if self.fault_plan is not None:
            sink = FaultySink(sink, self.fault_plan)
        return DecisionWal(path, next_seq=next_seq, sink=sink)

    def _replay_record(self, record: "dict[str, object]") -> None:
        """Re-execute one WAL record, verifying the decision matches."""
        op = record.get("op")
        k = int(record["k"])
        if op == "offer":
            users = [int(u) for u in self.allocator.offer_indexed(k)]
            recorded = [int(u) for u in record["users"]]
            if users != recorded:
                raise ValidationError(
                    f"WAL replay divergence at seq {record.get('seq')}: "
                    f"recorded receivers {recorded} but replay chose {users}; "
                    "the directory mixes state from different instances or builds"
                )
        elif op == "release":
            self.allocator.release_indexed(k)
        else:
            raise ValidationError(
                f"unknown WAL op {op!r} at seq {record.get('seq')}"
            )
        key = record.get("key")
        if key is not None:
            self._idempotency[str(key)] = self._response(record)

    # ------------------------------------------------------------------
    # State-changing operations
    # ------------------------------------------------------------------

    def offer(self, stream: "str | int", *, key: "str | None" = None) -> "dict[str, object]":
        """Offer a stream; returns the decision (``admitted`` + receivers).

        Rejections are decisions too — they mutate the allocator's
        rejection bookkeeping and are WAL-logged like admissions.  A
        repeated ``key`` returns the cached first response without
        re-executing (at-most-once semantics under client retries).
        """
        return self._execute("offer", stream, key)

    def release(self, stream: "str | int", *, key: "str | None" = None) -> "dict[str, object]":
        """Release an active stream (returns its load to the pool)."""
        return self._execute("release", stream, key)

    def _execute(
        self, op: str, stream: "str | int", key: "str | None"
    ) -> "dict[str, object]":
        """Shared execute-log-acknowledge path for offer/release.

        A batch of one through :meth:`execute_batch`: byte-identical WAL
        output and semantics to the original per-record path.
        """
        outcome = self.execute_batch([(op, stream, key)])[0]
        if isinstance(outcome, ValidationError):
            raise outcome
        return dict(outcome)

    def execute_batch(
        self, ops: "list[tuple[str, str | int, str | None]]"
    ) -> "list[dict[str, object] | ValidationError]":
        """Group-commit a batch of ``(op, stream, key)`` decisions.

        Executes every operation on the allocator **in list order**,
        appends all their WAL records as one contiguous write, issues
        **one** fsync for the whole batch, and only then builds the
        acknowledgements — so the durability contract is unchanged (no
        decision is acknowledged before its record is durable) while the
        fsync cost is shared ``len(ops)`` ways.

        Per-operation :class:`~repro.exceptions.ValidationError`\\ s
        (unknown stream, double offer, release of an inactive stream)
        are *returned in place* rather than raised: they fire before the
        allocator mutates, so the rest of the batch proceeds untouched.
        Idempotency keys dedupe against the cache *and* within the
        batch; a repeated key never executes twice.  A WAL failure
        poisons the whole core exactly as in the single-record path —
        nothing in the batch was acknowledged, and restore rolls the
        un-logged executions back.
        """
        self._check_alive()
        results: "list[object]" = [None] * len(ops)
        bodies: "list[dict[str, object]]" = []
        slots: "list[int]" = []
        in_batch: "dict[str, int]" = {}
        for i, (op, stream, key) in enumerate(ops):
            if key is not None:
                cached = self._idempotency.get(key)
                if cached is not None:
                    results[i] = dict(cached)
                    continue
                first = in_batch.get(key)
                if first is not None:
                    # Same key earlier in this very batch: alias the
                    # outcome after the shared commit resolves it.
                    results[i] = _BatchAlias(first)
                    continue
            try:
                k = self._resolve(stream)
                if op == "offer":
                    users = self.allocator.offer_indexed(k).tolist()
                    body: "dict[str, object]" = {"op": "offer", "k": k,
                                                 "users": users}
                elif op == "release":
                    self.allocator.release_indexed(k)
                    body = {"op": "release", "k": k}
                else:
                    raise ValidationError(
                        f"unknown service op {op!r}; pick 'offer' or 'release'"
                    )
            except ValidationError as exc:
                results[i] = exc
                continue
            if key is not None:
                body["key"] = key
                in_batch[key] = i
            bodies.append(body)
            slots.append(i)
        if bodies:
            records = self._append_many(bodies)
            for slot, record in zip(slots, records):
                response = self._response(record)
                key = record.get("key")
                if key is not None:
                    self._idempotency[str(key)] = response
                results[slot] = response
            self.batch_sizes[len(bodies)] = (
                self.batch_sizes.get(len(bodies), 0) + 1
            )
            self.maybe_snapshot()
        for i, outcome in enumerate(results):
            if isinstance(outcome, _BatchAlias):
                aliased = results[outcome.slot]
                results[i] = dict(aliased) if isinstance(aliased, dict) else aliased
        return results

    def _append_many(
        self, bodies: "list[dict[str, object]]"
    ) -> "list[dict[str, object]]":
        """Durably log a batch of executed decisions; fail closed on any error."""
        try:
            return self.wal.append_many(bodies)
        except InjectedCrash:
            # Simulated process death: nothing to clean up, the harness
            # restores from disk exactly as a real restart would.
            self.failed = True
            raise
        except (InjectedFault, OSError) as exc:
            self.failed = True
            raise ServeFailure(
                f"WAL append failed at seq {self.wal.next_seq}: {exc}; "
                "the in-memory state is ahead of the durable log — "
                "service is now read-only, restore from disk"
            ) from exc

    def _check_alive(self) -> None:
        """Refuse state changes after a durability failure."""
        if self.failed:
            raise ServeFailure(
                "service is in failed state after a durability fault; "
                "restore from disk to resume"
            )

    def _resolve(self, stream: "str | int") -> int:
        """Stream id or index → validated stream index (loud)."""
        if isinstance(stream, str):
            k = self.allocator._idx.stream_index.get(stream)
            if k is None:
                self.instance.stream(stream)  # canonical unknown-stream error
            return int(k)
        return self.allocator._check_stream_index(int(stream))

    def _response(self, record: "dict[str, object]") -> "dict[str, object]":
        """Build the acknowledgement for a WAL record (live or replayed)."""
        k = int(record["k"])
        stream_id = self.allocator._idx.stream_ids[k]
        response: "dict[str, object]" = {
            "ok": True,
            "op": record["op"],
            "stream": stream_id,
            "seq": int(record["seq"]),
        }
        if record["op"] == "offer":
            users = [int(u) for u in record["users"]]
            response["admitted"] = bool(users)
            response["user_index"] = users
            response["users"] = [
                self.allocator._idx.user_ids[u] for u in users
            ]
        return response

    # ------------------------------------------------------------------
    # Snapshots, introspection, lifecycle
    # ------------------------------------------------------------------

    def maybe_snapshot(self, *, force: bool = False) -> "str | None":
        """Commit a snapshot when one is due (or ``force``); returns its name.

        Never snapshots a failed core: after a durability fault the
        in-memory allocator holds an un-logged mutation, and persisting
        it would make the rollback-on-restore contract unsound.
        """
        if self.failed:
            return None
        due = self.wal.next_seq - self._snap_seq >= self.config.snapshot_every
        if not (force or due):
            return None
        # Invariant: a snapshot's WAL prefix is durable before the
        # snapshot commits, so a loaded snapshot can never be ahead of
        # the log (checked loudly on restore).
        self.wal.sync()
        name = write_snapshot(
            self.root,
            wal_seq=self.wal.next_seq,
            state=self.allocator.state_dict(),
            idempotency=self._idempotency,
            keep=self.config.keep_snapshots,
        )
        self._snap_seq = self.wal.next_seq
        return name

    @property
    def next_seq(self) -> int:
        """Sequence number the next WAL record will get."""
        return self.wal.next_seq

    @property
    def wal_path(self) -> Path:
        """Path of the decision WAL file."""
        return self.root / WAL_NAME

    def decisions(self) -> "list[dict[str, object]]":
        """Every committed WAL record, oldest first (reads from disk)."""
        from repro.serve.wal import read_wal

        return read_wal(self.wal_path)[0]

    def state_digest(self) -> str:
        """Bit-identity fingerprint of the wrapped allocator's state."""
        return self.allocator.state_digest()

    def stats(self) -> "dict[str, object]":
        """JSON-safe operational summary (the ``/stats`` endpoint body)."""
        state = self.allocator.state_dict()
        return {
            "ok": True,
            "seq": self.wal.next_seq,
            "active_streams": len(state["active_pairs"]),
            "rejected_count": int(state["rejected_count"]),
            "max_server_load": float(max(state["server_load"], default=0.0)),
            "snapshot_seq": self._snap_seq,
            "failed": self.failed,
            "uptime": time.time() - self.started_at,
            "restore": dict(self.restore_info),
            "batch_sizes": {str(k): v for k, v in sorted(self.batch_sizes.items())},
        }

    def close(self) -> None:
        """Close the WAL (idempotent); the directory stays restorable."""
        self.wal.close()

    def __enter__(self) -> "AdmissionCore":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the WAL."""
        self.close()


# Re-exported for import convenience in tests and the CLI.
__all__ = [
    "AdmissionCore",
    "ServeConfig",
    "ServeFailure",
    "INSTANCE_NAME",
    "MANIFEST_NAME",
    "WAL_NAME",
]
