"""Atomic allocator-state snapshots for the admission service.

A snapshot bounds restore time: recovery loads the newest snapshot and
replays only the WAL records past it, instead of the whole history.
Correctness never depends on snapshots — losing every one of them just
makes restore replay from sequence 0.

Layout under the service directory::

    serve-manifest.json          # root pointer (checksummed, atomic)
    instance.json                # the MMDInstance, written once at create
    wal.jsonl                    # the decision log (repro.serve.wal)
    snapshots/snap-<seq>/
        state.npz                # allocator arrays + active pairs
        state.json               # checksummed manifest w/ npz sha256

Commit protocol (the :mod:`repro.sim.store` pattern, via
:mod:`repro.util.atomic`): data bytes first (``state.npz``, fsync'd),
then the snapshot manifest (``state.json``, which embeds the npz's
sha256), then the root pointer — each an atomic replace.  A crash at
any instant leaves the previous pointer intact; a torn npz or manifest
is detected by checksum on load and reported loudly.

The loads are stored **verbatim**; the ``µ^L`` charge caches, functions
of the loads, are not stored but rebuilt on load by
:meth:`~repro.core.allocate.OnlineAllocator.resync_charges`, so a
restored allocator is bit-wise identical to the one that snapshotted —
the property the chaos suite asserts via
:meth:`~repro.core.allocate.OnlineAllocator.state_digest`.  Snapshots
written by earlier builds also hold the caches and a resync counter;
loading reads only the fields this build writes and ignores the rest.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError
from repro.util.atomic import (
    read_checked_manifest,
    atomic_write_bytes,
    write_checked_manifest,
)

#: Root-manifest format marker.
SERVE_FORMAT = "repro-serve"

#: On-disk layout version of the service directory.
SERVE_VERSION = 1

#: Filename of the root pointer inside a service directory.
MANIFEST_NAME = "serve-manifest.json"

#: Filename of the serialized instance inside a service directory.
INSTANCE_NAME = "instance.json"

#: Filename of the decision WAL inside a service directory.
WAL_NAME = "wal.jsonl"

#: Root pointer of the retired sharded service layout.  This build does
#: not serve such directories; the core refuses any that holds it.
SHARD_MANIFEST_NAME = "shard-manifest.json"


def snapshot_name(wal_seq: int) -> str:
    """Directory name for the snapshot taken after ``wal_seq`` records."""
    return f"snap-{int(wal_seq):012d}"


def _pack_state(state: "dict[str, object]") -> "tuple[bytes, str]":
    """Serialize the array half of an allocator state dict to npz bytes.

    Returns ``(npz_bytes, sha256_hex)``.  Active pairs are flattened to
    CSR-style ``(keys, indptr, flat)`` arrays for a stable layout.
    """
    pairs = state["active_pairs"]
    keys = np.asarray(sorted(pairs), dtype=np.int64)
    flats = [np.asarray(pairs[int(k)], dtype=np.int64) for k in keys]
    indptr = np.zeros(len(keys) + 1, dtype=np.int64)
    if flats:
        indptr[1:] = np.cumsum([len(f) for f in flats])
    flat = np.concatenate(flats) if flats else np.zeros(0, dtype=np.int64)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        server_load=state["server_load"],
        user_load=state["user_load"],
        active_keys=keys,
        active_indptr=indptr,
        active_flat=flat,
    )
    data = buffer.getvalue()
    return data, hashlib.sha256(data).hexdigest()


def _unpack_state(
    data: bytes, body: "dict[str, object]"
) -> "dict[str, object]":
    """Rebuild an allocator state dict from npz bytes + manifest body."""
    with np.load(io.BytesIO(data)) as bundle:
        keys = bundle["active_keys"]
        indptr = bundle["active_indptr"]
        flat = bundle["active_flat"]
        state: "dict[str, object]" = {
            "mu": float(body["mu"]),
            "server_load": bundle["server_load"],
            "user_load": bundle["user_load"],
            "offered": list(body["offered"]),
            "active_pairs": {
                int(k): flat[indptr[i] : indptr[i + 1]].copy()
                for i, k in enumerate(keys)
            },
            "rejected": list(body["rejected"]),
            "rejected_count": int(body["rejected_count"]),
        }
    return state


def write_root_manifest(
    root: "str | Path", *, wal_seq: int, snapshot: "str | None", mu: float
) -> None:
    """Atomically (re)write the service directory's root pointer.

    The pointer records the resolved ``µ`` so a bare restore (no
    snapshot yet) still rebuilds the allocator with the exact parameter
    the service was created with.
    """
    write_checked_manifest(
        Path(root) / MANIFEST_NAME,
        {
            "format": SERVE_FORMAT,
            "version": SERVE_VERSION,
            "rows": int(wal_seq),
            "snapshot": snapshot,
            "mu": float(mu),
        },
        fsync=True,
    )


def read_root_manifest(root: "str | Path") -> "dict[str, object]":
    """Read + validate the root pointer; loud on torn/foreign files."""
    body = read_checked_manifest(Path(root) / MANIFEST_NAME, "serve manifest")
    if body.get("format") != SERVE_FORMAT:
        raise ValidationError(
            f"{str(Path(root))!r} is not a repro-serve directory "
            f"(format {body.get('format')!r})"
        )
    if body.get("version") != SERVE_VERSION:
        raise ValidationError(
            f"unsupported serve layout version {body.get('version')!r}; "
            f"this build reads version {SERVE_VERSION}"
        )
    return body


def write_snapshot(
    root: "str | Path",
    *,
    wal_seq: int,
    state: "dict[str, object]",
    idempotency: "dict[str, dict[str, object]]",
    keep: int = 2,
) -> str:
    """Commit a snapshot of the allocator after ``wal_seq`` WAL records.

    Returns the snapshot's directory name.  Old snapshots beyond the
    newest ``keep`` are pruned only after the root pointer has moved on,
    so the referenced snapshot is never deleted.
    """
    root = Path(root)
    name = snapshot_name(wal_seq)
    snap_dir = root / "snapshots" / name
    snap_dir.mkdir(parents=True, exist_ok=True)
    npz_bytes, npz_sha = _pack_state(state)
    atomic_write_bytes(snap_dir / "state.npz", npz_bytes, fsync=True)
    write_checked_manifest(
        snap_dir / "state.json",
        {
            "rows": int(wal_seq),
            "mu": float(state["mu"]),
            "offered": list(state["offered"]),
            "rejected": list(state["rejected"]),
            "rejected_count": int(state["rejected_count"]),
            "idempotency": dict(idempotency),
            "npz_sha256": npz_sha,
        },
        fsync=True,
    )
    write_root_manifest(
        root, wal_seq=wal_seq, snapshot=name, mu=float(state["mu"])
    )
    _prune_snapshots(root, keep=keep, referenced=name)
    return name


def _prune_snapshots(root: Path, *, keep: int, referenced: str) -> None:
    """Delete snapshot directories beyond the newest ``keep``."""
    snaps = root / "snapshots"
    if not snaps.is_dir():
        return
    names = sorted(p.name for p in snaps.iterdir() if p.is_dir())
    for name in names[: max(0, len(names) - max(1, int(keep)))]:
        if name != referenced:
            shutil.rmtree(snaps / name, ignore_errors=True)


def load_snapshot(
    root: "str | Path", name: str
) -> "tuple[int, dict[str, object], dict[str, dict[str, object]]]":
    """Load snapshot ``name``; returns ``(wal_seq, state, idempotency)``.

    Raises :class:`~repro.exceptions.ValidationError` when the snapshot
    manifest is torn or the npz bytes do not match their recorded
    sha256 — corruption is reported, never silently absorbed.
    """
    snap_dir = Path(root) / "snapshots" / name
    body = read_checked_manifest(snap_dir / "state.json", "snapshot manifest")
    npz_path = snap_dir / "state.npz"
    if not npz_path.exists():
        raise ValidationError(f"snapshot {name!r} is missing its state.npz")
    data = npz_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != body.get("npz_sha256"):
        raise ValidationError(
            f"snapshot {name!r} state.npz is torn or tampered "
            f"(sha256 {digest} != recorded {body.get('npz_sha256')!r})"
        )
    state = _unpack_state(data, body)
    idempotency = {
        str(k): dict(v) for k, v in dict(body.get("idempotency", {})).items()
    }
    return int(body["rows"]), state, idempotency


def instance_digest(instance_json: str) -> str:
    """Stable fingerprint of a serialized instance (sha256 hex)."""
    return hashlib.sha256(instance_json.encode()).hexdigest()


def write_instance(root: "str | Path", instance) -> None:
    """Persist the instance a service directory was created for."""
    text = instance.to_json()
    atomic_write_bytes(
        Path(root) / INSTANCE_NAME,
        json.dumps({"digest": instance_digest(text), "instance": json.loads(text)},
                   sort_keys=True).encode(),
        fsync=True,
    )


def read_instance(root: "str | Path"):
    """Load the instance a service directory was created for (loudly)."""
    from repro.core.instance import MMDInstance

    path = Path(root) / INSTANCE_NAME
    if not path.exists():
        raise ValidationError(f"no serialized instance at {str(path)!r}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"corrupt instance file {str(path)!r}: {exc}") from None
    body = payload.get("instance")
    text = json.dumps(body, sort_keys=True)
    if instance_digest(text) != payload.get("digest"):
        raise ValidationError(
            f"instance file {str(path)!r} is torn or tampered (digest mismatch)"
        )
    return MMDInstance.from_dict(body)
