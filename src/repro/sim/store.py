"""Out-of-core columnar trace store: 10⁸-event workloads on disk.

A day of traffic at millions of users is tens of GB of
``(time, stream, duration)`` events — beyond the in-RAM
:class:`~repro.sim.indexed.IndexedTrace` arrays.  This module gives the
trace a memory-mapped columnar on-disk form:

- :class:`TraceStoreWriter` — an **append-friendly writer**: one
  ``.npy`` file per column (``times``, ``streams``, ``durations``, plus
  an optional ``users`` column so per-class schemas have somewhere to
  live), appended chunk by chunk with a fixed-size header that is
  rewritten on every commit, and a JSON ``manifest.json`` carrying the
  dtypes, the committed row count, a sortedness flag and a
  **torn-tail-safe footer** (the row count echoed with a checksum,
  written atomically *after* the column data, so the manifest always
  names rows whose bytes are fully on disk);
- :class:`TraceStore` — a **zero-copy reader**: :meth:`TraceStore.open`
  hands back mmap-backed column arrays behind the existing
  :class:`~repro.sim.indexed.IndexedTrace` API (it *is* an
  ``IndexedTrace``, so every simulation engine replays it unchanged),
  plus windowed access — :meth:`TraceStore.window` slices one
  ``[t0, t1)`` span and :meth:`TraceStore.iter_windows` streams
  consecutive spans, both via ``searchsorted`` on the time column so a
  window touches only its own pages;
- :func:`draw_trace_to_store` — the bounded-memory counterpart of
  :func:`~repro.sim.indexed.draw_trace_arrays`: events are drawn and
  appended in chunks of :func:`~repro.config.resolve_store_chunk`
  events, so drawing a 10⁸-event trace holds a few MB of arrays, never
  the whole trace;
- :func:`write_trace` — persist an in-RAM trace (chunked appends).

**Crash safety.**  Column bytes are written first, the manifest last
(atomically, via a sibling temp file and ``os.replace``), so a kill at
any instant leaves a manifest that points at fully-written rows.  A
torn column tail — a partial record from a mid-write kill, or an
externally truncated file — is repaired on reopen to the **last
complete row** present in every column
(:meth:`TraceStore.open` maps the repaired count without touching the
files; ``TraceStoreWriter(path, resume=True)`` truncates the files to
it and appends from there, producing a store byte-identical to an
uninterrupted write).

Windowed *replay* of a store — float-identical stitching at window
boundaries — lives in :meth:`repro.sim.indexed.IndexedVideoSim.run_store`
and the :func:`repro.sim.simulation.simulate_store` front door; this
module only owns the bytes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.config import resolve_store_chunk
from repro.exceptions import ValidationError
from repro.sim.indexed import IndexedTrace
from repro.util.atomic import (
    json_checksum,
    read_checked_manifest,
    write_checked_manifest,
)

#: Fixed byte size of every column file's ``.npy`` header.  The header
#: is written once with the current row count and rewritten in place on
#: each commit; reserving a constant size keeps the data offset stable
#: so appends never move bytes.
HEADER_BYTES = 128

#: Manifest schema tag and revision.
STORE_FORMAT = "repro-trace-store"
STORE_VERSION = 1

#: The mandatory columns and their canonical dtypes, in file order.
CORE_COLUMNS = (("times", "<f8"), ("streams", "<i8"), ("durations", "<f8"))

#: The optional per-event user column (per-class schemas; unused by the
#: replay engines, round-tripped byte-identically by the store).
USERS_COLUMN = ("users", "<i8")


def _npy_header(dtype: str, rows: int) -> bytes:
    """The fixed-size ``.npy`` v1 header bytes for a 1-D column.

    Handcrafted so its total size is exactly :data:`HEADER_BYTES`
    regardless of ``rows`` — ``np.load`` parses it like any other
    ``.npy`` file, and the writer can rewrite it in place on commit.
    """
    body = "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }" % (
        dtype, rows,
    )
    pad = HEADER_BYTES - 10 - 1 - len(body)
    if pad < 0:  # pragma: no cover - 128 bytes fit any 64-bit row count
        raise ValidationError(f"npy header overflow for {rows} rows")
    header = body + " " * pad + "\n"
    return (
        b"\x93NUMPY\x01\x00"
        + len(header).to_bytes(2, "little")
        + header.encode("latin1")
    )


def _manifest_check(body: "dict[str, object]") -> str:
    """CRC of the manifest body (delegates to the shared helper)."""
    return json_checksum(body)


def _write_manifest(path: Path, body: "dict[str, object]") -> None:
    """Atomically replace ``manifest.json`` with ``body`` + footer.

    Delegates to :func:`repro.util.atomic.write_checked_manifest` —
    the sibling-temp-file + ``os.replace`` dance means a kill mid-write
    can never leave a half-written manifest: readers see either the old
    commit or the new one, both internally consistent.
    """
    write_checked_manifest(path, body)


def _read_manifest(root: Path) -> "dict[str, object]":
    """Read and structurally validate a store manifest."""
    path = root / "manifest.json"
    if not path.exists():
        raise ValidationError(f"no trace store at {str(root)!r} (manifest.json missing)")
    try:
        body = read_checked_manifest(path, "store manifest")
    except ValidationError as exc:
        if "torn or tampered" in str(exc):
            raise ValidationError(
                f"store manifest {str(path)!r} has a torn or tampered footer; "
                "rewrite it with TraceStoreWriter(path, resume=True)"
            ) from None
        raise
    if body.get("format") != STORE_FORMAT:
        raise ValidationError(
            f"{str(path)!r} is not a {STORE_FORMAT} manifest"
        )
    if body.get("version") != STORE_VERSION:
        raise ValidationError(
            f"unsupported store version {body.get('version')!r} "
            f"(this build reads version {STORE_VERSION})"
        )
    return body


def _column_path(root: Path, name: str) -> Path:
    """The ``.npy`` file of one column."""
    return root / f"{name}.npy"


def _available_rows(root: Path, columns: "dict[str, str]") -> int:
    """Complete rows actually on disk: the min over columns of fully
    written records (a torn tail's partial record floors away)."""
    counts = []
    for name, dtype in columns.items():
        path = _column_path(root, name)
        if not path.exists():
            raise ValidationError(f"store column file missing: {str(path)!r}")
        data_bytes = max(path.stat().st_size - HEADER_BYTES, 0)
        counts.append(data_bytes // np.dtype(dtype).itemsize)
    return int(min(counts)) if counts else 0


def _validate_chunk(
    times: np.ndarray, streams: np.ndarray, durations: np.ndarray
) -> None:
    """Reject events no replay engine would accept, at write time.

    The same loudness contract as
    :meth:`~repro.sim.indexed.IndexedVideoSim._prepare_trace`: NaN times
    or durations, negative times, negative durations and negative
    stream indices fail here instead of corrupting a store that every
    later replay would refuse.
    """
    if times.shape != streams.shape or times.shape != durations.shape:
        raise ValidationError(
            f"column chunks disagree on length: times {times.shape}, "
            f"streams {streams.shape}, durations {durations.shape}"
        )
    if np.isnan(times).any() or np.isnan(durations).any():
        raise ValidationError("NaN event time or duration in trace chunk")
    if times.size and float(times.min()) < 0.0:
        raise ValidationError(
            f"negative event time in trace chunk: {float(times.min())}"
        )
    if durations.size and float(durations.min()) < 0.0:
        raise ValidationError(
            f"negative session duration in trace chunk: {float(durations.min())}"
        )
    if streams.size and int(streams.min()) < 0:
        raise ValidationError(
            f"negative stream index in trace chunk: {int(streams.min())}"
        )


class TraceStoreWriter:
    """Append-friendly writer of one on-disk columnar trace store.

    Parameters
    ----------
    path:
        Store directory (created if fresh; must hold an existing store
        when ``resume=True``).
    users:
        Also carry the optional per-event ``users`` column; every
        :meth:`append` must then pass ``users``.
    meta:
        Free-form JSON-able context recorded in the manifest (workload
        name, arrival model, catalog size…).  Deterministic inputs give
        byte-identical manifests — no timestamps are recorded.
    resume:
        Continue an existing store: the torn-tail repair runs first
        (column files truncate to the last complete row, manifest
        rewritten), then appends pick up where the last commit ended.

    Every :meth:`append` is one commit: column bytes first, then the
    in-place header rewrite, then the atomic manifest replace — so a
    kill between any two steps loses at most the uncommitted tail.
    Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        users: bool = False,
        meta: "dict[str, object] | None" = None,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self._closed = False
        if resume:
            body = _read_manifest(self.path)
            self.columns = dict(body["columns"])
            self.meta = dict(body.get("meta", {}))
            if users and USERS_COLUMN[0] not in self.columns:
                raise ValidationError(
                    "resume=True with users=True, but the store has no users column"
                )
            self._users = USERS_COLUMN[0] in self.columns
            self.rows = min(int(body["rows"]), _available_rows(self.path, self.columns))
            self.sorted = bool(body["sorted"])
            self._truncate_to(self.rows)
            self._last_time = self._read_last_time()
        else:
            self.columns = dict(CORE_COLUMNS)
            self._users = bool(users)
            if self._users:
                self.columns[USERS_COLUMN[0]] = USERS_COLUMN[1]
            self.meta = dict(meta or {})
            self.rows = 0
            self.sorted = True
            self._last_time = float("-inf")
            self.path.mkdir(parents=True, exist_ok=True)
            for name, dtype in self.columns.items():
                _column_path(self.path, name).write_bytes(_npy_header(dtype, 0))
        self._handles = {
            name: _column_path(self.path, name).open("r+b")
            for name in self.columns
        }
        for name, handle in self._handles.items():
            handle.seek(0, os.SEEK_END)
        self._commit_manifest()

    # ------------------------------------------------------------------
    # Resume plumbing
    # ------------------------------------------------------------------

    def _truncate_to(self, rows: int) -> None:
        """Drop torn tails: cut every column file at ``rows`` records."""
        for name, dtype in self.columns.items():
            path = _column_path(self.path, name)
            with path.open("r+b") as handle:
                handle.truncate(HEADER_BYTES + rows * np.dtype(dtype).itemsize)
                handle.seek(0)
                handle.write(_npy_header(dtype, rows))

    def _read_last_time(self) -> float:
        """Last committed arrival time (−inf for an empty store)."""
        if self.rows == 0:
            return float("-inf")
        dtype = np.dtype(self.columns["times"])
        with _column_path(self.path, "times").open("rb") as handle:
            handle.seek(HEADER_BYTES + (self.rows - 1) * dtype.itemsize)
            return float(np.frombuffer(handle.read(dtype.itemsize), dtype=dtype)[0])

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(
        self,
        times,
        streams,
        durations,
        users=None,
    ) -> int:
        """Append one chunk of events; returns the new committed row count.

        Chunks are validated loudly (NaN times/durations, negative
        durations or stream indices) before any byte is written;
        non-monotone times are legal but clear the manifest's sortedness
        flag, steering replay to the monolithic path.
        """
        if self._closed:
            raise ValidationError("append on a closed TraceStoreWriter")
        chunk = {
            "times": np.ascontiguousarray(times, dtype=self.columns["times"]),
            "streams": np.ascontiguousarray(streams, dtype=self.columns["streams"]),
            "durations": np.ascontiguousarray(
                durations, dtype=self.columns["durations"]
            ),
        }
        _validate_chunk(chunk["times"], chunk["streams"], chunk["durations"])
        if self._users:
            if users is None:
                raise ValidationError("this store has a users column; pass users=")
            chunk["users"] = np.ascontiguousarray(
                users, dtype=self.columns[USERS_COLUMN[0]]
            )
            if chunk["users"].shape != chunk["times"].shape:
                raise ValidationError(
                    f"users chunk length {chunk['users'].shape} != "
                    f"times {chunk['times'].shape}"
                )
        elif users is not None:
            raise ValidationError(
                "store was opened without a users column; pass users=True "
                "to TraceStoreWriter to record one"
            )
        count = int(chunk["times"].shape[0])
        if count == 0:
            return self.rows
        if self.sorted:
            first = float(chunk["times"][0])
            within = count < 2 or bool(
                np.all(chunk["times"][1:] >= chunk["times"][:-1])
            )
            self.sorted = within and (
                self.rows == 0 or first >= self._last_time
            )
        self._last_time = float(chunk["times"][-1])
        # Commit order: data bytes, then headers, then the manifest —
        # the manifest only ever names rows that are fully on disk.
        for name, handle in self._handles.items():
            handle.write(chunk[name].tobytes())
            handle.flush()
        self.rows += count
        self._rewrite_headers()
        self._commit_manifest()
        return self.rows

    def append_trace(self, trace: IndexedTrace, chunk: "int | None" = None) -> int:
        """Append an in-RAM :class:`IndexedTrace` in bounded chunks."""
        step = resolve_store_chunk(chunk)
        for lo in range(0, len(trace), step):
            hi = lo + step
            self.append(
                trace.times[lo:hi], trace.streams[lo:hi], trace.durations[lo:hi]
            )
        return self.rows

    def _rewrite_headers(self) -> None:
        """Refresh every column's in-place header with the row count."""
        for name, handle in self._handles.items():
            handle.seek(0)
            handle.write(_npy_header(self.columns[name], self.rows))
            handle.seek(0, os.SEEK_END)
            handle.flush()

    def _manifest_body(self) -> "dict[str, object]":
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "columns": dict(self.columns),
            "rows": self.rows,
            "sorted": self.sorted,
            "meta": self.meta,
        }

    def _commit_manifest(self) -> None:
        _write_manifest(self.path / "manifest.json", self._manifest_body())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush, commit the final manifest and release the file handles."""
        if self._closed:
            return
        self._rewrite_headers()
        self._commit_manifest()
        for handle in self._handles.values():
            handle.close()
        self._closed = True

    def __enter__(self) -> "TraceStoreWriter":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: always :meth:`close`."""
        self.close()


class TraceStore(IndexedTrace):
    """A read-only, mmap-backed on-disk trace (an :class:`IndexedTrace`).

    Constructed via :meth:`open`; the ``times`` / ``streams`` /
    ``durations`` attributes are memory-mapped column views sized to the
    committed row count, so the whole store satisfies the in-RAM trace
    API — every simulation engine replays it unchanged — while a replay
    only faults in the pages it touches.

    Attributes
    ----------
    path:
        The store directory.
    sorted:
        The manifest's sortedness flag; windowed access requires it.
    users:
        The optional per-event user column (``None`` when absent).
    repaired_rows:
        Rows dropped on open because a torn column tail made them
        incomplete (``0`` for a cleanly closed store).
    """

    def __init__(
        self,
        times: np.ndarray,
        streams: np.ndarray,
        durations: np.ndarray,
        *,
        path: Path,
        manifest: "dict[str, object]",
        users: "np.ndarray | None" = None,
        repaired_rows: int = 0,
    ) -> None:
        super().__init__(times=times, streams=streams, durations=durations)
        self.path = path
        self.manifest = manifest
        self.sorted = bool(manifest["sorted"])
        self.meta = dict(manifest.get("meta", {}))
        self.users = users
        self.repaired_rows = repaired_rows

    @classmethod
    def open(cls, path: "str | Path") -> "TraceStore":
        """Map a store's committed rows without copying a byte.

        The committed row count is the *smaller* of the manifest's count
        and the complete rows actually present in every column file, so
        a torn tail (kill mid-append, external truncation) silently
        shrinks to the last complete row — ``repaired_rows`` records how
        many rows were dropped.  The files are not modified; appending
        through ``TraceStoreWriter(path, resume=True)`` makes the repair
        durable.
        """
        root = Path(path)
        body = _read_manifest(root)
        columns: "dict[str, str]" = dict(body["columns"])
        for name, _ in CORE_COLUMNS:
            if name not in columns:
                raise ValidationError(f"store manifest lacks core column {name!r}")
        rows = min(int(body["rows"]), _available_rows(root, columns))
        repaired = int(body["rows"]) - rows
        mapped: "dict[str, np.ndarray]" = {}
        for name, dtype in columns.items():
            if rows:
                mapped[name] = np.memmap(
                    _column_path(root, name),
                    dtype=np.dtype(dtype),
                    mode="r",
                    offset=HEADER_BYTES,
                    shape=(rows,),
                )
            else:
                mapped[name] = np.empty(0, dtype=np.dtype(dtype))
        return cls(
            times=mapped["times"],
            streams=mapped["streams"],
            durations=mapped["durations"],
            path=root,
            manifest=body,
            users=mapped.get(USERS_COLUMN[0]),
            repaired_rows=repaired,
        )

    # ------------------------------------------------------------------
    # Windowed access
    # ------------------------------------------------------------------

    def _require_sorted(self, what: str) -> None:
        if not self.sorted:
            raise ValidationError(
                f"{what} needs a time-sorted store, but "
                f"{str(self.path)!r} is flagged unsorted; rewrite it sorted "
                "or replay monolithically"
            )

    def window(self, t0: float, t1: float) -> IndexedTrace:
        """The events with ``t0 <= time < t1`` as zero-copy column views.

        Two ``searchsorted`` probes on the mmap'd time column; the
        returned :class:`IndexedTrace` holds slices of the maps, so no
        bytes are read until the caller touches them.
        """
        self._require_sorted("window()")
        lo = int(np.searchsorted(self.times, t0, side="left"))
        hi = int(np.searchsorted(self.times, t1, side="left"))
        return IndexedTrace(
            times=self.times[lo:hi],
            streams=self.streams[lo:hi],
            durations=self.durations[lo:hi],
        )

    def iter_windows(
        self,
        window: float,
        start: float = 0.0,
        stop: "float | None" = None,
    ) -> "Iterator[tuple[float, float, IndexedTrace]]":
        """Stream consecutive ``[w0, w1)`` spans of ``window`` time units.

        Yields ``(w0, w1, trace)`` triples from ``start`` until every
        event at time < ``stop`` (default: just past the last event) has
        been covered; empty spans are skipped.  Each trace is a
        zero-copy :meth:`window` slice.
        """
        self._require_sorted("iter_windows()")
        if window <= 0:
            raise ValidationError(f"window must be positive, got {window}")
        if len(self) == 0:
            return
        if stop is None:
            stop = float(self.times[-1]) + 1.0
        w0 = start
        while w0 < stop:
            w1 = w0 + window
            piece = self.window(w0, min(w1, stop))
            if len(piece):
                yield w0, w1, piece
            w0 = w1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def info(self) -> "dict[str, object]":
        """Manifest + on-disk facts for ``repro trace info``."""
        per_column = {
            name: {
                "dtype": dtype,
                "bytes": int(_column_path(self.path, name).stat().st_size),
            }
            for name, dtype in dict(self.manifest["columns"]).items()
        }
        return {
            "path": str(self.path),
            "rows": len(self),
            "sorted": self.sorted,
            "repaired_rows": self.repaired_rows,
            "columns": per_column,
            "data_bytes": sum(c["bytes"] - HEADER_BYTES for c in per_column.values()),
            "meta": self.meta,
        }


def write_trace(
    trace: IndexedTrace,
    path: "str | Path",
    *,
    meta: "dict[str, object] | None" = None,
    chunk: "int | None" = None,
) -> TraceStore:
    """Persist an in-RAM trace to a store (bounded chunked appends)."""
    with TraceStoreWriter(path, meta=meta) as writer:
        writer.append_trace(trace, chunk=chunk)
    return TraceStore.open(path)


def draw_trace_to_store(
    instance,
    model,
    horizon: float,
    path: "str | Path",
    seed: "int | np.random.Generator | None" = None,
    *,
    chunk: "int | None" = None,
    meta: "dict[str, object] | None" = None,
) -> TraceStore:
    """Draw a Poisson/Zipf arrival trace straight into a store.

    The bounded-memory fix for very large event counts: where
    :func:`~repro.sim.indexed.draw_trace_arrays` materializes the whole
    trace (every arrival time in one concatenated array), this draws and
    appends :func:`~repro.config.resolve_store_chunk`-sized chunks — gap
    batch, cumulative sum, Zipf ``searchsorted``, duration batch, one
    :meth:`TraceStoreWriter.append` — so peak memory is a few chunk-sized
    arrays regardless of the trace length
    (``tests/test_store.py`` pins this with :mod:`tracemalloc`).

    Deterministic under a fixed ``(seed, chunk)`` pair; the chunk size
    shapes RNG consumption, so it is part of the determinism contract
    (unlike the in-RAM draw, whose batch sizes adapt to the expected
    event count).  Degenerate inputs — zero rate, empty catalog,
    nonpositive horizon — produce a valid empty store.
    """
    from repro.core.indexed import ensure_indexed
    from repro.util.rng import ensure_rng

    idx = ensure_indexed(instance)
    step = resolve_store_chunk(chunk)
    base_meta = {
        "num_streams": idx.num_streams,
        "num_users": idx.num_users,
        "rate": model.rate,
        "mean_duration": model.mean_duration,
        "popularity_exponent": model.popularity_exponent,
        "horizon": horizon,
        "chunk": step,
    }
    base_meta.update(meta or {})
    with TraceStoreWriter(path, meta=base_meta) as writer:
        if model.rate > 0 and idx.num_streams > 0 and horizon > 0:
            rng = ensure_rng(seed)
            num_streams = idx.num_streams
            ranks = np.arange(1, num_streams + 1, dtype=float)
            cumweights = np.cumsum(ranks ** (-model.popularity_exponent))
            cumweights /= cumweights[-1]
            scale = 1.0 / model.rate
            last = 0.0
            while True:
                block = last + np.cumsum(rng.exponential(scale, size=step))
                count = int(np.searchsorted(block, horizon, side="right"))
                if count:
                    streams = np.minimum(
                        np.searchsorted(
                            cumweights, rng.random(count), side="right"
                        ),
                        num_streams - 1,
                    ).astype(np.int64)
                    durations = rng.exponential(model.mean_duration, size=count)
                    writer.append(block[:count], streams, durations)
                if count < step:  # the block crossed the horizon
                    break
                last = float(block[-1])
    return TraceStore.open(path)
