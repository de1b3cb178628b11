"""Asyncio HTTP/1.1 front door for the admission service.

Stdlib-only (``asyncio`` streams + a minimal HTTP/1.1 parser — the
container deliberately has no third-party HTTP stack).  Endpoints:

- ``GET /health`` — liveness + failed-state flag, served instantly
  from the event loop;
- ``GET /stats`` — the core's operational summary plus queue counters
  and the group-commit batch-size histogram;
- ``POST /offer`` / ``POST /release`` — state-changing decisions, body
  ``{"stream": <id or index>, "key": <idempotency key>}``.

**Single-writer discipline:** every state-changing request is funneled
through one writer thread — the allocator and WAL of the
:class:`~repro.serve.service.AdmissionCore` only ever see one writer
while the event loop stays free to answer health checks and to *shed*
load.

**Group commit:** the writer thread drains up to ``commit_batch``
queued decisions per pass, executes them in order, and commits all
their WAL records under **one** fsync
(:meth:`~repro.serve.service.AdmissionCore.execute_batch`), resolving
every waiter only after the shared sync returns — durability semantics
unchanged, fsync cost shared.  A pass never waits for company: it
commits whatever is queued, so batches form only while the writer is
busy.  At ``commit_batch=1`` the server behaves exactly like the
pre-batching single-writer.

**Graceful overload degradation:** before queueing a decision the
server checks the admission queue.  If ``pending >= max_pending`` or
the estimated wait (depth × rolling mean decision latency) exceeds
``max_wait``, the request is rejected *immediately* with ``503`` and a
``Retry-After`` hint instead of being queued.  Under 2× sustained
overload the shed path keeps served-request latency bounded — queue
depth, not service time, is what melts tail latency.

The transport consults the core's
:class:`~repro.serve.faults.FaultPlan` (when armed) to drop
acknowledgements after executing a request — the injected fault that
proves client retries + idempotency keys give at-most-once effects.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.exceptions import ValidationError
from repro.serve.service import AdmissionCore, ServeFailure

#: Hard cap on request-head bytes (request line + headers).
MAX_HEAD_BYTES = 16 * 1024

#: Hard cap on request-body bytes.
MAX_BODY_BYTES = 1024 * 1024

#: Reason phrases for the status codes this server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _encode_response(
    status: int,
    body: "dict[str, object]",
    *,
    keep_alive: bool,
    extra_headers: "tuple[tuple[str, str], ...]" = (),
) -> bytes:
    """Serialize one JSON response as HTTP/1.1 bytes."""
    payload = json.dumps(body).encode()
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + payload


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request; returns ``(method, path, headers, body)`` or None at EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        return None
    except asyncio.LimitOverrunError:
        raise ValidationError("request head exceeds the line limit") from None
    if len(head) > MAX_HEAD_BYTES:
        raise ValidationError("request head too large")
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        raise ValidationError("malformed HTTP request line") from None
    headers: "dict[str, str]" = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ValidationError("malformed Content-Length header") from None
    if length < 0:
        raise ValidationError(f"negative Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise ValidationError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


def _resolve_waiter(future: "asyncio.Future", outcome, error) -> None:
    """Complete one request future from the writer thread (loop-side call)."""
    if future.cancelled():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(outcome)


class _Writer:
    """The service's single-writer thread with a group-commit drain loop.

    Requests enqueue from the event loop; the writer thread drains up
    to ``commit_batch`` of them per pass and commits the whole batch
    under one fsync.  Extra drain submissions against an already-empty
    queue are no-ops, so scheduling one drain per enqueue keeps the
    thread busy exactly while work is pending.
    """

    def __init__(self, core: AdmissionCore) -> None:
        self.core = core
        self.executor = ThreadPoolExecutor(max_workers=1)
        self._lock = threading.Lock()
        self._queue: "deque[tuple]" = deque()

    def submit(
        self, loop: asyncio.AbstractEventLoop, op: str, stream, key
    ) -> "asyncio.Future":
        """Enqueue one decision; returns a future resolving to its outcome."""
        future = loop.create_future()
        with self._lock:
            self._queue.append((op, stream, key, loop, future))
        self.executor.submit(self._drain)
        return future

    def depth(self) -> int:
        """Decisions currently queued on the writer (snapshot)."""
        with self._lock:
            return len(self._queue)

    def _drain(self) -> None:
        """Writer-thread pass: gather a batch, group-commit, resolve waiters."""
        with self._lock:
            take = min(self.core.config.commit_batch, len(self._queue))
            items = [self._queue.popleft() for _ in range(take)]
        if not items:
            return
        ops = [(op, stream, key) for op, stream, key, _, _ in items]
        try:
            outcomes = self.core.execute_batch(ops)
        except BaseException as exc:
            # Whole-batch failure (durability fault, injected crash):
            # nothing was acknowledged; every waiter sees the error.
            for _, _, _, loop, future in items:
                loop.call_soon_threadsafe(_resolve_waiter, future, None, exc)
            return
        for (_, _, _, loop, future), outcome in zip(items, outcomes):
            if isinstance(outcome, ValidationError):
                loop.call_soon_threadsafe(_resolve_waiter, future, None, outcome)
            else:
                loop.call_soon_threadsafe(_resolve_waiter, future, outcome, None)


class AdmissionHTTPService:
    """HTTP server over one :class:`~repro.serve.service.AdmissionCore`."""

    def __init__(self, core: AdmissionCore) -> None:
        self.core = core
        self.config = core.config
        self._writer = _Writer(core)
        self._server: "asyncio.base_events.Server | None" = None
        self.port: "int | None" = None
        self._pending = 0
        self._shed = 0
        self._served = 0
        self._latencies: "deque[float]" = deque(maxlen=64)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        """Serve until cancelled (``asyncio.CancelledError``)."""
        if self._server is None:
            raise ValidationError("call start() before serve_forever()")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drain the writer, snapshot and close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._final_flush)

    def _final_flush(self) -> None:
        """Drain the writer thread, then snapshot and close (quiesced).

        Shutting the writer's executor down waits out its queued
        drains, so by the time the snapshot runs no decision is
        mid-operation.
        """
        self._writer.executor.shutdown(wait=True)
        self.core.maybe_snapshot(force=True)
        self.core.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one keep-alive connection until EOF or error."""
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ValidationError as exc:
                    writer.write(_encode_response(
                        400, {"ok": False, "error": str(exc)}, keep_alive=False
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, response, extra, drop = await self._dispatch(
                    method, path, body
                )
                if drop:
                    # Injected transport fault: the request executed but
                    # its acknowledgement is lost — the client must
                    # retry with the same idempotency key.
                    writer.transport.abort()
                    return
                writer.write(_encode_response(
                    status, response, keep_alive=keep_alive, extra_headers=extra
                ))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> "tuple[int, dict[str, object], tuple, bool]":
        """Route one request; returns (status, body, extra headers, drop?)."""
        if path == "/health":
            if method != "GET":
                return 405, {"ok": False, "error": "health is GET-only"}, (), False
            return 200, {
                "ok": not self.core.failed,
                "failed": self.core.failed,
                "seq": self.core.next_seq,
            }, (), False
        if path == "/stats":
            if method != "GET":
                return 405, {"ok": False, "error": "stats is GET-only"}, (), False
            stats = await self._stats()
            stats.update(self.queue_stats())
            return 200, stats, (), False
        if path in ("/offer", "/release"):
            if method != "POST":
                return 405, {"ok": False, "error": f"{path} is POST-only"}, (), False
            return await self._decide(path.lstrip("/"), body)
        return 404, {"ok": False, "error": f"unknown path {path!r}"}, (), False

    async def _stats(self) -> "dict[str, object]":
        """Collect the core's stats on the writer thread.

        Running ``stats()`` on the writer serializes the read against
        the core's mutations.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._writer.executor, self.core.stats)

    def queue_stats(self) -> "dict[str, object]":
        """Admission-queue counters (merged into ``/stats``)."""
        return {
            "pending": self._pending,
            "shed": self._shed,
            "served": self._served,
            "mean_latency": self._mean_latency(),
            "queue_depth": self._writer.depth(),
        }

    def batch_histogram(self) -> "dict[str, int]":
        """The writer's group-commit batch-size histogram."""
        return {str(k): v for k, v in sorted(self.core.batch_sizes.items())}

    def _mean_latency(self) -> float:
        """Rolling mean decision latency (seconds; 0 before any sample)."""
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def _should_shed(self) -> bool:
        """Overload predicate: queue too deep, or estimated wait too long."""
        if self._pending >= self.config.max_pending:
            return True
        estimated = self._pending * self._mean_latency()
        # Group commit retires the queue in batches, so the expected
        # wait shrinks accordingly — without this, a deep-but-fast
        # batched queue would shed load it could trivially serve.
        return estimated / max(1, self.config.commit_batch) > self.config.max_wait

    async def _decide(
        self, op: str, body: bytes
    ) -> "tuple[int, dict[str, object], tuple, bool]":
        """Queue one offer/release on the single writer."""
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"ok": False, "error": f"bad JSON body: {exc}"}, (), False
        if not isinstance(payload, dict) or "stream" not in payload:
            return 400, {"ok": False, "error": 'body needs a "stream" field'}, (), False
        stream = payload["stream"]
        if not isinstance(stream, (str, int)):
            return 400, {"ok": False, "error": "stream must be an id or index"}, (), False
        key = payload.get("key")
        if key is not None and not isinstance(key, str):
            return 400, {"ok": False, "error": "key must be a string"}, (), False
        if self._should_shed():
            self._shed += 1
            retry_after = self.config.retry_after
            return 503, {
                "ok": False,
                "error": "overloaded",
                "shed": True,
                "retry_after": retry_after,
            }, (("Retry-After", f"{retry_after:g}"),), False
        loop = asyncio.get_running_loop()
        self._pending += 1
        started = time.perf_counter()
        try:
            response = await self._writer.submit(loop, op, stream, key)
        except ValidationError as exc:
            return 400, {"ok": False, "error": str(exc)}, (), False
        except ServeFailure as exc:
            return 500, {"ok": False, "error": str(exc)}, (), False
        finally:
            self._pending -= 1
            self._latencies.append(time.perf_counter() - started)
            self._served += 1
        plan = self.core.fault_plan
        drop = plan is not None and plan.on_response() == "drop"
        return 200, response, (), drop
