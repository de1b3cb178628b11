"""``serve_http``: HTTP offer → fsync'd ack against a ``repro serve run`` process.

The server runs at its defaults (fsync per decision, ``commit_batch=1``,
snapshot every 1024 records) on the small-streams 64×32 instance.  One
client process holds two keep-alive ``ServeClient`` connections with
``retries=0``.  Operations come from a seeded session trace through
:class:`perfbench.inputs.OpWalker`; a release is sent only after its
offer was acknowledged as admitted.

Sessions, each on a fresh server and repeated for most of the run,
run a short closed loop (both connections busy: the decision capacity)
and then a short open-loop segment at the reference rate (latency from
each request's due time).  One more server runs an open-loop ladder of
fixed offered rates, whose latency includes the generator's own
lateness when both connections are busy.  Every server is then stopped
with SIGTERM and its directory restored and checked.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

from perfbench import common, inputs
from perfbench.spans import LayerStats, Recorder, layer_metrics, load_dumps, tracing
from repro.serve.service import ServeConfig

STREAMS, USERS = 64, 32
#: The instance is fixed; ``--seed`` draws the session trace.
INSTANCE_SEED = 2008
RATE, MEAN_SESSION = 100.0, 5.0
OPS_TO_EVENTS = 4
CONNECTIONS = 2
#: Offered rates of the open-loop ladder (requests/s), ascending.  The
#: two-connection capacity on a 2-CPU host is 1.2-2.6k requests/s
#: depending on the neighbours' load, so the top steps saturate.
LADDER = (200, 400, 800, 1200)
#: The offered rate of every session's open-loop segment, whose latency
#: is the end-to-end latency: low enough that the server stays well
#: below capacity even when the host is slow, where latency would swing
#: with the load factor.
REFERENCE_RATE = 200
#: Requests per reference segment: 1.5 s at REFERENCE_RATE, 30 of them
#: beyond the TAIL percentile.
REFERENCE_REQUESTS = 300
#: Latency limit of a ladder step, on its SLO_PERCENTILE.
LIMIT_MS = 5.0
SLO_PERCENTILE = 0.99
#: Tail percentile of the end-to-end latency: the highest round one with
#: at least ten of a reference segment's samples beyond it.  Segments
#: fall between snapshots (every 1024 records), so this is the tail of
#: normal operation; each snapshot stalls the writer for tens of
#: milliseconds (400 ms when the host is slow), and the ladder's
#: stall-bound p99 is in the details.
TAIL = 0.90
#: Largest failed share a ladder step may have and still meet the limit.
MAX_FAILED_SHARE = 0.001
#: A step whose lateness grows by more than this is falling behind.
MAX_LATENESS_GROWTH_S = 0.001
#: Share of the run for the ladder (split evenly over its steps); the
#: sessions (server start included) fill the rest.
LADDER_SHARE = 0.2
#: The traced server runs every ladder step at this share of its length.
TRACED_SHARE = 0.5
#: Sessions, each on a fresh server, fill half of the run's remainder
#: before the ladder and half after, at least this many on each side.
#: The host's speed changes over a run, so latency and capacity are
#: those of the best session (see NOTES.md).
MIN_SESSIONS = 3
#: Requests per closed loop: one snapshot interval of the service and a
#: quarter, so every closed loop pays exactly one snapshot.
CLOSED_REQUESTS = ServeConfig().snapshot_every * 5 // 4


@dataclass
class Sample:
    """One request: when it was due, sent and answered (perf_counter s)."""

    due: float
    sent: float
    done: float
    ok: bool
    op: str
    seq: "int | None"

    @property
    def latency(self) -> float:
        """Seconds from due to answer; a failed request never meets a limit."""
        return self.done - self.due if self.ok else float("inf")


async def drive(clients, walker, *, seconds: "float | None" = None,
                rate: "float | None" = None, requests: "int | None" = None):
    """Send the walker's operations for ``seconds`` or ``requests``; returns the samples.

    ``rate=None`` is a closed loop: every connection sends its next
    request as soon as its previous one is answered.  Otherwise the
    loop is open: request *i* is due at ``start + i / rate`` whether or
    not a connection is free, and its latency counts from that due time.
    """
    from repro.exceptions import ValidationError
    from repro.serve.service import ServeFailure

    free = list(range(len(clients)))
    freed, resolved = asyncio.Event(), asyncio.Event()
    samples: "list[Sample]" = []
    tasks: "set[asyncio.Task]" = set()

    async def one(conn: int, op, due: float, sent: float) -> None:
        kind, k, key, _ = op
        admitted, seq, ok = False, None, True
        try:
            call = clients[conn].offer if kind == "offer" else clients[conn].release
            body = await call(k, key=key)
            admitted, seq = bool(body.get("admitted")), int(body["seq"])
        except (ServeFailure, ValidationError, OSError, asyncio.TimeoutError):
            ok = False
        samples.append(Sample(due, sent, time.perf_counter(), ok, kind, seq))
        walker.resolve(op, admitted)
        free.append(conn)
        freed.set()
        resolved.set()

    start = time.perf_counter()
    sent_count = 0
    while requests is None or sent_count < requests:
        if rate is not None:
            due = start + sent_count / rate
            if seconds is not None and due >= start + seconds:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        elif seconds is not None and time.perf_counter() - start >= seconds:
            break
        while not free:
            freed.clear()
            await freed.wait()
        op = walker.next()
        while op is inputs.BLOCKED:
            resolved.clear()
            await resolved.wait()
            op = walker.next()
        if op is None:
            raise RuntimeError("session trace exhausted; draw a longer one")
        sent = time.perf_counter()
        task = asyncio.create_task(one(free.pop(), op, sent if rate is None else due, sent))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        sent_count += 1
    await asyncio.gather(*list(tasks))
    return samples


def step_summary(samples: "list[Sample]", rate: float) -> "dict[str, object]":
    """Tail latency, lateness growth, failures, and whether the step meets the limit."""
    ordered = sorted(samples, key=lambda s: s.due)
    quarter = max(1, len(ordered) // 4)
    lateness = [s.sent - s.due for s in ordered]
    growth = (sum(lateness[-quarter:]) - sum(lateness[:quarter])) / quarter
    failed = sum(1 for s in samples if not s.ok)
    tail_ms = common.percentile([s.latency for s in samples], SLO_PERCENTILE) * 1e3
    failed_share = failed / len(samples)
    return {
        "rate": rate,
        "samples": len(samples),
        "p50_ms": common.percentile([s.latency for s in samples], 0.5) * 1e3,
        "p99_ms": tail_ms,
        "lateness_growth_ms": growth * 1e3,
        "failed": failed,
        "meets_limit": (tail_ms <= LIMIT_MS and growth <= MAX_LATENESS_GROWTH_S
                        and failed_share <= MAX_FAILED_SHARE),
    }


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------


def spawn(ctx, root, spans_dir=None) -> "tuple[subprocess.Popen, int, float]":
    """Start a server on a fresh directory; returns (process, port, seconds to ready)."""
    args = ["serve", "run", "--dir", str(root), "--workload", "small-streams",
            "--streams", str(STREAMS), "--users", str(USERS),
            "--seed", str(INSTANCE_SEED)]
    if spans_dir is None:
        command = [sys.executable, "-m", "repro", *args]
    else:
        command = [sys.executable, str(ctx.root / "perfbench" / "serve_launcher.py"),
                   str(spans_dir), *args]
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True,
                            cwd=ctx.root)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if not line:
        proc.wait(timeout=60)
        raise RuntimeError(f"server exited with {proc.returncode} before serving")
    return proc, int(json.loads(line)["port"]), ready


def stop(proc: subprocess.Popen) -> int:
    """SIGTERM the server and wait for it; returns its exit code."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return proc.returncode


async def _session(port: int, phases, walker) -> "list[tuple[object, list[Sample]]]":
    """Run ``phases`` ((label, seconds, rate, requests)) over two fresh connections."""
    from repro.serve.client import BackoffPolicy, ServeClient

    clients = [ServeClient("127.0.0.1", port, seed=i, backoff=BackoffPolicy(retries=0))
               for i in range(CONNECTIONS)]
    try:
        results = []
        for label, seconds, rate, requests in phases:
            results.append((label, await drive(clients, walker, seconds=seconds,
                                               rate=rate, requests=requests)))
        return results
    finally:
        for client in clients:
            await client.close()


def verify_restore(root, recorder=None) -> "dict[str, object]":
    """Restore the stopped server's directory; check it against a WAL replay.

    Only the restore itself is traced, not the reference replay.
    """
    from repro.core.allocate import OnlineAllocator
    from repro.serve.service import AdmissionCore

    with tracing(recorder):
        started = time.perf_counter()
        restored = AdmissionCore.restore(root)
        restore_s = time.perf_counter() - started
    try:
        records = restored.decisions()
        reference = OnlineAllocator(restored.instance, mu=restored.allocator.mu)
        for record in records:
            if record["op"] == "offer":
                reference.offer_indexed(int(record["k"]))
            else:
                reference.release_indexed(int(record["k"]))
        return {
            "restore_s": restore_s,
            "records": len(records),
            "replayed": restored.restore_info["replayed"],
            "digest_ok": restored.state_digest() == reference.state_digest(),
        }
    finally:
        restored.close()


def serve_session(ctx, root, phases, trace, spans_dir=None, recorder=None):
    """Spawn a server on ``root``, run ``phases``, stop it, check its directory."""
    from repro.serve.client import http_call

    proc, port, ready = spawn(ctx, root, spans_dir)
    try:
        walker = inputs.OpWalker(trace, trace.times[-1])
        results = asyncio.run(_session(port, phases, walker))
        _, stats = http_call("127.0.0.1", port, "GET", "/stats")
        peak = common.process_peak_rss_mb(proc.pid)
    finally:
        exit_code = stop(proc)
    restore = verify_restore(root, recorder)
    samples = [s for _, phase in results for s in phase]
    seqs = sorted(s.seq for s in samples if s.ok)
    return {
        "ready": ready,
        "results": results,
        "samples": samples,
        "stats": stats,
        "peak": peak if peak is not None else common.children_peak_rss_mb(),
        "restore": restore,
        "checks": {
            "graceful_exit": exit_code == 0,
            "acked_seqs_dense": seqs == list(range(len(seqs))),
            "wal_holds_every_ack": restore["records"] == len(seqs),
            "restore_digest_equals_wal_replay": restore["digest_ok"],
        },
    }


def run(ctx) -> "dict[str, object]":
    """Measure the workload; see :func:`perfbench.run.main` for ``ctx``.

    Every server starts from a fresh directory, so no measurement
    inherits another's history, and every start-up time is a set-up
    sample: session servers, each running a closed loop and then a
    reference segment, fill the run outside the ladder, half before and
    half after the one server that runs the ladder.  A traced run adds a
    traced server running a closed loop and the ladder.
    """
    instance = inputs.small_streams(STREAMS, USERS, INSTANCE_SEED)
    step_seconds = ctx.seconds * LADDER_SHARE / len(LADDER)
    # About one trace event in three becomes an operation, and every
    # server walks the trace from its start; draw enough events for
    # twice the operations the longest session can send.
    budget = 2 * max(CLOSED_REQUESTS + REFERENCE_REQUESTS, sum(LADDER) * step_seconds)
    trace = inputs.session_trace(instance, ctx.seed, rate=RATE, mean_duration=MEAN_SESSION,
                                 horizon=OPS_TO_EVENTS * budget / RATE)
    closed_phases = [("closed", None, None, CLOSED_REQUESTS)]
    session_phases = closed_phases + [
        ("reference", None, REFERENCE_RATE, REFERENCE_REQUESTS)]
    ladder_phases = [(rate, step_seconds, rate, None) for rate in LADDER]
    counter = iter(range(1 << 30))

    def fresh():
        return ctx.work / f"svc-{next(counter)}"

    def sessions(seconds):
        done, deadline = [], time.perf_counter() + seconds
        while len(done) < MIN_SESSIONS or time.perf_counter() < deadline:
            done.append(serve_session(ctx, fresh(), session_phases, trace))
        return done

    half = ctx.seconds * (1.0 - LADDER_SHARE) / 2
    session_runs = sessions(half)
    ladder_run = serve_session(ctx, fresh(), ladder_phases, trace)
    session_runs += sessions(half)
    runs = session_runs + [ladder_run]

    phases = [dict(r["results"]) for r in session_runs]
    rates = [capacity(p["closed"]) for p in phases]
    reference = [reference_latency(p["reference"]) for p in phases]
    reference_p50, reference_tail = min(reference)
    ladder = [step_summary(phase, label) for label, phase in ladder_run["results"]]
    passing = [step["rate"] for step in ladder if step["meets_limit"]]
    samples = [s for r in runs for s in r["samples"]]
    result = {
        "checks": {name: all(r["checks"][name] for r in runs)
                   for name in ladder_run["checks"]},
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s.ok),
        "end_to_end": {
            "setup_s": min(r["ready"] for r in runs),
            "peak_rss_mb": max(r["peak"] for r in runs),
            "latency_p50_ms": reference_p50,
            "latency_tail_ms": reference_tail,
        },
        "details": {
            "closed_loop_offers_per_s": max(rates),
            "closed_session_offers_per_s": [round(rate) for rate in rates],
            # Each closed loop holds one snapshot, so its slowest request
            # shows the snapshot stall as a client sees it.
            "closed_session_max_ms": [
                round(max(s.done - s.sent for s in p["closed"]) * 1e3, 1)
                for p in phases],
            "reference_p50_ms": [round(p50, 3) for p50, _ in reference],
            "ladder": ladder,
            "max_rate_at_slo": max(passing, default=0),
            "limit_ms": LIMIT_MS,
            "tail_percentile": TAIL,
            "slo_percentile": SLO_PERCENTILE,
            "restore_s": [r["restore"]["restore_s"] for r in runs],
            "setup_ms": [round(r["ready"] * 1e3, 1) for r in runs],
        },
    }
    if ctx.trace:
        recorder = Recorder()
        traced = serve_session(ctx, fresh(), closed_phases + [
            (label, seconds * TRACED_SHARE, rate, None)
            for label, seconds, rate, _ in ladder_phases], trace,
            spans_dir=ctx.work / "spans", recorder=recorder)
        result["checks"]["traced_server"] = all(traced["checks"].values())
        layer = LayerStats()
        layer.add_recorder(recorder)
        load_dumps(layer, ctx.work / "spans")
        acked = [s for s in traced["samples"] if s.ok]
        ack_mean = sum(s.done - s.sent for s in acked) / len(acked)
        per_decision = (layer.busy["service.execute_batch"]
                        / max(1.0, layer.counters["service.batch_ops"]))
        stats = traced["stats"]
        result["layers"] = layer_metrics(layer, {
            "http.envelope_us": (ack_mean - per_decision) * 1e6,
            "http.shed": stats.get("shed", 0),
            "http.served": stats.get("served", 0),
            "http.max_rate_at_slo": max(passing, default=0),
            "http.closed_loop_offers_per_s": max(rates),
            "restore.replayed": traced["restore"]["replayed"],
            "trace.overhead_pct": (common.median(rates) / capacity(traced["results"][0][1])
                                   - 1.0) * 100.0,
        })
    return result


def capacity(samples: "list[Sample]") -> float:
    """Acknowledged offers per second over a closed loop's samples."""
    span = max(s.done for s in samples) - min(s.sent for s in samples)
    return sum(1 for s in samples if s.ok and s.op == "offer") / span


def reference_latency(samples: "list[Sample]") -> "tuple[float, float]":
    """(p50, tail) in ms over every request of a reference segment."""
    latencies = [s.latency for s in samples]
    return (common.percentile(latencies, 0.5) * 1e3,
            common.percentile(latencies, TAIL) * 1e3)
