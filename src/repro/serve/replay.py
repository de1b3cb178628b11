"""Trace driver for the admission service: simulator-identical replay.

:func:`drive_trace` feeds a pre-drawn session trace through any
*gateway* (an :class:`~repro.serve.service.AdmissionCore`, or an HTTP
client speaking to one) in **exactly** the order and with exactly the
skip semantics of :func:`repro.sim.simulation.simulate_trace`:

- event order comes from
  :func:`repro.sim.engine.merged_replay_order` (equal-time arrivals
  before departures, arrivals in trace order, departures in admission
  order, events past the horizon dropped);
- an arrival for a stream the service already carries is skipped
  without consulting the service (a multicast system gets no new
  decision from a second request for a carried stream);
- a departure for a session that was rejected on arrival is a no-op.

Because the driver is deterministic and the service's WAL is a
complete decision history, replay is **crash-resumable**: on restart
the driver walks the same trace, consumes the committed WAL prefix
(verifying op and stream of each record against the trace) instead of
re-sending it, and goes live exactly at the first uncommitted
operation.  Idempotency keys are derived from trace positions, so a
retry of an operation that committed right before a crash dedupes
instead of double-executing.

:func:`drive_with_recovery` packages the kill/restore loop the chaos
suite and the recovery benchmark both use, and
:func:`decision_report` reduces a decision sequence to the aggregate
counters that must match a monolithic
:func:`~repro.sim.simulation.simulate_trace` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError
from repro.serve.faults import InjectedCrash
from repro.serve.service import AdmissionCore, MANIFEST_NAME
from repro.sim.engine import merged_replay_order


@dataclass(frozen=True)
class Decision:
    """One replayed service decision, in a comparison-friendly shape.

    Attributes
    ----------
    seq:
        WAL sequence number (dense over state-changing operations).
    op:
        ``"offer"`` or ``"release"``.
    position:
        Trace position of the session this decision belongs to.
    k:
        Stream index the decision addressed.
    users:
        Receiver user indices (empty tuple = rejection or release).
    """

    seq: int
    op: str
    position: int
    k: int
    users: "tuple[int, ...]"


def offer_key(position: int) -> str:
    """Deterministic idempotency key for the arrival at ``position``."""
    return f"offer-{int(position)}"


def release_key(position: int) -> str:
    """Deterministic idempotency key for the departure of session ``position``."""
    return f"release-{int(position)}"


def trace_arrays(
    instance, trace
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Trace → ``(times, durations, stream_indices)`` with loud validation.

    Mirrors the simulator's trace hygiene: NaN times/durations and
    negative durations are refused, and unknown stream ids raise the
    instance's canonical error.
    """
    from repro.core.indexed import index_instance

    index = index_instance(instance).stream_index
    times = np.array([e.time for e in trace], dtype=np.float64)
    durations = np.array([e.duration for e in trace], dtype=np.float64)
    if np.isnan(times).any() or np.isnan(durations).any():
        raise ValidationError("NaN event time or duration in trace")
    if (durations < 0).any():
        bad = int(np.argmax(durations < 0))
        raise ValidationError(
            f"negative session duration {durations[bad]!r} at trace position {bad}"
        )
    streams = np.empty(len(trace), dtype=np.int64)
    for i, event in enumerate(trace):
        k = index.get(event.stream_id)
        if k is None:
            instance.stream(event.stream_id)  # canonical unknown-stream error
        streams[i] = k
    return times, durations, streams


def drive_trace(
    gateway,
    instance,
    trace,
    horizon: float,
    *,
    committed: "list[dict[str, object]] | None" = None,
) -> "list[Decision]":
    """Replay ``trace`` through ``gateway``; returns the decision sequence.

    ``gateway`` needs ``offer(stream, key=...)`` / ``release(stream,
    key=...)`` returning service responses.  When ``committed`` is
    omitted and the gateway exposes ``decisions()`` (an
    :class:`~repro.serve.service.AdmissionCore` does), the committed
    WAL prefix is consumed instead of re-sent — that is what makes a
    kill-and-restored replay stitch seamlessly.  A committed record
    that disagrees with the trace (wrong op or stream) raises loudly.
    """
    times, durations, streams = trace_arrays(instance, trace)
    codes = merged_replay_order(times, times + durations, horizon)
    count = len(trace)
    if committed is None:
        committed = gateway.decisions() if hasattr(gateway, "decisions") else []
    decisions: "list[Decision]" = []
    sessions: "dict[int, int]" = {}
    active: "set[int]" = set()
    op_i = 0
    for code in codes:
        code = int(code)
        if code < count:
            position, k = code, int(streams[code])
            if k in active:
                continue
            if op_i < len(committed):
                record = committed[op_i]
                _check_committed(record, op_i, "offer", k)
                users = tuple(int(u) for u in record["users"])
            else:
                response = gateway.offer(k, key=offer_key(position))
                users = tuple(int(u) for u in response["user_index"])
            decisions.append(Decision(op_i, "offer", position, k, users))
            if users:
                sessions[position] = k
                active.add(k)
        else:
            position = code - count
            k = sessions.pop(position, None)
            if k is None:
                continue
            active.discard(k)
            if op_i < len(committed):
                _check_committed(committed[op_i], op_i, "release", k)
            else:
                gateway.release(k, key=release_key(position))
            decisions.append(Decision(op_i, "release", position, k, ()))
        op_i += 1
    return decisions


def _check_committed(
    record: "dict[str, object]", seq: int, op: str, k: int
) -> None:
    """Loudly verify a committed WAL record against the trace's expectation."""
    if record.get("op") != op or int(record["k"]) != k:
        raise ValidationError(
            f"committed WAL diverges from the trace at seq {seq}: "
            f"expected {op} of stream index {k}, found "
            f"{record.get('op')!r} of {record.get('k')!r}; "
            "was this directory driven by a different trace?"
        )


def decision_report(decisions: "list[Decision]") -> "dict[str, int]":
    """Aggregate a decision sequence to simulator-comparable counters."""
    offers = [d for d in decisions if d.op == "offer"]
    return {
        "offered": len(offers),
        "admitted": sum(1 for d in offers if d.users),
        "deliveries": sum(len(d.users) for d in offers),
    }


def drive_with_recovery(
    root: "str | Path",
    instance,
    trace,
    horizon: float,
    *,
    mu: "float | None" = None,
    config=None,
    fault_plans=(),
) -> "dict[str, object]":
    """Replay a trace to completion through any number of injected crashes.

    ``fault_plans[i]`` arms the service's *i*-th process lifetime; once
    plans run out, lifetimes run fault-free.  Each
    :class:`~repro.serve.faults.InjectedCrash` abandons the in-memory
    core (as process death would) and the next iteration restores from
    disk and resumes the replay off the committed WAL prefix.

    Returns the stitched decision sequence plus crash count, final
    state digest and final WAL length — everything the chaos suite
    compares against an uninterrupted run.
    """
    root = Path(root)
    plans = list(fault_plans)
    lifetime = 0
    while True:
        plan = plans[lifetime] if lifetime < len(plans) else None
        if (root / MANIFEST_NAME).exists():
            core = AdmissionCore.restore(root, config=config, fault_plan=plan)
        else:
            core = AdmissionCore.create(
                instance, root, mu=mu, config=config, fault_plan=plan
            )
        lifetime += 1
        try:
            decisions = drive_trace(core, instance, trace, horizon)
        except InjectedCrash:
            continue
        result: "dict[str, object]" = {
            "decisions": decisions,
            "crashes": lifetime - 1,
            "digest": core.state_digest(),
            "seq": core.next_seq,
        }
        core.close()
        return result
