"""Seeded inputs shared by the serving workloads: session trace → op stream.

A session trace (Poisson arrivals, Zipf stream choice, exponential
lifetimes) is walked in the simulator's replay order.  :class:`OpWalker`
emits exactly the offer/release operations
:func:`repro.serve.replay.drive_trace` would send — arrivals for carried
streams are skipped, departures of rejected sessions are no-ops — but it
lets several operations be in flight at once: an operation that depends
on the outcome of one still in flight (same stream, or the departure of
a session whose offer is undecided) is reported as :data:`BLOCKED`
until that outcome is resolved.  ``commit`` groups the walk into
conflict-free batches; ``serve_http`` keeps two requests in flight.
"""

from __future__ import annotations

import time

from repro.instances import workloads
from repro.serve.replay import offer_key, release_key
from repro.sim import indexed as sim_indexed
from repro.sim.engine import merged_replay_order
from repro.sim.simulation import ArrivalModel

#: Returned by :meth:`OpWalker.next` while the next operation waits on
#: an unresolved one.
BLOCKED = "blocked"


def small_streams(num_streams: int, num_users: int, seed: int):
    """The small-streams workload instance (looked up at call time)."""
    return workloads.small_streams_workload(num_streams, num_users, seed=seed)


def session_trace(instance, seed: int, *, rate: float, mean_duration: float,
                  horizon: float):
    """Draw an :class:`~repro.sim.indexed.IndexedTrace` from ``seed``."""
    model = ArrivalModel(rate=rate, mean_duration=mean_duration,
                         popularity_exponent=1.0)
    return sim_indexed.draw_trace_arrays(instance, model, horizon, seed)


class OpWalker:
    """The service operations of a session trace, in replay order.

    Call :meth:`next` for the next ``(op, k, key, position)``; pass each
    one back to :meth:`resolve` with its outcome once acknowledged.
    """

    def __init__(self, trace, horizon: float) -> None:
        times, durations = trace.times, trace.durations
        self._codes = merged_replay_order(times, times + durations, horizon).tolist()
        self._streams = trace.streams.tolist()
        self._count = len(self._streams)
        self._at = 0
        self._sessions: "dict[int, int]" = {}
        self._active: "set[int]" = set()
        self._busy: "set[int]" = set()
        self._undecided: "set[int]" = set()

    def next(self):
        """Next operation, :data:`BLOCKED`, or ``None`` once the walk ends."""
        codes, count = self._codes, self._count
        while self._at < len(codes):
            code = codes[self._at]
            if code < count:
                k = self._streams[code]
                if k in self._busy:
                    return BLOCKED
                self._at += 1
                if k in self._active:
                    continue
                self._busy.add(k)
                self._undecided.add(code)
                return ("offer", k, offer_key(code), code)
            position = code - count
            if position in self._undecided:
                return BLOCKED
            self._at += 1
            k = self._sessions.pop(position, None)
            if k is None:
                continue
            self._active.discard(k)
            self._busy.add(k)
            return ("release", k, release_key(position), position)
        return None

    def resolve(self, op, admitted: bool) -> None:
        """Record the acknowledged outcome of an operation from :meth:`next`."""
        kind, k, _key, position = op
        self._busy.discard(k)
        if kind == "offer":
            self._undecided.discard(position)
            if admitted:
                self._sessions[position] = k
                self._active.add(k)


def commit_walk(core, walker: OpWalker, *, max_batch: int = 64,
                on_batch=None) -> "list[tuple]":
    """Drive ``walker`` through ``core.execute_batch`` in conflict-free batches.

    A batch closes at ``max_batch`` operations or when the next operation
    depends on one in the open batch.  ``on_batch(ops, seconds)`` is
    called after each commit.  Returns every operation in commit order.
    """
    done: "list[tuple]" = []
    while True:
        batch = []
        while len(batch) < max_batch:
            op = walker.next()
            if op is None or op is BLOCKED:
                break
            batch.append(op)
        if not batch:
            if op is BLOCKED:
                raise RuntimeError("op walker blocked with nothing in flight")
            return done
        started = time.perf_counter()
        outcomes = core.execute_batch([(kind, k, key) for kind, k, key, _ in batch])
        elapsed = time.perf_counter() - started
        for op, outcome in zip(batch, outcomes):
            if not isinstance(outcome, dict):
                raise RuntimeError(f"operation {op} failed: {outcome}")
            walker.resolve(op, bool(outcome.get("admitted")))
        if on_batch is not None:
            on_batch(batch, elapsed)
        done.extend(batch)
