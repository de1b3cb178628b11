"""A minimal generator-based discrete-event engine.

Offline environments lack simpy, so the simulation substrate ships its
own engine with the small simpy-like core the simulator needs:

- :class:`Engine` — the event loop: a binary-heap calendar of timed
  callbacks with deterministic FIFO tie-breaking;
- :class:`Process` — a generator-based process: ``yield Timeout(d)``
  suspends for ``d`` time units, ``yield other_process`` suspends until
  that process finishes;
- :class:`Timeout` — the delay request object;
- :func:`merged_replay_order` — the calendar-light replay order for
  pre-drawn traces: when all events are known up front, one vectorized
  sort replaces the heap while reproducing its exact tie-breaking (the
  array simulation engines reproduce this order without materializing
  it; the admission service's trace replay walks it directly).

Determinism matters for reproducible experiments: events scheduled for
the same instant fire in scheduling order (a strictly increasing
sequence number breaks heap ties), and the engine never consults a
clock other than its own.

>>> engine = Engine()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((engine.now, name))
>>> _ = engine.process(worker("a", 2.0))
>>> _ = engine.process(worker("b", 1.0))
>>> engine.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Generator, Iterator

import numpy as np

from repro.exceptions import SimulationError


class Timeout:
    """A delay request yielded by process generators."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        # NaN fails every comparison, so `duration < 0` alone would let a
        # NaN delay slip into the calendar and corrupt the heap order.
        if math.isnan(duration):
            raise SimulationError("NaN timeout duration")
        if duration < 0:
            raise SimulationError(f"negative timeout: {duration}")
        self.duration = float(duration)

    def __repr__(self) -> str:
        return f"Timeout({self.duration})"


class Process:
    """A running generator-based process.

    Created via :meth:`Engine.process`; do not instantiate directly.
    ``yield Timeout(d)`` sleeps; ``yield process`` joins another
    process (resumes when it completes).
    """

    def __init__(self, engine: "Engine", generator: Generator) -> None:
        self._engine = engine
        self._generator = generator
        self.finished = False
        self._waiters: "list[Process]" = []

    def _resume(self) -> None:
        try:
            request = next(self._generator)
        except StopIteration:
            self._finish()
            return
        if isinstance(request, Timeout):
            self._engine.schedule(request.duration, self._resume)
        elif isinstance(request, Process):
            if request.finished:
                self._engine.schedule(0.0, self._resume)
            else:
                request._waiters.append(self)
        else:
            raise SimulationError(
                f"process yielded {request!r}; expected Timeout or Process"
            )

    def _finish(self) -> None:
        self.finished = True
        for waiter in self._waiters:
            self._engine.schedule(0.0, waiter._resume)
        self._waiters.clear()


class Engine:
    """The discrete-event loop.

    Use :meth:`schedule` for plain timed callbacks and :meth:`process`
    for generator-based processes; then :meth:`run` (until the calendar
    empties) or :meth:`run_until` (until a horizon).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: "list[tuple[float, int, Callable[[], None]]]" = []
        self._sequence = 0
        self.events_processed = 0

    def schedule(self, delay: float, callback: "Callable[[], None]") -> None:
        """Run ``callback`` after ``delay`` time units."""
        if math.isnan(delay):
            # `delay < 0` is False for NaN: without this check a NaN event
            # time would enter the heap and break the calendar's ordering.
            raise SimulationError("cannot schedule at a NaN delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback))
        self._sequence += 1

    def schedule_at(self, time: float, callback: "Callable[[], None]") -> None:
        """Run ``callback`` at absolute time ``time`` (must not precede now)."""
        self.schedule(time - self.now, callback)

    def process(self, generator: Generator) -> Process:
        """Start a generator-based process immediately (at the current time)."""
        proc = Process(self, generator)
        self.schedule(0.0, proc._resume)
        return proc

    def _step(self) -> None:
        time, _seq, callback = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("event calendar went backwards")
        self.now = time
        self.events_processed += 1
        callback()

    def run(self, max_events: "int | None" = None) -> None:
        """Drain the calendar (optionally capped at ``max_events``)."""
        count = 0
        while self._heap:
            if max_events is not None and count >= max_events:
                return
            self._step()
            count += 1

    def run_until(self, horizon: float) -> None:
        """Process events with time at most ``horizon``, then set
        ``now = horizon``."""
        if horizon < self.now:
            raise SimulationError(f"horizon {horizon} precedes now={self.now}")
        while self._heap and self._heap[0][0] <= horizon:
            self._step()
        self.now = horizon

    def empty(self) -> bool:
        return not self._heap


def merged_replay_order(
    arrival_times: np.ndarray,
    departure_times: np.ndarray,
    horizon: "float | None" = None,
) -> np.ndarray:
    """Calendar-light replay order for a pre-drawn trace.

    Trace replay never needs the general heap calendar: every event is
    known up front (arrival ``i`` at ``arrival_times[i]``, its potential
    departure at ``departure_times[i]``), so one sort replaces ~2·E heap
    operations.  Returns event *codes* in firing order — code ``i < E``
    is arrival ``i``, code ``E + i`` is departure ``i`` — reproducing
    the :class:`Engine` heap's deterministic tie-breaking exactly:

    - equal-time events fire arrivals first (arrivals are scheduled at
      setup, so they hold lower sequence numbers than any departure);
    - equal-time arrivals fire in trace order (FIFO);
    - equal-time departures fire in *admission* order — ascending
      ``(arrival_time, position)`` — because the heap assigns a
      departure its sequence number when the arrival is processed, not
      at its trace position (for a time-sorted trace the two orders
      coincide; they differ on hand-built unsorted event lists).

    Events after ``horizon`` (if given) are dropped, matching
    :meth:`Engine.run_until`.

    >>> import numpy as np
    >>> order = merged_replay_order(np.array([1.0, 2.0]), np.array([2.0, 5.0]), 4.0)
    >>> [int(c) for c in order]   # arrival 0, arrival 1 (tie: before dep 0), dep 0
    [0, 1, 2]
    """
    count = int(arrival_times.shape[0])
    times = np.concatenate([arrival_times, departure_times])
    if np.isnan(times).any():
        # A NaN sort key makes np.lexsort's order undefined; refuse loudly
        # (mirroring Engine.schedule) instead of replaying garbage.
        raise SimulationError("NaN event time in trace (arrival or departure)")
    kind = np.repeat(np.array([0, 1], dtype=np.int64), count)
    position = np.concatenate([np.arange(count), np.arange(count)])
    # Scheduling-order key: an event's (potential) admission instant —
    # its own time for arrivals, the arrival's time for departures.
    scheduled = np.concatenate([arrival_times, arrival_times])
    codes = position + kind * count
    if horizon is not None:
        keep = times <= horizon
        times, kind, codes = times[keep], kind[keep], codes[keep]
        position, scheduled = position[keep], scheduled[keep]
    return codes[np.lexsort((position, scheduled, kind, times))]


def poisson_arrivals(
    engine: Engine,
    rate: float,
    on_arrival: "Callable[[], None]",
    rng,
    horizon: float,
) -> Iterator:
    """A process generating Poisson arrivals until ``horizon``.

    Usage: ``engine.process(poisson_arrivals(engine, lam, fn, rng, T))``.
    """
    if rate < 0:
        raise SimulationError(f"negative rate: {rate}")
    if rate == 0:
        return
    while True:
        gap = float(rng.exponential(1.0 / rate))
        if engine.now + gap > horizon:
            return
        yield Timeout(gap)
        on_arrival()
