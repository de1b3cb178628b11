"""Array-native dynamic simulation engine (the E9 setting, compiled).

The string-keyed :class:`~repro.sim.simulation.VideoDistributionSim`
pays Python overhead per event: an O(S) ``rng.choice`` per arrival when
drawing the trace, heap churn per event, per-user inner loops over
``load_vector`` when admitting, and one
:class:`~repro.sim.metrics.TimeWeightedValue` object per user.  This
module runs the whole simulation on the
:class:`~repro.core.indexed.IndexedInstance` arrays instead:

- :func:`draw_trace_arrays` — batched exponential gap draws plus one
  cumulative-weight ``searchsorted`` for the Zipf stream choices,
  producing an :class:`IndexedTrace` (three parallel arrays, no event
  objects);
- :class:`IndexedVideoSim` — decision-point replay (below), vectorized
  admission/departure accounting over each stream's CSR row (``np``
  fancy-index scatter updates on the dense usage matrix), and columnar
  per-user utility integration
  (:class:`~repro.sim.metrics.ColumnarTimeWeighted`).

**Decision-point replay.**  Most events of a long trace do nothing: an
arrival proposing a stream that is already multicast is skipped, and
the departure of a proposal that was never admitted departs nothing.
The driver touches Python only at the events that can change state:

- **decision points** — arrivals whose stream is not currently carried
  (the policy is offered the stream; the only place policy code runs);
- **live departures** — the departure of an *admitted* session
  (resource returns and utility-integration steps).

They fire in the replay order :func:`~repro.sim.engine.merged_replay_order`
defines — ascending ``(time, kind, schedule order)`` with arrivals
(kind 0) before departures (kind 1) at the same instant and
same-instant departures in admission order — but that order is never
materialized: a 10⁶-event trace would spend more time in the 2·E-element
multi-key lexsort than in the decisions themselves.  Instead one
vectorized pass groups each stream's arrivals in CSR layout (sorted by
``(time, position)``), and a heap of *next-interesting* keys — one
candidate arrival per stream plus the departures of live sessions,
ordered by the same ``(time, kind, arrival_time, position)`` tuples —
yields interesting events directly in replay order.  When a decision
*admits* a stream, every arrival of that stream up to the session's
departure time is a no-op by construction, so the stream's cursor jumps
past the whole run with one bisection; when it *rejects*, the very next
arrival of the stream is the next candidate — unless the stream parks.

**Parking stable rejections.**  A policy's
:meth:`~repro.sim.policies.AdmissionPolicy.rejection_token` vouches for
its rejections: while the token and the simulator's state (admits and
live departures) are unchanged, a rejected stream would be rejected
again.  So after an empty answer under a non-``None`` token the stream
leaves the heap, its cursor just past the rejected arrival.  Parked
streams wake at the next admit, live departure or token move (such as
a commit the guard voided).  Each then counts its arrivals ordered
before that event — ``offered`` and the policy's
:meth:`~repro.sim.policies.AdmissionPolicy.count_rejections` — found by
one bisection on its CSR time row, and pushes its next arrival.  The
tie order is the replay order's: at a departure every arrival at that
instant precedes it (``bisect_right``); at an admit or a token move at
``(t, q)`` only the arrivals at ``t`` with global position below ``q``
do.  A window boundary or the end of the trace counts every remaining
parked arrival in the window.  Each park is woken exactly once, at one
bisection and one push, and the rejection that caused it was already
paid for, so the wake work never exceeds the decision work.  An answer
the guard voided is never parked.  Replay cost is one ``O(E log E)``
numpy grouping pass plus Python work proportional to the number of
policy calls, admits and live departures.

**Windowed replay of on-disk stores.**  :meth:`IndexedVideoSim.run_store`
replays a time-sorted :class:`~repro.sim.store.TraceStore` window by
window: the driver is parameterized over a ``[w0, w1)`` span of the
replay order, and the only state crossing a boundary is the carried heap
of scheduled live departures plus a *resident* map ``stream ->
departure time`` of the sessions spanning the edge.  At each window
start the resident map advances every live stream's arrival cursor past
the arrivals its session already covers, and the heap keys use *global*
trace positions, so each window pops events in exactly the order the
monolithic heap would.  Peak memory is a few window-sized arrays — the
mmap'd store pages stream through — which is what makes 10⁸-event traces
replayable in bounded RSS (``benchmarks/bench_e17_store.py``).

**Parity contract.**  Given the same trace and a fresh policy, the
indexed engine reproduces the dict engine's
:class:`~repro.sim.metrics.SimulationReport` exactly — same utility
integral, admits, violations, per-user utilities and utilization floats
— because every handler fires in the dict engine's event order and
every accumulation happens in the same IEEE order the dict code uses.
Skipped events touch no counter and no integrator in either engine, and
a parked repeat touches only the counters it would have touched (its
``offered`` and the policy's rejection count), which is what makes
skipping them exact rather than approximate
(``tests/test_sim_indexed.py`` asserts ``==``; ``tests/test_store.py``
asserts windowed == monolithic at every window width).  The engine is
selected per call (``engine="dict"``); the default is ``indexed``.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.config import ENGINE_SETTINGS, resolve_engine_setting, resolve_store_window
from repro.core.indexed import IndexedInstance, ensure_indexed
from repro.exceptions import SimulationError, ValidationError
from repro.sim.metrics import ColumnarTimeWeighted, SimulationReport, TimeWeightedValue
from repro.sim.policies import AdmissionPolicy, ResourceView
from repro.util.rng import ensure_rng

_SIM_ENGINES = ENGINE_SETTINGS["simulation"].choices

#: Event-kind key component: arrivals tie-break before departures at
#: the same instant, exactly like the heap calendar and
#: :func:`~repro.sim.engine.merged_replay_order`.
_ARRIVAL, _DEPARTURE = 0, 1

#: Resident-map departure time of a session that outlives the horizon:
#: no departure is scheduled (matching the dict engine), but every later
#: arrival of the stream must still be skipped.
_BEYOND_HORIZON = float("inf")


def resolve_sim_engine(engine: "str | None" = None) -> str:
    """Resolve a sim engine name: explicit argument, else ``indexed``.

    Delegates to the shared :mod:`repro.config` resolver (kind
    ``"simulation"``); kept as the historical front door.
    """
    return resolve_engine_setting("simulation", engine)


@dataclass
class IndexedTrace:
    """A pre-drawn arrival trace as three parallel arrays.

    ``streams`` holds stream *indices* (not ids), so a trace at
    millions of events is three dense arrays rather than millions of
    :class:`~repro.sim.simulation.SessionEvent` objects.

    Attributes
    ----------
    times:
        ``(E,)`` nondecreasing arrival times.
    streams:
        ``(E,)`` proposed stream indices.
    durations:
        ``(E,)`` session lifetimes.
    """

    times: np.ndarray
    streams: np.ndarray
    durations: np.ndarray

    def __len__(self) -> int:
        """Number of events in the trace."""
        return int(self.times.shape[0])

    def to_events(self, idx: IndexedInstance) -> list:
        """Materialize the string-id :class:`SessionEvent` list.

        A stream index outside ``[0, idx.num_streams)`` raises the
        canonical unknown-stream :class:`ValidationError` (a negative
        index must not wrap around to the last stream).
        """
        from repro.sim.simulation import SessionEvent

        _check_stream_indices(self.streams, idx.num_streams)
        ids = idx.stream_ids
        return [
            SessionEvent(time=float(t), stream_id=ids[int(k)], duration=float(d))
            for t, k, d in zip(self.times, self.streams, self.durations)
        ]

    @classmethod
    def from_events(cls, idx: IndexedInstance, events) -> "IndexedTrace":
        """Lower a :class:`SessionEvent` list onto index arrays.

        An event naming a stream absent from the instance raises the
        canonical unknown-stream :class:`ValidationError` (the same
        error the dict engine's replay gives), not a raw ``KeyError``.
        """
        count = len(events)
        times = np.empty(count)
        streams = np.empty(count, dtype=np.int64)
        durations = np.empty(count)
        stream_index = idx.stream_index
        for i, event in enumerate(events):
            times[i] = event.time
            index = stream_index.get(event.stream_id)
            if index is None:
                raise ValidationError(f"unknown stream id {event.stream_id!r}")
            streams[i] = index
            durations[i] = event.duration
        return cls(times=times, streams=streams, durations=durations)


def _check_stream_indices(streams: np.ndarray, num_streams: int) -> None:
    """Refuse stream indices outside ``[0, num_streams)``.

    Raises the same unknown-stream :class:`ValidationError` as
    :meth:`IndexedTrace.from_events`, so every engine fails one way.
    """
    if streams.size == 0:
        return
    low, high = int(streams.min()), int(streams.max())
    if low < 0 or high >= num_streams:
        bad = low if low < 0 else high
        raise ValidationError(
            f"unknown stream id at index {bad} (the instance has "
            f"{num_streams} streams)"
        )


def _check_arrival_times(times: np.ndarray) -> None:
    """Refuse NaN arrival times and arrivals before time 0.

    The dict engine refuses to schedule either (its calendar starts at
    0); silently dropping them here would diverge.
    """
    if np.isnan(times).any():
        raise SimulationError("NaN event time or duration in trace")
    if times.size and float(times.min()) < 0.0:
        raise SimulationError(
            f"cannot schedule into the past (arrival at {float(times.min())})"
        )


def _check_durations(durations: np.ndarray) -> None:
    """Refuse NaN or negative durations of arrivals within the horizon.

    The dict engine refuses to schedule their departures; never
    departing the session instead would diverge silently.  Like the
    dict engine, durations of arrivals past the horizon are not read.
    """
    if np.isnan(durations).any():
        raise SimulationError("NaN event time or duration in trace")
    if durations.size and float(durations.min()) < 0.0:
        raise SimulationError(
            f"negative session duration in trace: {float(durations.min())}"
        )


def _check_horizon(horizon: float) -> None:
    """Refuse a horizon before the calendar's start at time 0."""
    if horizon < 0.0:
        raise SimulationError(f"horizon {horizon} precedes now=0.0")


def _empty_trace() -> IndexedTrace:
    """A fresh zero-event trace."""
    return IndexedTrace(
        times=np.empty(0),
        streams=np.empty(0, dtype=np.int64),
        durations=np.empty(0),
    )


def draw_trace_arrays(
    instance: "IndexedInstance",
    model,
    horizon: float,
    seed: "int | np.random.Generator | None" = None,
) -> IndexedTrace:
    """Vectorized trace draw: batched gaps, one searchsorted for streams.

    The per-event loop of the dict engine pays one
    ``rng.exponential`` + one O(S) ``rng.choice(p=weights)`` + one
    ``rng.exponential`` per event; here arrival times come from batched
    exponential draws (cumulative-summed, topped up until the horizon is
    crossed), stream choices from a single ``searchsorted`` of uniform
    draws into the cumulative Zipf weights, and durations from one
    batched draw.  Deterministic under ``seed`` (but a *different*
    stream than the dict draw for the same seed — the two engines
    consume randomness in different orders).

    Degenerate inputs yield an empty trace instead of crashing: a zero
    arrival rate, an empty catalog (whose Zipf weights would be NaN) or
    a nonpositive horizon.
    """
    idx = ensure_indexed(instance)
    num_streams = idx.num_streams
    if model.rate <= 0 or num_streams == 0 or horizon <= 0:
        return _empty_trace()
    rng = ensure_rng(seed)

    # Arrival times: draw gap batches sized ~E[count] and top up until
    # the cumulative time crosses the horizon.
    scale = 1.0 / model.rate
    expected = model.rate * horizon
    chunk = max(64, int(expected + 4.0 * math.sqrt(expected)) + 16)
    last = 0.0
    blocks: "list[np.ndarray]" = []
    while True:
        block = last + np.cumsum(rng.exponential(scale, size=chunk))
        blocks.append(block)
        if block[-1] > horizon:
            break
        last = float(block[-1])
        chunk = max(chunk // 2, 64)
    times = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    times = times[times <= horizon]
    count = int(times.shape[0])
    if count == 0:
        return _empty_trace()

    # Zipf-by-rank stream choices: one searchsorted into the cumulative
    # weights replaces a per-event rng.choice(p=weights).
    ranks = np.arange(1, num_streams + 1, dtype=float)
    cumweights = np.cumsum(ranks ** (-model.popularity_exponent))
    cumweights /= cumweights[-1]
    streams = np.searchsorted(cumweights, rng.random(count), side="right")
    streams = np.minimum(streams, num_streams - 1).astype(np.int64)

    durations = rng.exponential(model.mean_duration, size=count)
    return IndexedTrace(times=times, streams=streams, durations=durations)


class IndexedVideoSim:
    """Array-native counterpart of :class:`VideoDistributionSim`.

    Drives one policy over one trace entirely on the indexed arrays:
    admissions and departures are CSR-row operations, per-user utility
    integrates columnar, and replay visits only decision points and
    live departures.  Reports are float-identical to the dict engine's
    (see module docstring).  Worst case (every arrival a decision —
    tiny sessions or a catalog larger than the trace) costs one heap
    push and pop per decision on top of the policy call.

    Parameters
    ----------
    instance:
        The static instance, as either representation (array-native
        instances are **not** lifted unless the policy's
        ``bind_indexed`` needs the dict model).
    policy:
        The admission policy under test; ``bind_indexed`` is called
        here.
    """

    def __init__(
        self,
        instance: "IndexedInstance",
        policy: AdmissionPolicy,
    ) -> None:
        idx = ensure_indexed(instance)
        self.idx = idx
        self.policy = policy
        policy.bind_indexed(idx)
        self.view = ResourceView(idx)
        self._finite_budget = [
            i for i in range(idx.m) if not math.isinf(idx.budgets[i])
        ]
        self._utility_rate = TimeWeightedValue()
        self._server_load = {i: TimeWeightedValue() for i in self._finite_budget}
        self._user_stats = ColumnarTimeWeighted(idx.num_users)
        # Stream-major row bounds, and the guard's duplicate-test scratch
        # (see :meth:`_distinct`).
        self._row_bounds: "list[int]" = idx.s_indptr.tolist()
        self._stamp = np.zeros(idx.num_users, dtype=np.int64)
        #: Live sessions: admitting event position -> (kept user indices,
        #: their pair rows, their utilities w, and the utilities'
        #: sequential sum, kept so the departure does not re-add them).
        self._sessions: "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, float]]" = {}
        self.offered = 0
        self.admitted = 0
        self.deliveries = 0
        self.policy_violations = 0

    # ------------------------------------------------------------------
    # Event handlers (mirror VideoDistributionSim exactly)
    # ------------------------------------------------------------------

    def _distinct(self, receivers: np.ndarray) -> bool:
        """Whether every receiver is a user index and none repeats.

        A range test, then a stamp test: each receiver writes its own
        position into a per-user scratch array, and a repeat leaves one
        of its positions overwritten.  No sort.
        """
        n = receivers.shape[0]
        stamp = self._stamp
        num_users = stamp.shape[0]
        if n > num_users or int(receivers.min()) < 0 or int(receivers.max()) >= num_users:
            return False
        own = np.arange(n)
        stamp[receivers] = own
        return np.count_nonzero(stamp[receivers] == own) == n

    def _clip_to_feasible(
        self, k: int, receivers: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Hard feasibility guard over index arrays.

        Returns the kept receivers, their pair rows and their utilities,
        and counts violations exactly as the dict engine's per-user loop
        does.  Duplicate receivers collapse to the first occurrence
        (like the dict engine), so the scatter updates stay
        one-write-per-user; only an answer with a duplicate or an index
        outside ``[0, num_users)`` pays for the sort that finds them.
        Every distinct receiver is then checked once against one mask —
        in ``k``'s interest row, positive utility, within every finite
        capacity — and each one the mask drops is one violation.  When
        nothing is dropped the inputs come back uncopied.
        """
        if not receivers.size:
            return receivers, receivers, self.idx.s_w[:0]
        if not self.view.fits_server_index(k):
            self.policy_violations += 1
            return receivers[:0], receivers[:0], self.idx.s_w[:0]
        if not self._distinct(receivers):
            _, first = np.unique(receivers, return_index=True)
            receivers = receivers[np.sort(first)]
        n = receivers.shape[0]
        lo, hi = self._row_bounds[k], self._row_bounds[k + 1]
        idx = self.idx
        if lo == hi:  # nobody is interested: every receiver is absent
            self.policy_violations += n
            return receivers[:0], receivers[:0], idx.s_w[:0]
        # Each receiver's pair row, clipped into k's row; the user there
        # equals the receiver iff the receiver is interested.
        pairs = idx.s_user[lo:hi].searchsorted(receivers)
        np.minimum(pairs, hi - lo - 1, out=pairs)
        pairs += lo
        users = idx.s_user[pairs]
        weights = idx.s_w[pairs]
        # Zero/absent utility pairs are violations (w_u(S) <= 0), exactly
        # like the dict loop; so are pairs that do not fit.
        keep = users == receivers
        keep &= weights > 0.0
        keep &= self.view.fits_pairs(users, pairs)
        kept = np.count_nonzero(keep)
        if kept == n:
            return receivers, pairs, weights
        self.policy_violations += n - kept
        return receivers[keep], pairs[keep], weights[keep]

    def _on_arrival(self, position: int, k: int, now: float) -> "bool | None":
        """Offer inactive stream ``k`` to the policy.

        Returns ``True`` when the stream was admitted, ``False`` when
        the guard voided a nonempty answer, and ``None`` when the answer
        was empty (a rejection, which touches no state and no counter
        but ``offered``).  The driver only pops arrivals of streams not
        currently carried, so every call is a decision.
        """
        self.offered += 1
        receivers = self.policy.on_offer_indexed(k, self.view)
        if not len(receivers):
            return None
        return self._admit(position, k, now, np.asarray(receivers, dtype=np.int64))

    def _admit(
        self, position: int, k: int, now: float, receivers: np.ndarray
    ) -> bool:
        """Commit one policy answer; returns whether sim state changed.

        Everything after the policy call of :meth:`_on_arrival`, split
        out so the decision-map driver of
        :class:`~repro.sim.kernel.BatchedVideoSim` applies mapped
        answers through the exact same guard + accounting sequence.
        The guard (:meth:`_clip_to_feasible`) hands over the kept
        receivers with their pair rows and utilities; the session keeps
        them and its utility total, and its departure returns them as
        they are.
        """
        users, pairs, weights = self._clip_to_feasible(k, receivers)
        if users.size == 0:
            return False
        self.admitted += 1
        self.deliveries += users.shape[0]
        idx = self.idx
        view = self.view
        view.activate_index(k)
        view.server_used += idx.stream_costs[k]
        for i in self._finite_budget:
            self._server_load[i].set(
                now, view.server_used[i] / idx.budgets[i]
            )
        used = view.user_used_array
        for j in range(idx.mc):
            used[:, j][users] += idx.s_loads[:, j][pairs]
        self._user_stats.add_at(users, now, weights)
        # A sequential accumulate — the dict loop's exact sum.
        total = float(np.add.accumulate(weights)[-1])
        self._utility_rate.add(now, total)
        self._sessions[position] = (users, pairs, weights, total)
        return True

    def _on_departure(self, position: int, k: int, now: float) -> None:
        """Depart the live session admitted at trace ``position``."""
        users, pairs, weights, total = self._sessions.pop(position)
        idx = self.idx
        view = self.view
        view.deactivate_index(k)
        view.server_used -= idx.stream_costs[k]
        for i in self._finite_budget:
            self._server_load[i].set(
                now, view.server_used[i] / idx.budgets[i]
            )
        used = view.user_used_array
        for j in range(idx.mc):
            used[:, j][users] -= idx.s_loads[:, j][pairs]
        self._user_stats.add_at(users, now, -weights)
        self._utility_rate.add(now, -total)
        self.policy.on_release_indexed(k, view)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _prepare_trace(
        self, trace: "IndexedTrace | list", horizon: float
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Lower, sanity-check and horizon-filter a trace.

        Returns ``(times, streams, departures)`` with arrival
        times at most ``horizon``.  Everything the dict engine refuses
        fails as loudly here: a negative horizon, NaN or negative
        arrival times, NaN or negative durations of arrivals within the
        horizon (:class:`SimulationError`), and unknown stream indices
        (:class:`ValidationError`).
        """
        idx = self.idx
        if not isinstance(trace, IndexedTrace):
            trace = IndexedTrace.from_events(idx, trace)
        _check_horizon(horizon)
        _check_arrival_times(trace.times)
        _check_stream_indices(trace.streams, idx.num_streams)
        keep = trace.times <= horizon
        times = trace.times[keep]
        streams = trace.streams[keep]
        durations = trace.durations[keep]
        _check_durations(durations)
        return times, streams, times + durations

    def run_trace(
        self, trace: "IndexedTrace | list", horizon: float
    ) -> SimulationReport:
        """Replay a pre-drawn trace up to ``horizon`` and report.

        Accepts an :class:`IndexedTrace` or a ``SessionEvent`` list
        (lowered on entry); the whole trace is one replay window.
        """
        times, streams, departures = self._prepare_trace(trace, horizon)
        if times.shape[0]:
            self._replay_window(times, streams, departures, horizon, [], {}, 0, None)
        return self._build_report(horizon)

    def _window_setup(
        self,
        times: np.ndarray,
        streams: np.ndarray,
        heap: list,
        resident: "dict[int, float]",
        offset: int,
    ) -> "tuple[np.ndarray, np.ndarray, list, list]":
        """Group one window's arrivals and seed its heap candidates.

        Per-stream arrival groups in CSR layout: stream k's arrivals are
        ``sorter[indptr[k]:indptr[k + 1]]`` (window-local positions),
        sorted by ``(time, position)`` — the sorts are stable, so equal
        times keep trace order, reproducing the calendar's FIFO
        tie-breaking.  Drawn traces arrive time-sorted already, where
        grouping needs only the cheaper single-key radix argsort.

        The heap holds only next-interesting events, keyed by the
        replay-order tuple ``(time, kind, arrival_time, global trace
        position)`` — the third key orders same-instant departures by
        *admission*, exactly like the calendar's sequence numbers — with
        one candidate arrival per stream, plus the departure of each
        live session.  The trailing stream field is payload, never
        compared (global positions are unique within a kind).

        Window stitching happens here: each stream in ``resident`` has a
        live session (admitted in an earlier window), so its arrivals up
        to the session's departure time are no-ops by construction — its
        cursor starts past them, restoring the invariant that every
        candidate arrival's stream is inactive when it pops.  Carried
        departure entries stay in ``heap`` (re-heapified with the new
        candidates) and their global positions key the same session
        records :meth:`_admit` wrote, so a boundary never reorders or
        re-fires anything.

        Returns ``(sorter, times_by_stream, cursor, bounds)``.
        """
        num_streams = self.idx.num_streams
        if times.shape[0] < 2 or bool(np.all(times[1:] >= times[:-1])):
            sorter = np.argsort(streams, kind="stable")
        else:
            sorter = np.lexsort((times, streams))
        times_by_stream = times[sorter]
        indptr = np.zeros(num_streams + 1, dtype=np.int64)
        np.cumsum(np.bincount(streams, minlength=num_streams), out=indptr[1:])
        starts = indptr[:-1].copy()
        for k, depart in resident.items():
            lo, hi = int(starts[k]), int(indptr[k + 1])
            if lo < hi:
                starts[k] = lo + int(
                    np.searchsorted(times_by_stream[lo:hi], depart, side="right")
                )
        heads = np.flatnonzero(starts < indptr[1:])
        head_positions = sorter[starts[heads]]
        head_times = times[head_positions].tolist()
        heap.extend(
            zip(
                head_times,
                (_ARRIVAL,) * heads.shape[0],
                head_times,
                (head_positions + offset).tolist(),
                heads.tolist(),
            )
        )
        heapq.heapify(heap)
        return sorter, times_by_stream, starts.tolist(), indptr[1:].tolist()

    def _replay_window(
        self,
        times: np.ndarray,
        streams: np.ndarray,
        departures: np.ndarray,
        horizon: float,
        heap: list,
        resident: "dict[int, float]",
        offset: int,
        boundary: "float | None",
    ) -> None:
        """Drive the decision-point loop over one window of the replay order.

        ``times``/``streams``/``departures`` are the window's slice of
        the horizon-filtered trace, whose global positions are
        ``offset + local``; monolithic replay is the single-window case
        (``offset=0``, ``boundary=None``, empty carried state).  Events
        with key time ``>= boundary`` stay in ``heap`` for the next
        window — a departure landing *exactly* on the boundary defers,
        which preserves the monolithic order because arrivals sort
        before departures at a tie instant.  ``resident`` maps each live
        stream to its scheduled departure time
        (:data:`_BEYOND_HORIZON` when the session outlives the horizon)
        and is maintained here for :meth:`_window_setup` to stitch the
        next window.  Parked streams (module docstring) never cross a
        boundary: their remaining arrivals in the window are counted
        before it returns.
        """
        sorter, times_by_stream, cursor, bounds = self._window_setup(
            times, streams, heap, resident, offset
        )
        # Cursor j of the CSR layout is the arrival at window-local
        # position positions[j], at time arrival_times[j].
        positions = sorter.tolist()
        arrival_times = times_by_stream.tolist()
        push, pop = heapq.heappush, heapq.heappop
        on_arrival, on_departure = self._on_arrival, self._on_departure
        rejection_token = self.policy.rejection_token
        count_rejections = self.policy.count_rejections
        parked: "list[int]" = []
        parked_token = None

        def wake(time: float, position: "int | None") -> None:
            """Unpark every parked stream at the event ``(time, position)``.

            Each counts its arrivals ordered before the event as the
            rejections they would have been, and its next arrival goes
            back on the heap.  ``position=None`` marks a departure, which
            every arrival at its instant precedes (and, at time ``inf``,
            the end of the window); at an arrival event, only the
            same-instant arrivals at lower positions do.
            """
            skipped = 0
            for k in parked:
                lo, hi = cursor[k], bounds[k]
                if position is None:
                    j = bisect_right(arrival_times, time, lo, hi)
                else:
                    j = bisect_left(arrival_times, time, lo, hi)
                    while (
                        j < hi
                        and arrival_times[j] == time
                        and positions[j] + offset < position
                    ):
                        j += 1
                if j > lo:
                    skipped += j - lo
                    count_rejections(k, j - lo)
                cursor[k] = j
                if j < hi:
                    arrival_time = arrival_times[j]
                    push(heap, (
                        arrival_time, _ARRIVAL, arrival_time, positions[j] + offset, k
                    ))
            self.offered += skipped
            parked.clear()

        while heap and (boundary is None or heap[0][0] < boundary):
            time, kind, _scheduled, position, k = pop(heap)
            if kind:
                if parked:
                    wake(time, None)
                on_departure(position, k, time)
                del resident[k]
                continue
            lo = cursor[k] + 1
            hi = bounds[k]
            admitted = on_arrival(position, k, time)
            if admitted:
                if parked:
                    wake(time, position)
                departure_time = float(departures[position - offset])
                if departure_time <= horizon:
                    resident[k] = departure_time
                    push(heap, (departure_time, _DEPARTURE, time, position, k))
                    # Admitted: every arrival of k at a time <= the
                    # departure fires while the stream is still carried
                    # (arrivals precede the departure at the tie instant)
                    # — skip the whole no-op run with one bisection.
                    lo = bisect_right(arrival_times, departure_time, lo, hi)
                else:  # departs beyond the horizon: carried to the end
                    resident[k] = _BEYOND_HORIZON
                    lo = hi
            else:
                token = rejection_token()
                if parked and token != parked_token:
                    wake(time, position)
                if admitted is None and token is not None:
                    # A stable rejection: park k until the state or the
                    # token moves, its cursor just past this arrival.
                    cursor[k] = lo
                    parked.append(k)
                    parked_token = token
                    continue
            cursor[k] = lo
            if lo < hi:
                arrival_time = arrival_times[lo]
                push(heap, (
                    arrival_time, _ARRIVAL, arrival_time, positions[lo] + offset, k
                ))
        # Nothing left in this window can change the state: every parked
        # stream's remaining arrivals here are repeats of its rejection.
        if parked:
            wake(math.inf, None)

    def run_store(
        self,
        store,
        horizon: float,
        window: "float | None" = None,
    ) -> SimulationReport:
        """Replay an on-disk :class:`~repro.sim.store.TraceStore` windowed.

        With a ``window`` (validated by
        :func:`~repro.config.resolve_store_window`), the store's
        horizon prefix is streamed in ``[w0, w1)`` spans of that many
        time units — peak memory is a few window-sized arrays, the
        mmap'd pages stream through — with live sessions handed across
        each boundary as resident state, so the report is
        **float-identical** to :meth:`run_trace` on the same store (or
        on the equivalent in-RAM trace).  Requires a time-sorted store;
        without a window this simply delegates to the monolithic
        :meth:`run_trace`.  Each streamed window gets the loudness
        checks :meth:`_prepare_trace` applies to a whole trace (the
        store writer refuses such events at append time already; this
        guards hand-built column files).
        """
        window = resolve_store_window(window)
        if window is None:
            return self.run_trace(store, horizon)
        if not getattr(store, "sorted", False):
            raise ValidationError(
                "windowed replay needs a time-sorted store; this one is "
                "flagged unsorted — rewrite it sorted or replay "
                "monolithically (window=None)"
            )
        _check_horizon(horizon)
        times_all = store.times
        streams_all = store.streams
        durations_all = store.durations
        _check_stream_indices(streams_all, self.idx.num_streams)
        end = int(np.searchsorted(times_all, horizon, side="right"))
        heap: list = []
        resident: "dict[int, float]" = {}
        no_times = np.empty(0)
        no_streams = np.empty(0, dtype=np.int64)
        lo = 0
        widx = 0
        while lo < end:
            ahead = int(float(times_all[lo]) // window)
            if ahead > widx:
                # Fast-forward over event-free windows in one step,
                # still firing the carried departures inside them.
                self._replay_window(
                    no_times, no_streams, no_times, horizon,
                    heap, resident, lo, ahead * window,
                )
                widx = ahead
            w1 = (widx + 1) * window
            hi = lo + int(np.searchsorted(times_all[lo:end], w1, side="left"))
            t_w = np.asarray(times_all[lo:hi])
            d_w = np.asarray(durations_all[lo:hi])
            _check_arrival_times(t_w)
            _check_durations(d_w)
            self._replay_window(
                t_w, np.asarray(streams_all[lo:hi]), t_w + d_w,
                horizon, heap, resident, lo, w1,
            )
            lo = hi
            widx += 1
        # Drain: departures at or beyond the last boundary.
        self._replay_window(
            no_times, no_streams, no_times, horizon, heap, resident, end, None
        )
        return self._build_report(horizon)

    def _build_report(self, horizon: float) -> SimulationReport:
        """Assemble the :class:`SimulationReport` from the run's state."""
        idx = self.idx
        report = SimulationReport(
            policy_name=self.policy.name,
            horizon=horizon,
            utility_time=self._utility_rate.integral(horizon),
            offered=self.offered,
            admitted=self.admitted,
            deliveries=self.deliveries,
            policy_violations=self.policy_violations,
            num_users=idx.num_users,
        )
        for i, stat in self._server_load.items():
            report.server_utilization[i] = stat.mean(horizon)
            report.peak_server_utilization[i] = stat.peak
        integrals = self._user_stats.integral(horizon)
        user_ids = idx.user_ids
        for u in np.flatnonzero(self._user_stats.touched):
            report.per_user_utility[user_ids[int(u)]] = float(integrals[int(u)])
        return report

    def run(
        self,
        horizon: float,
        model=None,
        seed: "int | np.random.Generator | None" = None,
    ) -> SimulationReport:
        """Draw an array trace and replay it (one-policy convenience)."""
        from repro.sim.simulation import ArrivalModel

        trace = draw_trace_arrays(self.idx, model or ArrivalModel(), horizon, seed)
        return self.run_trace(trace, horizon)
