"""The video-distribution simulation (the paper's Fig. 1, animated).

Stream sessions arrive as a Poisson process; each session proposes one
catalog stream (drawn Zipf-by-rank among streams not currently carried)
and lives for an exponential duration.  The bound admission policy
decides the receiver set; while a session is active, each receiving
user accrues ``w_u(S)`` utility per unit time.  The simulator owns
resource accounting, hard-enforces feasibility (policy answers are
clipped, and clips are counted as violations), and integrates metrics
exactly via :class:`repro.sim.metrics.TimeWeightedValue`.

This is the substrate for experiment E9: the same arrival trace is
replayed under every policy (common random numbers), so differences in
collected utility are attributable to the policies alone.

Three replay engines implement the identical semantics:

- ``engine="dict"`` — :class:`VideoDistributionSim`, the original
  string-keyed event-loop implementation (heap calendar, per-user
  Python loops), kept as the reference oracle;
- ``engine="indexed"`` (default) —
  :class:`repro.sim.indexed.IndexedVideoSim`, the array-native
  decision-point kernel: no-decision event runs are skipped wholesale,
  Python fires only at policy decisions and live departures, and
  reports reproduce the dict engine's float-for-float on any common
  trace (``tests/test_sim_indexed.py``);
- ``engine="batched"`` — :class:`repro.sim.kernel.BatchedVideoSim`,
  the same kernel plus a decision map for ``batch_order_free``
  policies: one vectorized ``on_offer_batch`` call answers every
  arrival until the state changes, still float-identical.

:func:`simulate_trace` and :func:`compare_policies` are the
engine-dispatching front doors; :func:`compare_policies` additionally
fans policies out over a process pool with ``parallel=N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import resolve_store_window
from repro.core.indexed import IndexedInstance, ensure_indexed, ensure_instance
from repro.core.instance import MMDInstance
from repro.exceptions import SimulationError, ValidationError
from repro.sim.engine import Engine
from repro.sim.indexed import (
    IndexedTrace,
    IndexedVideoSim,
    draw_trace_arrays,
    resolve_sim_engine,
)
from repro.sim.kernel import BatchedVideoSim
from repro.sim.metrics import SimulationReport, TimeWeightedValue
from repro.sim.policies import AdmissionPolicy, ResourceView
from repro.util.rng import ensure_rng

__all__ = [
    "ArrivalModel",
    "SessionEvent",
    "draw_trace",
    "VideoDistributionSim",
    "simulate_trace",
    "compare_policies",
]


@dataclass
class ArrivalModel:
    """Session arrival statistics.

    Attributes
    ----------
    rate:
        Poisson arrival rate of session proposals (per time unit).
    mean_duration:
        Exponential mean session length.
    popularity_exponent:
        Zipf exponent over catalog rank when sampling which stream a
        session proposes (0 = uniform).
    """

    rate: float = 1.0
    mean_duration: float = 10.0
    popularity_exponent: float = 1.0


@dataclass(frozen=True)
class SessionEvent:
    """One entry of a pre-drawn arrival trace: at ``time``, stream
    ``stream_id`` is proposed with lifetime ``duration``."""

    time: float
    stream_id: str
    duration: float


def draw_trace(
    instance: "MMDInstance | IndexedInstance",
    model: ArrivalModel,
    horizon: float,
    seed: "int | np.random.Generator | None" = None,
    engine: "str | None" = None,
) -> "list[SessionEvent]":
    """Pre-draw an arrival trace (for common-random-number comparisons).

    Streams currently active are *not* excluded here — the trace is
    policy-independent; the simulator skips proposals for streams it
    already carries (a multicast system gets no new decision from a
    second request for a carried stream).

    ``engine="indexed"`` (the default) and ``engine="batched"`` draw
    the whole trace with batched numpy calls
    (:func:`repro.sim.indexed.draw_trace_arrays`); ``engine="dict"``
    keeps the original per-event loop.  All are deterministic under
    ``seed``, but the array draw consumes randomness in a different
    order than the loop draw, so the dict engine produces a different
    (equally distributed) trace for the same seed.

    Degenerate inputs — a zero arrival rate or an empty catalog — yield
    an empty trace under every engine (the rate formerly divided by
    zero, and an empty catalog produced NaN Zipf weights).
    """
    idx = ensure_indexed(instance)
    if resolve_sim_engine(engine) != "dict":
        return draw_trace_arrays(idx, model, horizon, seed).to_events(idx)
    if model.rate <= 0 or idx.num_streams == 0 or horizon <= 0:
        return []
    rng = ensure_rng(seed)
    ranks = np.arange(1, idx.num_streams + 1, dtype=float)
    weights = ranks ** (-model.popularity_exponent)
    weights /= weights.sum()
    sids = idx.stream_ids
    events = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / model.rate))
        if t > horizon:
            break
        idx_choice = int(rng.choice(len(sids), p=weights))
        duration = float(rng.exponential(model.mean_duration))
        events.append(SessionEvent(time=t, stream_id=sids[idx_choice], duration=duration))
    return events


class VideoDistributionSim:
    """Drives one policy over one arrival trace (the ``dict`` engine).

    Parameters
    ----------
    instance:
        The static instance: catalog, users (with capacities), budgets.
        Array-native instances are lifted to the string-keyed model.
    policy:
        The admission policy under test; ``bind`` is called here.
    """

    def __init__(
        self,
        instance: "MMDInstance | IndexedInstance",
        policy: AdmissionPolicy,
    ) -> None:
        self.instance = ensure_instance(instance)
        self.policy = policy
        self.policy.bind(self.instance)
        self.view = ResourceView(self.instance)
        self.engine = Engine()
        self._utility_rate = TimeWeightedValue()
        # Sparse: a user's integrator is created on first delivery, so a
        # run touching few users never materializes O(n) objects.
        self._user_rate: "dict[str, TimeWeightedValue]" = {}
        self._server_load = {
            i: TimeWeightedValue()
            for i, b in enumerate(self.instance.budgets)
            if not math.isinf(b)
        }
        self._active_receivers: "dict[str, list[str]]" = {}
        self.offered = 0
        self.admitted = 0
        self.deliveries = 0
        self.policy_violations = 0

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _user_stat(self, user_id: str) -> TimeWeightedValue:
        stat = self._user_rate.get(user_id)
        if stat is None:
            stat = self._user_rate[user_id] = TimeWeightedValue()
        return stat

    def _clip_to_feasible(self, stream_id: str, receivers: "list[str]") -> "list[str]":
        """Hard feasibility guard: drop the stream on server overflow,
        drop individual users on capacity overflow; count violations.
        Duplicate receivers (a buggy policy answering the same user
        twice) are collapsed to the first occurrence — a multicast
        delivery has no double-receive."""
        if receivers and not self.view.fits_server(stream_id):
            self.policy_violations += 1
            return []
        kept = []
        seen: set[str] = set()
        for uid in receivers:
            if uid in seen:
                continue
            seen.add(uid)
            if self.instance.user(uid).utility(stream_id) <= 0:
                self.policy_violations += 1
                continue
            if self.view.fits_user(uid, stream_id):
                kept.append(uid)
            else:
                self.policy_violations += 1
        return kept

    def _on_arrival(self, event: SessionEvent) -> None:
        if event.stream_id in self.view.active_streams:
            return  # already multicast; no new decision
        self.offered += 1
        receivers = self.policy.on_offer(event.stream_id, self.view)
        receivers = self._clip_to_feasible(event.stream_id, list(receivers))
        if not receivers:
            return
        self.admitted += 1
        self.deliveries += len(receivers)
        now = self.engine.now
        stream = self.instance.stream(event.stream_id)
        self.view.activate(event.stream_id)
        self._active_receivers[event.stream_id] = receivers
        for i in range(self.instance.m):
            self.view.server_used[i] += stream.costs[i]
            if i in self._server_load:
                self._server_load[i].set(
                    now, self.view.server_used[i] / self.instance.budgets[i]
                )
        rate_gain = 0.0
        for uid in receivers:
            user = self.instance.user(uid)
            loads = user.load_vector(event.stream_id)
            for j in range(self.instance.mc):
                self.view.user_used[uid][j] += loads[j]
            rate_gain += user.utilities[event.stream_id]
            self._user_stat(uid).add(now, user.utilities[event.stream_id])
        self._utility_rate.add(now, rate_gain)
        self.engine.schedule(event.duration, lambda: self._on_departure(event.stream_id))

    def _on_departure(self, stream_id: str) -> None:
        if stream_id not in self.view.active_streams:
            raise SimulationError(f"departure of inactive stream {stream_id!r}")
        now = self.engine.now
        stream = self.instance.stream(stream_id)
        receivers = self._active_receivers.pop(stream_id)
        self.view.deactivate(stream_id)
        for i in range(self.instance.m):
            self.view.server_used[i] -= stream.costs[i]
            if i in self._server_load:
                self._server_load[i].set(
                    now, self.view.server_used[i] / self.instance.budgets[i]
                )
        rate_loss = 0.0
        for uid in receivers:
            user = self.instance.user(uid)
            loads = user.load_vector(stream_id)
            for j in range(self.instance.mc):
                self.view.user_used[uid][j] -= loads[j]
            rate_loss += user.utilities[stream_id]
            self._user_stat(uid).add(now, -user.utilities[stream_id])
        self._utility_rate.add(now, -rate_loss)
        self.policy.on_release(stream_id)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run_trace(
        self, trace: "list[SessionEvent] | IndexedTrace", horizon: float
    ) -> SimulationReport:
        """Replay a pre-drawn trace up to ``horizon`` and report.

        An event naming a stream the instance does not carry raises the
        canonical unknown-stream :class:`ValidationError` up front (the
        array engines reject it while lowering the trace), rather than
        a mid-replay ``KeyError`` from the first policy lookup.
        """
        if isinstance(trace, IndexedTrace):
            trace = trace.to_events(ensure_indexed(self.instance))
        for event in trace:
            self.instance.stream(event.stream_id)  # canonical unknown-stream error
            if event.time > horizon:
                continue
            self.engine.schedule_at(event.time, lambda e=event: self._on_arrival(e))
        self.engine.run_until(horizon)
        report = SimulationReport(
            policy_name=self.policy.name,
            horizon=horizon,
            utility_time=self._utility_rate.integral(horizon),
            offered=self.offered,
            admitted=self.admitted,
            deliveries=self.deliveries,
            policy_violations=self.policy_violations,
            num_users=self.instance.num_users,
        )
        for i, stat in self._server_load.items():
            report.server_utilization[i] = stat.mean(horizon)
            report.peak_server_utilization[i] = stat.peak
        for uid, stat in self._user_rate.items():
            report.per_user_utility[uid] = stat.integral(horizon)
        return report

    def run(
        self,
        horizon: float,
        model: "ArrivalModel | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> SimulationReport:
        """Draw a trace and replay it (one-policy convenience)."""
        trace = draw_trace(
            self.instance, model or ArrivalModel(), horizon, seed, engine="dict"
        )
        return self.run_trace(trace, horizon)


#: The array engines by name (every engine but the ``dict`` oracle).
_ARRAY_ENGINES = {"indexed": IndexedVideoSim, "batched": BatchedVideoSim}


def simulate_trace(
    instance: "MMDInstance | IndexedInstance",
    policy: AdmissionPolicy,
    trace: "list[SessionEvent] | IndexedTrace",
    horizon: float,
    engine: "str | None" = None,
) -> SimulationReport:
    """Replay one trace under one policy with the chosen engine.

    The engine-dispatching front door: ``engine="indexed"`` (default)
    runs the decision-point kernel
    :class:`repro.sim.indexed.IndexedVideoSim`, ``engine="batched"``
    the same kernel with a decision map for order-free policies
    (:class:`repro.sim.kernel.BatchedVideoSim`), ``engine="dict"`` the
    original :class:`VideoDistributionSim`; all accept either trace
    representation and produce identical reports on the same trace.
    """
    engine = resolve_sim_engine(engine)
    if engine == "dict":
        return VideoDistributionSim(instance, policy).run_trace(trace, horizon)
    return _ARRAY_ENGINES[engine](instance, policy).run_trace(trace, horizon)


def simulate_store(
    instance: "MMDInstance | IndexedInstance",
    policy: AdmissionPolicy,
    store,
    horizon: float,
    engine: "str | None" = None,
    window: "float | None" = None,
) -> SimulationReport:
    """Replay an on-disk :class:`~repro.sim.store.TraceStore` under one policy.

    The out-of-core counterpart of :func:`simulate_trace`, and
    report-identical to it on the same events: a store *is* an
    :class:`~repro.sim.indexed.IndexedTrace` (mmap-backed columns), so
    every engine accepts it.  With a ``window``, the ``indexed`` and
    ``batched`` engines stream the store ``window`` time units at a
    time in bounded memory via
    :meth:`~repro.sim.indexed.IndexedVideoSim.run_store` — live
    sessions are stitched across boundaries, so the report stays
    **float-identical** to monolithic replay.  The ``dict`` oracle has
    no streaming driver; for it the window is a performance hint with
    nothing to hint, and the store replays monolithically (same report
    either way, by the stitching contract).

    ``store`` may be a :class:`~repro.sim.store.TraceStore`, a path to
    one (opened here), or any in-RAM trace when windowing is not
    requested.
    """
    from repro.sim.store import TraceStore

    engine = resolve_sim_engine(engine)
    if isinstance(store, (str, Path)):
        store = TraceStore.open(store)
    if engine == "dict":
        resolve_store_window(window)  # validate loudly even where ignored
        return simulate_trace(instance, policy, store, horizon, engine=engine)
    return _ARRAY_ENGINES[engine](instance, policy).run_store(
        store, horizon, window=window
    )


def _simulate_one(args) -> SimulationReport:
    """Process-pool worker for :func:`compare_policies` (top level: picklable)."""
    instance, policy, trace, horizon, engine = args
    return simulate_trace(instance, policy, trace, horizon, engine=engine)


def compare_policies(
    instance: "MMDInstance | IndexedInstance",
    policies: "list[AdmissionPolicy]",
    horizon: float,
    model: "ArrivalModel | None" = None,
    seed: "int | np.random.Generator | None" = 0,
    *,
    engine: "str | None" = None,
    parallel: int = 1,
    trace: "list[SessionEvent] | IndexedTrace | None" = None,
) -> "list[SimulationReport]":
    """Run every policy over the *same* arrival trace (common random
    numbers) and return their reports, in the given policy order.

    Parameters
    ----------
    instance / policies / horizon / model / seed:
        As before; ``seed`` feeds the trace draw only.
    engine:
        Simulation engine for the trace draw and every replay
        (``indexed`` default, ``batched`` for the decision map over
        order-free policies, ``dict`` for the original path).
    parallel:
        Number of worker processes.  ``1`` (default) replays in-process;
        ``N > 1`` fans the policies out over a process pool via the
        shared work-unit pipeline
        (:func:`repro.experiments.pipeline.map_ordered`; each worker
        replays the identical trace, so reports are unchanged).
    trace:
        Replay this pre-drawn trace instead of drawing one.
    """
    engine = resolve_sim_engine(engine)
    if parallel < 1:
        raise ValidationError(f"parallel must be >= 1, got {parallel}")
    if trace is None:
        if engine != "dict":
            trace = draw_trace_arrays(instance, model or ArrivalModel(), horizon, seed)
        else:
            trace = draw_trace(
                instance, model or ArrivalModel(), horizon, seed, engine="dict"
            )
    from repro.experiments.pipeline import map_ordered

    items = ((instance, policy, trace, horizon, engine) for policy in policies)
    return list(map_ordered(_simulate_one, items, workers=parallel))
