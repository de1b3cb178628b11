"""``replay_churn``: trace → SimulationReport under Allocate, decision-dense.

Small-streams 80×200, 100 arrivals per time unit, mean session 5: about
one event in four is an offer and a fifth of those admit, so the
allocator's commit and release path and per-event dispatch dominate.
The engine is left to the program's default (``engine=None``).
"""

from __future__ import annotations

import dataclasses
import time

from perfbench import common, inputs
from perfbench.spans import LayerStats, Recorder, layer_metrics, tracing
from repro.sim import simulation
from repro.sim.indexed import IndexedTrace
from repro.sim.policies import AllocatePolicy

STREAMS, USERS = 80, 200
RATE, MEAN_SESSION = 100.0, 5.0
HORIZON = 100.0
#: The dict-engine oracle replays the first tenth of the same trace.
ORACLE_HORIZON = HORIZON / 10
#: The instance is fixed; ``--seed`` draws the session trace.
INSTANCE_SEED = 2008
#: Tail percentile over every untraced replay of the run, printed in
#: the details.  Every replay is the same deterministic work, so the
#: end-to-end latency is the fastest replay (see NOTES.md).
TAIL = 0.9


def report_digest(report) -> str:
    """Float-exact fingerprint of a :class:`SimulationReport`."""
    return common.digest(dataclasses.asdict(report))


def _setup(seed: int):
    instance = inputs.small_streams(STREAMS, USERS, INSTANCE_SEED)
    trace = inputs.session_trace(instance, seed, rate=RATE,
                                 mean_duration=MEAN_SESSION, horizon=HORIZON)
    return instance, trace


def _prefix(trace, horizon: float) -> IndexedTrace:
    keep = trace.times <= horizon
    return IndexedTrace(times=trace.times[keep], streams=trace.streams[keep],
                        durations=trace.durations[keep])


def oracle_digest(instance, trace) -> str:
    """The ``dict`` engine's report on the reduced horizon."""
    from repro.core.indexed import index_instance

    events = _prefix(trace, ORACLE_HORIZON).to_events(index_instance(instance))
    report = simulation.simulate_trace(instance, AllocatePolicy(), events,
                                       ORACLE_HORIZON, engine="dict")
    return report_digest(report)


def run(ctx) -> "dict[str, object]":
    """Measure the workload; see :func:`perfbench.run.main` for ``ctx``."""
    recorder = Recorder() if ctx.trace else None
    setup = common.SetupClock(lambda: _setup(ctx.seed))
    instance, trace = setup()
    if recorder is not None:
        with tracing(recorder):
            _setup(ctx.seed)

    walls = {False: [], True: []}
    digests = set()
    offered = 0
    for traced in common.pass_schedule(ctx.seconds, ctx.trace):
        setup()
        with tracing(recorder if traced else None):
            started = time.perf_counter()
            report = simulation.simulate_trace(instance, AllocatePolicy(), trace, HORIZON)
            wall = time.perf_counter() - started
        walls[traced].append(wall)
        digests.add(report_digest(report))
        offered = report.offered

    reduced = report_digest(simulation.simulate_trace(
        instance, AllocatePolicy(), _prefix(trace, ORACLE_HORIZON), ORACLE_HORIZON))
    expected = ctx.golden("replay_churn.oracle", lambda: oracle_digest(instance, trace))
    checks = {
        "passes_identical": len(digests) == 1,
        "dict_oracle_reduced_horizon": reduced == expected,
    }
    full = ctx.golden("replay_churn.report", lambda: next(iter(digests)))
    checks["report_golden"] = full in digests

    untraced = walls[False]
    best = min(untraced)
    result = {
        "checks": checks,
        "attempted": len(untraced) * offered,
        "failed": 0,
        "end_to_end": {
            "setup_s": setup.seconds,
            "peak_rss_mb": common.self_peak_rss_mb(),
            "latency_p50_ms": best * 1e3,
            "latency_tail_ms": best * 1e3,
        },
        "details": {
            "events": len(trace), "offered": offered, "passes": len(untraced),
            "tail_percentile": TAIL,
            "pass_walls_ms": [round(w * 1e3, 1) for w in untraced],
            "all_passes_tail_ms": common.percentile(untraced, TAIL) * 1e3,
            "setup_ms": [round(t * 1e3, 1) for t in setup.times],
            "events_per_s": len(trace) / best,
            "offers_per_s": offered / best,
        },
    }
    if recorder is not None:
        stats = LayerStats()
        stats.add_recorder(recorder)
        result["layers"] = layer_metrics(stats, {
            "trace.overhead_pct": (min(walls[True]) / best - 1.0) * 100.0,
        })
    return result
