"""E13 — array-native simulation engine vs. the dict event loop.

PR 1 compiled the solvers, PR 2 the generators; this experiment measures
the third wall-clock sink of a large dynamic study: drawing a Poisson
session trace and replaying it under an online admission policy (the E9
setting).  The dict engine pays an O(S) ``rng.choice`` per arrival, heap
churn per event and per-user Python loops per admission; the indexed
engine (``repro.sim.indexed``) draws the whole trace with batched numpy
calls and replays it with the decision-point kernel — CSR-row scatter
updates at policy decisions and live departures only.

Measured end-to-end (trace draw + replay, threshold policy) at
10 000 users × 1 000 streams × ~10 000 events.  Asserts:

- ≥ 10× end-to-end speedup, and
- report parity — on a *common* trace the two engines produce identical
  reports (utility·time, admits, violations, per-user utilities), the
  same contract ``tests/test_sim_indexed.py`` fuzzes.

Set ``REPRO_E13_SCALE=small`` for a quick smoke at 1/10 the scale (a
4× floor there — fixed per-event overhead dominates at small
populations; the 10× claim is asserted at the reference scale).
"""

from __future__ import annotations

import os

from repro.instances.vectorized import generate_unit_skew_smd
from repro.sim.indexed import IndexedVideoSim, draw_trace_arrays
from repro.sim.policies import ThresholdPolicy
from repro.sim.simulation import (
    ArrivalModel,
    VideoDistributionSim,
    draw_trace,
    simulate_trace,
)
from repro.util.timing import Timer

from benchmarks.common import run_once, stage_section

FULL_SCALE = os.environ.get("REPRO_E13_SCALE", "full") != "small"
NUM_USERS = 10_000 if FULL_SCALE else 1_000
NUM_STREAMS = 1_000 if FULL_SCALE else 200
NUM_EVENTS = 10_000 if FULL_SCALE else 1_000
DENSITY = 0.05
RATE = 10.0
HORIZON = NUM_EVENTS / RATE
MODEL = ArrivalModel(rate=RATE, mean_duration=HORIZON / 20.0, popularity_exponent=1.0)
#: ≥10× at the full reference scale (measured ~65×); the small smoke runs
#: at 1/10 the population where fixed per-event overhead dominates, so it
#: keeps a smaller floor.
MIN_SPEEDUP = 10.0 if FULL_SCALE else 4.0


def _timed(fn) -> "tuple[float, object]":
    timer = Timer()
    with timer:
        result = fn()
    return timer.elapsed, result


def bench_e13_simulation(benchmark):
    def experiment():
        instance = generate_unit_skew_smd(
            NUM_STREAMS, NUM_USERS, seed=42, density=DENSITY
        )
        instance.lift()  # build the dict model up front: both engines replay warm

        def run_dict():
            trace = draw_trace(instance, MODEL, HORIZON, seed=7, engine="dict")
            sim = VideoDistributionSim(instance, ThresholdPolicy())
            return trace, sim.run_trace(trace, HORIZON)

        def run_indexed():
            trace = draw_trace_arrays(instance, MODEL, HORIZON, seed=7)
            sim = IndexedVideoSim(instance, ThresholdPolicy())
            return trace, sim.run_trace(trace, HORIZON)

        t_dict, (trace_dict, report_dict) = _timed(run_dict)
        t_indexed, (trace_indexed, report_indexed) = _timed(run_indexed)

        # Parity on a *common* trace (the engines draw differently for the
        # same seed, so replay the dict-drawn trace under both engines).
        common = trace_dict[: min(len(trace_dict), 2_000)]
        parity_horizon = HORIZON
        first = simulate_trace(
            instance, ThresholdPolicy(), common, parity_horizon, engine="dict"
        )
        second = simulate_trace(
            instance, ThresholdPolicy(), common, parity_horizon, engine="indexed"
        )
        parity = (
            first.utility_time == second.utility_time
            and first.admitted == second.admitted
            and first.policy_violations == second.policy_violations
            and first.per_user_utility == second.per_user_utility
        )
        return {
            "t_dict": t_dict,
            "t_indexed": t_indexed,
            "events_dict": len(trace_dict),
            "events_indexed": len(trace_indexed),
            "admitted_dict": report_dict.admitted,
            "admitted_indexed": report_indexed.admitted,
            "parity": parity,
        }

    data = run_once(benchmark, experiment)
    assert data["parity"], "indexed engine diverged from the dict engine"

    speedup = data["t_dict"] / max(data["t_indexed"], 1e-9)
    rows = [
        [
            "threshold",
            f"{data['t_dict']:.2f} s ({data['events_dict']} events)",
            f"{data['t_indexed'] * 1e3:.0f} ms ({data['events_indexed']} events)",
            f"{speedup:.0f}x",
            f"{data['events_indexed'] / max(data['t_indexed'], 1e-9):,.0f} events/s",
        ]
    ]
    stage_section(
        "E13",
        f"Array-native simulation vs the dict event loop "
        f"({NUM_USERS} users × {NUM_STREAMS} streams × ~{NUM_EVENTS} events)",
        "repro.sim.indexed draws the Poisson/Zipf trace with batched numpy "
        "calls (one searchsorted for all stream choices) and replays it "
        "with the decision-point kernel: only policy decisions and live "
        "departures reach Python, with CSR-row admission checks, scatter-add accounting and columnar per-user utility "
        "integration. End-to-end time includes the trace draw.",
        ["policy", "dict engine", "indexed engine", "speedup", "throughput"],
        rows,
        notes="Reports are float-identical across engines on a common trace "
        "(asserted here and fuzzed in tests/test_sim_indexed.py); the trace "
        "*draws* differ per seed because the engines consume randomness in "
        "different orders.",
    )
    assert data["admitted_indexed"] > 0, "degenerate run: nothing was admitted"
    assert speedup >= MIN_SPEEDUP, (
        f"indexed sim only {speedup:.1f}x faster (need ≥ {MIN_SPEEDUP}x)"
    )
