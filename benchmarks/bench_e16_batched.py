"""E16 — batched decision core: multi-pick greedy + batched replay.

Two decision-rate hot paths from earlier PRs still pay one Python-level
iteration per *decision*:

1. The single-pick greedy kernel (``repro.core.indexed.greedy_kernel``)
   recomputes the effectiveness key and takes one exact argmax per
   accepted stream — O(streams) numpy work per pick, ~1 000 picks on a
   catalog-scale instance.  The multi-pick kernel
   (``repro.core.batched.greedy_kernel_batched``) selects a whole round
   by ``argpartition``, proves the round non-interacting against
   residual budgets, and commits it with one vectorized residual update
   — falling back to single picks only for the conflicting tail.  It
   has no engine name: the default solver engine runs it when
   ``repro.core.greedy.greedy_kernel_for`` reads a shape like this
   catalog's, so the bench also times the kernel the default engine
   picks (selector included) and ``greedy(inst)`` end to end.
2. The decision-point replay kernel (``IndexedVideoSim``,
   ``engine="indexed"``) already skips no-decision runs, but answers
   each surviving decision with one ``on_offer_indexed`` call.
   ``BatchedVideoSim`` (``engine="batched"``) answers an order-free
   policy's pending arrivals through one vectorized ``on_offer_batch``
   and reuses the answers as a decision map until the state changes.

Both comparisons assert *float-identical* outputs — the batched paths
reproduce the sequential engines' IEEE accumulation order exactly (the
contract fuzzed in ``tests/test_indexed_parity.py`` and
``tests/test_sim_indexed.py``).

Asserted floors at the reference scale (10 000 users × 1 000 streams for
the solver; ~10⁶ events for replay): ≥ 10× for the batched greedy
kernel, and for the kernel the default engine picks, over the
single-pick kernel, and ≥ 3× for batched replay under a rejection-heavy
threshold workload (tight budget ⇒ long all-reject runs ⇒ large
groups).  ``greedy(inst)`` must return the single-pick kernel's trace;
its time is reported, not gated: lifting the trace to string ids costs
more than the multi-pick kernel itself at 10 000 users.  Set
``REPRO_E16_SCALE=small`` for the CI smoke, where fixed numpy costs
dominate and the floors drop accordingly.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.batched import greedy_kernel_batched
from repro.core.greedy import greedy, greedy_kernel_for
from repro.core.indexed import greedy_kernel
from repro.instances.vectorized import generate_unit_skew_smd
from repro.sim.indexed import IndexedVideoSim, draw_trace_arrays
from repro.sim.kernel import BatchedVideoSim
from repro.sim.policies import ThresholdPolicy
from repro.sim.simulation import ArrivalModel
from repro.util.timing import Timer

from benchmarks.common import run_once, stage_json, stage_section

FULL_SCALE = os.environ.get("REPRO_E16_SCALE", "full") != "small"

#: Solver scenario: catalog-scale greedy with rare pick interactions
#: (sparse interest, generous caps) so rounds stay large.
G_STREAMS = 1_000 if FULL_SCALE else 200
G_USERS = 10_000 if FULL_SCALE else 1_000
G_DENSITY = 0.001 if FULL_SCALE else 0.005
G_BUDGET_FRACTION = 0.6
#: Generous utility caps keep pick interactions rare (a user's cap
#: absorbs all its interests), the regime where rounds stay large.
G_CAP_FRACTION = 2.0

#: Replay scenario: tight budget under a threshold policy — the server
#: saturates early and long all-reject arrival runs form large groups.
R_STREAMS = 200 if FULL_SCALE else 100
R_USERS = 10_000 if FULL_SCALE else 1_000
R_EVENTS = 1_000_000 if FULL_SCALE else 50_000
R_RATE = 100.0
R_HORIZON = R_EVENTS / R_RATE
R_MODEL = ArrivalModel(rate=R_RATE, mean_duration=R_HORIZON / 2.0,
                       popularity_exponent=1.0)

#: Reference-scale floors from the ISSUE; the small CI smoke runs at a
#: fraction of the volume where constant numpy costs weigh more.
MIN_GREEDY_SPEEDUP = 10.0 if FULL_SCALE else 2.0
MIN_REPLAY_SPEEDUP = 3.0 if FULL_SCALE else 2.0


def _timed(fn) -> "tuple[float, object]":
    timer = Timer()
    with timer:
        result = fn()
    return timer.elapsed, result


def _timed_best(fn, rounds: int = 3) -> "tuple[float, object]":
    """Best-of-N wall time for cheap, deterministic kernels (the greedy
    pair runs in tens of ms, where scheduler noise would dominate a
    single-shot measurement)."""
    best, result = _timed(fn)
    for _ in range(rounds - 1):
        elapsed, result = _timed(fn)
        best = min(best, elapsed)
    return best, result


def _traces_identical(first, second) -> bool:
    """Float-identical greedy kernel outputs (order, receivers, cost)."""
    order_a, rejected_a, cost_a = first
    order_b, rejected_b, cost_b = second
    return (
        cost_a == cost_b
        and rejected_a == rejected_b
        and [k for k, _ in order_a] == [k for k, _ in order_b]
        and all(
            np.array_equal(ra, rb)
            for (_, ra), (_, rb) in zip(order_a, order_b)
        )
    )


def _reports_identical(first, second) -> bool:
    """Float-identical SimulationReports (the cross-engine contract)."""
    return (
        first.utility_time == second.utility_time
        and first.offered == second.offered
        and first.admitted == second.admitted
        and first.deliveries == second.deliveries
        and first.policy_violations == second.policy_violations
        and first.per_user_utility == second.per_user_utility
        and first.server_utilization == second.server_utilization
        and first.peak_server_utilization == second.peak_server_utilization
    )


def bench_e16_batched(benchmark):
    def experiment():
        # -- multi-pick greedy ------------------------------------------
        idx = generate_unit_skew_smd(
            G_STREAMS, G_USERS, seed=42, density=G_DENSITY,
            budget_fraction=G_BUDGET_FRACTION, cap_fraction=G_CAP_FRACTION,
        )
        cap = float(idx.budgets[0])
        t_single, single = _timed_best(lambda: greedy_kernel(idx, cap, []))
        t_multi, multi = _timed_best(lambda: greedy_kernel_batched(idx, cap, []))
        t_default, default = _timed_best(
            lambda: greedy_kernel_for(idx)(idx, cap, [])
        )
        inst = idx.lift()
        t_greedy, trace = _timed_best(lambda: greedy(inst, engine="indexed"))
        greedy_res = {
            "t_single": t_single,
            "t_multi": t_multi,
            "t_default": t_default,
            "t_greedy": t_greedy,
            "picks": len(single[0]),
            "rejected": len(single[1]),
            "parity": _traces_identical(single, multi)
            and _traces_identical(single, default)
            and trace.order == [
                (idx.stream_ids[k], tuple(idx.user_ids_of(receivers)))
                for k, receivers in single[0]
            ]
            and trace.total_cost == single[2],
        }

        # -- batched replay ---------------------------------------------
        sim_idx = generate_unit_skew_smd(
            R_STREAMS, R_USERS, seed=43, density=0.01, budget_fraction=0.02
        )
        trace = draw_trace_arrays(sim_idx, R_MODEL, R_HORIZON, seed=7)
        indexed_sim = IndexedVideoSim(sim_idx, ThresholdPolicy())
        batched_sim = BatchedVideoSim(sim_idx, ThresholdPolicy())
        t_indexed, indexed_report = _timed(
            lambda: indexed_sim.run_trace(trace, R_HORIZON)
        )
        t_batched, batched_report = _timed(
            lambda: batched_sim.run_trace(trace, R_HORIZON)
        )
        replay_res = {
            "t_indexed": t_indexed,
            "t_batched": t_batched,
            "events": len(trace),
            "offered": indexed_report.offered,
            "admitted": indexed_report.admitted,
            "parity": _reports_identical(indexed_report, batched_report),
        }
        return {"greedy": greedy_res, "replay": replay_res}

    data = run_once(benchmark, experiment)
    g, r = data["greedy"], data["replay"]
    g_speedup = g["t_single"] / max(g["t_multi"], 1e-9)
    d_speedup = g["t_single"] / max(g["t_default"], 1e-9)
    r_speedup = r["t_indexed"] / max(r["t_batched"], 1e-9)

    stage_section(
        "E16",
        f"Batched decision core: multi-pick greedy "
        f"({G_USERS:,} users × {G_STREAMS:,} streams) and batched replay "
        f"(~{R_EVENTS:,} events)",
        "repro.core.batched selects whole greedy rounds by argpartition, "
        "verifies non-interaction against residual budgets per round and "
        "commits accepted picks with one vectorized residual update, "
        "falling back to exact single picks only for the conflicting "
        "tail.  BatchedVideoSim answers the pending arrivals of an "
        "order-free policy through one vectorized on_offer_batch and "
        "replays every repeat arrival from that decision map until the "
        "state changes, instead of per-decision policy calls.",
        ["path", "sequential", "batched", "speedup", "work"],
        [
            [
                "greedy kernel",
                f"{g['t_single'] * 1e3:.0f} ms",
                f"{g['t_multi'] * 1e3:.0f} ms",
                f"{g_speedup:.1f}x",
                f"{g['picks']:,} picks, {g['rejected']:,} rejected",
            ],
            [
                "default-engine kernel (selector included)",
                f"{g['t_single'] * 1e3:.0f} ms",
                f"{g['t_default'] * 1e3:.0f} ms",
                f"{d_speedup:.1f}x",
                "greedy_kernel_for picks the multi-pick kernel",
            ],
            [
                "greedy(inst), default engine",
                f"{g['t_single'] * 1e3:.0f} ms",
                f"{g['t_greedy'] * 1e3:.0f} ms",
                f"{g['t_single'] / max(g['t_greedy'], 1e-9):.1f}x",
                "kernel plus lifting the trace to string ids (not gated)",
            ],
            [
                "threshold replay",
                f"{r['t_indexed']:.2f} s",
                f"{r['t_batched']:.2f} s",
                f"{r_speedup:.1f}x",
                f"{r['offered']:,} decisions of {r['events']:,} events",
            ],
        ],
        notes="Outputs are float-identical to the single-pick kernel and "
        "the indexed engine (asserted here; fuzzed in "
        "tests/test_indexed_parity.py and tests/test_sim_indexed.py).  "
        "The greedy win grows with round size (rare pick interactions); "
        "the replay win grows with the length of decision runs between "
        "departures — rejection-heavy workloads batch best.",
    )
    stage_json(
        "e16",
        {
            "greedy": {
                "streams": G_STREAMS,
                "users": G_USERS,
                "t_single_s": g["t_single"],
                "t_multi_s": g["t_multi"],
                "speedup": g_speedup,
                "t_default_s": g["t_default"],
                "default_speedup": d_speedup,
                "t_greedy_s": g["t_greedy"],
                "picks": g["picks"],
            },
            "replay": {
                "events": r["events"],
                "offered": r["offered"],
                "admitted": r["admitted"],
                "t_indexed_s": r["t_indexed"],
                "t_batched_s": r["t_batched"],
                "speedup": r_speedup,
            },
            "scale": "full" if FULL_SCALE else "small",
        },
    )

    assert g["parity"], "batched greedy kernel diverged from single-pick"
    assert g["picks"] > 0, "degenerate greedy run: nothing accepted"
    assert g_speedup >= MIN_GREEDY_SPEEDUP, (
        f"batched greedy only {g_speedup:.1f}x faster than single-pick "
        f"(need ≥ {MIN_GREEDY_SPEEDUP}x)"
    )
    assert d_speedup >= MIN_GREEDY_SPEEDUP, (
        f"default-engine greedy kernel only {d_speedup:.1f}x faster than "
        f"single-pick (need ≥ {MIN_GREEDY_SPEEDUP}x)"
    )
    assert r["parity"], "batched replay diverged from indexed"
    assert r["admitted"] > 0, "degenerate replay: nothing admitted"
    assert r_speedup >= MIN_REPLAY_SPEEDUP, (
        f"batched replay only {r_speedup:.1f}x faster than indexed "
        f"(need ≥ {MIN_REPLAY_SPEEDUP}x)"
    )
