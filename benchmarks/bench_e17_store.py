"""E17 — out-of-core trace store: windowed replay of a 10⁷-event store.

The columnar store (``repro.sim.store``) keeps a trace on disk — one
``.npy`` per column behind a torn-tail-safe manifest — and replays it
through the decision-point replay kernel in time windows, handing live sessions
across window edges as resident state so the stitched report is
*float-identical* to a monolithic in-RAM replay.  This bench draws a
~10⁷-event trace straight to disk in bounded chunks
(:func:`~repro.sim.store.draw_trace_to_store`), then replays it twice:

- **in-RAM** — columns copied into ordinary arrays, monolithic
  ``run_trace`` (the footprint a full-trace replay pays);
- **windowed** — zero-copy mmap open, ``run_store`` streaming
  fixed-width time windows.

Asserts report parity with ``==``, a windowed-vs-in-RAM throughput
floor (≥ 1× at the reference scale: streaming must not cost replay
speed), and — via tracemalloc, which sees the per-window numpy
allocations but not the untraced mmap pages, exactly the resident
footprint in question — a peak traced memory well below the bytes the
three full columns would occupy in RAM.

Set ``REPRO_E17_SCALE=small`` for a CI smoke at 10⁵ events, where the
fixed per-window numpy costs weigh more and the throughput floor drops
accordingly (the ≥ 1× claim is asserted at the reference scale).
"""

from __future__ import annotations

import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from repro.instances.vectorized import generate_unit_skew_smd
from repro.sim.indexed import IndexedTrace, IndexedVideoSim
from repro.sim.policies import ThresholdPolicy
from repro.sim.simulation import ArrivalModel
from repro.sim.store import TraceStore, draw_trace_to_store
from repro.util.timing import Timer

from benchmarks.common import run_once, stage_json, stage_section

FULL_SCALE = os.environ.get("REPRO_E17_SCALE", "full") != "small"
NUM_EVENTS = 10_000_000 if FULL_SCALE else 100_000
NUM_USERS = 2_000 if FULL_SCALE else 500
NUM_STREAMS = 200 if FULL_SCALE else 100
RATE = 100.0
#: 1% horizon padding keeps the Poisson draw above NUM_EVENTS (σ ≈
#: 3.2k events at the reference scale — the pad is ~30σ of margin).
HORIZON = 1.01 * NUM_EVENTS / RATE
#: Long sessions against a modest catalog: the mostly-no-decision
#: regime the decision-point kernel targets.
MODEL = ArrivalModel(rate=RATE, mean_duration=HORIZON / 2.0, popularity_exponent=1.0)
#: 256 windows across the horizon — each window holds ~NUM_EVENTS/256
#: events, so resident numpy state stays a small fraction of the trace.
WINDOW = HORIZON / 256.0
#: Windowed replay must not cost throughput at the reference scale; the
#: small smoke amortizes per-window setup over 100× fewer events.
MIN_RATIO = 1.0 if FULL_SCALE else 0.25
#: Peak traced bytes must stay well under the in-RAM column footprint.
MAX_PEAK_FRACTION = 0.25


def _timed(fn) -> "tuple[float, object]":
    timer = Timer()
    with timer:
        result = fn()
    return timer.elapsed, result


def _reports_identical(first, second) -> bool:
    """Float-identical SimulationReports (the stitching contract)."""
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


def bench_e17_store(benchmark):
    def experiment():
        instance = generate_unit_skew_smd(
            NUM_STREAMS, NUM_USERS, seed=42, density=0.01, budget_fraction=3.0
        )
        with tempfile.TemporaryDirectory(prefix="repro-e17-") as tmp:
            path = Path(tmp) / "store"
            t_draw, store = _timed(
                lambda: draw_trace_to_store(
                    instance, MODEL, HORIZON, path, seed=7
                )
            )
            rows = len(store)
            store_bytes = store.info()["data_bytes"]

            # In-RAM baseline: copy the columns off the mmap and replay
            # monolithically — the footprint the store exists to avoid.
            ram_trace = IndexedTrace(
                times=np.array(store.times),
                streams=np.array(store.streams),
                durations=np.array(store.durations),
            )
            t_ram, report_ram = _timed(
                lambda: IndexedVideoSim(instance, ThresholdPolicy()).run_trace(
                    ram_trace, HORIZON
                )
            )
            del ram_trace

            t_win, report_win = _timed(
                lambda: IndexedVideoSim(instance, ThresholdPolicy()).run_store(
                    store, HORIZON, window=WINDOW
                )
            )

            # Traced pass: tracemalloc sees per-window numpy allocations
            # (not mmap pages), i.e. the resident replay state.
            fresh = TraceStore.open(path)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                report_traced = IndexedVideoSim(
                    instance, ThresholdPolicy()
                ).run_store(fresh, HORIZON, window=WINDOW)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        return {
            "rows": rows,
            "store_bytes": store_bytes,
            "t_draw": t_draw,
            "t_ram": t_ram,
            "t_win": t_win,
            "peak_traced": peak,
            "offered": report_win.offered,
            "admitted": report_win.admitted,
            "parity": _reports_identical(report_ram, report_win)
            and _reports_identical(report_ram, report_traced),
        }

    data = run_once(benchmark, experiment)

    full_bytes = data["rows"] * 8 * 3
    ratio = data["t_ram"] / max(data["t_win"], 1e-9)
    rows = [
        [
            f"{data['rows']:,}",
            f"{data['store_bytes'] / 1e6:,.0f} MB",
            f"{data['t_draw']:.1f} s",
            f"{data['t_ram']:.2f} s",
            f"{data['t_win']:.2f} s ({ratio:.2f}x)",
            f"{data['peak_traced'] / 1e6:,.1f} MB of {full_bytes / 1e6:,.0f} MB "
            f"({data['peak_traced'] / max(full_bytes, 1):.1%})",
        ]
    ]
    stage_section(
        "E17",
        f"Out-of-core columnar trace store: windowed replay of a "
        f"~{NUM_EVENTS:,}-event on-disk trace "
        f"({NUM_USERS} users × {NUM_STREAMS} streams)",
        "repro.sim.store draws the trace straight to disk in bounded "
        "chunks (one .npy per column, torn-tail-safe manifest), reopens "
        "it zero-copy via mmap, and streams it through the replay "
        "kernel in fixed-width time windows; live sessions crossing a "
        "window edge are handed off as resident state (occupied budgets "
        "+ scheduled departures), so the stitched report equals the "
        "monolithic in-RAM replay float-for-float.",
        ["events", "store on disk", "draw-to-store", "in-RAM replay",
         "windowed replay (vs in-RAM)", "peak traced memory (vs in-RAM columns)"],
        rows,
        notes="Peak memory is tracemalloc over the windowed replay: it "
        "counts the per-window numpy working set but not the mmap-backed "
        "column pages the OS streams and evicts — i.e. exactly the "
        "resident footprint the store bounds.  Parity is asserted with "
        "== on every report field; tests/test_store.py fuzzes the same "
        "contract across every engine and crafted boundary traces.",
    )
    stage_json(
        "E17",
        {
            "scale": "full" if FULL_SCALE else "small",
            "events": data["rows"],
            "store_bytes": data["store_bytes"],
            "window": WINDOW,
            "draw_seconds": data["t_draw"],
            "in_ram_seconds": data["t_ram"],
            "windowed_seconds": data["t_win"],
            "throughput_ratio": ratio,
            "peak_traced_bytes": data["peak_traced"],
            "in_ram_column_bytes": full_bytes,
            "parity": data["parity"],
        },
    )
    assert data["parity"], "windowed store replay diverged from in-RAM replay"
    assert data["admitted"] > 0, "degenerate run: nothing admitted"
    assert data["rows"] >= (NUM_EVENTS if FULL_SCALE else NUM_EVENTS * 0.9), (
        "draw produced too few events"
    )
    assert data["peak_traced"] < full_bytes * MAX_PEAK_FRACTION, (
        f"windowed replay peak {data['peak_traced']:,} B is not bounded "
        f"below the in-RAM column footprint {full_bytes:,} B"
    )
    assert ratio >= MIN_RATIO, (
        f"windowed replay only {ratio:.2f}x of in-RAM throughput "
        f"(need ≥ {MIN_RATIO}x)"
    )
