"""E11 — compiled indexed layer vs. the seed dict engine.

Measures the two headline hot paths on a 10 000-user × 1 000-stream
instance:

- Algorithm Greedy (§2.1): vectorized residual maintenance over CSR
  rows vs. the string-keyed incremental state;
- the full ``solve_mmd`` pipeline (classify-and-select + fills +
  candidate accounting) under both engines.

Both engines are bit-identical (see ``tests/test_indexed_parity.py``),
so besides the timings this bench asserts *exact* utility parity, and a
speedup of at least 5× on each path.

The dict engine needs minutes at full scale (that is the point); set
``REPRO_E11_SCALE=small`` for a quick smoke at 1/10 the population.
"""

from __future__ import annotations

import math
import os

from repro.core.greedy import greedy
from repro.core.indexed import index_instance
from repro.core.solver import solve_mmd
from repro.instances.generators import random_smd, random_unit_skew_smd
from repro.util.timing import Timer

from benchmarks.common import run_once, stage_section

FULL_SCALE = os.environ.get("REPRO_E11_SCALE", "full") != "small"
NUM_USERS = 10_000 if FULL_SCALE else 1_000
NUM_STREAMS = 1_000 if FULL_SCALE else 200
MIN_SPEEDUP = 5.0
#: Timed rounds per path.  At small scale the paths run in milliseconds,
#: where a single shot moves with host load spikes and with first-call
#: costs in the bench process (the first dict Greedy call has taken 2-3x
#: its repeats), so each path keeps its best of five rounds; a full-scale
#: dict run takes minutes and is timed once.
ROUNDS = 1 if FULL_SCALE else 5


def _timed(fn) -> "tuple[float, object]":
    timer = Timer()
    with timer:
        result = fn()
    return timer.elapsed, result


def _timed_pair(indexed, dict_engine) -> "tuple[float, object, float, object]":
    """Best-of-:data:`ROUNDS` times of the two engines' paths.

    Each round times both back to back, so a load spike on a shared
    host meets both sides of the speedup ratio alike.
    """
    best = [math.inf, math.inf]
    results: "list[object]" = [None, None]
    for _ in range(ROUNDS):
        for side, fn in enumerate((indexed, dict_engine)):
            elapsed, results[side] = _timed(fn)
            best[side] = min(best[side], elapsed)
    return best[0], results[0], best[1], results[1]


def bench_e11_indexed_vs_dict(benchmark):
    def experiment():
        # Greedy: dense-interest §2 instance; the dict engine pays per-pair
        # dict updates in the residual maintenance.
        greedy_inst = random_unit_skew_smd(
            NUM_STREAMS, NUM_USERS, seed=42, density=0.05
        )
        index_instance(greedy_inst)  # build the cached lowering up front
        t_greedy_idx, trace_idx, t_greedy_dict, trace_dict = _timed_pair(
            lambda: greedy(greedy_inst, engine="indexed"),
            lambda: greedy(greedy_inst, engine="dict"),
        )
        u_idx = trace_idx.assignment.utility()
        u_dict = trace_dict.assignment.utility()

        # solve_mmd: sparse-interest skewed SMD; the dict engine pays the
        # full-population scans of greedy_fill and best-single-stream.
        solve_inst = random_smd(
            NUM_STREAMS, NUM_USERS, 4.0, seed=7, density=0.005, budget_fraction=0.03
        )
        index_instance(solve_inst)
        t_solve_idx, result_idx, t_solve_dict, result_dict = _timed_pair(
            lambda: solve_mmd(solve_inst, engine="indexed", try_allocate=False),
            lambda: solve_mmd(solve_inst, engine="dict", try_allocate=False),
        )
        return {
            "greedy": (t_greedy_dict, t_greedy_idx, u_dict, u_idx),
            "solve_mmd": (t_solve_dict, t_solve_idx, result_dict.utility, result_idx.utility),
        }

    data = run_once(benchmark, experiment)
    rows = []
    speedups = {}
    for path, (t_dict, t_idx, u_dict, u_idx) in data.items():
        assert u_idx == u_dict, f"{path}: engines diverged ({u_idx} != {u_dict})"
        speedup = t_dict / max(t_idx, 1e-9)
        speedups[path] = speedup
        rows.append(
            [
                path,
                f"{t_dict:.2f} s",
                f"{t_idx:.2f} s",
                f"{speedup:.1f}x",
                f"{u_idx:.6g} (exact match)",
            ]
        )
    stage_section(
        "E11",
        f"Compiled indexed layer vs dict engine "
        f"({NUM_USERS} users × {NUM_STREAMS} streams)",
        "The repro.core.indexed lowering runs Greedy and the solve_mmd "
        "pipeline on numpy CSR arrays while reproducing the dict engine's "
        "float accumulation order exactly — identical utilities, large "
        "constant-factor speedups.",
        ["path", "dict engine", "indexed engine", "speedup", "utility"],
        rows,
        notes="Lowering is cached per instance (built once, O(nnz)); both "
        "engines solve the identical instance and return bit-identical "
        "assignments.",
    )
    for path, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"{path}: indexed engine only {speedup:.1f}x faster (need ≥ {MIN_SPEEDUP}x)"
        )
