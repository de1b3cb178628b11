"""Replay speed of ``engine="batched"`` relative to ``engine="indexed"``, by regime.

Usage (from the repository root)::

    python3 perfbench/engines.py [--seeds 1 2 3] [--repeats 3]

Prints, per seed, the batched ÷ indexed speed (indexed time over batched
time, best of ``--repeats`` each) on two kinds of trace: the
decision-dense churn trace of the ``replay_churn`` workload (Allocate),
and the reject-dominated cells of the ``sweep`` workload, at its horizon
and at five times it (Allocate and Threshold).  Both engines must
produce the same report; a mismatch exits 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _best(repeats: int, fn) -> "tuple[float, object]":
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import inputs, replay_churn, sweep
    from repro.instances.workloads import iptv_neighborhood_workload
    from repro.sim.policies import AllocatePolicy, ThresholdPolicy
    from repro.sim.simulation import simulate_trace

    churn = inputs.small_streams(replay_churn.STREAMS, replay_churn.USERS,
                                 replay_churn.INSTANCE_SEED)
    ok = True
    print("seed  regime           policy     indexed_s  batched_s  batched/indexed")
    for seed in args.seeds:
        reject = iptv_neighborhood_workload(sweep.STREAMS, sweep.USERS, seed=seed)
        cases = [
            ("churn", churn, inputs.session_trace(
                churn, seed, rate=replay_churn.RATE,
                mean_duration=replay_churn.MEAN_SESSION, horizon=replay_churn.HORIZON),
             replay_churn.HORIZON, (AllocatePolicy,)),
        ]
        # The sweep's cells, and the same cells five times as long.
        for label, horizon in (("reject-dominated", sweep.HORIZON),
                               ("reject-dom. x5", 5 * sweep.HORIZON)):
            cases.append((label, reject, inputs.session_trace(
                reject, seed, rate=100.0, mean_duration=horizon / 2, horizon=horizon),
                horizon, (AllocatePolicy, ThresholdPolicy)))
        for regime, instance, trace, horizon, policies in cases:
            for policy in policies:
                times, reports = {}, {}
                for engine in ("indexed", "batched"):
                    times[engine], reports[engine] = _best(
                        args.repeats,
                        lambda: simulate_trace(instance, policy(), trace, horizon,
                                               engine=engine))
                ok &= reports["indexed"] == reports["batched"]
                print(f"{seed:<5} {regime:<16} {policy.__name__[:-6].lower():<10} "
                      f"{times['indexed']:9.3f}  {times['batched']:9.3f}  "
                      f"{times['indexed'] / times['batched']:6.2f}x")
    if not ok:
        print("error: the engines disagree on a report", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
