"""Repository benchmark: three seeded workloads over the three serving paths.

Run one workload with::

    python3 perfbench/run.py --workload replay_churn --seed 3 --seconds 10 --trace 0

See ``perfbench/NOTES.md`` for why each workload exists, the metric
definitions, and baseline numbers.
"""
