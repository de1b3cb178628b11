"""Unified experiment orchestration: specs → shards → checkpoints → results.

The paper's evaluation is a grid — instance family × size × skew ×
policy × seed.  This package runs any such grid through **one**
pipeline:

- :mod:`repro.experiments.spec` — :class:`ScenarioSpec`, a declarative
  grid description (JSON/TOML-loadable; the shipped E3/E11/E12/E13
  scenarios live under ``repro/experiments/specs/``) that expands
  lazily into numbered :class:`WorkUnit` streams with index-derived
  per-unit seeds;
- :mod:`repro.experiments.execute` — one work unit in, one result row
  out (the solver/simulator front doors);
- :mod:`repro.experiments.checkpoint` — the per-unit JSONL append
  discipline: exclusive lockfile, torn-tail repair, spec-hash
  provenance;
- :mod:`repro.experiments.transport.local` — ``run_units``, the one
  sweep executor, streaming rows back in unit order;
- :mod:`repro.experiments.runner` — :func:`run_experiment`: sharded
  (``shard=(i, n)``), pooled (``workers=N``), resumable (per-unit JSONL
  checkpoints) execution with columnar aggregation
  (:class:`ExperimentRun`);
- :mod:`repro.experiments.adaptive` — :func:`run_adaptive`,
  round-based grid refinement (score cells, subdivide the top-k) on
  top of the same checkpoint stack;
- :mod:`repro.experiments.pipeline` — :func:`map_ordered`, the
  ordered bounded-in-flight mapper that `solve_many`,
  `compare_policies` and the sweep executor all share.

CLI: ``repro sweep <spec> [--shard i/n --workers N --resume --rounds R
--refine-top K]``, ``repro sweep <spec> --merge CKPT...`` (joins the
shard checkpoints of a cross-machine sweep) and ``repro simulate-many``.

>>> from repro.experiments import ScenarioSpec, run_experiment
>>> spec = ScenarioSpec(kind="solve", family="sweep", name="tiny",
...                     streams=(6,), users=(4,), skews=(1.0, 4.0))
>>> run = run_experiment(spec)
>>> [row["id"] for row in run.rows]
['s6-u4-a1-r0', 's6-u4-a4-r0']
"""

from repro.experiments.adaptive import AdaptiveRun, run_adaptive
from repro.experiments.pipeline import map_ordered
from repro.experiments.runner import (
    ExperimentRun,
    iter_experiment,
    merge_checkpoints,
    read_checkpoint,
    run_experiment,
)
from repro.experiments.spec import (
    ScenarioSpec,
    SpecError,
    WorkUnit,
    builtin_specs,
    load_spec,
    resolve_spec,
    spec_from_dict,
)

__all__ = [
    "ScenarioSpec",
    "SpecError",
    "WorkUnit",
    "builtin_specs",
    "load_spec",
    "resolve_spec",
    "spec_from_dict",
    "map_ordered",
    "AdaptiveRun",
    "ExperimentRun",
    "iter_experiment",
    "merge_checkpoints",
    "read_checkpoint",
    "run_adaptive",
    "run_experiment",
]
