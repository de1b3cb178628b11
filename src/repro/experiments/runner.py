"""Sharded, resumable execution of scenario specs (the composition layer).

The runner is the thin seam where four separately-testable layers
meet, each owning one concern:

- :mod:`repro.experiments.execute` — one work unit in, one row out;
- :mod:`repro.experiments.checkpoint` — the per-unit JSONL append
  discipline, its exclusive lockfile, torn-tail repair, and the
  spec-hash provenance check;
- :mod:`repro.experiments.transport.local` — :func:`run_units`, the one
  executor: ``map_ordered(execute_cell, ...)`` over the (sharded)
  expansion, one unit per item in-process or one cell per item over a
  process pool, rows in unit order;
- :mod:`repro.experiments.aggregate` — :class:`ExperimentRun` and the
  deterministic artifacts (JSONL with runtimes/provenance stripped,
  ``.npz`` columns), plus shard-checkpoint merging.

:func:`iter_experiment` composes them: resolve the spec, open the
checkpoint writer, stream the executor's ``(was_cached, row)`` pairs,
append fresh rows (stamped with the spec hash) as they complete, yield
every row in unit order.  Cross-machine sweeps need nothing more: run
one ``shard=(i, n)`` per machine and merge the checkpoints — the union
is byte-identical to an unsharded run.

The historical names (``read_checkpoint``, ``ExperimentRun``,
``merge_checkpoints``, ``NONDETERMINISTIC_FIELDS``) are re-exported
here so existing imports keep working.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.experiments.aggregate import (  # noqa: F401  (re-exports)
    NONDETERMINISTIC_FIELDS,
    PROVENANCE_FIELDS,
    ExperimentRun,
    merge_checkpoints,
    strip_row,
)
from repro.experiments.checkpoint import (  # noqa: F401  (re-exports)
    CheckpointLock,
    CheckpointWriter,
    read_checkpoint,
)
from repro.experiments.spec import ScenarioSpec, resolve_spec
from repro.experiments.transport.local import run_units

__all__ = [
    "NONDETERMINISTIC_FIELDS",
    "PROVENANCE_FIELDS",
    "ExperimentRun",
    "iter_experiment",
    "merge_checkpoints",
    "read_checkpoint",
    "run_experiment",
]


def iter_experiment(
    spec: "ScenarioSpec | str | Path",
    *,
    shard: "tuple[int, int] | None" = None,
    workers: int = 1,
    checkpoint: "str | Path | None" = None,
    resume: bool = False,
) -> "Iterator[dict[str, object]]":
    """Stream one run's result rows in unit order (the runner's core).

    Rows of units already present in the checkpoint (``resume=True``)
    are yielded from the file without re-execution; freshly executed
    rows are appended to the checkpoint (and flushed) the moment they
    complete, so a killed run loses at most the row being written.  On
    a pool (``workers > 1``) a simulation cell's rows complete together,
    when its last policy does, so a killed pooled run also loses the
    finished policies of the cells in flight.  A
    non-empty checkpoint is never silently overwritten (continuing one
    requires ``resume=True``), never shared between two live writers
    (the sibling lockfile refuses loudly), and never mixed across specs
    (every appended row carries the spec's content hash).
    """
    spec = resolve_spec(spec)
    spec_hash = spec.spec_hash()
    writer = CheckpointWriter(checkpoint, resume=resume, spec_hash=spec_hash)
    try:
        rows = run_units(spec, shard=shard, workers=workers, done=writer.done)
        for was_cached, row in rows:
            row.setdefault("spec_hash", spec_hash)
            if not was_cached:
                writer.append(row)
            yield row
    finally:
        writer.close()


def run_experiment(
    spec: "ScenarioSpec | str | Path",
    *,
    shard: "tuple[int, int] | None" = None,
    workers: int = 1,
    checkpoint: "str | Path | None" = None,
    resume: bool = False,
) -> ExperimentRun:
    """Run a scenario spec (one shard of it) to completion and aggregate.

    Parameters
    ----------
    spec:
        A :class:`~repro.experiments.spec.ScenarioSpec`, a spec file
        path, or a builtin spec name.
    shard:
        ``(i, n)`` to run only units with ``index % n == i``;
        per-unit seeds and results are unchanged by sharding.
    workers:
        Pool width (``1`` = in-process).
    checkpoint:
        JSONL path; every completed unit is appended as it finishes.
    resume:
        Re-read ``checkpoint`` first and skip completed units.

    Returns the :class:`ExperimentRun` with rows sorted by unit index.
    """
    spec = resolve_spec(spec)
    rows = list(
        iter_experiment(
            spec,
            shard=shard,
            workers=workers,
            checkpoint=checkpoint,
            resume=resume,
        )
    )
    rows.sort(key=lambda r: int(r["unit"]))
    return ExperimentRun(spec=spec, rows=rows, shard=shard)
