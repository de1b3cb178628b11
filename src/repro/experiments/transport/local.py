"""The sweep executor: every unit of a run goes through :func:`run_units`.

Units map over :func:`repro.experiments.pipeline.map_ordered` —
in-process when ``workers=1``, a bounded-in-flight process pool
otherwise — so rows come back in unit order by construction.  On a
pool the mapped item is a *cell*: a simulation spec's adjacent units
that share one workload and trace (equal
:func:`~repro.experiments.execute.cell_key`, i.e. its policies) travel
together to one worker, so a pooled sweep builds each cell once, as an
in-process one does, and its rows arrive when the whole cell is done.
In process every unit is its own item, so each row arrives the moment
its unit finishes.  A sweep that spans machines runs
``repro sweep --shard i/n`` on each and joins the checkpoints with
``repro sweep --merge``; the union is byte-identical to an unsharded
run.

:func:`execute_cell` looks up ``execute_item`` as a global of this
module at call time, so a caller may wrap it here (a profiler, say)
without touching :mod:`repro.experiments.execute`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator

from repro.experiments.execute import cell_key, execute_item
from repro.experiments.pipeline import map_ordered

if TYPE_CHECKING:
    from repro.experiments.spec import ScenarioSpec, WorkUnit


def execute_cell(
    args: "tuple[ScenarioSpec, list[tuple[WorkUnit, dict | None]]]",
) -> "list[tuple[bool, dict[str, object]]]":
    """Pool worker: run one cell's units in unit order (see :func:`execute_item`)."""
    spec, units = args
    return [execute_item((spec, unit, cached)) for unit, cached in units]


def run_units(
    spec: "ScenarioSpec",
    *,
    shard: "tuple[int, int] | None" = None,
    workers: int = 1,
    done: "dict[int, dict[str, object]] | None" = None,
) -> "Iterator[tuple[bool, dict[str, object]]]":
    """Yield ``(was_cached, row)`` for every unit of the shard, in unit order.

    ``done`` maps already-checkpointed unit indices to their rows; those
    come back with ``was_cached=True`` without re-execution, so the
    caller appends only fresh rows to its checkpoint.
    """
    done = done or {}
    units = ((unit, done.get(unit.index)) for unit in spec.expand(shard))
    if workers == 1:
        # The one-slot cell cache already builds each cell once here.
        cells = ([item] for item in units)
    else:
        cells = (
            list(items)
            for _key, items in itertools.groupby(
                units, key=lambda item: cell_key(spec, item[0])
            )
        )
    items = ((spec, cell) for cell in cells)
    for rows in map_ordered(execute_cell, items, workers=workers):
        yield from rows
