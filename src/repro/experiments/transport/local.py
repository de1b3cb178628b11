"""The sweep executor: every unit of a run goes through :func:`run_units`.

Units map over :func:`repro.experiments.pipeline.map_ordered` —
in-process when ``workers=1``, a bounded-in-flight process pool
otherwise — so rows come back in unit order by construction.  A sweep
that spans machines runs ``repro sweep --shard i/n`` on each and joins
the checkpoints with ``repro sweep --merge``; the union is
byte-identical to an unsharded run.

:func:`run_units` looks up ``execute_item`` as a global of this module
at call time, so a caller may wrap it here (a profiler, say) without
touching :mod:`repro.experiments.execute`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.experiments.execute import execute_item
from repro.experiments.pipeline import map_ordered

if TYPE_CHECKING:
    from repro.experiments.spec import ScenarioSpec


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
    items = ((spec, unit, done.get(unit.index)) for unit in spec.expand(shard))
    yield from map_ordered(execute_item, items, workers=workers)
