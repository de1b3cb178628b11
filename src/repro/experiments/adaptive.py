"""Round-based adaptive grid refinement over the experiment runner.

:func:`run_adaptive` runs a spec's grid coarsely, scores each cell by
the spec's refinement metric (``refine_metric``, defaulting to the
kind's headline objective), and subdivides the axis neighborhoods of
the top-``k`` cells into the next round's grid — running each round
through :func:`~repro.experiments.runner.run_experiment`.  The
procedure is a pure function of ``(spec, rounds, top_k)``:

- per-unit seeds derive from ``(base_seed, index)`` of each round's
  grid, never from RNG state carried between rounds;
- cell scores are means of checkpointed row values, so a resumed round
  scores identically to an uninterrupted one;
- subdivision is arithmetic (midpoints between a top cell's axis value
  and its nearest already-seen neighbors, integer axes rounded down,
  already-seen values skipped) with deterministic tie-breaks
  (``(-score, cell)`` ordering).

Every round checkpoints under the same resumable scheme as a flat
sweep — round ``r`` appends to ``<checkpoint>.round<r>`` — so a run
killed mid-round resumes byte-identically: completed rounds replay
from their files, the interrupted round continues from its partial
checkpoint, and later rounds re-derive the same grids.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ValidationError
from repro.experiments.aggregate import ExperimentRun
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ScenarioSpec, resolve_spec

#: The grid axes refinement may subdivide, per spec kind (with their
#: value types — integer axes take floor midpoints).
REFINE_AXES = {
    "solve": (("streams", int), ("users", int), ("skews", float)),
    "simulate": (("streams", int), ("users", int)),
}


@dataclass
class AdaptiveRun:
    """The aggregated result of an adaptive multi-round sweep.

    Attributes
    ----------
    spec:
        The round-0 (coarse) spec.
    rounds:
        One :class:`~repro.experiments.aggregate.ExperimentRun` per
        executed round, in order.  Fewer than requested when the grid
        converged early (no new axis values to try).
    """

    spec: ScenarioSpec
    rounds: "list[ExperimentRun]" = field(default_factory=list)

    @property
    def final(self) -> ExperimentRun:
        """The last round's run (the most refined grid)."""
        return self.rounds[-1]

    def to_jsonl(self, path: "str | Path | None" = None) -> str:
        """Deterministic aggregate: the rounds' JSONL, concatenated.

        Byte-identical across reruns and pool widths, including a run
        killed mid-round and resumed — the adaptive acceptance
        contract.  Returns the text; writes it when ``path`` is given.
        """
        text = "".join(run.to_jsonl() for run in self.rounds)
        if path is not None:
            Path(path).write_text(text)
        return text


def _check_refinable(spec: ScenarioSpec) -> None:
    """Reject specs whose grids refinement cannot subdivide."""
    if spec.kind == "solve" and spec.family == "jsonl":
        raise ValidationError(
            "adaptive refinement needs a generated grid; family='jsonl' "
            "units come from a file and have no axes to subdivide"
        )
    for axis, _kind in REFINE_AXES[spec.kind]:
        if getattr(spec, axis) is None:
            raise ValidationError(
                f"adaptive refinement needs an explicit {axis!r} axis; "
                "default-size cells cannot be subdivided"
            )


def _cell_key(spec: ScenarioSpec, unit) -> "tuple":
    """A unit's grid-cell coordinates along the refinable axes."""
    if spec.kind == "solve":
        return (unit.num_streams, unit.num_users, unit.skew)
    return (unit.num_streams, unit.num_users)


def _score_cells(
    spec: ScenarioSpec, run: ExperimentRun, metric: str
) -> "dict[tuple, float]":
    """Mean metric per grid cell (over replicates/policies/methods)."""
    by_index = {int(r["unit"]): r for r in run.rows}
    totals: "dict[tuple, list[float]]" = {}
    for unit in spec.expand():
        row = by_index.get(unit.index)
        if row is None:
            continue
        totals.setdefault(_cell_key(spec, unit), []).append(float(row[metric]))
    return {
        cell: sum(values) / len(values) for cell, values in totals.items()
    }


def _midpoints(
    value, neighbors: "list", seen: "set", integral: bool
) -> "set":
    """New values between ``value`` and its nearest seen neighbors."""
    fresh = set()
    below = [n for n in neighbors if n < value]
    above = [n for n in neighbors if n > value]
    for other in ([max(below)] if below else []) + ([min(above)] if above else []):
        mid = (value + other) // 2 if integral else (value + other) / 2
        if mid not in seen and mid != value and mid != other:
            fresh.add(mid)
    return fresh


def _refine_axes(
    spec: ScenarioSpec,
    top_cells: "list[tuple]",
    seen: "dict[str, set]",
) -> "tuple[dict[str, tuple], bool]":
    """Next round's axis values around the top cells; False = converged."""
    next_axes: "dict[str, tuple]" = {}
    grew = False
    for position, (axis, kind) in enumerate(REFINE_AXES[spec.kind]):
        top_values = sorted({cell[position] for cell in top_cells})
        neighbors = sorted(seen[axis])
        fresh: "set" = set()
        for value in top_values:
            fresh |= _midpoints(value, neighbors, seen[axis], kind is int)
        if fresh:
            grew = True
        seen[axis] |= fresh
        next_axes[axis] = tuple(sorted(set(top_values) | fresh))
    return next_axes, grew


def run_adaptive(
    spec: "ScenarioSpec | str | Path",
    *,
    rounds: int = 1,
    top_k: int = 1,
    workers: int = 1,
    checkpoint: "str | Path | None" = None,
    resume: bool = False,
) -> AdaptiveRun:
    """Run an adaptive (coarse → refined) sweep; see module docstring.

    Parameters
    ----------
    spec:
        The coarse round-0 grid (object, file path, or builtin name).
    rounds:
        Total rounds to run (``1`` = a plain sweep wrapped in an
        :class:`AdaptiveRun`); stops early when no axis can grow.
    top_k:
        Cells kept per round (highest mean ``refine_metric``; ties
        break on cell coordinates).
    workers / checkpoint / resume:
        Exactly as :func:`repro.experiments.runner.run_experiment`;
        round ``r`` checkpoints to ``<checkpoint>.round<r>``.
    """
    base = resolve_spec(spec)
    _check_refinable(base)
    if rounds < 1:
        raise ValidationError(f"adaptive rounds must be >= 1, got {rounds}")
    if top_k < 1:
        raise ValidationError(f"refine top-k must be >= 1, got {top_k}")
    metric = base.refine_metric or (
        "utility_time" if base.kind == "simulate" else "utility"
    )
    seen = {
        axis: set(getattr(base, axis))
        for axis, _kind in REFINE_AXES[base.kind]
    }
    result = AdaptiveRun(spec=base)
    current = base
    for round_index in range(rounds):
        round_checkpoint = (
            f"{checkpoint}.round{round_index}" if checkpoint is not None else None
        )
        run = run_experiment(
            current,
            workers=workers,
            checkpoint=round_checkpoint,
            resume=resume,
        )
        result.rounds.append(run)
        if round_index == rounds - 1:
            break
        scores = _score_cells(current, run, metric)
        top_cells = [
            cell
            for cell in sorted(scores, key=lambda c: (-scores[c], c))[:top_k]
        ]
        next_axes, grew = _refine_axes(current, top_cells, seen)
        if not grew:
            break  # nothing new to try: the grid has converged
        current = dataclasses.replace(
            base,
            name=f"{base.name}+round{round_index + 1}",
            **next_axes,
        ).validate()
    return result
