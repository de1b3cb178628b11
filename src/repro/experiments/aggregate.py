"""Aggregation: turning checkpoint rows into deterministic artifacts.

The top of the experiment stack.  :class:`ExperimentRun` holds one
run's rows sorted by unit index and writes the columnar outputs: a
deterministic JSONL (runtimes and provenance stripped, keys sorted —
shard unions and pooled runs are byte-identical to an unsharded
in-process run) and an ``.npz`` of per-unit objective, runtime and
Jain fairness arrays.  :func:`merge_checkpoints` unions shard
checkpoint files back into one full-grid run, refusing loudly when the
union and the spec's grid disagree — missing units, unknown unit
indices, or rows stamped with a different spec hash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError
from repro.experiments.checkpoint import read_checkpoint, row_text
from repro.experiments.spec import ScenarioSpec, resolve_spec

#: Checkpoint/aggregate row fields that are **not** deterministic across
#: runs (stripped from the aggregate JSONL, kept in checkpoints/.npz).
NONDETERMINISTIC_FIELDS = ("runtime",)

#: Row fields recording *where a row came from* rather than what it
#: measured (stripped from aggregates along with the nondeterministic
#: fields, kept in checkpoints so merges can verify shard provenance).
PROVENANCE_FIELDS = ("spec_hash",)


def strip_row(row: "dict[str, object]") -> "dict[str, object]":
    """Drop the nondeterministic and provenance fields of one row."""
    dropped = set(NONDETERMINISTIC_FIELDS) | set(PROVENANCE_FIELDS)
    return {k: v for k, v in row.items() if k not in dropped}


@dataclass
class ExperimentRun:
    """Aggregated result of one (possibly sharded/resumed) spec run.

    Attributes
    ----------
    spec:
        The executed spec.
    rows:
        One dict per completed unit, sorted by unit index.
    shard:
        The shard this run covered (``None`` = the full grid).
    """

    spec: ScenarioSpec
    rows: "list[dict[str, object]]" = field(default_factory=list)
    shard: "tuple[int, int] | None" = None

    @property
    def objective_key(self) -> str:
        """The headline metric's row key for this spec kind."""
        return "utility_time" if self.spec.kind == "simulate" else "utility"

    def columnar(self) -> "dict[str, np.ndarray]":
        """Per-unit arrays: unit ids, seeds, objective, runtime, Jain."""
        key = self.objective_key
        return {
            "unit": np.array([r["unit"] for r in self.rows], dtype=np.int64),
            "seed": np.array([r["seed"] for r in self.rows], dtype=np.uint64),
            "objective": np.array([r[key] for r in self.rows], dtype=np.float64),
            "runtime": np.array(
                [r.get("runtime", 0.0) for r in self.rows], dtype=np.float64
            ),
            "jain": np.array([r["jain"] for r in self.rows], dtype=np.float64),
        }

    def to_npz(self, path: "str | Path") -> None:
        """Write the columnar arrays (plus the spec, as JSON) to ``.npz``."""
        columns = self.columnar()
        np.savez_compressed(
            Path(path),
            spec=np.frombuffer(
                json.dumps(self.spec.to_dict(), sort_keys=True).encode(), dtype=np.uint8
            ),
            **columns,
        )

    def to_jsonl(self, path: "str | Path | None" = None) -> str:
        """Deterministic aggregate JSONL (runtimes stripped, keys sorted).

        Two shard runs merged, an unsharded run, and a pooled run of
        the same spec produce byte-identical text here — the
        acceptance contract of cross-machine sweeps.  Returns the text;
        writes it when ``path`` is given.
        """
        lines = [row_text(strip_row(row)) for row in self.rows]
        text = "".join(line + "\n" for line in lines)
        if path is not None:
            Path(path).write_text(text)
        return text

    def missing_units(self) -> "list[int]":
        """Unit indices of the covered grid that have no row yet."""
        have = {int(r["unit"]) for r in self.rows}
        expected = [u.index for u in self.spec.expand(self.shard)]
        return [i for i in expected if i not in have]


def merge_checkpoints(
    spec: "ScenarioSpec | str | Path", paths: "list[str | Path]"
) -> ExperimentRun:
    """Aggregate shard checkpoint files into one full-grid run.

    Rows are keyed by unit index (duplicates collapse — re-running a
    shard is harmless); raises
    :class:`~repro.exceptions.ValidationError` when the union does not
    match the spec's grid exactly — rows stamped with a different spec
    hash, checkpoint rows whose unit indices the spec does not expand to
    (both the telltale of merging against the wrong or a stale spec —
    the message names both hashes), or units missing from the
    checkpoints.
    """
    spec = resolve_spec(spec)
    merged: "dict[int, dict[str, object]]" = {}
    for path in paths:
        merged.update(read_checkpoint(path))
    ours = spec.spec_hash()
    theirs = sorted(
        {str(r["spec_hash"]) for r in merged.values() if "spec_hash" in r}
        - {ours}
    )
    expected = {unit.index for unit in spec.expand()}
    extra = sorted(set(merged) - expected)
    if extra:
        hashes = (
            f"checkpoint rows carry spec hash {', '.join(theirs)} but this "
            f"spec hashes to {ours}"
            if theirs
            else f"this spec hashes to {ours}"
        )
        raise ValidationError(
            f"checkpoints contain {len(extra)} unit ids the spec does not "
            f"expand to (starting at {extra[:5]}); {hashes} — are these "
            "shards from a different spec revision?"
        )
    if theirs:
        raise ValidationError(
            f"checkpoint rows carry spec hash {', '.join(theirs)} but this "
            f"spec hashes to {ours}; are these shards from a different "
            "spec revision?"
        )
    missing = sorted(expected - set(merged))
    if missing:
        raise ValidationError(
            f"merged checkpoints cover {len(merged)} units but the spec "
            f"expands to {len(expected)}; "
            f"missing unit ids start at {missing[:5]}"
        )
    return ExperimentRun(
        spec=spec, rows=[merged[i] for i in sorted(merged)], shard=None
    )
