"""Declarative scenario specs: a grid description that expands to work units.

A :class:`ScenarioSpec` describes one experiment — generator family (or
simulation workload) and its parameters, the size/skew/seed grid, the
solver or policies, and the engines — as plain data.  Specs load from
JSON (anywhere) or TOML (Python ≥ 3.11, where :mod:`tomllib` exists)
and ship with the package under ``repro/experiments/specs/``; see
:func:`builtin_specs`.

A spec **expands lazily** into a stream of numbered :class:`WorkUnit`
objects.  Unit numbering is the contract that makes distribution work:

- the unit's ``index`` is its position in the *full* grid, fixed by the
  spec alone;
- its ``seed`` is derived from ``(base_seed, index)`` via
  :func:`repro.util.rng.derive_seed` (never from sequential RNG state),
  so shard ``(i, n)`` — the units with ``index % n == i`` — draws
  exactly the per-unit seeds of the unsharded run;
- for simulation specs the seed is derived from the *cell* index (the
  grid without the policy axis), so every policy of a cell replays the
  same arrival trace (common random numbers), even across shards.

The runner (:mod:`repro.experiments.runner`) executes units; this module
knows nothing about solvers or simulators.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

from repro.config import ENGINE_SETTINGS
from repro.exceptions import ValidationError
from repro.util.rng import derive_seed


class SpecError(ValidationError):
    """A scenario spec is malformed (bad keys, types, or an empty grid)."""


#: Directory of the specs shipped with the package.
SPEC_DIR = Path(__file__).resolve().parent / "specs"

#: Generator families a ``kind="solve"`` spec may name.  ``"sweep"`` is
#: the catalog × population × skew dispatch of
#: :func:`repro.instances.generators.sweep_instances` (unit-skew family
#: for ``skew <= 1`` cells, bounded-skew otherwise); ``"jsonl"`` reads
#: pre-serialized instances from ``input`` instead of generating.
SOLVE_FAMILIES = ("sweep", "unit-skew-smd", "smd", "mmd", "small-streams", "jsonl")

#: Named workloads a ``kind="simulate"`` spec may name.
SIM_WORKLOADS = ("iptv", "cable-headend", "small-streams")

#: Admission policies a ``kind="simulate"`` spec may request.
SIM_POLICIES = ("threshold", "allocate", "density", "random")

#: Row metrics an adaptive sweep may refine on, per spec kind.  Each is
#: a numeric key present in every checkpoint row of that kind.
REFINE_METRICS = {
    "solve": ("utility", "jain"),
    "simulate": ("utility_time", "acceptance", "jain", "peak_utilization"),
}


@dataclass(frozen=True)
class WorkUnit:
    """One numbered cell of an expanded scenario grid.

    Attributes
    ----------
    index:
        Position in the full grid — the shard key and checkpoint id.
    unit_id:
        Human-readable stable id (``"s20-u50-a4-r0"`` style).
    seed:
        The unit's derived instance/trace seed (see module docstring).
    num_streams / num_users:
        Cell sizes; ``None`` means "the workload's default size"
        (simulation specs) or "taken from the payload" (JSONL input).
    skew:
        Cell local-skew target (solve grids).
    replicate:
        Seed-replicate coordinate of the cell.
    policy:
        Admission policy name (simulation specs only).
    payload:
        Raw instance JSON for ``family="jsonl"`` units.
    """

    index: int
    unit_id: str
    seed: int
    num_streams: "int | None" = None
    num_users: "int | None" = None
    skew: float = 1.0
    replicate: int = 0
    policy: "str | None" = None
    payload: "str | None" = None


def _tuple_of(value, caster, key: str) -> tuple:
    """Coerce a JSON/TOML list (or single scalar) to a tuple via ``caster``."""
    if isinstance(value, (str, bytes)):
        raise SpecError(f"spec field {key!r} must be a list, got {value!r}")
    try:
        items = list(value)
    except TypeError:
        items = [value]
    try:
        return tuple(caster(v) for v in items)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"spec field {key!r} has a bad entry: {exc}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative experiment: family/workload + grid + solver/policies.

    Attributes
    ----------
    name:
        Spec name (reported in results; defaults to the file stem).
    kind:
        ``"solve"`` (batch-solve generated or serialized instances) or
        ``"simulate"`` (replay admission policies over drawn traces).
    family:
        One of :data:`SOLVE_FAMILIES` or :data:`SIM_WORKLOADS`.
    streams / users:
        Grid axes of catalog and population sizes.  ``None`` on a
        simulation spec means the workload's default size.
    skews:
        Local-skew axis (solve grids; ``1.0`` = the §2 unit-skew cell).
    replicates:
        Number of seed replicates per cell.
    base_seed:
        Root of the per-unit seed derivation.
    seeds:
        Explicit per-replicate seeds.  When given, replicate ``r`` of
        *every* cell uses ``seeds[r]`` (common random numbers across
        sizes) and ``replicates`` must equal ``len(seeds)``.
    method:
        Class solver for solve specs (``"greedy"`` / ``"enumeration"``).
    engine / gen_engine / sim_engine:
        Engine choices (``None`` = the generator's or seam's own
        default; see :mod:`repro.config`).
    params:
        Extra generator keyword arguments (``density``,
        ``budget_fraction``, ``m``, ``mc``, ``headroom``, …).
    input:
        JSONL instance file for ``family="jsonl"``.
    policies:
        Admission policies of a simulation spec (each becomes a grid
        axis; all policies of a cell share the cell's trace seed).
    horizon / rate / duration / popularity:
        Arrival model of a simulation spec.
    trace_store:
        Path to an on-disk columnar trace store
        (:mod:`repro.sim.store`); every policy/replicate unit of the
        spec replays this one shared store instead of drawing a trace,
        so a sharded sweep streams one giant trace across workers.
        The arrival-model fields (``rate``/``duration``/
        ``popularity``) do not apply — the store *is* the workload.
    store_window:
        Streamed-replay window (time units) for ``trace_store`` units
        under the indexed/batched engines; reports are float-identical
        to monolithic replay, only peak memory changes.
    refine_metric:
        Row metric an adaptive sweep scores cells by (one of
        :data:`REFINE_METRICS` for the spec's kind; ``None`` = the
        kind's headline objective).  Ignored by plain single-round
        runs.
    """

    name: str
    kind: str
    family: str
    streams: "tuple[int, ...] | None" = None
    users: "tuple[int, ...] | None" = None
    skews: "tuple[float, ...]" = (1.0,)
    replicates: int = 1
    base_seed: int = 0
    seeds: "tuple[int, ...] | None" = None
    method: str = "greedy"
    engine: "str | None" = None
    gen_engine: "str | None" = None
    sim_engine: "str | None" = None
    params: "dict[str, object]" = field(default_factory=dict)
    input: "str | None" = None
    policies: "tuple[str, ...]" = ()
    horizon: float = 300.0
    rate: float = 2.0
    duration: float = 30.0
    popularity: float = 1.0
    trace_store: "str | None" = None
    store_window: "float | None" = None
    refine_metric: "str | None" = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Check structural validity; raise :class:`SpecError` otherwise.

        An empty grid (no sizes, zero replicates, a simulation spec
        without policies) is rejected here too: a spec that expands to
        zero work units is a mistake, not an experiment.  So are fields
        that do not apply to the spec's kind — a ``skews`` axis on a
        simulation spec would be silently dropped otherwise, running a
        fraction of the grid its author intended.
        """
        if self.kind not in ("solve", "simulate"):
            raise SpecError(f"unknown spec kind {self.kind!r}; pick 'solve' or 'simulate'")
        if self.replicates < 1:
            raise SpecError(f"replicates must be >= 1, got {self.replicates}")
        if self.seeds is not None and len(self.seeds) != self.replicates:
            raise SpecError(
                f"explicit seeds ({len(self.seeds)}) must match replicates "
                f"({self.replicates})"
            )
        self._reject_foreign_fields()
        if self.kind == "solve":
            if self.family not in SOLVE_FAMILIES:
                raise SpecError(
                    f"unknown solve family {self.family!r}; pick one of {SOLVE_FAMILIES}"
                )
            if self.family == "jsonl":
                if not self.input:
                    raise SpecError("family 'jsonl' needs an 'input' file")
            else:
                if not self.streams or not self.users:
                    raise SpecError(
                        f"spec {self.name!r} expands to an empty grid: non-empty "
                        "'streams' and 'users' axes are required"
                    )
                if not self.skews:
                    raise SpecError(f"spec {self.name!r} has an empty 'skews' axis")
        else:
            if self.family not in SIM_WORKLOADS:
                raise SpecError(
                    f"unknown workload {self.family!r}; pick one of {SIM_WORKLOADS}"
                )
            if not self.policies:
                raise SpecError(
                    f"spec {self.name!r} expands to an empty grid: a simulation "
                    "spec needs at least one policy"
                )
            unknown = [p for p in self.policies if p not in SIM_POLICIES]
            if unknown:
                raise SpecError(f"unknown policies {unknown}; pick from {SIM_POLICIES}")
            if self.streams == () or self.users == ():
                raise SpecError(f"spec {self.name!r} has an empty size axis")
            if self.trace_store is not None:
                for name, default in self._SIM_ONLY_DEFAULTS:
                    if name != "horizon" and getattr(self, name) != default:
                        raise SpecError(
                            f"{name!r} does not apply when 'trace_store' "
                            "replays a pre-drawn store (the store is the "
                            "workload; only 'horizon' still cuts it off)"
                        )
            if self.store_window is not None:
                if self.trace_store is None:
                    raise SpecError(
                        "'store_window' needs a 'trace_store' to stream"
                    )
                if not math.isfinite(self.store_window) or self.store_window <= 0:
                    raise SpecError(
                        f"'store_window' must be a positive finite number, "
                        f"got {self.store_window!r}"
                    )
        if self.method not in ("greedy", "enumeration"):
            raise SpecError(f"unknown method {self.method!r}")
        for field_name, kind in (
            ("engine", "solver"),
            ("gen_engine", "generation"),
            ("sim_engine", "simulation"),
        ):
            value = getattr(self, field_name)
            if value is not None and value not in ENGINE_SETTINGS[kind].choices:
                raise SpecError(
                    f"spec field {field_name!r}: unknown {ENGINE_SETTINGS[kind].label} "
                    f"{value!r}; pick one of {ENGINE_SETTINGS[kind].choices}"
                )
        if (
            self.refine_metric is not None
            and self.refine_metric not in REFINE_METRICS[self.kind]
        ):
            raise SpecError(
                f"unknown refine_metric {self.refine_metric!r} for "
                f"kind={self.kind!r}; pick one of {REFINE_METRICS[self.kind]}"
            )
        return self

    #: Arrival-model fields with their defaults (simulation-only).
    _SIM_ONLY_DEFAULTS = (
        ("horizon", 300.0), ("rate", 2.0), ("duration", 30.0), ("popularity", 1.0),
    )

    def _reject_foreign_fields(self) -> None:
        """Raise on fields set on a spec kind they do not apply to."""
        if self.kind == "solve":
            if self.policies:
                raise SpecError("'policies' only applies to kind='simulate' specs")
            if self.sim_engine is not None:
                raise SpecError("'sim_engine' only applies to kind='simulate' specs")
            if self.trace_store is not None or self.store_window is not None:
                raise SpecError(
                    "'trace_store'/'store_window' only apply to "
                    "kind='simulate' specs"
                )
            for name, default in self._SIM_ONLY_DEFAULTS:
                if getattr(self, name) != default:
                    raise SpecError(
                        f"{name!r} only applies to kind='simulate' specs"
                    )
            if self.family != "jsonl" and self.input is not None:
                raise SpecError("'input' only applies to family='jsonl' specs")
        else:
            if self.skews != (1.0,):
                raise SpecError("'skews' only applies to kind='solve' specs")
            if self.method != "greedy":
                raise SpecError("'method' only applies to kind='solve' specs")
            if self.engine is not None or self.gen_engine is not None:
                raise SpecError(
                    "'engine'/'gen_engine' only apply to kind='solve' specs"
                )
            if self.input is not None:
                raise SpecError("'input' only applies to kind='solve' specs")

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def _seed_for(self, cell_index: int, replicate: int) -> int:
        """Per-cell seed: explicit replicate seed, else derived."""
        if self.seeds is not None:
            return int(self.seeds[replicate])
        return derive_seed(self.base_seed, cell_index)

    def num_units(self) -> "int | None":
        """Size of the full grid (``None`` for file-backed specs)."""
        if self.kind == "solve" and self.family == "jsonl":
            return None
        if self.kind == "solve":
            return (
                len(self.streams) * len(self.users) * len(self.skews) * self.replicates
            )
        sizes = self._sim_sizes()
        return len(sizes) * self.replicates * len(self.policies)

    def _sim_sizes(self) -> "list[tuple[int | None, int | None]]":
        """The (streams, users) size cells of a simulation grid."""
        if self.streams is None and self.users is None:
            return [(None, None)]
        streams = self.streams if self.streams is not None else (None,)
        users = self.users if self.users is not None else (None,)
        return list(itertools.product(streams, users))

    def expand(self, shard: "tuple[int, int] | None" = None) -> "Iterator[WorkUnit]":
        """Stream the numbered work units, optionally one shard's worth.

        ``shard=(i, n)`` keeps the units with ``index % n == i``; the
        ``index`` and ``seed`` of a kept unit are identical to what the
        unsharded expansion assigns it.
        """
        self.validate()
        if shard is not None:
            i, n = shard
            if n < 1 or not 0 <= i < n:
                raise SpecError(f"bad shard {i}/{n}: need 0 <= i < n")
        for unit in self._expand_all():
            if shard is None or unit.index % shard[1] == shard[0]:
                yield unit

    def _expand_all(self) -> "Iterator[WorkUnit]":
        if self.kind == "solve" and self.family == "jsonl":
            yield from self._expand_jsonl()
            return
        if self.kind == "solve":
            grid = itertools.product(
                self.streams, self.users, self.skews, range(self.replicates)
            )
            for t, (ns, nu, skew, rep) in enumerate(grid):
                yield WorkUnit(
                    index=t,
                    unit_id=f"s{ns}-u{nu}-a{skew:g}-r{rep}",
                    seed=self._seed_for(t, rep),
                    num_streams=ns,
                    num_users=nu,
                    skew=skew,
                    replicate=rep,
                )
            return
        index = 0
        for cell, ((ns, nu), rep) in enumerate(
            itertools.product(self._sim_sizes(), range(self.replicates))
        ):
            seed = self._seed_for(cell, rep)
            for policy in self.policies:
                size = f"s{ns if ns is not None else 'dflt'}-u{nu if nu is not None else 'dflt'}"
                yield WorkUnit(
                    index=index,
                    unit_id=f"{size}-r{rep}-{policy}",
                    seed=seed,
                    num_streams=ns,
                    num_users=nu,
                    replicate=rep,
                    policy=policy,
                )
                index += 1

    def _expand_jsonl(self) -> "Iterator[WorkUnit]":
        """Units from a JSONL instance stream: one per non-blank line.

        ``input="-"`` reads stdin — lazily, so a shell pipeline's
        producer and this consumer run concurrently (each line is
        pulled only when the runner wants the next unit).  A stdin
        stream can of course only be expanded once per process.
        """
        import contextlib
        import sys

        if self.input == "-":
            context = contextlib.nullcontext(sys.stdin)
        else:
            path = Path(self.input)
            if not path.exists():
                raise SpecError(f"input file {self.input!r} does not exist")
            context = path.open()
        index = 0
        with context as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                yield WorkUnit(
                    index=index,
                    unit_id=f"line{index}",
                    seed=self._seed_for(index, 0),
                    payload=line,
                )
                index += 1

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> "dict[str, object]":
        """Plain-data form (what :func:`spec_from_dict` accepts)."""
        data: "dict[str, object]" = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or (f.name == "params" and not value):
                continue
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return data

    def spec_hash(self) -> str:
        """Short content hash of the grid (12 hex chars).

        The sha256 of the canonical ``to_dict`` JSON (sorted keys),
        truncated.  Stamped into every checkpoint row so resume and
        merge can tell "same spec" from "coincidentally overlapping
        unit ids" — the distributed-sweep provenance check.
        """
        import hashlib

        canonical = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(canonical).hexdigest()[:12]


#: Spec fields settable from a file, with their coercions.
_TUPLE_FIELDS = {
    "streams": int,
    "users": int,
    "skews": float,
    "seeds": int,
    "policies": str,
}
_SCALAR_FIELDS = {
    "name": str,
    "kind": str,
    "family": str,
    "replicates": int,
    "base_seed": int,
    "method": str,
    "engine": str,
    "gen_engine": str,
    "sim_engine": str,
    "input": str,
    "horizon": float,
    "rate": float,
    "duration": float,
    "popularity": float,
    "trace_store": str,
    "store_window": float,
    "refine_metric": str,
}


def spec_from_dict(data: "dict[str, object]", name: str = "") -> ScenarioSpec:
    """Build (and validate) a :class:`ScenarioSpec` from plain data.

    Unknown keys are rejected — a typo'd axis silently ignored would
    corrupt a distributed run's numbering.
    """
    if not isinstance(data, dict):
        raise SpecError(f"spec must be a table/object, got {type(data).__name__}")
    kwargs: "dict[str, object]" = {}
    for key, value in data.items():
        if key in _TUPLE_FIELDS:
            kwargs[key] = _tuple_of(value, _TUPLE_FIELDS[key], key)
        elif key in _SCALAR_FIELDS:
            try:
                kwargs[key] = _SCALAR_FIELDS[key](value)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"spec field {key!r}: {exc}") from None
        elif key == "params":
            if not isinstance(value, dict):
                raise SpecError(f"spec field 'params' must be a table, got {value!r}")
            kwargs[key] = dict(value)
        else:
            raise SpecError(f"unknown spec field {key!r}")
    kwargs.setdefault("name", name or "unnamed")
    for required in ("kind", "family"):
        if required not in kwargs:
            raise SpecError(f"spec is missing the required field {required!r}")
    return ScenarioSpec(**kwargs).validate()


def load_spec(path: "str | Path") -> ScenarioSpec:
    """Load a spec file (``.json`` anywhere; ``.toml`` on Python ≥ 3.11)."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file {str(path)!r} does not exist")
    text = path.read_text()
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # Python 3.10: stdlib has no TOML parser
            raise SpecError(
                f"{path.name}: TOML specs need Python >= 3.11 (tomllib); "
                "use the JSON form instead"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path.name}: invalid TOML: {exc}") from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path.name}: invalid JSON: {exc}") from None
    return spec_from_dict(data, name=path.stem)


def builtin_specs() -> "dict[str, Path]":
    """The specs shipped under ``repro/experiments/specs/``, by name."""
    found: "dict[str, Path]" = {}
    if SPEC_DIR.is_dir():
        for path in sorted(SPEC_DIR.iterdir()):
            if path.suffix in (".json", ".toml"):
                found[path.stem] = path
    return found


def resolve_spec(ref: "str | Path | ScenarioSpec") -> ScenarioSpec:
    """Resolve a spec reference: an object, a file path, or a builtin name."""
    if isinstance(ref, ScenarioSpec):
        return ref.validate()
    path = Path(ref)
    if path.exists():
        return load_spec(path)
    builtin = builtin_specs().get(str(ref))
    if builtin is not None:
        return load_spec(builtin)
    raise SpecError(
        f"no spec file {str(ref)!r} and no builtin spec of that name; "
        f"builtins: {sorted(builtin_specs())}"
    )
