"""Work-unit execution: one spec unit in, one checkpoint row out.

This module is the bottom of the experiment stack — pure computation
with no knowledge of pools or checkpoints.  Its public face is
:func:`execute_item`, the function the sweep executor
(:func:`repro.experiments.transport.local.run_units`) calls once per
``(spec, unit, cached_row)`` triple.

Execution delegates to the same front doors everything else uses —
:func:`repro.core.solver.solve_mmd` for solve specs,
:func:`repro.sim.simulation.simulate_trace` for simulation specs (one
policy per unit, replaying a per-cell trace drawn from the cell's seed
exactly as :func:`~repro.sim.simulation.compare_policies` draws it) —
so a spec run and a hand-rolled loop produce identical numbers.  A
simulation cell's workload is built index-native
(:func:`~repro.instances.workloads.iptv_neighborhood_indexed` and its
siblings: arrays equal to lowering the dict scenario builders' output,
no per-user objects), and the indexed replay engines run on it without
ever lifting it to the string-keyed model.  Units expand cell-major, and a
pooled sweep executor hands each cell's adjacent units (equal
:func:`cell_key`) to one worker
(:func:`repro.experiments.transport.local.run_units`), so the one-slot
cell cache below builds each cell once per run, pooled or not (once per
shard when a sharded grid splits a cell's policies between shards).
"""

from __future__ import annotations

import math
import time

from repro.core.instance import MMDInstance
from repro.experiments.spec import ScenarioSpec, SpecError, WorkUnit


def _json_num(value: float) -> "float | str":
    """JSON-safe number (the instance-JSON convention: inf → ``"inf"``)."""
    return "inf" if math.isinf(value) else float(value)


def _solve_jain(assignment, instance: MMDInstance) -> float:
    """Jain fairness over per-user *capped* utility of a static solution.

    Same convention as
    :attr:`repro.sim.metrics.SimulationReport.jain_fairness`:
    ``(Σx)² / (n·Σx²)`` over the full population, ``1.0`` when nobody
    collects anything.
    """
    total = 0.0
    squares = 0.0
    for user in instance.users:
        x = min(assignment.raw_user_utility(user.user_id), user.utility_cap)
        total += x
        squares += x * x
    if squares == 0:
        return 1.0
    return total * total / (max(instance.num_users, 1) * squares)


def _build_solve_instance(spec: ScenarioSpec, unit: WorkUnit):
    """Materialize the instance of one solve unit (family dispatch)."""
    from repro.instances.generators import (
        random_mmd,
        random_smd,
        random_unit_skew_smd,
        small_streams_mmd,
        sweep_cell,
    )

    params = dict(spec.params)
    if spec.family == "jsonl":
        return MMDInstance.from_json(unit.payload)
    if spec.family == "sweep":
        return sweep_cell(
            unit.num_streams,
            unit.num_users,
            unit.skew,
            seed=unit.seed,
            engine=spec.gen_engine,
            **params,
        )
    if spec.family == "unit-skew-smd":
        return random_unit_skew_smd(
            unit.num_streams, unit.num_users, seed=unit.seed,
            engine=spec.gen_engine, **params,
        )
    if spec.family == "smd":
        return random_smd(
            unit.num_streams, unit.num_users, unit.skew, seed=unit.seed,
            engine=spec.gen_engine, **params,
        )
    if spec.family == "mmd":
        params.setdefault("m", 2)
        params.setdefault("mc", 1)
        return random_mmd(
            unit.num_streams, unit.num_users, seed=unit.seed,
            engine=spec.gen_engine, **params,
        )
    if spec.family == "small-streams":
        return small_streams_mmd(
            unit.num_streams, unit.num_users, seed=unit.seed,
            engine=spec.gen_engine, **params,
        )
    raise SpecError(f"unknown solve family {spec.family!r}")


def _execute_solve_unit(spec: ScenarioSpec, unit: WorkUnit) -> "dict[str, object]":
    """Generate-and-solve one unit; return its checkpoint row."""
    from repro.core.solver import solve_mmd

    from repro.config import resolve_engine_setting

    start = time.perf_counter()
    instance = _build_solve_instance(spec, unit)
    result = solve_mmd(instance, method=spec.method, engine=spec.engine)
    runtime = time.perf_counter() - start
    assignment = result.assignment
    lifted = assignment.instance
    return {
        "unit": unit.index,
        "id": unit.unit_id,
        "seed": unit.seed,
        "name": lifted.name,
        "streams": lifted.num_streams,
        "users": lifted.num_users,
        "skew": unit.skew,
        "replicate": unit.replicate,
        "method": result.method,
        "engine": resolve_engine_setting("solver", spec.engine),
        "utility": result.utility,
        "guarantee": _json_num(result.guarantee),
        "feasible": assignment.is_feasible(),
        "streams_carried": len(assignment.assigned_streams()),
        "jain": _solve_jain(assignment, lifted),
        "runtime": runtime,
    }


#: ``kind="simulate"`` workload factories (sizes positional, seed kwarg).
def _sim_workloads():
    """Name → index-native factory map for the simulation workloads.

    Each factory returns the :class:`~repro.core.indexed.IndexedInstance`
    of the same-named dict scenario builder (lazy import).
    """
    from repro.instances.workloads import (
        cable_headend_indexed,
        iptv_neighborhood_indexed,
        small_streams_indexed_workload,
    )

    return {
        "iptv": iptv_neighborhood_indexed,
        "cable-headend": cable_headend_indexed,
        "small-streams": small_streams_indexed_workload,
    }


def _sim_policy(name: str, seed: int):
    """Instantiate one admission policy by spec name."""
    from repro.sim.policies import (
        AllocatePolicy,
        DensityPolicy,
        RandomPolicy,
        ThresholdPolicy,
    )

    factories = {
        "threshold": ThresholdPolicy,
        "allocate": AllocatePolicy,
        "density": DensityPolicy,
        "random": lambda: RandomPolicy(seed=seed),
    }
    return factories[name]()


#: One-slot cache of the last simulation cell's (instance, trace).
#: Keyed by :func:`cell_key`.  Units expand cell-major — every policy
#: of a cell is adjacent — and a pooled executor keeps a cell's units
#: on one worker, so a multi-policy
#: spec builds each workload and draws each trace once per cell instead
#: of once per unit (matching what the pre-runner ``compare_policies``
#: loop did).
_SIM_CELL_CACHE: "dict[tuple, tuple]" = {}


def cell_key(spec: ScenarioSpec, unit: WorkUnit) -> tuple:
    """Units with equal keys share one cell's workload and trace.

    A simulation cell's units differ only in their policy; any other
    unit is a cell of its own.  The one-slot cell cache is keyed by it,
    and the pooled sweep executor groups a cell's adjacent units by it.
    """
    if spec.kind != "simulate":
        return (unit.index,)
    from repro.sim.indexed import resolve_sim_engine

    return (
        spec.family, unit.num_streams, unit.num_users, unit.seed,
        spec.horizon, spec.rate, spec.duration, spec.popularity,
        resolve_sim_engine(spec.sim_engine), spec.trace_store,
    )


def _sim_cell(spec: ScenarioSpec, unit: WorkUnit):
    """The unit's cell: the workload instance and the common trace.

    A spec with ``trace_store`` replays one shared on-disk store
    (opened zero-copy via mmap) instead of drawing a trace: every
    policy/replicate unit — and every *shard worker* of a distributed
    sweep — streams the same giant trace, which is how one 10⁸-event
    workload fans out across processes in bounded memory.
    """
    import inspect

    from repro.sim.indexed import draw_trace_arrays, resolve_sim_engine
    from repro.sim.simulation import ArrivalModel, draw_trace

    engine = resolve_sim_engine(spec.sim_engine)
    key = cell_key(spec, unit)
    cached = _SIM_CELL_CACHE.get(key)
    if cached is not None:
        return cached
    factory = _sim_workloads()[spec.family]
    # A None size axis means "the workload's default": read the default
    # off the factory signature so one axis may be pinned alone.
    sizes = list(inspect.signature(factory).parameters.values())
    num_streams = unit.num_streams if unit.num_streams is not None else sizes[0].default
    num_users = unit.num_users if unit.num_users is not None else sizes[1].default
    instance = factory(num_streams, num_users, seed=unit.seed)
    if spec.trace_store is not None:
        from repro.sim.store import TraceStore

        trace = TraceStore.open(spec.trace_store)
    elif engine != "dict":  # indexed and batched share the array draw
        model = ArrivalModel(
            rate=spec.rate,
            mean_duration=spec.duration,
            popularity_exponent=spec.popularity,
        )
        trace = draw_trace_arrays(instance, model, spec.horizon, unit.seed)
    else:
        model = ArrivalModel(
            rate=spec.rate,
            mean_duration=spec.duration,
            popularity_exponent=spec.popularity,
        )
        trace = draw_trace(instance, model, spec.horizon, unit.seed, engine="dict")
    _SIM_CELL_CACHE.clear()
    _SIM_CELL_CACHE[key] = (instance, trace, engine)
    return instance, trace, engine


def _execute_sim_unit(spec: ScenarioSpec, unit: WorkUnit) -> "dict[str, object]":
    """Replay one (workload cell, policy) unit; return its checkpoint row.

    The trace seed is the unit's *cell* seed (shared by every policy of
    the cell), so replays are common-random-number comparable exactly as
    :func:`repro.sim.simulation.compare_policies` makes them.  Store
    replays go through :func:`repro.sim.simulation.simulate_store`, so
    ``store_window`` streams the shared trace in bounded memory — with
    reports float-identical to monolithic replay by the stitching
    contract, keeping shard unions byte-identical regardless of window.
    """
    from repro.sim.simulation import simulate_store, simulate_trace

    start = time.perf_counter()
    instance, trace, engine = _sim_cell(spec, unit)
    if spec.trace_store is not None:
        report = simulate_store(
            instance,
            _sim_policy(unit.policy, unit.seed),
            trace,
            spec.horizon,
            engine=engine,
            window=spec.store_window,
        )
    else:
        report = simulate_trace(
            instance,
            _sim_policy(unit.policy, unit.seed),
            trace,
            spec.horizon,
            engine=engine,
        )
    runtime = time.perf_counter() - start
    return {
        "unit": unit.index,
        "id": unit.unit_id,
        "seed": unit.seed,
        "name": instance.name,
        "streams": instance.num_streams,
        "users": instance.num_users,
        "replicate": unit.replicate,
        "policy": unit.policy,
        "engine": engine,
        "utility_time": report.utility_time,
        "acceptance": report.acceptance_rate,
        "offered": report.offered,
        "admitted": report.admitted,
        "deliveries": report.deliveries,
        "violations": report.policy_violations,
        "peak_utilization": max(
            report.peak_server_utilization.values(), default=0.0
        ),
        "jain": report.jain_fairness,
        "runtime": runtime,
    }


def execute_item(
    args: "tuple[ScenarioSpec, WorkUnit, dict | None]",
) -> "tuple[bool, dict[str, object]]":
    """Pool worker: run one unit, or pass a checkpointed row through.

    Returns ``(was_cached, row)`` so the caller appends only freshly
    executed rows to the checkpoint.
    """
    spec, unit, cached = args
    if cached is not None:
        return True, cached
    if spec.kind == "simulate":
        return False, _execute_sim_unit(spec, unit)
    return False, _execute_solve_unit(spec, unit)
