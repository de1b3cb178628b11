"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``
    Emit an instance (JSON) from a named family or workload.
``validate``
    Validate an instance file; ``--sanitize`` repairs utility entries
    that violate the paper's overload convention.
``info``
    Print an instance's parameters: shape, skews, theorem bounds.
``solve``
    Run the paper pipeline (and optionally the exact solver) on an
    instance file; print the solution summary.
``solve-many``
    Batch-solve a JSONL stream of instances — or a generated
    catalog × population × skew sweep — optionally over a process pool;
    emit one JSON result per line.  (Delegates to the experiment
    runner; ``repro sweep`` is the full-featured door.)
``simulate``
    Run the discrete-event simulator on a named workload under one or
    more policies and print the comparison table.
``sweep``
    Run a declarative scenario spec (a file, or a shipped name such as
    ``e12-generation``) through the sharded resumable experiment
    runner: ``--shard i/n`` splits the grid across machines,
    ``--checkpoint``/``--resume`` survive kills, ``--merge`` folds
    shard checkpoints into one aggregate.
``simulate-many``
    The simulation counterpart: a workload × size × seed × policy grid
    through the same runner (specs of ``kind = "simulate"``, or an
    inline grid from flags).
``serve``
    The crash-safe live admission service: ``serve run`` starts (or
    restores) the HTTP/JSON front door over one online allocator —
    WAL + snapshots in ``--dir``, load shedding under overload;
    ``serve restore`` recovers a directory offline and prints what it
    took (torn bytes repaired, tail replayed, state digest).

All commands read/write plain JSON (``generate --count``,
``solve-many``, ``sweep`` and ``simulate-many`` stream JSON Lines) so
they compose with shell pipelines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core.allocate import global_skew_parameters, small_streams_condition
from repro.core.instance import MMDInstance
from repro.core.optimal import lp_upper_bound, solve_exact_milp
from repro.core.solver import solve_mmd, theorem_1_1_bound
from repro.config import ENGINE_SETTINGS
from repro.exceptions import ValidationError
from repro.experiments.spec import ScenarioSpec, SpecError
from repro.instances.generators import (
    random_mmd,
    random_smd,
    random_unit_skew_smd,
    small_streams_mmd,
    tightness_instance,
)
from repro.instances.workloads import (
    cable_headend_workload,
    iptv_neighborhood_workload,
    small_streams_workload,
)
from repro.util.tables import Table

def _gen_engine(args: argparse.Namespace) -> "str | None":
    """The ``--gen-engine`` choice (None resolves via $REPRO_GEN_ENGINE)."""
    return getattr(args, "gen_engine", None)


#: Named generators reachable from ``generate --family``.
FAMILIES = {
    "unit-skew-smd": lambda args: random_unit_skew_smd(
        args.streams, args.users, seed=args.seed, engine=_gen_engine(args)
    ),
    "smd": lambda args: random_smd(
        args.streams, args.users, args.skew, seed=args.seed, engine=_gen_engine(args)
    ),
    "mmd": lambda args: random_mmd(
        args.streams, args.users, m=args.m, mc=args.mc, seed=args.seed,
        engine=_gen_engine(args),
    ),
    "small-streams": lambda args: small_streams_mmd(
        args.streams, args.users, m=args.m, mc=args.mc, seed=args.seed,
        engine=_gen_engine(args),
    ),
    "tightness": lambda args: tightness_instance(args.m, args.mc),
    "cable-headend": lambda args: cable_headend_workload(
        num_channels=args.streams, num_gateways=args.users, seed=args.seed
    ),
    "iptv": lambda args: iptv_neighborhood_workload(
        num_channels=args.streams, num_households=args.users, seed=args.seed
    ),
    "small-streams-workload": lambda args: small_streams_workload(
        num_channels=args.streams, num_households=args.users, seed=args.seed
    ),
}

WORKLOADS = {
    "iptv": iptv_neighborhood_workload,
    "cable-headend": cable_headend_workload,
    "small-streams": small_streams_workload,
}


def _load_instance(path: str) -> MMDInstance:
    text = Path(path).read_text() if path != "-" else sys.stdin.read()
    return MMDInstance.from_json(text)


def _write(text: str, output: "str | None") -> None:
    if output and output != "-":
        Path(output).write_text(text)
    else:
        print(text)


def _open_out(output: "str | None"):
    if output and output != "-":
        return Path(output).open("w")
    return sys.stdout


#: Families that take no seed: --count would emit identical copies.
DETERMINISTIC_FAMILIES = frozenset({"tightness"})


def cmd_generate(args: argparse.Namespace) -> int:
    if args.count is not None:
        # Streaming mode: emit `count` instances as JSON Lines, one per
        # seed, writing each line as soon as it is built (constant memory).
        if args.count < 1:
            print(f"--count must be >= 1, got {args.count}", file=sys.stderr)
            return 2
        if args.family in DETERMINISTIC_FAMILIES and args.count > 1:
            print(
                f"--count > 1 with the deterministic family {args.family!r} "
                "would emit identical instances",
                file=sys.stderr,
            )
            return 2
        out = _open_out(args.output)
        try:
            base_seed = args.seed
            for offset in range(args.count):
                args.seed = base_seed + offset
                out.write(FAMILIES[args.family](args).to_json())
                out.write("\n")
        finally:
            if out is not sys.stdout:
                out.close()
        return 0
    instance = FAMILIES[args.family](args)
    _write(instance.to_json(), args.output)
    return 0


def _loose_instance(data: dict) -> MMDInstance:
    """Rebuild an instance with the strict overload check disabled
    (everything else is still validated)."""
    import math as _math

    from repro.core.instance import Stream, User

    def num(x):
        return _math.inf if x == "inf" else float(x)

    streams = [
        Stream(s["stream_id"], tuple(s["costs"]), s.get("name", ""), s.get("attrs", {}))
        for s in data["streams"]
    ]
    users = [
        User(
            user_id=u["user_id"],
            utility_cap=num(u["utility_cap"]),
            capacities=tuple(num(k) for k in u["capacities"]),
            utilities={sid: float(w) for sid, w in u["utilities"].items()},
            loads={sid: tuple(vec) for sid, vec in u.get("loads", {}).items()},
            attrs=u.get("attrs", {}),
        )
        for u in data["users"]
    ]
    budgets = tuple(num(b) for b in data["budgets"])
    return MMDInstance(streams, users, budgets, name=data.get("name", ""), strict=False)


def cmd_validate(args: argparse.Namespace) -> int:
    """Validate an instance file; ``--sanitize`` repairs violations of the
    paper's convention that ``w_u(S) = 0`` when a single stream's load
    exceeds a capacity."""
    from repro.core.instance import sanitize_utilities

    text = Path(args.instance).read_text() if args.instance != "-" else sys.stdin.read()
    try:
        instance = MMDInstance.from_json(text)
    except (ValidationError, KeyError, TypeError, json.JSONDecodeError) as exc:
        if not args.sanitize:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        try:
            repaired = sanitize_utilities(_loose_instance(json.loads(text)))
        except (ValidationError, KeyError, json.JSONDecodeError) as inner:
            print(f"INVALID (unrepairable): {inner}", file=sys.stderr)
            return 1
        _write(repaired.to_json(), args.output)
        print(
            "REPAIRED (w_u(S) zeroed where a single stream overloads a capacity)",
            file=sys.stderr,
        )
        return 0
    print(f"OK: {instance}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    gamma, mu, d = global_skew_parameters(instance)
    rows = [
        ["name", instance.name or "(unnamed)"],
        ["streams", instance.num_streams],
        ["users", instance.num_users],
        ["server budgets (m)", instance.m],
        ["capacity measures (m_c)", instance.mc],
        ["input length n", instance.input_length],
        ["local skew α", instance.local_skew()],
        ["global skew γ", gamma],
        ["µ = 2γD+2", mu],
        ["small-streams precondition", "yes" if small_streams_condition(instance) else "no"],
        ["Theorem 1.1 bound", theorem_1_1_bound(instance)],
        ["trivial utility upper bound", instance.max_total_utility()],
    ]
    table = Table(["property", "value"], title=f"Instance {args.instance}")
    for row in rows:
        table.add_row(row)
    print(table.render())
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    result = solve_mmd(instance, method=args.method)
    table = Table(["field", "value"], title="Solution")
    table.add_row(["method", result.method])
    table.add_row(["utility", result.utility])
    table.add_row(["feasible", str(result.assignment.is_feasible())])
    table.add_row(["worst-case guarantee", result.guarantee])
    table.add_row(["streams carried", len(result.assignment.assigned_streams())])
    if args.exact:
        opt = solve_exact_milp(instance).utility
        table.add_row(["exact optimum (MILP)", opt])
        table.add_row(["measured ratio", opt / max(result.utility, 1e-12)])
    elif args.bound:
        bound = lp_upper_bound(instance)
        table.add_row(["LP upper bound", bound])
        table.add_row(["ratio vs LP bound", bound / max(result.utility, 1e-12)])
    print(table.render())
    if args.output:
        payload = {
            "method": result.method,
            "utility": result.utility,
            "guarantee": result.guarantee,
            "assignment": {
                uid: sorted(streams)
                for uid, streams in result.assignment.as_dict().items()
            },
        }
        _write(json.dumps(payload, indent=2), args.output)
    return 0


def _int_list(text: str) -> "list[int]":
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> "list[float]":
    return [float(part) for part in text.split(",") if part.strip()]


def _solve_many_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Build the runner spec a ``solve-many`` invocation describes."""
    if args.input is not None:
        return ScenarioSpec(
            name="solve-many",
            kind="solve",
            family="jsonl",
            input=args.input,  # "-" streams stdin lazily, line by line
            method=args.method,
            engine=args.engine,
        ).validate()
    return ScenarioSpec(
        name="solve-many",
        kind="solve",
        family="sweep",
        streams=tuple(_int_list(args.sweep_streams)),
        users=tuple(_int_list(args.sweep_users)),
        skews=tuple(_float_list(args.sweep_skews)),
        base_seed=args.seed,
        method=args.method,
        engine=args.engine,
        gen_engine=args.gen_engine,
        params={"density": args.density},
    ).validate()


def cmd_solve_many(args: argparse.Namespace) -> int:
    """Batch-solve instances from a JSONL file or a generated sweep.

    A thin door over the experiment runner
    (:func:`repro.experiments.runner.iter_experiment`): the sweep mode
    is a ``family="sweep"`` spec, the ``--input`` mode a
    ``family="jsonl"`` spec, both streamed unit by unit.  ``repro
    sweep`` exposes the runner's sharding/checkpointing on top of the
    same pipeline.
    """
    from repro.experiments.runner import iter_experiment

    if args.input is None and args.sweep_streams is None:
        print("solve-many needs --input FILE or --sweep-streams/--sweep-users",
              file=sys.stderr)
        return 2
    if args.input is None and args.sweep_users is None:
        print("--sweep-streams requires --sweep-users", file=sys.stderr)
        return 2
    try:
        spec = _solve_many_spec(args)
    except SpecError as exc:
        print(f"bad sweep grid: {exc}", file=sys.stderr)
        return 2
    # Stream: each result line is written (and flushed) as soon as the
    # instance finishes, so huge sweeps never accumulate in memory; the
    # small summary rows are retained only when a closing table will
    # actually be printed (file output).
    want_table = bool(args.output) and args.output != "-"
    summary_rows: "list[list[object]]" = []
    out = _open_out(args.output)
    try:
        for row in iter_experiment(spec, workers=args.parallel):
            out.write(json.dumps(row, sort_keys=True))
            out.write("\n")
            out.flush()
            if want_table:
                summary_rows.append(
                    [
                        row["name"] or "(unnamed)",
                        row["method"],
                        row["utility"],
                        row["streams_carried"],
                    ]
                )
    finally:
        if out is not sys.stdout:
            out.close()
    if want_table:
        table = Table(
            ["instance", "method", "utility", "carried"],
            title=f"solve-many ({len(summary_rows)} instances, parallel={args.parallel})",
        )
        for row in summary_rows:
            table.add_row(row)
        print(table.render())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run the DES on one workload and print the policy comparison.

    One-cell ``kind="simulate"`` spec through the experiment runner:
    the explicit ``seeds=(seed,)`` pins the workload build, the trace
    draw and the RandomPolicy stream exactly as the pre-runner code
    wired them, so tables are unchanged.
    """
    from repro.analysis.ascii_plot import bar_chart
    from repro.experiments.runner import run_experiment

    try:
        spec = ScenarioSpec(
            name=f"simulate-{args.workload}",
            kind="simulate",
            family=args.workload,
            seeds=(args.seed,),
            policies=tuple(args.policies),
            horizon=args.horizon,
            rate=args.rate,
            duration=args.duration,
            popularity=args.popularity,
            sim_engine=args.engine,
            trace_store=args.trace_store,
            store_window=args.window,
        ).validate()
    except SpecError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    run = run_experiment(spec, workers=args.parallel)
    if args.trace_store is not None:
        title = f"{args.workload} | store={args.trace_store} horizon={args.horizon}"
    else:
        title = (
            f"{args.workload} | rate={args.rate} duration={args.duration} "
            f"horizon={args.horizon}"
        )
    # "violations" counts infeasible policy answers the simulator clipped
    # (SimulationReport.policy_violations): 0 for a well-behaved policy.
    table = Table(
        ["policy", "utility·time", "accept", "peak load", "violations", "fairness"],
        title=title,
    )
    for row in sorted(run.rows, key=lambda r: -r["utility_time"]):
        table.add_row(
            [
                row["policy"],
                row["utility_time"],
                row["acceptance"],
                row["peak_utilization"],
                row["violations"],
                row["jain"],
            ]
        )
    print(table.render())
    print()
    print(
        bar_chart(
            [row["policy"] for row in run.rows],
            [row["utility_time"] for row in run.rows],
        )
    )
    return 0


def _workload_instance(args: argparse.Namespace):
    """Build the named workload at the requested (or default) sizes."""
    import inspect

    factory = WORKLOADS[args.workload]
    sizes = list(inspect.signature(factory).parameters.values())
    num_streams = args.streams if args.streams is not None else sizes[0].default
    num_users = args.users if args.users is not None else sizes[1].default
    return factory(num_streams, num_users, seed=args.seed)


def cmd_trace_write(args: argparse.Namespace) -> int:
    """Write an arrival trace into an on-disk columnar store.

    Default mode draws a fresh Poisson/Zipf trace for the workload
    straight into the store in bounded chunks
    (:func:`repro.sim.store.draw_trace_to_store` — peak memory stays a
    few chunk-sized arrays however long the horizon).  ``--from-json``
    instead converts a saved ``SessionEvent`` JSON trace
    (:func:`repro.sim.trace.store_events`).
    """
    from repro.sim.simulation import ArrivalModel
    from repro.sim.store import draw_trace_to_store

    instance = _workload_instance(args)
    if args.from_json:
        from repro.sim.trace import load_trace, store_events

        store = store_events(
            instance,
            load_trace(args.from_json),
            args.path,
            chunk=args.chunk,
            meta={"workload": args.workload, "source": args.from_json},
        )
    else:
        store = draw_trace_to_store(
            instance,
            ArrivalModel(
                rate=args.rate,
                mean_duration=args.duration,
                popularity_exponent=args.popularity,
            ),
            args.horizon,
            args.path,
            seed=args.seed,
            chunk=args.chunk,
            meta={"workload": args.workload, "seed": args.seed},
        )
    print(_store_info_table(store).render())
    return 0


def _store_info_table(store) -> Table:
    """The ``repro trace info`` table for one opened store."""
    facts = store.info()
    table = Table(["field", "value"], title=f"trace store {facts['path']}")
    table.add_row(["rows", facts["rows"]])
    table.add_row(["sorted", facts["sorted"]])
    table.add_row(["repaired rows", facts["repaired_rows"]])
    table.add_row(["data bytes", facts["data_bytes"]])
    for name, column in sorted(facts["columns"].items()):
        table.add_row([f"column {name}", f"{column['dtype']} ({column['bytes']} B)"])
    for key, value in sorted(facts["meta"].items()):
        table.add_row([f"meta {key}", value])
    return table


def cmd_trace_info(args: argparse.Namespace) -> int:
    """Print a trace store's manifest and on-disk facts."""
    from repro.sim.store import TraceStore

    print(_store_info_table(TraceStore.open(args.path)).render())
    return 0


def _parse_shard(text: "str | None") -> "tuple[int, int] | None":
    """Parse ``--shard i/n`` (``None`` passes through)."""
    if text is None:
        return None
    try:
        i_text, n_text = text.split("/", 1)
        shard = (int(i_text), int(n_text))
    except ValueError:
        raise SpecError(f"bad --shard {text!r}: expected i/n, e.g. 0/4") from None
    if shard[1] < 1 or not 0 <= shard[0] < shard[1]:
        raise SpecError(f"bad --shard {text!r}: need 0 <= i < n")
    return shard


def _write_run_outputs(run, args: argparse.Namespace) -> None:
    """Emit an ExperimentRun: aggregate JSONL (stdout or file) + .npz."""
    if args.output and args.output != "-":
        run.to_jsonl(args.output)
    else:
        sys.stdout.write(run.to_jsonl())
    if getattr(args, "npz", None):
        run.to_npz(args.npz)


def _stream_experiment(spec, shard, args: argparse.Namespace):
    """Run a spec, streaming rows to --output as units complete.

    Rows are streamed deterministic (runtimes and provenance stripped,
    sorted keys) — units arrive in index order, so the streamed text is
    byte-identical to the closing :meth:`ExperimentRun.to_jsonl`
    aggregate, and ``repro sweep ... | head`` sees output while the
    grid is still running.  Returns the aggregated
    :class:`ExperimentRun` (for the `.npz` and the summary).
    """
    import itertools

    from repro.experiments.runner import (
        ExperimentRun,
        iter_experiment,
        strip_row,
    )

    results = iter_experiment(
        spec,
        shard=shard,
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    # Pull the first row before opening --output: the runner's up-front
    # refusals (e.g. an existing checkpoint without --resume) must not
    # truncate a previous run's output file.
    head = list(itertools.islice(results, 1))
    rows = []
    out = _open_out(args.output)
    try:
        for row in itertools.chain(head, results):
            rows.append(row)
            out.write(json.dumps(strip_row(row), sort_keys=True))
            out.write("\n")
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    rows.sort(key=lambda r: int(r["unit"]))
    run = ExperimentRun(spec=spec, rows=rows, shard=shard)
    if getattr(args, "npz", None):
        run.to_npz(args.npz)
    return run


def _run_adaptive_cli(spec, args: argparse.Namespace) -> int:
    """The ``--rounds > 1`` path: adaptive refinement, then outputs."""
    from repro.experiments.adaptive import run_adaptive

    adaptive = run_adaptive(
        spec,
        rounds=args.rounds,
        top_k=args.refine_top,
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    if args.output and args.output != "-":
        adaptive.to_jsonl(args.output)
    else:
        sys.stdout.write(adaptive.to_jsonl())
    if getattr(args, "npz", None):
        adaptive.final.to_npz(args.npz)
    table = _sweep_summary(
        adaptive.final, None, f"sweep --rounds {args.rounds}"
    )
    table.add_row(["rounds executed", len(adaptive.rounds)])
    table.add_row(
        ["total units", sum(len(r.rows) for r in adaptive.rounds)]
    )
    print(table.render(), file=sys.stderr)
    return 0


def _sweep_summary(run, shard, title: str) -> Table:
    """The closing summary table of a runner invocation."""
    columns = run.columnar()
    table = Table(["field", "value"], title=title)
    table.add_row(["spec", run.spec.name])
    table.add_row(["kind", run.spec.kind])
    table.add_row(["units completed", len(run.rows)])
    table.add_row(["shard", f"{shard[0]}/{shard[1]}" if shard else "full grid"])
    if len(run.rows):
        table.add_row(["mean objective", float(columns["objective"].mean())])
        table.add_row(["mean Jain fairness", float(columns["jain"].mean())])
        table.add_row(["total runtime (s)", float(columns["runtime"].sum())])
    return table


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run (or merge) a scenario spec through the experiment runner."""
    from repro.experiments.runner import merge_checkpoints
    from repro.experiments.spec import builtin_specs, resolve_spec

    if args.list:
        table = Table(["spec", "kind", "units"], title="shipped scenario specs")
        for name in sorted(builtin_specs()):
            spec = resolve_spec(name)
            table.add_row([name, spec.kind, spec.num_units()])
        print(table.render())
        return 0
    if args.spec is None:
        print("sweep needs a SPEC (file path or shipped name); see --list",
              file=sys.stderr)
        return 2
    try:
        spec = resolve_spec(args.spec)
        shard = _parse_shard(args.shard)
    except SpecError as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return 2
    if args.merge:
        try:
            run = merge_checkpoints(spec, args.merge)
        except ValidationError as exc:
            print(f"merge incomplete: {exc}", file=sys.stderr)
            return 1
        _write_run_outputs(run, args)
        print(_sweep_summary(run, None, "sweep --merge").render(), file=sys.stderr)
        return 0
    graceful_runner_signals()
    try:
        if args.rounds > 1:
            return _run_adaptive_cli(spec, args)
        run = _stream_experiment(spec, shard, args)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted: completed units are flushed to the checkpoint; "
              "rerun with --resume to continue", file=sys.stderr)
        return 130
    print(_sweep_summary(run, shard, "sweep").render(), file=sys.stderr)
    return 0


def cmd_simulate_many(args: argparse.Namespace) -> int:
    """Run a simulation grid (spec file/name, or an inline grid) sharded."""
    from repro.experiments.spec import resolve_spec

    try:
        if args.spec is not None:
            spec = resolve_spec(args.spec)
            if spec.kind != "simulate":
                print(f"spec {spec.name!r} has kind={spec.kind!r}; "
                      "simulate-many needs a simulate spec (use repro sweep)",
                      file=sys.stderr)
                return 2
        else:
            spec = ScenarioSpec(
                name=f"simulate-many-{args.workload}",
                kind="simulate",
                family=args.workload,
                streams=tuple(_int_list(args.streams)) if args.streams else None,
                users=tuple(_int_list(args.users)) if args.users else None,
                replicates=args.replicates,
                base_seed=args.seed,
                policies=tuple(args.policies),
                horizon=args.horizon,
                rate=args.rate,
                duration=args.duration,
                popularity=args.popularity,
                sim_engine=args.engine,
                trace_store=args.trace_store,
                store_window=args.window,
            ).validate()
        shard = _parse_shard(args.shard)
    except SpecError as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return 2
    graceful_runner_signals()
    try:
        if args.rounds > 1:
            return _run_adaptive_cli(spec, args)
        run = _stream_experiment(spec, shard, args)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted: completed units are flushed to the checkpoint; "
              "rerun with --resume to continue", file=sys.stderr)
        return 130
    print(_sweep_summary(run, shard, "simulate-many").render(), file=sys.stderr)
    return 0


def cmd_serve_run(args: argparse.Namespace) -> int:
    """Start (or restore and start) the crash-safe admission service.

    A fresh ``--dir`` is initialized from the named workload (or
    ``--instance`` JSON); an existing one is restored — torn WAL tail
    repaired, newest snapshot loaded, tail replayed — before the HTTP
    front door binds.  One JSON line with the bound port is printed as
    soon as the service accepts requests (load generators and tests
    parse it).  SIGINT/SIGTERM stop gracefully: drain the writer,
    force a final snapshot, close the WAL.
    """
    import asyncio
    import signal

    from repro.config import (
        resolve_commit_batch,
        resolve_commit_linger_ms,
        resolve_durability,
    )
    from repro.serve.http import AdmissionHTTPService
    from repro.serve.service import MANIFEST_NAME, AdmissionCore, ServeConfig

    root = Path(args.dir)
    # Arg > env > default resolution happens here (the dataclass's own
    # defaults would shadow the environment otherwise); junk is loud.
    config = ServeConfig(
        snapshot_every=args.snapshot_every,
        durability=resolve_durability(args.durability),
        max_pending=args.max_pending,
        max_wait=args.max_wait,
        retry_after=args.retry_after,
        commit_batch=resolve_commit_batch(args.commit_batch),
        commit_linger_ms=resolve_commit_linger_ms(args.commit_linger_ms),
    )
    if (root / MANIFEST_NAME).exists():
        core = AdmissionCore.restore(root, config=config)
    else:
        instance = (
            _load_instance(args.instance) if args.instance
            else _workload_instance(args)
        )
        core = AdmissionCore.create(instance, root, mu=args.mu, config=config)
    server = AdmissionHTTPService(core)

    async def run() -> None:
        port = await server.start(args.host, args.port)
        queue = server.queue_stats()
        print(json.dumps({
            "serving": True,
            "host": args.host,
            "port": port,
            "pid": os.getpid(),
            "seq": core.next_seq,
            "queue_depth": queue["queue_depth"],
            "durability": config.durability,
            "commit_batch": config.commit_batch,
            "commit_linger_ms": config.commit_linger_ms,
            "restore": core.restore_info,
        }), flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        forever = asyncio.create_task(server.serve_forever())
        await stop.wait()
        forever.cancel()
        try:
            await forever
        except asyncio.CancelledError:
            pass
        await server.stop()

    asyncio.run(run())
    queue = server.queue_stats()
    print(json.dumps({
        "serving": False,
        "seq": core.next_seq,
        "queue_depth": queue["queue_depth"],
        "served": queue["served"],
        "shed": queue["shed"],
        "batch_sizes": server.batch_histogram(),
    }), flush=True)
    return 0


def cmd_serve_restore(args: argparse.Namespace) -> int:
    """Recover a service directory offline and report what it took.

    Repairs any torn WAL tail, loads the newest snapshot, replays the
    WAL records past it with per-record verification, and prints the
    recovery summary plus the restored state digest — without starting
    the HTTP server.  Corruption beyond a torn tail fails loudly
    (exit 2) instead of serving a silently wrong allocator.
    """
    from repro.serve.service import AdmissionCore

    core = AdmissionCore.restore(args.dir)
    try:
        info = core.restore_info
        stats = core.stats()
        table = Table(["field", "value"], title=f"restored {args.dir}")
        table.add_row(["wal records", core.next_seq])
        table.add_row(["snapshot", info["snapshot"] or "(none)"])
        table.add_row(["snapshot seq", info["snapshot_seq"]])
        table.add_row(["tail replayed", info["replayed"]])
        table.add_row(["torn bytes repaired", info["repaired_bytes"]])
        table.add_row(["active streams", stats["active_streams"]])
        table.add_row(["rejected count", stats["rejected_count"]])
        table.add_row(["state digest", core.state_digest()])
        print(table.render())
    finally:
        core.close()
    return 0


def graceful_runner_signals() -> None:
    """Make SIGTERM interrupt a runner exactly like Ctrl-C (SIGINT).

    The runner's checkpoint discipline (append + flush per completed
    unit) means an interrupted sweep loses at most the in-flight unit;
    translating SIGTERM into :class:`KeyboardInterrupt` lets the
    command funnel both signals into one flush-and-exit-130 path.
    """
    import signal

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _interrupt)
    except (ValueError, OSError):
        # Not the main thread (embedded use): signals stay untouched.
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Video distribution under multiple constraints (ICDCS 2008) — "
        "solvers, generators, and simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit an instance as JSON")
    gen.add_argument("--family", choices=sorted(FAMILIES), default="unit-skew-smd")
    gen.add_argument("--streams", type=int, default=20)
    gen.add_argument("--users", type=int, default=8)
    gen.add_argument("--m", type=int, default=2)
    gen.add_argument("--mc", type=int, default=1)
    gen.add_argument("--skew", type=float, default=8.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=None,
                     help="emit COUNT instances as JSON Lines (seeds seed..seed+COUNT-1), "
                     "streaming one line at a time")
    gen.add_argument("--gen-engine", choices=ENGINE_SETTINGS["generation"].choices,
                     default=None,
                     help="draw engine for the random families (default: loop for "
                     "seed-compatible output; vectorized draws whole instances "
                     "with batched numpy calls; $REPRO_GEN_ENGINE overrides)")
    gen.add_argument("--output", "-o", default="-")
    gen.set_defaults(func=cmd_generate)

    info = sub.add_parser("info", help="print instance parameters and bounds")
    info.add_argument("instance", help="instance JSON path (or - for stdin)")
    info.set_defaults(func=cmd_info)

    validate = sub.add_parser("validate", help="validate (optionally repair) an instance")
    validate.add_argument("instance", help="instance JSON path (or - for stdin)")
    validate.add_argument("--sanitize", action="store_true",
                          help="zero utilities whose single-stream load exceeds "
                          "a capacity (the paper's convention) and emit the repaired instance")
    validate.add_argument("--output", "-o", default="-")
    validate.set_defaults(func=cmd_validate)

    solve = sub.add_parser("solve", help="run the paper pipeline on an instance")
    solve.add_argument("instance", help="instance JSON path (or - for stdin)")
    solve.add_argument("--method", choices=["greedy", "enumeration"], default="greedy")
    solve.add_argument("--exact", action="store_true",
                       help="also solve exactly (MILP) and report the ratio")
    solve.add_argument("--bound", action="store_true",
                       help="also compute the LP upper bound")
    solve.add_argument("--output", "-o", default="",
                       help="write the assignment JSON here")
    solve.set_defaults(func=cmd_solve)

    many = sub.add_parser(
        "solve-many",
        help="batch-solve a JSONL instance stream or a generated sweep",
    )
    many.add_argument("--input", "-i", default=None,
                      help="JSONL file of instances (or - for stdin)")
    many.add_argument("--sweep-streams", default=None,
                      help="comma list of catalog sizes (generated sweep mode)")
    many.add_argument("--sweep-users", default=None,
                      help="comma list of population sizes")
    many.add_argument("--sweep-skews", default="1",
                      help="comma list of local skews (1 = unit skew)")
    many.add_argument("--density", type=float, default=0.05,
                      help="sweep interest density (streams per user fraction)")
    many.add_argument("--seed", type=int, default=0)
    many.add_argument("--method", choices=["greedy", "enumeration"], default="greedy")
    many.add_argument("--engine", choices=ENGINE_SETTINGS["solver"].choices,
                      default=None,
                      help="hot-path implementation (default: indexed)")
    many.add_argument("--gen-engine", choices=ENGINE_SETTINGS["generation"].choices,
                      default=None,
                      help="sweep generation engine (default: vectorized — instances "
                      "stream as index-native arrays; loop reproduces the "
                      "seed-compatible dict generators)")
    many.add_argument("--parallel", "-j", type=int, default=1,
                      help="worker processes (1 = in-process)")
    many.add_argument("--output", "-o", default="-",
                      help="JSONL results path (- for stdout)")
    many.set_defaults(func=cmd_solve_many)

    sim = sub.add_parser("simulate", help="run the DES on a named workload")
    sim.add_argument("--workload", choices=sorted(WORKLOADS), default="iptv")
    sim.add_argument("--policies", nargs="+",
                     default=["threshold", "allocate", "density"])
    sim.add_argument("--rate", type=float, default=2.0)
    sim.add_argument("--duration", type=float, default=30.0)
    sim.add_argument("--horizon", type=float, default=300.0)
    sim.add_argument("--popularity", type=float, default=1.0,
                     help="Zipf exponent of stream popularity (0 = uniform)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--engine", choices=ENGINE_SETTINGS["simulation"].choices,
                     default=None,
                     help="simulation engine (default: indexed — array-native "
                     "trace draw and decision-point replay; batched answers "
                     "order-free policies through a decision map; dict "
                     "keeps the original event loop; $REPRO_SIM_ENGINE "
                     "overrides)")
    sim.add_argument("--parallel", "-j", type=int, default=1,
                     help="worker processes, one policy replay each "
                     "(1 = in-process)")
    sim.add_argument("--trace-store", default=None, metavar="DIR",
                     help="replay this on-disk columnar trace store (made by "
                     "'repro trace write') instead of drawing a trace; "
                     "incompatible with --rate/--duration/--popularity")
    sim.add_argument("--window", type=float, default=None,
                     help="stream the store in time windows of this width "
                     "(bounded memory; float-identical to monolithic replay; "
                     "$REPRO_STORE_WINDOW overrides; needs --trace-store)")
    sim.set_defaults(func=cmd_simulate)

    trace = sub.add_parser(
        "trace",
        help="write / inspect on-disk columnar trace stores",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_write = trace_sub.add_parser(
        "write",
        help="draw (or convert) an arrival trace into a columnar store",
    )
    trace_write.add_argument("path", help="store directory to create")
    trace_write.add_argument("--workload", choices=sorted(WORKLOADS),
                             default="iptv")
    trace_write.add_argument("--streams", type=int, default=None,
                             help="catalog size (default: the workload's own)")
    trace_write.add_argument("--users", type=int, default=None,
                             help="population size (default: the workload's own)")
    trace_write.add_argument("--rate", type=float, default=2.0)
    trace_write.add_argument("--duration", type=float, default=30.0)
    trace_write.add_argument("--horizon", type=float, default=300.0)
    trace_write.add_argument("--popularity", type=float, default=1.0,
                             help="Zipf exponent of stream popularity "
                             "(0 = uniform)")
    trace_write.add_argument("--seed", type=int, default=0)
    trace_write.add_argument("--chunk", type=int, default=None,
                             help="draw/append chunk size in events — part of "
                             "the determinism contract ($REPRO_STORE_CHUNK "
                             "overrides)")
    trace_write.add_argument("--from-json", default=None, metavar="FILE",
                             help="convert a saved SessionEvent JSON trace "
                             "instead of drawing one")
    trace_write.set_defaults(func=cmd_trace_write)
    trace_info = trace_sub.add_parser(
        "info",
        help="print a store's manifest and on-disk facts",
    )
    trace_info.add_argument("path", help="store directory")
    trace_info.set_defaults(func=cmd_trace_info)

    def add_runner_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--shard", default=None, metavar="I/N",
                                help="run only units with index %% N == I "
                                "(N machines split one spec; seeds/results "
                                "identical to the unsharded run)")
        sub_parser.add_argument("--workers", "-j", type=int, default=1,
                                help="worker processes (1 = in-process)")
        sub_parser.add_argument("--checkpoint", default=None,
                                help="JSONL checkpoint: one row appended per "
                                "completed unit")
        sub_parser.add_argument("--resume", action="store_true",
                                help="skip units already in --checkpoint")
        sub_parser.add_argument("--output", "-o", default="-",
                                help="aggregate JSONL path (- for stdout; "
                                "deterministic: runtimes stripped)")
        sub_parser.add_argument("--npz", default=None,
                                help="also write columnar .npz (objective, "
                                "runtime, Jain fairness per unit)")
        sub_parser.add_argument("--rounds", type=int, default=1,
                                help="adaptive refinement rounds (1 = plain "
                                "sweep; each round subdivides the top "
                                "--refine-top cells' axis neighborhoods)")
        sub_parser.add_argument("--refine-top", type=int, default=1,
                                metavar="K",
                                help="grid cells refined per adaptive round "
                                "(scored by the spec's refine_metric)")

    sweep = sub.add_parser(
        "sweep",
        help="run a scenario spec through the sharded resumable runner",
    )
    sweep.add_argument("spec", nargs="?", default=None,
                       help="spec file (.json/.toml) or shipped name "
                       "(see --list)")
    sweep.add_argument("--list", action="store_true",
                       help="list the shipped scenario specs and exit")
    sweep.add_argument("--merge", nargs="+", default=None, metavar="CKPT",
                       help="aggregate shard checkpoint files instead of "
                       "running (errors if the union misses units)")
    add_runner_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    sim_many = sub.add_parser(
        "simulate-many",
        help="run a workload × size × seed × policy grid through the runner",
    )
    sim_many.add_argument("spec", nargs="?", default=None,
                          help="simulate-kind spec file or shipped name "
                          "(omit to build a grid from the flags below)")
    sim_many.add_argument("--workload", choices=sorted(WORKLOADS), default="iptv")
    sim_many.add_argument("--streams", default=None,
                          help="comma list of catalog sizes (default: the "
                          "workload's own)")
    sim_many.add_argument("--users", default=None,
                          help="comma list of population sizes")
    sim_many.add_argument("--replicates", type=int, default=1,
                          help="seed replicates per grid cell")
    sim_many.add_argument("--seed", type=int, default=0,
                          help="base seed (per-cell seeds are derived from "
                          "(seed, cell index))")
    sim_many.add_argument("--policies", nargs="+",
                          default=["threshold", "allocate", "density"])
    sim_many.add_argument("--rate", type=float, default=2.0)
    sim_many.add_argument("--duration", type=float, default=30.0)
    sim_many.add_argument("--horizon", type=float, default=300.0)
    sim_many.add_argument("--popularity", type=float, default=1.0)
    sim_many.add_argument("--engine",
                          choices=ENGINE_SETTINGS["simulation"].choices,
                          default=None,
                          help="simulation engine ($REPRO_SIM_ENGINE overrides)")
    sim_many.add_argument("--trace-store", default=None, metavar="DIR",
                          help="shard one shared on-disk trace store across "
                          "the grid instead of drawing per-cell traces")
    sim_many.add_argument("--window", type=float, default=None,
                          help="stream the store in time windows of this "
                          "width (needs --trace-store)")
    add_runner_flags(sim_many)
    sim_many.set_defaults(func=cmd_simulate_many)

    serve = sub.add_parser(
        "serve",
        help="crash-safe live admission service (HTTP/JSON over one allocator)",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    serve_run = serve_sub.add_parser(
        "run",
        help="start the service (fresh directory, or restored after a crash)",
    )
    serve_run.add_argument("--dir", required=True,
                           help="service directory (WAL + snapshots + instance)")
    serve_run.add_argument("--instance", default=None,
                           help="instance JSON file (fresh directories only; "
                           "default: build --workload)")
    serve_run.add_argument("--workload", choices=sorted(WORKLOADS), default="iptv")
    serve_run.add_argument("--streams", type=int, default=None,
                           help="workload catalog size (default: the workload's own)")
    serve_run.add_argument("--users", type=int, default=None,
                           help="workload population size")
    serve_run.add_argument("--seed", type=int, default=0,
                           help="workload generation seed")
    serve_run.add_argument("--mu", type=float, default=None,
                           help="charge base µ (default: the paper's 4γd)")
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=int, default=0,
                           help="TCP port (0 = ephemeral; the bound port is "
                           "printed as JSON on startup)")
    serve_run.add_argument("--snapshot-every", type=int, default=1024,
                           help="WAL records between atomic state snapshots")
    serve_run.add_argument("--durability", default=None,
                           help="WAL durability: fsync survives power loss, "
                           "flush survives process death only (default: "
                           "$REPRO_SERVE_DURABILITY, then fsync)")
    serve_run.add_argument("--commit-batch", type=int, default=None,
                           help="max decisions group-committed per WAL fsync "
                           "(default: $REPRO_COMMIT_BATCH, then 1)")
    serve_run.add_argument("--commit-linger-ms", type=float, default=None,
                           help="ms a shallow commit queue waits for company "
                           "(default: $REPRO_COMMIT_LINGER_MS, then 0)")
    serve_run.add_argument("--max-pending", type=int, default=64,
                           help="admission-queue depth before load shedding")
    serve_run.add_argument("--max-wait", type=float, default=0.5,
                           help="estimated queue wait (s) before load shedding")
    serve_run.add_argument("--retry-after", type=float, default=0.25,
                           help="Retry-After hint (s) on shed responses")
    serve_run.set_defaults(func=cmd_serve_run)
    serve_restore = serve_sub.add_parser(
        "restore",
        help="recover a service directory offline and print the summary",
    )
    serve_restore.add_argument("--dir", required=True,
                               help="service directory to recover")
    serve_restore.set_defaults(func=cmd_serve_restore)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as error:
        # Bad input — including an invalid $REPRO_*_ENGINE smuggled in
        # through the environment — is a usage error (exit code 2, like
        # argparse), not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
