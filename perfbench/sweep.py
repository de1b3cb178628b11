"""``sweep``: spec → aggregate through ``run_experiment`` on the local transport.

A ``kind=simulate`` spec over the ``iptv`` family (40 channels × 300
households), policies ``threshold`` and ``allocate``, 8 replicates,
sessions of half the horizon, with a checkpoint file.  Sessions this
long keep the link full, so the cells are reject-dominated: the mirror
image of ``replay_churn``.  It is the only workload for
``repro.experiments`` (dispatch → execute → checkpoint → merge).  The
simulation engine is left to the program's default.

The timed sweeps run on one worker; the traced run uses a pool of two,
so the per-layer numbers cover dispatch to pool workers (see NOTES.md).
"""

from __future__ import annotations

import json
import time

from perfbench import common
from perfbench.spans import LayerStats, Recorder, layer_metrics, load_dumps, tracing
from repro.experiments import runner
from repro.experiments.spec import spec_from_dict

#: Pool width of the timed sweeps.  A sweep on two workers of a shared
#: two-CPU host waits for the slower CPU, and that spread 16-18% from
#: run to run where one worker spread 5-6% (NOTES.md).
WORKERS = 1
#: Pool width of every sweep of a traced run: the per-layer metrics
#: cover dispatch to pool workers and the cell cache under interleaving.
TRACED_WORKERS = 2
#: Set-up is timed before every this many passes.
SETUP_EVERY = 2
HORIZON = 80.0
STREAMS, USERS = 40, 300
REPLICATES = 8
#: Tail percentile over every untraced sweep of the run, and over the
#: units' own runtimes, printed in the details.  Every sweep is the same
#: deterministic work, so the end-to-end latency is the fastest sweep
#: (see NOTES.md).
TAIL = 0.9


def make_spec(seed: int):
    """The sweep's scenario spec; ``seed`` is its base seed."""
    return spec_from_dict({
        "name": "perfbench-sweep",
        "kind": "simulate",
        "family": "iptv",
        "streams": [STREAMS],
        "users": [USERS],
        "replicates": REPLICATES,
        "base_seed": seed,
        "policies": ["threshold", "allocate"],
        "horizon": HORIZON,
        "rate": 100.0,
        "duration": HORIZON / 2,
    })


def _resolve(seed: int):
    """Spec resolve and unit expansion, then every cell's inputs.

    The cells' instances and traces are what the workers build first;
    building them here once per cell makes set-up a measurable amount of
    the program's own work rather than a sub-millisecond parse.
    """
    from repro.instances import workloads
    from repro.sim import indexed as sim_indexed
    from repro.sim.simulation import ArrivalModel

    spec = make_spec(seed)
    units = list(spec.expand())
    model = ArrivalModel(rate=spec.rate, mean_duration=spec.duration,
                         popularity_exponent=spec.popularity)
    for cell_seed in sorted({unit.seed for unit in units}):
        instance = workloads.iptv_neighborhood_workload(STREAMS, USERS, seed=cell_seed)
        sim_indexed.draw_trace_arrays(instance, model, spec.horizon, cell_seed)
    return spec, units


def aggregate_digest(text: str) -> str:
    """Digest of a ``to_jsonl`` aggregate without each row's engine name.

    The engine is the program's default, which a change may move; the
    rows' numbers must not move with it.
    """
    rows = [json.loads(line) for line in text.splitlines()]
    for row in rows:
        row.pop("engine", None)
    return common.digest(rows)


def sweep_once(spec, checkpoint, workers: int):
    """One sweep to its aggregate.

    Returns (wall seconds, aggregate text, offers, unit runtimes in seconds).
    """
    started = time.perf_counter()
    run = runner.run_experiment(spec, workers=workers, checkpoint=checkpoint)
    text = run.to_jsonl()
    wall = time.perf_counter() - started
    return (wall, text, sum(int(row["offered"]) for row in run.rows),
            [float(row["runtime"]) for row in run.rows])


def run(ctx) -> "dict[str, object]":
    """Measure the workload; see :func:`perfbench.run.main` for ``ctx``."""
    dumps = ctx.work / "spans"
    recorder = Recorder(dump_dir=dumps) if ctx.trace else None
    workers = TRACED_WORKERS if ctx.trace else WORKERS
    setup = common.SetupClock(lambda: _resolve(ctx.seed))
    spec, units = setup()
    counter = iter(range(1 << 30))

    def checkpoint():
        return ctx.work / f"checkpoint-{next(counter)}.jsonl"

    passes = {False: [], True: []}
    for number, traced in enumerate(common.pass_schedule(ctx.seconds, ctx.trace)):
        if number and number % SETUP_EVERY == 0:
            setup()
        with tracing(recorder if traced else None):
            passes[traced].append(sweep_once(spec, checkpoint(), workers))

    texts = {text for _, text, _, _ in passes[False] + passes[True]}
    # The oracle runs at the other pool width: the aggregate must not
    # depend on how units were dispatched.
    other = TRACED_WORKERS if workers == 1 else 1
    expected = ctx.golden(
        "sweep.aggregate_digest",
        lambda: aggregate_digest(sweep_once(spec, checkpoint(), other)[1]))
    checks = {
        "aggregates_identical": len(texts) == 1,
        "aggregate_equals_other_pool_width": aggregate_digest(next(iter(texts))) == expected,
        "all_units_present": all(
            len(text.splitlines()) == len(units) for text in texts),
    }
    all_walls = [wall for wall, _, _, _ in passes[False]]
    best = min(all_walls)
    offers = passes[False][0][2]
    unit_walls = [runtime for *_, runtimes in passes[False] for runtime in runtimes]
    result = {
        "checks": checks,
        "attempted": len(passes[False]) * len(units),
        "failed": 0,
        "end_to_end": {
            "setup_s": setup.seconds,
            "peak_rss_mb": (common.children_peak_rss_mb() if workers > 1
                            else common.self_peak_rss_mb()),
            "latency_p50_ms": best * 1e3,
            "latency_tail_ms": best * 1e3,
        },
        "details": {"units": len(units), "offers_per_sweep": offers,
                    "offers_per_s": offers / best,
                    "sweeps": len(passes[False]), "workers": workers,
                    "tail_percentile": TAIL,
                    "pass_walls_ms": [round(w * 1e3) for w in all_walls],
                    "all_passes_tail_ms": common.percentile(all_walls, TAIL) * 1e3,
                    "unit_p50_ms": common.percentile(unit_walls, 0.5) * 1e3,
                    "unit_tail_ms": common.percentile(unit_walls, TAIL) * 1e3,
                    "setup_ms": [round(t * 1e3, 1) for t in setup.times]},
    }
    if recorder is not None:
        stats = LayerStats()
        stats.add_recorder(recorder)
        load_dumps(stats, dumps)
        traced_walls = [wall for wall, _, _, _ in passes[True]]
        sweeps = len(traced_walls)
        capacity = sum(traced_walls) * workers
        busy = stats.busy
        execute = busy["sweep.execute"]
        result["layers"] = layer_metrics(stats, {
            "sweep.execute_s": execute / sweeps,
            "sweep.cell_build_s": (busy["instance.build"] + busy["sim.draw"]) / sweeps,
            "sweep.unit_replay_s": busy["sim.replay"] / sweeps,
            "sweep.cell_builds_per_unit": (stats.calls["sim.draw"]
                                           / stats.counters["sweep.units"]),
            "sweep.checkpoint_append_ms": busy["sweep.checkpoint_append"] * 1e3 / sweeps,
            "sweep.merge_s": busy["sweep.merge"] / sweeps,
            "sweep.dispatch_s": (capacity - execute) / sweeps,
            "sweep.worker_utilization": execute / capacity,
            "trace.overhead_pct": (min(traced_walls) / best - 1.0) * 100.0,
        })
    return result
