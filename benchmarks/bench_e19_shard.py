"""E19 — group-commit WAL batching for the single-writer admission service.

Measures group commit on top of E18's one-fsync-per-decision baseline,
directly against the commit pipeline
(:meth:`~repro.serve.service.AdmissionCore.execute_batch` — the HTTP
transport would only add per-request overhead that batching cannot
amortize on a single core):

- **group commit** — the identical decision sequence is committed at
  batch sizes 1 (the E18 discipline), 16 and 64; every batch is one
  contiguous WAL write and **one** fsync, acknowledgements strictly
  after the shared sync.  Every phase runs ``REPEATS`` times, each in a
  fresh directory, interleaved across batch sizes.  The batch-size
  scaling curve of median throughputs is reported, the fsync counts are
  asserted against the histogram on every run, and the run fails if the
  best batched median is under **3×** the fsync'd baseline median;
- **restore fidelity** — the batched directory restores bit-identically
  (digest equality against the batch=1 run: same decision sequence,
  same state).

Set ``REPRO_E19_SCALE=small`` for a CI smoke at ~8× fewer decisions
(same assertions, including the 3× floor — fsync amortization does not
need volume to show).
"""

from __future__ import annotations

import os
import statistics
import tempfile
from pathlib import Path

from repro.instances.workloads import small_streams_workload
from repro.serve.service import AdmissionCore, ServeConfig
from repro.util.timing import Timer

from benchmarks.common import run_once, stage_json, stage_section

FULL_SCALE = os.environ.get("REPRO_E19_SCALE", "full") != "small"
#: Offer/release pairs per phase (every phase replays the same ops).
NUM_PAIRS = 4_000 if FULL_SCALE else 500
#: Group-commit batch sizes swept (1 = the E18 baseline discipline).
BATCH_SIZES = (1, 16, 64)
#: Catalog/population of the served workload.
NUM_STREAMS, NUM_USERS = (64, 32) if FULL_SCALE else (32, 16)
#: CI perf floor: best batched median throughput over the batch=1 median.
MIN_BATCH_SPEEDUP = 3.0
#: Runs of every batch-size phase.  The floor compares medians: a single
#: fsync'd batch=1 run swings 3.5-4.4k decisions/s on a shared 2-CPU host.
REPEATS = 3
#: Snapshots stay out of the measured window.
SNAPSHOT_EVERY = 1_000_000


def _ops() -> "list[tuple[str, int, None]]":
    """The shared decision sequence: offer/release pairs over the catalog.

    Deterministic and state-independent (releases of rejected offers
    come back as in-batch ``ValidationError`` results without touching
    the allocator), so every phase executes the identical sequence and
    the batch=1 / batch=N digests must match exactly.
    """
    ops: "list[tuple[str, int, None]]" = []
    for i in range(NUM_PAIRS):
        k = i % NUM_STREAMS
        ops.append(("offer", k, None))
        ops.append(("release", k, None))
    return ops


def _drive(core, ops, batch: int) -> None:
    """Commit ``ops`` through ``core`` in group-commit batches of ``batch``."""
    for start in range(0, len(ops), batch):
        core.execute_batch(ops[start : start + batch])


def _sync_count(core: AdmissionCore) -> int:
    """Fsyncs the core's WAL sink has issued."""
    return core.wal.sink.sync_count


def _batched_phase(
    instance, root: Path, ops, batch: int
) -> "dict[str, object]":
    """One single-writer run at a given batch size; returns its numbers."""
    config = ServeConfig(snapshot_every=SNAPSHOT_EVERY, commit_batch=batch)
    core = AdmissionCore.create(instance, root, config=config)
    timer = Timer()
    with timer:
        _drive(core, ops, batch)
    result = {
        "batch": batch,
        "records": core.next_seq,
        "elapsed": timer.elapsed,
        "throughput": core.next_seq / max(timer.elapsed, 1e-9),
        "fsyncs": _sync_count(core),
        "digest": core.state_digest(),
    }
    core.close()
    return result


def bench_e19_shard(benchmark):
    def experiment():
        instance = small_streams_workload(
            num_channels=NUM_STREAMS, num_households=NUM_USERS, seed=7
        )
        ops = _ops()
        with tempfile.TemporaryDirectory(prefix="repro-e19-") as tmp:
            tmp = Path(tmp)
            # Repeat-major order, so host drift lands on every batch size.
            runs = [
                _batched_phase(
                    instance, tmp / f"r{rep}-b{batch:03d}", ops, batch
                )
                for rep in range(REPEATS)
                for batch in BATCH_SIZES
            ]
            # Restore fidelity of the batched directory: group commit
            # changes WAL *timing*, never WAL *content*.
            restored = AdmissionCore.restore(
                tmp / f"r{REPEATS - 1}-b{BATCH_SIZES[-1]:03d}"
            )
            batched_restore_ok = restored.state_digest() == runs[-1]["digest"]
            restored.close()
        return {"runs": runs, "batched_restore_ok": batched_restore_ok}

    data = run_once(benchmark, experiment)
    runs = data["runs"]

    # Same decision sequence ⇒ bit-identical state at every batch size.
    assert all(r["digest"] == runs[0]["digest"] for r in runs), (
        "group commit changed the decision state"
    )
    assert all(r["records"] == runs[0]["records"] for r in runs)
    assert data["batched_restore_ok"], "batched directory restored differently"
    # One fsync per decision at batch=1; one per batch afterwards.
    for r in runs:
        ceiling = -(-r["records"] // r["batch"])  # ceil division
        if r["batch"] == 1:
            assert r["fsyncs"] == r["records"]
        assert r["fsyncs"] <= ceiling, (
            f"batch={r['batch']} issued {r['fsyncs']} fsyncs for "
            f"{r['records']} records (expected <= {ceiling})"
        )

    curve = []
    for batch in BATCH_SIZES:
        mine = [r for r in runs if r["batch"] == batch]
        curve.append({
            "batch": batch,
            "records": mine[0]["records"],
            "fsyncs": mine[0]["fsyncs"],
            "elapsed": statistics.median(r["elapsed"] for r in mine),
            "throughput": statistics.median(r["throughput"] for r in mine),
            "throughputs": [r["throughput"] for r in mine],
        })
    baseline = curve[0]
    best = max(curve[1:], key=lambda r: r["throughput"])

    speedup = best["throughput"] / max(baseline["throughput"], 1e-9)
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"group commit at batch={best['batch']} reached only "
        f"{speedup:.2f}x the fsync'd baseline in median "
        f"({best['throughput']:,.0f}/s vs {baseline['throughput']:,.0f}/s); "
        f"the floor is {MIN_BATCH_SPEEDUP}x"
    )

    rows = [
        [f"batch={r['batch']}", f"{r['records']:,}", f"{r['fsyncs']:,}",
         f"{r['throughput']:,.0f}/s",
         f"{min(r['throughputs']):,.0f}-{max(r['throughputs']):,.0f}/s",
         f"{r['throughput'] / baseline['throughput']:.2f}x"]
        for r in curve
    ]
    stage_section(
        "E19",
        f"Group commit: {baseline['records']:,} fsync'd decisions, "
        f"batch curve {list(BATCH_SIZES)}, median of {REPEATS} runs",
        "The E18 service commits one WAL fsync per decision; E19 drains "
        "batches through one contiguous write + one shared fsync "
        "(acknowledgements strictly after the sync).  Digests are "
        "asserted bit-identical across every batch size and across "
        "restore.",
        ["configuration", "records", "fsyncs", "median throughput",
         "range", "vs batch=1"],
        rows,
        notes=f"Perf floor (CI-gated): best batched median throughput >= "
        f"{MIN_BATCH_SPEEDUP}x the batch=1 median — measured "
        f"{speedup:.2f}x at batch={best['batch']} on this run.  The "
        "chaos suite (tests/test_serve_chaos.py) covers kill-mid-batch "
        "prefix durability.",
    )
    stage_json(
        "E19",
        {
            "scale": "full" if FULL_SCALE else "small",
            "repeats": REPEATS,
            "curve": [
                {k: r[k] for k in
                 ("batch", "records", "fsyncs", "elapsed", "throughput",
                  "throughputs")}
                for r in curve
            ],
            "best_batch": best["batch"],
            "batched_speedup": speedup,
        },
    )
