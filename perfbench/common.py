"""Shared helpers: metric catalogue, percentiles, memory, host record, work dir."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

#: End-to-end metrics, printed by every run with ``--trace 0``.  Each
#: workload measures them on its own path (see NOTES.md): latency runs
#: from when a request was due to its answer, where a request is an HTTP
#: offer/release (``serve_http``), a trace replay (``replay_churn``) or
#: a whole sweep (``sweep``).  The tail is the workload's ``TAIL``
#: percentile.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: Per-layer metrics, printed by every run with ``--trace 1``.  A layer
#: a workload never calls reads 0.
PER_LAYER = {
    "http.envelope_us": "us",
    "http.shed": "count",
    "http.served": "count",
    "http.max_rate_at_slo": "1/s",
    "http.closed_loop_offers_per_s": "1/s",
    "service.execute_batch.calls": "count",
    "service.execute_batch.busy_us": "us",
    "service.execute_batch.self_us": "us",
    "service.batch_size_mean": "ops",
    "restore.total_s": "s",
    "restore.read_wal_s": "s",
    "restore.load_snapshot_s": "s",
    "restore.replay_s": "s",
    "restore.replayed": "count",
    "allocator.offer.calls": "count",
    "allocator.offer.busy_us": "us",
    "allocator.release.calls": "count",
    "allocator.release.busy_us": "us",
    "allocator.admit_ratio": "ratio",
    "allocator.offer_batch.calls": "count",
    "allocator.offer_batch.busy_us": "us",
    "allocator.offer_batch.prefix_mean": "answers",
    "wal.encode.us_per_record": "us",
    "wal.append_many.busy_us": "us",
    "wal.sink.busy_us": "us",
    "wal.fsyncs": "count",
    "wal.bytes_per_record": "B",
    "wal.decode.us_per_record": "us",
    "snapshot.write.count": "count",
    "snapshot.write.busy_ms": "ms",
    "snapshot.bytes": "B",
    "sim.draw_s": "s",
    "sim.replay_s": "s",
    "sim.replay_self_s": "s",
    "sim.offered": "count",
    "sim.admitted": "count",
    "sim.events_per_s": "1/s",
    "policy.on_offer.calls": "count",
    "policy.on_offer.busy_us": "us",
    "policy.on_release.calls": "count",
    "policy.on_release.busy_us": "us",
    "sweep.execute_s": "s",
    "sweep.cell_build_s": "s",
    "sweep.unit_replay_s": "s",
    "sweep.cell_builds_per_unit": "ratio",
    "sweep.checkpoint_append_ms": "ms",
    "sweep.merge_s": "s",
    "sweep.dispatch_s": "s",
    "sweep.worker_utilization": "ratio",
    "instance.build_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); infinite samples count as misses."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def median(values) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set of any waited-for child process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> "float | None":
    """``VmHWM`` of a live process, in MB (``None`` where /proc is absent)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def filesystem_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (``unknown`` off Linux)."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def host_record(work: Path) -> "dict[str, object]":
    """What a result depends on besides the code: CPUs, versions, disk."""
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "work_dir_fs": filesystem_type(work),
        "wal_flush": "fsync",
    }


class WorkDir:
    """A scratch directory inside the checkout, removed on exit.

    It lives under the checkout (disk-backed on any normal clone) rather
    than the system temp dir, which is often tmpfs: on tmpfs ``fsync``
    is free and the serving workloads would measure a different program.
    """

    def __init__(self, root: Path, workload: str) -> None:
        self.path = root / ".perfbench_work" / f"{workload}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = self.path.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def digest(obj) -> str:
    """SHA-256 of an object's canonical JSON (floats in full precision)."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def pass_schedule(seconds: float, trace: bool, min_passes: int = 3):
    """Yield one ``traced`` flag per measured pass until ``seconds`` elapse.

    Untraced runs yield ``False`` only.  Traced runs alternate untraced
    and traced passes (at least ``min_passes`` of each), so one run gives
    both the per-layer spans and the tracing overhead.

    Every pass repeats the same deterministic work, and the host this
    benchmark runs on shares its CPUs with other tenants whose load
    switches between regimes lasting seconds to minutes: a pass caught
    in a slow regime measures the neighbours.  The host only ever adds
    time, so workloads report their fastest pass (see NOTES.md).
    """
    deadline = time.perf_counter() + seconds
    done = 0
    per_kind = 2 if trace else 1
    while done < min_passes * per_kind or time.perf_counter() < deadline:
        yield trace and done % 2 == 1
        done += 1


class SetupClock:
    """Times every call of a workload's set-up; reports the fastest.

    Workloads call it once before the first pass and again between
    passes, so its samples meet the same host regimes the passes do.
    Set-up is deterministic work, so a change to it moves every sample
    alike, while the host only ever adds time: :attr:`seconds` is the
    minimum.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.times: "list[float]" = []

    def __call__(self):
        started = time.perf_counter()
        result = self.fn()
        self.times.append(time.perf_counter() - started)
        return result

    @property
    def seconds(self) -> float:
        """The shortest recorded set-up time."""
        return min(self.times)
