"""Span recording around calls into the program's layers (traced runs only).

:func:`install` replaces each layer entry point with a wrapper that
records a span — id, name, start, end, parent — at the name the caller
resolves: a class attribute for methods, the module global a caller
looks up (``repro.serve.service.write_snapshot`` is imported there by
name, ``DecisionWal.append_many`` looks up ``repro.serve.wal
.encode_record``), or both where pickling needs it (``execute_item``).
Spans stay in memory; a process that is not the recorder's owner (a
forked pool worker, the traced server) writes them out with
:meth:`Recorder.dump` and the owner merges them with :func:`load_dumps`.
Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

_FIELDS = 5  # sid, name id, start, end, parent sid


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self, dump_dir: "str | Path | None" = None) -> None:
        self.dump_dir = None if dump_dir is None else Path(dump_dir)
        self.owner_pid = os.getpid()
        self.names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        """Drop every span and counter (a forked child starts empty)."""
        self.spans = array("d")
        self.counters: "defaultdict[str, float]" = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._dumps = 0

    def name_id(self, name: str) -> int:
        """Stable small integer for a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span.

        ``before(recorder, args)`` and ``after(recorder, args, result)``
        update counters around the call.
        """
        nid = self.name_id(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(recorder._ids)
            parent = stack[-1] if stack else -1
            if before is not None:
                before(recorder, args)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.extend((sid, nid, start, end, parent))
            if after is not None:
                after(recorder, args, result)
            return result

        return traced

    def dump(self) -> None:
        """Write this process's spans and counters to ``dump_dir`` and clear them."""
        if self.dump_dir is None:
            return
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        stem = self.dump_dir / f"{os.getpid()}-{self._dumps:05d}"
        self._dumps += 1
        np.save(f"{stem}.npy", np.frombuffer(self.spans, dtype=np.float64))
        Path(f"{stem}.json").write_text(json.dumps({
            "names": self.names, "counters": dict(self.counters),
        }))
        self.spans = array("d")
        self.counters = defaultdict(float)


class LayerStats:
    """Per-name span totals: calls, busy seconds, self seconds."""

    def __init__(self) -> None:
        self.calls: "defaultdict[str, int]" = defaultdict(int)
        self.busy: "defaultdict[str, float]" = defaultdict(float)
        self.self_time: "defaultdict[str, float]" = defaultdict(float)
        self.counters: "defaultdict[str, float]" = defaultdict(float)
        self.child_calls: "defaultdict[tuple[str, str], int]" = defaultdict(int)
        self.spans = 0

    def add(self, flat: np.ndarray, names: "list[str]", counters=None) -> None:
        """Fold one process's flat span array into the totals.

        Raises ``RuntimeError`` if children cover more than their parent's
        interval, which would make a self time negative.
        """
        for key, value in (counters or {}).items():
            self.counters[key] += value
        if flat.size == 0:
            return
        rows = flat.reshape(-1, _FIELDS)
        sid = rows[:, 0].astype(np.int64)
        nid = rows[:, 1].astype(np.int64)
        duration = rows[:, 3] - rows[:, 2]
        parent = rows[:, 4].astype(np.int64)
        child = np.zeros(int(sid.max()) + 1)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child[sid]
        if (own < -1e-6).any():
            raise RuntimeError("child spans cover more than their parent span")
        # Calls per (child, parent) name pair, e.g. the offers a batched
        # offer hands to the per-offer path.
        parent_name = np.full(len(sid), -1)
        row_of = np.full(int(sid.max()) + 1, -1)
        row_of[sid] = np.arange(len(sid))
        linked = has_parent & (row_of[np.where(has_parent, parent, 0)] >= 0)
        parent_name[linked] = nid[row_of[parent[linked]]]
        self.spans += len(sid)
        pairs, tally = np.unique(
            np.stack([nid[linked], parent_name[linked]]), axis=1, return_counts=True
        ) if linked.any() else (np.empty((2, 0), dtype=np.int64), [])
        for (child_id, parent_id), n in zip(pairs.T, tally):
            self.child_calls[(names[child_id], names[parent_id])] += int(n)
        for i, name in enumerate(names):
            mine = nid == i
            if not mine.any():
                continue
            self.calls[name] += int(mine.sum())
            self.busy[name] += float(duration[mine].sum())
            self.self_time[name] += float(own[mine].sum())

    def add_recorder(self, recorder: Recorder) -> None:
        """Fold an in-process recorder's spans and counters."""
        self.add(np.frombuffer(recorder.spans, dtype=np.float64),
                 recorder.names, recorder.counters)


def load_dumps(stats: LayerStats, dump_dir: "str | Path") -> None:
    """Fold every dump a worker or server process wrote into ``stats``."""
    for path in sorted(Path(dump_dir).glob("*.json")):
        meta = json.loads(path.read_text())
        flat = np.load(path.with_suffix(".npy"))
        stats.add(flat, meta["names"], meta["counters"])


# ----------------------------------------------------------------------
# Patch table
# ----------------------------------------------------------------------


def _after_offer(recorder, args, result):
    recorder.counters["allocator.admitted"] += 1 if len(result) else 0


def _after_offer_batch(recorder, args, result):
    recorder.counters["allocator.offer_batch.answers"] += len(result)


def _before_execute_batch(recorder, args):
    recorder.counters["service.batch_ops"] += len(args[1])


def _before_append_many(recorder, args):
    recorder.counters["wal.records"] += len(args[1])


def _before_sink(recorder, args):
    sink, data = args[0], args[1]
    recorder.counters["wal.bytes"] += len(data)
    if sink.durability == "fsync":
        recorder.counters["wal.fsyncs"] += 1


def _before_sync(recorder, args):
    recorder.counters["wal.fsyncs"] += 1


def _after_write_snapshot(recorder, args, result):
    folder = Path(args[0]) / "snapshots" / str(result)
    recorder.counters["snapshot.bytes"] += sum(
        p.stat().st_size for p in folder.rglob("*") if p.is_file()
    )


def _after_simulate(recorder, args, report):
    recorder.counters["sim.events"] += len(args[2])
    recorder.counters["sim.offered"] += report.offered
    recorder.counters["sim.admitted"] += report.admitted


def _after_execute(recorder, args, result):
    """Count a pool worker's unit and write its spans out."""
    was_cached, _row = result
    recorder.counters["sweep.units"] += 0 if was_cached else 1
    if os.getpid() != recorder.owner_pid:
        recorder.dump()


def _targets():
    """``(owner, attribute, span name, before, after)`` for every layer."""
    import repro.core.allocate as allocate
    import repro.experiments.aggregate as aggregate
    import repro.experiments.checkpoint as checkpoint
    import repro.experiments.execute as execute
    import repro.experiments.transport.local as local
    import repro.instances.workloads as workloads
    import repro.serve.service as service
    import repro.serve.wal as wal
    import repro.sim.indexed as sim_indexed
    import repro.sim.policies as policies
    import repro.sim.simulation as simulation

    table = [
        (allocate.OnlineAllocator, "offer_indexed", "allocator.offer", None, _after_offer),
        (allocate.OnlineAllocator, "release_indexed", "allocator.release", None, None),
        (allocate.OnlineAllocator, "offer_batch", "allocator.offer_batch", None,
         _after_offer_batch),
        (service.AdmissionCore, "execute_batch", "service.execute_batch",
         _before_execute_batch, None),
        (service.AdmissionCore, "restore", "service.restore", None, None),
        (service, "repair_wal", "restore.read_wal", None, None),
        (service, "load_snapshot", "restore.load_snapshot", None, None),
        (service, "write_snapshot", "snapshot.write", None, _after_write_snapshot),
        (wal, "encode_record", "wal.encode", None, None),
        (wal, "decode_record", "wal.decode", None, None),
        (wal.DecisionWal, "append_many", "wal.append_many", _before_append_many, None),
        (wal.FileSink, "append", "wal.sink", _before_sink, None),
        (wal.FileSink, "sync", "wal.sync", _before_sync, None),
        (simulation, "simulate_trace", "sim.replay", None, _after_simulate),
        (sim_indexed, "draw_trace_arrays", "sim.draw", None, None),
        (checkpoint.CheckpointWriter, "append", "sweep.checkpoint_append", None, None),
        (aggregate.ExperimentRun, "to_jsonl", "sweep.merge", None, None),
        (workloads, "small_streams_workload", "instance.build", None, None),
        (workloads, "iptv_neighborhood_workload", "instance.build", None, None),
    ]
    for cls in (policies.AllocatePolicy, policies.ThresholdPolicy):
        table += [
            (cls, "on_offer_indexed", "policy.on_offer", None, None),
            (cls, "on_offer_batch", "policy.on_offer_batch", None, None),
            (cls, "on_release_indexed", "policy.on_release", None, None),
        ]
    # The local transport resolves its own imported name; pickling the
    # callable for a pool worker resolves it in the defining module.
    table += [
        (execute, "execute_item", "sweep.execute", None, _after_execute),
        (local, "execute_item", "sweep.execute", None, _after_execute),
    ]
    return table


def install(recorder: Recorder) -> "callable":
    """Wrap every layer entry point; returns a function undoing it.

    One wrapper object is shared by all rows naming the same original
    callable (``execute_item`` lives in two modules), so identity checks
    such as pickling by reference keep working.
    """
    undo = []
    shared: "dict[int, object]" = {}
    for owner, attr, name, before, after in _targets():
        own = attr in vars(owner)
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        key = id(getattr(original, "__func__", original))
        wrapper = shared.get(key)
        if wrapper is None:
            wrapper = recorder.wrap(name, original, before, after)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = staticmethod(wrapper)
            shared[key] = wrapper
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, own, raw))

    def uninstall() -> None:
        for owner, attr, own, raw in reversed(undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    return uninstall


@contextlib.contextmanager
def tracing(recorder: "Recorder | None"):
    """Hooks installed for the ``with`` body when ``recorder`` is given."""
    if recorder is None:
        yield
        return
    uninstall = install(recorder)
    try:
        yield
    finally:
        uninstall()


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: LayerStats, extras: "dict[str, float]") -> "dict[str, float]":
    """Every per-layer metric of :data:`perfbench.common.PER_LAYER`.

    Totals cover the traced window; ``extras`` supplies what spans cannot
    see (client-side latencies, ``/stats`` counters, wall-clock shares)
    and overrides the span-derived defaults.
    """
    from perfbench.common import PER_LAYER

    calls, busy, own, count = stats.calls, stats.busy, stats.self_time, stats.counters
    # offer_batch hands its first admitting offer to offer_indexed, so
    # that answer would otherwise count twice.
    offers = (calls["allocator.offer"] + count["allocator.offer_batch.answers"]
              - stats.child_calls[("allocator.offer", "allocator.offer_batch")])
    restores = calls["service.restore"]
    records = count["wal.records"]
    read_wal = busy["restore.read_wal"]
    load_snapshot = busy["restore.load_snapshot"]
    values = {
        "service.execute_batch.calls": calls["service.execute_batch"],
        "service.execute_batch.busy_us": busy["service.execute_batch"] * 1e6,
        "service.execute_batch.self_us": own["service.execute_batch"] * 1e6,
        "service.batch_size_mean": _ratio(count["service.batch_ops"],
                                          calls["service.execute_batch"]),
        "restore.total_s": _ratio(busy["service.restore"], restores),
        "restore.read_wal_s": _ratio(read_wal, restores),
        "restore.load_snapshot_s": _ratio(load_snapshot, restores),
        "restore.replay_s": _ratio(
            busy["service.restore"] - read_wal - load_snapshot, restores),
        "allocator.offer.calls": calls["allocator.offer"],
        "allocator.offer.busy_us": busy["allocator.offer"] * 1e6,
        "allocator.release.calls": calls["allocator.release"],
        "allocator.release.busy_us": busy["allocator.release"] * 1e6,
        "allocator.admit_ratio": _ratio(count["allocator.admitted"], offers),
        "allocator.offer_batch.calls": calls["allocator.offer_batch"],
        "allocator.offer_batch.busy_us": busy["allocator.offer_batch"] * 1e6,
        "allocator.offer_batch.prefix_mean": _ratio(
            count["allocator.offer_batch.answers"], calls["allocator.offer_batch"]),
        "wal.encode.us_per_record": _ratio(busy["wal.encode"] * 1e6,
                                           calls["wal.encode"]),
        "wal.append_many.busy_us": busy["wal.append_many"] * 1e6,
        "wal.sink.busy_us": busy["wal.sink"] * 1e6,
        "wal.fsyncs": count["wal.fsyncs"],
        "wal.bytes_per_record": _ratio(count["wal.bytes"], records),
        "wal.decode.us_per_record": _ratio(busy["wal.decode"] * 1e6,
                                           calls["wal.decode"]),
        "snapshot.write.count": calls["snapshot.write"],
        "snapshot.write.busy_ms": busy["snapshot.write"] * 1e3,
        "snapshot.bytes": _ratio(count["snapshot.bytes"], calls["snapshot.write"]),
        "sim.draw_s": busy["sim.draw"],
        "sim.replay_s": busy["sim.replay"],
        "sim.replay_self_s": own["sim.replay"],
        "sim.offered": count["sim.offered"],
        "sim.admitted": count["sim.admitted"],
        "sim.events_per_s": _ratio(count["sim.events"], busy["sim.replay"]),
        "policy.on_offer.calls": calls["policy.on_offer"] + calls["policy.on_offer_batch"],
        "policy.on_offer.busy_us": (busy["policy.on_offer"]
                                    + busy["policy.on_offer_batch"]) * 1e6,
        "policy.on_release.calls": calls["policy.on_release"],
        "policy.on_release.busy_us": busy["policy.on_release"] * 1e6,
        "instance.build_s": _ratio(busy["instance.build"], calls["instance.build"]),
        "trace.spans": stats.spans,
    }
    values.update(extras)
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
