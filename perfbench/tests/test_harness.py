"""Self-tests of the benchmark harness (not of the program it measures)."""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import common, inputs, serve_http
from perfbench.run import result_line
from perfbench.spans import LayerStats, Recorder, layer_metrics

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


@pytest.fixture(scope="module")
def instance():
    return inputs.small_streams(24, 12, 5)


def _trace(instance, seed):
    return inputs.session_trace(instance, seed, rate=20.0, mean_duration=2.0,
                                horizon=60.0)


def _committed_ops(instance, trace, root):
    from repro.serve.service import AdmissionCore, ServeConfig

    core = AdmissionCore.create(instance, root, config=ServeConfig(durability="flush"))
    try:
        ops = inputs.commit_walk(core, inputs.OpWalker(trace, 60.0), max_batch=8)
        return ops, core.state_digest()
    finally:
        core.close()


def test_same_seed_gives_identical_traces_and_op_streams(instance, tmp_path):
    first, second = _trace(instance, 11), _trace(instance, 11)
    for column in ("times", "streams", "durations"):
        assert getattr(first, column).tobytes() == getattr(second, column).tobytes()
    assert _trace(instance, 12).times.tobytes() != first.times.tobytes()
    ops_a, _ = _committed_ops(instance, first, tmp_path / "a")
    ops_b, _ = _committed_ops(instance, second, tmp_path / "b")
    assert repr(ops_a).encode() == repr(ops_b).encode()
    assert any(op[0] == "release" for op in ops_a)


def test_batched_op_stream_ends_at_drive_trace_digest(instance, tmp_path):
    from repro.core.indexed import index_instance
    from repro.serve.replay import drive_trace
    from repro.serve.service import AdmissionCore, ServeConfig

    trace = _trace(instance, 3)
    _, digest = _committed_ops(instance, trace, tmp_path / "batched")
    reference = AdmissionCore.create(instance, tmp_path / "ref",
                                     config=ServeConfig(durability="flush"))
    try:
        drive_trace(reference, instance, trace.to_events(index_instance(instance)), 60.0)
        assert reference.state_digest() == digest
    finally:
        reference.close()


class _EndlessOffers:
    """Walker stand-in: a fresh offer every call, nothing ever blocks."""

    def __init__(self):
        self.count = 0

    def next(self):
        self.count += 1
        return ("offer", self.count, f"k{self.count}", self.count)

    def resolve(self, op, admitted):
        pass


class _FakeServer:
    """Keep-alive HTTP stub: request ``n`` gets ``behaviour(n)``."""

    def __init__(self, behaviour):
        self.behaviour = behaviour
        self.requests = 0

    async def handle(self, reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
                await reader.readexactly(length)
                number = self.requests
                self.requests += 1
                action = self.behaviour(number)
                if action == "drop":
                    writer.close()
                    return
                if isinstance(action, float):
                    await asyncio.sleep(action)
                status = 503 if action == "shed" else 200
                body = (json.dumps({"ok": False, "error": "overloaded", "retry_after": 0.01})
                        if status == 503 else
                        json.dumps({"ok": True, "admitted": False, "seq": number}))
                writer.write((f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
                              f"Content-Length: {len(body)}\r\nConnection: keep-alive"
                              f"\r\n\r\n{body}").encode())
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()


async def _drive_fake(behaviour, *, rate, seconds, connections=1):
    from repro.serve.client import BackoffPolicy, ServeClient

    fake = _FakeServer(behaviour)
    server = await asyncio.start_server(fake.handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    clients = [ServeClient("127.0.0.1", port, seed=i, backoff=BackoffPolicy(retries=0))
               for i in range(connections)]
    try:
        return await serve_http.drive(clients, _EndlessOffers(), seconds=seconds,
                                      rate=rate)
    finally:
        for client in clients:
            await client.close()
        server.close()
        await server.wait_closed()


def test_open_loop_counts_lateness_from_due_time_through_a_stall():
    stall = 0.25
    samples = asyncio.run(_drive_fake(
        lambda n: stall if n == 5 else None, rate=100.0, seconds=0.6))
    ordered = sorted(samples, key=lambda s: s.due)
    assert len(ordered) == 60
    stalled_due = ordered[5].due
    # Requests due while the only connection was stuck were sent late,
    # and their latency includes that wait, not just their round trip.
    late = [s for s in ordered[6:] if s.due < stalled_due + stall - 0.05]
    assert late
    for sample in late:
        assert sample.sent - sample.due > 0.02
        assert sample.latency >= (stalled_due + stall) - sample.due - 0.01
        assert sample.done - sample.sent < sample.latency
    summary = serve_http.step_summary(samples, 100.0)
    assert not summary["meets_limit"]


def test_shed_or_dropped_request_is_failed_and_misses_the_limit():
    samples = asyncio.run(_drive_fake(
        lambda n: {3: "shed", 7: "drop"}.get(n), rate=200.0, seconds=0.1))
    failed = [s for s in samples if not s.ok]
    assert len(failed) == 2
    assert all(s.latency == float("inf") for s in failed)
    summary = serve_http.step_summary(samples, 200.0)
    assert summary["failed"] == 2
    assert summary["p99_ms"] == float("inf")
    assert not summary["meets_limit"]
    clean = asyncio.run(_drive_fake(lambda n: None, rate=200.0, seconds=0.1))
    assert serve_http.step_summary(clean, 200.0)["meets_limit"]


def test_metric_names_and_units_are_well_formed_and_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == common.PER_LAYER
    for table in (common.END_TO_END, common.PER_LAYER):
        values = {name: 1.5 for name in table}
        line = json.loads(result_line(True, 3, 0, values, table))
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        for name, unit in table.items():
            assert NAME.fullmatch(name) and len(name) <= 64
            assert UNIT.fullmatch(unit) and len(unit) <= 16
            assert line["metrics"][name] == {"value": 1.5, "unit": unit}


def test_layer_metrics_cover_every_per_layer_name():
    assert set(layer_metrics(LayerStats(), {})) == set(common.PER_LAYER)


def test_child_spans_stay_within_their_parent():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.002))

    def outer_body():
        inner()
        inner()

    recorder.wrap("outer", outer_body)()
    stats = LayerStats()
    stats.add_recorder(recorder)
    assert stats.calls == {"inner": 2, "outer": 1}
    assert 0 <= stats.self_time["outer"] < stats.busy["outer"]
    assert stats.busy["outer"] >= stats.busy["inner"]
    # A child claiming more time than its parent is refused.
    bad = np.array([0, 0, 0.0, 1.0, -1, 1, 1, 0.0, 2.0, 0], dtype=np.float64)
    with pytest.raises(RuntimeError):
        LayerStats().add(bad, ["outer", "inner"])


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay_churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
