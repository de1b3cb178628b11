"""Chaos suite: the admission service under crashes, kills and torn writes.

Three escalating layers of adversity, all deterministic (fixed seeds /
derandomized hypothesis) so a failure reproduces from the test alone:

- **fuzzed simulated crashes** — hypothesis picks crash schedules
  (kill and power-loss modes, arbitrary op counts, torn in-flight
  records, unsynced-tail cuts) injected at the WAL seam while a trace
  replays; the kill-and-restored run's stitched decision sequence and
  final ``state_digest`` must be bit-identical to an uninterrupted
  run, and its aggregates must match a monolithic ``simulate_trace``;
- **fuzzed torn tails** — random truncation offsets over a real WAL
  must either repair (prefix intact) or raise loudly — never parse
  garbage;
- **a real SIGKILL** — ``repro serve run`` in a subprocess, killed
  dead mid-load over HTTP, then restored; the survivors in the WAL
  must replay onto a fresh allocator to exactly the restored digest.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocate import OnlineAllocator
from repro.exceptions import ValidationError
from repro.instances.workloads import small_streams_workload
from repro.serve.client import http_call
from repro.serve.faults import FaultPlan, InjectedCrash
from repro.serve.replay import decision_report, drive_trace, drive_with_recovery
from repro.serve.service import AdmissionCore, ServeConfig
from repro.serve.wal import DecisionWal, read_wal, repair_wal
from repro.sim.policies import AllocatePolicy
from repro.sim.simulation import ArrivalModel, draw_trace, simulate_trace

HORIZON = 90.0


@pytest.fixture(scope="module")
def instance():
    return small_streams_workload(num_channels=20, num_households=12, seed=2)


@pytest.fixture(scope="module")
def trace(instance):
    return draw_trace(instance, ArrivalModel(rate=6.0, mean_duration=5.0),
                      HORIZON, seed=17)


@pytest.fixture(scope="module")
def clean_run(instance, trace, tmp_path_factory):
    """The uninterrupted reference: decisions, digest, simulator report."""
    root = tmp_path_factory.mktemp("clean") / "svc"
    core = AdmissionCore.create(instance, root,
                                config=ServeConfig(snapshot_every=64))
    decisions = drive_trace(core, instance, trace, HORIZON)
    digest = core.state_digest()
    core.close()
    report = simulate_trace(instance, AllocatePolicy(), trace, HORIZON)
    return {"decisions": decisions, "digest": digest, "report": report}


class TestFuzzedCrashRecovery:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_stitched_replay_is_bit_identical(
        self, data, instance, trace, clean_run, tmp_path_factory
    ):
        """Random crash schedules must never change a single decision."""
        total_ops = len(clean_run["decisions"])
        crashes = data.draw(st.integers(min_value=1, max_value=4), label="crashes")
        plans = []
        for lifetime in range(crashes):
            # Each lifetime's op counter restarts at 0, so any point in
            # the remaining work is a valid crash site.
            at = data.draw(
                st.integers(min_value=0, max_value=max(0, total_ops - 1)),
                label=f"crash_at[{lifetime}]",
            )
            mode = data.draw(st.sampled_from(["kill", "power"]),
                             label=f"mode[{lifetime}]")
            seed = data.draw(st.integers(min_value=0, max_value=2**31),
                             label=f"seed[{lifetime}]")
            plans.append(FaultPlan(crash_at=(at,), crash_mode=mode, seed=seed))
        snapshot_every = data.draw(st.sampled_from([3, 17, 64, 10_000]),
                                   label="snapshot_every")
        root = tmp_path_factory.mktemp("chaos") / "svc"
        out = drive_with_recovery(
            root, instance, trace, HORIZON,
            config=ServeConfig(snapshot_every=snapshot_every),
            fault_plans=plans,
        )
        assert out["decisions"] == clean_run["decisions"]
        assert out["digest"] == clean_run["digest"]
        assert out["seq"] == total_ops

    def test_aggregates_match_monolithic_simulation(
        self, instance, trace, clean_run, tmp_path
    ):
        """Kill-and-restore aggregates == one uninterrupted simulate_trace."""
        plans = [FaultPlan(crash_at=(41,), crash_mode="kill", seed=5),
                 FaultPlan(crash_at=(97,), crash_mode="power", seed=6),
                 FaultPlan(crash_at=(13,), crash_mode="power", seed=7)]
        out = drive_with_recovery(
            tmp_path / "svc", instance, trace, HORIZON,
            config=ServeConfig(snapshot_every=32), fault_plans=plans,
        )
        assert out["crashes"] == 3
        aggregates = decision_report(out["decisions"])
        report = clean_run["report"]
        assert aggregates["offered"] == report.offered
        assert aggregates["admitted"] == report.admitted
        assert aggregates["deliveries"] == report.deliveries

    def test_flush_durability_survives_kill_mode(
        self, instance, trace, clean_run, tmp_path
    ):
        """durability="flush" + SIGKILL-style crashes still stitch exactly.

        (Power loss is what flush mode trades away; process death keeps
        every byte handed to the OS.)
        """
        plans = [FaultPlan(crash_at=(23,), crash_mode="kill", seed=8),
                 FaultPlan(crash_at=(57,), crash_mode="kill", seed=9)]
        out = drive_with_recovery(
            tmp_path / "svc", instance, trace, HORIZON,
            config=ServeConfig(snapshot_every=64, durability="flush"),
            fault_plans=plans,
        )
        assert out["decisions"] == clean_run["decisions"]
        assert out["digest"] == clean_run["digest"]


class TestGroupCommitCrash:
    """A crash mid-group-commit must never tear an *acknowledged* record.

    A batch is one contiguous WAL append with one shared fsync, and
    acknowledgements happen strictly after that sync — so a crash while
    the batch is in flight may tear only records nobody was told about.
    The fuzz kills the third batch at an adversarial, seed-chosen byte
    offset (kill and power modes both) and asserts the two acknowledged
    batches survive intact and whatever else restores is a clean prefix
    of the unacked batch — torn bytes truncate-repaired, never parsed.
    """

    BATCH = 8

    def _ops(self, instance, n):
        sids = [s.stream_id for s in instance.streams]
        ops = []
        for i in range(n):
            sid = sids[i % len(sids)]
            ops.append(("offer", sid, f"o{i}"))
            ops.append(("release", sid, f"r{i}"))
        return ops

    def _drive_batches(self, core, ops):
        """Commit in batches; returns next_seq after each batch.

        A rejected offer still logs a record but a release of a
        never-admitted stream is an in-batch ValidationError with no
        WAL record — so batch boundaries are measured, not assumed.
        """
        checkpoints = []
        for start in range(0, len(ops), self.BATCH):
            core.execute_batch(ops[start:start + self.BATCH])
            checkpoints.append(core.next_seq)
        return checkpoints

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           mode=st.sampled_from(["kill", "power"]))
    def test_kill_mid_batch_never_tears_an_acked_record(
        self, instance, tmp_path_factory, seed, mode
    ):
        ops = self._ops(instance, 12)  # 24 ops = 3 batches of 8
        root = tmp_path_factory.mktemp("midbatch")
        clean = AdmissionCore.create(
            instance, root / "clean",
            config=ServeConfig(snapshot_every=10_000, commit_batch=self.BATCH),
        )
        checkpoints = self._drive_batches(clean, ops)
        reference = clean.decisions()
        clean.close()
        acked = checkpoints[1]  # records durable before the killed batch

        # Crash on the third batch append (the first two are acked).
        plan = FaultPlan(crash_at=(2,), crash_mode=mode, seed=seed)
        core = AdmissionCore.create(
            instance, root / "chaos",
            config=ServeConfig(snapshot_every=10_000, commit_batch=self.BATCH),
            fault_plan=plan,
        )
        with pytest.raises(InjectedCrash):
            self._drive_batches(core, ops)

        restored = AdmissionCore.restore(root / "chaos")
        survivors = restored.decisions()
        # the whole acknowledged prefix survives, bit-for-bit...
        assert restored.next_seq >= acked
        assert survivors[:acked] == reference[:acked]
        # ...and the unacked tail is a clean prefix of the torn batch,
        # never a fabricated or half-parsed record.
        assert survivors == reference[:len(survivors)]
        assert restored.next_seq <= len(reference)
        restored.close()


class TestFuzzedTornTails:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(cut=st.integers(min_value=0, max_value=10_000),
           junk=st.binary(max_size=40))
    def test_truncation_repairs_or_raises_never_garbage(
        self, tmp_path_factory, cut, junk
    ):
        """Any truncation (+ optional junk tail) → repair or loud error."""
        root = tmp_path_factory.mktemp("torn")
        path = root / "wal.jsonl"
        wal = DecisionWal(path)
        for i in range(12):
            wal.append({"op": "offer", "k": i, "users": [i, i + 1]})
        wal.close()
        data = path.read_bytes()
        cut = min(cut, len(data))
        path.write_bytes(data[:cut] + junk)
        try:
            records, _dropped = repair_wal(path)
        except ValidationError:
            return  # loud refusal is a correct outcome
        # Repair must keep exactly the complete-record prefix of the cut
        # (junk may accidentally terminate the torn record, but never
        # fabricate a *valid* checksummed one).
        assert all(r["k"] == r["seq"] for r in records)
        assert len(records) <= 12
        reread, good = read_wal(path)
        assert reread == records
        assert good == path.stat().st_size


class TestRealSigkill:
    def test_sigkill_mid_load_restores_consistently(self, tmp_path):
        """SIGKILL a live server mid-HTTP-load; survivors must replay exactly."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        root = tmp_path / "svc"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run",
             "--dir", str(root),
             "--workload", "small-streams", "--streams", "16", "--users", "10",
             "--seed", "4", "--snapshot-every", "7"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            started = json.loads(proc.stdout.readline())
            port = started["port"]
            # Hammer offers/releases; the kill lands mid-stream.
            sent = 0
            for i in range(60):
                if i == 37:
                    proc.kill()
                try:
                    status, _body = http_call(
                        "127.0.0.1", port, "POST", "/offer",
                        {"stream": i % 16, "key": f"o{i}"}, timeout=2.0)
                except (OSError, ValidationError):
                    # Connection refused / reset / half-written response:
                    # the kill landed.
                    break
                if status != 200:
                    break
                sent += 1
        finally:
            proc.kill()
            proc.wait()
        assert sent >= 1, "server never accepted load"
        # Restore: whatever survived must replay bit-exactly.
        restored = AdmissionCore.restore(root)
        records = restored.decisions()
        assert restored.next_seq == len(records)
        reference = OnlineAllocator(restored.instance,
                                    mu=restored.allocator.mu)
        for record in records:
            if record["op"] == "offer":
                users = [int(u) for u in reference.offer_indexed(int(record["k"]))]
                assert users == [int(u) for u in record["users"]]
            else:
                reference.release_indexed(int(record["k"]))
        assert restored.state_digest() == reference.state_digest()
        restored.close()
        # And the restored directory serves again.
        proc2 = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run", "--dir", str(root)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            again = json.loads(proc2.stdout.readline())
            assert again["seq"] == len(records)
            status, health = http_call("127.0.0.1", again["port"], "GET", "/health",
                                       timeout=2.0)
            assert status == 200 and health["ok"]
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=15) == 0
        finally:
            proc2.kill()
            proc2.wait()
