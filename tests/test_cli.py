"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.instance import MMDInstance


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = main(
        [
            "generate",
            "--family", "unit-skew-smd",
            "--streams", "8",
            "--users", "4",
            "--seed", "3",
            "-o", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_emits_valid_instance(self, instance_file):
        inst = MMDInstance.from_json(instance_file.read_text())
        assert inst.num_streams == 8
        assert inst.num_users == 4

    def test_stdout_default(self, capsys):
        assert main(["generate", "--streams", "3", "--users", "2"]) == 0
        out = capsys.readouterr().out
        inst = MMDInstance.from_json(out)
        assert inst.num_streams == 3

    def test_all_families(self, capsys):
        for family in (
            "unit-skew-smd", "smd", "mmd", "small-streams", "tightness",
            "iptv",
        ):
            assert main(
                ["generate", "--family", family, "--streams", "6",
                 "--users", "3", "--m", "2", "--mc", "2"]
            ) == 0
            MMDInstance.from_json(capsys.readouterr().out)


class TestInfo:
    def test_prints_parameters(self, instance_file, capsys):
        assert main(["info", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "local skew" in out
        assert "Theorem 1.1 bound" in out


class TestSolve:
    def test_basic(self, instance_file, capsys):
        assert main(["solve", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "utility" in out
        assert "feasible" in out

    def test_exact_comparison(self, instance_file, capsys):
        assert main(["solve", str(instance_file), "--exact"]) == 0
        out = capsys.readouterr().out
        assert "exact optimum" in out
        assert "measured ratio" in out

    def test_bound_comparison(self, instance_file, capsys):
        assert main(["solve", str(instance_file), "--bound"]) == 0
        assert "LP upper bound" in capsys.readouterr().out

    def test_assignment_output(self, instance_file, tmp_path, capsys):
        out_path = tmp_path / "solution.json"
        assert main(["solve", str(instance_file), "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert "assignment" in payload
        assert payload["utility"] > 0


class TestValidate:
    def test_valid_instance_ok(self, instance_file, capsys):
        assert main(["validate", str(instance_file)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_invalid_instance_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # A user whose single stream load exceeds his capacity.
        path.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "budgets": [10.0],
                    "streams": [
                        {"stream_id": "s", "costs": [1.0], "name": "", "attrs": {}}
                    ],
                    "users": [
                        {
                            "user_id": "u",
                            "utility_cap": "inf",
                            "capacities": [1.0],
                            "utilities": {"s": 5.0},
                            "loads": {"s": [3.0]},
                            "attrs": {},
                        }
                    ],
                }
            )
        )
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_sanitize_repairs(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "budgets": [10.0],
                    "streams": [
                        {"stream_id": "s", "costs": [1.0], "name": "", "attrs": {}}
                    ],
                    "users": [
                        {
                            "user_id": "u",
                            "utility_cap": "inf",
                            "capacities": [1.0],
                            "utilities": {"s": 5.0},
                            "loads": {"s": [3.0]},
                            "attrs": {},
                        }
                    ],
                }
            )
        )
        out_path = tmp_path / "fixed.json"
        assert main(["validate", str(path), "--sanitize", "-o", str(out_path)]) == 0
        fixed = MMDInstance.from_json(out_path.read_text())
        assert fixed.user("u").utility("s") == 0.0

    def test_garbage_unrepairable(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text('{"nope": 1}')
        assert main(["validate", str(path), "--sanitize"]) == 1
        assert "unrepairable" in capsys.readouterr().err


class TestSimulate:
    def test_runs_policies(self, capsys):
        code = main(
            [
                "simulate",
                "--workload", "iptv",
                "--policies", "threshold", "allocate",
                "--horizon", "50",
                "--rate", "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold" in out
        assert "allocate" in out
        assert "fairness" in out

    def test_unknown_policy_rejected(self, capsys):
        code = main(
            ["simulate", "--policies", "warp", "--horizon", "10"]
        )
        assert code == 2
        assert "unknown policies" in capsys.readouterr().err

    def test_engine_flag_selects_dict_path(self, capsys):
        code = main(
            [
                "simulate",
                "--policies", "threshold",
                "--horizon", "30",
                "--engine", "dict",
            ]
        )
        assert code == 0
        assert "threshold" in capsys.readouterr().out

    def test_parallel_replay(self, capsys):
        code = main(
            [
                "simulate",
                "--policies", "threshold", "density",
                "--horizon", "30",
                "--parallel", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold" in out
        assert "density" in out


class TestEngineErrors:
    def test_unknown_env_engine_exits_cleanly(
        self, instance_file, capsys, monkeypatch
    ):
        """A bogus ``$REPRO_ENGINE`` must exit with code 2 and a one-line
        message naming the choices — never a traceback."""
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        assert main(["solve", str(instance_file)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "'bogus'" in err
        assert "batched" in err
        assert "Traceback" not in err

    def test_unknown_env_sim_engine_exits_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "turbo")
        code = main(["simulate", "--policies", "threshold", "--horizon", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'turbo'" in err
        assert "batched" in err

    def test_retired_chunked_sim_engine_is_unknown(
        self, tmp_path, capsys, monkeypatch
    ):
        """``chunked`` is no simulation engine: the flag, the env var and
        a spec naming it all exit 2 as for any unknown engine."""
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--engine", "chunked", "--horizon", "5"])
        assert exc.value.code == 2
        assert "invalid choice: 'chunked'" in capsys.readouterr().err

        monkeypatch.setenv("REPRO_SIM_ENGINE", "chunked")
        assert main(["simulate", "--policies", "threshold", "--horizon", "5"]) == 2
        assert "unknown simulation engine 'chunked'" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_SIM_ENGINE")

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "retired", "kind": "simulate", "family": "iptv",
            "streams": [8], "users": [4], "policies": ["threshold"],
            "horizon": 10.0, "sim_engine": "chunked",
        }))
        assert main(["sweep", str(spec), "-o", str(tmp_path / "out.jsonl")]) == 2
        assert "unknown simulation engine 'chunked'" in capsys.readouterr().err


class TestGracefulInterrupt:
    """SIGTERM mid-grid must checkpoint-and-exit 130, and ``--resume``
    must finish the grid without redoing completed units."""

    GRID = [
        "simulate-many",
        "--workload", "small-streams",
        "--streams", "16", "--users", "8",
        "--replicates", "4",
        "--policies", "allocate",
        "--horizon", "10000", "--rate", "8",
    ]

    def _spawn(self, tmp_path, *extra):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        ck = tmp_path / "ck.jsonl"
        out = tmp_path / "out.jsonl"
        cmd = [sys.executable, "-m", "repro", *self.GRID,
               "--checkpoint", str(ck), "-o", str(out), *extra]
        return ck, out, subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )

    def test_sigterm_checkpoints_then_resume_completes(self, tmp_path):
        import signal
        import time

        ck, out, proc = self._spawn(tmp_path)
        try:
            # Wait for the first completed unit to hit the checkpoint,
            # then interrupt while later units are still running.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if ck.exists() and ck.read_text().count("\n") >= 1:
                    break
                if proc.poll() is not None:
                    pytest.fail(f"grid finished early: {proc.stderr.read()}")
                time.sleep(0.05)
            else:
                pytest.fail("no checkpoint row appeared within 60s")
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            stderr = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
        assert rc == 130, stderr
        assert "rerun with --resume" in stderr
        done = [json.loads(line) for line in ck.read_text().splitlines()]
        assert 1 <= len(done) < 4, "interrupt landed outside the grid"
        # Every checkpointed row is complete (flushed, parseable, keyed).
        assert all("unit" in row or row for row in done)
        # Resume: fills in only the missing units and exits cleanly.
        ck2, out2, proc2 = self._spawn(tmp_path, "--resume")
        try:
            rc2 = proc2.wait(timeout=120)
            stderr2 = proc2.stderr.read()
        finally:
            proc2.kill()
            proc2.wait()
        assert rc2 == 0, stderr2
        assert ck2.read_text().count("\n") == 4
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 4
