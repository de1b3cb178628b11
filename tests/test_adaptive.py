"""Adaptive grid refinement: determinism, resume, and subdivision rules.

The adaptive sweep's contract is that the whole multi-round procedure
is a pure function of ``(spec, rounds, top_k)``: running it twice —or
killing it mid-round and resuming — produces byte-identical aggregates.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ValidationError
from repro.experiments import ScenarioSpec, run_adaptive
from repro.experiments.adaptive import _midpoints, _refine_axes
from repro.experiments.checkpoint import read_checkpoint
from repro.experiments.spec import SpecError

SMOKE = ScenarioSpec(
    name="smoke", kind="solve", family="sweep",
    streams=(6, 12), users=(4,), skews=(1.0, 4.0), params={"density": 0.3},
)

SIM = ScenarioSpec(
    name="sim", kind="simulate", family="iptv",
    streams=(8, 16), users=(4,), replicates=1,
    policies=("threshold", "density"), horizon=40.0, duration=10.0,
)


class TestRefinementRules:
    def test_integer_midpoints(self):
        seen = {4, 8, 16}
        assert _midpoints(8, sorted(seen), seen, True) == {6, 12}
        assert _midpoints(4, sorted(seen), seen, True) == {6}

    def test_float_midpoints(self):
        seen = {1.0, 4.0}
        assert _midpoints(1.0, sorted(seen), seen, False) == {2.5}

    def test_exhausted_axis_yields_nothing(self):
        seen = {4, 5}
        assert _midpoints(4, sorted(seen), seen, True) == set()

    def test_refine_axes_focuses_on_top_cells(self):
        seen = {"streams": {6, 12}, "users": {4}, "skews": {1.0, 4.0}}
        axes, grew = _refine_axes(SMOKE, [(12, 4, 4.0)], seen)
        assert grew
        assert axes["streams"] == (9, 12)  # midpoint toward 6, plus the top
        assert axes["users"] == (4,)       # single value: nothing to split
        assert axes["skews"] == (2.5, 4.0)

    def test_determinism(self):
        first = run_adaptive(SMOKE, rounds=3, top_k=1)
        second = run_adaptive(SMOKE, rounds=3, top_k=1)
        assert first.to_jsonl() == second.to_jsonl()
        assert [len(r.rows) for r in first.rounds] == [
            len(r.rows) for r in second.rounds
        ]

    def test_simulate_kind_refines_too(self):
        run = run_adaptive(SIM, rounds=2, top_k=1)
        assert len(run.rounds) == 2
        assert run.to_jsonl() == run_adaptive(SIM, rounds=2, top_k=1).to_jsonl()

    def test_single_cell_grid_converges_immediately(self):
        spec = ScenarioSpec(
            name="cell", kind="solve", family="sweep",
            streams=(6,), users=(4,), skews=(1.0,), params={"density": 0.3},
        )
        run = run_adaptive(spec, rounds=3, top_k=2)
        assert len(run.rounds) == 1  # no neighbor to subdivide toward

    def test_rounds_one_equals_plain_sweep(self):
        from repro.experiments import run_experiment

        assert (
            run_adaptive(SMOKE, rounds=1).to_jsonl()
            == run_experiment(SMOKE).to_jsonl()
        )


class TestValidation:
    def test_bad_refine_metric_rejected(self):
        with pytest.raises(SpecError, match="refine_metric"):
            ScenarioSpec(
                name="bad", kind="solve", family="sweep",
                streams=(6,), users=(4,), refine_metric="vibes",
            ).validate()

    def test_refine_metric_overrides_objective(self):
        spec = ScenarioSpec(
            name="jain", kind="solve", family="sweep",
            streams=(6, 12), users=(4,), params={"density": 0.3},
            refine_metric="jain",
        )
        assert (
            run_adaptive(spec, rounds=2).to_jsonl()
            == run_adaptive(spec, rounds=2).to_jsonl()
        )

    def test_jsonl_family_rejected(self, tmp_path):
        feed = tmp_path / "in.jsonl"
        feed.write_text("")
        spec = ScenarioSpec(
            name="file", kind="solve", family="jsonl", input=str(feed),
        )
        with pytest.raises(ValidationError, match="jsonl"):
            run_adaptive(spec, rounds=2)

    def test_default_size_axes_rejected(self):
        spec = ScenarioSpec(
            name="dflt", kind="simulate", family="iptv",
            policies=("threshold",), horizon=20.0, duration=10.0,
        )
        with pytest.raises(ValidationError, match="explicit"):
            run_adaptive(spec, rounds=2)

    def test_bad_round_counts_rejected(self):
        with pytest.raises(ValidationError, match="rounds"):
            run_adaptive(SMOKE, rounds=0)
        with pytest.raises(ValidationError, match="top-k"):
            run_adaptive(SMOKE, rounds=2, top_k=0)


class TestResume:
    def test_kill_mid_round_two_resumes_byte_identically(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.execute as execute_mod

        uninterrupted = run_adaptive(
            SMOKE, rounds=3, top_k=1,
            checkpoint=str(tmp_path / "clean.jsonl"),
        )
        round0_units = len(uninterrupted.rounds[0].rows)

        # Re-run with a fresh checkpoint, killing after two units of
        # round 2 (round index 1) have completed — exactly what the
        # SIGTERM handler does mid-round.
        calls = []
        original = execute_mod._execute_solve_unit

        def dying(spec, unit):
            if len(calls) >= round0_units + 2:
                raise KeyboardInterrupt
            calls.append(unit.index)
            return original(spec, unit)

        monkeypatch.setattr(execute_mod, "_execute_solve_unit", dying)
        ckpt = str(tmp_path / "killed.jsonl")
        with pytest.raises(KeyboardInterrupt):
            run_adaptive(SMOKE, rounds=3, top_k=1, checkpoint=ckpt)
        assert len(read_checkpoint(f"{ckpt}.round0")) == round0_units
        partial = read_checkpoint(f"{ckpt}.round1")
        assert 0 < len(partial) < len(uninterrupted.rounds[1].rows)

        # Resume: completed rounds replay from their checkpoints, the
        # interrupted round continues, later rounds re-derive the same
        # grids — byte-for-byte the uninterrupted run.
        executed = []

        def counting(spec, unit):
            executed.append(unit.index)
            return original(spec, unit)

        monkeypatch.setattr(execute_mod, "_execute_solve_unit", counting)
        resumed = run_adaptive(
            SMOKE, rounds=3, top_k=1, checkpoint=ckpt, resume=True,
        )
        assert resumed.to_jsonl() == uninterrupted.to_jsonl()
        expected_fresh = (
            len(uninterrupted.rounds[1].rows) - len(partial)
            + len(uninterrupted.rounds[2].rows)
        )
        assert len(executed) == expected_fresh  # rounds 0–1 not re-run


class TestCLI:
    def test_sweep_rounds_flag(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        out = tmp_path / "adaptive.jsonl"
        assert main(["sweep", str(spec_path), "--rounds", "2",
                     "--refine-top", "1", "-o", str(out)]) == 0
        assert out.read_text() == run_adaptive(
            SMOKE, rounds=2, top_k=1
        ).to_jsonl()
        assert "rounds executed" in capsys.readouterr().err

    def test_junk_rounds_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        with pytest.raises(SystemExit):
            main(["sweep", str(spec_path), "--rounds", "many"])
        assert main(["sweep", str(spec_path), "--rounds", "0",
                     "--refine-top", "1"]) == 0  # 0 rounds = plain sweep path
        capsys.readouterr()
