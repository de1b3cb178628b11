"""The experiment orchestration layer: specs, sharded runner, CLI.

Covers the acceptance contracts of the subsystem:

- shard union == unsharded run (same unit ids, byte-identical
  aggregates), both through the API and through ``repro sweep``;
- resume-after-kill skips completed units and reproduces the aggregate;
- CLI exit codes for malformed specs, empty grids, bad shards;
- the consolidated engine-setting resolver (argument > env > default,
  old env names honored);
- index-derived per-unit seeds (``derive_seed``) shared by
  ``sweep_instances`` and the runner;
- the checkpoint's single-writer lock and spec-hash provenance.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.config import ENGINE_SETTINGS, resolve_engine_setting
from repro.exceptions import ValidationError
from repro.experiments import (
    ScenarioSpec,
    SpecError,
    builtin_specs,
    load_spec,
    map_ordered,
    merge_checkpoints,
    read_checkpoint,
    resolve_spec,
    run_experiment,
    spec_from_dict,
)
from repro.experiments.checkpoint import CheckpointWriter
from repro.instances.generators import sweep_instances
from repro.util.rng import derive_seed

SMOKE = ScenarioSpec(
    name="smoke-local",
    kind="solve",
    family="sweep",
    streams=(6, 8),
    users=(4,),
    skews=(1.0, 4.0),
    params={"density": 0.3},
)

SIM = ScenarioSpec(
    name="sim-local",
    kind="simulate",
    family="iptv",
    streams=(8,),
    users=(4,),
    replicates=2,
    policies=("threshold", "density"),
    horizon=40.0,
    rate=2.0,
    duration=10.0,
)


class TestSeedDerivation:
    def test_depends_only_on_index(self):
        assert derive_seed(3, 7) == derive_seed(3, 7)
        assert derive_seed(3, 7) != derive_seed(3, 8)
        assert derive_seed(3, 7) != derive_seed(4, 7)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    def test_seeds_are_64_bit(self):
        # 32-bit seeds birthday-collide around 10⁴–10⁵ units; a large
        # grid must keep distinct per-unit randomness.
        seeds = [derive_seed(0, t) for t in range(50_000)]
        assert len(set(seeds)) == len(seeds)
        assert max(seeds) > 2**32

    def test_sweep_instances_uses_derived_seeds(self):
        # Cell t of a sweep must embed derive_seed(base, t) — the
        # property that makes sharded sweeps match unsharded ones.
        items = list(sweep_instances([6, 8], [4], [1.0], seed=9))
        for t, inst in enumerate(items):
            assert f"seed={derive_seed(9, t)}" in inst.name

    def test_sweep_engines_share_seeds(self):
        vec = list(sweep_instances([6], [4], [1.0, 4.0], seed=5, engine="vectorized"))
        loop = list(sweep_instances([6], [4], [1.0, 4.0], seed=5, engine="loop"))
        assert [v.name for v in vec] == [l.name for l in loop]


class TestEngineConfig:
    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "dict")
        assert resolve_engine_setting("solver", "indexed") == "indexed"

    def test_env_beats_default(self, monkeypatch):
        for kind, setting in ENGINE_SETTINGS.items():
            other = next(c for c in setting.choices if c != setting.default)
            monkeypatch.setenv(setting.env, other)
            assert resolve_engine_setting(kind) == other
            monkeypatch.delenv(setting.env)
            assert resolve_engine_setting(kind) == setting.default

    def test_per_call_default_override(self):
        assert resolve_engine_setting("generation", default="loop") == "loop"

    def test_old_front_doors_delegate(self, monkeypatch):
        from repro.core.indexed import resolve_engine
        from repro.instances.vectorized import resolve_gen_engine
        from repro.sim.indexed import resolve_sim_engine

        monkeypatch.setenv("REPRO_ENGINE", "dict")
        monkeypatch.setenv("REPRO_GEN_ENGINE", "loop")
        monkeypatch.setenv("REPRO_SIM_ENGINE", "dict")
        assert resolve_engine() == "dict"
        assert resolve_gen_engine() == "loop"
        assert resolve_sim_engine() == "dict"

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            resolve_engine_setting("solver", "warp")
        with pytest.raises(ValidationError):
            resolve_engine_setting("nonsense", "indexed")


class TestSpec:
    def test_expansion_is_deterministic_and_numbered(self):
        units = list(SMOKE.expand())
        assert [u.index for u in units] == [0, 1, 2, 3]
        assert [u.unit_id for u in units] == [
            "s6-u4-a1-r0", "s6-u4-a4-r0", "s8-u4-a1-r0", "s8-u4-a4-r0",
        ]
        assert [u.seed for u in units] == [derive_seed(0, t) for t in range(4)]

    def test_shard_partition_is_exact(self):
        full = list(SMOKE.expand())
        sharded = [u for i in range(3) for u in SMOKE.expand(shard=(i, 3))]
        sharded.sort(key=lambda u: u.index)
        assert sharded == full

    def test_sim_cells_share_trace_seed_across_policies(self):
        units = list(SIM.expand())
        assert len(units) == 4
        assert units[0].seed == units[1].seed  # same cell, both policies
        assert units[0].seed != units[2].seed  # next replicate
        assert [u.policy for u in units] == [
            "threshold", "density", "threshold", "density",
        ]

    def test_explicit_seeds_pin_replicates(self):
        spec = ScenarioSpec(
            name="x", kind="solve", family="unit-skew-smd",
            streams=(5, 6), users=(3,), replicates=2, seeds=(11, 22),
        )
        units = list(spec.expand())
        assert [u.seed for u in units] == [11, 22, 11, 22]

    def test_malformed_specs_rejected(self):
        with pytest.raises(SpecError):
            spec_from_dict({"kind": "solve"})  # no family
        with pytest.raises(SpecError):
            spec_from_dict({"kind": "warp", "family": "sweep"})
        with pytest.raises(SpecError):
            spec_from_dict(
                {"kind": "solve", "family": "sweep", "streams": [4],
                 "users": [3], "bogus_axis": [1]}
            )
        with pytest.raises(SpecError):
            spec_from_dict(
                {"kind": "simulate", "family": "iptv", "policies": ["warp"]}
            )

    def test_bad_engines_rejected_up_front(self):
        # A typo'd engine must fail spec validation (exit 2 at the CLI),
        # not crash inside the first work unit of a sharded run.
        for field in ("engine", "gen_engine", "sim_engine"):
            with pytest.raises(SpecError, match=field):
                spec_from_dict(
                    {"kind": "solve", "family": "sweep", "streams": [4],
                     "users": [3], field: "indxed"}
                )

    def test_empty_grids_rejected(self):
        with pytest.raises(SpecError):
            spec_from_dict({"kind": "solve", "family": "sweep", "streams": [],
                            "users": [3]})
        with pytest.raises(SpecError):
            spec_from_dict({"kind": "simulate", "family": "iptv",
                            "policies": []})

    def test_foreign_axes_rejected(self):
        # A 'skews' axis on a simulate spec would otherwise be silently
        # dropped, running a fraction of the grid its author intended.
        with pytest.raises(SpecError, match="skews"):
            spec_from_dict({"kind": "simulate", "family": "iptv",
                            "policies": ["threshold"], "skews": [1.0, 2.0]})
        with pytest.raises(SpecError, match="policies"):
            spec_from_dict({"kind": "solve", "family": "sweep", "streams": [4],
                            "users": [3], "policies": ["threshold"]})
        with pytest.raises(SpecError, match="horizon"):
            spec_from_dict({"kind": "solve", "family": "sweep", "streams": [4],
                            "users": [3], "horizon": 100.0})
        with pytest.raises(SpecError, match="input"):
            spec_from_dict({"kind": "solve", "family": "sweep", "streams": [4],
                            "users": [3], "input": "x.jsonl"})

    def test_registries_agree_across_layers(self):
        # One source of truth: the spec-level name registries, the
        # runner's factory maps and the CLI's workload table must match.
        from repro.cli import WORKLOADS
        from repro.experiments.runner import _sim_policy, _sim_workloads
        from repro.experiments.spec import SIM_POLICIES, SIM_WORKLOADS

        assert set(_sim_workloads()) == set(SIM_WORKLOADS) == set(WORKLOADS)
        for name in SIM_POLICIES:
            assert _sim_policy(name, seed=0) is not None

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMOKE.to_dict()))
        loaded = load_spec(path)
        assert loaded == SMOKE.validate()

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
    def test_toml_loading(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "t"\nkind = "solve"\nfamily = "sweep"\n'
            "streams = [5]\nusers = [3]\nskews = [1.0]\n"
            "[params]\ndensity = 0.4\n"
        )
        spec = load_spec(path)
        assert spec.streams == (5,) and spec.params == {"density": 0.4}

    def test_builtin_specs_ship_and_validate(self):
        names = set(builtin_specs())
        assert {"e3-runtime", "e11-indexed", "e12-generation",
                "e13-simulation", "e15-kernel", "smoke", "smoke-sim"} <= names
        for name in names:
            spec = resolve_spec(name)
            assert spec.num_units() >= 1

    def test_unknown_ref_rejected(self):
        with pytest.raises(SpecError):
            resolve_spec("no-such-spec")


class TestRunner:
    def test_shard_union_equals_unsharded(self, tmp_path):
        full = run_experiment(SMOKE)
        checkpoints = []
        for i in range(2):
            path = tmp_path / f"shard{i}.jsonl"
            shard_run = run_experiment(SMOKE, shard=(0, 2) if i == 0 else (1, 2),
                                       checkpoint=path)
            assert all(r["unit"] % 2 == i for r in shard_run.rows)
            checkpoints.append(path)
        merged = merge_checkpoints(SMOKE, checkpoints)
        assert [r["unit"] for r in merged.rows] == [r["unit"] for r in full.rows]
        assert merged.to_jsonl() == full.to_jsonl()  # byte-identical

    def test_merge_detects_missing_units(self, tmp_path):
        path = tmp_path / "only-half.jsonl"
        run_experiment(SMOKE, shard=(0, 2), checkpoint=path)
        with pytest.raises(ValidationError, match="missing"):
            merge_checkpoints(SMOKE, [path])

    def test_merge_detects_foreign_units(self, tmp_path):
        # Checkpoints from a different (larger) spec revision must not
        # silently flow into the aggregate.
        path = tmp_path / "all.jsonl"
        run_experiment(SMOKE, checkpoint=path)  # 4 units
        smaller = ScenarioSpec(
            name="half", kind="solve", family="sweep",
            streams=(6,), users=(4,), skews=(1.0, 4.0), params={"density": 0.3},
        )
        with pytest.raises(ValidationError, match="different spec"):
            merge_checkpoints(smaller, [path])

    def test_resume_skips_completed_units(self, tmp_path, monkeypatch):
        import repro.experiments.execute as execute_mod

        path = tmp_path / "ckpt.jsonl"
        full = run_experiment(SMOKE, checkpoint=path)
        lines = path.read_text().splitlines()
        # Kill simulation: two complete rows survive plus a torn third.
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][:20])
        executed = []
        original = execute_mod._execute_solve_unit

        def counting(spec, unit):
            executed.append(unit.index)
            return original(spec, unit)

        monkeypatch.setattr(execute_mod, "_execute_solve_unit", counting)
        resumed = run_experiment(SMOKE, checkpoint=path, resume=True)
        assert executed == [2, 3]  # 0 and 1 came from the checkpoint
        assert resumed.to_jsonl() == full.to_jsonl()
        # The repaired checkpoint now parses completely.
        assert sorted(read_checkpoint(path)) == [0, 1, 2, 3]

    def test_checkpoint_not_clobbered_without_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_experiment(SMOKE, shard=(0, 2), checkpoint=path)
        kept = path.read_text()
        with pytest.raises(ValidationError, match="resume"):
            run_experiment(SMOKE, shard=(1, 2), checkpoint=path)
        assert path.read_text() == kept  # shard-0 rows survived

    def test_sim_partial_size_axis_uses_workload_default(self):
        spec = ScenarioSpec(
            name="p", kind="simulate", family="iptv", streams=(8,),
            policies=("threshold",), horizon=20.0, duration=10.0,
        )
        run = run_experiment(spec)
        assert run.rows[0]["streams"] == 8
        assert run.rows[0]["users"] == 30  # iptv workload default

    def test_parallel_workers_identical(self):
        assert (
            run_experiment(SMOKE, workers=2).to_jsonl()
            == run_experiment(SMOKE).to_jsonl()
        )

    def test_solve_rows_match_solve_many(self):
        from repro.core.solver import solve_many

        run = run_experiment(SMOKE)
        direct = solve_many(
            sweep_instances([6, 8], [4], [1.0, 4.0], seed=0, density=0.3)
        )
        assert [r["utility"] for r in run.rows] == [r.utility for r in direct]
        assert [r["method"] for r in run.rows] == [r.method for r in direct]

    def test_simulate_rows_match_compare_policies(self):
        from repro.instances.workloads import iptv_neighborhood_workload
        from repro.sim.policies import DensityPolicy, ThresholdPolicy
        from repro.sim.simulation import ArrivalModel, compare_policies

        run = run_experiment(SIM)
        cell_seed = next(SIM.expand()).seed
        reports = compare_policies(
            iptv_neighborhood_workload(8, 4, seed=cell_seed),
            [ThresholdPolicy(), DensityPolicy()],
            horizon=40.0,
            model=ArrivalModel(rate=2.0, mean_duration=10.0),
            seed=cell_seed,
        )
        assert run.rows[0]["utility_time"] == reports[0].utility_time
        assert run.rows[1]["utility_time"] == reports[1].utility_time
        assert run.rows[0]["jain"] == reports[0].jain_fairness

    def test_rows_record_resolved_engine(self):
        from dataclasses import replace

        solve_run = run_experiment(SMOKE)
        assert {r["engine"] for r in solve_run.rows} == {"indexed"}
        sim_run = run_experiment(replace(SIM, sim_engine="batched"))
        assert {r["engine"] for r in sim_run.rows} == {"batched"}

    def test_batched_engine_rows_match_indexed(self):
        """A simulate spec produces identical metrics under the batched
        engine and the indexed kernel (runner-level parity)."""
        from dataclasses import replace

        indexed = run_experiment(replace(SIM, sim_engine="indexed"))
        batched = run_experiment(replace(SIM, sim_engine="batched"))
        for row_i, row_b in zip(indexed.rows, batched.rows):
            assert row_i["engine"] == "indexed" and row_b["engine"] == "batched"
            for key in ("utility_time", "offered", "admitted", "deliveries",
                        "violations", "peak_utilization", "jain"):
                assert row_i[key] == row_b[key], key

    @pytest.mark.parametrize("family", ["iptv", "cable-headend", "small-streams"])
    def test_sim_aggregate_independent_of_pool_and_shards(self, family, tmp_path):
        """Cells travel to workers whole; the aggregate must not notice."""
        from dataclasses import replace

        spec = replace(SIM, family=family, policies=("threshold", "allocate", "random"))
        expected = run_experiment(spec).to_jsonl()
        for workers in (2, 4):
            assert run_experiment(spec, workers=workers).to_jsonl() == expected
        shards = [tmp_path / f"s{i}.jsonl" for i in range(2)]
        for i, path in enumerate(shards):
            run_experiment(spec, shard=(i, 2), workers=2, checkpoint=path)
        assert merge_checkpoints(spec, shards).to_jsonl() == expected

    def test_pool_maps_whole_cells(self, monkeypatch):
        """On a pool each mapped item is one cell: its policies, in unit order."""
        from repro.experiments.transport import local

        items = []

        def recording_map(fn, cells, workers=1):
            for cell in cells:
                items.append([unit.index for unit, _cached in cell[1]])
                yield fn(cell)

        monkeypatch.setattr(local, "map_ordered", recording_map)
        run = run_experiment(SIM, workers=2)
        assert items == [[0, 1], [2, 3]]
        assert [row["unit"] for row in run.rows] == [0, 1, 2, 3]
        for spec, workers in ((SMOKE, 2), (SIM, 1)):
            items.clear()
            run_experiment(spec, workers=workers)
            assert items == [[unit.index] for unit in spec.expand()]

    def test_in_process_interrupt_keeps_finished_policy_rows(
        self, tmp_path, monkeypatch
    ):
        """At one worker a row is checkpointed as its unit finishes, mid-cell too."""
        from repro.experiments.transport import local

        execute_item = local.execute_item

        def interrupted(args):
            if args[1].index == 1:
                raise KeyboardInterrupt
            return execute_item(args)

        ckpt = tmp_path / "ckpt.jsonl"
        monkeypatch.setattr(local, "execute_item", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(SIM, checkpoint=ckpt)
        assert list(read_checkpoint(ckpt)) == [0]
        monkeypatch.setattr(local, "execute_item", execute_item)
        resumed = run_experiment(SIM, checkpoint=ckpt, resume=True)
        assert resumed.to_jsonl() == run_experiment(SIM).to_jsonl()

    @pytest.mark.parametrize("family", ["iptv", "cable-headend", "small-streams"])
    def test_sim_sweep_never_lifts(self, family, monkeypatch):
        """Cells are built and replayed on arrays: no string-keyed model."""
        from dataclasses import replace

        from repro.core.indexed import IndexedInstance

        lifts = []
        lift = IndexedInstance.lift
        monkeypatch.setattr(
            IndexedInstance, "lift", lambda self: lifts.append(self.name) or lift(self)
        )
        spec = replace(
            SIM, family=family, sim_engine="indexed",
            policies=("threshold", "allocate", "density", "random"),
        )
        run = run_experiment(spec)
        assert len(run.rows) == 8 and sum(row["offered"] for row in run.rows) > 0
        assert lifts == []

    def test_jsonl_family_runs_serialized_instances(self, tmp_path):
        from repro.instances.generators import random_unit_skew_smd

        path = tmp_path / "insts.jsonl"
        with path.open("w") as handle:
            for seed in range(3):
                handle.write(random_unit_skew_smd(5, 3, seed=seed).to_json())
                handle.write("\n")
        spec = ScenarioSpec(name="j", kind="solve", family="jsonl",
                            input=str(path))
        run = run_experiment(spec)
        assert len(run.rows) == 3
        assert all(r["feasible"] for r in run.rows)

    def test_read_checkpoint_tolerates_bad_rows(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"unit": 0, "utility": 1.0}\n'
            '{"unit": "oops"}\n'          # well-formed JSON, bad unit
            '{"unit": 1, "utility": 2.0}\n'
        )
        assert sorted(read_checkpoint(path)) == [0]  # parse stops, no crash

    def test_npz_aggregation(self, tmp_path):
        import numpy as np

        run = run_experiment(SMOKE)
        out = tmp_path / "agg.npz"
        run.to_npz(out)
        data = np.load(out)
        assert data["unit"].tolist() == [0, 1, 2, 3]
        assert data["objective"].tolist() == [r["utility"] for r in run.rows]
        assert data["jain"].shape == (4,)
        assert (data["runtime"] >= 0).all()
        spec_dict = json.loads(bytes(data["spec"]).decode())
        assert spec_dict["name"] == "smoke-local"

    def test_map_ordered_preserves_order(self):
        assert list(map_ordered(abs, [-3, 1, -2])) == [3, 1, 2]
        with pytest.raises(ValidationError):
            list(map_ordered(abs, [1], workers=0))


class TestCLI:
    def test_sweep_shard_union_byte_identical(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        unsharded = tmp_path / "full.jsonl"
        assert main(["sweep", str(spec_path), "-o", str(unsharded)]) == 0
        parts = []
        for i in range(2):
            ckpt = tmp_path / f"s{i}.jsonl"
            assert main(["sweep", str(spec_path), "--shard", f"{i}/2",
                         "--checkpoint", str(ckpt), "-o",
                         str(tmp_path / f"out{i}.jsonl")]) == 0
            parts.append(str(ckpt))
        merged = tmp_path / "merged.jsonl"
        assert main(["sweep", str(spec_path), "--merge", *parts,
                     "-o", str(merged)]) == 0
        assert merged.read_bytes() == unsharded.read_bytes()

    def test_sweep_resume_completes_interrupted_run(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        full = tmp_path / "full.jsonl"
        ckpt = tmp_path / "ckpt.jsonl"
        assert main(["sweep", str(spec_path), "--checkpoint", str(ckpt),
                     "-o", str(full)]) == 0
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:2]) + "\n")  # lose half the run
        resumed = tmp_path / "resumed.jsonl"
        assert main(["sweep", str(spec_path), "--checkpoint", str(ckpt),
                     "--resume", "-o", str(resumed)]) == 0
        assert resumed.read_bytes() == full.read_bytes()

    def test_sweep_builtin_by_name(self, tmp_path):
        out = tmp_path / "smoke.jsonl"
        assert main(["sweep", "smoke", "-o", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 4
        assert all("runtime" not in r for r in rows)  # deterministic aggregate

    def test_sweep_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "e12-generation" in out and "e13-simulation" in out

    def test_cli_remote_and_stdin_spec_exit_2(self, tmp_path, capsys):
        # A stale script passing --remote or a stdin spec must fail
        # loudly, not quietly run the grid locally.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(spec_path), "--remote", "subprocess"])
        assert exc.value.code == 2
        assert main(["sweep", "-"]) == 2
        capsys.readouterr()

    def test_sweep_exit_codes(self, tmp_path, capsys):
        assert main(["sweep"]) == 2  # no spec
        assert main(["sweep", "no-such-spec"]) == 2  # unknown name
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", str(bad)]) == 2  # malformed file
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(
            {"kind": "solve", "family": "sweep", "streams": [], "users": [4]}
        ))
        assert main(["sweep", str(empty)]) == 2  # empty grid
        spec_path = tmp_path / "ok.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        assert main(["sweep", str(spec_path), "--shard", "2/2"]) == 2
        assert main(["sweep", str(spec_path), "--shard", "nope"]) == 2
        capsys.readouterr()  # drain stderr

    def test_refused_rerun_preserves_output_file(self, tmp_path, capsys):
        # Forgetting --resume must refuse without truncating the
        # previous run's aggregate output.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        ckpt, out = tmp_path / "c.jsonl", tmp_path / "results.jsonl"
        assert main(["sweep", str(spec_path), "--checkpoint", str(ckpt),
                     "-o", str(out)]) == 0
        kept = out.read_bytes()
        assert kept
        assert main(["sweep", str(spec_path), "--checkpoint", str(ckpt),
                     "-o", str(out)]) == 2  # refused: no --resume
        assert out.read_bytes() == kept
        capsys.readouterr()

    def test_simulate_many_engine_choices_are_sim_engines(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")  # noqa: SLF001
        for cmd in ("simulate", "simulate-many"):
            engine = next(
                a for a in sub.choices[cmd]._actions if a.dest == "engine"  # noqa: SLF001
            )
            assert tuple(engine.choices) == ENGINE_SETTINGS["simulation"].choices

    def test_sweep_merge_incomplete_exit_1(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        ckpt = tmp_path / "s0.jsonl"
        assert main(["sweep", str(spec_path), "--shard", "0/2",
                     "--checkpoint", str(ckpt), "-o",
                     str(tmp_path / "o.jsonl")]) == 0
        assert main(["sweep", str(spec_path), "--merge", str(ckpt)]) == 1
        assert "merge incomplete" in capsys.readouterr().err

    def test_simulate_many_inline_grid(self, tmp_path):
        out = tmp_path / "sim.jsonl"
        assert main(["simulate-many", "--workload", "iptv", "--streams", "8",
                     "--users", "4", "--replicates", "2", "--horizon", "40",
                     "--duration", "10", "--policies", "threshold", "density",
                     "-o", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 4
        assert {r["policy"] for r in rows} == {"threshold", "density"}

    def test_simulate_many_rejects_solve_spec(self, capsys):
        assert main(["simulate-many", "smoke"]) == 2
        assert "simulate" in capsys.readouterr().err

    def test_simulate_many_builtin_spec(self, tmp_path):
        out = tmp_path / "sim.jsonl"
        assert main(["simulate-many", "smoke-sim", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_solve_many_streams_stdin(self, tmp_path, monkeypatch):
        import io

        from repro.instances.generators import random_unit_skew_smd

        text = "".join(
            random_unit_skew_smd(5, 3, seed=s).to_json() + "\n" for s in range(2)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out = tmp_path / "r.jsonl"
        assert main(["solve-many", "-i", "-", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_sweep_streams_rows_to_stdout(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE.to_dict()))
        assert main(["sweep", str(spec_path)]) == 0
        captured = capsys.readouterr()
        rows = [json.loads(l) for l in captured.out.splitlines() if l]
        assert len(rows) == 4  # rows go to stdout (summary is on stderr)
        assert all("runtime" not in r for r in rows)

    def test_solve_many_still_streams_superset_rows(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        assert main(["solve-many", "--sweep-streams", "6", "--sweep-users",
                     "4", "-o", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 1
        # Old keys survive the runner delegation, new ones ride along.
        assert {"name", "streams", "users", "method", "utility", "guarantee",
                "feasible", "streams_carried"} <= set(rows[0])
        assert {"unit", "id", "seed", "jain", "runtime"} <= set(rows[0])


class TestCheckpointTornWriteFuzz:
    """Torn-write fuzz for runner checkpoints: any byte-level truncation
    of the JSONL (the shape a SIGKILL leaves behind) must resume to an
    aggregate byte-identical to the uninterrupted run."""

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("full") / "ckpt.jsonl"
        run = run_experiment(SMOKE, checkpoint=path)
        return {"jsonl": run.to_jsonl(), "checkpoint": path.read_text()}

    def test_fuzz_truncation_offsets(self, full, tmp_path_factory):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        text = full["checkpoint"]

        @settings(max_examples=10, deadline=None, derandomize=True)
        @given(cut=st.integers(min_value=0, max_value=len(text)))
        def check(cut):
            path = tmp_path_factory.mktemp("torn") / "ckpt.jsonl"
            path.write_text(text[:cut])
            done = read_checkpoint(path)
            # Surviving rows are exactly the complete-line prefix, parsed
            # verbatim — a torn tail never yields a mangled row.
            complete = [
                json.loads(line)
                for line in text[:cut].splitlines()
                if _parses(line)
            ]
            assert sorted(done) == [row["unit"] for row in complete]
            resumed = run_experiment(SMOKE, checkpoint=path, resume=True)
            assert resumed.to_jsonl() == full["jsonl"]
            assert sorted(read_checkpoint(path)) == [0, 1, 2, 3]

        def _parses(line):
            try:
                return isinstance(json.loads(line), dict)
            except json.JSONDecodeError:
                return False

        check()


class TestConcurrentWriters:
    def test_second_writer_is_refused(self, tmp_path):
        ckpt = tmp_path / "shared.jsonl"
        first = CheckpointWriter(ckpt)
        try:
            with pytest.raises(ValidationError, match="already being written"):
                CheckpointWriter(ckpt, resume=True)
        finally:
            first.close()
        # Released: a new writer may now continue the file.
        CheckpointWriter(ckpt, resume=True).close()

    def test_two_runners_cannot_share_a_checkpoint(self, tmp_path):
        from repro.experiments.runner import iter_experiment

        ckpt = tmp_path / "shared.jsonl"
        stream = iter_experiment(SMOKE, checkpoint=ckpt)
        next(stream)  # first writer is live and holds the lock
        try:
            with pytest.raises(ValidationError, match="already being written"):
                list(iter_experiment(SMOKE, checkpoint=ckpt, resume=True))
        finally:
            stream.close()
        assert not (tmp_path / "shared.jsonl.lock").exists()

    def test_stale_lock_is_taken_over(self, tmp_path):
        import socket

        ckpt = tmp_path / "ckpt.jsonl"
        # A plausibly-dead pid: spawn a process and let it exit.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        (tmp_path / "ckpt.jsonl.lock").write_text(json.dumps(
            {"pid": proc.pid, "host": socket.gethostname()}
        ))
        run = run_experiment(SMOKE, checkpoint=ckpt)  # no refusal
        assert len(run.rows) == 4

    def test_foreign_host_lock_is_refused(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        (tmp_path / "ckpt.jsonl.lock").write_text(json.dumps(
            {"pid": 1, "host": "some-other-machine"}
        ))
        with pytest.raises(ValidationError, match="some-other-machine"):
            run_experiment(SMOKE, checkpoint=ckpt)


class TestSpecHashProvenance:
    def test_rows_are_stamped(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        run_experiment(SMOKE, checkpoint=ckpt)
        rows = read_checkpoint(ckpt)
        assert all(r["spec_hash"] == SMOKE.spec_hash() for r in rows.values())

    def test_aggregate_strips_the_stamp(self, tmp_path):
        run = run_experiment(SMOKE)
        assert "spec_hash" not in json.loads(run.to_jsonl().splitlines()[0])

    def test_merge_reports_both_hashes_for_foreign_shards(self, tmp_path):
        path = tmp_path / "all.jsonl"
        run_experiment(SMOKE, checkpoint=path)  # 4 units
        smaller = ScenarioSpec(
            name="half", kind="solve", family="sweep",
            streams=(6,), users=(4,), skews=(1.0, 4.0),
            params={"density": 0.3},
        )
        with pytest.raises(ValidationError, match="different spec") as exc:
            merge_checkpoints(smaller, [path])
        message = str(exc.value)
        assert SMOKE.spec_hash() in message
        assert smaller.spec_hash() in message

    def test_merge_detects_same_shape_different_spec(self, tmp_path):
        # Same unit indices, different grid content: only the hash
        # can tell these apart.
        path = tmp_path / "all.jsonl"
        run_experiment(SMOKE, checkpoint=path)
        shifted = ScenarioSpec(
            name="shifted", kind="solve", family="sweep",
            streams=(6, 8), users=(4,), skews=(1.0, 4.0),
            params={"density": 0.3}, base_seed=99,
        )
        with pytest.raises(ValidationError, match="different spec") as exc:
            merge_checkpoints(shifted, [path])
        assert SMOKE.spec_hash() in str(exc.value)
        assert shifted.spec_hash() in str(exc.value)

    def test_resume_refuses_foreign_spec_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        run_experiment(SMOKE, checkpoint=ckpt)
        shifted = ScenarioSpec(
            name="shifted", kind="solve", family="sweep",
            streams=(6, 8), users=(4,), skews=(1.0, 4.0),
            params={"density": 0.3}, base_seed=99,
        )
        with pytest.raises(ValidationError, match="different spec"):
            run_experiment(shifted, checkpoint=ckpt, resume=True)
