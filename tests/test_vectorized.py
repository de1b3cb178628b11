"""Tests for the vectorized generation layer (repro.instances.vectorized)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexed import (
    IndexedInstance,
    build_indexed,
    ensure_indexed,
    ensure_instance,
    index_instance,
)
from repro.core.instance import MMDInstance
from repro.core.solver import solve_many, solve_mmd
from repro.exceptions import ValidationError
from repro.instances.generators import random_smd, random_unit_skew_smd, sweep_instances
from repro.instances.vectorized import (
    generate_mmd,
    generate_small_streams_mmd,
    generate_smd,
    generate_unit_skew_smd,
    sweep_indexed_instances,
)

ARRAY_FIELDS = [
    "stream_costs",
    "budgets",
    "utility_caps",
    "capacities",
    "u_indptr",
    "u_stream",
    "u_w",
    "u_loads",
    "u_pair_user",
    "s_indptr",
    "s_user",
    "s_w",
    "s_loads",
    "s_pair_stream",
    "s_pair_key",
    "stream_rank",
    "user_rank",
]


def assert_same_arrays(a: IndexedInstance, b: IndexedInstance) -> None:
    assert a.stream_ids == b.stream_ids
    assert a.user_ids == b.user_ids
    for name in ARRAY_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        if left.size == 0 and right.size == 0 and left.shape[0] == right.shape[0]:
            # A dict model with no users cannot represent m_c, so empty
            # per-user arrays may re-index with a collapsed second axis.
            continue
        assert np.array_equal(left, right), f"{name} diverged"


FAMILIES = {
    "unit-skew": lambda s, u, seed, density: generate_unit_skew_smd(
        s, u, seed=seed, density=density
    ),
    "smd": lambda s, u, seed, density: generate_smd(s, u, 4.0, seed=seed, density=density),
    "mmd": lambda s, u, seed, density: generate_mmd(s, u, 2, 2, seed=seed, density=density),
    "small-streams": lambda s, u, seed, density: generate_small_streams_mmd(
        s, u, m=2, mc=1, seed=seed, density=density
    ),
}


class TestLiftRoundtrip:
    """lift() and re-indexing must reproduce the generated arrays exactly."""

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        num_streams=st.integers(0, 12),
        num_users=st.integers(0, 20),
        seed=st.integers(0, 2**20),
        density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    def test_reindexing_lift_reproduces_arrays(
        self, family, num_streams, num_users, seed, density
    ):
        idx = FAMILIES[family](num_streams, num_users, seed, density)
        lifted = idx.lift()
        # The lift caches the lowering both ways: no rebuild happens.
        assert index_instance(lifted) is idx
        # An *independent* lowering of the JSON-roundtripped dict model
        # must reproduce the generated arrays bit-for-bit.
        fresh = index_instance(MMDInstance.from_json(lifted.to_json()))
        assert_same_arrays(idx, fresh)

    @settings(max_examples=10, deadline=None)
    @given(
        num_streams=st.integers(1, 10),
        num_users=st.integers(1, 12),
        seed=st.integers(0, 2**20),
    )
    def test_solves_to_identical_utility_as_lifted_counterpart(
        self, num_streams, num_users, seed
    ):
        idx = generate_smd(num_streams, num_users, 4.0, seed=seed, density=0.3)
        native = solve_mmd(idx, try_allocate=False)
        rebuilt = MMDInstance.from_json(idx.to_json())
        reference = solve_mmd(rebuilt, try_allocate=False)
        assert native.utility == reference.utility
        assert native.assignment.as_dict() == reference.assignment.as_dict()

    def test_lift_validates(self):
        # The lifted model passes MMDInstance's strict validation.
        for family, make in FAMILIES.items():
            inst = make(8, 10, 3, 0.4).lift()
            inst.validate(strict=True)


class TestSeedDeterminism:
    def test_same_seed_same_arrays(self):
        for family, make in FAMILIES.items():
            assert_same_arrays(make(9, 14, 123, 0.3), make(9, 14, 123, 0.3))

    def test_different_seed_different_instance(self):
        a = generate_unit_skew_smd(9, 14, seed=1)
        b = generate_unit_skew_smd(9, 14, seed=2)
        assert not np.array_equal(a.u_w, b.u_w)

    def test_sweep_deterministic_and_index_native(self):
        a = list(sweep_instances([6, 8], [5], [1.0, 4.0], seed=7))
        b = list(sweep_instances([6, 8], [5], [1.0, 4.0], seed=7))
        assert all(isinstance(i, IndexedInstance) for i in a)
        assert [i.name for i in a] == [i.name for i in b]
        for left, right in zip(a, b):
            assert_same_arrays(left, right)

    def test_parallel_workers_match_serial(self):
        serial = solve_many(sweep_instances([6, 8], [5], [1.0, 4.0], seed=3))
        parallel = solve_many(sweep_instances([6, 8], [5], [1.0, 4.0], seed=3), parallel=2)
        assert [r.utility for r in parallel] == [r.utility for r in serial]
        assert [r.assignment.as_dict() for r in parallel] == [
            r.assignment.as_dict() for r in serial
        ]


class TestEngines:
    def test_loop_engine_is_seed_compatible(self):
        # engine="loop" lowers exactly the loop generator's output.
        idx = generate_unit_skew_smd(7, 9, seed=5, engine="loop")
        assert idx.lift() == random_unit_skew_smd(7, 9, seed=5)
        idx = generate_smd(7, 9, 8.0, seed=5, engine="loop")
        assert idx.lift() == random_smd(7, 9, 8.0, seed=5)

    def test_vectorized_dict_generator_delegates(self):
        lifted = random_smd(7, 9, 8.0, seed=5, engine="vectorized")
        assert isinstance(lifted, MMDInstance)
        assert lifted == generate_smd(7, 9, 8.0, seed=5, engine="vectorized").lift()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            generate_smd(5, 4, 0.5, seed=1)
        with pytest.raises(ValidationError):
            generate_mmd(5, 4, 0, 1, seed=1)
        with pytest.raises(ValidationError):
            generate_small_streams_mmd(5, 4, headroom=0.5, seed=1)


class TestValueChecks:
    """The array engine refuses the values the dict model refuses."""

    @pytest.mark.parametrize("engine", ["vectorized", "loop"])
    @pytest.mark.parametrize(
        "kwargs",
        [{"cost_range": (-3.0, -1.0)}, {"utility_range": (-3.0, -1.0)}],
        ids=["costs", "utilities"],
    )
    def test_negative_draws_raise_on_both_engines(self, engine, kwargs):
        with pytest.raises(ValidationError, match="must be nonnegative"):
            generate_mmd(5, 6, 2, 1, seed=1, engine=engine, **kwargs)

    @staticmethod
    def _rebuild(idx: IndexedInstance, **arrays) -> IndexedInstance:
        fields = {
            name: getattr(idx, name).copy()
            for name in ("stream_costs", "budgets", "utility_caps",
                         "capacities", "u_indptr", "u_stream", "u_w", "u_loads")
        }
        for name, (at, value) in arrays.items():
            fields[name][at] = value
        return build_indexed(
            stream_ids=idx.stream_ids, user_ids=idx.user_ids, **fields
        )

    @pytest.mark.parametrize(
        "name, at, value, message",
        [
            ("stream_costs", (2, 1), np.nan, r"stream_costs\[2, 1\] must not be NaN"),
            ("stream_costs", (0, 0), np.inf, "must be finite"),
            ("budgets", 1, -1.0, r"budgets\[1\] must be nonnegative"),
            ("budgets", 0, np.nan, "must not be NaN"),
            ("utility_caps", 3, -0.5, "must be nonnegative"),
            ("capacities", (4, 0), np.nan, "must not be NaN"),
            ("u_loads", (0, 0), -2.0, r"u_loads\[0, 0\] must be nonnegative"),
            ("u_w", 1, np.nan, "must not be NaN"),
            ("u_w", 1, 0.0, "must be positive"),
        ],
    )
    def test_build_indexed_refuses_bad_values(self, name, at, value, message):
        idx = generate_mmd(5, 6, 2, 1, seed=1)
        with pytest.raises(ValidationError, match=message):
            self._rebuild(idx, **{name: (at, value)})

    def test_unbounded_budgets_and_caps_are_accepted(self):
        idx = generate_mmd(5, 6, 2, 1, seed=1)
        rebuilt = self._rebuild(
            idx, budgets=(0, np.inf), utility_caps=(2, np.inf),
            capacities=((1, 0), np.inf),
        )
        assert rebuilt.lift().users[2].utility_cap == np.inf


class TestFamilyProperties:
    """The vectorized families satisfy the loop families' contracts."""

    def test_unit_skew_setting(self):
        idx = generate_unit_skew_smd(10, 15, seed=2, density=0.3)
        inst = idx.lift()
        assert inst.is_unit_skew()
        assert inst.local_skew() == 1.0
        assert all(u.utilities for u in inst.users)

    def test_smd_skew_bounded(self):
        for target in (2.0, 8.0, 64.0):
            idx = generate_smd(12, 10, target, seed=3, density=0.4)
            assert idx.lift().local_skew() <= target * (1 + 1e-9)

    def test_mmd_shape(self):
        idx = generate_mmd(7, 4, 3, 2, seed=6, density=0.5)
        assert idx.m == 3 and idx.mc == 2
        assert idx.lift().m == 3

    def test_small_streams_precondition(self):
        from repro.core.allocate import small_streams_condition

        for seed in range(3):
            idx = generate_small_streams_mmd(15, 4, seed=seed)
            assert small_streams_condition(idx.lift())

    def test_sweep_indexed_names_and_grid(self):
        items = list(sweep_indexed_instances([4, 6], [3], [1.0, 2.0], seed=9))
        assert len(items) == 4
        assert {i.num_streams for i in items} == {4, 6}
        assert all(i.name.startswith("sweep[") for i in items)


class TestEnsureHelpers:
    def test_ensure_instance_and_indexed(self):
        idx = generate_unit_skew_smd(5, 6, seed=1)
        inst = ensure_instance(idx)
        assert isinstance(inst, MMDInstance)
        assert ensure_instance(inst) is inst
        assert ensure_indexed(idx) is idx
        assert ensure_indexed(inst) is idx
