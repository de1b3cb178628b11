"""Unit tests for the multi-pick greedy kernel (:mod:`repro.core.batched`).

The parity suites in ``test_indexed_parity.py`` check end-to-end
bit-exactness against the dict engine; these tests target the batched
kernel's internals directly — the non-interaction mask, the vectorized
commit, adversarial conflict structures, and tiny round sizes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.core.batched as batched
from repro.core.batched import (
    commit_picks,
    greedy_kernel_batched,
    safe_prefix_mask,
)
from repro.exceptions import ValidationError
from repro.core.greedy import greedy
from repro.core.indexed import ensure_indexed, greedy_kernel
from repro.core.instance import MMDInstance, Stream, User
from repro.instances.generators import random_unit_skew_smd


def all_conflict_instance(num_streams: int = 30) -> MMDInstance:
    """Every stream wants the same capped user: maximal pick conflicts."""
    streams = [Stream(f"s{k}", (1.0,)) for k in range(num_streams)]
    utilities = {f"s{k}": 1.0 + 0.125 * (k % 7) for k in range(num_streams)}
    loads = {sid: (0.0,) for sid in utilities}
    users = [User("u0", 5.0, (math.inf,), utilities, loads)]
    return MMDInstance(streams, users, (float(num_streams),))


def all_independent_instance(num_streams: int = 24) -> MMDInstance:
    """Disjoint per-stream users: every round commits its whole batch."""
    streams = [Stream(f"s{k}", (1.0,)) for k in range(num_streams)]
    users = [
        User(
            f"u{k}",
            math.inf,
            (math.inf,),
            {f"s{k}": 1.0 + 0.25 * (k % 5)},
            {f"s{k}": (0.0,)},
        )
        for k in range(num_streams)
    ]
    return MMDInstance(streams, users, (float(num_streams) / 2,))


def assert_traces_identical(instance: MMDInstance) -> None:
    dict_trace = greedy(instance, engine="dict")
    bat_trace = greedy(instance, engine="batched")
    assert bat_trace.order == dict_trace.order
    assert bat_trace.rejected_for_budget == dict_trace.rejected_for_budget
    assert bat_trace.total_cost == dict_trace.total_cost
    assert bat_trace.assignment.as_dict() == dict_trace.assignment.as_dict()
    assert bat_trace.assignment.utility() == dict_trace.assignment.utility()


class TestAdversarialStructures:
    def test_all_conflict_single_pick_rounds(self):
        """One shared capped user forces every round down to one safe
        pick; the fallback path must still match the dict engine."""
        assert_traces_identical(all_conflict_instance())

    def test_all_independent_full_rounds(self):
        """Disjoint users never conflict, so whole rounds commit in one
        vectorized step; the tight budget still rejects the tail."""
        assert_traces_identical(all_independent_instance())

    def test_tiny_rounds_match_large_rounds(self, monkeypatch):
        """Forcing one-pick rounds must not change any output: round
        size is a performance knob, never a semantic one."""
        monkeypatch.setattr(batched, "INITIAL_ROUND", 1)
        monkeypatch.setattr(batched, "MIN_ROUND", 1)
        monkeypatch.setattr(batched, "MAX_ROUND", 2)
        for seed in range(8):
            instance = random_unit_skew_smd(12, 8, seed=seed)
            assert_traces_identical(instance)

    def test_initial_streams_over_budget_raise(self):
        instance = all_independent_instance(4)
        idx = ensure_indexed(instance)
        with pytest.raises(ValidationError, match="initial streams"):
            greedy_kernel_batched(idx, 1.0, [0, 1, 2, 3])


class TestKernelPrimitives:
    def test_safe_prefix_mask_disjoint_users_all_safe(self):
        idx = ensure_indexed(all_independent_instance(6))
        headroom = idx.utility_caps.copy()
        picks = np.arange(6, dtype=np.int64)
        assert safe_prefix_mask(idx, headroom, picks).all()

    def test_safe_prefix_mask_shared_user_conflicts(self):
        """Two picks draining one user's headroom: the second is unsafe
        when the first would change its residual, safe when headroom is
        plentiful, and safe again once the user is already saturated."""
        streams = [Stream("s0", (1.0,)), Stream("s1", (1.0,))]
        users = [
            User("u0", 1.0, (math.inf,), {"s0": 0.8, "s1": 0.8},
                 {"s0": (0.0,), "s1": (0.0,)}),
        ]
        idx = ensure_indexed(MMDInstance(streams, users, (10.0,)))
        picks = np.array([0, 1], dtype=np.int64)
        # headroom 1.0: pick 0 leaves 0.2 < 0.8, so pick 1's key changes.
        tight = safe_prefix_mask(idx, np.array([1.0]), picks)
        assert tight[0] and not tight[1]
        # headroom 10.0: 0.8 still fits after pick 0 — no interaction.
        loose = safe_prefix_mask(idx, np.array([10.0]), picks)
        assert loose.all()
        # saturated user: clipped contribution is 0 either way.
        saturated = safe_prefix_mask(idx, np.array([0.0]), picks)
        assert saturated.all()

    @pytest.mark.parametrize("seed", range(6))
    def test_commit_picks_batch_equals_sequential(self, seed):
        """Committing a batch in one call must leave headroom, residuals
        and receiver sets bit-identical to pick-at-a-time commits."""
        instance = random_unit_skew_smd(10, 7, seed=seed)
        idx = ensure_indexed(instance)
        picks = [0, 3, 1, 5]

        headroom_a = idx.utility_caps.copy()
        wbar_a = np.zeros(idx.num_streams)
        np.add.at(
            wbar_a,
            idx.s_pair_stream,
            np.minimum(idx.s_w, np.maximum(headroom_a[idx.s_user], 0.0)),
        )
        headroom_b = headroom_a.copy()
        wbar_b = wbar_a.copy()

        batch_receivers = commit_picks(idx, headroom_a, wbar_a, picks)
        seq_receivers = [
            commit_picks(idx, headroom_b, wbar_b, [k])[0] for k in picks
        ]
        assert np.array_equal(headroom_a, headroom_b)
        assert np.array_equal(wbar_a, wbar_b)
        for got, want in zip(batch_receivers, seq_receivers):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_output_matches_single_pick_kernel(self, seed):
        instance = random_unit_skew_smd(14, 9, seed=seed)
        idx = ensure_indexed(instance)
        cap = float(np.sum(idx.stream_costs[:, 0]) / 3)
        order_a, rejected_a, cost_a = greedy_kernel(idx, cap, [])
        order_b, rejected_b, cost_b = greedy_kernel_batched(idx, cap, [])
        assert rejected_a == rejected_b
        assert cost_a == cost_b
        assert [k for k, _ in order_a] == [k for k, _ in order_b]
        for (_, recv_a), (_, recv_b) in zip(order_a, order_b):
            assert np.array_equal(recv_a, recv_b)


class TestRetiredEngines:
    def test_numba_engine_is_unknown(self):
        with pytest.raises(ValidationError, match="unknown engine 'numba'"):
            greedy(all_independent_instance(3), engine="numba")


class TestAllocatorBatch:
    @staticmethod
    def _drain(allocator, ks):
        """Feed ``ks`` through ``offer_batch`` under its prefix
        contract: consume the returned prefix, re-offer the rest."""
        answers = []
        pending = list(ks)
        while pending:
            got = allocator.offer_batch(np.asarray(pending, dtype=np.int64))
            assert 0 < len(got) <= len(pending)
            answers.extend(got)
            pending = pending[len(got):]
        return answers

    @pytest.mark.parametrize("seed", range(5))
    def test_offer_batch_matches_sequential(self, seed):
        from repro.core.allocate import OnlineAllocator

        instance = random_unit_skew_smd(12, 8, seed=seed)
        ks = list(range(12))
        sequential = OnlineAllocator(instance)
        batchwise = OnlineAllocator(instance)
        want = [sequential.offer_indexed(k) for k in ks]
        got = self._drain(batchwise, ks)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert batchwise.rejected == sequential.rejected
        assert batchwise.rejected_count == sequential.rejected_count
        assert (
            batchwise.assignment.as_dict() == sequential.assignment.as_dict()
        )

    def test_offer_batch_empty(self):
        from repro.core.allocate import OnlineAllocator

        allocator = OnlineAllocator(random_unit_skew_smd(4, 3, seed=0))
        assert allocator.offer_batch(np.empty(0, dtype=np.int64)) == []

    def test_offer_batch_rejects_active_stream(self):
        from repro.core.allocate import OnlineAllocator

        instance = random_unit_skew_smd(10, 8, seed=1)
        probe = OnlineAllocator(instance)
        admitted = next(
            (k for k in range(10) if len(probe.offer_indexed(k))), None
        )
        assert admitted is not None, "scenario must admit at least one stream"
        allocator = OnlineAllocator(instance)
        assert len(allocator.offer_indexed(admitted)) > 0
        with pytest.raises(ValidationError, match="already active"):
            allocator.offer_batch(np.array([admitted], dtype=np.int64))
