"""Tests for the online admission policies (repro.sim.policies)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import FEASIBILITY_RTOL, MMDInstance, Stream, User
from repro.instances.workloads import iptv_neighborhood_workload
from repro.sim.policies import (
    AllocatePolicy,
    DensityPolicy,
    RandomPolicy,
    ResourceView,
    ThresholdPolicy,
)


@pytest.fixture
def workload():
    return iptv_neighborhood_workload(num_channels=12, num_households=6, seed=31)


class TestResourceView:
    def test_initially_everything_fits(self, workload):
        view = ResourceView(workload)
        for sid in workload.stream_ids():
            assert view.fits_server(sid)

    def test_server_fit_reflects_usage(self, workload):
        view = ResourceView(workload)
        view.server_used[0] = workload.budgets[0]  # full
        sid = workload.stream_ids()[0]
        assert not view.fits_server(sid)

    def test_user_fit_reflects_usage(self, workload):
        view = ResourceView(workload)
        user = workload.users[0]
        sid = next(iter(user.utilities))
        view.user_used[user.user_id][0] = user.capacities[0]
        assert not view.fits_user(user.user_id, sid)

    def test_interested_users(self, workload):
        view = ResourceView(workload)
        sid = workload.stream_ids()[0]
        expected = {u.user_id for u in workload.users if sid in u.utilities}
        assert set(view.interested_users(sid)) == expected


def _capacity_instance(seed: int, mc: int) -> MMDInstance:
    """Random users with finite and infinite caps on ``mc`` measures,
    some zero loads and some streams nobody wants."""
    rng = random.Random(seed)
    streams = [Stream(f"s{s}", (1.0,)) for s in range(6)]
    users = []
    for u in range(7):
        caps = tuple(
            math.inf if rng.random() < 0.3 else rng.uniform(0.5, 5.0) for _ in range(mc)
        )
        utilities, loads = {}, {}
        for s in range(4):  # streams s4 and s5 have empty rows
            if rng.random() < 0.6:
                utilities[f"s{s}"] = rng.uniform(1.0, 3.0)
                loads[f"s{s}"] = tuple(
                    0.0 if rng.random() < 0.2 else rng.uniform(0.05, 1.0) * min(cap, 2.0)
                    for cap in caps
                )
        users.append(User(f"u{u}", math.inf, caps, utilities, loads))
    return MMDInstance(streams, users, (10.0,))


def _fill(view: ResourceView, rng: random.Random) -> None:
    """Random usage: below, near, exactly at and over the caps."""
    idx = view.indexed
    for u in range(idx.num_users):
        for j in range(idx.mc):
            cap = float(idx.capacities[u, j])
            base = 4.0 if math.isinf(cap) else cap
            view.user_used_array[u, j] = rng.choice(
                [0.0, rng.uniform(0.0, base), base, base * (1 + FEASIBILITY_RTOL), 1.3 * base]
            )


class TestVectorizedCapacityFit:
    """``fits_pairs`` and ``row_fit_mask`` compare against per-pair
    limits built once per view and margin; they must equal the scalar
    ``fits_user`` loop for every pair, every margin and every usage,
    including a margin first used after the usage moved and a cached
    margin read again after it moved."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), mc=st.integers(2, 3))
    def test_matches_scalar_probe(self, seed, mc):
        instance = _capacity_instance(seed, mc)
        view = ResourceView(instance)
        idx = view.indexed
        rng = random.Random(seed)

        def check(margin):
            for k, sid in enumerate(instance.stream_ids()):
                expected = [
                    view.fits_user(uid, sid, margin) for uid in view.interested_users(sid)
                ]
                assert view.row_fit_mask(k, margin).tolist() == expected
            # Every pair at once, shuffled across streams.
            pairs = np.array(rng.sample(range(idx.nnz), idx.nnz), dtype=np.int64)
            users = idx.s_user[pairs]
            expected = [
                view.fits_user(idx.user_ids[int(u)], idx.stream_ids[int(s)], margin)
                for u, s in zip(users, idx.s_pair_stream[pairs])
            ]
            assert view.fits_pairs(users, pairs, margin).tolist() == expected

        _fill(view, rng)
        check(1.0)
        for margin in (0.01, 0.5, 1.6, 1.0):  # 1.0 is read from the cache
            _fill(view, rng)
            check(margin)


class TestThresholdPolicy:
    def test_delivers_to_interested_fitting_users(self, workload):
        policy = ThresholdPolicy()
        policy.bind(workload)
        view = ResourceView(workload)
        sid = workload.stream_ids()[0]
        receivers = policy.on_offer(sid, view)
        assert set(receivers) <= set(view.interested_users(sid))

    def test_margin_rejects_when_tight(self, workload):
        policy = ThresholdPolicy(margin=0.01)
        policy.bind(workload)
        view = ResourceView(workload)
        view.server_used[0] = 0.02 * workload.budgets[0]
        rejected = [
            sid for sid in workload.stream_ids() if not policy.on_offer(sid, view)
        ]
        assert rejected  # nothing fits under a 1% margin with 2% used


class TestAllocatePolicy:
    def test_requires_bind(self, workload):
        policy = AllocatePolicy()
        view = ResourceView(workload)
        with pytest.raises(AssertionError):
            policy.on_offer(workload.stream_ids()[0], view)

    def test_offer_release_cycle(self, workload):
        policy = AllocatePolicy()
        policy.bind(workload)
        view = ResourceView(workload)
        admitted = None
        for sid in workload.stream_ids():
            if policy.on_offer(sid, view):
                admitted = sid
                break
        if admitted is not None:
            policy.on_release(admitted)
            # Releasing allows re-offering the same stream.
            policy.on_offer(admitted, view)

    def test_name_includes_mu(self, workload):
        policy = AllocatePolicy()
        policy.bind(workload)
        assert "mu=" in policy.name


class TestDensityPolicy:
    def test_quantile_validated(self):
        with pytest.raises(ValueError):
            DensityPolicy(quantile=1.5)

    def test_low_density_streams_rejected(self, workload):
        policy = DensityPolicy(quantile=0.99)  # only the very best passes
        policy.bind(workload)
        view = ResourceView(workload)
        decisions = [policy.on_offer(sid, view) for sid in workload.stream_ids()]
        rejected = sum(1 for d in decisions if not d)
        assert rejected >= len(decisions) - 2

    def test_quantile_zero_accepts_everything_fitting(self, workload):
        policy = DensityPolicy(quantile=0.0)
        policy.bind(workload)
        view = ResourceView(workload)
        sid = workload.stream_ids()[0]
        assert policy.on_offer(sid, view) == [
            uid
            for uid in view.interested_users(sid)
            if view.fits_user(uid, sid)
        ]


class TestRandomPolicy:
    def test_p_zero_rejects_all(self, workload):
        policy = RandomPolicy(p=0.0, seed=1)
        policy.bind(workload)
        view = ResourceView(workload)
        assert all(
            not policy.on_offer(sid, view) for sid in workload.stream_ids()
        )

    def test_p_one_accepts_fitting(self, workload):
        policy = RandomPolicy(p=1.0, seed=1)
        policy.bind(workload)
        view = ResourceView(workload)
        sid = workload.stream_ids()[0]
        assert policy.on_offer(sid, view)


class TestDensityPolicyZeroBudget:
    def test_zero_budget_measure_does_not_poison_cutoff(self):
        """Regression: a vacuous zero-budget measure must not turn the
        density cutoff into NaN (which silently admits everything)."""
        import math

        from repro.core.instance import MMDInstance, Stream, User

        streams = [Stream("s0", (0.0, 2.0)), Stream("s1", (0.0, 1.0))]
        users = [
            User("u0", math.inf, (math.inf,), {"s0": 9.0, "s1": 1.0},
                 {"s0": (0.0,), "s1": (0.0,)}),
        ]
        instance = MMDInstance(streams, users, (0.0, 3.0))
        policy = DensityPolicy(quantile=0.9)
        policy.bind(instance)
        assert not math.isnan(policy._cutoff)
        view = ResourceView(instance)
        # s0 (density 4.5) clears the 0.9-quantile cutoff, s1 (1.0) does not.
        assert policy.on_offer("s0", view)
        assert not policy.on_offer("s1", view)
