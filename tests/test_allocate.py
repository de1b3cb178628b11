"""Tests for §5: online Algorithm Allocate (Lemma 5.1, Theorem 5.4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.allocate import (
    OnlineAllocator,
    allocate,
    global_skew_parameters,
    small_streams_condition,
)
from repro.core.instance import MMDInstance, Stream, User
from repro.core.optimal import solve_exact_milp
from repro.exceptions import ValidationError
from repro.instances.generators import random_mmd, small_streams_mmd


def small_ensemble(count=6, seed=500, **kwargs):
    return [
        small_streams_mmd(12 + i, 3 + i % 3, seed=seed + i, **kwargs)
        for i in range(count)
    ]


class TestParameters:
    def test_mu_exceeds_feasibility_threshold(self):
        """µ = 2γD + 2 is what Lemma 5.1 needs (µ/2 - 1 >= γD)."""
        inst = small_streams_mmd(10, 3, seed=1)
        gamma, mu, d = global_skew_parameters(inst)
        assert mu / 2.0 - 1.0 >= gamma * d - 1e-9
        assert gamma >= 1.0

    def test_small_streams_condition_detects_violation(self):
        inst = random_mmd(8, 3, m=1, mc=1, seed=7, budget_fraction=0.2)
        # A tight random instance has streams costing a large budget share.
        assert not small_streams_condition(inst)

    def test_small_streams_condition_holds_for_generator(self):
        for inst in small_ensemble(count=4):
            assert small_streams_condition(inst)

    def test_invalid_mu_rejected(self):
        inst = small_streams_mmd(6, 2, seed=3)
        with pytest.raises(ValidationError):
            OnlineAllocator(inst, mu=1.0)


class TestLemma51Feasibility:
    def test_never_violates_budgets_under_precondition(self):
        """With the hard guard OFF, the exponential costs alone must keep
        every budget feasible when streams are small (Lemma 5.1)."""
        for inst in small_ensemble(count=6, seed=900):
            allocator = OnlineAllocator(inst, enforce_budgets=False)
            for sid in inst.stream_ids():
                allocator.offer(sid)
            assert allocator.assignment.is_feasible(), (
                allocator.assignment.violated_constraints()
            )

    def test_feasible_for_multi_budget_small_streams(self):
        for i in range(3):
            inst = small_streams_mmd(10, 3, m=2, mc=2, seed=700 + i)
            allocator = OnlineAllocator(inst, enforce_budgets=False)
            for sid in inst.stream_ids():
                allocator.offer(sid)
            assert allocator.assignment.is_feasible()

    def test_hard_guard_protects_on_large_streams(self):
        """On instances violating the precondition, the engineering guard
        still prevents infeasibility."""
        inst = random_mmd(10, 3, m=1, mc=1, seed=13, budget_fraction=0.3)
        allocator = OnlineAllocator(inst, enforce_budgets=True)
        for sid in inst.stream_ids():
            allocator.offer(sid)
        assert allocator.assignment.is_feasible()


class TestTheorem54Competitiveness:
    def test_competitive_bound_formula(self):
        inst = small_streams_mmd(10, 3, seed=21)
        allocator = OnlineAllocator(inst)
        assert allocator.competitive_bound == pytest.approx(
            1.0 + 2.0 * math.log2(allocator.mu)
        )

    def test_ratio_within_bound(self):
        for inst in small_ensemble(count=5, seed=1100):
            result = allocate(inst)
            opt = solve_exact_milp(inst).utility
            if opt == 0:
                continue
            achieved = result.assignment.utility()
            ratio = opt / max(achieved, 1e-12)
            assert ratio <= result.competitive_bound + 1e-9, (
                f"ratio {ratio} > bound {result.competitive_bound}"
            )

    def test_ratio_within_bound_any_order(self):
        """Online: the bound holds for adversarial arrival orders too."""
        inst = small_streams_mmd(14, 4, seed=33)
        opt = solve_exact_milp(inst).utility
        orders = [
            inst.stream_ids(),
            list(reversed(inst.stream_ids())),
            sorted(inst.stream_ids(), key=lambda s: inst.total_utility(s)),
        ]
        for order in orders:
            result = allocate(inst, order=order)
            achieved = result.assignment.utility()
            if opt == 0:
                continue
            assert opt / max(achieved, 1e-12) <= result.competitive_bound + 1e-9


class TestOnlineSemantics:
    def test_double_offer_of_accepted_stream_rejected(self):
        inst = small_streams_mmd(8, 2, seed=41)
        allocator = OnlineAllocator(inst)
        sid = inst.stream_ids()[0]
        receivers = allocator.offer(sid)
        if receivers:
            with pytest.raises(ValidationError, match="already active"):
                allocator.offer(sid)

    def test_decisions_never_revoked(self):
        inst = small_streams_mmd(10, 3, seed=43)
        allocator = OnlineAllocator(inst)
        committed: dict[str, set[str]] = {}
        for sid in inst.stream_ids():
            allocator.offer(sid)
            for prev, users in committed.items():
                assert set(allocator.assignment.receivers_of(prev)) == users
            committed[sid] = set(allocator.assignment.receivers_of(sid))

    def test_release_returns_load(self):
        inst = small_streams_mmd(8, 2, seed=47)
        allocator = OnlineAllocator(inst)
        sid = next(
            s for s in inst.stream_ids() if allocator.offer(s)
        )
        loads_before = dict(allocator.normalized_loads())
        allocator.release(sid)
        loads_after = allocator.normalized_loads()
        assert all(loads_after[k] <= loads_before[k] + 1e-12 for k in loads_after)
        assert sid not in allocator.assignment.assigned_streams()
        # Releasing an unknown stream is an error.
        with pytest.raises(ValidationError):
            allocator.release("nope")

    def test_rejected_streams_recorded(self):
        inst = random_mmd(8, 3, m=1, mc=1, seed=51, budget_fraction=0.15)
        result = allocate(inst)
        # With a tight budget, something must be rejected.
        assert result.rejected or result.assignment.assigned_streams()


class TestRejectionAccounting:
    """Regression for the unbounded ``rejected`` list: re-offered
    rejections over a long trace must not grow memory."""

    @staticmethod
    def _rejecting_allocator():
        inst = random_mmd(8, 3, m=1, mc=1, seed=51, budget_fraction=0.15)
        allocator = OnlineAllocator(inst)
        rejected_id = next(
            sid for sid in inst.stream_ids() if not allocator.offer(sid)
        )
        return allocator, rejected_id

    def test_reoffered_rejection_does_not_grow_list(self):
        allocator, sid = self._rejecting_allocator()
        length = len(allocator.rejected)
        count = allocator.rejected_count
        for _ in range(100):
            assert allocator.offer(sid) == []
        assert len(allocator.rejected) == length  # deduplicated
        assert allocator.rejected_count == count + 100  # still all counted

    def test_rejected_list_bounded_by_catalog(self):
        allocator, sid = self._rejecting_allocator()
        for _ in range(50):
            allocator.offer(sid)
        assert len(allocator.rejected) <= allocator.instance.num_streams
        assert allocator.rejected.count(sid) == 1

    def test_batch_allocate_semantics_preserved(self):
        """Each stream offered once: the dedup is invisible to allocate()."""
        inst = random_mmd(8, 3, m=1, mc=1, seed=51, budget_fraction=0.15)
        result = allocate(inst)
        assert len(result.rejected) == len(set(result.rejected))
        carried = {
            sid for _uid, streams in result.assignment.as_dict().items()
            for sid in streams
        }
        assert set(result.rejected).isdisjoint(carried)


class TestIncrementalCharges:
    """The cached exponential charges must equal ``µ^L`` bit-for-bit at
    every point, and rebuilding them from the loads must be a no-op —
    the invariants that keep decisions identical to the uncached path
    and let a restore rebuild the caches instead of storing them."""

    @staticmethod
    def _exercise(allocator, inst, releases=True):
        import numpy as np

        for step, sid in enumerate(inst.stream_ids()):
            allocator.offer(sid)
            if releases and step % 3 == 2 and sid not in allocator.rejected:
                try:
                    allocator.release(sid)
                except ValidationError:
                    pass
        return np

    def test_caches_match_exact_powers(self):
        inst = small_streams_mmd(14, 4, seed=77)
        allocator = OnlineAllocator(inst)
        np = self._exercise(allocator, inst)
        expected_user = allocator.mu ** allocator._user_load_arr
        assert np.array_equal(allocator._exp_user, expected_user)
        for i in range(allocator._idx.m):
            assert float(allocator._exp_server[i]) == (
                allocator.mu ** float(allocator._server_load_arr[i])
            )

    def test_resync_is_bitwise_noop(self):
        inst = small_streams_mmd(12, 3, seed=78)
        allocator = OnlineAllocator(inst)
        np = self._exercise(allocator, inst)
        before_user = allocator._exp_user.copy()
        before_server = allocator._exp_server.copy()
        allocator.resync_charges()
        assert np.array_equal(allocator._exp_user, before_user)
        assert np.array_equal(allocator._exp_server, before_server)

    def test_decisions_match_per_offer_recompute(self):
        """Offer-by-offer, the incremental allocator's receiver sets must
        equal those of a reference that resyncs before every decision
        (i.e. the pre-cache behavior)."""
        inst = small_streams_mmd(16, 5, seed=79)
        incremental = OnlineAllocator(inst)
        reference = OnlineAllocator(inst)
        for sid in inst.stream_ids():
            reference.resync_charges()  # force the "recompute every offer" path
            assert incremental.offer(sid) == reference.offer(sid)


class TestChargeOverflow:
    """Without the hard guard a load can pass 1, and ``µ^L`` can leave
    the float range: the server cache then holds ``inf``, as numpy gives
    the user caches, and the commit completes."""

    @staticmethod
    def _instance():
        # µ ≈ 2e300, so µ^0.6 is finite and µ^1.2 is not.
        catalog = [Stream("a", (0.6,)), Stream("b", (0.6,)), Stream("c", (0.6,))]
        user = User("u", math.inf, (math.inf,), {"a": 1e150, "b": 1e150, "c": 1e-150}, {})
        return MMDInstance(catalog, [user], (1.0,))

    def test_server_cache_overflows_to_inf(self):
        allocator = OnlineAllocator(self._instance(), enforce_budgets=False)
        assert allocator.offer("a") == ["u"]
        assert math.isfinite(allocator._exp_server[0])
        assert allocator.offer("b") == ["u"]
        assert allocator.state_dict()["offered"] == ["a", "b"]
        assert allocator._server_load_arr[0] == 1.2
        assert allocator._exp_server[0] == math.inf
        assert allocator.offer("c") == []
        allocator.resync_charges()
        assert allocator._exp_server[0] == math.inf
        restored = OnlineAllocator(self._instance(), enforce_budgets=False)
        restored.load_state(allocator.state_dict())
        assert restored.state_digest() == allocator.state_digest()


class TestMaximality:
    def test_selected_set_satisfies_condition(self):
        """The chosen U_j satisfies the Line-4 inequality at decision time."""
        inst = small_streams_mmd(10, 4, seed=61)
        allocator = OnlineAllocator(inst, enforce_budgets=False)
        idx = allocator._idx
        for sid in inst.stream_ids():
            k = idx.stream_index[sid]
            row = slice(int(idx.s_indptr[k]), int(idx.s_indptr[k + 1]))
            server_charge = allocator._server_charge_index(k)
            charges = dict(zip(
                idx.user_ids_of(idx.s_user[row]),
                allocator._user_charges(idx.s_user[row], row).tolist(),
            ))
            receivers = allocator.offer(sid)
            if receivers:
                total_charge = server_charge + sum(charges[u] for u in receivers)
                total_utility = sum(
                    inst.user(u).utilities[sid] for u in receivers
                )
                assert total_charge <= total_utility + 1e-9


class TestReleaseHardening:
    """Engine agreement for the release paths: id-keyed and index-native
    releases must raise the same canonical :class:`ValidationError` for
    every bad input — never a raw ``KeyError``/``IndexError`` and never
    a silent no-op (the serving layer's WAL replay depends on it)."""

    def _admitted(self, seed=47):
        inst = small_streams_mmd(8, 2, seed=seed)
        allocator = OnlineAllocator(inst)
        sid = next(s for s in inst.stream_ids() if allocator.offer(s))
        return inst, allocator, sid

    def test_unknown_id_and_index_agree(self):
        inst, allocator, _ = self._admitted()
        with pytest.raises(ValidationError, match="nope"):
            allocator.release("nope")
        with pytest.raises(ValidationError, match="unknown stream index"):
            allocator.release_indexed(inst.num_streams)

    def test_negative_index_never_wraps(self):
        """numpy-style negative indexing must not silently release the
        last stream in the catalog."""
        _, allocator, _ = self._admitted()
        with pytest.raises(ValidationError, match="unknown stream index"):
            allocator.release_indexed(-1)

    def test_double_release_loud_across_paths(self):
        """Double release is loud regardless of which path did the first."""
        inst, allocator, sid = self._admitted()
        k = allocator._idx.stream_index[sid]
        allocator.release(sid)
        with pytest.raises(ValidationError, match="not active"):
            allocator.release_indexed(k)
        # And the mirror image: index-native first, id-keyed second.
        inst2, allocator2, sid2 = self._admitted(seed=48)
        allocator2.release_indexed(allocator2._idx.stream_index[sid2])
        with pytest.raises(ValidationError, match="not active"):
            allocator2.release(sid2)

    def test_release_of_rejected_stream_loud(self):
        """A rejected offer holds no load; releasing it must refuse."""
        inst = random_mmd(8, 3, m=1, mc=1, seed=51, budget_fraction=0.15)
        allocator = OnlineAllocator(inst)
        rejected = next(
            (s for s in inst.stream_ids() if not allocator.offer(s)), None
        )
        if rejected is None:
            pytest.skip("tight instance unexpectedly admitted everything")
        with pytest.raises(ValidationError, match="not active"):
            allocator.release(rejected)
        state_users = allocator._exp_user.copy()
        # The refused release must not have touched any charge.
        import numpy as np

        assert np.array_equal(allocator._exp_user, state_users)


class TestLoadStateConsistency:
    """``offered`` and ``active_pairs`` must describe the same sessions.

    A stream listed as offered without receiver pairs, or with an empty
    pair array, would count as active while holding zero load, so a
    later release would skip its load subtraction.  ``load_state``
    refuses both, names the stream, and leaves the allocator untouched.
    """

    @staticmethod
    def _state():
        inst = small_streams_mmd(10, 4, seed=91)
        allocator = OnlineAllocator(inst)
        for sid in inst.stream_ids():
            allocator.offer(sid)
        state = allocator.state_dict()
        assert state["active_pairs"]
        return inst, allocator, state

    def _assert_refused(self, inst, state, match):
        fresh = OnlineAllocator(inst)
        before = fresh.state_digest()
        with pytest.raises(ValidationError, match=match):
            fresh.load_state(state)
        assert fresh.state_digest() == before

    def test_offered_without_pairs_refused(self):
        inst, allocator, state = self._state()
        k = next(iter(state["active_pairs"]))
        sid = inst.streams[k].stream_id
        del state["active_pairs"][k]
        self._assert_refused(inst, state, f"{sid!r} as offered but has no receiver pairs")

    def test_empty_pair_array_refused(self):
        import numpy as np

        inst, allocator, state = self._state()
        k = next(iter(state["active_pairs"]))
        sid = inst.streams[k].stream_id
        state["active_pairs"][k] = np.empty(0, dtype=np.int64)
        self._assert_refused(inst, state, f"{sid!r} as active with no receiver pairs")

    def test_pairs_for_unoffered_stream_refused(self):
        inst, allocator, state = self._state()
        k = next(iter(state["active_pairs"]))
        sid = inst.streams[k].stream_id
        state["offered"] = [s for s in state["offered"] if s != sid]
        self._assert_refused(inst, state, f"{sid!r} but does not list it as offered")

    def test_consistent_state_round_trips(self):
        inst, allocator, state = self._state()
        restored = OnlineAllocator(inst)
        restored.load_state(state)
        assert restored.state_digest() == allocator.state_digest()
        sid = state["offered"][0]
        restored.release(sid)
        allocator.release(sid)
        assert restored.state_digest() == allocator.state_digest()

    def test_digest_reads_the_live_caches(self):
        """A restore that rebuilt a cache differently, by one ulp, must
        not compare equal: the digest hashes the live caches."""
        inst, allocator, state = self._state()
        for cache in ("_exp_server", "_exp_user"):
            restored = OnlineAllocator(inst)
            restored.load_state(state)
            assert restored.state_digest() == allocator.state_digest()
            array = getattr(restored, cache)
            array.flat[0] = np.nextafter(array.flat[0], np.inf)
            assert restored.state_digest() != allocator.state_digest()


class TestChargeResyncConfig:
    """Rebuilding the charge caches from the loads never changes a
    decision."""

    def test_small_interval_forces_frequent_resync(self):
        """Resyncing after every offer gives the same decisions and the
        same caches as never resyncing — the rebuild is a bit-wise
        no-op."""
        inst = small_streams_mmd(12, 3, seed=81)
        eager = OnlineAllocator(inst)
        lazy = OnlineAllocator(inst)
        for sid in inst.stream_ids():
            assert eager.offer(sid) == lazy.offer(sid)
            eager.resync_charges()
            assert np.array_equal(eager._exp_user, lazy._exp_user)
            assert np.array_equal(eager._exp_server, lazy._exp_server)


class TestArrayNativeInstances:
    """The allocator takes an IndexedInstance and never lifts it itself."""

    @staticmethod
    def count_lifts(monkeypatch):
        from repro.core.indexed import IndexedInstance

        lifts = []
        lift = IndexedInstance.lift
        monkeypatch.setattr(
            IndexedInstance, "lift", lambda self: lifts.append(1) or lift(self)
        )
        return lifts

    def test_decisions_match_dict_instance(self, monkeypatch):
        from repro.instances.workloads import (
            iptv_neighborhood_indexed,
            iptv_neighborhood_workload,
        )

        lifts = self.count_lifts(monkeypatch)
        for seed in range(4):
            idx = iptv_neighborhood_indexed(12, 10, seed=seed)
            dict_alloc = OnlineAllocator(iptv_neighborhood_workload(12, 10, seed=seed))
            array_alloc = OnlineAllocator(idx)
            assert global_skew_parameters(idx) == (
                dict_alloc.gamma, dict_alloc.mu, dict_alloc.d)
            active = set()
            for k in list(range(idx.num_streams)) * 2:
                if k in active:  # second visit: the session departs
                    dict_alloc.release_indexed(k)
                    array_alloc.release_indexed(k)
                    active.discard(k)
                    continue
                receivers = dict_alloc.offer(idx.stream_ids[k])
                assert array_alloc.offer(idx.stream_ids[k]) == receivers
                if receivers:
                    active.add(k)
            assert array_alloc.state_digest() == dict_alloc.state_digest()
        assert lifts == []

    def test_instance_is_lifted_on_demand(self, monkeypatch):
        from repro.instances.workloads import small_streams_indexed_workload

        lifts = self.count_lifts(monkeypatch)
        idx = small_streams_indexed_workload(10, 4, seed=2)
        allocator = OnlineAllocator(idx)
        assert small_streams_condition(idx, allocator.mu)
        allocator.offer_indexed(0)
        assert lifts == [] and idx.instance is None
        assignment = allocator.assignment
        assert assignment.instance is idx.instance is allocator.instance
        with pytest.raises(ValidationError):
            allocator.offer("no-such-stream")

    def test_policy_binds_without_lift(self, monkeypatch):
        from repro.instances.workloads import cable_headend_indexed
        from repro.sim.policies import AllocatePolicy

        lifts = self.count_lifts(monkeypatch)
        policy = AllocatePolicy()
        policy.bind_indexed(cable_headend_indexed(10, 3, 4, seed=1))
        assert policy.name.startswith("allocate(mu=")
        assert lifts == []
