"""Bit-identity of the allocator's precomputed-pair kernel (repro.core.allocate).

:class:`OnlineAllocator` reads per-pair static arrays (charged/finite
masks, ``load/cap`` ratios, scaled caps, user ranks) built once at
construction, walks Line 4's drop order with one vectorized
:func:`~repro.core.allocate._drop_walk`, and keeps its active sessions
only in ``_active_pairs``.  These tests pin all three against an
in-test reference that evaluates the gather-and-mask formulas per offer
and runs the scalar drop loop, on hand-built instances with several
capacity measures, infinite caps and budgets, and zero-load pairs:

- ``_user_charges`` is ``array_equal`` to the reference and never forms
  ``0·inf`` on an uncharged pair;
- receivers are equal offer by offer through ``offer_indexed`` and
  ``offer_batch``, and ``state_digest`` is equal after offer/release
  sequences and across a ``state_dict`` → ``load_state`` round trip;
- the drop walk equals the scalar loop, NaN and ``inf`` totals included;
- the derived ``.assignment`` view equals an :class:`Assignment`
  maintained op by op, and :func:`allocate` keeps its results;
- the allocator keeps no rejection memo: every offer is decided in
  full, and long reject-heavy interleavings of offers, batches,
  releases, resyncs and state round trips (which rebuild the charge
  caches from the loads) give the reference's answers and state; a
  rejected stream is re-decided against each new state (commit,
  release, resync, ``load_state``);
- ``offer_batch`` validates every stream index before writing state;
- the rejection certificate is sound: every rejection it settles
  without the sort and the walk is re-decided by ``_drop_walk`` and by
  the scalar loop and keeps no user, on random offer/release/resync
  sequences, at margins a few ulps from its allowance, with tiny
  negative loads and with NaN or ``inf`` charges (which it leaves to
  the walk); the reference overrides ``offer_indexed`` and so never
  takes the certificate path;
- on a reject-dominated iptv cell and a small-streams churn cell the
  certificate settles every full-decision rejection, so the drop walk
  runs once per admitting offer.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import allocate as allocate_module
from repro.core.allocate import (
    _CERTIFICATE_ALLOWANCE,
    OnlineAllocator,
    _certain_rejection,
    _drop_walk,
    allocate,
)
from repro.core.assignment import Assignment
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance, Stream, User
from repro.exceptions import ValidationError
from repro.instances.generators import small_streams_mmd
from repro.instances.workloads import (
    iptv_neighborhood_indexed,
    small_streams_indexed_workload,
)
from repro.sim.indexed import draw_trace_arrays
from repro.sim.policies import AllocatePolicy
from repro.sim.simulation import ArrivalModel, simulate_trace


def hand_built(
    seed: int,
    streams: int = 14,
    users: int = 10,
    mc: int = 3,
    tight: float = 1.0,
    m: int = 3,
) -> MMDInstance:
    """Instance exercising every branch of the charge kernel.

    Budgets: one finite, one infinite, one finite measure many streams
    do not cost (the first ``m`` of these three).  Capacities: a mix of
    finite and infinite caps per user.  Loads: some pairs load a measure
    with zero, some positive-utility pairs have no load entry at all.
    ``tight`` scales the finite budgets and caps (below 1: a
    reject-heavy instance).
    """
    rng = random.Random(seed)
    catalog = []
    for s in range(streams):
        costs = (
            rng.uniform(0.5, 3.0),
            rng.uniform(0.5, 3.0),
            0.0 if s % 3 == 0 else rng.uniform(0.2, 2.0),
        )
        catalog.append(Stream(f"s{s:02d}", costs[:m]))
    people = []
    for u in range(users):
        caps = tuple(
            math.inf if rng.random() < 0.3 else max(1.5, tight * rng.uniform(2.0, 6.0))
            for _ in range(mc)
        )
        utilities, loads = {}, {}
        for s in range(streams):
            if rng.random() < 0.6:
                sid = f"s{s:02d}"
                utilities[sid] = rng.uniform(0.5, 10.0)
                if rng.random() < 0.85:
                    loads[sid] = tuple(
                        0.0 if rng.random() < 0.25 else rng.uniform(0.1, 1.5) for _ in range(mc)
                    )
        people.append(User(f"u{u:02d}", rng.uniform(10.0, 40.0), caps, utilities, loads))
    budgets = (max(3.0, tight * streams * 0.6), math.inf, max(2.0, tight * streams * 0.4))
    return MMDInstance(catalog, people, budgets[:m], name=f"hand-{seed}")


def _scalar_drop(server_charge, charges, w):
    """The scalar Line-4 loop the vectorized walk replaces."""
    total_charge = server_charge + float(np.cumsum(charges)[-1])
    total_utility = float(np.cumsum(w)[-1])
    count = len(charges)
    while count and total_charge > total_utility:
        count -= 1
        total_charge -= float(charges[count])
        total_utility -= float(w[count])
    return count


class GatherAndMaskAllocator(OnlineAllocator):
    """Reference: every per-pair quantity gathered and masked per offer,
    and Line 4 walked by a scalar loop, on the parent's state arrays."""

    def __init__(self, instance, **kwargs):
        super().__init__(instance, **kwargs)
        idx = self._idx
        min_w = idx.min_support_utilities()
        self.ref_user_scale = np.ones((idx.num_users, idx.mc))
        pair_min_w = min_w[idx.u_stream]
        for j in range(idx.mc):
            load = idx.u_loads[:, j]
            mask = load > 0
            if mask.any():
                scale = np.full(idx.num_users, math.inf)
                ratios = pair_min_w[mask] / (self.d * load[mask])
                np.minimum.at(scale, idx.u_pair_user[mask], ratios)
                self.ref_user_scale[:, j] = np.where(np.isfinite(scale), scale, 1.0)

    def _user_charges(self, row_users, row_pairs):
        idx = self._idx
        row_pairs = np.arange(idx.nnz)[row_pairs]
        charge = np.zeros(row_users.size)
        for j in range(idx.mc):
            cap = idx.capacities[row_users, j]
            load = idx.s_loads[row_pairs, j]
            mask = np.isfinite(cap) & (load > 0.0)
            if mask.any():
                users = row_users[mask]
                scaled_cap = self.ref_user_scale[users, j] * cap[mask]
                exp_cost = scaled_cap * (self._exp_user[users, j] - 1.0)
                charge[mask] += (load[mask] / cap[mask]) * exp_cost
        return charge

    def _ref_server_charge(self, k):
        idx = self._idx
        costs = idx.stream_costs[k]
        total = 0.0
        for i in self._server_measures:
            if costs[i] > 0:
                total += (costs[i] / idx.budgets[i]) * self._exp_cost_server(i)
        return float(total)

    def _hard_guard(self, k, selected_users, selected_pairs):
        idx = self._idx
        empty = np.empty(0, dtype=np.int64)
        costs = idx.stream_costs[k]
        for i in self._server_measures:
            if self._server_load_arr[i] + costs[i] / idx.budgets[i] > 1.0 + FEASIBILITY_RTOL:
                return empty, empty
        fits = np.ones(selected_users.size, dtype=bool)
        for j in range(idx.mc):
            cap = idx.capacities[selected_users, j]
            with np.errstate(invalid="ignore"):
                over = (
                    self._user_load_arr[selected_users, j]
                    + idx.s_loads[selected_pairs, j] / cap
                    > 1.0 + FEASIBILITY_RTOL
                )
            fits &= ~(np.isfinite(cap) & over)
        return selected_users[fits], selected_pairs[fits]

    def _ref_move(self, k, users, pairs, sign):
        idx = self._idx
        costs = idx.stream_costs[k]
        for i in self._server_measures:
            if costs[i] > 0:
                self._server_load_arr[i] += sign * (costs[i] / idx.budgets[i])
                self._exp_server[i] = self.mu ** float(self._server_load_arr[i])
        for j in range(idx.mc):
            cap = idx.capacities[users, j]
            load = idx.s_loads[pairs, j]
            mask = np.isfinite(cap) & (load > 0.0)
            if mask.any():
                touched = users[mask]
                self._user_load_arr[touched, j] += sign * (load[mask] / cap[mask])
                self._recharge(touched, j)
        self._epoch += 1

    def offer_indexed(self, k):
        idx = self._idx
        k = self._check_stream_index(k)
        self._check_active(k)
        empty = np.empty(0, dtype=np.int64)
        lo, hi = int(idx.s_indptr[k]), int(idx.s_indptr[k + 1])
        if lo == hi:
            self._reject(k)
            return empty
        row_users = idx.s_user[lo:hi]
        row_pairs = np.arange(lo, hi, dtype=np.int64)
        row_w = idx.s_w[lo:hi]
        server_charge = self._ref_server_charge(k)
        charges = self._user_charges(row_users, row_pairs)
        order = np.lexsort((idx.user_rank[row_users], charges / row_w))
        count = _scalar_drop(server_charge, charges[order], row_w[order])
        if count == 0:
            self._reject(k)
            return empty
        selected_users = row_users[order[:count]]
        selected_pairs = row_pairs[order[:count]]
        if self.enforce_budgets:
            selected_users, selected_pairs = self._hard_guard(k, selected_users, selected_pairs)
            if selected_users.size == 0:
                self._reject(k)
                return empty
        self._ref_move(k, selected_users, selected_pairs, 1.0)
        self._active_pairs[k] = selected_pairs
        return selected_users

    def release_indexed(self, k):
        k = self._check_stream_index(k)
        pairs = self._active_pairs.pop(k)
        self._ref_move(k, self._idx.s_user[pairs], pairs, -1.0)


INSTANCES = [
    pytest.param(lambda: hand_built(1), id="hand-1"),
    pytest.param(lambda: hand_built(2, streams=20, users=12, mc=2), id="hand-2"),
    pytest.param(lambda: hand_built(3, streams=9, users=16, mc=4), id="hand-3"),
    pytest.param(lambda: small_streams_mmd(18, 7, m=2, mc=2, seed=31), id="small-streams"),
]


def _ops(inst, seed, count=120):
    """A random offer/release sequence over stream indices."""
    rng = random.Random(seed)
    return [(rng.random() < 0.35, rng.randrange(inst.num_streams)) for _ in range(count)]


def _step(allocator, release, k):
    """Apply one op; returns the receivers (None for a release/skip)."""
    if release:
        if k in allocator._active_pairs:
            allocator.release_indexed(k)
        return None
    if k in allocator._active_pairs:
        return None
    return allocator.offer_indexed(k)


def _assert_same_charges(fast, reference):
    """``_user_charges`` on every row, by slice and by index array."""
    idx = fast._idx
    for k in range(idx.num_streams):
        lo, hi = int(idx.s_indptr[k]), int(idx.s_indptr[k + 1])
        users = idx.s_user[lo:hi]
        with np.errstate(all="raise"):  # an uncharged 0·inf would raise here
            by_slice = fast._user_charges(users, slice(lo, hi))
            by_index = fast._user_charges(users, np.arange(lo, hi))
        expected = reference._user_charges(users, np.arange(lo, hi))
        assert np.isfinite(by_slice).all()
        assert np.array_equal(by_slice, expected)
        assert np.array_equal(by_index, expected)


@pytest.mark.parametrize("enforce", [True, False], ids=["guard", "noguard"])
@pytest.mark.parametrize("make", INSTANCES)
class TestKernelBitIdentity:
    def test_offer_indexed_and_release(self, make, enforce):
        inst = make()
        fast = OnlineAllocator(inst, enforce_budgets=enforce)
        reference = GatherAndMaskAllocator(inst, enforce_budgets=enforce)
        assert fast._idx.mc >= 2
        decisions = 0
        for release, k in _ops(inst, seed=11):
            got = _step(fast, release, k)
            want = _step(reference, release, k)
            if got is None:
                assert want is None
                continue
            decisions += 1
            assert np.array_equal(got, want)
            _assert_same_charges(fast, reference)
            assert fast.state_digest() == reference.state_digest()
        assert decisions > 20
        assert fast.rejected_count > 0 and fast._active_pairs

    def test_offer_batch(self, make, enforce):
        inst = make()
        fast = OnlineAllocator(inst, enforce_budgets=enforce)
        reference = GatherAndMaskAllocator(inst, enforce_budgets=enforce)
        rng = random.Random(5)
        for _ in range(40):
            ks = [k for k in rng.sample(range(inst.num_streams), 6) if k not in fast._active_pairs]
            if not ks:
                continue
            answers = fast.offer_batch(np.array(ks, dtype=np.int64))
            assert 1 <= len(answers) <= len(ks)
            for k, got in zip(ks, answers):
                assert np.array_equal(got, reference.offer_indexed(k))
            assert fast.state_digest() == reference.state_digest()
            for k in list(fast._active_pairs):
                if rng.random() < 0.3:
                    fast.release_indexed(k)
                    reference.release_indexed(k)

    def test_state_round_trip(self, make, enforce):
        inst = make()
        fast = OnlineAllocator(inst, enforce_budgets=enforce)
        reference = GatherAndMaskAllocator(inst, enforce_budgets=enforce)
        ops = _ops(inst, seed=23, count=160)
        for release, k in ops[:80]:
            _step(fast, release, k)
            _step(reference, release, k)
        restored = OnlineAllocator(inst, enforce_budgets=enforce)
        restored.load_state(fast.state_dict())
        assert restored.state_digest() == fast.state_digest() == reference.state_digest()
        for release, k in ops[80:]:
            got = _step(restored, release, k)
            want = _step(reference, release, k)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got, want)
        _assert_same_charges(restored, reference)
        assert restored.state_digest() == reference.state_digest()


@pytest.mark.parametrize("seed", range(6))
def test_drop_walk_matches_scalar_loop(seed):
    """The walk equals the scalar loop offer by offer, with NaN and
    ``inf`` charges (a NaN total stops the walk)."""
    rng = np.random.default_rng(seed)
    for r, n in enumerate(rng.integers(1, 12, size=9).tolist()):
        server = float(rng.uniform(0.0, 3.0))
        charges = np.sort(rng.exponential(1.0, size=n))
        w = rng.uniform(0.2, 2.0, size=n)
        if r % 4 == 1:
            charges[rng.integers(n)] = np.nan
        if r % 4 == 2:
            charges[-1] = np.inf
        with np.errstate(all="raise"):
            kept = _drop_walk(server, np.stack([charges, w]))
        assert kept == _scalar_drop(server, charges, w)


class TestDerivedAssignment:
    """``.assignment`` is built from ``_active_pairs`` on access."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_op_by_op_assignment(self, seed):
        inst = hand_built(40 + seed)
        allocator = OnlineAllocator(inst)
        shadow = Assignment(inst)
        ops = _ops(inst, seed=seed, count=150)
        for step, (release, k) in enumerate(ops):
            sid = inst.streams[k].stream_id
            if release:
                if sid in allocator.state_dict()["offered"]:
                    for uid in shadow.receivers_of(sid):
                        shadow.discard(uid, sid)
                    allocator.release(sid)
            elif sid not in allocator.state_dict()["offered"]:
                shadow.assign_stream(sid, allocator.offer(sid))
            if step % 50 == 49:
                restored = OnlineAllocator(inst)
                restored.load_state(allocator.state_dict())
                allocator = restored
            assert allocator.assignment == shadow

    def test_allocate_results_unchanged(self):
        for inst in (hand_built(7), small_streams_mmd(16, 6, m=2, mc=2, seed=8)):
            order = list(reversed(inst.stream_ids()))
            reference = GatherAndMaskAllocator(inst)
            expected = Assignment(inst)
            for sid in order:
                expected.assign_stream(sid, reference.offer(sid))
            result = allocate(inst, order=order)
            assert result.assignment == expected
            assert result.rejected == reference.rejected


REJECT_HEAVY_INSTANCES = [
    pytest.param(lambda: hand_built(4, mc=1, tight=0.5), id="tight-mc1"),
    pytest.param(lambda: hand_built(5, streams=18, users=12, mc=2, tight=0.5), id="tight-mc2"),
    pytest.param(lambda: hand_built(6, streams=10, users=14, mc=3, tight=0.4), id="tight-mc3"),
]


def _count_decisions(allocator) -> "list[int]":
    """Count the allocator's charge computations (full decisions)."""
    calls = [0]
    inner = allocator._user_charges

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    allocator._user_charges = wrapper
    return calls


@pytest.mark.parametrize("enforce", [True, False], ids=["guard", "noguard"])
@pytest.mark.parametrize("make", REJECT_HEAVY_INSTANCES)
def test_memo_matches_unmemoized_reference(make, enforce):
    """Long reject-heavy interleavings with mid-run restores: the
    allocator, which keeps no rejection memo, decides every offer in
    full, and its answers, rejection bookkeeping and state digest equal
    the reference's after every step.  A restore rebuilds the charge
    caches from the loads, so the digest also checks that rebuild
    against a reference that was never restored."""
    inst = make()
    fast = OnlineAllocator(inst, enforce_budgets=enforce)
    reference = GatherAndMaskAllocator(inst, enforce_budgets=enforce)
    rng = random.Random(17)
    offers = restores = 0
    # Charge computations: those of replaced allocators, then the live
    # one's; every offer of a stream with interested users makes one.
    decided, counter, interested = 0, _count_decisions(fast), 0
    row_size = np.diff(fast._idx.s_indptr)
    for _ in range(700):
        idle = [k for k in range(inst.num_streams) if k not in fast._active_pairs]
        roll = rng.random()
        if roll < 0.05 and fast._active_pairs:
            k = rng.choice(sorted(fast._active_pairs))
            fast.release_indexed(k)
            reference.release_indexed(k)
        elif roll < 0.07:
            fast.resync_charges()
            reference.resync_charges()
        elif roll < 0.08:
            restored = OnlineAllocator(inst, enforce_budgets=enforce)
            restored.load_state(fast.state_dict())
            decided += counter[0]
            fast, counter, restores = restored, _count_decisions(restored), restores + 1
        elif roll < 0.25:
            ks = rng.sample(idle, min(len(idle), rng.randint(1, 6)))
            answers = fast.offer_batch(np.array(ks, dtype=np.int64))
            assert 1 <= len(answers) <= len(ks)
            for k, got in zip(ks, answers):
                assert np.array_equal(got, reference.offer_indexed(k))
                interested += bool(row_size[k])
            offers += len(answers)
        else:
            k = rng.choice(idle)
            assert np.array_equal(fast.offer_indexed(k), reference.offer_indexed(k))
            interested += bool(row_size[k])
            offers += 1
        assert decided + counter[0] == interested  # no answer without its charges
        assert fast.rejected_count == reference.rejected_count
        assert fast.rejected == reference.rejected
        assert fast.state_digest() == reference.state_digest()
    # Reject-heavy, with restores in the run.
    assert fast.rejected_count > offers // 2
    assert restores > 0


def _pair_instance(extra_free_stream: bool = False) -> MMDInstance:
    """Two streams that each take 60% of the one server budget, wanted
    by one user: whichever is admitted first blocks the other.  With
    ``extra_free_stream``, a third stream costs the server nothing and
    goes to a second user, so it commits without touching the pair."""
    catalog = [Stream("a", (0.6,)), Stream("b", (0.6,))]
    people = [User("u", math.inf, (math.inf,), {"a": 5.0, "b": 5.0}, {})]
    if extra_free_stream:
        catalog.append(Stream("c", (0.0,)))
        people.append(User("v", math.inf, (math.inf,), {"c": 5.0}, {}))
    return MMDInstance(catalog, people, (1.0,), name="blocking-pair")


class TestMemoInvalidation:
    """A stream rejected before a state change is re-decided against the
    new state; the allocator keeps no rejection memo, so every offer,
    repeats in an unchanged state included, is decided in full."""

    def blocked(self, **kwargs):
        """``a`` admitted, then ``b`` rejected twice, in full each time."""
        allocator = OnlineAllocator(_pair_instance(**kwargs))
        calls = _count_decisions(allocator)
        assert allocator.offer("a") == ["u"]
        assert allocator.offer("b") == []
        assert allocator.offer("b") == []
        assert calls[0] == 3
        assert allocator.rejected_count == 2 and allocator.rejected == ["b"]
        return allocator, calls

    def test_commit_invalidates(self):
        allocator, calls = self.blocked(extra_free_stream=True)
        assert allocator.offer("c") == ["v"]  # a commit elsewhere
        assert allocator.offer("b") == []
        assert calls[0] == 5

    def test_release_invalidates(self):
        allocator, calls = self.blocked()
        allocator.release("a")
        assert allocator.offer("b") == ["u"]
        assert calls[0] == 4

    def test_resync_invalidates(self):
        """A drifted charge cache rejects; the resync restores the exact
        ``µ^L`` and the stream is then admitted."""
        allocator = OnlineAllocator(_pair_instance())
        allocator._exp_server[0] = 1e12  # drift a multiplicative update could cause
        assert allocator.offer("b") == []
        assert allocator.offer("b") == []
        allocator.resync_charges()
        assert allocator.offer("b") == ["u"]

    def test_load_state_invalidates(self):
        """The restored state admits ``b``, which this allocator rejected
        at its current epoch, and the restore moves the epoch."""
        allocator, calls = self.blocked()
        source = OnlineAllocator(allocator.instance)
        assert source.offer("a") == ["u"]
        assert source.offer("b") == []
        source.release("a")
        epoch = allocator.epoch
        allocator.load_state(source.state_dict())
        assert allocator.epoch != epoch
        assert allocator.offer("b") == ["u"]
        assert calls[0] == 4

    def test_snapshot_excludes_memo(self):
        """The state holds loads, sessions and rejection bookkeeping: no
        memo and no charge cache, which a restore rebuilds bit for bit."""
        allocator, _calls = self.blocked()
        assert set(allocator.state_dict()) == {
            "mu", "server_load", "user_load", "offered", "active_pairs",
            "rejected", "rejected_count",
        }
        restored = OnlineAllocator(allocator.instance)
        restored.load_state(allocator.state_dict())
        assert restored._exp_server.tobytes() == allocator._exp_server.tobytes()
        assert restored._exp_user.tobytes() == allocator._exp_user.tobytes()
        assert restored.state_digest() == allocator.state_digest()
        assert restored.offer("b") == allocator.offer("b") == []
        assert restored.state_digest() == allocator.state_digest()


class TestOfferBatchValidation:
    """``offer_batch`` refuses bad stream indices like ``offer_indexed``,
    before writing any state."""

    @pytest.mark.parametrize("ks", [[-1], [10], [None, -1], [None, 10]])
    def test_bad_index_is_refused_untouched(self, ks):
        inst = hand_built(8, streams=10)
        allocator = OnlineAllocator(inst)
        for k in range(inst.num_streams):
            allocator.offer_indexed(k)
        idle = [k for k in range(10) if k not in allocator._active_pairs]
        assert allocator.rejected_count > 0 and idle
        ks = [idle[0] if k is None else k for k in ks]  # a valid offer first
        count, rejected = allocator.rejected_count, allocator.rejected
        digest = allocator.state_digest()
        with pytest.raises(ValidationError, match="unknown stream index"):
            allocator.offer_batch(np.array(ks, dtype=np.int64))
        for k in ks:
            if not 0 <= k < 10:
                with pytest.raises(ValidationError, match="unknown stream index"):
                    allocator.offer_indexed(k)
        assert allocator.rejected_count == count
        assert allocator.rejected == rejected
        assert allocator.state_digest() == digest


# ---------------------------------------------------------------------------
# Rejection certificate
# ---------------------------------------------------------------------------


def _walk_keeps(server_charge, charges, w, ranks):
    """Users kept by ``_drop_walk`` and by ``_scalar_drop`` for one offer,
    in ``offer_indexed``'s (charge/utility, rank) drop order."""
    with np.errstate(invalid="ignore", divide="ignore"):
        order = np.lexsort((ranks, charges / w))
    walk = _drop_walk(server_charge, np.stack([charges[order], w[order]]))
    return walk, _scalar_drop(server_charge, charges[order], w[order])


class CertificateSpy:
    """Stands in for ``_certain_rejection`` and keeps what it certified.

    :meth:`check` re-decides the certified rejections of an offer by the
    walk and the scalar loop in the offer's own drop order.  Every call
    must pass the row's utility total the certificate would compute.
    """

    def __init__(self):
        self.fired = 0
        self.min_charge = math.inf
        self.pending = []

    def __call__(self, server_charge, charges, w, w_total):
        assert w_total == float(np.add.reduce(w))
        self.min_charge = min(self.min_charge, float(np.nanmin(charges)))
        certified = _certain_rejection(server_charge, charges, w, w_total)
        if certified:
            self.fired += 1
            self.pending.append((server_charge, charges.copy(), w.copy()))
        return certified

    def check(self, allocator, k):
        idx = allocator._idx
        ranks = allocator._pair_rank[idx.s_indptr[k]:idx.s_indptr[k + 1]]
        for server_charge, charges, w in self.pending:
            assert _walk_keeps(server_charge, charges, w, ranks) == (0, 0)
        self.pending.clear()


def _offer_both(fast, reference, spy, k):
    """Offer ``k`` to both allocators; the answers and states must agree."""
    got = fast.offer_indexed(k)
    spy.check(fast, k)
    assert np.array_equal(got, reference.offer_indexed(k))
    return got


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(1, 3),
    mc=st.integers(1, 3),
    tight=st.sampled_from([0.3, 0.5, 1.0]),
    ops=st.lists(
        st.tuples(st.sampled_from(["offer", "offer", "offer", "release", "resync"]),
                  st.integers(0, 2**16)),
        min_size=1, max_size=120,
    ),
)
def test_certificate_sound_on_random_sequences(seed, m, mc, tight, ops):
    inst = hand_built(seed, streams=12, users=10, mc=mc, tight=tight, m=m)
    fast = OnlineAllocator(inst)
    reference = GatherAndMaskAllocator(inst)
    spy = CertificateSpy()
    with mock.patch.object(allocate_module, "_certain_rejection", spy):
        for op, pick in ops:
            if op == "resync":
                fast.resync_charges()
                reference.resync_charges()
            elif op == "release":
                if fast._active_pairs:
                    active = sorted(fast._active_pairs)
                    k = active[pick % len(active)]
                    fast.release_indexed(k)
                    reference.release_indexed(k)
            else:
                idle = [k for k in range(inst.num_streams) if k not in fast._active_pairs]
                if idle:
                    _offer_both(fast, reference, spy, idle[pick % len(idle)])
    assert fast.rejected_count == reference.rejected_count
    assert fast.rejected == reference.rejected
    assert fast.state_digest() == reference.state_digest()


@pytest.mark.parametrize("make", REJECT_HEAVY_INSTANCES)
def test_certificate_settles_reject_heavy_sequences(make):
    """The random-sequence check on fixed reject-heavy runs, where the
    certificate is known to fire."""
    inst = make()
    fast = OnlineAllocator(inst)
    reference = GatherAndMaskAllocator(inst)
    spy = CertificateSpy()
    rng = random.Random(29)
    with mock.patch.object(allocate_module, "_certain_rejection", spy):
        for _ in range(400):
            if rng.random() < 0.08 and fast._active_pairs:
                k = rng.choice(sorted(fast._active_pairs))
                fast.release_indexed(k)
                reference.release_indexed(k)
                continue
            idle = [k for k in range(inst.num_streams) if k not in fast._active_pairs]
            _offer_both(fast, reference, spy, rng.choice(idle))
    assert spy.fired > 10
    assert fast.state_digest() == reference.state_digest()


def _zero_margin_server(charges, w):
    """``(G, T0)``: the certificate's gain (the server charge at which its
    margin is zero), computed as it computes it, and its scale there."""
    add = np.add.reduce
    gain = add(np.maximum(w - charges, 0.0))
    return gain, abs(gain) + add(np.abs(charges)) + add(w)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 300])
@pytest.mark.parametrize("seed", range(3))
def test_certificate_margin_near_its_allowance(n, seed):
    """Margins a few ulps·T either side of the ``8·(n + 2)·2⁻⁵³·T``
    allowance flip the certificate where the bound says, margins near
    zero (where the float walk may go either way) never certify, and
    every certified margin is a rejection of the walk and the scalar
    loop.  Tiny negative charges, as releases leave, are included."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 10.0, n)
    charges = w * rng.uniform(0.0, 2.0, n)
    charges[rng.random(n) < 0.25] = -rng.uniform(0.0, 1.7e-18)
    ranks = rng.permutation(n)
    gain, scale = _zero_margin_server(charges, w)
    step = 2.0**-53 * scale
    allowance = 8 * (n + 2)
    margins = [*range(-4, 5), *range(allowance - 8, allowance + 9), 2 * allowance]
    for k in margins:
        server = gain + k * step
        certified = _certain_rejection(server, charges, w, float(np.add.reduce(w)))
        if k <= allowance - 3:
            assert not certified, k
        if k >= allowance + 3:
            assert certified, k
        if certified:
            assert _walk_keeps(server, charges, w, ranks) == (0, 0)


@pytest.mark.parametrize(
    "poison",
    ["nan-charge", "inf-charge", "-inf-charge", "nan-server", "inf-server", "overflow"],
)
def test_certificate_leaves_nan_and_inf_to_the_walk(poison):
    """Any NaN or ``inf`` (and a scale that overflows) makes the test
    false, so the walk decides those offers."""
    w = np.array([1.0, 2.0, 3.0, 4.0])
    charges = np.array([0.5, 0.0, 5.0, -1e-18])
    server = 1e6
    assert _certain_rejection(server, charges, w, float(np.add.reduce(w)))
    if poison.endswith("charge"):
        charges[1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[poison[:-7]]
    elif poison == "overflow":
        server, charges[2] = 1.7e308, 1.7e308
    else:
        server = {"nan-server": math.nan, "inf-server": math.inf}[poison]
    assert not _certain_rejection(server, charges, w, float(np.add.reduce(w)))


def _fan_instance(users: int = 3) -> MMDInstance:
    """One server budget; stream ``a`` wanted by ``users`` users with
    infinite caps (zero user charges), so the server charge alone
    decides."""
    people = [
        User(f"u{u}", math.inf, (math.inf,), {"a": 1.0 + u, "b": 2.0}, {})
        for u in range(users)
    ]
    return MMDInstance([Stream("a", (0.6,)), Stream("b", (0.3,))], people, (1.0,),
                       name="fan")


def test_certificate_on_hand_made_states_near_the_bound():
    """Server charges stepped one float at a time across the allowance:
    both allocators reject at every step, and the certificate turns on
    exactly once, partway through."""
    inst = _fan_instance()
    fast, reference = OnlineAllocator(inst), GatherAndMaskAllocator(inst)
    idx = fast._idx
    k = idx.stream_index["a"]
    w = idx.s_w[idx.s_indptr[k]:idx.s_indptr[k + 1]]
    total = float(np.add.reduce(w))
    allowance = _CERTIFICATE_ALLOWANCE * (w.size + 2)
    # Server charge s* with s* − Σw = allowance·(s* + Σw); µ^L = 1 + s*/(ratio·B').
    target = (total + allowance * total) / (1.0 - allowance)
    per_unit = fast._server_ratio[k, 0] * fast._server_scaled_budget[0]
    exp_target = 1.0 + target / per_unit
    spy = CertificateSpy()
    answers = []
    with mock.patch.object(allocate_module, "_certain_rejection", spy):
        for steps in range(-20, 21):
            for allocator in (fast, reference):
                allocator._exp_server[0] = exp_target + steps * np.spacing(exp_target)
            fired = spy.fired
            assert _offer_both(fast, reference, spy, k).size == 0
            answers.append(spy.fired - fired)
    assert answers[0] == 0 and answers[-1] == 1
    assert sum(a != b for a, b in zip(answers, answers[1:])) == 1


@pytest.mark.parametrize("make", REJECT_HEAVY_INSTANCES)
def test_certificate_with_tiny_negative_loads(make):
    """Residues like ``-1e-16`` on idle budgets make ``µ^L − 1`` and so
    some user and server charges slightly negative."""
    inst = make()
    fast = OnlineAllocator(inst)
    for k in range(inst.num_streams):
        fast.offer_indexed(k)
    for k in sorted(fast._active_pairs)[::2]:
        fast.release_indexed(k)
    state = fast.state_dict()
    residue = -np.arange(1, 4) * 1e-16
    idle = np.argwhere(fast._finite_caps & (state["user_load"] == 0.0))
    assert idle.size
    for n, (u, j) in enumerate(idle):
        state["user_load"][u, j] = residue[n % residue.size]
    idle_server = [i for i in fast._server_measures if state["server_load"][i] == 0.0]
    state["server_load"][idle_server] = residue[0]
    fast.load_state(state)  # rebuilds µ^L from the residues: just below 1
    assert (fast._exp_user[tuple(idle.T)] < 1.0).all()
    reference = GatherAndMaskAllocator(inst)
    reference.load_state(state)
    spy = CertificateSpy()
    rng = random.Random(3)
    with mock.patch.object(allocate_module, "_certain_rejection", spy):
        for _ in range(150):
            if rng.random() < 0.1 and fast._active_pairs:
                k = rng.choice(sorted(fast._active_pairs))
                fast.release_indexed(k)
                reference.release_indexed(k)
                continue
            idle_streams = [k for k in range(inst.num_streams) if k not in fast._active_pairs]
            _offer_both(fast, reference, spy, rng.choice(idle_streams))
    assert spy.min_charge < 0.0
    assert spy.fired > 0
    assert fast.state_digest() == reference.state_digest()


@pytest.mark.parametrize("poison", [math.nan, math.inf], ids=["nan", "inf"])
def test_certificate_defers_poisoned_charges(poison):
    """A NaN or ``inf`` charge cache reaches the walk, and the answers
    still equal the reference's."""
    inst = hand_built(4, mc=1, tight=0.5)
    fast = OnlineAllocator(inst)
    for k in range(inst.num_streams):
        fast.offer_indexed(k)
    reference = GatherAndMaskAllocator(inst)
    reference.load_state(fast.state_dict())
    poisoned = np.flatnonzero(fast._finite_caps[:, 0])[:3]
    for allocator in (fast, reference):
        allocator._exp_user[poisoned, 0] = poison
    spy = CertificateSpy()
    idx = fast._idx
    seen = 0
    with mock.patch.object(allocate_module, "_certain_rejection", spy), \
            np.errstate(invalid="ignore", over="ignore"):
        for k in range(inst.num_streams):
            if k in fast._active_pairs:
                continue
            lo, hi = int(idx.s_indptr[k]), int(idx.s_indptr[k + 1])
            hit = np.isin(idx.s_user[lo:hi], poisoned) & fast._pair_charged[0, lo:hi]
            fired = spy.fired
            _offer_both(fast, reference, spy, k)
            if hit.any():
                seen += 1
                assert spy.fired == fired
    assert seen > 0
    assert fast.state_digest() == reference.state_digest()


def _iptv_cell():
    """A reject-dominated cell: iptv 40 × 300, sessions of half the horizon."""
    idx = iptv_neighborhood_indexed(40, 300, seed=1)
    model = ArrivalModel(rate=100.0, mean_duration=40.0, popularity_exponent=1.0)
    return idx, draw_trace_arrays(idx, model, 80.0, 1), 80.0


def _churn_cell():
    """A churn cell: small-streams 80 × 200, short sessions."""
    idx = small_streams_indexed_workload(80, 200, seed=2008)
    model = ArrivalModel(rate=100.0, mean_duration=5.0, popularity_exponent=1.0)
    return idx, draw_trace_arrays(idx, model, 40.0, 1), 40.0


@pytest.mark.parametrize("cell", [_iptv_cell, _churn_cell], ids=["iptv", "churn"])
def test_drop_walk_runs_only_for_admitting_offers(cell, monkeypatch):
    """On both cells every full-decision rejection is settled by the
    certificate: the walk runs exactly once per admitting offer."""
    idx, trace, horizon = cell()
    counts = {"walks": 0, "admits": 0, "certified": 0}
    walk, offer = allocate_module._drop_walk, OnlineAllocator.offer_indexed

    def counting_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counting_certificate(*args):
        certified = _certain_rejection(*args)
        counts["certified"] += certified
        return certified

    def counting_offer(self, k):
        answer = offer(self, k)
        counts["admits"] += answer.size > 0
        return answer

    monkeypatch.setattr(allocate_module, "_drop_walk", counting_walk)
    monkeypatch.setattr(allocate_module, "_certain_rejection", counting_certificate)
    monkeypatch.setattr(OnlineAllocator, "offer_indexed", counting_offer)
    report = simulate_trace(idx, AllocatePolicy(), trace, horizon, engine="indexed")
    assert counts["admits"] == report.admitted > 0
    assert counts["certified"] > counts["admits"] // 2
    assert counts["walks"] == counts["admits"]
