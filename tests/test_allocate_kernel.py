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
  maintained op by op, and :func:`allocate` keeps its results.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.allocate import OnlineAllocator, _drop_walk, allocate
from repro.core.assignment import Assignment
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance, Stream, User
from repro.instances.generators import small_streams_mmd


def hand_built(seed: int, streams: int = 14, users: int = 10, mc: int = 3) -> MMDInstance:
    """Instance exercising every branch of the charge kernel.

    Budgets: one finite, one infinite, one finite measure many streams
    do not cost.  Capacities: a mix of finite and infinite caps per
    user.  Loads: some pairs load a measure with zero, some
    positive-utility pairs have no load entry at all.
    """
    rng = random.Random(seed)
    catalog = []
    for s in range(streams):
        costs = (
            rng.uniform(0.5, 3.0),
            rng.uniform(0.5, 3.0),
            0.0 if s % 3 == 0 else rng.uniform(0.2, 2.0),
        )
        catalog.append(Stream(f"s{s:02d}", costs))
    people = []
    for u in range(users):
        caps = tuple(math.inf if rng.random() < 0.3 else rng.uniform(2.0, 6.0) for _ in range(mc))
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
    return MMDInstance(catalog, people, (streams * 0.6, math.inf, streams * 0.4), name=f"hand-{seed}")


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
        self._charges_mutated()

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
        fast = OnlineAllocator(inst, enforce_budgets=enforce, charge_resync=7)
        reference = GatherAndMaskAllocator(inst, enforce_budgets=enforce, charge_resync=7)
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
    """Padded multi-row walks equal the scalar loop row by row, with
    NaN and ``inf`` charges (a NaN total stops the walk)."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 12, size=9)
    width = int(lengths.max())
    server = rng.uniform(0.0, 3.0, size=lengths.size)
    sorted_cw = np.zeros((2, lengths.size, width))
    rows = []
    for r, n in enumerate(lengths):
        charges = np.sort(rng.exponential(1.0, size=n))
        w = rng.uniform(0.2, 2.0, size=n)
        if r % 4 == 1:
            charges[rng.integers(n)] = np.nan
        if r % 4 == 2:
            charges[-1] = np.inf
        sorted_cw[0, r, width - n:] = charges
        sorted_cw[1, r, width - n:] = w
        rows.append((charges, w))
    with np.errstate(all="raise"):
        kept = _drop_walk(server, sorted_cw, lengths)
    expected = [_scalar_drop(float(server[r]), c, w) for r, (c, w) in enumerate(rows)]
    assert kept.tolist() == expected


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
