"""Batched decision core: multi-pick rounds for Algorithm Greedy (§2.1).

:func:`repro.core.indexed.greedy_kernel` vectorized the *per-pick* work
of Algorithm Greedy but still crosses into numpy once per pick — an
argmax cascade over all streams plus one residual scatter, ``O(|S|)``
numpy dispatches for a full run.  This module replaces the per-pick
loop with **rounds** that select and commit many picks per numpy
dispatch while reproducing the single-pick kernel's pick sequence,
tie-breaking and float accumulation *bit-exactly*.

Round structure
---------------

1. **Snapshot + select.**  Compute the effectiveness key
   ``(w̄/c, w̄, -rank)`` once (identical float recipe to the single-pick
   kernel), take the top ``R`` candidates by effectiveness with one
   ``argpartition``, and order that subset by the full key with one
   ``lexsort``.  Candidates tied with the partition boundary are
   truncated (an unselected stream could outrank them on the
   ``(w̄, rank)`` tie-break), so the kept prefix enumerates *exactly*
   the argmaxes the sequential algorithm would produce from the
   snapshot state; when every selected stream ties at the boundary the
   round degrades to the single exact argmax.

2. **Non-interaction test.**  Pick ``j`` in the prefix is *safe* when
   committing every earlier prefix pick cannot change ``j``'s key: for
   each of ``j``'s interested pairs ``(u, w)``, either no earlier pick
   touches ``u``, or ``u``'s clipped headroom is already zero (it can
   only stay zero), or ``w ≤ max(h_u - drop_u, 0)`` where ``drop_u``
   subtracts *every* earlier prefix pick's utility from ``u``'s
   headroom in sequential float order — a sound lower bound on ``u``'s
   residual under any commit subset, because dropping a subtrahend from
   an IEEE subtraction chain never lowers the result.  Residual
   utilities are monotone nonincreasing (Lemma 2.1's submodularity, and
   the float updates preserve it), so a safe pick's snapshot key is
   still the true argmax at its turn — including ties, which the
   snapshot ``lexsort`` already broke by the dict engine's
   ``(-eff, -w̄, id)`` rule.

3. **Commit + fallback.**  Walk the safe prefix applying the budget
   test scalarly (the only genuinely sequential state), then commit all
   accepted picks with one vectorized residual update: per-user
   sequential headroom chains via ``np.subtract.accumulate`` over a
   zero-padded matrix (subtracting the padding is an exact no-op), and
   one ``np.add.at`` whose operand order replays the single-pick
   kernel's receiver-by-receiver delta sequence, so every float
   accumulates in the same IEEE order.  The first unsafe pick ends the
   round — the conflicting tail falls back to the next round's fresh
   snapshot (pick one of a round is always safe, so progress is
   guaranteed) — and the round size adapts: it grows after
   conflict-free rounds and shrinks toward the consumed prefix after a
   conflict.

A pick whose residual is nonpositive terminates the whole run exactly
where the sequential kernel would: effectiveness is nonpositive iff the
residual is, so every remaining candidate — selected or not — is also
exhausted.

The kernel has no switch of its own: under the default ``indexed``
solver engine, :func:`repro.core.greedy.greedy_kernel_for` runs it when
the instance's shape says it wins (a low collision share between picks,
or slack caps with short rows) and runs the single-pick kernel otherwise.
``tests/test_indexed_parity.py`` and ``tests/test_batched.py`` call
both kernels directly and assert bit-identical traces against the dict
engine, and ``benchmarks/bench_e16_batched.py`` asserts the ≥ 10× floor
over the single-pick kernel at 10k users × 1k streams.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.indexed import IndexedInstance, _concat_ranges
from repro.core.instance import FEASIBILITY_RTOL
from repro.exceptions import ValidationError

#: First-round multi-pick width; later rounds adapt between
#: :data:`MIN_ROUND` and :data:`MAX_ROUND` (grow ×2 after a
#: conflict-free round, shrink toward the consumed prefix otherwise).
INITIAL_ROUND = 64
MIN_ROUND = 16
MAX_ROUND = 4096


def _user_prefix_chains(
    users: np.ndarray, w: np.ndarray, headroom: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Per-user sequential headroom chains over pick-major pairs.

    For every pair (in the given pick-major order) of a round's picks,
    computes the headroom its user would have **before** and **after**
    that pair's subtraction if every pick committed, chaining the
    subtractions per user in pick order with ``np.subtract.accumulate``
    over a zero-padded matrix — each chain value is the *exact*
    sequential IEEE float the single-pick kernel would produce.

    Returns ``(sort_idx, group_starts, seg_id, acc, col)``: the stable
    per-user ordering, its group boundaries/ids, the accumulate matrix
    (row = user, column 0 = starting headroom) and each pair's column.
    """
    sort_idx = np.argsort(users, kind="stable")
    gu = users[sort_idx]
    gw = w[sort_idx]
    n = gu.size
    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    group_start[1:] = gu[1:] != gu[:-1]
    group_starts = np.flatnonzero(group_start)
    seg_id = np.cumsum(group_start) - 1
    col = np.arange(n, dtype=np.int64) - group_starts[seg_id]
    width = int(col.max()) + 1
    chains = np.zeros((group_starts.size, width + 1))
    chains[:, 0] = headroom[gu[group_starts]]
    chains[seg_id, col + 1] = gw
    acc = np.subtract.accumulate(chains, axis=1)
    return sort_idx, group_starts, seg_id, acc, col


def safe_prefix_mask(
    idx: IndexedInstance, headroom: np.ndarray, picks: np.ndarray
) -> np.ndarray:
    """Non-interaction mask over a round's ordered picks.

    ``safe[a]`` is True when committing every earlier pick of the round
    provably cannot change pick ``a``'s residual key (see module
    docstring, step 2).  Conservative: a False entry only costs a round
    boundary, never correctness.
    """
    t = picks.size
    safe = np.ones(t, dtype=bool)
    starts = idx.s_indptr[picks]
    counts = idx.s_indptr[picks + 1] - starts
    nz = counts > 0
    if not nz.any():
        return safe  # empty interest rows interact with nothing
    flat = _concat_ranges(starts[nz], counts[nz])
    users = idx.s_user[flat]
    w = idx.s_w[flat]
    # A pair can only interact when some *other* pick shares its user, so
    # pairs of once-touched users are safe outright; only the duplicated
    # subset pays for the sequential chain machinery.  (A duplicated
    # user's pairs all land in the subset, and masking preserves their
    # pick-major order, so "first pair in the round" survives intact.)
    dup = np.bincount(users, minlength=idx.num_users)[users] > 1
    if not dup.any():
        return safe
    d_users = users[dup]
    d_w = w[dup]
    sort_idx, group_starts, seg_id, acc, col = _user_prefix_chains(
        d_users, d_w, headroom
    )
    h_before_sorted = acc[seg_id, col]
    h0_sorted = acc[seg_id, 0]
    first_sorted = np.zeros(d_users.size, dtype=bool)
    first_sorted[group_starts] = True  # the user's first pair in the round
    ok_sorted = (
        first_sorted
        | (h0_sorted <= 0.0)
        | (d_w[sort_idx] <= np.maximum(h_before_sorted, 0.0))
    )
    ok = np.empty(d_users.size, dtype=bool)
    ok[sort_idx] = ok_sorted
    seg_pick = np.repeat(np.flatnonzero(nz), counts[nz])
    conflicts = np.bincount(seg_pick[dup][~ok], minlength=t)
    safe &= conflicts == 0
    return safe


def commit_picks(
    idx: IndexedInstance,
    headroom: np.ndarray,
    wbar: np.ndarray,
    picks: "list[int]",
) -> "list[np.ndarray]":
    """Commit accepted picks with one vectorized residual update.

    Reproduces the single-pick kernel's ``assign`` exactly for the whole
    batch: per-user headroom chains give each pair the same sequential
    float the pick-by-pick loop would read (a user saturated mid-batch
    stops receiving at the same pair, because the chains are
    nonincreasing), and the residual deltas land through one
    ``np.add.at`` in pick order, then receiver row order — the
    single-pick loop's exact accumulation sequence.  Returns each pick's
    receiver user indices, in pick order.
    """
    t = len(picks)
    picks_arr = np.asarray(picks, dtype=np.int64)
    starts = idx.s_indptr[picks_arr]
    counts = idx.s_indptr[picks_arr + 1] - starts
    nz = counts > 0
    empty = idx.s_user[:0]
    if not nz.any():
        return [empty] * t
    flat = _concat_ranges(starts[nz], counts[nz])
    users = idx.s_user[flat]
    w = idx.s_w[flat]
    n = users.size
    h_before = np.empty(n)
    h_after = np.empty(n)
    # Once-touched users need no chain: their single pair reads the live
    # headroom directly.  Only duplicated users pay for the sequential
    # machinery (the two populations are disjoint, so the two headroom
    # writes below cannot race).
    dup = np.bincount(users, minlength=idx.num_users)[users] > 1
    if dup.any():
        d_users = users[dup]
        sort_idx, group_starts, seg_id, acc, col = _user_prefix_chains(
            d_users, w[dup], headroom
        )
        h_before_sorted = acc[seg_id, col]
        h_after_sorted = acc[seg_id, col + 1]
        receiving_sorted = h_before_sorted > 0.0
        # Final headroom per duplicated user: the chain value after its
        # last receiving pair (the chains are nonincreasing, so once a
        # value goes nonpositive the user stops receiving — exactly the
        # sequential "skip saturated users" rule — and the chain freezes
        # there).
        received = np.add.reduceat(
            receiving_sorted.astype(np.int64), group_starts
        )
        headroom[d_users[sort_idx][group_starts]] = acc[
            np.arange(group_starts.size), received
        ]
        # Back to pick-major (pair) order for the delta sequence.
        tmp = np.empty(d_users.size)
        tmp[sort_idx] = h_before_sorted
        h_before[dup] = tmp
        tmp = np.empty(d_users.size)
        tmp[sort_idx] = h_after_sorted
        h_after[dup] = tmp
    once = ~dup
    hb = headroom[users[once]]
    h_before[once] = hb
    h_after[once] = hb - w[once]
    receiving = h_before > 0.0
    once_recv = once & receiving
    headroom[users[once_recv]] = h_after[once_recv]
    old_clip = h_before[receiving]  # == max(·, 0): receivers are positive
    new_clip = np.maximum(h_after[receiving], 0.0)
    changed = new_clip != old_clip
    if np.any(changed):
        ch_users = users[receiving][changed]
        ustarts = idx.u_indptr[ch_users]
        ucounts = idx.u_indptr[ch_users + 1] - ustarts
        flat2 = _concat_ranges(ustarts, ucounts)
        w2 = idx.u_w[flat2]
        targets = idx.u_stream[flat2]
        nc = np.repeat(new_clip[changed], ucounts)
        oc = np.repeat(old_clip[changed], ucounts)
        np.add.at(wbar, targets, np.minimum(w2, nc) - np.minimum(w2, oc))
    seg_pick = np.repeat(np.arange(t)[nz], counts[nz])
    receiver_counts = np.bincount(seg_pick[receiving], minlength=t)
    flat_receivers = users[receiving]
    out = []
    lo = 0
    for hi in np.cumsum(receiver_counts).tolist():
        out.append(flat_receivers[lo:hi])
        lo = hi
    return out


def _argmax_exact(
    masked: np.ndarray, wbar: np.ndarray, stream_rank: np.ndarray
) -> int:
    """The single-pick kernel's argmax cascade over ``(eff, w̄, -rank)``."""
    num_streams = masked.shape[0]
    best_eff = masked.max()
    tied = masked == best_eff
    masked_wbar = np.where(tied, wbar, -math.inf)
    best_wbar = masked_wbar.max()
    tied &= masked_wbar == best_wbar
    ranks = np.where(tied, stream_rank, num_streams + 1)
    return int(ranks.argmin())


def greedy_kernel_batched(
    idx: IndexedInstance,
    cap: float,
    initial: "list[int]",
    rtol: float = FEASIBILITY_RTOL,
) -> "tuple[list[tuple[int, np.ndarray]], list[int], float]":
    """Multi-pick Algorithm Greedy (see module docstring).

    Same contract and bit-identical result as
    :func:`repro.core.indexed.greedy_kernel`: ``(order, rejected,
    total_cost)`` with receivers per pick in assignment order.
    """
    num_streams = idx.num_streams
    costs0 = idx.stream_costs[:, 0] if idx.m else np.zeros(num_streams)
    headroom = idx.utility_caps.copy()
    wbar = np.zeros(num_streams)
    np.add.at(
        wbar,
        idx.s_pair_stream,
        np.minimum(idx.s_w, np.maximum(headroom[idx.s_user], 0.0)),
    )
    candidates = np.ones(num_streams, dtype=bool)
    order: "list[tuple[int, np.ndarray]]" = []
    rejected: "list[int]" = []
    total_cost = 0.0

    for k in initial:
        receivers = commit_picks(idx, headroom, wbar, [k])[0]
        order.append((k, receivers))
        total_cost += float(costs0[k])
        candidates[k] = False
    if total_cost > cap * (1 + rtol):
        raise ValidationError("initial streams already exceed the budget")

    positive_cost = costs0 > 0.0
    free = ~positive_cost
    any_free = bool(free.any())
    effectiveness = np.empty(num_streams)
    round_size = INITIAL_ROUND
    num_candidates = int(np.count_nonzero(candidates))
    while num_candidates:
        # Snapshot the effectiveness key (single-pick kernel's recipe).
        np.divide(wbar, costs0, out=effectiveness, where=positive_cost)
        if any_free:
            effectiveness[free] = np.where(wbar[free] > 0.0, math.inf, 0.0)
        masked = np.where(candidates, effectiveness, -math.inf)
        r = min(round_size, num_candidates)
        if r == num_candidates:
            selected = np.flatnonzero(candidates)
            complete = True
        else:
            selected = np.argpartition(masked, num_streams - r)[num_streams - r:]
            complete = False
        sel_eff = masked[selected]
        # Full snapshot order inside the selection: the dict engine's
        # min over (-eff, -w̄, id), via the precomputed rank table.
        picks = selected[
            np.lexsort((idx.stream_rank[selected], -wbar[selected], -sel_eff))
        ]
        if not complete:
            # Boundary rule: a pick tied with the partition threshold may
            # be outranked by an *unselected* equal-effectiveness stream
            # on the (w̄, rank) tie-break — keep only the strict prefix.
            picks = picks[masked[picks] > sel_eff.min()]
            if picks.size == 0:
                picks = np.array(
                    [_argmax_exact(masked, wbar, idx.stream_rank)],
                    dtype=np.int64,
                )
        safe = safe_prefix_mask(idx, headroom, picks)

        # The walk reads only snapshot state (w̄ is untouched until the
        # commit below), so hoist the per-pick scalars out of numpy once.
        safe_list = safe.tolist()
        picks_list = picks.tolist()
        wbar_list = wbar[picks].tolist()
        cost_list = costs0[picks].tolist()
        budget_cap = cap * (1 + rtol)
        accepted: "list[int]" = []
        consumed = 0
        terminate = False
        for a in range(len(picks_list)):
            if not safe_list[a]:
                break  # conflicting tail: retry from a fresh snapshot
            if wbar_list[a] <= 0.0:
                # The exact argmax is exhausted, so every remaining
                # candidate is too (eff <= 0 iff w̄ <= 0): global stop.
                terminate = True
                break
            cost = cost_list[a]
            if total_cost + cost <= budget_cap:
                accepted.append(picks_list[a])
                total_cost += cost
            else:
                rejected.append(picks_list[a])
            consumed += 1
        if consumed:
            candidates[picks[:consumed]] = False
        if accepted:
            for k, receivers in zip(
                accepted, commit_picks(idx, headroom, wbar, accepted)
            ):
                order.append((k, receivers))
        num_candidates -= consumed
        if terminate:
            break
        if consumed == picks.size:
            round_size = min(round_size * 2, MAX_ROUND)
        else:
            round_size = max(MIN_ROUND, min(round_size, 2 * max(consumed, 1)))
    return order, rejected, total_cost
