"""Algorithm *Greedy* for single-budget SMD and its fixes (paper §2).

The §2 setting: a single server budget ``B``, and unit local skew, so the
only user-side datum that matters is the utility bound ``W_u`` (under unit
skew the capacity constraint coincides with the utility cap; see the
paper's "Preliminaries" of §2).  The functions here therefore interpret an
instance through its utilities and utility caps only; callers that start
from capacity-constrained instances reach this module through the
classify-and-select reduction of :mod:`repro.core.skew`, which builds
bucket instances in exactly this setting.

Provided algorithms:

- :func:`greedy` — Algorithm 1 verbatim: iteratively add the stream of
  maximum cost effectiveness ``w̄^A(S)/c(S)``; the result is
  *semi-feasible* (server budget holds; users may be oversaturated by
  their last stream, with utility counted capped).  Runs in
  ``O(|S|·n)`` via incremental residual maintenance, matching the
  paper's complexity analysis.
- :func:`greedy_lazy` — same algorithm with a lazy priority queue
  (valid because residual utilities are monotone nonincreasing); same
  utility, often faster.
- :func:`best_single_stream_assignment` — ``A_max`` of §2.2.
- :func:`greedy_with_best_stream` — Lemma 2.6's ``Ã``: the better of
  Greedy and ``A_max``; semi-feasible with ratio ``2e/(e-1)``
  (feasible under the resource augmentation of Corollary 2.7).
- :func:`greedy_feasible` — Theorem 2.8: split the greedy assignment
  into ``A_1`` (all but each user's last stream) and ``A_2`` (each
  user's last stream), return the best of ``A_1``, ``A_2``, ``A_max``;
  fully feasible with ratio ``3e/(e-1)``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import Assignment, best_assignment
from repro.core.batched import greedy_kernel_batched
from repro.core.indexed import (
    IndexedInstance,
    best_single_stream_kernel,
    greedy_kernel,
    index_instance,
    resolve_engine,
)
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance
from repro.exceptions import ValidationError

#: ``e/(e-1)`` — the submodular-greedy constant.
E_RATIO = math.e / (math.e - 1.0)
#: Lemma 2.6 / Theorem 2.10 semi-feasible (or augmented) factor.
SEMI_FEASIBLE_FACTOR = 2.0 * math.e / (math.e - 1.0)
#: Theorem 2.8 feasible factor for the O(n^2) algorithm.
FEASIBLE_FACTOR = 3.0 * math.e / (math.e - 1.0)

#: Collision share up to which the multi-pick kernel runs whatever the
#: caps.  A pick's row holds ``nnz/|S|`` users with ``nnz/|U|``
#: interests each, so ``(nnz/|S|)·(nnz/|U|)/|S|`` is the share of the
#: catalog that shares a user with one pick: the rate at which picks in
#: a round conflict.
COLLISION_SHARE = 0.06
#: Share of slack users (``W_u`` at least the user's total utility, so
#: the user never saturates and its picks never conflict) from which
#: the caps count as slack.
SLACK_SHARE = 0.95
#: Row length (``nnz/|S|``) up to which the multi-pick kernel runs on
#: slack caps; longer rows make each round's commit cost more than the
#: single-pick argmaxes it saves.
SLACK_ROW_LENGTH = 80.0
#: Row length as a share of the catalog (``nnz/|S|²``) up to which caps
#: that are slack only up to rounding count as slack.  A cap equal to
#: its user's total utility, summed in another order, still binds by an
#: ulp at the user's last pick about half the time; each such conflict
#: ends a round, so on these caps the multi-pick kernel wins only when
#: rows are short against the catalog.
ROUNDED_SLACK_ROW_SHARE = 0.05


def _require_single_budget(instance: MMDInstance) -> None:
    if instance.m != 1:
        raise ValidationError(
            f"greedy requires a single server budget (m=1), got m={instance.m}; "
            "use repro.core.reduction.reduce_to_single_budget first"
        )


@dataclass
class GreedyTrace:
    """The result of a greedy run, with enough history for the §2.2 fixes.

    Attributes
    ----------
    assignment:
        The (semi-feasible) greedy assignment ``A``.
    order:
        ``(stream_id, receivers)`` pairs in assignment order; receivers
        lists the users whose residual utility was positive when the
        stream was added.
    rejected_for_budget:
        Streams whose residual utility was positive but whose cost would
        have exceeded the remaining budget when considered (the paper's
        ``S_{k+1}`` is the first of these that belongs to the reference
        solution).
    total_cost:
        ``c(A)`` at termination.
    """

    assignment: Assignment
    order: "list[tuple[str, tuple[str, ...]]]" = field(default_factory=list)
    rejected_for_budget: "list[str]" = field(default_factory=list)
    total_cost: float = 0.0

    def last_stream_of(self) -> "dict[str, str]":
        """For each user that received anything: the last stream assigned."""
        last: dict[str, str] = {}
        for sid, receivers in self.order:
            for uid in receivers:
                last[uid] = sid
        return last


class _GreedyState:
    """Incremental residual-utility bookkeeping shared by both variants.

    Maintains, for the current partial assignment:

    - ``headroom[u] = W_u - w_u(A)`` (may go negative once, when a user
      is saturated by his final stream);
    - ``wbar[S] = w̄^A(S)`` for every not-yet-considered stream.

    Assigning a stream updates both in ``O(Σ_{u∈receivers} deg(u))``
    total work, which is what yields the paper's ``O(|S|·n)`` bound.
    """

    def __init__(self, instance: MMDInstance) -> None:
        self.instance = instance
        self.headroom: dict[str, float] = {
            u.user_id: u.utility_cap for u in instance.users
        }
        # stream -> [(user_id, w_u(S))] over positive utilities
        self.interested: dict[str, list[tuple[str, float]]] = {
            s.stream_id: [] for s in instance.streams
        }
        # user -> [(stream_id, w_u(S))]
        self.user_streams: dict[str, list[tuple[str, float]]] = {}
        for u in instance.users:
            pairs = list(u.utilities.items())
            self.user_streams[u.user_id] = pairs
            for sid, w in pairs:
                self.interested[sid].append((u.user_id, w))
        self.candidates: set[str] = {s.stream_id for s in instance.streams}
        self.wbar: dict[str, float] = {}
        for sid in self.candidates:
            self.wbar[sid] = sum(
                min(w, max(self.headroom[uid], 0.0))
                for uid, w in self.interested[sid]
            )

    def effectiveness(self, sid: str) -> float:
        """Cost effectiveness ``w̄^A(S)/c(S)`` (``inf`` for free streams)."""
        wbar = self.wbar[sid]
        cost = self.instance.stream(sid).costs[0]
        if cost == 0.0:
            return math.inf if wbar > 0.0 else 0.0
        return wbar / cost

    def assign(self, sid: str, assignment: Assignment) -> "tuple[str, ...]":
        """Add ``sid`` to every user with positive residual; update state."""
        receivers = []
        for uid, w in self.interested[sid]:
            old_r = self.headroom[uid]
            if old_r <= 0.0:
                continue
            assignment.add(uid, sid)
            receivers.append(uid)
            new_r = old_r - w
            self.headroom[uid] = new_r
            old_clip = old_r  # == max(old_r, 0) since old_r > 0
            new_clip = max(new_r, 0.0)
            if old_clip != new_clip:
                for sid2, w2 in self.user_streams[uid]:
                    if sid2 in self.candidates and sid2 != sid:
                        self.wbar[sid2] += min(w2, new_clip) - min(w2, old_clip)
        return tuple(receivers)

    def drop(self, sid: str) -> None:
        """Retire ``sid`` from the candidates (assigned or rejected)."""
        self.candidates.discard(sid)
        self.wbar.pop(sid, None)


def greedy(
    instance: MMDInstance,
    initial_streams: "tuple[str, ...]" = (),
    budget: "float | None" = None,
    engine: "str | None" = None,
) -> GreedyTrace:
    """Algorithm 1 (*Greedy*) of §2.1.

    Parameters
    ----------
    instance:
        A single-budget instance (``m = 1``); interpreted in the §2
        setting (user constraint = utility cap).
    initial_streams:
        Streams assigned unconditionally first (used by the partial
        enumeration of §2.3); their cost counts against the budget.
    budget:
        Optional budget override (used by resource-augmentation
        experiments); defaults to ``B_1``.
    engine:
        ``"indexed"`` (default) runs the array kernel that
        :func:`greedy_kernel_for` picks from the instance's shape;
        ``"dict"`` runs the original string-keyed implementation.  Both
        engines produce bit-identical traces.

    Returns a :class:`GreedyTrace` whose assignment is semi-feasible:
    the server budget holds, and each user may exceed his utility cap
    only by his final stream (utility is counted capped).
    """
    _require_single_budget(instance)
    resolved = resolve_engine(engine)
    if resolved != "dict":
        return _greedy_indexed(instance, initial_streams, budget)
    cap = instance.budgets[0] if budget is None else budget
    state = _GreedyState(instance)
    assignment = Assignment(instance)
    trace = GreedyTrace(assignment)
    for sid in initial_streams:
        if sid not in state.candidates:
            raise ValidationError(f"initial stream {sid!r} unknown or repeated")
        receivers = state.assign(sid, assignment)
        trace.order.append((sid, receivers))
        trace.total_cost += instance.stream(sid).costs[0]
        state.drop(sid)
    if trace.total_cost > cap * (1 + FEASIBILITY_RTOL):
        raise ValidationError("initial streams already exceed the budget")

    while state.candidates:
        # argmax of effectiveness, ties broken by larger residual then id.
        best_sid = min(
            state.candidates,
            key=lambda s: (-state.effectiveness(s), -state.wbar[s], s),
        )
        if state.wbar[best_sid] <= 0.0:
            break  # every remaining stream would be assigned to nobody
        cost = instance.stream(best_sid).costs[0]
        if trace.total_cost + cost <= cap * (1 + FEASIBILITY_RTOL):
            receivers = state.assign(best_sid, assignment)
            trace.order.append((best_sid, receivers))
            trace.total_cost += cost
        else:
            trace.rejected_for_budget.append(best_sid)
        state.drop(best_sid)
    return trace


def greedy_kernel_for(idx: IndexedInstance):
    """The faster of the two bit-identical Greedy kernels for ``idx``.

    :func:`~repro.core.batched.greedy_kernel_batched` commits whole
    rounds of picks that provably do not interact; it wins when picks
    rarely share a user whose cap can bind, and loses to the
    single-pick :func:`~repro.core.indexed.greedy_kernel` when shared
    users with binding caps cut every round short.  The choice reads
    only the instance's shape: the multi-pick kernel runs when the
    collision share is at most :data:`COLLISION_SHARE`, or when at
    least :data:`SLACK_SHARE` of the users are slack and rows are at
    most :data:`SLACK_ROW_LENGTH` long.  A cap within a relative
    :data:`~repro.core.instance.FEASIBILITY_RTOL` of the user's total
    counts as slack only while rows are at most
    :data:`ROUNDED_SLACK_ROW_SHARE` of the catalog.
    """
    nnz, num_streams, num_users = idx.nnz, idx.num_streams, idx.num_users
    if nnz * nnz <= COLLISION_SHARE * num_streams * num_streams * num_users:
        return greedy_kernel_batched
    if nnz <= SLACK_ROW_LENGTH * num_streams:
        caps = idx.utility_caps
        totals = np.bincount(idx.u_pair_user, weights=idx.u_w, minlength=num_users)
        slack = caps >= totals * (1.0 - FEASIBILITY_RTOL)
        # Slack beyond rounding: no summation order reaches the cap, and
        # a user with one interest has no second pick to conflict with.
        clear = slack & (
            (caps >= totals * (1.0 + FEASIBILITY_RTOL)) | (np.diff(idx.u_indptr) <= 1)
        )
        needed = SLACK_SHARE * num_users
        if np.count_nonzero(clear) >= needed or (
            np.count_nonzero(slack) >= needed
            and nnz <= ROUNDED_SLACK_ROW_SHARE * num_streams * num_streams
        ):
            return greedy_kernel_batched
    return greedy_kernel


def _greedy_indexed(
    instance: MMDInstance,
    initial_streams: "tuple[str, ...]",
    budget: "float | None",
) -> GreedyTrace:
    """Vectorized Greedy: lower once, run the kernel
    :func:`greedy_kernel_for` picks, lift the trace."""
    cap = instance.budgets[0] if budget is None else budget
    idx = index_instance(instance)
    initial: "list[int]" = []
    seen: set[str] = set()
    for sid in initial_streams:
        if sid in seen or sid not in idx.stream_index:
            raise ValidationError(f"initial stream {sid!r} unknown or repeated")
        seen.add(sid)
        initial.append(idx.stream_index[sid])
    order, rejected, total_cost = greedy_kernel_for(idx)(idx, cap, initial)
    assignment = Assignment(instance)
    trace = GreedyTrace(assignment)
    for k, receivers in order:
        sid = idx.stream_ids[k]
        uids = tuple(idx.user_ids_of(receivers))
        assignment.assign_stream(sid, uids)
        trace.order.append((sid, uids))
    trace.rejected_for_budget = idx.stream_ids_of(rejected)
    trace.total_cost = total_cost
    return trace


def greedy_lazy(
    instance: MMDInstance,
    initial_streams: "tuple[str, ...]" = (),
    budget: "float | None" = None,
) -> GreedyTrace:
    """Lazy-heap variant of :func:`greedy`.

    Residual utilities only decrease as the assignment grows (the
    coverage utility is submodular, Lemma 2.1), so a stale heap entry
    whose recomputed effectiveness still tops the heap is a valid
    argmax.  Produces the same utility as :func:`greedy`; the selection
    order may differ between tied streams.
    """
    _require_single_budget(instance)
    cap = instance.budgets[0] if budget is None else budget
    state = _GreedyState(instance)
    assignment = Assignment(instance)
    trace = GreedyTrace(assignment)
    for sid in initial_streams:
        if sid not in state.candidates:
            raise ValidationError(f"initial stream {sid!r} unknown or repeated")
        receivers = state.assign(sid, assignment)
        trace.order.append((sid, receivers))
        trace.total_cost += instance.stream(sid).costs[0]
        state.drop(sid)
    if trace.total_cost > cap * (1 + FEASIBILITY_RTOL):
        raise ValidationError("initial streams already exceed the budget")

    heap: "list[tuple[float, float, str]]" = [
        (-state.effectiveness(sid), -state.wbar[sid], sid) for sid in state.candidates
    ]
    heapq.heapify(heap)
    while heap:
        neg_eff, neg_wbar, sid = heapq.heappop(heap)
        if sid not in state.candidates:
            continue
        current_wbar = state.wbar[sid]
        if current_wbar != -neg_wbar:
            # Stale: residual decreased since the entry was pushed.
            heapq.heappush(heap, (-state.effectiveness(sid), -current_wbar, sid))
            continue
        if current_wbar <= 0.0:
            break
        cost = instance.stream(sid).costs[0]
        if trace.total_cost + cost <= cap * (1 + FEASIBILITY_RTOL):
            receivers = state.assign(sid, assignment)
            trace.order.append((sid, receivers))
            trace.total_cost += cost
        else:
            trace.rejected_for_budget.append(sid)
        state.drop(sid)
    return trace


def best_single_stream_assignment(
    instance: MMDInstance, engine: "str | None" = None
) -> Assignment:
    """``A_max`` (§2.2): the best single transmitted stream, assigned to
    every interested user.

    Always feasible at the server (the paper assumes ``c_i(S) <= B_i``).
    """
    _require_single_budget(instance)
    if resolve_engine(engine) != "dict":
        idx = index_instance(instance)
        k, best_value = best_single_stream_kernel(idx, lexicographic_ties=True)
        a = Assignment(instance)
        if k >= 0 and best_value > 0:
            a.add_stream_to_all(idx.stream_ids[k])
        return a
    best_sid = None
    best_value = -1.0
    for s in instance.streams:
        value = 0.0
        for u in instance.users:
            w = u.utilities.get(s.stream_id, 0.0)
            value += min(w, u.utility_cap)
        if value > best_value or (value == best_value and best_sid is not None and s.stream_id < best_sid):
            best_sid, best_value = s.stream_id, value
    a = Assignment(instance)
    if best_sid is not None and best_value > 0:
        a.add_stream_to_all(best_sid)
    return a


def greedy_with_best_stream(
    instance: MMDInstance, engine: "str | None" = None
) -> Assignment:
    """Lemma 2.6's ``Ã``: the better of Greedy and ``A_max``.

    Semi-feasible, with ``w(Ã) >= (e-1)/2e · OPT``; feasible when user
    capacities are augmented by one stream (Corollary 2.7).
    """
    trace = greedy(instance, engine=engine)
    return best_assignment(
        [trace.assignment, best_single_stream_assignment(instance, engine=engine)]
    )


def greedy_feasible(instance: MMDInstance, engine: "str | None" = None) -> Assignment:
    """Theorem 2.8: the feasible ``3e/(e-1)``-approximation.

    Splits the greedy assignment per user into all-but-last (``A_1``)
    and last-only (``A_2``) streams — each feasible, because a user is
    oversaturated only by his final stream — and returns the best of
    ``A_1``, ``A_2`` and ``A_max`` by (capped) utility.
    """
    trace = greedy(instance, engine=engine)
    last = trace.last_stream_of()
    a1 = Assignment(instance)
    a2 = Assignment(instance)
    for u in instance.users:
        streams = trace.assignment.streams_of(u.user_id)
        final = last.get(u.user_id)
        for sid in streams:
            if sid == final:
                a2.add(u.user_id, sid)
            else:
                a1.add(u.user_id, sid)
    return best_assignment(
        [a1, a2, best_single_stream_assignment(instance, engine=engine)]
    )
