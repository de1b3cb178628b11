"""Algorithm *Allocate* — online allocation of small streams (paper §5).

Every budget — the ``m`` server budgets and each user's capacity
measures, treated as *virtual budgets* — carries an exponential cost
``C_A(i) = B_i·(µ^{L_A(i)} - 1)`` in its normalized load ``L_A(i)``.
A stream ``S_j`` is assigned to a maximal set of users ``U_j`` whose
total utility covers the marginal exponential cost::

    Σ_{i ∈ M ∪ U_j} (c_i(S_j)/B_i) · C_{A_{j-1}}(i)  ≤  Σ_{u ∈ U_j} w_u(S_j)

Decisions are never revoked, so the algorithm is online.  When every
stream is *small* — ``c_i(S) ≤ B_i / log₂ µ`` in every measure — no
budget is ever violated (Lemma 5.1) and the solution is
``(1 + 2·log₂ µ)``-competitive (Theorem 5.4), where
``µ = 2γ·(m + |U|·m_c) + 2`` and ``γ`` is the instance's global skew.

The paper presents ``m_c = 1`` and notes the extension to ``m_c > 1`` is
straightforward; this implementation is the general version: each
``(user, capacity measure)`` pair is one virtual budget.

Normalization (paper eq. (1)) is applied internally: each cost measure is
scaled (cost and budget together, which leaves the problem unchanged) so
that a unit of any cost is worth at least ``m + Σ_u m_c`` of the smallest
per-user utility; ``γ`` is then the smallest valid upper bound of eq. (1).

Engineering extensions, both off the paper's path but needed by the
simulation substrate (and the paper's own footnote about streams of
finite duration):

- ``enforce_budgets=True`` adds a hard admission guard so the allocator
  is safe on instances that violate the small-streams precondition (the
  guard provably never fires when the precondition holds);
- :meth:`OnlineAllocator.release` returns a departed stream's load, for
  finite-duration sessions;
- the exponential charges are maintained *incrementally*: ``µ^{L(i)}``
  is cached per budget and refreshed (exactly) for just the budgets a
  commit or release touches, so an offer never recomputes ``mu **
  load`` over the whole interested row; the caches are never stored,
  since :meth:`OnlineAllocator.resync_charges` rebuilds them from the
  loads (how :meth:`~OnlineAllocator.load_state` restores them) — and
  rejections are tracked as :attr:`OnlineAllocator.rejected_count`
  plus a deduplicated id list, so million-event simulations neither
  re-exponentiate nor leak memory;
- everything an offer reads that does not move with the loads (charged
  and finite masks, ``load/cap`` ratios, scaled caps, user ranks, the
  per-stream server ratios) is precomputed once per (stream, user) pair
  at construction, aligned with the stream-major CSR arrays, and the
  Line-4 drop walk is one vectorized :func:`_drop_walk` over the
  offer's row;
- a decision is a pure function of the stream, the loads and the
  charge caches (``enforce_budgets`` and ``µ`` are fixed at
  construction), and a rejection moves none of them, so a stream
  rejected at the current :attr:`~OnlineAllocator.epoch` would be
  rejected again — the token the ``indexed`` replay kernel parks such
  repeats on, so they never reach the allocator;
- a full decision that must reject is settled without the sort and the
  drop walk: every kept set's Line-4 margin is at least
  ``server − Σ_u max(0, w_u − c_u)``, and when that exceeds the walk's
  worst-case rounding error (:func:`_certain_rejection`) the walk could
  only reject, so :meth:`~OnlineAllocator.offer_indexed` rejects at
  once.  Admissions, and rejections too close to call, still run the
  walk, so every answer and every float of the state is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import Assignment
from repro.core.indexed import (
    IndexedInstance,
    ensure_indexed,
    global_skew_indexed,
    small_streams_indexed,
)
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance
from repro.exceptions import ValidationError


def global_skew_parameters(
    instance: "MMDInstance | IndexedInstance",
) -> "tuple[float, float, int]":
    """Return ``(gamma, mu, D)`` for an instance (either representation).

    ``D = m_finite + Σ_u m_c_finite(u)`` counts the budgets with finite
    caps; ``gamma`` is the global skew of eq. (1) computed on the
    normalized instance, and ``mu = 2·gamma·D + 2`` (the constant that
    makes Lemma 5.1 go through; Theorem 1.2 states ``+1``, which does
    not satisfy the lemma's final inequality — we use ``+2`` from §5).
    """
    idx = ensure_indexed(instance)
    d = int(np.isfinite(idx.budgets).sum()) + int(np.isfinite(idx.capacities).sum())
    d = max(d, 1)
    gamma = global_skew_indexed(idx)
    mu = 2.0 * gamma * d + 2.0
    return gamma, mu, d


def small_streams_condition(
    instance: "MMDInstance | IndexedInstance", mu: "float | None" = None
) -> bool:
    """Check the Theorem 1.2 precondition: every stream costs at most a
    ``1/log₂ µ`` fraction of every finite budget and capacity."""
    if mu is None:
        _gamma, mu, _d = global_skew_parameters(instance)
    return small_streams_indexed(ensure_indexed(instance), mu)


#: The answer of every rejection: one shared, read-only empty array.
_REJECTED = np.empty(0, dtype=np.int64)
_REJECTED.flags.writeable = False

#: The rejection certificate's error allowance per user, in units of
#: the scale ``T``: ``8·2⁻⁵³``, over 2.6× the first-order rounding
#: bound (see :func:`_certain_rejection`).
_CERTIFICATE_ALLOWANCE = 8 * 2.0**-53


def _certain_rejection(
    server_charge: float, charges: np.ndarray, w: np.ndarray, w_total: float
) -> bool:
    """Whether Line 4 keeps no user of an offer, decided without the
    sort and the drop walk; ``False`` means "run the walk".

    ``w_total`` is ``float(np.add.reduce(w))``, which the allocator
    computes once per stream row at construction.

    For any kept set ``K`` the exact Line-4 margin is
    ``server + Σ_K c_u − Σ_K w_u ≥ server − G`` with
    ``G = Σ_u max(0, w_u − c_u)``.  Every running total of
    :func:`_drop_walk` is at most ``2n − 1`` sequential additions and
    subtractions whose partial sums are bounded by
    ``T = |server| + Σ_u |c_u| + Σ_u w_u``, and ``G``'s own rounding
    adds at most ``n`` more units, so the floats differ from the exact
    totals by at most ``(3n − 1)·2⁻⁵³·T`` to first order (an addition
    with a subnormal result is exact, so underflow does not widen it).
    A computed ``server − G`` above ``8·(n + 2)·2⁻⁵³·T`` therefore makes
    the walk's ``charge > utility`` test true at every drop count: the
    walk would reject too.  A NaN or ``inf`` anywhere makes the test
    false, and the caller falls through to the walk.
    """
    add = np.add.reduce
    gain = w - charges
    gain = float(add(np.maximum(gain, 0.0, out=gain)))
    scale = abs(server_charge) + float(add(np.abs(charges))) + w_total
    return server_charge - gain > _CERTIFICATE_ALLOWANCE * (charges.size + 2) * scale


def _drop_walk(server_charge: float, sorted_cw: np.ndarray) -> int:
    """Line 4's drop walk for one offer; returns the number of users kept.

    ``sorted_cw`` has shape ``(2, n)``: row 0 holds user charges, row 1
    utilities, in ascending (charge/utility, rank) order.  The walk
    starts from the full totals (server charge included) and drops the
    last user, one subtraction at a time, while total charge exceeds
    total utility — the paper's note after Alg. 2.  ``cumsum`` and
    ``subtract.accumulate`` both run sequentially along a row, so
    column ``s`` of the walk is bit-for-bit the running total a scalar
    loop holds after ``s`` removals, and a NaN total stops the walk
    exactly as the scalar ``>`` test would.
    """
    n = sorted_cw.shape[1]
    walk = np.empty((2, n + 1))
    walk[:, 0] = np.cumsum(sorted_cw, axis=1)[:, -1]
    walk[0, 0] += server_charge
    walk[:, 1:] = sorted_cw[:, ::-1]  # column s drops entry n - s
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract.accumulate(walk, axis=1, out=walk)
    stop = ~(walk[0] > walk[1])
    stop[n] = True  # every user dropped
    return n - int(stop.argmax())


class OnlineAllocator:
    """Stateful online allocator (Algorithm 2).

    The stream *catalog* (and hence the normalization and ``µ``) is
    fixed at construction; the arrival **order** is unknown and streams
    are offered one at a time via :meth:`offer`.  Decisions are never
    revoked (except through the explicit :meth:`release` extension).

    Parameters
    ----------
    instance:
        The full instance (catalog, users, budgets), as either
        representation.  The allocator runs on the
        :class:`~repro.core.indexed.IndexedInstance`; an array-native
        one is lifted to the string-keyed model only if
        :attr:`instance` is read (by :attr:`assignment` or a string-id
        call naming an unknown stream).
    mu:
        Optional override of the exponential base (for experiments);
        defaults to ``2γD + 2``.
    enforce_budgets:
        Hard admission guard (see module docstring).
    """

    def __init__(
        self,
        instance: "MMDInstance | IndexedInstance",
        mu: "float | None" = None,
        enforce_budgets: bool = True,
    ) -> None:
        idx = ensure_indexed(instance)
        self._idx = idx
        self.enforce_budgets = enforce_budgets
        self.gamma, default_mu, self.d = global_skew_parameters(idx)
        self.mu = default_mu if mu is None else float(mu)
        if self.mu <= 1.0:
            raise ValidationError(f"mu must exceed 1, got {self.mu}")
        self.log_mu = math.log2(self.mu)

        min_w = idx.min_support_utilities()  # w_min(S); inf for empty support

        # Per-measure normalization scales λ (cost and budget together):
        # λ_i = min over streams with c_i(S) > 0 of w_min(S) / (D · c_i(S)).
        self._server_measures: "list[int]" = [
            i for i, b in enumerate(idx.budgets.tolist()) if not math.isinf(b)
        ]
        # Scaled budgets B'_i = λ_i·B_i of the exponential costs.
        self._server_scaled_budget: dict[int, float] = {}
        for i in self._server_measures:
            cost = idx.stream_costs[:, i]
            mask = np.isfinite(min_w) & (cost > 0)
            scale = float((min_w[mask] / (self.d * cost[mask])).min()) if mask.any() else math.inf
            scale = 1.0 if math.isinf(scale) else scale
            self._server_scaled_budget[i] = scale * float(idx.budgets[i])
        # Per-stream server data: which measures a stream is charged on
        # (c_i(S) > 0) and its normalized cost c_i(S)/B_i, shape (|S|, m).
        self._server_charged = idx.stream_costs > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            self._server_ratio = idx.stream_costs / idx.budgets
        # The same terms per stream as Python floats, one ``(i, c_i(S)/B_i)``
        # entry per charged finite measure, for the full decision's sum.
        self._server_terms: "list[list[tuple[int, float]]]" = [
            [(i, ratio[i]) for i in self._server_measures if charged[i]]
            for charged, ratio in zip(
                self._server_charged.tolist(), self._server_ratio.tolist()
            )
        ]
        # Stream-major row bounds, and each row's Σ_u w_u(S) by the same
        # reduction over the same slice the certificate would run.
        self._row_bounds: "list[int]" = idx.s_indptr.tolist()
        self._row_w_total: "list[float]" = [
            float(np.add.reduce(idx.s_w[lo:hi]))
            for lo, hi in zip(self._row_bounds[:-1], self._row_bounds[1:])
        ]

        # Per-(user, measure) scales over the user-major pair arrays;
        # entries for infinite-cap measures exist but are never charged.
        num_users, mc = idx.num_users, idx.mc
        self._finite_caps = np.isfinite(idx.capacities)  # (U, mc)
        user_scale = np.ones((num_users, mc))
        pair_min_w = min_w[idx.u_stream] if idx.nnz else np.empty(0)
        for j in range(mc):
            load = idx.u_loads[:, j]
            mask = load > 0
            if mask.any():
                scale = np.full(num_users, math.inf)
                with np.errstate(over="ignore"):
                    ratios = pair_min_w[mask] / (self.d * load[mask])
                np.minimum.at(scale, idx.u_pair_user[mask], ratios)
                user_scale[:, j] = np.where(np.isfinite(scale), scale, 1.0)

        # Per-pair static data, aligned with the stream-major ``s_*`` CSR
        # arrays and laid out one row per capacity measure, shape
        # (mc, nnz): a pair is *charged* on measure j when the user's cap
        # is finite and the stream loads it; ``ratio`` is k^u_j(S)/K^u_j
        # and ``scaled_cap`` the normalized cap λ_{u,j}·K^u_j.  These are
        # the expressions the charge kernel, the commit, the hard guard
        # and the release evaluate per pair, evaluated once here, so the
        # floats are the same.
        pair_cap = np.ascontiguousarray(idx.capacities[idx.s_user].T)
        pair_load = np.ascontiguousarray(idx.s_loads.T)
        self._pair_finite = np.isfinite(pair_cap)
        self._pair_charged = self._pair_finite & (pair_load > 0.0)
        # Ratio and scaled cap are zero on uncharged pairs, so the charge
        # kernel forms no 0·inf and no 0/0 there.  The hard guard also
        # reads the ratio of an uncharged finite-cap pair, whose load is
        # zero: its test is then ``L > 1 + rtol``, which no guarded
        # commit leaves true.
        with np.errstate(divide="ignore", invalid="ignore"):
            self._pair_ratio = np.where(self._pair_charged, pair_load / pair_cap, 0.0)
        self._pair_scaled_cap = np.where(
            self._pair_charged, np.ascontiguousarray(user_scale[idx.s_user].T) * pair_cap, 0.0
        )
        #: Lexicographic user rank per pair — the drop order's tie-break.
        self._pair_rank = idx.user_rank[idx.s_user]

        # Normalized loads L(i) ∈ [0, 1] per budget (scale-invariant).
        self._server_load_arr = np.zeros(idx.m)
        self._user_load_arr = np.zeros((num_users, mc))
        # Incremental exponential charges: the caches hold µ^{L(i)} per
        # budget (µ^0 = 1 at rest) and are updated on commit/release for
        # the budgets whose load changed, so an offer reads one gather
        # instead of recomputing ``mu ** load`` over every interested
        # row.  Each cache write is the *exact* ``µ^L`` of the new load
        # (one pow per changed budget — the same cost a multiplicative
        # update would pay — with zero float drift, keeping decisions
        # bit-identical to the uncached path).
        self._exp_server = np.ones(idx.m)
        self._exp_user = np.ones((num_users, mc))
        # State epoch: bumped whenever a decision input can move (every
        # commit and release, a resync and a load_state), so "rejected at
        # the current epoch" proves a re-offer would be rejected again.
        self._epoch = 0
        #: Active sessions: stream index -> its receivers' pair indices
        #: into the stream-major CSR (never empty).  The single record of
        #: what is committed; :attr:`assignment` and the snapshot's
        #: ``offered`` list are derived from it.
        self._active_pairs: "dict[int, np.ndarray]" = {}
        # Rejected stream indices in first-rejection order, as an
        # insertion-ordered set (dict keys).  Bounded by the catalog
        # size, so million-event runs do not leak memory.
        self._rejected: "dict[int, None]" = {}
        #: Total rejections, re-offers included.
        self.rejected_count = 0

    @property
    def instance(self) -> MMDInstance:
        """The string-keyed instance (lifted on first access if array-native)."""
        return self._idx.lift()

    @property
    def epoch(self) -> int:
        """The state epoch: it moves on every commit, release, resync and
        :meth:`load_state`, and on nothing else.

        While it is unchanged every decision input is unchanged, so a
        stream rejected at this epoch would be rejected again.
        """
        return self._epoch

    @property
    def rejected(self) -> "list[str]":
        """Deduplicated rejected stream ids, in first-rejection order.

        Re-offered rejections bump :attr:`rejected_count` without
        growing this list.
        """
        return self._idx.stream_ids_of(self._rejected)

    @property
    def assignment(self) -> Assignment:
        """The current assignment, built on access from the active sessions.

        Costs O(active pairs) per access: a view for reports and tests,
        not for hot loops (the allocator itself never reads it).
        """
        idx = self._idx
        assignment = Assignment(self.instance)
        for k, pairs in self._active_pairs.items():
            assignment.assign_stream(idx.stream_ids[k], idx.user_ids_of(idx.s_user[pairs]))
        return assignment

    # ------------------------------------------------------------------
    # Exponential costs
    # ------------------------------------------------------------------

    def _exp_cost_server(self, i: int) -> float:
        """``C(i) = B'_i (µ^{L(i)} - 1)`` for a server budget (normalized scale)."""
        return self._server_scaled_budget[i] * (float(self._exp_server[i]) - 1.0)

    def _server_charge_index(self, k: int) -> float:
        """``Σ_{i∈M} (c_i(S)/B_i)·C(i)`` for stream index ``k`` — the
        server part of the Line 4 test."""
        total = 0.0
        for i, ratio in self._server_terms[k]:
            total += ratio * self._exp_cost_server(i)
        return total

    def _user_charges(self, row_users: np.ndarray, row_pairs) -> np.ndarray:
        """``Σ_j (k^u_j(S)/K^u_j)·C(u,j)`` for every interested user at once.

        ``row_pairs`` indexes the per-pair arrays (an index array or a
        slice of one stream's row).  Measures accumulate in ascending
        ``j`` — the same per-user order (and hence the same floats) as
        charging one user at a time; an uncharged pair adds an exact
        ``0.0``.  The exponentials come from the :attr:`_exp_user` cache
        (maintained exactly on commit/release) and every other operand
        from the per-pair static arrays, so an offer costs one gather
        and the arithmetic over the interested row.  An uncharged pair
        reads ``µ^L = 1``, so its cost is ``0·0·0``: no NaN is formed
        there even when the user's cached ``µ^L`` is ``inf``.  A zero
        charge may be ``-0.0``; charges only enter sums and comparisons,
        where it equals ``0.0``.
        """
        charge = None
        for j in range(self._idx.mc):
            cost = np.where(
                self._pair_charged[j, row_pairs], self._exp_user[:, j][row_users], 1.0
            )
            cost -= 1.0
            cost *= self._pair_scaled_cap[j, row_pairs]
            cost *= self._pair_ratio[j, row_pairs]
            if charge is None:
                charge = cost
            else:
                charge += cost
        return np.zeros(row_users.size) if charge is None else charge

    def _recharge(self, selected_users: np.ndarray, j: int) -> None:
        """Refresh the cached ``µ^L`` of the given (user, ``j``) budgets.

        Called after a commit or release changed those loads; the write
        is the exact power of the new load, so the cache never drifts.
        """
        self._exp_user[selected_users, j] = (
            self.mu ** self._user_load_arr[selected_users, j]
        )

    def _recharge_server(self, i: int) -> None:
        """Refresh the cached ``µ^L`` of server budget ``i``: the exact
        power of its load, or ``inf`` once that leaves the float range
        (as numpy gives the user caches)."""
        try:
            self._exp_server[i] = self.mu ** float(self._server_load_arr[i])
        except OverflowError:
            self._exp_server[i] = math.inf

    def resync_charges(self) -> None:
        """Rebuild every cached ``µ^L`` from the loads.

        The caches hold no state of their own: each is the function of
        its load that the incremental writes compute, so on a live
        allocator this is a bit-wise no-op (asserted in
        ``tests/test_allocate.py``), and :meth:`load_state` restores
        the caches by calling it.  It starts a new state epoch.
        """
        for i in range(self._idx.m):
            self._recharge_server(i)
        self._exp_user[...] = self.mu ** self._user_load_arr
        self._epoch += 1

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------

    def _reject(self, k: int) -> None:
        """Record a rejection: the count always grows, the id list only
        on first rejection (so re-offers over a long trace stay O(1);
        re-assigning a dict key keeps its first-rejection position)."""
        self.rejected_count += 1
        self._rejected[k] = None

    def _check_active(self, k: int) -> None:
        """Loud double-offer guard: an accepted stream stays active until
        released."""
        if k in self._active_pairs:
            raise ValidationError(f"stream {self._idx.stream_ids[k]!r} is already active")

    def offer(self, stream_id: str) -> "list[str]":
        """Offer a stream; returns the users it was assigned to (may be
        empty = rejected).  An *accepted* stream may not be offered again
        until released; rejected streams may be re-offered (the simulator
        treats each re-arrival as a fresh request)."""
        k = self._idx.stream_index.get(stream_id)
        if k is None:
            self.instance.stream(stream_id)  # canonical unknown-stream error
        return self._idx.user_ids_of(self.offer_indexed(k))

    def _check_stream_index(self, k: int) -> int:
        """Validate a stream index loudly (canonical :class:`ValidationError`).

        Out-of-range *and negative* indices both fail: numpy's negative
        indexing would otherwise silently address the wrong stream.
        """
        k = int(k)
        if not 0 <= k < self._idx.num_streams:
            raise ValidationError(
                f"unknown stream index {k}; catalog has "
                f"{self._idx.num_streams} streams"
            )
        return k

    def offer_indexed(self, k: int) -> np.ndarray:
        """Index-native :meth:`offer`: stream index in, receiver user
        indices out (same floats, same decisions — the string form
        delegates here).  A rejection the charges certify
        (:func:`_certain_rejection`) skips the sort and the drop walk.
        Every rejection returns the same read-only empty array."""
        idx = self._idx
        k = self._check_stream_index(k)
        self._check_active(k)
        lo, hi = self._row_bounds[k], self._row_bounds[k + 1]
        if lo == hi:
            self._reject(k)
            return _REJECTED
        row = slice(lo, hi)
        row_users = idx.s_user[row]
        row_w = idx.s_w[row]
        charges = self._user_charges(row_users, row)
        server_charge = self._server_charge_index(k)
        if _certain_rejection(server_charge, charges, row_w, self._row_w_total[k]):
            self._reject(k)
            return _REJECTED

        # Maximal U_j: drop users in decreasing order of charge/utility
        # until the Line 4 condition holds (the paper's note after Alg. 2).
        order = np.lexsort((self._pair_rank[row], charges / row_w))
        sorted_cw = np.empty((2, hi - lo))
        sorted_cw[0] = charges[order]
        sorted_cw[1] = row_w[order]
        count = _drop_walk(server_charge, sorted_cw)
        if count == 0:
            self._reject(k)
            return _REJECTED
        chosen = order[:count]
        selected_users = row_users[chosen]
        selected_pairs = lo + chosen

        if self.enforce_budgets:
            selected_users, selected_pairs = self._hard_guard(
                k, selected_users, selected_pairs
            )
            if selected_users.size == 0:
                self._reject(k)
                return _REJECTED

        self._move_load(k, selected_users, selected_pairs, np.add)
        self._active_pairs[k] = selected_pairs
        return selected_users

    def offer_batch(self, ks: np.ndarray) -> "list[np.ndarray]":
        """Answer a group of offers; returns answers for a prefix of ``ks``.

        Every index is validated before any state is written; then each
        offer is answered by :meth:`offer_indexed` in order, and the
        prefix ends after the first admit (a commit moves the charges
        every later decision depends on; the caller re-offers the
        rest).  The answers are therefore those of calling
        :meth:`offer_indexed` in sequence.  No simulation engine calls
        it; they drive Allocate one :meth:`offer_indexed` call per
        decision.
        """
        ks_list = np.asarray(ks, dtype=np.int64).tolist()
        for k in ks_list:
            self._check_stream_index(k)  # raises, before any state moves
        answers: "list[np.ndarray]" = []
        for k in ks_list:
            answer = self.offer_indexed(k)
            answers.append(answer)
            if answer.size:
                break
        return answers

    def _hard_guard(
        self, k: int, selected_users: np.ndarray, selected_pairs: np.ndarray
    ):
        """Drop the stream (or individual users) if committing would exceed
        a budget.  Never fires under the small-streams precondition."""
        empty = np.empty(0, dtype=np.int64)
        ratio = self._server_ratio[k]
        for i in self._server_measures:
            if self._server_load_arr[i] + ratio[i] > 1.0 + FEASIBILITY_RTOL:
                return empty, empty
        fits = np.ones(selected_users.size, dtype=bool)
        for j in range(self._idx.mc):
            over = (
                self._user_load_arr[selected_users, j]
                + self._pair_ratio[j, selected_pairs]
                > 1.0 + FEASIBILITY_RTOL
            )
            fits &= ~(self._pair_finite[j, selected_pairs] & over)
        return selected_users[fits], selected_pairs[fits]

    def _move_load(self, k: int, users: np.ndarray, pairs: np.ndarray, op) -> None:
        """Commit (``op=np.add``) or release (``np.subtract``) a session.

        Moves stream ``k``'s normalized load on its charged server
        budgets once and on each receiver pair's charged capacities,
        then refreshes the charge caches of exactly the budgets that
        moved.
        """
        charged, ratio = self._server_charged[k], self._server_ratio[k]
        for i in self._server_measures:
            if charged[i]:
                self._server_load_arr[i] = op(self._server_load_arr[i], ratio[i])
                self._recharge_server(i)
        for j in range(self._idx.mc):
            hit = self._pair_charged[j, pairs]
            touched = users[hit]
            self._user_load_arr[touched, j] = op(
                self._user_load_arr[touched, j], self._pair_ratio[j, pairs[hit]]
            )
            self._recharge(touched, j)
        self._epoch += 1

    def release(self, stream_id: str) -> None:
        """Extension for finite-duration sessions: return a stream's load.

        Removes the stream from every receiver and subtracts its server
        and user loads.  The stream may be offered again afterwards.
        The §5 competitive analysis covers the arrivals-only model; with
        releases this is the heuristic policy used by the simulator.
        """
        k = self._idx.stream_index.get(stream_id)
        if k is None:
            self.instance.stream(stream_id)  # canonical unknown-stream error
        self.release_indexed(k)

    def release_indexed(self, k: int) -> None:
        """Index-native :meth:`release`: one scatter-subtract per measure
        over the stream's receiver pairs instead of a per-user loop.

        Unknown indices and inactive streams raise the canonical
        :class:`~repro.exceptions.ValidationError` — never a raw
        ``KeyError``/``IndexError``, and never a silent no-op.
        """
        k = self._check_stream_index(k)
        pairs = self._active_pairs.pop(k, None)
        if pairs is None:
            raise ValidationError(
                f"stream {self._idx.stream_ids[k]!r} is not active "
                "(never offered, rejected, or already released)"
            )
        self._move_load(k, self._idx.s_user[pairs], pairs, np.subtract)

    # ------------------------------------------------------------------
    # State snapshot / restore (the serving layer's durability hooks)
    # ------------------------------------------------------------------

    def state_dict(self) -> "dict[str, object]":
        """The allocator's full dynamic state, as plain data.

        Everything :meth:`load_state` needs to make a fresh allocator
        (same instance, same ``mu``) *bit-identical* to this one:
        normalized loads, active sessions with their receiver pairs and
        rejection bookkeeping.  ``offered`` (the sorted ids of the
        active streams) is derived from the sessions.  The ``µ^L``
        charge caches are functions of the loads and static derived
        data (scales, ``µ``, the index, the per-pair arrays) is rebuilt
        from the instance at construction, so neither is part of the
        state.
        """
        return {
            "mu": self.mu,
            "server_load": self._server_load_arr.copy(),
            "user_load": self._user_load_arr.copy(),
            "offered": sorted(self._idx.stream_ids_of(self._active_pairs)),
            "active_pairs": {
                int(k): np.asarray(pairs, dtype=np.int64).copy()
                for k, pairs in self._active_pairs.items()
            },
            "rejected": self.rejected,
            "rejected_count": int(self.rejected_count),
        }

    def load_state(self, state: "dict[str, object]") -> None:
        """Restore a :meth:`state_dict` snapshot onto this allocator.

        The allocator must wrap the same instance with the same ``mu``
        (checked loudly); afterwards every future decision is identical
        to the allocator the state was taken from.  The state is
        validated in full before anything is written: ``offered`` must
        name exactly the streams of ``active_pairs``, and every active
        stream must hold at least one receiver pair inside its own
        interest row.  The loads are written and the charge caches
        rebuilt from them by :meth:`resync_charges`; keys a state dict
        carries beyond those of :meth:`state_dict` (older snapshots
        stored the caches) are ignored.
        """
        if float(state["mu"]) != self.mu:
            raise ValidationError(
                f"state was taken at mu={state['mu']!r} but this allocator "
                f"has mu={self.mu!r}; same instance and mu are required"
            )
        idx = self._idx
        arrays = []
        for name, target in (
            ("server_load", self._server_load_arr),
            ("user_load", self._user_load_arr),
        ):
            source = np.asarray(state[name], dtype=np.float64)
            if source.shape != target.shape:
                raise ValidationError(
                    f"state array {name!r} has shape {source.shape}, "
                    f"expected {target.shape}"
                )
            arrays.append((target, source))
        offered = set(state["offered"])
        rejected = list(state["rejected"])
        for sid in sorted(offered) + rejected:
            if sid not in idx.stream_index:
                raise ValidationError(f"state names unknown stream id {sid!r}")
        active: "dict[int, np.ndarray]" = {}
        for k, pairs in sorted(state["active_pairs"].items()):
            k = self._check_stream_index(k)
            sid = idx.stream_ids[k]
            arr = np.asarray(pairs, dtype=np.int64)
            if arr.size == 0:
                raise ValidationError(
                    f"state lists stream {sid!r} as active with no receiver pairs"
                )
            if (
                int(arr.min()) < int(idx.s_indptr[k])
                or int(arr.max()) >= int(idx.s_indptr[k + 1])
            ):
                raise ValidationError(
                    f"state pairs for stream index {k} fall outside its "
                    "interest row"
                )
            if sid not in offered:
                raise ValidationError(
                    f"state has receiver pairs for stream {sid!r} but does "
                    "not list it as offered"
                )
            active[k] = arr
        for sid in sorted(offered):
            if idx.stream_index[sid] not in active:
                raise ValidationError(
                    f"state lists stream {sid!r} as offered but has no "
                    "receiver pairs for it"
                )
        for target, source in arrays:
            target[...] = source
        self._active_pairs = active
        self._rejected = dict.fromkeys(idx.stream_index[sid] for sid in rejected)
        self.rejected_count = int(state["rejected_count"])
        self.resync_charges()

    def state_digest(self) -> str:
        """SHA-256 fingerprint of the dynamic state (bit-identity checks).

        Two allocators over the same instance have equal digests iff
        their loads, charge caches, active sessions, and rejection
        bookkeeping are bit-identical — the equality the crash-restore
        tests assert between a restored service and an uninterrupted
        run.
        """
        import hashlib

        state = self.state_dict()
        digest = hashlib.sha256()
        digest.update(repr(float(state["mu"])).encode())
        # The live caches, not a recomputation: a restore that rebuilt a
        # cache differently must not compare equal.
        for name, arr in (
            ("server_load", self._server_load_arr),
            ("user_load", self._user_load_arr),
            ("exp_server", self._exp_server),
            ("exp_user", self._exp_user),
        ):
            digest.update(name.encode())
            digest.update(repr(arr.shape).encode())
            digest.update(arr.tobytes())
        digest.update("\x00".join(state["offered"]).encode())
        for k, pairs in sorted(state["active_pairs"].items()):
            digest.update(repr(int(k)).encode())
            digest.update(pairs.tobytes())
        digest.update("\x00".join(state["rejected"]).encode())
        digest.update(repr(int(state["rejected_count"])).encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def competitive_bound(self) -> float:
        """Theorem 5.4's guarantee: ``1 + 2·log₂ µ``."""
        return 1.0 + 2.0 * self.log_mu

    def normalized_loads(self) -> "dict[str, float]":
        """Current normalized loads per budget (for diagnostics/metrics)."""
        loads = {
            f"server[{i}]": float(self._server_load_arr[i])
            for i in self._server_measures
        }
        idx = self._idx
        for u_i, uid in enumerate(idx.user_ids):
            for j in range(idx.mc):
                if self._finite_caps[u_i, j]:
                    loads[f"user[{uid}][{j}]"] = float(self._user_load_arr[u_i, j])
        return loads


@dataclass
class AllocateResult:
    """Outcome of a batch :func:`allocate` run."""

    assignment: Assignment
    mu: float
    gamma: float
    competitive_bound: float
    small_streams_ok: bool
    rejected: "list[str]" = field(default_factory=list)


def allocate(
    instance: MMDInstance,
    order: "list[str] | None" = None,
    mu: "float | None" = None,
    enforce_budgets: bool = True,
) -> AllocateResult:
    """Run Algorithm 2 over all streams in the given (default: input) order."""
    allocator = OnlineAllocator(instance, mu=mu, enforce_budgets=enforce_budgets)
    sequence = order if order is not None else instance.stream_ids()
    for sid in sequence:
        allocator.offer(sid)
    return AllocateResult(
        assignment=allocator.assignment,
        mu=allocator.mu,
        gamma=allocator.gamma,
        competitive_bound=allocator.competitive_bound,
        small_streams_ok=small_streams_condition(instance, allocator.mu),
        rejected=list(allocator.rejected),
    )
