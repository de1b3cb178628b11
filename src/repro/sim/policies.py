"""Online admission policies for the video-distribution simulator.

A policy answers one question per stream-session arrival: *carry this
stream, and deliver it to which users?*  The simulator owns the ground
truth of resource usage and exposes it through :class:`ResourceView`;
it also hard-enforces feasibility after the policy answers, so a buggy
policy cannot oversubscribe the plant (violations are counted and
reported instead).

Policies:

- :class:`ThresholdPolicy` — the deployed baseline of the paper's
  introduction: admit while every resource stays within a safety
  margin, utility-blind.
- :class:`AllocatePolicy` — the paper's §5 exponential-cost algorithm
  (:class:`repro.core.allocate.OnlineAllocator`) with the
  finite-duration extension: departures return their load.
- :class:`DensityPolicy` — admit only streams whose static
  utility-per-cost density clears a quantile of the catalog (a smarter
  utility-aware heuristic that still ignores load state).
- :class:`RandomPolicy` — admit with probability ``p``, deliver to all
  fitting users (a noise floor).

Policies tell the ``indexed`` engine when their rejections are stable
through :meth:`AdmissionPolicy.rejection_token`: Threshold and Density
return a constant (their answers are functions of the resource state),
Allocate its allocator's state epoch, and Random (like any policy that
does not override it) ``None``, which keeps one policy call per decision.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Mapping

import numpy as np

from repro.core.allocate import OnlineAllocator
from repro.core.indexed import (
    IndexedInstance,
    _concat_ranges,
    ensure_indexed,
    index_instance,
)
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance
from repro.util.rng import ensure_rng

#: Shared empty receiver answer (index form).
EMPTY_USERS = np.empty(0, dtype=np.int64)


class _UserUsage(Mapping):
    """Mapping facade over the dense ``(num_users, mc)`` usage matrix.

    ``view.user_used[uid]`` returns the user's *live row* of the backing
    array (mutations write through), preserving the dict-of-lists
    interface the string-keyed simulator and existing callers use while
    the actual accounting runs on one contiguous matrix.
    """

    def __init__(self, idx: IndexedInstance, array: np.ndarray) -> None:
        self._idx = idx
        self._array = array

    def __getitem__(self, user_id: str) -> np.ndarray:
        return self._array[self._idx.user_index[user_id]]

    def __iter__(self):
        return iter(self._idx.user_ids)

    def __len__(self) -> int:
        return self._idx.num_users


class ResourceView:
    """Usage snapshot handed to policies, backed by dense arrays.

    Attributes
    ----------
    indexed:
        The :class:`~repro.core.indexed.IndexedInstance` lowering all
        accounting runs on.
    server_used:
        ``(m,)`` per-measure server usage vector.
    user_used:
        Mapping view (``user_id -> (mc,) row``) over
        :attr:`user_used_array`, the dense ``(num_users, mc)`` matrix.
    active_streams / active_mask:
        Streams currently carried, as a string-id set and as a boolean
        vector over stream indices (kept in sync by the
        :meth:`activate_index` / :meth:`deactivate_index` mutators).
    """

    def __init__(self, instance: "MMDInstance | IndexedInstance") -> None:
        self.indexed = ensure_indexed(instance)
        idx = self.indexed
        self._idx = idx
        self.server_used = np.zeros(idx.m)
        self.user_used_array = np.zeros((idx.num_users, idx.mc))
        self.user_used = _UserUsage(idx, self.user_used_array)
        self.active_streams: set[str] = set()
        self.active_mask = np.zeros(idx.num_streams, dtype=bool)
        # Finite server budgets and the catalog's costs as Python floats,
        # for the scalar server probe.
        self._finite_budgets = [
            (i, budget)
            for i, budget in enumerate(idx.budgets.tolist())
            if not math.isinf(budget)
        ]
        self._stream_costs = idx.stream_costs.tolist()

    @property
    def instance(self) -> MMDInstance:
        """The string-keyed instance (lifted lazily for array-native input)."""
        return self.indexed.lift()

    # -- mutation (the simulator owns the ground truth) ----------------

    def activate_index(self, k: int) -> None:
        """Mark stream index ``k`` as carried (mask and id set together)."""
        self.active_mask[k] = True
        self.active_streams.add(self.indexed.stream_ids[k])

    def deactivate_index(self, k: int) -> None:
        """Mark stream index ``k`` as no longer carried."""
        self.active_mask[k] = False
        self.active_streams.discard(self.indexed.stream_ids[k])

    def activate(self, stream_id: str) -> None:
        """String-id form of :meth:`activate_index`."""
        self.activate_index(self.indexed.stream_index[stream_id])

    def deactivate(self, stream_id: str) -> None:
        """String-id form of :meth:`deactivate_index`."""
        self.deactivate_index(self.indexed.stream_index[stream_id])

    # -- feasibility probes --------------------------------------------

    def fits_server_index(self, k: int, margin: float = 1.0) -> bool:
        """Would carrying stream index ``k`` keep all server budgets
        within ``margin`` of their caps?"""
        used = self.server_used.tolist()
        costs = self._stream_costs[k]
        for i, budget in self._finite_budgets:
            if used[i] + costs[i] > margin * budget * (1 + FEASIBILITY_RTOL):
                return False
        return True

    def fits_server(self, stream_id: str, margin: float = 1.0) -> bool:
        """Would carrying the stream keep all server budgets within
        ``margin`` of their caps?"""
        return self.fits_server_index(self.indexed.stream_index[stream_id], margin)

    def fits_pairs(self, users: np.ndarray, pairs: np.ndarray, margin: float = 1.0) -> np.ndarray:
        """Vectorized per-user capacity check for stream-major pairs.

        ``users[i]`` with pair row ``pairs[i]`` (an index into the
        ``s_*`` arrays) fits iff delivering that pair keeps every finite
        capacity within ``margin`` of its cap.  Returns a boolean mask.
        """
        idx = self.indexed
        ok = np.ones(users.shape[0], dtype=bool)
        for j in range(idx.mc):
            cap = idx.capacities[users, j]
            finite = np.isfinite(cap)
            with np.errstate(invalid="ignore"):
                over = self.user_used_array[users, j] + idx.s_loads[pairs, j] > (
                    margin * cap * (1 + FEASIBILITY_RTOL)
                )
            ok &= ~(finite & over)
        return ok

    def row_fit_mask(self, k: int, margin: float = 1.0) -> np.ndarray:
        """Capacity-fit mask over stream ``k``'s interested-user row."""
        idx = self.indexed
        lo, hi = int(idx.s_indptr[k]), int(idx.s_indptr[k + 1])
        return self.fits_pairs(idx.s_user[lo:hi], np.arange(lo, hi, dtype=np.int64), margin)

    def fits_user(self, user_id: str, stream_id: str, margin: float = 1.0) -> bool:
        """Would delivering the stream keep this user's capacities within
        ``margin`` of their caps?"""
        idx = self.indexed
        u = idx.user_index[user_id]
        k = idx.stream_index[stream_id]
        lo, hi = int(idx.u_indptr[u]), int(idx.u_indptr[u + 1])
        position = np.flatnonzero(idx.u_stream[lo:hi] == k)
        if position.size:
            loads = idx.u_loads[lo + int(position[0])]
        else:
            loads = np.zeros(idx.mc)  # zero-utility pair: loads are zero
        for j in range(idx.mc):
            cap = idx.capacities[u, j]
            if math.isinf(cap):
                continue
            if self.user_used_array[u, j] + loads[j] > margin * cap * (1 + FEASIBILITY_RTOL):
                return False
        return True

    def fits_server_many(self, ks: np.ndarray, margin: float = 1.0) -> np.ndarray:
        """Vectorized :meth:`fits_server_index` over a stream-index batch.

        Same per-measure float expression as the scalar probe (scalar
        used + cost column, compared against the scalar margin product),
        so the mask equals one scalar call per stream exactly.
        """
        idx = self.indexed
        ok = np.ones(ks.shape[0], dtype=bool)
        for i in range(idx.m):
            budget = idx.budgets[i]
            if math.isinf(budget):
                continue
            ok &= ~(
                self.server_used[i] + idx.stream_costs[ks, i]
                > margin * budget * (1 + FEASIBILITY_RTOL)
            )
        return ok

    def interested_row(self, k: int) -> np.ndarray:
        """Stream ``k``'s interested users (ascending user indices)."""
        idx = self.indexed
        return idx.s_user[idx.s_indptr[k]:idx.s_indptr[k + 1]]

    def interested_users(self, stream_id: str) -> "list[str]":
        """Interested users of a stream as string ids (instance order)."""
        # Stream-major CSR row lookup (users in instance order) instead
        # of a full population scan per offer.
        idx = self.indexed
        k = idx.stream_index.get(stream_id)
        if k is None:
            return []
        return idx.user_ids_of(self.interested_row(k))


class AdmissionPolicy(ABC):
    """Interface the simulator drives.

    The string-id methods (:meth:`bind`, :meth:`on_offer`,
    :meth:`on_release`) are the original API and remain the only thing a
    custom policy must implement.  The ``*_indexed`` variants are what
    the array-native engine calls; their default implementations adapt
    through the string API (so any existing policy runs under either
    engine), and the built-in policies override them with vectorized
    answers that never touch string ids.
    """

    name = "policy"

    #: True for policies whose answers are pure functions of the current
    #: resource state — no RNG, no per-offer memory, no observable call
    #: order.  The batched replay engine exploits this: between state
    #: changes a rejected stream's repeat arrivals provably get the same
    #: (empty) answer, so one :meth:`on_offer_batch` call answers whole
    #: rejection runs.  Policies that leave it False (the default; right
    #: for stateful or randomized policies) are driven one
    #: :meth:`on_offer_indexed` call per decision under every array
    #: engine.  A wrong True breaks cross-engine report parity.
    batch_order_free = False

    def bind(self, instance: MMDInstance) -> None:
        """Called once before the run with the full instance (catalog
        known, arrival order unknown — the §5 online model)."""

    def bind_indexed(self, idx: IndexedInstance) -> None:
        """Indexed-engine bind; the default lifts and calls :meth:`bind`."""
        self.bind(idx.lift())

    @abstractmethod
    def on_offer(self, stream_id: str, view: ResourceView) -> "list[str]":
        """Decide the receiver set for an arriving stream session
        (empty = reject)."""

    def on_offer_indexed(self, k: int, view: ResourceView) -> np.ndarray:
        """Receiver *user indices* for stream index ``k``.

        Default adapter: round-trip through :meth:`on_offer` with string
        ids, preserving third-party policies under the indexed engine.
        """
        idx = view.indexed
        receivers = self.on_offer(idx.stream_ids[k], view)
        if not receivers:
            return EMPTY_USERS
        user_index = idx.user_index
        return np.array([user_index[uid] for uid in receivers], dtype=np.int64)

    def on_offer_batch(
        self, ks: np.ndarray, view: ResourceView
    ) -> "list[np.ndarray]":
        """Answer a group of arrivals at once (order-free policies only).

        ``engine="batched"`` calls this only for policies declaring
        :attr:`batch_order_free`, with distinct, inactive streams that
        no departure separates, and uses the answers as a decision map
        until the first admit changes the state.  Returns receiver
        arrays for a **prefix** of ``ks`` (at least one entry when
        ``ks`` is nonempty); arrivals past the prefix are answered by a
        later call.

        The default implementation answers sequentially through
        :meth:`on_offer_indexed` and stops after its first nonempty
        answer, so a custom order-free policy that implements only the
        per-offer API works unchanged.  The stateless built-ins
        override this with fully vectorized group answers.
        """
        answers: "list[np.ndarray]" = []
        for k in ks:
            answer = self.on_offer_indexed(int(k), view)
            answers.append(answer)
            if len(answer):
                break
        return answers

    def on_release(self, stream_id: str) -> None:
        """Called when an admitted session departs."""

    def on_release_indexed(self, k: int, view: ResourceView) -> None:
        """Index form of :meth:`on_release` (default: string adapter)."""
        self.on_release(view.indexed.stream_ids[k])

    def rejection_token(self) -> object:
        """A value that vouches for this policy's past rejections.

        The contract: while this value and the simulator's resource
        state are both unchanged, every rejection the policy gave still
        holds — offered the same stream again, it would answer empty
        again, and answering would change nothing the policy keeps
        apart from what :meth:`count_rejections` records.  The resource
        state changes only at an admit and at the departure of an
        admitted session.  The ``indexed`` engine relies on this to
        *park* a rejected stream: it skips the stream's repeat arrivals
        until the state or the token moves, and reports them through
        :meth:`count_rejections` instead of :meth:`on_offer_indexed`.

        The default, ``None``, means "never park": the policy sees one
        :meth:`on_offer_indexed` call per decision, as under ``dict``.
        That is right for any policy whose answers depend on something
        else — an RNG, a call count, the arrival order.
        """
        return None

    def count_rejections(self, k: int, n: int) -> None:
        """Take ``n`` repeat offers of stream index ``k`` in bulk.

        Called by the ``indexed`` engine for arrivals of a parked stream
        (see :meth:`rejection_token`), each of which the policy would
        have rejected; it may come after the state change that ends the
        park.  The default does nothing.
        """


def _batch_row_answers(
    view: ResourceView, ks: np.ndarray, server_ok: np.ndarray, margin: float
) -> "list[np.ndarray]":
    """Vectorized ``interested_row[row_fit_mask]`` answers for a group.

    One concatenated :meth:`ResourceView.fits_pairs` call over every
    server-fitting stream's interest row replaces the per-stream calls;
    the per-measure checks are elementwise, so each split answer equals
    the scalar path's floats exactly.
    """
    idx = view.indexed
    answers: "list[np.ndarray]" = [EMPTY_USERS] * len(ks)
    fitting = np.flatnonzero(server_ok)
    if fitting.size == 0:
        return answers
    starts = idx.s_indptr[ks[fitting]]
    counts = idx.s_indptr[ks[fitting] + 1] - starts
    nz = counts > 0
    if not nz.any():
        return answers
    pairs = _concat_ranges(starts[nz], counts[nz])
    users = idx.s_user[pairs]
    ok = view.fits_pairs(users, pairs, margin)
    boundaries = np.cumsum(counts[nz])[:-1]
    for position, users_k, ok_k in zip(
        fitting[nz], np.split(users, boundaries), np.split(ok, boundaries)
    ):
        answers[int(position)] = users_k[ok_k]
    return answers


class ThresholdPolicy(AdmissionPolicy):
    """The paper-motivating baseline: admit within safety margins,
    deliver to every interested user whose margins fit; first come,
    first served, utility-blind."""

    batch_order_free = True  # pure function of the resource state

    def __init__(self, margin: float = 1.0) -> None:
        self.margin = margin
        self.name = f"threshold(m={margin:g})"

    def bind_indexed(self, idx: IndexedInstance) -> None:
        """No state to build: the threshold rule is stateless."""

    def rejection_token(self) -> int:
        """A constant: the answers are a function of the resource state."""
        return 0

    def on_offer(self, stream_id: str, view: ResourceView) -> "list[str]":
        """Every interested user whose capacities fit within the margin,
        or nobody when the server budgets do not."""
        if not view.fits_server(stream_id, self.margin):
            return []
        receivers = [
            uid
            for uid in view.interested_users(stream_id)
            if view.fits_user(uid, stream_id, self.margin)
        ]
        return receivers

    def on_offer_indexed(self, k: int, view: ResourceView) -> np.ndarray:
        """Index form of :meth:`on_offer`: the fitting users of ``k``'s
        interest row, or an empty answer."""
        if not view.fits_server_index(k, self.margin):
            return EMPTY_USERS
        return view.interested_row(k)[view.row_fit_mask(k, self.margin)]

    def on_offer_batch(
        self, ks: np.ndarray, view: ResourceView
    ) -> "list[np.ndarray]":
        """The whole group in one vectorized pass (a stateless rule)."""
        return _batch_row_answers(
            view, ks, view.fits_server_many(ks, self.margin), self.margin
        )


class AllocatePolicy(AdmissionPolicy):
    """Algorithm *Allocate* (§5) as a live admission policy.

    Keeps its own :class:`OnlineAllocator`; departures call
    :meth:`OnlineAllocator.release`, the paper-footnote extension for
    streams of finite duration.
    """

    def __init__(self, mu: "float | None" = None) -> None:
        self._mu = mu
        self._allocator: "OnlineAllocator | None" = None
        self.name = "allocate"

    def bind(self, instance: MMDInstance) -> None:
        """Lower the instance and bind the allocator to its arrays."""
        self.bind_indexed(index_instance(instance))

    def bind_indexed(self, idx: IndexedInstance) -> None:
        """Build a fresh guarded allocator over the arrays (an
        array-native instance is not lifted to the string model)."""
        self._allocator = OnlineAllocator(idx, mu=self._mu, enforce_budgets=True)
        self.name = f"allocate(mu={self._allocator.mu:.3g})"

    def rejection_token(self) -> int:
        """The allocator's state epoch (:attr:`OnlineAllocator.epoch`).

        It moves on every commit, release and resync, including a commit
        the simulator's guard then voids, so it covers every input of a
        decision that the simulator's state does not.
        """
        return self._allocator.epoch

    def count_rejections(self, k: int, n: int) -> None:
        """Count ``n`` skipped re-offers as the allocator's memo would
        have: ``rejected_count`` grows by ``n``; the rejected list and
        the memo already hold ``k`` at this epoch."""
        self._allocator.rejected_count += n

    def on_offer(self, stream_id: str, view: ResourceView) -> "list[str]":
        """The allocator's receivers for the stream (string ids)."""
        assert self._allocator is not None, "bind() was not called"
        return self._allocator.offer(stream_id)

    def on_offer_indexed(self, k: int, view: ResourceView) -> np.ndarray:
        """The allocator's receivers for stream index ``k`` (user indices)."""
        assert self._allocator is not None, "bind() was not called"
        return self._allocator.offer_indexed(k)

    def on_release(self, stream_id: str) -> None:
        """Return the departed stream's load to the allocator."""
        assert self._allocator is not None
        self._allocator.release(stream_id)

    def on_release_indexed(self, k: int, view: ResourceView) -> None:
        """Index form of :meth:`on_release`."""
        assert self._allocator is not None
        self._allocator.release_indexed(k)


class DensityPolicy(AdmissionPolicy):
    """Admit streams whose static density ``w(S)/c(S)`` is in the top
    ``quantile`` of the catalog and that currently fit; utility-aware
    but state-blind (no exponential costs, no residual utilities)."""

    batch_order_free = True  # static densities + current resource state

    def __init__(self, quantile: float = 0.5) -> None:
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0,1], got {quantile}")
        self.quantile = quantile
        self._cutoff = 0.0
        self.name = f"density(q={quantile:g})"

    def bind(self, instance: MMDInstance) -> None:
        """Lower the instance and compute the catalog's densities."""
        self.bind_indexed(index_instance(instance))

    def bind_indexed(self, idx: IndexedInstance) -> None:
        """Compute every stream's density and the quantile cutoff."""
        # Vectorized over the indexed lowering: normalized catalog costs
        # (finite positive budgets only — zero budgets are vacuous) and
        # per-stream utilities via one segmented sum, the same floats as
        # the per-stream dict loops.
        cost = idx.normalized_costs()
        totals = idx.total_utilities()
        densities = np.divide(
            totals, cost, out=np.full(idx.num_streams, math.inf), where=cost > 0
        )
        if densities.size:
            self._cutoff = float(np.quantile(densities, self.quantile))
        self._idx = idx
        self._densities = densities

    def rejection_token(self) -> int:
        """A constant: densities are static, the rest is resource state."""
        return 0

    def on_offer(self, stream_id: str, view: ResourceView) -> "list[str]":
        """Every fitting interested user of a dense enough stream."""
        density = float(self._densities[self._idx.stream_index[stream_id]])
        if density < self._cutoff:
            return []
        if not view.fits_server(stream_id):
            return []
        return [
            uid
            for uid in view.interested_users(stream_id)
            if view.fits_user(uid, stream_id)
        ]

    def on_offer_indexed(self, k: int, view: ResourceView) -> np.ndarray:
        """Index form of :meth:`on_offer`."""
        if float(self._densities[k]) < self._cutoff:
            return EMPTY_USERS
        if not view.fits_server_index(k):
            return EMPTY_USERS
        return view.interested_row(k)[view.row_fit_mask(k)]

    def on_offer_batch(
        self, ks: np.ndarray, view: ResourceView
    ) -> "list[np.ndarray]":
        """The whole group in one vectorized pass (a stateless rule)."""
        # ~(d < cutoff), not >=: keeps the scalar path's exact NaN
        # behaviour should a density ever be non-finite.
        ok = ~(self._densities[ks] < self._cutoff)
        ok &= view.fits_server_many(ks)
        return _batch_row_answers(view, ks, ok, 1.0)


class RandomPolicy(AdmissionPolicy):
    """Admit with probability ``p`` (then fit-check); the noise floor."""

    def __init__(self, p: float = 0.5, seed: "int | None" = 0) -> None:
        self.p = p
        self._rng = ensure_rng(seed)
        self.name = f"random(p={p:g})"

    def bind_indexed(self, idx: IndexedInstance) -> None:
        """Stateless apart from the RNG: nothing to build."""

    def on_offer(self, stream_id: str, view: ResourceView) -> "list[str]":
        """With probability ``p``, every fitting interested user."""
        if self._rng.random() >= self.p:
            return []
        if not view.fits_server(stream_id):
            return []
        return [
            uid
            for uid in view.interested_users(stream_id)
            if view.fits_user(uid, stream_id)
        ]

    def on_offer_indexed(self, k: int, view: ResourceView) -> np.ndarray:
        """Index form of :meth:`on_offer`."""
        # Same single RNG draw per offer as the string path, so both
        # engines consume the random stream identically.
        if self._rng.random() >= self.p:
            return EMPTY_USERS
        if not view.fits_server_index(k):
            return EMPTY_USERS
        return view.interested_row(k)[view.row_fit_mask(k)]
