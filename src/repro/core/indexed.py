"""Compiled integer-indexed instance layer: vectorized hot paths.

The object model of :mod:`repro.core.instance` is string-keyed and
dict-of-dicts — ideal for expressing the paper's definitions, but every
inner loop of Algorithm Greedy, classify-and-select, the §4.1 reduction
and Algorithm Allocate pays Python dict/attribute overhead per
(user, stream) pair.  This module *lowers* an :class:`MMDInstance` into
an :class:`IndexedInstance`: contiguous integer id tables plus
numpy-backed CSR-style sparse matrices

- ``u_*``  — the user-major pair arrays (rows = users, entries in each
  user's utilities-dict insertion order);
- ``s_*``  — the stream-major pair arrays (rows = streams, entries in
  user order), obtained by a stable sort of the user-major layout;

and dense cost/budget/cap vectors.  The kernels below run the paper's
algorithms directly on these arrays.

**Bit-exactness contract.**  Every kernel reproduces the dict
implementation's floating-point *accumulation order* exactly:
``np.add.at`` applies its updates sequentially in operand order, and the
pair arrays are laid out in the same order the dict code iterates
(streams scan their interested users in instance order; users scan their
utilities in dict insertion order).  Consequently the ``engine="indexed"``
code paths return identical floats — identical utilities, identical
tie-breaks, identical traces — to ``engine="dict"``, which is what the
parity suite (``tests/test_indexed_parity.py``) asserts.

Lowering is cached on the instance (``MMDInstance`` objects are immutable
after construction), so repeated solver calls over the same instance pay
the O(nnz) build once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import ENGINE_SETTINGS, resolve_engine_setting
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance, Stream, User
from repro.exceptions import ValidationError
from repro.util.validation import check_nonnegative

#: Attribute under which the lowering is cached on the MMDInstance.
_CACHE_ATTR = "_indexed_cache"

_ENGINES = ENGINE_SETTINGS["solver"].choices


def resolve_engine(engine: "str | None" = None) -> str:
    """Resolve an engine name: explicit argument, else ``indexed``.

    Delegates to the shared :mod:`repro.config` resolver (kind
    ``"solver"``); kept as the historical front door.
    """
    return resolve_engine_setting("solver", engine)


@dataclass
class IndexedInstance:
    """Integer-indexed, numpy-backed view of an :class:`MMDInstance`.

    An ``IndexedInstance`` is usually obtained by *lowering* an existing
    :class:`MMDInstance` via :func:`index_instance`, but it can also be
    built **directly from arrays** (no dict detour) by the vectorized
    generators in :mod:`repro.instances.vectorized`; in that case
    ``instance`` starts out ``None`` and :meth:`lift` materializes the
    string-keyed object model on demand.

    Attributes
    ----------
    instance:
        The source instance (round-tripping back to string ids), or
        ``None`` for array-native instances that have not been lifted
        yet (see :meth:`lift`).
    name:
        Human-readable label, mirroring :attr:`MMDInstance.name`.
    stream_ids / user_ids:
        Index → id tables (``stream_ids[k]`` is the id of stream ``k``).
    stream_index / user_index:
        Id → index tables.
    stream_rank / user_rank:
        Rank of each id in *lexicographic* id order — the tie-break key
        the dict implementations use (``min`` over string ids).
    stream_costs:
        Dense ``(num_streams, m)`` cost matrix.
    budgets:
        ``(m,)`` budget caps (may contain ``inf``).
    utility_caps:
        ``(num_users,)`` utility caps ``W_u`` (may contain ``inf``).
    capacities:
        Dense ``(num_users, mc)`` capacity caps (may contain ``inf``).
    u_indptr / u_stream / u_w / u_loads:
        User-major CSR: pairs of user ``u`` live at
        ``u_indptr[u]:u_indptr[u+1]``; ``u_stream`` holds stream
        indices, ``u_w`` utilities, ``u_loads`` the ``(nnz, mc)`` load
        rows.  Entry order inside a row is the user's utilities-dict
        insertion order (the order the dict code iterates).
    u_pair_user:
        ``(nnz,)`` user index of each user-major pair.
    s_indptr / s_user / s_w / s_loads:
        Stream-major CSR (entries in user order — the order
        ``interested_users`` iterates).
    s_pair_stream:
        ``(nnz,)`` stream index of each stream-major pair.
    s_pair_key:
        ``(nnz,)`` combined key ``user * num_streams + stream`` of each
        stream-major pair (for fast membership tests).
    """

    instance: "MMDInstance | None"
    stream_ids: "list[str]"
    user_ids: "list[str]"
    stream_index: "dict[str, int]"
    user_index: "dict[str, int]"
    stream_rank: np.ndarray
    user_rank: np.ndarray
    stream_costs: np.ndarray
    budgets: np.ndarray
    utility_caps: np.ndarray
    capacities: np.ndarray
    u_indptr: np.ndarray
    u_stream: np.ndarray
    u_w: np.ndarray
    u_loads: np.ndarray
    u_pair_user: np.ndarray
    s_indptr: np.ndarray
    s_user: np.ndarray
    s_w: np.ndarray
    s_loads: np.ndarray
    s_pair_stream: np.ndarray
    s_pair_key: np.ndarray
    name: str = ""
    _derived: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_streams(self) -> int:
        """Number of streams in the catalog (``|S|``)."""
        return len(self.stream_ids)

    @property
    def num_users(self) -> int:
        """Number of users (``|U|``)."""
        return len(self.user_ids)

    @property
    def nnz(self) -> int:
        """Number of positive-utility (user, stream) pairs."""
        return int(self.u_w.shape[0])

    @property
    def m(self) -> int:
        """Number of server budget measures."""
        return int(self.budgets.shape[0])

    @property
    def mc(self) -> int:
        """Number of capacity measures per user."""
        return int(self.capacities.shape[1])

    # ------------------------------------------------------------------
    # Round-tripping
    # ------------------------------------------------------------------

    def lift(self) -> MMDInstance:
        """Materialize (and cache) the string-keyed :class:`MMDInstance`.

        For lowered instances this returns the original object.  For
        array-native instances (built by the vectorized generators) it
        constructs the dict model **once** from the CSR arrays — per-user
        utility/load dicts in user-major row order, so re-lowering the
        lifted instance reproduces these exact arrays (asserted by
        ``tests/test_vectorized.py``) — and attaches ``self`` as the
        lifted instance's cached lowering, so no solver ever re-lowers.
        """
        if self.instance is None:
            mc = self.mc
            streams = [
                Stream(sid, tuple(float(c) for c in self.stream_costs[k]))
                for k, sid in enumerate(self.stream_ids)
            ]
            users = []
            stream_ids = self.stream_ids
            for u, uid in enumerate(self.user_ids):
                lo, hi = int(self.u_indptr[u]), int(self.u_indptr[u + 1])
                row_sids = [stream_ids[int(k)] for k in self.u_stream[lo:hi]]
                utilities = {
                    sid: float(w) for sid, w in zip(row_sids, self.u_w[lo:hi])
                }
                loads = {
                    sid: tuple(float(x) for x in vec)
                    for sid, vec in zip(row_sids, self.u_loads[lo:hi])
                }
                users.append(
                    User(
                        user_id=uid,
                        utility_cap=float(self.utility_caps[u]),
                        capacities=tuple(float(k) for k in self.capacities[u, :mc]),
                        utilities=utilities,
                        loads=loads,
                    )
                )
            instance = MMDInstance(
                streams,
                users,
                tuple(float(b) for b in self.budgets),
                name=self.name,
            )
            setattr(instance, _CACHE_ATTR, self)
            self.instance = instance
        return self.instance

    def to_dict(self) -> dict:
        """Plain-dict form — :meth:`MMDInstance.to_dict` of the lift."""
        return self.lift().to_dict()

    def to_json(self) -> str:
        """JSON form — :meth:`MMDInstance.to_json` of the lift."""
        return self.lift().to_json()

    def __repr__(self) -> str:
        """Compact shape summary (mirrors :meth:`MMDInstance.__repr__`)."""
        return (
            f"IndexedInstance(name={self.name!r}, |S|={self.num_streams}, "
            f"|U|={self.num_users}, nnz={self.nnz}, m={self.m}, mc={self.mc})"
        )

    def stream_ids_of(self, indices) -> "list[str]":
        """Map stream indices back to string ids."""
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()  # Python ints, not numpy scalars
        table = self.stream_ids
        return [table[int(k)] for k in indices]

    def user_ids_of(self, indices) -> "list[str]":
        """Map user indices back to string ids."""
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()  # Python ints, not numpy scalars
        table = self.user_ids
        return [table[int(u)] for u in indices]

    # ------------------------------------------------------------------
    # Cached derived arrays
    # ------------------------------------------------------------------

    def total_utilities(self) -> np.ndarray:
        """``w(S)`` per stream — vectorized :meth:`MMDInstance.total_utility`.

        Accumulated per stream in user order, matching the dict loop.
        """
        cached = self._derived.get("total_utilities")
        if cached is None:
            cached = np.zeros(self.num_streams)
            np.add.at(cached, self.s_pair_stream, self.s_w)
            self._derived["total_utilities"] = cached
        return cached

    def min_support_utilities(self) -> np.ndarray:
        """``min_{u ∈ supp(S)} w_u(S)`` per stream (``inf`` for empty support)."""
        cached = self._derived.get("min_support_utilities")
        if cached is None:
            cached = np.full(self.num_streams, math.inf)
            np.minimum.at(cached, self.s_pair_stream, self.s_w)
            self._derived["min_support_utilities"] = cached
        return cached

    def normalized_costs(self) -> np.ndarray:
        """``Σ_i c_i(S)/B_i`` over finite positive budgets, per stream.

        Accumulated measure-by-measure in ascending order, matching the
        dict code's ``sum`` over the finite-measure list.
        """
        cached = self._derived.get("normalized_costs")
        if cached is None:
            cached = np.zeros(self.num_streams)
            for i in range(self.m):
                b = self.budgets[i]
                if not math.isinf(b) and b > 0:
                    cached += self.stream_costs[:, i] / b
            self._derived["normalized_costs"] = cached
        return cached


def _rank_of(ids: "list[str]") -> np.ndarray:
    """rank[i] = position of ids[i] in sorted(ids)."""
    rank = np.empty(len(ids), dtype=np.int64)
    for pos, i in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
        rank[i] = pos
    return rank


def _check_values(
    name: str, values: np.ndarray, *, allow_inf: bool = False, positive: bool = False
) -> None:
    """Refuse what the dict model refuses, naming the first bad entry.

    NaN and negative entries always fail, ``+inf`` unless ``allow_inf``,
    and zero when ``positive`` (utilities are sparse).  One vectorized
    pass over ``values``.
    """
    ok = values > 0 if positive else values >= 0
    if not allow_inf:
        ok &= values < np.inf
    if ok.all():
        return
    at = np.unravel_index(int(np.argmin(ok)), ok.shape)
    label = f"{name}[{', '.join(str(int(i)) for i in at)}]"
    value = check_nonnegative(label, values[at], allow_inf=allow_inf)
    raise ValidationError(f"{label} must be positive, got {value}")


def build_indexed(
    *,
    stream_ids: "list[str]",
    user_ids: "list[str]",
    stream_costs: np.ndarray,
    budgets: np.ndarray,
    utility_caps: np.ndarray,
    capacities: np.ndarray,
    u_indptr: np.ndarray,
    u_stream: np.ndarray,
    u_w: np.ndarray,
    u_loads: np.ndarray,
    instance: "MMDInstance | None" = None,
    name: str = "",
) -> IndexedInstance:
    """Assemble an :class:`IndexedInstance` from user-major arrays.

    The caller supplies the id tables, the dense cost/budget/cap arrays
    and the user-major CSR pair arrays (rows in each user's intended
    dict-insertion order); this helper derives everything else — the
    stream-major layout via a stable sort (per stream, users stay in
    instance order), the lexicographic rank tables, the id→index maps
    and the combined pair keys.  Both :func:`index_instance` (lowering a
    dict instance) and the vectorized generators (array-native
    construction) funnel through here, so the derived layout is
    identical no matter which side produced the arrays.

    Values are checked as :class:`MMDInstance` checks them: costs, loads
    and utilities finite and nonnegative (utilities positive), budgets,
    utility caps and capacities nonnegative or ``+inf``; a NaN or a
    negative entry raises :class:`ValidationError`.
    """
    _check_values("stream_costs", stream_costs)
    _check_values("budgets", budgets, allow_inf=True)
    _check_values("utility_caps", utility_caps, allow_inf=True)
    _check_values("capacities", capacities, allow_inf=True)
    _check_values("u_w", u_w, positive=True)
    _check_values("u_loads", u_loads)
    num_streams, num_users = len(stream_ids), len(user_ids)
    degrees = np.diff(u_indptr)
    u_pair_user = np.repeat(np.arange(num_users, dtype=np.int64), degrees)

    # Stream-major layout via a stable sort: per stream, users stay in
    # instance order — exactly the order interested-user lists are built.
    perm = np.argsort(u_stream, kind="stable")
    s_pair_stream = u_stream[perm]
    s_user = u_pair_user[perm]
    s_w = u_w[perm]
    s_loads = u_loads[perm, :]
    s_indptr = np.zeros(num_streams + 1, dtype=np.int64)
    np.cumsum(np.bincount(s_pair_stream, minlength=num_streams), out=s_indptr[1:])
    s_pair_key = s_user * np.int64(max(num_streams, 1)) + s_pair_stream

    return IndexedInstance(
        instance=instance,
        stream_ids=stream_ids,
        user_ids=user_ids,
        stream_index={sid: k for k, sid in enumerate(stream_ids)},
        user_index={uid: u for u, uid in enumerate(user_ids)},
        stream_rank=_rank_of(stream_ids),
        user_rank=_rank_of(user_ids),
        stream_costs=stream_costs,
        budgets=budgets,
        utility_caps=utility_caps,
        capacities=capacities,
        u_indptr=u_indptr,
        u_stream=u_stream,
        u_w=u_w,
        u_loads=u_loads,
        u_pair_user=u_pair_user,
        s_indptr=s_indptr,
        s_user=s_user,
        s_w=s_w,
        s_loads=s_loads,
        s_pair_stream=s_pair_stream,
        s_pair_key=s_pair_key,
        name=name,
    )


def index_instance(instance: MMDInstance) -> IndexedInstance:
    """Lower an instance to its indexed form (cached on the instance)."""
    cached = getattr(instance, _CACHE_ATTR, None)
    if cached is not None:
        return cached

    stream_ids = [s.stream_id for s in instance.streams]
    user_ids = [u.user_id for u in instance.users]
    stream_index = {sid: k for k, sid in enumerate(stream_ids)}
    num_streams, num_users = len(stream_ids), len(user_ids)
    m, mc = instance.m, instance.mc

    stream_costs = np.array(
        [s.costs for s in instance.streams], dtype=np.float64
    ).reshape(num_streams, m)
    budgets = np.array(instance.budgets, dtype=np.float64)
    utility_caps = np.array([u.utility_cap for u in instance.users], dtype=np.float64)
    capacities = np.array(
        [u.capacities for u in instance.users], dtype=np.float64
    ).reshape(num_users, mc)

    # User-major pair arrays, rows in utilities-dict insertion order.
    degrees = np.array([len(u.utilities) for u in instance.users], dtype=np.int64)
    nnz = int(degrees.sum())
    u_indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(degrees, out=u_indptr[1:])
    u_stream = np.empty(nnz, dtype=np.int64)
    u_w = np.empty(nnz, dtype=np.float64)
    u_loads = np.zeros((nnz, mc), dtype=np.float64)
    pos = 0
    for user in instance.users:
        loads = user.loads
        for sid, w in user.utilities.items():
            u_stream[pos] = stream_index[sid]
            u_w[pos] = w
            vec = loads.get(sid)
            if vec is not None:
                u_loads[pos, :] = vec
            pos += 1

    idx = build_indexed(
        stream_ids=stream_ids,
        user_ids=user_ids,
        stream_costs=stream_costs,
        budgets=budgets,
        utility_caps=utility_caps,
        capacities=capacities,
        u_indptr=u_indptr,
        u_stream=u_stream,
        u_w=u_w,
        u_loads=u_loads,
        instance=instance,
        name=instance.name,
    )
    try:
        setattr(instance, _CACHE_ATTR, idx)
    except AttributeError:  # pragma: no cover - exotic instance subclass
        pass
    return idx


def ensure_instance(obj: "MMDInstance | IndexedInstance") -> MMDInstance:
    """Coerce to the string-keyed model, lifting an :class:`IndexedInstance`.

    The public solvers accept either representation; array-native
    instances coming off the vectorized generators are lifted lazily
    here (once — the lift is cached both ways).
    """
    if isinstance(obj, IndexedInstance):
        return obj.lift()
    return obj


def ensure_indexed(obj: "MMDInstance | IndexedInstance") -> IndexedInstance:
    """Coerce to the array-native form, lowering an :class:`MMDInstance`."""
    if isinstance(obj, IndexedInstance):
        return obj
    return index_instance(obj)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + counts[i])``.

    All counts must be positive (callers guarantee this: a receiver's
    user-major row contains at least the pair that made it a receiver).
    """
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if len(starts) > 1:
        boundaries = np.cumsum(counts)[:-1]
        out[boundaries] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out)


# ----------------------------------------------------------------------
# Algorithm Greedy (§2.1) — vectorized residual maintenance over CSR rows
# ----------------------------------------------------------------------


def greedy_kernel(
    idx: IndexedInstance,
    cap: float,
    initial: "list[int]",
    rtol: float = FEASIBILITY_RTOL,
) -> "tuple[list[tuple[int, np.ndarray]], list[int], float]":
    """Run Algorithm Greedy on the indexed arrays.

    Returns ``(order, rejected, total_cost)`` where ``order`` is a list
    of ``(stream_index, receiver_user_indices)`` in assignment order and
    ``rejected`` the stream indices whose residual was positive but whose
    cost exceeded the remaining budget.  Bit-identical to the dict
    implementation (see module docstring).
    """
    num_streams = idx.num_streams
    costs0 = idx.stream_costs[:, 0] if idx.m else np.zeros(num_streams)
    headroom = idx.utility_caps.copy()

    # wbar[S] = Σ_u min(w_u(S), max(headroom_u, 0)) accumulated per
    # stream in interested-user order (np.add.at applies sequentially).
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
    # Selection key per stream: cost effectiveness w̄(S)/c(S) (free
    # streams: inf if w̄ > 0 else 0), -inf once S is no candidate.  A
    # rejection changes no w̄, so keys are recomputed only after a pick
    # that moved some w̄.
    positive_cost = costs0 > 0.0
    free = None if positive_cost.all() else ~positive_cost
    keys = np.empty(num_streams)

    def rekey() -> None:
        np.divide(wbar, costs0, out=keys, where=positive_cost)
        if free is not None:
            keys[free] = np.where(wbar[free] > 0.0, math.inf, 0.0)
        keys[~candidates] = -math.inf

    def assign(k: int) -> np.ndarray:
        """Deliver stream ``k`` to every positive-headroom user; update
        residuals in the same sequence the dict code does."""
        lo, hi = int(idx.s_indptr[k]), int(idx.s_indptr[k + 1])
        row_users = idx.s_user[lo:hi]
        row_w = idx.s_w[lo:hi]
        old_r = headroom[row_users]
        receiving = old_r > 0.0
        receivers = row_users[receiving]
        if receivers.size == 0:
            return receivers
        new_r = old_r[receiving] - row_w[receiving]
        headroom[receivers] = new_r
        old_clip = old_r[receiving]  # == max(old_r, 0) since old_r > 0
        new_clip = np.maximum(new_r, 0.0)
        changed = new_clip != old_clip
        if np.any(changed):
            users = receivers[changed]
            starts = idx.u_indptr[users]
            counts = idx.u_indptr[users + 1] - starts
            flat = _concat_ranges(starts, counts)
            w2 = idx.u_w[flat]
            targets = idx.u_stream[flat]
            nc = np.repeat(new_clip[changed], counts)
            oc = np.repeat(old_clip[changed], counts)
            # Deltas land receiver-by-receiver, row order inside each —
            # the dict loop's exact accumulation sequence.  Non-candidate
            # targets (k itself among them) also get the delta; their
            # wbar entries are dead and never read.
            np.add.at(wbar, targets, np.minimum(w2, nc) - np.minimum(w2, oc))
            rekey()
        return receivers

    for k in initial:
        candidates[k] = False
        receivers = assign(k)
        order.append((k, receivers))
        total_cost += float(costs0[k])
    if total_cost > cap * (1 + rtol):
        raise ValidationError("initial streams already exceed the budget")

    rekey()
    # Each pass drops one candidate, or stops.
    for _ in range(int(np.count_nonzero(candidates))):
        # argmax of (effectiveness, wbar, -lexicographic rank) — the dict
        # code's min over (-eff, -wbar, stream_id).
        k = int(keys.argmax())
        tied = keys == keys[k]
        if np.count_nonzero(tied) > 1:
            tied_wbar = np.where(tied, wbar, -math.inf)
            tied &= tied_wbar == tied_wbar.max()
            k = int(np.where(tied, idx.stream_rank, num_streams + 1).argmin())
        if wbar[k] <= 0.0:
            break  # every remaining stream would be assigned to nobody
        candidates[k] = False
        keys[k] = -math.inf
        cost = float(costs0[k])
        if total_cost + cost <= cap * (1 + rtol):
            receivers = assign(k)
            order.append((k, receivers))
            total_cost += cost
        else:
            rejected.append(k)
    return order, rejected, total_cost


# ----------------------------------------------------------------------
# Best single stream (A_max of §2.2)
# ----------------------------------------------------------------------


def best_single_stream_kernel(
    idx: IndexedInstance, lexicographic_ties: bool
) -> "tuple[int, float]":
    """``argmax_S Σ_u min(w_u(S), W_u)`` with the dict tie-break.

    ``lexicographic_ties=True`` resolves equal values to the smallest
    stream id (:func:`repro.core.greedy.best_single_stream_assignment`,
    whose dict loop accepts an equal value only when the id is
    smaller); ``False`` uses ``values.argmax()``, which keeps the
    *first occurrence* — the first stream in instance order, matching
    :func:`repro.core.solver.best_single_stream_mmd`'s dict loop whose
    strictly-greater test never replaces an earlier tied stream.  The
    two rules genuinely differ whenever instance order is not id order
    (see ``test_best_single_stream_tie_breaks``).  Returns ``(-1,
    0.0)`` for an empty catalog.
    """
    num_streams = idx.num_streams
    if num_streams == 0:
        return -1, 0.0
    values = np.zeros(num_streams)
    np.add.at(
        values,
        idx.s_pair_stream,
        np.minimum(idx.s_w, idx.utility_caps[idx.s_user]),
    )
    best_value = values.max()
    if lexicographic_ties:
        ranks = np.where(values == best_value, idx.stream_rank, num_streams + 1)
        return int(ranks.argmin()), float(best_value)
    return int(values.argmax()), float(best_value)


# ----------------------------------------------------------------------
# Residual-density fill (solver.greedy_fill) — vectorized rounds
# ----------------------------------------------------------------------


def fill_kernel(
    idx: IndexedInstance,
    server_used: np.ndarray,
    user_used: np.ndarray,
    user_raw: np.ndarray,
    assigned_pairs: np.ndarray,
    in_range: np.ndarray,
    rtol: float = 1e-9,
) -> "list[tuple[int, np.ndarray]]":
    """One full run of the monotone post-augmentation pass.

    The state arrays (server usage ``(m,)``, per-user usage ``(U, mc)``,
    raw per-user utility ``(U,)``, stream-major assigned-pair mask and
    in-range stream mask) are mutated in place; the return value lists
    ``(stream_index, receiver_user_indices)`` additions in commit order.
    """
    num_streams, mc = idx.num_streams, idx.mc
    budgets = idx.budgets
    costs = idx.stream_costs
    norm_cost = idx.normalized_costs()
    finite_budget = [i for i in range(idx.m) if not math.isinf(budgets[i])]
    pair_user = idx.s_user
    additions: "list[tuple[int, np.ndarray]]" = []
    if num_streams == 0:
        return additions

    density = np.empty(num_streams)
    while True:
        headroom = np.maximum(idx.utility_caps - user_raw, 0.0)
        marginal = np.minimum(idx.s_w, headroom[pair_user])
        marginal[assigned_pairs] = 0.0
        fits = np.ones(idx.nnz, dtype=bool)
        for j in range(mc):
            pair_cap = idx.capacities[pair_user, j]
            finite = np.isfinite(pair_cap)
            fits &= ~finite | (
                user_used[pair_user, j] + idx.s_loads[:, j] <= pair_cap * (1 + rtol)
            )
        marginal[~fits] = 0.0
        gain = np.zeros(num_streams)
        np.add.at(gain, idx.s_pair_stream, marginal)

        fits_server = np.ones(num_streams, dtype=bool)
        for i in finite_budget:
            fits_server &= server_used[i] + costs[:, i] <= budgets[i] * (1 + rtol)
        extra = np.where(in_range, 0.0, norm_cost)
        free = extra == 0.0
        density.fill(math.inf)
        np.divide(gain, extra, out=density, where=~free)
        eligible = (gain > 0.0) & (in_range | fits_server)
        density[~eligible] = -math.inf
        k = int(density.argmax())
        if density[k] == -math.inf:
            break

        lo, hi = int(idx.s_indptr[k]), int(idx.s_indptr[k + 1])
        row_marginal = marginal[lo:hi]
        receiving = row_marginal > 0.0
        receiver_pairs = np.arange(lo, hi, dtype=np.int64)[receiving]
        receivers = pair_user[receiver_pairs]
        if not in_range[k]:
            in_range[k] = True
            server_used += costs[k, :]
        user_used[receivers, :] += idx.s_loads[receiver_pairs, :]
        user_raw[receivers] += idx.s_w[receiver_pairs]
        assigned_pairs[receiver_pairs] = True
        additions.append((k, receivers))
    return additions


def assigned_pair_mask(idx: IndexedInstance, assigned: "dict[str, set[str]]") -> np.ndarray:
    """Stream-major boolean mask of pairs present in an assignment mapping."""
    keys = []
    base = np.int64(max(idx.num_streams, 1))
    for uid, streams in assigned.items():
        if not streams:
            continue
        u = idx.user_index[uid]
        for sid in streams:
            keys.append(u * base + idx.stream_index[sid])
    if not keys:
        return np.zeros(idx.nnz, dtype=bool)
    return np.isin(idx.s_pair_key, np.array(keys, dtype=np.int64))


# ----------------------------------------------------------------------
# Skew statistics (§3, §5) — vectorized over pair arrays
# ----------------------------------------------------------------------


def _ratio_extrema_per_user(idx: IndexedInstance, measure: int):
    """Per-user (count, min, max) of the finite cost-benefit ratios
    ``w_u(S)/k_u(S)`` over positive-load pairs on one measure."""
    num_users = idx.num_users
    load = idx.u_loads[:, measure]
    positive = load > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        ratio = idx.u_w[positive] / load[positive]
    finite = np.isfinite(ratio)
    users = idx.u_pair_user[positive][finite]
    ratio = ratio[finite]
    rmin = np.full(num_users, math.inf)
    rmax = np.full(num_users, -math.inf)
    np.minimum.at(rmin, users, ratio)
    np.maximum.at(rmax, users, ratio)
    counts = np.bincount(users, minlength=num_users)
    return counts, rmin, rmax


def local_skew_indexed(idx: IndexedInstance) -> float:
    """Vectorized :meth:`MMDInstance.local_skew` (identical arithmetic)."""
    skew = 1.0
    for j in range(idx.mc):
        counts, rmin, rmax = _ratio_extrema_per_user(idx, j)
        multi = counts >= 2
        if multi.any():
            skew = max(skew, float((rmax[multi] / rmin[multi]).max()))
    return skew


def is_unit_skew_indexed(idx: IndexedInstance, rtol: float = 1e-9) -> bool:
    """Vectorized :meth:`MMDInstance.is_unit_skew`."""
    for j in range(idx.mc):
        counts, rmin, rmax = _ratio_extrema_per_user(idx, j)
        present = counts >= 1
        if np.any(rmax[present] > rmin[present] * (1 + rtol)):
            return False
    return True


def has_free_pairs_indexed(idx: IndexedInstance) -> bool:
    """Vectorized :meth:`MMDInstance.has_free_pairs`."""
    num_users = idx.num_users
    for j in range(idx.mc):
        load = idx.u_loads[:, j]
        zero = np.bincount(idx.u_pair_user[load == 0.0], minlength=num_users) > 0
        positive = np.bincount(idx.u_pair_user[load > 0.0], minlength=num_users) > 0
        if np.any(zero & positive):
            return True
    return False


def global_skew_indexed(idx: IndexedInstance) -> float:
    """Vectorized :meth:`MMDInstance.global_skew` (eq. (1) of §5).

    All aggregations are per-measure maxima/minima of identical
    divisions, so the result matches the dict implementation exactly.
    """
    total_w = idx.total_utilities()
    min_w = idx.min_support_utilities()
    support = np.diff(idx.s_indptr) > 0
    gamma = 1.0

    def fold(best: np.ndarray, worst: np.ndarray) -> float:
        live = (best > 0.0) & np.isfinite(worst)
        if live.any():
            return float((best[live] / worst[live]).max())
        return 1.0

    for i in range(idx.m):
        cost = idx.stream_costs[:, i]
        mask = support & (cost > 0.0)
        if mask.any():
            with np.errstate(over="ignore"):
                best = float((total_w[mask] / cost[mask]).max())
                worst = float((min_w[mask] / cost[mask]).min())
            if best > 0.0 and not math.isinf(worst):
                gamma = max(gamma, best / worst)

    num_users = idx.num_users
    for j in range(idx.mc):
        load = idx.s_loads[:, j]
        mask = load > 0.0
        if not mask.any():
            continue
        users = idx.s_user[mask]
        streams = idx.s_pair_stream[mask]
        with np.errstate(over="ignore"):
            best_vals = total_w[streams] / load[mask]
            worst_vals = min_w[streams] / load[mask]
        best = np.zeros(num_users)
        worst = np.full(num_users, math.inf)
        np.maximum.at(best, users, best_vals)
        np.minimum.at(worst, users, worst_vals)
        gamma = max(gamma, fold(best, worst))
    return gamma


# ----------------------------------------------------------------------
# Classify-by-skew binning (§3) — vectorized ratio classes
# ----------------------------------------------------------------------


@dataclass
class SkewBins:
    """Per-pair class assignment for :func:`repro.core.skew.classify_by_skew`.

    Attributes (all user-major, aligned with ``idx.u_*``):

    - ``bins`` — class index per pair (0 = the free class);
    - ``scaled_load`` — the class utility ``k_u(S)·scale_u`` of non-free
      pairs (unused entries are 0);
    - ``scale`` — per-user normalization ``1/min ratio`` (NaN when the
      user has no finite positive-load ratio);
    - ``scaled_cap`` — per-user scaled capacity ``K_u·scale_u``.
    """

    bins: np.ndarray
    scaled_load: np.ndarray
    scale: np.ndarray
    scaled_cap: np.ndarray


def skew_bins(idx: IndexedInstance) -> SkewBins:
    """Vectorized §3 ratio classification (identical arithmetic to the
    scalar loop: same divisions, same ``log₂`` guard band)."""
    nnz, num_users = idx.nnz, idx.num_users
    has_capacity = idx.mc == 1
    load = idx.u_loads[:, 0] if has_capacity else np.zeros(nnz)
    positive = load > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(positive, idx.u_w / np.where(positive, load, 1.0), math.inf)
    finite = positive & np.isfinite(ratio)
    scale = np.full(num_users, math.nan)
    if finite.any():
        rmin = np.full(num_users, math.inf)
        np.minimum.at(rmin, idx.u_pair_user[finite], ratio[finite])
        scale = np.where(np.isfinite(rmin), rmin, math.nan)
    pair_scale = scale[idx.u_pair_user]
    free = (~positive) | (~np.isfinite(ratio)) | np.isnan(pair_scale)

    bins = np.zeros(nnz, dtype=np.int64)
    busy = ~free
    if busy.any():
        with np.errstate(over="ignore", invalid="ignore"):
            normalized = ratio[busy] / pair_scale[busy]
        normalized = np.where(np.isfinite(normalized), normalized, 2.0**1000)
        bins[busy] = (
            np.floor(np.log2(np.maximum(normalized, 1.0)) + 1e-12).astype(np.int64) + 1
        )
    scaled_load = np.where(busy, load * np.where(np.isnan(pair_scale), 0.0, pair_scale), 0.0)
    if has_capacity:
        cap0 = idx.capacities[:, 0]
    else:
        cap0 = np.full(num_users, math.inf)
    # Entries for users without a finite ratio are never read; use a safe
    # scale of 1 there so inf caps do not produce inf·0 NaN warnings.
    # Overflow to inf matches the scalar engine's silent float semantics.
    with np.errstate(over="ignore"):
        scaled_cap = cap0 * np.where(np.isnan(scale), 1.0, scale)
    return SkewBins(bins=bins, scaled_load=scaled_load, scale=scale, scaled_cap=scaled_cap)


# ----------------------------------------------------------------------
# Small-streams precondition (§5)
# ----------------------------------------------------------------------


def small_streams_indexed(idx: IndexedInstance, mu: float, rtol: float = FEASIBILITY_RTOL) -> bool:
    """Vectorized :func:`repro.core.allocate.small_streams_condition` test."""
    log_mu = math.log2(mu)
    for i in range(idx.m):
        b = idx.budgets[i]
        if not math.isinf(b) and np.any(
            idx.stream_costs[:, i] > b / log_mu * (1 + rtol)
        ):
            return False
    for j in range(idx.mc):
        cap = idx.capacities[idx.u_pair_user, j]
        finite = np.isfinite(cap)
        if np.any(idx.u_loads[finite, j] > cap[finite] / log_mu * (1 + rtol)):
            return False
    return True


# ----------------------------------------------------------------------
# Assignment accounting over index arrays
# ----------------------------------------------------------------------


class IndexedAssignment:
    """Array-backed feasibility/utility accounting for an assignment.

    Holds the assignment as a stream-major pair mask over the lowering's
    CSR layout (deliveries outside the positive-utility support are not
    representable — the solvers never produce them) and computes the
    paper's accounting — utility, server costs, user loads, feasibility —
    as vector reductions.  Construct from an :class:`Assignment` with
    :meth:`from_assignment`, round-trip back with :meth:`to_mapping`.
    """

    def __init__(self, idx: IndexedInstance, pair_mask: "np.ndarray | None" = None) -> None:
        self.idx = idx
        self.pair_mask = (
            pair_mask if pair_mask is not None else np.zeros(idx.nnz, dtype=bool)
        )

    @classmethod
    def from_assignment(cls, assignment) -> "IndexedAssignment":
        """Lower an :class:`repro.core.assignment.Assignment`."""
        idx = index_instance(assignment.instance)
        return cls(idx, assigned_pair_mask(idx, assignment.as_dict()))

    def to_mapping(self) -> "dict[str, set[str]]":
        """``user_id -> set of stream_id`` (the Assignment constructor input)."""
        result: "dict[str, set[str]]" = {uid: set() for uid in self.idx.user_ids}
        for p in np.flatnonzero(self.pair_mask):
            result[self.idx.user_ids[int(self.idx.s_user[p])]].add(
                self.idx.stream_ids[int(self.idx.s_pair_stream[p])]
            )
        return result

    # -- mutation ------------------------------------------------------

    def assign_stream(self, k: int, user_indices: np.ndarray) -> None:
        """Bulk-assign stream ``k`` to the given user indices."""
        lo, hi = int(self.idx.s_indptr[k]), int(self.idx.s_indptr[k + 1])
        row = self.idx.s_user[lo:hi]
        self.pair_mask[lo + np.flatnonzero(np.isin(row, user_indices))] = True

    # -- accounting ----------------------------------------------------

    def stream_mask(self) -> np.ndarray:
        """Boolean range S(A) over stream indices."""
        mask = np.zeros(self.idx.num_streams, dtype=bool)
        mask[self.idx.s_pair_stream[self.pair_mask]] = True
        return mask

    def server_costs(self) -> np.ndarray:
        """``(c_1(A), ..., c_m(A))``."""
        return self.idx.stream_costs[self.stream_mask(), :].sum(axis=0)

    def user_loads(self) -> np.ndarray:
        """``(U, mc)`` matrix of per-user loads ``k^u_j(A)``."""
        loads = np.zeros((self.idx.num_users, self.idx.mc))
        picked = self.pair_mask
        np.add.at(loads, self.idx.s_user[picked], self.idx.s_loads[picked, :])
        return loads

    def raw_user_utilities(self) -> np.ndarray:
        """Uncapped ``w_u(A)`` per user."""
        raw = np.zeros(self.idx.num_users)
        np.add.at(raw, self.idx.s_user[self.pair_mask], self.idx.s_w[self.pair_mask])
        return raw

    def utility(self) -> float:
        """``w(A) = Σ_u min(W_u, w_u(A))``."""
        return float(
            np.minimum(self.idx.utility_caps, self.raw_user_utilities()).sum()
        )

    def is_server_feasible(self, rtol: float = FEASIBILITY_RTOL) -> bool:
        """True when every budget cap holds: ``c_i(A) <= B_i`` for all ``i``."""
        return bool(np.all(self.server_costs() <= self.idx.budgets * (1 + rtol)))

    def is_user_feasible(self, rtol: float = FEASIBILITY_RTOL) -> bool:
        """True when every capacity cap holds: ``k^u_j(A) <= K^u_j`` for all ``u, j``."""
        return bool(np.all(self.user_loads() <= self.idx.capacities * (1 + rtol)))

    def is_feasible(self, rtol: float = FEASIBILITY_RTOL) -> bool:
        """True when the assignment satisfies both budget and capacity caps."""
        return self.is_server_feasible(rtol) and self.is_user_feasible(rtol)
