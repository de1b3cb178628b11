"""Vectorized instance generation: whole instances from batched RNG calls.

The loop generators in :mod:`repro.instances.generators` build instances
through per-(user, stream) Python RNG calls — O(users × streams) trips
through the interpreter per instance, which after the compiled solver
layer (PR 1) left *generation* as the wall-clock bottleneck of large
sweeps.  The ``generate_*`` functions here draw the same random families
with a handful of batched :class:`numpy.random.Generator` calls — one
sparsity mask, one utility draw, one cost draw per instance — and
produce an :class:`~repro.core.indexed.IndexedInstance` **directly**
(no dict detour).  ``IndexedInstance.lift()`` materializes the
string-keyed :class:`~repro.core.instance.MMDInstance` lazily when a
consumer needs it.

Engines
-------

Every generator takes ``engine``:

- ``"vectorized"`` (default) — the batched array path.  Deterministic
  given ``seed``, but a *different* (equally distributed) draw sequence
  from the loop engine: the two engines produce different instances for
  the same seed except in the degenerate regimes below.
- ``"loop"`` — delegates to the seed-compatible loop generator and
  lowers the result, reproducing existing fixtures bit-exactly.

Canonical vectorized draw order (per instance): stream costs, the
(users × streams) sparsity mask in fixed row blocks of
:data:`CHUNK_CELLS` cells, fallback stream indices for users the mask
left empty, per-pair utilities in user-major order, then family-specific
extras (skew ratios, load matrices).

Degenerate regimes where both engines agree **exactly** (regression
tests in ``tests/test_generators.py`` / ``tests/test_vectorized.py``):

- ``density <= 0`` with the **SMD families** — no pair randomness is
  consumed; every user gets the round-robin fallback stream
  ``j mod |S|`` with one utility draw per user, so the engines draw
  identical values in identical order.  (``random_mmd`` additionally
  needs degenerate draw ranges here: its loop engine interleaves the
  per-user utility and load draws while the vectorized engine batches
  them, so non-constant draws land on different RNG positions.)
- degenerate ranges (``cost_range=(c, c)``, ``utility_range=(w, w)``)
  with ``density >= 1`` or ``density <= 0`` — every draw is a constant;
- zero-stream catalogs — no draws at all.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterator

import numpy as np

from repro.config import ENGINE_SETTINGS, resolve_engine_setting
from repro.core.indexed import (
    IndexedInstance,
    build_indexed,
    global_skew_indexed,
    index_instance,
)
from repro.exceptions import ValidationError
from repro.util.rng import ensure_rng

_GEN_ENGINES = ENGINE_SETTINGS["generation"].choices

#: Sparsity-mask draws are chunked into row blocks of at most this many
#: (user, stream) cells, bounding transient memory at ~32 MiB per block
#: while keeping the drawn bit stream independent of the block size a
#: given catalog width implies.
CHUNK_CELLS = 1 << 22


def resolve_gen_engine(engine: "str | None" = None, default: str = "vectorized") -> str:
    """Resolve a generation engine: explicit argument, else ``default``.

    Delegates to the shared :mod:`repro.config` resolver (kind
    ``"generation"``); ``default`` lets the dict-returning ``random_*``
    families keep their seed-compatible loop default.
    """
    return resolve_engine_setting("generation", engine, default=default)


def _ids(prefix: str, count: int) -> "list[str]":
    """Id table ``[prefix000, prefix001, ...]`` (the loop generators' scheme)."""
    return [f"{prefix}{i:03d}" for i in range(count)]


def _support(
    rng: np.random.Generator, num_users: int, num_streams: int, density: float
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Draw the sparse interest pattern of a random family.

    Returns ``(u_indptr, u_stream, fallback)``: the user-major CSR
    pointers, the per-pair stream indices (ascending within each row,
    matching the loop engines' dict insertion order), and a boolean mask
    over pairs marking entries created by the everyone-wants-something
    fallback (the loop families guarantee each user at least one
    positive utility).

    ``density <= 0`` takes the deterministic path: user ``j`` wants
    exactly stream ``j mod num_streams`` and **no pair randomness is
    consumed**, so the loop and vectorized engines agree bit-exactly
    there (the loop engines implement the same rule).
    """
    if num_users == 0 or num_streams == 0:
        return (
            np.zeros(num_users + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        )
    if density <= 0.0:
        u_indptr = np.arange(num_users + 1, dtype=np.int64)
        u_stream = np.arange(num_users, dtype=np.int64) % num_streams
        return u_indptr, u_stream, np.ones(num_users, dtype=bool)

    counts = np.empty(num_users, dtype=np.int64)
    chunks: "list[np.ndarray]" = []
    rows_per_chunk = max(1, CHUNK_CELLS // num_streams)
    for start in range(0, num_users, rows_per_chunk):
        stop = min(start + rows_per_chunk, num_users)
        mask = rng.random((stop - start, num_streams)) < density
        counts[start:stop] = mask.sum(axis=1)
        # np.nonzero is row-major: ascending stream index within each row.
        chunks.append(mask.nonzero()[1].astype(np.int64, copy=False))
    drawn = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    empty = counts == 0
    num_empty = int(empty.sum())
    if num_empty == 0:
        u_indptr = np.zeros(num_users + 1, dtype=np.int64)
        np.cumsum(counts, out=u_indptr[1:])
        return u_indptr, drawn, np.zeros(drawn.shape[0], dtype=bool)

    fallback_cols = rng.integers(0, num_streams, size=num_empty)
    counts[empty] = 1
    u_indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(counts, out=u_indptr[1:])
    slot_user = np.repeat(np.arange(num_users, dtype=np.int64), counts)
    is_fallback = empty[slot_user]
    u_stream = np.empty(int(u_indptr[-1]), dtype=np.int64)
    u_stream[~is_fallback] = drawn
    u_stream[is_fallback] = fallback_cols
    return u_indptr, u_stream, is_fallback


def _row_stats(
    values: np.ndarray, u_indptr: np.ndarray, empty_max: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-user ``(sum, max)`` of a per-pair column.

    ``values`` may be 1-D (one number per pair) or 2-D ``(nnz, mc)``;
    the reductions run along the pair axis.  Users with no pairs get sum
    ``0`` and max ``empty_max`` (the loop generators' ``default=``
    argument to ``max``).
    """
    num_users = u_indptr.shape[0] - 1
    tail_shape = values.shape[1:]
    if num_users == 0:
        return np.zeros((0, *tail_shape)), np.zeros((0, *tail_shape))
    sums = np.zeros((num_users, *tail_shape))
    maxs = np.full((num_users, *tail_shape), float(empty_max))
    nonempty = np.diff(u_indptr) > 0
    if nonempty.any():
        # reduceat over the non-empty rows only: consecutive non-empty
        # rows have strictly increasing starts (empty rows contribute
        # nothing to the pointer gaps), so segment boundaries are exact.
        starts = u_indptr[:-1][nonempty]
        sums[nonempty] = np.add.reduceat(values, starts, axis=0)
        maxs[nonempty] = np.maximum.reduceat(values, starts, axis=0)
    return sums, maxs


def _budget_from_costs(costs: np.ndarray, budget_fraction: float) -> np.ndarray:
    """Per-measure budgets ``max(fraction · Σ c_i, max c_i)`` (0 if no streams)."""
    if costs.shape[0] == 0:
        return np.zeros(costs.shape[1])
    return np.maximum(budget_fraction * costs.sum(axis=0), costs.max(axis=0))


def generate_unit_skew_smd(
    num_streams: int,
    num_users: int,
    seed: "int | np.random.Generator | None" = None,
    cost_range: "tuple[float, float]" = (1.0, 10.0),
    utility_range: "tuple[float, float]" = (1.0, 10.0),
    density: float = 0.6,
    budget_fraction: float = 0.3,
    cap_fraction: float = 0.5,
    engine: "str | None" = None,
) -> IndexedInstance:
    """Array-native :func:`repro.instances.generators.random_unit_skew_smd`.

    Same family and parameters as the loop generator (the §2 setting:
    one budget, loads equal utilities, capacities equal utility caps),
    drawn with batched RNG calls and returned as an
    :class:`IndexedInstance` with no dict model built.
    """
    if resolve_gen_engine(engine) == "loop":
        from repro.instances.generators import random_unit_skew_smd

        return index_instance(
            random_unit_skew_smd(
                num_streams,
                num_users,
                seed=seed,
                cost_range=cost_range,
                utility_range=utility_range,
                density=density,
                budget_fraction=budget_fraction,
                cap_fraction=cap_fraction,
                engine="loop",
            )
        )
    rng = ensure_rng(seed)
    costs = rng.uniform(*cost_range, num_streams)
    budgets = _budget_from_costs(costs.reshape(-1, 1), budget_fraction)
    u_indptr, u_stream, _ = _support(rng, num_users, num_streams, density)
    u_w = rng.uniform(*utility_range, u_stream.shape[0])
    row_sum, row_max = _row_stats(u_w, u_indptr, empty_max=1.0)
    cap = np.maximum(cap_fraction * row_sum, row_max)
    return build_indexed(
        stream_ids=_ids("s", num_streams),
        user_ids=_ids("u", num_users),
        stream_costs=costs.reshape(-1, 1),
        budgets=budgets,
        utility_caps=cap,
        capacities=cap.reshape(-1, 1),
        u_indptr=u_indptr,
        u_stream=u_stream,
        u_w=u_w,
        u_loads=u_w.reshape(-1, 1).copy(),
        name="random-unit-skew-smd",
    )


def generate_smd(
    num_streams: int,
    num_users: int,
    skew: float,
    seed: "int | np.random.Generator | None" = None,
    cost_range: "tuple[float, float]" = (1.0, 10.0),
    utility_range: "tuple[float, float]" = (1.0, 10.0),
    density: float = 0.6,
    budget_fraction: float = 0.3,
    capacity_fraction: float = 0.5,
    engine: "str | None" = None,
) -> IndexedInstance:
    """Array-native :func:`repro.instances.generators.random_smd`.

    Bounded local skew ``α ≤ skew``: per-pair cost-benefit ratios are
    drawn log-uniformly from ``[1, skew]`` in one batched call (fallback
    pairs keep ratio 1, as in the loop engine); utility caps are
    infinite and the single capacity constraint binds.
    """
    if skew < 1.0:
        raise ValidationError(f"skew must be >= 1, got {skew}")
    if resolve_gen_engine(engine) == "loop":
        from repro.instances.generators import random_smd

        return index_instance(
            random_smd(
                num_streams,
                num_users,
                skew,
                seed=seed,
                cost_range=cost_range,
                utility_range=utility_range,
                density=density,
                budget_fraction=budget_fraction,
                capacity_fraction=capacity_fraction,
                engine="loop",
            )
        )
    rng = ensure_rng(seed)
    costs = rng.uniform(*cost_range, num_streams)
    budgets = _budget_from_costs(costs.reshape(-1, 1), budget_fraction)
    u_indptr, u_stream, fallback = _support(rng, num_users, num_streams, density)
    nnz = u_stream.shape[0]
    u_w = rng.uniform(*utility_range, nnz)
    if skew > 1.0:
        ratio = np.exp(rng.uniform(0.0, math.log(skew), nnz))
        ratio[fallback] = 1.0
    else:
        ratio = np.ones(nnz)
    u_loads = (u_w / ratio).reshape(-1, 1)
    row_sum, row_max = _row_stats(u_loads[:, 0], u_indptr, empty_max=1.0)
    capacity = np.maximum(capacity_fraction * row_sum, row_max)
    return build_indexed(
        stream_ids=_ids("s", num_streams),
        user_ids=_ids("u", num_users),
        stream_costs=costs.reshape(-1, 1),
        budgets=budgets,
        utility_caps=np.full(num_users, math.inf),
        capacities=capacity.reshape(-1, 1),
        u_indptr=u_indptr,
        u_stream=u_stream,
        u_w=u_w,
        u_loads=u_loads,
        name=f"random-smd-skew{skew:g}",
    )


def generate_mmd(
    num_streams: int,
    num_users: int,
    m: int,
    mc: int,
    seed: "int | np.random.Generator | None" = None,
    cost_range: "tuple[float, float]" = (1.0, 10.0),
    utility_range: "tuple[float, float]" = (1.0, 10.0),
    density: float = 0.6,
    budget_fraction: float = 0.35,
    capacity_fraction: float = 0.5,
    engine: "str | None" = None,
) -> IndexedInstance:
    """Array-native :func:`repro.instances.generators.random_mmd`.

    General ``m × m_c`` instances: the ``(|S|, m)`` cost matrix, the
    sparsity mask, the utilities and the ``(nnz, m_c)`` load matrix are
    each one batched draw.
    """
    if m < 1 or mc < 0:
        raise ValidationError(f"need m >= 1 and mc >= 0, got m={m}, mc={mc}")
    if resolve_gen_engine(engine) == "loop":
        from repro.instances.generators import random_mmd

        return index_instance(
            random_mmd(
                num_streams,
                num_users,
                m,
                mc,
                seed=seed,
                cost_range=cost_range,
                utility_range=utility_range,
                density=density,
                budget_fraction=budget_fraction,
                capacity_fraction=capacity_fraction,
                engine="loop",
            )
        )
    rng = ensure_rng(seed)
    costs = rng.uniform(*cost_range, (num_streams, m))
    budgets = _budget_from_costs(costs, budget_fraction)
    u_indptr, u_stream, _ = _support(rng, num_users, num_streams, density)
    nnz = u_stream.shape[0]
    u_w = rng.uniform(*utility_range, nnz)
    u_loads = rng.uniform(*cost_range, (nnz, mc))
    col_sum, col_max = _row_stats(u_loads, u_indptr, empty_max=0.0)
    capacities = np.maximum(capacity_fraction * col_sum, col_max)
    return build_indexed(
        stream_ids=_ids("s", num_streams),
        user_ids=_ids("u", num_users),
        stream_costs=costs,
        budgets=budgets,
        utility_caps=np.full(num_users, math.inf),
        capacities=capacities.reshape(num_users, mc),
        u_indptr=u_indptr,
        u_stream=u_stream,
        u_w=u_w,
        u_loads=u_loads,
        name=f"random-mmd-{m}x{mc}",
    )


def generate_small_streams_mmd(
    num_streams: int,
    num_users: int,
    m: int = 1,
    mc: int = 1,
    seed: "int | np.random.Generator | None" = None,
    headroom: float = 1.5,
    density: float = 0.6,
    engine: "str | None" = None,
) -> IndexedInstance:
    """Array-native :func:`repro.instances.generators.small_streams_mmd`.

    Draws a base ``m × m_c`` instance, computes ``γ`` (and hence ``µ``)
    with the vectorized global-skew kernel, then rescales budgets and
    capacities to ``headroom · log₂(µ) · max cost`` per measure so the
    Theorem 1.2 small-streams precondition holds with room to spare.
    """
    if headroom < 1.0:
        raise ValidationError(f"headroom must be >= 1, got {headroom}")
    if resolve_gen_engine(engine) == "loop":
        from repro.instances.generators import small_streams_mmd

        return index_instance(
            small_streams_mmd(
                num_streams,
                num_users,
                m=m,
                mc=mc,
                seed=seed,
                headroom=headroom,
                density=density,
                engine="loop",
            )
        )
    rng = ensure_rng(seed)
    base = generate_mmd(
        num_streams,
        num_users,
        m,
        mc,
        seed=rng,
        cost_range=(0.5, 2.0),
        utility_range=(1.0, 4.0),
        density=density,
        budget_fraction=1.0,  # placeholder; budgets replaced below
        capacity_fraction=1.0,
        engine="vectorized",
    )
    # γ is scale-invariant in the budgets, so it can be computed on the
    # placeholder instance; D counts the finite budgets and capacities.
    gamma = global_skew_indexed(base)
    d = sum(1 for b in base.budgets if not math.isinf(b))
    d += int(np.isfinite(base.capacities).sum())
    d = max(d, 1)
    log_mu = math.log2(2.0 * gamma * d + 2.0)
    if num_streams:
        budgets = headroom * log_mu * base.stream_costs.max(axis=0)
    else:
        budgets = np.zeros(m)
    _, max_load = _row_stats(base.u_loads, base.u_indptr, empty_max=1.0)
    capacities = headroom * log_mu * max_load.reshape(num_users, mc)
    return replace(
        base,
        budgets=budgets,
        capacities=capacities,
        name="small-streams-mmd",
        _derived={},
    )


def sweep_indexed_instances(
    stream_counts: "list[int] | tuple[int, ...]",
    user_counts: "list[int] | tuple[int, ...]",
    skews: "list[float] | tuple[float, ...]" = (1.0,),
    seed: int = 0,
    density: float = 0.05,
    budget_fraction: float = 0.3,
) -> "Iterator[IndexedInstance]":
    """Stream a catalog × population × skew grid as array-native instances.

    The always-vectorized form of
    :func:`repro.instances.generators.sweep_instances`: grid cell ``t``
    draws with :func:`repro.util.rng.derive_seed` ``(seed, t)`` (seeds
    depend only on grid position, so sharded runs match unsharded
    ones); ``skew <= 1`` cells draw the §2 unit-skew family, other
    cells the bounded-skew family.  Constant memory — each instance is
    built only when the consumer asks for it.
    """
    import itertools

    from repro.instances.generators import sweep_cell
    from repro.util.rng import derive_seed

    grid = itertools.product(stream_counts, user_counts, skews)
    for t, (num_streams, num_users, skew) in enumerate(grid):
        yield sweep_cell(
            num_streams,
            num_users,
            skew,
            seed=derive_seed(seed, t),
            density=density,
            budget_fraction=budget_fraction,
            engine="vectorized",
        )
