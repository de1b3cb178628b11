"""Random instance families with controlled parameters.

Every generator takes a ``seed`` and is fully deterministic given it.
The families are chosen to exercise specific paper regimes:

- :func:`random_unit_skew_smd` — the §2 setting (experiments E1–E3);
- :func:`random_smd` — bounded local skew ``α`` (experiment E4);
- :func:`random_mmd` — general ``m × m_c`` instances (experiment E5);
- :func:`small_streams_mmd` — the Theorem 1.2 precondition (E7);
- :func:`tightness_instance` — the explicit §4.2 family (E6);
- :func:`knapsack_instance` / :func:`max_coverage_instance` — the
  classical special cases the paper cites as hardness sources (§1).

The four random families take an ``engine`` argument:

- ``"loop"`` (the default here) — the original per-(user, stream)
  Python RNG loops, kept **seed-compatible** so existing fixtures
  reproduce bit-exactly;
- ``"vectorized"`` — delegate to the batched array path of
  :mod:`repro.instances.vectorized` and lift the result (different,
  equally distributed draws for the same seed; ~10–100× faster at
  scale).

:func:`sweep_instances` defaults to the vectorized engine and then
yields **array-native** :class:`~repro.core.indexed.IndexedInstance`
objects, which every solver entry point accepts directly.

Degenerate-draw edges (``density <= 0``) take a deterministic
round-robin fallback — user ``j`` wants exactly stream ``j mod |S|`` —
instead of burning per-pair draws that can never succeed.  The loop and
vectorized engines then agree bit-exactly for the SMD families (and for
``random_mmd`` when the draw ranges are degenerate too); see
:mod:`repro.instances.vectorized` for the full agreement contract.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from repro.core.allocate import global_skew_parameters
from repro.core.indexed import IndexedInstance
from repro.core.instance import MMDInstance, Stream, User
from repro.exceptions import ValidationError
from repro.util.rng import ensure_rng


def _draw(rng: np.random.Generator, low: float, high: float) -> float:
    return float(rng.uniform(low, high))


def random_unit_skew_smd(
    num_streams: int,
    num_users: int,
    seed: "int | np.random.Generator | None" = None,
    cost_range: "tuple[float, float]" = (1.0, 10.0),
    utility_range: "tuple[float, float]" = (1.0, 10.0),
    density: float = 0.6,
    budget_fraction: float = 0.3,
    cap_fraction: float = 0.5,
    engine: "str | None" = None,
) -> MMDInstance:
    """A §2-setting instance: one server budget, loads equal utilities,
    capacities equal to utility caps.

    Parameters
    ----------
    density:
        Probability that a given user wants a given stream.  ``<= 0``
        takes the deterministic round-robin fallback (user ``j`` wants
        stream ``j mod |S|`` only).
    budget_fraction:
        Server budget as a fraction of the total stream cost (smaller
        means a tighter knapsack).
    cap_fraction:
        Each user's utility cap as a fraction of his total utility
        (``1.0`` effectively removes the cap's bite).
    engine:
        ``"loop"`` (default; seed-compatible) or ``"vectorized"``
        (batched draws via :mod:`repro.instances.vectorized`, lifted).
    """
    from repro.instances.vectorized import generate_unit_skew_smd, resolve_gen_engine

    if resolve_gen_engine(engine, default="loop") == "vectorized":
        return generate_unit_skew_smd(
            num_streams,
            num_users,
            seed=seed,
            cost_range=cost_range,
            utility_range=utility_range,
            density=density,
            budget_fraction=budget_fraction,
            cap_fraction=cap_fraction,
            engine="vectorized",
        ).lift()
    rng = ensure_rng(seed)
    streams = [
        Stream(f"s{i:03d}", (_draw(rng, *cost_range),)) for i in range(num_streams)
    ]
    budget = max(
        budget_fraction * sum(s.costs[0] for s in streams),
        max((s.costs[0] for s in streams), default=0.0),
    )
    users = []
    for j in range(num_users):
        utilities: dict[str, float] = {}
        if density <= 0.0 and streams:
            utilities[streams[j % len(streams)].stream_id] = _draw(rng, *utility_range)
        else:
            for s in streams:
                if rng.random() < density:
                    utilities[s.stream_id] = _draw(rng, *utility_range)
        if not utilities and streams:
            sid = streams[int(rng.integers(0, len(streams)))].stream_id
            utilities[sid] = _draw(rng, *utility_range)
        total = sum(utilities.values())
        cap = max(cap_fraction * total, max(utilities.values(), default=1.0))
        users.append(
            User(
                user_id=f"u{j:03d}",
                utility_cap=cap,
                capacities=(cap,),
                utilities=utilities,
                loads={sid: (w,) for sid, w in utilities.items()},
            )
        )
    return MMDInstance(streams, users, (budget,), name="random-unit-skew-smd")


def random_smd(
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
) -> MMDInstance:
    """A single-budget instance with local skew at most ``skew``.

    Loads are ``k_u(S) = w_u(S) / r`` with per-pair cost-benefit ratios
    ``r`` drawn log-uniformly from ``[1, skew]``; utility caps are
    infinite (the §3 setting), the single capacity constraint binds.
    ``engine`` selects the loop (default, seed-compatible) or the
    vectorized draw path.
    """
    if skew < 1.0:
        raise ValidationError(f"skew must be >= 1, got {skew}")
    from repro.instances.vectorized import generate_smd, resolve_gen_engine

    if resolve_gen_engine(engine, default="loop") == "vectorized":
        return generate_smd(
            num_streams,
            num_users,
            skew,
            seed=seed,
            cost_range=cost_range,
            utility_range=utility_range,
            density=density,
            budget_fraction=budget_fraction,
            capacity_fraction=capacity_fraction,
            engine="vectorized",
        ).lift()
    rng = ensure_rng(seed)
    streams = [
        Stream(f"s{i:03d}", (_draw(rng, *cost_range),)) for i in range(num_streams)
    ]
    budget = max(
        budget_fraction * sum(s.costs[0] for s in streams),
        max((s.costs[0] for s in streams), default=0.0),
    )
    users = []
    for j in range(num_users):
        utilities: dict[str, float] = {}
        loads: dict[str, tuple[float, ...]] = {}
        if density <= 0.0 and streams:
            sid = streams[j % len(streams)].stream_id
            w = _draw(rng, *utility_range)
            utilities[sid] = w
            loads[sid] = (w,)
        else:
            for s in streams:
                if rng.random() < density:
                    w = _draw(rng, *utility_range)
                    ratio = float(np.exp(rng.uniform(0.0, math.log(skew)))) if skew > 1 else 1.0
                    utilities[s.stream_id] = w
                    loads[s.stream_id] = (w / ratio,)
        if not utilities and streams:
            sid = streams[int(rng.integers(0, len(streams)))].stream_id
            w = _draw(rng, *utility_range)
            utilities[sid] = w
            loads[sid] = (w,)
        total_load = sum(vec[0] for vec in loads.values())
        max_load = max((vec[0] for vec in loads.values()), default=1.0)
        capacity = max(capacity_fraction * total_load, max_load)
        users.append(
            User(
                user_id=f"u{j:03d}",
                utility_cap=math.inf,
                capacities=(capacity,),
                utilities=utilities,
                loads=loads,
            )
        )
    return MMDInstance(streams, users, (budget,), name=f"random-smd-skew{skew:g}")


def random_mmd(
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
) -> MMDInstance:
    """A general MMD instance with ``m`` server budgets and ``mc``
    capacity measures per user; utility caps are infinite (the formal
    §1.1 model).  ``engine`` selects the loop (default, seed-compatible)
    or the vectorized draw path."""
    if m < 1 or mc < 0:
        raise ValidationError(f"need m >= 1 and mc >= 0, got m={m}, mc={mc}")
    from repro.instances.vectorized import generate_mmd, resolve_gen_engine

    if resolve_gen_engine(engine, default="loop") == "vectorized":
        return generate_mmd(
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
            engine="vectorized",
        ).lift()
    rng = ensure_rng(seed)
    streams = []
    for i in range(num_streams):
        costs = tuple(_draw(rng, *cost_range) for _ in range(m))
        streams.append(Stream(f"s{i:03d}", costs))
    budgets = []
    for i in range(m):
        total = sum(s.costs[i] for s in streams)
        biggest = max((s.costs[i] for s in streams), default=0.0)
        budgets.append(max(budget_fraction * total, biggest))
    users = []
    for j in range(num_users):
        utilities: dict[str, float] = {}
        loads: dict[str, tuple[float, ...]] = {}
        if density <= 0.0 and streams:
            sid = streams[j % len(streams)].stream_id
            utilities[sid] = _draw(rng, *utility_range)
            loads[sid] = tuple(_draw(rng, *cost_range) for _ in range(mc))
        else:
            for s in streams:
                if rng.random() < density:
                    utilities[s.stream_id] = _draw(rng, *utility_range)
                    loads[s.stream_id] = tuple(
                        _draw(rng, *cost_range) for _ in range(mc)
                    )
        if not utilities and streams:
            sid = streams[int(rng.integers(0, len(streams)))].stream_id
            utilities[sid] = _draw(rng, *utility_range)
            loads[sid] = tuple(_draw(rng, *cost_range) for _ in range(mc))
        capacities = []
        for jj in range(mc):
            total = sum(vec[jj] for vec in loads.values())
            biggest = max((vec[jj] for vec in loads.values()), default=0.0)
            capacities.append(max(capacity_fraction * total, biggest))
        users.append(
            User(
                user_id=f"u{j:03d}",
                utility_cap=math.inf,
                capacities=tuple(capacities),
                utilities=utilities,
                loads=loads,
            )
        )
    return MMDInstance(streams, users, tuple(budgets), name=f"random-mmd-{m}x{mc}")


def small_streams_mmd(
    num_streams: int,
    num_users: int,
    m: int = 1,
    mc: int = 1,
    seed: "int | np.random.Generator | None" = None,
    headroom: float = 1.5,
    density: float = 0.6,
    engine: "str | None" = None,
) -> MMDInstance:
    """An instance satisfying the Theorem 1.2 small-streams precondition.

    Costs and loads are drawn first; ``γ`` (and hence ``µ``) is
    scale-invariant in the budgets, so the budgets are then set to
    ``headroom · log₂(µ) · max cost`` per measure, which makes
    ``c_i(S) ≤ B_i / log₂ µ`` hold with ``headroom`` to spare.
    ``engine`` selects the loop (default, seed-compatible) or the
    vectorized draw path.
    """
    if headroom < 1.0:
        raise ValidationError(f"headroom must be >= 1, got {headroom}")
    from repro.instances.vectorized import generate_small_streams_mmd, resolve_gen_engine

    if resolve_gen_engine(engine, default="loop") == "vectorized":
        return generate_small_streams_mmd(
            num_streams,
            num_users,
            m=m,
            mc=mc,
            seed=seed,
            headroom=headroom,
            density=density,
            engine="vectorized",
        ).lift()
    rng = ensure_rng(seed)
    base = random_mmd(
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
        engine="loop",
    )
    _gamma, mu, _d = global_skew_parameters(base)
    log_mu = math.log2(mu)
    budgets = []
    for i in range(m):
        biggest = max((s.costs[i] for s in base.streams), default=0.0)
        budgets.append(headroom * log_mu * biggest)
    users = []
    for u in base.users:
        capacities = []
        for j in range(mc):
            biggest = max((vec[j] for vec in u.loads.values()), default=1.0)
            capacities.append(headroom * log_mu * biggest)
        users.append(
            User(
                user_id=u.user_id,
                utility_cap=math.inf,
                capacities=tuple(capacities),
                utilities=dict(u.utilities),
                loads=dict(u.loads),
            )
        )
    return MMDInstance(base.streams, users, tuple(budgets), name="small-streams-mmd")


def sweep_cell(
    num_streams: int,
    num_users: int,
    skew: float,
    seed: int,
    density: float = 0.05,
    budget_fraction: float = 0.3,
    engine: "str | None" = None,
) -> "MMDInstance | IndexedInstance":
    """Build one grid cell of a sweep: the §2 unit-skew family for
    ``skew <= 1``, the bounded-skew family otherwise.

    The shared producer of :func:`sweep_instances` and the experiment
    runner (:mod:`repro.experiments.runner`, family ``"sweep"``) — both
    paths materialize cells through this function, so a spec-driven
    ``repro sweep`` and a hand-rolled `sweep_instances` loop produce the
    same instances given the same per-cell seeds.  The vectorized
    engine (the sweep default) returns an array-native
    :class:`~repro.core.indexed.IndexedInstance`; ``engine="loop"``
    returns a dict-model :class:`MMDInstance`.
    """
    from repro.instances.vectorized import (
        generate_smd,
        generate_unit_skew_smd,
        resolve_gen_engine,
    )

    if resolve_gen_engine(engine, default="vectorized") == "vectorized":
        if skew <= 1.0:
            inst: "MMDInstance | IndexedInstance" = generate_unit_skew_smd(
                num_streams, num_users, seed=seed, density=density,
                budget_fraction=budget_fraction, engine="vectorized",
            )
        else:
            inst = generate_smd(
                num_streams, num_users, skew, seed=seed, density=density,
                budget_fraction=budget_fraction, engine="vectorized",
            )
    elif skew <= 1.0:
        inst = random_unit_skew_smd(
            num_streams, num_users, seed=seed, density=density,
            budget_fraction=budget_fraction, engine="loop",
        )
    else:
        inst = random_smd(
            num_streams, num_users, skew, seed=seed, density=density,
            budget_fraction=budget_fraction, engine="loop",
        )
    inst.name = f"sweep[s={num_streams},u={num_users},a={skew:g},seed={seed}]"
    return inst


def sweep_instances(
    stream_counts: Sequence[int],
    user_counts: Sequence[int],
    skews: Sequence[float] = (1.0,),
    seed: int = 0,
    density: float = 0.05,
    budget_fraction: float = 0.3,
    engine: "str | None" = None,
) -> "Iterator[MMDInstance | IndexedInstance]":
    """Stream a catalog × population × skew grid of SMD instances.

    A generator (constant memory): each instance is built only when the
    consumer asks for it, so million-user sweeps can be piped straight
    into :func:`repro.core.solver.iter_solve_many` or serialized line by
    line (``repro solve-many --sweep-...`` / ``repro generate --count``)
    without materializing the whole grid.

    Instances are deterministic given ``seed``: grid cell ``t`` draws
    with :func:`repro.util.rng.derive_seed` ``(seed, t)`` — the per-cell
    seed depends only on the cell's position in the full grid, never on
    how many cells ran before it, so shard ``(i, n)`` of a sweep (every
    ``n``-th cell) reproduces exactly the unsharded run's instances.
    ``skew == 1`` cells use the §2 unit-skew family, other cells the
    bounded-skew family.

    With ``engine="vectorized"`` (the default here — sweeps are exactly
    the workload the batched path exists for) the yielded items are
    **array-native** :class:`~repro.core.indexed.IndexedInstance`
    objects; every solver entry point (:func:`~repro.core.solver.solve_mmd`,
    :func:`~repro.core.solver.solve_many`, the CLI) accepts them
    directly and lifts the dict model only if something needs it.
    ``engine="loop"`` yields :class:`MMDInstance` objects drawn by the
    seed-compatible loop families.
    """
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
            engine=engine,
        )


def tightness_instance(m: int, mc: int) -> MMDInstance:
    """The explicit §4.2 family showing Theorem 4.3's ``Θ(m·m_c)`` loss.

    ``m`` server budgets (all 1), one user with ``mc`` capacity measures
    (all 1), and ``m + mc - 1`` streams:

    - streams ``S_1..S_{m-1}`` each cost ``1/2 + ε`` in their own server
      measure, have utility 1 and zero user load;
    - streams ``S_m..S_{m+mc-1}`` each cost ``(1/2+ε)/m_c`` in server
      measure ``m``, load their own user measure by ``1/2 + ε'`` and
      have utility ``1/m_c``.

    Transmitting everything is feasible, so ``OPT = m``; the §4
    decomposition's candidate set contains a candidate worth only
    ``OPT/(m·m_c)``.
    """
    if m < 1 or mc < 1:
        raise ValidationError(f"need m, mc >= 1, got m={m}, mc={mc}")
    eps = 1.0 / (m * m) if m > 1 else 0.01
    eps_prime = 1.0 / (mc * mc) if mc > 1 else 0.01
    streams = []
    num_streams = m + mc - 1
    for j in range(1, num_streams + 1):
        costs = [0.0] * m
        if j < m:
            costs[j - 1] = 0.5 + eps
        else:
            costs[m - 1] = (0.5 + eps) / mc
        streams.append(Stream(f"s{j:03d}", tuple(costs)))
    utilities = {}
    loads = {}
    for j in range(1, num_streams + 1):
        sid = f"s{j:03d}"
        if j < m:
            utilities[sid] = 1.0
            loads[sid] = (0.0,) * mc
        else:
            utilities[sid] = 1.0 / mc
            vec = [0.0] * mc
            vec[j - m] = 0.5 + eps_prime
            loads[sid] = tuple(vec)
    user = User(
        user_id="u000",
        utility_cap=math.inf,
        capacities=(1.0,) * mc,
        utilities=utilities,
        loads=loads,
    )
    return MMDInstance(streams, [user], (1.0,) * m, name=f"tightness-{m}x{mc}")


def knapsack_instance(
    values: Sequence[float],
    weights: Sequence[float],
    capacity: float,
) -> MMDInstance:
    """Embed a 0/1 knapsack: one user, utility = value, cost = weight.

    The paper notes MMD strictly generalizes Knapsack even with a single
    user (§1); this embedding lets knapsack instances with known optima
    serve as ground truth.
    """
    if len(values) != len(weights):
        raise ValidationError("values and weights must have equal length")
    big = max(weights, default=0.0)
    streams = [
        Stream(f"s{i:03d}", (float(w),)) for i, w in enumerate(weights)
    ]
    utilities = {
        f"s{i:03d}": float(v) for i, v in enumerate(values) if v > 0
    }
    user = User(
        user_id="u000",
        utility_cap=math.inf,
        capacities=(math.inf,),
        utilities=utilities,
        loads={sid: (0.0,) for sid in utilities},
    )
    return MMDInstance(streams, [user], (max(capacity, big),), name="knapsack")


def group_budget_instance(
    groups: "Sequence[Sequence[Sequence[str]]]",
    num_picks: float,
    element_weights: "dict[str, float] | None" = None,
) -> MMDInstance:
    """Embed maximum coverage with *group budget constraints* [6].

    ``groups[g]`` is a list of sets (each a list of element ids); at most
    one set may be chosen per group, and at most ``num_picks`` sets in
    total.  The paper (§1.2) notes MMD strictly generalizes this
    problem: each group becomes one server budget measure with cap 1 in
    which exactly its own sets cost 1, and one extra measure with unit
    costs and cap ``num_picks`` enforces the global cardinality budget.

    Elements become users with utility caps equal to their weights
    (covering twice adds nothing), as in :func:`max_coverage_instance`.
    """
    num_groups = len(groups)
    if num_groups == 0:
        raise ValidationError("need at least one group")
    streams = []
    membership: "dict[str, Sequence[str]]" = {}
    for g, group_sets in enumerate(groups):
        for k, members in enumerate(group_sets):
            sid = f"g{g:02d}-set{k:02d}"
            costs = [0.0] * (num_groups + 1)
            costs[g] = 1.0  # group-g budget: at most one set from this group
            costs[num_groups] = 1.0  # global cardinality budget
            streams.append(Stream(sid, tuple(costs)))
            membership[sid] = members
    budgets = tuple([1.0] * num_groups + [max(float(num_picks), 1.0)])
    elements = sorted({e for members in membership.values() for e in members})
    weights = element_weights or {}
    users = []
    for e in elements:
        weight = float(weights.get(e, 1.0))
        utilities = {
            sid: weight for sid, members in membership.items() if e in members
        }
        users.append(
            User(
                user_id=f"elem-{e}",
                utility_cap=weight,
                capacities=(math.inf,),
                utilities=utilities,
                loads={sid: (0.0,) for sid in utilities},
            )
        )
    return MMDInstance(streams, users, budgets, name="group-budget-coverage")


def max_coverage_instance(
    sets: "Sequence[Sequence[str]]",
    budget: float,
    costs: "Sequence[float] | None" = None,
    element_weights: "dict[str, float] | None" = None,
) -> MMDInstance:
    """Embed (budgeted) maximum coverage: elements are users with unit
    utility caps; set ``i`` is a stream giving utility ``weight(e)`` to
    each element it covers.

    With unit costs and integer budget this is Maximum Coverage; with
    general costs it is Khuller–Moss–Naor budgeted coverage — both of
    which the paper cites as special cases (§1.2).
    """
    if costs is not None and len(costs) != len(sets):
        raise ValidationError("costs must match sets in length")
    streams = []
    usable: "set[str]" = set()
    for i in range(len(sets)):
        cost = float(costs[i]) if costs is not None else 1.0
        if cost > budget:
            continue  # can never be chosen; validation requires c(S) <= B
        streams.append(Stream(f"set{i:03d}", (cost,)))
        usable.add(f"set{i:03d}")
    elements = sorted({e for members in sets for e in members})
    weights = element_weights or {}
    users = []
    for e in elements:
        weight = float(weights.get(e, 1.0))
        utilities = {
            f"set{i:03d}": weight
            for i, members in enumerate(sets)
            if e in members and f"set{i:03d}" in usable
        }
        users.append(
            User(
                user_id=f"elem-{e}",
                utility_cap=weight,  # covering an element twice adds nothing
                capacities=(math.inf,),
                utilities=utilities,
                loads={sid: (0.0,) for sid in utilities},
            )
        )
    return MMDInstance(streams, users, (budget,), name="max-coverage")
