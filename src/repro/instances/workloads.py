"""Named end-to-end workload scenarios.

Each function assembles a catalog and a population into an
:class:`~repro.core.instance.MMDInstance` mirroring one of the paper's
deployment stories (Fig. 1):

- :func:`cable_headend_workload` — a cable head-end serving
  neighborhood video gateways, with egress-bandwidth, processing and
  input-port budgets (``m = 3``);
- :func:`iptv_neighborhood_workload` — a video gateway serving
  households over a single shared link (``m = 1``);
- :func:`small_streams_workload` — a large SD-only catalog against
  generous budgets, landing in the Theorem 1.2 small-streams regime.

Each scenario also has an index-native builder —
:func:`iptv_neighborhood_indexed`, :func:`cable_headend_indexed`,
:func:`small_streams_indexed_workload` — that takes the same arguments
and returns the :class:`~repro.core.indexed.IndexedInstance` equal,
array for array, to ``index_instance(<scenario>(...))``.  It draws the
population in bulk (:func:`~repro.instances.population
.draw_population_arrays`) and builds no per-user
:class:`~repro.core.instance.User`; the dict builders above are its
reference.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.core.indexed import IndexedInstance, build_indexed
from repro.core.instance import MMDInstance, Stream
from repro.exceptions import ValidationError
from repro.instances.catalog import CatalogConfig, build_catalog
from repro.instances.population import (
    PopulationConfig,
    aggregate_gateway,
    PopulationArrays,
    build_population,
    channel_bitrates,
    draw_population_arrays,
)
from repro.util.rng import ensure_rng, spawn_rngs


#: Household draw of every cable head-end gateway.
_GATEWAY_HOMES = PopulationConfig(downlink_range=(30.0, 80.0))


def _cable_headend_setup(
    num_channels: int,
    num_gateways: int,
    seed: "int | np.random.Generator | None",
    egress_fraction: float,
    processing_fraction: float,
    port_fraction: float,
):
    """The cable head-end scenario minus its households.

    Returns the catalog, the three budgets, each gateway's population
    generator and each gateway's uplink.  The uplinks come from their own
    generator, so drawing them up front leaves every value unchanged.
    """
    rng = ensure_rng(seed)
    catalog_rng, pop_rng, uplink_rng = spawn_rngs(rng, 3)
    catalog = build_catalog(
        num_channels,
        seed=catalog_rng,
        measures=("egress", "processing", "ports"),
    )
    total_egress = sum(s.costs[0] for s in catalog)
    total_processing = sum(s.costs[1] for s in catalog)
    budgets = (
        max(egress_fraction * total_egress, max(s.costs[0] for s in catalog)),
        max(processing_fraction * total_processing, max(s.costs[1] for s in catalog)),
        max(1.0, round(port_fraction * num_channels)),
    )
    uplinks = [
        float(uplink_rng.uniform(0.4, 0.7)) * total_egress / 2.0
        for _ in range(num_gateways)
    ]
    return catalog, budgets, spawn_rngs(pop_rng, num_gateways), uplinks


def cable_headend_workload(
    num_channels: int = 60,
    num_gateways: int = 8,
    households_per_gateway: int = 12,
    seed: "int | np.random.Generator | None" = 0,
    egress_fraction: float = 0.35,
    processing_fraction: float = 0.4,
    port_fraction: float = 0.5,
) -> MMDInstance:
    """Cable head-end scenario: ``m = 3`` budgets, gateway clients.

    Budgets are set as fractions of the catalog's total demands, so the
    knapsack is tight in every measure.  Gateways aggregate household
    utilities; their capacity is a shared uplink sized to carry roughly
    half the catalog.
    """
    catalog, budgets, pop_children, uplinks = _cable_headend_setup(
        num_channels, num_gateways, seed,
        egress_fraction, processing_fraction, port_fraction,
    )
    gateways = []
    for g in range(num_gateways):
        homes = build_population(
            households_per_gateway,
            catalog,
            seed=pop_children[g],
            config=_GATEWAY_HOMES,
            user_prefix=f"gw{g:02d}-home",
        )
        gateways.append(aggregate_gateway(homes, f"gw{g:02d}", uplinks[g]))
    return MMDInstance(catalog, gateways, budgets, name="cable-headend")


def _iptv_setup(
    num_channels: int,
    seed: "int | np.random.Generator | None",
    egress_fraction: float,
):
    """The IPTV scenario minus its households: catalog, budget, population generator."""
    rng = ensure_rng(seed)
    catalog_rng, pop_rng = spawn_rngs(rng, 2)
    catalog = build_catalog(num_channels, seed=catalog_rng, measures=("egress",))
    total_egress = sum(s.costs[0] for s in catalog)
    budget = max(egress_fraction * total_egress, max(s.costs[0] for s in catalog))
    return catalog, budget, pop_rng


def iptv_neighborhood_workload(
    num_channels: int = 40,
    num_households: int = 30,
    seed: "int | np.random.Generator | None" = 0,
    egress_fraction: float = 0.3,
    utility_cap_fraction: float = math.inf,
) -> MMDInstance:
    """Video-gateway scenario: one egress budget, household clients.

    The single budget is the gateway's outgoing link; each household is
    capacity-limited by its downlink.  ``utility_cap_fraction`` can
    impose finite per-household utility caps (the §2 flavor).
    """
    catalog, budget, pop_rng = _iptv_setup(num_channels, seed, egress_fraction)
    households = build_population(
        num_households,
        catalog,
        seed=pop_rng,
        config=PopulationConfig(utility_cap_fraction=utility_cap_fraction),
    )
    return MMDInstance(catalog, households, (budget,), name="iptv-neighborhood")


#: Household draw of the small-streams scenario.
_SMALL_STREAMS_HOMES = PopulationConfig(downlink_range=(100.0, 200.0))


def _small_streams_setup(num_channels: int, seed: "int | np.random.Generator | None"):
    """The small-streams scenario's SD-only catalog and population generator."""
    rng = ensure_rng(seed)
    catalog_rng, pop_rng = spawn_rngs(rng, 2)
    catalog = build_catalog(
        num_channels,
        seed=catalog_rng,
        config=CatalogConfig(tier_mix={"sd": 1.0}),
        measures=("egress",),
    )
    return catalog, pop_rng


def _small_streams_budget(draft, catalog: "list[Stream]") -> "tuple[float, float]":
    """``log₂ µ`` of the infinite-budget draft and the budget sized from it.

    ``draft`` is either representation of the scenario with budget ∞.
    """
    from repro.core.allocate import global_skew_parameters

    _gamma, mu, _d = global_skew_parameters(draft)
    log_mu = math.log2(mu)
    return log_mu, 1.5 * log_mu * max(s.costs[0] for s in catalog)


def small_streams_workload(
    num_channels: int = 80,
    num_households: int = 20,
    seed: "int | np.random.Generator | None" = 0,
) -> MMDInstance:
    """A Theorem 1.2 regime workload: a large SD-only catalog (uniform
    2.5 Mbit/s streams) against budgets at least ``log₂ µ`` times any
    single stream."""
    catalog, pop_rng = _small_streams_setup(num_channels, seed)
    households = build_population(
        num_households,
        catalog,
        seed=pop_rng,
        config=_SMALL_STREAMS_HOMES,
    )
    # All streams cost 2.5; γ is scale-invariant in the budget, so size
    # the budget after the fact exactly like small_streams_mmd does.
    from repro.core.instance import User

    draft = MMDInstance(catalog, households, (math.inf,), name="small-streams-draft")
    log_mu, budget = _small_streams_budget(draft, catalog)
    users = []
    for u in households:
        biggest = max((vec[0] for vec in u.loads.values()), default=2.5)
        capacity = max(u.capacities[0], 1.5 * log_mu * biggest)
        users.append(
            User(
                user_id=u.user_id,
                utility_cap=u.utility_cap,
                capacities=(capacity,),
                utilities=dict(u.utilities),
                loads=dict(u.loads),
                attrs=u.attrs,
            )
        )
    return MMDInstance(catalog, users, (budget,), name="small-streams")


def _indexed_cell(
    catalog: "list[Stream]",
    budgets: "tuple[float, ...]",
    user_ids: "list[str]",
    users: PopulationArrays,
    name: str,
) -> IndexedInstance:
    """Assemble a one-capacity-measure workload through ``build_indexed``.

    Every pair's load is its channel's bitrate.  Dtypes and shapes are
    :func:`~repro.core.indexed.index_instance`'s, including ``m_c = 0``
    when there are no users.
    """
    mc = 1 if user_ids else 0
    loads = channel_bitrates(catalog)[users.channels]
    return build_indexed(
        stream_ids=[s.stream_id for s in catalog],
        user_ids=user_ids,
        stream_costs=np.array(
            [s.costs for s in catalog], dtype=np.float64
        ).reshape(len(catalog), len(budgets)),
        budgets=np.array(budgets, dtype=np.float64),
        utility_caps=users.utility_caps,
        capacities=users.downlinks.reshape(len(user_ids), mc),
        u_indptr=users.indptr,
        u_stream=users.channels,
        u_w=users.utilities,
        u_loads=loads.reshape(len(loads), mc),
        name=name,
    )


def cable_headend_indexed(
    num_channels: int = 60,
    num_gateways: int = 8,
    households_per_gateway: int = 12,
    seed: "int | np.random.Generator | None" = 0,
    egress_fraction: float = 0.35,
    processing_fraction: float = 0.4,
    port_fraction: float = 0.5,
) -> IndexedInstance:
    """:func:`cable_headend_workload` built straight into arrays.

    Each gateway's row is :func:`~repro.instances.population
    .aggregate_gateway` of its households' rows: channels in first-seen
    order, utilities summed in household order, channels heavier than
    the uplink dropped.
    """
    catalog, budgets, pop_children, uplinks = _cable_headend_setup(
        num_channels, num_gateways, seed,
        egress_fraction, processing_fraction, port_fraction,
    )
    bitrates = channel_bitrates(catalog)
    rows: "list[np.ndarray]" = []
    sums: "list[np.ndarray]" = []
    for g, uplink in enumerate(uplinks):
        homes = draw_population_arrays(
            households_per_gateway,
            catalog,
            seed=pop_children[g],
            config=_GATEWAY_HOMES,
        )
        if not len(homes.downlinks):
            raise ValidationError("a gateway needs at least one household")
        seen, first = np.unique(homes.channels, return_index=True)
        row = seen[np.argsort(first)]
        row = row[bitrates[row] <= uplink]
        # 0.0 + w, then + w in household order: aggregate_gateway's sums.
        total = np.zeros(len(catalog))
        np.add.at(total, homes.channels, homes.utilities)
        rows.append(row)
        sums.append(total[row])
    indptr = np.zeros(num_gateways + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    gateways = PopulationArrays(
        downlinks=np.array(uplinks, dtype=np.float64),
        utility_caps=np.full(num_gateways, math.inf),
        indptr=indptr,
        channels=np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
        utilities=np.concatenate(sums) if sums else np.empty(0),
    )
    user_ids = [f"gw{g:02d}" for g in range(num_gateways)]
    return _indexed_cell(catalog, budgets, user_ids, gateways, "cable-headend")


def iptv_neighborhood_indexed(
    num_channels: int = 40,
    num_households: int = 30,
    seed: "int | np.random.Generator | None" = 0,
    egress_fraction: float = 0.3,
    utility_cap_fraction: float = math.inf,
) -> IndexedInstance:
    """:func:`iptv_neighborhood_workload` built straight into arrays."""
    catalog, budget, pop_rng = _iptv_setup(num_channels, seed, egress_fraction)
    homes = draw_population_arrays(
        num_households,
        catalog,
        seed=pop_rng,
        config=PopulationConfig(utility_cap_fraction=utility_cap_fraction),
    )
    user_ids = [f"home{j:03d}" for j in range(len(homes.downlinks))]
    return _indexed_cell(catalog, (budget,), user_ids, homes, "iptv-neighborhood")


def small_streams_indexed_workload(
    num_channels: int = 80,
    num_households: int = 20,
    seed: "int | np.random.Generator | None" = 0,
) -> IndexedInstance:
    """:func:`small_streams_workload` built straight into arrays.

    ``µ`` comes from the draft instance (infinite budget) exactly as in
    the dict builder; the final instance shares the draft's pair arrays.
    """
    catalog, pop_rng = _small_streams_setup(num_channels, seed)
    homes = draw_population_arrays(
        num_households,
        catalog,
        seed=pop_rng,
        config=_SMALL_STREAMS_HOMES,
    )
    user_ids = [f"home{j:03d}" for j in range(len(homes.downlinks))]
    draft = _indexed_cell(catalog, (math.inf,), user_ids, homes, "small-streams-draft")
    log_mu, budget = _small_streams_budget(draft, catalog)
    capacities = draft.capacities
    if draft.num_users:
        # Every household has a channel (the fallback guarantees one),
        # so every row has a heaviest load.
        biggest = np.maximum.reduceat(draft.u_loads[:, 0], draft.u_indptr[:-1])
        capacities = np.maximum(capacities[:, 0], 1.5 * log_mu * biggest).reshape(-1, 1)
    return replace(
        draft,
        budgets=np.array([budget]),
        capacities=capacities,
        name="small-streams",
        _derived={},
    )
