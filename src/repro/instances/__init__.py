"""Instance generators and realistic video-distribution workloads.

- :mod:`repro.instances.generators` — random instance families with
  controlled parameters (skew, budget tightness, small-streams
  precondition), embeddings of classical problems (knapsack, budgeted
  maximum coverage), and the paper's §4.2 tightness family.
- :mod:`repro.instances.vectorized` — the same random families drawn
  with batched numpy calls, producing array-native
  :class:`~repro.core.indexed.IndexedInstance` objects directly (the
  fast path for large sweeps).
- :mod:`repro.instances.catalog` — synthetic channel catalogs (genres,
  bitrate tiers, server cost models).
- :mod:`repro.instances.population` — synthetic user populations with
  Zipf channel preferences.
- :mod:`repro.instances.workloads` — named end-to-end scenarios
  combining a catalog and a population into an MMD instance, each with
  an index-native twin that builds the same instance straight into an
  :class:`~repro.core.indexed.IndexedInstance`.
"""

from repro.instances.catalog import CatalogConfig, build_catalog
from repro.instances.generators import (
    knapsack_instance,
    max_coverage_instance,
    random_mmd,
    random_smd,
    random_unit_skew_smd,
    small_streams_mmd,
    sweep_instances,
    tightness_instance,
)
from repro.instances.population import (
    PopulationConfig,
    build_population,
    draw_population_arrays,
)
from repro.instances.vectorized import (
    generate_mmd,
    generate_small_streams_mmd,
    generate_smd,
    generate_unit_skew_smd,
    resolve_gen_engine,
    sweep_indexed_instances,
)
from repro.instances.workloads import (
    cable_headend_indexed,
    cable_headend_workload,
    iptv_neighborhood_indexed,
    iptv_neighborhood_workload,
    small_streams_indexed_workload,
    small_streams_workload,
)

__all__ = [
    "CatalogConfig",
    "build_catalog",
    "knapsack_instance",
    "max_coverage_instance",
    "random_mmd",
    "random_smd",
    "random_unit_skew_smd",
    "small_streams_mmd",
    "sweep_instances",
    "tightness_instance",
    "generate_unit_skew_smd",
    "generate_smd",
    "generate_mmd",
    "generate_small_streams_mmd",
    "sweep_indexed_instances",
    "resolve_gen_engine",
    "PopulationConfig",
    "build_population",
    "draw_population_arrays",
    "cable_headend_workload",
    "iptv_neighborhood_workload",
    "small_streams_workload",
    "cable_headend_indexed",
    "iptv_neighborhood_indexed",
    "small_streams_indexed_workload",
]
