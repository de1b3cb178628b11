"""Index-native workload builders against their dict reference.

``iptv_neighborhood_indexed`` / ``cable_headend_indexed`` /
``small_streams_indexed_workload`` must equal, array for array and dtype
for dtype, the lowering of the dict scenario builders, and the bulk
population draw must replay ``build_population``'s scalar RNG calls
exactly (``repro.util.rng.RawDraws``).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexed import IndexedInstance, index_instance
from repro.core.instance import MMDInstance
from repro.exceptions import ValidationError
from repro.instances.catalog import CatalogConfig, build_catalog
from repro.instances.population import (
    PopulationConfig,
    build_population,
    draw_population_arrays,
)
from repro.instances.workloads import (
    cable_headend_indexed,
    cable_headend_workload,
    iptv_neighborhood_indexed,
    iptv_neighborhood_workload,
    small_streams_indexed_workload,
    small_streams_workload,
)
from repro.util.rng import RawDraws

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every IndexedInstance field but the lowering back-pointer and caches.
FIELDS = (
    "name", "stream_ids", "user_ids", "stream_index", "user_index",
    "stream_rank", "user_rank", "stream_costs", "budgets", "utility_caps",
    "capacities", "u_indptr", "u_stream", "u_w", "u_loads", "u_pair_user",
    "s_indptr", "s_user", "s_w", "s_loads", "s_pair_stream", "s_pair_key",
)

FAMILIES = {
    "iptv": (iptv_neighborhood_workload, iptv_neighborhood_indexed),
    "cable-headend": (cable_headend_workload, cable_headend_indexed),
    "small-streams": (small_streams_workload, small_streams_indexed_workload),
}


def mismatches(expected: IndexedInstance, actual: IndexedInstance) -> "list[str]":
    """Names of the fields whose values, dtypes or shapes differ."""
    bad = []
    for name in FIELDS:
        a, b = getattr(expected, name), getattr(actual, name)
        if isinstance(a, np.ndarray):
            same = (a.dtype == b.dtype and a.shape == b.shape
                    and a.tobytes() == b.tobytes())
        else:
            same = type(a) is type(b) and a == b
        if not same:
            bad.append(name)
    return bad


def assert_parity(family: str, *sizes, seeds, **kwargs) -> None:
    oracle, builder = FAMILIES[family]
    for seed in seeds:
        expected = index_instance(oracle(*sizes, seed=seed, **kwargs))
        actual = builder(*sizes, seed=seed, **kwargs)
        assert actual.instance is None  # built without the dict model
        assert mismatches(expected, actual) == [], (family, sizes, seed)


class TestParity:
    """≥200 seeds per family, plus the edge shapes."""

    @pytest.mark.parametrize("family,sizes", [
        ("iptv", (12, 10)),
        ("cable-headend", (15, 3, 4)),
        ("small-streams", (20, 8)),
    ])
    def test_many_seeds(self, family, sizes):
        assert_parity(family, *sizes, seeds=range(200))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_default_sizes(self, family):
        assert_parity(family, seeds=range(5))

    @pytest.mark.parametrize("family,sizes", [
        ("iptv", (1, 6)),
        ("cable-headend", (1, 2, 3)),
        ("small-streams", (1, 5)),
    ])
    def test_one_channel_catalog(self, family, sizes):
        # One channel means one genre: the favorite-genre draw is
        # integers(0, 1), which consumes no randomness.  And with 30%
        # disinterest per household, the cheapest-channel fallback runs.
        assert_parity(family, *sizes, seeds=range(200))

    def test_finite_utility_cap(self):
        assert_parity("iptv", 12, 10, seeds=range(200), utility_cap_fraction=0.3)
        assert_parity("iptv", 1, 6, seeds=range(50), utility_cap_fraction=0.3)

    @pytest.mark.parametrize("family,sizes", [
        ("iptv", (5, 0)),
        ("cable-headend", (5, 0, 3)),
        ("small-streams", (5, 0)),
    ])
    def test_no_users(self, family, sizes):
        assert_parity(family, *sizes, seeds=range(20))

    def test_gateway_without_households_is_refused_by_both(self):
        for builder in FAMILIES["cable-headend"]:
            with pytest.raises(ValidationError, match="household"):
                builder(5, 2, 0, seed=1)


class TestPopulationArrays:
    """``draw_population_arrays`` against ``build_population`` directly."""

    USERS = 9

    def lowered(self, catalog, seed, config):
        users = build_population(self.USERS, catalog, seed=seed, config=config)
        idx = index_instance(MMDInstance(catalog, users, (math.inf,)))
        arrays = draw_population_arrays(self.USERS, catalog, seed=seed, config=config)
        return idx, arrays

    @pytest.mark.parametrize("config", [
        PopulationConfig(),
        PopulationConfig(interest_probability=0.2, utility_cap_fraction=0.5),
        PopulationConfig(zipf_exponent=1.7, genre_affinity=5.0, utility_scale=3.0),
        # Every channel outweighs every downlink: each household's
        # channels are all filtered and the fallback supplies one.
        PopulationConfig(downlink_range=(1.0, 5.0)),
    ])
    def test_arrays_equal_lowered_users(self, config):
        catalog = build_catalog(
            14, seed=3, config=CatalogConfig(tier_mix={"hd": 0.7, "uhd": 0.3}),
            measures=("egress",),
        )
        fallbacks = 0
        for seed in range(60):
            idx, arrays = self.lowered(catalog, seed, config)
            assert arrays.indptr.tobytes() == idx.u_indptr.tobytes()
            assert arrays.channels.tobytes() == idx.u_stream.tobytes()
            assert arrays.utilities.tobytes() == idx.u_w.tobytes()
            assert arrays.downlinks.tobytes() == idx.capacities[:, 0].tobytes()
            assert arrays.utility_caps.tobytes() == idx.utility_caps.tobytes()
            fallbacks += int((np.diff(idx.u_indptr) == 1).sum())
        if config.downlink_range == (1.0, 5.0):
            assert fallbacks == 60 * self.USERS

    def test_empty_catalog_refused(self):
        with pytest.raises(ValidationError, match="catalog"):
            draw_population_arrays(3, [], seed=0)


def _draw(target, call):
    """Apply one scripted call to a Generator or a RawDraws."""
    kind, arg = call
    if kind == "random":
        return target.random()
    if kind == "uniform":
        return target.uniform(*arg)
    if isinstance(target, RawDraws):
        return target.integers(arg)
    return int(target.integers(0, arg))


CALLS = st.one_of(
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("uniform"), st.tuples(
        st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(sorted)),
    st.tuples(st.just("integers"), st.integers(1, 64)),
)


class TestRawDraws:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        warm=st.booleans(),
        block=st.integers(1, 40),
        calls=st.lists(CALLS, max_size=120),
    )
    def test_replays_generator_calls(self, seed, warm, block, calls):
        rng = np.random.default_rng(seed)
        mirror = np.random.default_rng(seed)
        if warm:  # leave a buffered 32-bit half-word in the generator
            assert rng.integers(0, 5) == mirror.integers(0, 5)
        draws = RawDraws(mirror, block)
        for call in calls:
            assert _draw(draws, call) == _draw(rng, call), call

    @pytest.mark.parametrize("n", [3 * 2**30 + 7, 2**31 + 1, 2**32 - 1])
    def test_lemire_rejection_and_block_extension(self, n):
        # Thresholds near 2³¹ reject about half the 32-bit draws, so a
        # one-word block must keep growing.
        rng = np.random.default_rng(11)
        draws = RawDraws(np.random.default_rng(11), 1)
        for _ in range(300):
            assert draws.integers(n) == rng.integers(0, n)
            assert draws.random() == rng.random()

    def test_gated_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        draws = RawDraws(np.random.default_rng(4), 3)
        for _ in range(50):
            rounds, seconds = draws.gated(17, 0.6)
            noise = draws.uniform_at(np.array(seconds, dtype=np.int64), 0.5, 1.5)
            expected = [(r, rng.uniform(0.5, 1.5)) for r in range(17) if rng.random() < 0.6]
            assert list(zip(rounds, noise.tolist())) == expected
            assert draws.integers(7) == rng.integers(0, 7)

    def test_only_pcg64(self):
        with pytest.raises(TypeError, match="PCG64"):
            RawDraws(np.random.Generator(np.random.MT19937(0)), 4)


def _u_stream_bytes(hashseed: str) -> bytes:
    code = (
        "import sys\n"
        "from repro.core.indexed import index_instance\n"
        "from repro.instances.workloads import cable_headend_workload\n"
        "idx = index_instance(cable_headend_workload(30, 4, 6, seed=5))\n"
        "sys.stdout.buffer.write(idx.u_stream.tobytes())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout


def test_gateway_channel_order_ignores_hash_seed():
    """A gateway's channels keep first-seen order under any PYTHONHASHSEED."""
    first = _u_stream_bytes("1")
    assert first and first == _u_stream_bytes("2")
