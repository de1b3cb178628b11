"""Synthetic user populations with Zipf channel preferences.

A user's utility for a channel combines:

- global popularity: Zipf in the channel's popularity rank (TV viewing
  is famously heavy-tailed);
- genre affinity: each user has a preferred-genre multiplier;
- idiosyncratic noise.

Users come in two flavors matching the paper's Fig. 1: *households*
(modest downlink, modest utility) and neighborhood *video gateways*
(large downlink, utilities aggregated over many homes).  The single
capacity measure is downlink bandwidth, loaded by each stream's bitrate
— utilities and loads are deliberately *not* proportional, which is what
gives realistic workloads their nontrivial local skew.

:func:`build_population` builds :class:`~repro.core.instance.User`
objects one RNG call at a time and is the reference.
:func:`draw_population_arrays` draws the same population as user-major
CSR arrays from one block of raw generator words
(:class:`~repro.util.rng.RawDraws`), value for value and in the same row
order, without a single ``User``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.instance import Stream, User
from repro.exceptions import ValidationError
from repro.util.rng import RawDraws, ensure_rng


@dataclass
class PopulationConfig:
    """Knobs for :func:`build_population`.

    Attributes
    ----------
    zipf_exponent:
        Popularity decay ``s``: utility base ``∝ 1/(rank+1)^s``.
    interest_probability:
        Chance a user cares about a channel at all (sparsity).
    genre_affinity:
        Multiplier applied to channels of the user's favorite genre.
    downlink_range:
        Downlink capacity (Mbit/s) drawn uniformly from this range.
    utility_scale:
        Scales all utilities (e.g. revenue units per household).
    utility_cap_fraction:
        ``W_u`` as a fraction of the user's total utility
        (``math.inf`` disables the cap — the formal §1.1 model).
    """

    zipf_exponent: float = 1.0
    interest_probability: float = 0.7
    genre_affinity: float = 3.0
    downlink_range: "tuple[float, float]" = (20.0, 60.0)
    utility_scale: float = 10.0
    utility_cap_fraction: float = math.inf


def build_population(
    num_users: int,
    catalog: Sequence[Stream],
    seed: "int | np.random.Generator | None" = None,
    config: "PopulationConfig | None" = None,
    user_prefix: str = "home",
) -> "list[User]":
    """Build ``num_users`` users over the given catalog.

    Each user's loads are the channel bitrates on his single downlink
    capacity measure; his capacity is sized to fit at least the largest
    single channel (the paper's ``w_u(S) = 0 if k_u(S) > K_u``
    convention would otherwise zero the utility).
    """
    if not catalog:
        raise ValidationError("catalog must not be empty")
    cfg = config or PopulationConfig()
    rng = ensure_rng(seed)
    genres = sorted({str(s.attrs.get("genre", "general")) for s in catalog})
    users = []
    for j in range(num_users):
        favorite = genres[int(rng.integers(0, len(genres)))]
        downlink = float(rng.uniform(*cfg.downlink_range))
        utilities: dict[str, float] = {}
        loads: dict[str, tuple[float, ...]] = {}
        for s in catalog:
            if rng.random() >= cfg.interest_probability:
                continue
            rank = int(s.attrs.get("rank", 0))
            bitrate = float(s.attrs.get("bitrate", s.costs[0]))
            base = 1.0 / (rank + 1.0) ** cfg.zipf_exponent
            affinity = cfg.genre_affinity if s.attrs.get("genre") == favorite else 1.0
            noise = float(rng.uniform(0.5, 1.5))
            utility = cfg.utility_scale * base * affinity * noise
            if bitrate > downlink:
                continue  # w_u(S) = 0 when a single stream exceeds capacity
            utilities[s.stream_id] = utility
            loads[s.stream_id] = (bitrate,)
        if not utilities:
            # Guarantee at least one interest: the cheapest channel.
            cheapest = min(catalog, key=lambda s: float(s.attrs.get("bitrate", s.costs[0])))
            bitrate = float(cheapest.attrs.get("bitrate", cheapest.costs[0]))
            downlink = max(downlink, bitrate)
            utilities[cheapest.stream_id] = cfg.utility_scale * 0.1
            loads[cheapest.stream_id] = (bitrate,)
        total = sum(utilities.values())
        if math.isinf(cfg.utility_cap_fraction):
            cap = math.inf
        else:
            cap = max(
                cfg.utility_cap_fraction * total, max(utilities.values())
            )
        users.append(
            User(
                user_id=f"{user_prefix}{j:03d}",
                utility_cap=cap,
                capacities=(downlink,),
                utilities=utilities,
                loads=loads,
                attrs={"favorite_genre": favorite, "downlink": downlink},
            )
        )
    return users


def aggregate_gateway(
    households: Sequence[User],
    gateway_id: str,
    uplink: float,
) -> User:
    """Aggregate households into one neighborhood gateway user.

    The gateway's utility for a channel is the sum over its households;
    its single capacity measure is the shared uplink, loaded once per
    channel (multicast within the neighborhood).
    """
    if not households:
        raise ValidationError("a gateway needs at least one household")
    utilities: dict[str, float] = {}
    loads: dict[str, tuple[float, ...]] = {}
    for home in households:
        for sid, w in home.utilities.items():
            utilities[sid] = utilities.get(sid, 0.0) + w
            loads[sid] = home.loads.get(sid, (0.0,))
    # Drop channels whose single-stream load exceeds the uplink.  The
    # survivors keep first-seen order: filtering through a set would
    # order them by string hash, which varies with PYTHONHASHSEED.
    keep = [sid for sid in utilities if loads.get(sid, (0.0,))[0] <= uplink]
    return User(
        user_id=gateway_id,
        utility_cap=math.inf,
        capacities=(uplink,),
        utilities={sid: utilities[sid] for sid in keep},
        loads={sid: loads[sid] for sid in keep},
        attrs={"kind": "gateway", "households": len(households)},
    )


@dataclass
class PopulationArrays:
    """A population as user-major CSR arrays.

    Row ``u`` holds user ``u``'s channels at ``indptr[u]:indptr[u+1]``,
    in the order :func:`build_population` inserts them into the user's
    utilities dict.

    Attributes
    ----------
    downlinks:
        ``(U,)`` single-measure capacities: household downlinks (raised
        to the fallback channel's bitrate where the fallback ran), or
        gateway uplinks.
    utility_caps:
        ``(U,)`` caps ``W_u`` (``inf`` when uncapped).
    indptr:
        ``(U + 1,)`` row offsets.
    channels:
        ``(nnz,)`` catalog positions; a pair's load is its channel's
        bitrate (:func:`channel_bitrates`).
    utilities:
        ``(nnz,)`` utilities.
    """

    downlinks: np.ndarray
    utility_caps: np.ndarray
    indptr: np.ndarray
    channels: np.ndarray
    utilities: np.ndarray


def channel_bitrates(catalog: Sequence[Stream]) -> np.ndarray:
    """Each channel's bitrate: the downlink load a population puts on it."""
    return np.array(
        [float(s.attrs.get("bitrate", s.costs[0])) for s in catalog], dtype=np.float64
    )


def draw_population_arrays(
    num_users: int,
    catalog: Sequence[Stream],
    seed: "int | np.random.Generator | None" = None,
    config: "PopulationConfig | None" = None,
) -> PopulationArrays:
    """:func:`build_population` as arrays: the same values, drawn in bulk.

    The generator's words are fetched in one block and replayed through
    :class:`~repro.util.rng.RawDraws`: per user the favorite genre
    (``integers``), the downlink (``uniform``), then one ``random()``
    interest test per channel, followed by a noise draw when it passes —
    the exact call sequence of :func:`build_population`, so every array
    equals what lowering its users gives.  The generator is advanced by
    whole blocks, so it must not be shared with later draws.
    """
    if not catalog:
        raise ValidationError("catalog must not be empty")
    cfg = config or PopulationConfig()
    rng = ensure_rng(seed)
    genres = sorted({str(s.attrs.get("genre", "general")) for s in catalog})
    num_channels = len(catalog)
    bitrates = channel_bitrates(catalog)
    # scale·base per channel, in Python floats so the product order is
    # build_population's ``scale * base * affinity * noise``.
    weights = np.array([
        cfg.utility_scale
        * (1.0 / (int(s.attrs.get("rank", 0)) + 1.0) ** cfg.zipf_exponent)
        for s in catalog
    ])
    affinity = np.array([
        [cfg.genre_affinity if s.attrs.get("genre") == genre else 1.0 for s in catalog]
        for genre in genres
    ])

    users = range(num_users)
    draws = RawDraws(rng, len(users) * (2 + 2 * num_channels))
    favorites: "list[int]" = []
    downlinks: "list[float]" = []
    counts: "list[int]" = []
    channels: "list[int]" = []
    positions: "list[int]" = []
    for _ in users:
        favorites.append(draws.integers(len(genres)))
        downlinks.append(draws.uniform(*cfg.downlink_range))
        rounds, seconds = draws.gated(num_channels, cfg.interest_probability)
        counts.append(len(rounds))
        channels += rounds
        positions += seconds

    num = len(users)
    user_of = np.repeat(np.arange(num, dtype=np.int64), counts)
    channel = np.array(channels, dtype=np.int64)
    noise = draws.uniform_at(np.array(positions, dtype=np.int64), 0.5, 1.5)
    favorite = np.array(favorites, dtype=np.int64)[user_of]
    utility = weights[channel] * affinity[favorite, channel] * noise
    downlink = np.array(downlinks, dtype=np.float64)
    # w_u(S) = 0 when a single stream exceeds capacity.
    keep = ~(bitrates[channel] > downlink[user_of])
    user_of, channel, utility = user_of[keep], channel[keep], utility[keep]

    # Guarantee at least one interest: the cheapest channel.
    empty = np.flatnonzero(np.bincount(user_of, minlength=num) == 0)
    if empty.size:
        cheapest = min(range(num_channels), key=bitrates.tolist().__getitem__)
        downlink[empty] = np.maximum(downlink[empty], bitrates[cheapest])
        at = np.searchsorted(user_of, empty)
        user_of = np.insert(user_of, at, empty)
        channel = np.insert(channel, at, cheapest)
        utility = np.insert(utility, at, cfg.utility_scale * 0.1)

    indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(np.bincount(user_of, minlength=num), out=indptr[1:])
    if math.isinf(cfg.utility_cap_fraction):
        caps = np.full(num, math.inf)
    else:
        # Python's sum and max over each row, as build_population takes them.
        caps = np.array([
            max(cfg.utility_cap_fraction * sum(row), max(row))
            for row in (utility[indptr[u]:indptr[u + 1]].tolist() for u in range(num))
        ], dtype=np.float64)
    return PopulationArrays(
        downlinks=downlink,
        utility_caps=caps,
        indptr=indptr,
        channels=channel,
        utilities=utility,
    )
