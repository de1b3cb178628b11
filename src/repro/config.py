"""Runtime configuration: one resolver for every engine switch.

The repo grew three pluggable-engine seams, each with its own
environment override:

==========  =======================  ====================  ==========
kind        selects                  env override          default
==========  =======================  ====================  ==========
solver      solver hot paths         ``$REPRO_ENGINE``     indexed
generation  instance draw path       ``$REPRO_GEN_ENGINE`` vectorized
simulation  trace draw and replay    ``$REPRO_SIM_ENGINE`` indexed
==========  =======================  ====================  ==========

The solver seam has three engines: ``dict`` (the original string-keyed
implementations), ``indexed`` (vectorized single-pick kernels, the
default) and ``batched`` (:mod:`repro.core.batched`, multi-pick greedy
rounds).  All three produce bit-identical traces.

The simulation seam has three engines: ``dict`` (the original
string-keyed event loop, the reference oracle), ``indexed``
(:mod:`repro.sim.indexed`, the array-native decision-point kernel that
skips no-decision event runs wholesale, the default) and ``batched``
(:mod:`repro.sim.kernel`, the same kernel answering order-free
policies through a decision map built from their vectorized
``on_offer_batch``); all three produce float-identical reports on a
common trace.

Before this module each seam duplicated the same resolution logic
(explicit argument > environment variable > default) in its own file.
:func:`resolve_engine_setting` is now the single implementation; the
historical front doors (:func:`repro.core.indexed.resolve_engine`,
:func:`repro.instances.vectorized.resolve_gen_engine`,
:func:`repro.sim.indexed.resolve_sim_engine`) delegate here, and the
old environment variable names are honored unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class EngineSetting:
    """One pluggable-engine seam: its env override, default and choices.

    Attributes
    ----------
    kind:
        The registry key (``"solver"``, ``"generation"``,
        ``"simulation"``).
    label:
        Human-readable name used in error messages (kept identical to
        the pre-consolidation resolvers so existing matches hold).
    env:
        Environment variable consulted when no explicit value is given.
    default:
        Engine used when neither an argument nor the env var is set.
    choices:
        Valid engine names for this seam.
    """

    kind: str
    label: str
    env: str
    default: str
    choices: "tuple[str, ...]"


#: Every pluggable-engine seam in the repo, by kind.
ENGINE_SETTINGS: "dict[str, EngineSetting]" = {
    "solver": EngineSetting(
        kind="solver",
        label="engine",
        env="REPRO_ENGINE",
        default="indexed",
        choices=("indexed", "dict", "batched"),
    ),
    "generation": EngineSetting(
        kind="generation",
        label="generation engine",
        env="REPRO_GEN_ENGINE",
        default="vectorized",
        choices=("vectorized", "loop"),
    ),
    "simulation": EngineSetting(
        kind="simulation",
        label="simulation engine",
        env="REPRO_SIM_ENGINE",
        default="indexed",
        choices=("indexed", "dict", "batched"),
    ),
}


#: Environment variable naming the default trace-store replay window
#: (simulated time units per streamed window; unset = monolithic replay).
STORE_WINDOW_ENV = "REPRO_STORE_WINDOW"

#: Environment variable naming the default store-writer chunk size
#: (events drawn/appended per batch by the bounded-memory writers).
STORE_CHUNK_ENV = "REPRO_STORE_CHUNK"

#: Events per append chunk when nothing overrides it: large enough that
#: per-chunk numpy overhead vanishes, small enough that a draw holds a
#: few MB of arrays rather than the whole trace.
DEFAULT_STORE_CHUNK = 262_144


def resolve_store_window(value: "float | None" = None) -> "float | None":
    """Resolve the trace-store replay window (time units per window).

    Precedence: explicit ``value`` > ``$REPRO_STORE_WINDOW`` > ``None``
    (no windowing — the store replays monolithically).  A window must be
    a positive finite number; anything else — including junk smuggled in
    through the environment variable — raises
    :class:`~repro.exceptions.ValidationError` loudly.
    """
    raw: "float | str | None" = value
    if raw is None:
        raw = os.environ.get(STORE_WINDOW_ENV)
        if raw is None:
            return None
    try:
        window = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad store window {raw!r}; need a positive number of time units"
        ) from None
    if not math.isfinite(window) or window <= 0:
        raise ValidationError(
            f"bad store window {window!r}; need a positive finite number"
        )
    return window


def resolve_store_chunk(value: "int | None" = None) -> int:
    """Resolve the store-writer chunk size (events per append batch).

    Precedence: explicit ``value`` > ``$REPRO_STORE_CHUNK`` >
    :data:`DEFAULT_STORE_CHUNK`.  Must be a positive integer.
    """
    raw: "int | str | None" = value
    if raw is None:
        raw = os.environ.get(STORE_CHUNK_ENV)
        if raw is None:
            return DEFAULT_STORE_CHUNK
    try:
        chunk = int(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad store chunk {raw!r}; need a positive integer event count"
        ) from None
    if chunk < 1:
        raise ValidationError(f"store chunk must be >= 1, got {chunk}")
    return chunk


#: Environment variable naming the commits/releases between defensive
#: full recomputes of :class:`~repro.core.allocate.OnlineAllocator`'s
#: cached exponential charges (the float-drift guard).
CHARGE_RESYNC_ENV = "REPRO_CHARGE_RESYNC"

#: Default resync interval: frequent enough to pin the bit-wise-no-op
#: invariant at runtime, rare enough to vanish in 10⁶-event replays.
DEFAULT_CHARGE_RESYNC = 4096


def resolve_charge_resync(value: "int | None" = None) -> int:
    """Resolve the allocator's charge-resync interval (ops per resync).

    Precedence: explicit ``value`` > ``$REPRO_CHARGE_RESYNC`` >
    :data:`DEFAULT_CHARGE_RESYNC`.  Must be a positive integer;
    anything else — including junk smuggled in through the environment
    variable — raises :class:`~repro.exceptions.ValidationError` loudly
    rather than silently disabling the drift guard.
    """
    raw: "int | str | None" = value
    if raw is None:
        raw = os.environ.get(CHARGE_RESYNC_ENV)
        if raw is None:
            return DEFAULT_CHARGE_RESYNC
    try:
        interval = int(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad charge resync interval {raw!r}; need a positive integer "
            "number of commits/releases"
        ) from None
    if interval < 1:
        raise ValidationError(
            f"charge resync interval must be >= 1, got {interval}"
        )
    return interval


#: Valid WAL durability levels for the admission service: ``fsync``
#: forces every commit to disk before acknowledging (survives power
#: loss); ``flush`` stops at the OS page cache (survives process death
#: — e.g. SIGKILL — but not the machine losing power).
SERVE_DURABILITIES = ("fsync", "flush")

#: Environment variable naming the admission service's WAL durability
#: level when ``--durability`` is not passed explicitly.
SERVE_DURABILITY_ENV = "REPRO_SERVE_DURABILITY"

#: Environment variable naming the group-commit batch size (decisions
#: per WAL fsync).  1 = today's one-fsync-per-decision behavior.
COMMIT_BATCH_ENV = "REPRO_COMMIT_BATCH"

#: Environment variable naming the group-commit linger (milliseconds a
#: shallow queue waits for company before committing).
COMMIT_LINGER_ENV = "REPRO_COMMIT_LINGER_MS"

#: Hard ceiling on the group-commit batch size: large enough that the
#: fsync share per decision vanishes, small enough that a torn batch
#: stays a bounded repair.
MAX_COMMIT_BATCH = 4096


def resolve_durability(value: "str | None" = None) -> str:
    """Resolve the service WAL durability level.

    Precedence: explicit ``value`` > ``$REPRO_SERVE_DURABILITY`` >
    ``"fsync"``.  Anything outside :data:`SERVE_DURABILITIES` —
    including junk smuggled in through the environment variable —
    raises :class:`~repro.exceptions.ValidationError` loudly.
    """
    raw = value
    if raw is None:
        raw = os.environ.get(SERVE_DURABILITY_ENV, "fsync")
    if raw not in SERVE_DURABILITIES:
        raise ValidationError(
            f"unknown WAL durability {raw!r}; pick one of {SERVE_DURABILITIES}"
        )
    return raw


def resolve_commit_batch(value: "int | None" = None) -> int:
    """Resolve the group-commit batch size (decisions per WAL fsync).

    Precedence: explicit ``value`` > ``$REPRO_COMMIT_BATCH`` > 1 (the
    degenerate batch — bit-identical to the pre-group-commit service).
    Must be an integer in ``[1, MAX_COMMIT_BATCH]``; junk is loud.
    """
    raw: "int | str | None" = value
    if raw is None:
        raw = os.environ.get(COMMIT_BATCH_ENV)
        if raw is None:
            return 1
    try:
        batch = int(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad commit batch {raw!r}; need a positive integer decision count"
        ) from None
    if not 1 <= batch <= MAX_COMMIT_BATCH:
        raise ValidationError(
            f"commit batch must be in [1, {MAX_COMMIT_BATCH}], got {batch}"
        )
    return batch


def resolve_commit_linger_ms(value: "float | None" = None) -> float:
    """Resolve the group-commit linger (milliseconds; 0 = never wait).

    Precedence: explicit ``value`` > ``$REPRO_COMMIT_LINGER_MS`` > 0.0.
    Must be a finite number in ``[0, 1000]``; junk is loud.
    """
    raw: "float | str | None" = value
    if raw is None:
        raw = os.environ.get(COMMIT_LINGER_ENV)
        if raw is None:
            return 0.0
    try:
        linger = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad commit linger {raw!r}; need milliseconds in [0, 1000]"
        ) from None
    if not math.isfinite(linger) or not 0 <= linger <= 1000:
        raise ValidationError(
            f"commit linger must be finite milliseconds in [0, 1000], got {linger}"
        )
    return linger


def resolve_engine_setting(
    kind: str, value: "str | None" = None, default: "str | None" = None
) -> str:
    """Resolve an engine choice with the shared precedence.

    Precedence: explicit ``value`` argument > the seam's environment
    variable > ``default`` (the per-call default override some seams
    use, e.g. the dict-returning ``random_*`` families defaulting to the
    seed-compatible loop engine) > the seam's registered default.

    Raises :class:`~repro.exceptions.ValidationError` for unknown kinds
    and for engine names outside the seam's choices (including invalid
    values smuggled in through the environment variable).
    """
    setting = ENGINE_SETTINGS.get(kind)
    if setting is None:
        raise ValidationError(
            f"unknown engine kind {kind!r}; pick one of {tuple(ENGINE_SETTINGS)}"
        )
    chosen = value
    if chosen is None:
        chosen = os.environ.get(setting.env, default or setting.default)
    if chosen not in setting.choices:
        raise ValidationError(
            f"unknown {setting.label} {chosen!r}; pick one of {setting.choices}"
        )
    return chosen
