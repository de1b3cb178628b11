"""Runtime configuration: one resolver for every engine switch.

The repo has three pluggable-engine seams.  Each engine is chosen by
the ``engine=`` argument of the seam's front doors, the matching CLI
flag or a spec field, never by the environment:

==========  =======================  ==============  ==========
kind        selects                  spec field      default
==========  =======================  ==============  ==========
solver      solver hot paths         ``engine``      indexed
generation  instance draw path       ``gen_engine``  vectorized
simulation  trace draw and replay    ``sim_engine``  indexed
==========  =======================  ==============  ==========

The solver seam has two engines: ``dict`` (the original string-keyed
implementations, the reference oracle) and ``indexed`` (the vectorized
kernels, the default).  Both produce bit-identical traces.  Under
``indexed``, Greedy runs the single-pick kernel or the multi-pick
rounds of :mod:`repro.core.batched`, whichever
:func:`repro.core.greedy.greedy_kernel_for` picks from the instance's
shape; that choice has no switch.

The simulation seam has three engines: ``dict`` (the original
string-keyed event loop, the reference oracle), ``indexed``
(:mod:`repro.sim.indexed`, the array-native decision-point kernel that
skips no-decision event runs wholesale, the default) and ``batched``
(:mod:`repro.sim.kernel`, the same kernel answering order-free
policies through a decision map built from their vectorized
``on_offer_batch``); all three produce float-identical reports on a
common trace.

:func:`resolve_engine_setting` is the single resolver; the historical
front doors (:func:`repro.core.indexed.resolve_engine`,
:func:`repro.instances.vectorized.resolve_gen_engine`,
:func:`repro.sim.indexed.resolve_sim_engine`) delegate here.  The
other ``resolve_*`` functions validate settings that arrive from
outside the program (CLI flags, spec fields, constructor arguments)
and fill in their constant defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class EngineSetting:
    """One pluggable-engine seam: its default and choices.

    Attributes
    ----------
    kind:
        The registry key (``"solver"``, ``"generation"``,
        ``"simulation"``).
    label:
        Human-readable name used in error messages (kept identical to
        the pre-consolidation resolvers so existing matches hold).
    default:
        Engine used when no argument names one.
    choices:
        Valid engine names for this seam.
    """

    kind: str
    label: str
    default: str
    choices: "tuple[str, ...]"


#: Every pluggable-engine seam in the repo, by kind.
ENGINE_SETTINGS: "dict[str, EngineSetting]" = {
    "solver": EngineSetting(
        kind="solver",
        label="engine",
        default="indexed",
        choices=("indexed", "dict"),
    ),
    "generation": EngineSetting(
        kind="generation",
        label="generation engine",
        default="vectorized",
        choices=("vectorized", "loop"),
    ),
    "simulation": EngineSetting(
        kind="simulation",
        label="simulation engine",
        default="indexed",
        choices=("indexed", "dict", "batched"),
    ),
}


#: Events per append chunk when nothing overrides it: large enough that
#: per-chunk numpy overhead vanishes, small enough that a draw holds a
#: few MB of arrays rather than the whole trace.
DEFAULT_STORE_CHUNK = 262_144


def resolve_store_window(value: "float | None" = None) -> "float | None":
    """Resolve the trace-store replay window (time units per window).

    ``None`` means no windowing: the store replays monolithically.  A
    window must be a positive finite number; anything else raises
    :class:`~repro.exceptions.ValidationError` loudly.
    """
    if value is None:
        return None
    try:
        window = float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad store window {value!r}; need a positive number of time units"
        ) from None
    if not math.isfinite(window) or window <= 0:
        raise ValidationError(
            f"bad store window {window!r}; need a positive finite number"
        )
    return window


def resolve_store_chunk(value: "int | None" = None) -> int:
    """Resolve the store-writer chunk size (events per append batch).

    ``None`` means :data:`DEFAULT_STORE_CHUNK`.  Must be a positive
    integer.
    """
    if value is None:
        return DEFAULT_STORE_CHUNK
    try:
        chunk = int(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad store chunk {value!r}; need a positive integer event count"
        ) from None
    if chunk < 1:
        raise ValidationError(f"store chunk must be >= 1, got {chunk}")
    return chunk


#: Valid WAL durability levels for the admission service: ``fsync``
#: forces every commit to disk before acknowledging (survives power
#: loss); ``flush`` stops at the OS page cache (survives process death
#: — e.g. SIGKILL — but not the machine losing power).
SERVE_DURABILITIES = ("fsync", "flush")

#: Hard ceiling on the group-commit batch size: large enough that the
#: fsync share per decision vanishes, small enough that a torn batch
#: stays a bounded repair.
MAX_COMMIT_BATCH = 4096


def resolve_durability(value: "str | None" = None) -> str:
    """Resolve the service WAL durability level (``None`` = ``"fsync"``).

    Anything outside :data:`SERVE_DURABILITIES` raises
    :class:`~repro.exceptions.ValidationError` loudly.
    """
    raw = "fsync" if value is None else value
    if raw not in SERVE_DURABILITIES:
        raise ValidationError(
            f"unknown WAL durability {raw!r}; pick one of {SERVE_DURABILITIES}"
        )
    return raw


def resolve_commit_batch(value: "int | None" = None) -> int:
    """Resolve the group-commit batch size (decisions per WAL fsync).

    ``None`` means 1, the degenerate batch — bit-identical to the
    pre-group-commit service.  Must be an integer in
    ``[1, MAX_COMMIT_BATCH]``; junk is loud.
    """
    if value is None:
        return 1
    try:
        batch = int(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad commit batch {value!r}; need a positive integer decision count"
        ) from None
    if not 1 <= batch <= MAX_COMMIT_BATCH:
        raise ValidationError(
            f"commit batch must be in [1, {MAX_COMMIT_BATCH}], got {batch}"
        )
    return batch


def resolve_engine_setting(
    kind: str, value: "str | None" = None, default: "str | None" = None
) -> str:
    """Resolve an engine choice.

    Precedence: explicit ``value`` argument > ``default`` (the per-call
    default some seams use, e.g. the dict-returning ``random_*``
    families defaulting to the seed-compatible loop engine) > the
    seam's registered default.

    Raises :class:`~repro.exceptions.ValidationError` for unknown kinds
    and for engine names outside the seam's choices.
    """
    setting = ENGINE_SETTINGS.get(kind)
    if setting is None:
        raise ValidationError(
            f"unknown engine kind {kind!r}; pick one of {tuple(ENGINE_SETTINGS)}"
        )
    chosen = value if value is not None else default or setting.default
    if chosen not in setting.choices:
        raise ValidationError(
            f"unknown {setting.label} {chosen!r}; pick one of {setting.choices}"
        )
    return chosen
