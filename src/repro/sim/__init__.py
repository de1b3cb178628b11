"""Discrete-event simulation substrate for video distribution.

The paper evaluates nothing empirically; its deployment story (Fig. 1 —
a head-end or gateway admitting multicast streams under bandwidth,
processing and port budgets) is what this substrate simulates, so that
the *online* algorithm of §5 and the threshold baseline of §1 can be
compared in a dynamic setting with stream arrivals and departures.

- :mod:`repro.sim.engine` — a minimal generator-based discrete-event
  engine (simpy is not available offline; this is self-contained and
  unit-tested on its own), plus the calendar-light replay order for
  pre-drawn traces.
- :mod:`repro.sim.policies` — online admission policies: threshold,
  exponential-cost (Algorithm *Allocate*), static density, random.
- :mod:`repro.sim.simulation` — the video-distribution simulation:
  Poisson stream arrivals with exponential lifetimes, utility accrual
  per receiving user per unit time; the engine-dispatching front doors
  (:func:`~repro.sim.simulation.simulate_trace`,
  :func:`~repro.sim.simulation.compare_policies`).
- :mod:`repro.sim.indexed` — the array-native simulation engine:
  vectorized trace drawing and a decision-point replay kernel on the
  :class:`~repro.core.indexed.IndexedInstance` arrays that skips
  no-decision event runs wholesale, so 10⁶-event traces replay in
  Python time proportional to the number of policy decisions (the
  default; ``engine="dict"`` selects the original).
- :mod:`repro.sim.kernel` — ``engine="batched"``: the same kernel
  plus a decision map that answers order-free policies once per state
  epoch, with float-identical reports.
- :mod:`repro.sim.store` — the out-of-core columnar trace store:
  append-friendly one-``.npy``-per-column writer with a torn-tail-safe
  manifest, zero-copy mmap reopen behind the
  :class:`~repro.sim.indexed.IndexedTrace` API, and windowed streaming
  replay (:func:`~repro.sim.simulation.simulate_store`) that stitches
  live sessions across window edges float-identically, so 10⁸-event
  traces replay in bounded memory.
- :mod:`repro.sim.metrics` — time-weighted statistics and reports.
"""

from repro.sim.engine import Engine, Process, Timeout
from repro.sim.indexed import (
    IndexedTrace,
    IndexedVideoSim,
    draw_trace_arrays,
    resolve_sim_engine,
)
from repro.sim.metrics import ColumnarTimeWeighted, SimulationReport, TimeWeightedValue
from repro.sim.policies import (
    AdmissionPolicy,
    AllocatePolicy,
    DensityPolicy,
    RandomPolicy,
    ThresholdPolicy,
)
from repro.sim.simulation import (
    ArrivalModel,
    VideoDistributionSim,
    compare_policies,
    draw_trace,
    simulate_store,
    simulate_trace,
)
from repro.sim.store import (
    TraceStore,
    TraceStoreWriter,
    draw_trace_to_store,
    write_trace,
)

__all__ = [
    "Engine",
    "Process",
    "Timeout",
    "SimulationReport",
    "TimeWeightedValue",
    "ColumnarTimeWeighted",
    "AdmissionPolicy",
    "AllocatePolicy",
    "DensityPolicy",
    "RandomPolicy",
    "ThresholdPolicy",
    "ArrivalModel",
    "VideoDistributionSim",
    "IndexedTrace",
    "IndexedVideoSim",
    "TraceStore",
    "TraceStoreWriter",
    "draw_trace",
    "draw_trace_arrays",
    "draw_trace_to_store",
    "write_trace",
    "simulate_trace",
    "simulate_store",
    "compare_policies",
    "resolve_sim_engine",
]
