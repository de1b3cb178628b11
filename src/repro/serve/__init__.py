"""Crash-safe live admission service around :class:`~repro.core.allocate.OnlineAllocator`.

The paper's §5 online algorithm becomes a *system* here: a long-lived
asyncio HTTP/JSON service whose every state-changing decision is
durable, idempotent, chaos-tested, and shed-instead-of-queued under
overload.

Layers (one module each):

- :mod:`repro.serve.wal` — the append-only decision WAL: one
  checksummed JSONL record per state-changing offer/release, fsync'd
  per append, torn tails repaired loudly;
- :mod:`repro.serve.snapshot` — periodic atomic snapshots of the full
  allocator state (write data, then commit a checksummed manifest —
  the :mod:`repro.sim.store` pattern via :mod:`repro.util.atomic`);
- :mod:`repro.serve.service` — :class:`~repro.serve.service.AdmissionCore`,
  the durable single-writer state machine (offer / release /
  idempotency / snapshot / restore);
- :mod:`repro.serve.faults` — the deterministic, seedable
  fault-injection harness (latency, torn writes, fsync failures,
  simulated crashes and power loss, dropped/duplicated requests);
- :mod:`repro.serve.http` — the asyncio HTTP/1.1 front door with one
  single-writer thread, **group-commit** WAL batching (one fsync per
  batch, acknowledgements strictly after the shared sync), a bounded
  admission queue and explicit load shedding;
- :mod:`repro.serve.client` — a retrying client (timeouts, capped
  exponential backoff with jitter, idempotency-key reuse);
- :mod:`repro.serve.replay` — the trace driver used by the chaos suite
  and the throughput benchmark (simulator-identical decision order,
  crash-resumable stitching).

Restore contract: ``snapshot + WAL tail`` replayed onto a fresh
allocator is **bit-identical** (``state_digest`` equality, which covers
the ``µ^L`` charge caches rebuilt from the snapshot's loads) to the
uninterrupted allocator — fuzzed under injected crashes and real
``SIGKILL`` in ``tests/test_serve_chaos.py``.
"""

from __future__ import annotations

from repro.serve.faults import (
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    InjectedFsyncError,
)
from repro.serve.service import AdmissionCore, ServeConfig, ServeFailure
from repro.serve.wal import DecisionWal, read_wal, repair_wal

__all__ = [
    "AdmissionCore",
    "ServeConfig",
    "ServeFailure",
    "DecisionWal",
    "read_wal",
    "repair_wal",
    "FaultPlan",
    "InjectedFault",
    "InjectedCrash",
    "InjectedFsyncError",
]
