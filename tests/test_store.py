"""Out-of-core trace store: round-trips, stitching, crash safety, memory.

The stitching-correctness pack for :mod:`repro.sim.store`:

- property-based round trips — hypothesis-generated traces written to a
  store, reopened via mmap, and required to come back *byte*-identical
  column by column, with :class:`~repro.sim.metrics.SimulationReport`
  parity across all three engines (plus empty / single-event / unsorted
  edge cases);
- boundary-stitching regressions — crafted traces whose sessions span
  window edges, depart exactly on a boundary, have zero duration at the
  boundary, or tie arrivals against crossing departures, replayed
  windowed and required float-identical to the monolithic replay for
  every engine and several window widths;
- crash safety — a torn tail (partial final record) must repair to the
  last complete row on reopen, and a resumed append must reproduce the
  uninterrupted write byte-for-byte;
- bounded memory — :func:`~repro.sim.store.draw_trace_to_store` must
  draw arbitrarily long traces in chunk-sized peak memory (tracemalloc
  regression), deterministically under a fixed ``(seed, chunk)``.
"""

from __future__ import annotations

import json
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.instances.generators import random_mmd
from repro.sim.indexed import IndexedTrace
from repro.sim.policies import (
    AllocatePolicy,
    DensityPolicy,
    RandomPolicy,
    ThresholdPolicy,
)
from repro.sim.simulation import ArrivalModel, draw_trace, simulate_trace
from repro.sim.simulation import simulate_store
from repro.sim.store import (
    HEADER_BYTES,
    TraceStore,
    TraceStoreWriter,
    draw_trace_to_store,
    write_trace,
)
from repro.sim.trace import store_events

ENGINES = ("dict", "indexed", "batched")

#: Engines with a windowed ``run_store`` of their own (the dict oracle
#: goes through the monolithic fallback inside :func:`simulate_store`).
WINDOWED_ENGINES = ("indexed", "batched")

POLICY_FACTORIES = {
    "threshold": lambda: ThresholdPolicy(margin=1.0),
    "allocate": lambda: AllocatePolicy(),
    "density": lambda: DensityPolicy(quantile=0.5),
    "random": lambda: RandomPolicy(p=0.6, seed=3),
}

NUM_STREAMS = 8
HORIZON = 60.0


@pytest.fixture(scope="module")
def instance():
    """One shared small instance; streams indexed 0..NUM_STREAMS-1."""
    return random_mmd(num_streams=NUM_STREAMS, num_users=20, m=3, mc=2, seed=5)


def assert_reports_identical(first, second):
    """Every report field must match exactly (floats with ==)."""
    assert first.policy_name == second.policy_name
    assert first.utility_time == second.utility_time
    assert first.offered == second.offered
    assert first.admitted == second.admitted
    assert first.deliveries == second.deliveries
    assert first.policy_violations == second.policy_violations
    assert first.num_users == second.num_users
    assert first.per_user_utility == second.per_user_utility
    assert first.server_utilization == second.server_utilization
    assert first.peak_server_utilization == second.peak_server_utilization


def make_trace(rows):
    """Build an IndexedTrace from (time, stream, duration) rows."""
    if not rows:
        return IndexedTrace(
            times=np.empty(0, dtype=np.float64),
            streams=np.empty(0, dtype=np.int64),
            durations=np.empty(0, dtype=np.float64),
        )
    times, streams, durations = zip(*rows)
    return IndexedTrace(
        times=np.asarray(times, dtype=np.float64),
        streams=np.asarray(streams, dtype=np.int64),
        durations=np.asarray(durations, dtype=np.float64),
    )


@st.composite
def indexed_traces(draw, max_events=40):
    """Sorted random traces over the shared stream catalog."""
    n = draw(st.integers(min_value=0, max_value=max_events))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=4.0),
            min_size=n,
            max_size=n,
        )
    )
    streams = draw(
        st.lists(
            st.integers(min_value=0, max_value=NUM_STREAMS - 1),
            min_size=n,
            max_size=n,
        )
    )
    durations = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=25.0),
            min_size=n,
            max_size=n,
        )
    )
    times = np.cumsum(np.asarray(gaps, dtype=np.float64))
    return IndexedTrace(
        times=times if n else np.empty(0, dtype=np.float64),
        streams=np.asarray(streams, dtype=np.int64),
        durations=np.asarray(durations, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Satellite 1: property-based round trips
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(trace=indexed_traces())
def test_round_trip_byte_identical(trace, tmp_path_factory):
    """write → mmap reopen gives back byte-identical columns."""
    path = tmp_path_factory.mktemp("store") / "s"
    store = write_trace(trace, path)
    assert len(store) == len(trace)
    assert store.times.tobytes() == trace.times.tobytes()
    assert store.streams.tobytes() == trace.streams.tobytes()
    assert store.durations.tobytes() == trace.durations.tobytes()
    assert store.times.dtype == np.float64
    assert store.streams.dtype == np.int64
    assert store.sorted
    assert store.repaired_rows == 0


@settings(max_examples=10, deadline=None)
@given(trace=indexed_traces(max_events=25))
def test_round_trip_report_parity(trace, instance, tmp_path_factory):
    """A reopened store replays identically to the in-RAM trace.

    All three engines, two representative policies (one stateful with
    RNG, one stateless) — reports compared field by field with ``==``.
    """
    path = tmp_path_factory.mktemp("store") / "s"
    store = write_trace(trace, path)
    for name in ("random", "density"):
        factory = POLICY_FACTORIES[name]
        for engine in ENGINES:
            expected = simulate_trace(
                instance, factory(), trace, HORIZON, engine=engine
            )
            got = simulate_trace(instance, factory(), store, HORIZON, engine=engine)
            assert_reports_identical(expected, got)


def test_empty_trace_round_trip(instance, tmp_path):
    """Zero events: valid store, zero-length mmaps, replayable."""
    store = write_trace(make_trace([]), tmp_path / "empty")
    assert len(store) == 0
    assert store.sorted
    assert list(store.iter_windows(5.0)) == []
    report = simulate_trace(instance, ThresholdPolicy(), store, HORIZON)
    assert report.offered == 0


def test_single_event_round_trip(instance, tmp_path):
    """One event survives the trip and replays on every engine."""
    trace = make_trace([(1.5, 2, 7.0)])
    store = write_trace(trace, tmp_path / "one")
    assert np.array_equal(store.times, trace.times)
    for engine in ENGINES:
        report = simulate_trace(instance, ThresholdPolicy(), store, HORIZON,
                                engine=engine)
        assert report.offered == 1


def test_unsorted_trace_round_trip(tmp_path):
    """Unsorted appends round-trip but refuse windowed access."""
    trace = make_trace([(5.0, 0, 1.0), (2.0, 1, 1.0), (9.0, 2, 1.0)])
    store = write_trace(trace, tmp_path / "unsorted")
    assert not store.sorted
    assert store.times.tobytes() == trace.times.tobytes()
    with pytest.raises(ValidationError):
        store.window(0.0, 10.0)
    with pytest.raises(ValidationError):
        list(store.iter_windows(4.0))


def test_window_slices_partition_the_store(tmp_path):
    """Concatenating iter_windows slices reproduces the full columns."""
    trace = make_trace([(float(i) * 0.7, i % NUM_STREAMS, 2.0) for i in range(30)])
    store = write_trace(trace, tmp_path / "win")
    parts = [w.times for _, _, w in store.iter_windows(3.0)]
    assert np.array_equal(np.concatenate(parts), trace.times)
    mid = store.window(5.0, 10.0)
    lo, hi = np.searchsorted(trace.times, [5.0, 10.0])
    assert np.array_equal(mid.times, trace.times[lo:hi])


def test_store_rejects_bad_chunks(tmp_path):
    """NaN or negative times, negative durations and negative streams
    are refused."""
    with TraceStoreWriter(tmp_path / "bad") as writer:
        with pytest.raises(ValidationError):
            writer.append([float("nan")], [0], [1.0])
        with pytest.raises(ValidationError):
            writer.append([-1.0], [0], [1.0])
        with pytest.raises(ValidationError):
            writer.append([1.0], [0], [-2.0])
        with pytest.raises(ValidationError):
            writer.append([1.0], [-1], [1.0])


@pytest.mark.parametrize("bad", [NUM_STREAMS, 99])
def test_store_replay_rejects_unknown_stream_index(bad, instance, tmp_path):
    """A store naming a stream index the instance lacks fails with the
    canonical unknown-stream error under every engine, windowed or not."""
    store = write_trace(make_trace([(1.0, 0, 2.0), (2.0, bad, 2.0)]),
                        tmp_path / "s")
    for engine in ENGINES:
        for window in (None, 1.5):
            with pytest.raises(ValidationError, match="unknown stream id"):
                simulate_store(instance, ThresholdPolicy(), store, HORIZON,
                               engine=engine, window=window)


def test_store_events_bridge(instance, tmp_path):
    """SessionEvent traces stream into a store; unknown ids are loud."""
    events = draw_trace(instance, ArrivalModel(rate=2.0, mean_duration=12.0),
                        30.0, seed=4)
    store = store_events(instance, events, tmp_path / "ev", chunk=7)
    assert len(store) == len(events)
    for engine in ENGINES:
        expected = simulate_trace(instance, DensityPolicy(), events, 30.0,
                                  engine=engine)
        got = simulate_trace(instance, DensityPolicy(), store, 30.0,
                             engine=engine)
        assert_reports_identical(expected, got)
    from repro.sim.simulation import SessionEvent

    bad = [SessionEvent(time=0.0, stream_id="no-such-stream", duration=1.0)]
    with pytest.raises(ValidationError, match="unknown stream id"):
        store_events(instance, bad, tmp_path / "ev2")


# ---------------------------------------------------------------------------
# Satellite 2: boundary-stitching regressions
# ---------------------------------------------------------------------------

#: Crafted traces that aim sessions precisely at window boundaries.
#: With window widths drawn from STITCH_WINDOWS below, these cover:
#: sessions spanning an edge, departures exactly on a boundary,
#: zero-duration sessions at a boundary, and arrival/departure ties
#: straddling windows.
STITCH_TRACES = {
    "spanning": [(2.0, 0, 5.0), (3.0, 1, 0.5), (6.5, 2, 10.0), (11.0, 0, 1.0)],
    "departure-on-boundary": [(1.0, 0, 3.0), (2.0, 1, 2.0), (4.0, 2, 4.0),
                              (8.0, 3, 1.0)],
    "zero-duration-at-boundary": [(4.0, 0, 0.0), (4.0, 1, 4.0), (8.0, 2, 0.0),
                                  (8.0, 3, 2.0)],
    "tie-across-windows": [(1.0, 0, 3.0), (4.0, 1, 4.0), (4.0, 2, 1.0),
                           (4.0, 0, 4.0), (8.0, 4, 2.0), (8.0, 5, 0.0)],
    "all-resident": [(0.5, 0, 100.0), (1.5, 1, 100.0), (2.5, 2, 100.0),
                     (9.5, 3, 100.0)],
    "gap-windows": [(0.5, 0, 1.0), (25.0, 1, 30.0), (60.0 - 1e-9, 2, 5.0)],
}

STITCH_WINDOWS = (0.75, 2.0, 4.0, 13.0, 1000.0)


@pytest.mark.parametrize("name", sorted(STITCH_TRACES))
@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
def test_windowed_replay_is_float_identical(name, policy_name, instance,
                                            tmp_path):
    """Windowed store replay == monolithic replay, for every engine.

    The stitching contract: live sessions crossing a window edge are
    handed off as resident state, so the windowed report is the *same
    floats* as the monolithic one — not merely close.
    """
    trace = make_trace(STITCH_TRACES[name])
    store = write_trace(trace, tmp_path / "s")
    factory = POLICY_FACTORIES[policy_name]
    monolithic = {
        engine: simulate_trace(instance, factory(), trace, HORIZON, engine=engine)
        for engine in ENGINES
    }
    for engine in ENGINES[1:]:
        assert_reports_identical(monolithic["dict"], monolithic[engine])
    for window in STITCH_WINDOWS:
        for engine in ENGINES:
            windowed = simulate_store(instance, factory(), store, HORIZON,
                                      engine=engine, window=window)
            assert_reports_identical(monolithic[engine], windowed)


@settings(max_examples=20, deadline=None)
@given(
    trace=indexed_traces(max_events=30),
    window=st.floats(min_value=0.25, max_value=30.0),
)
def test_windowed_replay_property(trace, window, instance, tmp_path_factory):
    """Random trace × random window width: still float-identical."""
    path = tmp_path_factory.mktemp("store") / "s"
    store = write_trace(trace, path)
    for engine in WINDOWED_ENGINES:
        expected = simulate_trace(
            instance, RandomPolicy(p=0.6, seed=3), trace, HORIZON, engine=engine
        )
        got = simulate_store(
            instance, RandomPolicy(p=0.6, seed=3), store, HORIZON,
            engine=engine, window=window,
        )
        assert_reports_identical(expected, got)


def test_simulate_store_accepts_path_and_window(instance, tmp_path):
    """simulate_store opens path args; a junk window is loud."""
    trace = make_trace(STITCH_TRACES["spanning"])
    path = tmp_path / "s"
    write_trace(trace, path)
    expected = simulate_trace(instance, ThresholdPolicy(), trace, HORIZON,
                              engine="indexed")
    got = simulate_store(instance, ThresholdPolicy(), str(path), HORIZON,
                         engine="indexed", window=2.5)
    assert_reports_identical(expected, got)
    with pytest.raises(ValidationError):
        simulate_store(instance, ThresholdPolicy(), str(path), HORIZON,
                       engine="indexed", window="junk")


def test_windowed_replay_requires_sorted_store(instance, tmp_path):
    """Windowed replay on an unsorted store fails loudly."""
    store = write_trace(
        make_trace([(5.0, 0, 1.0), (2.0, 1, 1.0)]), tmp_path / "s"
    )
    with pytest.raises(ValidationError):
        simulate_store(instance, ThresholdPolicy(), store, HORIZON,
                       engine="indexed", window=2.0)


# ---------------------------------------------------------------------------
# Satellite 3: crash safety (torn tail + resumed append)
# ---------------------------------------------------------------------------


def _tree_bytes(root: Path) -> "dict[str, bytes]":
    """All file contents under a store directory, keyed by name."""
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_torn_tail_repairs_to_last_complete_row(tmp_path):
    """A mid-record truncation reopens at the last complete row."""
    trace = make_trace([(float(i), i % NUM_STREAMS, 1.0) for i in range(10)])
    path = tmp_path / "torn"
    write_trace(trace, path)
    column = path / "durations.npy"
    column.write_bytes(column.read_bytes()[:-3])  # tear the final record
    store = TraceStore.open(path)
    assert len(store) == 9
    assert store.repaired_rows == 1
    assert np.array_equal(store.times, trace.times[:9])


def test_resumed_append_matches_uninterrupted_write(tmp_path):
    """Crash, repair, resume: every file byte-identical to no-crash."""
    rows = [(float(i) * 0.5, i % NUM_STREAMS, 2.0) for i in range(12)]
    clean = tmp_path / "clean"
    with TraceStoreWriter(clean) as writer:
        writer.append(*zip(*rows[:7]))
        writer.append(*zip(*rows[7:]))

    crashed = tmp_path / "crashed"
    with TraceStoreWriter(crashed) as writer:
        writer.append(*zip(*rows[:7]))
    # Tear two bytes off one column: row 7 is now incomplete.
    column = crashed / "times.npy"
    column.write_bytes(column.read_bytes()[:-2])
    with TraceStoreWriter(crashed, resume=True) as writer:
        assert writer.rows == 6  # repaired back to the last complete row
        writer.append(*zip(*rows[6:7]))  # re-append the torn row
        writer.append(*zip(*rows[7:]))

    assert _tree_bytes(clean) == _tree_bytes(crashed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    victim=st.sampled_from(
        ["times.npy", "durations.npy", "streams.npy", "manifest.json"]
    ),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_fuzz_random_truncation_repairs_or_raises(tmp_path_factory, victim, frac):
    """Torn-write fuzz: any truncation of any store file must either
    reopen as an exact row-prefix of the original or raise a
    :class:`ValidationError` — never silently return wrong data."""
    trace = make_trace([(float(i), i % NUM_STREAMS, 1.0) for i in range(10)])
    path = tmp_path_factory.mktemp("fuzz") / "store"
    write_trace(trace, path)
    target = path / victim
    data = target.read_bytes()
    cut = int(frac * len(data))
    target.write_bytes(data[:cut])
    try:
        store = TraceStore.open(path)
    except ValidationError:
        return  # loud refusal is a correct outcome
    rows = len(store)
    assert rows <= 10
    assert np.array_equal(store.times, trace.times[:rows])
    assert np.array_equal(store.durations, trace.durations[:rows])
    assert np.array_equal(store.streams, trace.streams[:rows])


def test_corrupt_manifest_is_loud(tmp_path):
    """A mangled manifest raises ValidationError, not garbage data."""
    path = tmp_path / "s"
    write_trace(make_trace([(1.0, 0, 1.0)]), path)
    manifest = path / "manifest.json"
    body = json.loads(manifest.read_text())
    body["rows"] = 999
    body["footer"]["rows"] = 999  # check no longer matches the body
    manifest.write_text(json.dumps(body))
    with pytest.raises(ValidationError, match="manifest"):
        TraceStore.open(path)
    shutil.rmtree(path)
    write_trace(make_trace([(1.0, 0, 1.0)]), path)
    manifest.write_text("{not json")
    with pytest.raises(ValidationError):
        TraceStore.open(path)


# ---------------------------------------------------------------------------
# Satellite 4: bounded-memory chunked drawing
# ---------------------------------------------------------------------------


def test_draw_to_store_deterministic_under_seed_and_chunk(instance, tmp_path):
    """Same (seed, chunk) → byte-identical store; chunk is contractual."""
    model = ArrivalModel(rate=4.0, mean_duration=10.0)
    first = tmp_path / "a"
    second = tmp_path / "b"
    draw_trace_to_store(instance, model, 50.0, first, seed=11, chunk=16)
    draw_trace_to_store(instance, model, 50.0, second, seed=11, chunk=16)
    assert _tree_bytes(first) == _tree_bytes(second)
    store = TraceStore.open(first)
    assert store.sorted
    assert len(store) > 0
    assert float(store.times[-1]) <= 50.0


def test_draw_to_store_peak_memory_is_chunk_bounded(instance, tmp_path):
    """Drawing 10⁵+ events peaks far below the full-trace footprint.

    tracemalloc traces the numpy chunk allocations (mmap pages are not
    Python allocations, which is exactly the measurement we want): with
    a 4096-event chunk, peak traced memory must stay well under the
    ~2.4 MB the three full 10⁵-row columns would occupy in RAM.
    """
    model = ArrivalModel(rate=2000.0, mean_duration=5.0)
    horizon = 50.0  # ~1e5 events in expectation
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        store = draw_trace_to_store(
            instance, model, horizon, tmp_path / "big", seed=1, chunk=4096
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(store)
    assert rows > 50_000
    full_bytes = rows * 8 * 3
    assert peak < full_bytes / 4, (peak, full_bytes)


def test_draw_to_store_degenerate_inputs(instance, tmp_path):
    """Zero rate / zero horizon still produce valid empty stores."""
    empty = draw_trace_to_store(
        instance, ArrivalModel(rate=0.0, mean_duration=5.0), 10.0,
        tmp_path / "zero-rate", seed=0,
    )
    assert len(empty) == 0
    none = draw_trace_to_store(
        instance, ArrivalModel(rate=5.0, mean_duration=5.0), 0.0,
        tmp_path / "zero-horizon", seed=0,
    )
    assert len(none) == 0
