"""Parity suite for the array-native simulation engines.

The indexed engine's decision-point kernel (:mod:`repro.sim.indexed`)
and the batched engine's decision map (:mod:`repro.sim.kernel`)
promise reports that are *float-identical* to the dict engine's on any
common trace: same utility integral, same admits/deliveries/violations,
same per-user utilities and server utilizations.  These
hypothesis-driven tests replay the same dict-drawn trace under all
three engines for every built-in policy and assert equality with
``==``, plus determinism-under-seed for the vectorized trace draw,
horizon-boundary and tie-breaking agreement, adversarial arrival
patterns for the decision map and its dispatch rule, the indexed
kernel's parking of stable rejections (tie order at wakes, policies
that never park, tokens that move without a state change, Allocate's
rejection bookkeeping, a reject-dominated fuzz), and regression tests
for the degenerate-input fixes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexed import ensure_indexed
from repro.core.instance import MMDInstance, User
from repro.instances.generators import random_mmd
from repro.instances.workloads import iptv_neighborhood_workload
from repro.sim.engine import merged_replay_order
from repro.sim.indexed import (
    IndexedTrace,
    IndexedVideoSim,
    draw_trace_arrays,
    resolve_sim_engine,
)
from repro.sim.policies import (
    EMPTY_USERS,
    AdmissionPolicy,
    AllocatePolicy,
    DensityPolicy,
    RandomPolicy,
    ThresholdPolicy,
)
from repro.sim.simulation import (
    ArrivalModel,
    SessionEvent,
    compare_policies,
    draw_trace,
    simulate_trace,
)

MODEL = ArrivalModel(rate=2.0, mean_duration=12.0)

#: Every replay engine; reports must agree float-for-float across them.
ENGINES = ("dict", "indexed", "batched")

POLICY_FACTORIES = {
    "threshold": lambda: ThresholdPolicy(margin=1.0),
    "allocate": lambda: AllocatePolicy(),
    "density": lambda: DensityPolicy(quantile=0.5),
    "random": lambda: RandomPolicy(p=0.6, seed=3),
}


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


def assert_engines_agree(instance, factory, trace, horizon):
    """Replay one trace under every engine; reports must be identical.

    Returns the dict engine's report (for extra assertions).
    """
    reports = [
        simulate_trace(instance, factory(), trace, horizon, engine=engine)
        for engine in ENGINES
    ]
    for other in reports[1:]:
        assert_reports_identical(reports[0], other)
    return reports[0]


class TestEngineParity:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        size=st.tuples(st.integers(2, 10), st.integers(1, 8)),
        policy_key=st.sampled_from(sorted(POLICY_FACTORIES)),
    )
    def test_random_mmd_parity(self, seed, size, policy_key):
        instance = random_mmd(*size, m=2, mc=1, seed=seed, budget_fraction=0.3)
        trace = draw_trace(instance, MODEL, horizon=40.0, seed=seed, engine="dict")
        assert_engines_agree(instance, POLICY_FACTORIES[policy_key], trace, 40.0)

    @pytest.mark.parametrize("policy_key", sorted(POLICY_FACTORIES))
    def test_workload_parity(self, policy_key):
        instance = iptv_neighborhood_workload(
            num_channels=14, num_households=6, seed=11
        )
        trace = draw_trace(instance, MODEL, horizon=150.0, seed=7, engine="indexed")
        report = assert_engines_agree(
            instance, POLICY_FACTORIES[policy_key], trace, 150.0
        )
        assert report.admitted > 0  # a vacuous run proves nothing

    def test_clipping_parity_under_overshooting_policy(self):
        """A margin > 1 threshold policy answers infeasibly; every engine
        must clip identically and count the same violations."""
        instance = iptv_neighborhood_workload(
            num_channels=14, num_households=6, seed=11
        )
        model = ArrivalModel(rate=3.0, mean_duration=25.0)
        trace = draw_trace(instance, model, horizon=150.0, seed=7, engine="dict")
        report = assert_engines_agree(
            instance, lambda: ThresholdPolicy(margin=1.6), trace, 150.0
        )
        assert report.policy_violations > 0

    def test_indexed_trace_replays_identically(self):
        """Every engine accepts both trace representations."""
        instance = iptv_neighborhood_workload(num_channels=8, num_households=4, seed=2)
        arrays = draw_trace_arrays(instance, MODEL, horizon=60.0, seed=9)
        events = draw_trace(instance, MODEL, horizon=60.0, seed=9, engine="indexed")
        reports = [
            simulate_trace(instance, ThresholdPolicy(), trace, 60.0, engine=engine)
            for trace in (arrays, events)
            for engine in ENGINES
        ]
        for other in reports[1:]:
            assert_reports_identical(reports[0], other)

    def test_unsorted_event_list_replays_identically(self):
        """A hand-built, time-shuffled event list replays identically —
        the array kernel's general (non-presorted) grouping path."""
        instance = iptv_neighborhood_workload(num_channels=8, num_households=4, seed=2)
        events = draw_trace(instance, MODEL, horizon=60.0, seed=9, engine="indexed")
        shuffled = list(reversed(events))
        report = assert_engines_agree(
            instance, ThresholdPolicy, shuffled, 60.0
        )
        assert report.admitted > 0

    def test_adapter_policy_runs_under_every_engine(self):
        """A custom policy implementing only the string API works (and
        matches the dict engine) via the default indexed adapters."""

        class FirstUserPolicy(AdmissionPolicy):
            name = "first-user"

            def on_offer(self, stream_id, view):
                if not view.fits_server(stream_id):
                    return []
                interested = view.interested_users(stream_id)
                return interested[:1] if interested else []

        instance = iptv_neighborhood_workload(num_channels=8, num_households=4, seed=5)
        trace = draw_trace(instance, MODEL, horizon=80.0, seed=13, engine="dict")
        report = assert_engines_agree(instance, FirstUserPolicy, trace, 80.0)
        assert report.admitted > 0

    def test_duplicate_receivers_collapse_identically(self):
        """A buggy policy answering the same user twice: every engine
        collapses the duplicate, keeping reports consistent and equal."""

        class EveryoneTwicePolicy(AdmissionPolicy):
            name = "everyone-twice"

            def on_offer(self, stream_id, view):
                interested = view.interested_users(stream_id)
                return interested + interested

        instance = iptv_neighborhood_workload(num_channels=8, num_households=4, seed=6)
        trace = draw_trace(instance, MODEL, horizon=60.0, seed=15, engine="dict")
        report = assert_engines_agree(instance, EveryoneTwicePolicy, trace, 60.0)
        assert report.admitted > 0
        assert sum(report.per_user_utility.values()) == pytest.approx(
            report.utility_time
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_duration_rejected_loudly(self, engine):
        """No engine may silently admit a never-departing session (the
        dict engine raises when scheduling into the past)."""
        from repro.exceptions import SimulationError

        instance = iptv_neighborhood_workload(num_channels=6, num_households=3, seed=1)
        trace = [
            SessionEvent(
                time=5.0, stream_id=instance.stream_ids()[0], duration=-2.0
            )
        ]
        with pytest.raises(SimulationError):
            simulate_trace(instance, ThresholdPolicy(), trace, 30.0, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bad", [-1, 6, 99])
    def test_out_of_range_stream_index_rejected(self, engine, bad):
        """An index trace naming a stream outside ``[0, num_streams)``
        fails with the canonical unknown-stream error under every engine
        (a negative index must not wrap to the last stream)."""
        from repro.exceptions import ValidationError

        instance = iptv_neighborhood_workload(num_channels=6, num_households=3, seed=1)
        trace = IndexedTrace(
            times=np.array([1.0, 2.0]),
            streams=np.array([0, bad], dtype=np.int64),
            durations=np.array([5.0, 5.0]),
        )
        with pytest.raises(ValidationError, match="unknown stream id"):
            simulate_trace(instance, ThresholdPolicy(), trace, 30.0, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unknown_stream_raises_validation_error(self, engine):
        """An event naming a stream absent from the instance fails with
        the canonical unknown-stream error under every engine —
        regression for the raw ``KeyError`` the indexed lowering threw."""
        from repro.exceptions import ValidationError

        instance = iptv_neighborhood_workload(num_channels=6, num_households=3, seed=1)
        trace = [SessionEvent(time=1.0, stream_id="no-such-stream", duration=5.0)]
        with pytest.raises(ValidationError, match="unknown stream id"):
            simulate_trace(instance, ThresholdPolicy(), trace, 30.0, engine=engine)

    def test_compare_policies_engines_agree(self):
        instance = iptv_neighborhood_workload(num_channels=10, num_households=5, seed=3)
        trace = draw_trace(instance, MODEL, horizon=100.0, seed=21, engine="dict")
        for key in sorted(POLICY_FACTORIES):
            factory = POLICY_FACTORIES[key]
            reports = [
                compare_policies(
                    instance, [factory()], 100.0, MODEL, trace=trace, engine=engine
                )[0]
                for engine in ENGINES
            ]
            for other in reports[1:]:
                assert_reports_identical(reports[0], other)

    def test_compare_policies_parallel_matches_serial(self):
        instance = iptv_neighborhood_workload(num_channels=10, num_households=5, seed=4)
        serial = compare_policies(
            instance,
            [ThresholdPolicy(), DensityPolicy(0.5)],
            80.0,
            MODEL,
            seed=6,
        )
        parallel = compare_policies(
            instance,
            [ThresholdPolicy(), DensityPolicy(0.5)],
            80.0,
            MODEL,
            seed=6,
            parallel=2,
        )
        for one, two in zip(serial, parallel):
            assert_reports_identical(one, two)


class TestVectorizedDraw:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), rate=st.sampled_from([0.5, 2.0, 8.0]))
    def test_deterministic_under_seed(self, seed, rate):
        instance = iptv_neighborhood_workload(num_channels=9, num_households=3, seed=1)
        model = ArrivalModel(rate=rate, mean_duration=5.0)
        first = draw_trace_arrays(instance, model, horizon=50.0, seed=seed)
        second = draw_trace_arrays(instance, model, horizon=50.0, seed=seed)
        assert np.array_equal(first.times, second.times)
        assert np.array_equal(first.streams, second.streams)
        assert np.array_equal(first.durations, second.durations)

    def test_event_form_matches_array_form(self):
        instance = iptv_neighborhood_workload(num_channels=9, num_households=3, seed=1)
        arrays = draw_trace_arrays(instance, MODEL, horizon=40.0, seed=17)
        events = draw_trace(instance, MODEL, horizon=40.0, seed=17, engine="indexed")
        assert len(events) == len(arrays)
        rebuilt = IndexedTrace.from_events(ensure_indexed(instance), events)
        assert np.array_equal(rebuilt.times, arrays.times)
        assert np.array_equal(rebuilt.streams, arrays.streams)
        assert np.array_equal(rebuilt.durations, arrays.durations)

    def test_trace_is_sorted_bounded_and_skewed(self):
        instance = iptv_neighborhood_workload(num_channels=10, num_households=3, seed=2)
        model = ArrivalModel(rate=5.0, mean_duration=1.0, popularity_exponent=2.0)
        trace = draw_trace_arrays(instance, model, horizon=400.0, seed=3)
        assert np.all(np.diff(trace.times) >= 0)
        assert float(trace.times[-1]) <= 400.0
        assert np.all(trace.durations >= 0)
        counts = np.bincount(trace.streams, minlength=10)
        assert counts[0] > counts[-1]  # Zipf skew toward rank 1

    @pytest.mark.parametrize("engine", ["dict", "indexed"])
    def test_zero_rate_returns_empty_trace(self, engine):
        """Regression: rate == 0 used to raise ZeroDivisionError."""
        instance = iptv_neighborhood_workload(num_channels=5, num_households=2, seed=0)
        model = ArrivalModel(rate=0.0)
        assert draw_trace(instance, model, horizon=50.0, seed=1, engine=engine) == []

    @pytest.mark.parametrize("engine", ["dict", "indexed"])
    def test_zero_stream_catalog_returns_empty_trace(self, engine):
        """Regression: an empty catalog used to yield NaN Zipf weights."""
        instance = MMDInstance(
            [], [User("u0", math.inf, (5.0,), {}, {})], (10.0,)
        )
        assert draw_trace(instance, ArrivalModel(), 50.0, seed=1, engine=engine) == []

    @pytest.mark.parametrize("engine", ["dict", "indexed"])
    def test_nonpositive_horizon_returns_empty_trace(self, engine):
        instance = iptv_neighborhood_workload(num_channels=5, num_households=2, seed=0)
        assert draw_trace(instance, ArrivalModel(), 0.0, seed=1, engine=engine) == []


class TestHorizonAndTieParity:
    """Boundary agreement across all three engines: events at exactly the
    horizon, arrival/departure ties at one instant, departures landing
    on the horizon.  These are the spots where an off-by-one in event
    filtering or tie-breaking silently skews reports."""

    @staticmethod
    def _instance():
        return iptv_neighborhood_workload(num_channels=6, num_households=3, seed=4)

    def _agree(self, instance, trace, horizon):
        return assert_engines_agree(instance, ThresholdPolicy, trace, horizon)

    def test_arrival_exactly_at_horizon_is_offered(self):
        instance = self._instance()
        sid = instance.stream_ids()[0]
        report = self._agree(
            instance, [SessionEvent(time=30.0, stream_id=sid, duration=5.0)], 30.0
        )
        # run_until(horizon) processes events with time <= horizon.
        assert report.offered == 1

    def test_arrival_after_horizon_is_dropped(self):
        instance = self._instance()
        sid = instance.stream_ids()[0]
        report = self._agree(
            instance,
            [SessionEvent(time=30.0 + 1e-9, stream_id=sid, duration=5.0)],
            30.0,
        )
        assert report.offered == 0

    def test_departure_exactly_at_horizon_fires(self):
        instance = self._instance()
        sid = instance.stream_ids()[0]
        report = self._agree(
            instance, [SessionEvent(time=10.0, stream_id=sid, duration=20.0)], 30.0
        )
        assert report.admitted == 1  # departs at t=30 == horizon, cleanly

    def test_rearrival_at_departure_instant_is_skipped(self):
        """At one instant, arrivals fire before departures: a proposal for
        a stream departing at exactly that time sees it still carried."""
        instance = self._instance()
        sid = instance.stream_ids()[0]
        trace = [
            SessionEvent(time=5.0, stream_id=sid, duration=10.0),   # departs t=15
            SessionEvent(time=15.0, stream_id=sid, duration=10.0),  # tie: skipped
            SessionEvent(time=16.0, stream_id=sid, duration=5.0),   # fresh decision
        ]
        report = self._agree(instance, trace, 40.0)
        assert report.offered == 2  # the tie arrival was never a decision

    def test_simultaneous_arrivals_fifo_across_streams(self):
        instance = self._instance()
        sids = instance.stream_ids()
        trace = [
            SessionEvent(time=5.0, stream_id=sids[1], duration=8.0),
            SessionEvent(time=5.0, stream_id=sids[0], duration=8.0),
            SessionEvent(time=5.0, stream_id=sids[1], duration=8.0),  # dup: skipped
        ]
        report = self._agree(instance, trace, 40.0)
        assert report.offered == 2

    def test_zero_duration_session(self):
        """A zero-length session admits and departs at the same instant
        (arrival first, departure immediately after) in every engine."""
        instance = self._instance()
        sid = instance.stream_ids()[0]
        trace = [
            SessionEvent(time=5.0, stream_id=sid, duration=0.0),
            SessionEvent(time=5.0, stream_id=sid, duration=3.0),  # same instant
        ]
        report = self._agree(instance, trace, 40.0)
        # The second proposal ties before the first session's departure,
        # so it is skipped while the zero-length session is carried.
        assert report.offered == 1
        assert report.utility_time == 0.0

    def test_session_spanning_horizon_never_departs(self):
        instance = self._instance()
        sid = instance.stream_ids()[0]
        trace = [
            SessionEvent(time=10.0, stream_id=sid, duration=100.0),  # beyond T
            SessionEvent(time=20.0, stream_id=sid, duration=1.0),    # skipped
        ]
        report = self._agree(instance, trace, 30.0)
        assert report.offered == 1
        assert report.admitted == 1

    @pytest.mark.parametrize("policy_key", ["threshold", "allocate"])
    def test_simultaneous_departures_fire_in_admission_order(self, policy_key):
        """Two sessions departing at the same instant from an *unsorted*
        event list: the heap calendar fires them in admission order, not
        trace-position order — the merged order and the array kernel
        must tie-break identically (regression: they used trace order)."""
        instance = iptv_neighborhood_workload(
            num_channels=8, num_households=5, seed=3
        )
        sids = instance.stream_ids()
        trace = [
            SessionEvent(time=2.0, stream_id=sids[0], duration=2.0),  # admitted 2nd
            SessionEvent(time=1.0, stream_id=sids[1], duration=3.0),  # admitted 1st
        ]  # both depart at t=4.0
        report = assert_engines_agree(
            instance, POLICY_FACTORIES[policy_key], trace, 10.0
        )
        assert report.admitted == 2


class TestBatchedGrouping:
    """Adversarial arrival patterns for the batched engine: maximal
    decision-map epochs (every decision rejects, so one batch answers
    long runs), epochs cut at every member (every decision admits), and
    the dispatch rule — only ``batch_order_free`` policies reach
    ``on_offer_batch``; every other policy is driven per offer exactly
    as under ``indexed``."""

    @staticmethod
    def _instance(seed=4):
        return iptv_neighborhood_workload(num_channels=6, num_households=3, seed=seed)

    def test_all_reject_maximal_groups(self):
        """A zero-margin threshold (or a zero-capacity plant) rejects
        everything: the decision map answers maximal groups and must
        still count every offer."""
        instance = self._instance()
        model = ArrivalModel(rate=20.0, mean_duration=3.0)
        trace = draw_trace(instance, model, horizon=60.0, seed=2, engine="dict")
        report = assert_engines_agree(
            instance, lambda: ThresholdPolicy(margin=0.0), trace, 60.0
        )
        assert report.admitted == 0
        assert report.offered > 0

    def test_all_admit_cuts_every_group(self):
        """Generous margins admit every decision, so each decision-map
        epoch ends at its first member; reports must still match."""
        instance = self._instance()
        model = ArrivalModel(rate=20.0, mean_duration=0.05)
        trace = draw_trace(instance, model, horizon=60.0, seed=3, engine="dict")
        report = assert_engines_agree(
            instance, lambda: ThresholdPolicy(margin=1.0), trace, 60.0
        )
        assert report.admitted > report.offered // 2

    def test_rejection_successor_cannot_overtake_group(self):
        """Stream a's arrivals at t=1 and t=1.5 with stream b at t=2: if
        a batch grouped a@1 with b@2, a rejection of a@1 would push
        a@1.5 *behind* an already-answered b@2, reordering the RNG draws
        of a stateful policy.  Stateful policies are never batched."""
        instance = self._instance()
        sids = instance.stream_ids()
        trace = [
            SessionEvent(time=1.0, stream_id=sids[0], duration=0.2),
            SessionEvent(time=1.5, stream_id=sids[0], duration=0.2),
            SessionEvent(time=2.0, stream_id=sids[1], duration=0.2),
        ]
        report = assert_engines_agree(
            instance, lambda: RandomPolicy(p=0.5, seed=123), trace, 10.0
        )
        assert report.offered == 3

    def test_offer_order_matches_sequential(self):
        """A stateful recording policy makes no ``on_offer_batch`` call
        under the batched engine and sees exactly the ``indexed``
        engine's ``on_offer_indexed`` sequence."""

        class Recorder(AdmissionPolicy):
            name = "recorder"

            def __init__(self):
                self.calls = []
                self.batch_calls = 0

            def on_offer(self, stream_id, view):
                if not view.fits_server(stream_id):
                    return []
                return view.interested_users(stream_id)

            def on_offer_indexed(self, k, view):
                self.calls.append(k)
                return super().on_offer_indexed(k, view)

            def on_offer_batch(self, ks, view):
                self.batch_calls += 1
                return super().on_offer_batch(ks, view)

        instance = self._instance(seed=8)
        model = ArrivalModel(rate=15.0, mean_duration=1.0)
        trace = draw_trace(instance, model, horizon=80.0, seed=5, engine="dict")
        sequential = Recorder()
        batched = Recorder()
        first = simulate_trace(instance, sequential, trace, 80.0, engine="indexed")
        second = simulate_trace(instance, batched, trace, 80.0, engine="batched")
        assert batched.batch_calls == 0
        assert batched.calls == sequential.calls
        assert len(batched.calls) == first.offered > 0
        assert_reports_identical(first, second)

    def test_order_free_policy_goes_through_decision_map(self):
        """On a reject-dominated trace an order-free policy is answered
        by ``on_offer_batch`` groups: fewer policy calls than offers."""

        class CountingThreshold(ThresholdPolicy):
            def __init__(self):
                super().__init__(margin=0.3)
                self.batch_calls = 0
                self.single_calls = 0

            def on_offer_indexed(self, k, view):
                self.single_calls += 1
                return super().on_offer_indexed(k, view)

            def on_offer_batch(self, ks, view):
                self.batch_calls += 1
                return super().on_offer_batch(ks, view)

        instance = self._instance(seed=8)
        model = ArrivalModel(rate=30.0, mean_duration=4.0)
        trace = draw_trace(instance, model, horizon=80.0, seed=5, engine="dict")
        policy = CountingThreshold()
        report = simulate_trace(instance, policy, trace, 80.0, engine="batched")
        assert policy.batch_calls > 0
        assert policy.batch_calls + policy.single_calls < report.offered
        assert report.offered > 2 * report.admitted  # reject-dominated
        assert_reports_identical(
            report,
            simulate_trace(instance, CountingThreshold(), trace, 80.0, engine="dict"),
        )

    def test_default_batch_stops_after_first_nonempty_answer(self):
        """The base ``on_offer_batch`` answers a prefix and stops once an
        answer is nonempty, so stateful policies never compute answers
        that could be discarded."""
        from repro.sim.policies import ResourceView

        instance = self._instance()

        class AdmitSecond(AdmissionPolicy):
            name = "admit-second"

            def __init__(self):
                self.seen = []

            def on_offer(self, stream_id, view):
                self.seen.append(stream_id)
                if len(self.seen) == 2:
                    return view.interested_users(stream_id)
                return []

        policy = AdmitSecond()
        idx = ensure_indexed(instance)
        policy.bind_indexed(idx)
        view = ResourceView(idx)
        answers = policy.on_offer_batch(np.arange(4, dtype=np.int64), view)
        assert len(answers) == 2  # stopped at the first nonempty answer
        assert len(answers[0]) == 0 and len(answers[1]) > 0
        assert len(policy.seen) == 2


class TestMergedReplayOrder:
    def test_arrivals_precede_departures_at_ties(self):
        order = merged_replay_order(
            np.array([1.0, 3.0]), np.array([3.0, 7.0]), horizon=10.0
        )
        # arrival 0, then at t=3 arrival 1 before departure 0, then dep 1.
        assert [int(c) for c in order] == [0, 1, 2, 3]

    def test_fifo_within_kind(self):
        order = merged_replay_order(np.array([2.0, 2.0, 2.0]), np.array([9.0, 9.0, 9.0]))
        assert [int(c) for c in order] == [0, 1, 2, 3, 4, 5]

    def test_horizon_drops_late_events(self):
        order = merged_replay_order(np.array([1.0, 6.0]), np.array([4.0, 9.0]), horizon=5.0)
        assert [int(c) for c in order] == [0, 2]

    def test_nan_event_time_rejected(self):
        """Regression: a NaN time made the lexsort order undefined."""
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="NaN"):
            merged_replay_order(np.array([1.0, math.nan]), np.array([4.0, 9.0]))
        with pytest.raises(SimulationError, match="NaN"):
            merged_replay_order(np.array([1.0, 2.0]), np.array([4.0, math.nan]))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_trace_time_rejected_by_every_engine(self, engine):
        """A NaN arrival time must fail loudly, not silently drop or
        corrupt the calendar (`time > horizon` is False for NaN)."""
        from repro.exceptions import SimulationError

        instance = iptv_neighborhood_workload(num_channels=6, num_households=3, seed=1)
        trace = [
            SessionEvent(
                time=math.nan, stream_id=instance.stream_ids()[0], duration=5.0
            )
        ]
        with pytest.raises(SimulationError, match="NaN"):
            simulate_trace(instance, ThresholdPolicy(), trace, 30.0, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_time_or_horizon_rejected_by_every_engine(self, engine):
        """An arrival before time 0 or a negative horizon fails with the
        dict engine's ``SimulationError``, not a raw ``ValueError`` from
        the metrics integrators."""
        from repro.exceptions import SimulationError

        instance = iptv_neighborhood_workload(num_channels=6, num_households=3, seed=1)
        sid = instance.stream_ids()[0]
        early = [SessionEvent(time=-1.0, stream_id=sid, duration=5.0)]
        with pytest.raises(SimulationError, match="past"):
            simulate_trace(instance, ThresholdPolicy(), early, 30.0, engine=engine)
        for events in ([SessionEvent(time=1.0, stream_id=sid, duration=5.0)], []):
            with pytest.raises(SimulationError, match="horizon"):
                simulate_trace(instance, ThresholdPolicy(), events, -1.0, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_duration_beyond_horizon_is_not_read(self, engine):
        """Like a negative one, a NaN duration of an arrival past the
        horizon is never scheduled, so no engine refuses it."""
        instance = iptv_neighborhood_workload(num_channels=6, num_households=3, seed=1)
        sid = instance.stream_ids()[0]
        trace = [
            SessionEvent(time=1.0, stream_id=sid, duration=5.0),
            SessionEvent(time=50.0, stream_id=sid, duration=math.nan),
        ]
        report = simulate_trace(instance, ThresholdPolicy(), trace, 30.0, engine=engine)
        assert report.offered == 1

    @pytest.mark.parametrize("engine", ["indexed", "batched"])
    def test_nan_duration_rejected_by_array_engines(self, engine):
        from repro.exceptions import SimulationError

        instance = iptv_neighborhood_workload(num_channels=6, num_households=3, seed=1)
        trace = [
            SessionEvent(
                time=2.0, stream_id=instance.stream_ids()[0], duration=math.nan
            )
        ]
        with pytest.raises(SimulationError, match="NaN"):
            simulate_trace(instance, ThresholdPolicy(), trace, 30.0, engine=engine)


class TestSparseReport:
    def test_per_user_utility_is_sparse(self):
        """Only users that ever received a stream are recorded."""

        class NobodyPolicy(AdmissionPolicy):
            name = "nobody"

            def on_offer(self, stream_id, view):
                return []

        instance = iptv_neighborhood_workload(num_channels=8, num_households=4, seed=9)
        trace = draw_trace(instance, MODEL, horizon=40.0, seed=1, engine="dict")
        for engine in ("dict", "indexed"):
            report = simulate_trace(instance, NobodyPolicy(), trace, 40.0, engine=engine)
            assert report.per_user_utility == {}
            assert report.num_users == instance.num_users
            assert report.jain_fairness == 1.0

    def test_jain_counts_implicit_zeros(self):
        from repro.sim.metrics import SimulationReport

        report = SimulationReport(policy_name="p", horizon=1.0, num_users=3)
        report.per_user_utility = {"a": 9.0}
        assert report.jain_fairness == pytest.approx(1.0 / 3.0)

    def test_run_reports_subset_of_population(self):
        instance = iptv_neighborhood_workload(num_channels=10, num_households=4, seed=7)
        report = IndexedVideoSim(instance, ThresholdPolicy()).run(
            horizon=80.0, model=MODEL, seed=8
        )
        assert set(report.per_user_utility) <= set(instance.user_ids())
        assert sum(report.per_user_utility.values()) == pytest.approx(
            report.utility_time
        )


class TestEngineResolution:
    def test_default_is_indexed(self):
        assert resolve_sim_engine() == "indexed"

    def test_unknown_engine_rejected(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="unknown simulation engine"):
            resolve_sim_engine("warp")


def _blocking_instance() -> MMDInstance:
    """Streams ``a``, ``b`` and ``z`` each take 60% of the one server
    budget, so any one blocks the others; ``x`` costs the server nothing
    and goes to another user, so admitting it changes the state without
    unblocking anything."""
    from repro.core.instance import Stream

    catalog = [Stream("a", (0.6,)), Stream("b", (0.6,)), Stream("z", (0.6,)),
               Stream("x", (0.0,))]
    people = [
        User("u", math.inf, (math.inf,), {"a": 5.0, "b": 4.0, "z": 3.0}, {}),
        User("v", math.inf, (math.inf,), {"x": 1.0}, {}),
    ]
    return MMDInstance(catalog, people, (1.0,), name="blocking")


class CallLog(ThresholdPolicy):
    """A threshold policy that logs the stream of every policy call and
    counts the repeats it is told about in bulk."""

    def __init__(self):
        super().__init__(margin=1.0)
        self.calls = []
        self.bulk = 0

    def on_offer_indexed(self, k, view):
        self.calls.append(view.indexed.stream_ids[k])
        return super().on_offer_indexed(k, view)

    def count_rejections(self, k, n):
        self.bulk += n


def _events(rows):
    return [SessionEvent(time=t, stream_id=sid, duration=d) for t, sid, d in rows]


class TestParking:
    """The indexed kernel parks a stream whose rejection the policy's
    :meth:`~repro.sim.policies.AdmissionPolicy.rejection_token` vouches
    for, and wakes it at the next admit, live departure or token move;
    every report still equals the dict engine's."""

    def _replay(self, trace, horizon=20.0):
        instance = _blocking_instance()
        assert_engines_agree(instance, CallLog, trace, horizon)
        policy = CallLog()
        report = simulate_trace(instance, policy, trace, horizon, engine="indexed")
        assert len(policy.calls) + policy.bulk == report.offered
        return policy, report

    def test_parked_arrival_at_a_departure_instant_is_a_rejection(self):
        """``b`` arrives at t=5, the instant ``a`` departs: arrivals sort
        before departures, so it is a parked repeat, counted at the
        departure's wake; ``b`` at t=6 is then decided (and admitted)."""
        policy, report = self._replay(_events([
            (0.0, "a", 5.0), (1.0, "b", 1.0), (5.0, "b", 1.0), (6.0, "b", 1.0),
        ]))
        assert policy.calls == ["a", "b", "b"]
        assert policy.bulk == 1
        assert (report.offered, report.admitted) == (4, 2)

    def test_admit_wakes_by_trace_position_at_its_instant(self):
        """``x`` is admitted at ``(t=2, q=2)`` and the policy carries any
        stream only while ``x`` is carried.  ``b``'s arrival at ``(2, 1)``
        precedes the admit, so it is a parked repeat of ``b``'s
        rejection; the one at ``(2, 3)`` follows it and is admitted, with
        its own duration."""

        class WhileX(CallLog):
            batch_order_free = False  # the inherited batch rule ignores x

            def on_offer(self, stream_id, view):
                if stream_id != "x" and "x" not in view.active_streams:
                    return []
                return super().on_offer(stream_id, view)

            def on_offer_indexed(self, k, view):
                self.calls.append(view.indexed.stream_ids[k])
                if self.calls[-1] != "x" and "x" not in view.active_streams:
                    return EMPTY_USERS
                return ThresholdPolicy.on_offer_indexed(self, k, view)

        instance = _blocking_instance()
        trace = _events([
            (1.0, "b", 1.0), (2.0, "b", 7.0), (2.0, "x", 9.0), (2.0, "b", 3.0),
            (2.5, "b", 1.0),
        ])
        report = assert_engines_agree(instance, WhileX, trace, 20.0)
        policy = WhileX()
        assert_reports_identical(
            report, simulate_trace(instance, policy, trace, 20.0, engine="indexed")
        )
        assert policy.calls == ["b", "x", "b"]
        assert policy.bulk == 1
        assert (report.offered, report.admitted) == (4, 2)
        assert report.utility_time == 9.0 * 1.0 + 3.0 * 4.0

    def test_wakes_at_an_admit_and_at_a_departure(self):
        """``b`` stays blocked by ``a``; ``x`` comes and goes.  Each of its
        admit and departure wakes ``b``, whose arrival tied with the
        departure is a repeat counted there."""
        policy, report = self._replay(_events([
            (0.0, "a", 100.0), (1.0, "b", 1.0), (2.0, "b", 1.0), (2.0, "x", 1.0),
            (2.0, "b", 1.0), (3.0, "b", 1.0), (4.0, "b", 1.0),
        ]))
        assert policy.calls == ["a", "b", "x", "b", "b"]
        assert policy.bulk == 2
        assert report.offered == 7

    def test_parking_is_per_state_not_per_stream(self):
        """Several parked streams all wake at one admit and each counts
        only its own repeats."""
        policy, report = self._replay(_events([
            (0.0, "a", 100.0), (1.0, "b", 1.0), (1.5, "z", 1.0), (2.0, "z", 1.0),
            (2.5, "b", 1.0), (3.0, "x", 0.5), (4.0, "b", 1.0), (4.0, "z", 1.0),
        ]))
        assert policy.calls == ["a", "b", "z", "x", "b", "z"]
        assert policy.bulk == 2
        assert report.offered == 8

    def test_windowed_store_replay_cuts_parked_runs(self, tmp_path):
        """Window edges inside parked runs: each window counts its own
        parked repeats, and the report equals the monolithic replay."""
        from repro.sim.simulation import simulate_store
        from repro.sim.store import write_trace

        instance = _blocking_instance()
        trace = IndexedTrace.from_events(ensure_indexed(instance), _events(
            [(0.0, "a", 9.0)] + [(0.5 + 0.5 * i, "bz"[i % 2], 1.0) for i in range(30)]
        ))
        store = write_trace(trace, tmp_path / "s")
        parked = CallLog()
        monolithic = simulate_trace(instance, parked, trace, 20.0, engine="indexed")
        assert parked.bulk > 10
        for factory in (CallLog, AllocatePolicy):
            oracle = simulate_trace(instance, factory(), trace, 20.0, engine="dict")
            if factory is CallLog:
                assert_reports_identical(oracle, monolithic)
            for window in (0.3, 1.0, 2.5, 7.0):
                windowed = simulate_store(instance, factory(), store, 20.0,
                                          engine="indexed", window=window)
                assert_reports_identical(oracle, windowed)

    def test_policy_without_token_sees_every_decision(self):
        """A recording policy that keeps the default ``None`` token is
        offered every decision, in the dict engine's order."""

        class Recorder(AdmissionPolicy):
            name = "recorder"

            def __init__(self):
                self.calls = []

            def on_offer(self, stream_id, view):
                self.calls.append(stream_id)
                if not view.fits_server(stream_id):
                    return []
                return view.interested_users(stream_id)

        instance = iptv_neighborhood_workload(num_channels=6, num_households=3, seed=8)
        model = ArrivalModel(rate=15.0, mean_duration=30.0)
        trace = draw_trace(instance, model, horizon=80.0, seed=5, engine="dict")
        oracle, indexed = Recorder(), Recorder()
        first = simulate_trace(instance, oracle, trace, 80.0, engine="dict")
        second = simulate_trace(instance, indexed, trace, 80.0, engine="indexed")
        assert_reports_identical(first, second)
        assert indexed.calls == oracle.calls
        assert len(indexed.calls) == first.offered > 2 * first.admitted

    def test_token_moved_by_an_offer_wakes_the_parked(self):
        """A token that moves inside ``on_offer_indexed`` (here: at each
        offer of ``z``) with no state change still wakes parked streams:
        ``b``'s next arrival after ``z`` is decided again."""

        class MovingToken(CallLog):
            def __init__(self):
                super().__init__()
                self.moves = 0

            def on_offer_indexed(self, k, view):
                if view.indexed.stream_ids[k] == "z":
                    self.moves += 1
                return super().on_offer_indexed(k, view)

            def rejection_token(self):
                return self.moves

        instance = _blocking_instance()
        trace = _events([
            (0.0, "a", 100.0), (1.0, "b", 1.0), (2.0, "b", 1.0), (3.0, "z", 1.0),
            (4.0, "b", 1.0), (5.0, "b", 1.0),
        ])
        assert_engines_agree(instance, MovingToken, trace, 20.0)
        policy = MovingToken()
        report = simulate_trace(instance, policy, trace, 20.0, engine="indexed")
        assert policy.calls == ["a", "b", "z", "b"]
        assert policy.bulk == 2
        assert report.offered == 6

    @pytest.mark.parametrize("engine", ["indexed", "batched"])
    def test_allocator_bookkeeping_matches_dict(self, engine):
        """After a reject-dominated replay, Allocate's rejection count,
        rejected list and state digest equal the dict engine's, and the
        indexed kernel made far fewer allocator calls than offers."""
        instance = iptv_neighborhood_workload(num_channels=14, num_households=6, seed=11)
        model = ArrivalModel(rate=6.0, mean_duration=75.0)
        trace = draw_trace(instance, model, horizon=150.0, seed=7, engine="dict")
        oracle, policy = AllocatePolicy(), AllocatePolicy()
        first = simulate_trace(instance, oracle, trace, 150.0, engine="dict")
        calls = []
        inner = policy.on_offer_indexed

        def counting(k, view):
            calls.append(k)
            return inner(k, view)

        policy.on_offer_indexed = counting
        second = simulate_trace(instance, policy, trace, 150.0, engine=engine)
        assert_reports_identical(first, second)
        assert policy._allocator.rejected_count == oracle._allocator.rejected_count
        assert policy._allocator.rejected == oracle._allocator.rejected
        assert policy._allocator.state_digest() == oracle._allocator.state_digest()
        assert first.offered > 2 * first.admitted  # reject-dominated
        assert 3 * len(calls) < first.offered

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        size=st.tuples(st.integers(2, 10), st.integers(1, 8)),
        tight=st.floats(0.05, 0.4),
        policy_key=st.sampled_from(sorted(POLICY_FACTORIES)),
    )
    def test_reject_dominated_parity(self, seed, size, tight, policy_key):
        """Tight budgets and sessions of at least half the horizon: most
        offers repeat a rejection under an unchanged state, the regime
        parking targets.  Every engine still agrees."""
        horizon = 40.0
        instance = random_mmd(*size, m=2, mc=1, seed=seed, budget_fraction=tight)
        model = ArrivalModel(rate=3.0, mean_duration=horizon)
        trace = [
            SessionEvent(e.time, e.stream_id, horizon / 2 + e.duration)
            for e in draw_trace(instance, model, horizon=horizon, seed=seed,
                                engine="dict")
        ]
        assert_engines_agree(instance, POLICY_FACTORIES[policy_key], trace, horizon)
