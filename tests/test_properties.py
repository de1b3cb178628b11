"""Property-based invariants across the whole pipeline (hypothesis)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocate import OnlineAllocator
from repro.core.greedy import greedy, greedy_feasible
from repro.core.instance import MMDInstance, Stream, User
from repro.core.reduction import reduce_to_single_budget
from repro.core.skew import classify_and_select, classify_by_skew


@st.composite
def smd_instances(draw, max_streams=6, max_users=4, with_capacities=True):
    """Random single-budget instances with infinite utility caps."""
    num_streams = draw(st.integers(min_value=1, max_value=max_streams))
    num_users = draw(st.integers(min_value=1, max_value=max_users))
    costs = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=num_streams,
            max_size=num_streams,
        )
    )
    budget = draw(st.floats(min_value=max(costs), max_value=4.0 * sum(costs)))
    streams = [Stream(f"s{i}", (costs[i],)) for i in range(num_streams)]
    users = []
    for j in range(num_users):
        utilities = {}
        loads = {}
        for i in range(num_streams):
            if draw(st.booleans()):
                w = draw(st.floats(min_value=0.1, max_value=10.0))
                utilities[f"s{i}"] = w
                if with_capacities:
                    loads[f"s{i}"] = (draw(st.floats(min_value=0.0, max_value=5.0)),)
        max_load = max((v[0] for v in loads.values()), default=0.0)
        capacity = draw(st.floats(min_value=max(max_load, 0.1), max_value=25.0))
        users.append(
            User(
                user_id=f"u{j}",
                utility_cap=math.inf,
                capacities=(capacity,),
                utilities=utilities,
                loads=loads,
            )
        )
    return MMDInstance(streams, users, (budget,))


@st.composite
def mmd_instances(draw, m=2, mc=2, max_streams=5, max_users=3, min_load=0.0):
    num_streams = draw(st.integers(min_value=1, max_value=max_streams))
    num_users = draw(st.integers(min_value=1, max_value=max_users))
    streams = []
    for i in range(num_streams):
        costs = tuple(
            draw(st.floats(min_value=0.1, max_value=5.0)) for _ in range(m)
        )
        streams.append(Stream(f"s{i}", costs))
    budgets = tuple(
        max(max(s.costs[k] for s in streams), draw(st.floats(min_value=1.0, max_value=30.0)))
        for k in range(m)
    )
    users = []
    for j in range(num_users):
        utilities = {}
        loads = {}
        for i in range(num_streams):
            if draw(st.booleans()):
                utilities[f"s{i}"] = draw(st.floats(min_value=0.1, max_value=8.0))
                loads[f"s{i}"] = tuple(
                    draw(st.floats(min_value=min_load, max_value=3.0)) for _ in range(mc)
                )
        max_loads = [
            max((v[k] for v in loads.values()), default=0.0) for k in range(mc)
        ]
        capacities = tuple(
            max(max_loads[k], draw(st.floats(min_value=0.5, max_value=12.0)))
            for k in range(mc)
        )
        users.append(
            User(
                user_id=f"u{j}",
                utility_cap=math.inf,
                capacities=capacities,
                utilities=utilities,
                loads=loads,
            )
        )
    return MMDInstance(streams, users, budgets)


class TestGreedyProperties:
    @given(inst=smd_instances(with_capacities=False))
    @settings(max_examples=50, deadline=None)
    def test_greedy_server_feasible(self, inst):
        trace = greedy(inst)
        assert trace.assignment.is_server_feasible()
        assert trace.total_cost <= inst.budgets[0] * (1 + 1e-9)

    @given(inst=smd_instances(with_capacities=False))
    @settings(max_examples=50, deadline=None)
    def test_greedy_assigns_only_wanted_streams(self, inst):
        trace = greedy(inst)
        for u in inst.users:
            for sid in trace.assignment.streams_of(u.user_id):
                assert sid in u.utilities

    @given(inst=smd_instances(with_capacities=False))
    @settings(max_examples=30, deadline=None)
    def test_greedy_monotone_in_budget(self, inst):
        """Doubling the budget never reduces greedy's utility."""
        base = greedy(inst).assignment.utility()
        doubled = greedy(inst, budget=2 * inst.budgets[0]).assignment.utility()
        assert doubled >= base - 1e-9


class TestSkewProperties:
    @given(inst=smd_instances())
    @settings(max_examples=40, deadline=None)
    def test_classification_is_partition(self, inst):
        classes = classify_by_skew(inst)
        seen = set()
        for cls in classes:
            for pair in cls.pairs:
                assert pair not in seen
                seen.add(pair)
        expected = {
            (u.user_id, sid) for u in inst.users for sid in u.utilities
        }
        assert seen == expected

    @given(inst=smd_instances())
    @settings(max_examples=30, deadline=None)
    def test_classify_and_select_feasible(self, inst):
        a = classify_and_select(inst)
        assert a.is_feasible(), a.violated_constraints()


class TestReductionProperties:
    @given(inst=mmd_instances())
    @settings(max_examples=30, deadline=None)
    def test_reduction_lift_feasible(self, inst):
        red = reduce_to_single_budget(inst)
        reduced_solution = classify_and_select(red.reduced)
        assert reduced_solution.is_feasible()
        lifted = red.lift(reduced_solution)
        assert lifted.is_feasible(), lifted.violated_constraints()

    @given(inst=mmd_instances(min_load=0.05))
    @settings(max_examples=30, deadline=None)
    def test_reduced_skew_bound(self, inst):
        """Lemma 4.1: α_S <= m_c · α_M.

        The lemma's proof assumes every positive-utility pair loads every
        capacity measure positively (zero loads make the per-measure
        cost-benefit ratios degenerate), so the strategy draws loads
        bounded away from zero here.
        """
        red = reduce_to_single_budget(inst)
        assert red.reduced.local_skew() <= max(1, inst.mc) * inst.local_skew() * (
            1 + 1e-9
        )


def _normalization_out_of_range(inst: MMDInstance) -> bool:
    """Whether the allocator's §5 normalization leaves the float range
    on a charged pair.

    A positive load hundreds of orders of magnitude below the others (a
    subnormal one, which the strategies can draw) can make a pair's
    scaled cap ``λ·K = w_min·K/(D·load)`` overflow to ``inf`` or its
    ratio ``load/K`` underflow to zero.  The pair's charge
    ``(µ^L − 1)·λK·(load/K)`` then multiplies an ``inf`` (the scaled
    cap, or ``µ^L`` once ``µ`` itself overflowed) by a zero and is NaN,
    numpy warns, and that NaN is the float the decision reads: the
    allocator keeps it rather than change a decision.  Uncharged pairs
    never form a NaN, whatever the loads.
    """
    with np.errstate(all="ignore"):
        allocator = OnlineAllocator(inst, enforce_budgets=True)
    charged = allocator._pair_charged
    scaled_cap = allocator._pair_scaled_cap[charged]
    return not (
        np.isfinite(scaled_cap).all()
        and (scaled_cap > 0.0).all()
        and (allocator._pair_ratio[charged] > 0.0).all()
    )


def _five_unit_streams() -> "list[Stream]":
    return [Stream(f"s{i}", (1.0,)) for i in range(5)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAllocateProperties:
    @given(inst=smd_instances())
    @settings(max_examples=30, deadline=None)
    def test_allocator_with_guard_feasible(self, inst):
        """Even without the small-streams precondition, the guarded
        allocator must end feasible on arbitrary instances.

        Every RuntimeWarning is an error, except on the instances whose
        normalization leaves the float range on a charged pair, where
        the NaN charge is the documented float (see
        :func:`_normalization_out_of_range`)."""
        with warnings.catch_warnings():
            if _normalization_out_of_range(inst):
                warnings.simplefilter("ignore", RuntimeWarning)
            allocator = OnlineAllocator(inst, enforce_budgets=True)
            for sid in inst.stream_ids():
                allocator.offer(sid)
        assert allocator.assignment.is_feasible(), (
            allocator.assignment.violated_constraints()
        )

    def test_uncharged_pair_forms_no_nan(self):
        """Falsifying instance of the property above (hypothesis seed 3):
        the subnormal load makes ``µ`` infinite, so ``u0``'s cached
        ``µ^L`` is ``inf`` once ``s0`` commits.  Its pair with ``s4``
        loads nothing; offering ``s4`` once formed ``inf·0`` there."""
        inst = MMDInstance(
            _five_unit_streams(),
            [
                User("u0", math.inf, (1.0,), {"s0": 1.0, "s4": 1.0},
                     {"s0": (1.0,), "s4": (0.0,)}),
                User("u1", math.inf, (1.0,), {"s2": 1.0, "s4": 1.0},
                     {"s2": (5e-324,), "s4": (1.0,)}),
            ],
            (1.0,),
        )
        allocator = OnlineAllocator(inst, enforce_budgets=True)
        assert math.isinf(allocator.mu)
        answers = [allocator.offer(sid) for sid in inst.stream_ids()]
        assert answers == [["u0"], [], [], [], []]
        assert allocator.rejected_count == 4

    def test_overflowed_scaled_cap_keeps_its_nan(self):
        """The other falsifying instance (hypothesis seed 3) is the
        documented out-of-range case: ``u1``'s load ``2.2e-309`` makes
        its scaled cap ``λ·K`` overflow to ``inf`` on a charged pair, and
        the charge at rest is ``0·inf = NaN``.  Both warnings are
        expected; the NaN total keeps every user in the drop walk and
        the guard admits ``u1``, as before the warnings were examined."""
        inst = MMDInstance(
            _five_unit_streams(),
            [
                User("u0", math.inf, (1.0,), {}, {}),
                User("u1", math.inf, (2.0,), {"s3": 1.0},
                     {"s3": (2.225073858507203e-309,)}),
            ],
            (1.0,),
        )
        assert _normalization_out_of_range(inst)
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            allocator = OnlineAllocator(inst, enforce_budgets=True)
        assert allocator._pair_charged[0, 0]
        assert math.isinf(allocator._pair_scaled_cap[0, 0])
        with pytest.warns(RuntimeWarning, match="invalid value encountered in multiply"):
            answers = [allocator.offer(sid) for sid in inst.stream_ids()]
        assert answers == [[], [], [], ["u1"], []]
        assert allocator.assignment.is_feasible()

    @given(inst=smd_instances(with_capacities=False))
    @settings(max_examples=30, deadline=None)
    def test_greedy_feasible_dominates_nothing(self, inst):
        """greedy_feasible is feasible and never negative."""
        a = greedy_feasible(inst)
        assert a.is_feasible()
        assert a.utility() >= 0.0
