"""Parity suite: the indexed engine must be *bit-identical* to the dict engine.

The compiled layer (:mod:`repro.core.indexed`) promises that its
vectorized kernels reproduce the string-keyed implementations' float
accumulation order exactly, so utilities, tie-breaks, traces and
assignments match with ``==`` — not just approximately.  These
hypothesis-driven tests exercise that contract on random unit-skew SMD,
bounded-skew SMD and general MMD instances for every hot path the
refactor touched: ``greedy``, ``greedy_feasible``,
``classify_and_select``, ``greedy_fill`` and ``solve_mmd``.

Greedy has two array kernels, and :func:`repro.core.greedy.greedy_kernel_for`
picks one from the instance's shape.  Each kernel is fuzzed against the
dict engine on its own: called directly, and forced in place of the
selector for the solvers built on Greedy.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import greedy as greedy_module
from repro.core.assignment import Assignment
from repro.core.batched import greedy_kernel_batched
from repro.core.greedy import (
    best_single_stream_assignment,
    greedy,
    greedy_feasible,
)
from repro.core.indexed import greedy_kernel, index_instance
from repro.core.skew import classify_and_select
from repro.core.solver import best_single_stream_mmd, greedy_fill, solve_mmd
from repro.instances.generators import (
    random_mmd,
    random_smd,
    random_unit_skew_smd,
)

#: Keep the generated instances small: parity is about arithmetic order,
#: not scale, and hypothesis runs many examples.
SIZES = st.tuples(st.integers(2, 14), st.integers(1, 10))

#: Both array Greedy kernels, each bit-identical to the dict engine
#: (ids: the single-pick kernel lives in ``repro.core.indexed``, the
#: multi-pick one in ``repro.core.batched``).
KERNELS = [
    pytest.param(greedy_kernel, id="indexed"),
    pytest.param(greedy_kernel_batched, id="batched"),
]


@contextmanager
def forced_kernel(kernel):
    """Run every ``indexed``-engine Greedy on ``kernel``, whatever the
    instance's shape."""
    with mock.patch.object(greedy_module, "greedy_kernel_for", lambda idx: kernel):
        yield


def smd_families(seed: int, num_streams: int, num_users: int, skew: float):
    if skew <= 1.0:
        return random_unit_skew_smd(num_streams, num_users, seed=seed)
    return random_smd(num_streams, num_users, skew, seed=seed)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), size=SIZES, skew=st.sampled_from([1.0, 2.0, 8.0, 64.0]))
def test_greedy_trace_parity(kernel, seed, size, skew):
    instance = smd_families(seed, *size, skew)
    dict_trace = greedy(instance, engine="dict")
    idx = index_instance(instance)
    order, rejected, total_cost = kernel(idx, instance.budgets[0], [])
    assert [
        (idx.stream_ids[k], tuple(idx.user_ids_of(receivers)))
        for k, receivers in order
    ] == dict_trace.order
    assert idx.stream_ids_of(rejected) == dict_trace.rejected_for_budget
    assert total_cost == dict_trace.total_cost
    with forced_kernel(kernel):
        idx_trace = greedy(instance, engine="indexed")
    assert idx_trace.order == dict_trace.order
    assert idx_trace.rejected_for_budget == dict_trace.rejected_for_budget
    assert idx_trace.total_cost == dict_trace.total_cost
    assert idx_trace.assignment.as_dict() == dict_trace.assignment.as_dict()
    assert idx_trace.assignment.utility() == dict_trace.assignment.utility()


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), size=SIZES, skew=st.sampled_from([1.0, 4.0, 32.0]))
def test_greedy_feasible_parity(kernel, seed, size, skew):
    instance = smd_families(seed, *size, skew)
    dict_solution = greedy_feasible(instance, engine="dict")
    with forced_kernel(kernel):
        idx_solution = greedy_feasible(instance, engine="indexed")
    assert idx_solution.as_dict() == dict_solution.as_dict()
    assert idx_solution.utility() == dict_solution.utility()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), size=SIZES)
def test_best_single_stream_parity(seed, size):
    instance = random_unit_skew_smd(*size, seed=seed)
    assert (
        best_single_stream_assignment(instance, engine="indexed").as_dict()
        == best_single_stream_assignment(instance, engine="dict").as_dict()
    )
    assert (
        best_single_stream_mmd(instance, engine="indexed").as_dict()
        == best_single_stream_mmd(instance, engine="dict").as_dict()
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), size=SIZES, skew=st.sampled_from([2.0, 16.0]))
def test_classify_and_select_parity(seed, size, skew):
    instance = random_smd(*size, skew, seed=seed)

    def dict_solver(inst):
        return greedy_feasible(inst, engine="dict")

    def indexed_solver(inst):
        return greedy_feasible(inst, engine="indexed")

    dict_solution = classify_and_select(instance, solve_class=dict_solver)
    idx_solution = classify_and_select(instance, solve_class=indexed_solver)
    assert idx_solution.as_dict() == dict_solution.as_dict()
    assert idx_solution.utility() == dict_solution.utility()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), size=SIZES, skew=st.sampled_from([1.0, 8.0]))
def test_greedy_fill_parity(seed, size, skew):
    instance = smd_families(seed, *size, skew)
    dict_fill = greedy_fill(instance, Assignment(instance), engine="dict")
    idx_fill = greedy_fill(instance, Assignment(instance), engine="indexed")
    assert idx_fill.as_dict() == dict_fill.as_dict()
    assert idx_fill.utility() == dict_fill.utility()


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), size=SIZES, skew=st.sampled_from([1.0, 4.0, 32.0]))
def test_solve_mmd_parity_smd(kernel, seed, size, skew):
    instance = smd_families(seed, *size, skew)
    dict_result = solve_mmd(instance, engine="dict")
    with forced_kernel(kernel):
        idx_result = solve_mmd(instance, engine="indexed")
    assert idx_result.utility == dict_result.utility
    assert idx_result.method == dict_result.method
    assert idx_result.assignment.as_dict() == dict_result.assignment.as_dict()


def test_best_single_stream_tie_breaks():
    """Duplicated objective values where instance order differs from id
    order: the assignment form resolves ties to the smallest stream id
    (the dict loop's ``value == best and id <`` rule), while the MMD
    form's ``values.argmax()`` keeps the *first in instance order* (the
    dict loop's strictly-greater test never replaces an earlier tie)."""
    import math

    from repro.core.instance import MMDInstance, Stream, User

    # "s9" precedes "s1" in instance order; both deliver value 2.0.
    streams = [Stream("s9", (1.0,)), Stream("s1", (1.0,)), Stream("s5", (1.0,))]
    users = [
        User("u0", math.inf, (math.inf,), {"s9": 2.0, "s1": 2.0, "s5": 1.0},
             {"s9": (0.0,), "s1": (0.0,), "s5": (0.0,)}),
    ]
    instance = MMDInstance(streams, users, (10.0,))
    for engine in ["dict", "indexed"]:
        assignment = best_single_stream_assignment(instance, engine=engine)
        assert assignment.as_dict() == {"u0": {"s1"}}, engine  # smallest id
        mmd = best_single_stream_mmd(instance, engine=engine)
        assert mmd.as_dict() == {"u0": {"s9"}}, engine  # first in order


def test_greedy_fill_parity_with_zero_budget_measure():
    """Regression: a vacuous zero-budget measure (validation forces all
    costs on it to zero) must not divide by zero in either engine."""
    import math

    from repro.core.instance import MMDInstance, Stream, User

    streams = [Stream("s0", (2.0, 0.0)), Stream("s1", (1.0, 0.0))]
    users = [
        User("u0", math.inf, (math.inf,), {"s0": 3.0, "s1": 1.0},
             {"s0": (0.0,), "s1": (0.0,)}),
    ]
    instance = MMDInstance(streams, users, (3.0, 0.0))
    dict_fill = greedy_fill(instance, Assignment(instance), engine="dict")
    idx_fill = greedy_fill(instance, Assignment(instance), engine="indexed")
    assert idx_fill.as_dict() == dict_fill.as_dict()
    assert idx_fill.utility() == dict_fill.utility() == 4.0
    dict_result = solve_mmd(instance, engine="dict")
    idx_result = solve_mmd(instance, engine="indexed")
    assert idx_result.utility == dict_result.utility


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.tuples(st.integers(2, 10), st.integers(1, 7)),
    m=st.integers(1, 3),
    mc=st.integers(0, 2),
)
def test_solve_mmd_parity_general(seed, size, m, mc):
    instance = random_mmd(*size, m=m, mc=mc, seed=seed)
    dict_result = solve_mmd(instance, engine="dict")
    idx_result = solve_mmd(instance, engine="indexed")
    assert idx_result.utility == dict_result.utility
    assert idx_result.method == dict_result.method
    assert idx_result.assignment.as_dict() == dict_result.assignment.as_dict()
    assert (
        idx_result.details["candidate_utilities"]
        == dict_result.details["candidate_utilities"]
    )
