"""LP rounding heuristic for MMD.

Not part of the paper's toolbox (the paper is purely combinatorial), but
a natural competitor any systems deployment would consider: solve the
fractional relaxation, round stream selections randomly with
probabilities proportional to their fractional values, then *alter* the
rounded set back to feasibility (drop cheapest-utility streams/deliveries
until every budget holds).  Provides no worst-case guarantee for MMD —
the ablation bench (A2) measures where it lands between the greedy
pipeline and the exact optimum.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.assignment import Assignment
from repro.core.instance import MMDInstance
from repro.core.optimal import _MilpModel, scipy_highs, solve_relaxation
from repro.core.solver import greedy_fill
from repro.util.rng import ensure_rng


def fractional_solution(instance: MMDInstance) -> "tuple[dict[str, float], dict[tuple[str, str], float]]":
    """Solve the LP relaxation; returns (x values per stream, y values per
    (user, stream) pair)."""
    scipy_highs()  # refuse without SciPy whatever the instance
    model = _MilpModel(instance)
    if not model.pairs:
        return {}, {}
    result = solve_relaxation(model)
    x_values = {sid: float(result.x[model.x_index[sid]]) for sid in model.stream_ids}
    y_values = {
        pair: float(result.x[col]) for pair, col in model.y_index.items()
    }
    return x_values, y_values


def _drop_to_feasibility(instance: MMDInstance, assignment: Assignment) -> Assignment:
    """Alteration step: remove lowest-utility-per-violation deliveries and
    streams until every constraint holds."""
    a = assignment.copy()
    # User side first: per user, drop smallest-utility streams until fits.
    for user in instance.users:
        while True:
            loads = a.user_loads(user.user_id)
            violated = [
                j
                for j, cap in enumerate(user.capacities)
                if not math.isinf(cap) and loads[j] > cap * (1 + 1e-9)
            ]
            if not violated:
                break
            streams = sorted(
                a.streams_of(user.user_id),
                key=lambda sid: (user.utilities.get(sid, 0.0), sid),
            )
            dropped = False
            for sid in streams:
                if any(user.load(sid, j) > 0 for j in violated):
                    a.discard(user.user_id, sid)
                    dropped = True
                    break
            if not dropped:  # violation with no positive-load stream: give up
                for sid in streams:
                    a.discard(user.user_id, sid)
                break
    # Server side: drop transmitted streams of lowest realized utility.
    while not a.is_server_feasible():
        candidates = sorted(
            a.assigned_streams(),
            key=lambda sid: (
                sum(
                    instance.user(uid).utilities.get(sid, 0.0)
                    for uid in a.receivers_of(sid)
                ),
                sid,
            ),
        )
        victim = candidates[0]
        for uid in a.receivers_of(victim):
            a.discard(uid, victim)
    return a


def lp_rounding(
    instance: MMDInstance,
    seed: "int | np.random.Generator | None" = None,
    trials: int = 5,
    fill: bool = True,
) -> Assignment:
    """Randomized rounding with alteration; best of ``trials`` draws.

    Each trial includes stream ``S`` with probability ``x*_S`` and then
    delivers it to user ``u`` with probability ``y*_{u,S}/x*_S``; the
    alteration pass restores feasibility, and (optionally) greedy-fill
    reclaims slack the rounding left unused.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = ensure_rng(seed)
    x_values, y_values = fractional_solution(instance)
    best: "Assignment | None" = None
    best_value = -1.0
    for _ in range(trials):
        a = Assignment(instance)
        included = {
            sid for sid, x in x_values.items() if x > 0 and rng.random() < x
        }
        for (uid, sid), y in y_values.items():
            if sid not in included or y <= 0:
                continue
            x = max(x_values[sid], 1e-12)
            if rng.random() < min(y / x, 1.0):
                a.add(uid, sid)
        a = _drop_to_feasibility(instance, a)
        if fill:
            a = greedy_fill(instance, a)
        value = a.utility()
        if value > best_value:
            best, best_value = a, value
    assert best is not None
    return best
