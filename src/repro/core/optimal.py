"""Exact solvers and bounds for MMD instances.

The paper proves worst-case approximation ratios analytically; the
reproduction measures them empirically, which requires the true optimum
on small and medium instances:

- :func:`solve_exact_milp` — a mixed-integer formulation solved by
  SciPy's HiGHS backend; exact for any instance it can fit in memory.
- :func:`solve_exact_bruteforce` — doubly exponential enumeration used
  only to cross-check the MILP on tiny instances.
- :func:`lp_upper_bound` — the fractional relaxation, a cheap upper
  bound on OPT for instances too large for exact solving (yields valid
  *lower* bounds on measured approximation ratios).

MILP formulation (capped-utility objective)::

    maximize   Σ_u t_u
    subject to y_{u,S} <= x_S                          (receive ⇒ transmit)
               Σ_S c_i(S)·x_S <= B_i                   (server budgets)
               Σ_S k^u_j(S)·y_{u,S} <= K^u_j           (user capacities)
               t_u <= Σ_S w_u(S)·y_{u,S}               (utility accounting)
               t_u <= W_u
               x, y ∈ {0,1};  t_u >= 0

For feasible assignments with infinite caps the objective equals the
paper's plain summed utility.

SciPy is imported only inside the functions that build or solve an LP or
MILP (:func:`scipy_highs`), so importing this module, the package root or
any serving, simulation or sweep path loads numpy alone; SciPy comes with
the ``exact`` extra (``pip install 'repro-mmd[exact]'``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.assignment import Assignment
from repro.core.instance import FEASIBILITY_RTOL, MMDInstance
from repro.exceptions import MissingDependencyError, SolverError


def scipy_highs():
    """Return ``(scipy.sparse, scipy.optimize)`` for the LP/MILP solvers.

    Raises :class:`~repro.exceptions.MissingDependencyError` (an
    :class:`ImportError`) naming the ``exact`` extra when SciPy is not
    installed.
    """
    try:
        from scipy import optimize, sparse
    except ImportError as exc:
        raise MissingDependencyError(
            "the exact LP/MILP solvers need SciPy >= 1.9; "
            "install it with: pip install 'repro-mmd[exact]'"
        ) from exc
    return sparse, optimize


@dataclass
class ExactSolution:
    """An exact (or bounding) solution.

    Attributes
    ----------
    assignment:
        The optimal assignment (empty for pure bounds).
    utility:
        Its capped utility — the optimum when ``status == "optimal"``.
    status:
        ``"optimal"`` or the solver's failure message.
    """

    assignment: Assignment
    utility: float
    status: str


class _MilpModel:
    """Index bookkeeping for the MILP/LP formulations."""

    def __init__(self, instance: MMDInstance) -> None:
        self.instance = instance
        self.stream_ids = instance.stream_ids()
        self.x_index = {sid: i for i, sid in enumerate(self.stream_ids)}
        self.pairs = [
            (u.user_id, sid) for u in instance.users for sid in sorted(u.utilities)
        ]
        self.y_index = {
            pair: len(self.stream_ids) + i for i, pair in enumerate(self.pairs)
        }
        self.t_index = {
            u.user_id: len(self.stream_ids) + len(self.pairs) + i
            for i, u in enumerate(instance.users)
        }
        self.num_vars = len(self.stream_ids) + len(self.pairs) + instance.num_users

    def objective(self) -> np.ndarray:
        c = np.zeros(self.num_vars)
        for idx in self.t_index.values():
            c[idx] = -1.0  # milp/linprog minimize
        return c

    def constraints(self) -> "scipy.optimize.LinearConstraint":
        sparse, optimize = scipy_highs()
        rows: "list[int]" = []
        cols: "list[int]" = []
        data: "list[float]" = []
        lower: "list[float]" = []
        upper: "list[float]" = []
        row = 0

        def add_entry(r: int, c: int, v: float) -> None:
            rows.append(r)
            cols.append(c)
            data.append(v)

        inst = self.instance
        # y_{u,S} - x_S <= 0
        for (uid, sid), y_col in self.y_index.items():
            add_entry(row, y_col, 1.0)
            add_entry(row, self.x_index[sid], -1.0)
            lower.append(-np.inf)
            upper.append(0.0)
            row += 1
        # server budgets
        for i, budget in enumerate(inst.budgets):
            if math.isinf(budget):
                continue
            nonzero = False
            for sid in self.stream_ids:
                cost = inst.stream(sid).costs[i]
                if cost > 0:
                    add_entry(row, self.x_index[sid], cost)
                    nonzero = True
            if nonzero:
                lower.append(-np.inf)
                upper.append(budget)
                row += 1
        # user capacities
        for u in inst.users:
            for j, cap in enumerate(u.capacities):
                if math.isinf(cap):
                    continue
                nonzero = False
                for sid in sorted(u.utilities):
                    load = u.load(sid, j)
                    if load > 0:
                        add_entry(row, self.y_index[(u.user_id, sid)], load)
                        nonzero = True
                if nonzero:
                    lower.append(-np.inf)
                    upper.append(cap)
                    row += 1
        # t_u - Σ w_u(S) y <= 0
        for u in inst.users:
            add_entry(row, self.t_index[u.user_id], 1.0)
            for sid, w in sorted(u.utilities.items()):
                add_entry(row, self.y_index[(u.user_id, sid)], -w)
            lower.append(-np.inf)
            upper.append(0.0)
            row += 1

        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(row, self.num_vars)
        )
        return optimize.LinearConstraint(matrix, np.array(lower), np.array(upper))

    def bounds(self) -> "scipy.optimize.Bounds":
        _, optimize = scipy_highs()
        lb = np.zeros(self.num_vars)
        ub = np.ones(self.num_vars)
        for u in self.instance.users:
            idx = self.t_index[u.user_id]
            total = sum(u.utilities.values())
            ub[idx] = min(u.utility_cap, total)
        return optimize.Bounds(lb, ub)

    def integrality(self) -> np.ndarray:
        kinds = np.ones(self.num_vars)
        for idx in self.t_index.values():
            kinds[idx] = 0.0  # t_u continuous
        return kinds

    def extract_assignment(self, x: np.ndarray) -> Assignment:
        assignment = Assignment(self.instance)
        for (uid, sid), col in self.y_index.items():
            if x[col] > 0.5:
                assignment.add(uid, sid)
        return assignment


def solve_exact_milp(instance: MMDInstance) -> ExactSolution:
    """Exact optimum via mixed-integer programming (HiGHS).

    Raises :class:`SolverError` if the solver reports anything but
    optimality (MMD always has the feasible empty assignment, so
    infeasibility indicates a modeling bug).
    """
    _, optimize = scipy_highs()
    model = _MilpModel(instance)
    if not model.pairs:
        return ExactSolution(Assignment(instance), 0.0, "optimal")
    result = optimize.milp(
        model.objective(),
        constraints=model.constraints(),
        bounds=model.bounds(),
        integrality=model.integrality(),
    )
    if not result.success:
        raise SolverError(f"MILP failed: {result.message}")
    assignment = model.extract_assignment(result.x)
    return ExactSolution(assignment, assignment.utility(), "optimal")


def solve_relaxation(model: _MilpModel):
    """HiGHS solution of ``model``'s LP relaxation (a SciPy ``OptimizeResult``)."""
    _, optimize = scipy_highs()
    constraint = model.constraints()
    bounds = model.bounds()
    result = optimize.linprog(
        model.objective(),
        A_ub=constraint.A,
        b_ub=constraint.ub,
        bounds=list(zip(bounds.lb, bounds.ub)),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"LP relaxation failed: {result.message}")
    return result


def lp_upper_bound(instance: MMDInstance) -> float:
    """Fractional relaxation value — an upper bound on the exact optimum."""
    scipy_highs()  # refuse without SciPy whatever the instance
    model = _MilpModel(instance)
    if not model.pairs:
        return 0.0
    return float(-solve_relaxation(model).fun)


def _user_best_subsets(instance: MMDInstance, transmitted: "tuple[str, ...]") -> float:
    """Best capped utility given a fixed transmitted set: per-user
    enumeration over received subsets (exponential; tiny inputs only)."""
    total = 0.0
    for u in instance.users:
        wanted = [sid for sid in transmitted if sid in u.utilities]
        best = 0.0
        for size in range(len(wanted) + 1):
            for combo in itertools.combinations(wanted, size):
                feasible = True
                for j, cap in enumerate(u.capacities):
                    if math.isinf(cap):
                        continue
                    load = sum(u.load(sid, j) for sid in combo)
                    if load > cap * (1 + FEASIBILITY_RTOL):
                        feasible = False
                        break
                if not feasible:
                    continue
                value = min(u.utility_cap, sum(u.utilities[sid] for sid in combo))
                best = max(best, value)
        total += best
    return total


def solve_exact_bruteforce(instance: MMDInstance, max_streams: int = 16) -> ExactSolution:
    """Doubly exponential exact search; cross-checks the MILP on tiny inputs.

    Enumerates every server-feasible transmitted set, then every
    capacity-feasible received subset per user.  Refuses instances with
    more than ``max_streams`` streams.
    """
    if instance.num_streams > max_streams:
        raise SolverError(
            f"bruteforce limited to {max_streams} streams, got {instance.num_streams}"
        )
    sids = instance.stream_ids()
    best_value = -1.0
    best_set: "tuple[str, ...]" = ()
    for size in range(len(sids) + 1):
        for combo in itertools.combinations(sids, size):
            feasible = True
            for i, budget in enumerate(instance.budgets):
                if math.isinf(budget):
                    continue
                cost = sum(instance.stream(sid).costs[i] for sid in combo)
                if cost > budget * (1 + FEASIBILITY_RTOL):
                    feasible = False
                    break
            if not feasible:
                continue
            value = _user_best_subsets(instance, combo)
            if value > best_value:
                best_value, best_set = value, combo
    # Rebuild the witness assignment for the best transmitted set.
    assignment = Assignment(instance)
    for u in instance.users:
        wanted = [sid for sid in best_set if sid in u.utilities]
        best_combo: "tuple[str, ...]" = ()
        best_user_value = 0.0
        for size in range(len(wanted) + 1):
            for combo in itertools.combinations(wanted, size):
                feasible = True
                for j, cap in enumerate(u.capacities):
                    if math.isinf(cap):
                        continue
                    load = sum(u.load(sid, j) for sid in combo)
                    if load > cap * (1 + FEASIBILITY_RTOL):
                        feasible = False
                        break
                if not feasible:
                    continue
                value = min(u.utility_cap, sum(u.utilities[sid] for sid in combo))
                if value > best_user_value:
                    best_user_value, best_combo = value, combo
        for sid in best_combo:
            assignment.add(u.user_id, sid)
    return ExactSolution(assignment, assignment.utility(), "optimal")
