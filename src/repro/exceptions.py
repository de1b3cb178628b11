"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library errors without
accidentally swallowing programming mistakes such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An instance, assignment, or parameter failed validation.

    Raised, for example, when a stream cost exceeds its budget cap
    (the paper assumes ``c_i(S) <= B_i`` for every measure ``i``), when
    a utility is negative, or when identifiers are duplicated.
    """


class InfeasibleError(ReproError):
    """An operation would produce or requires an infeasible assignment."""


class SolverError(ReproError):
    """An exact solver (MILP / LP) failed to produce a solution."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class MissingDependencyError(ReproError, ImportError):
    """An optional dependency a call needs is not installed.

    Raised, for example, by the exact LP/MILP solvers when SciPy (the
    ``exact`` extra) is missing; the message names what to install.
    It is an :class:`ImportError` too, so existing import checks hold.
    """
