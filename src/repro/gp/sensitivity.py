"""Post-solve sensitivity analysis for geometric programs.

In the log-space convex form, the KKT stationarity condition at the
optimum ``y*`` reads ``∇F0(y*) + Σ ν_i ∇F_i(y*) = 0`` with multipliers
``ν_i >= 0`` supported on the active constraints.  GP duality gives the
multipliers a direct operational meaning: for a constraint normalised as
``g(t)/limit <= 1``,

    d log(optimal objective) / d log(limit)  =  -ν_i

i.e. **relaxing a QAB by 1 % reduces the optimal message rate by ~ν_i %**.
That answers the operator question the paper's framework poses but never
automates: which query's accuracy bound is worth renegotiating?

The multipliers are recovered by a non-negative least-squares fit of the
stationarity condition over the active constraints — exact for a converged
solve, and the fit residual is reported so callers can tell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np
from scipy.optimize import nnls

from repro.exceptions import GPError
from repro.gp.program import CompiledProgram, GeometricProgram
from repro.gp.solver import (
    GPSolution,
    _lse_grad,
    _lse_value,
    _lse_value_and_grad,
)

#: A constraint counts as active when ``|g(t) - 1|`` is below this.
ACTIVE_TOL = 1e-4


@dataclass
class SensitivityReport:
    """Multipliers and elasticities at a GP optimum.

    Attributes
    ----------
    multipliers:
        ``constraint name -> ν`` (0.0 for inactive constraints).
    elasticities:
        ``constraint name -> d log(objective) / d log(limit) = -ν``.
    stationarity_residual:
        Norm of the KKT stationarity residual after the fit; near zero for
        a converged solve.
    active:
        Names of the constraints that were active at the optimum.
    """

    multipliers: Dict[str, float]
    elasticities: Dict[str, float]
    stationarity_residual: float
    active: List[str] = field(default_factory=list)

    def most_binding(self, top: int = 3) -> List[Tuple[str, float]]:
        """Constraints whose relaxation pays off most, best first."""
        ranked = sorted(self.multipliers.items(), key=lambda kv: -kv[1])
        return [(name, value) for name, value in ranked[:top] if value > 0.0]

    def predicted_relative_change(self, constraint: str,
                                  limit_factor: float) -> float:
        """First-order predicted relative objective change when one
        constraint's limit is multiplied by ``limit_factor``."""
        if limit_factor <= 0.0:
            raise GPError(f"limit factor must be positive, got {limit_factor!r}")
        elasticity = self.elasticities.get(constraint, 0.0)
        return float(np.expm1(elasticity * np.log(limit_factor)))


def analyze(program: GeometricProgram, solution: GPSolution) -> SensitivityReport:
    """Compute constraint multipliers/elasticities at a solved optimum."""
    return analyze_compiled(program.compile(), solution.values)


def analyze_compiled(compiled: CompiledProgram,
                     values: Mapping[str, float]) -> SensitivityReport:
    """:func:`analyze` on an already-compiled program.

    The compiled-template planners keep a :class:`CompiledProgram` per
    query whose log-coefficients are refreshed in place; calling this
    directly skips the posynomial rebuild that :func:`analyze` pays and is
    what the delta-recompute path uses to seed/validate its Newton patch.
    """
    order = compiled.variables
    y = np.array([np.log(values[name]) for name in order])

    objective_grad = _lse_grad(compiled.objective, y)

    active_gradients: List[np.ndarray] = []
    active_names: List[str] = []
    for name, func in zip(compiled.constraint_names, compiled.constraints):
        value = float(np.exp(_lse_value(func, y)))
        if abs(value - 1.0) <= ACTIVE_TOL:
            active_gradients.append(_lse_grad(func, y))
            active_names.append(name)

    multipliers = {name: 0.0 for name in compiled.constraint_names}
    if active_gradients:
        A = np.vstack(active_gradients).T          # (n_vars, n_active)
        nu, residual = nnls(A, -objective_grad)
        for name, value in zip(active_names, nu):
            multipliers[name] = float(value)
    else:
        residual = float(np.linalg.norm(objective_grad))

    elasticities = {name: -value for name, value in multipliers.items()}
    return SensitivityReport(
        multipliers=multipliers,
        elasticities=elasticities,
        stationarity_residual=float(residual),
        active=active_names,
    )


def kkt_residual(compiled: CompiledProgram, y: np.ndarray,
                 working: "List[int]", nu: np.ndarray) -> float:
    """∞-norm of the KKT residual of a working-set iterate.

    ``working`` indexes the constraints treated as equalities, ``nu`` their
    multipliers.  The residual combines stationarity
    (``∇F0 + Σ ν_i ∇F_i``) with primal feasibility of the working set
    (``F_i = 0``); dual feasibility (``ν >= 0``) and feasibility of the
    *non*-working constraints are checked separately by the caller, because
    their violation calls for an active-set update rather than more Newton
    steps.  This is the acceptance metric of the delta-recompute patch.
    """
    stationarity = _lse_grad(compiled.objective, y)
    primal = 0.0
    for multiplier, index in zip(nu, working):
        value, grad = _lse_value_and_grad(compiled.constraints[index], y)
        stationarity = stationarity + multiplier * grad
        primal = max(primal, abs(value))
    return max(float(np.max(np.abs(stationarity))), primal)


def qab_relaxation_value(program: GeometricProgram, solution: GPSolution,
                         constraint_name: str = "qab") -> float:
    """Shortcut: ν of the (normalised) QAB constraint — the % message-rate
    saving per % of QAB relaxation.  0.0 when the constraint is slack."""
    report = analyze(program, solution)
    return report.multipliers.get(constraint_name, 0.0)
