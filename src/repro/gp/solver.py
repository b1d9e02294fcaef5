"""Log-space GP solver: numpy kernels under scipy.optimize's SLSQP.

The substitution ``y = log t`` turns every posynomial ``f(t)`` into
``F(y) = logsumexp(A y + log c)``, a smooth convex function whose gradient is
the softmax-weighted row sum of ``A``.  The program

    minimise F0(y)  subject to  Fi(y) <= 0

is therefore a smooth convex NLP.  Monomial constraints are *linear* in
log-space and are batched into a single vector-valued constraint; the
(few) true posynomial constraints are batched into a second one — so SLSQP
sees two callbacks per iteration instead of one per constraint, which keeps
each DAB recomputation in the low milliseconds.

The log-sum-exp/softmax kernels are plain numpy repeating scipy.special's
arithmetic step for step (bitwise equal, without its ~0.1 ms per-call
dispatch); sensitivity analysis and the delta-recompute patch use them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy.optimize import NonlinearConstraint, minimize

from repro.exceptions import InfeasibleProblemError, SolverFailedError
from repro.gp.diagnostics import SolveReport
from repro.gp.program import CompiledFunction, CompiledProgram, GeometricProgram

#: Accepted normalised constraint violation at a solution.
FEASIBILITY_TOL = 1e-6

#: Log-space variables are clipped to this box; e^30 ~ 1e13 comfortably
#: covers every quantity the paper's formulations produce.
_Y_BOUND = 30.0


@dataclass
class GPSolution:
    """A solved geometric program.

    Attributes
    ----------
    values:
        Optimal variable values in the original (positive) space.
    objective:
        Objective value at :attr:`values` (original space).
    report:
        :class:`~repro.gp.diagnostics.SolveReport` with convergence detail.
    """

    values: Dict[str, float]
    objective: float
    report: SolveReport

    def __getitem__(self, name: str) -> float:
        return self.values[name]


def _logsumexp(z: np.ndarray) -> float:
    """``log(sum(exp(z)))`` for a 1-D float array, bitwise equal to
    ``scipy.special.logsumexp(z)``: the maxima are split out of the shifted
    sum, which is then divided by their count ``m``, and the result is
    ``log1p(s) + log(m) + max``."""
    if z.shape[0] == 1:
        return 0.0 + float(z[0])   # scipy's log1p(0) + log(1) + z[0]
    a_max = z.max()
    mask = z == a_max
    m = float(np.count_nonzero(mask))
    s = np.exp(np.where(mask, -np.inf, z) - a_max).sum()
    if s != 0.0:
        s = s / m
    out = float(np.log1p(s) + np.log(m) + a_max)
    # scipy's fallback for infinite or all-``-inf`` input:
    return out if math.isfinite(out) else float(np.log(np.exp(z).sum()))


def _softmax(z: np.ndarray) -> np.ndarray:
    """``scipy.special.softmax(z)`` for a 1-D float array, bitwise."""
    e = np.exp(z - z.max())
    return e / e.sum()


def _lse_value(func: CompiledFunction, y: np.ndarray) -> float:
    return _logsumexp(func.A @ y + func.log_c)


def _lse_grad(func: CompiledFunction, y: np.ndarray) -> np.ndarray:
    """``∇F(y)``; for a monomial it is a view of the row of ``A``, so
    callers must not write to it."""
    if func.A.shape[0] == 1:
        return func.A[0]
    return _softmax(func.A @ y + func.log_c) @ func.A


def _lse_value_and_grad(func: CompiledFunction,
                        y: np.ndarray) -> Tuple[float, np.ndarray]:
    """``(F(y), ∇F(y))`` from one ``z = A y + log c``; the gradient is a
    fresh array (scipy.optimize may keep and reuse it)."""
    z = func.A @ y + func.log_c
    return _logsumexp(z), _softmax(z) @ func.A


class _ConstraintBundle:
    """All constraints of a compiled program as one vector function.

    Linear rows come from monomial (single-term) constraints:
    ``a·y + log c <= 0``.  Each multi-term posynomial contributes one
    log-sum-exp row.
    """

    def __init__(self, compiled: CompiledProgram):
        linear_rows: List[np.ndarray] = []
        linear_offsets: List[float] = []
        self.nonlinear: List[CompiledFunction] = []
        self.names: List[str] = []
        nonlinear_names: List[str] = []
        for name, func in zip(compiled.constraint_names, compiled.constraints):
            if func.A.shape[0] == 1:
                linear_rows.append(func.A[0])
                linear_offsets.append(float(func.log_c[0]))
                self.names.append(name)
            else:
                self.nonlinear.append(func)
                nonlinear_names.append(name)
        self.names.extend(nonlinear_names)
        dimension = len(compiled.variables)
        self.A_lin = (np.vstack(linear_rows) if linear_rows
                      else np.zeros((0, dimension)))
        self.c_lin = np.asarray(linear_offsets)
        self.size = self.A_lin.shape[0] + len(self.nonlinear)
        self._key: Optional[bytes] = None
        self._z: List[np.ndarray] = []

    def _exponents(self, y: np.ndarray) -> List[np.ndarray]:
        """Each posynomial row's ``z = A y + log c``, computed once per
        point: SLSQP and the phase-1 merit ask for the values and the
        Jacobian at the same ``y``."""
        key = y.tobytes()
        if key != self._key:
            self._z = [f.A @ y + f.log_c for f in self.nonlinear]
            self._key = key
        return self._z

    def values(self, y: np.ndarray) -> np.ndarray:
        """F_i(y) for every constraint (<= 0 means satisfied)."""
        parts = [self.A_lin @ y + self.c_lin]
        if self.nonlinear:
            parts.append(np.array([_logsumexp(z) for z in self._exponents(y)]))
        return np.concatenate(parts)

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        if not self.nonlinear:
            return self.A_lin
        rows = [_softmax(z) @ f.A
                for z, f in zip(self._exponents(y), self.nonlinear)]
        return np.vstack([self.A_lin, np.vstack(rows)])


def _initial_log_point(
    compiled: CompiledProgram, initial: Optional[Mapping[str, float]]
) -> np.ndarray:
    y0 = np.zeros(len(compiled.variables))
    if initial:
        for j, name in enumerate(compiled.variables):
            value = initial.get(name)
            if value is not None and value > 0.0 and math.isfinite(value):
                y0[j] = math.log(value)
    return np.clip(y0, -_Y_BOUND, _Y_BOUND)


def _restore_feasibility(bundle: _ConstraintBundle, y0: np.ndarray) -> np.ndarray:
    """Phase-1: push a start point toward the feasible region by minimising
    ``sum(max(Fi, 0)^2)`` — identically zero on the feasible set."""
    if bundle.size == 0 or float(np.max(bundle.values(y0))) <= 0.0:
        return y0

    def merit(y: np.ndarray) -> Tuple[float, np.ndarray]:
        violations = np.maximum(bundle.values(y), 0.0)
        value = float(violations @ violations)
        grad = 2.0 * (violations @ bundle.jacobian(y))
        return value, grad

    result = minimize(merit, y0, jac=True, method="BFGS",
                      options={"maxiter": 200, "gtol": 1e-10})
    return np.clip(result.x, -_Y_BOUND, _Y_BOUND)


def _solve_slsqp(compiled: CompiledProgram, bundle: _ConstraintBundle,
                 y0: np.ndarray, maxiter: int):
    constraints = []
    if bundle.size:
        constraints.append({
            "type": "ineq",
            "fun": lambda y: -bundle.values(y),
            "jac": lambda y: -bundle.jacobian(y),
        })
    return minimize(
        lambda y: _lse_value_and_grad(compiled.objective, y),
        y0,
        jac=True,
        method="SLSQP",
        bounds=[(-_Y_BOUND, _Y_BOUND)] * len(y0),
        constraints=constraints,
        options={"maxiter": maxiter, "ftol": 1e-10},
    )


def _solve_trust_constr(compiled: CompiledProgram, bundle: _ConstraintBundle,
                        y0: np.ndarray, maxiter: int):
    constraints = []
    if bundle.size:
        constraints.append(NonlinearConstraint(
            fun=bundle.values, lb=-np.inf, ub=0.0, jac=bundle.jacobian,
        ))
    return minimize(
        lambda y: _lse_value_and_grad(compiled.objective, y),
        y0,
        jac=True,
        method="trust-constr",
        constraints=constraints,
        options={"maxiter": maxiter, "gtol": 1e-9, "xtol": 1e-12},
    )


def _max_violation(bundle: _ConstraintBundle, y: np.ndarray) -> Tuple[float, Dict[str, float]]:
    if bundle.size == 0:
        return 0.0, {}
    # Report in original space: g(t) - 1 = exp(F(y)) - 1.
    violations = np.expm1(bundle.values(y))
    residuals = dict(zip(bundle.names, violations.tolist()))
    return float(np.max(violations)), residuals


def solve(
    program: GeometricProgram,
    initial: Optional[Mapping[str, float]] = None,
    max_starts: int = 4,
    maxiter: int = 300,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
) -> GPSolution:
    """Solve a geometric program to global optimality.

    Parameters
    ----------
    program:
        The :class:`~repro.gp.program.GeometricProgram` to solve.
    initial:
        Optional warm-start values (original space).  The simulator
        recomputes DABs at values close to the previous recomputation, so
        warm starts cut solve time substantially.
    max_starts:
        Number of (increasingly perturbed) starting points to try before
        declaring failure.
    seed:
        Seed for start-point perturbations — keeps solves deterministic.

    Raises
    ------
    InfeasibleProblemError
        When no feasible point could be found from any start.
    SolverFailedError
        When scipy terminated abnormally on every start.
    """
    return solve_compiled(program.compile(), initial=initial,
                          max_starts=max_starts, maxiter=maxiter,
                          seed=seed, tol=tol)


def solve_compiled(
    compiled: CompiledProgram,
    initial: Optional[Mapping[str, float]] = None,
    max_starts: int = 4,
    maxiter: int = 300,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
) -> GPSolution:
    """Solve an already-compiled program (see :func:`solve`).

    This is the re-entry point for compiled-GP structure reuse: planners
    keep a :class:`CompiledProgram` per query, refresh only its
    log-coefficient vectors at each recomputation, and call this directly —
    skipping the posynomial rebuild and ``compile()`` entirely.  Given
    bitwise-identical arrays and warm start, the solve trajectory (and
    hence the returned solution) is identical to the uncompiled path.
    """
    bundle = _ConstraintBundle(compiled)
    rng = np.random.default_rng(seed)
    base = _initial_log_point(compiled, initial)

    best: Optional[Tuple[np.ndarray, float]] = None
    last_message = ""
    method_used = ""
    iterations = 0
    starts = 0

    for attempt in range(max_starts):
        starts = attempt + 1
        if attempt == 0:
            y0 = base
        else:
            y0 = np.clip(base + rng.normal(scale=0.5 * attempt, size=base.shape),
                         -_Y_BOUND, _Y_BOUND)
        y0 = _restore_feasibility(bundle, y0)

        for method, runner in (("SLSQP", _solve_slsqp), ("trust-constr", _solve_trust_constr)):
            result = runner(compiled, bundle, y0, maxiter)
            last_message = str(getattr(result, "message", ""))
            y = np.asarray(result.x, dtype=float)
            if bundle.size:
                worst = float(np.max(np.expm1(bundle.values(y))))
            else:
                worst = 0.0
            if worst <= tol:
                objective = math.exp(_lse_value(compiled.objective, y))
                if best is None or objective < best[1]:
                    best = (y, objective)
                    method_used = method
                    iterations = int(getattr(result, "nit", 0) or 0)
                break  # this start produced a feasible point
        if best is not None:
            # The log-space problem is convex: one feasible converged solve
            # is globally optimal; no further starts needed.
            break

    if best is None:
        worst, residuals = _max_violation(bundle, _restore_feasibility(bundle, base))
        report = SolveReport(
            status="infeasible" if worst > tol else "failed",
            method=method_used,
            iterations=iterations,
            starts_tried=starts,
            max_violation=worst,
            residuals=residuals,
            message=last_message,
        )
        if report.status == "infeasible":
            raise InfeasibleProblemError(
                f"no feasible point found (worst violation {worst:.3e})", report
            )
        raise SolverFailedError(f"solver failed: {last_message}", report)

    y, objective = best
    worst, residuals = _max_violation(bundle, y)
    values = {
        name: float(math.exp(y[j])) for j, name in enumerate(compiled.variables)
    }
    report = SolveReport(
        status="optimal",
        method=method_used,
        iterations=iterations,
        starts_tried=starts,
        max_violation=worst,
        residuals=residuals,
        message=last_message,
    )
    return GPSolution(values=values, objective=objective, report=report)
