"""Delta-driven incremental recompute (the DBToaster idea for GP plans).

Most secondary-DAB window breaches barely move a query's optimum: one or
two items drifted past their window edge, the compiled-GP structure is
unchanged, and the previous optimum is an excellent start.  Answering
every breach with the full multi-start solve (phase-1 feasibility
restoration + SLSQP + trust-constr retries) wastes almost all of that
locality.

:class:`DeltaRecomputePlanner` wraps a :class:`DualDABPlanner` and, in
``delta`` mode, answers a breach with a *local coefficient patch*:

1. the query's compiled template refreshes its log-coefficient vectors at
   the new values (`changed_items` records which log-variables moved);
2. a warm-started Newton-KKT solve on the template's log-space program —
   starting from the last optimum and its active set — computes the
   patched main solution (primary DABs + recompute rate);
3. the widening program gets the same treatment for the secondary DABs;
4. the patch is **accepted only if** every KKT condition holds to
   tolerance (primal feasibility, dual feasibility ``ν >= 0``, and the
   stationarity/working-set residual of
   :func:`repro.gp.sensitivity.kkt_residual`) *and* the assembled plan
   satisfies the paper's QAB-over-window fidelity invariant
   (:meth:`DABAssignment.guarantees_qab_over_window`).  Anything else —
   degenerate KKT systems, an active set that will not settle, value
   perturbations too violent for a local step — *declines*, and the
   planner falls back to the full multi-start solve.

Soundness: the log-space program is convex, so a point satisfying the KKT
conditions to tolerance is the global optimum to (the same) tolerance —
the patched objective matches what the full solve would return, which is
exactly what the property-based equivalence suite asserts.  The QAB
invariant is additionally enforced directly, so even a wrongly-accepted
patch could never ship an unsound plan.

In ``full`` mode the wrapper is a strict pass-through around the inner
planner (bit-identical plans; it only measures latency and counts solves),
which is what keeps ``--recompute-mode full`` byte-identical to the
pre-delta code while still feeding the recompute-latency benchmark.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import FilterError, GPError
from repro.filters.assignment import DABAssignment
from repro.filters.dual_dab import RECOMPUTE_RATE_VARIABLE, DualDABPlanner
from repro.gp.program import CompiledFunction, CompiledProgram
from repro.gp.sensitivity import kkt_residual
from repro.gp.solver import (
    FEASIBILITY_TOL,
    _Y_BOUND,
    _ConstraintBundle,
    _lse_grad,
    _lse_value,
    _softmax,
)
from repro.queries.bank_index import template_key
from repro.queries.deviation import primary_variable, secondary_variable
from repro.queries.polynomial import PolynomialQuery

#: Modes the planner (and the ``--recompute-mode`` flag) accepts.
RECOMPUTE_MODES = ("full", "delta")

#: Constraints within this of active (log-space) seed the working set.
#: Loose on purpose: a coefficient refresh shifts a previously-active
#: constraint's value by roughly the relative value change, so the seed
#: must catch "active at the *old* optimum" — a spurious inclusion merely
#: costs one ν<0 drop round, a missed one leaves the KKT system without
#: the constraint that carries all the curvature (a qab constraint sitting
#: at -0.04 after a volatile tick would stall Newton entirely at 3e-2).
_WORKING_SET_TOL = 0.1

#: Multipliers below this are treated as negative (drop from working set).
_DUAL_TOL = 1e-9

#: Largest per-coordinate log-space Newton step taken at once (e^2 ≈ 7.4×
#: in the original space); larger proposals are damped, not trusted.
_MAX_LOG_STEP = 2.0

#: Latency samples kept per category (enough for stable p99 at any
#: realistic run length while bounding memory on soaks).
_MAX_LATENCY_SAMPLES = 100_000


def _lse_hessian(func: CompiledFunction, y: np.ndarray) -> np.ndarray:
    """Hessian of ``F(y) = logsumexp(A y + log c)``:
    ``Aᵀ (diag(w) - w wᵀ) A`` with softmax weights ``w`` — positive
    semi-definite, which is what makes the log-space program convex and a
    warm Newton-KKT patch on it sound."""
    weights = _softmax(func.A @ y + func.log_c)
    weighted = func.A * weights[:, None]
    mean = weights @ func.A
    return func.A.T @ weighted - np.outer(mean, mean)


class _BatchedConstraints:
    """All constraint values of a compiled program in one sweep, in the
    program's constraint order: the solver's bundle (the monomial rows as a
    single matvec, one log-sum-exp per true posynomial) permuted back.
    Built per patch, *after* the template refresh, so the offsets are
    current."""

    def __init__(self, compiled: CompiledProgram):
        self.m = len(compiled.constraints)
        self.bundle = _ConstraintBundle(compiled)
        # The bundle lists the single-row constraints first, then the rest.
        posynomial = [func.A.shape[0] > 1 for func in compiled.constraints]
        self.order = np.argsort(posynomial, kind="stable")

    def values(self, y: np.ndarray) -> np.ndarray:
        out = np.empty(self.m)
        out[self.order] = self.bundle.values(y)
        return out


@dataclass
class PatchResult:
    """An accepted Newton-KKT patch of one compiled program."""

    values: Dict[str, float]
    objective: float
    residual: float
    iterations: int


@dataclass
class DeltaStats:
    """Patch/fallback/residual counters for the stats plane.

    ``patches``/``fallbacks`` partition the *window-breach* recomputes of
    delta mode (a breach either patched or fell back to the full solve);
    ``cold_solves`` are first-plan solves that had no previous optimum to
    patch from, and ``full_solves`` counts pass-through solves in ``full``
    mode.  Latency samples are kept per category so the benchmark can
    report breach-resolution percentiles for both modes.
    """

    mode: str = "full"
    patches: int = 0
    fallbacks: int = 0
    cold_solves: int = 0
    full_solves: int = 0
    #: Cold solves warm-started from a structurally-identical sibling's
    #: optimum (``share_templates`` mode — the shared bank-index stack).
    template_seeds: int = 0
    patch_newton_iterations: int = 0
    affected_items: int = 0
    last_residual: float = 0.0
    max_residual: float = 0.0
    declines: Dict[str, int] = field(default_factory=dict)
    patch_seconds: List[float] = field(default_factory=list)
    fallback_seconds: List[float] = field(default_factory=list)
    full_seconds: List[float] = field(default_factory=list)

    @property
    def breaches(self) -> int:
        return self.patches + self.fallbacks

    @property
    def patch_hit_rate(self) -> float:
        """Fraction of window breaches resolved without a full solve."""
        return self.patches / self.breaches if self.breaches else 0.0

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.breaches if self.breaches else 0.0

    def note_decline(self, reason: str) -> None:
        self.declines[reason] = self.declines.get(reason, 0) + 1

    def note_residual(self, residual: float) -> None:
        self.last_residual = float(residual)
        if residual > self.max_residual:
            self.max_residual = float(residual)

    def _record(self, samples: List[float], seconds: float) -> None:
        if len(samples) < _MAX_LATENCY_SAMPLES:
            samples.append(float(seconds))

    def record_patch(self, seconds: float) -> None:
        self.patches += 1
        self._record(self.patch_seconds, seconds)

    def record_fallback(self, seconds: float) -> None:
        self.fallbacks += 1
        self._record(self.fallback_seconds, seconds)

    def record_cold(self, seconds: float) -> None:
        self.cold_solves += 1
        self._record(self.full_seconds, seconds)

    def record_full(self, seconds: float) -> None:
        self.full_solves += 1
        self._record(self.full_seconds, seconds)

    def breach_seconds(self) -> List[float]:
        """Latencies of breach-driven recomputes: patches + fallbacks in
        delta mode, the pass-through solves in full mode."""
        if self.mode == "delta":
            return self.patch_seconds + self.fallback_seconds
        return self.full_seconds

    def latency_summary(self) -> Dict[str, float]:
        """The ``recompute_latency`` section: breach-resolution percentiles
        (milliseconds) plus patch-hit/fallback rates."""
        samples = self.breach_seconds()
        summary: Dict[str, float] = {
            "mode": self.mode,
            "samples": len(samples),
            "patches": self.patches,
            "fallbacks": self.fallbacks,
            "cold_solves": self.cold_solves,
            "full_solves": self.full_solves,
            "template_seeds": self.template_seeds,
            "patch_hit_rate": round(self.patch_hit_rate, 4),
            "fallback_rate": round(self.fallback_rate, 4),
        }
        if samples:
            arr = np.asarray(samples) * 1000.0
            for label, q in (("p50", 50), ("p95", 95), ("p99", 99)):
                summary[f"{label}_ms"] = round(float(np.percentile(arr, q)), 4)
            summary["mean_ms"] = round(float(arr.mean()), 4)
        return summary

    def snapshot(self) -> Dict[str, object]:
        """Counter snapshot for the service stats plane (no latency lists)."""
        return {
            "mode": self.mode,
            "patches": self.patches,
            "fallbacks": self.fallbacks,
            "cold_solves": self.cold_solves,
            "full_solves": self.full_solves,
            "template_seeds": self.template_seeds,
            "patch_hit_rate": round(self.patch_hit_rate, 4),
            "last_residual": self.last_residual,
            "max_residual": self.max_residual,
            "declines": dict(self.declines),
        }


def _newton_working_set(
    compiled: CompiledProgram,
    y0: np.ndarray,
    working: Sequence[int],
    max_iterations: int,
    kkt_tol: float,
):
    """Newton on the KKT equalities of a fixed working set.

    Solves ``min F0(y)  s.t.  F_i(y) = 0, i in working`` from ``y0`` by
    iterating the (regularised) KKT system

        [ H   Aᵀ ] [dy]   [-(∇F0 + Aᵀν)]
        [ A   0  ] [dν] = [    -F       ]

    where ``H`` is the Lagrangian Hessian with multipliers clipped at zero
    (each term is PSD, so ``H`` stays PSD).  Returns ``(y, ν, residual,
    iterations)`` with ``residual`` the *unregularised* KKT residual —
    acceptance never trusts the damping/regularisation tricks used to get
    there.
    """
    n = y0.shape[0]
    constraints = [compiled.constraints[i] for i in working]
    k = len(constraints)
    y = y0.copy()
    # Seed the multipliers with the NNLS stationarity fit (the sensitivity
    # machinery's recovery) instead of zero: the Lagrangian Hessian only
    # has curvature in the secondary-DAB directions through ν-weighted
    # constraint Hessians, so a zero seed makes the first KKT system
    # singular and the damped steps stall.
    nu = np.zeros(k)
    if k:
        from scipy.optimize import nnls

        A0 = np.vstack([_lse_grad(func, y) for func in constraints])
        try:
            nu = nnls(A0.T, -_lse_grad(compiled.objective, y))[0]
        except (ValueError, RuntimeError):
            nu = np.zeros(k)
    eye = np.eye(n)
    residual = math.inf
    for iteration in range(max_iterations):
        grad0 = _lse_grad(compiled.objective, y)
        if k:
            A = np.vstack([_lse_grad(func, y) for func in constraints])
            c = np.array([_lse_value(func, y) for func in constraints])
            stationarity = grad0 + A.T @ nu
            residual = max(float(np.max(np.abs(stationarity))),
                           float(np.max(np.abs(c))))
        else:
            A = np.zeros((0, n))
            c = np.zeros(0)
            stationarity = grad0
            residual = float(np.max(np.abs(stationarity))) if n else 0.0
        if residual <= kkt_tol:
            return y, nu, residual, iteration
        H = _lse_hessian(compiled.objective, y)
        for multiplier, func in zip(nu, constraints):
            if multiplier > 0.0 and func.A.shape[0] > 1:
                H = H + multiplier * _lse_hessian(func, y)
        system = np.zeros((n + k, n + k))
        system[:n, :n] = H + 1e-10 * eye
        system[:n, n:] = A.T
        system[n:, :n] = A
        rhs = np.concatenate([-stationarity, -c])
        try:
            step = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(system, rhs, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return y, nu, math.inf, iteration
        dy, dnu = step[:n], step[n:]
        largest = float(np.max(np.abs(dy))) if n else 0.0
        scale = _MAX_LOG_STEP / largest if largest > _MAX_LOG_STEP else 1.0
        y = np.clip(y + scale * dy, -_Y_BOUND, _Y_BOUND)
        nu = nu + scale * dnu
    return y, nu, residual, max_iterations


def newton_patch(
    compiled: CompiledProgram,
    start: Optional[Mapping[str, float]],
    kkt_tol: float = 1e-7,
    feasibility_tol: float = FEASIBILITY_TOL,
    max_newton_iterations: int = 12,
    max_working_set_rounds: int = 4,
) -> Optional[PatchResult]:
    """Warm-started Newton-KKT patch of a refreshed compiled program.

    ``start`` is the previous optimum (original-space values, every
    variable present and positive).  Returns the patched solution, or
    ``None`` whenever any acceptance condition fails — the caller then
    falls back to the full multi-start solve.  Never raises on numerical
    trouble: a bad patch is a decline, not an error.
    """
    if start is None:
        return None
    order = compiled.variables
    y = np.empty(len(order))
    for j, name in enumerate(order):
        value = start.get(name)
        if value is None or not (value > 0.0) or not math.isfinite(value):
            return None
        y[j] = math.log(value)
    y = np.clip(y, -_Y_BOUND, _Y_BOUND)

    batched = _BatchedConstraints(compiled)
    m = batched.m

    # Seed the working set with the constraints (near-)active or violated
    # at the warm start under the *new* coefficients.
    initial = batched.values(y) if m else np.zeros(0)
    working = [i for i in range(m) if initial[i] >= -_WORKING_SET_TOL]

    iterations = 0
    log_feas = math.log1p(feasibility_tol)
    for _ in range(max_working_set_rounds):
        y_next, nu, residual, used = _newton_working_set(
            compiled, y, working, max_newton_iterations, kkt_tol)
        iterations += used
        if not math.isfinite(residual) or residual > kkt_tol:
            return None
        y = y_next
        values_now = batched.values(y) if m else np.zeros(0)
        violated = [i for i in range(m)
                    if i not in working and values_now[i] > log_feas]
        negative = [j for j, multiplier in enumerate(nu)
                    if multiplier < -_DUAL_TOL]
        if not violated and not negative:
            objective = math.exp(_lse_value(compiled.objective, y))
            final_residual = kkt_residual(
                compiled, y, working, np.maximum(nu, 0.0))
            if final_residual > 10.0 * kkt_tol:
                return None
            return PatchResult(
                values={name: float(math.exp(y[j]))
                        for j, name in enumerate(order)},
                objective=objective,
                residual=final_residual,
                iterations=iterations,
            )
        if negative:
            # Drop the most negative multiplier's constraint; the convex
            # active-set update that cannot cycle within the round budget.
            drop = working[min(negative, key=lambda j: nu[j])]
            working = [i for i in working if i != drop]
        working = sorted(set(working) | set(violated))
    return None


class DeltaRecomputePlanner:
    """Patch-first recompute wrapper around a :class:`DualDABPlanner`.

    Sits *below* the Different-Sum / Half-and-Half mirroring wrappers (so
    it only ever sees PPQs, exactly like the inner planner) and *above*
    the inner :class:`DualDABPlanner`.  ``mode="full"`` is a strict
    pass-through — identical plans, only timing/counting added — which is
    the default wiring so existing runs stay bit-identical.
    """

    def __init__(
        self,
        inner: DualDABPlanner,
        mode: str = "delta",
        kkt_tol: float = 1e-7,
        max_newton_iterations: int = 12,
        max_working_set_rounds: int = 4,
        share_templates: bool = False,
    ):
        if mode not in RECOMPUTE_MODES:
            raise FilterError(
                f"recompute mode must be one of {RECOMPUTE_MODES}, got {mode!r}")
        if mode == "delta" and not inner.use_compiled:
            raise FilterError(
                "delta recompute needs the compiled-GP templates; build the "
                "inner DualDABPlanner with use_compiled=True")
        self.inner = inner
        self.mode = mode
        self.kkt_tol = float(kkt_tol)
        self.max_newton_iterations = int(max_newton_iterations)
        self.max_working_set_rounds = int(max_working_set_rounds)
        self.stats = DeltaStats(mode=mode)
        #: query name -> {"main": last main-solve values,
        #:                "secondary": last widened secondary DABs}
        self._states: Dict[str, Dict[str, Dict[str, float]]] = {}
        #: Shared-bank-index stack: seed a *cold* query's multi-start solve
        #: from a structurally-identical sibling's last optimum.  Same
        #: template key means same items and hence same GP variable names,
        #: so a sibling's point is a valid start; the full solve still
        #: verifies every constraint, so this only moves the start point,
        #: never soundness.
        self.share_templates = bool(share_templates)
        self._anchors: Dict[tuple, Dict[str, float]] = {}

    @property
    def recompute_mode(self) -> str:
        """The mode, discoverable by cache layers for mode-aware keying."""
        return self.mode

    # -- planning -----------------------------------------------------------------

    def plan(self, query: PolynomialQuery,
             values: Mapping[str, float]) -> DABAssignment:
        started = _time.perf_counter()
        if self.mode != "delta":
            plan = self.inner.plan(query, values)
            self.stats.record_full(_time.perf_counter() - started)
            return plan

        state = self._states.get(query.name)
        if state is not None:
            plan = self._try_patch(query, values, state)
            if plan is not None:
                self.stats.record_patch(_time.perf_counter() - started)
                return plan
            plan = self._full_solve(query, values)
            self.stats.record_fallback(_time.perf_counter() - started)
            return plan
        if self.share_templates and self.inner.warm_start(query.name) is None:
            anchor = self._anchors.get(template_key(query))
            if anchor is not None:
                self.inner.seed_warm_start(query.name, dict(anchor))
                self.stats.template_seeds += 1
        plan = self._full_solve(query, values)
        self.stats.record_cold(_time.perf_counter() - started)
        return plan

    def _full_solve(self, query: PolynomialQuery,
                    values: Mapping[str, float]) -> DABAssignment:
        """The inner multi-start solve, with the patch state re-anchored on
        its result (GP failures propagate — the coordinator's degradation
        machinery owns those)."""
        try:
            plan = self.inner.plan(query, values)
        except GPError:
            # No sound optimum to patch from next breach.
            self._states.pop(query.name, None)
            raise
        main = self.inner.warm_start(query.name)
        if main is not None and plan.secondary is not None:
            self._states[query.name] = {
                "main": dict(main),
                "secondary": dict(plan.secondary),
            }
        if self.share_templates and main is not None:
            self._anchors[template_key(query)] = dict(main)
        return plan

    def _try_patch(self, query: PolynomialQuery, values: Mapping[str, float],
                   state: Dict[str, Dict[str, float]]) -> Optional[DABAssignment]:
        """One breach, patched — or ``None`` with the decline reason noted."""
        stats = self.stats
        template = self.inner.compiled_template(query.name)
        if template is None:
            stats.note_decline("no_template")
            return None
        items = query.variables
        try:
            affected = template.changed_items(values)
            template.refresh(values)
        except (KeyError, ValueError, OverflowError):
            stats.note_decline("refresh_error")
            return None
        stats.affected_items += len(affected)

        main = newton_patch(
            template.compiled, state["main"],
            kkt_tol=self.kkt_tol,
            max_newton_iterations=self.max_newton_iterations,
            max_working_set_rounds=self.max_working_set_rounds,
        )
        if main is None:
            stats.note_decline("main_kkt")
            return None
        stats.patch_newton_iterations += main.iterations

        primary = {name: main.values[primary_variable(name)] for name in items}
        secondary = {name: main.values[secondary_variable(name)]
                     for name in items}
        for name in items:
            if secondary[name] < primary[name]:
                secondary[name] = primary[name]

        if self.inner.widen_windows:
            widen = self._patch_widening(query, values, primary, secondary,
                                         state, template)
            if widen is None:
                return None
            secondary = widen

        try:
            plan = DABAssignment(
                primary=primary,
                secondary=secondary,
                reference_values={name: float(values[name]) for name in items},
                recompute_rate=main.values[RECOMPUTE_RATE_VARIABLE],
                objective=main.objective,
            )
        except FilterError:
            stats.note_decline("invalid_assignment")
            return None
        # The fidelity invariant is a hard post-condition: even an
        # erroneously-accepted KKT point may never ship an unsound plan.
        if not plan.guarantees_qab_over_window(query):
            stats.note_decline("qab_invariant")
            return None

        state["main"] = dict(main.values)
        state["secondary"] = dict(secondary)
        # Keep the full-solve path warm-started from the patched optimum,
        # exactly as a full solve would have left it.
        self.inner.seed_warm_start(query.name, main.values)
        if self.share_templates:
            self._anchors[template_key(query)] = dict(main.values)
        stats.note_residual(main.residual)
        return plan

    def _patch_widening(self, query, values, primary, main_secondary,
                        state, template) -> Optional[Dict[str, float]]:
        """Newton-patch the secondary-widening program; ``None`` declines."""
        stats = self.stats
        items = query.variables
        try:
            widen_template = template.widen_template(values, primary)
            widen_template.refresh(values, primary)
        except GPError:
            stats.note_decline("widen_infeasible")
            return None
        start = {}
        previous = state.get("secondary", {})
        for name in items:
            c = previous.get(name, main_secondary[name])
            start[secondary_variable(name)] = max(float(c), primary[name])
        result = newton_patch(
            widen_template.compiled, start,
            kkt_tol=self.kkt_tol,
            max_newton_iterations=self.max_newton_iterations,
            max_working_set_rounds=self.max_working_set_rounds,
        )
        if result is None:
            stats.note_decline("widen_kkt")
            return None
        secondary = {name: result.values[secondary_variable(name)]
                     for name in items}
        for name in items:
            if secondary[name] < primary[name]:
                secondary[name] = float(primary[name])
        return secondary

    # -- stack protocol -----------------------------------------------------------

    def forget_query(self, name: str) -> None:
        """Drop *name*'s anchor state and the inner planner's per-name
        caches (the query may be re-registered with a different shape)."""
        prefix = f"{name}__"
        for key in [k for k in self._states
                    if k == name or k.startswith(prefix)]:
            del self._states[key]
        forget = getattr(self.inner, "forget_query", None)
        if forget is not None:
            forget(name)

    def clear_warm_starts(self) -> None:
        """Fault resync: drop the inner solver starts *and* the patch
        anchors — a patch from a pre-resync optimum would face arbitrary
        value drift, exactly what the resync says happened."""
        self._states.clear()
        self._anchors.clear()
        self.inner.clear_warm_starts()


def find_delta_planner(planner: object) -> Optional[DeltaRecomputePlanner]:
    """Walk a planner stack (``.planner``/``.base``/``.inner`` links) to the
    :class:`DeltaRecomputePlanner`, if one is wired in."""
    seen = set()
    node = planner
    while node is not None and id(node) not in seen:
        if isinstance(node, DeltaRecomputePlanner):
            return node
        seen.add(id(node))
        node = (getattr(node, "planner", None)
                or getattr(node, "base", None)
                or getattr(node, "inner", None))
    return None
