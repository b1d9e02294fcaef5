"""The solver's numpy log-sum-exp/softmax kernels against scipy.special.

``scipy.special`` is a test oracle only: the kernels repeat its arithmetic
operation for operation, so they must agree with it bitwise, and a GP solve
must follow the same SLSQP trajectory with either pair of kernels.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp, softmax

from repro.dynamics import estimate_rates
from repro.exceptions import GPError
from repro.filters.compiled_gp import CompiledDualDabTemplate
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import build_widen_program
from repro.gp import solver
from repro.gp.solver import _logsumexp, _softmax, solve_compiled
from repro.queries.deviation import primary_variable
from repro.workloads import scaled_scenario
from tests.gp.test_solver_random_programs import random_programs


@st.composite
def exponent_vectors(draw):
    """Finite vectors of 1-70 entries (numpy sums in 8-wide pairwise
    blocks, so this crosses several block boundaries), spread from 1e-3
    to 300 around an arbitrary centre, with some entries forced to tie
    at the maximum."""
    n = draw(st.integers(min_value=1, max_value=70))
    unit = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                         min_size=n, max_size=n))
    spread = 10.0 ** draw(st.floats(min_value=-3.0,
                                    max_value=math.log10(300.0)))
    centre = draw(st.floats(min_value=-60.0, max_value=60.0))
    z = centre + spread * np.asarray(unit)
    ties = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         max_size=min(n, 5)))
    z[ties] = z.max()
    return z


@given(exponent_vectors())
@settings(max_examples=400, deadline=None)
def test_kernels_equal_scipy_bitwise(z):
    assert _logsumexp(z) == float(logsumexp(z))
    assert np.array_equal(_softmax(z), softmax(z))


@pytest.mark.parametrize("z", [
    np.array([-0.0]),
    np.array([3.5, 3.5, 3.5]),
    np.array([-np.inf, 1.0, 2.0]),
    np.array([-np.inf, -np.inf]),
    np.array([np.inf, 1.0]),
], ids=["negative-zero", "all-tied", "one-minus-inf", "all-minus-inf",
        "plus-inf"])
def test_logsumexp_edge_cases_match_scipy(z):
    with np.errstate(divide="ignore", invalid="ignore"):
        mine = _logsumexp(z)
    expected = float(logsumexp(z))
    assert mine == expected
    assert math.copysign(1.0, mine) == math.copysign(1.0, expected)


@contextlib.contextmanager
def scipy_kernels():
    """Swap scipy's logsumexp/softmax back into the solver."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_logsumexp", lambda z: float(logsumexp(z)))
        patch.setattr(solver, "_softmax", softmax)
        yield


def _outcome(compiled, **kwargs):
    try:
        solution = solve_compiled(compiled, **kwargs)
    except GPError as error:
        report = error.report
        return (type(error).__name__, report.iterations, report.starts_tried,
                report.method, report.max_violation)
    report = solution.report
    return (solution.values, solution.objective, report.iterations,
            report.starts_tried, report.method, report.max_violation,
            report.residuals)


@given(random_programs())
@settings(max_examples=40, deadline=None)
def test_random_programs_solve_identically(gp):
    ours = _outcome(gp.compile())
    with scipy_kernels():
        assert _outcome(gp.compile()) == ours


@pytest.fixture(scope="module")
def dual_dab_world():
    scenario = scaled_scenario(query_count=6, item_count=20, trace_length=201,
                               source_count=4, seed=7)
    cost_model = CostModel(rates=estimate_rates(scenario.traces),
                           recompute_cost=5.0)
    return scenario, cost_model


@pytest.mark.parametrize("index", range(6))
def test_dual_dab_template_solves_identically(dual_dab_world, index):
    """A cold dual-DAB solve, a warm one after a coefficient refresh and
    the widen solve seeded from the cold optimum."""
    scenario, cost_model = dual_dab_world
    query = scenario.queries[index]
    start = scenario.traces.values_at(0)

    def solves():
        template = CompiledDualDabTemplate(query, start, cost_model)
        cold = _outcome(template.compiled)
        primary = {name: cold[0][primary_variable(name)]
                   for name in query.variables}
        widen = build_widen_program(query, start, primary, cost_model)
        template.refresh(scenario.traces.values_at(120))
        warm = _outcome(template.compiled, initial=cold[0])
        return [cold, warm, _outcome(widen.compile())]

    ours = solves()
    with scipy_kernels():
        assert solves() == ours
