"""Section V "Solver" table — DAB solve times.

Paper (CVXOPT on a 2.66 GHz P4): Dual-DAB ~40-70 ms per PPQ; AAO
600-750 ms for 10 PPQs.  Our GP layer (numpy log-sum-exp kernels under
scipy.optimize's SLSQP) must land in the same ballpark (faster hardware,
so we assert generous upper bounds and report exact numbers).
"""

import pytest

from repro.dynamics import estimate_rates
from repro.experiments import run_solver_timing
from repro.filters import CostModel, DualDABPlanner, OptimalRefreshPlanner
from repro.workloads import scaled_scenario


@pytest.fixture(scope="module")
def world(scale):
    scenario = scaled_scenario(scale["aao_query_count"],
                               item_count=scale["item_count"],
                               trace_length=201)
    rates = estimate_rates(scenario.traces)
    return scenario, CostModel(rates=rates, recompute_cost=5.0)


def test_solver_timing_table(benchmark, world, save_table, scale):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    timing = run_solver_timing(query_count=scale["aao_query_count"],
                               item_count=scale["item_count"],
                               trace_length=201, repetitions=5)
    lines = ["Solver timing (paper: Dual-DAB 40-70 ms/PPQ, AAO 600-750 ms/10 PPQs)"]
    for key, value in timing.items():
        lines.append(f"{key:28s} {value:10.2f} ms")
    save_table("solver_timing", "\n".join(lines))
    assert timing["dual_dab_cold_ms"] < 500.0
    assert timing["dual_dab_warm_ms"] <= timing["dual_dab_cold_ms"] * 1.5


def test_bench_dual_dab_solve(benchmark, world):
    """pytest-benchmark measurement of one warm Dual-DAB solve."""
    scenario, model = world
    planner = DualDABPlanner(model)
    query = scenario.queries[0]
    values = scenario.initial_values
    planner.plan(query, values)  # warm the start

    benchmark(planner.plan, query, values)


def test_bench_optimal_refresh_solve(benchmark, world):
    scenario, model = world
    planner = OptimalRefreshPlanner(model)
    query = scenario.queries[0]
    values = scenario.initial_values
    planner.plan(query, values)

    benchmark(planner.plan, query, values)
