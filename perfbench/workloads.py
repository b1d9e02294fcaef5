"""The benchmark's workloads and the inputs each one is given.

Everything a run feeds the coordinator is built here from ``(workload,
seed, seconds)`` alone, before any clock starts: the scenario (traces
and the static query bank), the item -> source routing, the per-source
tick matrices the load generator replays, the phase lengths and the
query-churn definitions.  The same arguments always give byte-identical
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: The paper's recompute cost mu, as ``repro serve`` uses it.
RECOMPUTE_COST = 5.0

#: Share of ``--seconds`` spent in the closed-loop phase; the rest is
#: the open-loop phase.
CLOSED_SHARE = 0.4

#: Trace steps the load generator walks back and forth over (see
#: :meth:`Inputs.trace_index`).
WINDOW_STEPS = 200

#: Each phase is cut into this many equal blocks, run interleaved
#: (closed, open, closed, open, ...); a phase metric is the median of
#: its per-block values, so one slow spell moves one block, not the
#: result.
BLOCKS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    queries: int
    items: int
    sources: int
    subscribers: int
    #: Closed-loop capacity of the seed commit, in trace steps per
    #: second (every step ticks every item once).  It sizes the closed
    #: phase: a fixed number of steps that took its share of
    #: ``--seconds`` on the seed, so every run of a seed replays the
    #: same steps however fast the program is.
    closed_steps_per_s: float
    #: Open-loop offered load in trace steps per second, about a quarter
    #: of ``closed_steps_per_s``: low enough that the latency tail is a
    #: step's own work, not a queue whose depth swings with each seed's
    #: burstiness or with a slow spell of a shared machine.
    offered_steps_per_s: float
    #: ``"server"`` (one CoordinatorServer) or ``"cluster"`` (a
    #: ClusterCoordinator over shards, subscribers behind brokers).
    topology: str = "server"
    shards: int = 0
    brokers: int = 0
    journal: bool = False
    #: Query churn (closed loop only): one QUERY_SUB half-way through
    #: each closed-loop block, registering this many fresh queries; the
    #: oldest holder is closed once more than ``churn_holders`` are
    #: subscribed.
    churn_definitions: int = 0
    churn_holders: int = 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("quiet-fanout", queries=200, items=40, sources=4,
                 subscribers=4, closed_steps_per_s=425.0,
                 offered_steps_per_s=100.0),
        Workload("query-churn", queries=40, items=40, sources=4,
                 subscribers=8, closed_steps_per_s=650.0,
                 offered_steps_per_s=150.0, journal=True,
                 churn_definitions=2, churn_holders=2),
        Workload("sharded-fanout", queries=40, items=40, sources=4,
                 subscribers=4, closed_steps_per_s=280.0,
                 offered_steps_per_s=70.0, topology="cluster", shards=2,
                 brokers=2),
    )
}


def phase_seconds(seconds: float) -> Tuple[float, float]:
    """``(closed_loop_s, open_loop_s)`` for a run of ``seconds``."""
    closed = seconds * CLOSED_SHARE
    return closed, seconds - closed


@dataclass
class Inputs:
    workload: Workload
    seed: int
    scenario: object
    trace_length: int
    item_to_source: Dict[str, int]
    #: source id -> (its items, sorted; a (steps, items) value matrix)
    ticks: Dict[int, Tuple[List[str], np.ndarray]]
    #: closed-loop step count, then open-loop step count
    closed_steps: int
    open_steps: int
    #: one list of fresh query definitions per churn QUERY_SUB
    churn: List[list]

    def trace_index(self, step: int) -> int:
        """The trace step the ``step``-th load step replays.

        The generator walks the trace forward to its end and back again,
        over and over, so every move is one ordinary trace increment but
        prices stay in the band the trace spans: the workload does not
        drift harder (or easier) the longer a run lasts.
        """
        last = self.trace_length - 1
        phase = (step - 1) % (2 * last - 2)
        return 1 + phase if phase < last else 2 * last - 1 - phase


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Build every input of one run; deterministic in its arguments.

    The scenario is the one ``build_scenario_server`` and
    ``build_scenario_cluster`` derive from the same size and seed (GBM
    traces at the default volatility, portfolio queries)."""
    from repro.simulation.source import assign_items_to_sources
    from repro.workloads import scaled_scenario

    closed_s, open_s = phase_seconds(seconds)
    closed_steps = max(1, int(round(workload.closed_steps_per_s * closed_s)))
    open_steps = max(1, int(round(workload.offered_steps_per_s * open_s)))
    trace_length = WINDOW_STEPS + 1          # step 0 holds initial values
    scenario = scaled_scenario(
        query_count=workload.queries, item_count=workload.items,
        trace_length=trace_length, source_count=workload.sources, seed=seed)
    used = sorted({v for q in scenario.queries for v in q.variables})
    item_to_source = assign_items_to_sources(used, workload.sources)
    owned: Dict[int, List[str]] = {}
    for item, source_id in item_to_source.items():
        owned.setdefault(source_id, []).append(item)
    ticks = {
        source_id: (sorted(items),
                    np.stack([scenario.traces[item].values
                              for item in sorted(items)], axis=1))
        for source_id, items in sorted(owned.items())
    }
    churn = _churn_definitions(workload, scenario, set(used), seed)
    return Inputs(workload=workload, seed=seed, scenario=scenario,
                  trace_length=trace_length, item_to_source=item_to_source,
                  ticks=ticks, closed_steps=closed_steps,
                  open_steps=open_steps, churn=churn)


def _churn_definitions(workload: Workload, scenario: object,
                       known: set, seed: int) -> List[list]:
    """Fresh portfolio queries over the items the server already caches,
    one batch per closed-loop block."""
    if not workload.churn_definitions:
        return []
    from repro.workloads.generator import generate_portfolio_queries

    wanted = BLOCKS * workload.churn_definitions
    pool = [query for query in generate_portfolio_queries(
                scenario.registry, scenario.traces.initial_values(),
                4 * wanted, seed=seed + 7919, name_prefix=f"churn{seed}x")
            if set(query.variables) <= known][:wanted]
    if len(pool) < wanted:
        raise ValueError("not enough churn queries over the cached items")
    size = workload.churn_definitions
    return [pool[i:i + size] for i in range(0, wanted, size)]
