"""Load generator: N sources × M subscribers against a live deployment.

``run_loadgen`` builds the same deterministic scenario the coordinator
was launched with (same seed → same items, traces and queries on both
sides), spins up one :class:`SourceAgent` per source and M
:class:`ServiceClient` subscribers, replays ``duration`` trace steps
through the DAB filters, then audits the run:

* **throughput** — ticks/sec pushed through the agents' filters;
* **notify latency** — p50/p95/p99 of refresh-sent → notify-received;
* **refresh / recompute counts** — from the coordinator's SNAPSHOT stats;
* **slow-consumer evictions** — summed over every hop (server or shards,
  router, brokers); a fault-free run must have none;
* **QAB violations** — the final served value of every query is checked
  against the ground truth evaluated at the agents' *current* (not just
  sent) values; fault-free this must be zero, because every unsent value
  is inside its primary DAB by construction (the paper's Theorem 1
  guarantee, exercised end to end over the wire).

The report is returned and, when ``output`` is given, written as JSON —
``benchmarks/results/BENCH_service.json`` in the CI flow.

Deployments: ``host``/``port`` drive a live ``repro serve`` (or ``repro
cluster serve``) process over TCP.  Otherwise everything runs in process
over the loopback transport — same protocol bytes, no sockets — against
one :class:`CoordinatorServer`, or with ``shards`` against a
:class:`~repro.service.cluster.router.ClusterCoordinator` whose final
recombined values are audited at the full per-query budget ``B`` (the
end-to-end check of the cross-shard ``B/k`` decomposition).  With
``brokers`` the subscribers and the auditor attach through a
:class:`~repro.service.cluster.broker.BrokerTier` in front of either.
"""

from __future__ import annotations

import asyncio
import json
import time as _time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.service.agent import agents_for_scenario
from repro.service.client import ServiceClient, latency_percentiles


def _evictions(stats: Mapping[str, Any]) -> int:
    """Slow-consumer evictions at a hop and every shard behind it, read
    from its ``server_stats`` (or SNAPSHOT stats)."""
    return int(stats.get("slow_consumer_evictions", 0)) + sum(
        _evictions(shard) for shard in (stats.get("shards") or {}).values())


async def _run_async(
    entry: Any,
    cluster: bool,
    scenario: Any,
    item_to_source: Dict[str, int],
    subscriber_count: int,
    duration: int,
    tick_interval: float,
    brokers: int,
    host: Optional[str],
    port: Optional[int],
) -> Dict[str, Any]:
    over_tcp = entry is None
    if cluster:
        await entry.start()

    async def _attach():
        if over_tcp:
            from repro.service.transports import open_tcp_stream
            return await open_tcp_stream(host, port)
        return entry.connect_loopback()

    tier = None
    if brokers:
        from repro.service.cluster.broker import BrokerTier

        tier = BrokerTier(entry.connect_loopback, brokers=brokers,
                          clock=entry.clock)
        await tier.start()

    async def _attach_subscriber():
        return tier.connect_loopback() if tier is not None else await _attach()

    agents = agents_for_scenario(scenario, item_to_source,
                                 timestamp_refreshes=True)
    for agent in agents.values():
        await agent.connect(await _attach())

    subscribers = []
    for _ in range(subscriber_count):
        client = ServiceClient(await _attach_subscriber())
        await client.subscribe("*")
        subscribers.append(client)

    started = _time.perf_counter()
    sent = await asyncio.gather(*[
        agent.replay(scenario.traces, tick_interval=tick_interval,
                     max_steps=duration)
        for agent in agents.values()
    ])
    elapsed = _time.perf_counter() - started

    # Let in-flight partials recombine and notifies drain before auditing.
    await asyncio.sleep(0.05 if not over_tcp else 0.2)

    auditor = ServiceClient(await _attach_subscriber())
    served = await auditor.subscribe("*")
    stats = auditor.stats_seen
    if not over_tcp:
        # Read every hop live: a broker serves its cached stats, and a
        # router's snapshot only carries the shards that answered.
        coordinator_stats = entry.server_stats()
        if tier is not None:
            stats = {"broker": stats,
                     "cluster" if cluster else "server": coordinator_stats}
    else:
        coordinator_stats = stats
    broker_stats = tier.stats() if tier is not None else None
    evictions = _evictions(coordinator_stats) + (
        broker_stats["slow_consumer_evictions"] if broker_stats else 0)

    truth = {}
    for agent in agents.values():
        truth.update(agent.values)
    violations = []
    for query in scenario.queries:
        true_value = query.evaluate(truth)
        error = abs(served[query.name] - true_value)
        if error > query.qab * (1.0 + 1e-9) + 1e-12:
            violations.append({"query": query.name, "error": error,
                               "qab": query.qab})

    latencies = [sample for client in subscribers
                 for sample in client.latencies]
    ticks = sum(agent.stats["ticks"] for agent in agents.values())
    report: Dict[str, Any] = {
        "brokers": brokers,
        "sources": len(agents),
        "subscribers": subscriber_count,
        "queries": len(scenario.queries),
        "items": len(item_to_source),
        "duration_steps": duration,
        "transport": "tcp" if over_tcp else "loopback",
        "elapsed_seconds": elapsed,
        "ticks": ticks,
        "ticks_per_second": ticks / elapsed if elapsed > 0 else 0.0,
        "refreshes_sent": sum(s for s in sent),
        "refreshes_filtered": sum(agent.stats["refreshes_filtered"]
                                  for agent in agents.values()),
        "notifies_received": sum(client.notifies_received
                                 for client in subscribers),
        "notify_latency_seconds": latency_percentiles(latencies),
        "latency_samples": len(latencies),
        "server_stats": stats,
        "coordinator_stats": coordinator_stats,
        "broker_stats": broker_stats,
        "slow_consumer_evictions": evictions,
        "qab_violations": len(violations),
        "qab_violation_detail": violations[:10],
    }
    if cluster:
        decomposition = entry.decomposition
        report.update({
            "shards": entry.shard_map.shards,
            "active_shards": list(decomposition.active_shards),
            "cross_shard_queries": len(decomposition.cross_shard),
            "mirrored_items": sum(len(items) for items
                                  in decomposition.mirrored_items.values()),
        })

    await auditor.close()
    for client in subscribers:
        await client.close()
    for agent in agents.values():
        await agent.close()
    if tier is not None:
        await tier.close()
    if entry is not None:
        await entry.close()
    return report


def run_loadgen(
    sources: int = 8,
    queries: int = 100,
    items: int = 40,
    duration: int = 30,
    subscribers: int = 4,
    tick_interval: float = 0.0,
    seed: int = 0,
    algorithm: str = "dual_dab",
    workload: str = "portfolio",
    host: Optional[str] = None,
    port: Optional[int] = None,
    output: Optional[str] = None,
    trace_length: Optional[int] = None,
    shards: Optional[int] = None,
    brokers: int = 0,
    journal_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the load generator; see the module docstring for semantics.

    ``duration`` counts trace steps replayed per source.  With
    ``host``/``port`` the scenario is rebuilt locally (the coordinator
    must have been launched with the same
    ``--queries/--items/--sources/--seed``) and driven over TCP;
    otherwise an in-process server — or, with ``shards``, a
    ``shards``-way cluster — is built and the whole run goes over the
    loopback transport.  ``journal_dir`` journals every shard of that
    cluster under ``<journal_dir>/shard-<i>``.

    The report's ``coordinator_stats`` are the stats of the server or
    router the agents feed (its SNAPSHOT stats over TCP); ``server_stats``
    are what the auditing subscriber saw, wrapped as ``{"broker": ...,
    "server"|"cluster": ...}`` when a broker tier sits in between.
    """
    trace_length = max(trace_length or 0, duration + 2)
    over_tcp = host is not None and port is not None
    if over_tcp and (shards is not None or brokers or journal_dir):
        raise ValueError("shards, brokers and journal_dir build an "
                         "in-process deployment; they do not combine "
                         "with host/port")
    if journal_dir is not None and shards is None:
        raise ValueError("journal_dir journals the shards of an in-process "
                         "cluster; it needs shards")
    entry: Any = None
    if over_tcp:
        # The live coordinator is authoritative for planning; this side
        # only needs the (same-seed, hence identical) scenario and routing.
        from repro.simulation.source import assign_items_to_sources
        from repro.workloads import scaled_scenario

        scenario = scaled_scenario(
            query_count=queries, item_count=items, trace_length=trace_length,
            source_count=sources, query_kind=workload, seed=seed)
        item_to_source = assign_items_to_sources(
            sorted({v for q in scenario.queries for v in q.variables}),
            sources)
    elif shards is not None:
        from repro.service.cluster.router import build_scenario_cluster

        entry, scenario, item_to_source = build_scenario_cluster(
            shards=shards, query_count=queries, item_count=items,
            source_count=sources, trace_length=trace_length, seed=seed,
            algorithm=algorithm, workload=workload, journal_dir=journal_dir,
        )
    else:
        from repro.service.server import build_scenario_server

        entry, scenario, item_to_source = build_scenario_server(
            query_count=queries, item_count=items, source_count=sources,
            trace_length=trace_length, seed=seed, algorithm=algorithm,
            workload=workload,
        )
    report = asyncio.run(_run_async(
        entry=entry, cluster=shards is not None, scenario=scenario,
        item_to_source=item_to_source,
        subscriber_count=subscribers, duration=duration,
        tick_interval=tick_interval, brokers=brokers, host=host, port=port,
    ))
    report["seed"] = seed
    report["algorithm"] = algorithm
    report["workload"] = workload
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        report["output"] = str(path)
    return report
