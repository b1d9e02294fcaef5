"""Drive one workload against a live coordinator and measure it.

One process, one asyncio loop, no threads and no sockets: agents,
subscribers, the coordinator (or the shard router, its shards and the
broker tier) all talk over the in-process loopback transport, so every
message is still encoded to bytes and decoded again.

A run is: set up (several times; the median is ``setup_s``), then
rounds of a closed-loop block (``ticks_per_s``) and an open-loop block
at the workload's fixed offered step rate (notify latency and message
cost).  Every block ends with an audit of every served value against
the agents' current truth at the full QAB.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service.agent import SourceAgent
from repro.service.client import ServiceClient
from repro.service.protocol import ProtocolError

from workloads import BLOCKS, RECOMPUTE_COST, Inputs

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Longest a phase may take to drain before the run is declared hung.
DRAIN_TIMEOUT_S = 30.0
#: Longest one churn QUERY_SUB may wait for its SNAPSHOT.
SUBSCRIBE_TIMEOUT_S = 10.0
#: Journal records between fsyncs in the journaled workload.
JOURNAL_FSYNC_INTERVAL = 1024


_now = time.perf_counter


@dataclass
class Failures:
    """Failed operations, by kind (their sum is the run's ``failed``)."""

    refreshes_not_accepted: int = 0
    evictions: int = 0
    dropped_subscribers: int = 0
    protocol_errors: int = 0
    failed_subscribes: int = 0
    qab_violations: int = 0

    def total(self) -> int:
        return sum(vars(self).values())


class Deployment:
    """A live coordinator (or shard cluster) with its agents and clients."""

    def __init__(self, inputs: Inputs, work_dir: Path,
                 server_kwargs: Optional[Dict[str, Any]] = None):
        self.inputs = inputs
        self.server_kwargs = dict(server_kwargs or {})
        self.workload = inputs.workload
        self.work_dir = work_dir
        self.servers: List[Any] = []
        self.cluster: Any = None
        self.tier: Any = None
        self.agents: Dict[int, SourceAgent] = {}
        self.subscribers: List[ServiceClient] = []
        #: every client ever opened here, so delivered-notify tallies
        #: stay whole after a churn holder closes.
        self.tally: List[ServiceClient] = []
        #: the time stamped on refreshes: the current step's due time.
        self.due = 0.0
        #: the next load step to tick (see Inputs.trace_index).
        self.step = 1
        #: churn QUERY_SUB holders, oldest first, with their definitions
        self.holders: deque = deque()
        #: churn queries whose holder is subscribed (name -> query), and
        #: every churn query ever registered (served until removed).
        self.live_definitions: Dict[str, Any] = {}
        self.definitions_seen: Dict[str, Any] = {}

    # -- set-up ---------------------------------------------------------------

    def _build(self) -> None:
        """The coordinator (or cluster) for the inputs' size and seed,
        through the same builders ``repro serve`` and ``repro cluster
        serve`` use; they derive the very scenario the inputs hold."""
        workload = self.workload
        sizes = dict(query_count=workload.queries, item_count=workload.items,
                     source_count=workload.sources,
                     trace_length=self.inputs.trace_length,
                     seed=self.inputs.seed, recompute_cost=RECOMPUTE_COST)
        if workload.topology == "cluster":
            from repro.service.cluster.broker import BrokerTier
            from repro.service.cluster.router import build_scenario_cluster

            self.cluster, _, _ = build_scenario_cluster(
                shards=workload.shards, **sizes)
            self.servers = [self.cluster.shards[sid]
                            for sid in sorted(self.cluster.shards)]
            self.tier = BrokerTier(self.cluster.connect_loopback,
                                   brokers=workload.brokers)
            return
        from repro.service.journal import Journal
        from repro.service.server import build_scenario_server

        kwargs = dict(self.server_kwargs)
        if workload.journal:
            # fsync blocks the event loop; every 64 records (the default)
            # made the open loop's tail follow the disk of a shared host.
            kwargs["journal"] = Journal(tempfile.mkdtemp(dir=self.work_dir),
                                        fsync="interval",
                                        fsync_interval=JOURNAL_FSYNC_INTERVAL)
            kwargs["bootstrap"] = False
        server, _, _ = build_scenario_server(**sizes, **kwargs)
        if workload.journal:
            server.restore()
        self.servers = [server]

    async def start(self) -> float:
        """Build, connect and wait for the first accepted REFRESH;
        returns the seconds that took."""
        started = _now()
        self._build()
        if self.cluster is not None:
            await self.cluster.start()
            await self.tier.start()
        initial = self.inputs.scenario.traces.initial_values()
        for source_id, (items, _) in self.inputs.ticks.items():
            agent = SourceAgent(source_id, items, initial,
                                timestamp_refreshes=True,
                                clock=lambda: self.due)
            await agent.connect(self.entry().connect_loopback())
            self.agents[source_id] = agent
        for _ in range(self.workload.subscribers):
            client = self.client()
            await client.subscribe("*")
            self.subscribers.append(client)
        while self.accepted() == 0:
            self.due = _now()
            await self.tick()
            await asyncio.sleep(0)
        return _now() - started

    def entry(self) -> Any:
        """Where agents (and the auditor) connect."""
        return self.cluster if self.cluster is not None else self.servers[0]

    def client(self) -> ServiceClient:
        """A subscriber connection: through a broker in a cluster."""
        if self.tier is not None:
            stream = self.tier.connect_loopback()
        else:
            stream = self.servers[0].connect_loopback()
        client = ServiceClient(stream, clock=_now)
        self.tally.append(client)
        return client

    # -- load -----------------------------------------------------------------

    async def tick(self) -> int:
        """Tick every agent once with the next trace step; returns the
        refreshes pushed."""
        step = self.inputs.trace_index(self.step)
        sent = 0
        for source_id, agent in self.agents.items():
            items, matrix = self.inputs.ticks[source_id]
            sent += await agent.tick(dict(zip(items, matrix[step].tolist())))
        self.step += 1
        return sent

    # -- flow accounting ------------------------------------------------------

    def sent(self) -> int:
        return sum(a.stats["refreshes_sent"] for a in self.agents.values())

    def ticks(self) -> int:
        return sum(a.stats["ticks"] for a in self.agents.values())

    def accepted(self) -> int:
        return sum(s.stats["refreshes_accepted"] for s in self.servers)

    def cost(self) -> float:
        """The paper's total message cost, summed over shards."""
        return sum(s.metrics.refreshes
                   + s.metrics.recompute_cost * s.metrics.recomputations
                   for s in self.servers)

    def _signature(self) -> Tuple[Any, ...]:
        parts: List[Any] = [self.sent()]
        for server in self.servers:
            parts.append(tuple(server.stats.values()))
        if self.cluster is not None:
            parts.append(tuple(self.cluster.stats.values()))
            for broker in self.tier.brokers:
                parts.append(tuple(broker.stats.values()))
        for agent in self.agents.values():
            parts.append((agent.stats["dab_updates_applied"],
                          agent.stats["dab_updates_rejected_stale_epoch"]))
        parts.append(sum(c.notifies_received for c in self.tally))
        return tuple(parts)

    def settled(self) -> bool:
        """Every refresh sent was handled and every NOTIFY sent reached
        the next hop."""
        received = sum(c.notifies_received for c in self.tally)
        handled = sum(s.stats["refreshes_accepted"]
                      + s.stats["refreshes_rejected_stale_seq"]
                      + s.stats["refreshes_rejected_stale_map_epoch"]
                      for s in self.servers)
        shard_notifies = sum(s.stats["notifies_sent"] for s in self.servers)
        if self.cluster is None:
            return handled == self.sent() and received == shard_notifies
        router = self.cluster.stats
        brokers = [b.stats for b in self.tier.brokers]
        return (router["refreshes_accepted"]
                + router["refreshes_unroutable"] == self.sent()
                and handled == router["refreshes_routed"]
                and shard_notifies == router["partial_notifies"]
                + router["shard_frame_mismatches"]
                + router["fenced_frames_rejected"]
                and router["notifies_sent"]
                == sum(b["upstream_notifies"] for b in brokers)
                and received == sum(b["notifies_sent"] for b in brokers))

    async def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> None:
        """Yield until the flow is settled and nothing moves for two
        loop turns."""
        deadline = _now() + timeout
        last = None
        quiet = 0
        while quiet < 2:
            await asyncio.sleep(0)
            signature = self._signature()
            if signature == last and self.settled():
                quiet += 1
            else:
                quiet = 0
            last = signature
            if _now() > deadline:
                raise RuntimeError("the coordinator did not drain in "
                                   f"{timeout:.0f} s")

    def failure_counts(self) -> Failures:
        failures = Failures()
        failures.refreshes_not_accepted = self.sent() - (
            self.cluster.stats["refreshes_accepted"]
            if self.cluster is not None else self.accepted())
        hops = list(self.servers)
        if self.cluster is not None:
            hops.append(self.cluster)
            hops.extend(self.tier.brokers)
        for hop in hops:
            failures.evictions += hop.stats["slow_consumer_evictions"]
            failures.protocol_errors += hop.stats["protocol_errors"]
        if self.cluster is not None:
            failures.refreshes_not_accepted += sum(
                s.stats["refreshes_rejected_stale_seq"]
                + s.stats["refreshes_rejected_stale_map_epoch"]
                for s in self.servers)
        # A client whose connection ended without our closing it was
        # dropped; the ones evicted by the hop facing them are already
        # counted as evictions.
        dropped = sum(1 for c in self.tally
                      if c._listener is not None and c._listener.done()
                      and not c.stream.closed)
        facing = self.tier.brokers if self.tier is not None else self.servers
        failures.dropped_subscribers = max(0, dropped - sum(
            hop.stats["slow_consumer_evictions"] for hop in facing))
        return failures

    def eviction_counts(self) -> Dict[str, int]:
        counts = {"server": sum(s.stats["slow_consumer_evictions"]
                                for s in self.servers),
                  "router": 0, "broker": 0}
        if self.cluster is not None:
            counts["router"] = self.cluster.stats["slow_consumer_evictions"]
            counts["broker"] = sum(b.stats["slow_consumer_evictions"]
                                   for b in self.tier.brokers)
        return counts

    async def close(self) -> None:
        for client in self.tally:
            await client.close()
        for agent in self.agents.values():
            await agent.close()
        if self.tier is not None:
            await self.tier.close()
        if self.cluster is not None:
            await self.cluster.close()
        else:
            for server in self.servers:
                await server.close()


# -- phases -------------------------------------------------------------------

@dataclass
class PhaseResult:
    """One block of the closed- or the open-loop phase."""

    ticks: int = 0
    elapsed: float = 0.0
    #: open loop: every subscriber's notify latencies, in seconds
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    cost: float = 0.0
    audited: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)
    recomputations: int = 0
    subscribes: int = 0
    subscribe_latencies: List[float] = field(default_factory=list)
    failed_subscribes: int = 0


async def closed_loop(dep: Deployment, steps: int,
                      churn: Optional[list] = None) -> PhaseResult:
    """Release step t+1 only once every refresh of step t is accepted
    and every NOTIFY it caused reached every subscriber.  ``churn``
    query definitions are registered half-way through, by a task of
    their own that the steps never wait on."""
    result = PhaseResult()
    await dep.drain()
    ticks0 = dep.ticks()
    started = _now()
    churn_task = None
    for k in range(steps):
        if churn and k == steps // 2:
            churn_task = asyncio.ensure_future(
                register(dep, result, churn, _now()))
        dep.due = _now()
        await dep.tick()
        await dep.drain()
    if churn_task is not None:
        await churn_task
        await dep.drain()
    result.elapsed = _now() - started
    result.ticks = dep.ticks() - ticks0
    return result


async def open_loop(dep: Deployment, steps: int, rate: float
                    ) -> PhaseResult:
    """Release ``steps`` steps at ``rate`` steps/s whatever the
    coordinator's state; refreshes are stamped with their due time."""
    result = PhaseResult()
    await dep.drain()
    for client in dep.subscribers:
        client.latencies = []
    ticks0, cost0 = dep.ticks(), dep.cost()
    t0 = _now() + 0.01
    for k in range(steps):
        due = t0 + k / rate
        await asyncio.sleep(max(0.0, due - _now()))
        result.lags.append(_now() - due)
        dep.due = due
        await dep.tick()
    await dep.drain()
    result.elapsed = _now() - t0
    result.ticks = dep.ticks() - ticks0
    result.cost = dep.cost() - cost0
    result.latencies = [sample for client in dep.subscribers
                        for sample in client.latencies]
    return result


async def register(dep: Deployment, result: PhaseResult, definitions: list,
                   at: float) -> None:
    """At ``at``, register ``definitions`` through a new QUERY_SUB and
    hold it; close the oldest holder beyond the workload's limit."""
    await asyncio.sleep(max(0.0, at - _now()))
    client = dep.client()
    result.subscribes += 1
    started = _now()
    try:
        snapshot = await asyncio.wait_for(
            client.subscribe([], definitions=definitions),
            SUBSCRIBE_TIMEOUT_S)
    except (asyncio.TimeoutError, ProtocolError):
        snapshot = {}
    if all(query.name in snapshot for query in definitions):
        result.subscribe_latencies.append(_now() - started)
        dep.live_definitions.update(
            {query.name: query for query in definitions})
    else:
        result.failed_subscribes += 1
    dep.holders.append((client, definitions))
    while len(dep.holders) > dep.workload.churn_holders:
        old, old_definitions = dep.holders.popleft()
        await old.close()
        for query in old_definitions:
            dep.live_definitions.pop(query.name, None)


async def audit(dep: Deployment, result: PhaseResult) -> None:
    """Check every served value against the agents' current truth at
    the full QAB; a cluster is audited on its recombined values."""
    await dep.drain()
    auditor = ServiceClient(dep.entry().connect_loopback(), clock=_now)
    dep.tally.append(auditor)
    served = await asyncio.wait_for(auditor.subscribe("*"),
                                    SUBSCRIBE_TIMEOUT_S)
    await auditor.close()
    truth: Dict[str, float] = {}
    for agent in dep.agents.values():
        truth.update(agent.values)
    known = {query.name: query for query in dep.inputs.scenario.queries}
    known.update(dep.live_definitions)
    expected = set(known)
    for name, value in sorted(served.items()):
        query = known.get(name) or dep.definitions_seen.get(name)
        result.audited += 1
        if query is None:
            result.violations.append({"query": name, "unknown": True})
            continue
        error = abs(value - query.evaluate(truth))
        if error > query.qab * (1.0 + 1e-9) + 1e-12:
            result.violations.append({"query": name, "error": error,
                                      "qab": query.qab})
    for name in sorted(expected - set(served)):
        result.audited += 1
        result.violations.append({"query": name, "missing": True})


# -- one run ------------------------------------------------------------------

@dataclass
class Measurement:
    """One deployment taken through set-up and both phases."""

    setup_s: List[float]
    #: the phases' blocks, in the order they ran
    closed: List[PhaseResult]
    open: List[PhaseResult]
    failures: Failures
    attempted: int
    #: slow-consumer evictions by hop kind ("server", "router", "broker")
    evictions: Dict[str, int]
    #: program counters moved during the phases
    deltas: Dict[str, float]


@dataclass
class RunOutcome:
    measured: Measurement
    #: the same inputs again with every layer traced (``--trace 1``)
    traced: Optional[Measurement] = None


def work_root() -> Path:
    """Scratch space inside the checkout (journals); removed at exit."""
    return Path(__file__).resolve().parent.parent / ".perfbench-work"


async def run(inputs: Inputs, recorder: Any = None,
              server_kwargs: Optional[Dict[str, Any]] = None) -> RunOutcome:
    """Measure ``inputs`` untraced; with a ``recorder``, set up afresh
    and replay the same inputs traced, so the two differ only by the
    tracing."""
    root = work_root()
    root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=root))
    try:
        if recorder is None:
            return RunOutcome(await measure(inputs, work_dir, SETUP_REPS,
                                            None, server_kwargs))
        untraced = await measure(inputs, work_dir, 1, None, server_kwargs)
        traced = await measure(inputs, work_dir, 1, recorder, server_kwargs)
        return RunOutcome(untraced, traced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass


async def measure(inputs: Inputs, work_dir: Path, reps: int, recorder: Any,
                  server_kwargs: Optional[Dict[str, Any]]) -> Measurement:
    """Set up ``reps`` times (keeping the last deployment), then run
    :data:`BLOCKS` rounds of one closed-loop block and one open-loop
    block, auditing after every block.  Interleaving spreads both
    phases over the whole run, so a slow spell of the machine lands in
    a minority of either phase's blocks."""
    workload = inputs.workload
    setups = []
    dep: Optional[Deployment] = None
    for _ in range(reps):
        if dep is not None:
            await dep.close()
        dep = Deployment(inputs, work_dir, server_kwargs)
        if recorder is not None:
            recorder.enabled = True
        setups.append(await dep.start())
    if recorder is not None:
        recorder.enabled = False
        recorder.setup_spans = recorder.spans
        recorder.reset()
    # The earlier set-ups' deployments are garbage now; collect them
    # before timing rather than in the middle of a block.
    gc.collect()

    closed: List[PhaseResult] = []
    open_: List[PhaseResult] = []
    deltas: Dict[str, float] = {}
    for block in range(BLOCKS):
        for blocks in (closed, open_):
            before = counters(dep)
            if recorder is not None:
                recorder.enabled = True
            if blocks is closed:
                result = await closed_loop(
                    dep, _share(inputs.closed_steps, block),
                    inputs.churn[block] if inputs.churn else None)
            else:
                result = await open_loop(
                    dep, _share(inputs.open_steps, block),
                    workload.offered_steps_per_s)
            if recorder is not None:
                recorder.enabled = False
            after = counters(dep)
            for key, value in after.items():
                deltas[key] = deltas.get(key, 0) + value - before[key]
            result.recomputations = int(after["recomputations"]
                                        - before["recomputations"])
            dep.definitions_seen.update(dep.live_definitions)
            await audit(dep, result)
            blocks.append(result)

    results = closed + open_
    failures = dep.failure_counts()
    failures.qab_violations = sum(len(r.violations) for r in results)
    failures.failed_subscribes = sum(r.failed_subscribes for r in results)
    attempted = (dep.sent() + len(dep.subscribers)
                 + sum(r.subscribes + r.audited for r in results))
    deltas["journaled"] = float(workload.journal)
    deltas["clustered"] = float(dep.cluster is not None)
    measurement = Measurement(setup_s=setups, closed=closed, open=open_,
                              failures=failures, attempted=attempted,
                              evictions=dep.eviction_counts(), deltas=deltas)
    await dep.close()
    return measurement


def _share(steps: int, block: int) -> int:
    """Block ``block``'s share of ``steps`` (the shares sum to it)."""
    return (steps * (block + 1) // BLOCKS) - (steps * block // BLOCKS)


def counters(dep: Deployment) -> Dict[str, float]:
    """Program counters read at the edges of a phase."""
    from repro.filters.delta_recompute import find_delta_planner

    marks: Dict[str, float] = {
        "ticks": dep.ticks(), "sent": dep.sent(), "accepted": dep.accepted(),
        "recomputations": sum(s.metrics.recomputations for s in dep.servers),
        "cache_hits": 0, "cache_misses": 0, "delta_patches": 0,
        "delta_fallbacks": 0, "fsyncs": 0, "wal_bytes": 0,
        "routed": 0, "router_accepted": 0,
    }
    for server in dep.servers:
        planner = server.core.planner
        marks["cache_hits"] += planner.stats.hits
        marks["cache_misses"] += planner.stats.misses
        delta = find_delta_planner(planner)
        if delta is not None:
            marks["delta_patches"] += delta.stats.patches
            marks["delta_fallbacks"] += delta.stats.fallbacks
        journal = server.journal
        if journal is not None:
            marks["fsyncs"] += journal.fsyncs
            marks["wal_bytes"] += journal.wal_path.stat().st_size
    if dep.cluster is not None:
        marks["routed"] = dep.cluster.stats["refreshes_routed"]
        marks["router_accepted"] = dep.cluster.stats["refreshes_accepted"]
    return marks
