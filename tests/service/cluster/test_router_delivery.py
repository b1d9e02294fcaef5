"""Reliable DAB delivery at the router: giving up degrades, like a server.

A DAB_UPDATE the real source never acks may have been a *narrowing*
bound the source now fails to enforce — the one loss seq and lease
tracking cannot see.  When the router's retries run out, every shard
that reads the item must mark it suspect, so the queries over it are
served degraded instead of silently trusted.
"""

import asyncio

from repro.service import protocol
from repro.service.cluster.router import build_scenario_cluster
from repro.service.protocol import MessageType
from repro.service.resilience import RetryPolicy


class StepClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


async def drain(rounds=10):
    for _ in range(rounds):
        await asyncio.sleep(0)


def test_retry_exhaustion_degrades_the_queries_over_the_item():
    clock = StepClock(0.0)
    policy = RetryPolicy(base_delay=1.0, backoff=1.0, max_delay=1.0,
                         max_attempts=2)
    cluster, _, item_to_source = build_scenario_cluster(
        shards=2, query_count=4, item_count=20, source_count=2,
        trace_length=41, seed=1, clock=clock, lease_duration=30.0,
        dab_retry_policy=policy)
    item = sorted(n for n, s in item_to_source.items() if s == 0)[0]
    readers = {q.name for q in cluster.queries if item in q.variables}
    assert readers

    async def check():
        await cluster.start()
        stream = cluster.connect_loopback()
        await stream.send(protocol.register_source(
            0, sorted(n for n, s in item_to_source.items() if s == 0)))
        reply = await stream.receive()
        assert reply["type"] == MessageType.DAB_UPDATE.value
        await cluster._send_dab_update(0, {item: 1.5}, {item: 99})
        for step in (2.0, 4.0, 6.0):          # never acked
            clock.now = step
            await cluster.check_retries()
            await drain()
        assert cluster._outstanding_dabs == {}
        assert cluster.stats["dab_retries_exhausted"] >= 1
        assert item in cluster.suspect_since
        assert readers <= set(cluster._merged_degraded())
        stream.close()
        await cluster.close()

    asyncio.run(check())
