"""The shared connection plane: subscription replacement, dynamic-query
release by identity, protocol policing at every hop, and the source
plane (reliable DAB delivery and upkeep) the server and router share."""

import asyncio

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster.broker import NotifyBroker
from repro.service.cluster.router import build_scenario_cluster
from repro.service.protocol import PROTOCOL_VERSION, MessageType
from repro.service.resilience import RetryPolicy
from repro.service.server import build_scenario_server


def run(coro):
    return asyncio.run(coro)


SCENARIO = dict(query_count=4, item_count=20, source_count=2,
                trace_length=41, seed=1)


def _renamed(query, name):
    """``query``'s exact definition under another name (equal by value:
    query equality ignores the name)."""
    wire = protocol.query_to_wire(query)
    wire["name"] = name
    return wire


async def _drain(rounds=10):
    for _ in range(rounds):
        await asyncio.sleep(0)


class TestDynamicQueryRelease:
    @pytest.mark.parametrize("bank_index", ["flat", "shared"])
    def test_removing_a_renamed_twin_keeps_the_static_query(self, bank_index):
        server, _, _ = build_scenario_server(bank_index=bank_index,
                                             **SCENARIO)
        static = server.core.queries[0]

        async def body():
            client = ServiceClient(server.connect_loopback())
            await client.subscribe(definitions=[_renamed(static, "dyn1")])
            assert server._dynamic_refs == {"dyn1": 1}
            await client.close()
            await _drain()
            assert server._dynamic_refs == {}
            assert "dyn1" not in server.core.query_names
            held = {q.name for bucket in server.core.item_index.values()
                    for q in bucket}
            assert static.name in held
            assert "dyn1" not in held
            for item in static.variables:
                assert any(q is static
                           for q in server.core.item_index[item])
            await server.close()

        run(body())


class TestSubscriptionReplacement:
    def test_second_query_sub_releases_the_first(self):
        server, _, _ = build_scenario_server(**SCENARIO)
        twin = _renamed(server.core.queries[0], "dyn1")

        async def body():
            stream = server.connect_loopback()
            await stream.send(protocol.query_sub("*", definitions=[twin]))
            assert (await stream.receive())["type"] == "snapshot"
            await stream.send(protocol.query_sub("*"))
            assert (await stream.receive())["type"] == "snapshot"
            assert len(server._subscribers) == 1
            assert server._dynamic_refs == {}
            assert "dyn1" not in server.core.query_names
            stream.close()
            await _drain()
            assert server._subscribers == {}
            assert server.stats["subscribers"] == 0
            await server.close()

        run(body())

    def test_query_held_by_both_subscriptions_is_not_re_added(self):
        server, _, _ = build_scenario_server(**SCENARIO)
        twin = _renamed(server.core.queries[0], "dyn1")
        calls = []
        for method in ("add_query", "remove_query"):
            original = getattr(server.core, method)

            def counted(*args, _original=original, _method=method, **kwargs):
                calls.append(_method)
                return _original(*args, **kwargs)

            setattr(server.core, method, counted)

        async def body():
            stream = server.connect_loopback()
            for _ in range(2):
                await stream.send(protocol.query_sub([], definitions=[twin]))
                assert (await stream.receive())["type"] == "snapshot"
            assert calls == ["add_query"]
            assert server._dynamic_refs == {"dyn1": 1}
            stream.close()
            await _drain()
            assert calls == ["add_query", "remove_query"]
            await server.close()

        run(body())

    def test_broker_keeps_one_subscriber_per_connection(self):
        server, _, _ = build_scenario_server(**SCENARIO)

        async def body():
            broker = NotifyBroker(server.connect_loopback)
            await broker.start()
            stream = broker.connect_loopback()
            for queries in ("*", [server.core.queries[0].name]):
                await stream.send(protocol.query_sub(queries))
                assert (await stream.receive())["type"] == "snapshot"
            assert len(broker._subscribers) == 1
            assert broker.stats["subscribers"] == 1
            (sub,) = broker._subscribers.values()
            assert sub.queries == {server.core.queries[0].name}
            stream.close()
            await _drain()
            assert broker._subscribers == {}
            await broker.close()
            await server.close()

        run(body())


class TestBrokerPolicing:
    def _broker(self):
        server, _, _ = build_scenario_server(**SCENARIO)
        return server, NotifyBroker(server.connect_loopback)

    def test_garbage_bytes_get_an_error_frame(self):
        server, broker = self._broker()

        async def body():
            await broker.start()
            stream = broker.connect_loopback()
            stream._writer.write(b"\xff\xff\xff\xffnot a frame")
            reply = await stream.receive()
            assert reply["type"] == MessageType.ERROR.value
            assert reply["reason"] == "corrupt framing"
            assert await stream.receive() is None       # broker hung up
            assert broker.stats["protocol_errors"] == 1
            await _drain()
            assert not broker._handler_tasks
            await broker.close()
            await server.close()

        run(body())

    @pytest.mark.parametrize("bad", [
        {"v": PROTOCOL_VERSION, "type": "query_sub", "queries": 7},
        {"v": PROTOCOL_VERSION, "type": "query_sub"},
    ])
    def test_malformed_query_sub_gets_an_error_frame(self, bad):
        server, broker = self._broker()

        async def body():
            await broker.start()
            stream = broker.connect_loopback()
            await stream.send(bad)
            reply = await stream.receive()
            assert reply["type"] == MessageType.ERROR.value
            assert await stream.receive() is None
            assert broker.stats["protocol_errors"] == 1
            assert broker._subscribers == {}
            await _drain()
            assert not broker._handler_tasks
            await broker.close()
            await server.close()

        run(body())

    def test_source_frames_are_refused(self):
        server, broker = self._broker()

        async def body():
            await broker.start()
            stream = broker.connect_loopback()
            await stream.send(protocol.register_source(0, ["x0"]))
            reply = await stream.receive()
            assert reply["type"] == MessageType.ERROR.value
            assert "unexpected register_source" in reply["reason"]
            assert broker.stats["protocol_errors"] == 1
            await broker.close()
            await server.close()

        run(body())


class TestClosedHopsRefuseConnections:
    def test_router_refuses_adopt_connection_after_close(self):
        cluster, _, _ = build_scenario_cluster(shards=2, **SCENARIO)

        async def body():
            await cluster.start()
            await cluster.close()
            stream = cluster.connect_loopback()
            assert await stream.receive() is None       # hung up at once
            assert not cluster._handler_tasks
            assert cluster._subscribers == {}

        run(body())


class StepClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _hop(kind, **kwargs):
    """A single server or a 2-shard router over the same scenario."""
    if kind == "server":
        return build_scenario_server(**SCENARIO, **kwargs)
    return build_scenario_cluster(shards=2, **SCENARIO, **kwargs)


async def _register(hop, item_to_source, source_id):
    if hasattr(hop, "start"):
        await hop.start()
    stream = hop.connect_loopback()
    await stream.send(protocol.register_source(
        source_id, sorted(n for n, s in item_to_source.items()
                          if s == source_id)))
    assert (await stream.receive())["type"] == MessageType.DAB_UPDATE.value
    return stream


async def _next_delivery(stream):
    """The next DAB_UPDATE carrying a ``msg_id`` (probes are skipped)."""
    async def skim():
        while True:
            message = await stream.receive()
            if message.get("msg_id") is not None:
                return message

    return await asyncio.wait_for(skim(), 2.0)


@pytest.mark.parametrize("kind", ["server", "router"])
class TestSourcePlane:
    """Reliable DAB delivery and upkeep, owned once by the base plane."""

    POLICY = RetryPolicy(base_delay=2.0, backoff=1.0, max_delay=2.0,
                         max_attempts=5)

    def test_unacked_update_is_resent_then_cleared_by_its_ack(self, kind):
        clock = StepClock()
        hop, _, item_to_source = _hop(kind, clock=clock,
                                      dab_retry_policy=self.POLICY)

        async def body():
            stream = await _register(hop, item_to_source, 0)
            hop._outstanding_dabs.clear()       # only the update below
            await hop._send_dab_update(0, {"x": 1.5}, {"x": 99})
            first = await _next_delivery(stream)
            assert first["bounds"] == {"x": 1.5}
            clock.now = 3.0                     # overdue, never acked
            await hop.check_retries()
            again = await _next_delivery(stream)
            assert again["msg_id"] == first["msg_id"]
            assert again["bounds"] == first["bounds"]
            assert list(hop._outstanding_dabs) == [first["msg_id"]]
            await stream.send(protocol.dab_ack(0, first["msg_id"]))
            await _drain()
            assert hop._outstanding_dabs == {}
            assert hop.stats["dab_acks_received"] == 1
            stream.close()
            await hop.close()

        run(body())

    def test_re_registration_purges_only_that_sources_entries(self, kind):
        hop, _, item_to_source = _hop(kind, clock=StepClock(),
                                      dab_retry_policy=self.POLICY)

        async def body():
            stream = await _register(hop, item_to_source, 0)
            hop._outstanding_dabs.clear()
            await hop._send_dab_update(0, {"x": 1.5}, {"x": 1})
            await hop._send_dab_update(1, {"y": 2.5}, {"y": 1})
            assert len(hop._outstanding_dabs) == 2
            again = await _register(hop, item_to_source, 0)
            assert [entry["source_id"]
                    for entry in hop._outstanding_dabs.values()] == [1]
            stream.close()
            again.close()
            await hop.close()

        run(body())

    def test_no_lease_and_no_policy_starts_no_upkeep(self, kind):
        hop, _, _ = _hop(kind)

        async def body():
            if hasattr(hop, "start"):
                await hop.start()
            hop.start_maintenance()
            assert hop._maintenance_task is None
            await hop.close()

        run(body())

    def test_upkeep_task_drives_retries_until_close(self, kind):
        # Wall clock: a 0.2 s lease sweeps every 0.05 s.
        hop, _, item_to_source = _hop(
            kind, lease_duration=0.2,
            dab_retry_policy=RetryPolicy(base_delay=0.01, backoff=1.0,
                                         max_delay=0.01, max_attempts=50))

        async def body():
            stream = await _register(hop, item_to_source, 0)
            hop._outstanding_dabs.clear()
            await hop._send_dab_update(0, {"x": 1.5}, {"x": 1})
            first = await _next_delivery(stream)
            hop.start_maintenance()
            task = hop._maintenance_task
            assert task is not None
            again = await _next_delivery(stream)
            assert again["msg_id"] == first["msg_id"]
            await hop.close()
            assert task.cancelled()
            assert hop._maintenance_task is None
            stream.close()

        run(body())
