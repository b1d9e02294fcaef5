"""Per-layer metrics for the traced run.

:func:`instrument` wraps, from outside, the public call each layer
offers the layer above; :func:`per_layer_metrics` turns the recorded
spans and the counters read at the edges of the traced phases into the
per-layer metrics named in ``BENCHMARK.json``.  A layer a workload never
calls reports 0 and is listed as n/a beside the result.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Dict, List, Tuple

from spans import NameStats, SpanRecorder, has_ancestor, summarise

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("agent.tick_us", "us", "lower"),
    ("agent.send_ratio", "ratio", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("protocol.frames_per_tick", "1/tick", "lower"),
    ("protocol.bytes_per_tick", "B/tick", "lower"),
    ("server.refresh_self_us", "us", "lower"),
    ("server.fanout_us", "us", "lower"),
    ("server.notify_queue_wait_ms", "ms", "lower"),
    ("server.notify_queue_depth_max", "count", "lower"),
    ("server.evictions", "count", "lower"),
    ("core.apply_refresh_us", "us", "lower"),
    ("core.react_self_us", "us", "lower"),
    ("core.bound_updates_us", "us", "lower"),
    ("core.recompute_ratio", "ratio", "lower"),
    ("core.add_query_ms", "ms", "lower"),
    ("core.remove_query_ms", "ms", "lower"),
    ("queries.bank_eval_us", "us", "lower"),
    ("queries.bank_eval_calls", "1/refresh", "lower"),
    ("filters.cold_plan_ms", "ms", "lower"),
    ("filters.recompute_plan_ms", "ms", "lower"),
    ("filters.cache_hit_ratio", "ratio", "higher"),
    ("filters.delta_patch_ratio", "ratio", "higher"),
    ("gp.solve_ms", "ms", "lower"),
    ("gp.solves", "count", "lower"),
    ("gp.iterations_per_solve", "count", "lower"),
    ("gp.starts_per_solve", "count", "lower"),
    ("gp.trust_constr_ratio", "ratio", "lower"),
    ("journal.append_us", "us", "lower"),
    ("journal.bytes_per_refresh", "B", "lower"),
    ("journal.fsyncs", "count", "lower"),
    ("router.route_us", "us", "lower"),
    ("router.shard_frames_per_refresh", "ratio", "lower"),
    ("router.partials_per_notify", "ratio", "lower"),
    ("broker.fanout_us", "us", "lower"),
    ("broker.evictions", "count", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("trace.ticks_overhead_pct", "%", "lower"),
    ("trace.notify_p50_overhead_pct", "%", "lower"),
]


def _refresh_id(self: Any, *args: Any) -> Tuple[Any, ...]:
    message = args[-1]
    return (message.get("source_id"), message.get("item"),
            message.get("seq"))


def _solve_info(solution: Any) -> Tuple[str, int, int]:
    report = solution.report
    return report.method, report.iterations, report.starts_tried


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the traced run measures."""
    from repro.filters.caching import QuantisingCachePlanner
    from repro.gp import solver
    from repro.queries.bank_index import SharedStructureBank
    from repro.queries.compiled import CompiledQueryBank
    from repro.service import server as server_module
    from repro.service import transports
    from repro.service.agent import SourceAgent
    from repro.service.cluster.broker import NotifyBroker
    from repro.service.cluster.router import ClusterCoordinator
    from repro.service.core import CoordinatorCore
    from repro.service.journal import Journal
    from repro.service.protocol import FrameDecoder
    from repro.service.server import CoordinatorServer

    wrap = recorder.wrap
    wrap(SourceAgent, "pending_refreshes", "agent.tick")
    wrap(transports, "encode_frame", "protocol.encode", info_of=len)
    wrap(FrameDecoder, "feed", "protocol.decode")
    wrap(CoordinatorServer, "_on_refresh", "server.refresh",
         rid_of=_refresh_id)
    wrap(CoordinatorServer, "_fanout_notifications", "server.fanout")
    wrap(CoordinatorCore, "apply_refresh", "core.apply_refresh")
    wrap(CoordinatorCore, "react_to_refresh", "core.react")
    wrap(CoordinatorCore, "changed_bound_updates", "core.bound_updates")
    wrap(CoordinatorCore, "add_query", "core.add_query")
    wrap(CoordinatorCore, "remove_query", "core.remove_query")
    wrap(CompiledQueryBank, "values_vector", "queries.bank_eval")
    wrap(SharedStructureBank, "refresh_movers", "queries.bank_eval")
    wrap(QuantisingCachePlanner, "plan", "filters.plan")
    wrap(solver, "solve_compiled", "gp.solve", info_of=_solve_info)
    wrap(Journal, "append", "journal.append")
    wrap(ClusterCoordinator, "_on_refresh", "router.refresh",
         rid_of=_refresh_id)
    wrap(ClusterCoordinator, "_on_shard_notify", "router.partial")
    wrap(ClusterCoordinator, "_fanout_notifications", "router.fanout")
    wrap(NotifyBroker, "_fanout", "broker.fanout")
    recorder.replace(server_module, "_Subscriber",
                     _timed_subscriber(server_module._Subscriber, recorder))


def _timed_subscriber(base: type, recorder: SpanRecorder) -> type:
    """The server's subscriber record with a queue that times how long
    each NOTIFY waits for its writer, and tracks the deepest backlog."""
    recorder.queue_waits = []
    recorder.queue_depth_max = 0

    class TimedQueue(asyncio.Queue):
        def __init__(self, maxsize: int = 0):
            super().__init__(maxsize)
            self._stamps: deque = deque()

        def put_nowait(self, item: Any) -> None:
            super().put_nowait(item)
            self._stamps.append(recorder.clock())
            if recorder.enabled:
                recorder.queue_depth_max = max(recorder.queue_depth_max,
                                               self.qsize())

        def get_nowait(self) -> Any:
            item = super().get_nowait()
            stamp = self._stamps.popleft()
            if recorder.enabled and item is not None:
                recorder.queue_waits.append(recorder.clock() - stamp)
            return item

    class TimedSubscriber(base):
        def __init__(self, sub_id, stream, queries, limit):
            super().__init__(sub_id, stream, queries, limit)
            self.queue = TimedQueue(maxsize=limit)

    return TimedSubscriber


def _classify(spans: List[Any], index: int) -> str:
    span = spans[index]
    if span.name == "filters.plan":
        return ("filters.plan.recompute"
                if has_ancestor(spans, index, "core.react")
                else "filters.plan.cold")
    return span.name


def per_layer_metrics(recorder: SpanRecorder, deltas: Dict[str, float],
                      counters: Dict[str, float]
                      ) -> Tuple[Dict[str, float], List[str]]:
    """``deltas``: counters moved during the traced phases;
    ``counters``: whole-run failure counters and loadgen figures.
    Returns the metrics and the names that are n/a on this workload."""
    stats = summarise(recorder.spans, _classify)
    # Cold plans and their GP solves happen in set-up as well as in
    # add_query: those two layers count the traced set-up too.
    for name, entry in summarise(recorder.setup_spans, _classify).items():
        if name in ("filters.plan.cold", "gp.solve"):
            merged = stats.setdefault(name, NameStats())
            merged.count += entry.count
            merged.total += entry.total
            merged.self_total += entry.self_total

    def get(name: str) -> NameStats:
        return stats.get(name) or NameStats()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ticks = deltas["ticks"]
    accepted = deltas["accepted"]
    solves = [span.info for span in recorder.setup_spans + recorder.spans
              if span.name == "gp.solve" and span.info is not None]
    encodes = [span.info for span in recorder.spans
               if span.name == "protocol.encode" and span.info is not None]
    waits = recorder.queue_waits
    metrics = {
        "agent.tick_us": ratio(get("agent.tick").total, ticks) * 1e6,
        "agent.send_ratio": ratio(deltas["sent"], ticks),
        "protocol.encode_us": get("protocol.encode").mean() * 1e6,
        "protocol.decode_us": get("protocol.decode").mean() * 1e6,
        "protocol.frames_per_tick": ratio(len(encodes), ticks),
        "protocol.bytes_per_tick": ratio(sum(encodes), ticks),
        "server.refresh_self_us": get("server.refresh").self_mean() * 1e6,
        "server.fanout_us": get("server.fanout").mean() * 1e6,
        "server.notify_queue_wait_ms": ratio(sum(waits), len(waits)) * 1e3,
        "server.notify_queue_depth_max": float(recorder.queue_depth_max),
        "server.evictions": counters["server.evictions"],
        "core.apply_refresh_us": get("core.apply_refresh").mean() * 1e6,
        "core.react_self_us": get("core.react").self_mean() * 1e6,
        "core.bound_updates_us": get("core.bound_updates").mean() * 1e6,
        "core.recompute_ratio": ratio(deltas["recomputations"], accepted),
        "core.add_query_ms": get("core.add_query").mean() * 1e3,
        "core.remove_query_ms": get("core.remove_query").mean() * 1e3,
        "queries.bank_eval_us": get("queries.bank_eval").mean() * 1e6,
        "queries.bank_eval_calls": ratio(get("queries.bank_eval").count,
                                         accepted),
        "filters.cold_plan_ms": get("filters.plan.cold").mean() * 1e3,
        "filters.recompute_plan_ms":
            get("filters.plan.recompute").mean() * 1e3,
        "filters.cache_hit_ratio": ratio(
            deltas["cache_hits"],
            deltas["cache_hits"] + deltas["cache_misses"]),
        "filters.delta_patch_ratio": ratio(
            deltas["delta_patches"],
            deltas["delta_patches"] + deltas["delta_fallbacks"]),
        "gp.solve_ms": get("gp.solve").mean() * 1e3,
        "gp.solves": float(get("gp.solve").count),
        "gp.iterations_per_solve": ratio(sum(s[1] for s in solves),
                                         len(solves)),
        "gp.starts_per_solve": ratio(sum(s[2] for s in solves), len(solves)),
        "gp.trust_constr_ratio": ratio(
            sum(1 for s in solves if s[0] == "trust-constr"), len(solves)),
        "journal.append_us": get("journal.append").mean() * 1e6,
        "journal.bytes_per_refresh": ratio(deltas["wal_bytes"], accepted),
        "journal.fsyncs": deltas["fsyncs"],
        "router.route_us": get("router.refresh").mean() * 1e6,
        "router.shard_frames_per_refresh": ratio(
            deltas["routed"], deltas["router_accepted"]),
        "router.partials_per_notify": ratio(get("router.partial").count,
                                            get("router.fanout").count),
        "broker.fanout_us": get("broker.fanout").mean() * 1e6,
        "broker.evictions": counters["broker.evictions"],
        "loadgen.lag_p99_ms": counters["loadgen.lag_p99_ms"],
        "trace.ticks_overhead_pct": counters["trace.ticks_overhead_pct"],
        "trace.notify_p50_overhead_pct":
            counters["trace.notify_p50_overhead_pct"],
    }
    absent = {name for name in _NEEDS_SPAN.values() if name not in stats}
    not_applicable = [metric for metric, span in _NEEDS_SPAN.items()
                      if span in absent]
    if not deltas["journaled"]:
        not_applicable += [m for m, _, _ in PER_LAYER
                           if m.startswith("journal.")]
    if not deltas["clustered"]:
        not_applicable += [m for m, _, _ in PER_LAYER
                           if m.startswith(("router.", "broker."))]
    if not deltas["delta_patches"] + deltas["delta_fallbacks"]:
        not_applicable.append("filters.delta_patch_ratio")
    if not deltas["cache_hits"] + deltas["cache_misses"]:
        not_applicable.append("filters.cache_hit_ratio")
    if not waits:
        not_applicable.append("server.notify_queue_wait_ms")
    not_applicable = sorted(set(not_applicable))
    for name in not_applicable:
        metrics[name] = 0.0
    return metrics, not_applicable


#: per-layer metric -> the span whose absence from the traced phases
#: makes it n/a (the layer was never called).
_NEEDS_SPAN = {
    "core.bound_updates_us": "core.bound_updates",
    "core.add_query_ms": "core.add_query",
    "core.remove_query_ms": "core.remove_query",
    "filters.recompute_plan_ms": "filters.plan.recompute",
    "gp.solve_ms": "gp.solve",
    "gp.solves": "gp.solve",
    "gp.iterations_per_solve": "gp.solve",
    "gp.starts_per_solve": "gp.solve",
    "gp.trust_constr_ratio": "gp.solve",
    "router.route_us": "router.refresh",
    "router.partials_per_notify": "router.fanout",
    "broker.fanout_us": "broker.fanout",
}
