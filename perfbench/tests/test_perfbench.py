"""The benchmark's own checks.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

import layers
import live
import run
from repro.service.protocol import query_to_wire
from spans import Span, SpanRecorder, self_times, summarise
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[2]

#: A small world that sets up in about a second.
TINY = replace(WORKLOADS["quiet-fanout"], name="tiny", queries=12, items=20,
               sources=2, subscribers=2, closed_steps_per_s=100.0,
               offered_steps_per_s=100.0)


def inputs_digest(inputs) -> str:
    """SHA-256 over every input the program is handed."""
    digest = hashlib.sha256()
    digest.update(json.dumps(
        [query_to_wire(q) for q in inputs.scenario.queries],
        sort_keys=True).encode())
    digest.update(json.dumps(inputs.item_to_source, sort_keys=True).encode())
    for source_id, (items, matrix) in sorted(inputs.ticks.items()):
        digest.update(f"{source_id}:{','.join(items)}".encode())
        digest.update(np.ascontiguousarray(matrix).tobytes())
    digest.update(json.dumps(
        [[query_to_wire(q) for q in batch] for batch in inputs.churn],
        sort_keys=True).encode())
    digest.update(f"{inputs.closed_steps}:{inputs.open_steps}:"
                  f"{inputs.trace_length}".encode())
    return digest.hexdigest()


def test_one_seed_gives_byte_identical_inputs():
    first = make_inputs(WORKLOADS["query-churn"], 3, 1.0)
    again = make_inputs(WORKLOADS["query-churn"], 3, 1.0)
    other = make_inputs(WORKLOADS["query-churn"], 4, 1.0)
    assert first.churn, "query-churn must carry churn definitions"
    assert inputs_digest(first) == inputs_digest(again)
    assert inputs_digest(first) != inputs_digest(other)


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4];
    # a grandchild [2, 3] sits inside the first child.
    spans = [Span("parent", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0),
             Span("a.child", 2.0, 3.0, parent=1)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]
    stats = summarise(spans)
    assert stats["parent"].total == 10.0
    assert stats["parent"].self_total == 5.0


def test_recorder_nests_wrapped_calls_and_unwraps():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self):
            return 7

        def outer(self, message):
            return self.inner() + self.inner()

    recorder.wrap(Layer, "inner", "inner")
    recorder.wrap(Layer, "outer", "outer",
                  rid_of=lambda self, message: (message["item"],))
    recorder.enabled = True
    assert Layer().outer({"item": "x1"}) == 14
    recorder.unwrap()
    assert Layer.inner.__name__ == "inner" and not hasattr(
        Layer.inner, "__wrapped__")
    names = [span.name for span in recorder.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span.parent for span in recorder.spans] == [None, 0, 0]
    assert all(span.rid == ("x1",) for span in recorder.spans)
    # outer ran from t=0 to t=5, its children covered [1,2] and [3,4].
    assert self_times(recorder.spans) == [3.0, 1.0, 1.0]


def test_audit_flags_a_planted_out_of_qab_value(tmp_path):
    inputs = make_inputs(TINY, 1, 1.0)

    async def scenario():
        dep = live.Deployment(inputs, tmp_path)
        await dep.start()
        try:
            clean = live.PhaseResult()
            await live.audit(dep, clean)
            assert clean.audited == len(inputs.scenario.queries)
            assert clean.violations == []
            query = inputs.scenario.queries[0]
            item = sorted(query.variables)[0]
            core = dep.servers[0].core
            core.apply_refresh(item, core.cache[item] * 3.0)
            planted = live.PhaseResult()
            await live.audit(dep, planted)
            return query.name, planted.violations
        finally:
            await dep.close()

    name, violations = asyncio.run(scenario())
    assert name in {violation["query"] for violation in violations}


def test_forced_eviction_shows_in_failed_ops():
    inputs = make_inputs(TINY, 2, 1.0)
    outcome = asyncio.run(live.run(inputs,
                                   server_kwargs={"notify_queue_limit": 1}))
    measured = outcome.measured
    assert measured.failures.evictions >= 1
    assert measured.failures.total() / measured.attempted > 0
    assert measured.evictions["server"] == measured.failures.evictions


def test_benchmark_json_matches_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER
    named = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    assert set(named) == set(WORKLOADS)
    for name, why in named.items():
        rate = re.search(r"open loop at ([0-9.]+) steps/s", why)
        assert rate, f"{name}: the why must state the offered rate"
        assert float(rate.group(1)) == WORKLOADS[name].offered_steps_per_s
