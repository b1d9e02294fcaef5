"""The live-service benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload quiet-fanout --seed 1 \\
        --seconds 16 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Human-readable
detail (sample counts, failure breakdown, n/a layers) goes to the lines
before the last; the last line of standard output is the JSON result.
The exit status is 1 when any audited value broke its QAB, 2 when the
program cannot be imported.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One process, one event loop, no extra threads: keep the BLAS
    # libraries the solver calls into single-threaded (before numpy loads).
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, make_inputs  # noqa: E402

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("notify_p50_ms", "ms"),
    ("message_cost_per_ktick", "msg/ktick"),
    ("peak_rss_mb", "MB"),
]

#: Spans written to the span file at most (the metrics use them all).
SPAN_FILE_LIMIT = 200_000


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1,
               max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def end_to_end(measured: Any) -> Dict[str, float]:
    """Each phase metric is the median over the phase's blocks."""
    open_ = measured.open
    return {
        "setup_s": statistics.median(measured.setup_s),
        "ticks_per_s": statistics.median(
            block.ticks / block.elapsed for block in measured.closed),
        "notify_p50_ms": statistics.median(
            _percentile(block.latencies, 50) for block in open_) * 1e3,
        "notify_p90_ms": statistics.median(
            _percentile(block.latencies, 90) for block in open_) * 1e3,
        "notify_p99_ms": statistics.median(
            _percentile(block.latencies, 99) for block in open_) * 1e3,
        "message_cost_per_ktick": (sum(block.cost for block in open_)
                                   / sum(block.ticks for block in open_)
                                   * 1e3),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def describe(label: str, measured: Any) -> None:
    """Print one measurement's samples, audits and failures."""
    print(f"[{label}] setup_s samples: "
          + ", ".join(f"{s:.4f}" for s in measured.setup_s))
    blocks = [("closed", block) for block in measured.closed] + [
        ("open", block) for block in measured.open]
    for name, block in blocks:
        line = (f"[{label}] {name} block: {block.ticks} ticks in "
                f"{block.elapsed:.3f} s, {block.recomputations} recomputes, "
                f"audited {block.audited} values, "
                f"{len(block.violations)} outside QAB")
        if name == "open":
            line += (f", {len(block.latencies)} notify samples, p50 "
                     f"{_percentile(block.latencies, 50) * 1e3:.3f} ms, "
                     f"p99 {_percentile(block.latencies, 99) * 1e3:.3f} ms,"
                     f" generator lag p99 "
                     f"{_percentile(block.lags, 99) * 1e3:.3f} ms")
        print(line)
        for violation in block.violations[:5]:
            print(f"  QAB violation: {violation}")
    churn = [sample for block in measured.closed
             for sample in block.subscribe_latencies]
    if any(block.subscribes for block in measured.closed):
        print(f"[{label}] query churn: "
              f"{sum(block.subscribes for block in measured.closed)} "
              f"subscribes, {measured.failures.failed_subscribes} failed, "
              f"subscribe_p50_ms {_percentile(churn, 50) * 1e3:.3f}, "
              f"subscribe_p90_ms {_percentile(churn, 90) * 1e3:.3f}")
    failed = measured.failures.total()
    print(f"[{label}] failed_op_frac {failed / measured.attempted:.6g} "
          f"({failed} of {measured.attempted}: {vars(measured.failures)})")


def write_spans(recorder: Any, name: str, seed: int) -> Path:
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}-{seed}.jsonl"
    with open(path, "w") as fh:
        for index, span in enumerate(recorder.spans[:SPAN_FILE_LIMIT]):
            fh.write(json.dumps({"i": index, "name": span.name,
                                 "start": span.start, "end": span.end,
                                 "parent": span.parent,
                                 "rid": list(span.rid) if span.rid else None
                                 }) + "\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as err:
        print(f"error: cannot import the program from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    import layers
    import live
    from spans import SpanRecorder

    inputs = make_inputs(WORKLOADS[args.workload], args.seed,
                         args.seconds)
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        layers.instrument(recorder)
    try:
        outcome = asyncio.run(live.run(inputs, recorder))
    finally:
        if recorder is not None:
            recorder.unwrap()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  closed steps "
          f"{inputs.closed_steps}  open steps {inputs.open_steps} at "
          f"{inputs.workload.offered_steps_per_s:g} steps/s")
    measurements = [outcome.measured]
    describe("untraced", outcome.measured)
    untraced = end_to_end(outcome.measured)
    if args.trace:
        traced_run = outcome.traced
        measurements.append(traced_run)
        describe("traced", traced_run)
        traced = end_to_end(traced_run)
        counters = {
            "server.evictions": float(traced_run.evictions["server"]),
            "broker.evictions": float(traced_run.evictions["broker"]),
            "loadgen.lag_p99_ms": _percentile(
                [lag for block in traced_run.open for lag in block.lags],
                99) * 1e3,
            "trace.ticks_overhead_pct": 100.0 * (
                1.0 - traced["ticks_per_s"] / untraced["ticks_per_s"]),
            "trace.notify_p50_overhead_pct": 100.0 * (
                traced["notify_p50_ms"] / untraced["notify_p50_ms"] - 1.0
                if untraced["notify_p50_ms"] else 0.0),
        }
        values, not_applicable = layers.per_layer_metrics(
            recorder, traced_run.deltas, counters)
        print(f"tracing overhead: ticks_per_s {untraced['ticks_per_s']:.1f}"
              f" untraced vs {traced['ticks_per_s']:.1f} traced; "
              f"notify_p50_ms {untraced['notify_p50_ms']:.3f} vs "
              f"{traced['notify_p50_ms']:.3f}")
        print("n/a on this workload: " + (", ".join(not_applicable)
                                           or "none"))
        print(f"spans: {len(recorder.spans)} recorded, written to "
              f"{write_spans(recorder, args.workload, args.seed)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        print(f"notify_p90_ms {untraced['notify_p90_ms']:.4f}, notify_p99_ms "
              f"{untraced['notify_p99_ms']:.4f} (medians of the blocks' "
              "percentiles; tails, not bounded metrics)")
        metrics = {name: {"value": untraced[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")

    correct = all(m.failures.qab_violations == 0 for m in measurements)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(m.attempted for m in measurements),
        "failed": sum(m.failures.total() for m in measurements),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
