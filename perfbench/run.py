"""Benchmark of the ergolab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``) runs report the end-to-end metrics: set-up time in
fresh processes, the workload's summed command wall time and the largest
child max-RSS.  Traced (``--trace 1``) runs report the per-layer metrics of
one traced pass, the per-command times and memory of one untraced pass, and
the tracing overhead.  Every command run passes the correctness gate in
`bench.gate` or counts as failed.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def listed_metrics(trace: bool) -> list[str]:
    spec = json.loads(BENCHMARK.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(record: bench.RunRecord, trace: bool) -> dict:
    """Print every metric as a table; return the final JSON object, which
    holds the metrics BENCHMARK.json lists for this mode."""
    metrics = bench.per_layer(record) if trace else bench.end_to_end(record)
    for name, (value, unit, n) in metrics.items():
        if n == 0:
            continue            # a command this workload does not run
        print(f"{name:<40} {value:>16.6f} {unit:<6} n={n}")
    for run in record.command_runs():
        for reason in run.reasons:
            print(f"FAILED {run.command}: {reason}")
    return {"correct": record.correct, "attempted": record.attempted,
            "failed": record.failed,
            "metrics": {name: {"value": metrics[name][0],
                               "unit": metrics[name][1]}
                        for name in listed_metrics(trace)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    workload = bench.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    try:
        record = bench.run_workload(ROOT, workload, args.seed, args.seconds,
                                    bool(args.trace),
                                    reference.get(workload.name))
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(record, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
