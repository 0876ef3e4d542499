"""Record the seed-independent reference values the correctness gate checks.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload and writes, per workload and
command, `bench.reference_values` of its artifacts to reference.json.  Run
it only when a change is meant to alter those values (point count, cube
levels and sizes, axiom flags, growth exponent, suite check counts, probe
trial counts, experiment radii), and say so in the change.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import bench

HERE = Path(__file__).resolve().parent


def main() -> None:
    root = HERE.parent
    reference = {}
    for name, workload in bench.WORKLOADS.items():
        work = root / ".perfbench_out" / f"reference-{name}"
        runner = bench.Runner(root, workload, 0, work, None)
        try:
            runs = runner.one_pass("pass0")
            failed = [r for r in runs if r.reasons]
            if failed:
                raise SystemExit(f"{name}: {failed[0].command} failed: "
                                 f"{failed[0].reasons}")
            reference[name] = {
                args[0]: bench.reference_values(
                    args[0], work / "pass0" / f"{i}-{args[0]}")
                for i, args in enumerate(workload.commands)}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
