"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> bench.Workload:
    """The named workload shrunk to a few hundred points."""
    small = {
        "cubes-z2": ({"space": {"family": "zd", "d": 2, "modulus": 8}},
                     {"space": {"family": "zd", "d": 2, "modulus": 8}}),
        "averages-z1": ({"space": {"family": "zd", "d": 1, "modulus": 64},
                         "probe": {"trials": 2}, "gundy": {"trials": 2}},
                        {"space": {"family": "zd", "d": 1, "modulus": 64}}),
        "ergodic-rot": ({"experiment": {
                            **bench.WORKLOADS["ergodic-rot"].config["experiment"],
                            "modulus": 256,
                            "radii": {"start": 1, "stop": 16, "step": 1}}},
                        {"system": {"kind": "rotation", "modulus": 256}}),
        "enum-h3ball": ({"space": {"family": "h3", "radius": 4,
                                   "modulus": None}},
                        {"space": {"family": "h3", "radius": 4}}),
    }
    config, setup = small[name]
    return dataclasses.replace(bench.WORKLOADS[name], config=config,
                               setup=setup, setup_reps=2)


def run_tiny(workload, tmp_path, trace=False, reference=None, seed=3):
    return bench.run_workload(ROOT, workload, seed, 0.01, trace, reference,
                              work=tmp_path / "work")


def test_spec_names_match_the_code():
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    emitted = {k: unit for k, (_, unit, _) in
               bench.per_layer(bench.RunRecord()).items()}
    assert listed == emitted
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    workload = tiny(name)
    ran = {args[0] for args in workload.commands}
    for trace in (False, True):
        record = run_tiny(workload, tmp_path, trace)
        assert record.correct, [r.reasons for r in record.command_runs()]
        if not trace:
            assert len(record.passes) >= bench.MIN_PASSES
            assert len(record.setup_s) == workload.setup_reps
        metrics = bench.per_layer(record) if trace else bench.end_to_end(record)
        listed = SPEC["per_layer" if trace else "end_to_end"]
        for m in listed:
            assert metrics[m["name"]][1] == m["unit"], m["name"]
            if not trace:
                assert metrics[m["name"]][0] > 0, m["name"]
        for cmd in ran:
            value, unit, n = metrics[f"{cmd}_s"]
            assert unit == "s" and n >= 1 and value > 0
            assert metrics[f"{cmd}_rss_mb"][0] > 0
        result = run.report(record, trace)
        assert set(result["metrics"]) == {m["name"] for m in listed}
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_invalid_config_counts_as_failed(tmp_path):
    workload = dataclasses.replace(
        tiny("cubes-z2"), config={"space": {"family": "zd", "d": 0}})
    record = run_tiny(workload, tmp_path)
    assert not record.correct
    assert record.failed == record.attempted == len(record.passes) * 3
    assert bench.end_to_end(record)["fail_ratio"][0] == 1.0
    assert record.passes[0][0].reasons[0] == "exit code 2"


def test_gate_rejects_injected_failures(tmp_path):
    workload = tiny("cubes-z2")
    good = run_tiny(workload, tmp_path)
    assert good.correct
    # a wrong seed-independent reference value
    wrong = {"space": {"n": 65, "growth_exponent": 1.0}}
    record = run_tiny(workload, tmp_path, reference=wrong)
    assert record.failed == len(record.passes)
    assert "reference values differ" in record.passes[0][0].reasons[0]

    out = tmp_path / "bundle"
    out.mkdir()
    doc = {"n": 64, "growth": {"exponent": 1.0}, "failures": []}
    (out / "space.json").write_text(json.dumps(doc))
    ref = bench.reference_values("space", out)
    assert bench.gate("space", 0, out, ref, bench.digest(out)) == []
    assert bench.gate("space", 1, out, ref, None) == ["exit code 1"]
    # a listed failure, then bytes that differ from the first repetition
    first = bench.digest(out)
    doc["failures"] = ["cover check failed"]
    (out / "space.json").write_text(json.dumps(doc))
    reasons = bench.gate("space", 0, out, ref, first)
    assert any("failures" in r for r in reasons)
    assert any("first repetition" in r for r in reasons)
    (out / "verify.json").write_text(json.dumps({"passed": False,
                                                 "suites": []}))
    assert any("passed" in r for r in bench.gate("verify", 0, out, None, None))


def test_layer_self_times_fit_in_the_wall_time(tmp_path):
    record = run_tiny(tiny("averages-z1"), tmp_path, trace=True)
    spans = record.trace_dump["spans"]
    assert spans
    self_total = sum(v["s"] for v in tracer.self_times(spans).values())
    assert 0 < self_total <= sum(r.wall_s for r in record.traced)


def test_self_time_subtracts_child_coverage():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    st = tracer.self_times(spans)
    assert st["a"] == {"s": 6.0, "calls": 1}
    assert st["b"] == {"s": 3.0, "calls": 2}
    assert tracer.calls_within(spans, "c", "a") == 1
    assert tracer.calls_within(spans, "b", "c") == 0


def test_counters_repeat_across_traced_runs(tmp_path):
    def counts():
        metrics = bench.per_layer(run_tiny(tiny("averages-z1"), tmp_path,
                                           trace=True))
        return {k: v for k, (v, unit, _) in metrics.items()
                if unit in ("count", "B")}
    first = counts()
    assert first["space.right_perm.distinct"] > 0
    assert first["operators.sweep.gathers"] > 0
    assert counts() == first


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cubes-z2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
