"""Workloads, child-process timing, the correctness gate and the metrics of
the ergolab benchmark.  `run.py` is the command-line front end.

Every CLI command runs as ``python -m ergolab.cli`` in a fresh child process
with ``PYTHONPATH`` set to the checkout's ``src``, one at a time, so a child's
wall time runs from spawn to exit and its max-RSS comes from its own
``os.wait4`` rusage.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
COMMANDS = ("space", "cubes", "verify", "probe", "experiment")
# every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 170.0
# one pass of the commands varies about 10% between identical runs, so every
# run takes a median over at least two
MIN_PASSES = 2
# set-ups run in groups before each of the first MIN_PASSES passes and after
# the last, so that the machine's drift during a run reaches setup_s and
# wall_s alike
SETUP_GROUPS = MIN_PASSES + 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    commands: tuple[tuple[str, ...], ...]   # CLI arguments before --config
    setup: dict                             # build_group_space / build_system kwargs
    setup_reps: int = 12


WORKLOADS = {w.name: w for w in (
    Workload(
        "cubes-z2",
        "Z^2/64 quotient: space, cubes, axioms; quotient dist_row in nets, "
        "cube assignment and axiom checks, no averaging operator",
        {"space": {"family": "zd", "d": 2, "modulus": 64}},
        (("space",), ("cubes",), ("verify", "--suite", "axioms")),
        {"space": {"family": "zd", "d": 2, "modulus": 64}}),
    Workload(
        "averages-z1",
        "Z/4096 quotient: gundy and transference suites, then probe; sweep "
        "engine with a cold right_perm cache, jump/V2 DPs, expectations",
        {"space": {"family": "zd", "d": 1, "modulus": 4096}},
        # no domination suite: it reports anchor-inequality violations on
        # the sparse ensemble for most seeds, which the gate counts as failed
        (("verify", "--suite", "gundy,transference"), ("probe",)),
        {"space": {"family": "zd", "d": 1, "modulus": 4096}}),
    Workload(
        "ergodic-rot",
        "rotation of Z_16384, radii 1..256: jump DP, orbit labels, act_perm "
        "cache; builds no cubes and no distance rows",
        {"experiment": {"kind": "rotation", "modulus": 16384, "step": 1,
                        "lambda": 0.25, "ensemble": "rademacher",
                        "radii": {"start": 1, "stop": 256, "step": 1}}},
        (("experiment",),),
        {"system": {"kind": "rotation", "modulus": 16384, "step": 1}}),
    Workload(
        "enum-h3ball",
        "H3 Cayley ball R=20 (68,079 points): pure-Python enumeration and "
        "cached BFS distance rows in the doubling check",
        {"space": {"family": "h3", "radius": 20, "modulus": None}},
        (("space",),),
        {"space": {"family": "h3", "radius": 20}},
        setup_reps=SETUP_GROUPS),       # one set-up takes about 5 s
)}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    """The checkout cannot be benchmarked: no ergolab sources, or set-up
    does not run."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list[str], *, env: dict, cwd: Path, log: Path,
          timeout: float) -> Child:
    """Run one child to exit; wall time from spawn to reap, max-RSS from its
    own rusage.  A child still running at `timeout` is killed (code -9)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _load(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def reference_values(command: str, outdir: Path) -> dict:
    """The seed-independent values of one command's artifacts."""
    if command == "space":
        doc = _load(outdir, "space.json")
        return {"n": doc["n"], "growth_exponent": doc["growth"]["exponent"]}
    if command == "cubes":
        doc = _load(outdir, "cubes.json")
        return {"levels": doc["levels"], "sizes": doc["sizes"],
                "axioms": doc["axioms"]}
    if command == "verify":
        doc = _load(outdir, "verify.json")
        return {"suites": [[s["suite"], s["checks"]] for s in doc["suites"]]}
    if command == "probe":
        doc = _load(outdir, "probe.json")
        return {"operators": {op: rep["trials"]
                              for op, rep in doc["operators"].items()},
                "martingale_trials": doc["martingale_jump"]["trials"]}
    if command == "experiment":
        doc = _load(outdir, "experiment.json")
        return {"radii": doc["tail"]["radii"],
                "convergence_radii": doc["convergence"]["radii"]}
    raise ValueError(f"unknown command {command!r}")


def _same(a, b) -> bool:
    """Equality, with floats compared to 1e-9 relative so that last-digit
    differences between machines do not read as wrong answers."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def gate(command: str, code: int, outdir: Path, reference: dict | None,
         first_digest: str | None) -> list[str]:
    """Reasons one command run counts as failed (empty: it passed)."""
    if code != 0:
        return [f"exit code {code}"]
    reasons = []
    for path in sorted(outdir.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("failures"):
            reasons.append(f"{path.name}: failures {doc['failures'][:3]}")
        if path.name == "verify.json" and doc.get("passed") is not True:
            reasons.append("verify.json: passed is not true")
    try:
        values = reference_values(command, outdir)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return reasons + [f"artifacts unreadable: {exc!r}"]
    if reference is not None and not _same(values, reference):
        reasons.append(f"reference values differ: {values} != {reference}")
    if first_digest is not None and digest(outdir) != first_digest:
        reasons.append("artifacts differ from the first repetition")
    return reasons


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class CommandRun:
    command: str
    wall_s: float
    rss_mb: float
    reasons: list[str]


@dataclass
class RunRecord:
    """Everything one benchmark run measured."""
    setup_s: list[float] = field(default_factory=list)
    passes: list[list[CommandRun]] = field(default_factory=list)
    traced: list[CommandRun] = field(default_factory=list)
    trace_dump: dict | None = None

    def command_runs(self) -> list[CommandRun]:
        return [r for p in self.passes for r in p] + self.traced

    @property
    def attempted(self) -> int:
        return len(self.command_runs())

    @property
    def failed(self) -> int:
        return sum(1 for r in self.command_runs() if r.reasons)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Runner:
    """Runs one workload's children inside `work` under a shared deadline."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path,
                 reference: dict | None) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference or {}
        self.env = child_env(root)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.first: dict[int, str] = {}      # command index -> artifact digest
        self.trace_dump: dict | None = None
        self.config = work / "config.json"
        work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps(workload.config))

    def _spawn(self, argv: list[str], log: Path) -> Child:
        return spawn([sys.executable, *argv], env=self.env, cwd=self.root,
                     log=log, timeout=self.deadline - time.perf_counter())

    def setup(self, log: Path, spec: dict | None = None) -> Child:
        spec = self.workload.setup if spec is None else spec
        child = self._spawn([str(HERE / "child.py"), "setup",
                             json.dumps(spec)], log)
        if child.code != 0:
            raise BenchError(f"setup failed (exit {child.code}): "
                             f"{child.stderr.strip()[-400:]}")
        src = (self.root / "src").resolve()
        where = Path(child.stdout.strip().splitlines()[-1]).resolve()
        if src not in where.parents:
            raise BenchError(f"ergolab imported from {where}, not {src}")
        return child

    def command(self, index: int, tag: str, traced: bool) -> CommandRun:
        args = self.workload.commands[index]
        outdir = self.work / tag / f"{index}-{args[0]}"
        cli = [*args, "--config", str(self.config), "--seed", str(self.seed),
               "--out", str(outdir)]
        if traced:
            spans = self.work / tag / f"{index}.spans.json"
            argv = [str(HERE / "child.py"), "trace", str(spans), *cli]
        else:
            argv = ["-m", "ergolab.cli", *cli]
        child = self._spawn(argv, outdir.with_suffix(".log"))
        outdir.mkdir(parents=True, exist_ok=True)
        reasons = gate(args[0], child.code, outdir,
                       self.reference.get(args[0]), self.first.get(index))
        if child.code != 0 and child.stderr.strip():
            reasons.append(child.stderr.strip().splitlines()[-1])
        if index not in self.first and child.code == 0:
            self.first[index] = digest(outdir)
        if traced and spans.exists():
            self._merge(json.loads(spans.read_text()))
        return CommandRun(args[0], child.wall_s, child.rss_mb, reasons)

    def _merge(self, dump: dict) -> None:
        if self.trace_dump is None:
            self.trace_dump = {"spans": [], "counters": {}, "distinct": {}}
        base = len(self.trace_dump["spans"])
        for name, start, end, parent in dump["spans"]:
            self.trace_dump["spans"].append(
                [name, start, end, parent + base if parent >= 0 else -1])
        for key in ("counters", "distinct"):
            merged = self.trace_dump[key]
            for k, v in dump[key].items():
                merged[k] = merged.get(k, 0) + v

    def one_pass(self, tag: str, traced: bool = False) -> list[CommandRun]:
        return [self.command(i, tag, traced)
                for i in range(len(self.workload.commands))]

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool, reference: dict | None = None,
                 work: Path | None = None) -> RunRecord:
    """One benchmark run.  Untraced: whole passes of the workload's commands
    for about `seconds` (at least MIN_PASSES), and `setup_reps` fresh set-up
    processes spread over SETUP_GROUPS groups between them.  Traced: one
    untraced pass, then one traced pass."""
    if not (root / "src" / "ergolab" / "cli.py").is_file():
        raise BenchError(f"no ergolab sources under {root / 'src'}")
    work = work or root / ".perfbench_out" / f"{workload.name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    runner = Runner(root, workload, seed, work, reference)
    record = RunRecord()
    try:
        runner.setup(work / "warmup.log", {})  # byte-compiles, checks import
        if trace:
            record.passes.append(runner.one_pass("untraced"))
            record.traced = runner.one_pass("traced", traced=True)
            record.trace_dump = runner.trace_dump
            return record
        base, extra = divmod(workload.setup_reps, SETUP_GROUPS)
        groups = [base + (g < extra) for g in range(SETUP_GROUPS)]

        def setups(count: int) -> None:
            for _ in range(count):
                log = work / f"setup{len(record.setup_s)}.log"
                record.setup_s.append(runner.setup(log).wall_s)

        pass_s = 0.0
        while True:
            if len(record.passes) < MIN_PASSES:
                setups(groups[len(record.passes)])
            start = time.perf_counter()
            record.passes.append(runner.one_pass(f"pass{len(record.passes)}"))
            pass_s += time.perf_counter() - start
            per_pass = pass_s / len(record.passes)
            if runner.time_left() < 1.5 * per_pass:
                break
            if len(record.passes) >= MIN_PASSES and pass_s + per_pass > seconds:
                break
        setups(groups[MIN_PASSES])
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def end_to_end(record: RunRecord) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count).  The per-command entries and
    `fail_ratio` are printed for reading; BENCHMARK.json lists the rest."""
    walls = [sum(r.wall_s for r in p) for p in record.passes]
    peaks = [max(r.rss_mb for r in p) for p in record.passes]
    out = {
        "setup_s": (_median(record.setup_s), "s", len(record.setup_s)),
        "wall_s": (_median(walls), "s", len(walls)),
        "peak_rss_mb": (_median(peaks), "MiB", len(peaks)),
    }
    out.update(per_command(record))
    return out


def per_command(record: RunRecord) -> dict[str, tuple[float, str, int]]:
    """Median wall time and max-RSS of each command over the untraced
    passes (0 with n=0 for commands the workload does not run), and the
    share of command runs that failed the gate."""
    out = {"fail_ratio": (record.failed / max(record.attempted, 1), "ratio",
                          record.attempted)}
    for cmd in COMMANDS:
        runs = [r for p in record.passes for r in p if r.command == cmd]
        out[f"{cmd}_s"] = (_median([r.wall_s for r in runs]), "s", len(runs))
        out[f"{cmd}_rss_mb"] = (_median([r.rss_mb for r in runs]), "MiB",
                                len(runs))
    return out


# per-layer metrics read from the trace: (name, unit, source)
def _time(layer):
    return lambda st, d: st[layer]["s"] if layer in st else 0.0


def _calls(layer):
    return lambda st, d: st[layer]["calls"] if layer in st else 0


def _distinct(layer):
    return lambda st, d: d["distinct"].get(layer, 0)


def _counter(key):
    return lambda st, d: d["counters"].get(key, 0)


def _share_distinct(layer, hits: bool):
    def value(st, d):
        calls = st[layer]["calls"] if layer in st else 0
        if not calls:
            return 0.0
        share = d["distinct"].get(layer, 0) / calls
        return 1.0 - share if hits else share
    return value


LAYER_METRICS = (
    ("space.build_group_space.s", "s", _time("space.build_group_space")),
    ("space.dist_row.s", "s", _time("space.dist_row")),
    ("space.dist_row.calls", "count", _calls("space.dist_row")),
    ("space.dist_row.distinct", "count", _distinct("space.dist_row")),
    ("space.dist_row.distinct_ratio", "ratio",
     _share_distinct("space.dist_row", hits=False)),
    ("space.dist_row.bytes", "B", _counter("space.dist_row.bytes")),
    ("space.geometric_doubling_check.s", "s",
     _time("space.geometric_doubling_check")),
    ("space.right_perm.s", "s", _time("space.right_perm")),
    ("space.right_perm.calls", "count", _calls("space.right_perm")),
    ("space.right_perm.distinct", "count",
     _distinct("space.right_perm")),
    ("space.right_perm.hit_ratio", "ratio",
     _share_distinct("space.right_perm", hits=True)),
    ("space.right_perm.bytes", "B", _counter("space.right_perm.bytes")),
    ("cubes.select_nets.s", "s", _time("cubes.select_nets")),
    ("cubes.build_cubes.s", "s", _time("cubes.build_cubes")),
    ("cubes.build_cubes.calls", "count", _calls("cubes.build_cubes")),
    ("cubes.build_cubes.dist_rows", "count",
     lambda st, d: tracer.calls_within(d["spans"], "space.dist_row",
                                       "cubes.build_cubes")),
    ("cubes.verify_cube_axioms.s", "s",
     _time("cubes.verify_cube_axioms")),
    ("cubes.centers", "count", _counter("cubes.centers")),
    ("operators.avg_profile.s", "s", _time("operators.avg_profile")),
    ("operators.sweep_profile.s", "s",
     _time("operators.sweep_profile")),
    ("operators.sweep.gathers", "count",
     _counter("operators.sweep.gathers")),
    ("operators.norm_probe.s", "s", _time("operators.norm_probe")),
    ("stats.jump_count_batch.s", "s", _time("stats.jump_count_batch")),
    ("stats.jump_count_batch.cells", "count",
     _counter("stats.jump_count_batch.cells")),
    ("stats.variation_batch.s", "s", _time("stats.variation_batch")),
    ("stats.variation_batch.cells", "count",
     _counter("stats.variation_batch.cells")),
    ("martingale.expectation.s", "s", _time("martingale.expectation")),
    ("martingale.expectation.calls", "count",
     _calls("martingale.expectation")),
    ("martingale.martingale_jump_probe.s", "s",
     _time("martingale.martingale_jump_probe")),
    ("decomposition.gundy_decompose.s", "s",
     _time("decomposition.gundy_decompose")),
    ("decomposition.gundy_decompose.calls", "count",
     _calls("decomposition.gundy_decompose")),
    ("decomposition.gundy_decompose.errors", "count",
     _counter("decomposition.gundy_decompose.errors")),
    ("decomposition.stopping_cubes", "count",
     _counter("decomposition.stopping_cubes")),
    ("decomposition.part_bytes", "B",
     _counter("decomposition.part_bytes")),
    ("dynamics.build_system.s", "s", _time("dynamics.build_system")),
    ("dynamics.action_profile.s", "s",
     _time("dynamics.action_profile")),
    ("dynamics.orbit_labels.s", "s", _time("dynamics.orbit_labels")),
    ("dynamics.orbit_labels.calls", "count",
     _calls("dynamics.orbit_labels")),
    ("dynamics.act_perm.calls", "count", _calls("dynamics.act_perm")),
    ("dynamics.act_perm.distinct", "count",
     _distinct("dynamics.act_perm")),
    ("dynamics.act_perm.bytes", "B",
     _counter("dynamics.act_perm.bytes")),
    ("dynamics.tail_experiment.s", "s",
     _time("dynamics.tail_experiment")),
    ("dynamics.convergence_probe.s", "s",
     _time("dynamics.convergence_probe")),
    ("dynamics.transference_check.s", "s",
     _time("dynamics.transference_check")),
    *((f"cli.{cmd}.s", "s", _time(f"cli.{cmd}")) for cmd in COMMANDS),
)


def per_layer(record: RunRecord) -> dict[str, tuple[float, str, int]]:
    """The traced run's metrics: layer metrics from the trace, tracing
    overhead, and the untraced pass's per-command times and memory."""
    dump = record.trace_dump or {"spans": [], "counters": {}, "distinct": {}}
    st = tracer.self_times(dump["spans"])
    out = {name: (source(st, dump), unit, 1)
           for name, unit, source in LAYER_METRICS}
    untraced = sum(r.wall_s for r in record.passes[0]) if record.passes else 0
    traced = sum(r.wall_s for r in record.traced)
    out["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0,
                                   "ratio", 1)
    out.update(per_command(record))
    return out

