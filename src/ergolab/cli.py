"""Experiment orchestration: build spaces and cube systems from a declarative
JSON config, run verification suites and probes, and write reproducible
artifacts.

Every output (summary.txt, *.csv, *.json) embeds the SHA-256 of the
effective config, and every number downstream of randomness is derived from
the config seed, so rerunning the same config reproduces every file byte
for byte.  Exit codes: 0 all checks passed, 1 an exact invariant failed,
2 the config (or usage) is invalid.
"""

from __future__ import annotations

import argparse
import dataclasses
import copy
import hashlib
import json
import math
import re
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .cubes import BoundaryConstants, DyadicSystem, HKParams, build_cubes, \
    verify_cube_axioms
from .decomposition import GundyError, gundy_decompose
from .dynamics import build_system, tail_and_convergence, transference_check
from .martingale import SampleFunction, martingale_jump_probe
from .operators import OperatorConfig, SpotCheckError, _ENSEMBLES, _draw, \
    domination_checks, norm_probe
from .space import build_group_space, fit_growth_exponent, \
    geometric_doubling_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

PROBE_OPERATORS = ("square", "variation", "average", "maximal")


class ConfigError(Exception):
    """Invalid configuration, anchored to a file line when one is known.

    A command that refuses a value after loading names its key path in
    ``keys``, and `main` anchors the error at that key of the config file.
    """

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None, keys: tuple[str, ...] = ()) -> None:
        anchor = ""
        if path is not None:
            anchor = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{anchor} {message}".strip())
        self.message = message
        self.keys = keys


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v: Any) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and np.isfinite(v))


def _is_num_list(v: Any) -> bool:
    return isinstance(v, list) and all(_is_num(x) for x in v)


def _distinct(v: list) -> bool:
    # a repeated entry would rerun the same check and count it twice
    return len(set(v)) == len(v)


def _increasing(v: Any) -> bool:
    return (_is_num_list(v) and len(v) >= 1
            and all(b > a for a, b in zip(v, v[1:])))


def _int_from(lo: int) -> Callable[[Any], bool]:
    return lambda v: _is_int(v) and v >= lo


def _num_above(lo: float) -> Callable[[Any], bool]:
    return lambda v: _is_num(v) and v > lo


def _distinct_above(lo: float, min_len: int = 1) -> Callable[[Any], bool]:
    return lambda v: (_is_num_list(v) and len(v) >= min_len
                      and all(x > lo for x in v) and _distinct(v))


def _or_null(ok: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: v is None or ok(v)


# key path -> (default, what a value must be, its check); `_defaults` nests
# each two-key path into the section named by its first key
_SCHEMA = {
    ("seed",): (0, "a non-negative integer below 2^64",
                lambda v: _is_int(v) and 0 <= v < 2**64),
    ("out",): ("results", "a string", lambda v: isinstance(v, str)),
    ("space", "family"): ("zd", "'zd' or 'h3'", lambda v: v in ("zd", "h3")),
    ("space", "d"): (1, "a positive integer", _int_from(1)),
    ("space", "modulus"): (64, "an integer >= 4 or null",
                           _or_null(_int_from(4))),
    ("space", "radius"): (None, "a positive integer or null",
                          _or_null(_int_from(1))),
    ("space", "r0"): (1.0, "a positive number", _num_above(0)),
    ("space", "doubling_D0"): (None, "a positive integer or null",
                               _or_null(_int_from(1))),
    ("cubes", "delta"): (36.0, "a number > 1", _num_above(1)),
    ("cubes", "c0"): (1.0, "a positive number", _num_above(0)),
    ("cubes", "C0"): (2.0, "a positive number", _num_above(0)),
    ("cubes", "k_min"): (None, "an integer or null", _or_null(_is_int)),
    ("cubes", "k_max"): (None, "an integer or null", _or_null(_is_int)),
    ("operators", "block_cap"): (24, "an integer >= 2", _int_from(2)),
    ("probe", "trials"): (20, "a positive integer", _int_from(1)),
    ("probe", "p"): (2.0, "a number >= 1", lambda v: _is_num(v) and v >= 1),
    ("probe", "gammas"): ([0.5, 1.0, 2.0],
                          "a list of distinct positive numbers",
                          _distinct_above(0, min_len=0)),
    ("probe", "operators"): (
        list(PROBE_OPERATORS),
        f"a non-empty list of distinct entries of {PROBE_OPERATORS}",
        lambda v: isinstance(v, list) and len(v) >= 1
        and all(x in PROBE_OPERATORS for x in v) and _distinct(v)),
    ("domination", "trials"): (4, "a positive integer", _int_from(1)),
    ("domination", "lambdas"): (
        [0.1, 0.5, 1.0], "a non-empty list of distinct positive numbers",
        _distinct_above(0)),
    ("gundy", "trials"): (20, "a positive integer", _int_from(1)),
    ("gundy", "gamma_factors"): (
        [1.1, 1.5, 3.0], "a non-empty list of distinct numbers > 1",
        _distinct_above(1)),
    ("gundy", "p"): (2.0, "a number >= 1", lambda v: _is_num(v) and v >= 1),
    ("transference", "radii"): (
        [1.0, 2.0, 4.0, 8.0, 16.0],
        "a strictly increasing list of positive numbers",
        lambda v: _increasing(v) and v[0] > 0),
    ("transference", "lambda"): (0.5, "a positive number", _num_above(0)),
    ("experiment", "kind"): (
        "rotation", "one of regular, rotation, rotation2d, heisenberg",
        lambda v: v in ("regular", "rotation", "rotation2d", "heisenberg")),
    ("experiment", "modulus"): (1024, "an integer >= 4", _int_from(4)),
    ("experiment", "step"): (1, "an integer", _is_int),
    ("experiment", "lambda"): (0.5, "a positive number or null",
                               _or_null(_num_above(0))),
    ("experiment", "upcross"): (
        None, "a pair [a, b] with a < b, or null",
        _or_null(lambda v: _is_num_list(v) and len(v) == 2 and v[0] < v[1])),
    ("experiment", "radii"): (
        {"start": 1.0, "stop": 256.0, "step": 1.0},
        "a strictly increasing list or {start, stop, step} with stop >= start",
        lambda v: _increasing(v)
        or (isinstance(v, dict) and set(v) == {"start", "stop", "step"}
            and all(_is_num(x) and x > 0 for x in v.values())
            and v["stop"] >= v["start"])),
    ("experiment", "ensemble"): ("rademacher", f"one of {_ENSEMBLES}",
                                 lambda v: v in _ENSEMBLES),
}


def _defaults() -> dict:
    cfg: dict = {}
    for keys, (default, _, _) in _SCHEMA.items():
        node = cfg
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = copy.deepcopy(default)
    return cfg


# a JSON string (a key when the colon follows) or a bracket
_JSON_TOKEN = re.compile(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}\[\]]')


def _line_of(raw: str, *path: str) -> int | None:
    # line of the key at ``path`` (top-level key first), matched by nesting,
    # not by line order; json.loads keeps the last of duplicate keys, so
    # the last match wins
    line = None
    keys: list = []         # the current key of each open object or array
    for m in _JSON_TOKEN.finditer(raw):
        if m[0] in ("{", "["):
            keys.append(None)
        elif m[0] in ("}", "]"):
            keys.pop()
        elif m[2]:
            keys[-1] = json.loads(m[1])
            if tuple(keys) == path:
                line = raw.count("\n", 0, m.start()) + 1
    return line


def load_config(path: str | None, *, seed: int | None = None,
                out: str | None = None) -> tuple[dict, str]:
    """Parse, validate, and canonicalize; returns (config, sha256).

    CLI overrides fold in before hashing, so the hash identifies the
    effective run, not just the file.  The output directory is excluded:
    it changes where results land, never what they say.
    """
    cfg = _defaults()
    raw = ""
    name = path or "<defaults>"
    if path is not None:
        try:
            raw = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", path)
        try:
            user = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc.msg}", path, exc.lineno)
        if not isinstance(user, dict):
            raise ConfigError("top level must be a JSON object", path, 1)
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown key {key!r}", path,
                                  _line_of(raw, key))
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{key!r} must be an object", path,
                                      _line_of(raw, key))
                for sub, sval in value.items():
                    if sub not in cfg[key]:
                        raise ConfigError(f"unknown key {key}.{sub}", path,
                                          _line_of(raw, key, sub))
                    cfg[key][sub] = sval
            else:
                cfg[key] = value

    if seed is not None:
        # a bad flag is the command line's error, not the config file's
        _, want, ok = _SCHEMA[("seed",)]
        if not ok(seed):
            raise ConfigError(f"--seed must be {want} (got {seed!r})")
        cfg["seed"] = seed
    if out is not None:
        cfg["out"] = out

    for keys, (_, want, ok) in _SCHEMA.items():
        node: Any = cfg
        for k in keys:
            node = node[k]
        if not ok(node):
            raise ConfigError(f"{'.'.join(keys)} must be {want} "
                              f"(got {node!r})", name,
                              _line_of(raw, *keys) if raw else None)
    if (cfg["space"]["modulus"] is None) == (cfg["space"]["radius"] is None):
        raise ConfigError("space needs exactly one of modulus or radius",
                          name, _line_of(raw, "space") if raw else None)
    exp = cfg["experiment"]
    if (exp["lambda"] is None) == (exp["upcross"] is None):
        raise ConfigError("experiment needs exactly one of lambda or upcross",
                          name, _line_of(raw, "experiment") if raw else None)

    hashed = {k: v for k, v in cfg.items() if k != "out"}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    sha = hashlib.sha256(canonical.encode()).hexdigest()
    return cfg, sha


def _suite_seed(base: int, name: str) -> int:
    digest = hashlib.sha256(f"{base}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _json_default(obj: Any) -> Any:
    """numpy arrays and scalars as lists and numbers, and a dataclass
    instance as the object of its fields, for `json.dumps` (a numpy float64
    is a float and is written directly)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(outdir: Path, name: str, payload: dict, sha: str) -> None:
    body = {"config_sha256": sha}
    body.update(payload)
    text = json.dumps(body, sort_keys=True, indent=2,
                      default=_json_default) + "\n"
    (outdir / name).write_text(text)


def _write_csv(outdir: Path, name: str, header: str,
               rows: Sequence[str], sha: str) -> None:
    lines = [f"# config_sha256={sha}", header]
    lines.extend(rows)
    (outdir / name).write_text("\n".join(lines) + "\n")


def _write_summary(outdir: Path, sha: str, title: str,
                   lines: Sequence[str]) -> None:
    """Put this command's chunk into summary.txt: a rerun replaces the
    chunk with the same title in place, other commands' chunks stay."""
    path = outdir / "summary.txt"
    head = f"== {title} =="
    chunk = "\n".join([head, f"config sha256: {sha}", *lines, ""]) + "\n"
    old = path.read_text() if path.exists() else ""
    chunks = [c for c in re.split(r"(?m)^(?=== .+ ==$)", old) if c]
    titles = [c.split("\n", 1)[0] for c in chunks]
    if head in titles:
        chunks[titles.index(head)] = chunk
    else:
        chunks.append(chunk)
    path.write_text("".join(chunks))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _build_space(cfg: dict):
    s = cfg["space"]
    kwargs: dict[str, Any] = {"r0": s["r0"]}
    if s["family"] == "zd":
        kwargs["d"] = s["d"]
    if s["modulus"] is not None:
        kwargs["modulus"] = s["modulus"]
    else:
        kwargs["radius"] = s["radius"]
    try:
        return build_group_space(s["family"], **kwargs)
    except Exception as exc:
        raise ConfigError(f"space: {exc}", keys=("space",))


def _operator_config(space, cfg: dict) -> OperatorConfig:
    return OperatorConfig.for_space(space, delta=cfg["cubes"]["delta"],
                                    block_cap=cfg["operators"]["block_cap"])


def _build_system(space, cfg: dict, *, operators: bool = False,
                  gundy: bool = False) -> DyadicSystem:
    """The run's cube system, on the `HKParams` of the config's ``cubes``
    section.  Inadmissible parameters, a construction that fails under
    them, or a level range that is empty, lacks a radius block level the
    operators read (``operators``; a space with no block above n_r0 has
    none to read) or the two levels of the Gundy decomposition
    (``gundy``), are a config error at `cubes`, raised before any suite
    runs."""
    c = cfg["cubes"]
    try:
        system = build_cubes(space, HKParams(
            delta=c["delta"], c0=c["c0"], C0=c["C0"], k_min=c["k_min"],
            k_max=c["k_max"]))
        if operators:
            _operator_config(space, cfg).eligible_levels(system)
        if gundy and len(system.levels) < 2:
            raise ValueError(f"suite gundy needs at least two levels "
                             f"(system has {list(system.levels)})")
    except ValueError as exc:
        raise ConfigError(f"cubes: {exc}", keys=("cubes",))
    return system


def _radius_grid(spec) -> list[float]:
    if isinstance(spec, dict):
        start, stop, step = (float(spec[k]) for k in ("start", "stop", "step"))
        # count first and multiply, so rounding does not accumulate along the
        # grid; the slack keeps a stop that lies on the grid
        count = math.floor((stop - start) / step + 1e-9) + 1
        return [start + i * step for i in range(count)]
    return [float(r) for r in spec]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_space(cfg: dict, sha: str, outdir: Path) -> int:
    space, table = _build_space(cfg)
    try:
        d_hat, c_hat = fit_growth_exponent(table)
    except ValueError as exc:
        # only a truncation of radius 1 has too few radii to fit
        raise ConfigError(f"space.radius: the growth fit needs a truncation "
                          f"radius of at least 2 ({exc})",
                          keys=("space", "radius"))
    s = cfg["space"]
    d0 = s["doubling_D0"]
    if d0 is None:
        d0 = 3 ** s["d"] if s["family"] == "zd" else 130
    rep = geometric_doubling_check(space, d0)
    failures: list[str] = []
    if rep.small_ok is False:
        failures.append(
            f"small-ball packing {rep.max_small_packing} exceeds D0={rep.D0}: "
            f"that many points of a ball B(c, r) lie more than r apart, so "
            f"no {rep.D0} balls of radius r/2 cover it")
    payload = {
        "label": space.label,
        "n": space.n,
        "diameter": space.diameter(),
        "resolution": space.resolution(),
        "safe_radius": space.safe_radius,
        "growth": {"exponent": d_hat, "constant": c_hat},
        "doubling": rep,
        "failures": failures,
    }
    _write_json(outdir, "space.json", payload, sha)
    lines = [
        f"space {space.label}: {space.n} points, diameter "
        f"{space.diameter():g}, safe radius {space.safe_radius:g}",
        f"growth exponent {d_hat:.4f} (constant {c_hat:.4f})",
        f"doubling cover max {rep.max_small_cover} against D0={rep.D0}",
    ]
    if rep.small_ok is None:
        lines.append(
            f"note: a greedy cover exceeds D0={rep.D0}, but no greedy r-net "
            f"of a ball of radius r does (largest {rep.max_small_packing}), "
            f"so no violation is shown")
    elif not failures:
        lines.append("all checks passed")
    lines += [f"FAIL: {f}" for f in failures]
    _write_summary(outdir, sha, "space", lines)
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_cubes(cfg: dict, sha: str, outdir: Path) -> int:
    space, _ = _build_space(cfg)
    system = _build_system(space, cfg)
    try:
        constants = BoundaryConstants.derive(system.params, r0=space.r0)
    except ValueError as exc:
        raise ConfigError(f"space.r0, cubes.c0 and cubes.C0: {exc}",
                          keys=("space", "r0"))
    report = verify_cube_axioms(system)
    payload = {
        "levels": list(system.levels),
        "sizes": [system.n_cubes(k) for k in system.levels],
        "notes": list(system.notes),
        "axioms": {
            "partition_ok": report.partition_ok,
            "nesting_ok": report.nesting_ok,
            "parent_ok": report.parent_ok,
            "sandwich_checked": report.sandwich_checked,
            "sandwich_passed": report.sandwich_passed,
            "sandwich_ok_in_safe": report.sandwich_ok_in_safe,
            "separation_ok": report.separation_ok,
            "covering_ok": report.covering_ok,
            "all_pass": report.all_pass,
        },
        "violations": report.violations,
        "constants": constants,
    }
    _write_json(outdir, "cubes.json", payload, sha)
    lines = [
        f"levels {list(system.levels)} with sizes "
        f"{[system.n_cubes(k) for k in system.levels]}",
        f"sandwich: {report.sandwich_passed}/{report.sandwich_checked} "
        f"cubes (all within safe radius: {report.sandwich_ok_in_safe})",
    ]
    lines += [f"note: {n}" for n in system.notes]
    if report.all_pass:
        lines.append("axioms: all pass")
    else:
        lines += [f"FAIL: axiom {v.axiom} at level {v.level} cube {v.cube}: "
                  f"{v.detail}" for v in report.violations[:10]]
    _write_summary(outdir, sha, "cubes", lines)
    return EXIT_OK if report.all_pass else EXIT_VIOLATION


def _suite_axioms(space, system, cfg: dict) -> dict:
    report = verify_cube_axioms(system)
    failures = [f"axiom {v.axiom} level {v.level} cube {v.cube}: {v.detail}"
                for v in report.violations]
    if not report.all_pass and not failures:
        failures = ["axiom flags not all true"]
    return {"suite": "axioms", "checks": report.n_cubes,
            "failures": failures,
            "notes": list(system.notes)}


def _suite_domination(space, system, cfg: dict) -> dict:
    opcfg = _operator_config(space, cfg)
    rng = np.random.default_rng(_suite_seed(cfg["seed"], "domination"))
    failures: list[str] = []
    checks = 0
    lambdas = cfg["domination"]["lambdas"]
    for t in range(cfg["domination"]["trials"]):
        values = _draw(_ENSEMBLES[t % len(_ENSEMBLES)], rng, space.n)
        f = SampleFunction(space.label, values)
        # one pass over the trial's profile serves every lambda
        try:
            reports = domination_checks(f, system, opcfg, lambdas)
        except SpotCheckError as exc:
            failures += [f"trial {t} lambda {lam}: {exc}" for lam in lambdas]
            continue
        for lam, rep in zip(lambdas, reports):
            checks += 2 * space.n
            na = rep.violations_anchor.size
            nm = rep.violations_martingale.size
            if na or nm:
                failures.append(
                    f"trial {t} lambda {lam}: {na} anchor / {nm} martingale "
                    f"violations")
    notes = list(opcfg.notes) + [
        "a PASS certifies the jump and short-variation DPs: both "
        "inequalities hold for any sequences, so it certifies neither the "
        "ball averages (each engine's spot check does) nor the cubes (the "
        "axioms suite does)"]
    return {"suite": "domination", "checks": checks, "failures": failures,
            "notes": notes}


def _suite_gundy(space, system, cfg: dict) -> dict:
    rng = np.random.default_rng(_suite_seed(cfg["seed"], "gundy"))
    failures: list[str] = []
    checks = 0
    p = cfg["gundy"]["p"]
    stops = dict.fromkeys(system.levels[:-1], 0)
    decompositions = 0
    for t in range(cfg["gundy"]["trials"]):
        values = rng.standard_normal(space.n)
        w = space.weights
        gmean = float((w * np.abs(values)).sum() / w.sum())
        f = SampleFunction(space.label, values)
        for factor in cfg["gundy"]["gamma_factors"]:
            gamma = gmean * factor
            try:
                res = gundy_decompose(f, system, gamma, p=p)
            except GundyError as exc:
                failures.append(f"trial {t} gamma {gamma:g}: {exc}")
                continue
            if not (math.isfinite(res.g_p_power)
                    and math.isfinite(res.g_bound)):
                raise ConfigError(
                    f"gundy.p: ||g||_p^p or its bound overflows a float at "
                    f"p = {p:g} (trial {t}, gamma {gamma:g})",
                    keys=("gundy", "p"))
            checks += 4
            decompositions += 1
            for level, count in res.stop_counts.items():
                stops[level] += count
            scale = max(res.f_l1, 1.0)
            if res.reconstruction_gap > 1e-12:
                failures.append(f"trial {t}: reconstruction gap "
                                f"{res.reconstruction_gap:g}")
            if res.max_part_integral > 1e-12 * scale:
                failures.append(f"trial {t}: part integral "
                                f"{res.max_part_integral:g}")
            if not res.bounds_ok:
                failures.append(f"trial {t}: norm bounds violated")
    counts = ", ".join(f"level {k}: {c}" for k, c in stops.items())
    return {"suite": "gundy", "checks": checks, "failures": failures,
            "notes": [f"stopping cubes by level over {decompositions} "
                      f"decompositions: {counts}"]}


def _suite_transference(space, system, cfg: dict) -> dict:
    rng = np.random.default_rng(_suite_seed(cfg["seed"], "transference"))
    # integer values: the FFT engine rounds them to exact ball sums, so
    # the action's sweep must match them bit for bit
    values = _draw("rademacher", rng, space.n)
    # cmd_verify has refused a grid with no radius within the diameter
    diam = space.diameter()
    radii = [r for r in cfg["transference"]["radii"] if r <= diam]
    dropped = [float(r) for r in cfg["transference"]["radii"] if r > diam]
    notes = ([f"radii above the space diameter {diam:g} dropped: {dropped}"]
             if dropped else [])
    try:
        rep = transference_check(space, values, radii,
                                 lam=cfg["transference"]["lambda"])
    except SpotCheckError as exc:
        return {"suite": "transference", "checks": 0,
                "failures": [str(exc)], "notes": notes}
    failures: list[str] = []
    if rep.max_discrepancy != 0.0:
        failures.append(f"max discrepancy {rep.max_discrepancy!r} != 0")
    if not rep.jumps_equal:
        failures.append("jump counts differ between action and translation")
    return {"suite": "transference", "checks": 2 * space.n,
            "failures": failures, "notes": notes}


# suite -> (runner, whether it reads the cube system)
_SUITES = {"axioms": (_suite_axioms, True),
           "domination": (_suite_domination, True),
           "gundy": (_suite_gundy, True),
           "transference": (_suite_transference, False)}
VERIFY_SUITES = tuple(_SUITES)


def cmd_verify(cfg: dict, sha: str, outdir: Path,
               suites: Sequence[str]) -> int:
    if "transference" in suites and cfg["space"]["modulus"] is None:
        raise ConfigError("suite transference needs a finite quotient: set "
                          "space.modulus instead of space.radius",
                          keys=("space", "radius"))
    space, _ = _build_space(cfg)
    if ("transference" in suites
            and min(cfg["transference"]["radii"]) > space.diameter()):
        raise ConfigError(
            f"transference.radii: no radius within the space diameter "
            f"{space.diameter():g}", keys=("transference", "radii"))
    # one cube system serves every suite that reads cubes
    system = (_build_system(space, cfg, operators="domination" in suites,
                            gundy="gundy" in suites)
              if any(_SUITES[name][1] for name in suites) else None)
    results = [_SUITES[name][0](space, system, cfg) for name in suites]
    passed = all(not r["failures"] for r in results)
    _write_json(outdir, "verify.json",
                {"suites": results, "passed": passed}, sha)
    lines = []
    for r in results:
        status = "PASS" if not r["failures"] else "FAIL"
        lines.append(f"suite {r['suite']}: {status} ({r['checks']} checks)")
        lines += [f"  {f}" for f in r["failures"][:10]]
        lines += [f"  note: {n}" for n in r["notes"]]
    _write_summary(outdir, sha, "verify", lines)
    return EXIT_OK if passed else EXIT_VIOLATION


def cmd_probe(cfg: dict, sha: str, outdir: Path) -> int:
    space, _ = _build_space(cfg)
    system = _build_system(space, cfg,
                           operators="square" in cfg["probe"]["operators"])
    opcfg = _operator_config(space, cfg)
    rows: list[str] = []
    reports = {}
    failures: list[str] = []
    notes = list(opcfg.notes)
    for op in cfg["probe"]["operators"]:
        try:
            rep = norm_probe(system, opcfg, op, p=cfg["probe"]["p"],
                             trials=cfg["probe"]["trials"],
                             seed=_suite_seed(cfg["seed"], f"probe:{op}"),
                             gammas=tuple(cfg["probe"]["gammas"]))
        except SpotCheckError as exc:
            failures.append(f"{op}: {exc}")
            continue
        reports[op] = rep.to_json()
        for row in rep.rows:
            rows.append(f"{row.operator},{row.p},{row.seed},{row.ensemble},"
                        f"{row.ratio!r}")
        if rep.avg_bound_ok is False:
            failures.append(
                f"average operator exceeded the doubling bound "
                f"D^(1/p) = {rep.doubling_D:.6g}^(1/{rep.p})")
        elif op == "average" and rep.doubling_D is None:
            notes.append(
                f"average: no dyadic radius r >= {space.resolution():g} has "
                f"2r within the safe radius {space.safe_radius:g}, so no "
                f"doubling constant is fitted and the bound D^(1/p) is not "
                f"checked")
    jump = martingale_jump_probe(system,
                                 trials=cfg["probe"]["trials"],
                                 seed=_suite_seed(cfg["seed"], "probe:jump"),
                                 p=cfg["probe"]["p"])
    _write_csv(outdir, "probe.csv", "operator,p,seed,ensemble,ratio",
               rows, sha)
    _write_json(outdir, "probe.json",
                {"operators": reports, "martingale_jump": jump,
                 "failures": failures, "notes": notes}, sha)
    lines = [f"{op}: strong max {reports[op]['strong_max']:.6f} "
             f"mean {reports[op]['strong_mean']:.6f}"
             for op in cfg["probe"]["operators"] if op in reports]
    lines.append(f"martingale jump probe: max ratio {jump['max_ratio']:.6f}")
    lines += [f"note: {n}" for n in notes]
    lines += [f"FAIL: {f}" for f in failures]
    _write_summary(outdir, sha, "probe", lines)
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_experiment(cfg: dict, sha: str, outdir: Path) -> int:
    e = cfg["experiment"]
    if e["kind"] in ("regular", "heisenberg") and e["step"] != 1:
        raise ConfigError(
            f"experiment.step: a {e['kind']} system acts by right "
            f"translation and takes no step (got {e['step']}); only "
            f"rotations read it", keys=("experiment", "step"))
    try:
        system = build_system(e["kind"], modulus=e["modulus"], step=e["step"])
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}", keys=("experiment",))
    rng = np.random.default_rng(_suite_seed(cfg["seed"], "experiment"))
    values = _draw(e["ensemble"], rng, system.n_states)
    grid = _radius_grid(e["radii"])
    safe = system.group.safe_radius
    if min(grid) > safe:
        raise ConfigError(
            f"experiment.radii: no radius within the safe radius {safe:g} "
            f"of the acting group", keys=("experiment", "radii"))
    threshold = ({"lam": e["lambda"]} if e["lambda"] is not None
                 else {"upcross": tuple(e["upcross"])})
    tail, conv = tail_and_convergence(system, values, grid, **threshold)

    failures: list[str] = []
    diffs = np.diff(np.asarray(tail.tails))
    if np.any(diffs > 0):
        failures.append("tail is not non-increasing")
    drift = tail.mean_drift
    if drift > 1e-12:
        failures.append(f"mean not preserved along radii (drift {drift:g})")

    _write_csv(outdir, "tail.csv", "n,tail",
               [f"{n},{t!r}" for n, t in zip(tail.ns, tail.tails)], sha)
    _write_json(outdir, "experiment.json",
                {"tail": tail.to_json(), "convergence": conv,
                 "mean_drift": drift, "failures": failures}, sha)
    lines = [
        f"{e['kind']} system, {system.n_states} states, "
        f"{len(tail.radii)} radii",
        (f"tail fit: c2 {tail.c2:.6f}, R^2 {tail.r_squared:.4f}"
         if tail.fitted else "tail fit: not claimed"),
        f"mean drift along radii: {drift:.3g}",
    ]
    lines += [f"note: {n}" for n in tail.notes]
    lines += [f"note: {n}" for n in conv.notes]
    lines += [f"FAIL: {f}" for f in failures]
    _write_summary(outdir, sha, "experiment", lines)
    return EXIT_VIOLATION if failures else EXIT_OK


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _quantile_rows(csv_path: Path) -> list[tuple[str, float, float, float]]:
    by_op: dict[str, list[float]] = {}
    for line in csv_path.read_text().splitlines():
        if line.startswith("#") or line.startswith("operator"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            continue
        by_op.setdefault(parts[0], []).append(float(parts[4]))
    out = []
    for op in sorted(by_op):
        arr = np.asarray(by_op[op])
        out.append((op, float(np.quantile(arr, 0.5)),
                    float(np.quantile(arr, 0.9)), float(arr.max())))
    return out


def cmd_report(outdir: Path) -> int:
    if not outdir.is_dir():
        print(f"report: bundle directory {outdir} does not exist",
              file=sys.stderr)
        return EXIT_CONFIG
    artifacts = {name: outdir / f"{name}.json"
                 for name in ("space", "cubes", "verify", "probe",
                              "experiment")}
    found: dict[str, Any] = {}
    for name, path in artifacts.items():
        if not path.exists():
            continue
        try:
            found[name] = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"report: {path}:{exc.lineno}: invalid JSON: {exc.msg}",
                  file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(found[name], dict):
            print(f"report: {path}: top level must be a JSON object",
                  file=sys.stderr)
            return EXIT_CONFIG
    lines: list[str] = []
    csv_rows: list[str] = []
    by_sha: dict[str, list[str]] = {}
    for name, blob in found.items():
        by_sha.setdefault(str(blob.get("config_sha256")), []).append(name)
    if not found:
        lines.append("no suites run")
    else:
        lines.append(f"bundle: {len(found)} artifact(s), config "
                     f"{'/'.join(sorted(s[:12] for s in by_sha))}")
        if len(by_sha) > 1:
            lines.append(f"WARNING: artifacts from {len(by_sha)} configs: "
                         + "; ".join(f"{sha[:12]} ({', '.join(names)})"
                                     for sha, names in sorted(by_sha.items())))
    # an artifact that is an object may still lack a key or hold a value of
    # the wrong type: name its file
    try:
        for name in ("verify", "cubes", "space", "probe", "experiment"):
            if name not in found:
                continue
            blob, path = found[name], artifacts[name]
            lines.append("")
            if name == "verify":
                lines.append("suite            checks   failures")
                for r in blob["suites"]:
                    lines.append(f"{r['suite']:<16} {r['checks']:>7} "
                                 f"{len(r['failures']):>9}")
                    verdict = "fail" if r["failures"] else "pass"
                    csv_rows.append(f"verify,{r['suite']},{verdict}")
            elif name == "cubes":
                ax = blob["axioms"]
                lines.append(f"cube axioms: all_pass={ax['all_pass']} "
                             f"sandwich {ax['sandwich_passed']}/"
                             f"{ax['sandwich_checked']}")
                csv_rows.append(f"cubes,all_pass,{ax['all_pass']}")
            elif name == "space":
                g = blob["growth"]
                lines.append(f"growth exponent {g['exponent']:.4f} "
                             f"(constant {g['constant']:.4f})")
                csv_rows.append(f"space,growth_exponent,{g['exponent']!r}")
            elif name == "probe":
                lines.append("operator      median      q90      max")
                path = outdir / "probe.csv"
                if path.exists():
                    for op, q50, q90, mx in _quantile_rows(path):
                        lines.append(f"{op:<12} {q50:>8.4f} {q90:>8.4f} "
                                     f"{mx:>8.4f}")
                        csv_rows.append(f"probe,{op},{mx!r}")
            else:
                t = blob["tail"]
                if t["fitted"]:
                    lines.append(
                        f"tail fit ({t['kind']}, threshold {t['threshold']}): "
                        f"c2 {t['c2']:.6f}, R^2 {t['r_squared']:.4f}")
                    csv_rows.append(f"experiment,c2,{t['c2']!r}")
                else:
                    lines.append("tail fit: not claimed")
    except KeyError as exc:
        print(f"report: {path}: missing key {exc.args[0]!r}", file=sys.stderr)
        return EXIT_CONFIG
    except (TypeError, ValueError) as exc:
        print(f"report: {path}: wrong value type: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    (outdir / "report.txt").write_text("\n".join(lines) + "\n")
    (outdir / "report.csv").write_text(
        "\n".join(["table,key,value"] + csv_rows) + "\n")
    print("\n".join(lines))
    return EXIT_VIOLATION if len(by_sha) > 1 else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="build spaces, verify cube systems, probe operators, "
                    "and run ergodic-average experiments from a JSON config")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("space", "build the space and check its geometry"),
            ("cubes", "build the cube system and verify the axioms"),
            ("verify", "run verification suites"),
            ("probe", "randomized operator-norm probes"),
            ("experiment", "tail and convergence experiments"),
            ("report", "render summary tables from a bundle")):
        p = sub.add_parser(name, help=help_text)
        if name != "report":
            p.add_argument("--config", metavar="PATH",
                           help="JSON config file (defaults used if omitted)")
            p.add_argument("--seed", type=int, metavar="U64",
                           help="override the config seed")
        if name == "verify":
            p.add_argument("--suite", metavar="NAME[,NAME...]",
                           help=f"subset of {','.join(VERIFY_SUITES)}")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default from config)")
    return parser


def _parse_suites(spec: str) -> tuple[str, ...]:
    """The suites named by ``--suite``, each once, in the order given."""
    suites = tuple(s.strip() for s in spec.split(","))
    if "" in suites:
        raise ConfigError(f"empty suite name in --suite {spec!r}; "
                          f"available: {VERIFY_SUITES}")
    bad = [s for s in suites if s not in VERIFY_SUITES]
    if bad:
        raise ConfigError(
            f"unknown suite(s) {bad}; available: {VERIFY_SUITES}")
    repeated = sorted({s for s in suites if suites.count(s) > 1})
    if repeated:
        raise ConfigError(f"suite(s) {repeated} named more than once in "
                          f"--suite {spec!r}")
    return suites


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "report":
        return cmd_report(Path(args.out or "results"))
    try:
        cfg, sha = load_config(args.config, seed=args.seed, out=args.out)
        suites: Sequence[str] = VERIFY_SUITES
        if args.command == "verify" and args.suite is not None:
            suites = _parse_suites(args.suite)
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "space":
            return cmd_space(cfg, sha, outdir)
        if args.command == "cubes":
            return cmd_cubes(cfg, sha, outdir)
        if args.command == "verify":
            return cmd_verify(cfg, sha, outdir, suites)
        if args.command == "probe":
            return cmd_probe(cfg, sha, outdir)
        if args.command == "experiment":
            return cmd_experiment(cfg, sha, outdir)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        if exc.keys:
            raw = Path(args.config).read_text() if args.config else ""
            exc = ConfigError(exc.message, args.config or "<defaults>",
                              _line_of(raw, *exc.keys) if raw else None)
        print(f"ergolab: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
