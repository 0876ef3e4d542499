"""End-to-end tests of the command-line runner."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab import cli, cubes, dynamics, operators
from ergolab.cli import _radius_grid, main
from ergolab.cubes import DyadicSystem
from ergolab.operators import OperatorConfig
from ergolab.space import GroupSpace, build_group_space

_Z4096 = {"space": {"modulus": 4096}}
SMALL = {
    "seed": 7,
    "space": {"modulus": 64},
    "probe": {"trials": 3},
    "domination": {"trials": 1, "lambdas": [0.5]},
    "gundy": {"trials": 2, "gamma_factors": [1.5]},
    "transference": {"radii": [1.0, 2.0, 4.0], "lambda": 0.5},
    "experiment": {"modulus": 64,
                   "radii": {"start": 1.0, "stop": 16.0, "step": 1.0}},
}


# one cube level on Z/512, where the radius blocks read levels 0 and 1
_STUNTED = ('{\n  "cubes": {\n    "k_max": 0\n  },\n'
            '  "space": {\n    "modulus": 512\n  }\n}\n')
# r0 = 40 on Z/64 puts n_r0 = 1, and the next anchor is past the diameter
_NO_BLOCK = ('{\n  "cubes": {\n    "delta": 36\n  },\n'
             '  "space": {\n    "modulus": 64,\n    "r0": 40\n  }\n}\n')
_NO_BLOCK_NAMED = ("cubes: no eligible levels: no radius block above n_r0 = 1 "
                   "(r0 = 40, delta = 36): its anchor delta^2 = 1296 exceeds "
                   "the space diameter 32")


def write_config(tmp_path: Path, body: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=1))
    return str(path)


def run(*argv: str) -> int:
    return main(list(argv))


def _move_one_average(monkeypatch) -> None:
    """Make every FFT chunk wrong at point 0, a spot-checked center."""
    real = operators._fft_chunks

    def one_entry_off(*args):
        for out in real(*args):
            out[-1, 0, 0] += 1e-6
            yield out

    monkeypatch.setattr(operators, "_fft_chunks", one_entry_off)


def _coarser_averages(monkeypatch) -> None:
    """Every cube reads the next coarser level's average at its parent."""
    real = DyadicSystem.cube_averages

    def coarser(self, k, values):
        li = self.level_index(k)
        if li + 1 == len(self.levels):
            return real(self, k, values)
        return real(self, self.levels[li + 1], values)[self.parents[li]]

    monkeypatch.setattr(DyadicSystem, "cube_averages", coarser)


def _zero_short_variation(monkeypatch) -> None:
    """Every short variation reads 0."""
    monkeypatch.setattr(operators, "variation_batch",
                        lambda values, q: np.zeros(values.shape[1]))


def _point_zero_moved(monkeypatch) -> None:
    """Point 0 joins the next level-0 cube of the run's cube system."""
    real = cubes.build_cubes

    def moved(*args, **kwargs):
        system = real(*args, **kwargs)
        finest = system.assign[0].copy()
        finest[0] = (finest[0] + 1) % len(system.centers[0])
        return dataclasses.replace(system,
                                   assign=(finest,) + system.assign[1:])

    monkeypatch.setattr(cubes, "build_cubes", moved)


def _tripled_translation(monkeypatch) -> None:
    """x -> x + 3u on Z^d: measure-preserving, but not the quotient's
    right translation, so the action's averages leave the ball averages."""
    def tripled(self, j):
        return self._product(self._columns,
                             3 * self.elements[j] % self.group.modulus)

    monkeypatch.setattr(GroupSpace, "right_perm", tripled)


def _left_translation(monkeypatch) -> None:
    """x -> u^-1 x on H3.  Both sides of the transference check are the
    sweep there, so only its spot check against direct sums can see it."""
    def left(self, j):
        return self._product(self.group.inv(self.elements[j]),
                             self._columns)

    monkeypatch.setattr(GroupSpace, "right_perm", left)


def _ball_sums(monkeypatch) -> None:
    """`avg_profile` returns ball sums on a quotient.  The probe reads it
    directly, so the engines' spot check does not see it."""
    real = operators.avg_profile

    def sums(values, space, radii):
        prof = real(values, space, radii)
        sizes = np.searchsorted(space.word_lengths, radii, side="right")
        return prof * sizes.reshape((-1,) + (1,) * (prof.ndim - 1))

    monkeypatch.setattr(operators, "avg_profile", sums)


class TestConfigValidation:
    def test_minimal_config_runs_cubes(self, tmp_path):
        cfg = write_config(tmp_path, {"space": {"modulus": 64}})
        out = tmp_path / "run"
        assert run("cubes", "--config", cfg, "--out", str(out)) == 0
        blob = json.loads((out / "cubes.json").read_text())
        assert blob["axioms"]["all_pass"] is True
        assert len(blob["config_sha256"]) == 64
        # the derived boundary-layer constants of the default parameters
        assert blob["constants"]["C2"] == 331776.0
        assert blob["constants"]["L3"] == 165890

    def test_defaults_without_config_file(self, tmp_path):
        assert run("cubes", "--out", str(tmp_path / "run")) == 0

    def test_corrupted_params_name_the_inequality(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"cubes": {"c0": 0.1}})
        assert run("cubes", "--config", cfg, "--out",
                   str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: cubes:" in err
        assert "18*C0/delta <= c0" in err

    def test_invalid_json_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{\n  "seed": ,\n}\n')
        assert run("verify", "--config", str(path), "--out",
                   str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err

    def test_unknown_key_is_anchored(self, tmp_path, capsys):
        # "threads" was a config key once; old configs must fail loudly
        for key in ("cubse", "threads"):
            path = tmp_path / "config.json"
            path.write_text(f'{{\n  "{key}": {{}}\n}}\n')
            assert run("cubes", "--config", str(path), "--out",
                       str(tmp_path / "run")) == 2
            err = capsys.readouterr().err
            assert f"unknown key '{key}'" in err
            assert f"{path}:2:" in err

    def test_bad_value_is_anchored_by_key_path(self, tmp_path, capsys):
        # gundy.p is fine; probe.p is not, and shares the sub-key name
        path = tmp_path / "bad.json"
        path.write_text('{\n  "gundy": {\n    "p": 2.0\n  },\n'
                        '  "probe": {\n    "p": 0.5\n  }\n}\n')
        assert run("probe", "--config", str(path), "--out",
                   str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert "probe.p must be" in err
        assert f"{path}:6:" in err

    def test_top_level_key_after_same_named_sub_key(self, tmp_path, capsys):
        # probe.operators (line 3) precedes the top-level operators (line 6);
        # operators.p was a config key once, and old configs must fail loudly
        path = tmp_path / "bad.json"
        path.write_text('{\n  "probe": {\n    "operators": ["square"],\n'
                        '    "p": 2.0\n  },\n  "operators": {\n'
                        '    "p": 0.5\n  }\n}\n')
        assert run("probe", "--config", str(path), "--out",
                   str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert "unknown key operators.p" in err
        assert f"{path}:7:" in err

    def test_unknown_sub_key_is_anchored_by_key_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "gundy": {\n    "p": 2.0\n  },\n'
                        '  "space": {\n    "p": 1\n  }\n}\n')
        assert run("space", "--config", str(path), "--out",
                   str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert "unknown key space.p" in err
        assert f"{path}:6:" in err

    @pytest.mark.parametrize("command,section,key,value", [
        ("probe", "probe", "operators", '["average", "average"]'),
        ("probe", "probe", "gammas", "[0.5, 1.0, 0.5]"),
        ("verify", "domination", "lambdas", "[0.5, 0.5]"),
        ("verify", "gundy", "gamma_factors", "[1.5, 3.0, 1.5]"),
    ])
    def test_repeated_list_entry_refused(self, tmp_path, capsys, command,
                                         section, key, value):
        # a repeat would run the same check twice and count it twice
        path = tmp_path / "bad.json"
        path.write_text(f'{{\n  "{section}": {{\n    "{key}": {value}\n'
                        f'  }}\n}}\n')
        out = tmp_path / "run"
        assert run(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: {section}.{key} must be" in err
        assert "distinct" in err
        assert not (out / "summary.txt").exists()

    def test_bad_value_reports_expectation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": -1})
        assert run("space", "--config", cfg, "--out",
                   str(tmp_path / "run")) == 2
        assert "seed must be" in capsys.readouterr().err

    def test_unknown_suite(self, tmp_path, capsys):
        assert run("verify", "--suite", "nope", "--out",
                   str(tmp_path / "run")) == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,named", [
        ("", "empty suite name"), ("gundy,", "empty suite name"),
        ("gundy,,axioms", "empty suite name"),
        ("gundy,gundy", "['gundy'] named more than once"),
        ("axioms,gundy, axioms", "['axioms'] named more than once")])
    def test_empty_or_repeated_suite_refused(self, tmp_path, capsys, spec,
                                             named):
        out = tmp_path / "run"
        assert run("verify", "--suite", spec, "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_transference_on_truncation_refused_before_suites(
            self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a suite ran before the config was refused")

        monkeypatch.setitem(cli._SUITES, "gundy", (never, True))
        monkeypatch.setattr(cubes, "build_cubes", never)
        cfg = write_config(tmp_path, {"space": {"family": "h3", "radius": 4,
                                                "modulus": None}})
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out),
                   "--suite", "gundy,transference") == 2
        err = capsys.readouterr().err
        assert "space.modulus" in err
        assert "Traceback" not in err
        assert not (out / "verify.json").exists()

    @pytest.mark.parametrize("radii", [
        {"start": 10, "stop": 5, "step": 1},     # an empty grid
        [20, 30],                                # beyond the safe radius 16
        {"start": 1, "stop": 300001, "step": 1},  # one radius past the cap
        {"start": 1, "stop": 1e308, "step": 1e-308},  # a count past floats
        [-3, -1, 0, 2],                          # radii that are not positive
        {"start": 1, "stop": 10**400, "step": 1},  # an int past floats
    ])
    def test_experiment_grid_without_usable_radius_refused(
            self, tmp_path, capsys, monkeypatch, radii):
        def never(*args, **kwargs):
            raise AssertionError("a sweep ran before the grid was refused")

        monkeypatch.setattr(dynamics, "tail_and_convergence", never)
        path = tmp_path / "config.json"
        path.write_text('{\n  "experiment": {\n    "modulus": 64,\n'
                        f'    "radii": {json.dumps(radii)}\n  }}\n}}\n')
        assert run("experiment", "--config", str(path), "--out",
                   str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert f"{path}:4:" in err
        assert "experiment.radii" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,key,body", [
        ("space", "space.r0", {"space": {"r0": 10**400}}),
        ("cubes", "cubes.delta", {"cubes": {"delta": 10**400}}),
        ("experiment", "experiment.lambda",
         {"experiment": {"modulus": 64, "lambda": 10**400}}),
        ("experiment", "experiment.radii",
         {"experiment": {"modulus": 64, "radii": {"start": 1,
                                                  "stop": 10**400,
                                                  "step": 1}}}),
        ("probe", "probe.p", {"probe": {"p": 10**400}}),
    ], ids=["r0", "delta", "lambda", "radii-stop", "p"])
    def test_integer_past_the_float_range_is_a_config_error(
            self, tmp_path, capsys, command, key, body):
        path = write_config(tmp_path, body)
        out = tmp_path / "run"
        assert run(command, "--config", path, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{path}:" in err
        assert f"{key} must be" in err
        assert "Traceback" not in err
        assert not list(out.glob("*.json"))

    def test_transference_grid_beyond_the_diameter_refused(
            self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a suite ran before the grid was refused")

        monkeypatch.setitem(cli._SUITES, "transference", (never, False))
        path = tmp_path / "config.json"
        path.write_text('{\n  "space": {"modulus": 16},\n'
                        '  "transference": {\n    "radii": [9.0, 16.0]\n'
                        '  }\n}\n')
        out = tmp_path / "run"
        assert run("verify", "--config", str(path), "--out", str(out),
                   "--suite", "transference") == 2
        err = capsys.readouterr().err
        assert f"{path}:4:" in err
        assert "transference.radii" in err
        assert not (out / "verify.json").exists()

    @pytest.mark.parametrize("command,body,line,named", [
        ("space", '{\n  "space": {\n    "modulus": 2\n  }\n}\n', 3,
         "space.modulus must be an integer >= 4"),
        ("experiment", '{\n  "experiment": {\n    "modulus": 3\n  }\n}\n',
         3, "experiment.modulus must be an integer >= 4"),
        # the H3 truncation is refused by the space builder, past the schema
        ("space", '{\n  "space": {\n    "family": "h3",\n'
         '    "radius": 40,\n    "modulus": null\n  }\n}\n', 2,
         "space: h3 truncations are capped"),
        # the growth fit needs two radii >= 1
        ("space", '{\n  "space": {\n    "family": "zd",\n    "d": 1,\n'
         '    "radius": 1,\n    "modulus": null\n  }\n}\n', 5,
         "space.radius: the growth fit needs a truncation radius of at "
         "least 2"),
        ("space", '{\n  "space": {\n    "family": "h3",\n'
         '    "radius": 1,\n    "modulus": null\n  }\n}\n', 4,
         "space.radius: the growth fit needs a truncation radius of at "
         "least 2"),
    ])
    def test_refused_space_is_anchored(self, tmp_path, capsys, command, body,
                                       line, named):
        path = tmp_path / "config.json"
        path.write_text(body)
        assert run(command, "--config", str(path), "--out",
                   str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}: {named}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("with_config", [True, False],
                             ids=["config", "defaults"])
    def test_bad_seed_flag_is_reported_at_the_flag(self, tmp_path, capsys,
                                                   seed, with_config):
        # the config's own seed on line 2 is valid and takes no blame
        config = []
        if with_config:
            path = tmp_path / "config.json"
            path.write_text('{\n  "seed": 3\n}\n')
            config = ["--config", str(path)]
        out = tmp_path / "run"
        assert run("space", *config, "--seed", str(seed),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"ergolab: --seed must be a non-negative integer below 2^64 "
            f"(got {seed})\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,body,named", [
        (("cubes",), '{\n  "cubes": {\n    "k_min": 10\n  }\n}\n',
         "cubes: resolved level range is empty"),
        (("probe",), _STUNTED, "cubes: cube system lacks levels [1]"),
        (("verify", "--suite", "domination"), _STUNTED,
         "cubes: cube system lacks levels [1]"),
        (("verify", "--suite", "gundy"), _STUNTED,
         "cubes: suite gundy needs at least two levels"),
        (("probe",), _NO_BLOCK, _NO_BLOCK_NAMED),
        (("verify", "--suite", "domination"), _NO_BLOCK, _NO_BLOCK_NAMED),
    ], ids=["cubes", "probe", "domination", "gundy", "probe-no-block",
            "domination-no-block"])
    def test_cube_range_without_a_commands_levels_is_anchored(
            self, tmp_path, capsys, monkeypatch, argv, body, named):
        def never(*args, **kwargs):
            raise AssertionError("a suite ran before the range was refused")

        for name, (_, reads_cubes) in list(cli._SUITES.items()):
            monkeypatch.setitem(cli._SUITES, name, (never, reads_cubes))
        monkeypatch.setattr(operators, "norm_probe", never)
        path = tmp_path / "config.json"
        path.write_text(body)
        out = tmp_path / "run"
        assert run(*argv, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{path}:2: {named}" in err
        assert "Traceback" not in err
        assert not list(out.glob("*.json"))

    def test_probe_without_the_square_needs_no_block_levels(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(_STUNTED.replace(
            '"modulus": 512', '"modulus": 512\n  },\n  "probe": {\n'
            '    "trials": 2,\n    "operators": ["average", "maximal"]'))
        out = tmp_path / "run"
        assert run("probe", "--config", str(path), "--out", str(out)) == 0
        assert sorted(json.loads((out / "probe.json").read_text())
                      ["operators"]) == ["average", "maximal"]

    @pytest.mark.parametrize("command", ["cubes", "probe"])
    @pytest.mark.parametrize("key,value", [("k_max", 300), ("delta", 1e200)])
    def test_level_scale_past_the_float_range_is_anchored(
            self, tmp_path, capsys, command, key, value):
        # on Z/64, C1*delta^k_max is 4*36^300 and 4*(1e200)^2
        path = tmp_path / "config.json"
        path.write_text(f'{{\n  "cubes": {{\n    "{key}": {json.dumps(value)}'
                        f'\n  }}\n}}\n')
        out = tmp_path / "run"
        assert run(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{path}:2: cubes: level scale C1*delta^" in err
        assert "overflows a float" in err
        assert "Traceback" not in err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("text, line", [
        ('{\n  "space": {\n    "modulus": 64,\n    "r0": 1e307\n  }\n}\n',
         4),
        ('{\n  "space": {\n    "modulus": 64\n  },\n  "cubes": {\n'
         '    "c0": 1e-307,\n    "C0": 1.1e-307\n  }\n}\n', None),
    ], ids=["r0", "c0"])
    def test_boundary_bound_past_the_float_range_is_named(
            self, tmp_path, capsys, text, line):
        # 36*r0/c0 is 3.6e308 in both, past the float range: no level L1
        # has a power above it
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "run"
        assert run("cubes", "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        anchor = f"{path}:" if line is None else f"{path}:{line}:"
        assert (f"{anchor} space.r0, cubes.c0 and cubes.C0: bound 36*r0/c0 "
                f"overflows a float") in err
        assert "Traceback" not in err
        assert not (out / "cubes.json").exists()

    @pytest.mark.parametrize("p, gamma", [(150, "1.14893"),
                                          (200, "0.842551")],
                             ids=["150", "200"])
    def test_gundy_bound_past_the_float_range_is_anchored(self, tmp_path,
                                                          capsys, p, gamma):
        # at p = 200 the bound is past the float range at trial 0's first
        # gamma; at p = 150 that bound is 4.0e297, and the second gamma's
        # is exp(731), past it, where a PASS would have rested on inf
        path = tmp_path / "config.json"
        path.write_text('{\n  "gundy": {\n    "trials": 1,\n'
                        f'    "p": {p}\n  }}\n}}\n')
        out = tmp_path / "run"
        assert run("verify", "--suite", "gundy", "--config", str(path),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert (f"{path}:4: gundy.p: ||g||_p^p or its bound overflows a "
                f"float at p = {p} (trial 0, gamma {gamma})") in err
        assert "Traceback" not in err
        assert not (out / "verify.json").exists()

    @pytest.mark.parametrize("kind,modulus", [("regular", 64),
                                              ("heisenberg", 8)])
    def test_step_of_a_translation_system_is_refused(
            self, tmp_path, capsys, monkeypatch, kind, modulus):
        def never(*args, **kwargs):
            raise AssertionError("a sweep ran before the step was refused")

        monkeypatch.setattr(dynamics, "tail_and_convergence", never)
        path = tmp_path / "config.json"
        path.write_text(f'{{\n  "experiment": {{\n    "kind": "{kind}",\n'
                        f'    "modulus": {modulus},\n    "step": 5\n'
                        f'  }}\n}}\n')
        out = tmp_path / "run"
        assert run("experiment", "--config", str(path), "--out",
                   str(out)) == 2
        err = capsys.readouterr().err
        assert (f"{path}:5: experiment.step: a {kind} system acts by right "
                f"translation and takes no step (got 5)") in err
        assert "Traceback" not in err
        assert not (out / "experiment.json").exists()

    def test_space_needs_exactly_one_extent(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"space": {"modulus": None}})
        assert run("space", "--config", cfg, "--out",
                   str(tmp_path / "run")) == 2
        assert "exactly one of modulus or radius" in capsys.readouterr().err


class TestCommands:
    def test_space_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run("space", "--out", str(out)) == 0
        blob = json.loads((out / "space.json").read_text())
        assert blob["n"] == 64
        assert 0.8 < blob["growth"]["exponent"] < 1.2
        assert blob["doubling"]["small_ok"] is True
        assert blob["doubling"]["max_small_packing"] is None
        # D = max(D0, 19) with D0 = 3 on Z/64
        assert blob["doubling"]["D"] == 19

    def test_rerun_into_same_out_matches_one_run(self, tmp_path):
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert run("space", "--out", str(once)) == 0
        for _ in range(2):
            assert run("space", "--out", str(twice)) == 0
        files = sorted(p.name for p in once.iterdir())
        assert sorted(p.name for p in twice.iterdir()) == files
        for name in files:
            assert (twice / name).read_bytes() == (once / name).read_bytes()

    def test_summary_keeps_each_commands_chunk(self, tmp_path):
        out = tmp_path / "run"
        assert run("space", "--out", str(out)) == 0
        assert run("cubes", "--out", str(out)) == 0
        text = (out / "summary.txt").read_text()
        assert text.count("== space ==") == 1
        assert text.count("== cubes ==") == 1
        assert text.index("== space ==") < text.index("== cubes ==")
        assert run("space", "--out", str(out)) == 0
        assert (out / "summary.txt").read_text() == text

    def test_space_violation_exit_code(self, tmp_path):
        # an absurd doubling budget makes the honest check fail
        cfg = write_config(tmp_path, {"space": {"doubling_D0": 1}})
        out = tmp_path / "run"
        assert run("space", "--config", cfg, "--out", str(out)) == 1
        assert "FAIL" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("space", [
        {"modulus": 4096, "r0": 8},
        {"d": 2, "modulus": 64, "r0": 2},
        {"d": 2, "modulus": 64, "r0": 4},
        {"d": 3, "modulus": 32, "r0": 2},
    ], ids=["z-4096-r0-8", "z2-64-r0-2", "z2-64-r0-4", "z3-32-r0-2"])
    def test_space_cover_above_D0_without_a_packing_is_a_note(
            self, tmp_path, space):
        # a greedy cover bounds the covering number from above only; no
        # greedy r-net has more than D0 points, so no violation is shown
        cfg = write_config(tmp_path, {"space": space})
        out = tmp_path / "run"
        assert run("space", "--config", cfg, "--out", str(out)) == 0
        doubling = json.loads((out / "space.json").read_text())["doubling"]
        assert (doubling["max_small_cover"] > doubling["D0"]
                >= doubling["max_small_packing"])
        assert doubling["small_ok"] is None
        text = (out / "summary.txt").read_text()
        assert "note: a greedy cover exceeds" in text
        assert "FAIL" not in text and "all checks passed" not in text

    def test_verify_all_suites(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out)) == 0
        blob = json.loads((out / "verify.json").read_text())
        assert blob["passed"] is True
        assert [s["suite"] for s in blob["suites"]] == [
            "axioms", "domination", "gundy", "transference"]
        assert all(not s["failures"] for s in blob["suites"])

    def test_verify_builds_one_cube_system(self, tmp_path, monkeypatch):
        calls = []
        real = cubes.build_cubes
        monkeypatch.setattr(cubes, "build_cubes",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        cfg = write_config(tmp_path, SMALL)
        assert run("verify", "--config", cfg, "--out",
                   str(tmp_path / "run")) == 0
        assert len(calls) == 1

    def test_verify_suite_subset(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out),
                   "--suite", "axioms,transference") == 0
        blob = json.loads((out / "verify.json").read_text())
        assert [s["suite"] for s in blob["suites"]] == [
            "axioms", "transference"]

    def test_transference_reads_no_cube_parameters(self, tmp_path):
        # c0 = 0.1 is below 18*C0/delta = 1, which only the cubes refuse
        cfg = write_config(tmp_path, dict(SMALL, cubes={"c0": 0.1}))
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out),
                   "--suite", "transference") == 0
        assert json.loads((out / "verify.json").read_text())["passed"]

    def test_domination_violation_at_point_zero_fails(self, tmp_path,
                                                      monkeypatch):
        real = operators.domination_checks

        def one_violation(*args, **kwargs):
            return [dataclasses.replace(
                rep, violations_anchor=np.array([0]),
                violations_martingale=np.array([], dtype=np.int64))
                for rep in real(*args, **kwargs)]

        monkeypatch.setattr(operators, "domination_checks",
                            one_violation)
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out),
                   "--suite", "domination") == 1
        blob = json.loads((out / "verify.json").read_text())
        assert blob["passed"] is False
        assert blob["suites"][0]["failures"] == [
            "trial 0 lambda 0.5: 1 anchor / 0 martingale violations"]

    def test_probe_reports_spot_check_mismatch(self, tmp_path, monkeypatch):
        _move_one_average(monkeypatch)
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("probe", "--config", cfg, "--out", str(out)) == 1
        failures = json.loads((out / "probe.json").read_text())["failures"]
        # the maximal operator reads no ball averages
        assert [f.split(":")[0] for f in failures] == [
            "square", "variation", "average"]
        assert all("FFT ball average mismatch at point 0" in f
                   for f in failures)
        summary = (out / "summary.txt").read_text()
        assert "FAIL: average: FFT ball average mismatch at point 0" in summary
        assert "maximal: strong max" in summary

    def test_domination_reports_spot_check_mismatch(self, tmp_path,
                                                    monkeypatch):
        _move_one_average(monkeypatch)
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out),
                   "--suite", "domination") == 1
        suite, = json.loads((out / "verify.json").read_text())["suites"]
        failure, = suite["failures"]
        assert failure.startswith(
            "trial 0 lambda 0.5: FFT ball average mismatch at point 0")
        assert "suite domination: FAIL" in (out / "summary.txt").read_text()

    def test_transference_reports_spot_check_mismatch(self, tmp_path,
                                                      monkeypatch):
        _move_one_average(monkeypatch)
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out),
                   "--suite", "transference") == 1
        suite, = json.loads((out / "verify.json").read_text())["suites"]
        failure, = suite["failures"]
        assert failure.startswith("FFT ball average mismatch at point 0")
        assert "suite transference: FAIL" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("argv, config, mutant, messages", [
        (["verify", "--suite", "gundy"], _Z4096, _coarser_averages,
         ["suite gundy: FAIL"]),
        (["verify", "--suite", "axioms"], _Z4096, _point_zero_moved,
         ["suite axioms: FAIL", "\n  axiom i level 0 cube 0: empty cube"]),
        (["cubes"], _Z4096, _point_zero_moved,
         ["FAIL: axiom i at level 0 cube 0: empty cube"]),
        (["verify", "--suite", "domination"], _Z4096, _zero_short_variation,
         ["suite domination: FAIL"]),
        (["verify", "--suite", "transference"], SMALL, _tripled_translation,
         ["suite transference: FAIL", "checks)\n  max discrepancy "]),
        (["verify", "--suite", "transference"],
         dict(SMALL, space={"d": 2, "modulus": 16}), _tripled_translation,
         ["suite transference: FAIL", "checks)\n  max discrepancy "]),
        (["verify", "--suite", "transference"],
         dict(SMALL, space={"family": "h3", "modulus": 8}), _left_translation,
         ["suite transference: FAIL",
          "checks)\n  group sweep ball average mismatch at point "]),
        (["probe"], dict(_Z4096, probe={"operators": ["average"]}),
         _ball_sums, ["FAIL: average operator exceeded the doubling bound"]),
    ], ids=["gundy", "axioms", "cubes", "domination", "transference-z64",
            "transference-z2-16", "transference-h3-8", "probe-average"])
    def test_suite_fails_under_its_mutant(self, tmp_path, monkeypatch, argv,
                                          config, mutant, messages):
        mutant(monkeypatch)
        cfg = write_config(tmp_path, config)
        out = tmp_path / "run"
        assert run(*argv, "--config", cfg, "--out", str(out)) == 1
        # in `verify`'s summary, a suite's first failure follows the line
        # that ends in its check count
        summary = (out / "summary.txt").read_text()
        for message in messages:
            assert message in summary

    def test_probe_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("probe", "--config", cfg, "--out", str(out)) == 0
        lines = (out / "probe.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "operator,p,seed,ensemble,ratio"
        assert len(lines) > 2
        blob = json.loads((out / "probe.json").read_text())
        assert set(blob["operators"]) == {"square", "variation", "average",
                                          "maximal"}
        assert blob["failures"] == []
        assert blob["martingale_jump"]["max_ratio"] < 1.5

    def test_probe_at_a_large_p_gives_finite_ratios(self, tmp_path):
        # |f|^1000 overflows for any |f| > 2.03, so the norms scale by max|f|
        cfg = write_config(tmp_path, dict(SMALL, probe={"trials": 3,
                                                        "p": 1000}))
        out = tmp_path / "run"
        assert run("probe", "--config", cfg, "--out", str(out)) == 0
        text = (out / "probe.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        lines = (out / "probe.csv").read_text().splitlines()[2:]
        ratios = [float(line.split(",")[4]) for line in lines]
        assert len(ratios) == 12
        assert all(0 < r < 2 for r in ratios)
        jump = json.loads(text)["martingale_jump"]
        assert 0 < jump["max_ratio"] < 2

    def test_probe_without_a_doubling_fit_checks_no_bound(self, tmp_path):
        # the H3 ball R=1 has safe radius 1: no dyadic r has 2r within it
        cfg = write_config(tmp_path, dict(SMALL, space={
            "family": "h3", "radius": 1, "modulus": None}))
        out = tmp_path / "run"
        assert run("probe", "--config", cfg, "--out", str(out)) == 0
        blob = json.loads((out / "probe.json").read_text())
        average = blob["operators"]["average"]
        assert average["doubling_D"] is None
        assert average["avg_bound_ok"] is None
        assert blob["failures"] == []
        note = ("average: no dyadic radius r >= 1 has 2r within the safe "
                "radius 1, so no doubling constant is fitted and the bound "
                "D^(1/p) is not checked")
        assert note in blob["notes"]
        assert f"note: {note}" in (out / "summary.txt").read_text()

    def test_probe_records_the_operator_notes(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("probe", "--config", cfg, "--out", str(out)) == 0
        space, _ = build_group_space("zd", d=1, modulus=64)
        notes = list(OperatorConfig.for_space(space).notes)
        assert json.loads((out / "probe.json").read_text())["notes"] == notes
        summary = (out / "summary.txt").read_text().splitlines()
        assert [line for line in summary if line.startswith("note: ")] == [
            f"note: {n}" for n in notes]

    def test_domination_notes_name_every_subsampled_block(self, tmp_path):
        cfg = write_config(tmp_path, {
            "space": {"modulus": 4096},
            "domination": {"trials": 1, "lambdas": [0.5]}})
        out = tmp_path / "run"
        assert run("verify", "--suite", "domination", "--config", cfg,
                   "--out", str(out)) == 0
        notes = json.loads((out / "verify.json").read_text())[
            "suites"][0]["notes"]
        for block in ("block n=0 subsampled to 17 of 35 radii",
                      "block n=1 subsampled to 22 of 1260 radii",
                      "block n=2 subsampled to 22 of 753 radii"):
            assert block in notes
        space, _ = build_group_space("zd", d=1, modulus=4096)
        assert notes == list(OperatorConfig.for_space(space).notes) + [
            "a PASS shows that both inequalities held for the counts the "
            "jump and short-variation DPs returned; it does not catch a jump "
            "DP that undercounts, which only shrinks the left side, and as "
            "both inequalities hold for any sequences it certifies neither "
            "the ball averages (each engine's spot check does) nor the cubes "
            "(the axioms suite does)"]
        summary = (out / "summary.txt").read_text()
        assert all(f"  note: {n}\n" in summary for n in notes)

    def test_experiment_artifacts_and_capping(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("experiment", "--config", cfg, "--out", str(out)) == 0
        blob = json.loads((out / "experiment.json").read_text())
        assert blob["failures"] == []
        assert blob["mean_drift"] <= 1e-12
        tails = [float(line.split(",")[1])
                 for line in (out / "tail.csv").read_text().splitlines()[2:]]
        assert all(b <= a for a, b in zip(tails, tails[1:]))
        # grid 1..16 equals the safe radius of Z_64, so nothing is dropped
        assert blob["tail"]["radii"][-1] == 16.0

    @pytest.mark.parametrize("step", [2**62 + 1, 10**22])
    def test_experiment_step_past_int64_acts_as_its_residue(self, tmp_path,
                                                            step):
        blobs = []
        for s in (step, step % 100):
            cfg = write_config(tmp_path, {"experiment": {
                "modulus": 100, "step": s}}, name=f"{s}.json")
            out = tmp_path / str(s)
            assert run("experiment", "--config", cfg, "--out", str(out)) == 0
            blob = json.loads((out / "experiment.json").read_text())
            del blob["config_sha256"]
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_experiment_radius_capping_is_named(self, tmp_path):
        body = dict(SMALL)
        body["experiment"] = {"modulus": 64,
                              "radii": {"start": 1.0, "stop": 64.0,
                                        "step": 1.0}}
        cfg = write_config(tmp_path, body)
        out = tmp_path / "run"
        assert run("experiment", "--config", cfg, "--out", str(out)) == 0
        blob = json.loads((out / "experiment.json").read_text())
        assert any("capped at the safe radius" in n
                   for n in blob["tail"]["notes"])
        assert "capped at the safe radius" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("stop, which", [
        (64.0, "48 radii, 17.0 to 64.0"), (17.0, "the radius 17.0")],
        ids=["many", "one"])
    def test_experiment_capping_note_names_the_dropped_range(
            self, tmp_path, stop, which):
        # the safe radius of Z_64 is 16
        body = dict(SMALL)
        body["experiment"] = {"modulus": 64,
                              "radii": {"start": 1.0, "stop": stop,
                                        "step": 1.0}}
        cfg = write_config(tmp_path, body)
        out = tmp_path / "run"
        assert run("experiment", "--config", cfg, "--out", str(out)) == 0
        note = ("radius grid capped at the safe radius 16.0 of the acting "
                f"group; dropped {which}")
        assert json.loads((out / "experiment.json").read_text())[
            "tail"]["notes"][0] == note
        assert f"note: {note}\n" in (out / "summary.txt").read_text()

    def test_transference_names_radii_beyond_the_diameter(self, tmp_path):
        # Z/16 has diameter 8, so the default grid loses 16.0
        cfg = write_config(tmp_path, {"space": {"modulus": 16}})
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out),
                   "--suite", "transference") == 0
        suite, = json.loads((out / "verify.json").read_text())["suites"]
        assert suite["failures"] == []
        note = ("radius grid capped at the space diameter 8; dropped the "
                "radius 16.0")
        assert suite["notes"] == [note]
        assert f"note: {note}\n" in (out / "summary.txt").read_text()

    def test_transference_note_is_bounded(self, tmp_path):
        # 19,992 of the 20,000 radii lie above the diameter 8 of Z/16: the
        # note names their count and ends, not each radius
        cfg = write_config(tmp_path, {
            "space": {"modulus": 16},
            "transference": {"radii": list(range(1, 20001))}})
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--out", str(out),
                   "--suite", "transference") == 0
        note = ("radius grid capped at the space diameter 8; dropped 19992 "
                "radii, 9.0 to 20000.0")
        suite, = json.loads((out / "verify.json").read_text())["suites"]
        assert suite["notes"] == [note]
        summary = (out / "summary.txt").read_bytes()
        assert f"note: {note}\n".encode() in summary
        assert len(summary) < 4096

    def test_radius_grid_does_not_accumulate_rounding(self):
        grid = _radius_grid({"start": 0.1, "stop": 1.0, "step": 0.1})
        assert len(grid) == 10
        assert grid[-1] == 1.0
        assert grid == [0.1 + i * 0.1 for i in range(10)]


class TestDeterminism:
    def _run_all(self, cfg: str, out: Path) -> dict[str, str]:
        for cmd in ("space", "cubes", "verify", "probe", "experiment"):
            assert run(cmd, "--config", cfg, "--out", str(out)) == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())}

    def test_identical_config_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        h1 = self._run_all(cfg, tmp_path / "a")
        h2 = self._run_all(cfg, tmp_path / "b")
        assert h1.keys() == h2.keys()
        assert h1 == h2

    def test_probe_bytes_independent_of_trial_blocks(self, tmp_path,
                                                      monkeypatch):
        cfg = write_config(tmp_path, {"space": {"modulus": 512}})

        def probe_bytes(out: Path) -> dict[str, bytes]:
            assert run("probe", "--config", cfg, "--out", str(out)) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        default = probe_bytes(tmp_path / "default")
        space, _ = build_group_space("zd", d=1, modulus=512)
        grid = operators.OperatorConfig.for_space(space).union_grid()
        # one trial per sweep, then three variation trials per sweep
        for budget in (1, 3 * len(grid) * space.n * 8):
            monkeypatch.setattr(operators, "_SWEEP_BYTES", budget)
            assert probe_bytes(tmp_path / f"blocks{budget}") == default

    def test_config_hash_is_pinned(self, tmp_path):
        # a schema change that moves the hash of an unchanged config fails
        assert cli.load_config(None)[1] == (
            "af0d70f67cba18f7fcfc90d142c357e5fbd91d54cc063dae354e5926c85ca434")
        assert cli.load_config(write_config(tmp_path, SMALL))[1] == (
            "568e6d0183fed4092d6a76ca85143e1c5a168af5ab56c601bda76e9d15d15f52")

    def test_config_hash_is_the_sha256_of_the_canonical_json(self, tmp_path):
        cfg, sha = cli.load_config(write_config(tmp_path, SMALL))
        hashed = {k: v for k, v in cfg.items() if k != "out"}
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        assert sha == hashlib.sha256(canonical.encode()).hexdigest()

    @pytest.mark.parametrize("name", [
        "domination", "gundy", "transference", "experiment", "probe:jump",
        *(f"probe:{op}" for op in cli.PROBE_OPERATORS)])
    def test_suite_seed_is_the_first_four_digest_bytes(self, name):
        for base in (0, 7, 2**64 - 1):
            digest = hashlib.sha256(f"{base}:{name}".encode()).digest()
            assert cli._suite_seed(base, name) == int.from_bytes(digest[:4],
                                                                 "big")

    def test_defaults_are_fresh_copies(self):
        cli._defaults()["probe"]["gammas"].append(9.0)
        assert cli._defaults()["probe"]["gammas"] == [0.5, 1.0, 2.0]

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("cubes", "--config", cfg, "--out", str(out1)) == 0
        assert run("cubes", "--config", cfg, "--out", str(out2),
                   "--seed", "99") == 0
        sha1 = json.loads((out1 / "cubes.json").read_text())["config_sha256"]
        sha2 = json.loads((out2 / "cubes.json").read_text())["config_sha256"]
        assert sha1 != sha2


class TestSha256:
    def test_every_length_through_the_padding_boundaries(self):
        # at 56 and 120 bytes the padding first takes one more block, and
        # 64 fills one exactly
        rng = np.random.default_rng(0)
        for n in range(201):
            data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
            assert cli._sha256(data) == hashlib.sha256(data).digest(), n

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=1000))
    def test_equals_the_standard_library(self, data):
        assert cli._sha256(data) == hashlib.sha256(data).digest()


class TestReport:
    def test_missing_bundle(self, tmp_path, capsys):
        assert run("report", "--out", str(tmp_path / "nowhere")) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_empty_bundle(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert run("report", "--out", str(out)) == 0
        assert "no suites run" in capsys.readouterr().out
        assert "no suites run" in (out / "report.txt").read_text()

    def test_truncated_artifact_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("verify", "--suite", "axioms", "--out", str(out)) == 0
        path = out / "verify.json"
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        line = text[:len(text) // 2].count("\n") + 1
        assert run("report", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"report: {path}:{line}: invalid JSON: " in err
        assert "Traceback" not in err
        assert not (out / "report.txt").exists()

    def test_artifact_that_is_not_an_object_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "verify.json").write_text("[1, 2]\n")
        assert run("report", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert (f"report: {out / 'verify.json'}: top level must be a JSON "
                f"object") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, blob, key", [
        ("verify", {}, "suites"),
        ("verify", {"suites": [{"suite": "axioms"}]}, "checks"),
        ("cubes", {}, "axioms"),
        ("space", {}, "growth"),
        ("experiment", {"tail": {"fitted": True}}, "kind"),
    ])
    def test_artifact_missing_a_key_is_named(self, tmp_path, capsys, name,
                                             blob, key):
        out = tmp_path / "run"
        out.mkdir()
        path = out / f"{name}.json"
        path.write_text(json.dumps(blob))
        assert run("report", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"report: {path}: missing key '{key}'" in err
        assert "Traceback" not in err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("name, blob, detail", [
        ("verify", {"suites": [1]}, "'int' object is not subscriptable"),
        ("space", {"growth": {"exponent": "x", "constant": 1.0}},
         "Unknown format code 'f' for object of type 'str'"),
    ], ids=["verify", "space"])
    def test_artifact_value_of_the_wrong_type_is_named(
            self, tmp_path, capsys, name, blob, detail):
        out = tmp_path / "run"
        out.mkdir()
        path = out / f"{name}.json"
        path.write_text(json.dumps(blob))
        assert run("report", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"report: {path}: wrong value type: {detail}" in err
        assert "Traceback" not in err
        assert not (out / "report.txt").exists()

    def test_report_tables(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        for cmd in ("verify", "probe", "experiment"):
            assert run(cmd, "--config", cfg, "--out", str(out)) == 0
        assert run("report", "--out", str(out)) == 0
        text = (out / "report.txt").read_text()
        assert "suite            checks   failures" in text
        assert "operator      median" in text
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "table,key,value"
        assert any(r.startswith("verify,axioms,pass") for r in rows)

    def test_mixed_configs_are_flagged(self, tmp_path):
        out = tmp_path / "run"
        assert run("space", "--seed", "1", "--out", str(out)) == 0
        assert run("cubes", "--seed", "2", "--out", str(out)) == 0
        shas = {name: json.loads((out / f"{name}.json").read_text())
                ["config_sha256"][:12] for name in ("space", "cubes")}
        assert run("report", "--out", str(out)) == 1
        text = (out / "report.txt").read_text()
        assert "WARNING: artifacts from 2 configs" in text
        for name, sha in shas.items():
            assert f"{sha} ({name})" in text

    def test_report_quantiles_match_raw_csv(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert run("probe", "--config", cfg, "--out", str(out)) == 0
        assert run("report", "--out", str(out)) == 0
        raw: dict[str, list[float]] = {}
        for line in (out / "probe.csv").read_text().splitlines()[2:]:
            op, _, _, _, ratio = line.split(",")
            raw.setdefault(op, []).append(float(ratio))
        for row in (out / "report.csv").read_text().splitlines()[1:]:
            table, key, value = row.split(",", 2)
            if table == "probe":
                assert float(value) == max(raw[key])

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("nan_at", [None, 0, -1])
    def test_quantile_is_np_quantile_bit_for_bit(self, n, nan_at):
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4),
                       rng.integers(0, 3, n) / 3.0):
            if nan_at is not None:
                values[nan_at] = np.nan
            for q in (0.5, 0.9):
                want = np.float64(np.quantile(values, q)).tobytes()
                assert np.float64(cli._quantile(values, q)).tobytes() == want


class TestExperimentSweep:
    """`experiment` sweeps the rotation once, and its experiment.json is
    byte-identical to the one the separate tail and convergence calls
    give."""

    def run_counted(self, tmp_path, monkeypatch, experiment):
        # the experiment streams the sweep in chunks through sweep_chunks
        widths = []
        sweep = dynamics.sweep_chunks

        def counted(values, *args):
            widths.append(values.shape[1:])
            return sweep(values, *args)

        monkeypatch.setattr(dynamics, "sweep_chunks", counted)
        cfg = write_config(tmp_path, {"seed": 3, "experiment": experiment})
        out = tmp_path / "run"
        assert run("experiment", "--config", cfg, "--out", str(out)) == 0
        monkeypatch.undo()
        return out, widths

    def separate_calls(self, tmp_path, out, experiment):
        e = dict(cli._defaults()["experiment"], **experiment)
        system = dynamics.build_system(e["kind"], modulus=e["modulus"],
                                       step=e["step"])
        rng = np.random.default_rng(cli._suite_seed(3, "experiment"))
        values = operators._draw(e["ensemble"], rng, system.n_states)
        tail = dynamics.tail_experiment(system, values,
                                        _radius_grid(e["radii"]),
                                        lam=e["lambda"])
        conv = dynamics.convergence_probe(system, values, list(tail.radii))
        sha = json.loads((out / "experiment.json").read_text())["config_sha256"]
        ref = tmp_path / "ref"
        ref.mkdir()
        cli._write_json(ref, "experiment.json",
                        {"tail": tail.to_json(), "convergence": conv,
                         "mean_drift": tail.mean_drift, "failures": []}, sha)
        return (ref / "experiment.json").read_bytes()

    def test_unclipped_values_reuse_the_tail_rows(self, tmp_path,
                                                  monkeypatch):
        # the ergodic-rot benchmark experiment
        experiment = {"kind": "rotation", "modulus": 16384, "step": 1,
                      "lambda": 0.25, "ensemble": "rademacher",
                      "radii": {"start": 1, "stop": 256, "step": 1}}
        out, widths = self.run_counted(tmp_path, monkeypatch, experiment)
        assert widths == [()]
        assert (out / "experiment.json").read_bytes() == self.separate_calls(
            tmp_path, out, experiment)

    def test_clipped_values_share_one_two_column_sweep(self, tmp_path,
                                                       monkeypatch):
        experiment = {"kind": "rotation", "modulus": 1024, "step": 1,
                      "lambda": 0.25, "ensemble": "gaussian",
                      "radii": {"start": 1, "stop": 64, "step": 1}}
        with pytest.warns(UserWarning, match="clipped"):
            out, widths = self.run_counted(tmp_path, monkeypatch, experiment)
        assert widths == [(2,)]
        blob = json.loads((out / "experiment.json").read_text())
        assert any("clipped" in n for n in blob["tail"]["notes"])
        with pytest.warns(UserWarning, match="clipped"):
            assert (out / "experiment.json").read_bytes() == (
                self.separate_calls(tmp_path, out, experiment))
