"""The package namespace: `import ergolab` loads a library module only when
one of its public names is first used, and a CLI process executes only the
library modules its command runs, and loads OpenSSL only when it draws."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab
from ergolab import cli

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str, result: str):
    """The value of the JSON expression ``result`` in a fresh interpreter
    that has run ``code``."""
    script = f"import json, sys, types\n{code}\nprint(json.dumps({result}))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _loaded_after(code: str) -> list[str]:
    """The ergolab modules a fresh interpreter holds after running code."""
    return _fresh(code, "sorted(k for k in sys.modules\n"
                        "    if k == 'ergolab' or k.startswith('ergolab.'))")


# a module counts as executed once it is a plain module: a lazy entry of
# `sys.modules` has its own subclass until its first attribute access, and
# `type` reads no attribute
_EXECUTED = ("sorted(k for k, m in sys.modules.items()\n"
             "    if k.startswith('ergolab.') and type(m) is types.ModuleType)")
_NUMPY_MA = ("sorted(k for k in sys.modules\n"
             "    if k == 'numpy.ma' or k.startswith('numpy.ma.'))")
_SMALL = {"space": {"family": "zd", "d": 2, "modulus": 16},
          "probe": {"trials": 2},
          "domination": {"trials": 1, "lambdas": [0.5]},
          "gundy": {"trials": 1, "gamma_factors": [1.5]},
          "transference": {"radii": [1.0, 2.0]},
          "experiment": {"modulus": 64, "radii": [1.0, 2.0, 4.0]}}


def test_building_a_space_loads_space_alone():
    assert _loaded_after(
        "import ergolab\n"
        "ergolab.build_group_space('zd', d=2, modulus=64)"
    ) == ["ergolab", "ergolab.space"]


def test_public_names_are_their_home_modules_objects():
    for name in ergolab.__all__:
        obj = getattr(ergolab, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert name in dir(ergolab), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ergolab.no_such_name


def test_submodule_import_falls_through():
    # cli is no public name, so the import system loads the submodule
    assert "ergolab.cli" in _loaded_after(
        "from ergolab import cli\nassert cli.__name__ == 'ergolab.cli'")


@pytest.mark.parametrize("argv,executed,draws", [
    (["space"], [], False),
    (["cubes"], ["cubes"], False),
    (["verify", "--suite", "axioms"], ["cubes"], False),
    (["probe"], ["cubes", "martingale", "operators", "stats"], True),
    (["experiment"], ["dynamics", "operators", "stats"], True),
    (["verify", "--suite", "gundy,transference"],
     ["cubes", "decomposition", "dynamics", "martingale", "operators",
      "stats"], True),
], ids=["space", "cubes", "axioms", "probe", "experiment",
        "gundy-transference"])
def test_a_command_executes_only_the_modules_it_runs(tmp_path, argv,
                                                     executed, draws):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_SMALL))
    _assert_executes(argv + ["--config", str(cfg),
                             "--out", str(tmp_path / "run")], executed,
                     draws)


def test_report_executes_cli_and_space_alone(tmp_path):
    # a probe bundle, whose probe.csv the report reads quantiles from
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_SMALL))
    out = tmp_path / "run"
    assert cli.main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
    _assert_executes(["report", "--out", str(out)], [], False)


def _assert_executes(argv: list[str], executed: list[str],
                     draws: bool) -> None:
    """``cli.main(argv)`` in a fresh interpreter exits 0, executes cli,
    space and the modules ``executed`` alone, loads no numpy.ma beyond
    what ``import numpy`` loads, and loads OpenSSL's ``_hashlib`` only if
    it ``draws`` random numbers."""
    code, ran, ma_numpy, ma_run, openssl, random = _fresh(
        "import numpy\n"
        f"ma_numpy = {_NUMPY_MA}\n"
        "from ergolab import cli\n"
        f"code = cli.main({argv!r})\n",
        f"[code, {_EXECUTED}, ma_numpy, {_NUMPY_MA},\n"
        "    '_hashlib' in sys.modules, 'numpy.random' in sys.modules]")
    assert code == 0
    assert ran == [f"ergolab.{m}"
                   for m in sorted(["cli", "space", *executed])]
    # np.unique, np.median and np.quantile (numpy 2.4) import numpy.ma for
    # mask checks
    assert ma_run == ma_numpy
    # the config hash and the suite seeds are plain Python; a command that
    # draws loads OpenSSL through numpy.random alone (its `secrets` imports
    # `hmac`)
    assert random == draws
    assert random or not openssl


def test_cli_reads_the_modules_imported_before_it(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"space": {"modulus": 64},
                               "probe": {"trials": 1,
                                         "operators": ["average"]}}))
    out = tmp_path / "run"
    same, code = _fresh(
        "import ergolab\n"
        "import ergolab.operators as operators\n"
        "from ergolab import cli\n"
        "same = (all(getattr(cli, m) is getattr(ergolab, m)\n"
        "            is sys.modules[f'ergolab.{m}']\n"
        "            for m in ('cubes', 'martingale', 'operators'))\n"
        "        and cli.operators is operators\n"
        "        and operators.cubes is cli.cubes\n"
        "        and operators.martingale is cli.martingale)\n"
        "real = operators._fft_chunks\n"
        "def one_entry_off(*args):\n"
        "    for chunk in real(*args):\n"
        "        chunk[-1, 0, 0] += 1e-6\n"
        "        yield chunk\n"
        "operators._fft_chunks = one_entry_off\n"
        f"code = cli.main(['probe', '--config', {str(cfg)!r},\n"
        f"                 '--out', {str(out)!r}])\n",
        "[same, code]")
    assert same
    # the spot check's SpotCheckError is the class cli catches
    assert code == 1
    assert ("FAIL: average: FFT ball average mismatch at point 0"
            in (out / "summary.txt").read_text())
