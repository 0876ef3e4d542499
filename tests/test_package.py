"""The package namespace: `import ergolab` loads a library module only when
one of its public names is first used."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after(code: str) -> list[str]:
    """The ergolab modules a fresh interpreter holds after running code."""
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps(sorted(k for k in sys.modules\n"
              "    if k == 'ergolab' or k.startswith('ergolab.'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


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
