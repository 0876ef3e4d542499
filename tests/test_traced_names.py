"""The benchmark tracer wraps ergolab functions by name; every name it lists
must still resolve, or a traced benchmark run fails at install time."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    import ergolab.cli  # noqa: F401  (loads every traced module, as install does)

    missing = []
    for mod_name, attr, name in tracer.FUNCTIONS:
        mod = sys.modules.get(f"ergolab.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
        else:
            fn = getattr(mod, attr, None)
        if not callable(fn):
            missing.append(f"{name} (ergolab.{mod_name}.{attr})")
    assert not missing, f"traced names that no longer resolve: {missing}"
