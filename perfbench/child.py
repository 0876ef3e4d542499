"""Child-process entry points of the benchmark.

    python child.py setup SPEC_JSON
        import ergolab and build the workload's space or system (none for
        an empty SPEC_JSON), then print where ergolab was imported from;
    python child.py trace SPANS_PATH CLI_ARG...
        run ``ergolab.cli.main(CLI_ARG...)`` with the tracer installed, write
        the spans and counters to SPANS_PATH and exit with the CLI's code.

Both run with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys


def setup(spec: dict) -> int:
    import ergolab

    if "space" in spec:
        ergolab.build_group_space(**spec["space"])
    elif "system" in spec:
        ergolab.build_system(**spec["system"])
    print(ergolab.__file__)
    return 0


def trace(spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    from ergolab import cli

    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(json.loads(sys.argv[2])))
    if mode == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
