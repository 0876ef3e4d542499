"""ergolab: empirical checks of jump/variation averaging machinery on
finite groups and finite metric measure spaces.

The modules build on each other roughly bottom-up:

- ``stats``: jump counts, q-variation, upcrossings, and their oracles
- ``space``: finite metric measure spaces, group balls, growth exponent,
  annular decay and the doubling cover
- ``cubes``: dyadic cube systems, their axioms and boundary constants
- ``martingale``: conditional expectations, differences, maximal functions
- ``operators``: averaging operators, domination checks, norm probes
- ``decomposition``: Gundy-style splits over a cube system
- ``dynamics``: measure-preserving actions, transference, tail experiments
- ``cli``: JSON-configured runner producing deterministic artifacts

A public name loads its home module on first use (PEP 562), so
``import ergolab`` alone imports none of them.  A library module reached
through the package (``ergolab.operators``, ``from . import cubes``) is
registered lazily and executes on its first attribute access, so ``cli``
runs only the modules of the command it is given.
"""

import importlib
import importlib.util
import sys
import threading

__version__ = "0.1.0"

# home module -> the public names it lends the package
_EXPORTS = {
    "cubes": ("AxiomReport", "BoundaryConstants", "DyadicSystem", "HKParams",
              "build_cubes", "verify_cube_axioms"),
    "decomposition": ("GundyError", "GundyResult", "gundy_decompose"),
    "dynamics": ("ActionError", "MPSystem", "build_system",
                 "convergence_probe", "regular_system", "tail_experiment",
                 "transference_check"),
    "martingale": ("SampleFunction", "differences", "expectation",
                   "tower_check", "weighted_norm"),
    "operators": ("DominationReport", "NormProbeReport", "OperatorConfig",
                  "SpotCheckError", "domination_check", "norm_probe"),
    "space": ("BallTable", "GroupSpace", "MatrixSpace",
              "annular_decay_profile", "build_group_space",
              "fit_growth_exponent", "geometric_doubling_check",
              "random_square_space"),
    "stats": ("jump_count", "jump_count_oracle", "upcrossing_count",
              "variation", "variation_oracle"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
# two threads that reach one module for the first time register one copy
_LAZY_LOCK = threading.Lock()

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return _lazy_module(f"{__name__}.{name}")
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{mod}"), name)


def _lazy_module(full):
    """The module ``full`` from `sys.modules`, where one is (a second copy
    would hold a second `SpotCheckError` class); else a new entry there
    that executes on its first attribute access."""
    with _LAZY_LOCK:
        if full in sys.modules:
            return sys.modules[full]
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        return module


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
