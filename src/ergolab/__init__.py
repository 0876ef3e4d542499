"""ergolab: empirical checks of jump/variation averaging machinery on
finite groups and finite metric measure spaces.

The modules build on each other roughly bottom-up:

- ``stats``: jump counts, q-variation, upcrossings, and their oracles
- ``space``: finite metric measure spaces, group balls, growth exponent,
  annular decay and the doubling cover
- ``cubes``: dyadic cube systems, their axioms and boundary constants
- ``martingale``: conditional expectations, differences, maximal functions
- ``operators``: averaging operators, square function, norm probes
- ``decomposition``: Gundy-style splits over a cube system
- ``dynamics``: measure-preserving actions, transference, tail experiments
- ``cli``: JSON-configured runner producing deterministic artifacts

A public name loads its home module on first use (PEP 562), so
``import ergolab`` alone imports none of them.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it lends the package
_EXPORTS = {
    "cubes": ("AxiomReport", "BoundaryConstants", "DyadicSystem", "HKParams",
              "build_cubes", "verify_cube_axioms"),
    "decomposition": ("GundyError", "GundyResult", "gundy_decompose"),
    "dynamics": ("ActionError", "MPSystem", "build_system",
                 "convergence_probe", "regular_system", "tail_experiment",
                 "transference_check"),
    "martingale": ("SampleFunction", "differences", "dyadic_maximal",
                   "expectation", "sharp_maximal_bmo", "tower_check",
                   "weighted_norm"),
    "operators": ("DominationReport", "NormProbeReport", "OperatorConfig",
                  "SpotCheckError", "domination_check", "norm_probe",
                  "square_function"),
    "space": ("BallTable", "GroupSpace", "MatrixSpace",
              "annular_decay_profile", "build_group_space",
              "fit_growth_exponent", "geometric_doubling_check",
              "random_square_space"),
    "stats": ("jump_count", "jump_count_oracle", "upcrossing_count",
              "variation", "variation_oracle"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{mod}"), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
