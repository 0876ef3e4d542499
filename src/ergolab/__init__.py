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
"""

from ergolab.cubes import (AxiomReport, BoundaryConstants, DyadicSystem,
                           HKParams, build_cubes, verify_cube_axioms)
from ergolab.decomposition import GundyError, GundyResult, gundy_decompose
from ergolab.dynamics import (ActionError, MPSystem, build_system,
                              convergence_probe, regular_system,
                              tail_experiment, transference_check)
from ergolab.martingale import (SampleFunction, differences, dyadic_maximal,
                                expectation, sharp_maximal_bmo, tower_check,
                                weighted_norm)
from ergolab.operators import (DominationReport, NormProbeReport,
                               OperatorConfig, SpotCheckError,
                               domination_check, norm_probe, square_function)
from ergolab.space import (BallTable, GroupSpace, MatrixSpace,
                           annular_decay_profile, build_group_space,
                           fit_growth_exponent, geometric_doubling_check,
                           random_square_space)
from ergolab.stats import (jump_count, jump_count_oracle, upcrossing_count,
                           variation, variation_oracle)

__version__ = "0.1.0"

__all__ = [
    "ActionError",
    "AxiomReport",
    "BallTable",
    "BoundaryConstants",
    "DominationReport",
    "DyadicSystem",
    "GroupSpace",
    "GundyError",
    "GundyResult",
    "HKParams",
    "MPSystem",
    "MatrixSpace",
    "NormProbeReport",
    "OperatorConfig",
    "SampleFunction",
    "SpotCheckError",
    "annular_decay_profile",
    "build_cubes",
    "build_group_space",
    "build_system",
    "convergence_probe",
    "differences",
    "domination_check",
    "dyadic_maximal",
    "expectation",
    "fit_growth_exponent",
    "geometric_doubling_check",
    "gundy_decompose",
    "jump_count",
    "jump_count_oracle",
    "norm_probe",
    "random_square_space",
    "regular_system",
    "sharp_maximal_bmo",
    "square_function",
    "tail_experiment",
    "tower_check",
    "transference_check",
    "upcrossing_count",
    "variation",
    "variation_oracle",
    "verify_cube_axioms",
    "weighted_norm",
]
