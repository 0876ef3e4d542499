"""Martingale structure of a dyadic cube system.

Conditional expectations average over cubes; differences between
consecutive levels give the martingale decomposition, with the dyadic
maximal function on top.  Cube averages commute into the tower identity
E_k(E_j f) = E_{max(j,k)} f only in exact arithmetic, so next to the fast
float path there is a rational path (floats are dyadic rationals) used by
``tower_check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cubes import DyadicSystem
from .stats import jump_count_batch

__all__ = [
    "SampleFunction",
    "MartingaleParts",
    "expectation",
    "expectation_block",
    "expectation_exact",
    "tower_check",
    "differences",
    "maximal_block",
    "martingale_jump_probe",
    "weighted_norm",
]


@dataclass(frozen=True)
class SampleFunction:
    """A real-valued function on the points of a space."""

    space_label: str
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return len(self.values)


def weighted_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """L^p norm with respect to the weight measure (p = inf for the sup).

    When values**p leaves the float range (the sum is inf, or 0 for
    nonzero values), the norm is taken of the values scaled by their
    maximum, and scaled back."""
    values = np.abs(np.asarray(values, dtype=float))
    if p == np.inf:
        return float(values.max()) if values.size else 0.0
    if p <= 0:
        raise ValueError("p must be positive")
    with np.errstate(over="ignore"):
        total = (weights * values**p).sum()
    if 0 < total < np.inf or not values.any():
        return float(total ** (1.0 / p))
    top = values.max()
    return float(top * (weights * (values / top) ** p).sum() ** (1.0 / p))


def _check_function(f: SampleFunction, system: DyadicSystem) -> np.ndarray:
    if len(f.values) != system.space.n:
        raise ValueError(
            f"function has {len(f.values)} values, space has {system.space.n} points")
    return f.values


def expectation(f: SampleFunction, system: DyadicSystem, k: int) -> SampleFunction:
    """Conditional expectation onto the level-k cubes (their averages)."""
    return SampleFunction(f.space_label, expectation_block(
        _check_function(f, system), system, k))


def expectation_block(values: np.ndarray, system: DyadicSystem,
                      k: int) -> np.ndarray:
    """`expectation` of every column of an (n,) or (n, T) array, in point
    order; each column equals its one-column call bit for bit."""
    means = system.cube_averages(k, values)
    return means[system.assign[system.level_index(k)]]


def expectation_exact(values: Sequence, system: DyadicSystem,
                      k: int) -> list[Fraction]:
    """The same averaging done in exact rational arithmetic.

    Floats convert losslessly to Fraction, so feeding the output back in
    composes conditional expectations with zero rounding.
    """
    if len(values) != system.space.n:
        raise ValueError("length mismatch")
    out = [Fraction(0)] * system.space.n
    for cube in range(system.n_cubes(k)):
        mem = system.members(k, cube)
        mean = sum(Fraction(values[x]) for x in mem) / len(mem)
        for x in mem:
            out[x] = mean
    return out


def tower_check(f: SampleFunction, system: DyadicSystem, j: int, k: int) -> bool:
    """Whether E_k(E_j f) == E_{max(j,k)} f holds exactly (in Q)."""
    values = list(_check_function(f, system))
    lhs = expectation_exact(expectation_exact(values, system, j), system, k)
    rhs = expectation_exact(values, system, max(j, k))
    return lhs == rhs


@dataclass(frozen=True)
class MartingaleParts:
    """Difference decomposition f = remainder + sum of level differences.

    ``diffs[i]`` is D at ``levels[i]`` (finer minus coarser expectation);
    the remainder is the coarsest expectation.  When the finest level does
    not separate points the reconstruction only recovers the finest-level
    average of f, and ``point_separating`` is False.
    """

    levels: tuple[int, ...]
    diffs: tuple[SampleFunction, ...]
    remainder: SampleFunction
    point_separating: bool

    def reconstruct(self) -> np.ndarray:
        total = self.remainder.values.copy()
        for d in self.diffs:
            total += d.values
        return total


def differences(f: SampleFunction, system: DyadicSystem) -> MartingaleParts:
    values = _check_function(f, system)
    if len(system.levels) < 2:
        raise ValueError("need at least two levels to form differences")
    exps = [expectation(f, system, k).values for k in system.levels]
    diffs = tuple(
        SampleFunction(f.space_label, exps[i - 1] - exps[i])
        for i in range(1, len(system.levels)))
    remainder = SampleFunction(f.space_label, exps[-1])
    separating = len(system.centers[0]) == system.space.n
    return MartingaleParts(tuple(system.levels[1:]), diffs, remainder,
                           separating)


def maximal_block(values: np.ndarray, system: DyadicSystem) -> np.ndarray:
    """Pointwise maximum of E_k|f| over the levels for each column f of an
    (n,) or (n, T) array, one level at a time for all the columns."""
    absf = np.abs(values)
    best = np.zeros(absf.shape)
    for k in system.levels:
        np.maximum(best, expectation_block(absf, system, k), out=best)
    return best


def martingale_jump_probe(system: DyadicSystem, *, trials: int = 200,
                          seed: int = 0, p: float = 2.0) -> dict:
    """Empirical size of sup_lambda ||lambda sqrt(N_lambda(E.f))||_p / ||f||_p
    over lambda in (0.1, 0.5, 1.0).

    The martingale of each random f is read per point as a sequence over
    the levels (coarse to fine) and fed to the jump counter.  This probes
    the jump inequality's constant; it reports, it does not certify.
    """
    rng = np.random.default_rng(seed)
    w = system.space.weights
    ratios = []
    for _ in range(trials):
        values = rng.standard_normal(system.space.n)
        f = SampleFunction(system.space.label, values)
        rows = np.stack([expectation(f, system, k).values
                         for k in reversed(system.levels)])
        fnorm = weighted_norm(values, w, p)
        if fnorm == 0.0:
            continue
        best = 0.0
        for lam in (0.1, 0.5, 1.0):
            counts = jump_count_batch(rows, lam)
            best = max(best, weighted_norm(lam * np.sqrt(counts), w, p) / fnorm)
        ratios.append(best)
    arr = np.array(ratios)
    return {
        "trials": int(arr.size),
        "p": float(p),
        "max_ratio": float(arr.max()),
        "mean_ratio": float(arr.mean()),
    }
