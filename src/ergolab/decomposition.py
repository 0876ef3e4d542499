"""Calderon-Zygmund-type decompositions over a dyadic cube system.

``gundy_decompose`` splits f at height gamma into a good part g, mean-zero
local parts b supported on the stopping cubes, and mean-zero correction
parts xi paired with the stopping cubes' parents; the classical bounds
(g in L^p against gamma^(p-1) ||f||_1, the b parts against 2||f||_1, the
xi parts against 4||f||_1) are computed and attached, never assumed.

The split runs level by level, never cube by cube.  The stopping cubes of
a level are a mask over its cubes ("average of |f| above gamma, and no
ancestor stopped", the blocked flag pushed down the parent tables), and
each part's integral and l1 norm is a segment sum over the cube index, so
no part is expanded onto its support.  The result keeps the per-level
masks and sums; its ``stopping``, ``b_parts`` and ``xi_parts`` tuples are
built from them on first access.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cubes import DyadicSystem
from .martingale import SampleFunction, weighted_norm

# the log of the largest float, past which `g_norm_bound` is inf
_LOG_MAX = math.log(sys.float_info.max)

__all__ = [
    "GundyError",
    "StoppingCube",
    "GundyPart",
    "GundyResult",
    "gundy_decompose",
]


class GundyError(ValueError):
    """The decomposition is not defined for these inputs."""


class StoppingCube(NamedTuple):
    level: int
    cube: int
    abs_average: float       # cube average of |f|, the stopping statistic
    mean: float              # cube average of f
    parent_mean: float
    measure: float
    parent_measure: float


class GundyPart(NamedTuple):
    """One b or xi part, stored on its support: the part equals ``values``
    at the points ``support`` (ascending) and vanishes elsewhere.  A b part
    lives on its stopping cube, a xi part on the stopping cube's parent."""

    level: int
    cube: int
    support: np.ndarray
    values: np.ndarray
    integral: float
    l1: float


@dataclass(frozen=True)
class GundyResult:
    gamma: float
    p: float
    f_l1: float
    g: SampleFunction
    reconstruction_gap: float   # relative to ||f||_1 (0 when f == 0)
    b_l1: float
    xi_l1: float
    g_p_power: float            # ||g||_p^p
    g_bound: float              # 3 * 2^p * (m!)^((p-1)/(m-1)) * gamma^(p-1) * ||f||_1
    max_part_integral: float    # worst |integral| over all b and xi parts
    # per-level state the stopping and part tuples are built from; entry li
    # of the tuples belongs to level system.levels[li]
    system: DyadicSystem = field(repr=False, compare=False)
    f_values: np.ndarray = field(repr=False, compare=False)
    stops: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    abs_averages: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    means: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    measures: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    # one row per stopping cube, in the order of ``stopping``:
    # b integral, b l1, xi integral, xi l1
    part_sums: np.ndarray = field(repr=False, compare=False)

    @property
    def bounds_ok(self) -> bool:
        """All three bounds hold; false when the bound on ||g||_p^p is inf
        (past the float range), which any norm would pass."""
        slack = 1e-9
        return bool(math.isfinite(self.g_bound)
                    and self.b_l1 <= 2.0 * self.f_l1 * (1 + slack) + 1e-15
                    and self.xi_l1 <= 4.0 * self.f_l1 * (1 + slack) + 1e-15
                    and self.g_p_power <= self.g_bound * (1 + slack) + 1e-15)

    @property
    def stop_counts(self) -> dict[int, int]:
        """Number of stopping cubes at each level below the coarsest."""
        return {self.system.levels[li]: int(stop.sum())
                for li, stop in enumerate(self.stops)}

    @cached_property
    def stopping(self) -> tuple[StoppingCube, ...]:
        """The stopping cubes, coarsest level first and ascending within a
        level: the order of the part tuples and of ``part_sums``."""
        system = self.system
        out = []
        for li in range(len(self.stops) - 1, -1, -1):
            cubes = np.flatnonzero(self.stops[li])
            for cube, parent in zip(cubes.tolist(),
                                    system.parents[li][cubes].tolist()):
                out.append(StoppingCube(
                    level=system.levels[li], cube=cube,
                    abs_average=float(self.abs_averages[li][cube]),
                    mean=float(self.means[li][cube]),
                    parent_mean=float(self.means[li + 1][parent]),
                    measure=float(self.measures[li][cube]),
                    parent_measure=float(self.measures[li + 1][parent])))
        return tuple(out)

    @cached_property
    def b_parts(self) -> tuple[GundyPart, ...]:
        """b_Q = (f - <f>_Q) 1_Q on each stopping cube Q."""
        parts = []
        for stop, row in zip(self.stopping, self.part_sums):
            members = self.system.members(stop.level, stop.cube)
            parts.append(GundyPart(
                stop.level, stop.cube, members, self.f_values[members] - stop.mean,
                float(row[0]), float(row[1])))
        return tuple(parts)

    @cached_property
    def xi_parts(self) -> tuple[GundyPart, ...]:
        """xi_Q = d_Q (1_Q - m(Q)/m(P) 1_P) on each stopping cube Q's parent
        P, with d_Q = <f>_Q - <f>_P."""
        system = self.system
        parts = []
        for stop, row in zip(self.stopping, self.part_sums):
            members = system.members(stop.level, stop.cube)
            li = system.level_index(stop.level)
            parent = int(system.parents[li][stop.cube])
            pmembers = system.members(system.levels[li + 1], parent)
            ratio = stop.measure / stop.parent_measure
            xv = np.full(len(pmembers), -(stop.mean - stop.parent_mean) * ratio)
            # both member lists ascend, and the cube nests in its parent
            xv[np.searchsorted(pmembers, members)] += stop.mean - stop.parent_mean
            parts.append(GundyPart(stop.level, stop.cube, pmembers, xv,
                                   float(row[2]), float(row[3])))
        return tuple(parts)


def g_norm_bound(gamma: float, f_l1: float, p: float) -> float:
    """The stated bound on ||g||_p^p: 3*2^p*(m!)^((p-1)/(m-1))*gamma^(p-1)*||f||_1
    with m = floor(p) + 1.  A factor or partial product past the float range
    is retaken in logarithms, which give inf only for a bound past it."""
    m = math.floor(p) + 1
    try:
        bound = (3.0 * 2.0**p * math.factorial(m) ** ((p - 1.0) / (m - 1.0))
                 * gamma ** (p - 1.0) * f_l1)
    except OverflowError:
        bound = math.inf
    if math.isfinite(bound):
        return bound
    if f_l1 == 0:
        return 0.0
    log = (math.log(3.0) + p * math.log(2.0)
           + (p - 1.0) / (m - 1.0) * math.lgamma(m + 1.0)
           + (p - 1.0) * math.log(gamma) + math.log(f_l1))
    return math.exp(log) if log < _LOG_MAX else math.inf


def gundy_decompose(f: SampleFunction, system: DyadicSystem, gamma: float,
                    p: float = 2.0) -> GundyResult:
    """Split f at height gamma over the maximal cubes where the average of
    |f| first exceeds gamma.

    The scan runs from the coarsest level down; a cube stops when its
    |f|-average exceeds gamma and no ancestor has stopped already, so the
    stopping family is disjoint and every strict ancestor has average
    <= gamma.  A stop at the coarsest level would need a parent that the
    system cannot provide, which is the gamma-below-global-average case.
    The "no ancestor stopped" flag is pushed down one level at a time
    through the parent tables, which needs every cube to nest in its
    parent; a system whose assignments do not nest is refused.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if p < 1:
        raise ValueError("p must be at least 1")
    if len(system.levels) < 2:
        raise GundyError("need at least two levels (parents must exist)")
    space = system.space
    values = f.values
    if len(values) != space.n:
        raise ValueError("function length does not match the space")
    levels, assign = system.levels, system.assign
    for li in range(len(levels) - 1):
        if not np.array_equal(assign[li + 1], system.parents[li][assign[li]]):
            raise GundyError(
                f"level {levels[li]} does not nest in level {levels[li + 1]}: "
                f"assign[{li + 1}] != parents[{li}][assign[{li}]]")

    abs_avgs = tuple(system.cube_averages(k, np.abs(values)) for k in levels)
    means = tuple(system.cube_averages(k, values) for k in levels)
    measures = tuple(system.cube_measures(k) for k in levels)

    top = len(levels) - 1
    if np.any(abs_avgs[top] > gamma):
        raise GundyError(
            f"gamma={gamma} below global average; enlarge system or raise "
            f"gamma (coarsest-level average reaches {abs_avgs[top].max()})")

    # g = (f off the stopping set, parent mean on each stopping cube)
    #     + compensating lumps d_Q m(Q)/m(P) spread over the parents
    base = np.array(values, dtype=float)
    lump = np.zeros(space.n)
    b_sum = np.zeros(space.n)       # the b parts have disjoint supports
    spikes = np.zeros(space.n)      # d_Q on each stopping cube Q
    stops: list[np.ndarray] = []    # coarsest level first
    sums: list[np.ndarray] = []
    blocked = np.zeros(len(measures[top]), dtype=bool)
    for li in range(top - 1, -1, -1):
        a, par = assign[li], system.parents[li]
        inherited = blocked[par]
        stop = (abs_avgs[li] > gamma) & ~inherited
        blocked = inherited | stop
        stops.append(stop)
        cubes = np.flatnonzero(stop)
        if not cubes.size:
            continue
        parents = par[cubes]
        mq, mp = measures[li][cubes], measures[li + 1][parents]
        d = means[li][cubes] - means[li + 1][parents]
        ratio = mq / mp
        # the two values of xi_Q: on Q, and on the rest of its parent
        outside = -d * ratio
        inside = outside + d

        pts = np.flatnonzero(stop[a])       # the points of the stopped cubes
        cq = a[pts]
        pmean = means[li + 1][par[cq]]
        bv = values[pts] - means[li][cq]
        b_sum[pts] = bv
        spikes[pts] = means[li][cq] - pmean
        base[pts] = pmean
        lump += np.bincount(parents, weights=d * ratio,
                            minlength=len(measures[li + 1]))[assign[li + 1]]
        sums.append(np.stack([
            np.bincount(cq, weights=bv, minlength=len(stop))[cubes],
            np.bincount(cq, weights=np.abs(bv), minlength=len(stop))[cubes],
            inside * mq + outside * (mp - mq),
            np.abs(inside) * mq + np.abs(outside) * (mp - mq)], axis=1))

    part_sums = np.concatenate(sums) if sums else np.zeros((0, 4))
    g = base + lump
    f_l1 = weighted_norm(values, space.weights, 1)
    # f = g + sum of b parts + sum of xi parts, where the xi parts sum to
    # the spikes minus the lumps
    gap = float(np.abs(g + b_sum + (spikes - lump) - values).max())
    rel_gap = gap / f_l1 if f_l1 > 0 else gap
    integrals = np.abs(part_sums[:, [0, 2]])

    return GundyResult(
        gamma=gamma, p=p, f_l1=f_l1,
        g=SampleFunction(f.space_label, g),
        reconstruction_gap=rel_gap,
        b_l1=float(part_sums[:, 1].sum()),
        xi_l1=float(part_sums[:, 3].sum()),
        g_p_power=float((np.abs(g) ** p).sum()),
        g_bound=g_norm_bound(gamma, f_l1, p),
        max_part_integral=float(integrals.max()) if integrals.size else 0.0,
        system=system, f_values=values, stops=tuple(reversed(stops)),
        abs_averages=abs_avgs, means=means, measures=measures,
        part_sums=part_sums)

