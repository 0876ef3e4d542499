"""Calderon-Zygmund-type decompositions over a dyadic cube system.

``gundy_decompose`` splits f at height gamma into a good part g, mean-zero
local parts b supported on the stopping cubes, and mean-zero correction
parts xi paired with the stopping cubes' parents; the classical bounds
(g in L^p against gamma^(p-1) ||f||_1, the b parts against 2||f||_1, the
xi parts against 4||f||_1) are computed and attached, never assumed.

``vitali_select`` is the greedy disjoint-ball selector whose 3-dilates
cover the input family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cubes import DyadicSystem
from .martingale import SampleFunction, weighted_norm

__all__ = [
    "GundyError",
    "StoppingCube",
    "GundyPart",
    "GundyResult",
    "gundy_decompose",
    "vitali_select",
    "vitali_dilate_check",
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
    stopping: tuple[StoppingCube, ...]
    g: SampleFunction
    b_parts: tuple[GundyPart, ...]
    xi_parts: tuple[GundyPart, ...]
    reconstruction_gap: float   # relative to ||f||_1 (0 when f == 0)
    b_l1: float
    xi_l1: float
    g_p_power: float            # ||g||_p^p
    g_bound: float              # 3 * 2^p * (m!)^((p-1)/(m-1)) * gamma^(p-1) * ||f||_1
    max_part_integral: float    # worst |integral| over all b and xi parts

    @property
    def bounds_ok(self) -> bool:
        slack = 1e-9
        return bool(self.b_l1 <= 2.0 * self.f_l1 * (1 + slack) + 1e-15
                    and self.xi_l1 <= 4.0 * self.f_l1 * (1 + slack) + 1e-15
                    and self.g_p_power <= self.g_bound * (1 + slack) + 1e-15)

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "p": self.p,
            "f_l1": self.f_l1,
            "stopping_cubes": [
                {"level": s.level, "cube": s.cube,
                 "abs_average": s.abs_average, "mean": s.mean,
                 "parent_mean": s.parent_mean, "measure": s.measure,
                 "parent_measure": s.parent_measure}
                for s in self.stopping],
            "b_l1": self.b_l1,
            "b_bound": 2.0 * self.f_l1,
            "xi_l1": self.xi_l1,
            "xi_bound": 4.0 * self.f_l1,
            "g_p_power": self.g_p_power,
            "g_bound": self.g_bound,
            "reconstruction_gap": self.reconstruction_gap,
            "max_part_integral": self.max_part_integral,
            "bounds_ok": self.bounds_ok,
        }


def g_norm_bound(gamma: float, f_l1: float, p: float) -> float:
    """The stated bound on ||g||_p^p: 3*2^p*(m!)^((p-1)/(m-1))*gamma^(p-1)*||f||_1
    with m = floor(p) + 1."""
    m = math.floor(p) + 1
    return (3.0 * 2.0**p * math.factorial(m) ** ((p - 1.0) / (m - 1.0))
            * gamma ** (p - 1.0) * f_l1)


def gundy_decompose(f: SampleFunction, system: DyadicSystem, gamma: float,
                    p: float = 2.0) -> GundyResult:
    """Split f at height gamma over the maximal cubes where the average of
    |f| first exceeds gamma.

    The scan runs from the coarsest level down; a cube stops when its
    |f|-average exceeds gamma and no ancestor has stopped already, so the
    stopping family is disjoint and every strict ancestor has average
    <= gamma.  A stop at the coarsest level would need a parent that the
    system cannot provide, which is the gamma-below-global-average case.
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
    w = space.weights

    abs_avgs = [system.cube_averages(k, np.abs(values)) for k in system.levels]
    mean_avgs = [system.cube_averages(k, values) for k in system.levels]
    measures = [system.cube_measures(k) for k in system.levels]

    top = len(system.levels) - 1
    if np.any(abs_avgs[top] > gamma):
        raise GundyError(
            f"gamma={gamma} below global average; enlarge system or raise "
            f"gamma (coarsest-level average reaches {abs_avgs[top].max()})")

    covered = np.zeros(space.n, dtype=bool)
    stopping: list[StoppingCube] = []
    # g = (f off the stopping set, parent mean on each stopping cube)
    #     + compensating lumps spread over the parents; the two layers are
    #     kept separate because a stopping cube can sit inside another
    #     stopping cube's parent
    base = np.array(values, dtype=float)
    lump = np.zeros(space.n)
    b_parts: list[GundyPart] = []
    xi_parts: list[GundyPart] = []
    for li in range(top - 1, -1, -1):
        k = system.levels[li]
        hot = np.nonzero(abs_avgs[li] > gamma)[0]
        for cube in hot:
            members = system.members(k, cube)
            if covered[members[0]]:
                continue
            covered[members] = True
            parent = int(system.parents[li][cube])
            pmembers = system.members(system.levels[li + 1], parent)
            mean = float(mean_avgs[li][cube])
            pmean = float(mean_avgs[li + 1][parent])
            mq = float(measures[li][cube])
            mp = float(measures[li + 1][parent])
            stopping.append(StoppingCube(
                level=k, cube=int(cube), abs_average=float(abs_avgs[li][cube]),
                mean=mean, parent_mean=pmean, measure=mq, parent_measure=mp))

            bv = values[members] - mean
            b_parts.append(GundyPart(
                k, int(cube), members, bv, float((w[members] * bv).sum()),
                weighted_norm(bv, w[members], 1)))

            ratio = mq / mp
            xv = np.full(len(pmembers), -(mean - pmean) * ratio)
            # both member lists ascend, and the cube nests in its parent
            xv[np.searchsorted(pmembers, members)] += mean - pmean
            xi_parts.append(GundyPart(
                k, int(cube), pmembers, xv, float((w[pmembers] * xv).sum()),
                weighted_norm(xv, w[pmembers], 1)))

            base[members] = pmean
            lump[pmembers] += (mean - pmean) * ratio

    g = base + lump
    f_l1 = weighted_norm(values, w, 1)
    recon = g.copy()
    max_int = 0.0
    for part in b_parts + xi_parts:
        recon[part.support] += part.values
        max_int = max(max_int, abs(part.integral))
    gap = float(np.abs(recon - values).max())
    rel_gap = gap / f_l1 if f_l1 > 0 else gap

    return GundyResult(
        gamma=gamma, p=p, f_l1=f_l1, stopping=tuple(stopping),
        g=SampleFunction(f.space_label, g),
        b_parts=tuple(b_parts), xi_parts=tuple(xi_parts),
        reconstruction_gap=rel_gap,
        b_l1=float(sum(part.l1 for part in b_parts)),
        xi_l1=float(sum(part.l1 for part in xi_parts)),
        g_p_power=float((w * np.abs(g) ** p).sum()),
        g_bound=g_norm_bound(gamma, f_l1, p),
        max_part_integral=max_int)


# ---------------------------------------------------------------------------
# Vitali selection
# ---------------------------------------------------------------------------

def vitali_select(space, balls: Sequence[tuple[int, float]]) -> list[int]:
    """Greedy disjoint subfamily: scan by descending radius (ties by input
    order), keep a ball iff it misses every kept ball.

    Every discarded ball then meets a kept ball of at least its radius, so
    the triangle inequality puts it inside that ball's 3-dilate.
    """
    for center, radius in balls:
        if radius <= 0:
            raise ValueError("radii must be positive")
        if not 0 <= center < space.n:
            raise ValueError("ball center outside the space")
    order = sorted(range(len(balls)), key=lambda i: (-balls[i][1], i))
    kept: list[int] = []
    union = np.zeros(space.n, dtype=bool)
    for i in order:
        center, radius = balls[i]
        mask = space.dist_row(center) <= radius
        if not np.any(mask & union):
            kept.append(i)
            union |= mask
    kept.sort()
    return kept


def vitali_dilate_check(space, balls: Sequence[tuple[int, float]],
                        kept: Sequence[int]) -> bool:
    """Exhaustively check union(balls) is inside union of kept 3-dilates."""
    covered = np.zeros(space.n, dtype=bool)
    for i in kept:
        center, radius = balls[i]
        covered |= space.dist_row(center) <= 3.0 * radius
    for center, radius in balls:
        if np.any((space.dist_row(center) <= radius) & ~covered):
            return False
    return True
