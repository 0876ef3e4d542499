"""Ball averaging operators and the jump-domination machinery.

The radius axis is organized into delta-adic blocks [delta^n, delta^(n+1));
OperatorConfig fixes the finite radius grid inside each block.  On top of
the averages sit the square function (averages against martingale
expectations), the short-variation operator (V_2 within each block), the
two pointwise domination inequalities that transfer jump counts from the
full radius grid to the martingale, and randomized operator-norm probes.

Ball averages over a group quotient are computed by one sweep over the
spheres of the group, accumulating one right-translation at a time; the
sweep engine is shared with the dynamics module so that averages along a
measure-preserving action reproduce translation averages bit for bit when
the action is the group acting on itself.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .cubes import DyadicSystem
from .martingale import (SampleFunction, dyadic_maximal, expectation,
                         sharp_maximal_bmo, weighted_norm)
from .space import FiniteSpace, GroupSpace
from .stats import jump_count_batch, variation_batch

__all__ = [
    "BlockGrid",
    "OperatorConfig",
    "sweep_profile",
    "shell_sweep",
    "avg_profile",
    "translation_average",
    "square_function",
    "short_variation",
    "DominationReport",
    "domination_check",
    "ProbeRow",
    "NormProbeReport",
    "norm_probe",
    "fit_doubling_constant",
]


class BlockGrid(NamedTuple):
    n: int
    radii: tuple[float, ...]


@dataclass(frozen=True)
class OperatorConfig:
    """Radius bookkeeping shared by the averaging operators.

    n_r0 is the unique integer with delta^n_r0 < r0 <= delta^(n_r0+1).
    Each block n >= n_r0 carries the integer radii of
    [delta^n, delta^(n+1)) up to the space diameter (word metrics take
    integer values, so these are exactly the distinct balls), subsampled
    to at most block_cap radii; the first entry of a block is always the
    anchor delta^n.  A block containing no integer keeps the bare anchor.
    """

    delta: float
    r0: float
    n_r0: int
    block_cap: int
    blocks: tuple[BlockGrid, ...]
    notes: tuple[str, ...]

    @classmethod
    def for_space(cls, space: FiniteSpace, *, delta: float = 36.0,
                  r0: float | None = None, block_cap: int = 24) -> "OperatorConfig":
        if delta <= 1:
            raise ValueError("delta must exceed 1")
        if block_cap < 2:
            raise ValueError("block_cap must be at least 2")
        if r0 is None:
            r0 = space.r0
        if r0 <= 0:
            raise ValueError("r0 must be positive")
        n_r0 = int(math.floor(math.log(r0) / math.log(delta)))
        while delta**n_r0 >= r0:
            n_r0 -= 1
        while delta ** (n_r0 + 1) < r0:
            n_r0 += 1
        diam = space.diameter()
        notes: list[str] = []
        blocks: list[BlockGrid] = []
        n = n_r0
        while delta**n <= diam or n == n_r0:
            lo, hi = delta**n, delta ** (n + 1)
            first = int(math.ceil(lo))
            last = int(min(math.ceil(hi) - 1, math.floor(diam)))
            radii = [float(r) for r in range(first, last + 1) if lo <= r < hi]
            if not radii:
                radii = [lo]
            if len(radii) > block_cap:
                idx = np.unique(np.round(
                    np.geomspace(1, len(radii), block_cap)).astype(int) - 1)
                radii = [radii[i] for i in idx]
                notes.append(
                    f"block n={n} subsampled to {len(radii)} of "
                    f"{last - first + 1} integer radii")
            blocks.append(BlockGrid(n, tuple(radii)))
            n += 1
        notes.append(
            "radius axis is the finite union of the per-block grids; all "
            "suprema over r are over this set")
        return cls(delta=delta, r0=float(r0), n_r0=n_r0,
                   block_cap=block_cap, blocks=tuple(blocks),
                   notes=tuple(notes))

    def __post_init__(self) -> None:
        if not (self.delta**self.n_r0 < self.r0 <= self.delta ** (self.n_r0 + 1)):
            raise ValueError("n_r0 does not satisfy its defining inequality")
        for block in self.blocks:
            if any(b <= a for a, b in zip(block.radii, block.radii[1:])):
                raise ValueError(f"block n={block.n} grid is not increasing")

    def union_grid(self) -> tuple[float, ...]:
        return tuple(r for block in self.blocks for r in block.radii)

    def anchor(self, n: int) -> float:
        return self.delta**n

    def eligible_levels(self, system: DyadicSystem) -> list[int]:
        """Block levels n > n_r0, which must exist in the cube system."""
        wanted = [b.n for b in self.blocks if b.n > self.n_r0]
        missing = [n for n in wanted if n not in system.levels]
        if missing:
            raise ValueError(
                f"cube system lacks levels {missing} required by the "
                f"radius blocks (system has {list(system.levels)})")
        return wanted


# ---------------------------------------------------------------------------
# ball averages
# ---------------------------------------------------------------------------

def sweep_profile(values: np.ndarray, weights: np.ndarray,
                  shells: Iterable[tuple[int, Sequence[np.ndarray]]],
                  radii: Sequence[float]) -> np.ndarray:
    """Ball-average profile from one pass over translation shells.

    ``shells`` yields (distance, permutations at that distance) in strictly
    increasing distance order, distance >= 1; the identity is implicit.
    Row i of the result is the average over the closed ball of radius
    radii[i].  Keeping one accumulation order per shell makes two callers
    with equal shells produce bitwise-equal output.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size and np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    n = len(values)
    out = np.empty((len(radii), n))
    uniform = bool(np.all(weights == weights[0]))
    if uniform:
        acc = np.array(values, dtype=float)
        count = 1
    else:
        vw = weights * values
        num = vw.copy()
        den = np.array(weights, dtype=float)
    ridx = 0

    def emit(limit: float) -> None:
        nonlocal ridx
        while ridx < len(radii) and radii[ridx] < limit:
            out[ridx] = acc / count if uniform else num / den
            ridx += 1

    for dist, perms in shells:
        emit(dist)
        if ridx >= len(radii):
            break
        for perm in perms:
            if uniform:
                acc += values[perm]
                count += 1
            else:
                num += vw[perm]
                den += weights[perm]
    emit(np.inf)
    return out


def shell_sweep(values: np.ndarray, weights: np.ndarray, group: GroupSpace,
                perm: Callable[[int], np.ndarray], radii: Sequence[float]) -> np.ndarray:
    """`sweep_profile` over the spheres of ``group`` up to min(max radius,
    diameter); ``perm(j)`` is called only as the sweep reaches element j."""
    rmax = min(int(math.floor(max(radii))), int(group.diameter()))

    def shells():
        for s in range(1, rmax + 1):
            sl = group.shell_slice(s)
            yield s, [perm(j) for j in range(sl.start, sl.stop)]

    return sweep_profile(values, weights, shells(), radii)


def avg_profile(values: np.ndarray, space: FiniteSpace,
                radii: Sequence[float]) -> np.ndarray:
    """(len(radii), n) ball averages; radii strictly increasing."""
    values = np.asarray(values, dtype=float)
    if values.shape != (space.n,):
        raise ValueError("values must have one entry per point")
    if space.has_group_fastpath:
        return shell_sweep(values, space.weights, space, space.right_perm, radii)
    radii = np.asarray(radii, dtype=float)
    if radii.size and np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    out = np.empty((len(radii), space.n))
    w = space.weights
    for x in range(space.n):
        row = space.dist_row(x)
        order = np.argsort(row, kind="stable")
        srow = row[order]
        cw = np.cumsum(w[order])
        cvw = np.cumsum((w * values)[order])
        pos = np.searchsorted(srow, radii, side="right") - 1
        out[:, x] = cvw[pos] / cw[pos]
    return out


def translation_average(f: SampleFunction, space: FiniteSpace,
                        r: float) -> SampleFunction:
    """Average of f over the closed r-ball around each point.

    Radii beyond the safe radius are allowed but warned about: on
    truncations the balls touch the artificial boundary, on quotients they
    wrap around.
    """
    if r > space.safe_radius:
        warnings.warn(
            f"radius {r} exceeds the safe radius {space.safe_radius} of "
            f"{space.label}; averages are contaminated by the boundary")
    return SampleFunction(f.space_label, avg_profile(f.values, space, [r])[0])


# ---------------------------------------------------------------------------
# square function and short variation
# ---------------------------------------------------------------------------

def square_function(f: SampleFunction, system: DyadicSystem,
                    config: OperatorConfig) -> SampleFunction:
    """l^2 size of (average at scale delta^n) - (expectation at level n)
    over the levels n > n_r0."""
    levels = config.eligible_levels(system)
    if not levels:
        raise ValueError("no eligible levels above n_r0; the space is too "
                         "small for this delta")
    radii = [config.anchor(n) for n in levels]
    rows = avg_profile(f.values, system.space, radii)
    acc = np.zeros(system.space.n)
    for i, n in enumerate(levels):
        diff = rows[i] - expectation(f, system, n).values
        acc += diff * diff
    return SampleFunction(f.space_label, np.sqrt(acc))


def _block_variations(rows: np.ndarray, config: OperatorConfig) -> np.ndarray:
    """Per-block V_2 of the profile rows; shape (n_blocks, n_points)."""
    out = np.empty((len(config.blocks), rows.shape[1]))
    offset = 0
    for bi, block in enumerate(config.blocks):
        sub = rows[offset:offset + len(block.radii)]
        out[bi] = variation_batch(sub, 2.0)
        offset += len(block.radii)
    return out


def short_variation(f: SampleFunction, space: FiniteSpace,
                    config: OperatorConfig) -> SampleFunction:
    """l^2 over blocks of the V_2 of r -> A'_r f within each block."""
    rows = avg_profile(f.values, space, config.union_grid())
    blocks = _block_variations(rows, config)
    return SampleFunction(f.space_label, np.sqrt((blocks**2).sum(axis=0)))


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------

_GRID_NOTE = ("jump on the left evaluated over the finite union of block "
              "grids; suprema over a continuum of radii reduce to this set "
              "because averages on an integer-valued metric are constant "
              "between consecutive integer radii")


@dataclass(frozen=True)
class DominationReport:
    """Pointwise evaluation of the two jump-transfer inequalities.

    ``rhs_anchor`` bounds the full-grid jump by jumps of the delta-adic
    anchor subsequence plus short variation; ``rhs_martingale`` pushes on
    to the martingale: square function, short variation, and jumps of the
    martingale itself.
    """

    lam: float
    grid: tuple[float, ...]
    lhs: np.ndarray
    rhs_anchor: np.ndarray
    rhs_martingale: np.ndarray
    square: np.ndarray
    short_var: np.ndarray
    anchor_jumps: np.ndarray
    martingale_jumps: np.ndarray
    violations_anchor: np.ndarray
    violations_martingale: np.ndarray
    note: str = _GRID_NOTE

    @property
    def ok(self) -> bool:
        return (self.violations_anchor.size == 0
                and self.violations_martingale.size == 0)


def domination_check(f: SampleFunction, system: DyadicSystem,
                     config: OperatorConfig, lam: float) -> DominationReport:
    if lam <= 0:
        raise ValueError("lam must be positive")
    space = system.space
    levels = config.eligible_levels(system)
    grid = config.union_grid()
    rows = avg_profile(f.values, space, grid)

    lhs = lam * np.sqrt(jump_count_batch(rows, lam))

    sv = np.sqrt((_block_variations(rows, config) ** 2).sum(axis=0))

    # anchor rows sit at the start of their blocks within the union grid
    offsets = np.cumsum([0] + [len(b.radii) for b in config.blocks[:-1]])
    anchor_idx = [offsets[i] for i, b in enumerate(config.blocks)
                  if b.n > config.n_r0]
    anchor_rows = rows[anchor_idx]
    anchor_jumps = jump_count_batch(anchor_rows, lam / 6.0)
    rhs_anchor = 2.0 * lam * np.sqrt(anchor_jumps) + 16.0 * sv

    exp_rows = np.stack([expectation(f, system, n).values for n in levels])
    square = np.sqrt(((anchor_rows - exp_rows) ** 2).sum(axis=0))
    martingale_jumps = jump_count_batch(exp_rows, lam / 24.0)
    rhs_martingale = (96.0 * math.sqrt(2.0) * square + 16.0 * sv
                      + 2.0 * math.sqrt(2.0) * lam * np.sqrt(martingale_jumps))

    return DominationReport(
        lam=lam, grid=grid, lhs=lhs,
        rhs_anchor=rhs_anchor, rhs_martingale=rhs_martingale,
        square=square, short_var=sv,
        anchor_jumps=anchor_jumps, martingale_jumps=martingale_jumps,
        violations_anchor=np.nonzero(lhs > rhs_anchor)[0],
        violations_martingale=np.nonzero(lhs > rhs_martingale)[0])


# ---------------------------------------------------------------------------
# norm probes
# ---------------------------------------------------------------------------

def fit_doubling_constant(space: FiniteSpace, max_centers: int = 32) -> float:
    """Empirical doubling constant: max of m(B(x,2r))/m(B(x,r)) over
    sampled centers and dyadic radii within the safe radius."""
    step = max(1, space.n // max_centers)
    best = 1.0
    w = space.weights
    for x in range(0, space.n, step):
        row = space.dist_row(x)
        r = space.resolution()
        while 2 * r <= space.safe_radius:
            small = w[row <= r].sum()
            big = w[row <= 2 * r].sum()
            best = max(best, big / small)
            r *= 2
    return float(best)


class ProbeRow(NamedTuple):
    operator: str
    p: float
    seed: int
    ensemble: str
    ratio: float


_ENSEMBLES = ("gaussian", "rademacher", "sparse")


def _draw(ensemble: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if ensemble == "gaussian":
        return rng.standard_normal(n)
    if ensemble == "rademacher":
        return rng.integers(0, 2, n) * 2.0 - 1.0
    if ensemble == "sparse":
        values = np.zeros(n)
        k = max(1, n // 64)
        idx = rng.choice(n, size=k, replace=False)
        values[idx] = rng.integers(0, 2, k) * 2.0 - 1.0
        return values
    raise ValueError(f"unknown ensemble {ensemble!r}")


@dataclass(frozen=True)
class NormProbeReport:
    operator: str
    p: float
    trials: int
    base_seed: int
    rows: tuple[ProbeRow, ...]
    strong_max: float
    strong_mean: float
    strong_median: float
    weak_max: tuple[tuple[float, float], ...]
    bmo_max: float | None
    avg_radius: float | None
    doubling_D: float | None
    avg_bound_ok: bool | None

    def to_json(self) -> dict:
        return {
            "operator": self.operator,
            "p": self.p,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "strong_max": self.strong_max,
            "strong_mean": self.strong_mean,
            "strong_median": self.strong_median,
            "weak_max": [[g, r] for g, r in self.weak_max],
            "bmo_max": self.bmo_max,
            "avg_radius": self.avg_radius,
            "doubling_D": self.doubling_D,
            "avg_bound_ok": self.avg_bound_ok,
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["operator", "p", "seed", "ensemble", "ratio"])
            for row in self.rows:
                writer.writerow([row.operator, row.p, row.seed,
                                 row.ensemble, repr(row.ratio)])


def norm_probe(system: DyadicSystem, config: OperatorConfig, operator: str, *,
               p: float = 2.0, trials: int = 200, seed: int = 0,
               gammas: Sequence[float] = (0.5, 1.0, 2.0),
               r: float | None = None,
               compute_bmo: bool = False) -> NormProbeReport:
    """Randomized size of one operator: strong-(p,p) ratios over three
    ensembles, weak-(1,1) ratios on a gamma grid, and (for averages) the
    comparison against D^(1/p) with the doubling constant D fitted from
    the space.  Rerunning with the same seed reproduces every number."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    space = system.space
    if operator == "average" and r is None:
        r = max(1.0, config.anchor(config.n_r0 + 1))

    def apply(f: SampleFunction) -> np.ndarray:
        if operator == "square":
            return square_function(f, system, config).values
        if operator == "variation":
            return short_variation(f, space, config).values
        if operator == "average":
            return avg_profile(f.values, space, [r])[0]
        if operator == "maximal":
            return dyadic_maximal(f, system).values
        raise ValueError(f"unknown operator {operator!r}")

    w = space.weights
    rows: list[ProbeRow] = []
    weak: dict[float, float] = {g: 0.0 for g in gammas}
    bmo_max = 0.0 if compute_bmo else None
    for t in range(trials):
        seed_t = seed + t
        rng = np.random.default_rng(seed_t)
        ensemble = _ENSEMBLES[t % len(_ENSEMBLES)]
        values = _draw(ensemble, rng, space.n)
        f = SampleFunction(space.label, values)
        out = apply(f)
        fnorm = weighted_norm(values, w, p)
        ratio = 0.0 if fnorm == 0 else weighted_norm(out, w, p) / fnorm
        rows.append(ProbeRow(operator, p, seed_t, ensemble, float(ratio)))
        l1 = weighted_norm(values, w, 1)
        if l1 > 0:
            for g in gammas:
                weak[g] = max(weak[g], g * w[np.abs(out) > g].sum() / l1)
        if compute_bmo:
            sup = np.abs(values).max()
            if sup > 0:
                _, bmo = sharp_maximal_bmo(SampleFunction(space.label, out),
                                           system)
                bmo_max = max(bmo_max, bmo / sup)

    ratios = np.array([row.ratio for row in rows])
    doubling = avg_ok = None
    if operator == "average":
        doubling = fit_doubling_constant(space)
        avg_ok = bool(np.all(ratios <= doubling ** (1.0 / p) + 1e-9))
    return NormProbeReport(
        operator=operator, p=p, trials=trials, base_seed=seed,
        rows=tuple(rows),
        strong_max=float(ratios.max()),
        strong_mean=float(ratios.mean()),
        strong_median=float(np.median(ratios)),
        weak_max=tuple((g, float(weak[g])) for g in gammas),
        bmo_max=bmo_max,
        avg_radius=r if operator == "average" else None,
        doubling_D=doubling,
        avg_bound_ok=avg_ok)
