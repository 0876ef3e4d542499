"""Dyadic cube systems on finite metric measure spaces.

A system is built in three steps: greedy nets per scale (maximal separated
sets, one local ball read per center, which also give every point's nearest
center), assignment to the nearest finest-level center, and parent chains
upward to the nearest next-level center.  Axioms (partition, nesting, unique
parent) then hold by construction and are verified rather than assumed; the
ball sandwich B(z, a0 d^k) <= Q <= B(z, C1 d^k) is measured cube by cube.

The derived boundary-layer constants (L0..L3, eta, C2, C2') of the
construction parameters are computed here, and the ``cubes`` command
writes them into ``cubes.json``; the layers themselves are not measured.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .space import FiniteSpace, greedy_net

__all__ = [
    "HKParams",
    "BoundaryConstants",
    "Nets",
    "DyadicSystem",
    "ConstructionError",
    "select_nets",
    "build_cubes",
    "verify_cube_axioms",
    "AxiomReport",
    "largest_power",
]


class ConstructionError(ValueError):
    """The cube construction could not complete under the given parameters."""


def largest_power(pred: Callable[[float], bool], x: float,
                  delta: float) -> int:
    """Largest integer k whose power delta^k satisfies pred, which must
    hold below any power where it holds: a search by exact comparisons of
    the powers from floor(log_delta x), x > 0 being the scale pred reads."""
    k = math.floor(math.log(x) / math.log(delta))
    while not pred(delta**k):
        k -= 1
    while pred(delta ** (k + 1)):
        k += 1
    return k


@dataclass(frozen=True)
class HKParams:
    """Construction parameters: scale base delta and the net constants.

    Admissibility demands 18*C0/delta <= c0; the derived constants are
    a0 = c0/3 (inner ball) and C1 = 2*C0 (outer ball).  Defaults pick the
    smallest admissible C0 at a round delta.
    """

    delta: float = 36.0
    c0: float = 1.0
    C0: float = 2.0
    k_min: int | None = None
    k_max: int | None = None

    def __post_init__(self) -> None:
        if not self.delta > 1:
            raise ValueError("delta must exceed 1")
        if not 0 < self.c0 < self.C0:
            raise ValueError("need 0 < c0 < C0")
        lhs = 18.0 * self.C0 / self.delta
        if lhs > self.c0:
            raise ValueError(
                f"HKParams inadmissible: need 18*C0/delta <= c0, got "
                f"18*{self.C0}/{self.delta} = {lhs} > {self.c0}"
            )
        if (self.k_min is not None and self.k_max is not None
                and self.k_min > self.k_max):
            raise ValueError("k_min must not exceed k_max")

    @property
    def a0(self) -> float:
        return self.c0 / 3.0

    @property
    def C1(self) -> float:
        return 2.0 * self.C0

    def resolve_levels(self, space: FiniteSpace) -> tuple[list[int], list[str]]:
        """Concrete level list for a space, with clipping notes.

        Auto range: from the least k with delta^k >= resolution to one
        level past the least k with delta^k >= diameter.  Scales below the
        resolution are degenerate (all nets equal the whole point set), so
        a requested k_min below the range is clipped.  A
        range whose outer ball radius C1*delta^k_max is past the float
        range is refused, since the nets and axioms compute with it.
        """
        res, diam = space.resolution(), space.diameter()
        lo_auto = largest_power(lambda p: p < res, res, self.delta) + 1
        if diam > 0:
            hi_auto = largest_power(lambda p: p < diam, diam, self.delta) + 2
        else:
            hi_auto = lo_auto
        notes: list[str] = []
        k_min = lo_auto if self.k_min is None else self.k_min
        k_max = hi_auto if self.k_max is None else self.k_max
        if k_min < lo_auto:
            notes.append(
                f"k_min raised from {k_min} to {lo_auto}: scale below resolution"
            )
            warnings.warn(notes[-1])
            k_min = lo_auto
        if k_max < k_min:
            raise ValueError("resolved level range is empty")
        try:
            top = self.C1 * float(self.delta) ** k_max
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(
                f"level scale C1*delta^{k_max} = {self.C1:g}*{self.delta:g}"
                f"^{k_max} overflows a float; lower k_max or delta")
        return list(range(k_min, k_max + 1)), notes


@dataclass(frozen=True)
class BoundaryConstants:
    """The derived boundary-layer constants for given construction
    parameters, annular threshold r0, and annular profile (K, eps)."""

    delta: float
    c0: float
    C0: float
    r0: float
    K: float
    eps: float
    L0: int
    L1: int
    L2: int
    L3: int
    eta: float
    C2: float
    C2_prime: float
    K_eps: float
    n0: int
    n1: int
    k1: int

    @classmethod
    def derive(cls, params: HKParams, r0: float, K: float = 1.0,
               eps: float = 1.0) -> "BoundaryConstants":
        if not r0 > 0:
            raise ValueError("r0 must be positive")
        if not K > 0:
            raise ValueError("K must be positive")
        if not 0 < eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        d, c0, C0 = params.delta, params.c0, params.C0
        a0, C1 = params.a0, params.C1

        def bound(name: str, b: float) -> float:
            # an infinite bound has no level or integer part
            if not math.isfinite(b):
                raise ValueError(f"bound {name} overflows a float")
            return b

        try:
            C2 = 4.0 * (K + 1) ** 2 * (72.0 * C0 / c0) ** (2 * eps)
        except OverflowError:
            C2 = math.inf
        bound("C2 = 4*(K+1)^2*(72*C0/c0)^(2*eps)", C2)
        # L0, L1, L2: the least integers whose powers exceed their bounds
        L0, L1, L2 = (largest_power(lambda p: p <= b, b, d) + 1
                      for b in (bound("12/c0", 12.0 / c0),
                                bound("36*r0/c0", 36.0 * r0 / c0),
                                bound("4*C0+1", 4.0 * C0 + 1.0)))
        body = 2.0 * (K + 1) ** 2 * (72.0 * C0 / c0) ** (2 * eps)
        L3 = math.floor(body) + L0 + L2
        eta = math.log(2.0) / math.log(d) / L3
        C2p = (K + 1) * (3.0 * C1 / a0) ** eps
        K_eps = (2**eps + 1) * K + 2**eps
        # n1 is the least n >= 0 with delta^n >= 2 r0
        n1 = max(largest_power(lambda p: p < 2.0 * r0, 2.0 * r0, d) + 1, 0)
        k1 = largest_power(lambda p: C1 * p <= 1.0, 1.0 / C1, d)
        n0 = max(L1 - L0, 0)
        return cls(delta=d, c0=c0, C0=C0, r0=r0, K=K, eps=eps,
                   L0=L0, L1=L1, L2=L2, L3=L3, eta=eta, C2=C2,
                   C2_prime=C2p, K_eps=K_eps, n0=n0, n1=n1, k1=k1)


# ---------------------------------------------------------------------------
# nets and cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nets:
    """Centers per level, each point's nearest center and its distance."""

    levels: tuple[int, ...]
    centers: tuple[np.ndarray, ...]
    nearest: tuple[np.ndarray, ...]
    distance: tuple[np.ndarray, ...]
    notes: tuple[str, ...]


def select_nets(space: FiniteSpace, params: HKParams) -> Nets:
    """Greedy maximal c0*delta^k-separated nets, one per resolved level.

    Points are scanned in ascending index; a point joins the net when its
    distance to every kept point is >= the separation.  Maximality gives
    the covering half of the net property (every point strictly within
    c0*delta^k <= C0*delta^k of some center), so the scan, which reads one
    c0*delta^k ball per center, also finds every point's nearest center.
    """
    levels, notes = params.resolve_levels(space)
    resolution = space.resolution()
    nets = []
    for k in levels:
        sep = params.c0 * params.delta**k
        # at or below the resolution, every point is its own center
        nets.append(greedy_net(space, sep, strict=False) if sep > resolution
                    else (range(space.n), np.arange(space.n), np.zeros(space.n)))
    centers, nearest, distance = zip(*nets)
    return Nets(tuple(levels), tuple(np.array(c) for c in centers), nearest,
                distance, tuple(notes))


@dataclass(frozen=True)
class DyadicSystem:
    """Cubes at every level: centers, a point -> cube assignment per level,
    and parent links between consecutive levels."""

    space: FiniteSpace
    params: HKParams
    levels: tuple[int, ...]
    centers: tuple[np.ndarray, ...]
    assign: tuple[np.ndarray, ...]
    parents: tuple[np.ndarray, ...]     # one per level except the coarsest
    notes: tuple[str, ...] = ()
    _index: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self) -> None:
        if len(self.centers) != len(self.levels) or len(self.assign) != len(self.levels):
            raise ValueError("per-level arrays out of step with levels")
        if len(self.parents) != max(len(self.levels) - 1, 0):
            raise ValueError("need a parent table per non-top level")

    def level_index(self, k: int) -> int:
        try:
            return self.levels.index(k)
        except ValueError:
            raise ValueError(f"level {k} not in system (has {self.levels})") from None

    def n_cubes(self, k: int) -> int:
        return len(self.centers[self.level_index(k)])

    def cube_index(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (order, starts, measures) of level k, built once from
        ``assign``: cube c owns the points ``order[starts[c]:starts[c + 1]]``
        in ascending order, and has measure ``measures[c]``."""
        li = self.level_index(k)
        if li not in self._index:
            a = self.assign[li]
            m = len(self.centers[li])
            order = np.argsort(a, kind="stable")
            self._index[li] = (
                order, np.searchsorted(a[order], np.arange(m + 1)),
                np.bincount(a, weights=self.space.weights, minlength=m))
            for arr in self._index[li]:
                arr.flags.writeable = False
        return self._index[li]

    def members(self, k: int, cube: int) -> np.ndarray:
        order, starts, _ = self.cube_index(k)
        return order[starts[cube]:starts[cube + 1]]

    def cube_measures(self, k: int) -> np.ndarray:
        return self.cube_index(k)[2]

    def cube_averages(self, k: int, values: np.ndarray) -> np.ndarray:
        """Weighted average of ``values``, shape (n,) or (n, T), over each
        level-k cube: shape (cubes,) or (cubes, T), one `bincount` per
        column, so every column equals its one-column call bit for bit."""
        a = self.assign[self.level_index(k)]
        measures = self.cube_measures(k)
        w = self.space.weights
        sums = np.column_stack([
            np.bincount(a, weights=w * col, minlength=len(measures))
            for col in np.reshape(values, (len(a), -1)).T])
        return (sums / measures[:, None]).reshape(
            measures.shape + np.shape(values)[1:])

    @property
    def finest(self) -> int:
        return self.levels[0]


def build_cubes(space: FiniteSpace, params: HKParams) -> DyadicSystem:
    """Assemble a dyadic system from the nets of `select_nets`, reading no
    distances of its own.

    Points are assigned to the nearest finest-level center (ties to the
    lower center index); each center then claims the nearest next-level
    center as parent.  Both come from the nets' nearest-center maps.
    Memberships at coarser levels follow the chains.
    """
    nets = select_nets(space, params)
    levels = list(nets.levels)
    centers = [np.asarray(c) for c in nets.centers]
    assign = [nets.nearest[0]]
    parents: list[np.ndarray] = []
    for li in range(len(levels) - 1):
        k_up = levels[li + 1]
        par = nets.nearest[li + 1][centers[li]]
        limit = params.C0 * params.delta**k_up
        bad = nets.distance[li + 1][centers[li]] >= limit
        if np.any(bad):
            worst = int(np.nonzero(bad)[0][0])
            raise ConstructionError(
                f"center {int(centers[li][worst])} at level {levels[li]} has no "
                f"parent center within C0*delta^{k_up} = {limit}; the nets "
                f"violate the covering property (admissibility)"
            )
        parents.append(par)
        assign.append(par[assign[-1]])
    return DyadicSystem(space, params, tuple(levels),
                        tuple(centers), tuple(assign), tuple(parents),
                        tuple(nets.notes))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    level: int
    cube: int
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    n_cubes: int
    partition_ok: bool          # (i)  each level partitions the space
    nesting_ok: bool            # (ii) cubes nest or are disjoint across levels
    parent_ok: bool             # (iii) stored parents contain their children
    sandwich_checked: int       # (iv) cubes examined
    sandwich_passed: int
    sandwich_ok_in_safe: bool   # (iv) holds whenever delta^k <= safe radius
    separation_ok: bool         # centers >= c0 delta^k apart
    covering_ok: bool           # every point < C0 delta^k from a center
    violations: tuple[AxiomViolation, ...]

    @property
    def all_pass(self) -> bool:
        return (self.partition_ok and self.nesting_ok and self.parent_ok
                and self.sandwich_ok_in_safe and self.separation_ok
                and self.covering_ok)


_MAX_VIOLATIONS = 50


def verify_cube_axioms(system: DyadicSystem) -> AxiomReport:
    """Exhaustively check the four cube axioms and the net property."""
    space = system.space
    viol: list[AxiomViolation] = []

    def add(axiom: str, level: int, cube: int, detail: str) -> None:
        if len(viol) < _MAX_VIOLATIONS:
            viol.append(AxiomViolation(axiom, level, cube, detail))

    cubes_at = [len(c) for c in system.centers]
    n_cubes = sum(cubes_at)

    # (i): assignments valid and no cube empty
    partition_ok = True
    valid = [_maps_into(a, space.n, m) for a, m in zip(system.assign, cubes_at)]
    for li, k in enumerate(system.levels):
        if not valid[li]:
            partition_ok = False
            add("i", k, -1, "assignment out of range")
            continue
        counts = np.bincount(system.assign[li], minlength=cubes_at[li])
        for cube in np.nonzero(counts == 0)[0]:
            partition_ok = False
            add("i", k, int(cube), "empty cube")

    # (ii): each finer cube meets exactly one coarser cube; (ii) and (iii)
    # read only the levels whose assignment (i) found in range.  Nesting
    # composes, so when every level is valid and every consecutive pair
    # nests, every pair nests; otherwise the all-pairs scan lists each
    # violation
    nesting_ok = True
    consecutive_nest = all(valid) and all(
        _nests(system.assign[li], system.assign[li + 1], cubes_at[li])
        for li in range(len(system.levels) - 1))
    pairs = [] if consecutive_nest else [
        (li, lj) for li in range(len(system.levels))
        for lj in range(li + 1, len(system.levels)) if valid[li] and valid[lj]]
    for li, lj in pairs:
        fine, coarse = system.assign[li], system.assign[lj]
        m = len(system.centers[lj])
        keys = fine.astype(np.int64) * m + coarse
        fine_ids = np.unique(keys) // m
        dup = fine_ids[:-1][fine_ids[:-1] == fine_ids[1:]]
        for cube in np.unique(dup):
            nesting_ok = False
            add("ii", system.levels[li], int(cube),
                f"straddles two cubes at level {system.levels[lj]}")

    # (iii): stored parent links agree with actual containment
    parent_ok = True
    for li in range(len(system.levels) - 1):
        if not (valid[li] and valid[li + 1]):
            continue
        if not _maps_into(system.parents[li], cubes_at[li], cubes_at[li + 1]):
            parent_ok = False
            add("iii", system.levels[li], -1, "parent out of range")
            continue
        expected = system.parents[li][system.assign[li]]
        mism = np.nonzero(expected != system.assign[li + 1])[0]
        if mism.size:
            parent_ok = False
            cube = int(system.assign[li][mism[0]])
            add("iii", system.levels[li], cube,
                "members leave the stored parent")

    # (iv) + the net property, on balls of radius C1 delta^k around the
    # centers: C1 > C0 > c0 > a0, so every check at level k lies inside them
    a0, C1 = system.params.a0, system.params.C1
    c0, C0, delta = system.params.c0, system.params.C0, system.params.delta
    safe = space.safe_radius
    checked = passed = 0
    sandwich_ok_in_safe = True
    separation_ok = True
    covering_ok = True
    for li, k in enumerate(system.levels):
        scale = delta**k
        cents = system.centers[li]
        a = system.assign[li]
        m = len(cents)
        # cube sizes over the in-range entries; (i) reports the others
        sizes = np.bincount(a[(a >= 0) & (a < m)], minlength=m)
        centers_at = np.bincount(cents, minlength=space.n)
        sep_min = np.full(m, np.inf)       # nearest other center in the ball
        inner_bad = np.zeros(m, dtype=bool)
        outer_bad = np.zeros(m, dtype=bool)
        covered = np.zeros(space.n, dtype=bool)
        radius = min(C1 * scale, space.diameter())
        for lo, indptr, members, dists in space.ball_chunks(cents, radius):
            nb = indptr.size - 1
            seg = np.repeat(np.arange(nb), np.diff(indptr))
            mine = a[members] == lo + seg
            others = centers_at[members] - (members == cents[lo + seg]) > 0
            # every ball holds its center, so no segment is empty
            sep_min[lo:lo + nb] = np.minimum.reduceat(
                np.where(others, dists, np.inf), indptr[:-1])
            inner_bad[lo:lo + nb] = np.bincount(
                seg[(dists <= a0 * scale) & ~mine], minlength=nb) > 0
            # the outer ball holds the whole cube exactly when it holds all
            # of the cube's members
            outer_bad[lo:lo + nb] = np.bincount(
                seg[mine], minlength=nb) != sizes[lo:lo + nb]
            covered[members[dists < C0 * scale]] = True
        sep_bad = sep_min < c0 * scale
        iv_bad = inner_bad | outer_bad
        separation_ok = separation_ok and not sep_bad.any()
        checked += m
        passed += m - int(iv_bad.sum())
        if iv_bad.any() and scale <= safe:
            sandwich_ok_in_safe = False
        for ci in np.flatnonzero(sep_bad | iv_bad).tolist():
            if sep_bad[ci]:
                add("separation", k, ci, f"center pair at distance "
                                         f"{float(sep_min[ci])} < {c0 * scale}")
            if iv_bad[ci]:
                side = "inner" if inner_bad[ci] else "outer"
                add("iv", k, ci, f"{side} sandwich violated")
        if not covered.all():
            covering_ok = False
            add("covering", k, -1,
                f"point at distance >= {C0 * scale} from every center")

    return AxiomReport(
        n_cubes=n_cubes, partition_ok=partition_ok, nesting_ok=nesting_ok,
        parent_ok=parent_ok, sandwich_checked=checked, sandwich_passed=passed,
        sandwich_ok_in_safe=sandwich_ok_in_safe, separation_ok=separation_ok,
        covering_ok=covering_ok, violations=tuple(viol))


# ---------------------------------------------------------------------------
# index-table checks
# ---------------------------------------------------------------------------

def _nests(fine: np.ndarray, coarse: np.ndarray, m_fine: int) -> bool:
    """Every one of the ``m_fine`` cubes of ``fine`` lies inside one cube of
    ``coarse``: writing each point's coarse cube at its fine cube and
    reading it back returns ``coarse`` exactly then."""
    image = np.empty(m_fine, dtype=coarse.dtype)
    image[fine] = coarse
    return bool(np.array_equal(image[fine], coarse))


def _maps_into(table: np.ndarray, length: int, bound: int) -> bool:
    """``table`` is a length-``length`` vector of indices below ``bound``."""
    return table.shape == (length,) and (
        length == 0 or (table.min() >= 0 and table.max() < bound))
