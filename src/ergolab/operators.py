"""Ball averaging operators and the jump-domination machinery.

The radius axis is organized into delta-adic blocks [delta^n, delta^(n+1));
OperatorConfig fixes the finite radius grid inside each block, headed by
the anchor delta^n for any delta.  On top of the averages sit the square
function (averages against martingale expectations), the short-variation
operator (V_2 within each block), the two pointwise domination
inequalities that transfer jump counts from the full radius grid to the
martingale, and randomized operator-norm probes.

`_profile_chunks` picks the engine of the ball averages and the columns
its spot check compares bit for bit.  Quotients of Z^d take `_fft_chunks`,
a cyclic convolution with the identity-ball indicator over the (N,)*d key
grid, whose integer columns are rounded to their exact sums before the one
division; other quotients (the Heisenberg family) take one sweep of the
group's spheres (`sweep_chunks` over `group_shells`), one
right-translation at a time, each gathered once for all columns.  Both streams pass through `_spot_checked`, which
recomputes the averages at `_SPOT_CENTERS` fixed centers by direct sums
over the closed balls of `FiniteSpace.ball_chunks` (`_row_profile`) and
raises `SpotCheckError` on a mismatch: bit for bit in every column of the
sweep, whose balls add in the direct sums' order, and in the FFT's
rounded columns, to a tolerance elsewhere.  Every other space takes the
direct sums themselves, from which the doubling fit also reads its ball
masses.

All three engines average under counting measure: a ball sum divided by
the ball's point count.

Both group engines stream: `_fft_chunks` (over one forward transform) and
`sweep_chunks` (over one pass of the spheres) divide the averages of
consecutive radii into one chunk buffer and yield each chunk as soon as it
is done; `avg_profile` and `sweep_profile` are the streams with one chunk
of all the radii.  The one union-grid pass, `_grid_pass`, reads the grid
one delta-adic block at a time, so it never holds every radius, and
serves the variation probe and the domination check; one `_square` serves
the square probe and the domination check.  The sweep is also the engine
of the dynamics module, whose experiments fold it one radius at a time
without holding the profile, and of the action side of the transference
check; on Z^d the sweep is the oracle the FFT engine is tested against.
The norm probes push their trials through the operators in column blocks
sized by `_SWEEP_BYTES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# only function bodies read cubes and martingale, so the dynamics sweep,
# which reads neither, executes neither
from . import cubes, martingale
from .space import _ENSEMBLES, FiniteSpace, GroupSpace, _draw, _sorted_unique
from .stats import JumpFold, jump_count_batch, variation_batch

# bytes of the (radii, n, T) profile that sizes a block of `norm_probe`
# trials (a block holds at least one trial, whatever its profile)
_SWEEP_BYTES = 8 * 2**20
# centers at which `_spot_checked` recomputes the averages by direct sums
_SPOT_CENTERS = 3
# integer columns with sum |f| below this are rounded to their exact ball
# sums: the FFT error, about eps * sum |f| * log2(n), stays far below 1/2
_EXACT_SUM = 2.0**40

__all__ = [
    "SpotCheckError",
    "BlockGrid",
    "OperatorConfig",
    "sweep_profile",
    "sweep_chunks",
    "group_shells",
    "avg_profile",
    "DominationReport",
    "domination_check",
    "domination_checks",
    "ProbeRow",
    "NormProbeReport",
    "norm_probe",
    "fit_doubling_constant",
]


class SpotCheckError(RuntimeError):
    """FFT or group-sweep ball averages disagree with direct sums over
    `ball_chunks`."""


class BlockGrid(NamedTuple):
    n: int
    radii: tuple[float, ...]


@dataclass(frozen=True)
class OperatorConfig:
    """Radius bookkeeping shared by the averaging operators.

    n_r0 is the unique integer with delta^n_r0 < r0 <= delta^(n_r0+1),
    for the r0 of the space.
    Each block n >= n_r0 carries its anchor delta^n, for any delta, then
    the integer radii of (delta^n, delta^(n+1)) up to the space diameter
    (word metrics take integer values, so these are exactly the distinct
    balls), subsampled to at most block_cap radii; the anchor always
    stays.  A block containing no integer keeps the bare anchor.
    """

    delta: float
    r0: float
    n_r0: int
    block_cap: int
    blocks: tuple[BlockGrid, ...]
    notes: tuple[str, ...]

    @classmethod
    def for_space(cls, space: FiniteSpace, *, delta: float = 36.0,
                  block_cap: int = 24) -> "OperatorConfig":
        delta = float(delta)
        if delta <= 1:
            raise ValueError("delta must exceed 1")
        if block_cap < 2:
            raise ValueError("block_cap must be at least 2")
        r0 = space.r0
        n_r0 = cubes.largest_power(lambda p: p < r0, r0, delta)
        diam = space.diameter()
        notes: list[str] = []
        blocks: list[BlockGrid] = []
        n = n_r0
        while delta**n <= diam or n == n_r0:
            lo, hi = delta**n, delta ** (n + 1)
            # the anchor, then the integers above it, below hi and within
            # the diameter
            last = min(math.ceil(hi) - 1, math.floor(diam))
            radii = [lo] + [float(r)
                            for r in range(math.floor(lo) + 1, last + 1)]
            if len(radii) > block_cap:
                # index 0 is always kept: the anchor survives subsampling
                idx = _sorted_unique(np.round(
                    np.geomspace(1, len(radii), block_cap)).astype(int) - 1)
                notes.append(
                    f"block n={n} subsampled to {len(idx)} of "
                    f"{len(radii)} radii")
                radii = [radii[i] for i in idx]
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

    def eligible_levels(self, system: cubes.DyadicSystem) -> list[int]:
        """Block levels n > n_r0, of which there must be one at least, and
        which must exist in the cube system."""
        wanted = [b.n for b in self.blocks if b.n > self.n_r0]
        if not wanted:
            n = self.n_r0 + 1
            raise ValueError(
                f"no eligible levels: no radius block above n_r0 = "
                f"{self.n_r0} (r0 = {self.r0:g}, delta = {self.delta:g}): "
                f"its anchor delta^{n} = {self.anchor(n):g} exceeds the "
                f"space diameter {system.space.diameter():g}")
        missing = [n for n in wanted if n not in system.levels]
        if missing:
            raise ValueError(
                f"cube system lacks levels {missing} required by the "
                f"radius blocks (system has {list(system.levels)})")
        return wanted


# ---------------------------------------------------------------------------
# ball averages
# ---------------------------------------------------------------------------

def _increasing(radii: Sequence[float]) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if radii.size and np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    return radii


def _row_view(block: np.ndarray) -> np.ndarray:
    """(n,) view of a C-contiguous (n, T) array, one opaque item per row, so
    that `np.take` moves whole rows."""
    return block.view(np.dtype((np.void, block.shape[1] * block.itemsize)))[:, 0]


def sweep_profile(values: np.ndarray,
                  shells: Iterable[tuple[int, Sequence[np.ndarray]]],
                  radii: Sequence[float]) -> np.ndarray:
    """Ball-average profile from one pass over translation shells: the
    sweep of `sweep_chunks` as one chunk of all the radii.

    ``values`` has shape (n,) or (n, T): a block of T functions swept
    together, each permutation read once for all columns.  ``shells``
    yields (distance, permutations at that distance) in non-decreasing
    distance order, distance >= 1; the identity is implicit.
    The permutations must hold indices in [0, n): the gather does not
    check them.  The result has shape ``(len(radii),) + values.shape``;
    entry i is the average over the closed ball of radius radii[i].  Each
    column keeps one accumulation order per shell, so two callers with
    equal shells produce bitwise-equal output, and every column equals the
    1-D call on that column.
    """
    values = np.asarray(values, dtype=float)
    return next(sweep_chunks(values, shells, radii, max(1, len(radii))),
                np.empty((0,) + values.shape))


def sweep_chunks(values: np.ndarray,
                 shells: Iterable[tuple[int, Sequence[np.ndarray]]],
                 radii: Sequence[float],
                 rows: int | Sequence[int]) -> Iterator[np.ndarray]:
    """The sweep behind `sweep_profile`, yielding its rows in chunks of
    consecutive radii, each of shape ``(k,) + values.shape``, as soon as
    the sweep has passed them.  ``rows`` is the chunk length (the last
    chunk may be shorter) or the sequence of chunk lengths.  Every chunk
    is divided into one buffer, so a chunk is valid only until the next
    one is drawn.  ``shells`` yields (distance, permutations) in
    non-decreasing distance order, as for `sweep_profile`; the sweep draws
    no shell past the one that closes the last radius."""
    radii = _increasing(radii)
    lengths = _chunk_lengths(rows, len(radii))
    values = np.asarray(values, dtype=float)
    n = len(values)
    block = np.ascontiguousarray(values).reshape(n, -1)
    out = np.empty((max(lengths, default=0),) + block.shape)
    chunk = out.reshape((len(out),) + values.shape)
    acc = block.copy()
    buf = np.empty_like(block)
    src_rows, buf_rows = _row_view(block), _row_view(buf)
    shells = iter(shells)
    ridx = k = c = 0
    count = 1
    while ridx < len(radii):
        # past the last shell every remaining ball is the whole sweep
        dist, perms = next(shells, (np.inf, ()))
        while ridx < len(radii) and radii[ridx] < dist:
            np.divide(acc, count, out=out[k])
            ridx += 1
            k += 1
            if k == lengths[c]:
                yield chunk[:k]
                k = 0
                c += 1
        if ridx == len(radii):
            break
        for perm in perms:
            # "clip" skips the output buffering that "raise" does
            np.take(src_rows, perm, out=buf_rows, mode="clip")
            acc += buf
            count += 1


def _chunk_lengths(rows: int | Sequence[int], total: int) -> list[int]:
    """Lengths of the chunks of ``total`` consecutive radii: runs of
    ``rows`` (the last may be shorter), or the given lengths, which must
    be positive and add up to ``total``."""
    if isinstance(rows, int):
        if rows < 1:
            raise ValueError("a chunk needs at least one row")
        return [min(rows, total - lo) for lo in range(0, total, rows)]
    lengths = [int(k) for k in rows]
    if any(k < 1 for k in lengths) or sum(lengths) != total:
        raise ValueError(f"chunk lengths {lengths} do not cover {total} radii")
    return lengths


def group_shells(group: GroupSpace, perm: Callable[[int], np.ndarray],
                 radii: Sequence[float]):
    """The sphere elements of ``group`` up to min(max radius, diameter),
    each as (distance, [its translation]), for `sweep_profile` and
    `sweep_chunks`; ``perm(j)`` is called only as the sweep reaches
    element j, so one translation is held at a time."""
    rmax = min(int(math.floor(max(radii, default=0.0))), int(group.diameter()))
    for s in range(1, rmax + 1):
        sl = group.shell_slice(s)
        for j in range(sl.start, sl.stop):
            yield s, [perm(j)]


def _fft_chunks(block: np.ndarray, space: GroupSpace, radii: np.ndarray,
                lengths: Sequence[int], exact: np.ndarray
                ) -> Iterator[np.ndarray]:
    """Ball averages of an (n, T) block on a Z_N^d quotient by cyclic
    convolution over the key grid, yielded in chunks of consecutive radii
    of the given lengths, each of shape (k, n, T) and divided into one
    reused buffer, so valid only until the next one is drawn.  The columns
    in the mask ``exact`` are rounded to their exact ball sums before the
    division.

    The ball sum at x is sum_{|u| <= r} f(x + u), a correlation with the
    indicator of B(e, r); generator sets are symmetric, so it is also the
    convolution that the transforms compute.
    """
    n, T = block.shape
    shape = (space.group.modulus,) * space.group.d
    axes = tuple(range(space.group.d))
    grid = space.word_lengths[space._key_order].reshape(shape)
    # ball sizes: the word lengths are in ascending order
    sizes = np.searchsorted(space.word_lengths, radii, side="right")
    # ball sizes grow with the radius: only a ball beyond the center needs
    # the transform
    if radii.size and sizes[-1] > 1:
        spectrum = np.fft.rfftn(
            block[space._key_order].reshape(shape + (T,)),
            axes=axes)
    avg = np.empty((n, T))
    buf = np.empty((max(lengths, default=0), n, T))
    lo = 0
    for k in lengths:
        out = buf[:k]
        for i, j in enumerate(range(lo, lo + k)):
            if i and sizes[j] == sizes[j - 1]:
                out[i] = out[i - 1]             # the same ball
            elif sizes[j] <= 1:
                out[i] = block                  # the center alone
            else:
                kernel = np.fft.rfftn(grid <= radii[j])[..., None]
                sums = np.fft.irfftn(spectrum * kernel, s=shape, axes=axes)
                sums = sums.reshape(n, -1)
                sums[:, exact] = np.rint(sums[:, exact])
                np.divide(sums, sizes[j], out=avg)
                # from key order back to point order
                np.take(_row_view(avg), space._keys, out=_row_view(out[i]))
        yield out
        lo += k


def _spot_checked(chunks: Iterable[np.ndarray], block: np.ndarray,
                  space: GroupSpace, radii: np.ndarray, exact: np.ndarray,
                  engine: str) -> Iterator[np.ndarray]:
    """The ``engine``'s chunks of the (n, T) block's averages at
    consecutive radii, each compared with direct sums (`_row_profile`) at
    `_SPOT_CENTERS` fixed centers before it is yielded: the columns in the
    (T,) mask ``exact`` bit for bit, the others to 1e-12 of the larger of
    the ball's and the space's mean of |f|.  The direct sums are taken once
    per call, and |f| only over the columns compared to a tolerance.
    Raises `SpotCheckError` on a mismatch, naming the ``engine`` and the
    first center that has one."""
    centers = _sorted_unique(np.linspace(0, space.n - 1,
                                         _SPOT_CENTERS).astype(np.int64))
    direct = _row_profile(block, space, radii, centers).transpose(1, 0, 2)
    scale = np.zeros_like(direct)
    if not exact.all():
        # |f| in a pass of its own: one block of twice the columns would
        # hold twice the members' values at once
        loose = np.abs(block[:, ~exact])
        scale[..., ~exact] = np.maximum(
            _row_profile(loose, space, radii, centers).transpose(1, 0, 2),
            loose.mean(axis=0))
    lo = 0
    for out in chunks:
        hi = lo + len(out)
        got = out[:, centers].transpose(1, 0, 2)
        want = direct[:, lo:hi]
        bad = np.where(exact, got != want,
                       ~(np.abs(got - want) <= 1e-12 * scale[:, lo:hi]))
        if bad.any():
            c, ri, t = (int(k[0]) for k in np.nonzero(bad))
            raise SpotCheckError(
                f"{engine} ball average mismatch at point {centers[c]}, "
                f"radius {radii[lo + ri]:g}, column {t}: "
                f"{float(got[c, ri, t])!r} against "
                f"{float(want[c, ri, t])!r} from direct sums")
        yield out
        lo = hi


def _point_values(values: np.ndarray, space: FiniteSpace) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[0] != space.n:
        raise ValueError("values must have one entry per point")
    if values.size == 0:
        raise ValueError("a block of values needs at least one column")
    return values


def _profile_chunks(values: np.ndarray, space: FiniteSpace,
                    radii: Sequence[float],
                    rows: int | Sequence[int]) -> Iterator[np.ndarray]:
    """`avg_profile` in chunks of consecutive radii, each of shape
    ``(k,) + values.shape`` and valid only until the next one is drawn;
    ``rows`` is the chunk length or the sequence of chunk lengths, as in
    `sweep_chunks`.  Quotients of Z^d stream through `_fft_chunks`, other
    quotients through one sweep of their spheres (`sweep_chunks` over
    `group_shells` of the right translations), each spot-checked by
    `_spot_checked`; every other space computes its profile in one pass of
    direct ball sums (`_row_profile`) and yields it in slices.  Every chunk
    is bitwise the rows of the one-chunk call."""
    values = _point_values(values, space)
    radii = _increasing(radii)
    lengths = _chunk_lengths(rows, len(radii))
    block = values.reshape(space.n, -1)
    T = block.shape[1]
    if not space.is_quotient:
        profile = _row_profile(block, space, radii)
        ends = np.cumsum(lengths)
        chunks = (profile[end - k:end] for k, end in zip(lengths, ends))
    elif space.group.family == "zd":
        exact = (np.all(block == np.rint(block), axis=0)
                 & (np.abs(block).sum(axis=0) < _EXACT_SUM))
        chunks = _spot_checked(
            _fft_chunks(block, space, radii, lengths, exact), block, space,
            radii, exact, "FFT")
    else:
        # the translated balls of `ball_chunks` list their members in the
        # order the sweep adds them: every column must match bit for bit
        chunks = _spot_checked(
            sweep_chunks(block, group_shells(space, space.right_perm, radii),
                         radii, lengths),
            block, space, radii, np.ones(T, dtype=bool), "group sweep")
    return (c.reshape((len(c),) + values.shape) for c in chunks)


def _row_profile(block: np.ndarray, space: FiniteSpace, radii: np.ndarray,
                 points: np.ndarray | None = None) -> np.ndarray:
    """Ball averages of an (n, T) block at ``points`` (every point by
    default), shape (len(radii), len(points), T), from running sums over
    each point's ball of `FiniteSpace.ball_chunks`, which lists its
    members by distance, at the largest radius it needs.  A radius below 0
    reads the center alone, like one below the smallest distance."""
    points = (np.arange(space.n) if points is None
              else np.asarray(points, dtype=np.int64))
    out = np.empty((len(radii), points.size, block.shape[1]))
    if not radii.size:
        return out
    rmax = min(max(float(radii[-1]), 0.0), space.diameter())
    for lo, indptr, members, dists in space.ball_chunks(points, rmax):
        for k, (a, b) in enumerate(zip(indptr[:-1], indptr[1:]), lo):
            pos = np.searchsorted(dists[a:b], radii, side="right") - 1
            np.maximum(pos, 0, out=pos)
            # the running sum at position i of the ball covers i + 1 points
            np.divide(np.cumsum(block[members[a:b]], axis=0)[pos],
                      (pos + 1.0)[:, None], out=out[:, k])
    return out


def avg_profile(values: np.ndarray, space: FiniteSpace,
                radii: Sequence[float]) -> np.ndarray:
    """Ball averages of ``values``, shape (n,) or (n, T), over strictly
    increasing radii; the result has shape ``(len(radii),) + values.shape``
    and each column equals the 1-D call on that column, bit for bit.

    This is `_profile_chunks` with one chunk: quotients of Z^d go through
    `_fft_chunks`, other quotients through the sweep of their spheres, both
    spot-checked, and every other space through direct ball sums."""
    # `_profile_chunks` checks the values before its first chunk is drawn
    return next(_profile_chunks(values, space, radii, max(1, len(radii))),
                np.empty((0,) + np.shape(values)))


# ---------------------------------------------------------------------------
# square function and short variation
# ---------------------------------------------------------------------------

def _square(anchor_rows: np.ndarray, exp_rows: np.ndarray) -> np.ndarray:
    """(sum over the levels n > n_r0 of |A_{delta^n} f - E_n f|^2)^(1/2)
    from the anchor rows and the expectation rows of those levels, each of
    shape (levels,) + values.shape."""
    return np.sqrt(((anchor_rows - exp_rows) ** 2).sum(axis=0))


def _square_block(values: np.ndarray, system: cubes.DyadicSystem,
                  config: OperatorConfig) -> np.ndarray:
    """l^2 size of (average at scale delta^n) - (expectation at level n)
    over the levels n > n_r0, for each column of an (n,) or (n, T) array."""
    levels = config.eligible_levels(system)
    anchors = avg_profile(values, system.space,
                          [config.anchor(n) for n in levels])
    return _square(anchors, np.stack([
        martingale.expectation_block(values, system, n) for n in levels]))


def _grid_pass(values: np.ndarray, space: FiniteSpace, config: OperatorConfig,
               lams: Sequence[float] = ()
               ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """One pass over the union-grid profile of ``values``, shape (n,) or
    (n, T), one delta-adic block at a time: the full-grid jump counts at
    each lam (one `JumpFold` per lam, all fed from the same blocks), the
    short variation (the blocks' V_2 summed as squares), both of shape
    ``values.shape``, and the anchor rows (each block's first row), of
    shape (blocks,) + values.shape.  The block buffer and the folds'
    envelopes are freed on return."""
    shape = np.shape(values)
    folds = [JumpFold(lam, math.prod(shape)) for lam in lams]
    sv = np.zeros(math.prod(shape))
    anchors = np.empty((len(config.blocks),) + shape)
    chunks = _profile_chunks(values, space, config.union_grid(),
                             [len(b.radii) for b in config.blocks])
    for i, rows in enumerate(chunks):
        flat = rows.reshape(len(rows), -1)
        for fold in folds:
            fold.update(flat)
        sv += variation_batch(flat, 2.0) ** 2
        anchors[i] = rows[0]
    return ([fold.counts().reshape(shape) for fold in folds],
            np.sqrt(sv).reshape(shape), anchors)


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------

_GRID_NOTE = ("jump on the left evaluated over the finite union of block "
              "grids, each headed by its anchor delta^n; suprema over a "
              "continuum of radii reduce to this set because averages on an "
              "integer-valued metric are constant between consecutive "
              "integer radii; the anchor sequence on the right of the first "
              "inequality holds every block's anchor, the n_r0 block's "
              "included, since a chain of radii that crosses blocks passes "
              "through each block's anchor")


@dataclass(frozen=True)
class DominationReport:
    """Pointwise evaluation of the two jump-transfer inequalities.

    ``rhs_anchor`` bounds the full-grid jump by jumps of the delta-adic
    anchor subsequence (one anchor per block, the n_r0 block included)
    plus short variation; ``rhs_martingale`` pushes on to the martingale:
    square function over the levels n > n_r0, short variation, and jumps
    of the martingale itself.
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


def domination_check(f: martingale.SampleFunction,
                     system: cubes.DyadicSystem, config: OperatorConfig,
                     lam: float) -> DominationReport:
    """`domination_checks` at one lam."""
    return domination_checks(f, system, config, (lam,))[0]


def domination_checks(f: martingale.SampleFunction,
                      system: cubes.DyadicSystem, config: OperatorConfig,
                      lams: Sequence[float]) -> list[DominationReport]:
    """The domination report of ``f`` at each of ``lams``, from one pass
    over its union-grid profile: the profile, the short variation, the
    anchors, the expectations and the square function do not depend on
    lam, so only the jump counts are taken once per lam."""
    # `not lam > 0` also refuses NaN, whose left side is never larger
    if not all(lam > 0 for lam in lams):
        raise ValueError("lam must be positive")
    levels = config.eligible_levels(system)
    grid = config.union_grid()
    jumps, sv, anchor_rows = _grid_pass(f.values, system.space, config, lams)
    exp_rows = np.stack([martingale.expectation_block(f.values, system, n)
                         for n in levels])
    # the blocks after the n_r0 block are those of the levels n > n_r0
    square = _square(anchor_rows[1:], exp_rows)

    reports = []
    for lam, lam_jumps in zip(lams, jumps):
        lhs = lam * np.sqrt(lam_jumps)
        # a chain that crosses blocks passes through every block's anchor,
        # so the anchor sequence holds them all
        # (Jones-Kaufman-Rosenblatt-Wierdl)
        anchor_jumps = jump_count_batch(anchor_rows, lam / 6.0)
        rhs_anchor = 2.0 * lam * np.sqrt(anchor_jumps) + 16.0 * sv
        martingale_jumps = jump_count_batch(exp_rows, lam / 24.0)
        rhs_martingale = (96.0 * math.sqrt(2.0) * square + 16.0 * sv
                          + 2.0 * math.sqrt(2.0) * lam
                          * np.sqrt(martingale_jumps))
        reports.append(DominationReport(
            lam=lam, grid=grid, lhs=lhs,
            rhs_anchor=rhs_anchor, rhs_martingale=rhs_martingale,
            square=square, short_var=sv,
            anchor_jumps=anchor_jumps, martingale_jumps=martingale_jumps,
            violations_anchor=np.nonzero(lhs > rhs_anchor)[0],
            violations_martingale=np.nonzero(lhs > rhs_martingale)[0]))
    return reports


# ---------------------------------------------------------------------------
# norm probes
# ---------------------------------------------------------------------------

def fit_doubling_constant(space: FiniteSpace) -> float | None:
    """Empirical doubling constant: max of m(B(x,2r))/m(B(x,r)) over
    every max(1, n // 32)-th point x and dyadic radii r from the resolution
    with 2r within the safe radius, the masses counted in each center's
    ball of `FiniteSpace.ball_chunks` at the largest 2r; None when no such
    r exists."""
    radii = []
    r = space.resolution()
    while 2 * r <= space.safe_radius:
        radii.append(r)
        r *= 2
    if not radii:
        return None
    radii = np.array(radii)
    centers = np.arange(0, space.n, max(1, space.n // 32))
    best = 1.0
    for _, indptr, _, dists in space.ball_chunks(centers, 2 * radii[-1]):
        for a, b in zip(indptr[:-1], indptr[1:]):
            # the point counts; the center lies in every ball
            small = np.searchsorted(dists[a:b], radii, side="right")
            big = np.searchsorted(dists[a:b], 2 * radii, side="right")
            best = max(best, float((big / small).max()))
    return float(best)


class ProbeRow(NamedTuple):
    operator: str
    p: float
    seed: int
    ensemble: str
    ratio: float


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
            "avg_radius": self.avg_radius,
            "doubling_D": self.doubling_D,
            "avg_bound_ok": self.avg_bound_ok,
        }


def _median(a: np.ndarray) -> float:
    """`np.median` of a 1-D float array, bit for bit, NaN included: the
    middle of a sorted copy, or the mean of the two middles.  np.median
    (numpy 2.4) imports numpy.ma for its NaN check."""
    s = np.sort(a)
    mid = s.size // 2
    if np.isnan(s[-1]):
        # the sort puts NaN last, and np.median returns that entry
        return float(s[-1])
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def norm_probe(system: cubes.DyadicSystem, config: OperatorConfig,
               operator: str, *, p: float = 2.0, trials: int = 200,
               seed: int = 0,
               gammas: Sequence[float] = (0.5, 1.0, 2.0)) -> NormProbeReport:
    """Randomized size of one operator: strong-(p,p) ratios over three
    ensembles, weak-(1,1) ratios on a gamma grid, and (for averages at the
    radius r = max(1, delta^(n_r0+1))) the comparison against D^(1/p)
    with the doubling constant D fitted from the space, None when the
    space has no radius to fit D on.  Rerunning with
    the same seed reproduces every number.

    Trials run in blocks of columns, each block through one operator
    call.  A block holds max(1, `_SWEEP_BYTES` // (width * n * 8)) trials,
    the width being the radii the operator reads (the union grid for the
    variation operator); since the step floors at one trial, the whole
    grid of one trial may exceed `_SWEEP_BYTES` (31.5 MiB on Z/65536).
    The variation operator streams that grid through the one union-grid
    pass (`_grid_pass`), so it holds one block's rows (at most `block_cap`
    radii) for one block of trials; the square and maximal operators read
    the block's expectations one level at a time for all its trials, the
    other operators hold their whole profile, and the FFT transforms a few
    more (n, T) arrays, none per radius.  Trial t
    draws from seed + t, and every column equals its one-column run, so
    the blocking changes no number.  A failed spot check of the FFT engine
    or the sweep raises `SpotCheckError`.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    space = system.space
    r = max(1.0, config.anchor(config.n_r0 + 1))
    # the operator on a block of trials, and the radii it reads
    if operator == "square":
        width, apply = (len(config.eligible_levels(system)),
                        lambda block: _square_block(block, system, config))
    elif operator == "variation":
        width, apply = (len(config.union_grid()),
                        lambda block: _grid_pass(block, space, config)[1])
    elif operator == "average":
        width, apply = 1, lambda block: avg_profile(block, space, [r])[0]
    elif operator == "maximal":
        width, apply = 1, lambda block: martingale.maximal_block(block,
                                                                 system)
    else:
        raise ValueError(f"unknown operator {operator!r}")

    w = space.weights
    rows: list[ProbeRow] = []
    weak: dict[float, float] = {g: 0.0 for g in gammas}
    step = max(1, _SWEEP_BYTES // (max(width, 1) * space.n * 8))
    for first in range(0, trials, step):
        ts = range(first, min(first + step, trials))
        ensembles = [_ENSEMBLES[t % len(_ENSEMBLES)] for t in ts]
        draws = [_draw(e, np.random.default_rng(seed + t), space.n)
                 for e, t in zip(ensembles, ts)]
        outs = apply(np.stack(draws, axis=1))
        for t, ensemble, values, col in zip(ts, ensembles, draws, outs.T):
            out = np.ascontiguousarray(col)
            fnorm = martingale.weighted_norm(values, w, p)
            ratio = (0.0 if fnorm == 0
                     else martingale.weighted_norm(out, w, p) / fnorm)
            rows.append(ProbeRow(operator, p, seed + t, ensemble, float(ratio)))
            l1 = martingale.weighted_norm(values, w, 1)
            if l1 > 0:
                for g in gammas:
                    weak[g] = max(weak[g], g * w[np.abs(out) > g].sum() / l1)

    ratios = np.array([row.ratio for row in rows])
    doubling = avg_ok = None
    if operator == "average":
        doubling = fit_doubling_constant(space)
        if doubling is not None:
            avg_ok = bool(np.all(ratios <= doubling ** (1.0 / p) + 1e-9))
    return NormProbeReport(
        operator=operator, p=p, trials=trials, base_seed=seed,
        rows=tuple(rows),
        strong_max=float(ratios.max()),
        strong_mean=float(ratios.mean()),
        strong_median=_median(ratios),
        weak_max=tuple((g, float(weak[g])) for g in gammas),
        avg_radius=r if operator == "average" else None,
        doubling_D=doubling,
        avg_bound_ok=avg_ok)
