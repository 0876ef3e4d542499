"""Jump counts, q-variation, and upcrossing counts of finite scale sequences.

Everything in this module works on a finite family of real values indexed by
strictly increasing scales (radii).  The three functionals measured here are

* the lambda-jump count: the largest N such that some increasing subsequence
  r_0 < ... < r_N has every consecutive gap |a_{r_i} - a_{r_{i-1}}| > lambda,
* the q-variation: sup over partitions of (sum |successive difference|^q)^{1/q},
* the upcrossing count: maximal number of moves from below a to above b,
  in scale order.

Each functional has one dynamic program over a (scales x points) array;
the single-sequence forms are width-1 calls of it.  Exhaustive references
(`jump_count_oracle`, `variation_oracle`, and the `upcrossing_count` scan)
are kept apart; the test suite pins the fast paths to them on large
random ensembles.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "jump_count",
    "jump_count_batch",
    "jump_count_oracle",
    "JumpFold",
    "variation",
    "variation_batch",
    "variation_oracle",
    "upcrossing_count",
    "upcrossing_count_batch",
    "UpcrossingFold",
]

_ORACLE_MAX_LEN = 20
# columns per block of the jump and variation DPs
_COLS = 8192
# most levels a narrow jump fold starts with, so that short sequences
# rarely double its capacity
_LEVELS = 8
# a jump fold gathers a row's active columns when they are at most this
# share of the block, and folds the whole block in place above it
_DENSE = 0.4
# longest run of dense rows a jump fold folds without a quiet test
_BLIND = 8
# 2**-52, the relative float spacing (see JumpFold._quiet)
_ULP = 2.0 ** -52


# ---------------------------------------------------------------------------
# oracles (exhaustive, independent of the fast implementations)
# ---------------------------------------------------------------------------

def jump_count_oracle(seq, lam: float) -> int:
    """Exhaustive maximum of (length - 1) over all increasing subsequences
    whose every consecutive gap exceeds ``lam``.

    Enumerates subsequences by bitmask; refuses sequences longer than 20
    (exponential cost).  This is the ground truth `jump_count` is tested
    against.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    a = np.asarray(seq, dtype=float)
    n = a.size
    if n > _ORACLE_MAX_LEN:
        raise ValueError(f"oracle refuses length {n} > {_ORACLE_MAX_LEN}")
    best = 0
    for mask in range(1, 1 << n):
        prev = None
        gaps = 0
        ok = True
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            if prev is not None:
                if abs(a[i] - prev) > lam:
                    gaps += 1
                else:
                    ok = False
                    break
            prev = a[i]
        if ok and gaps > best:
            best = gaps
    return best


def variation_oracle(seq, q: float) -> float:
    """Exhaustive q-variation: maximize sum |gap|^q over all partitions
    (subsequences), then take the 1/q power.  Refuses length > 16."""
    if not 1 <= q < math.inf:
        raise ValueError("q must be finite and >= 1")
    a = np.asarray(seq, dtype=float)
    n = a.size
    if n > 16:
        raise ValueError(f"oracle refuses length {n} > 16")
    best = 0.0
    for mask in range(1, 1 << n):
        prev = None
        s = 0.0
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            if prev is not None:
                s += abs(a[i] - prev) ** q
            prev = a[i]
        if s > best:
            best = s
    return best ** (1.0 / q)


def upcrossing_count(seq, a: float, b: float) -> int:
    """Number of completed below-``a`` then above-``b`` transitions, in order.

    The single forward scan (seek value < a, then seek value > b, repeat)
    attains the supremum over subsequences.  Having no exhaustive oracle,
    it is the reference `upcrossing_count_batch` is tested against.
    """
    if not b > a:
        raise ValueError("need b > a")
    vals = np.asarray(seq, dtype=float)
    count = 0
    seeking_low = True
    for v in vals:
        if seeking_low:
            if v < a:
                seeking_low = False
        elif v > b:
            count += 1
            seeking_low = True
    return count


# ---------------------------------------------------------------------------
# fast implementations
# ---------------------------------------------------------------------------

def jump_count(seq, lam: float) -> int:
    """Largest N admitting scales r_0 < ... < r_N with all gaps > ``lam``:
    `jump_count_batch` on a single column."""
    a = np.asarray(seq, dtype=float)
    return int(jump_count_batch(a.reshape(-1, 1), lam)[0])


def jump_count_batch(values: np.ndarray, lam: float) -> np.ndarray:
    """`jump_count` down each column of a (scales x points) array: a
    `JumpFold` fed the whole array as one block.

    Exact chain DP (a greedy pass can undercount: an early jump may block
    two later ones).  lo[k]/hi[k] are the min/max of the earlier values
    whose longest chain has >= k jumps.  The sets are nested, so the test
    a_i - lo[k] > lam or hi[k] - a_i > lam passes on a prefix of levels,
    whose length is best[i]; rounding is monotone, so it makes exactly the
    pairwise comparisons.  a_i then joins levels 0..best[i]: plainly on the
    levels every column joins, and on the rest through a row equal to a_i
    up to each column's best and to the fmin (fmax) identity above it, so
    no masked ufunc runs.  NaN joins no chain (fmin/fmax skip it).

    Each column skips the values of its quiet interval: those in the
    envelope of the level b where its last value stopped and within lam
    of both its ends.  Level b is out of their reach, so they would join
    levels 0..b, whose nested envelopes hold them already, and no count
    can change.  A row sends its other (active) columns through the level
    DP, gathered when they are at most 40% of a column block and the
    whole block in place otherwise (see `JumpFold`).
    """
    vals = _scales_by_points(values)
    fold = JumpFold(lam, vals.shape[1])
    fold.update(vals)
    return fold.counts()


class _Block:
    """The state of one column block of a `JumpFold`: the level envelopes
    (``lo``, ``hi``, ``used`` levels of a doubling capacity), each
    column's quiet interval [``qlo``, ``qhi``], and the dense-run state:
    ``best`` (the last dense row's levels, while the quiet intervals are
    stale), ``run`` (the length of the last untested run) and ``blind``
    (the rows of it still to fold)."""

    __slots__ = ("lo", "hi", "used", "qlo", "qhi", "best", "run", "blind")

    def __init__(self, cap: int, qlo: np.ndarray, qhi: np.ndarray) -> None:
        w = len(qlo)
        self.lo, self.hi = np.full((cap, w), np.inf), np.full((cap, w), -np.inf)
        self.used, self.qlo, self.qhi = 0, qlo, qhi
        self.best, self.run, self.blind = None, 0, 0


class JumpFold:
    """The jump-count DP of ``width`` columns, fed consecutive scales in
    blocks of rows.

    ``update(rows)`` folds a (k, width) block of the next k scales into
    every column's level envelopes; ``counts()`` reads the jump counts of
    the scales seen so far.  The DP reads one scale at a time, so any split
    of the rows into blocks gives bitwise the counts of one block.  It runs
    on blocks of at most 8192 columns, each with its own envelopes; the
    blocks share one set of scratch arrays, so the (levels x columns)
    temporaries stay bounded whatever the width.

    Most values of a converging sequence change nothing, so each column
    keeps a quiet interval, two floats: the values v of the envelope
    [lo_b, hi_b] of the level b at which its last folded value stopped
    that have v - lo_b <= lam and hi_b - v <= lam, in the float
    expressions of the reach test (each end moved inward past the
    rounding of lo_b + lam and hi_b - lam, see `_quiet`).  Level b is out
    of reach of such a v, so v would join only levels 0..best(v) <= b,
    whose nested envelopes all hold it already: a skipped fmin/fmax could
    only flip the sign of a zero, which no comparison sees.  NaN is never
    outside an interval, and joins no chain.  So a row costs two
    comparisons per column, and only its active columns (outside their
    intervals) reach the level DP: gathered, folded and scattered back
    with fresh intervals when they are at most 40% of the block, the
    whole block in place otherwise.  A dense row leaves the intervals
    stale; the rows after it fold in place untested, 2 after the first
    dense test in a row, then 4, then 8, and the next test refreshes the
    intervals from the last row's levels.  A block's first row puts every
    column's one value at level 0, which is its quiet interval.
    """

    # fold-row padding by fold flag: levels above a column's best get the
    # fmin (fmax) identity, levels at or below it vi itself (x + -0.0 == x)
    _PAD_LO = np.array([np.inf, -0.0])
    _PAD_HI = np.array([-np.inf, -0.0])

    def __init__(self, lam: float, width: int) -> None:
        # `not lam > 0` also refuses NaN, which would count no jumps
        if not lam > 0:
            raise ValueError("lambda must be positive")
        self.lam = lam
        self.width = width
        # each envelope array holds a capacity of levels that doubles when
        # a chain outgrows it, starting at up to _LEVELS levels of _COLS
        # cells in all; a block's first row sets its quiet intervals
        cap = min(_LEVELS, max(1, _COLS // max(width, 1)))
        quiet = np.empty((2, width))
        self._blocks = [_Block(cap, quiet[0, c:c + _COLS],
                               quiet[1, c:c + _COLS])
                        for c in range(0, max(width, 1), _COLS)]
        self._scratch = ()
        self._reserve(cap)
        self._masks = np.empty((2, min(_COLS, width)), dtype=bool)

    def _reserve(self, cap: int) -> None:
        """Scratch for ``cap`` levels of the widest block: diff, reach and
        cmp, the fold flags (on cmp's bytes) and the fold row (on diff's);
        each is dead before its alias is written."""
        if self._scratch and cap <= len(self._scratch[0]):
            return
        shape = (cap, min(_COLS, self.width))
        diff, cmp = np.empty(shape), np.empty(shape, dtype=bool)
        self._scratch = (diff, np.empty(shape, dtype=bool), cmp,
                         cmp.view(np.int8), diff)

    def update(self, rows: np.ndarray) -> None:
        rows = _scales_by_points(rows)
        if rows.shape[1] != self.width:
            raise ValueError(f"expected {self.width} columns")
        # inf + -inf in a fold row is NaN, which fmin/fmax skip as they
        # skip every level above the fold; infinite envelopes give NaN or
        # infinite interval ends, which _quiet resolves
        with np.errstate(invalid="ignore", over="ignore"):
            for c, block in zip(range(0, self.width, _COLS), self._blocks):
                self._fold_rows(block, rows[:, c:c + _COLS])

    def _fold_rows(self, block: _Block, vals: np.ndarray) -> None:
        w = vals.shape[1]
        active, above = (m[:w] for m in self._masks)
        i = 0
        while i < len(vals):
            if block.blind:
                k = min(block.blind, len(vals) - i)
                block.blind -= k
                self._fold_dense(block, vals[i:i + k])
                i += k
                continue
            vi = vals[i]
            i += 1
            if not block.used:
                # a fresh block: every column joins level 0, whose one
                # value is its quiet interval
                block.lo, block.hi, block.used, _ = self._fold_levels(
                    block.lo, block.hi, 0, vi[None])
                block.qlo[:], block.qhi[:] = block.lo[0], block.hi[0]
                continue
            if block.best is not None:
                block.qlo[:], block.qhi[:] = self._quiet(block.lo, block.hi,
                                                         block.best)
                block.best = None
            np.less(vi, block.qlo, out=active)
            np.greater(vi, block.qhi, out=above)
            active |= above
            n = np.count_nonzero(active)
            if n > _DENSE * w:
                self._fold_dense(block, vi[None])
                block.run = block.blind = min(max(2 * block.run, 2), _BLIND)
                continue
            block.run = 0
            if n:
                self._fold_sparse(block, vi, np.flatnonzero(active))

    def _fold_dense(self, block: _Block, vals: np.ndarray) -> None:
        """Fold ``vals`` into every column of ``block``; the quiet
        intervals go stale until the next test."""
        block.lo, block.hi, block.used, best = self._fold_levels(
            block.lo, block.hi, block.used, vals)
        block.best = best.astype(np.min_scalar_type(block.used))

    def _fold_sparse(self, block: _Block, vi: np.ndarray,
                     cols: np.ndarray) -> None:
        """Fold the values ``vi[cols]`` into the envelopes of those columns
        of ``block``, gathered, and scatter them back with fresh quiet
        intervals."""
        lo, hi, used = block.lo, block.hi, block.used
        # a chain grows by at most one level per scale
        top = min(used + 1, len(lo))
        glo, ghi, used, best = self._fold_levels(
            lo[:top].take(cols, axis=1), hi[:top].take(cols, axis=1), used,
            vi[cols][None])
        if used > len(lo):
            block.lo = lo = np.vstack([lo, np.full_like(lo, np.inf)])
            block.hi = hi = np.vstack([hi, np.full_like(hi, -np.inf)])
        lo[:used, cols] = glo[:used]
        hi[:used, cols] = ghi[:used]
        block.used = used
        block.qlo[cols], block.qhi[cols] = self._quiet(glo, ghi, best)

    def _quiet(self, lo: np.ndarray, hi: np.ndarray,
               best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quiet intervals of the columns of C-ordered (levels x columns)
        envelopes at the levels ``best``.  For a normal a, |a| * 2**-52 is
        at least the spacing of floats at a, and a sum with a subnormal
        result is exact; so every v at or above start = (hi_b - lam)
        moved up by that much has hi_b - v <= lam, and likewise below
        stop for v - lo_b.  An end that comes out NaN (inf - inf) drops
        out of fmax/fmin and leaves lo_b (hi_b): either the envelope is
        empty or holds one infinite value, which the reach test's own NaN
        leaves unreached, or hi_b - lam (lo_b + lam) overflowed, which
        puts the whole envelope within lam."""
        w = lo.shape[1]
        at = np.multiply(best, w, dtype=np.intp)
        at += np.arange(w)
        elo, ehi = lo.take(at), hi.take(at)
        start = ehi - self.lam
        step = np.abs(start)
        step *= _ULP
        start += step
        np.fmax(start, elo, out=start)
        stop = elo + self.lam
        np.abs(stop, out=step)
        step *= _ULP
        stop -= step
        np.fmin(stop, ehi, out=stop)
        return start, stop

    def _fold_levels(self, lo: np.ndarray, hi: np.ndarray, used: int,
                     vals: np.ndarray):
        """The level DP: fold the rows ``vals`` into the envelopes ``lo``,
        ``hi`` (``used`` levels in use) in place; returns the envelopes
        (new arrays when the capacity doubled), the levels in use and the
        last row's best."""
        w = vals.shape[1]
        diff, reach, cmp, flags, row = (b[:used, :w] for b in self._scratch)
        for vi in vals:
            np.subtract(vi, lo[:used], out=diff)
            np.greater(diff, self.lam, out=reach)
            np.subtract(hi[:used], vi, out=diff)
            np.greater(diff, self.lam, out=cmp)
            reach |= cmp
            best, last = reach.sum(axis=0), reach
            low, top = int(best.min()) + 1, int(best.max()) + 1
            # a chain grows by at most one level per scale
            if top > used:
                used = top
                if used > len(lo):
                    # double the level capacity; empty envelopes never reach
                    lo = np.vstack([lo, np.full_like(lo, np.inf)])
                    hi = np.vstack([hi, np.full_like(hi, -np.inf)])
                    self._reserve(len(lo))
                diff, reach, cmp, flags, row = (b[:used, :w]
                                                for b in self._scratch)
            # level k folds vi in iff k <= best: every column folds the
            # levels below low, and on the levels from low to top the fold
            # flags are reach shifted down by one (reach is a prefix)
            np.fmin(lo[:low], vi, out=lo[:low])
            np.fmax(hi[:low], vi, out=hi[:low])
            if top > low:
                part, pad = flags[low:top], row[low:top]
                part[...] = last[low - 1:top - 1]
                self._PAD_LO.take(part, out=pad, mode="clip")
                pad += vi
                np.fmin(lo[low:top], pad, out=lo[low:top])
                self._PAD_HI.take(part, out=pad, mode="clip")
                pad += vi
                np.fmax(hi[low:top], pad, out=hi[low:top])
        return lo, hi, used, best

    def counts(self) -> np.ndarray:
        # a column's count is its highest nonempty level
        return np.concatenate([
            np.maximum((b.lo[:b.used] <= b.hi[:b.used]).sum(axis=0) - 1, 0)
            for b in self._blocks])


def variation(seq, q: float) -> float:
    """q-variation for finite q >= 1: `variation_batch` on a single column.

    q < 1 and q = inf are refused (the partition supremum is still defined
    there but is not what the program computes).
    """
    a = np.asarray(seq, dtype=float)
    return float(variation_batch(a.reshape(-1, 1), q)[0])


def variation_batch(values: np.ndarray, q: float) -> np.ndarray:
    """`variation` down each column of a (scales x points) array.

    Exact dynamic program best[i] = max_{j<i} (best[j] + |a_i - a_j|^q);
    the answer is (max_i best[i])^{1/q}.
    """
    # NaN fails both comparisons
    if not 1 <= q < math.inf:
        raise ValueError("q must be finite and >= 1")
    return _by_columns(values, lambda vals: _variation_dp(vals, q))


def _variation_dp(vals: np.ndarray, q: float) -> np.ndarray:
    n, width = vals.shape
    if n < 2:
        return np.zeros(width)
    best = np.zeros((n, width))
    # one scratch buffer for the gaps of every step; d * d is |d|**2 exactly
    gaps = np.empty((n - 1, width))
    for i in range(1, n):
        d = gaps[:i]
        np.subtract(vals[i], vals[:i], out=d)
        if q == 2:
            np.multiply(d, d, out=d)
        else:
            np.abs(d, out=d)
            np.power(d, q, out=d)
        d += best[:i]
        np.max(d, axis=0, out=best[i])
    return np.max(best, axis=0) ** (1.0 / q)


def _by_columns(values: np.ndarray, dp) -> np.ndarray:
    """``dp`` down a (scales x points) array, run on blocks of at most 8192
    columns so that its (scales x columns) temporaries stay bounded
    whatever the width.  Columns are independent, so every column equals
    its one-column run."""
    vals = _scales_by_points(values)
    return np.concatenate([dp(vals[:, c:c + _COLS])
                           for c in range(0, max(vals.shape[1], 1), _COLS)])


def _scales_by_points(values: np.ndarray) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValueError("expected a 2-d (scales x points) array")
    return vals


def upcrossing_count_batch(values: np.ndarray, a: float, b: float) -> np.ndarray:
    """`upcrossing_count` down each column of a (scales x points) array: an
    `UpcrossingFold` fed the whole array as one block."""
    vals = _scales_by_points(values)
    fold = UpcrossingFold(a, b, vals.shape[1])
    fold.update(vals)
    return fold.counts()


class UpcrossingFold:
    """The upcrossing scan of ``width`` columns, fed consecutive scales in
    blocks of rows; any split of the rows gives the counts of one block."""

    def __init__(self, a: float, b: float, width: int) -> None:
        if not b > a:
            raise ValueError("need b > a")
        self.a, self.b, self.width = a, b, width
        self._count = np.zeros(width, dtype=np.int64)
        self._seeking_low = np.ones(width, dtype=bool)

    def update(self, rows: np.ndarray) -> None:
        rows = _scales_by_points(rows)
        if rows.shape[1] != self.width:
            raise ValueError(f"expected {self.width} columns")
        count, seeking_low = self._count, self._seeking_low
        for row in rows:
            went_low = seeking_low & (row < self.a)
            went_high = ~seeking_low & (row > self.b)
            count += went_high
            seeking_low = (seeking_low & ~went_low) | went_high
        self._seeking_low = seeking_low

    def counts(self) -> np.ndarray:
        return self._count.copy()
