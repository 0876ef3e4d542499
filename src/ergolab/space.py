"""Finite metric measure spaces: Cayley-ball truncations, finite quotients,
and explicit-matrix spaces, plus the geometric diagnostics: the growth
exponent and the doubling cover, which the ``space`` command reports, and
the annular decay profile.

Two ways to make an infinite group finite at desk scale:

* truncation: enumerate the Cayley ball B_R and use the metric of the induced
  subgraph; statistics are trustworthy only up to the safe radius R/4,
* quotient: reduce mod N; the quotient word metric is globally defined and
  balls of radius <= N/4 are isometric to the infinite-group balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "FinGroup",
    "FiniteSpace",
    "MatrixSpace",
    "GroupSpace",
    "BallTable",
    "AnnularReport",
    "DoublingReport",
    "build_group_space",
    "random_square_space",
    "annular_decay_profile",
    "geometric_doubling_check",
    "greedy_net",
    "fit_growth_exponent",
]

_MAX_POINTS = 300_000          # hard cap on enumerated group elements
_H3_MAX_RADIUS = 28            # |B_28| = 261,815 <= _MAX_POINTS < |B_29| = 301,323
_MAX_MATRIX = 4096             # largest space for which a full matrix is allowed
# uint8 BFS rows kept per truncation: every row of a ball of <= 11,585 points
_ROW_CACHE_BYTES = 8 * _MAX_MATRIX ** 2
_BALL_PAIRS = 8192             # (center, point) pairs per block of `ball_chunks`
# a ball search pays while a center's share of its block's layer steps costs
# less than _SEARCH_PAYS * n point operations, see GroupSpace._ball_kernel
_SEARCH_PAYS = 6


class CapacityError(ValueError):
    """Requested extent exceeds what fits in the 64-bit element encoding."""


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinGroup:
    """A group from one of the supported families, with exact integer
    arithmetic on coordinate tuples.

    family "zd": Z^d (abelian), coordinates added componentwise.
    family "h3": discrete Heisenberg group on triples,
        (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y').
    ``modulus`` reduces every coordinate mod N (finite quotient).
    """

    family: str
    d: int
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.family not in ("zd", "h3"):
            raise ValueError(f"unknown group family {self.family!r}")
        if self.family == "h3" and self.d != 3:
            raise ValueError("h3 uses exactly 3 coordinates")
        if self.d < 1:
            raise ValueError("need at least one coordinate")
        if self.modulus is not None and self.modulus < 4:
            raise ValueError("quotient modulus must be >= 4")

    @property
    def identity(self) -> np.ndarray:
        return np.zeros(self.d, dtype=np.int64)

    def standard_generators(self) -> np.ndarray:
        if self.family == "zd":
            eye = np.eye(self.d, dtype=np.int64)
            gens = np.concatenate([eye, -eye], axis=0)
        else:
            gens = np.array(
                [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=np.int64
            )
        return self._reduce(gens)

    def _reduce(self, arr: np.ndarray) -> np.ndarray:
        if self.modulus is not None:
            return np.mod(arr, self.modulus)
        return arr

    def mult(self, a, b) -> np.ndarray:
        """a * b, broadcasting over leading axes of either argument."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.family == "zd":
            return self._reduce(a + b)
        x = a[..., 0] + b[..., 0]
        y = a[..., 1] + b[..., 1]
        z = a[..., 2] + b[..., 2] + a[..., 0] * b[..., 1]
        out = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
        return self._reduce(out)

    def inv(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.family == "zd":
            return self._reduce(-a)
        out = np.stack(
            [-a[..., 0], -a[..., 1], -a[..., 2] + a[..., 0] * a[..., 1]],
            axis=-1,
        )
        return self._reduce(out)


def _key_box(group: FinGroup, radius: int | None) -> tuple[np.ndarray, ...]:
    """(low, size, place) per coordinate of the mixed-radix key box that
    holds the quotient, or the standard-generator Cayley ball of the given
    radius; the key of x is sum((x - low) * place)."""
    if group.modulus is not None:
        low = np.zeros(group.d, dtype=np.int64)
        size = np.full(group.d, group.modulus, dtype=np.int64)
    elif group.family == "zd":
        low = np.full(group.d, -radius, dtype=np.int64)
        size = np.full(group.d, 2 * radius + 1, dtype=np.int64)
    else:
        # z moves only on y-steps, by the current x, so |z| <= #x-steps * #y-steps
        zmax = (radius // 2) * ((radius + 1) // 2)
        low = np.array([-radius, -radius, -zmax], dtype=np.int64)
        size = np.array([2 * radius + 1, 2 * radius + 1, 2 * zmax + 1], dtype=np.int64)
    if int(np.prod(size.astype(object))) > 2**62:
        raise CapacityError("element encoding exceeds 64-bit range")
    place = np.cumprod(np.append(1, size[:0:-1]))[::-1]
    return low, size, place


def _encode(elems: np.ndarray, box: tuple[np.ndarray, ...]) -> np.ndarray:
    """Keys of coordinate rows (last axis); -1 outside the box."""
    low, size, place = box
    shifted = elems - low
    in_box = ((shifted >= 0) & (shifted < size)).all(axis=-1)
    return np.where(in_box, shifted @ place, -1)


def _decode(keys: np.ndarray, box: tuple[np.ndarray, ...]) -> np.ndarray:
    """Coordinate rows of in-box keys (inverse of `_encode`)."""
    low, size, place = box
    elems = keys[:, None] // place
    elems %= size
    elems += low
    return elems


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

class FiniteSpace:
    """Base class: indexed points, a metric through `dist_row`, and weights."""

    def __init__(self, n: int, weights, r0: float, label: str) -> None:
        if n < 1:
            raise ValueError("space needs at least one point")
        if weights is None:
            weights = np.ones(n)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("weights must be one per point")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        if not r0 > 0:
            raise ValueError("r0 must be positive")
        self.n = n
        self.weights = weights
        self.r0 = float(r0)
        self.label = label
        self._matrix: np.ndarray | None = None

    # subclasses implement _dist_row
    def _dist_row(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def dist_row(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"point {i} out of range")
        return self._dist_row(i)

    def ball_chunks(self, centers, radius: float):
        """Closed balls B(c, radius) around ``centers``, yielded in blocks
        ``(lo, indptr, members, dists)`` of consecutive centers: the ball of
        ``centers[lo + j]`` is ``members[indptr[j]:indptr[j + 1]]`` at
        distances ``dists[indptr[j]:indptr[j + 1]]``, listed by distance.
        Ties keep ascending index order in distance rows and searched balls,
        and the identity ball's canonical order, the order the group sweep
        adds in, in translated balls.  A block holds one center at least and
        otherwise at most _BALL_PAIRS (center, point) pairs, and is costed
        for the centers it holds.  On quotients each ball is the
        translate c * B(e, radius) of the identity ball; truncations search
        small balls over the generator graph; larger ones, like every ball
        of other spaces, are thresholded distance rows."""
        centers = np.asarray(centers, dtype=np.int64)
        step = max(1, min(centers.size, _BALL_PAIRS // self._ball_bound(radius)))
        balls = self._ball_kernel(radius, step)
        for lo in range(0, centers.size, step):
            yield (lo, *balls(centers[lo:lo + step], radius))

    def _ball_bound(self, radius: float) -> int:
        """Upper bound on the number of points of any ball of this radius."""
        return self.n

    def _ball_kernel(self, radius: float, step: int):
        """The builder `ball_chunks` uses for blocks of ``step`` centers."""
        return self._row_balls

    def _row_balls(self, block: np.ndarray,
                   radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # one distance row per center, one row held at a time, cut at the
        # radius and stably sorted by distance
        members, dists = [], []
        for c in block.tolist():
            row = self.dist_row(c)
            inside = np.flatnonzero(row <= radius)
            inside = inside[np.argsort(row[inside], kind="stable")]
            members.append(inside)
            dists.append(row[inside])
        indptr = np.zeros(block.size + 1, dtype=np.int64)
        np.cumsum([m.size for m in members], out=indptr[1:])
        return indptr, np.concatenate(members), np.concatenate(dists)

    def diameter(self) -> float:
        raise NotImplementedError

    def resolution(self) -> float:
        """Smallest positive distance (scales below it are degenerate)."""
        raise NotImplementedError

    @property
    def safe_radius(self) -> float:
        """Largest radius at which statistics are free of truncation or
        wrap-around contamination."""
        return self.diameter()

    @property
    def is_quotient(self) -> bool:
        """Whether the space is a finite group quotient, whose averages
        sweep right translations."""
        return False

    def dist_matrix(self) -> np.ndarray:
        if self.n > _MAX_MATRIX:
            raise CapacityError(
                f"refusing to materialize a {self.n}x{self.n} distance matrix"
            )
        if self._matrix is None:
            m = np.empty((self.n, self.n))
            for i in range(self.n):
                m[i] = self.dist_row(i)
            m.flags.writeable = False
            self._matrix = m
        return self._matrix


class MatrixSpace(FiniteSpace):
    """A space given by an explicit distance matrix (at most 4096 points)."""

    def __init__(self, matrix, weights=None, r0: float = 1.0,
                 label: str = "matrix") -> None:
        # a private read-only copy: rows handed out are views of it
        matrix = np.array(matrix, dtype=float)
        matrix.flags.writeable = False
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("distance matrix must be square")
        n = matrix.shape[0]
        if n > _MAX_MATRIX:
            raise CapacityError(f"matrix spaces are capped at {_MAX_MATRIX} points")
        if not np.allclose(np.diag(matrix), 0.0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(matrix < 0):
            raise ValueError("distances must be nonnegative")
        coincide = matrix == 0
        np.fill_diagonal(coincide, False)
        if coincide.any():
            i, j = (int(v) for v in np.argwhere(coincide)[0])
            raise ValueError(f"points ({i}, {j}) coincide: d({i}, {j}) == 0, "
                             f"so the matrix is a pseudometric, not a metric")
        super().__init__(n, weights, r0, label)
        self._matrix = matrix
        self._diameter = float(matrix.max())

    def _dist_row(self, i: int) -> np.ndarray:
        return self._matrix[i]

    def diameter(self) -> float:
        return self._diameter

    def resolution(self) -> float:
        pos = self._matrix[self._matrix > 0]
        return float(pos.min()) if pos.size else 1.0


class GroupSpace(FiniteSpace):
    """Points of a group family — a full finite quotient or a truncated
    Cayley ball — under the word metric, enumerated in a canonical order
    (word length, then key order, which is lexicographic coordinate order).

    A truncation needs ``neighbors``, the (n, #generators) table of the
    indices of x * g (-1 outside the ball) that `build_group_space` takes
    from its enumeration; a quotient takes none, since `_product` serves
    it."""

    def __init__(self, group: FinGroup, elements: np.ndarray, wl: np.ndarray,
                 radius: int | None, weights=None, r0: float = 1.0,
                 label: str = "group",
                 neighbors: np.ndarray | None = None) -> None:
        super().__init__(elements.shape[0], weights, r0, label)
        self.group = group
        self.elements = elements
        self.word_lengths = wl
        self.radius = radius            # truncation radius, None for quotients
        # the word metric's generators, symmetric: x ~ x * g
        self.generators = group.standard_generators()
        self._box = _key_box(group, radius)
        self._keys = _encode(elements, self._box)
        self._key_order = np.argsort(self._keys)
        sorted_keys = self._keys[self._key_order]
        if np.any(np.diff(sorted_keys) == 0):
            raise ValueError("duplicate elements in enumeration")
        if sorted_keys[0] < 0:
            raise ValueError("element outside the key box")
        if self.is_quotient:
            # a full quotient fills its key box, so _key_order maps a key
            # straight to its index; row c of _digits is the key digit
            # (v mod N) * place_c of a column value v in [0, 2N)
            N = group.modulus
            self._digits = np.arange(2 * N) % N * self._box[2][:, None]
            # one contiguous copy per coordinate column for _product
            self._columns = [np.ascontiguousarray(elements[:, c])
                             for c in range(group.d)]
        else:
            # a truncation's keys are sparse in their box: index_of
            # searches them
            self._sorted_keys = sorted_keys
            if (neighbors is None
                    or neighbors.shape != (self.n, len(self.generators))):
                raise ValueError("a truncation needs its neighbor table, one "
                                 "row per element and one column per "
                                 "generator")
            self._neighbors = neighbors
        self._row_cache: dict[int, np.ndarray] = {}

    def index_of(self, elems: np.ndarray) -> np.ndarray:
        """Indices of the given coordinate rows; -1 where not enumerated."""
        elems = np.atleast_2d(np.asarray(elems, dtype=np.int64))
        keys = _encode(elems, self._box)
        if self.is_quotient:
            return np.where(keys >= 0, self._key_order[keys], -1)
        pos = np.clip(np.searchsorted(self._sorted_keys, keys), 0, self.n - 1)
        return np.where(self._sorted_keys[pos] == keys, self._key_order[pos], -1)

    # -- metric ---------------------------------------------------------------
    @property
    def is_quotient(self) -> bool:
        return self.group.modulus is not None

    def _dist_row(self, i: int) -> np.ndarray:
        if self.is_quotient:
            # d(x_i, x_k) = |x_i^-1 x_k| by left invariance
            inv = self.group.inv(self.elements[i])
            return self.word_lengths[self._product(inv, self._columns)].astype(float)
        if self.group.family == "zd":
            # the l^1 formula is exact on truncated diamonds: a monotone
            # path that shrinks coordinates before growing them stays inside
            return np.abs(self.elements - self.elements[i]).sum(axis=1).astype(float)
        row = self._row_cache.get(i)
        if row is None:
            row = self._bfs_row(i)
            # keep rows until the budget is spent, then recompute the rest
            if (len(self._row_cache) + 1) * self.n <= _ROW_CACHE_BYTES:
                self._row_cache[i] = row
        return row.astype(float)

    def _bfs_row(self, i: int) -> np.ndarray:
        nbrs = self._neighbors
        dist = _bfs_layers(self.n, i, lambda frontier: nbrs[frontier].ravel())[0]
        if np.any(dist < 0):
            raise ValueError("truncated ball is not connected (BFS gap)")
        # distances are at most the diameter 2R <= 2 * _H3_MAX_RADIUS
        return dist.astype(np.uint8)

    def _ball_bound(self, radius: float) -> int:
        # every ball has at most the points of the identity ball B(e, r) of
        # the group: quotients are vertex-transitive, and a truncation's
        # induced metric only lengthens distances.  Word lengths are
        # integers below n, and an integer key spares searchsorted a float
        # copy of them on every block
        return int(np.searchsorted(self.word_lengths,
                                   math.floor(min(radius, self.n)), side="right"))

    def _ball_kernel(self, radius: float, step: int):
        if self.is_quotient:
            return self._translated_balls
        # a truncation's induced metric is not translation-invariant: per
        # center, the search costs (layers + 1) / step layer steps of
        # about 120 us, and a thresholded row about 0.04-0.12 us per point;
        # they meet where (layers + 1) * _BALL_PAIRS / step is about 3n to
        # 8n (measured on the Z^2 R=20 and H3 R=10 balls, 2 cores)
        layers = min(int(radius), int(self.diameter()))
        if (layers + 1) * _BALL_PAIRS <= _SEARCH_PAYS * self.n * step:
            return self._search_balls
        return self._row_balls

    def _translated_balls(self, block: np.ndarray,
                          radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # B(c, r) = c * B(e, r) at distances d(c, c * g) = |g|, and B(e, r)
        # is a prefix of the canonical order
        m = self._ball_bound(radius)
        members = self._product([col[block, None] for col in self._columns],
                                [col[:m] for col in self._columns])
        return (np.arange(block.size + 1) * m, members.ravel(),
                np.tile(self.word_lengths[:m], block.size))

    def _search_balls(self, block: np.ndarray,
                      radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # one breadth-first search from every center at once, over pair keys
        # j * n + point for the j-th center of the block
        n, nbrs = self.n, self._neighbors
        keys = np.arange(block.size) * n + block
        layers, prev = [keys], keys[:0]
        for _ in range(int(radius)):
            src, pts = np.divmod(keys, n)
            nb = nbrs[pts]
            cand = _sorted_unique((src[:, None] * n + nb)[nb >= 0])
            # generators are symmetric, so the neighbors of layer L lie in
            # layers L - 1, L and L + 1: only two layers need checking
            new = cand[~(_in_sorted(cand, keys) | _in_sorted(cand, prev))]
            if not new.size:
                break
            prev, keys = keys, new
            layers.append(keys)
        # the layers come by distance, each in ascending pair keys: a stable
        # sort by center keeps both orders within every ball
        seg, members = np.divmod(np.concatenate(layers), n)
        order = np.argsort(seg, kind="stable")
        dists = np.repeat(np.arange(len(layers)),
                          [layer.size for layer in layers])[order]
        return (np.searchsorted(seg[order], np.arange(block.size + 1)),
                members[order], dists)

    def diameter(self) -> float:
        if self.is_quotient:
            return float(self.word_lengths.max())
        # exact for truncations of both families: 2R is attained along a
        # single generator axis and never exceeded (geodesics via identity)
        return float(2 * self.radius)

    def resolution(self) -> float:
        return 1.0

    @property
    def safe_radius(self) -> float:
        if self.is_quotient:
            return float(self.group.modulus // 4)
        return float(max(1, self.radius // 4))

    # -- translation machinery for the averaging operators ---------------------
    def shell_slice(self, r: int) -> slice:
        """Canonical-order slice of the sphere {|u| = r}."""
        lo = int(np.searchsorted(self.word_lengths, r, side="left"))
        hi = int(np.searchsorted(self.word_lengths, r, side="right"))
        return slice(lo, hi)

    def right_perm(self, j: int) -> np.ndarray:
        """Permutation i -> index(x_i * u_j) (quotients only), computed on
        every call by `_product`."""
        if not self.is_quotient:
            raise ValueError("right translations are total only on quotients")
        if not 0 <= j < self.n:
            raise IndexError(f"element {j} out of range")
        return self._product(self._columns, self.elements[j])

    def _product(self, x, u) -> np.ndarray:
        """Indices of the quotient products x * u, broadcast over the
        coordinate columns ``x[c]`` and ``u[c]``, from the key digits of
        the product's columns."""
        keys = self._digits[0][x[0] + u[0]]
        for c in range(1, self.group.d):
            shift = u[c]
            if self.group.family == "h3" and c == 2:
                # z picks up x * y': reduced first, so the column stays < 2N
                shift = (shift + x[0] * u[1]) % self.group.modulus
            keys += self._digits[c][x[c] + shift]
        return self._key_order[keys]


# ---------------------------------------------------------------------------
# ball tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallTable:
    """Closed balls around one center at every integer radius up to the
    largest distance from it."""

    center: int
    radii: tuple[int, ...]
    _order: np.ndarray = field(repr=False)
    _dists: np.ndarray = field(repr=False)
    _cum_weight: np.ndarray = field(repr=False)

    @classmethod
    def from_space(cls, space: FiniteSpace, center: int) -> "BallTable":
        _, _, order, dists = next(space.ball_chunks([center],
                                                    space.diameter()))
        return cls.from_sorted(center, order, dists, space.weights[order])

    @classmethod
    def from_sorted(cls, center: int, order: np.ndarray, dists: np.ndarray,
                    weights: np.ndarray) -> "BallTable":
        """The table of the points ``order`` at the ascending distances
        ``dists`` from ``center``, with their ``weights``."""
        radii = tuple(range(int(math.ceil(dists[-1])) + 1))
        return cls(center, radii, order, dists, np.cumsum(weights))

    def _cut(self, r: float) -> int:
        return int(np.searchsorted(self._dists, r, side="right"))

    def members(self, r: float) -> np.ndarray:
        return self._order[: self._cut(r)]

    def volume(self, r: float) -> float:
        k = self._cut(r)
        return float(self._cum_weight[k - 1]) if k else 0.0


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Distinct entries of ``a`` in ascending order, by sort and adjacent
    compare: np.unique (numpy 2.4) is about 8x slower on BFS frontiers."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _in_sorted(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``a`` that occur in the sorted array ``ref``."""
    if not ref.size:
        return np.zeros(a.size, dtype=bool)
    pos = np.minimum(np.searchsorted(ref, a), ref.size - 1)
    return ref[pos] == a


def _bfs_layers(n: int, start: int, step,
                radius: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first layers over the ids 0..n-1 from ``start``, stopping
    after layer ``radius``: returns the distances (entry v is the distance
    of id v, -1 where unreached) and the layers, each the ascending ids at
    one distance.  ``step(frontier)`` gives the ids adjacent to the frontier
    ids, -1 for a neighbor outside the id range.  The reached count is
    checked against _MAX_POINTS after every layer."""
    dist = np.full(n + 1, -1, dtype=np.int32)
    dist[n] = 0         # the neighbor id -1 reads this entry: never unreached
    dist[start] = 0
    layers = [np.array([start])]
    reached = 1
    while layers[-1].size and (radius is None or len(layers) <= radius):
        cand = step(layers[-1])
        frontier = _sorted_unique(cand[dist[cand] < 0])
        dist[frontier] = len(layers)
        reached += frontier.size
        if reached > _MAX_POINTS:
            raise CapacityError(f"enumeration exceeded {_MAX_POINTS} elements")
        layers.append(frontier)
    if not layers[-1].size:
        layers.pop()
    return dist[:n], layers


def _bfs_enumerate(group: FinGroup, gens: np.ndarray, radius: int | None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Breadth-first enumeration from the identity over the keys of the key
    box.  Returns (elements, word lengths, neighbors) in canonical order:
    the layers in turn, each in ascending key order, which is lexicographic
    coordinate order.  On a truncation, neighbors is the (n, #generators)
    table of the indices of x * g, -1 outside the ball, mapped from the
    products the search computes anyway, with the last layer expanded once
    more; a quotient gets None, since `GroupSpace._product` serves it."""
    box = _key_box(group, radius)
    products: list[np.ndarray] = []     # per layer, the keys of x * g

    def step(frontier: np.ndarray) -> np.ndarray:
        prods = _encode(group.mult(_decode(frontier, box)[:, None, :], gens), box)
        if radius is not None:
            products.append(prods)
        return prods.ravel()

    size = int(np.prod(box[1]))
    layers = _bfs_layers(size, int(_encode(group.identity, box)), step, radius)[1]
    keys = np.concatenate(layers)
    wl = np.repeat(np.arange(len(layers), dtype=np.int64),
                   [layer.size for layer in layers])
    neighbors = None
    if radius is not None:
        step(layers[-1])
        del layers
        # key -> canonical index, -1 off the ball; the key -1 (outside the
        # box) reads the last entry
        index = np.full(size + 1, -1, dtype=np.int32)
        index[keys] = np.arange(keys.size, dtype=np.int32)
        neighbors = np.empty((keys.size, gens.shape[0]), dtype=np.int64)
        lo = 0
        for prods in products:
            neighbors[lo:lo + len(prods)] = index[prods]
            lo += len(prods)
        # freed before the decode: the peak RSS of `space` on the H3 ball
        # R = 28 is about 4 MiB lower
        del index
        products.clear()
    return _decode(keys, box), wl, neighbors


def _zd_quotient(d: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form enumeration of Z_N^d under the standard generators: the
    word length of x is sum(min(x_c, N - x_c)).  Returns the elements and
    word lengths that `_bfs_enumerate` returns for the same quotient."""
    elems = np.indices((modulus,) * d, dtype=np.int64).reshape(d, -1).T
    wl = np.minimum(elems, modulus - elems).sum(axis=1)
    # the rows are in key order; canonical order sorts them stably by length
    order = np.argsort(wl, kind="stable")
    return elems[order], wl[order]


def build_group_space(family: str, *, d: int | None = None,
                      radius: int | None = None, modulus: int | None = None,
                      r0: float = 1.0, weights=None
                      ) -> tuple[GroupSpace, BallTable]:
    """Enumerate a group-family space and its identity-centered ball table.

    family "zd" needs ``d``; family "h3" is the discrete Heisenberg group.
    Exactly one of ``radius`` (Cayley-ball truncation) and ``modulus``
    (finite quotient) must be given.

    Every space takes the standard generators of `FinGroup`.  One
    breadth-first pass (a closed form for the Z^d quotients) yields the
    canonical order and the word lengths, and on a truncation the neighbor
    table too; the ball table is read off the word lengths.
    """
    if (radius is None) == (modulus is None):
        raise ValueError("give exactly one of radius= (truncation) or "
                         "modulus= (quotient)")
    if family == "zd" and d is None:
        raise ValueError("family 'zd' requires d=")
    # the group checks the family, the dimension and the modulus
    group = FinGroup(family, 3 if d is None else int(d), modulus)
    dim = group.d
    if radius is not None and radius < 1:
        raise ValueError("truncation radius must be >= 1")
    if radius is not None:
        if family == "zd" and (2 * radius + 1) ** dim > _MAX_POINTS:
            raise CapacityError("truncated ball has too many points")
        # refused before the key box (about 2 R^4 keys) is allocated
        if family == "h3" and radius > _H3_MAX_RADIUS:
            raise CapacityError(f"h3 truncations are capped at radius {_H3_MAX_RADIUS}")
    if modulus is not None and modulus ** dim > _MAX_POINTS:
        raise CapacityError("quotient has too many points")

    if family == "zd" and modulus is not None:
        elems, wl = _zd_quotient(dim, modulus)
        neighbors = None
    else:
        elems, wl, neighbors = _bfs_enumerate(
            group, group.standard_generators(), radius)
    if family == "zd":
        base = f"Z^{dim}"
    else:
        base = "H3"
    label = f"{base} mod {modulus}" if modulus else f"{base} ball R={radius}"
    space = GroupSpace(group, elems, wl, radius, weights=weights, r0=r0,
                       label=label, neighbors=neighbors)
    # d(e, x) = |x| on quotients and truncations alike, since the prefixes
    # of a geodesic stay in the ball; canonical order starts at e and is
    # sorted by word length
    table = BallTable.from_sorted(0, np.arange(space.n), wl.astype(float),
                                  space.weights)
    return space, table


def random_square_space(n: int, side: int, seed: int, r0: float = 1.0) -> MatrixSpace:
    """n distinct points of an integer square grid under the l^1 metric."""
    if n > side * side:
        raise ValueError("grid too small for that many points")
    rng = np.random.default_rng(seed)
    flat = rng.choice(side * side, size=n, replace=False)
    pts = np.stack([flat // side, flat % side], axis=1).astype(np.int64)
    diff = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return MatrixSpace(diff.astype(float), r0=r0,
                       label=f"random-square n={n} side={side}")


# ---------------------------------------------------------------------------
# growth diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnularReport:
    """Result of scanning m(B(x, r+s)) - m(B(x, r)) against K (s/r)^eps m(B(x, r))."""

    eps: float
    K_hat: float
    K_eps_formula: float      # (2^eps + 1) K_hat + 2^eps
    K_eps_measured: float     # minimal two-sided constant over the sample
    two_sided_ok: bool
    n_samples: int
    worst: tuple[int, float, float] | None   # (center, r, s) attaining K_hat


def annular_decay_profile(space: FiniteSpace, centers: Iterable[int],
                          r_values: Iterable[float], s_values: Iterable[float],
                          eps: float = 1.0) -> AnnularReport:
    """Minimal one-sided annular constant K over the sampled (center, r, s),
    plus the measured two-sided constant compared with (2^eps+1)K + 2^eps.

    The one-sided scan silently includes the shifted pairs (r-s, s) whenever
    s < r/2, which makes the two-sided comparison self-contained: the
    two-sided measurement then can never exceed the formula value.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    centers = list(centers)
    if not centers:
        raise ValueError("need at least one sample center")
    r_values = sorted(set(float(r) for r in r_values))
    s_values = sorted(set(float(s) for s in s_values))
    if not r_values or not s_values:
        raise ValueError("need at least one radius and one width")
    half_diam = space.diameter() / 2
    for r in r_values:
        if not (space.r0 < r <= half_diam):
            raise ValueError(
                f"radius {r} outside the valid range ({space.r0}, {half_diam}]"
            )

    K_hat = 0.0
    K2 = 0.0
    worst = None
    n_samples = 0
    for c in centers:
        vol = BallTable.from_space(space, c).volume
        for r in r_values:
            vr = vol(r)
            for s in s_values:
                if s > r or s < 0:
                    continue
                n_samples += 1
                if s > 0:
                    ratio = (vol(r + s) - vr) / ((s / r) ** eps * vr)
                    if ratio > K_hat:
                        K_hat = ratio
                        worst = (c, r, s)
                    if s < r / 2 and r - s > space.r0:
                        # shifted pair used by the two-sided argument
                        vrs = vol(r - s)
                        shifted = (vr - vrs) / ((s / (r - s)) ** eps * vrs)
                        K_hat = max(K_hat, shifted)
                if r >= 2 * space.r0 and s > 0:
                    two = (vol(r + s) - vol(r - s)) / ((s / r) ** eps * vr)
                    K2 = max(K2, two)
    if n_samples == 0:
        raise ValueError("no valid (r, s) pairs in the sample")
    formula = (2**eps + 1) * K_hat + 2**eps
    return AnnularReport(eps=eps, K_hat=K_hat, K_eps_formula=formula,
                         K_eps_measured=K2,
                         two_sided_ok=bool(K2 <= formula + 1e-12),
                         n_samples=n_samples, worst=worst)


@dataclass(frozen=True)
class DoublingReport:
    D0: int
    max_small_cover: int
    max_small_packing: int | None    # None when no cover exceeds D0
    small_ok: bool | None            # None when neither net decides
    D: float

def greedy_net(space: FiniteSpace, sep: float, members: np.ndarray | None = None,
               *, strict: bool) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Maximal sep-separated subset of ``members`` (default: all points),
    scanning in ascending index; a point is kept when its distance to every
    kept point is > sep (``strict``) or >= sep.  Maximality means every
    rejected point lies within sep of a kept one (closed when strict, open
    otherwise), so sep-balls around the net cover the member set.

    Each kept point reads its closed sep-ball once.  Returns ``(kept,
    nearest, distance)``: per point, the place in ``kept`` of its nearest
    kept point within sep (the first in kept order on ties) and the distance
    to it; -1 and inf where none is within sep, which no member is."""
    members = range(space.n) if members is None else np.sort(members)
    kept: list[int] = []
    nearest = np.full(space.n, -1, dtype=np.int64)
    distance = np.full(space.n, np.inf)
    for p in members:
        if distance[p] > sep if strict else distance[p] >= sep:
            _, _, ball, dists = next(space.ball_chunks([p], sep))
            closer = dists < distance[ball]
            nearest[ball[closer]] = len(kept)
            distance[ball[closer]] = dists[closer]
            kept.append(int(p))
    return kept, nearest, distance


def geometric_doubling_check(space: FiniteSpace, D0: int) -> DoublingReport:
    """Greedy-cover probe of the metric doubling hypothesis: every ball of
    radius r is covered by at most D0 closed balls of radius r/2.

    It reads the balls B(c, r) at r = r0, 2 r0 and 4 r0, r0 being the
    space's, around every max(1, n // 8)-th point.  A greedy (r/2)-net of
    B(c, r) is a cover by closed r/2-balls, so its size only bounds the
    covering number from above; the largest is ``max_small_cover``, and
    ``small_ok`` is True when it is at most D0.  For each ball whose cover
    exceeds D0 it also takes a greedy r-net, whose points lie more than r
    apart: a closed r/2-ball holds at most one of them, so its size bounds
    the covering number from below.  The largest is ``max_small_packing``,
    and ``small_ok`` is False when it exceeds D0, else None.

    ``D = max(D0, 19)`` is the pair constant D = max(D0, [9^eps (K+1)] + 1)
    at the annular constants eps = K = 1; it is reported, not checked.
    Violations are reported, not raised.
    """
    if D0 < 1:
        raise ValueError("D0 must be >= 1")
    r0 = space.r0
    centers = list(range(0, space.n, max(1, space.n // 8)))
    cover, packing = 0, None
    for r in (r0, 2 * r0, 4 * r0):
        for _, indptr, balls, _ in space.ball_chunks(centers, r):
            for ball in np.split(balls, indptr[1:-1]):
                size = len(greedy_net(space, r / 2, ball, strict=True)[0])
                cover = max(cover, size)
                if size > D0:
                    net = len(greedy_net(space, r, ball, strict=True)[0])
                    packing = max(packing or 0, net)
    small_ok = True if cover <= D0 else (False if packing > D0 else None)
    return DoublingReport(D0=D0, max_small_cover=cover,
                          max_small_packing=packing, small_ok=small_ok,
                          D=max(float(D0), 19))


def fit_growth_exponent(table: BallTable) -> tuple[float, float]:
    """Least-squares growth exponent of log volume against log radius, and
    the minimal constant C with C^{-1} r^D <= volume <= C r^D on the table.

    The slope is fitted on the upper window [r_max/4, r_max], where the
    polynomial regime dominates; the smallest radii only reflect lattice
    transients and would bias the exponent down.  The constant is computed
    over the whole table.
    """
    rs = np.array([r for r in table.radii if r >= 1], dtype=float)
    if rs.size < 2:
        raise ValueError("need at least two radii >= 1 to fit growth")
    vols = np.array([table.volume(r) for r in rs])
    if np.any(vols <= 0):
        raise ValueError("ball volumes must be positive")
    window = rs >= rs.max() / 4
    if window.sum() < 4:
        window = np.ones_like(window)
    slope, _ = np.polyfit(np.log(rs[window]), np.log(vols[window]), 1)
    D_hat = float(slope)
    ratios = vols / rs**D_hat
    C_hat = float(max(ratios.max(), (1.0 / ratios).max()))
    return D_hat, C_hat
