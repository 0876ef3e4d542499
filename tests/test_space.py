import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from ergolab.space import (
    AnnularReport,
    BallTable,
    CapacityError,
    FinGroup,
    GroupSpace,
    MatrixSpace,
    annular_decay_profile,
    build_group_space,
    fit_growth_exponent,
    geometric_doubling_check,
    greedy_net,
    random_square_space,
)
from ergolab import space as space_module
from ergolab.dynamics import regular_system
from ergolab.operators import avg_profile


def identity_index(space: GroupSpace) -> int:
    return int(np.nonzero(space.word_lengths == 0)[0][0])


class TestGroups:
    def test_h3_multiplication_twist(self):
        g = FinGroup("h3", 3)
        a = np.array([1, 0, 0])
        b = np.array([0, 1, 0])
        ab = g.mult(a, b)
        ba = g.mult(b, a)
        assert tuple(ab) == (1, 1, 1)
        assert tuple(ba) == (1, 1, 0)

    def test_h3_inverse(self):
        g = FinGroup("h3", 3)
        rng = np.random.default_rng(0)
        elems = rng.integers(-5, 6, size=(50, 3))
        prod = g.mult(elems, g.inv(elems))
        assert np.all(prod == 0)
        assert np.array_equal(g.inv(g.inv(elems)), elems)

    def test_h3_associativity_sampled(self):
        g = FinGroup("h3", 3, modulus=7)
        rng = np.random.default_rng(1)
        a, b, c = (rng.integers(0, 7, size=(40, 3)) for _ in range(3))
        assert np.array_equal(g.mult(g.mult(a, b), c), g.mult(a, g.mult(b, c)))

    def test_zd_mod_wraps(self):
        g = FinGroup("zd", 2, modulus=5)
        assert tuple(g.mult([4, 4], [3, 2])) == (2, 1)
        assert tuple(g.inv([1, 2])) == (4, 3)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            FinGroup("zd", 1, modulus=2)


class TestBuildGroupSpace:
    def test_z1_interval_volumes(self):
        _, table = build_group_space("zd", d=1, radius=5)
        assert [table.volume(r) for r in range(6)] == [2 * r + 1 for r in range(6)]

    def test_h3_first_shell(self):
        _, table = build_group_space("h3", radius=1)
        assert table.volume(1) == 5

    def test_h3_ball_volumes(self):
        # BFS volumes of the discrete Heisenberg group out to radius 6
        _, table = build_group_space("h3", radius=6)
        assert [table.volume(r) for r in range(7)] == [1, 5, 17, 53, 135, 299, 593]

    def test_z2_diamond(self):
        _, table = build_group_space("zd", d=2, radius=3)
        assert table.volume(3) == 25  # 2*3^2 + 2*3 + 1

    def test_quotient_enumerates_whole_group(self):
        space, _ = build_group_space("zd", d=2, modulus=8)
        assert space.n == 64
        space, _ = build_group_space("h3", modulus=4)
        assert space.n == 64

    def test_requires_exactly_one_extent(self):
        with pytest.raises(ValueError):
            build_group_space("zd", d=1)
        with pytest.raises(ValueError):
            build_group_space("zd", d=1, radius=4, modulus=8)

    def test_capacity_errors(self):
        with pytest.raises(CapacityError):
            build_group_space("zd", d=3, radius=100)
        with pytest.raises(CapacityError):
            build_group_space("h3", radius=100)
        with pytest.raises(CapacityError):
            build_group_space("zd", d=4, modulus=64)

    def test_canonical_order_starts_at_identity(self):
        space, _ = build_group_space("zd", d=2, radius=3)
        assert identity_index(space) == 0
        assert np.all(np.diff(space.word_lengths) >= 0)


def dict_bfs_enumerate(group: FinGroup, gens: np.ndarray, radius):
    """Reference enumeration: a breadth-first search over coordinate tuples
    with a dict of word lengths, sorted into the canonical order (word
    length, then coordinates lexicographically)."""
    gen_tuples = [tuple(int(v) for v in g) for g in gens]
    start = tuple(int(v) for v in group.identity)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        d = seen[cur]
        if radius is not None and d >= radius:
            continue
        cur_arr = np.array(cur, dtype=np.int64)
        for g in gen_tuples:
            nxt = tuple(int(v) for v in group.mult(cur_arr, np.array(g, dtype=np.int64)))
            if nxt not in seen:
                seen[nxt] = d + 1
                queue.append(nxt)
    elems = np.array(list(seen.keys()), dtype=np.int64)
    wl = np.array(list(seen.values()), dtype=np.int64)
    keys = tuple(elems[:, c] for c in reversed(range(group.d))) + (wl,)
    order = np.lexsort(keys)
    return elems[order], wl[order]


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail the test if build_group_space starts enumerating."""
    def enumerate_(*args):
        raise AssertionError("enumeration started")
    monkeypatch.setattr(space_module, "_bfs_enumerate", enumerate_)


class TestEnumeration:
    @pytest.mark.parametrize("family,d,radius,modulus", [
        ("zd", 1, None, 64), ("zd", 2, None, 16), ("h3", 3, None, 8),
        ("zd", 2, 10, None), ("h3", 3, 6, None), ("h3", 3, 7, None)])
    def test_matches_dict_bfs(self, family, d, radius, modulus):
        space, _ = build_group_space(family, d=d, radius=radius, modulus=modulus)
        group = space.group
        elems, wl = dict_bfs_enumerate(group, group.standard_generators(), radius)
        assert space.elements.dtype == elems.dtype
        assert space.word_lengths.dtype == wl.dtype
        assert np.array_equal(space.elements, elems)
        assert np.array_equal(space.word_lengths, wl)

    @pytest.mark.parametrize("d,modulus", [
        (1, 16384), (1, 4096), (2, 64), (3, 6), (1, 5), (1, 4)])
    def test_zd_closed_form_matches_bfs(self, d, modulus):
        group = FinGroup("zd", d, modulus)
        elems, wl, _ = space_module._bfs_enumerate(
            group, group.standard_generators(), None)
        c_elems, c_wl = space_module._zd_quotient(d, modulus)
        for got, want in ((c_elems, elems), (c_wl, wl)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_zd_standard_quotient_skips_the_bfs(self, no_enumeration):
        space, _ = build_group_space("zd", d=2, modulus=16)
        assert space.n == 256 and space.diameter() == 16

    @pytest.mark.parametrize("kwargs", [
        {"family": "h3", "modulus": 8}, {"family": "h3", "radius": 4},
        {"family": "zd", "d": 2, "radius": 4}])
    def test_other_spaces_enumerate_by_bfs(self, kwargs, monkeypatch):
        calls = []
        bfs = space_module._bfs_enumerate

        def spy(*args):
            calls.append(args)
            return bfs(*args)
        monkeypatch.setattr(space_module, "_bfs_enumerate", spy)
        build_group_space(**kwargs)
        assert len(calls) == 1

    def test_h3_key_box_z_range_is_tight(self):
        # |z| <= (#x-steps)(#y-steps) <= floor(R/2) ceil(R/2), attained
        for radius in range(1, 13):
            space, _ = build_group_space("h3", radius=radius)
            zmax = (radius // 2) * ((radius + 1) // 2)
            assert np.abs(space.elements[:, 2]).max() == zmax
            assert space._box[0][2] == -zmax

    def test_h3_ball_r20_size(self):
        space, _ = build_group_space("h3", radius=20)
        assert space.n == 68_079

    def test_h3_ball_r20_build_peak_memory(self):
        # the neighbor table comes from the enumeration, not from one
        # (n, #generators, 3) product array after it
        tracemalloc.start()
        try:
            build_group_space("h3", radius=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("family,d,radius", [
        ("h3", 3, 6), ("h3", 3, 7), ("h3", 3, 20), ("zd", 2, 10), ("zd", 3, 4)])
    def test_bfs_neighbor_table_matches_products(self, family, d, radius):
        space, _ = build_group_space(family, d=d, radius=radius)
        want = space.index_of(space.group.mult(space.elements[:, None, :],
                                               space.generators))
        got = space._neighbors                  # handed over by the enumeration
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # a truncation is refused without its table
        with pytest.raises(ValueError, match="needs its neighbor table"):
            GroupSpace(space.group, space.elements, space.word_lengths, radius)

    def test_h3_largest_ball_under_the_cap_builds(self):
        space, _ = build_group_space("h3", radius=28)
        assert space.n == 261_815

    def test_h3_radius_cap_is_the_largest_ball_under_max_points(self):
        group = FinGroup("h3", 3, None)
        gens = group.standard_generators()
        cap = space_module._H3_MAX_RADIUS
        elems, _, _ = space_module._bfs_enumerate(group, gens, cap)
        assert elems.shape[0] <= space_module._MAX_POINTS
        with pytest.raises(CapacityError, match="enumeration exceeded"):
            space_module._bfs_enumerate(group, gens, cap + 1)

    @pytest.mark.parametrize("radius", [29, 64])
    def test_h3_ball_over_the_cap_refused_before_enumerating(
            self, radius, no_enumeration):
        with pytest.raises(CapacityError):
            build_group_space("h3", radius=radius)


def assert_table_from_row(table: BallTable, row: np.ndarray) -> None:
    """``table`` is the ball table sorted out of the distance row."""
    want = np.sort(row)
    assert table._dists.dtype == want.dtype
    assert np.array_equal(table._dists, want)
    for r in table.radii:
        assert table.volume(r) == np.count_nonzero(row <= r)
    assert table.center == 0
    assert table.radii == tuple(range(int(row.max()) + 1))


class TestIdentityBallTable:
    def test_truncation_table_matches_bfs_row(self):
        space, table = build_group_space("h3", radius=7)
        assert_table_from_row(table, space._bfs_row(0).astype(float))

    def test_quotient_table_matches_dist_row(self):
        space, table = build_group_space("h3", modulus=8)
        assert_table_from_row(table, space.dist_row(0))


class TestWordMetric:
    def test_quotient_distance_wraps(self):
        space, _ = build_group_space("zd", d=1, modulus=12)
        i = int(space.index_of(np.array([[1]]))[0])
        j = int(space.index_of(np.array([[11]]))[0])
        assert space.dist_row(i)[j] == 2.0

    def test_truncated_z2_is_l1(self):
        space, _ = build_group_space("zd", d=2, radius=6)
        rng = np.random.default_rng(2)
        for _ in range(20):
            i, j = rng.integers(0, space.n, size=2)
            expected = np.abs(space.elements[i] - space.elements[j]).sum()
            assert space.dist_row(int(i))[j] == expected

    def test_h3_truncation_bfs_symmetric(self):
        space, _ = build_group_space("h3", radius=3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            i, j = (int(v) for v in rng.integers(0, space.n, size=2))
            assert space.dist_row(i)[j] == space.dist_row(j)[i]

    def test_bfs_rows_kept_up_to_the_budget(self, monkeypatch):
        space, _ = build_group_space("h3", radius=3)
        monkeypatch.setattr(space_module, "_ROW_CACHE_BYTES", 3 * space.n)
        rows = [space.dist_row(i) for i in range(5)]
        assert sorted(space._row_cache) == [0, 1, 2]
        for i, row in enumerate(rows):
            assert row.dtype == float
            assert np.array_equal(row, space._bfs_row(i))
            row[:] = -1.0       # callers get copies, never the kept row
            assert np.array_equal(space.dist_row(i), space._bfs_row(i))

    def test_left_invariance_on_quotient(self):
        space, _ = build_group_space("h3", modulus=5)
        rng = np.random.default_rng(4)
        for _ in range(20):
            g, x, y = (space.elements[k] for k in rng.integers(0, space.n, 3))
            gx = int(space.index_of(space.group.mult(g, x))[0])
            gy = int(space.index_of(space.group.mult(g, y))[0])
            ix = int(space.index_of(x)[0])
            iy = int(space.index_of(y)[0])
            assert space.dist_row(gx)[gy] == space.dist_row(ix)[iy]

    def test_quotient_safety_z(self):
        # balls of radius <= N/4 match the infinite-group balls
        q, qt = build_group_space("zd", d=1, modulus=64)
        _, it = build_group_space("zd", d=1, radius=20)
        for r in range(17):
            assert qt.volume(r) == it.volume(r)
        assert q.safe_radius == 16

    def test_quotient_safety_h3(self):
        q, qt = build_group_space("h3", modulus=8)
        _, it = build_group_space("h3", radius=3)
        for r in range(3):
            assert qt.volume(r) == it.volume(r)
        assert q.safe_radius == 2

    def test_index_of_missing_is_minus_one(self):
        space, _ = build_group_space("zd", d=1, radius=3)
        out = space.index_of(np.array([[7], [0], [-9]]))
        assert list(out) == [-1, identity_index(space), -1]

    def test_shell_slices_partition(self):
        space, _ = build_group_space("zd", d=2, radius=4)
        total = 0
        for r in range(5):
            sl = space.shell_slice(r)
            assert np.all(space.word_lengths[sl] == r)
            total += sl.stop - sl.start
        assert total == space.n

    def test_right_perm_is_translation(self):
        space, _ = build_group_space("zd", d=1, modulus=10)
        j = int(space.index_of(np.array([[3]]))[0])
        perm = space.right_perm(j)
        moved = space.elements[perm]
        assert np.array_equal(moved, (space.elements + 3) % 10)

    def test_right_perm_builds_on_demand(self):
        space, _ = build_group_space("zd", d=1, modulus=512)
        first = space.right_perm(3)
        assert np.array_equal(space.right_perm(3), first)
        assert space.right_perm(3) is not first
        assert not hasattr(space, "_perm_cache")

        def held_bytes():
            # every array the space holds, directly or in a dict
            arrays = []
            for value in vars(space).values():
                arrays += value.values() if isinstance(value, dict) else [value]
            return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

        before = held_bytes()
        values = np.random.default_rng(0).standard_normal(space.n)
        avg_profile(values, space, [space.diameter()])
        assert held_bytes() == before

    @pytest.mark.parametrize("j", [-1, 10])
    def test_right_perm_refuses_elements_out_of_range(self, j):
        space, _ = build_group_space("zd", d=1, modulus=10)
        with pytest.raises(IndexError, match=f"element {j} out of range"):
            space.right_perm(j)
        with pytest.raises(IndexError, match=f"element {j} out of range"):
            regular_system(space).act_perm(j)

    def test_right_perm_refused_on_truncation(self):
        space, _ = build_group_space("zd", d=1, radius=5)
        with pytest.raises(ValueError):
            space.right_perm(1)


def searchsorted_index(space: GroupSpace, elems: np.ndarray) -> np.ndarray:
    """Reference lookup: mixed-radix keys of the quotient coordinates,
    binary-searched among the sorted keys of the enumeration."""
    N, d = space.group.modulus, space.group.d

    def keys(rows):
        out = np.zeros(rows.shape[0], dtype=np.int64)
        for c in range(d):
            out = out * N + rows[:, c]
        return out

    enum_keys = keys(space.elements)
    order = np.argsort(enum_keys)
    sorted_keys = enum_keys[order]
    in_range = np.all((elems >= 0) & (elems < N), axis=1)
    q = keys(np.where(in_range[:, None], elems, 0))
    pos = np.clip(np.searchsorted(sorted_keys, q), 0, space.n - 1)
    hit = in_range & (sorted_keys[pos] == q)
    return np.where(hit, order[pos], -1)


class TestQuotientIndex:
    @pytest.mark.parametrize("family,d,modulus", [
        ("zd", 1, 64), ("zd", 2, 16), ("h3", 3, 8)])
    def test_direct_index_matches_searchsorted(self, family, d, modulus):
        space, _ = build_group_space(family, d=d, modulus=modulus)
        rng = np.random.default_rng(11)
        a = space.elements[rng.integers(0, space.n, size=200)]
        b = space.elements[rng.integers(0, space.n, size=200)]
        unreduced = space.elements[rng.integers(0, space.n, size=50)].copy()
        unreduced[:, -1] += modulus
        negative = -1 - space.elements[rng.integers(0, space.n, size=50)]
        queries = np.concatenate([space.elements, space.group.mult(a, b),
                                  unreduced, negative])
        got = space.index_of(queries)
        assert np.array_equal(got, searchsorted_index(space, queries))
        assert np.array_equal(got[:space.n], np.arange(space.n))
        assert np.all(got[-100:] == -1)

    @pytest.mark.parametrize("family,d,modulus", [("zd", 2, 16), ("h3", 3, 8)])
    def test_quotients_hold_no_sorted_keys(self, family, d, modulus):
        # a quotient's sorted keys are 0..n-1, so it keeps none; every
        # coordinate outside [0, N), however far, still maps to -1
        space, _ = build_group_space(family, d=d, modulus=modulus)
        assert not hasattr(space, "_sorted_keys")
        queries = []
        for c in range(d):
            for shift in (-2 * modulus, -modulus, modulus, 2 * modulus):
                rows = space.elements.copy()
                rows[:, c] += shift
                queries.append(rows)
        queries = np.concatenate(queries)
        got = space.index_of(queries)
        assert np.array_equal(got, searchsorted_index(space, queries))
        assert np.all(got == -1)
        assert np.array_equal(space.index_of(space.elements),
                              np.arange(space.n))

    def test_truncations_keep_the_search(self):
        space, _ = build_group_space("h3", radius=4)
        assert np.array_equal(space.index_of(space.elements),
                              np.arange(space.n))


KERNEL_SPACES = {
    "z64": lambda: build_group_space("zd", d=1, modulus=64)[0],
    "z2-16": lambda: build_group_space("zd", d=2, modulus=16)[0],
    "z3-6": lambda: build_group_space("zd", d=3, modulus=6)[0],
    "h3-8": lambda: build_group_space("h3", modulus=8)[0],
}


@pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
class TestTranslationKernel:
    def test_right_perm_matches_lookup(self, name):
        space = KERNEL_SPACES[name]()
        for j in range(space.n):
            prods = space.group.mult(space.elements, space.elements[j])
            assert np.array_equal(space.right_perm(j),
                                  searchsorted_index(space, prods))

    def test_quotient_row_matches_left_translation(self, name):
        # the reference row: d(x, y) = |x^-1 y| by left invariance; H3 is
        # where left and right translation differ
        space = KERNEL_SPACES[name]()
        g = space.group
        for i in range(space.n):
            prods = g.mult(g.inv(space.elements[i]), space.elements)
            ref = space.word_lengths[space.index_of(prods)].astype(float)
            assert np.array_equal(space.dist_row(i), ref)


GROUP_BALL_SPACES = {
    "z64": lambda: build_group_space("zd", d=1, modulus=64)[0],
    "z2-16": lambda: build_group_space("zd", d=2, modulus=16)[0],
    "h3-8": lambda: build_group_space("h3", modulus=8)[0],
    "z2-ball10": lambda: build_group_space("zd", d=2, radius=10)[0],
    "h3-ball6": lambda: build_group_space("h3", radius=6)[0],
}
BALL_SPACES = pytest.mark.parametrize(
    "make", [*GROUP_BALL_SPACES.values(), KERNEL_SPACES["z3-6"],
             lambda: random_square_space(60, 40, seed=9)],
    ids=[*GROUP_BALL_SPACES, "z3-6", "random-square"])


class TestBallChunks:
    @BALL_SPACES
    @pytest.mark.parametrize("pairs", [8192, 50])
    def test_matches_thresholded_rows(self, make, pairs, monkeypatch):
        monkeypatch.setattr(space_module, "_BALL_PAIRS", pairs)
        space = make()
        diam = space.diameter()
        centers = np.arange(space.n)[::-1]
        for radius in (0, 1, diam // 2, diam + 1):
            bound = space._ball_bound(radius)
            got = []
            next_lo = 0
            for lo, indptr, members, dists in space.ball_chunks(centers, radius):
                assert lo == next_lo
                next_lo += indptr.size - 1
                assert indptr[0] == 0 and indptr[-1] == members.size
                assert members.size <= max(pairs, bound)
                got += [(members[p:q], dists[p:q])
                        for p, q in zip(indptr[:-1], indptr[1:])]
            assert next_lo == space.n
            for c, (members, dists) in zip(centers, got):
                row = space.dist_row(int(c))
                inside = np.flatnonzero(row <= radius)
                assert members.size <= bound
                # ties within a ball follow the kernel, so compare as sets
                order = np.argsort(members)
                assert np.array_equal(members[order], inside)
                assert np.array_equal(dists[order], row[inside])

    @pytest.mark.parametrize("make", GROUP_BALL_SPACES.values(),
                             ids=GROUP_BALL_SPACES.keys())
    def test_search_matches_thresholded_rows(self, make):
        # ball_chunks searches only while balls are small; the search itself
        # must hold at every radius
        space = make()
        if space.is_quotient:
            # ball_chunks searches only truncations, whose enumeration hands
            # over the neighbor table; a quotient's Cayley graph is built here
            space._neighbors = space.index_of(space.group.mult(
                space.elements[:, None, :], space.generators))
        centers = np.arange(space.n)[::-1]
        for radius in (0, 1, space.diameter() // 2, space.diameter() + 1):
            for lo in range(0, space.n, 37):
                block = centers[lo:lo + 37]
                indptr, members, dists = space._search_balls(block, radius)
                for j, c in enumerate(block):
                    # the stably sorted row, cut at the radius
                    row = space.dist_row(int(c))
                    order = np.argsort(row, kind="stable")
                    inside = order[row[order] <= radius]
                    p, q = indptr[j], indptr[j + 1]
                    assert np.array_equal(members[p:q], inside)
                    assert np.array_equal(dists[p:q], row[inside])

    @pytest.mark.parametrize("kernel,make", [
        ("_translated_balls", GROUP_BALL_SPACES["z2-16"]),
        ("_translated_balls", GROUP_BALL_SPACES["h3-8"]),
        ("_search_balls", GROUP_BALL_SPACES["z2-ball10"]),
        ("_search_balls", GROUP_BALL_SPACES["h3-ball6"]),
        ("_row_balls", GROUP_BALL_SPACES["h3-ball6"]),
        ("_row_balls", lambda: random_square_space(60, 40, seed=9)),
    ], ids=["translated-z2-16", "translated-h3-8", "search-z2-ball10",
            "search-h3-ball6", "rows-h3-ball6", "rows-random-square"])
    def test_balls_list_members_by_distance(self, kernel, make):
        space = make()
        block = np.arange(space.n)[::-7]
        for radius in (1, space.diameter() // 2, space.diameter()):
            indptr, members, dists = getattr(space, kernel)(block, radius)
            for j, c in enumerate(block.tolist()):
                ball = members[indptr[j]:indptr[j + 1]]
                steps = np.diff(dists[indptr[j]:indptr[j + 1]])
                assert np.all(steps >= 0)
                if kernel == "_translated_balls":
                    # c * B(e, r) in the identity ball's canonical order,
                    # the order the group sweep adds in
                    g = space.index_of(space.group.mult(
                        space.group.inv(space.elements[c]),
                        space.elements[ball]))
                    assert np.array_equal(g, np.arange(ball.size))
                else:
                    # ties keep ascending index order
                    assert np.all((steps > 0) | (np.diff(ball) > 0))

    @pytest.mark.parametrize("make", GROUP_BALL_SPACES.values(),
                             ids=GROUP_BALL_SPACES.keys())
    def test_ball_bound_counts_the_identity_ball(self, make):
        # the bound searches word lengths with an integer key, for any
        # real radius
        space = make()
        wl = space.word_lengths
        for radius in (-0.5, 0, 1.5, 2, space.diameter(), math.inf):
            assert space._ball_bound(radius) == np.count_nonzero(wl <= radius)

    def test_kernel_choice(self):
        # the cost rule serves truncations: on the 4097 points of Z ball
        # R=2048, |B(e, r)| = 2r + 1, so a block holds min(#centers,
        # 8192 // (2r + 1)) centers: with 37 of them (r + 1) * 8192 <=
        # 6 * 4097 * 37 up to r = 110, and a lone center is searched only up
        # to r = 2
        space, _ = build_group_space("zd", d=1, radius=2048)
        assert space._ball_kernel(110, 37) == space._search_balls
        assert space._ball_kernel(111, 36) == space._row_balls
        kinds = {(m, r): next(space.ball_chunks(np.arange(m), r))[3].dtype
                 for m, r in ((37, 110), (36, 111), (1, 110), (1, 2), (1, 3))}
        # the search yields layer numbers, rows yield float distances
        assert kinds == {(37, 110): np.int64, (36, 111): float,
                         (1, 110): float, (1, 2): np.int64, (1, 3): float}
        assert space._ball_kernel(space.diameter(), 2) == space._row_balls
        square = random_square_space(60, 40, seed=9)
        assert square._ball_kernel(0, 1) == square._row_balls


def row_greedy_net(space, sep, members=None, *, strict):
    """Reference greedy net with one full distance row per kept point, and
    each point's nearest kept point over the whole net (the first in kept
    order on ties)."""
    members = range(space.n) if members is None else np.sort(members)
    kept = []
    nearest = np.zeros(space.n, dtype=np.int64)
    distance = np.full(space.n, np.inf)
    for p in members:
        if distance[p] > sep if strict else distance[p] >= sep:
            row = space.dist_row(int(p))
            closer = row < distance
            nearest[closer] = len(kept)
            distance[closer] = row[closer]
            kept.append(int(p))
    return kept, nearest, distance


NET_SPACES = {
    "h3-ball6": lambda: build_group_space("h3", radius=6)[0],
    "z2-16": lambda: build_group_space("zd", d=2, modulus=16)[0],
    "random-square": lambda: random_square_space(60, 40, seed=9),
}


class TestGreedyNet:
    def test_strict_and_non_strict_separation(self):
        # the points -4..4 of Z, scanned in canonical order 0, -1, 1, -2, ...
        space, _ = build_group_space("zd", d=1, radius=4)
        x = space.elements[:, 0]
        loose, _, _ = greedy_net(space, 2.0, strict=False)
        tight, _, _ = greedy_net(space, 2.0, strict=True)
        assert sorted(x[loose]) == [-4, -2, 0, 2, 4]
        assert sorted(x[tight]) == [-3, 0, 3]

    def test_members_subset(self):
        space, _ = build_group_space("zd", d=1, modulus=16)
        members = np.array([9, 3, 5, 12])
        net, _, _ = greedy_net(space, 2.0, members, strict=True)
        assert net == sorted(net) and net[0] == 3
        assert set(net) <= set(members.tolist())
        assert all(space.dist_row(i)[j] > 2.0 for i in net for j in net if i != j)

    @pytest.mark.parametrize("make", NET_SPACES.values(), ids=NET_SPACES.keys())
    @pytest.mark.parametrize("pays", [0, 10**9], ids=["rows", "search"])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_full_row_reference(self, make, pays, strict, subset,
                                        monkeypatch):
        # _SEARCH_PAYS = 0 sends every ball to rows, 10**9 to the search
        monkeypatch.setattr(space_module, "_SEARCH_PAYS", pays)
        space = make()
        members = (np.random.default_rng(3).permutation(space.n)[:space.n // 3]
                   if subset else None)
        for sep in (1.0, 2.0, 3.5, 7.0):
            kept, nearest, distance = greedy_net(space, sep, members,
                                                 strict=strict)
            ref_kept, ref_nearest, ref_distance = row_greedy_net(
                space, sep, members, strict=strict)
            assert kept == ref_kept
            within = ref_distance <= sep
            assert np.array_equal(nearest[within], ref_nearest[within])
            assert np.array_equal(distance[within], ref_distance[within])
            assert np.all(nearest[~within] == -1)
            assert np.all(distance[~within] == np.inf)
            # every member has a kept point within sep
            assert within[np.arange(space.n) if members is None else members].all()

    def test_reads_each_kept_ball_once(self, monkeypatch):
        space, _ = build_group_space("zd", d=2, modulus=16)
        calls = []
        real = space.ball_chunks
        monkeypatch.setattr(space, "ball_chunks", lambda c, r: calls.append(
            (np.asarray(c).tolist(), r)) or real(c, r))
        kept, _, _ = greedy_net(space, 3.0, strict=False)
        assert calls == [([c], 3.0) for c in kept]


class TestBallTable:
    def test_nesting(self):
        # nested balls, each radius of the table adding a nonempty sphere
        space, table = build_group_space("zd", d=2, radius=5)
        volumes = [table.volume(r) for r in table.radii]
        assert all(b > a for a, b in zip(volumes, volumes[1:]))
        assert volumes[-1] == pytest.approx(space.weights.sum())

    def test_volume_is_point_count(self):
        space, _ = build_group_space("zd", d=1, radius=5)
        e = identity_index(space)
        table = BallTable.from_space(space, e)
        row = space.dist_row(e)
        for r in (-1.0, *table.radii, 2.5):
            assert table.volume(r) == np.count_nonzero(row <= r)


@pytest.mark.parametrize("make", [
    lambda: build_group_space("h3", modulus=4)[0],
    lambda: build_group_space("zd", d=2, radius=3)[0],
    lambda: MatrixSpace([[0.0, 1.0], [1.0, 0.0]]),
], ids=["quotient", "truncation", "matrix"])
def test_weights_are_the_read_only_counting_measure(make):
    space = make()
    assert np.array_equal(space.weights, np.ones(space.n))
    with pytest.raises(ValueError, match="read-only"):
        space.weights[0] = 2.0


class TestMatrixSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixSpace([[0, 1], [2, 0]])  # asymmetric
        with pytest.raises(ValueError):
            MatrixSpace([[1, 1], [1, 0]])  # nonzero diagonal
        with pytest.raises(ValueError):
            MatrixSpace([[0, -1], [-1, 0]])  # negative

    def test_random_square_is_metric(self):
        space = random_square_space(60, 40, seed=9)
        m = space.dist_matrix()
        # d(i, k) <= d(i, j) + d(j, k) over every triple, indexed [i, j, k]
        assert np.all(m[:, None, :] <= m[:, :, None] + m[None, :, :])
        assert space.resolution() >= 1.0

    def test_random_square_deterministic(self):
        a = random_square_space(25, 30, seed=4)
        b = random_square_space(25, 30, seed=4)
        assert np.array_equal(a.dist_matrix(), b.dist_matrix())

    def test_rejects_coincident_points(self):
        d = np.array([[0.0, 1.0, 2.0, 1.0],
                      [1.0, 0.0, 1.0, 0.0],
                      [2.0, 1.0, 0.0, 1.0],
                      [1.0, 0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            MatrixSpace(d)

    def test_stored_metric_is_read_only(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        space = MatrixSpace(d)
        d[0, 1] = 9.0           # the caller's array is not the stored one
        with pytest.raises(ValueError, match="read-only"):
            space.dist_row(0)[1] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            space.dist_matrix()[0, 1] = 9.0
        assert space.dist_row(0)[1] == 1.0

    def test_single_point(self):
        space = MatrixSpace([[0.0]])
        rep = geometric_doubling_check(space, 1)
        assert rep.max_small_cover == 1


class TestAnnularDecay:
    def test_z1_constant_is_1_sufficient(self):
        # 2s <= (s/r)(2r+1) exactly: the worst sampled ratio is 2r/(2r+1)
        space, _ = build_group_space("zd", d=1, radius=256)
        rep = annular_decay_profile(space, [identity_index(space)],
                                    range(2, 65), range(0, 65), eps=1.0)
        assert rep.K_hat == pytest.approx(128 / 129)
        assert rep.K_hat <= 1.0
        assert rep.two_sided_ok

    def test_zero_width_contributes_zero(self):
        space, _ = build_group_space("zd", d=1, radius=16)
        rep = annular_decay_profile(space, [identity_index(space)], [2.0], [0.0, 1.0])
        assert rep.K_hat > 0  # only the s=1 pair contributes

    def test_z2_finite_and_stable_across_centers(self):
        space, _ = build_group_space("zd", d=2, radius=80)
        wl = space.word_lengths
        inner = [int(i) for i in np.nonzero(wl <= 8)[0][:5]]
        rep1 = annular_decay_profile(space, [identity_index(space)],
                                     [4, 8, 16, 32], [1, 2, 4, 8], eps=1.0)
        rep2 = annular_decay_profile(space, inner,
                                     [4, 8, 16, 32], [1, 2, 4, 8], eps=1.0)
        assert 0 < rep1.K_hat < 10
        assert 0 < rep2.K_hat < 10
        assert rep2.K_hat >= rep1.K_hat  # superset of samples
        assert rep1.two_sided_ok and rep2.two_sided_ok

    def test_validates_radius_range(self):
        space, _ = build_group_space("zd", d=1, radius=16)
        with pytest.raises(ValueError):
            annular_decay_profile(space, [0], [0.5], [0.5])  # r <= r0
        with pytest.raises(ValueError):
            annular_decay_profile(space, [], [2], [1])  # empty centers

    def test_two_sided_never_exceeds_formula(self):
        space = random_square_space(150, 30, seed=21)
        centers = list(range(0, 150, 17))
        rep = annular_decay_profile(space, centers, [3, 5, 9], [1, 2, 3], eps=0.7)
        assert rep.K_eps_measured <= rep.K_eps_formula + 1e-12


def row_small_cover(space, sep_of=lambda r: r / 2):
    """Reference for the doubling check: the largest greedy net at
    separation ``sep_of(r)`` of a ball B(c, r), r in (r0, 2 r0, 4 r0), over
    every max(1, n // 8)-th center, from full distance rows."""
    centers = range(0, space.n, max(1, space.n // 8))
    return max(len(row_greedy_net(
        space, sep_of(r), np.flatnonzero(space.dist_row(c) <= r),
        strict=True)[0])
        for r in (space.r0, 2 * space.r0, 4 * space.r0) for c in centers)


class TestDoubling:
    def test_z1_interval_cover_at_most_3(self):
        space, _ = build_group_space("zd", d=1, radius=64)
        rep = geometric_doubling_check(space, 3)
        assert rep.max_small_cover == row_small_cover(space) <= 3
        assert rep.small_ok

    def test_z2_small_covers(self):
        space, _ = build_group_space("zd", d=2, radius=40, r0=2.0)
        rep = geometric_doubling_check(space, 12)
        assert rep.max_small_cover == row_small_cover(space) > 12
        # the r-nets of the balls whose covers exceed D0 decide nothing
        packing = row_small_cover(space, lambda r: r)
        assert rep.max_small_packing <= packing <= 12
        assert rep.small_ok is None

    @pytest.mark.parametrize("pays", [0, 10**9], ids=["rows", "search"])
    def test_matches_full_row_reference(self, pays, monkeypatch):
        monkeypatch.setattr(space_module, "_SEARCH_PAYS", pays)
        space, _ = build_group_space("h3", radius=6)
        rep = geometric_doubling_check(space, 20)
        assert rep.max_small_cover == row_small_cover(space)
        # at D0 = 1 every ball's cover exceeds D0, so every ball takes its
        # r-net
        rep = geometric_doubling_check(space, 1)
        assert rep.max_small_packing == row_small_cover(space, lambda r: r)

    def test_searched_balls_read_no_rows(self, monkeypatch):
        # on Z^2/64 the balls B(c, r <= 4) of the eight centers and the
        # nets' balls of radius <= 2 are all translates of identity balls
        space, _ = build_group_space("zd", d=2, modulus=64)
        rows = []
        real = space.dist_row
        monkeypatch.setattr(space, "dist_row",
                            lambda i: rows.append(i) or real(i))
        rep = geometric_doubling_check(space, 9)
        assert rep.max_small_cover == 9 and rep.small_ok
        assert rep.max_small_packing is None
        assert rows == []

    def test_r_net_above_D0_shows_a_violation(self):
        # every ball's cover exceeds D0 = 3 on Z^2/64, so every ball takes
        # its r-net, and some r-net has more than three points
        space, _ = build_group_space("zd", d=2, modulus=64)
        rep = geometric_doubling_check(space, 3)
        assert rep.max_small_cover == row_small_cover(space)
        assert rep.max_small_packing == row_small_cover(space, lambda r: r) > 3
        assert rep.small_ok is False

    def test_pair_bound_uses_annular_constants_one(self):
        # D = max(D0, [9^eps (K+1)] + 1) at eps = K = 1 is max(D0, 19)
        space, _ = build_group_space("zd", d=1, modulus=64)
        assert geometric_doubling_check(space, 3).D == 19
        assert geometric_doubling_check(space, 25).D == 25

    def test_rejects_bad_inputs(self):
        space, _ = build_group_space("zd", d=1, radius=8)
        with pytest.raises(ValueError):
            geometric_doubling_check(space, 0)


class TestGrowthFit:
    def test_z1(self):
        _, table = build_group_space("zd", d=1, radius=64)
        d_hat, c_hat = fit_growth_exponent(table)
        assert abs(d_hat - 1) < 0.15
        assert c_hat >= 1
        # both inequalities hold with the returned constant
        for r in table.radii:
            if r >= 1:
                v = table.volume(r)
                assert v <= c_hat * r**d_hat + 1e-9
                assert v >= r**d_hat / c_hat - 1e-9

    def test_z2(self):
        _, table = build_group_space("zd", d=2, radius=40)
        d_hat, _ = fit_growth_exponent(table)
        assert abs(d_hat - 2) < 0.2

    def test_h3_quartic(self):
        # growth degree of the discrete Heisenberg group is 4
        _, table = build_group_space("h3", radius=24)
        d_hat, _ = fit_growth_exponent(table)
        assert abs(d_hat - 4) < 0.3

    def test_too_few_radii(self):
        # a truncation of radius 1 tables the radii 0 and 1 only
        space, _ = build_group_space("zd", d=1, radius=1)
        table = BallTable.from_space(space, identity_index(space))
        assert table.radii == (0, 1)
        with pytest.raises(ValueError):
            fit_growth_exponent(table)
