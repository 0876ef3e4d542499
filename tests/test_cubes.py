import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergolab import cubes
from ergolab.cubes import (
    _MAX_VIOLATIONS,
    _nests,
    AxiomReport,
    AxiomViolation,
    BoundaryConstants,
    ConstructionError,
    DyadicSystem,
    HKParams,
    Nets,
    build_cubes,
    largest_power,
    select_nets,
    verify_cube_axioms,
)
from ergolab.operators import (OperatorConfig, avg_profile,
                               fit_doubling_constant)
from ergolab.space import (
    MatrixSpace,
    build_group_space,
    geometric_doubling_check,
    random_square_space,
)


@pytest.fixture(scope="module")
def z64():
    space, _ = build_group_space(family="zd", d=1, modulus=64)
    return space


@pytest.fixture(scope="module")
def z512():
    space, _ = build_group_space(family="zd", d=1, modulus=512)
    return space


@pytest.fixture(scope="module")
def z512_system(z512):
    return build_cubes(z512, HKParams())


FOUR_SPACES = pytest.mark.parametrize("make", [
    lambda: build_group_space(family="zd", d=1, modulus=64)[0],
    lambda: build_group_space(family="zd", d=2, modulus=16)[0],
    lambda: build_group_space(family="h3", modulus=8)[0],
    lambda: random_square_space(60, 40, seed=9),
], ids=["z64", "z2-16", "h3-8", "random-square"])


def full_row_axioms(system: DyadicSystem) -> AxiomReport:
    """Reference verifier: the axiom checks with one full distance row per
    center, emitting violations in the order `verify_cube_axioms` does."""
    space = system.space
    viol: list[AxiomViolation] = []

    def add(axiom: str, level: int, cube: int, detail: str) -> None:
        if len(viol) < _MAX_VIOLATIONS:
            viol.append(AxiomViolation(axiom, level, cube, detail))

    partition_ok = True
    in_range = []
    for li, k in enumerate(system.levels):
        a = system.assign[li]
        m = len(system.centers[li])
        in_range.append(a.shape == (space.n,) and 0 <= a.min() and a.max() < m)
        if not in_range[-1]:
            partition_ok = False
            add("i", k, -1, "assignment out of range")
            continue
        for cube in np.nonzero(np.bincount(a, minlength=m) == 0)[0]:
            partition_ok = False
            add("i", k, int(cube), "empty cube")
    nesting_ok = True
    for li in range(len(system.levels)):
        for lj in range(li + 1, len(system.levels)):
            if not (in_range[li] and in_range[lj]):
                continue
            fine, coarse = system.assign[li], system.assign[lj]
            m = len(system.centers[lj])
            fine_ids = np.unique(fine.astype(np.int64) * m + coarse) // m
            dup = fine_ids[:-1][fine_ids[:-1] == fine_ids[1:]]
            for cube in np.unique(dup):
                nesting_ok = False
                add("ii", system.levels[li], int(cube),
                    f"straddles two cubes at level {system.levels[lj]}")
    parent_ok = True
    for li in range(len(system.levels) - 1):
        if not (in_range[li] and in_range[li + 1]):
            continue
        expected = system.parents[li][system.assign[li]]
        mism = np.nonzero(expected != system.assign[li + 1])[0]
        if mism.size:
            parent_ok = False
            add("iii", system.levels[li], int(system.assign[li][mism[0]]),
                "members leave the stored parent")
    p = system.params
    checked = passed = 0
    sandwich_ok_in_safe = separation_ok = covering_ok = True
    for li, k in enumerate(system.levels):
        scale = p.delta**k
        cents = system.centers[li]
        a = system.assign[li]
        cover_min = np.full(space.n, np.inf)
        for ci, c in enumerate(cents):
            row = space.dist_row(int(c))
            np.minimum(cover_min, row, out=cover_min)
            others = row[cents]
            others[ci] = np.inf
            if others.size > 1 and others.min() < p.c0 * scale:
                separation_ok = False
                add("separation", k, ci, f"center pair at distance "
                                         f"{others.min()} < {p.c0 * scale}")
            mine = a == ci
            checked += 1
            inner_bad = np.any((row <= p.a0 * scale) & ~mine)
            outer_bad = np.any(mine & (row > p.C1 * scale))
            if inner_bad or outer_bad:
                add("iv", k, ci,
                    f"{'inner' if inner_bad else 'outer'} sandwich violated")
                if scale <= space.safe_radius:
                    sandwich_ok_in_safe = False
            else:
                passed += 1
        if np.any(cover_min >= p.C0 * scale):
            covering_ok = False
            add("covering", k, -1,
                f"point at distance >= {p.C0 * scale} from every center")
    return AxiomReport(
        n_cubes=sum(len(c) for c in system.centers), partition_ok=partition_ok,
        nesting_ok=nesting_ok, parent_ok=parent_ok, sandwich_checked=checked,
        sandwich_passed=passed, sandwich_ok_in_safe=sandwich_ok_in_safe,
        separation_ok=separation_ok, covering_ok=covering_ok,
        violations=tuple(viol))


def tampered(system: DyadicSystem, how: str) -> DyadicSystem:
    """A copy of ``system`` with one defect at level index 0 or 1."""
    centers = [c.copy() for c in system.centers]
    assign = [a.copy() for a in system.assign]
    parents = [p.copy() for p in system.parents]
    m = len(centers[1])
    if how == "teleport":       # a center's point moves to the farthest cube
        victim = int(centers[1][0])
        assign[1][victim] = np.argmax(system.space.dist_row(victim)[centers[1]])
    elif how == "empty":        # cube 0 hands its points to cube 1
        assign[1][assign[1] == 0] = 1
    elif how == "parent":       # a finest cube names the wrong parent
        parents[0][0] = (parents[0][0] + 1) % m
    elif how == "roll":         # every finest cube misses its center
        assign[0] = np.roll(assign[0], 1)
    elif how == "moved-center":     # center 1 moves next to center 0
        row = system.space.dist_row(int(centers[1][0])).copy()
        row[centers[1][0]] = np.inf
        centers[1][1] = np.argmin(row)
    return replace(system, centers=tuple(centers), assign=tuple(assign),
                   parents=tuple(parents))


# ---------------------------------------------------------------------------
# parameters and constants
# ---------------------------------------------------------------------------

# bases of admissible parameters: integers, whose powers are exact floats
# far up, and others
_DELTAS = st.one_of(st.sampled_from([19.0, 20.5, 36.0, 72.0, 1000.0]),
                    st.floats(18.5, 1000.0))


@st.composite
def _hk_params(draw) -> HKParams:
    """Admissible parameters, 18 C0 / delta <= c0 < C0."""
    delta = draw(_DELTAS)
    C0 = draw(st.floats(0.1, 10.0))
    lhs = 18.0 * C0 / delta
    return HKParams(delta=delta, C0=C0,
                    c0=lhs + draw(st.floats(0.0, 0.99)) * (C0 - lhs))


@given(delta=_DELTAS, j=st.integers(-5, 8), step=st.integers(-2, 2))
@example(delta=36.0, j=3, step=0)
@example(delta=100.0, j=-2, step=0)
def test_largest_power_lands_on_exact_powers(delta, j, step):
    # x is delta^j or a float or two next to it
    x = delta**j
    for _ in range(abs(step)):
        x = math.nextafter(x, step * math.inf)
    k = largest_power(lambda p: p <= x, x, delta)
    assert delta**k <= x < delta ** (k + 1)
    assert k == (j - 1 if step < 0 else j)
    assert largest_power(lambda p: p < x, x, delta) == (j - 1 if step <= 0
                                                        else j)


def test_levels_at_exact_powers_of_delta():
    # Z/2592 has diameter 1296 = 36^2, and r0 = 36 puts 36 r0 / c0 at 36^2
    space, _ = build_group_space("zd", d=1, modulus=2592, r0=36.0)
    assert HKParams().resolve_levels(space) == ([0, 1, 2, 3], [])
    c = BoundaryConstants.derive(HKParams(), r0=space.r0)
    assert (c.L1, c.n1) == (3, 2)
    config = OperatorConfig.for_space(space)
    assert config.n_r0 == 0
    assert [b.n for b in config.blocks] == [0, 1, 2]


class TestHKParams:
    def test_defaults_admissible(self):
        p = HKParams()
        assert p.delta == 36.0 and p.c0 == 1.0 and p.C0 == 2.0
        assert p.a0 == pytest.approx(1 / 3)
        assert p.C1 == 4.0

    def test_admissibility_rejected(self):
        with pytest.raises(ValueError, match=r"18\*C0/delta <= c0"):
            HKParams(delta=35.0)

    def test_c0_below_C0(self):
        with pytest.raises(ValueError):
            HKParams(c0=2.0, C0=2.0)

    def test_delta_above_one(self):
        with pytest.raises(ValueError):
            HKParams(delta=1.0)

    def test_level_bounds_ordered(self):
        with pytest.raises(ValueError):
            HKParams(k_min=3, k_max=1)

    def test_resolve_levels_auto(self, z64):
        levels, notes = HKParams().resolve_levels(z64)
        # resolution 1 -> k=0; diameter 32 -> ceil(log36 32)+1 = 2
        assert levels == [0, 1, 2]
        assert notes == []

    def test_resolve_levels_clips_below_resolution(self, z64):
        with pytest.warns(UserWarning, match="below resolution"):
            levels, notes = HKParams(k_min=-3, k_max=1).resolve_levels(z64)
        assert levels == [0, 1]
        assert len(notes) == 1

    @given(delta=_DELTAS, powers=st.lists(st.integers(-3, 4), min_size=2,
                                          max_size=2),
           free=st.lists(st.one_of(st.none(), st.floats(1e-3, 1e5)),
                         min_size=2, max_size=2))
    @example(delta=36.0, powers=[0, 2], free=[None, None])
    # log_36 36^3 and log_100 100^-2 are off their integers by a rounding
    @example(delta=36.0, powers=[-3, 3], free=[None, None])
    @example(delta=100.0, powers=[-2, 3], free=[None, None])
    def test_automatic_levels_satisfy_defining_inequalities(self, delta,
                                                            powers, free):
        # resolution and diameter: exact powers of delta, or free values
        res, diam = sorted(delta**i if x is None else x
                           for i, x in zip(powers, free))
        space = MatrixSpace([[0, res, diam], [res, 0, diam],
                             [diam, diam, 0]])
        levels, _ = HKParams(delta=delta, c0=18.0 / delta,
                             C0=1.0).resolve_levels(space)
        lo, hi = levels[0], levels[-1]
        # lo is the least k with delta^k >= resolution, and hi is one past
        # the least k with delta^k >= diameter
        assert delta ** (lo - 1) < res <= delta**lo
        assert delta ** (hi - 2) < diam <= delta ** (hi - 1)

    def test_one_point_space(self):
        space = MatrixSpace(np.zeros((1, 1)), label="pt")
        params = HKParams()
        levels, _ = params.resolve_levels(space)
        assert len(levels) == 1
        system = build_cubes(space, params)
        assert [len(c) for c in system.centers] == [1]
        assert verify_cube_axioms(system).all_pass


class TestBoundaryConstants:
    def test_default_values(self):
        c = BoundaryConstants.derive(HKParams(), r0=1.0)
        assert (c.L0, c.L1, c.L2, c.L3) == (1, 2, 1, 165890)
        assert c.eta == pytest.approx(1.1659919441634263e-06, rel=1e-14)
        assert c.C2 == 331776.0
        assert c.C2_prime == 72.0
        assert c.K_eps == 5.0
        assert (c.n0, c.n1, c.k1) == (1, 1, -1)

    def test_eta_formula(self):
        c = BoundaryConstants.derive(HKParams(), r0=1.0)
        assert c.eta == pytest.approx(math.log(2) / (math.log(36) * c.L3))

    @given(params=st.one_of(st.just(HKParams()), _hk_params()),
           r0=st.one_of(st.floats(0.25, 50.0), st.integers(-2, 4)))
    @example(params=HKParams(), r0=1.0)
    @example(params=HKParams(), r0=18.0)
    @example(params=HKParams(), r0=36.0)
    @example(params=HKParams(delta=72.0, c0=1.0, C0=4.0), r0=2)
    def test_thresholds_satisfy_defining_inequalities(self, params, r0):
        delta, c0, C0 = params.delta, params.c0, params.C0
        if isinstance(r0, int):
            # 36 r0 / c0 at delta^r0, exactly so for many deltas at c0 = 1
            r0 = delta**r0 * c0 / 36.0
        c = BoundaryConstants.derive(params, r0=r0)
        # L0, L1 and L2 are the least integers whose powers exceed their
        # bounds
        for L, bound in ((c.L0, 12.0 / c0), (c.L1, 36.0 * r0 / c0),
                         (c.L2, 4.0 * C0 + 1.0)):
            assert delta ** (L - 1) <= bound < delta**L
        # n1 = least n >= 0 with delta^n >= 2 r0
        assert delta**c.n1 >= 2 * r0
        assert c.n1 == 0 or delta ** (c.n1 - 1) < 2 * r0
        # k1 = greatest k with C1 delta^k <= 1
        assert params.C1 * delta**c.k1 <= 1.0
        assert params.C1 * delta ** (c.k1 + 1) > 1.0

    @pytest.mark.parametrize("params, r0, name", [
        (HKParams(), 1e307, "36*r0/c0"),
        (HKParams(c0=1e-308, C0=2e-308), 1.0, "12/c0"),
        (HKParams(delta=1e154, c0=9e-154, C0=0.5), 1.0,
         "C2 = 4*(K+1)^2*(72*C0/c0)^(2*eps)"),
    ], ids=["L1", "L0", "C2"])
    def test_bound_past_the_float_range_is_named(self, params, r0, name):
        with pytest.raises(ValueError,
                           match=rf"^bound {re.escape(name)} overflows"):
            BoundaryConstants.derive(params, r0=r0)

    def test_n0_is_gap(self):
        c = BoundaryConstants.derive(HKParams(), r0=1.0)
        assert c.n0 == max(c.L1 - c.L0, 0)

    @pytest.mark.parametrize("kw", [dict(r0=0.0), dict(r0=1.0, K=0.0),
                                    dict(r0=1.0, eps=0.0), dict(r0=1.0, eps=1.5)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            BoundaryConstants.derive(HKParams(), **kw)


# ---------------------------------------------------------------------------
# nets
# ---------------------------------------------------------------------------

class TestSelectNets:
    def test_separation_and_covering(self, z512):
        params = HKParams()
        nets = select_nets(z512, params)
        for k, cents in zip(nets.levels, nets.centers):
            sep = params.c0 * params.delta**k
            cover = params.C0 * params.delta**k
            cover_min = np.full(z512.n, np.inf)
            for i, c in enumerate(cents):
                row = z512.dist_row(int(c))
                np.minimum(cover_min, row, out=cover_min)
                others = row[cents]
                others[i] = np.inf
                if len(cents) > 1:
                    assert others.min() >= sep
            assert cover_min.max() < cover

    def test_centers_ascending(self, z512):
        nets = select_nets(z512, HKParams())
        for cents in nets.centers:
            assert np.all(np.diff(cents) > 0)

    def test_finest_level_is_everything(self, z64):
        nets = select_nets(z64, HKParams())
        assert len(nets.centers[0]) == z64.n

    def test_scale_above_diameter_single_center(self, z64):
        nets = select_nets(z64, HKParams())
        assert list(nets.centers[-1]) == [0]
        assert np.array_equal(nets.nearest[-1], np.zeros(z64.n))
        assert np.array_equal(nets.distance[-1], z64.dist_row(0))

    @pytest.mark.parametrize("make", [
        lambda: build_group_space("zd", d=1, modulus=4096)[0],
        lambda: build_group_space("zd", d=2, modulus=16)[0],
        lambda: random_square_space(60, 40, seed=9),
    ], ids=["z4096", "z2-16", "random-square"])
    def test_reads_each_center_ball_once(self, make, monkeypatch):
        space = make()
        params = HKParams()
        calls = []
        real = space.ball_chunks
        monkeypatch.setattr(space, "ball_chunks", lambda c, r: calls.append(
            (np.asarray(c).tolist(), r)) or real(c, r))
        nets = select_nets(space, params)
        # levels at or below the resolution take every point, reading nothing
        assert calls == [([int(c)], params.c0 * params.delta**k)
                         for k, cents in zip(nets.levels, nets.centers)
                         if params.c0 * params.delta**k > space.resolution()
                         for c in cents]
        assert len(calls) < sum(len(c) for c in nets.centers)


# ---------------------------------------------------------------------------
# construction and axioms
# ---------------------------------------------------------------------------

class TestBuildCubes:
    def test_axioms_z64(self, z64):
        report = verify_cube_axioms(build_cubes(z64, HKParams()))
        assert report.all_pass
        assert report.sandwich_passed == report.sandwich_checked
        assert report.violations == ()

    def test_axioms_z512(self, z512_system):
        report = verify_cube_axioms(z512_system)
        assert report.all_pass

    def test_deterministic(self, z512):
        a = build_cubes(z512, HKParams())
        b = build_cubes(z512, HKParams())
        for x, y in zip(a.assign, b.assign):
            assert np.array_equal(x, y)
        for x, y in zip(a.parents, b.parents):
            assert np.array_equal(x, y)

    def test_ball_sandwich_direct(self, z512, z512_system):
        params = z512_system.params
        li = z512_system.level_index(1)
        cube = 3
        center = int(z512_system.centers[li][cube])
        row = z512.dist_row(center)
        members = z512_system.members(1, cube)
        inside = np.nonzero(row <= params.a0 * params.delta)[0]
        assert set(inside).issubset(set(members))
        assert row[members].max() <= params.C1 * params.delta

    def test_no_admissible_parent_raises(self, monkeypatch):
        d = np.array([[0.0, 1000.0, 2000.0],
                      [1000.0, 0.0, 1000.0],
                      [2000.0, 1000.0, 0.0]])
        space = MatrixSpace(d, label="spread")
        # the one level-1 center is 1000 and 2000 away from the others,
        # beyond C0*delta = 72
        nets = Nets(levels=(0, 1), centers=(np.arange(3), np.array([0])),
                    nearest=(np.arange(3), np.zeros(3, dtype=np.int64)),
                    distance=(np.zeros(3), d[0]), notes=())
        monkeypatch.setattr(cubes, "select_nets", lambda *args: nets)
        with pytest.raises(ConstructionError, match="covering"):
            build_cubes(space, HKParams())

    def test_membership_corruption_detected(self, z512_system):
        assign = [a.copy() for a in z512_system.assign]
        li = z512_system.level_index(1)
        # teleport one point into a far cube: the sandwich breaks
        victim = int(z512_system.centers[li][0])
        assign[li][victim] = z512_system.assign[li][victim] + 5
        tampered = replace(z512_system, assign=tuple(assign))
        report = verify_cube_axioms(tampered)
        assert not report.all_pass
        axioms = {v.axiom for v in report.violations}
        assert "iv" in axioms or "iii" in axioms or "ii" in axioms

    def test_empty_cube_detected(self, z512_system):
        assign = [a.copy() for a in z512_system.assign]
        li = z512_system.level_index(1)
        assign[li][assign[li] == 0] = 1
        tampered = replace(z512_system, assign=tuple(assign))
        report = verify_cube_axioms(tampered)
        assert not report.partition_ok

    def test_parent_tamper_detected(self, z512_system):
        parents = [p.copy() for p in z512_system.parents]
        li = z512_system.level_index(1)
        parents[li][0] = (parents[li][0] + 1) % len(z512_system.centers[li + 1])
        tampered = replace(z512_system, parents=tuple(parents))
        report = verify_cube_axioms(tampered)
        # either the stored link mismatches, or (with a single coarse cube)
        # the modulus wrapped to the same value and nothing changed
        if not np.array_equal(parents[li], z512_system.parents[li]):
            assert not report.parent_ok

    def test_nesting_tamper_detected(self):
        # needs a level pair where both sides have multiple multi-point
        # cubes; with delta=36 that means a space of diameter >= 36^2
        space, _ = build_group_space(family="zd", d=1, modulus=4096)
        system = build_cubes(space, HKParams(k_max=2))
        li, lj = system.level_index(1), system.level_index(2)
        assert len(system.centers[lj]) >= 2
        assign = [a.copy() for a in system.assign]
        members = system.members(1, 0)
        assign[lj][members[: len(members) // 2]] = (
            system.assign[lj][members[0]] + 1
        ) % len(system.centers[lj])
        tampered = replace(system, assign=tuple(assign))
        report = verify_cube_axioms(tampered)
        assert not report.nesting_ok
        assert any(v.axiom == "ii" for v in report.violations)

    @FOUR_SPACES
    def test_cube_index_matches_direct_scans(self, make):
        space = make()
        system = build_cubes(space, HKParams())
        for li, k in enumerate(system.levels):
            a = system.assign[li]
            m = system.n_cubes(k)
            expected = np.bincount(a, weights=space.weights, minlength=m)
            measures = system.cube_measures(k)
            assert measures.dtype == expected.dtype
            assert measures.tobytes() == expected.tobytes()
            for c in range(m):
                assert np.array_equal(system.members(k, c),
                                      np.nonzero(a == c)[0])
            order, starts, _ = system.cube_index(k)
            assert len(starts) == m + 1 and starts[-1] == space.n
            assert system.cube_index(k) is system.cube_index(k)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cube_averages_of_a_block_are_its_column_calls(self, weighted):
        w = (np.random.default_rng(2).uniform(0.5, 2.0, 512) if weighted
             else None)
        space, _ = build_group_space("zd", d=1, modulus=512, weights=w)
        system = build_cubes(space, HKParams())
        block = np.random.default_rng(3).standard_normal((512, 4))
        block[:, 3] = np.arange(512) % 7
        for li, k in enumerate(system.levels):
            measures = system.cube_measures(k)
            got = system.cube_averages(k, block)
            assert got.shape == (len(measures), 4)
            for t in range(4):
                one = system.cube_averages(k, block[:, t].copy())
                direct = np.bincount(
                    system.assign[li], weights=space.weights * block[:, t],
                    minlength=len(measures)) / measures
                assert one.tobytes() == direct.tobytes()
                assert got[:, t].tobytes() == one.tobytes()

    def test_replaced_system_gets_its_own_index(self, z64):
        system = build_cubes(z64, HKParams())
        k = system.finest
        before = system.members(k, 0).copy()
        assign = list(system.assign)
        # move the members of cube 0 into cube 1, leaving cube 0 empty
        assign[0] = np.where(assign[0] == 0, 1, assign[0])
        emptied = replace(system, assign=tuple(assign))
        assert emptied.members(k, 0).size == 0
        assert np.array_equal(emptied.members(k, 1),
                              np.nonzero(assign[0] == 1)[0])
        assert emptied.cube_measures(k)[0] == 0.0
        # the original keeps its own grouping
        assert np.array_equal(system.members(k, 0), before)
        assert system.cube_index(k) is not emptied.cube_index(k)

    def test_cube_measures_sum_to_total(self, z512_system):
        for k in z512_system.levels:
            measures = z512_system.cube_measures(k)
            assert measures.sum() == pytest.approx(z512_system.space.weights.sum())
            assert np.all(measures > 0)

    @FOUR_SPACES
    def test_assignment_and_parents_are_brute_force_nearest(self, make):
        space = make()
        system = build_cubes(space, HKParams())
        assert len(system.centers[0]) == space.n    # the identity shortcut
        m = space.dist_matrix()
        # np.argmin picks the first minimum: the lowest-index tie
        expected = np.argmin(m[:, system.centers[0]], axis=1)
        assert np.array_equal(system.assign[0], expected)
        for li in range(len(system.levels) - 1):
            sub = m[np.ix_(system.centers[li], system.centers[li + 1])]
            assert np.array_equal(system.parents[li], np.argmin(sub, axis=1))

    def test_all_points_finest_level_needs_no_rows(self, monkeypatch):
        space, _ = build_group_space(family="zd", d=2, modulus=16)
        nets = select_nets(space, HKParams())
        assert len(nets.centers[0]) == space.n
        rows = []
        real = space.dist_row
        monkeypatch.setattr(space, "dist_row",
                            lambda i: rows.append(i) or real(i))
        monkeypatch.setattr(cubes, "select_nets", lambda *args: nets)
        system = build_cubes(space, HKParams())
        # nearest centers and parents come from the nets' maps
        assert rows == []
        assert np.array_equal(system.assign[0], np.arange(space.n))

    def test_wrong_identity_assignment_is_caught(self, z64):
        system = build_cubes(z64, HKParams())
        assign = list(system.assign)
        assign[0] = np.roll(assign[0], 1)
        report = verify_cube_axioms(replace(system, assign=tuple(assign)))
        # each finest cube now misses its own center: the inner ball fails
        assert not report.sandwich_ok_in_safe
        assert report.sandwich_passed == report.sandwich_checked - z64.n

    def test_verification_reads_rows_only_for_whole_space_balls(
            self, monkeypatch):
        space, _ = build_group_space(family="zd", d=2, modulus=16)
        system = build_cubes(space, HKParams())
        rows = []
        real = space.dist_row
        monkeypatch.setattr(space, "dist_row",
                            lambda i: rows.append(i) or real(i))
        assert verify_cube_axioms(system).all_pass
        # quotient balls, the whole space included, are translates of
        # identity balls and read no rows
        assert rows == []

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(5, 40), seed=st.integers(0, 2**20))
    def test_random_spaces_structural_axioms(self, n, seed):
        space = random_square_space(n, 48, seed)
        report = verify_cube_axioms(build_cubes(space, HKParams()))
        assert report.partition_ok and report.nesting_ok and report.parent_ok
        assert report.separation_ok and report.covering_ok


class TestLocalVerification:
    """`verify_cube_axioms` reads local balls; the full-row reference must
    give the same report, violations and details included."""

    @FOUR_SPACES
    def test_untouched_systems(self, make):
        system = build_cubes(make(), HKParams())
        assert verify_cube_axioms(system) == full_row_axioms(system)

    @pytest.mark.parametrize("make", [
        lambda: build_group_space("h3", radius=6)[0],
        lambda: build_group_space("zd", d=2, radius=10)[0],
    ], ids=["h3-ball6", "z2-ball10"])
    def test_truncations(self, make):
        system = build_cubes(make(), HKParams())
        assert verify_cube_axioms(system) == full_row_axioms(system)

    @pytest.mark.parametrize("how", ["teleport", "empty", "parent", "roll",
                                     "moved-center"])
    def test_tampered_systems(self, z512_system, how):
        system = tampered(z512_system, how)
        report = verify_cube_axioms(system)
        assert not report.all_pass
        assert report == full_row_axioms(system)
        if how == "moved-center":
            assert not report.separation_ok
            assert [v.cube for v in report.violations
                    if v.axiom == "separation"] == [0, 1]
        if how == "teleport":
            assert [v.detail for v in report.violations if v.axiom == "iv"] \
                == ["inner sandwich violated", "outer sandwich violated"]

    @pytest.mark.parametrize("cube", [14, 15])
    def test_out_of_range_assignment_is_reported(self, z512_system, cube):
        # (i) reports the level; (iii) must not index with it, and (ii) must
        # not read point 0's cube 15 as a second level-1 cube of point 1
        assign = [a.copy() for a in z512_system.assign]
        assign[1][0] = cube
        assert len(z512_system.centers[1]) == 14
        broken = replace(z512_system, assign=tuple(assign))
        report = verify_cube_axioms(broken)
        assert not report.partition_ok and not report.all_pass
        assert AxiomViolation("i", 1, -1, "assignment out of range") \
            in report.violations
        assert report == full_row_axioms(broken)

    def test_short_parent_table_is_reported(self, z512_system):
        parents = list(z512_system.parents)
        parents[0] = parents[0][:-1]
        report = verify_cube_axioms(replace(z512_system, parents=tuple(parents)))
        assert not report.parent_ok and report.partition_ok
        assert AxiomViolation("iii", z512_system.levels[0], -1,
                              "parent out of range") in report.violations

    def test_covering_ball_is_open(self):
        # level-1 centers 0 and 144 on Z/288: the points 72 and 216 lie
        # exactly C0 delta = 72 from both, outside the open covering balls
        space, _ = build_group_space("zd", d=1, modulus=288)
        system = build_cubes(space, HKParams())
        cents = space.index_of(np.array([[0], [144]]))
        near = np.argmin(np.stack([space.dist_row(c) for c in cents]), axis=0)
        broken = replace(
            system,
            centers=(system.centers[0], cents, *system.centers[2:]),
            assign=(system.assign[0], near, *system.assign[2:]),
            parents=(near, np.zeros(2, dtype=np.int64), *system.parents[2:]))
        report = verify_cube_axioms(broken)
        assert not report.covering_ok
        assert report.partition_ok and report.parent_ok
        assert report == full_row_axioms(broken)

    def test_tampered_random_square(self):
        system = build_cubes(random_square_space(60, 40, seed=9), HKParams())
        assert len(system.centers[1]) > 1
        for how in ("teleport", "roll", "moved-center"):
            broken = tampered(system, how)
            report = verify_cube_axioms(broken)
            assert not report.all_pass
            assert report == full_row_axioms(broken)

    def test_nesting_tamper(self):
        space, _ = build_group_space(family="zd", d=1, modulus=4096)
        system = build_cubes(space, HKParams(k_max=2))
        assign = [a.copy() for a in system.assign]
        members = system.members(1, 0)
        assign[2][members[: len(members) // 2]] += 1
        broken = replace(system, assign=tuple(assign))
        report = verify_cube_axioms(broken)
        assert not report.nesting_ok
        assert report == full_row_axioms(broken)

    def test_consecutive_nesting_matches_the_pair_scan(self):
        # `_nests` decides a pair without sorting; the all-pairs scan of
        # the oracle is the reference, on chains that nest and on chains
        # with one moved point
        rng = np.random.default_rng(41)
        for trial in range(40):
            fine = rng.integers(0, 30, 400)
            m = int(fine.max()) + 1
            coarse = rng.integers(0, 6, m)[fine]
            if trial % 2:
                coarse[rng.integers(400)] = rng.integers(6)
            keys = np.unique(fine * 6 + coarse) // 6
            assert _nests(fine, coarse, m) == (len(keys) == len(np.unique(fine)))


# ---------------------------------------------------------------------------
# quotient balls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: build_group_space("zd", d=2, modulus=16)[0],
    lambda: build_group_space("h3", modulus=8)[0],
], ids=["z2-16", "h3-8"])
def test_quotient_balls_read_no_search_and_no_rows(make, monkeypatch):
    # every quotient ball is a translate of an identity ball, so the cube
    # layer, the doubling cover and fit, and the FFT spot check neither
    # search the generator graph nor read distance rows
    space = make()

    def refuse(*args):
        raise AssertionError("quotient ball left the translation kernel")

    for name in ("_search_balls", "_row_balls", "dist_row"):
        monkeypatch.setattr(space, name, refuse)
    system = build_cubes(space, HKParams())
    assert verify_cube_axioms(system).all_pass
    assert geometric_doubling_check(space, 130).small_ok
    values = np.random.default_rng(0).integers(-1, 2, (space.n, 2))
    assert avg_profile(values, space, [0, 1, 2, 5]).shape == (4, space.n, 2)
    assert fit_doubling_constant(space) >= 1.0
