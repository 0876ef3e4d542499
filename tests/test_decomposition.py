"""Tests for the height decomposition and the Vitali selector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.cubes import HKParams, build_cubes
from ergolab.decomposition import (
    GundyError,
    g_norm_bound,
    gundy_decompose,
    vitali_dilate_check,
    vitali_select,
)
from ergolab.martingale import SampleFunction, weighted_norm
from ergolab.space import build_group_space

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def z8_system():
    space, _ = build_group_space("zd", d=1, modulus=8)
    return space, build_cubes(space, HKParams(k_min=0, k_max=1))


@pytest.fixture(scope="module")
def z512_system():
    space, _ = build_group_space("zd", d=1, modulus=512)
    return space, build_cubes(space, HKParams())


def sample(space, values):
    return SampleFunction(space.label, np.asarray(values, dtype=float))


def dense(part, n):
    """A part scattered from its support into a full n-vector."""
    out = np.zeros(n)
    out[part.support] = part.values
    return out


class TestHandInstance:
    """Eight points, two levels (singletons below one root), f massed on a
    single point, gamma = 1.5."""

    def test_levels(self, z8_system):
        space, system = z8_system
        assert system.levels == (0, 1)
        assert system.n_cubes(0) == 8
        assert system.n_cubes(1) == 1

    def test_decomposition_values(self, z8_system):
        space, system = z8_system
        f = np.zeros(8)
        f[0] = 8.0
        res = gundy_decompose(sample(space, f), system, gamma=1.5)

        assert len(res.stopping) == 1
        stop = res.stopping[0]
        assert stop.level == 0
        assert stop.abs_average == 8.0
        assert stop.mean == 8.0
        assert stop.parent_mean == 1.0
        assert stop.measure == 1.0
        assert stop.parent_measure == 8.0

        # b = (f - <f>_Q) 1_Q vanishes because f is constant on the cube
        assert len(res.b_parts) == 1
        assert np.all(dense(res.b_parts[0], 8) == 0.0)
        assert res.b_l1 == 0.0

        # xi = (8 - 1)(1_Q - (1/8) 1_{Q^}) = 6.125 on the point, -0.875 off
        xi = dense(res.xi_parts[0], 8)
        stop_idx = int(np.argmax(f))
        assert xi[stop_idx] == pytest.approx(6.125, abs=1e-14)
        off = np.delete(xi, stop_idx)
        assert np.allclose(off, -0.875, atol=1e-14)
        assert res.xi_l1 == pytest.approx(12.25, abs=1e-12)

        # g = parent mean on the cube plus the lump 7/8 everywhere
        g = res.g.values
        assert g[stop_idx] == pytest.approx(1.875, abs=1e-14)
        assert np.allclose(np.delete(g, stop_idx), 0.875, atol=1e-14)

    def test_gamma_above_peak_gives_trivial_split(self, z8_system):
        space, system = z8_system
        f = np.zeros(8)
        f[0] = 8.0
        res = gundy_decompose(sample(space, f), system, gamma=9.0)
        assert res.stopping == ()
        assert np.array_equal(res.g.values, f)
        assert res.b_parts == () and res.xi_parts == ()

    def test_gamma_below_global_average_raises(self, z8_system):
        space, system = z8_system
        f = np.full(8, 5.0)
        with pytest.raises(GundyError, match="enlarge system or raise gamma"):
            gundy_decompose(sample(space, f), system, gamma=1.5)

    def test_bad_arguments(self, z8_system):
        space, system = z8_system
        f = sample(space, np.ones(8))
        with pytest.raises(ValueError, match="gamma must be positive"):
            gundy_decompose(f, system, gamma=0.0)
        with pytest.raises(ValueError, match="p must be at least 1"):
            gundy_decompose(f, system, gamma=2.0, p=0.5)
        with pytest.raises(ValueError, match="length"):
            gundy_decompose(sample(space, np.ones(4)), system, gamma=2.0)


def check_invariants(space, system, values, gamma, p=2.0):
    res = gundy_decompose(sample(space, values), system, gamma, p=p)
    w = space.weights
    f_l1 = weighted_norm(np.asarray(values, dtype=float), w, 1)

    # exact reconstruction
    total = res.g.values.copy()
    for part in res.b_parts + res.xi_parts:
        total += dense(part, space.n)
    scale = max(f_l1, 1.0)
    assert np.abs(total - values).max() <= 1e-12 * scale
    assert res.reconstruction_gap <= 1e-12

    # every part integrates to zero
    for part in res.b_parts + res.xi_parts:
        assert abs(part.integral) <= 1e-12 * scale
    assert res.max_part_integral <= 1e-12 * scale

    # b parts live on their stopping cube, xi parts on its parent
    assert len(res.b_parts) == len(res.xi_parts) == len(res.stopping)
    for stop, b, xi in zip(res.stopping, res.b_parts, res.xi_parts):
        li = system.level_index(stop.level)
        parent = system.parents[li][stop.cube]
        assert (b.level, b.cube) == (stop.level, stop.cube)
        assert (xi.level, xi.cube) == (stop.level, stop.cube)
        assert np.array_equal(
            b.support, np.nonzero(system.assign[li] == stop.cube)[0])
        assert np.array_equal(
            xi.support, np.nonzero(system.assign[li + 1] == parent)[0])
        assert b.values.shape == b.support.shape
        assert xi.values.shape == xi.support.shape

    # stopping cubes are disjoint and their strict ancestors stay below gamma
    seen = np.zeros(space.n, dtype=bool)
    for stop in res.stopping:
        li = system.level_index(stop.level)
        members = np.nonzero(system.assign[li] == stop.cube)[0]
        assert not seen[members].any()
        seen[members] = True
        assert stop.abs_average > gamma
        for lj in range(li + 1, len(system.levels)):
            cube = system.assign[lj][members[0]]
            mem = system.assign[lj] == cube
            avg = (w[mem] * np.abs(values[mem])).sum() / w[mem].sum()
            assert avg <= gamma + 1e-12 * max(gamma, 1.0)

    # maximality: any cube exceeding gamma lies inside a stopping cube
    for li in range(len(system.levels) - 1):
        a = system.assign[li]
        m = system.cube_measures(system.levels[li])
        avgs = np.bincount(a, weights=w * np.abs(values), minlength=len(m)) / m
        for cube in np.nonzero(avgs > gamma)[0]:
            assert seen[np.nonzero(a == cube)[0][0]]

    # norm bounds
    slack = 1 + 1e-9
    assert res.b_l1 <= 2.0 * f_l1 * slack + 1e-15
    assert res.xi_l1 <= 4.0 * f_l1 * slack + 1e-15
    assert res.g_p_power <= res.g_bound * slack + 1e-15
    assert res.bounds_ok
    return res


class TestInvariants:
    def test_gaussian_batch(self, z512_system):
        space, system = z512_system
        rng = RNG(7)
        for trial in range(25):
            f = rng.standard_normal(space.n)
            gmax = np.abs(f).mean()
            gamma = gmax * float(rng.uniform(1.05, 4.0))
            check_invariants(space, system, f, gamma)

    def test_sparse_spikes(self, z512_system):
        space, system = z512_system
        rng = RNG(11)
        for trial in range(10):
            f = np.zeros(space.n)
            idx = rng.choice(space.n, size=9, replace=False)
            f[idx] = rng.uniform(-60.0, 60.0, size=9)
            gamma = max(np.abs(f).mean() * 1.2, 0.5)
            res = check_invariants(space, system, f, gamma)
            assert len(res.stopping) >= 1

    def test_p_other_than_two(self, z512_system):
        space, system = z512_system
        rng = RNG(3)
        f = rng.standard_normal(space.n)
        for p in (1.0, 1.5, 2.0, 3.0):
            check_invariants(space, system, f, np.abs(f).mean() * 2.0, p=p)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=8, max_size=8),
           st.floats(1.05, 6.0))
    def test_hypothesis_small_space(self, z8_system, raw, factor):
        space, system = z8_system
        f = np.asarray(raw, dtype=float)
        base = max(np.abs(f).mean(), 0.25)
        check_invariants(space, system, f, base * factor)

    def test_weighted_space(self):
        # non-uniform weights via an explicit matrix space
        from ergolab.space import MatrixSpace

        n = 6
        d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        space = MatrixSpace(d, r0=1.0, weights=np.array(
            [1.0, 2.0, 0.5, 1.5, 1.0, 3.0]), label="w6")
        system = build_cubes(space, HKParams())
        rng = RNG(5)
        for _ in range(10):
            f = rng.standard_normal(n) * 4
            w = space.weights
            gmean = (w * np.abs(f)).sum() / w.sum()
            check_invariants(space, system, f, gmean * 1.5)


class TestGBound:
    def test_p2_constant_is_12_sqrt6(self):
        # m = 3, (3!)^((2-1)/(3-1)) = sqrt(6), 3 * 2^2 = 12
        assert g_norm_bound(1.0, 1.0, 2.0) == pytest.approx(
            12.0 * np.sqrt(6.0), rel=1e-15)

    def test_scaling_in_gamma_and_mass(self):
        assert g_norm_bound(2.0, 3.0, 2.0) == pytest.approx(
            g_norm_bound(1.0, 1.0, 2.0) * 2.0 * 3.0, rel=1e-15)

    def test_p3_uses_m4(self):
        # m = 4, exponent (3-1)/(4-1) = 2/3
        assert g_norm_bound(1.0, 1.0, 3.0) == pytest.approx(
            3.0 * 8.0 * 24.0 ** (2.0 / 3.0), rel=1e-15)


class TestSerialization:
    def test_json_fields(self, z512_system):
        space, system = z512_system
        rng = RNG(1)
        f = rng.standard_normal(space.n)
        res = gundy_decompose(sample(space, f), system,
                              np.abs(f).mean() * 1.5)
        blob = res.to_json()
        assert blob["b_bound"] == 2.0 * res.f_l1
        assert blob["xi_bound"] == 4.0 * res.f_l1
        assert blob["bounds_ok"] is True
        assert len(blob["stopping_cubes"]) == len(res.stopping)
        for row, stop in zip(blob["stopping_cubes"], res.stopping):
            assert row["level"] == stop.level
            assert row["cube"] == stop.cube
        import json

        json.dumps(blob)  # must be serializable as-is


class TestVitali:
    def test_identical_balls_keep_one(self):
        space, _ = build_group_space("zd", d=1, modulus=64)
        balls = [(3, 5.0)] * 7
        kept = vitali_select(space, balls)
        assert kept == [0]
        assert vitali_dilate_check(space, balls, kept)

    def test_disjoint_family_kept_whole(self):
        space, _ = build_group_space("zd", d=1, modulus=64)
        balls = [(0, 2.0), (10, 2.0), (20, 2.0), (30, 2.0)]
        centers = [space.index_of([v]) for v in (0, 10, 20, 30)]
        balls = [(c, 2.0) for c in centers]
        kept = vitali_select(space, balls)
        assert kept == [0, 1, 2, 3]
        assert vitali_dilate_check(space, balls, kept)

    def test_greedy_prefers_larger_radius(self):
        space, _ = build_group_space("zd", d=1, modulus=64)
        small = (space.index_of([0]), 1.0)
        big = (space.index_of([1]), 4.0)  # overlaps the small ball
        kept = vitali_select(space, [small, big])
        assert kept == [1]

    def test_radius_tie_prefers_first(self):
        space, _ = build_group_space("zd", d=1, modulus=64)
        a = (space.index_of([0]), 2.0)
        b = (space.index_of([1]), 2.0)
        assert vitali_select(space, [a, b]) == [0]
        assert vitali_select(space, [b, a]) == [0]

    def test_invalid_inputs(self):
        space, _ = build_group_space("zd", d=1, modulus=64)
        with pytest.raises(ValueError, match="radii must be positive"):
            vitali_select(space, [(0, 0.0)])
        with pytest.raises(ValueError, match="center outside"):
            vitali_select(space, [(64, 1.0)])

    def test_random_family_on_square_torus(self):
        space, _ = build_group_space("zd", d=2, modulus=256)
        rng = RNG(17)
        balls = [(int(rng.integers(space.n)), float(rng.uniform(1.0, 20.0)))
                 for _ in range(100)]
        kept = vitali_select(space, balls)
        # kept balls pairwise disjoint, checked directly
        masks = [space.dist_row(balls[i][0]) <= balls[i][1] for i in kept]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert not np.any(masks[i] & masks[j])
        # every input ball meets a kept ball of at least its radius
        for center, radius in balls:
            mask = space.dist_row(center) <= radius
            assert any(np.any(mask & masks[k]) and balls[kept[k]][1] >= radius
                       for k in range(len(kept)))
        # exhaustive containment in the 3-dilates
        assert vitali_dilate_check(space, balls, kept)
