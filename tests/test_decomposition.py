"""Tests for the height decomposition."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.cubes import HKParams, build_cubes
from ergolab.decomposition import (
    GundyError,
    g_norm_bound,
    gundy_decompose,
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

    @pytest.mark.parametrize("gamma, mass", [(1.0, 1.0), (0.8426, 0.7660),
                                             (3.7, 1e-3)])
    def test_p2_is_the_direct_product(self, gamma, mass):
        assert g_norm_bound(gamma, mass, 2.0) == (
            3.0 * 2.0**2.0 * math.factorial(3) ** 0.5 * gamma * mass)

    def test_partial_product_past_the_float_range_is_taken_in_logs(self):
        # 3*2^150*(151!)^(149/150) alone is past the float range, but
        # gamma^149 brings the bound back into it
        bound = g_norm_bound(0.8426, 0.7660, 150.0)
        assert math.isfinite(bound)
        assert bound == pytest.approx(4.009e297, rel=1e-4)
        log = (math.log(3.0) + 150 * math.log(2.0)
               + 149 / 150 * math.lgamma(152.0) + 149 * math.log(0.8426)
               + math.log(0.7660))
        assert math.log(bound) == pytest.approx(log, rel=1e-12)

    @pytest.mark.parametrize("p", [150.0, 200.0])
    def test_bound_past_the_float_range_is_no_pass(self, z8_system, p):
        # 201! alone, and at p = 150 the product, is past the float range
        assert g_norm_bound(2.0, 1.0, p) == np.inf
        space, system = z8_system
        values = np.array([5.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        res = gundy_decompose(sample(space, values), system, 2.0, p=p)
        assert res.g_bound == np.inf
        assert res.g_p_power < np.inf
        assert not res.bounds_ok


# ---------------------------------------------------------------------------
# the cube-by-cube reference for the level-by-level decomposition
# ---------------------------------------------------------------------------

def reference_gundy(values, system, gamma, p=2.0):
    """The decomposition scanned one stopping cube at a time, each part
    expanded onto its support: the stopping tuple, the part tuples as
    (level, cube, support, values, integral, l1), g and the scalars."""
    from ergolab.decomposition import StoppingCube

    space = system.space
    w = space.weights
    abs_avgs = [system.cube_averages(k, np.abs(values)) for k in system.levels]
    mean_avgs = [system.cube_averages(k, values) for k in system.levels]
    measures = [system.cube_measures(k) for k in system.levels]
    top = len(system.levels) - 1
    assert not np.any(abs_avgs[top] > gamma)

    covered = np.zeros(space.n, dtype=bool)
    stopping, b_parts, xi_parts = [], [], []
    base = np.array(values, dtype=float)
    lump = np.zeros(space.n)
    for li in range(top - 1, -1, -1):
        k = system.levels[li]
        for cube in np.nonzero(abs_avgs[li] > gamma)[0]:
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
            b_parts.append((k, int(cube), members, bv,
                            float((w[members] * bv).sum()),
                            weighted_norm(bv, w[members], 1)))
            ratio = mq / mp
            xv = np.full(len(pmembers), -(mean - pmean) * ratio)
            xv[np.searchsorted(pmembers, members)] += mean - pmean
            xi_parts.append((k, int(cube), pmembers, xv,
                             float((w[pmembers] * xv).sum()),
                             weighted_norm(xv, w[pmembers], 1)))
            base[members] = pmean
            lump[pmembers] += (mean - pmean) * ratio

    g = base + lump
    f_l1 = weighted_norm(values, w, 1)
    recon = g.copy()
    for part in b_parts + xi_parts:
        recon[part[2]] += part[3]
    gap = float(np.abs(recon - values).max())
    return {
        "stopping": tuple(stopping), "b_parts": b_parts, "xi_parts": xi_parts,
        "g": g, "f_l1": f_l1,
        "reconstruction_gap": gap / f_l1 if f_l1 > 0 else gap,
        "b_l1": float(sum(part[5] for part in b_parts)),
        "xi_l1": float(sum(part[5] for part in xi_parts)),
        "g_p_power": float((w * np.abs(g) ** p).sum()),
        "g_bound": g_norm_bound(gamma, f_l1, p),
        "max_part_integral": max(
            [abs(part[4]) for part in b_parts + xi_parts], default=0.0),
    }


def _oracle_spaces():
    from ergolab.space import MatrixSpace

    d = np.abs(np.subtract.outer(np.arange(6), np.arange(6))).astype(float)
    weighted = MatrixSpace(d, r0=1.0, weights=np.array(
        [1.0, 2.0, 0.5, 1.5, 1.0, 3.0]), label="w6")
    return {
        "Z/512": build_group_space("zd", d=1, modulus=512)[0],
        "Z^2/16": build_group_space("zd", d=2, modulus=16)[0],
        "H3/8": build_group_space("h3", modulus=8)[0],
        "H3 R=6": build_group_space("h3", radius=6)[0],
        "w6": weighted,
    }


class TestLevelScanMatchesCubeScan:
    """The level-by-level decomposition against the cube-by-cube reference:
    the same stopping cubes in the same order, the same part supports and
    bitwise equal part values (both use the same arithmetic), and the
    scalars to 1e-12.  The reconstruction gap and the part integrals are
    rounding residues, so both sides must be below 1e-12 rather than close
    to each other."""

    @pytest.mark.parametrize("name", ["Z/512", "Z^2/16", "H3/8", "H3 R=6",
                                      "w6"])
    def test_against_reference(self, name):
        space = _oracle_spaces()[name]
        system = build_cubes(space, HKParams())
        w = space.weights
        rng = RNG(23)
        stop_levels = set()
        for trial in range(8):
            if trial % 2:
                f = np.zeros(space.n)
                spots = rng.choice(space.n, size=min(5, space.n), replace=False)
                f[spots] = rng.uniform(-40.0, 40.0, size=spots.size)
            else:
                f = rng.standard_normal(space.n)
            mean_abs = (w * np.abs(f)).sum() / w.sum()
            for factor in (1.1, 1.5, 3.0):
                res = gundy_decompose(sample(space, f), system,
                                      mean_abs * factor)
                ref = reference_gundy(f, system, mean_abs * factor)
                assert res.stopping == ref["stopping"]
                stop_levels |= {s.level for s in res.stopping}
                for got, want in ((res.b_parts, ref["b_parts"]),
                                  (res.xi_parts, ref["xi_parts"])):
                    assert len(got) == len(want)
                    for part, (level, cube, support, vals, integral, l1) in zip(
                            got, want):
                        assert (part.level, part.cube) == (level, cube)
                        assert np.array_equal(part.support, support)
                        assert part.values.dtype == vals.dtype
                        assert np.array_equal(part.values, vals)
                        assert part.integral == pytest.approx(
                            integral, rel=1e-12, abs=1e-12 * ref["f_l1"])
                        assert part.l1 == pytest.approx(l1, rel=1e-12,
                                                        abs=1e-300)
                assert np.allclose(res.g.values, ref["g"], rtol=1e-12,
                                   atol=1e-12 * ref["f_l1"])
                for key in ("f_l1", "b_l1", "xi_l1", "g_p_power", "g_bound"):
                    assert getattr(res, key) == pytest.approx(
                        ref[key], rel=1e-12, abs=1e-300), key
                for key in ("reconstruction_gap", "max_part_integral"):
                    scale = 1.0 if key == "reconstruction_gap" else ref["f_l1"]
                    assert ref[key] <= 1e-12 * scale
                    assert getattr(res, key) <= 1e-12 * scale
                counts = res.stop_counts
                assert sum(counts.values()) == len(res.stopping)
                for level, count in counts.items():
                    assert count == sum(s.level == level for s in res.stopping)
        assert stop_levels
        if name == "Z/512":
            # the 14 level-1 cubes stop too, which blocks their descendants
            assert len(stop_levels) >= 2

    def test_stop_blocks_through_a_level_that_does_not_stop(self):
        # Z/2048 at delta 19 has levels 0..4 with 2048, 107, 5, 1, 1 cubes.
        # A hot level-2 cube C has a cool child B2 holding one hot point x:
        # the stop at C must block x through B2, which does not stop.
        space, _ = build_group_space("zd", d=1, modulus=2048)
        system = build_cubes(space, HKParams(delta=19.0, C0=1.05))
        assert system.levels == (0, 1, 2, 3, 4)
        cube = int(system.assign[2][0])
        children = np.flatnonzero(system.parents[1] == cube)
        b1, b2 = (system.members(1, c) for c in children[:2])
        size_c = len(system.members(2, cube))
        f = np.zeros(space.n)
        f[b2[0]] = 0.9 * len(b2)                # b2 averages 0.9, x is hot
        f[b1] = (2.0 * size_c - f[b2[0]]) / len(b1)   # C averages 2
        res = gundy_decompose(sample(space, f), system, 1.0)
        assert res.stop_counts == {0: 0, 1: 0, 2: 1, 3: 0}
        assert res.stopping[0][:2] == (2, cube)
        assert res.stopping == reference_gundy(f, system, 1.0)["stopping"]

    def test_parts_built_once_on_demand(self, z512_system):
        space, system = z512_system
        f = RNG(4).standard_normal(space.n)
        res = gundy_decompose(sample(space, f), system, np.abs(f).mean() * 1.5)
        assert "b_parts" not in vars(res) and "xi_parts" not in vars(res)
        assert res.b_parts is res.b_parts
        assert res.xi_parts is res.xi_parts
        assert res.stopping is res.stopping


class TestNesting:
    def test_cube_outside_its_parent_refused(self, z512_system):
        import dataclasses

        space, system = z512_system
        assign = list(system.assign)
        moved = assign[1].copy()
        moved[0] = (moved[0] + 1) % system.n_cubes(system.levels[1])
        assign[1] = moved
        broken = dataclasses.replace(system, assign=tuple(assign))
        f = sample(space, RNG(2).standard_normal(space.n))
        with pytest.raises(GundyError, match=r"level 0 does not nest in level "
                                             r"1: assign\[1\] != parents\[0\]"):
            gundy_decompose(f, broken, 2.0)
