import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab.cubes import HKParams, build_cubes
from ergolab.martingale import (
    SampleFunction,
    differences,
    dyadic_maximal,
    expectation,
    expectation_block,
    expectation_exact,
    martingale_jump_probe,
    maximal_block,
    sharp_maximal_bmo,
    tower_check,
    weighted_norm,
)
from ergolab.space import MatrixSpace, build_group_space, random_square_space


@pytest.fixture(scope="module")
def z64_system():
    space, _ = build_group_space(family="zd", d=1, modulus=64)
    return build_cubes(space, HKParams())


@pytest.fixture(scope="module")
def pair_system():
    # two points half a unit apart: the finest level cannot separate them
    d = np.array([[0.0, 0.5], [0.5, 0.0]])
    space = MatrixSpace(d, r0=0.25, label="pair")
    return build_cubes(space, HKParams())


def rand_f(system, seed):
    rng = np.random.default_rng(seed)
    return SampleFunction(system.space.label,
                          rng.standard_normal(system.space.n))


class TestSampleFunction:
    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            SampleFunction("x", np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="one-dimensional"):
            SampleFunction("x", np.zeros((2, 2)))


class TestExpectation:
    def test_constant_fixed(self, z64_system):
        f = SampleFunction("z", np.full(64, 2.75))
        for k in z64_system.levels:
            out = expectation(f, z64_system, k)
            assert out.values == pytest.approx([2.75] * 64, abs=1e-12)

    def test_plain_average(self, pair_system):
        f = SampleFunction("pair", np.array([0.0, 2.0]))
        k = pair_system.levels[0]
        out = expectation(f, pair_system, k)
        assert list(out.values) == [1.0, 1.0]

    def test_integral_preserved(self, z64_system):
        f = rand_f(z64_system, 3)
        w = z64_system.space.weights
        for k in z64_system.levels:
            out = expectation(f, z64_system, k)
            assert (w * out.values).sum() == pytest.approx(
                (w * f.values).sum(), rel=1e-12)

    def test_unknown_level(self, z64_system):
        with pytest.raises(ValueError, match="level"):
            expectation(rand_f(z64_system, 0), z64_system, 99)

    def test_length_mismatch(self, z64_system):
        with pytest.raises(ValueError, match="values"):
            expectation(SampleFunction("z", np.zeros(5)), z64_system, 0)

    def test_idempotent_and_self_adjoint(self, z64_system):
        f, g = rand_f(z64_system, 1), rand_f(z64_system, 2)
        w = z64_system.space.weights
        for k in z64_system.levels:
            ef = expectation(f, z64_system, k).values
            eef = expectation(SampleFunction("z", ef), z64_system, k).values
            assert np.abs(eef - ef).max() < 1e-10
            eg = expectation(g, z64_system, k).values
            lhs = (w * ef * g.values).sum()
            rhs = (w * f.values * eg).sum()
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_contraction(self, z64_system, p):
        w = z64_system.space.weights
        for seed in range(5):
            f = rand_f(z64_system, seed)
            for k in z64_system.levels:
                ef = expectation(f, z64_system, k).values
                assert weighted_norm(ef, w, p) <= weighted_norm(f.values, w, p) + 1e-12


class TestTower:
    def test_exact_on_z64(self, z64_system):
        for seed in range(3):
            f = rand_f(z64_system, seed)
            for j in z64_system.levels:
                for k in z64_system.levels:
                    assert tower_check(f, z64_system, j, k)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(4, 24), seed=st.integers(0, 2**16))
    def test_exact_on_random_spaces(self, n, seed):
        space = random_square_space(n, 40, seed)
        system = build_cubes(space, HKParams())
        rng = np.random.default_rng(seed + 1)
        f = SampleFunction(space.label, rng.standard_normal(n))
        j, k = system.levels[0], system.levels[-1]
        assert tower_check(f, system, j, k)
        assert tower_check(f, system, k, j)

    def test_exact_path_matches_float(self, z64_system):
        f = rand_f(z64_system, 5)
        exact = expectation_exact(list(f.values), z64_system, 1)
        fast = expectation(f, z64_system, 1).values
        assert np.abs(np.array([float(v) for v in exact]) - fast).max() < 1e-12


class TestDifferences:
    def test_constant_all_zero(self, z64_system):
        f = SampleFunction("z", np.full(64, -1.25))
        parts = differences(f, z64_system)
        for d in parts.diffs:
            assert np.abs(d.values).max() == 0.0

    def test_coarse_function_has_zero_fine_diffs(self, z64_system):
        k_max = z64_system.levels[-1]
        f = rand_f(z64_system, 9)
        coarse = expectation(f, z64_system, k_max)
        parts = differences(coarse, z64_system)
        for d in parts.diffs:
            assert np.abs(d.values).max() < 1e-12

    def test_reconstruction_when_separating(self, z64_system):
        f = rand_f(z64_system, 11)
        parts = differences(f, z64_system)
        assert parts.point_separating
        assert np.abs(parts.reconstruct() - f.values).max() < 1e-12

    def test_parseval(self, z64_system):
        w = z64_system.space.weights
        for seed in range(5):
            f = rand_f(z64_system, seed)
            parts = differences(f, z64_system)
            lhs = weighted_norm(f.values, w, 2) ** 2
            rhs = weighted_norm(parts.remainder.values, w, 2) ** 2 + sum(
                weighted_norm(d.values, w, 2) ** 2 for d in parts.diffs)
            assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_non_separating_flagged(self, pair_system):
        assert len(pair_system.centers[0]) < pair_system.space.n
        f = SampleFunction("pair", np.array([0.0, 2.0]))
        parts = differences(f, pair_system)
        assert not parts.point_separating
        finest = expectation(f, pair_system, pair_system.levels[0]).values
        assert parts.reconstruct() == pytest.approx(finest, abs=1e-12)

    def test_single_level_rejected(self):
        space, _ = build_group_space(family="zd", d=1, modulus=16)
        system = build_cubes(space, HKParams(k_min=0, k_max=0))
        with pytest.raises(ValueError, match="two levels"):
            differences(rand_f(system, 0), system)


class TestDyadicMaximal:
    def test_constant(self, z64_system):
        f = SampleFunction("z", np.full(64, 1.5))
        out = dyadic_maximal(f, z64_system)
        assert out.values == pytest.approx([1.5] * 64, abs=1e-12)

    def test_point_mass(self, z64_system):
        values = np.zeros(64)
        values[17] = -5.0
        out = dyadic_maximal(SampleFunction("z", values), z64_system)
        # the finest level separates, so the sup at the mass point is |f|
        assert out.values[17] == 5.0

    def test_dominates_finest_average(self, z64_system):
        f = rand_f(z64_system, 21)
        out = dyadic_maximal(f, z64_system)
        finest = expectation(SampleFunction("z", np.abs(f.values)),
                             z64_system, z64_system.levels[0]).values
        assert np.all(out.values >= finest - 1e-12)

    def test_block_columns_are_one_column_calls(self, z64_system):
        block = np.random.default_rng(22).standard_normal((64, 3))
        best = maximal_block(block, z64_system)
        for t in range(3):
            f = SampleFunction("z", block[:, t].copy())
            assert best[:, t].tobytes() == (
                dyadic_maximal(f, z64_system).values.tobytes())
            for k in z64_system.levels:
                one = expectation(f, z64_system, k).values
                got = expectation_block(block, z64_system, k)[:, t]
                assert got.tobytes() == one.tobytes()

    def test_weak_11_probe(self, z64_system):
        w = z64_system.space.weights
        for seed in range(10):
            f = rand_f(z64_system, seed)
            md = dyadic_maximal(f, z64_system).values
            l1 = weighted_norm(f.values, w, 1)
            for gamma in (0.05, 0.2, 0.5, 1.0, 2.0):
                mass = w[md > gamma].sum()
                assert gamma * mass <= l1 + 1e-12


class TestSharpMaximal:
    def test_constant_bmo_zero(self, z64_system):
        f = SampleFunction("z", np.full(64, 7.0))
        _, bmo = sharp_maximal_bmo(f, z64_system)
        assert bmo == 0.0

    def test_two_point_median(self, pair_system):
        f = SampleFunction("pair", np.array([0.0, 1.0]))
        sharp, bmo = sharp_maximal_bmo(f, pair_system)
        assert bmo == pytest.approx(0.5)
        assert sharp.values == pytest.approx([0.5, 0.5])

    def test_median_beats_any_constant(self, z64_system):
        # the L1 objective is convex piecewise-linear with vertices at the
        # data, so scanning the data values recovers the exact infimum
        f = rand_f(z64_system, 31)
        w = z64_system.space.weights
        for li, k in enumerate(z64_system.levels):
            a = z64_system.assign[li]
            measures = z64_system.cube_measures(k)
            for cube in range(min(len(z64_system.centers[li]), 8)):
                mask = a == cube
                vals, ws = f.values[mask], w[mask]
                brute = min(
                    (ws * np.abs(vals - c)).sum() / measures[cube]
                    for c in vals)
                sharp, _ = sharp_maximal_bmo(f, z64_system)
                member = np.nonzero(mask)[0][0]
                assert sharp.values[member] >= brute - 1e-9

    def test_oscillation_matches_grid_oracle(self, z64_system):
        f = rand_f(z64_system, 13)
        w = z64_system.space.weights
        li = z64_system.level_index(1)
        a = z64_system.assign[li]
        mask = a == 0
        vals, ws = f.values[mask], w[mask]
        total = ws.sum()
        exact = min((ws * np.abs(vals - c)).sum() / total for c in vals)
        from ergolab.martingale import _weighted_median
        med = _weighted_median(vals, ws)
        ours = (ws * np.abs(vals - med)).sum() / total
        assert ours == pytest.approx(exact, abs=1e-9)


class TestJumpProbe:
    def test_bounded_and_stable_under_refinement(self):
        results = {}
        for mod in (64, 512):
            space, _ = build_group_space(family="zd", d=1, modulus=mod)
            system = build_cubes(space, HKParams())
            results[mod] = martingale_jump_probe(system, trials=200, seed=7)
        assert results[64]["trials"] == 200
        # measured: 0.68 and 0.62; no blow-up as the space refines
        assert results[64]["max_ratio"] < 1.0
        assert results[512]["max_ratio"] < 1.0
        assert results[512]["max_ratio"] < 1.5 * results[64]["max_ratio"]


class TestWeightedNorm:
    def test_sup_norm(self):
        assert weighted_norm(np.array([-3.0, 2.0]), np.ones(2), np.inf) == 3.0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            weighted_norm(np.ones(2), np.ones(2), 0)

    def test_empty(self):
        assert weighted_norm(np.array([]), np.array([]), np.inf) == 0.0

    def test_powers_past_the_float_range(self):
        # 3^1000 overflows and 0.1^1000 underflows; both norms scale by
        # the largest value, which the plain sum would read as inf and 0
        w = np.array([0.25, 0.75])
        for values in ([3.0, -1.0], [0.1, 0.0]):
            top = values[0]
            assert weighted_norm(np.array(values), w, 1000) == pytest.approx(
                top * 0.25 ** 0.001, rel=1e-12)

    def test_plain_sum_where_it_is_finite(self):
        values = np.random.default_rng(0).standard_normal(64)
        w = np.full(64, 1 / 64)
        assert weighted_norm(values, w, 2) == float(
            (w * np.abs(values) ** 2).sum() ** 0.5)
