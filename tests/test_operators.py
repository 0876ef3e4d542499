import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab import dynamics, operators
from ergolab.cubes import HKParams, build_cubes
from ergolab.martingale import SampleFunction, expectation, weighted_norm
from ergolab.operators import (
    OperatorConfig,
    SpotCheckError,
    _ENSEMBLES,
    _draw,
    avg_profile,
    domination_check,
    domination_checks,
    fit_doubling_constant,
    norm_probe,
    short_variation,
    square_function,
)
from ergolab.space import MatrixSpace, build_group_space, random_square_space
from ergolab.stats import jump_count_batch, variation_batch


@pytest.fixture(scope="module")
def z512():
    space, _ = build_group_space(family="zd", d=1, modulus=512)
    return space


@pytest.fixture(scope="module")
def z512_system(z512):
    return build_cubes(z512, HKParams())


@pytest.fixture(scope="module")
def z512_config(z512):
    return OperatorConfig.for_space(z512)


@pytest.fixture(scope="module")
def z64():
    space, _ = build_group_space(family="zd", d=1, modulus=64)
    return space


def rand_f(space, seed):
    rng = np.random.default_rng(seed)
    return SampleFunction(space.label, rng.standard_normal(space.n))


# delta -> admissible (c0, C0): an integer delta and one between integers
DELTAS = {36.0: (1.0, 2.0), 20.5: (1.0, 1.1)}


@pytest.fixture(scope="module")
def z4096():
    space, _ = build_group_space(family="zd", d=1, modulus=4096)
    return space


class TestOperatorConfig:
    @pytest.mark.parametrize("delta", sorted(DELTAS))
    def test_default_blocks_on_z512(self, z512, delta):
        cfg = OperatorConfig.for_space(z512, delta=delta)
        assert cfg.n_r0 == -1
        ns = [b.n for b in cfg.blocks]
        assert ns == [-1, 0, 1]
        # anchors head their blocks, whether delta is an integer or not,
        # and the integers above the anchor follow it
        assert [b.radii[0] for b in cfg.blocks] == [
            cfg.anchor(n) for n in ns]
        assert cfg.blocks[1].radii[0] == 1.0
        assert cfg.blocks[2].radii[0] == delta
        assert all(r == math.floor(r) > b.radii[0]
                   for b in cfg.blocks for r in b.radii[1:])
        # last block is capped by the diameter (256), not delta^2
        assert cfg.blocks[2].radii[-1] <= 256.0

    @given(r0=st.floats(0.05, 100.0), delta=st.sampled_from([2.0, 10.0, 36.0]))
    def test_n_r0_defining_inequality(self, r0, delta):
        space = MatrixSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), r0=r0,
                            label="pair")
        cfg = OperatorConfig.for_space(space, delta=delta)
        assert delta**cfg.n_r0 < r0 <= delta ** (cfg.n_r0 + 1)

    def test_grids_strictly_increasing(self, z512_config):
        grid = z512_config.union_grid()
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("delta", sorted(DELTAS))
    def test_block_cap(self, z512, delta):
        cfg = OperatorConfig.for_space(z512, delta=delta, block_cap=8)
        assert all(len(b.radii) <= 8 for b in cfg.blocks)
        assert any("subsampled" in note for note in cfg.notes)
        # the anchor survives subsampling
        assert cfg.blocks[2].radii[0] == delta

    def test_validation(self, z512):
        with pytest.raises(ValueError):
            OperatorConfig.for_space(z512, delta=1.0)
        with pytest.raises(ValueError):
            OperatorConfig.for_space(z512, block_cap=1)

    def test_eligible_levels(self, z512_system, z512_config):
        assert z512_config.eligible_levels(z512_system) == [0, 1]

    def test_eligible_levels_missing(self, z512, z512_config):
        stunted = build_cubes(z512, HKParams(k_min=0, k_max=0))
        with pytest.raises(ValueError, match="lacks levels"):
            z512_config.eligible_levels(stunted)


class TestAvgProfile:
    def test_matches_direct_means(self):
        space, _ = build_group_space(family="zd", d=1, modulus=8)
        vals = np.arange(8, dtype=float) ** 2
        prof = avg_profile(vals, space, [1.0, 2.0, 3.0])
        for ri, r in enumerate([1.0, 2.0, 3.0]):
            direct = np.array([vals[space.dist_row(x) <= r].mean()
                               for x in range(8)])
            assert np.abs(prof[ri] - direct).max() < 1e-13

    def test_fastpath_agrees_with_generic(self):
        space, _ = build_group_space(family="zd", d=1, modulus=16)
        matrix = np.stack([space.dist_row(x) for x in range(16)])
        generic_space = MatrixSpace(matrix, label="z16-matrix")
        vals = np.random.default_rng(2).standard_normal(16)
        radii = [1.0, 2.0, 5.0, 8.0]
        a = avg_profile(vals, space, radii)
        b = avg_profile(vals, generic_space, radii)
        assert np.abs(a - b).max() < 1e-12

    def test_small_radius_reproduces_f(self, z512):
        f = rand_f(z512, 1)
        prof = avg_profile(f.values, z512, [0.5])
        assert np.array_equal(prof[0], f.values)

    def test_radius_beyond_diameter_is_global_mean(self, z512):
        f = rand_f(z512, 2)
        prof = avg_profile(f.values, z512, [10_000.0])
        mean = (z512.weights * f.values).sum() / z512.weights.sum()
        assert prof[0] == pytest.approx([mean] * z512.n, rel=1e-12)

    def test_constant_preserved(self, z512):
        prof = avg_profile(np.full(512, 3.25), z512, [1.0, 36.0, 100.0])
        assert np.abs(prof - 3.25).max() < 1e-12

    def test_sup_norm_contraction(self, z512):
        f = rand_f(z512, 3)
        prof = avg_profile(f.values, z512, [7.0])
        assert np.abs(prof).max() <= np.abs(f.values).max() + 1e-12

    def test_linear(self, z512):
        f, g = rand_f(z512, 5), rand_f(z512, 6)
        lhs = avg_profile(2.0 * f.values - 3.0 * g.values, z512, [9.0])
        rhs = (2.0 * avg_profile(f.values, z512, [9.0])
               - 3.0 * avg_profile(g.values, z512, [9.0]))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_unsorted_radii_rejected(self, z512):
        with pytest.raises(ValueError, match="increasing"):
            avg_profile(np.zeros(512), z512, [2.0, 1.0])

    def test_wrong_length_rejected(self, z512):
        with pytest.raises(ValueError, match="one entry per point"):
            avg_profile(np.zeros(5), z512, [1.0])

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(5, 30), seed=st.integers(0, 2**16))
    def test_generic_path_matches_masks(self, n, seed):
        space = random_square_space(n, 32, seed)
        rng = np.random.default_rng(seed + 9)
        vals = rng.standard_normal(n)
        w = space.weights
        r = float(rng.integers(1, 20))
        prof = avg_profile(vals, space, [r])
        for x in range(n):
            mask = space.dist_row(x) <= r
            direct = (w[mask] * vals[mask]).sum() / w[mask].sum()
            assert prof[0, x] == pytest.approx(direct, rel=1e-12)


def _weighted_matrix_space():
    space, _ = build_group_space(family="zd", d=1, modulus=24)
    matrix = np.stack([space.dist_row(x) for x in range(space.n)])
    w = np.random.default_rng(4).uniform(0.5, 2.0, space.n)
    return MatrixSpace(matrix, weights=w, label="z24-weighted-matrix")


BATCH_SPACES = {
    "z64": lambda: build_group_space("zd", d=1, modulus=64)[0],
    "z2_8": lambda: build_group_space("zd", d=2, modulus=8)[0],
    "h3_4": lambda: build_group_space("h3", modulus=4)[0],
    "z64_weighted": lambda: build_group_space(
        "zd", d=1, modulus=64,
        weights=np.random.default_rng(3).uniform(0.5, 2.0, 64))[0],
    "matrix_weighted": _weighted_matrix_space,
}


def _sorted_row_profile(block, space, radii):
    """Ball averages from one stably sorted full distance row per point and
    running sums over it: the reference for the direct ball-sum engine."""
    w = space.weights
    wv = w[:, None] * block
    out = np.empty((len(radii), space.n, block.shape[1]))
    for x in range(space.n):
        row = space.dist_row(x)
        order = np.argsort(row, kind="stable")
        pos = np.searchsorted(row[order], radii, side="right") - 1
        cw = np.cumsum(w[order])
        out[:, x] = np.cumsum(wv[order], axis=0)[pos] / cw[pos][:, None]
    return out


def _weighted_square_space():
    square = random_square_space(60, 40, 9)
    w = np.random.default_rng(10).uniform(0.5, 2.0, square.n)
    return MatrixSpace(square.dist_matrix(), weights=w, label="square-weighted")


ROW_SPACES = {
    "h3_ball_6": lambda: build_group_space("h3", radius=6)[0],
    "square_60": lambda: random_square_space(60, 40, 9),
    "square_60_weighted": _weighted_square_space,
}


class TestRowProfile:
    """Spaces that are not quotients average by direct sums over the balls
    of `ball_chunks`, bitwise equal to stably sorted full distance rows."""

    @pytest.mark.parametrize("name", sorted(ROW_SPACES))
    def test_matches_sorted_distance_rows(self, name):
        space = ROW_SPACES[name]()
        rng = np.random.default_rng(11)
        block = np.column_stack([rng.standard_normal(space.n),
                                 rng.integers(-3, 4, space.n).astype(float)])
        diam = space.diameter()
        # the short grid takes the breadth-first search on the truncation,
        # the long one its thresholded rows
        for radii in ([0.0, 1.0, 2.0],
                      sorted({0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, diam - 1.0,
                              diam, diam + 3.0})):
            want = _sorted_row_profile(block, space, np.array(radii))
            got = avg_profile(block, space, radii)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(ROW_SPACES))
    def test_points_are_rows_of_the_full_profile(self, name):
        space = ROW_SPACES[name]()
        block = np.random.default_rng(12).standard_normal((space.n, 3))
        radii = np.array([-2.0, 0.0, 1.0, 2.5, 4.0, space.diameter()])
        points = np.array([space.n - 1, 0, 7, 7, space.n // 2])
        full = operators._row_profile(block, space, radii)
        some = operators._row_profile(block, space, radii, points)
        assert some.tobytes() == full[:, points].tobytes()


class TestBatchedSweep:
    @pytest.mark.parametrize("name", sorted(BATCH_SPACES))
    def test_columns_equal_one_dimensional_calls(self, name):
        space = BATCH_SPACES[name]()
        rng = np.random.default_rng(8)
        block = rng.standard_normal((space.n, 5))
        block[:, 2] = 1.5                     # a constant column
        radii = [0.5, 1.0, 2.0, 3.0, 5.0, 100.0]
        prof = avg_profile(block, space, radii)
        assert prof.shape == (len(radii), space.n, 5)
        for t in range(5):
            one = avg_profile(block[:, t].copy(), space, radii)
            assert np.array_equal(prof[:, :, t], one)

    @pytest.mark.parametrize("name", ["z64", "matrix_weighted"])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_empty_radii(self, name, columns):
        space = BATCH_SPACES[name]()
        shape = (space.n,) if columns is None else (space.n, columns)
        assert avg_profile(np.ones(shape), space, []).shape == (0,) + shape

    def test_three_dimensional_values_rejected(self, z64):
        with pytest.raises(ValueError, match="one entry per point"):
            avg_profile(np.zeros((64, 2, 2)), z64, [1.0])

    def test_empty_block_rejected(self, z64):
        with pytest.raises(ValueError, match="at least one column"):
            avg_profile(np.zeros((64, 0)), z64, [1.0])


class TestSweepChunks:
    """`sweep_chunks` yields the profile in chunks of consecutive radii:
    whatever the chunk length, the chunks are bitwise the profile's rows,
    and the sweep draws no shell past the one that closes the last
    radius."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 9])
    def test_chunks_match_the_profile(self, weighted, rows):
        w = (np.random.default_rng(7).integers(1, 4, 64).astype(float)
             if weighted else None)
        space, _ = build_group_space("zd", d=1, modulus=64, weights=w)
        block = np.random.default_rng(8).standard_normal((64, 3))
        block[5, 0] = np.nan
        block[:, 2] = 0.7
        radii = [0.5, 1.0, 2.5, 3.0, 7.0]
        profile = operators.sweep_profile(
            block, space.weights,
            operators.group_shells(space, space.right_perm, radii), radii)
        drawn = []

        def shells():
            for s in range(1, int(space.diameter()) + 1):
                drawn.append(s)
                sl = space.shell_slice(s)
                yield s, [space.right_perm(j) for j in range(sl.start, sl.stop)]

        # a chunk lives until the next is drawn: copy each one
        chunks = [c.copy() for c in operators.sweep_chunks(
            block, space.weights, shells(), radii, rows)]
        assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
        got = np.concatenate(chunks)
        assert got.shape == profile.shape
        assert got.tobytes() == profile.tobytes()
        assert np.isnan(got[-1, :, 0]).sum() == 15
        assert drawn == list(range(1, 9))

    def test_shell_chunks_cut_at_the_byte_budget(self, z64, monkeypatch):
        # three radii of two 64-state columns per chunk of the dynamics sweep
        monkeypatch.setattr(operators, "_SWEEP_BYTES", 16 * 64 * 3 + 5)
        f = np.random.default_rng(9).standard_normal((64, 2))
        radii = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        system = dynamics.regular_system(z64)
        profile = dynamics.action_profile(system, f, radii)
        for column in (f[:, 0], f):
            chunks = [c.copy() for c in dynamics._action_chunks(
                system, column, radii)]
            assert [len(c) for c in chunks] == [3, 3, 1]
            assert np.array_equal(np.concatenate(chunks),
                                  profile[..., 0] if column.ndim == 1
                                  else profile)

    def test_no_radii(self, z64):
        out = operators.sweep_profile(
            np.ones((64, 2)), z64.weights,
            operators.group_shells(z64, z64.right_perm, []), [])
        assert out.shape == (0, 64, 2)

    def test_group_sweep_holds_one_translation_at_a_time(self):
        # a whole sphere of translations of H3/16 held at once peaks near
        # 47 MiB; one at a time, the (16, 4096) profile dominates
        space, _ = build_group_space("h3", modulus=16)
        f = np.random.default_rng(3).standard_normal(space.n)
        radii = [float(r) for r in range(1, 17)]
        tracemalloc.start()
        try:
            avg_profile(f, space, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


FFT_SPACES = {
    "z64": BATCH_SPACES["z64"],
    "z2_16": lambda: build_group_space("zd", d=2, modulus=16)[0],
    "z3_6": lambda: build_group_space("zd", d=3, modulus=6)[0],
    "z64_weighted": BATCH_SPACES["z64_weighted"],
}


def _ensemble_block(n):
    return np.stack([_draw(e, np.random.default_rng(20 + t), n)
                     for t, e in enumerate(_ENSEMBLES)], axis=1)


class TestFFTEngine:
    """Z^d quotients average by FFT; the shell sweep is the oracle."""

    @pytest.mark.parametrize("name", sorted(FFT_SPACES))
    def test_matches_shell_sweep(self, name):
        space = FFT_SPACES[name]()
        diam = int(space.diameter())
        radii = [0.5] + [float(r) for r in range(1, diam + 1)] + [diam + 1.0]
        block = _ensemble_block(space.n)
        fft = avg_profile(block, space, radii)
        sweep = operators.sweep_profile(
            block, space.weights,
            operators.group_shells(space, space.right_perm, radii), radii)
        weighted = not np.all(space.weights == space.weights[0])
        for t, ensemble in enumerate(_ENSEMBLES):
            if ensemble == "gaussian" or weighted:
                assert np.allclose(fft[..., t], sweep[..., t],
                                   rtol=1e-12, atol=1e-12)
            else:
                assert np.array_equal(fft[..., t], sweep[..., t])

    def test_integer_weights_stay_exact(self):
        w = np.random.default_rng(5).integers(1, 4, 64).astype(float)
        space, _ = build_group_space("zd", d=1, modulus=64, weights=w)
        block = _ensemble_block(64)[:, 1:]
        radii = [0.5, 1.0, 3.0, 17.0, 32.0]
        fft = avg_profile(block, space, radii)
        sweep = operators.sweep_profile(
            block, w, operators.group_shells(space, space.right_perm, radii),
            radii)
        assert np.array_equal(fft, sweep)

    def test_engine_by_family(self, z64, monkeypatch):
        calls = []
        real = operators.sweep_chunks

        def counted(values, *args, **kwargs):
            calls.append(len(values))
            return real(values, *args, **kwargs)

        monkeypatch.setattr(operators, "sweep_chunks", counted)
        avg_profile(np.ones(64), z64, [1.0, 2.0])
        assert calls == []
        h3, _ = build_group_space("h3", modulus=4)
        avg_profile(np.ones(h3.n), h3, [1.0, 2.0])
        assert calls == [h3.n]

    def test_radii_below_one_and_beyond_diameter(self, z64):
        # a negative radius reads the center alone on every engine: FFT,
        # searched truncation balls and matrix distance rows
        for space in (z64, build_group_space("zd", d=1, radius=5)[0],
                      random_square_space(11, 8, 1)):
            f = _ensemble_block(space.n)
            diam = space.diameter()
            prof = avg_profile(f, space, [-1.0, 0.5, diam, diam + 8.0])
            assert np.array_equal(prof[0], f)
            assert np.array_equal(prof[1], f)
            assert np.array_equal(prof[2], prof[3])
            assert np.allclose(prof[3], f.mean(axis=0), rtol=0, atol=1e-15)


def _off_by(delta, point=0, radius_index=-1, column=0):
    """`_fft_chunks` with one averaged entry of every chunk moved by
    ``delta``."""
    real = operators._fft_chunks

    def patched(*args):
        for out in real(*args):
            out[radius_index, point, column] += delta
            yield out

    return patched


class TestSpotCheck:
    def test_clean_runs_pass(self, z512):
        avg_profile(_ensemble_block(512), z512, [0.5, 1.0, 36.0, 256.0])

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_one_entry_off_is_named(self, z512, monkeypatch, column):
        # column 0 is gaussian (tolerance), 1 and 2 are exact: one ulp fails
        block = _ensemble_block(512)
        radii = [1.0, 36.0, 100.0]
        good = avg_profile(block, z512, radii)
        entry = good[1, 0, column]
        delta = (np.spacing(entry) if column else 1e-9 * max(abs(entry), 1.0))
        monkeypatch.setattr(operators, "_fft_chunks",
                            _off_by(delta, radius_index=1, column=column))
        with pytest.raises(SpotCheckError,
                           match=f"point 0, radius 36, column {column}"):
            avg_profile(block, z512, radii)

    def test_within_tolerance_passes(self, z512, monkeypatch):
        block = _ensemble_block(512)[:, :1]      # gaussian
        monkeypatch.setattr(operators, "_fft_chunks", _off_by(1e-14))
        avg_profile(block, z512, [1.0, 36.0])

    @pytest.mark.parametrize("point", [0, 255, 511])
    def test_every_checked_center(self, z512, monkeypatch, point):
        monkeypatch.setattr(operators, "_fft_chunks",
                            _off_by(0.5, point=point))
        with pytest.raises(SpotCheckError, match=f"point {point},"):
            avg_profile(_ensemble_block(512), z512, [2.0, 9.0])

    def test_is_a_runtime_error(self):
        assert issubclass(SpotCheckError, RuntimeError)

    def test_corrupted_later_chunk_is_named(self, z512, monkeypatch):
        # the first chunk is clean; the second is off at a checked center
        real = operators._fft_chunks
        calls = []

        def second_off(*args):
            for out in real(*args):
                calls.append(len(out))
                if len(calls) == 2:
                    out[0, 511, 1] += 1.0
                yield out

        monkeypatch.setattr(operators, "_fft_chunks", second_off)
        chunks = operators._profile_chunks(_ensemble_block(512), z512,
                                           [1.0, 2.0, 9.0, 36.0], [2, 2])
        next(chunks)
        with pytest.raises(SpotCheckError, match="point 511, radius 9, column 1"):
            next(chunks)
        assert calls == [2, 2]

    @pytest.mark.parametrize("modulus", [4, 8])
    def test_sweep_equals_direct_sums_bitwise(self, modulus):
        # translated balls list their members in the order the sweep adds
        # them, so the sweep's spot check needs no tolerance
        space = build_group_space("h3", modulus=modulus)[0]
        rng = np.random.default_rng(modulus)
        block = np.column_stack([rng.integers(-3, 4, space.n).astype(float),
                                 rng.standard_normal(space.n)])
        diam = space.diameter()
        radii = np.array(sorted({-1.0, 0.5, *OperatorConfig.for_space(
            space).union_grid(), diam, diam + 3.0}))
        swept = avg_profile(block, space, radii)
        direct = operators._row_profile(block, space, radii)
        assert swept.tobytes() == direct.tobytes()


@pytest.mark.parametrize("space, gaussian", [
    (build_group_space("h3", modulus=8)[0], True),
    (build_group_space("zd", d=1, modulus=512)[0], False),
    (build_group_space("zd", d=1, modulus=512)[0], True),
], ids=["h3-8-sweep", "z-512-integer", "z-512-gaussian"])
def test_spot_check_sums_abs_f_only_for_tolerance_columns(space, gaussian,
                                                          monkeypatch):
    # the sweep compares every column bit for bit, and the FFT its integer
    # columns: the spot check sums f at its centers once, and |f| only over
    # the columns it compares to a tolerance scale
    calls = []
    real = operators._row_profile
    monkeypatch.setattr(operators, "_row_profile",
                        lambda *a: calls.append(a[0].shape) or real(*a))
    rng = np.random.default_rng(3)
    block = rng.integers(-3, 4, (space.n, 2)).astype(float)
    if gaussian:
        block[:, 1] = rng.standard_normal(space.n)
    avg_profile(block, space, [1.0, 2.0, 5.0])
    tolerance = gaussian and space.group.family == "zd"
    assert calls == [(space.n, 2)] + [(space.n, 1)] * tolerance


def test_fft_engine_sums_its_columns_once(monkeypatch):
    # on a weighted Z^d quotient the summed columns are an (n, T + 1) copy:
    # the FFT engine builds them once for its rounding mask and transform,
    # and the spot check's two passes of direct sums take their own
    w = np.random.default_rng(6).uniform(0.5, 2.0, 256)
    space, _ = build_group_space("zd", d=2, modulus=16, weights=w)
    callers = []
    real = operators._summed_columns

    def recording(block, weights):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(block, weights)

    monkeypatch.setattr(operators, "_summed_columns", recording)
    avg_profile(_ensemble_block(space.n), space, [1.0, 2.0, 5.0])
    assert sorted(callers) == ["_profile_chunks", "_row_profile",
                               "_row_profile"]


@pytest.mark.parametrize("space, engine", [
    (build_group_space("h3", modulus=8)[0], "sweep_chunks"),
    (build_group_space("zd", d=1, modulus=512)[0], "_fft_chunks"),
], ids=["h3-8-sweep", "z-512-fft"])
def test_each_engine_has_its_spot_check_policy(space, engine, monkeypatch):
    # one ulp at a spot center of a gaussian column: the sweep's direct sums
    # add in its own order, so it must match bit for bit; the FFT compares
    # such a column to a tolerance, which one ulp is well within
    real = getattr(operators, engine)

    def one_ulp_off(*args):
        for out in real(*args):
            out[-1, 0, 0] = np.nextafter(out[-1, 0, 0], np.inf)
            yield out

    monkeypatch.setattr(operators, engine, one_ulp_off)
    block = np.random.default_rng(5).standard_normal((space.n, 1))
    radii = [1.0, 2.0, 5.0]
    if engine == "sweep_chunks":
        with pytest.raises(SpotCheckError, match="group sweep ball average "
                           "mismatch at point 0, radius 5, column 0"):
            avg_profile(block, space, radii)
    else:
        avg_profile(block, space, radii)


def _stream_spaces():
    """(space, cube system, operator config) with several nontrivial
    radius blocks on each engine: FFT, shell sweep and distance rows."""
    square = random_square_space(48, 12, 3)
    cases = [(build_group_space("zd", d=1, modulus=512)[0], 6.0),
             (build_group_space("zd", d=2, modulus=16)[0], 3.0),
             (build_group_space("h3", modulus=8)[0], 3.0),
             (square, 3.0)]
    return {space.label: (space, build_cubes(space, HKParams(k_min=0)),
                          OperatorConfig.for_space(space, delta=delta))
            for space, delta in cases}


STREAM_CASES = _stream_spaces()


def _collected(values, space, config):
    """The union-grid profile held whole, as the operators once read it,
    and the block offsets of the grid."""
    rows = avg_profile(values, space, config.union_grid())
    offsets = np.cumsum([0] + [len(b.radii) for b in config.blocks])
    return rows, offsets


class TestBlockStream:
    """The union grid streams one delta-adic block at a time, and every
    operator that reads it gives bitwise the numbers of the collected
    profile."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 5, [3, 1, 4, 2], [10]])
    def test_any_split_concatenates_to_the_profile(self, weighted, rows):
        if weighted:
            w = np.random.default_rng(6).integers(1, 4, 256).astype(float)
            space, _ = build_group_space("zd", d=2, modulus=16, weights=w)
        else:
            space, _ = build_group_space("zd", d=1, modulus=512)
        block = _ensemble_block(space.n)     # gaussian, rademacher, sparse
        radii = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 300.0]
        whole = avg_profile(block, space, radii)
        for values in (block, block[:, 1]):
            chunks = [c.copy() for c in operators._profile_chunks(
                values, space, radii, rows)]
            got = np.concatenate(chunks)
            want = whole if values.ndim == 2 else whole[..., 1]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_chunk_lengths_must_cover_the_radii(self, z64):
        for rows in ([1, 1], [2, 0, 1], 0):
            with pytest.raises(ValueError):
                next(operators._profile_chunks(np.ones(64), z64,
                                               [1.0, 2.0, 3.0], rows))

    @pytest.mark.parametrize("name", sorted(STREAM_CASES))
    def test_short_variation_matches_the_collected_profile(self, name):
        space, _, config = STREAM_CASES[name]
        block = _ensemble_block(space.n)
        rows, offsets = _collected(block, space, config)
        want = np.sqrt((np.stack([
            variation_batch(rows[a:b].reshape(b - a, -1), 2.0)
            for a, b in zip(offsets, offsets[1:])]) ** 2).sum(axis=0))
        got = operators._grid_pass(block, space, config)[1]
        assert got.tobytes() == want.reshape(block.shape).tobytes()

    @pytest.mark.parametrize("name", sorted(STREAM_CASES))
    def test_domination_matches_the_collected_profile(self, name):
        space, system, config = STREAM_CASES[name]
        for t, ensemble in enumerate(_ENSEMBLES):
            f = SampleFunction(space.label, _draw(
                ensemble, np.random.default_rng(40 + t), space.n))
            rows, offsets = _collected(f.values, space, config)
            sv = np.sqrt((np.stack([
                variation_batch(rows[a:b], 2.0)
                for a, b in zip(offsets, offsets[1:])]) ** 2).sum(axis=0))
            anchors = rows[offsets[:-1]]
            for lam in (0.1, 0.5, 1.0):
                rep = domination_check(f, system, config, lam)
                lhs = lam * np.sqrt(jump_count_batch(rows, lam))
                anchor_jumps = jump_count_batch(anchors, lam / 6.0)
                assert rep.lhs.tobytes() == lhs.tobytes()
                assert rep.short_var.tobytes() == sv.tobytes()
                assert np.array_equal(rep.anchor_jumps, anchor_jumps)
                assert rep.rhs_anchor.tobytes() == (
                    2.0 * lam * np.sqrt(anchor_jumps) + 16.0 * sv).tobytes()

    def test_no_chunk_holds_more_than_a_block(self, monkeypatch):
        space, _ = build_group_space("zd", d=1, modulus=4096)
        system = build_cubes(space, HKParams())
        config = OperatorConfig.for_space(space)
        largest = max(len(b.radii) for b in config.blocks)
        assert largest <= config.block_cap < len(config.union_grid())
        handed, computed = [], []
        streamed, real = operators._profile_chunks, operators._fft_chunks

        def recording_stream(values, space, radii, rows):
            for chunk in streamed(values, space, radii, rows):
                handed.append(len(chunk))
                yield chunk

        def recording_fft(*args):
            for out in real(*args):
                computed.append(len(out))
                yield out

        monkeypatch.setattr(operators, "_profile_chunks", recording_stream)
        monkeypatch.setattr(operators, "_fft_chunks", recording_fft)
        f = rand_f(space, 3)
        short_variation(f, space, config)
        domination_check(f, system, config, 0.5)
        blocks = [len(b.radii) for b in config.blocks]
        assert handed == blocks * 2
        assert computed == blocks * 2


class TestSquareFunction:
    def test_constant_vanishes(self, z512_system, z512_config):
        f = SampleFunction("z", np.full(512, -4.0))
        out = square_function(f, z512_system, z512_config)
        assert np.abs(out.values).max() < 1e-12

    def test_single_eligible_level(self, z64):
        system = build_cubes(z64, HKParams())
        cfg = OperatorConfig.for_space(z64)
        assert cfg.eligible_levels(system) == [0]
        f = rand_f(z64, 7)
        out = square_function(f, system, cfg)
        direct = np.abs(avg_profile(f.values, z64, [1.0])[0]
                        - expectation(f, system, 0).values)
        assert np.abs(out.values - direct).max() < 1e-12

    def test_no_eligible_levels(self):
        space = MatrixSpace(np.zeros((1, 1)), label="pt")
        system = build_cubes(space, HKParams())
        cfg = OperatorConfig.for_space(space)
        with pytest.raises(ValueError, match="eligible"):
            square_function(SampleFunction("pt", np.zeros(1)), system, cfg)

    def test_sublinear(self, z512_system, z512_config):
        f, g = rand_f(z512_system.space, 8), rand_f(z512_system.space, 9)
        fg = SampleFunction("z", f.values + g.values)
        s_fg = square_function(fg, z512_system, z512_config).values
        s_f = square_function(f, z512_system, z512_config).values
        s_g = square_function(g, z512_system, z512_config).values
        assert np.all(s_fg <= s_f + s_g + 1e-10)

    def test_constant_shift_invariant(self, z512_system, z512_config):
        f = rand_f(z512_system.space, 10)
        shifted = SampleFunction("z", f.values + 11.0)
        a = square_function(f, z512_system, z512_config).values
        b = square_function(shifted, z512_system, z512_config).values
        assert np.abs(a - b).max() < 1e-10


class TestShortVariation:
    def test_constant_vanishes(self, z512, z512_config):
        out = short_variation(SampleFunction("z", np.full(512, 2.0)),
                              z512, z512_config)
        assert np.abs(out.values).max() < 1e-12

    def test_matches_per_block_dp(self, z512, z512_config):
        f = rand_f(z512, 11)
        rows = avg_profile(f.values, z512, z512_config.union_grid())
        offset, total = 0, np.zeros(512)
        for block in z512_config.blocks:
            sub = rows[offset:offset + len(block.radii)]
            offset += len(block.radii)
            total += variation_batch(sub, 2.0) ** 2
        out = short_variation(f, z512, z512_config)
        assert np.abs(out.values - np.sqrt(total)).max() < 1e-12

    def test_single_radius_block_contributes_zero(self, z512):
        cfg = OperatorConfig.for_space(z512)
        assert len(cfg.blocks[0].radii) == 1  # the block below radius 1
        # a function whose profile varies only below radius 1 has SV = 0;
        # there is no such non-constant f, so check the block directly
        f = rand_f(z512, 12)
        rows = avg_profile(f.values, z512, cfg.blocks[0].radii)
        assert np.all(variation_batch(rows, 2.0) == 0.0)

    def test_sublinear_and_shift_invariant(self, z512, z512_config):
        f, g = rand_f(z512, 13), rand_f(z512, 14)
        fg = SampleFunction("z", f.values + g.values)
        v_fg = short_variation(fg, z512, z512_config).values
        v_f = short_variation(f, z512, z512_config).values
        v_g = short_variation(g, z512, z512_config).values
        assert np.all(v_fg <= v_f + v_g + 1e-10)
        shifted = short_variation(SampleFunction("z", f.values + 5.0),
                                  z512, z512_config).values
        assert np.abs(shifted - v_f).max() < 1e-10

    def test_block_bound_by_enlarged_average(self, z512, z512_config):
        # SV_n(f)(x) <= 2/m(B(x, delta^n)) * integral of |f| over the
        # delta^(n+1)-ball: every block variation is controlled by mass
        f = rand_f(z512, 15)
        rows = avg_profile(f.values, z512, z512_config.union_grid())
        offset = 0
        w = z512.weights
        for block in z512_config.blocks:
            sub = rows[offset:offset + len(block.radii)]
            offset += len(block.radii)
            svn = variation_batch(sub, 2.0)
            r_lo = z512_config.delta**block.n
            r_hi = z512_config.delta ** (block.n + 1)
            for x in range(0, 512, 41):
                row = z512.dist_row(x)
                mass = w[row <= r_lo].sum()
                integral = (w * np.abs(f.values))[row <= r_hi].sum()
                assert svn[x] <= 2.0 / mass * integral + 1e-12


class TestDomination:
    def test_constant_trivial(self, z512_system, z512_config):
        f = SampleFunction("z", np.full(512, 1.0))
        rep = domination_check(f, z512_system, z512_config, 0.5)
        assert rep.ok
        assert np.all(rep.lhs == 0.0)

    def test_point_indicator(self, z512_system, z512_config):
        values = np.zeros(512)
        values[0] = 1.0
        rep = domination_check(SampleFunction("z", values),
                               z512_system, z512_config, 0.1)
        assert rep.ok

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
    def test_random_functions(self, z512_system, z512_config, lam):
        for seed in range(5):
            f = rand_f(z512_system.space, 100 + seed)
            rep = domination_check(f, z512_system, z512_config, lam)
            assert rep.violations_anchor.size == 0
            assert rep.violations_martingale.size == 0

    @pytest.mark.parametrize("delta", sorted(DELTAS))
    def test_report_contents(self, z4096, delta):
        # the check reads its square function and short variation from the
        # same anchor rows and blocks as the operators, bit for bit, also
        # where delta^n is not an integer radius
        c0, C0 = DELTAS[delta]
        system = build_cubes(z4096, HKParams(delta=delta, c0=c0, C0=C0))
        config = OperatorConfig.for_space(z4096, delta=delta)
        assert all(b.radii[0] == config.anchor(b.n) for b in config.blocks)
        f = SampleFunction(z4096.label, _draw(
            "gaussian", np.random.default_rng(0), z4096.n))
        rep = domination_check(f, system, config, 0.5)
        assert rep.grid == config.union_grid()
        assert rep.lhs.shape == (4096,)
        assert "finite union" in rep.note
        sv = short_variation(f, z4096, config).values
        assert rep.short_var.tobytes() == sv.tobytes()
        sq = square_function(f, system, config).values
        assert rep.square.tobytes() == sq.tobytes()

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_jump_out_of_the_r0_block_is_covered_by_its_anchor(
            self, z512_system, z512_config, lam):
        # sparse draw 11 puts -1 at 65 and +1 at 67; at both points the jump
        # from the bare n_r0 anchor (the ball is the point, the row is f) to
        # A_1 f exceeds lam, and the n_r0 block has no short variation, so
        # only that block's anchor in the anchor sequence covers the jump
        assert z512_config.blocks[0].n == z512_config.n_r0 == -1
        assert z512_config.blocks[0].radii == (1 / 36,)
        f = SampleFunction("z", _draw("sparse", np.random.default_rng(11), 512))
        rep = domination_check(f, z512_system, z512_config, lam)
        assert rep.ok
        pts = [65, 67]
        assert np.all(rep.lhs[pts] >= lam)
        # the anchors of the blocks n > n_r0 alone leave the jump uncovered
        rows = avg_profile(f.values, z512_system.space,
                           [b.radii[0] for b in z512_config.blocks[1:]])
        later = (2.0 * lam * np.sqrt(jump_count_batch(rows, lam / 6.0))
                 + 16.0 * rep.short_var)
        assert np.all(rep.lhs[pts] > later[pts])
        assert np.all(rep.rhs_anchor[pts] >= rep.lhs[pts])

    def test_lambda_validated(self, z512_system, z512_config):
        f = rand_f(z512_system.space, 0)
        # NaN passes a `lam <= 0` guard, and a NaN left side is never larger
        for lam in (0.0, math.nan):
            with pytest.raises(ValueError):
                domination_check(f, z512_system, z512_config, lam)
            with pytest.raises(ValueError):
                domination_checks(f, z512_system, z512_config, (0.5, lam))

    def test_every_lambda_from_one_pass(self, z512_system, z512_config,
                                        monkeypatch):
        lams = (0.1, 0.5, 1.0)
        for seed, ensemble in enumerate(_ENSEMBLES):
            f = SampleFunction("z", _draw(
                ensemble, np.random.default_rng(300 + seed), 512))
            singles = [domination_check(f, z512_system, z512_config, lam)
                       for lam in lams]
            streams = []
            real = operators._profile_chunks

            def counted(*args):
                streams.append(args)
                return real(*args)

            monkeypatch.setattr(operators, "_profile_chunks", counted)
            reports = domination_checks(f, z512_system, z512_config, lams)
            monkeypatch.undo()
            assert len(streams) == 1
            for one, rep in zip(singles, reports):
                for field in dataclasses.fields(rep):
                    a, b = (getattr(r, field.name) for r in (one, rep))
                    if isinstance(a, np.ndarray):
                        assert a.dtype == b.dtype
                        assert a.tobytes() == b.tobytes(), field.name
                    else:
                        assert a == b, field.name


class TestNormProbe:
    def test_deterministic(self, z512_system, z512_config):
        a = norm_probe(z512_system, z512_config, "square", trials=12, seed=3)
        b = norm_probe(z512_system, z512_config, "square", trials=12, seed=3)
        assert a.to_json() == b.to_json()
        assert a.rows == b.rows

    def test_ensembles_cycle(self, z512_system, z512_config):
        rep = norm_probe(z512_system, z512_config, "variation", trials=6, seed=0)
        assert [r.ensemble for r in rep.rows] == [
            "gaussian", "rademacher", "sparse"] * 2

    def test_average_bound_via_doubling(self, z512_system, z512_config):
        rep = norm_probe(z512_system, z512_config, "average", trials=9,
                         seed=1, p=2.0)
        assert rep.doubling_D is not None and rep.doubling_D >= 1.0
        assert rep.avg_bound_ok

    @pytest.mark.parametrize("r0,radius", [(1.0, 1.0), (2.0, 36.0)])
    def test_average_radius_is_first_anchor_above_r0(self, r0, radius):
        # r = max(1, delta^(n_r0 + 1)): n_r0 is -1 at r0 = 1 and 0 at r0 = 2
        space, _ = build_group_space(family="zd", d=1, modulus=4096, r0=r0)
        config = OperatorConfig.for_space(space)
        system = build_cubes(space, HKParams())
        rep = norm_probe(system, config, "average", trials=3, seed=0)
        assert rep.avg_radius == max(1.0, config.anchor(config.n_r0 + 1))
        assert rep.avg_radius == radius

    def test_average_sup_norm(self, z512_system, z512_config):
        rep = norm_probe(z512_system, z512_config, "average", trials=9,
                         seed=2, p=np.inf)
        assert rep.strong_max <= 1.0 + 1e-12

    def test_weak_ratios_reported(self, z512_system, z512_config):
        rep = norm_probe(z512_system, z512_config, "maximal", trials=6, seed=5,
                         gammas=(0.25, 1.0))
        gammas = [g for g, _ in rep.weak_max]
        assert gammas == [0.25, 1.0]
        assert all(ratio >= 0.0 for _, ratio in rep.weak_max)

    def test_unknown_operator(self, z512_system, z512_config):
        with pytest.raises(ValueError, match="unknown operator"):
            norm_probe(z512_system, z512_config, "bogus", trials=1)

    def test_trials_validated(self, z512_system, z512_config):
        with pytest.raises(ValueError):
            norm_probe(z512_system, z512_config, "square", trials=0)


class TestProbeBlocks:
    """Trials swept in blocks of columns give the numbers of one block."""

    @staticmethod
    def _width(operator, system, config):
        if operator == "square":
            return len(config.eligible_levels(system))
        if operator == "variation":
            return len(config.union_grid())
        return 1

    @pytest.mark.parametrize("operator",
                             ["square", "variation", "average", "maximal"])
    def test_forced_blocks_match_default(self, operator, z512_system,
                                         z512_config, monkeypatch):
        # every operator reads its averages through the stream, the
        # variation operator one block of radii at a time
        widths = []
        streamed = operators._profile_chunks

        def recording(values, space, radii, rows):
            widths.append(np.shape(values)[1])
            return streamed(values, space, radii, rows)

        monkeypatch.setattr(operators, "_profile_chunks", recording)
        kwargs = dict(trials=7, seed=11)
        default = norm_probe(z512_system, z512_config, operator, **kwargs)
        sweeps = {1: [1] * 7, 3: [3, 3, 1]}
        assert widths == ([] if operator == "maximal" else [7])
        width = self._width(operator, z512_system, z512_config)
        for per_block in (1, 3):
            widths.clear()
            monkeypatch.setattr(operators, "_SWEEP_BYTES",
                                per_block * width * z512_system.space.n * 8)
            rep = norm_probe(z512_system, z512_config, operator, **kwargs)
            assert rep.rows == default.rows
            assert rep.to_json() == default.to_json()
            if operator != "maximal":
                assert widths == sweeps[per_block]


class TestDoublingFit:
    def test_cycle_near_two(self, z512):
        D = fit_doubling_constant(z512)
        assert 1.5 <= D <= 2.5

    def test_reads_32_centers(self, z512, monkeypatch):
        centers = []
        real = z512.ball_chunks

        def recorded(points, radius):
            centers.extend(int(c) for c in points)
            return real(points, radius)

        monkeypatch.setattr(z512, "ball_chunks", recorded)
        fit_doubling_constant(z512)
        assert centers == list(range(0, 512, 16))

    def test_at_least_one(self):
        # a fitted constant is at least one; with no dyadic r >= the
        # resolution that has 2r within the safe radius, nothing is fitted
        path = MatrixSpace(np.abs(np.subtract.outer(np.arange(3.0),
                                                    np.arange(3.0))))
        assert fit_doubling_constant(path) >= 1.0
        space = MatrixSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), label="pair")
        assert fit_doubling_constant(space) is None
