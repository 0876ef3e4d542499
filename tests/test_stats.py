import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab.stats import (
    JumpFold,
    UpcrossingFold,
    jump_count,
    jump_count_batch,
    jump_count_oracle,
    upcrossing_count,
    upcrossing_count_batch,
    variation,
    variation_batch,
    variation_oracle,
)

finite_vals = st.floats(min_value=-10, max_value=10, allow_nan=False)
short_seqs = st.lists(finite_vals, min_size=0, max_size=10)


class TestJumpCount:
    def test_alternating(self):
        assert jump_count([0, 2, 0, 2], 1.0) == 3

    def test_small_oscillation(self):
        assert jump_count([0, 0.6, 0], 0.5) == 2

    def test_constant(self):
        assert jump_count([5, 5, 5, 5], 0.1) == 0

    def test_empty_and_single(self):
        assert jump_count([], 1.0) == 0
        assert jump_count([3.0], 1.0) == 0

    def test_skipping_beats_greedy(self):
        # A greedy scan from index 0 takes the 0 -> 1.5 gap and then finds
        # nothing; the optimum skips to index 2 (0 -> 1.2 is too small for
        # greedy to care, but 0, 1.2, 2.4 has two gaps > 1).
        assert jump_count([0, 1.5, 1.2, 2.4], 1.0) == 2

    def test_rejects_nonpositive_lambda(self):
        # NaN passes a `lam <= 0` guard and would count no jumps
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                jump_count([0, 1], lam)
            with pytest.raises(ValueError):
                jump_count_batch(np.array([[0.0], [5.0], [0.0]]), lam)
            with pytest.raises(ValueError):
                jump_count_oracle([0.0, 5.0, 0.0], lam)

    def test_strict_inequality(self):
        # gaps exactly equal to lambda do not count
        assert jump_count([0, 1, 0], 1.0) == 0
        assert jump_count([0, 1 + 1e-9, 0], 1.0) == 2
        # 1.3 - 0.3 rounds to 1.0, yet 1.3 - 1.0 rounds to just above 0.3:
        # the quiet interval of the envelope [0.9, 1.3] must leave out 1.0,
        # which reaches that level (and likewise for -1.3 + 0.3)
        seq = [0.9, 1.3, 1.1, 1.1, 1.0, 1.35]
        for s in (seq, [-x for x in seq]):
            assert jump_count(s, 0.3) == jump_count_oracle(s, 0.3) == 3

    @given(short_seqs, st.floats(min_value=0.01, max_value=5))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, vals, lam):
        assert jump_count(vals, lam) == jump_count_oracle(vals, lam)

    @given(short_seqs, st.floats(min_value=0.01, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_lambda(self, vals, lam):
        assert jump_count(vals, lam) >= jump_count(vals, 2 * lam)

    def test_batch_matches_scalar(self):
        # jump_count is jump_count_batch on one column, so the reference
        # here is the exhaustive oracle
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(9, 40))
        counts = jump_count_batch(mat, 0.8)
        for col in range(40):
            assert counts[col] == jump_count_oracle(mat[:, col], 0.8)

    def test_batch_level_envelopes_match_oracle(self):
        # one wide matrix whose columns stress the per-level envelopes:
        # alternating runs (N = n - 1), integer lattices with many gaps of
        # exactly lambda (strictness), constants, noise, non-finite values
        rng = np.random.default_rng(5)
        n, lam = 12, 1.0
        alt = np.where(np.arange(n) % 2 == 0, 0.0, 2.0)
        cols = [alt, -3.0 * alt, alt + rng.uniform(-0.45, 0.45, n),
                np.full(n, 4.0), np.zeros(n), np.arange(n) * lam]
        cols += [rng.integers(0, 4, n) * lam for _ in range(16)]
        cols += [rng.normal(scale=1.5, size=n) for _ in range(8)]
        odd = rng.normal(scale=2.0, size=n)
        odd[[2, 5, 9]] = [np.nan, np.inf, -np.inf]
        cols.append(odd)
        # cases of the quiet-interval skip: signed zeros, values exactly
        # lambda from both ends of an envelope, long quiet runs that end in
        # one jump, infinities and NaN runs inside a quiet run
        cols += [np.where(np.arange(n) % 2 == 0, 0.0, -0.0),
                 np.r_[np.zeros(n - 2), -0.0, 1.5],
                 np.tile([0.0, lam, 2 * lam, lam], n // 4),
                 np.tile([0.5, 0.5 - lam, 0.5 + lam], n // 3),
                 np.r_[rng.uniform(0.0, 0.9 * lam, n - 1), 2.0 * lam],
                 np.r_[np.full(n - 1, 0.25), 0.25 - 1.25 * lam],
                 np.r_[np.full(4, 1.0), np.nan, np.nan, np.full(5, 1.0), 3.0],
                 np.r_[np.inf, np.inf, 0.0, -np.inf, 0.0, np.full(7, np.inf)],
                 np.r_[np.full(6, -np.inf), 0.0, np.full(5, -np.inf)]]
        mat = np.column_stack(cols)
        with np.errstate(invalid="ignore"):     # inf - inf in both paths
            counts = jump_count_batch(mat, lam)
            want = [jump_count_oracle(mat[:, c], lam) for c in range(len(cols))]
        assert counts[:3].tolist() == [n - 1] * 3
        assert counts[3:5].tolist() == [0, 0]
        assert counts.tolist() == want
        for rows in (0, 1):
            assert jump_count_batch(mat[:rows], lam).tolist() == [0] * len(cols)
            assert jump_count_oracle(mat[:rows, 0], lam) == 0

    def test_batch_rejects_1d(self):
        with pytest.raises(ValueError):
            jump_count_batch(np.zeros(4), 1.0)


class TestVariation:
    def test_tent(self):
        assert variation([0, 1, 0], 2.0) == pytest.approx(math.sqrt(2))
        assert variation([0, 1, 0], 1.0) == pytest.approx(2.0)

    def test_q1_can_skip(self):
        # for q = 1 skipping the middle point of a monotone run changes nothing
        assert variation([0, 1, 2], 1.0) == pytest.approx(2.0)

    def test_large_q_prefers_single_gap(self):
        v = variation([0, 1, 0], 10.0)
        assert v == pytest.approx(2 ** (1 / 10))

    def test_short_sequences_are_zero(self):
        assert variation([], 2.0) == 0.0
        assert variation([1.0], 2.0) == 0.0

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            variation([0, 1, 0], 0.5)

    def test_rejects_infinite_q(self):
        # the dynamic program would raise every gap to the power inf
        col = np.array([[0.0], [3.0], [-2.0], [0.5]])
        for fn, seq in ((variation, col[:, 0]), (variation_batch, col),
                        (variation_oracle, col[:, 0])):
            with pytest.raises(ValueError, match="finite"):
                fn(seq, math.inf)

    @given(short_seqs, st.floats(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, vals, q):
        assert variation(vals, q) == pytest.approx(variation_oracle(vals, q), abs=1e-9)

    @given(short_seqs)
    @settings(max_examples=150, deadline=None)
    def test_decreasing_in_q(self, vals):
        # V_q is nonincreasing in q
        v1 = variation(vals, 1.0)
        v2 = variation(vals, 2.0)
        v4 = variation(vals, 4.0)
        assert v1 >= v2 - 1e-9
        assert v2 >= v4 - 1e-9

    @given(short_seqs, st.floats(min_value=0.01, max_value=5),
           st.floats(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_dominates_jump_count(self, vals, lam, q):
        # lam * N_lam^{1/q} <= V_q
        n = jump_count(vals, lam)
        assert lam * n ** (1 / q) <= variation(vals, q) + 1e-9

    @given(short_seqs)
    @example([0.0, 5e-324])
    @settings(max_examples=100, deadline=None)
    def test_jump_value_below_variation(self, vals):
        # sup over lam of lam * N_lam^{1/2} <= V_2: N_lam drops only where
        # lam reaches a gap |a_i - a_j|, so the sup is approached just below
        # the gaps; below the smallest subnormal gap that is 0, which
        # jump_count refuses (see test_rejects_nonpositive_lambda)
        a = np.asarray(vals, dtype=float)
        gaps = np.unique(np.abs(a[:, None] - a[None, :]))
        v2 = variation(vals, 2.0)
        for lam in gaps[gaps > 0]:
            for lam in (lam, np.nextafter(lam, 0.0)):
                if lam <= 0:
                    continue
                n = jump_count(vals, float(lam))
                assert lam * math.sqrt(n) <= v2 + 1e-9

    @given(short_seqs, st.floats(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_sup_bound(self, vals, q):
        # max |a_r| <= |a_{r_1}| + V_q
        if not vals:
            return
        a = np.asarray(vals)
        assert np.abs(a).max() <= abs(a[0]) + variation(vals, q) + 1e-9

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(8, 30))
        v = variation_batch(mat, 2.0)
        # variation is variation_batch on one column; check the oracle
        for col in range(30):
            assert v[col] == pytest.approx(variation_oracle(mat[:, col], 2.0))


class TestColumnBlocks:
    """The DPs run on fixed blocks of columns; a width that is not a
    multiple of the block must give every column its one-column result."""

    WIDTH = 8192 + 37

    def test_jump_count_blocks_match_columns(self):
        rng = np.random.default_rng(21)
        mat = np.cumsum(rng.normal(scale=0.4, size=(7, self.WIDTH)), axis=0)
        mat[:, 5] = np.nan
        mat[3, 8192] = np.nan
        mat[:, -1] = np.nan
        counts = jump_count_batch(mat, 0.3)
        want = [jump_count_batch(mat[:, [c]], 0.3)[0]
                for c in range(self.WIDTH)]
        assert counts.tolist() == want
        assert counts[5] == 0 and counts[-1] == 0

    def test_variation_blocks_match_columns(self):
        rng = np.random.default_rng(22)
        mat = rng.normal(size=(6, self.WIDTH))
        v = variation_batch(mat, 2.0)
        want = np.array([variation_batch(mat[:, [c]], 2.0)[0]
                         for c in range(self.WIDTH)])
        assert v.shape == (self.WIDTH,)
        assert np.array_equal(v, want)

    def test_zero_width(self):
        assert jump_count_batch(np.zeros((0, 0)), 1.0).shape == (0,)
        assert variation_batch(np.zeros((3, 0)), 2.0).shape == (0,)


class TestUpcrossings:
    def test_square_wave(self):
        assert upcrossing_count([0, 1, 0, 1, 0, 1], 0.25, 0.75) == 3

    def test_strictness(self):
        # touching the bands does not count; crossing them strictly does
        assert upcrossing_count([0.25, 0.75], 0.25, 0.75) == 0
        assert upcrossing_count([0.2, 0.8], 0.25, 0.75) == 1

    def test_requires_low_first(self):
        assert upcrossing_count([1, 1, 1], 0.25, 0.75) == 0

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            upcrossing_count([0, 1], 0.75, 0.25)
        with pytest.raises(ValueError):
            upcrossing_count([0, 1], 0.5, 0.5)

    @given(short_seqs, st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.05, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_dominated_by_jump_count(self, vals, a, width):
        # N_{a,b} <= 2 N_{(b-a)/2}  (a completed upcrossing forces moves
        # bigger than half the band in the chain sense)
        b = a + width
        lam = (b - a) / 2
        assert upcrossing_count(vals, a, b) <= 2 * jump_count(vals, lam) if vals else True

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(12, 25))
        counts = upcrossing_count_batch(mat, -0.3, 0.4)
        for col in range(25):
            assert counts[col] == upcrossing_count(mat[:, col], -0.3, 0.4)


class TestFolds:
    """A fold fed its scales in uneven blocks, empty ones included, reads
    after every block bitwise the counts of one call on the rows so far."""

    WIDTH = 8192 + 19
    NARROW = 300

    @staticmethod
    def splits(mat, seed):
        cuts = np.sort(np.random.default_rng(seed).integers(0, len(mat) + 1, 6))
        return np.split(mat, cuts)

    @staticmethod
    def walk(seed):
        rng = np.random.default_rng(seed)
        mat = np.cumsum(rng.normal(scale=0.4, size=(40, TestFolds.WIDTH)),
                        axis=0)
        mat[:, 3] = np.nan
        mat[7, 8200] = np.nan
        mat[11:14, 50] = np.nan
        return mat

    @staticmethod
    def settle(seed, width):
        """Averages that settle, so that later rows leave most columns in
        their quiet intervals, mixed with noisy (dense) columns, constant
        and signed-zero columns, a NaN row, infinities and lattice values
        exactly lambda = 0.3 apart."""
        rng = np.random.default_rng(seed)
        n = 40
        mat = (rng.normal(size=(n, width))
               / np.arange(1, n + 1)[:, None] ** rng.uniform(0.3, 1.5, width))
        noisy = rng.random(width) < 0.2
        mat[:, noisy] = rng.normal(size=(n, noisy.sum()))
        mat[:, 1] = 0.7
        mat[:, 2] = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
        mat[:, 4] = rng.integers(0, 3, n) * 0.3
        mat[5:9, 6] = np.inf
        mat[20, 7] = -np.inf
        mat[25] = np.nan
        # late single jumps out of long quiet runs
        mat[30:, 8:width:97] += 2.0
        return mat

    def test_jump_fold_matches_one_block(self):
        for maker, width in (("walk", self.WIDTH), ("walk", self.NARROW),
                             ("settle", self.WIDTH), ("settle", self.NARROW)):
            self.check_jump_fold(maker, width)

    def check_jump_fold(self, maker, width):
        mat = (self.walk(31) if maker == "walk"
               else self.settle(31, self.WIDTH))[:, :width]
        with np.errstate(invalid="ignore"):     # inf - inf in the oracle
            # sampled columns equal the oracle on 12 scales (its cost
            # doubles per scale), and the one-column fold on all of them
            short = jump_count_batch(mat[:12], 0.3)
            for c in range(0, width, 263):
                assert short[c] == jump_count_oracle(mat[:12, c], 0.3)
        want = jump_count_batch(mat, 0.3)
        for c in range(0, width, 7):
            assert want[c] == jump_count_batch(mat[:, [c]], 0.3)[0]
        for seed in range(3):
            fold = JumpFold(0.3, width)
            seen = 0
            for block in self.splits(mat, seed):
                fold.update(block)
                seen += len(block)
                assert np.array_equal(fold.counts(),
                                      jump_count_batch(mat[:seen], 0.3))
            assert seen == len(mat)
        assert np.array_equal(fold.counts(), want)
        if maker == "walk":
            assert fold.counts()[3] == 0

    def test_jump_fold_split_at_every_row(self):
        mat = self.settle(33, self.WIDTH)[:12]
        want = jump_count_batch(mat, 0.3)
        with np.errstate(invalid="ignore"):
            for c in range(0, self.WIDTH, 263):
                assert want[c] == jump_count_oracle(mat[:, c], 0.3)
        for cut in range(len(mat) + 1):
            fold = JumpFold(0.3, self.WIDTH)
            fold.update(mat[:cut])
            fold.update(mat[cut:])
            assert np.array_equal(fold.counts(), want)
        fold = JumpFold(0.3, self.WIDTH)
        for row in mat:
            fold.update(row[None])
        assert np.array_equal(fold.counts(), want)

    def test_quiet_rows_reach_no_level(self, monkeypatch):
        # the skip itself: after each block's first row, a row inside every
        # quiet interval (equal values, a zero of the other sign) calls the
        # level DP on no column, and a row with one active column on that
        # column only
        calls = []
        real = JumpFold._fold_levels

        def spy(self, lo, hi, used, vals):
            calls.append(vals.shape)
            return real(self, lo, hi, used, vals)

        monkeypatch.setattr(JumpFold, "_fold_levels", spy)
        row = np.linspace(-1.0, 1.0, self.WIDTH)
        row[100] = 0.0
        mat = np.repeat(row[None], 6, axis=0)
        mat[2:, 100] = -0.0
        mat[4, 8200] += 0.5
        fold = JumpFold(0.3, self.WIDTH)
        fold.update(mat)
        # the column jumps out at row 4 and back at row 5
        assert calls == [(1, 8192), (1, 19), (1, 1), (1, 1)]
        assert fold.counts().tolist() == [0] * 8200 + [2] + [0] * 10

    def test_upcrossing_fold_matches_one_block(self):
        mat = self.walk(32)
        for seed in range(3):
            fold = UpcrossingFold(-0.3, 0.4, self.WIDTH)
            seen = 0
            for block in self.splits(mat, seed):
                fold.update(block)
                seen += len(block)
                assert np.array_equal(
                    fold.counts(), upcrossing_count_batch(mat[:seen], -0.3, 0.4))
        want = [upcrossing_count(mat[:, c], -0.3, 0.4) for c in range(64)]
        assert fold.counts()[:64].tolist() == want

    def test_folds_check_their_input(self):
        for lam in (0.0, math.nan):
            with pytest.raises(ValueError):
                JumpFold(lam, 3)
        with pytest.raises(ValueError):
            UpcrossingFold(0.5, 0.5, 3)
        for fold in (JumpFold(0.5, 3), UpcrossingFold(0.0, 1.0, 3)):
            with pytest.raises(ValueError):
                fold.update(np.zeros((2, 4)))
            with pytest.raises(ValueError):
                fold.update(np.zeros(3))
            assert fold.counts().tolist() == [0, 0, 0]
