"""Tests for group actions on finite states, transference, and tail
experiments."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ergolab.dynamics import (
    ActionError,
    MPSystem,
    action_profile,
    build_system,
    convergence_probe,
    regular_system,
    tail_and_convergence,
    tail_experiment,
    transference_check,
)
from ergolab.operators import avg_profile, group_shells, sweep_profile
from ergolab.space import MatrixSpace, build_group_space
from ergolab.stats import upcrossing_count_batch, jump_count_batch

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def z64():
    return build_group_space("zd", d=1, modulus=64)[0]


@pytest.fixture(scope="module")
def rot8():
    return build_system("rotation", modulus=8, step=1)


# (kind, N, steps, acting modulus): gcd(step, N) in {1, 3, 4}, an acting
# modulus below N, and two-dimensional shifts that split Z_8^2 into orbits
ROTATIONS = [
    ("rotation", 12, [(1,)], None),
    ("rotation", 12, [(3,)], None),
    ("rotation", 12, [(4,)], None),
    ("rotation", 16, [(4,)], 4),
    ("rotation", 12, [(-5,)], None),
    ("rotation2d", 8, [(1, 0), (0, 1)], None),
    ("rotation2d", 8, [(2, 0), (0, 4)], None),
    ("rotation2d", 8, [(2, 0), (0, 4)], 4),
]


def rotation(kind, n, steps, m):
    """The stock system where `build_system` makes it; an acting modulus
    below N or a second shift other than (0, 1) acts through
    `modular_perm` on the quotient Z_m^d."""
    if m is None and steps[1:] in ([], [(0, 1)]):
        return build_system(kind, modulus=n, step=steps[0][0])
    dim = len(steps)
    group = build_group_space("zd", d=dim, modulus=m or n)[0]
    return MPSystem(group, n ** dim, lambda j: modular_perm(
        kind, n, steps, group.elements[j]))


def modular_perm(kind, n, steps, e):
    """x -> x + e @ steps on Z_n^d, written out coordinate by coordinate."""
    if kind == "rotation":
        return (np.arange(n) + steps[0][0] * int(e[0])) % n
    shift = [sum(int(e[i]) * steps[i][c] for i in range(2)) % n
             for c in range(2)]
    grid_i, grid_j = np.divmod(np.arange(n * n), n)
    return ((grid_i + shift[0]) % n) * n + (grid_j + shift[1]) % n


def uniform(n):
    """The uniform weights on n states as the tail fold builds them: 1/n,
    divided by its float sum, which is not 1 at n = 1000."""
    w = np.ones(n) / n
    return w / w.sum()


def union_find_labels(system):
    """Smallest state of each component of the generator graph, by a
    plain union-find that always hangs the larger root below the smaller."""
    parent = list(range(system.n_states))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for j in system._generator_indices():
        for x, y in enumerate(system.act_perm(int(j)).tolist()):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return np.array([find(x) for x in range(system.n_states)])


class TestConstruction:
    def test_rotation_is_valid(self, rot8):
        assert rot8.n_states == 8
        assert not hasattr(rot8, "mu")
        # generator (value 1) sends x to x+1
        gi = int(rot8.group.index_of([[1]])[0])
        assert np.array_equal(rot8.act_perm(gi), (np.arange(8) + 1) % 8)

    def test_regular_action_is_right_translation(self, z64):
        system = regular_system(z64)
        for j in range(z64.n):
            assert np.array_equal(system.act_perm(j), z64.right_perm(j))

    def test_regular_kind(self):
        system = build_system("regular", modulus=64)
        assert system.n_states == 64
        assert system.group.label == "Z^1 mod 64"

    def test_heisenberg_kind(self):
        system = build_system("heisenberg", modulus=4)
        assert system.group.n == 64
        assert system.n_states == 64
        assert system.group.label == "H3 mod 4"

    def test_rotation2d(self):
        system = build_system("rotation2d", modulus=8)
        assert system.n_states == 64
        # element (1, 0) shifts the first coordinate
        gi = int(system.group.index_of([[1, 0]])[0])
        perm = system.act_perm(gi)
        x = 3 * 8 + 5
        assert perm[x] == ((3 + 1) % 8) * 8 + 5

    def test_rotation2d_scalar_step_moves_first_coordinate(self):
        system = build_system("rotation2d", modulus=8, step=3)
        gi = int(system.group.index_of([[1, 0]])[0])
        perm = system.act_perm(gi)
        x = 3 * 8 + 5
        assert perm[x] == ((3 + 3) % 8) * 8 + 5
        # the second shift is (0, 1)
        gj = int(system.group.index_of([[0, 1]])[0])
        assert system.act_perm(gj)[x] == 3 * 8 + 6

    @pytest.mark.parametrize("kind, n, steps, m", ROTATIONS)
    def test_rotation_perms_match_modular_formula(self, kind, n, steps, m):
        system = rotation(kind, n, steps, m)
        for j in range(system.group.n):
            perm = system.act_perm(j)
            assert np.array_equal(perm, modular_perm(kind, n, steps,
                                                     system.group.elements[j]))

    @pytest.mark.parametrize("step", [2**62 + 1, 2**63, 10**22, -(2**63) - 1])
    def test_large_step_acts_as_its_residue(self, step):
        system = build_system("rotation", modulus=100, step=step)
        residue = build_system("rotation", modulus=100, step=step % 100)
        for j in range(100):
            assert np.array_equal(system.act_perm(j), residue.act_perm(j))

    def test_act_perm_builds_on_demand(self, rot8):
        gi = int(rot8.group.index_of([[1]])[0])
        first = rot8.act_perm(gi)
        assert np.array_equal(rot8.act_perm(gi), first)
        assert rot8.act_perm(gi) is not first
        assert not hasattr(rot8, "_cache")

    def test_act_perm_checks_the_length(self, z64):
        system = regular_system(z64)
        system._perm_for = lambda j: np.arange(63)
        with pytest.raises(ActionError, match="wrong length"):
            system.act_perm(1)

    def test_full_orbit_when_step_coprime(self):
        system = build_system("rotation", modulus=8, step=3)
        assert len(np.unique(system.orbit_labels())) == 1

    def test_orbits_split_when_step_shares_factor(self):
        system = build_system("rotation", modulus=12, step=3)
        labels = system.orbit_labels()
        assert len(np.unique(labels)) == 3
        assert np.array_equal(labels, np.arange(12) % 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            build_system("shift", modulus=8)

    @pytest.mark.parametrize("kind", ["rotation", "rotation2d"])
    def test_zero_modulus_refused(self, kind):
        with pytest.raises(ValueError, match="modulus must be >= 4"):
            build_system(kind, modulus=0, step=3)

    def test_non_bijective_map_rejected(self, z64):
        def broken(j):
            perm = np.array(z64.right_perm(j))
            if j != 0:
                perm[0] = perm[1]  # collapse two states
            return perm

        with pytest.raises(ActionError, match="bijectively"):
            MPSystem(z64, 64, broken)

    @pytest.mark.parametrize("n_states", [0, -1, 64.0, True])
    def test_state_count_must_be_a_positive_integer(self, z64, n_states):
        with pytest.raises(ActionError, match="positive integer"):
            MPSystem(z64, n_states, z64.right_perm)

    def test_identity_must_fix_everything(self, z64):
        def broken(j):
            if j == 0:
                return (np.arange(64) + 1) % 64
            return z64.right_perm(j)

        with pytest.raises(ActionError, match="identity"):
            MPSystem(z64, 64, broken)

    def test_out_of_range_permutation_refused_in_sweep(self, z64):
        # element 12 is no generator, and none of the 40 products that
        # validation draws from seed 0 reaches it, so it escapes validation;
        # the sweep's gather must not clip it
        def broken(j):
            perm = z64.right_perm(j)
            return np.where(perm == 0, 64, perm) if j == 12 else perm

        system = MPSystem(z64, 64, broken)
        with pytest.raises(ActionError, match="leaves the states"):
            action_profile(system, np.ones(64), [8.0])

    def test_homomorphism_violation_detected(self, z64):
        # element 7 is no generator, but the 40 products that validation
        # draws from seed 0 reach it
        rng = RNG(0)

        def broken(j):
            if j == 7:
                return rng.permutation(64)
            return z64.right_perm(j)

        with pytest.raises(ActionError, match="homomorphism"):
            MPSystem(z64, 64, broken)


class TestMeasurePreservation:
    def test_generator_sums(self, rot8):
        rng = RNG(3)
        f = rng.standard_normal(8)
        mu = uniform(8)
        for j in rot8._generator_indices():
            perm = rot8.act_perm(int(j))
            assert abs((mu * f[perm]).sum() - (mu * f).sum()) <= 1e-12

    def test_mean_preserved_along_radii(self, rot8):
        rng = RNG(4)
        f = rng.standard_normal(8)
        rows = action_profile(rot8, f, [1.0, 2.0, 3.0, 4.0])
        mu = uniform(8)
        base = (mu * f).sum()
        for row in rows:
            assert abs((mu * row).sum() - base) <= 1e-12


class TestAveraging:
    def test_constant_function_fixed(self, rot8):
        f = np.full(8, 2.5)
        out = action_profile(rot8, f, [2.0])[0]
        assert np.array_equal(out, f)

    def test_rotation_average_by_hand(self):
        system = build_system("rotation", modulus=8, step=1)
        f = np.zeros(8)
        f[0] = 1.0
        # ball of radius 1 in Z_8 = {-1, 0, 1}: average of three translates
        out = action_profile(system, f, [1.0])[0]
        expected = np.zeros(8)
        expected[[7, 0, 1]] = 1.0 / 3.0
        assert np.allclose(out, expected, atol=1e-15)

    def test_l1_contraction(self, rot8):
        rng = RNG(9)
        f = rng.standard_normal(8)
        out = action_profile(rot8, f, [2.0])[0]
        mu = uniform(8)
        assert (mu * np.abs(out)).sum() <= (mu * np.abs(f)).sum() + 1e-12

    def test_full_ball_reaches_global_mean(self):
        system = build_system("rotation", modulus=9, step=1)
        rng = RNG(2)
        f = rng.standard_normal(9)
        out = action_profile(system, f, [9.0])[0]
        assert np.abs(out - f.mean()).max() <= 1e-12

    def test_wrong_length_rejected(self, rot8):
        with pytest.raises(ValueError, match="one entry per state"):
            action_profile(rot8, np.ones(5), [1.0])


class TestTransference:
    def test_regular_action_zero_discrepancy_z64(self, z64):
        # signs: the FFT engine of the geometric side sums them exactly
        rng = RNG(11)
        f = rng.choice([-1.0, 1.0], size=64)
        rep = transference_check(z64, f, [1.0, 2.0, 4.0, 8.0, 16.0])
        assert rep.max_discrepancy == 0.0
        assert rep.jumps_equal

    def test_regular_action_zero_discrepancy_h3(self):
        space, _ = build_group_space("h3", modulus=4)
        rng = RNG(12)
        f = rng.standard_normal(space.n)
        radii = [1.0, 2.0, 3.0, 5.0, 8.0]
        rep = transference_check(space, f, radii, lam=0.25)
        assert rep.max_discrepancy == 0.0
        assert rep.jumps_equal
        hist_a = np.bincount(rep.jumps_action)
        hist_t = np.bincount(rep.jumps_translation)
        assert np.array_equal(hist_a, hist_t)

    def test_bitwise_equality_of_rows(self, z64):
        # not just within tolerance: the action's sweep and the sweep of
        # the quotient's own translations share one accumulation order
        rng = RNG(13)
        f = rng.standard_normal(64)
        radii = [1.0, 3.0, 7.0, 15.0]
        system = regular_system(z64)
        act = action_profile(system, f, radii)
        trans = sweep_profile(f, group_shells(z64, z64.right_perm, radii),
                              radii)
        assert np.array_equal(act, trans)
        # avg_profile averages Z^d quotients by FFT: equal to rounding
        assert np.allclose(avg_profile(f, z64, radii), act,
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family, d, modulus", [
        ("zd", 1, 64), ("zd", 2, 8), ("h3", None, 4)])
    def test_matches_distance_row_averages(self, family, d, modulus):
        # an independent engine: sorted distance rows of a matrix copy,
        # with no translation table on the geometric side
        space, _ = build_group_space(family, d=d, modulus=modulus)
        f = RNG(15).standard_normal(space.n)
        radii = [1.0, 2.0, 3.0, 5.0]
        act = action_profile(regular_system(space), f, radii)
        rows = avg_profile(f, MatrixSpace(space.dist_matrix()), radii)
        assert np.allclose(act, rows, rtol=1e-12, atol=1e-12)


class TestTailExperiment:
    def test_constant_function_degenerate(self, rot8):
        rep = tail_experiment(rot8, np.full(8, 0.3), [1.0, 2.0, 3.0],
                              lam=0.5)
        assert rep.tails == (0.0,)
        assert not rep.fitted
        assert any("degenerate" in n for n in rep.notes)

    def test_monotone_tails_rotation_1024(self):
        system = build_system("rotation", modulus=1024, step=1)
        rng = RNG(21)
        f = rng.choice([-1.0, 1.0], size=1024)
        radii = [float(r) for r in range(1, 257, 3)]
        rep = tail_experiment(system, f, radii, lam=0.5)
        tails = np.array(rep.tails)
        assert np.all(np.diff(tails) <= 0)  # exact monotonicity
        if rep.fitted:
            assert rep.slope < 0
            assert 0.0 < rep.c2 < 1.0
            assert rep.r_squared is not None

    def test_clipping_warns_and_notes(self, rot8):
        f = np.zeros(8)
        f[0] = 3.0
        with pytest.warns(UserWarning, match="clipped") as record:
            rep = tail_experiment(rot8, f, [1.0, 2.0], lam=0.25)
        assert any("clipped" in n for n in rep.notes)
        # each entry point attributes the warning to its caller
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="clipped") as record:
            rep, _ = tail_and_convergence(rot8, f, [1.0, 2.0], lam=0.25)
        assert any("clipped" in n for n in rep.notes)
        assert record[0].filename == __file__

    def test_radius_capping_noted(self, rot8):
        rep = tail_experiment(rot8, np.ones(8), [1.0, 2.0, 50.0], lam=0.5)
        assert rep.radii == (1.0, 2.0)
        assert any("capped" in n for n in rep.notes)
        with pytest.raises(ValueError, match="exceed the safe radius"):
            tail_experiment(rot8, np.ones(8), [50.0], lam=0.5)

    def test_threshold_argument_validation(self, rot8):
        f = np.ones(8)
        with pytest.raises(ValueError, match="exactly one"):
            tail_experiment(rot8, f, [1.0], lam=0.5, upcross=(0.0, 1.0))
        with pytest.raises(ValueError, match="exactly one"):
            tail_experiment(rot8, f, [1.0])

    def test_upcrossing_tail_dominated_by_jump_tail(self):
        # N_{a,b} <= 2 N_{(b-a)/2} pointwise, so the upcrossing tail at n
        # sits below the jump tail at floor(n/2)
        system = build_system("rotation", modulus=512, step=1)
        rng = RNG(22)
        f = rng.choice([-1.0, 1.0], size=512)
        radii = [float(r) for r in range(1, 129)]
        a, b = -0.25, 0.35
        rep_ab = tail_experiment(system, f, radii, upcross=(a, b))
        rep_j = tail_experiment(system, f, radii, lam=(b - a) / 2.0)

        def jump_tail(n):
            return rep_j.tails[n] if n < len(rep_j.tails) else 0.0

        for n, t in zip(rep_ab.ns, rep_ab.tails):
            assert t <= jump_tail(n // 2) + 1e-15

    def test_pointwise_upcross_domination(self):
        system = build_system("rotation", modulus=256, step=1)
        rng = RNG(23)
        f = rng.uniform(-1, 1, size=256)
        radii = [float(r) for r in range(1, 64)]
        rows = action_profile(system, f, radii)
        a, b = -0.1, 0.3
        n_ab = upcrossing_count_batch(rows, a, b)
        n_j = jump_count_batch(rows, (b - a) / 2.0)
        assert np.all(n_ab <= 2 * n_j)

    def test_mean_drift_read_from_the_clipped_profile(self, rot8):
        f = RNG(25).uniform(-2, 2, 8)
        radii = [1.0, 2.0]
        with pytest.warns(UserWarning, match="clipped"):
            rep = tail_experiment(rot8, f, radii, lam=0.1)
        g = np.clip(f, -1, 1)
        rows = action_profile(rot8, g, radii)
        mu = uniform(8)
        mean = (mu * g).sum()
        drift = max(abs((row * mu).sum() - mean) for row in rows)
        assert rep.mean_drift == drift
        assert rep.mean_drift <= 1e-12
        assert "mean_drift" not in rep.to_json()

    def test_to_json(self, rot8):
        rng = RNG(24)
        f = rng.uniform(-1, 1, 8)
        rep = tail_experiment(rot8, f, [1.0, 2.0], lam=0.1)
        blob = rep.to_json()
        json.dumps(blob)
        assert blob["kind"] == "jump"


class TestConvergence:
    def test_constant_zero_distance(self, rot8):
        rep = convergence_probe(rot8, np.full(8, 1.25), [1.0, 2.0])
        assert rep.distances == (0.0, 0.0)

    def test_ergodic_rotation_full_period_exact(self):
        system = build_system("rotation", modulus=16, step=1)
        rng = RNG(31)
        # signs sum exactly, so the full-ball average and the orbit mean
        # are the same dyadic rational and the distance is literally zero
        f = rng.choice([-1.0, 1.0], size=16)
        rep = convergence_probe(system, f, [1.0, 2.0, 4.0, 16.0, 32.0])
        assert rep.n_orbits == 1
        assert rep.distances[-1] == 0.0
        assert rep.distances[-2] == 0.0
        assert any("beyond the safe radius" in n for n in rep.notes)

    def test_generic_values_reach_orbit_mean_within_rounding(self):
        system = build_system("rotation", modulus=16, step=1)
        rng = RNG(33)
        f = rng.standard_normal(16)
        rep = convergence_probe(system, f, [1.0, 4.0, 16.0])
        assert rep.distances[-1] <= 1e-14

    def test_non_ergodic_limit_is_orbit_mean(self):
        system = build_system("rotation", modulus=12, step=3)
        rng = RNG(32)
        f = rng.integers(-3, 4, size=12).astype(float)
        rep = convergence_probe(system, f, [1.0, 2.0, 12.0])
        assert rep.n_orbits == 3
        assert rep.distances[-1] == 0.0
        # the limit differs from the global mean unless f conspires
        orbit_means = system.orbit_means(f)
        assert np.abs(orbit_means - f.mean()).max() > 1e-6

    def test_distances_reflect_orbit_projection(self):
        system = build_system("rotation", modulus=12, step=3)
        f = np.arange(12.0) / 12.0
        rows = action_profile(system, f, [2.0])
        target = system.orbit_means(f)
        rep = convergence_probe(system, f, [2.0])
        assert rep.distances[0] == pytest.approx(
            np.abs(rows[0] - target).max(), abs=0)

    def test_probe_computes_orbit_labels_once(self, monkeypatch):
        system = build_system("rotation", modulus=12, step=3)
        calls = []
        real = system._generator_indices

        def counted():
            calls.append(1)
            return real()

        # orbit_labels asks for the generators once per computation
        monkeypatch.setattr(system, "_generator_indices", counted)
        convergence_probe(system, np.arange(12.0), [1.0, 2.0])
        convergence_probe(system, np.ones(12), [1.0])
        assert len(calls) == 1
        labels = system.orbit_labels()
        assert labels is system.orbit_labels()
        assert not labels.flags.writeable

    @pytest.mark.parametrize("kind, n, steps, m", ROTATIONS)
    def test_orbit_labels_match_union_find(self, kind, n, steps, m):
        system = rotation(kind, n, steps, m)
        assert np.array_equal(system.orbit_labels(), union_find_labels(system))

    def test_orbit_labels_of_h3_match_union_find(self):
        system = build_system("heisenberg", modulus=4)
        labels = system.orbit_labels()
        assert np.array_equal(labels, union_find_labels(system))
        assert np.array_equal(labels, np.zeros(64))

    def test_regular_action_single_orbit(self, z64):
        system = regular_system(z64)
        assert len(np.unique(system.orbit_labels())) == 1

    def test_json(self, rot8):
        # `experiment.json` writes the report's fields as they are
        rep = convergence_probe(rot8, np.arange(8.0), [1.0, 2.0])
        json.dumps(dataclasses.asdict(rep))


class TestStreamedExperiments:
    """The experiments fold their profile one radius at a time: every
    count, tail, distance and the drift is bitwise the one computed from
    the collected profile, and the entry points agree with each other bit
    for bit."""

    RADII = [float(r) for r in range(1, 70)]

    # (modulus, step, scale of a uniform draw or None for a gaussian one,
    # threshold); on 1000 states the tails and the drift tell the
    # renormalised weights from plain 1/n ones
    @pytest.mark.parametrize("modulus, step, scale, threshold", [
        pytest.param(1024, 1, scale, threshold, id=f"{scale}-threshold{i}")
        for scale in (1.0, 1.5)
        for i, threshold in enumerate([{"lam": 0.2},
                                       {"upcross": (-0.1, 0.2)}])] + [
        pytest.param(1000, 7, None, {"lam": 0.1}, id="z1000-gaussian")])
    def test_chunks_match_the_collected_profile(self, modulus, step, scale,
                                                threshold):
        system = build_system("rotation", modulus=modulus, step=step)
        rng = RNG(40)
        f = (rng.standard_normal(modulus) if scale is None
             else rng.uniform(-scale, scale, modulus))
        f[::7] = 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tail, conv = tail_and_convergence(system, f, self.RADII,
                                              **threshold)
            alone = tail_experiment(system, f, self.RADII, **threshold)
        assert alone == tail
        assert convergence_probe(system, f, self.RADII) == conv
        g = np.clip(f, -1, 1)
        rows = action_profile(system, g, self.RADII)
        if "lam" in threshold:
            counts = jump_count_batch(rows, threshold["lam"])
        else:
            counts = upcrossing_count_batch(rows, *threshold["upcross"])
        mu = uniform(modulus)
        want = [float(mu[counts > n].sum())
                for n in range(int(counts.max()) + 1)]
        assert list(tail.tails) == want
        mean = (mu * g).sum()
        assert tail.mean_drift == max(abs((row * mu).sum() - mean)
                                      for row in rows)
        raw = action_profile(system, f, self.RADII)
        dists = np.abs(raw - system.orbit_means(f)).max(axis=1)
        assert conv.distances == tuple(float(x) for x in dists)

    def test_experiment_memory_is_bounded_by_the_folds(self):
        # the ergodic-rot experiment: 256 radii of 16384 states would be a
        # 32 MiB profile, and collecting it peaked near 97 MiB; a sweep
        # chunk of 32 radii peaked at 8.7 MiB, the one-row folds near 4.7
        system = build_system("rotation", modulus=16384, step=1)
        f = RNG(42).choice([-1.0, 1.0], 16384)
        radii = [float(r) for r in range(1, 257)]
        tracemalloc.start()
        try:
            tail, conv = tail_and_convergence(system, f, radii, lam=0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        assert len(conv.distances) == 256 and tail.fitted
