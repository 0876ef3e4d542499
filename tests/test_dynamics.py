"""Tests for measure-preserving actions, transference, and tail experiments."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ergolab.dynamics import (
    ActionError,
    MPSystem,
    action_average,
    action_profile,
    build_system,
    convergence_probe,
    regular_system,
    tail_experiment,
    transference_check,
)
from ergolab.operators import avg_profile
from ergolab.space import build_group_space
from ergolab.stats import upcrossing_count_batch, jump_count_batch

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def z64():
    return build_group_space("zd", d=1, modulus=64)[0]


@pytest.fixture(scope="module")
def rot8():
    return build_system("rotation", modulus=8, step=1)


class TestConstruction:
    def test_rotation_is_valid(self, rot8):
        assert rot8.n_states == 8
        assert rot8.mu.sum() == pytest.approx(1.0)
        # generator (value 1) sends x to x+1
        gi = int(rot8.group.index_of([[1]])[0])
        assert np.array_equal(rot8.act_perm(gi), (np.arange(8) + 1) % 8)

    def test_regular_action_is_right_translation(self, z64):
        system = regular_system(z64)
        for j in (1, 5, 17):
            assert system.act_perm(j) is z64.right_perm(j)

    def test_heisenberg_kind(self):
        system = build_system("heisenberg", modulus=4)
        assert system.group.n == 64
        assert system.n_states == 64

    def test_rotation2d(self):
        system = build_system("rotation2d", modulus=8)
        assert system.n_states == 64
        # element (1, 0) shifts the first coordinate
        gi = int(system.group.index_of([[1, 0]])[0])
        perm = system.act_perm(gi)
        x = 3 * 8 + 5
        assert perm[x] == ((3 + 1) % 8) * 8 + 5

    def test_full_orbit_when_step_coprime(self):
        system = build_system("rotation", modulus=8, step=3)
        assert len(np.unique(system.orbit_labels())) == 1

    def test_orbits_split_when_step_shares_factor(self):
        system = build_system("rotation", modulus=12, step=3)
        labels = system.orbit_labels()
        assert len(np.unique(labels)) == 3
        assert np.array_equal(labels, np.arange(12) % 3)

    def test_incompatible_acting_modulus(self):
        with pytest.raises(ActionError, match="acting modulus"):
            build_system("rotation", modulus=12, step=1, acting_modulus=8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            build_system("shift", modulus=8)

    def test_non_bijective_map_rejected(self, z64):
        def broken(j):
            perm = np.array(z64.right_perm(j))
            if j != 0:
                perm[0] = perm[1]  # collapse two states
            return perm

        with pytest.raises(ActionError, match="bijectively"):
            MPSystem(z64, np.ones(64), broken)

    def test_measure_not_preserved_rejected(self):
        space, _ = build_group_space("zd", d=1, modulus=8)
        mu = np.ones(8)
        mu[0] = 5.0  # rotation moves the heavy state
        with pytest.raises(ActionError, match="preserve the measure"):
            MPSystem(space, mu, space.right_perm)

    def test_identity_must_fix_everything(self, z64):
        def broken(j):
            if j == 0:
                return (np.arange(64) + 1) % 64
            return z64.right_perm(j)

        with pytest.raises(ActionError, match="identity"):
            MPSystem(z64, np.ones(64), broken)

    def test_homomorphism_violation_detected(self, z64):
        rng = RNG(0)

        def broken(j):
            if j == 7:
                return rng.permutation(64)
            return z64.right_perm(j)

        with pytest.raises(ActionError, match="homomorphism"):
            MPSystem(z64, np.ones(64), broken, homomorphism_samples=400)


class TestMeasurePreservation:
    def test_generator_sums(self, rot8):
        rng = RNG(3)
        f = rng.standard_normal(8)
        for j in rot8._generator_indices():
            perm = rot8.act_perm(int(j))
            assert abs((rot8.mu * f[perm]).sum()
                       - (rot8.mu * f).sum()) <= 1e-12

    def test_mean_preserved_along_radii(self, rot8):
        rng = RNG(4)
        f = rng.standard_normal(8)
        rows = action_profile(rot8, f, [1.0, 2.0, 3.0, 4.0])
        base = (rot8.mu * f).sum()
        for row in rows:
            assert abs((rot8.mu * row).sum() - base) <= 1e-12


class TestAveraging:
    def test_constant_function_fixed(self, rot8):
        f = np.full(8, 2.5)
        out = action_average(rot8, f, 2.0)
        assert np.array_equal(out, f)

    def test_rotation_average_by_hand(self):
        system = build_system("rotation", modulus=8, step=1)
        f = np.zeros(8)
        f[0] = 1.0
        # ball of radius 1 in Z_8 = {-1, 0, 1}: average of three translates
        out = action_average(system, f, 1.0)
        expected = np.zeros(8)
        expected[[7, 0, 1]] = 1.0 / 3.0
        assert np.allclose(out, expected, atol=1e-15)

    def test_l1_contraction(self, rot8):
        rng = RNG(9)
        f = rng.standard_normal(8)
        out = action_average(rot8, f, 2.0)
        assert (rot8.mu * np.abs(out)).sum() <= (
            rot8.mu * np.abs(f)).sum() + 1e-12

    def test_full_ball_reaches_global_mean(self):
        system = build_system("rotation", modulus=9, step=1)
        rng = RNG(2)
        f = rng.standard_normal(9)
        with pytest.warns(UserWarning, match="safe radius"):
            out = action_average(system, f, 9.0)
        assert np.abs(out - f.mean()).max() <= 1e-12

    def test_safe_radius_warning(self, rot8):
        with pytest.warns(UserWarning, match="exceeds the safe radius"):
            action_average(rot8, np.ones(8), 5.0)

    def test_wrong_length_rejected(self, rot8):
        with pytest.raises(ValueError, match="one entry per state"):
            action_profile(rot8, np.ones(5), [1.0])


class TestTransference:
    def test_regular_action_zero_discrepancy_z64(self, z64):
        rng = RNG(11)
        f = rng.standard_normal(64)
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
        # not just within tolerance: the two pipelines share the sweep
        rng = RNG(13)
        f = rng.standard_normal(64)
        radii = [1.0, 3.0, 7.0, 15.0]
        system = regular_system(z64)
        act = action_profile(system, f, radii)
        trans = avg_profile(f, z64, radii)
        assert np.array_equal(act, trans)

    def test_report_json(self, z64):
        rng = RNG(14)
        f = rng.standard_normal(64)
        rep = transference_check(z64, f, [1.0, 2.0, 4.0])
        blob = rep.to_json()
        json.dumps(blob)
        assert blob["max_discrepancy"] == 0.0
        assert sum(blob["jump_histogram"].values()) == 64


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
        with pytest.warns(UserWarning, match="clipped"):
            rep = tail_experiment(rot8, f, [1.0, 2.0], lam=0.25)
        assert any("clipped" in n for n in rep.notes)

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

    def test_csv_and_json(self, rot8):
        rng = RNG(24)
        f = rng.uniform(-1, 1, 8)
        rep = tail_experiment(rot8, f, [1.0, 2.0], lam=0.1)
        csv = rep.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "n,tail"
        assert len(lines) == 1 + len(rep.ns)
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

    def test_regular_action_single_orbit(self, z64):
        system = regular_system(z64)
        assert len(np.unique(system.orbit_labels())) == 1

    def test_json(self, rot8):
        rep = convergence_probe(rot8, np.arange(8.0), [1.0, 2.0])
        json.dumps(rep.to_json())
