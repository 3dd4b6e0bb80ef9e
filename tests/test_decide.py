"""Fuzzy clustering and grey relational projection ranking."""

import numpy as np
import pytest

from acdcopf.decide import fcm_cluster, grp_rank, select_bcs

from oracles import grp_oracle


class TestFcm:
    def test_membership_rows_sum_to_one(self):
        rng = np.random.default_rng(41)
        points = rng.uniform(0, 1, size=(25, 2))
        result = fcm_cluster(points, n_clusters=2, seed=1)
        np.testing.assert_allclose(result.memberships.sum(axis=1), 1.0,
                                   atol=1e-12)
        assert np.all(result.memberships >= 0)
        assert np.all(result.memberships <= 1)

    def test_separable_groups(self):
        rng = np.random.default_rng(42)
        a = rng.normal([0, 0], 0.05, size=(15, 2))
        b = rng.normal([5, 5], 0.05, size=(15, 2))
        points = np.vstack([a, b])
        result = fcm_cluster(points, n_clusters=2, seed=2)
        labels = np.argmax(result.memberships, axis=1)
        assert len(set(labels[:15])) == 1
        assert len(set(labels[15:])) == 1
        assert labels[0] != labels[15]
        assert np.all(result.memberships.max(axis=1) > 0.9)

    def test_point_at_center_hard_membership(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        result = fcm_cluster(points, n_clusters=2, seed=3)
        for i in range(len(points)):
            d = np.linalg.norm(result.centers - points[i], axis=1)
            if np.any(d < 1e-9):
                row = result.memberships[i]
                assert row.max() == pytest.approx(1.0)
                assert row.min() == pytest.approx(0.0)

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(43)
        points = rng.uniform(0, 1, size=(40, 2))
        result = fcm_cluster(points, n_clusters=3, seed=4)
        hist = result.loss_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    def test_cluster_relabel_symmetry(self):
        # different seedings converge to the same memberships up to a
        # permutation of the cluster indices
        rng = np.random.default_rng(44)
        points = np.vstack([rng.normal([0, 0], 0.1, size=(10, 2)),
                            rng.normal([3, 3], 0.1, size=(10, 2))])
        r1 = fcm_cluster(points, n_clusters=2, seed=5)
        r2 = fcm_cluster(points, n_clusters=2, seed=17)
        direct = np.abs(r1.memberships - r2.memberships).max()
        swapped = np.abs(r1.memberships - r2.memberships[:, ::-1]).max()
        assert min(direct, swapped) < 1e-6

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fcm_cluster(np.array([[0.0, 0.0]]), n_clusters=2)



class TestGrp:
    def test_identical_pair_equal_scores(self):
        d = grp_rank([[2.0, 3.0], [2.0, 3.0]])
        assert d[0] == d[1]
        assert np.all((0.0 <= d) & (d <= 1.0))

    def test_three_point_instance_matches_oracle(self):
        points = [[0.0, 1.0], [1.0, 0.0], [0.2, 0.2]]
        d = grp_rank(points, weights=(0.5, 0.5))
        oracle = grp_oracle(points, (0.5, 0.5))
        np.testing.assert_allclose(d, oracle, atol=1e-10)

    def test_scores_unit_interval_random(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            points = rng.uniform(0, 10, size=(rng.integers(2, 9), 2))
            d = grp_rank(points)
            assert np.all(d >= 0.0) and np.all(d <= 1.0)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(46)
        points = rng.uniform(0, 1, size=(6, 2))
        base = grp_rank(points)
        scaled = grp_rank(points * np.array([1e4, 1e-3])
                          + np.array([7.0, -2.0]))
        assert np.argmax(base) == np.argmax(scaled)
        np.testing.assert_allclose(base, scaled, atol=1e-9)

    def test_two_point_dominance_strict(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            good = rng.uniform(0, 1, 2)
            bad = good + rng.uniform(0.05, 1.0, 2)
            d = grp_rank([good.tolist(), bad.tolist()])
            assert d[0] > d[1]

    def test_constant_objective_degenerate(self):
        d = grp_rank([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        assert np.all((0.0 <= d) & (d <= 1.0))
        assert d[0] == d.max()      # first objective still discriminates

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            points = rng.uniform(0, 5, size=(rng.integers(2, 7), 2))
            mine = grp_rank(points)
            oracle = grp_oracle(points.tolist(), (0.5, 0.5))
            np.testing.assert_allclose(mine, oracle, atol=1e-10)


class TestSelectBcs:
    def test_two_point_archive(self):
        objectives = np.array([[1.0, 5.0], [2.0, 3.0]])
        selections = select_bcs(objectives, n_clusters=2, seed=1)
        chosen = sorted(s.member_index for s in selections)
        assert chosen == [0, 1]
        assert all(0.0 <= s.d <= 1.0 for s in selections)

    def test_opposite_leanings_on_synthetic_front(self):
        f1 = np.linspace(100.0, 200.0, 30)
        f2 = 1.0 / f1
        selections = select_bcs(np.column_stack([f1, f2]), n_clusters=2,
                                seed=2)
        assert len(selections) == 2
        a, b = (s.member_index for s in selections)
        assert (f1[a] - f1[b]) * (f2[a] - f2[b]) < 0

    def test_single_point_fallback(self):
        selections = select_bcs(np.array([[1.0, 2.0]]), n_clusters=2, seed=3)
        assert len(selections) == 1
        assert selections[0].member_index == 0

    def test_duplicate_argmax_tie_broken_by_f1(self):
        objectives = np.array([[3.0, 1.0], [3.0, 1.0], [1.0, 3.0],
                               [1.0, 3.0]])
        selections = select_bcs(objectives, n_clusters=2, seed=4)
        for sel in selections:
            tied = [i for i in range(4)
                    if np.allclose(objectives[i],
                                   objectives[sel.member_index])]
            assert sel.member_index == min(
                tied, key=lambda i: objectives[i, 0])

    def test_membership_row_attached(self):
        rng = np.random.default_rng(49)
        f1 = rng.uniform(0, 1, 12)
        objectives = np.column_stack([f1, 1 - f1])
        for sel in select_bcs(objectives, seed=5):
            assert sel.memberships.sum() == pytest.approx(1.0, abs=1e-12)
