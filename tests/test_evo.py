"""Indicator fitness, selections, variation, archive and the full loop."""

import math

import numpy as np
import pytest

from acdcopf import evo
from acdcopf.evo import (ETA_CROSSOVER, ETA_MUTATION, EvoConfig, Individual,
                         ParetoArchive, dominates, environmental_selection,
                         epsilon_indicator, hypervolume_2d, ibea_fitness,
                         mating_selection, normalize_objectives,
                         polynomial_mutation, sbx_pair, variation)

from oracles import eps_indicator_bruteforce, ibea_fitness_bruteforce


def make_pop(objs, violations=None):
    violations = violations or [0.0] * len(objs)
    return [Individual(id=i, genome=np.array([float(i)]), objectives=tuple(o),
                       violation=v)
            for i, (o, v) in enumerate(zip(objs, violations))]


class SyntheticSpace:
    """Box problem space compatible with the variation operators."""

    def __init__(self, lo, hi, step=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.step = (np.zeros_like(self.lo) if step is None
                     else np.asarray(step, dtype=float))

    def __len__(self):
        return len(self.lo)

    def snap(self, u):
        u = np.clip(np.asarray(u, dtype=float), self.lo, self.hi)
        mask = self.step > 0
        if mask.any():
            k = np.round((u[mask] - self.lo[mask]) / self.step[mask])
            u[mask] = np.minimum(self.lo[mask] + k * self.step[mask],
                                 self.hi[mask])
        return u


class TestEpsilonIndicator:
    def test_self_comparison_zero(self):
        assert epsilon_indicator([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_hand_values(self):
        a1, a2 = [1.0, 2.0], [3.0, 1.0]
        assert epsilon_indicator([a1], [a2]) == 1.0
        assert epsilon_indicator([a2], [a1]) == 2.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            d = rng.integers(2, 4)
            a = rng.uniform(0, 1, size=(rng.integers(1, 6), d))
            b = rng.uniform(0, 1, size=(rng.integers(1, 6), d))
            assert epsilon_indicator(a, b) == \
                pytest.approx(eps_indicator_bruteforce(a, b), abs=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            epsilon_indicator(np.empty((0, 2)), [[1.0, 2.0]])


class TestIbeaFitness:
    def test_singleton_zero(self):
        pop = make_pop([[0.3, 0.7]])
        fv = ibea_fitness(pop, 0.05)
        assert fv[0] == 0.0

    def test_two_member_hand_values(self):
        # normalized objectives of (1,2) and (3,1) are (0,1) and (1,0)
        pop = make_pop([[1.0, 2.0], [3.0, 1.0]])
        fv = ibea_fitness(pop, 0.05)
        assert fv[0] == pytest.approx(-math.exp(-1.0 / 0.05), rel=1e-12)
        assert fv[1] == pytest.approx(-math.exp(-1.0 / 0.05), rel=1e-12)
        # on raw (unnormalized) objectives the published hand values hold
        raw = np.array([[1.0, 2.0], [3.0, 1.0]])
        ind = evo.pairwise_indicator(raw)
        fv_raw = -np.exp(-ind / 0.05)
        np.fill_diagonal(fv_raw, 0.0)
        fv_raw = fv_raw.sum(axis=0)
        assert fv_raw[0] == pytest.approx(-math.exp(-40.0), abs=1e-30)
        assert fv_raw[1] == pytest.approx(-math.exp(-20.0), abs=1e-12)
        assert fv_raw[0] > fv_raw[1]

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            objs = rng.uniform(0, 1, size=(rng.integers(2, 7), 2))
            pop = make_pop(objs.tolist())
            fv = ibea_fitness(pop, 0.05)
            norm = normalize_objectives(objs)
            oracle = ibea_fitness_bruteforce(norm.tolist(), 0.05)
            np.testing.assert_allclose(fv, oracle, rtol=1e-12, atol=1e-300)

    def test_dominance_implies_greater_fitness(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            objs = rng.uniform(0, 1, size=(6, 2))
            pop = make_pop(objs.tolist())
            fv = ibea_fitness(pop, 0.05)
            for i in range(6):
                for j in range(6):
                    if i != j and np.all(objs[i] < objs[j]):
                        assert fv[i] > fv[j]
                        checked += 1

    def test_kappa_positive_required(self):
        with pytest.raises(ValueError):
            ibea_fitness(make_pop([[0, 1]]), 0.0)


class TestEnvironmentalSelection:
    def test_noop_at_size(self):
        pop = make_pop([[0, 1], [1, 0]])
        assert environmental_selection(pop, 2, 0.05) == pop

    def test_dominated_member_removed_first(self):
        pop = make_pop([[0.1, 0.1], [0.9, 0.9], [0.0, 1.0]])
        survivors = environmental_selection(pop, 2, 0.05)
        ids = {ind.id for ind in survivors}
        assert 1 not in ids        # (0.9, 0.9) is dominated by (0.1, 0.1)

    def test_violation_removed_before_fitness(self):
        pop = make_pop([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]],
                       violations=[0.0, 0.0, 7.0])
        survivors = environmental_selection(pop, 2, 0.05)
        assert all(ind.violation == 0.0 for ind in survivors)

    def test_tie_broken_by_lowest_id(self):
        pop = make_pop([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
        survivors = environmental_selection(pop, 2, 0.05)
        ids = sorted(ind.id for ind in survivors)
        assert ids == [1, 2]       # of the tied pair, the lower id leaves

    def test_incremental_update_consistent(self):
        rng = np.random.default_rng(24)
        objs = rng.uniform(0, 1, size=(8, 2))
        pop = make_pop(objs.tolist())
        survivors = environmental_selection(pop, 4, 0.05)
        # surviving fitness values equal a fresh evaluation on the survivors
        # relative to the *original* normalization, recomputed brute force
        norm = normalize_objectives(objs)
        keep = [ind.id for ind in survivors]
        for ind in survivors:
            fv = 0.0
            for j in keep:
                if j == ind.id:
                    continue
                fv += -math.exp(-eps_indicator_bruteforce(
                    [norm[j]], [norm[ind.id]]) / 0.05)
            assert ind.fitness == pytest.approx(fv, rel=1e-10)


class TestMatingSelection:
    def test_feasible_beats_infeasible(self):
        # the feasible member wins every tournament it enters; it misses
        # only the (infeasible, infeasible) draws, about a quarter of them
        pop = make_pop([[0, 0], [1, 1]], violations=[3.0, 0.0])
        ibea_fitness(pop, 0.05)
        rng = np.random.default_rng(25)
        pool = mating_selection(pop, 4000, rng)
        share = sum(ind.id == 1 for ind in pool) / 4000
        assert 0.70 < share < 0.80

    def test_uniform_under_full_ties(self):
        pop = make_pop([[0.5, 0.5]] * 4)
        for ind in pop:
            ind.fitness = -1.0
        rng = np.random.default_rng(26)
        pool = mating_selection(pop, 8000, rng)
        counts = np.bincount([ind.id for ind in pool], minlength=4)
        assert np.all(np.abs(counts - 2000) < 200)

    def test_seeded_reproducibility(self):
        pop = make_pop([[0.2, 0.8], [0.8, 0.2], [0.5, 0.5]])
        ibea_fitness(pop, 0.05)
        ids_a = [i.id for i in mating_selection(pop, 20,
                                                np.random.default_rng(9))]
        ids_b = [i.id for i in mating_selection(pop, 20,
                                                np.random.default_rng(9))]
        assert ids_a == ids_b


class TestVariation:
    def test_zero_rates_copy_parents(self, monkeypatch):
        space = SyntheticSpace([0.0, 0.0], [1.0, 1.0])
        genome = np.array([0.25, 0.75])
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(
            polynomial_mutation(genome, 0.0, ETA_MUTATION, space.lo,
                                space.hi, rng), genome)
        # without crossover each parent passes on to mutation unchanged
        monkeypatch.setattr(evo, "CROSSOVER_RATE", 0.0)
        monkeypatch.setattr(evo, "polynomial_mutation",
                            lambda g, *args: g.copy())
        pool = make_pop([[0, 0], [1, 1]])
        pool[0].genome = genome
        pool[1].genome = np.array([0.5, 0.5])
        children = variation(pool, space, rng)
        np.testing.assert_array_equal(children[0], pool[0].genome)
        np.testing.assert_array_equal(children[1], pool[1].genome)

    def test_children_respect_bounds_and_grids(self, monkeypatch):
        # every pair crosses over, and each of the two genes mutates with
        # probability 1/2
        monkeypatch.setattr(evo, "CROSSOVER_RATE", 1.0)
        space = SyntheticSpace([0.0, 0.9], [1.0, 1.1], step=[0.0, 0.0125])
        pool = make_pop([[0, 0]] * 10)
        rng = np.random.default_rng(2)
        for ind in pool:
            ind.genome = rng.uniform(space.lo, space.hi)
        children = variation(pool, space, rng)
        for child in children:
            assert np.all(child >= space.lo - 1e-12)
            assert np.all(child <= space.hi + 1e-12)
            k = (child[1] - 0.9) / 0.0125
            assert abs(k - round(k)) < 1e-9

    def test_sbx_symmetric_about_midpoint(self):
        space = SyntheticSpace([0.0], [1.0])
        rng = np.random.default_rng(3)
        samples = []
        for _ in range(5000):
            children = sbx_pair(np.array([0.0]), np.array([1.0]),
                                ETA_CROSSOVER, space.lo, space.hi, rng)
            samples.extend(c[0] for c in children)
        mean = float(np.mean(samples))
        sem = float(np.std(samples)) / math.sqrt(len(samples))
        assert abs(mean - 0.5) < 3 * sem + 1e-3


class TestArchive:
    def test_rejects_dominated_candidate(self):
        archive = ParetoArchive(capacity=10)
        archive.offer(make_pop([[0.0, 0.0]]))
        before = list(archive.members)
        archive.offer(make_pop([[0.5, 0.5]]))
        assert archive.members == before

    def test_rejects_infeasible(self):
        archive = ParetoArchive(capacity=10)
        archive.offer(make_pop([[0.0, 0.0]], violations=[2.0]))
        assert not archive.members

    def test_removes_newly_dominated(self):
        archive = ParetoArchive(capacity=10)
        archive.offer(make_pop([[1.0, 1.0]]))
        archive.offer(make_pop([[0.5, 0.5]]))
        assert len(archive.members) == 1
        assert archive.members[0].objectives == (0.5, 0.5)

    def test_capacity_enforced(self):
        archive = ParetoArchive(capacity=5)
        objs = [[i / 10, 1 - i / 10] for i in range(10)]
        archive.offer(make_pop(objs))
        archive.maintain()
        assert len(archive.members) == 5
        assert_mutually_nondominated(archive.members)

    def test_mutual_nondomination_random_streams(self):
        rng = np.random.default_rng(31)
        archive = ParetoArchive(capacity=8)
        next_id = iter(range(10000))
        for _ in range(30):
            batch = []
            for _ in range(6):
                f = tuple(rng.uniform(0, 1, 2))
                batch.append(Individual(id=next(next_id),
                                        genome=np.zeros(1), objectives=f,
                                        violation=0.0))
            archive.offer(batch)
            archive.maintain()
            assert_mutually_nondominated(archive.members)
            assert len(archive.members) <= 8

    def test_hypervolume_monotone_without_truncation(self):
        rng = np.random.default_rng(32)
        archive = ParetoArchive(capacity=1000)     # never truncates
        next_id = iter(range(10000))
        prev = 0.0
        for _ in range(50):
            f = tuple(rng.uniform(0, 1, 2))
            archive.offer([Individual(id=next(next_id), genome=np.zeros(1),
                                      objectives=f, violation=0.0)])
            hv = hypervolume_2d(archive.objectives(), ref=(1.5, 1.5))
            assert hv >= prev - 1e-12
            prev = hv

    def test_hypervolume_hand_value(self):
        objs = np.array([[0.5, 1.0], [1.0, 0.5]])
        # two unit-corner boxes against (1.5, 1.5) overlapping in one square
        assert hypervolume_2d(objs, (1.5, 1.5)) == pytest.approx(0.75)


def assert_mutually_nondominated(members):
    for a in members:
        for b in members:
            if a is not b:
                assert not dominates(a.objectives, b.objectives)


class SyntheticProblem:
    """Biobjective box problem with an analytic trade-off front.

    f1 = x0, f2 = 1 - x0 + sum(x_i^2 for i > 0); violation measures the
    distance of x0 from [0.2, 0.8] so a feasibility band exists.
    """

    def __init__(self, dims=4):
        self.space = SyntheticSpace([0.0] * dims, [1.0] * dims)

    def initial_genomes(self, config, rng):
        return [rng.uniform(self.space.lo, self.space.hi)
                for _ in range(config.population)]

    def evaluate_batch(self, genomes):
        out = []
        for g in genomes:
            g = np.asarray(g, dtype=float)
            f1 = float(g[0])
            f2 = float(1.0 - g[0] + np.sum(g[1:] ** 2))
            violation = float(max(0.0, 0.2 - g[0]) + max(0.0, g[0] - 0.8))
            out.append({"objectives": (f1, f2), "violation": violation,
                        "meta": {}})
        return out


class TestRun:
    def test_zero_iterations_returns_initial_front(self):
        problem = SyntheticProblem()
        cfg = EvoConfig(population=20, iterations=0, seed=5)
        archive = evo.run(problem, cfg)
        assert archive.members
        assert_mutually_nondominated(archive.members)
        assert all(m.feasible for m in archive.members)

    def test_front_improves_and_spreads(self):
        problem = SyntheticProblem()
        cfg = EvoConfig(population=30, iterations=60, seed=6)
        progress = []
        archive = evo.run(problem, cfg, progress=progress)
        assert len(archive.members) >= 10
        f1 = sorted(m.objectives[0] for m in archive.members)
        assert f1[0] < 0.25 and f1[-1] > 0.7
        # the bulk of the archive approaches the analytic front f2 = 1 - f1
        # (fresh extreme points may still carry unconverged tail genes)
        gaps = sorted(m.objectives[1] - (1.0 - m.objectives[0])
                      for m in archive.members)
        assert gaps[len(gaps) // 2] < 0.05
        assert all(g > -1e-9 for g in gaps)
        assert progress[0].generation == 0
        assert progress[-1].generation == 60

    def test_seeded_determinism(self):
        cfg = EvoConfig(population=16, iterations=6, seed=7)
        a = evo.run(SyntheticProblem(), cfg)
        b = evo.run(SyntheticProblem(), cfg)
        fa = [m.objectives for m in a.members]
        fb = [m.objectives for m in b.members]
        assert fa == fb

    def test_infeasible_run_flagged(self):
        class Hopeless(SyntheticProblem):
            def evaluate_batch(self, genomes):
                recs = super().evaluate_batch(genomes)
                for rec in recs:
                    rec["violation"] = 5.0
                return recs

        cfg = EvoConfig(population=10, iterations=2, seed=8)
        archive = evo.run(Hopeless(), cfg)
        assert not archive.members

    def test_normalization_argmin_invariance(self):
        # scaling one objective by a positive constant leaves the
        # sequence of environmental-selection survivors unchanged
        rng = np.random.default_rng(33)
        objs = rng.uniform(0, 1, size=(10, 2))
        scaled = objs * np.array([1000.0, 1.0])
        a = environmental_selection(make_pop(objs.tolist()), 5, 0.05)
        b = environmental_selection(make_pop(scaled.tolist()), 5, 0.05)
        assert [i.id for i in a] == [i.id for i in b]
