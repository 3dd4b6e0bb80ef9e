"""Parallel bi-criterion evolution with an indicator-based inner engine.

Two populations co-evolve: the working population is driven by additive
epsilon-indicator fitness (environmental and binary-tournament mating
selection, SBX crossover, polynomial mutation), while a bounded archive
of mutually non-dominated feasible individuals is maintained by
crowding-based niching.  Archive members without a nearby working-
population neighbour spawn exploration probes each generation.

:class:`EvoConfig` holds what a run sets: population, generations and
the seed.  The fitness scaling ``KAPPA``, the crossover probability
``CROSSOVER_RATE`` and the distribution indices ``ETA_CROSSOVER`` and
``ETA_MUTATION`` are module constants; a gene mutates with probability
``1/n`` for ``n`` controls.

Constraint handling is lexicographic: total violation first, fitness
second.  All randomness flows from one seeded generator owned by the
coordinator, and evaluation results are reduced in task order, so runs
are reproducible for any worker count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

FEAS_TOL = 1e-9
# indicator scaling of the fitness, the probability that a mating pair
# crosses over, and the distribution indices of SBX crossover and
# polynomial mutation: the standard IBEA and NSGA-II settings, which no
# run varies
KAPPA = 0.05
CROSSOVER_RATE = 0.9
ETA_CROSSOVER = 20.0
ETA_MUTATION = 20.0


@dataclass
class Individual:
    id: int
    genome: np.ndarray
    objectives: tuple[float, float] = (math.inf, math.inf)
    violation: float = math.inf
    fitness: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.violation <= FEAS_TOL


@dataclass
class EvoConfig:
    population: int = 100
    iterations: int = 50
    seed: int = 0


# ---------------------------------------------------------------------------
# Indicator and fitness


def epsilon_indicator(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Additive epsilon indicator I(A, B).

    Smallest shift epsilon such that every point of B is weakly dominated
    by some point of A shifted by epsilon (objectives minimized, same
    dimension).  For singletons this is ``max_i(a_i - b_i)``.
    """
    a = np.atleast_2d(np.asarray(set_a, dtype=float))
    b = np.atleast_2d(np.asarray(set_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("epsilon indicator of an empty set")
    if a.shape[1] != b.shape[1]:
        raise ValueError("objective dimensions differ")
    # diff[i, j] = max_k (a[i,k] - b[j,k]); then max_j min_i
    diff = np.max(a[:, None, :] - b[None, :, :], axis=2)
    return float(np.max(np.min(diff, axis=0)))


def normalize_objectives(objs: np.ndarray) -> np.ndarray:
    """Scale each objective to [0, 1] over the given set.

    Non-finite rows (unconverged evaluations) are mapped to 2.0, worse
    than any finite point; a constant objective maps to 0.
    """
    objs = np.asarray(objs, dtype=float)
    finite = np.all(np.isfinite(objs), axis=1)
    out = np.full(objs.shape, 2.0)
    if not np.any(finite):
        return out
    sub = objs[finite]
    lo = sub.min(axis=0)
    span = sub.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    out[finite] = (sub - lo) / span
    return out


def pairwise_indicator(norm_objs: np.ndarray) -> np.ndarray:
    """Matrix ind[j, i] = I({j}, {i}) over singleton individuals."""
    return np.max(norm_objs[:, None, :] - norm_objs[None, :, :], axis=2)


def ibea_fitness(pop: list[Individual], kappa: float,
                 *, indicator: np.ndarray | None = None) -> np.ndarray:
    """Exponential indicator fitness; larger is better.

    Assigns each member the sum of ``-exp(-I({other}, {member})/kappa)``
    over the rest of the population, on objectives normalized to the
    population range, and stores it on the individuals.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    objs = np.array([ind.objectives for ind in pop], dtype=float)
    if indicator is None:
        indicator = pairwise_indicator(normalize_objectives(objs))
    n = len(pop)
    expo = -np.exp(-indicator / kappa)
    np.fill_diagonal(expo, 0.0)
    fv = expo.sum(axis=0)
    for ind, f in zip(pop, fv):
        ind.fitness = float(f)
    return fv


def environmental_selection(pop: list[Individual], size: int,
                            kappa: float) -> list[Individual]:
    """Shrink to ``size`` by repeated worst-member removal.

    The victim is the member with the largest violation, or the smallest
    fitness when all remaining violations tie; removing a member adds its
    exponential term back onto the survivors (incremental update).  Ties
    break on the lowest id.
    """
    if len(pop) <= size:
        return list(pop)
    pop = list(pop)
    objs = np.array([ind.objectives for ind in pop], dtype=float)
    indicator = pairwise_indicator(normalize_objectives(objs))
    fv = ibea_fitness(pop, kappa, indicator=indicator)
    expo = np.exp(-indicator / kappa)
    alive = list(range(len(pop)))
    while len(alive) > size:
        viols = [pop[i].violation for i in alive]
        worst = max(viols)
        if worst > FEAS_TOL:
            victim_pos = min((i for i in alive
                              if pop[i].violation == worst),
                             key=lambda i: pop[i].id)
        else:
            best_min = min(fv[alive])
            victim_pos = min((i for i in alive if fv[i] == best_min),
                             key=lambda i: pop[i].id)
        alive.remove(victim_pos)
        fv[alive] += expo[victim_pos, alive]
    survivors = [pop[i] for i in alive]
    for ind, f in zip(survivors, fv[alive]):
        ind.fitness = float(f)
    return survivors


def _tournament_key(ind: Individual) -> tuple[float, float]:
    return (ind.violation, -ind.fitness)


def mating_selection(pop: list[Individual], size: int,
                     rng: np.random.Generator) -> list[Individual]:
    """Binary tournaments on (violation asc, fitness desc), with
    replacement; full ties keep the first pick, preserving uniformity."""
    picks = rng.integers(0, len(pop), size=(size, 2))
    pool = []
    for a, b in picks:
        ia, ib = pop[a], pop[b]
        pool.append(ib if _tournament_key(ib) < _tournament_key(ia) else ia)
    return pool


# ---------------------------------------------------------------------------
# Variation (SBX + polynomial mutation on the real-coded genome)


def sbx_pair(p1: np.ndarray, p2: np.ndarray, eta: float, lo: np.ndarray,
             hi: np.ndarray, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray]:
    c1, c2 = p1.copy(), p2.copy()
    for i in range(len(p1)):
        if rng.random() >= 0.5 or abs(p1[i] - p2[i]) < 1e-14:
            continue
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (eta + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
        v1 = 0.5 * ((1 + beta) * p1[i] + (1 - beta) * p2[i])
        v2 = 0.5 * ((1 - beta) * p1[i] + (1 + beta) * p2[i])
        c1[i] = min(max(v1, lo[i]), hi[i])
        c2[i] = min(max(v2, lo[i]), hi[i])
    return c1, c2


def polynomial_mutation(genome: np.ndarray, rate: float, eta: float,
                        lo: np.ndarray, hi: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    child = genome.copy()
    for i in range(len(genome)):
        if rng.random() >= rate:
            continue
        span = hi[i] - lo[i]
        if span <= 0:
            continue
        u = rng.random()
        d1 = (child[i] - lo[i]) / span
        d2 = (hi[i] - child[i]) / span
        if u < 0.5:
            delta = (2 * u + (1 - 2 * u) * (1 - d1) ** (eta + 1)) \
                ** (1.0 / (eta + 1)) - 1.0
        else:
            delta = 1.0 - (2 * (1 - u) + (2 * u - 1) * (1 - d2) ** (eta + 1)) \
                ** (1.0 / (eta + 1))
        child[i] = min(max(child[i] + delta * span, lo[i]), hi[i])
    return child


def variation(pool: list[Individual], space,
              rng: np.random.Generator) -> list[np.ndarray]:
    """Offspring genomes from a mating pool: SBX pairs, then mutation,
    then clamping and discrete snapping."""
    rate = 1.0 / max(1, len(space))
    genomes = []
    for j in range(0, len(pool) - 1, 2):
        p1, p2 = pool[j].genome, pool[j + 1].genome
        if rng.random() < CROSSOVER_RATE:
            c1, c2 = sbx_pair(p1, p2, ETA_CROSSOVER, space.lo, space.hi,
                              rng)
        else:
            c1, c2 = p1.copy(), p2.copy()
        genomes.extend([c1, c2])
    if len(pool) % 2:
        genomes.append(pool[-1].genome.copy())
    out = []
    for g in genomes:
        g = polynomial_mutation(g, rate, ETA_MUTATION, space.lo, space.hi,
                                rng)
        out.append(space.snap(g))
    return out


# ---------------------------------------------------------------------------
# Pareto archive


def dominates(f_a: tuple[float, float], f_b: tuple[float, float]) -> bool:
    return (f_a[0] <= f_b[0] and f_a[1] <= f_b[1]
            and (f_a[0] < f_b[0] or f_a[1] < f_b[1]))


class ParetoArchive:
    """Bounded archive of mutually non-dominated feasible individuals."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.members: list[Individual] = []
        # the first initial individual, kept by ``run`` whether or not it
        # is feasible
        self.start: Individual | None = None

    def offer(self, candidates: list[Individual]) -> int:
        """Insert feasible non-dominated candidates; returns acceptances."""
        accepted = 0
        for cand in sorted(candidates, key=lambda c: c.id):
            if not cand.feasible or not all(np.isfinite(cand.objectives)):
                continue
            if any(dominates(m.objectives, cand.objectives)
                   or m.objectives == cand.objectives for m in self.members):
                continue
            self.members = [m for m in self.members
                            if not dominates(cand.objectives, m.objectives)]
            self.members.append(cand)
            accepted += 1
        return accepted

    def maintain(self) -> None:
        """Truncate to capacity by removing the most crowded member
        (smallest normalized nearest-neighbour distance; ties on id)."""
        while len(self.members) > self.capacity:
            objs = np.array([m.objectives for m in self.members])
            norm = normalize_objectives(objs)
            d = np.linalg.norm(norm[:, None, :] - norm[None, :, :], axis=2)
            np.fill_diagonal(d, np.inf)
            nn = d.min(axis=1)
            order = sorted(range(len(self.members)),
                           key=lambda i: (nn[i], -self.members[i].id))
            del self.members[order[0]]

    def objectives(self) -> np.ndarray:
        return np.array([m.objectives for m in self.members])


def hypervolume_2d(objs: np.ndarray, ref: tuple[float, float]) -> float:
    """Dominated hypervolume of a 2-objective minimization set."""
    pts = [tuple(p) for p in np.atleast_2d(objs)
           if p[0] <= ref[0] and p[1] <= ref[1]]
    if not pts:
        return 0.0
    pts.sort()
    hv = 0.0
    prev_f2 = ref[1]
    for f1, f2 in pts:
        if f2 < prev_f2:
            hv += (ref[0] - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return hv


# ---------------------------------------------------------------------------
# One generation of the two-population scheme


def _individuals(genomes: list[np.ndarray], records: list[dict],
                 next_id) -> list[Individual]:
    """One individual per genome and its evaluation record, numbered in
    genome order."""
    return [Individual(id=next_id(), genome=g, objectives=rec["objectives"],
                       violation=rec["violation"], meta=rec.get("meta", {}))
            for g, rec in zip(genomes, records)]


def exploration_probes(archive: ParetoArchive, npc: list[Individual],
                       space, config: EvoConfig,
                       rng: np.random.Generator) -> list[np.ndarray]:
    """One mutated probe per archive member not represented in the
    working population's objective neighbourhood (radius 1/s).

    While the archive is still empty, the probe budget is spent on
    restarts instead: strong mutations of the least-violating member
    alternating with uniform redraws, which keeps global exploration
    alive if the working population collapses before finding anything
    feasible."""
    if not npc:
        return []
    if not archive.members:
        best = min(npc, key=lambda ind: (ind.violation, ind.id))
        probes = []
        for j in range(max(2, config.population // 10)):
            if j % 2 == 0:
                g = polynomial_mutation(best.genome, 4.0 / max(1, len(space)),
                                        2.0, space.lo, space.hi, rng)
            else:
                g = rng.uniform(space.lo, space.hi)
            probes.append(space.snap(g))
        return probes
    all_objs = np.array([m.objectives for m in archive.members]
                        + [m.objectives for m in npc])
    norm = normalize_objectives(all_objs)
    na = len(archive.members)
    arch_n, npc_n = norm[:na], norm[na:]
    radius = 1.0 / config.population
    probes = []
    for i, member in enumerate(archive.members):
        dist = np.min(np.linalg.norm(npc_n - arch_n[i], axis=1))
        if dist > radius:
            # twice the variation rate of 1/n
            g = polynomial_mutation(member.genome, 2.0 / len(space),
                                    ETA_MUTATION, space.lo, space.hi, rng)
            probes.append(space.snap(g))
    return probes


def bce_step(npc: list[Individual], archive: ParetoArchive, space,
             config: EvoConfig, rng: np.random.Generator, evaluate_batch,
             next_id) -> list[Individual]:
    """One generation: mate/vary the working population, spawn archive
    exploration probes, evaluate everything, update the archive under
    non-domination with niching maintenance, then apply environmental
    selection.  Returns the new working population."""
    ibea_fitness(npc, KAPPA)
    pool = mating_selection(npc, config.population, rng)
    offspring = variation(pool, space, rng)
    probes = exploration_probes(archive, npc, space, config, rng)
    genomes = offspring + probes
    newcomers = _individuals(genomes, evaluate_batch(genomes), next_id)
    archive.offer(newcomers)
    archive.maintain()
    return environmental_selection(npc + newcomers, config.population, KAPPA)


# ---------------------------------------------------------------------------
# Full run


@dataclass
class GenerationLog:
    generation: int
    best_f1: float
    best_f2: float
    archive_size: int
    feasible_fraction: float


def run(problem, config: EvoConfig,
        progress: list[GenerationLog] | None = None) -> ParetoArchive:
    """Evolve for the configured number of generations and return the
    archive (empty if no feasible point was ever found), with the
    evaluated first initial genome as ``archive.start``.

    ``problem`` supplies the control space, a batch evaluator and the
    initial genomes (see :class:`acdcopf.run.OpfProblem`)."""
    space = problem.space
    rng = np.random.default_rng(config.seed)
    counter = iter(range(10 ** 9))

    def next_id() -> int:
        return next(counter)

    genomes = [space.snap(g) for g in problem.initial_genomes(config, rng)]
    npc = _individuals(genomes, problem.evaluate_batch(genomes), next_id)
    archive = ParetoArchive(config.population)
    archive.start = npc[0]
    archive.offer(npc)
    archive.maintain()
    _log_generation(progress, 0, npc, archive)

    for gen in range(1, config.iterations + 1):
        npc = bce_step(npc, archive, space, config, rng,
                       problem.evaluate_batch, next_id)
        _log_generation(progress, gen, npc, archive)

    if not archive.members:
        log.warning("run produced no feasible individual")
    return archive


def _log_generation(progress, gen, npc, archive):
    if progress is None:
        return
    feas = [ind for ind in npc if ind.feasible]
    arch = archive.members
    best_f1 = min((m.objectives[0] for m in arch), default=math.inf)
    best_f2 = min((m.objectives[1] for m in arch), default=math.inf)
    progress.append(GenerationLog(
        generation=gen, best_f1=best_f1, best_f2=best_f2,
        archive_size=len(arch),
        feasible_fraction=len(feas) / max(1, len(npc))))
