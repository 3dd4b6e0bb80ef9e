"""Full OPF evaluation pipeline and the master/worker contract.

One individual's evaluation is: coupled power flow, objectives, base
constraint report, screening of the critical contingency set, then a
corrective-feasibility check per critical contingency whose residual is
folded into the violation total.  The outage variants of the case are
built once per run, and a check applies the individual's controls to
one of them, which gives the outage variant of the individual's own
network without rebuilding its topology.  Evaluations are pure, so the
coordinator fans them out over a process pool; results are reduced in
task order, which keeps runs bit-reproducible for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import opfcore, screen
from .netmodel import ControlSpace, Network, apply_contingency
from .opfcore import CorrectiveLimits

# an uncorrectable contingency adds 1 plus its capped residual, so a sound
# base point with one bad outage still beats a diverged genome
RESIDUAL_CAP = 10.0
# base-infeasible points skip contingency checks; the surcharge must
# exceed any possible contingency total so the skip never pays off
SKIP_SURCHARGE = 300.0


@dataclass
class CorrectiveConfig:
    fraction: float = 0.15
    max_probes: int = opfcore.MAX_PROBES
    tol_feas: float = opfcore.TOL_FEAS
    include_discrete: bool = True


class _EvalContext:
    """Everything one evaluation needs, built once and shared by the pool."""

    def __init__(self, net: Network, model: screen.ScreeningModel | None,
                 corrective: CorrectiveConfig):
        self.net = net
        self.space = ControlSpace(net)
        self.model = model
        self.corrective = corrective
        self.lims = CorrectiveLimits.from_fraction(self.space,
                                                   corrective.fraction)
        self.outages = {k: apply_contingency(net, k)
                        for k in net.contingencies}

    def evaluate(self, genome) -> dict:
        u = np.asarray(genome, dtype=float)
        res = opfcore.evaluate(self.net, self.space, u)
        violation = res.report.total_violation
        meta = {"base_violation": violation}
        cstar_labels: list[str] = []
        residuals: dict[str, float] = {}
        if res.state.converged and violation > self.corrective.tol_feas:
            violation += SKIP_SURCHARGE
        if res.state.converged and violation <= self.corrective.tol_feas:
            if self.model is not None:
                cstar = screen.filter_contingencies(self.model, self.net,
                                                    res.u)
            else:
                cstar = list(self.net.contingencies)
            for k in cstar:
                cstar_labels.append(k.label)
                # the check's first probe applies ``res.u`` to the outage
                # variant of the case
                check = opfcore.corrective_feasibility(
                    res.net, self.space, res.u, k, self.lims,
                    net_k=self.outages[k], base_state=res.state,
                    max_probes=self.corrective.max_probes,
                    tol_feas=self.corrective.tol_feas,
                    include_discrete=self.corrective.include_discrete)
                if not check.feasible:
                    residuals[k.label] = check.residual
                    violation += 1.0 + min(check.residual, RESIDUAL_CAP)
        meta["cstar"] = cstar_labels
        meta["infeasible_contingencies"] = residuals
        return {"objectives": res.objectives, "violation": violation,
                "meta": meta}


_WORKER_CTX: _EvalContext | None = None


def _worker_init(ctx: _EvalContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_eval(genome: list) -> dict:
    return _WORKER_CTX.evaluate(genome)


class OpfProblem:
    """Problem adapter handed to :func:`acdcopf.evo.run`.

    Owns the evaluation context and, for ``workers > 1``, a pool of
    ``workers`` evaluator processes: ``workers`` is the number of
    processes that evaluate.  A batch goes entirely to the pool; the
    coordinating process only reduces the records in task order.  Use as
    a context manager.
    """

    def __init__(self, net: Network, model: screen.ScreeningModel | None,
                 corrective: CorrectiveConfig | None = None,
                 workers: int = 1):
        self.corrective = corrective or CorrectiveConfig()
        self._ctx = _EvalContext(net, model, self.corrective)
        self.space = self._ctx.space
        self.workers = max(1, int(workers))
        self._pool = None
        if self.workers > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init, initargs=(self._ctx,))

    def _mid_dispatch_seed(self) -> np.ndarray:
        """Generic relieved schedule: every dispatchable generator at the
        middle of its range, converter transfers halved, everything else
        at the case defaults."""
        u = self.space.default_vector().copy()
        for i, comp in enumerate(self.space.components):
            if comp.kind == "p_g":
                u[i] = 0.5 * (comp.lo + comp.hi)
            elif comp.kind in ("p_s", "q_s"):
                u[i] = 0.5 * comp.base
        return u

    def initial_genomes(self, config, rng: np.random.Generator) -> list:
        """Scheduled point, a generic mid-range dispatch point, perturbation
        clouds around both, and uniform samples over the full box.

        Corrective operation starts from the present schedule; seeding its
        neighbourhood (and one deliberately relieved dispatch) gives the
        constraint-driven selection a usable gradient long before uniform
        samples stumble on sound settings.
        """
        space = self.space
        seeds = [space.default_vector(), self._mid_dispatch_seed()]
        genomes = list(seeds)
        span = space.hi - space.lo
        n_local = (config.population - len(genomes)) // 2
        for j in range(n_local):
            centre = seeds[j % len(seeds)]
            genomes.append(centre + rng.normal(0.0, 0.08, len(space)) * span)
        while len(genomes) < config.population:
            genomes.append(rng.uniform(space.lo, space.hi))
        return genomes[:config.population]

    def evaluate_batch(self, genomes: list) -> list[dict]:
        if not genomes:
            return []
        if self._pool is None:
            return [self._ctx.evaluate(g) for g in genomes]
        payload = [np.asarray(g, dtype=float).tolist() for g in genomes]
        chunk = max(1, math.ceil(len(payload) / (4 * self.workers)))
        return list(self._pool.map(_worker_eval, payload, chunksize=chunk))

    def evaluate_one(self, genome) -> dict:
        return self._ctx.evaluate(genome)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "OpfProblem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
