"""Full-evaluation pipeline and the coordinator/worker contract."""

import multiprocessing
import os

import numpy as np
import pytest

from acdcopf import evo, run
from acdcopf.run import CorrectiveConfig, OpfProblem


@pytest.fixture(scope="module")
def problem(acdc_net, screening_model):
    with OpfProblem(acdc_net, screening_model, CorrectiveConfig(),
                    workers=1) as prob:
        yield prob


class TestEvaluation:
    def test_feasible_point_record(self, problem, acdc_space):
        u = acdc_space.default_vector()
        for name, val in (("P_G:bus2", 0.7), ("P_G:bus3", 0.7),
                          ("P_G:bus6", 0.5), ("P_G:bus8", 0.45),
                          ("P_s:VSC1", -0.3), ("P_s:VSC2", 0.35),
                          ("P_s:VSC3", -0.05)):
            u[acdc_space.index[name]] = val
        rec = problem.evaluate_one(u)
        assert rec["violation"] == 0.0
        assert rec["meta"]["base_violation"] == 0.0
        assert not rec["meta"]["infeasible_contingencies"]
        # the critical set always carries the three DC lines
        dc = [c for c in rec["meta"]["cstar"] if c.startswith("DC")]
        assert len(dc) == 3

    def test_uncorrectable_contingency_capped(self, problem, acdc_space):
        # the scheduled point is base-feasible but its heaviest outage
        # diverges beyond repair: counted as 1 + capped residual
        rec = problem.evaluate_one(acdc_space.default_vector())
        assert rec["meta"]["base_violation"] == 0.0
        assert rec["meta"]["infeasible_contingencies"]
        n_bad = len(rec["meta"]["infeasible_contingencies"])
        cap = run.RESIDUAL_CAP
        assert rec["violation"] <= n_bad * (1.0 + cap) + 1e-9
        assert rec["violation"] >= n_bad * 1.0

    def test_base_infeasible_surcharge(self, problem, acdc_space):
        u = acdc_space.default_vector()
        u[acdc_space.index["U_G:bus1"]] = 0.9    # depressed profile violates
        rec = problem.evaluate_one(u)
        if rec["meta"]["base_violation"] == 0.0:
            pytest.skip("constructed point unexpectedly feasible")
        assert not rec["meta"]["cstar"]
        assert rec["violation"] >= run.SKIP_SURCHARGE

    def test_initial_genomes_structure(self, problem, acdc_space):
        cfg = evo.EvoConfig(population=20, seed=3)
        genomes = problem.initial_genomes(cfg, np.random.default_rng(3))
        assert len(genomes) == 20
        np.testing.assert_array_equal(genomes[0],
                                      acdc_space.default_vector())
        mid = genomes[1]
        for i, comp in enumerate(acdc_space.components):
            if comp.kind == "p_g":
                assert mid[i] == pytest.approx(0.5 * (comp.lo + comp.hi))


# set by a test before its pool forks; evaluator processes inherit it
_BARRIER = None


def _meet_eval(genome):
    """Stands in for ``run._worker_eval``: returns only once a second
    evaluator process is inside it too."""
    _BARRIER.wait()
    return {"pid": os.getpid()}


class TestWorkerPool:
    def test_two_workers_evaluate_at_once(self, acdc_net, acdc_space,
                                          monkeypatch):
        monkeypatch.setitem(globals(), "_BARRIER",
                            multiprocessing.Barrier(2, timeout=5))
        monkeypatch.setattr(run, "_worker_eval", _meet_eval)
        u = acdc_space.default_vector()
        with OpfProblem(acdc_net, None, workers=2) as pooled:
            records = pooled.evaluate_batch([u, u])
        pids = {rec["pid"] for rec in records}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_pool_matches_inline_bitwise(self, acdc_net, screening_model,
                                         acdc_space):
        genomes = [acdc_space.default_vector()]
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = acdc_space.default_vector() \
                + rng.normal(0, 0.05, len(acdc_space)) \
                * (acdc_space.hi - acdc_space.lo)
            genomes.append(acdc_space.snap(g)[0])
        with OpfProblem(acdc_net, screening_model, CorrectiveConfig(),
                        workers=1) as serial:
            inline = serial.evaluate_batch(genomes)
        with OpfProblem(acdc_net, screening_model, CorrectiveConfig(),
                        workers=3) as pooled:
            remote = pooled.evaluate_batch(genomes)
        for a, b in zip(inline, remote):
            assert a["objectives"] == b["objectives"]
            assert a["violation"] == b["violation"]
            assert a["meta"]["cstar"] == b["meta"]["cstar"]
