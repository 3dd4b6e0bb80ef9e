"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n PASS`` line on success (run pytest
with ``-s`` to see them); a failed assertion marks the criterion FAIL.
The end-to-end runs (criteria 5 and 7) share module-scoped fixtures.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from acdcopf import cli, decide, evo, opfcore, powerflow, screen
from acdcopf.netmodel import ControlSpace, apply_contingency, load_bundled_case
from acdcopf.opfcore import CorrectiveLimits, corrective_feasibility
from acdcopf.powerflow import solve_ac

from conftest import two_bus_case
from oracles import eps_indicator_bruteforce, grp_oracle, oracle_solve_ac
from test_opfcore import bruteforce_box, constrained_two_bus


def report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


# ---------------------------------------------------------------------------
# Shared end-to-end runs (criteria 5 and 7)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_model")
    t0 = time.perf_counter()
    code = cli.main(["train-screen", "--case", "bundled:case14_acdc",
                     "--seed", "1", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return out / "screening_model.json", elapsed


def run_optimize(tmp_path, model_path, workers):
    cfg = {
        "case": "bundled:case14_acdc",
        "seed": 1,
        "output_dir": str(tmp_path),
        "optimizer": {"population": 100, "iterations": 50,
                      "workers": workers},
        "screening": {"model_path": str(model_path)},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["optimize", "--config", str(cfg_path)])
    doc = json.loads((tmp_path / "archive.json").read_text())
    return code, doc, tmp_path


@pytest.fixture(scope="module")
def run_parallel(tmp_path_factory, model_file):
    path = tmp_path_factory.mktemp("accept_run4")
    return run_optimize(path, model_file[0], workers=4)


@pytest.fixture(scope="module")
def run_serial(tmp_path_factory, model_file):
    path = tmp_path_factory.mktemp("accept_run1")
    return run_optimize(path, model_file[0], workers=1)


# ---------------------------------------------------------------------------
# 1. Power-flow fidelity


def test_criterion_1_powerflow_fidelity(ac_net):
    from test_powerflow import ac_inputs
    p, q, vm = ac_inputs(ac_net)
    t0 = time.perf_counter()
    state = solve_ac(ac_net, p, q, vm)
    elapsed = time.perf_counter() - t0
    assert state.converged
    assert state.max_mismatch <= 1e-6
    assert elapsed < 0.1
    vm_ref, va_ref, ok = oracle_solve_ac(ac_net, p, q, vm)
    assert ok
    dev = float(np.max(np.abs(state.vm - vm_ref)))
    assert dev <= 1e-6
    report(1, f"IEEE-14 AC flow matches the independent reference to "
              f"{dev:.2e} p.u. in {elapsed * 1000:.1f} ms")


# ---------------------------------------------------------------------------
# 2. Epsilon indicator and fitness


def test_criterion_2_indicator_and_fitness():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        a = rng.uniform(0, 1, size=(int(rng.integers(1, 6)), d))
        b = rng.uniform(0, 1, size=(int(rng.integers(1, 6)), d))
        assert evo.epsilon_indicator(a, b) == eps_indicator_bruteforce(a, b)

    checked = 0
    for _ in range(1000):
        n = int(rng.integers(3, 8))
        objs = rng.uniform(0, 1, size=(n, 2))
        pop = [evo.Individual(id=i, genome=np.zeros(1),
                              objectives=tuple(o)) for i, o in
               enumerate(objs.tolist())]
        fv = evo.ibea_fitness(pop, kappa=0.05)
        for i in range(n):
            for j in range(n):
                if i != j and np.all(objs[i] < objs[j]):
                    assert fv[i] > fv[j]
                    checked += 1
    assert checked > 1000
    report(2, f"indicator exact on 1000 instances; dominance implied "
              f"greater fitness in {checked} pairs at kappa=0.05")


# ---------------------------------------------------------------------------
# 3. Composite security index


def test_criterion_3_composite_index():
    from test_screen import FakeState, index_params
    params = index_params(1, 1)
    value = screen.composite_index(FakeState([0.88], [0.0]), params)
    assert value == pytest.approx(0.4, abs=1e-12)

    rng = np.random.default_rng(33)
    params = index_params(5, 4)
    for _ in range(1000):
        vm = rng.uniform(0.8, 1.2, 5)
        flows = rng.uniform(-2.0, 2.0, 4)
        base = screen.composite_index(FakeState(vm, flows), params)
        vm2, flows2 = vm.copy(), flows.copy()
        if rng.random() < 0.5:
            j = int(rng.integers(0, 5))
            vm2[j] += 0.05 if vm2[j] > 1.0 else -0.05
        else:
            j = int(rng.integers(0, 4))
            flows2[j] *= 1.2
        worse = screen.composite_index(FakeState(vm2, flows2), params)
        assert worse >= base - 1e-12

    assert screen.classify(0.0) == "secure"
    assert screen.classify(0.5) == "alarm"
    assert screen.classify(1.0) == "alarm"
    assert screen.classify(1.001) == "insecure"
    report(3, "hand values exact, monotone on 1000 perturbation pairs, "
              "thresholds correct")


# ---------------------------------------------------------------------------
# 4. Lasso


def batched_subgradient_best(xs, ys, lams, steps=150000):
    """All instances advanced together; returns best objective per instance."""
    m, n, p = xs.shape
    sig = np.zeros((m, p))
    lips = np.array([2.0 / n * np.linalg.norm(x, 2) ** 2 for x in xs])
    resid = -ys
    best = np.einsum("ij,ij->i", resid, resid) / n
    for t in range(1, steps + 1):
        grad = (2.0 / n) * np.einsum("mnp,mn->mp", xs, resid) \
            + lams[:, None] * np.sign(sig)
        sig = sig - (0.5 / (lips * math.sqrt(t)))[:, None] * grad
        resid = np.einsum("mnp,mp->mn", xs, sig) - ys
        obj = (np.einsum("ij,ij->i", resid, resid) / n
               + lams * np.abs(sig).sum(axis=1))
        best = np.minimum(best, obj)
    return best


def test_criterion_4_lasso(acdc_net, model_file, monkeypatch):
    rng = np.random.default_rng(44)
    # a tighter stopping rule than the production one, so the objective
    # gap measures the solver and not its stop
    monkeypatch.setattr(screen, "LASSO_TOL", 1e-10)
    xs = rng.normal(size=(50, 20, 5))
    ys = rng.normal(size=(50, 20))
    lams = rng.uniform(0.01, 0.3, size=50)
    oracle_best = batched_subgradient_best(xs, ys, lams)
    worst_gap = 0.0
    for x, y, lam, ob in zip(xs, ys, lams, oracle_best):
        sigma = screen.lasso_fit(x, y, lam)
        mine = screen.lasso_objective(x, y, sigma, lam)
        worst_gap = max(worst_gap, abs(mine - ob))
        assert abs(mine - ob) <= 1e-5

    for _ in range(20):
        x = rng.normal(size=(25, 6))
        y = rng.normal(size=25)
        lmax = screen.lambda_max(x, y)
        assert np.all(screen.lasso_fit(x, y, lmax) == 0.0)
        assert np.all(screen.lasso_fit(x, y, 2.0 * lmax) == 0.0)

    model_path, train_seconds = model_file
    validation = json.loads(
        (model_path.parent / "screen_validation.json").read_text()
    )["validation"]
    assert train_seconds < 300.0
    assert validation["table_rows_scored"] >= 3
    assert validation["table_max_abs_error_percent"] <= 5.0
    assert validation["table_spearman"] >= 0.95
    report(4, f"objective within {worst_gap:.1e} of the oracle on 50 "
              f"instances; held-out table max |err| "
              f"{validation['table_max_abs_error_percent']:.2f}% with "
              f"rank correlation {validation['table_spearman']:.3f}; "
              f"training took {train_seconds:.1f} s")


# ---------------------------------------------------------------------------
# 5. End-to-end optimization


def test_criterion_5_end_to_end(run_parallel, acdc_net, acdc_space):
    code, doc, out = run_parallel
    assert code == 0
    assert not doc["infeasible_run"]
    assert doc["wall_seconds"] < 600.0
    members = doc["members"]
    objectives = [(m["f1"], m["f2"]) for m in members]
    assert len(set(objectives)) >= 20
    assert all(m["violation"] == 0.0 for m in members)
    for a in objectives:
        for b in objectives:
            if a is not b:
                assert not (a[0] <= b[0] and a[1] <= b[1]
                            and (a[0] < b[0] or a[1] < b[1])) or a == b
    base = opfcore.evaluate(acdc_net, acdc_space,
                            acdc_space.default_vector())
    improves = [m for m in members if m["f1"] < base.objectives[0]
                and m["f2"] < base.objectives[1]]
    assert improves
    best = min(improves, key=lambda m: m["f1"])
    report(5, f"{len(members)} feasible non-dominated points in "
              f"{doc['wall_seconds']:.0f} s; best improving point "
              f"f1 {base.objectives[0]:.0f}->{best['f1']:.0f}, "
              f"f2 {base.objectives[1]:.4f}->{best['f2']:.4f}")


# ---------------------------------------------------------------------------
# 6. Decision module


def test_criterion_6_decision(run_parallel):
    _, doc, _ = run_parallel
    objectives = np.array([[m["f1"], m["f2"]] for m in doc["members"]])
    lo = objectives.min(axis=0)
    span = objectives.max(axis=0) - lo
    norm = (objectives - lo) / np.where(span > 0, span, 1.0)
    fcm = decide.fcm_cluster(norm, n_clusters=2, seed=1)
    np.testing.assert_allclose(fcm.memberships.sum(axis=1), 1.0, atol=1e-12)
    hist = fcm.loss_history
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    selections = decide.select_bcs(objectives, n_clusters=2, seed=1)
    assert len(selections) == 2
    assert all(0.0 <= sel.d <= 1.0 for sel in selections)
    a = objectives[selections[0].member_index]
    b = objectives[selections[1].member_index]
    assert (a[0] - b[0]) * (a[1] - b[1]) < 0

    mine = decide.grp_rank([[0.0, 1.0], [1.0, 0.0], [0.2, 0.2]],
                           weights=(0.5, 0.5))
    oracle = grp_oracle([[0.0, 1.0], [1.0, 0.0], [0.2, 0.2]], (0.5, 0.5))
    np.testing.assert_allclose(mine, oracle, atol=1e-10)
    report(6, f"memberships sum to one, loss non-increasing, two opposite-"
              f"leaning compromise solutions (d={selections[0].d:.3f}, "
              f"{selections[1].d:.3f}), projection oracle matched to 1e-10")


# ---------------------------------------------------------------------------
# 7. Parallel determinism and speedup


def test_criterion_7_determinism_and_speedup(run_parallel, run_serial):
    _, doc4, out4 = run_parallel
    _, doc1, out1 = run_serial
    a = (out4 / "archive.csv").read_bytes()
    b = (out1 / "archive.csv").read_bytes()
    assert a == b
    ratio = doc4["wall_seconds"] / doc1["wall_seconds"]
    import os
    assert ratio <= 0.60, (
        f"parallel/serial wall ratio {ratio:.3f} exceeds 0.60 "
        f"(machine has {os.cpu_count()} cores; the stated budget assumes 4)")
    report(7, f"archives byte-identical; 4-worker wall time is "
              f"{100 * ratio:.1f}% of 1-worker "
              f"({doc4['wall_seconds']:.0f} s vs {doc1['wall_seconds']:.0f} s)")


# ---------------------------------------------------------------------------
# 8. Corrective feasibility vs brute force


def corrective_instances(acdc_net, acdc_space):
    """20 instances: tiny constructed networks plus bundled-case slices."""
    instances = []
    for p_limit in (0.26, 0.30, 0.34, 0.38):
        for frac in (0.0, 0.2, 0.6):
            net = constrained_two_bus(p_limit)
            space = ControlSpace(net)
            du = np.zeros(len(space))
            du[space.index["P_G:bus2"]] = frac * 0.6
            instances.append((net, space, space.default_vector(),
                              net.contingency("L1"),
                              CorrectiveLimits(du_max=du)))
    for p_limit in (0.28, 0.32):
        net = constrained_two_bus(p_limit)
        space = ControlSpace(net)
        du = np.zeros(len(space))
        du[space.index["P_G:bus2"]] = 0.12
        du[space.index["U_G:bus2"]] = 0.05
        instances.append((net, space, space.default_vector(),
                          net.contingency("L1"),
                          CorrectiveLimits(du_max=du)))

    u_spread = acdc_space.default_vector()
    for name, val in (("P_G:bus2", 0.7), ("P_G:bus3", 0.7),
                      ("P_G:bus6", 0.5), ("P_G:bus8", 0.45),
                      ("P_s:VSC1", -0.3), ("P_s:VSC2", 0.35),
                      ("P_s:VSC3", -0.05)):
        u_spread[acdc_space.index[name]] = val
    u_base = acdc_space.default_vector()

    def bundled(u0, kid, frees):
        du = np.zeros(len(acdc_space))
        for name, width in frees:
            du[acdc_space.index[name]] = width
        return (acdc_net, acdc_space, u0, acdc_net.contingency(kid),
                CorrectiveLimits(du_max=du))

    instances.append(bundled(u_spread, "DC1", []))
    instances.append(bundled(u_spread, "L13", []))
    instances.append(bundled(u_base, "L3", []))
    instances.append(bundled(u_base, "L3", [("P_G:bus3", 0.15)]))
    instances.append(bundled(u_base, "L6", [("P_s:VSC1", 0.3)]))
    instances.append(bundled(u_base, "L1", []))
    return instances


def test_criterion_8_corrective_vs_bruteforce(acdc_net, acdc_space):
    instances = corrective_instances(acdc_net, acdc_space)
    assert len(instances) == 20
    disagreements = []
    for idx, (net, space, u0, k, lims) in enumerate(instances):
        mine = corrective_feasibility(net, space, u0, k, lims)
        oracle = bruteforce_box(net, space, u0, k, lims, resolution=0.01)
        if mine.feasible != oracle:
            disagreements.append((idx, k.label, mine.feasible, oracle))
    assert not disagreements, disagreements
    report(8, "verdicts agree with the brute-force box search on all 20 "
              "instances")
