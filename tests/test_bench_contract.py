"""What the benchmark relies on: the names its layer tracer patches and
the settings it passes.

``perfbench/bench_trace.py`` wraps program functions by replacing module
attributes, and ``perfbench/run.py`` writes a config file and builds a
``CorrectiveConfig``.  A refactor that renames or drops one of them would
only show up when the benchmark runs, so the contract is checked here.
"""

import ast
import importlib
import inspect
import json
import os
import sys

import pytest

from acdcopf import cli, opfcore, powerflow, run, screen
from acdcopf.netmodel import apply_contingency

from conftest import PERFBENCH, bench_literal, case_variant

sys.path.insert(0, str(PERFBENCH))

import bench_trace  # noqa: E402

MODULES = ("powerflow", "opfcore", "screen", "netmodel", "run", "evo",
           "decide")


def traced_targets():
    mods = {name: importlib.import_module(f"acdcopf.{name}")
            for name in MODULES}
    targets = [(f"{module.__name__}.{attr}", module, attr)
               for _, pairs, _ in bench_trace.layer_patches(mods)
               for module, attr in pairs]
    run = mods["run"]
    targets += [("acdcopf.run._worker_eval", run, "_worker_eval"),
                ("acdcopf.run.OpfProblem.evaluate_batch", run.OpfProblem,
                 "evaluate_batch"),
                ("acdcopf.run.OpfProblem.evaluate_one", run.OpfProblem,
                 "evaluate_one")]
    return targets


@pytest.mark.parametrize("name,owner,attr", traced_targets(),
                         ids=[t[0] for t in traced_targets()])
def test_traced_name_exists_and_is_callable(name, owner, attr):
    assert callable(getattr(owner, attr, None)), name


def bench_settings() -> dict:
    """The literal settings of ``perfbench/run.py``."""
    return {name: bench_literal(name) for name in
            ("CASE", "CORRECTIVE", "POPULATION", "GENERATIONS", "CLUSTERS")}


def test_bench_config_accepted(tmp_path):
    """The config document ``Bench.setup`` writes."""
    bench = bench_settings()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "case": bench["CASE"],
        "optimizer": {"population": bench["POPULATION"],
                      "iterations": bench["GENERATIONS"]},
        "screening": {"model_path": str(tmp_path / "screening_model.json")},
        "corrective": bench["CORRECTIVE"],
        "decision": {"clusters": bench["CLUSTERS"]},
    }))
    cfg = cli.load_config(str(path), {})
    assert cfg["corrective"] == bench["CORRECTIVE"]


def test_bench_corrective_config_builds():
    corrective = bench_settings()["CORRECTIVE"]
    config = run.CorrectiveConfig(**corrective)
    assert {key: getattr(config, key) for key in corrective} == corrective


def test_bench_corrective_calls_bind():
    """Every ``corrective_feasibility`` call in ``perfbench/run.py`` binds
    to the signature, and the contingency is the 4th positional
    parameter: ``bench_trace._count_corrective`` reads it as
    ``args[3]``."""
    signature = inspect.signature(opfcore.corrective_feasibility)
    assert list(signature.parameters)[3] == "k"
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "corrective_feasibility"]
    assert calls
    for call in calls:
        keywords = {kw.arg for kw in call.keywords}
        assert keywords == {"net_k", "base_state", "max_probes", "tol_feas",
                            "include_discrete"}
        signature.bind(*call.args, **dict.fromkeys(keywords))


def test_evaluate_calls_traced_apply_taps(acdc_net, acdc_space, monkeypatch):
    """The traced ``opfcore.apply_taps`` layer is reached through the
    module attribute, once per evaluation."""
    calls = []
    apply_taps = opfcore.apply_taps

    def counting(net, taps):
        calls.append(taps)
        return apply_taps(net, taps)

    monkeypatch.setattr(opfcore, "apply_taps", counting)
    u = acdc_space.default_vector()
    i = acdc_space.index["T:L5"]
    u[i] += acdc_space.step[i]
    u = acdc_space.snap(u)         # the next grid point, 0.9875
    result = opfcore.evaluate(acdc_net, acdc_space, u)
    assert len(calls) == 1
    assert calls[0]["L5"] == u[i]
    assert result.net.plan.branches.ybus is not acdc_net.plan.branches.ybus


def test_coupled_solve_calls_traced_inner_solvers(acdc_net, acdc_space,
                                                  monkeypatch):
    """The traced ``powerflow.solve_ac``, ``powerflow.solve_dc`` and
    ``powerflow.branch_flows`` layers are reached through the module
    attributes: ``solve_ac`` once per outer iteration of the coupled
    solve, ``branch_flows`` once per coupled solve, and ``solve_dc`` once
    per coupled solve when every station is droop or const_vdc (the
    bundled case: its DC inputs do not depend on the AC side) and once
    per outer iteration with a const_p station (``mixed_modes``)."""
    calls = {"solve_ac": 0, "solve_dc": 0, "branch_flows": 0}

    def counting(name):
        solver = getattr(powerflow, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(powerflow, name, counting(name))
    for net, space in ((acdc_net, acdc_space), case_variant("mixed_modes")):
        calls.update(dict.fromkeys(calls, 0))
        result = opfcore.evaluate(net, space, space.default_vector())
        assert result.state.converged
        outer = result.state.outer_iterations
        assert outer > 1
        assert calls == {"solve_ac": outer,
                         "solve_dc": outer if net.plan.dc.const_p else 1,
                         "branch_flows": 1}


def test_train_screen_calls_traced_screening_layers(tmp_path, monkeypatch):
    """``train-screen`` reaches the traced set-up layers through the module
    attributes, and ``fit_screening_model`` receives exactly the training
    rows: the benchmark's Lasso optimality check reads them there."""
    calls = {"build_training_set": 0, "fit_screening_model": 0,
             "lasso_fit": 0}
    fitted = []

    def counting(name):
        function = getattr(screen, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "fit_screening_model":
                fitted.append(args[1])
            return function(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(screen, name, counting(name))
    assert cli.main(["train-screen", "--case", "bundled:case14_acdc",
                     "--seed", "1", "--samples", "30",
                     "--out", str(tmp_path)]) == 0
    assert calls["build_training_set"] == 1
    assert calls["fit_screening_model"] == 1
    assert calls["lasso_fit"] > 1
    validation = json.loads(
        (tmp_path / "screen_validation.json").read_text())["validation"]
    train = fitted[0]
    assert len(train.y) == train.x.shape[0] == validation["n_training_rows"]
    assert not set(train.row_sample) & set(validation["holdout_samples"])


def _marker_eval(genome):
    return {"marker": genome, "pid": os.getpid()}


def test_pooled_batch_calls_patched_worker_eval(acdc_net, acdc_space,
                                                monkeypatch):
    """The traced benchmark patches ``run._worker_eval`` to send worker
    statistics back with each record; the pool must call that attribute
    and hand back its records unchanged, in task order."""
    monkeypatch.setattr(run, "_worker_eval", _marker_eval)
    genomes = [acdc_space.default_vector(), acdc_space.lo, acdc_space.hi]
    with run.OpfProblem(acdc_net, None, workers=2) as pooled:
        records = pooled.evaluate_batch(genomes)
    assert [rec["marker"] for rec in records] == [g.tolist() for g in genomes]
    assert os.getpid() not in {rec["pid"] for rec in records}


def test_corrective_probes_are_evaluate_calls(acdc_net, acdc_space,
                                              monkeypatch):
    """The traced benchmark checks that probes plus individuals equal the
    ``opfcore.evaluate`` calls: a corrective check makes exactly one
    evaluation, and one coupled solve, per probe it counts, and none to
    rank its moves or to linearise.  All 20 checks of the N-1 probe
    point, which include checks that end at the stop rule and checks that
    go on to the pattern search."""
    calls = {"evaluate": 0, "solve_acdc": 0}

    def counting(module, name):
        function = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(opfcore, "evaluate", counting(opfcore, "evaluate"))
    monkeypatch.setattr(opfcore, "solve_acdc",
                        counting(opfcore, "solve_acdc"))
    u0 = acdc_space.snap(bench_literal("PROBE_GENOME"))
    base = opfcore.evaluate(acdc_net, acdc_space, u0)
    lims = opfcore.CorrectiveLimits.from_fraction(acdc_space, 0.15)
    budgets = []
    for k in acdc_net.contingencies:
        before = dict(calls)
        out = opfcore.corrective_feasibility(
            base.net, acdc_space, u0, k, lims,
            net_k=apply_contingency(base.net, k), base_state=base.state)
        assert calls["evaluate"] - before["evaluate"] == out.probes
        assert calls["solve_acdc"] - before["solve_acdc"] == out.probes
        budgets.append(out.probes)
    # beyond the u0 probe and the linear candidates: the pattern search
    assert max(budgets) > 2 + opfcore.RELINEARISE
