"""What the benchmark relies on: the names its layer tracer patches and
the settings it passes.

``perfbench/bench_trace.py`` wraps program functions by replacing module
attributes, and ``perfbench/run.py`` writes a config file and builds a
``CorrectiveConfig``.  A refactor that renames or drops one of them would
only show up when the benchmark runs, so the contract is checked here.
"""

import ast
import importlib
import json
import os
import sys
from pathlib import Path

import pytest

from acdcopf import cli, opfcore, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
    """The literal settings of ``perfbench/run.py``, read without importing
    it (importing it edits the environment)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("CASE", "CORRECTIVE", "POPULATION",
                                       "GENERATIONS", "CLUSTERS")}


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
    result = opfcore.evaluate(acdc_net, acdc_space, u)
    assert len(calls) == 1
    assert calls[0]["L5"] == u[i]
    assert result.net.ybus is not acdc_net.ybus


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
