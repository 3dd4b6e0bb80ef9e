"""The program names that the benchmark's layer tracer patches.

``perfbench/bench_trace.py`` wraps program functions by replacing module
attributes.  A refactor that renames or drops one of them would only show
up when the benchmark runs, so the contract is checked here.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

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
