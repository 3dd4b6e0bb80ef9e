"""Layer tracing from outside the program.

The program's public functions are wrapped and patched in as module
attributes, at every module that looks them up (``opfcore`` imports
``solve_acdc`` by name, so the wrapper goes into ``opfcore`` as well as
``powerflow``).  Each wrapper records calls, total time and self time
(total minus the time of traced callees) plus counts read from the
returned value.

Evaluator processes of the pool are forked from the traced process and
inherit the wrappers; ``worker_eval`` ships each task's statistics back
with its result, so layer counts do not depend on the worker count.
"""

from __future__ import annotations

import functools
import time

STATS_KEY = "_perfbench_trace"

# the tracer that wrappers in a forked evaluator process report to
_ACTIVE: "Tracer | None" = None
_ORIG_WORKER_EVAL = None


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[float] = []

    def reset(self) -> None:
        self.stats = {}
        self._stack = []

    def stat(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return st

    def merge(self, other: dict) -> None:
        for name, values in other.items():
            st = self.stat(name)
            for key, v in values.items():
                st[key] = st.get(key, 0) + v

    def snapshot(self) -> dict:
        return {name: dict(values) for name, values in self.stats.items()}

    def wrap(self, name: str, fn, count=None):
        """Timing wrapper; ``count(stat, result, args)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                st = self.stat(name)
                st["calls"] += 1
                st["total_s"] += elapsed
                st["self_s"] += elapsed - inner
            if count is not None:
                count(st, result, args)
            return result

        return wrapper


def add(st: dict, key: str, value) -> None:
    """Accumulate a count on a layer's statistics."""
    st[key] = st.get(key, 0) + value


def _count_ac(st, res, args):
    add(st, "nr_iters", res.iterations)
    add(st, "not_converged", int(not res.converged))


def _count_dc(st, res, args):
    add(st, "iters", res.iterations)


def _count_acdc(st, res, args):
    add(st, "outer", res.outer_iterations)
    for stage in ("ac", "dc", "coupling"):
        add(st, f"failed_{stage}", int(res.failure_stage == stage))


def _count_corrective(st, res, args):
    kind = args[3].kind
    add(st, "probes", res.probes)
    add(st, f"calls_{kind}", 1)
    add(st, f"probes_{kind}", res.probes)
    add(st, "feasible", int(res.feasible))


def _count_filter(st, res, args):
    add(st, "critical", len(res))


def layer_patches(mods) -> list[tuple[str, list, object]]:
    """(layer name, [(module, attribute), ...], counter) for every traced
    function; ``mods`` maps module short names to the imported modules."""
    pf, oc, sc = mods["powerflow"], mods["opfcore"], mods["screen"]
    return [
        ("powerflow.solve_ac", [(pf, "solve_ac")], _count_ac),
        ("powerflow.branch_flows", [(pf, "branch_flows")], None),
        ("powerflow.solve_dc", [(pf, "solve_dc")], _count_dc),
        ("powerflow.solve_acdc", [(pf, "solve_acdc"), (oc, "solve_acdc")],
         _count_acdc),
        ("opfcore.evaluate", [(oc, "evaluate")], None),
        ("opfcore.apply_taps", [(oc, "apply_taps")], None),
        ("opfcore.constraint_report", [(oc, "constraint_report")], None),
        ("opfcore.corrective_feasibility", [(oc, "corrective_feasibility")],
         _count_corrective),
        ("screen.filter_contingencies", [(sc, "filter_contingencies")],
         _count_filter),
        ("screen.build_training_set", [(sc, "build_training_set")], None),
        ("screen.fit_screening_model", [(sc, "fit_screening_model")], None),
        ("screen.lasso_fit", [(sc, "lasso_fit")], None),
        ("netmodel.apply_contingency",
         [(mods["netmodel"], "apply_contingency"), (oc, "apply_contingency"),
          (sc, "apply_contingency"), (mods["run"], "apply_contingency")], None),
        ("evo.bce_step", [(mods["evo"], "bce_step")], None),
        ("evo.environmental_selection",
         [(mods["evo"], "environmental_selection")], None),
        ("evo.ibea_fitness", [(mods["evo"], "ibea_fitness")], None),
        ("decide.select_bcs", [(mods["decide"], "select_bcs")], None),
    ]


def worker_eval(genome):
    """Stands in for ``run._worker_eval`` in forked evaluator processes:
    evaluates one task and attaches the layer statistics it produced."""
    _ACTIVE.reset()
    rec = _ORIG_WORKER_EVAL(genome)
    rec = dict(rec)
    rec[STATS_KEY] = _ACTIVE.snapshot()
    return rec


class Patches:
    """Module attributes replaced by wrappers; ``undo`` restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def undo(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []


def install_layers(tracer: Tracer, mods, patches: Patches) -> None:
    global _ACTIVE, _ORIG_WORKER_EVAL
    for name, targets, count in layer_patches(mods):
        wrapped = tracer.wrap(name, getattr(*targets[0]), count)
        for module, attr in targets:
            patches.set(module, attr, wrapped)
    _ACTIVE = tracer
    _ORIG_WORKER_EVAL = mods["run"]._worker_eval
    patches.set(mods["run"], "_worker_eval", worker_eval)
