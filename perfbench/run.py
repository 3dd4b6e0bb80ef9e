"""Benchmark of the SC-MOPF pipeline on ``bundled:case14_acdc``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the program in-process through ``cli.main`` (``train-screen`` in
set-up, then ``optimize``), checks every output against properties of the
method (see ``bench_checks``), and prints one JSON result line last.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run.  See ``README.md``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# the program reads these two and they would override the config
for _var in ("ACDCOPF_WORKERS", "ACDCOPF_OUTPUT_DIR"):
    os.environ.pop(_var, None)
# one BLAS/OpenMP thread, so the two-worker workload runs two busy threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_checks as bc  # noqa: E402
import bench_trace as bt  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CASE = "bundled:case14_acdc"
# screened-w2 goes through the process pool and the screen; unscreened-w1
# bypasses both.  A screened one-worker workload is left out: three
# workloads at this much work per run do not fit the time the benchmark
# is given.  ``call_s`` is about the length of one optimize call on a
# shared 2-core machine; --seconds buys whole calls of it, at least
# MIN_CALLS.
WORKLOADS = {
    "screened-w2": {"screening": True, "workers": 2, "call_s": 3.3},
    "unscreened-w1": {"screening": False, "workers": 1, "call_s": 5.0},
}
# A run is several short optimize calls with seeds drawn from --seed.  The
# work of one call swings by about a quarter with its seed (how many
# individuals pass the base check and reach the corrective checks), so a
# run averages over many small calls instead of timing one large one.
POPULATION = 6
GENERATIONS = 2
MIN_CALLS = 4
# the screening model is trained with the same seed in every run, so that
# set-up does the same work and the N-1 probe below sees the same model
TRAIN_SEED = 1
CORRECTIVE = {"fraction": 0.15, "max_probes": 30, "tol_feas": 1e-6,
              "include_discrete": True}
CLUSTERS = 2
# hypervolume reference (f1 $/h, f2 p.u.^2): just past the scheduled
# point's cost (12924.5 $/h) and about twice its deviation (0.0462)
HV_REF = (13000.0, 0.1)
# N-1 probe: an archive point of optimize --seed 1003 (population 6,
# 2 generations, model of train-screen --seed 1).  L10(7-8) and L12(8-9)
# cannot be corrected at it, and the model predicts both secure, so the
# screened program scores it feasible.  The probe is the same input on
# every run; unscreened it is scored infeasible.
PROBE_GENOME = [
    0.6828886327464107, 0.5, 0.5, 0.5187304210266497, 1.06,
    1.0437098926349326, 1.01, 1.0700430630286837, 1.0900904345054512,
    0.9750000000000001, 0.9375, 0.2, -0.4357455729274739, 0.4917677801177121,
    -0.06520120848801342, 0.0038533379316991936, -0.06208160439106466,
    0.06765, 1.0005998003200915, 0.9997615858370135, 0.9842903738630602,
    0.05, 0.05, 0.0750422590861284]
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "evals_per_s": "1/s",
              "front_hv": "USD.pu2/h"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ledger:
    """Operations attempted and failed; a failed check keeps its message.
    A failure of an operation marked ``known_fault`` (one that fails on
    every run, whatever the seed, because of a fault the README names)
    is counted but leaves the run ``correct``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.correct = True

    def record(self, what: str, problems: list[str],
               known_fault: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems[:3]))
            self.correct = self.correct and known_fault


class Instruments:
    """Always-on counters (individuals evaluated, the Lasso training rows)
    and, when tracing, the coordinator-side ``run.evaluate_batch`` layer."""

    def __init__(self, mods, patches, tracer):
        self.genomes = 0
        self.unique: set[bytes] = set()
        self.fit_rows = None
        problem = mods["run"].OpfProblem
        batch, one = problem.evaluate_batch, problem.evaluate_one
        fit = mods["screen"].fit_screening_model
        timed_batch = tracer.wrap("run.evaluate_batch", batch) if tracer else batch

        def evaluate_batch(prob, genomes):
            self.genomes += len(genomes)
            if tracer is None:
                return batch(prob, genomes)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            recs = timed_batch(prob, genomes)
            st = tracer.stat("run.evaluate_batch")
            bt.add(st, "genomes", len(genomes))
            bt.add(st, "wait_s", (time.perf_counter() - wall0)
                    - (time.process_time() - cpu0))
            self.unique.update(np.asarray(g, dtype=float).tobytes()
                               for g in genomes)
            for rec in recs:
                child = rec.pop(bt.STATS_KEY, None)
                if child:
                    tracer.merge(child)
            return recs

        def evaluate_one(prob, genome):
            self.genomes += 1
            return one(prob, genome)

        def fit_screening_model(net, train, **kwargs):
            self.fit_rows = (train.x, train.y)
            return fit(net, train, **kwargs)

        patches.set(problem, "evaluate_batch", evaluate_batch)
        patches.set(problem, "evaluate_one", evaluate_one)
        patches.set(mods["screen"], "fit_screening_model", fit_screening_model)


def rusage_cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0          # ru_maxrss is in KiB on Linux


class Bench:
    def __init__(self, args, mods, work: Path):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.mods = mods
        self.work = work
        self.ledger = Ledger()
        self.tracer = bt.Tracer() if args.trace else None
        self.base_patches = bt.Patches()
        self.layer_patches = bt.Patches()
        self.inst = Instruments(mods, self.base_patches, self.tracer)
        count = max(MIN_CALLS, int(args.seconds // self.spec["call_s"]))
        self.seeds = [args.seed * 1000 + j for j in range(count)]
        self.missed: list[str] = []
        self.verdicts: dict[str, tuple[list[str], list[str]]] = {}

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        cli, netmodel = self.mods["cli"], self.mods["netmodel"]
        if self.tracer:
            bt.install_layers(self.tracer, self.mods, self.layer_patches)
        self.net = cli.resolve_case({"case": CASE})
        self.case = bc.CaseData(json.loads(
            netmodel.bundled_case_path(CASE.split(":", 1)[1]).read_text()))
        model_path = self.work / "screening_model.json"
        if self.spec["screening"]:
            rc = self.run_cli(["train-screen", "--case", CASE, "--seed",
                               str(TRAIN_SEED), "--out", str(self.work)])
            self.ledger.record("train-screen", [] if rc == 0 else [f"exit {rc}"])
            if rc != 0:
                raise RuntimeError(f"train-screen exited with {rc}")
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "case": CASE,
            "optimizer": {"population": POPULATION, "iterations": GENERATIONS},
            "screening": {"model_path": str(model_path)},
            "corrective": CORRECTIVE,
            "decision": {"clusters": CLUSTERS},
        }))
        if self.tracer:
            self.setup_stats = self.tracer.snapshot()
            self.layer_patches.undo()

    # -- one optimize call ----------------------------------------------------

    def run_cli(self, argv) -> int:
        """The ``acdcopf`` command line, in this process, stdout discarded."""
        with contextlib.redirect_stdout(io.StringIO()):
            return self.mods["cli"].main(argv)

    def optimize(self, seed: int, out: Path) -> dict:
        argv = ["optimize", "--config", str(self.config), "--seed", str(seed),
                "--workers", str(self.spec["workers"]), "--out", str(out)]
        if not self.spec["screening"]:
            argv.append("--no-screening")
        genomes0 = self.inst.genomes
        self.inst.unique = set()
        cpu0 = rusage_cpu()
        t0 = time.perf_counter()
        rc = self.run_cli(argv)
        wall = time.perf_counter() - t0
        cpu = rusage_cpu() - cpu0
        return {"seed": seed, "out": out, "rc": rc, "wall": wall, "cpu": cpu,
                "genomes": self.inst.genomes - genomes0,
                "unique": len(self.inst.unique)}

    # -- measurement ----------------------------------------------------------

    def measure(self) -> tuple[dict, list[dict]]:
        calls = [self.optimize(s, self.work / f"t{j}")
                 for j, s in enumerate(self.seeds)]
        for call in calls:
            self.ledger.record(f"optimize seed {call['seed']}",
                               [] if call["rc"] == 0 else
                               [f"exit {call['rc']}"])
        wall = sum(c["wall"] for c in calls)
        metrics = {
            "wall_s": wall / len(calls),
            "cpu_s": sum(c["cpu"] for c in calls) / len(calls),
            "evals_per_s": sum(c["genomes"] for c in calls) / wall,
            "peak_rss_mb": peak_rss_mb(),
            "front_hv": statistics.fmean(hypervolume(c["out"])
                                         for c in calls),
        }
        return metrics, calls

    def measure_traced(self) -> tuple[dict, list[dict]]:
        tracer = self.tracer
        first = self.seeds[0]
        untraced = self.optimize(first, self.work / "untraced")
        bt.install_layers(tracer, self.mods, self.layer_patches)
        totals = bt.Tracer()
        calls, per_call = [], []
        for j, s in enumerate(self.seeds):
            tracer.reset()
            calls.append(self.optimize(s, self.work / f"t{j}"))
            self.ledger.record(f"traced optimize seed {s}",
                               [] if calls[-1]["rc"] == 0 else
                               [f"exit {calls[-1]['rc']}"])
            per_call.append(tracer.snapshot())
            totals.merge(per_call[-1])
        tracer.reset()
        again = self.optimize(first, self.work / "retraced")
        repeat = tracer.snapshot()
        self.layer_patches.undo()

        self.ledger.record("traced counts repeat",
                           _count_differences(per_call[0], repeat))
        self.ledger.record("traced archive repeats",
                           [f"exit {c['rc']}" for c in (untraced, again)
                            if c["rc"]]
                           or _same_artifacts(calls[0]["out"], again["out"]))
        probes = totals.stat("opfcore.corrective_feasibility").get("probes", 0)
        individuals = sum(c["genomes"] for c in calls)
        evaluations = totals.stat("opfcore.evaluate")["calls"]
        self.ledger.record("probes + individuals = evaluate calls",
                           [] if probes + individuals == evaluations else
                           [f"{probes} + {individuals} != {evaluations}"])
        metrics = layer_metrics(totals.stats, self.setup_stats, calls)
        metrics["trace.overhead_s"] = calls[0]["wall"] - untraced["wall"]
        metrics["cli.optimize.wall_s"] = sum(c["wall"] for c in calls)
        metrics["screen.recall"] = self.recall(calls)
        return metrics, calls

    # -- checks ---------------------------------------------------------------

    def check(self, calls: list[dict]) -> None:
        """One operation per optimize call: its archive, its ``bcs.json``
        and every member against all contingencies; then the N-1 probe."""
        mods = self.mods
        space = mods["netmodel"].ControlSpace(self.net)
        lims = mods["opfcore"].CorrectiveLimits.from_fraction(
            space, CORRECTIVE["fraction"])
        nets_k = [(k, mods["netmodel"].apply_contingency(self.net, k))
                  for k in self.net.contingencies]
        if self.spec["screening"]:
            self.check_screening_model()
        with self.serial_problem() as serial:
            self.check_calls(calls, space, lims, nets_k, serial)
            self.ledger.record("N-1 probe",
                               self.check_probe(space, lims, nets_k, serial),
                               known_fault=True)

    def check_calls(self, calls, space, lims, nets_k, serial) -> None:
        for call in calls:
            what = f"outputs of seed {call['seed']}"
            if call["rc"] != 0:
                self.ledger.record(what, ["no outputs"])
                continue
            out = call["out"]
            names, members = read_archive(out)
            problems = bc.archive_failures(members, CORRECTIVE["tol_feas"])
            bcs = json.loads((out / "bcs.json").read_text())
            problems += bc.bcs_failures(
                members, names, bcs["best_compromise_solutions"], CLUSTERS)
            for m in members:
                failed, missed = self.member_verdict(space, lims, nets_k,
                                                     names, m)
                problems += [f"member {m['id']} {p}" for p in failed]
                self.missed += [f"seed {call['seed']} member {m['id']} {k}"
                                for k in missed]
            if self.spec["workers"] > 1:
                problems += self.check_serial(members, serial)
            self.ledger.record(what, problems)

    def member_verdict(self, space, lims, nets_k, names, m):
        """``check_member`` once per distinct archive entry: the seeded
        start points reach many archives unchanged."""
        key = json.dumps([m["genome"], m["f1"], m["f2"], m["violation"],
                          m["cstar"]])
        if key not in self.verdicts:
            missed: list[str] = []
            failed = self.check_member(space, lims, nets_k, names, m, missed)
            self.verdicts[key] = (failed, missed)
        return self.verdicts[key]

    def check_member(self, space, lims, nets_k, names, m,
                     missed: list[str]) -> list[str]:
        """Base point: balance, objectives, limits.  Every contingency:
        a corrected setting inside the corrective box whose solved state
        balances and meets every limit.

        An outage the screen dropped that turns out not to be correctable
        is a screening miss.  Which archive points it hits depends on the
        seed, so it goes to ``missed`` and is reported on every run (see
        ``main``); the N-1 probe shows the same fault on a fixed input and
        fails there."""
        opfcore = self.mods["opfcore"]
        u0 = np.array(m["genome"])
        controls = dict(zip(names, m["genome"]))
        tol = CORRECTIVE["tol_feas"] + 1e-9
        base = opfcore.evaluate(self.net, space, u0)
        if not base.state.converged:
            return ["base point does not converge"]
        problems = []
        point = bc.OperatingPoint.from_state(base.state)
        mis = bc.power_balance_mismatch(self.case, point, controls)
        if mis > bc.TOL_BALANCE:
            problems.append(f"base power mismatch {mis:.3g}")
        f1, f2 = bc.objectives(self.case, point, controls)
        if not (math.isclose(f1, m["f1"], rel_tol=bc.TOL_OBJ_REL)
                and math.isclose(f2, m["f2"], rel_tol=bc.TOL_OBJ_REL)):
            problems.append(f"objectives ({f1}, {f2}) recomputed, "
                            f"({m['f1']}, {m['f2']}) reported")
        viol = bc.limit_violation(self.case, point, controls)
        if viol > tol:
            problems.append(f"base limits exceeded by {viol:.3g}")
        for k, net_k in nets_k:
            res = opfcore.corrective_feasibility(
                self.net, space, u0, k, lims, net_k=net_k,
                base_state=base.state, max_probes=CORRECTIVE["max_probes"],
                tol_feas=CORRECTIVE["tol_feas"],
                include_discrete=CORRECTIVE["include_discrete"])
            if not res.feasible:
                if k.label in m["cstar"]:
                    problems.append(f"{k.label} not correctable "
                                    f"(residual {res.residual:.3g})")
                else:
                    missed.append(k.label)
                continue
            problems += [f"{k.label}: {p}" for p in bc.box_failures(
                self.case, names, u0, res.u_k, CORRECTIVE["fraction"])]
            post = opfcore.evaluate(net_k, space, res.u_k, warm=base.state)
            if not post.state.converged:
                problems.append(f"{k.label}: corrected point diverges")
                continue
            controls_k = dict(zip(names, res.u_k.tolist()))
            point_k = bc.OperatingPoint.from_state(post.state)
            mis = bc.power_balance_mismatch(self.case, point_k, controls_k,
                                            k.branch_id)
            if mis > bc.TOL_BALANCE:
                problems.append(f"{k.label}: power mismatch {mis:.3g}")
            viol = bc.limit_violation(self.case, point_k, controls_k,
                                      k.branch_id)
            if viol > tol:
                problems.append(f"{k.label}: limits exceeded by {viol:.3g}")
        return problems

    def serial_problem(self):
        """The workload's ``OpfProblem`` in this process, one worker."""
        run, screen = self.mods["run"], self.mods["screen"]
        model = (screen.ScreeningModel.load(self.work / "screening_model.json")
                 if self.spec["screening"] else None)
        corrective = run.CorrectiveConfig(
            fraction=CORRECTIVE["fraction"],
            max_probes=CORRECTIVE["max_probes"],
            tol_feas=CORRECTIVE["tol_feas"],
            include_discrete=CORRECTIVE["include_discrete"])
        return run.OpfProblem(self.net, model, corrective, workers=1)

    def check_probe(self, space, lims, nets_k, serial) -> list[str]:
        """PROBE_GENOME has outages that no setting in the corrective box
        clears.  The program, asked to score it, must not call it
        feasible."""
        opfcore = self.mods["opfcore"]
        u0 = np.array(PROBE_GENOME)
        base = opfcore.evaluate(self.net, space, u0)
        uncorrectable = [
            k.label for k, net_k in nets_k
            if not opfcore.corrective_feasibility(
                self.net, space, u0, k, lims, net_k=net_k,
                base_state=base.state, max_probes=CORRECTIVE["max_probes"],
                tol_feas=CORRECTIVE["tol_feas"],
                include_discrete=CORRECTIVE["include_discrete"]).feasible]
        rec = serial.evaluate_one(PROBE_GENOME)
        if uncorrectable and rec["violation"] <= CORRECTIVE["tol_feas"]:
            return [f"scored feasible, but {uncorrectable} cannot be "
                    f"corrected; critical set {rec['meta']['cstar']}"]
        return []

    def check_serial(self, members, serial) -> list[str]:
        """Archive members re-evaluated in this process, one worker."""
        problems = []
        for i in sorted({0, len(members) - 1}):
            m = members[i]
            rec = serial.evaluate_one(m["genome"])
            got = (rec["objectives"][0], rec["objectives"][1], rec["violation"])
            if got != (m["f1"], m["f2"], m["violation"]):
                problems.append(f"member {m['id']}: serial {got} vs "
                                f"{(m['f1'], m['f2'], m['violation'])}")
        return problems

    def check_screening_model(self) -> None:
        model = json.loads((self.work / "screening_model.json").read_text())
        if self.inst.fit_rows is None:
            self.ledger.record("lasso optimality", ["training rows not seen"])
            return
        gap = bc.lasso_kkt_gap(*self.inst.fit_rows, model)
        tol = bc.lasso_kkt_tolerance(int(np.sum(model["active"])))
        self.ledger.record("lasso optimality",
                           [] if gap <= tol else
                           [f"subgradient gap {gap:.3g} > {tol:.3g}"])

    def recall(self, calls) -> float:
        """Share of truly insecure AC outages (exact composite index above
        1) at the archive points that the critical set kept."""
        opfcore, screen, netmodel = (self.mods["opfcore"], self.mods["screen"],
                                     self.mods["netmodel"])
        space = netmodel.ControlSpace(self.net)
        ac = [(k, netmodel.apply_contingency(self.net, k))
              for k in self.net.contingencies if k.kind == "ac_line"]
        params = {k.branch_id: screen.SecurityIndexParams.from_network(net_k)
                  for k, net_k in ac}
        insecure = kept = 0
        for call in calls:
            if call["rc"] != 0:
                continue
            doc = json.loads((call["out"] / "archive.json").read_text())
            for m in doc["members"]:
                for k, net_k in ac:
                    state = opfcore.evaluate(net_k, space, m["genome"]).state
                    if screen.composite_index(state, params[k.branch_id]) > 1:
                        insecure += 1
                        kept += k.label in m["cstar"]
        return kept / insecure if insecure else 1.0


def read_archive(out: Path):
    header = next(line for line in (out / "archive.csv").read_text().splitlines()
                  if not line.startswith("#"))
    names = header.split(",")[4:]
    members = json.loads((out / "archive.json").read_text())["members"]
    return names, members


def hypervolume(out: Path) -> float:
    """Area dominated by the archive inside the box bounded by HV_REF."""
    doc = json.loads((out / "archive.json").read_text())
    pts = sorted((m["f1"], m["f2"]) for m in doc["members"]
                 if m["f1"] < HV_REF[0] and m["f2"] < HV_REF[1])
    area, f2_prev = 0.0, HV_REF[1]
    for f1, f2 in pts:
        if f2 < f2_prev:
            area += (HV_REF[0] - f1) * (f2_prev - f2)
            f2_prev = f2
    return area


def _same_artifacts(a: Path, b: Path) -> list[str]:
    return [f"{name} differs between repeats"
            for name in ("archive.csv", "bcs.json")
            if (a / name).read_bytes() != (b / name).read_bytes()]


# counts that must repeat exactly for identical inputs
_DETERMINISTIC = {
    "powerflow.solve_ac": ("calls", "nr_iters", "not_converged"),
    "powerflow.solve_dc": ("calls", "iters"),
    "powerflow.solve_acdc": ("calls", "outer"),
    "opfcore.evaluate": ("calls",),
    "opfcore.corrective_feasibility": ("calls", "probes", "feasible"),
    "screen.filter_contingencies": ("calls", "critical"),
    "run.evaluate_batch": ("calls", "genomes"),
}


def _count_differences(a: dict, b: dict) -> list[str]:
    out = []
    for name, keys in _DETERMINISTIC.items():
        for key in keys:
            va = a.get(name, {}).get(key, 0)
            vb = b.get(name, {}).get(key, 0)
            if va != vb:
                out.append(f"{name}.{key}: {va} then {vb}")
    return out


def layer_metrics(stats: dict, setup: dict, calls: list[dict]) -> dict:
    def get(src, name, key):
        return src.get(name, {}).get(key, 0)

    def per(src, name, key, div_key="calls", scale=1.0):
        d = get(src, name, div_key)
        return scale * get(src, name, key) / d if d else 0.0

    m = {}
    ac, dc, acdc = "powerflow.solve_ac", "powerflow.solve_dc", "powerflow.solve_acdc"
    m[f"{ac}.calls"] = get(stats, ac, "calls")
    m[f"{ac}.self_s"] = get(stats, ac, "self_s")
    m[f"{ac}.us_per_call"] = per(stats, ac, "total_s", scale=1e6)
    m[f"{ac}.nr_iters_per_call"] = per(stats, ac, "nr_iters")
    m[f"{ac}.not_converged"] = get(stats, ac, "not_converged")
    m["powerflow.branch_flows.self_s"] = get(stats, "powerflow.branch_flows",
                                             "self_s")
    m[f"{dc}.calls"] = get(stats, dc, "calls")
    m[f"{dc}.self_s"] = get(stats, dc, "self_s")
    m[f"{dc}.iters_per_call"] = per(stats, dc, "iters")
    m[f"{acdc}.calls"] = get(stats, acdc, "calls")
    m[f"{acdc}.self_s"] = get(stats, acdc, "self_s")
    m[f"{acdc}.outer_per_call"] = per(stats, acdc, "outer")
    for stage in ("ac", "dc", "coupling"):
        m[f"{acdc}.failed_{stage}"] = get(stats, acdc, f"failed_{stage}")
    m["opfcore.evaluate.calls"] = get(stats, "opfcore.evaluate", "calls")
    m["opfcore.evaluate.self_s"] = get(stats, "opfcore.evaluate", "self_s")
    m["opfcore.apply_taps.total_s"] = get(stats, "opfcore.apply_taps", "total_s")
    m["opfcore.constraint_report.total_s"] = get(
        stats, "opfcore.constraint_report", "total_s")
    cf = "opfcore.corrective_feasibility"
    m[f"{cf}.calls"] = get(stats, cf, "calls")
    m[f"{cf}.total_s"] = get(stats, cf, "total_s")
    m[f"{cf}.probes"] = get(stats, cf, "probes")
    m[f"{cf}.probes_per_call"] = per(stats, cf, "probes")
    for kind in ("ac_line", "dc_line"):
        m[f"{cf}.probes_per_call_{kind}"] = per(stats, cf, f"probes_{kind}",
                                                f"calls_{kind}")
    m[f"{cf}.feasible_per_call"] = per(stats, cf, "feasible")
    fc = "screen.filter_contingencies"
    m[f"{fc}.calls"] = get(stats, fc, "calls")
    m[f"{fc}.total_s"] = get(stats, fc, "total_s")
    m[f"{fc}.critical_per_call"] = per(stats, fc, "critical")
    m["screen.build_training_set.total_s"] = get(
        setup, "screen.build_training_set", "total_s")
    m["screen.fit_screening_model.total_s"] = get(
        setup, "screen.fit_screening_model", "total_s")
    m["screen.lasso_fit.calls"] = get(setup, "screen.lasso_fit", "calls")
    m["screen.lasso_fit.total_s"] = get(setup, "screen.lasso_fit", "total_s")
    m["netmodel.apply_contingency.calls"] = get(
        setup, "netmodel.apply_contingency", "calls")
    m["netmodel.apply_contingency.total_s"] = get(
        setup, "netmodel.apply_contingency", "total_s")
    m["setup.powerflow.solve_ac.calls"] = get(setup, ac, "calls")
    m["setup.powerflow.solve_ac.self_s"] = get(setup, ac, "self_s")
    eb = "run.evaluate_batch"
    m[f"{eb}.calls"] = get(stats, eb, "calls")
    m[f"{eb}.genomes"] = get(stats, eb, "genomes")
    m[f"{eb}.unique_genomes"] = sum(c["unique"] for c in calls)
    m[f"{eb}.total_s"] = get(stats, eb, "total_s")
    m[f"{eb}.s_per_individual"] = per(stats, eb, "total_s", "genomes")
    m[f"{eb}.wait_s"] = get(stats, eb, "wait_s")
    m["run.individuals"] = sum(c["genomes"] for c in calls)
    m["evo.bce_step.self_s"] = get(stats, "evo.bce_step", "self_s")
    m["evo.environmental_selection.total_s"] = get(
        stats, "evo.environmental_selection", "total_s")
    m["evo.ibea_fitness.total_s"] = get(stats, "evo.ibea_fitness", "total_s")
    m["decide.select_bcs.total_s"] = get(stats, "decide.select_bcs", "total_s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "acdcopf" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"acdcopf.{name}")
            for name in ("netmodel", "powerflow", "opfcore", "screen", "evo",
                         "run", "decide", "cli")}
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    bench = Bench(args, mods, work)
    bench.setup()
    setup_s = time.perf_counter() - _T0
    if args.trace:
        metrics, calls = bench.measure_traced()
    else:
        metrics, calls = bench.measure()
        metrics["setup_s"] = setup_s
    measured = time.perf_counter()
    bench.base_patches.undo()
    bench.check(calls)
    if args.trace:
        metrics["screen.missed_uncorrectable"] = len(bench.missed)
        units = {name: layer_unit(name) for name in metrics}
    else:
        units = END_TO_END

    ledger = bench.ledger
    print(f"perfbench: set-up {setup_s:.1f} s, measured "
          f"{measured - _T0 - setup_s:.1f} s, checked "
          f"{time.perf_counter() - measured:.1f} s", file=sys.stderr)
    for message in bench.missed:
        print(f"screening miss: {message}", file=sys.stderr)
    print(f"perfbench: {len(bench.missed)} screening misses (outages the "
          f"screen dropped that cannot be corrected at an archive point)")
    for message in ledger.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


def layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail.endswith("_s") or tail == "s_per_individual":
        return "s"
    if tail == "us_per_call":
        return "us"
    if tail in ("recall", "feasible_per_call"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
