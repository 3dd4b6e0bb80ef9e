"""Command-line workflows: power flow, screening, ranking, optimization
and decision reports.

Every subcommand reads its settings through :func:`configure`: the
defaults, then a declarative JSON config (``--config``), then the
environment (``ACDCOPF_OUTPUT_DIR``, ``ACDCOPF_WORKERS``), then the
flags, each overriding the ones before and each key checked against the
type of its default.  Subcommands write CSV + JSON artifacts stamped with
the config hash and seed, and use a fixed exit-code taxonomy: 0 success,
2 validation, 3 solver divergence, 4 infeasible run, 5 I/O, 6 an
evaluator process died.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from . import decide, evo, netmodel, opfcore, screen
from .netmodel import (CaseError, ControlSpace, Network, bundled_case_path,
                       load_case)
from .run import CorrectiveConfig, OpfProblem

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3
EXIT_INFEASIBLE = 4
EXIT_IO = 5
EXIT_WORKER = 6

DEFAULT_CONFIG = {
    "case": None,
    "seed": None,
    "output_dir": "out",
    "optimizer": {
        "population": 100, "iterations": 50, "kappa": 0.05,
        "crossover_rate": 0.9, "mutation_rate": None,
        "eta_crossover": 20.0, "eta_mutation": 20.0, "workers": 1,
    },
    "screening": {"samples": 90, "width": 0.005, "model_path": None},
    "corrective": {"fraction": 0.15, "max_probes": 30, "tol_feas": 1e-6,
                   "include_discrete": True},
    "decision": {"clusters": 2, "weights": [0.5, 0.5]},
}
# the type of a key whose default is None, once it is set
NULLABLE = {"case": str, "seed": int, "optimizer.mutation_rate": float,
            "screening.model_path": str}
# smallest value a run can use
MINIMUM = {"optimizer.population": 1, "decision.clusters": 1,
           "corrective.fraction": 0}
# flag -> (config key it sets, subcommands that take it)
FLAGS = {
    "--case": ("case", ("powerflow", "train-screen", "rank", "optimize")),
    "--seed": ("seed", ("train-screen", "optimize", "decide")),
    "--out": ("output_dir", ("train-screen", "optimize", "decide")),
    "--samples": ("screening.samples", ("train-screen",)),
    "--workers": ("optimizer.workers", ("optimize",)),
    "--population": ("optimizer.population", ("optimize",)),
    "--iterations": ("optimizer.iterations", ("optimize",)),
}
# environment variable -> config key it sets
ENVIRONMENT = {"ACDCOPF_OUTPUT_DIR": "output_dir",
               "ACDCOPF_WORKERS": "optimizer.workers"}
# train-screen: share of the control samples held out for validation, and
# the fewest training rows per regression feature
HOLDOUT_FRACTION = 0.2
MIN_ROWS_FACTOR = 10


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Config handling


def _kind(where: str) -> type:
    """Type of the value at the dotted config key ``where``."""
    default = DEFAULT_CONFIG
    for key in where.split("."):
        default = default[key]
    return NULLABLE.get(where, type(default))


def _set(cfg: dict, where: str, value, source: str) -> None:
    """Set the dotted config key ``where`` to ``value`` (an object key by
    key), checked against the type of its default (an int is taken where
    a float is due) and against ``MINIMUM``."""
    *path, key = where.split(".")    # a section and its key, or a key
    section = cfg[path[0]] if path else cfg
    if key not in section:
        raise CliError(f"{source}: unknown config key {where!r}",
                       EXIT_VALIDATION)
    kind = _kind(where)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind and not (value is None and where in NULLABLE):
        raise CliError(f"{source}: {where} must be {kind.__name__}, "
                       f"not {value!r}", EXIT_VALIDATION)
    if where in MINIMUM and value < MINIMUM[where]:
        raise CliError(f"{source}: {where} must be >= {MINIMUM[where]}, "
                       f"not {value!r}", EXIT_VALIDATION)
    if kind is dict:
        for name, item in value.items():
            _set(cfg, f"{where}.{name}", item, source)
    else:
        section[key] = value


def load_config(path: str | None, flags: dict) -> dict:
    """Defaults, then the config file at ``path``, then the ``ACDCOPF_*``
    environment, then ``flags`` (dotted config key -> value), each
    checked as it is merged and overriding the ones before."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path:
        try:
            user = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise CliError(f"config file not found: {path}", EXIT_IO) from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}",
                           EXIT_VALIDATION) from exc
        if not isinstance(user, dict):
            raise CliError("config document must be a JSON object",
                           EXIT_VALIDATION)
        for key, value in user.items():
            _set(cfg, key, value, f"config file {path}")
    for name, where in ENVIRONMENT.items():
        raw = os.environ.get(name)
        if raw:
            kind = _kind(where)
            try:
                value = kind(raw)
            except ValueError as exc:
                raise CliError(f"{name}: {where} must be {kind.__name__}, "
                               f"not {raw!r}", EXIT_VALIDATION) from exc
            _set(cfg, where, value, name)
    for where, value in flags.items():
        _set(cfg, where, value, "command line")
    weights = cfg["decision"]["weights"]
    if len(weights) != 2 or not all(type(w) in (int, float) and w > 0
                                    for w in weights):
        raise CliError(f"decision.weights must be two positive numbers, "
                       f"not {weights!r}", EXIT_VALIDATION)
    return cfg


def configure(args, *, seed_required: bool) -> tuple[dict, dict]:
    """Settings of one subcommand and the stamp of its artifacts.

    Flags win over the environment, which wins over the config file,
    which wins over ``DEFAULT_CONFIG``.  Commands that do not require a
    seed use 0 when none is given.
    """
    cfg = load_config(args.config, {
        where: getattr(args, flag[2:]) for flag, (where, _) in FLAGS.items()
        if getattr(args, flag[2:], None) is not None})
    if cfg["seed"] is None:
        if seed_required:
            raise CliError("a seed is mandatory (config 'seed' or --seed)",
                           EXIT_VALIDATION)
        cfg["seed"] = 0
    return cfg, {"config_hash": config_hash(cfg), "seed": cfg["seed"]}


def config_hash(cfg: dict) -> str:
    """Hash of the semantic configuration.

    The worker count and output directory are runtime knobs that must not
    change any result, so they stay out of the hash (outputs of the same
    experiment remain byte-identical across them).
    """
    semantic = json.loads(json.dumps(cfg))
    semantic.pop("output_dir")
    semantic["optimizer"].pop("workers")
    return hashlib.sha256(
        json.dumps(semantic, sort_keys=True).encode()).hexdigest()[:16]


def resolve_case(cfg: dict) -> Network:
    case = cfg.get("case")
    if not case:
        raise CliError("no case file given (config 'case' or --case)",
                       EXIT_VALIDATION)
    path = Path(case)
    if case.startswith("bundled:"):
        path = bundled_case_path(case.split(":", 1)[1])
    try:
        return load_case(path)
    except CaseError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc


def load_model(path, net: Network,
               space: ControlSpace) -> screen.ScreeningModel:
    """The screening model at ``path``, checked against the case."""
    try:
        model = screen.ScreeningModel.load(path)
    except FileNotFoundError as exc:
        raise CliError(f"model file not found: {path}", EXIT_IO) from exc
    except (ValueError, KeyError) as exc:
        raise CliError(f"model file {path} is not a screening model: {exc}",
                       EXIT_VALIDATION) from exc
    if model.fingerprint != screen.model_fingerprint(net, space):
        raise CliError("model/case mismatch: feature layout hash differs; "
                       "retrain the model", EXIT_VALIDATION)
    return model


def load_control_overrides(space: ControlSpace,
                           path: str | None) -> np.ndarray:
    """The case defaults with the controls of the JSON object at ``path``
    (control name -> finite number) set, snapped to the control space."""
    u = space.default_vector()
    if not path:
        return u
    try:
        overrides = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise CliError(f"controls file not found: {path}", EXIT_IO) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"controls file is not valid JSON: {exc}",
                       EXIT_VALIDATION) from exc
    if not isinstance(overrides, dict):
        raise CliError("controls file must hold a JSON object, not "
                       f"{type(overrides).__name__}", EXIT_VALIDATION)
    for name, value in overrides.items():
        if name not in space.index:
            raise CliError(f"unknown control component {name!r}",
                           EXIT_VALIDATION)
        # a bool is not taken as a number; NaN fails the comparison
        if (type(value) not in (int, float)
                or not abs(value) <= sys.float_info.max):
            raise CliError(f"control {name} must be a finite number, "
                           f"not {value!r}", EXIT_VALIDATION)
        u[space.index[name]] = value
    return space.snap(u)[0]


# ---------------------------------------------------------------------------
# Output helpers


def _ensure_outdir(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out}: {exc}",
                       EXIT_IO) from exc
    return out


def write_csv(path: Path, header: list[str], rows: list[list],
              stamp: dict) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={stamp['config_hash']} seed={stamp['seed']}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, payload: dict, stamp: dict) -> None:
    doc = {"metadata": stamp}
    doc.update(payload)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1,
                               default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _fmt(value: float, digits: int = 6) -> str:
    return f"{value:.{digits}f}"


# ---------------------------------------------------------------------------
# powerflow


def cmd_powerflow(args) -> int:
    cfg, stamp = configure(args, seed_required=False)
    net = resolve_case(cfg)
    space = ControlSpace(net)
    u = load_control_overrides(space, args.controls)
    out = _ensure_outdir(cfg)

    trace: list | None = [] if args.debug_trace else None
    result = opfcore.evaluate(net, space, u, trace=trace)
    state = result.state
    if trace is not None and state.converged:
        rows = [[o, a, d, r] for o, a, d, r in trace]
        write_csv(out / "powerflow_trace.csv",
                  ["outer", "ac_iterations", "dc_iterations", "residual"],
                  rows, stamp)

    if not state.converged:
        print(f"power flow did not converge (stage: "
              f"{state.failure_stage or 'unknown'})", file=sys.stderr)
        return EXIT_DIVERGED

    gen_by_bus = {g.bus: i for i, g in enumerate(net.generators)}
    bus_rows = []
    for i, bus in enumerate(net.buses):
        gi = gen_by_bus.get(bus.id)
        bus_rows.append([
            bus.id, bus.kind, _fmt(state.ac.vm[i]), _fmt(state.ac.va[i]),
            _fmt(state.gen_p[gi]) if gi is not None else "",
            _fmt(state.gen_q[gi]) if gi is not None else "",
            _fmt(bus.p_d), _fmt(bus.q_d)])
    write_csv(out / "powerflow_buses.csv",
              ["bus", "kind", "u", "delta", "p_g", "q_g", "p_d", "q_d"],
              bus_rows, stamp)

    br_rows = [[br.label, _fmt(p), _fmt(q), _fmt(br.p_max)]
               for br, p, q in zip(net.branches, state.ac.p_branch,
                                   state.ac.q_branch)]
    write_csv(out / "powerflow_branches.csv",
              ["branch", "p_from", "q_from", "p_max"], br_rows, stamp)

    conv_rows = []
    for conv, cs in zip(result.net.converters, state.converters):
        u_dc = state.dc.u[net.dc_bus_index[conv.dc_bus]]
        conv_rows.append([cs.name, _fmt(cs.p_s), _fmt(cs.q_s), _fmt(u_dc),
                          _fmt(conv.droop),
                          _fmt(cs.p_dc), _fmt(cs.p_loss),
                          _fmt(cs.residual, 10)])
    write_csv(out / "powerflow_converters.csv",
              ["converter", "p_s", "q_s", "u_dc", "droop", "p_dc", "p_loss",
               "coupling_residual"], conv_rows, stamp)

    if net.dc_buses:
        dc_rows = [[b.id, _fmt(state.dc.u[i]), _fmt(state.dc.i_inj[i]),
                    _fmt(state.dc.p_inj[i])]
                   for i, b in enumerate(net.dc_buses)]
        write_csv(out / "powerflow_dc.csv",
                  ["dc_bus", "u_dc", "i_dc", "p_dc"], dc_rows, stamp)

    write_json(out / "powerflow.json", {
        "converged": state.converged,
        "outer_iterations": state.outer_iterations,
        "objectives": {"generation_cost": result.objectives[0],
                       "voltage_deviation": result.objectives[1]},
        "total_violation": result.report.total_violation,
        "violations": result.report.violations(),
    }, stamp)
    print(f"converged in {state.outer_iterations} coupling iteration(s); "
          f"f1={result.objectives[0]:.2f} $/h, "
          f"f2={result.objectives[1]:.6f} p.u.^2")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-screen


def train_screening_model(net: Network, cfg: dict):
    """Build training data, fit with cross-validated penalty, validate on
    held-out control samples.  Returns (model, validation dict, table rows,
    training set).
    """
    seed = cfg["seed"]
    space = ControlSpace(net)
    n_samples = cfg["screening"]["samples"]
    ac_outages = [k for k in net.contingencies if k.kind == "ac_line"]
    min_rows = MIN_ROWS_FACTOR * (len(net.contingencies) + len(space))
    if n_samples * max(1, len(ac_outages)) < min_rows:
        raise CliError(
            f"insufficient samples: {n_samples} control samples give "
            f"{n_samples * len(ac_outages)} rows, need >= {min_rows}",
            EXIT_VALIDATION)

    sampler = screen.SamplerConfig(width=cfg["screening"]["width"], seed=seed)
    train = screen.build_training_set(net, sampler, n_samples)

    rng = np.random.default_rng(seed + 1)
    n_hold = max(1, int(round(HOLDOUT_FRACTION * n_samples)))
    holdout = set(rng.choice(n_samples, size=n_hold, replace=False).tolist())
    train_rows = np.array([s not in holdout for s in train.row_sample])

    fit_set = screen.TrainingSet(
        x=train.x[train_rows], y=train.y[train_rows],
        feature_names=train.feature_names,
        row_outage=[o for o, keep in zip(train.row_outage, train_rows) if keep],
        row_sample=train.row_sample[train_rows],
        controls=train.controls, flagged=train.flagged[train_rows])
    model = screen.fit_screening_model(net, fit_set, seed=seed)

    # held-out validation: relative errors and per-sample rank correlation
    errors: list[float] = []
    rhos: list[float] = []
    hold_rows = ~train_rows
    for si in sorted(holdout):
        sel = hold_rows & (train.row_sample == si)
        preds, exacts = [], []
        for ri in np.flatnonzero(sel):
            pred = model.predict_row(train.x[ri])
            exact = train.y[ri]
            flagged = train.flagged[ri]
            preds.append(pred)
            exacts.append(exact)
            if not flagged and exact >= 0.05:
                errors.append(screen.prediction_error(pred, exact))
        exacts = np.array(exacts)
        preds = np.array(preds)
        keep = exacts >= 0.05
        if keep.sum() >= 3:
            rho = spearmanr(preds[keep], exacts[keep]).statistic
            rhos.append(float(rho))
    validation = {
        "holdout_samples": sorted(holdout),
        "n_holdout_rows": int(hold_rows.sum()),
        "n_errors_scored": len(errors),
        "max_abs_error_percent": max((abs(e) for e in errors), default=0.0),
        "mean_abs_error_percent": (float(np.mean([abs(e) for e in errors]))
                                   if errors else 0.0),
        "spearman_per_sample": rhos,
        "mean_spearman": float(np.mean(rhos)) if rhos else None,
        "lambda": model.lam,
        "n_training_rows": int(train_rows.sum()),
    }

    # severity table at the case's default operating point (held out of
    # training by construction); divergent outages carry the sentinel and
    # are excluded from the error statistics
    u0 = space.default_vector()
    table = []
    table_errors: list[float] = []
    preds, exacts = [], []
    for k in ac_outages:
        exact, diverged = screen.exact_index(
            netmodel.apply_contingency(net, k), space, u0)
        pred = model.predict(net, space, u0, k)
        err = None if diverged else screen.prediction_error(pred, exact)
        table.append([k.label, pred, exact,
                      err if err is not None else "",
                      screen.classify(pred)])
        if not diverged and exact >= 0.05:
            table_errors.append(abs(err))
            preds.append(pred)
            exacts.append(exact)
    table.sort(key=lambda row: -row[1])
    validation["table_max_abs_error_percent"] = max(table_errors, default=0.0)
    validation["table_rows_scored"] = len(table_errors)
    validation["table_spearman"] = (
        float(spearmanr(preds, exacts).statistic) if len(preds) >= 3 else None)
    return model, validation, table, train


def cmd_train_screen(args) -> int:
    cfg, stamp = configure(args, seed_required=True)
    net = resolve_case(cfg)
    out = _ensure_outdir(cfg)

    started = time.perf_counter()
    model, validation, table, train = train_screening_model(net, cfg)
    validation["train_seconds"] = round(time.perf_counter() - started, 3)

    model_path = out / "screening_model.json"
    model.save(model_path)
    write_json(out / "screen_validation.json", {"validation": validation},
               stamp)
    write_csv(out / "screen_error_table.csv",
              ["branch", "predicted", "exact", "error_percent", "class"],
              [[r[0], _fmt(r[1], 4), _fmt(r[2], 4),
                _fmt(r[3], 4) if r[3] != "" else "n/a", r[4]]
               for r in table], stamp)
    if args.dump_training:
        rows = [[o] + [f"{v:.6g}" for v in row] + [f"{y:.6g}"]
                for o, row, y in zip(train.row_outage, train.x, train.y)]
        write_csv(out / "training_set.csv",
                  ["outage"] + train.feature_names + ["index"], rows, stamp)
    print(f"model written to {model_path} (lambda={model.lam:.6g}, "
          f"max holdout |err|="
          f"{validation['max_abs_error_percent']:.3f}%)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# rank


def cmd_rank(args) -> int:
    cfg, stamp = configure(args, seed_required=False)
    net = resolve_case(cfg)
    space = ControlSpace(net)
    model = load_model(args.model, net, space)
    u = load_control_overrides(space, args.controls)
    out = _ensure_outdir(cfg)

    ranked = screen.rank_contingencies(model, net, space, u)
    header = ["branch", "predicted", "class"]
    rows = []
    for k, pred, cls in ranked.entries:
        row = [k.label, _fmt(pred, 4), cls]
        if args.exact:
            exact, diverged = screen.exact_index(
                netmodel.apply_contingency(net, k), space, u)
            err = (None if diverged
                   else screen.prediction_error(pred, exact))
            row += [_fmt(exact, 4), _fmt(err, 4) if err is not None else "n/a"]
        rows.append(row)
    if args.exact:
        header += ["exact", "error_percent"]
    write_csv(out / "rank.csv", header, rows, stamp)
    write_json(out / "rank.json", {
        "critical_set": ranked.labels(),
        "entries": [{"branch": k.label, "predicted": pred, "class": cls}
                    for k, pred, cls in ranked.entries],
    }, stamp)
    print(f"critical set: {ranked.labels()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize / decide


def cmd_optimize(args) -> int:
    cfg, stamp = configure(args, seed_required=True)
    net = resolve_case(cfg)
    space = ControlSpace(net)
    out = _ensure_outdir(cfg)

    model_path = cfg["screening"]["model_path"]
    model_file = Path(model_path) if model_path else out / "screening_model.json"
    model = None
    if args.no_screening:
        log.warning("screening disabled: every contingency will be checked")
    elif args.train_first or not model_file.exists():
        model, validation, _, _ = train_screening_model(net, cfg)
        model.save(model_file)
        write_json(out / "screen_validation.json",
                   {"validation": validation}, stamp)
    else:
        model = load_model(model_file, net, space)

    evo_settings = dict(cfg["optimizer"])
    workers = evo_settings.pop("workers")
    config = evo.EvoConfig(**evo_settings, seed=cfg["seed"])

    progress: list[evo.GenerationLog] = []
    started = time.perf_counter()
    try:
        with OpfProblem(net, model, CorrectiveConfig(**cfg["corrective"]),
                        workers=workers) as problem:
            archive = evo.run(problem, config, progress=progress)
    except BrokenProcessPool as exc:
        raise CliError(f"an evaluator process died: {exc}",
                       EXIT_WORKER) from exc
    elapsed = time.perf_counter() - started
    # the scheduled point is the first initial genome, so its record gives
    # the before-optimization row without a second evaluation
    base = archive.start
    if not np.array_equal(base.genome, space.default_vector()):
        raise RuntimeError("the first initial genome is not the scheduled "
                           "point")

    write_csv(out / "progress.csv",
              ["generation", "best_f1", "best_f2", "archive_size",
               "feasible_fraction"],
              [[g.generation, _fmt(g.best_f1, 4), _fmt(g.best_f2, 8),
                g.archive_size, _fmt(g.feasible_fraction, 4)]
               for g in progress], stamp)

    members = [{
        "id": m.id, "f1": m.objectives[0], "f2": m.objectives[1],
        "violation": m.violation, "genome": m.genome.tolist(),
        "cstar": m.meta.get("cstar", []),
    } for m in sorted(archive.members, key=lambda m: m.objectives[0])]
    write_csv(out / "archive.csv",
              ["id", "f1", "f2", "violation"] + list(space.names),
              [[m["id"], _fmt(m["f1"], 4), _fmt(m["f2"], 8),
                _fmt(m["violation"], 8)] + [f"{v:.8g}" for v in m["genome"]]
               for m in members], stamp)
    write_json(out / "archive.json", {
        "infeasible_run": archive.infeasible_run,
        "wall_seconds": round(elapsed, 3),
        "control_names": space.names,
        "members": members,
    }, stamp)

    if archive.infeasible_run or not archive.members:
        print("optimization finished with no feasible individual",
              file=sys.stderr)
        return EXIT_INFEASIBLE

    bcs = _write_decision(members, space.names, cfg, stamp, out)
    rows = [["before_optimization",
             _fmt(base.objectives[0], 2), _fmt(base.objectives[1], 6)]]
    rows += [[f"after_optimization_bcs{i + 1}", _fmt(e["f1"], 2),
              _fmt(e["f2"], 6)] for i, e in enumerate(bcs)]
    write_csv(out / "summary.csv", ["status", "f1", "f2"], rows, stamp)
    print(f"archive of {len(archive.members)} points in {elapsed:.1f} s; "
          f"artifacts in {out}")
    return EXIT_OK


def _write_decision(members: list[dict], names: list[str], cfg: dict,
                    stamp: dict, out: Path) -> list[dict]:
    """Best compromise solution of each cluster of the ``archive.json``
    ``members``, written to ``bcs.json`` and returned in its order; each
    genome becomes a map from control name to value.

    Members are clustered in id order, the order the archive keeps them
    in, so ``optimize`` and ``decide`` on its archive choose alike."""
    members = sorted(members, key=lambda m: m["id"])
    dec = cfg["decision"]
    selections = decide.select_bcs(
        np.array([[m["f1"], m["f2"]] for m in members]),
        n_clusters=dec["clusters"], weights=dec["weights"], seed=cfg["seed"])
    payload = []
    for sel in selections:
        m = members[sel.member_index]
        payload.append({
            "f1": m["f1"], "f2": m["f2"],
            "genome": dict(zip(names, m["genome"])),
            "critical_set": m["cstar"], "cluster": sel.cluster, "d": sel.d,
            "memberships": sel.memberships.tolist()})
    write_json(out / "bcs.json", {"best_compromise_solutions": payload},
               stamp)
    return payload


def cmd_decide(args) -> int:
    cfg, stamp = configure(args, seed_required=False)
    try:
        doc = json.loads(Path(args.archive).read_text())
    except FileNotFoundError:
        raise CliError(f"archive file not found: {args.archive}", EXIT_IO)
    except json.JSONDecodeError as exc:
        raise CliError(f"archive is not valid JSON: {exc}", EXIT_VALIDATION)
    if not isinstance(doc, dict) or "control_names" not in doc:
        raise CliError("archive lists no control_names; write it again "
                       "with optimize", EXIT_VALIDATION)
    members = doc.get("members", [])
    if not members:
        raise CliError("archive holds no members", EXIT_INFEASIBLE)
    out = _ensure_outdir(cfg)
    payload = _write_decision(members, doc["control_names"], cfg, stamp, out)
    for entry in payload:
        print(f"cluster {entry['cluster']}: f1={entry['f1']:.2f} "
              f"f2={entry['f2']:.6f} d={entry['d']:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acdcopf",
        description="Corrective security-constrained multi-objective OPF "
                    "for hybrid AC/DC grids")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn, text in (
            ("powerflow", cmd_powerflow, "solve one coupled power flow"),
            ("train-screen", cmd_train_screen, "train the screening model"),
            ("rank", cmd_rank, "rank contingencies by predicted index"),
            ("optimize", cmd_optimize, "run the optimization pipeline"),
            ("decide", cmd_decide, "re-run decision on an archive")):
        commands[name] = sub.add_parser(name, help=text)
        commands[name].add_argument("--config")
        commands[name].set_defaults(fn=fn)
    for flag, (where, names) in FLAGS.items():
        for name in names:
            commands[name].add_argument(flag, type=_kind(where))

    pf = commands["powerflow"]
    pf.add_argument("--controls", help="JSON file of control overrides")
    pf.add_argument("--debug-trace", action="store_true")
    commands["train-screen"].add_argument("--dump-training",
                                          action="store_true")
    rk = commands["rank"]
    rk.add_argument("--model", required=True)
    rk.add_argument("--controls")
    rk.add_argument("--exact", action="store_true",
                    help="also compute the exact index per outage")
    op = commands["optimize"]
    op.add_argument("--train-first", action="store_true")
    op.add_argument("--no-screening", action="store_true")
    commands["decide"].add_argument("--archive", required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
