"""Command-line workflows, artifact contracts and exit codes."""

import copy
import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acdcopf import cli, evo, run, screen
from acdcopf.netmodel import (ControlSpace, bundled_case_path,
                              load_bundled_case)

from conftest import two_bus_case, write_case


def run_cli(*argv):
    return cli.main(list(argv))


def _die(genome):
    """Stands in for ``run._worker_eval``: the evaluator process dies."""
    os._exit(1)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A trained screening model (reduced sample count, still valid)."""
    out = tmp_path_factory.mktemp("model")
    code = run_cli("train-screen", "--case", "bundled:case14_acdc",
                   "--seed", "3", "--samples", "30", "--out", str(out))
    assert code == 0
    return out


class TestPowerflowCmd:
    def test_bundled_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        assert run_cli("powerflow", "--case", "bundled:case14_acdc") == 0

    def test_outputs_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        assert run_cli("powerflow", "--case", "bundled:case14_acdc") == 0
        for name in ("powerflow_buses.csv", "powerflow_branches.csv",
                     "powerflow_converters.csv", "powerflow_dc.csv",
                     "powerflow.json"):
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "powerflow_buses.csv").read_text().splitlines()[0]
        assert header.startswith("# config_hash=")

    def test_controls_override_reflected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        controls = tmp_path / "controls.json"
        controls.write_text(json.dumps({"P_s:VSC1": -0.7776}))
        assert run_cli("powerflow", "--case", "bundled:case14_acdc",
                       "--controls", str(controls)) == 0
        with (tmp_path / "powerflow_converters.csv").open() as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        vsc1 = next(r for r in rows if r["converter"] == "VSC1")
        # droop shifts the realised transfer slightly off the schedule
        assert float(vsc1["p_s"]) == pytest.approx(-0.7776, abs=0.05)

    def test_droop_column_reports_applied_control(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        controls = tmp_path / "controls.json"
        controls.write_text(json.dumps({"R:VSC1": 0.01}))
        assert run_cli("powerflow", "--case", "bundled:case14_acdc",
                       "--controls", str(controls)) == 0
        with (tmp_path / "powerflow_converters.csv").open() as fh:
            fh.readline()
            rows = {r["converter"]: r for r in csv.DictReader(fh)}
        assert rows["VSC1"]["droop"] == "0.010000"

    def test_malformed_case_no_partial_output(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(out))
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = run_cli("powerflow", "--case", str(bad))
        assert code == cli.EXIT_VALIDATION
        assert not (out / "powerflow_buses.csv").exists()

    @pytest.mark.parametrize("value", ["x", True])
    def test_non_numeric_case_field_rejected(self, value, tmp_path,
                                             monkeypatch, capsys):
        # a string used to end in a NumPy traceback with exit 1, and
        # true used to load as a demand of 1.0 p.u. and solve
        out = tmp_path / "out"
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(out))
        case = json.loads(bundled_case_path("case14_acdc").read_text())
        case["ac_buses"][3]["p_d"] = value
        code = run_cli("powerflow", "--case", str(write_case(tmp_path, case)))
        assert code == cli.EXIT_VALIDATION == 2
        assert "ac_buses[3].p_d must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_control_component(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        controls = tmp_path / "controls.json"
        controls.write_text(json.dumps({"P_s:VSC9": 0.0}))
        code = run_cli("powerflow", "--case", "bundled:case14_acdc",
                       "--controls", str(controls))
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("text,named", [
        ('{"P_s:VSC1": "abc"}', "P_s:VSC1"),
        ('{"P_s:VSC1": null}', "P_s:VSC1"),
        ('{"P_s:VSC1": NaN}', "P_s:VSC1"),
        ('{"P_s:VSC1": Infinity}', "P_s:VSC1"),
        ('{"P_s:VSC1": true}', "P_s:VSC1"),
        ('{"P_s:VSC1": [0.5]}', "P_s:VSC1"),
        ("null", "object"),
        ("[1, 2]", "object"),
    ])
    def test_malformed_controls_rejected(self, text, named, tmp_path,
                                         monkeypatch, capsys):
        out = tmp_path / "out"
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(out))
        controls = tmp_path / "controls.json"
        controls.write_text(text)
        code = run_cli("powerflow", "--case", "bundled:case14_acdc",
                       "--controls", str(controls))
        assert code == cli.EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["powerflow"], ["train-screen", "--seed", "1"], ["rank", "--model", "m"],
    ["optimize", "--seed", "1"]])
def test_dc_grid_without_voltage_control_rejected(argv, tmp_path,
                                                   monkeypatch, capsys):
    # every station const_p: the DC voltages are undetermined
    case = json.loads(bundled_case_path("case14_acdc").read_text())
    for conv in case["converters"]:
        conv["mode"] = "const_p"
    path = write_case(tmp_path, case)
    monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path / "out"))
    assert run_cli(*argv, "--case", str(path)) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no droop or const_vdc converter" in err
    assert "Traceback" not in err


class TestTrainScreenCmd:
    def test_zero_samples_rejected(self, tmp_path):
        code = run_cli("train-screen", "--case", "bundled:case14_acdc",
                       "--seed", "1", "--samples", "0",
                       "--out", str(tmp_path))
        assert code == cli.EXIT_VALIDATION

    def test_seed_mandatory(self, tmp_path):
        code = run_cli("train-screen", "--case", "bundled:case14_acdc",
                       "--out", str(tmp_path))
        assert code == cli.EXIT_VALIDATION

    def test_artifacts(self, model_dir):
        model = json.loads((model_dir / "screening_model.json").read_text())
        assert model["version"] == "screening-model/1"
        assert len(model["sigma"]) == len(model["feature_names"])
        table = (model_dir / "screen_error_table.csv").read_text()
        assert "L1(1-2)" in table
        validation = json.loads(
            (model_dir / "screen_validation.json").read_text())
        assert validation["validation"]["n_training_rows"] > 0

    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli("train-screen", "--case", "bundled:case14_acdc",
                           "--seed", "3", "--samples", "30",
                           "--out", str(out)) == 0
            outs.append((out / "screening_model.json").read_bytes())
        assert outs[0] == outs[1]


def test_holdout_spearman_skips_diverged_rows(monkeypatch):
    """The held-out rank correlation scores the rows that the
    default-point table scores: the index of a diverged (flagged) row
    does not move it."""
    net = load_bundled_case("case14_acdc")
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["seed"] = 3
    cfg["screening"]["samples"] = 30
    build = screen.build_training_set
    built = []

    def training(value, samples):
        def flagged_holdout(net, controls, variants):
            if not built:
                built.append(build(net, controls, variants))
            train = built[0]
            # three outages diverge at every held-out control sample
            outages = sorted(set(train.row_outage))[:3]
            mark = (np.isin(train.row_sample, samples)
                    & np.isin(train.row_outage, outages))
            return dataclasses.replace(train,
                                       y=np.where(mark, value, train.y),
                                       flagged=train.flagged | mark)
        return flagged_holdout

    monkeypatch.setattr(screen, "build_training_set", training(0.0, []))
    _, plain, _, _ = cli.train_screening_model(net, cfg)
    holdout = plain["holdout_samples"]
    runs = []
    for value in (screen.PI_MAX, 0.05):
        monkeypatch.setattr(screen, "build_training_set",
                            training(value, holdout))
        runs.append(cli.train_screening_model(net, cfg)[1])
    assert runs[0]["spearman_per_sample"]
    for key in ("spearman_per_sample", "n_errors_scored", "lambda"):
        assert runs[0][key] == runs[1][key]


def test_holdout_recall_recomputed(monkeypatch):
    """``holdout_insecure_rows`` counts the held-out rows whose exact
    index is above 1, and ``holdout_recall`` is the share of them that
    the model ranks insecure at their control sample."""
    net = load_bundled_case("case14_acdc")
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["seed"] = 3
    # a wide box, where the model misses some insecure rows
    cfg["screening"].update(samples=30, width=0.15)
    seen = []
    build = screen.build_training_set

    def capture(net, controls, variants):
        seen.append(controls)
        return build(net, controls, variants)

    monkeypatch.setattr(screen, "build_training_set", capture)
    model, validation, _, train = cli.train_screening_model(net, cfg)
    held = np.isin(train.row_sample, validation["holdout_samples"])
    insecure = held & (train.y > 1.0)
    kept = [cls == "insecure"
            for si, kid in zip(train.row_sample[insecure],
                               train.row_outage[insecure])
            for k, _, cls in screen.rank_contingencies(model, net,
                                                       seen[0][si])
            if k.branch_id == kid]
    assert len(kept) == validation["holdout_insecure_rows"] > 0
    assert 0.0 < np.mean(kept) < 1.0
    assert validation["holdout_recall"] == pytest.approx(np.mean(kept),
                                                         abs=1e-15)


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    """No command uses scipy: importing the command line loads none of
    ``scipy.stats``, ``scipy.linalg`` and ``scipy.optimize`` (the
    corrective search solves its adjoint system with numpy), and
    ``train-screen`` followed by a screened ``optimize`` loads no scipy
    module at all (the Latin hypercube and the rank correlation are
    numpy)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def probe(code):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        return out.stdout.strip().splitlines()[-1]

    assert probe("import sys, acdcopf.cli; print(any(m in sys.modules for m "
                 "in ('scipy.stats', 'scipy.linalg', 'scipy.optimize')))"
                 ) == "False"
    common = ["--case", "bundled:case14_acdc", "--seed", "3",
              "--out", str(tmp_path)]
    commands = [["train-screen", *common, "--samples", "30"],
                ["optimize", *common, "--population", "4",
                 "--iterations", "1", "--workers", "1"]]
    assert probe("import sys\nfrom acdcopf import cli\n"
                 f"codes = [cli.main(argv) for argv in {commands!r}]\n"
                 "print(codes, sorted(m for m in sys.modules if m == 'scipy'"
                 " or m.startswith('scipy.')))") == "[0, 0] []"


class TestRankCmd:
    def test_rank_and_critical_set(self, model_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        code = run_cli("rank", "--model",
                       str(model_dir / "screening_model.json"),
                       "--case", "bundled:case14_acdc")
        assert code == 0
        doc = json.loads((tmp_path / "rank.json").read_text())
        critical = doc["critical_set"]
        for label in ("DC1(1-2)", "DC2(2-3)", "DC3(1-3)"):
            assert label in critical
        assert len(doc["entries"]) == 17

    def test_exact_column(self, model_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        code = run_cli("rank", "--model",
                       str(model_dir / "screening_model.json"),
                       "--case", "bundled:case14_acdc", "--exact")
        assert code == 0
        with (tmp_path / "rank.csv").open() as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert "exact" in rows[0] and "error_percent" in rows[0]

    def test_exact_column_matches_training_table(self, model_dir, tmp_path,
                                                 monkeypatch):
        """``rank --exact`` at the case point and the error table of
        ``train-screen`` give the same rows in the same order."""
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        assert run_cli("rank", "--model",
                       str(model_dir / "screening_model.json"),
                       "--case", "bundled:case14_acdc", "--exact") == 0

        def rows(path):
            with path.open() as fh:
                fh.readline()
                return [{key: row[key] for key in
                         ("branch", "predicted", "exact", "error_percent",
                          "class")} for row in csv.DictReader(fh)]

        table = rows(model_dir / "screen_error_table.csv")
        assert len(table) == 17
        assert rows(tmp_path / "rank.csv") == table

    def test_model_case_mismatch(self, model_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path))
        other = write_case(tmp_path, two_bus_case())
        model = str(model_dir / "screening_model.json")
        code = run_cli("rank", "--model", model, "--case", str(other))
        assert code == cli.EXIT_VALIDATION
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"screening": {"model_path": model}}))
        code = run_cli("optimize", "--config", str(cfg_path), "--case",
                       str(other), "--seed", "1", "--out", str(tmp_path))
        assert code == cli.EXIT_VALIDATION

    def test_missing_model_file(self, tmp_path):
        code = run_cli("rank", "--model", str(tmp_path / "nope.json"),
                       "--case", "bundled:case14_acdc")
        assert code == cli.EXIT_IO

    def test_malformed_model_file(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text("{}")
        code = run_cli("rank", "--model", str(model),
                       "--case", "bundled:case14_acdc")
        assert code == cli.EXIT_VALIDATION


class TestOptimizeAndDecideCmd:
    def test_small_run_artifacts(self, model_dir, tmp_path):
        cfg = {
            "case": "bundled:case14_acdc",
            "seed": 11,
            "output_dir": str(tmp_path),
            "optimizer": {"population": 12, "iterations": 2, "workers": 1},
            "screening": {"model_path": str(model_dir
                                            / "screening_model.json")},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("optimize", "--config", str(cfg_path)) == 0
        assert (tmp_path / "progress.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        doc = json.loads((tmp_path / "archive.json").read_text())
        assert len(doc["members"]) > 1
        # the decision rerun over the written archive writes the same file
        out2 = tmp_path / "redecide"
        assert run_cli("decide", "--archive", str(tmp_path / "archive.json"),
                       "--config", str(cfg_path), "--out", str(out2)) == 0
        bcs = (tmp_path / "bcs.json").read_bytes()
        assert (out2 / "bcs.json").read_bytes() == bcs
        names = ControlSpace(load_bundled_case("case14_acdc")).names
        for entry in json.loads(bcs)["best_compromise_solutions"]:
            assert list(entry["genome"]) == sorted(names)
        # an archive without its control names cannot be decided
        del doc["control_names"]
        (tmp_path / "old.json").write_text(json.dumps(doc))
        assert run_cli("decide", "--archive", str(tmp_path / "old.json"),
                       "--out", str(out2)) == cli.EXIT_VALIDATION

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"case": "bundled:case14_acdc",
                                        "seed": 1, "bogus": 1}))
        assert run_cli("optimize", "--config",
                       str(cfg_path)) == cli.EXIT_VALIDATION

    def test_unknown_nested_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        for bad in ({"optimizer": {"popualtion": 10}},
                    {"screening": {"samples": 30, "fold": 3}},
                    {"decision": {"weights": [0.5, 0.5], "cluster": 3}}):
            cfg_path.write_text(json.dumps(
                {"case": "bundled:case14_acdc", "seed": 1, **bad}))
            with pytest.raises(cli.CliError) as exc:
                cli.load_config(str(cfg_path), {})
            assert exc.value.code == cli.EXIT_VALIDATION
            assert run_cli("optimize", "--config",
                           str(cfg_path)) == cli.EXIT_VALIDATION

    def test_removed_config_maps_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        for key, bad in (
                ("corrective.per_kind", {"corrective": {"per_kind": {}}}),
                ("corrective.per_name",
                 {"corrective": {"per_name": {"P_s:VSC1": 0.1}}}),
                ("screening.width_per_kind",
                 {"screening": {"width_per_kind": {"droop": 0.001}}}),
                ("optimizer.kappa", {"optimizer": {"kappa": 0.05}}),
                ("optimizer.crossover_rate",
                 {"optimizer": {"crossover_rate": 0.9}}),
                ("optimizer.mutation_rate",
                 {"optimizer": {"mutation_rate": None}}),
                ("optimizer.eta_crossover",
                 {"optimizer": {"eta_crossover": 20.0}}),
                ("optimizer.eta_mutation",
                 {"optimizer": {"eta_mutation": 20.0}})):
            cfg_path.write_text(json.dumps(bad))
            with pytest.raises(cli.CliError, match=key) as exc:
                cli.load_config(str(cfg_path), {})
            assert exc.value.code == cli.EXIT_VALIDATION
            assert run_cli("optimize", "--config", str(cfg_path), "--seed",
                           "1", "--out", str(tmp_path)) == cli.EXIT_VALIDATION

    def test_default_config_matches_library_defaults(self):
        # a default set in both places could drift apart
        defaults = cli.DEFAULT_CONFIG
        assert (run.CorrectiveConfig(**defaults["corrective"])
                == run.CorrectiveConfig())
        optimizer = dict(defaults["optimizer"])
        del optimizer["workers"]
        assert evo.EvoConfig(**optimizer, seed=0) == evo.EvoConfig(seed=0)

    def test_missing_model_file_not_trained(self, tmp_path, monkeypatch,
                                            capsys):
        # train-screen writes the model; optimize never trains its own
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(cli, "OpfProblem", no_solve)
        monkeypatch.setattr(cli, "train_screening_model", no_solve)
        code = run_cli("optimize", "--case", "bundled:case14_acdc",
                       "--seed", "1", "--out", str(tmp_path))
        assert code == cli.EXIT_IO
        assert "model file not found" in capsys.readouterr().err
        assert not (tmp_path / "screening_model.json").exists()
        assert not (tmp_path / "screen_validation.json").exists()

    def test_train_first_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["optimize", "--seed", "1", "--train-first"])
        assert exc.value.code == cli.EXIT_VALIDATION
        assert "--train-first" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,env,key", [
        ({"optimizer": 5}, None, "optimizer"),
        ({"optimizer": {"population": "ten"}}, None, "optimizer.population"),
        ({"seed": "x"}, None, "seed"),
        ({"screening": {"model_path": 3}}, None, "screening.model_path"),
        ({"corrective": {"include_discrete": 1}}, None,
         "corrective.include_discrete"),
        ({}, "abc", "ACDCOPF_WORKERS"),
        ({"optimizer": {"population": 0}}, None, "optimizer.population"),
        ({"decision": {"clusters": 0}}, None, "decision.clusters"),
        ({"decision": {"weights": [1.0]}}, None, "decision.weights"),
        ({"decision": {"weights": [0.5, -0.5]}}, None, "decision.weights"),
        ({"decision": {"weights": [0.5, "a"]}}, None, "decision.weights"),
        ({"corrective": {"fraction": -0.1}}, None, "corrective.fraction"),
        ({"optimizer": {"kappa": 0}}, None, "optimizer.kappa"),
        ({"optimizer": {"kappa": -0.05}}, None, "optimizer.kappa"),
        ({"optimizer": {"eta_crossover": -1.0}}, None,
         "optimizer.eta_crossover"),
        ({"optimizer": {"eta_mutation": -1.0}}, None,
         "optimizer.eta_mutation"),
        ({"corrective": {"fraction": float("nan")}}, None,
         "corrective.fraction"),
        ({"optimizer": {"crossover_rate": 7.5}}, None,
         "optimizer.crossover_rate"),
        ({"optimizer": {"mutation_rate": -2.0}}, None,
         "optimizer.mutation_rate"),
        ({"optimizer": {"eta_mutation": float("inf")}}, None,
         "optimizer.eta_mutation"),
        ({"screening": {"width": -0.3}}, None, "screening.width"),
    ])
    def test_bad_setting_rejected_before_solving(self, doc, env, key, tmp_path,
                                                 monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(cli, "OpfProblem", no_solve)
        monkeypatch.setattr(cli, "train_screening_model", no_solve)
        if env is not None:
            monkeypatch.setenv("ACDCOPF_WORKERS", env)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"case": "bundled:case14_acdc", "seed": 1, **doc}))
        assert run_cli("optimize", "--config", str(cfg_path), "--out",
                       str(tmp_path)) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and key in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["train-screen"], ["optimize"], ["decide", "--archive", "a.json"]])
    def test_flags_beat_environment(self, argv, tmp_path, monkeypatch):
        monkeypatch.setenv("ACDCOPF_OUTPUT_DIR", str(tmp_path / "env"))
        monkeypatch.setenv("ACDCOPF_WORKERS", "3")
        args = cli.build_parser().parse_args(argv + ["--out", "flag"])
        cfg, _ = cli.configure(args, seed_required=False)
        assert cfg["output_dir"] == "flag"
        assert cfg["optimizer"]["workers"] == 3
        if argv == ["optimize"]:
            args = cli.build_parser().parse_args(argv + ["--workers", "2"])
            cfg, _ = cli.configure(args, seed_required=False)
            assert cfg["optimizer"]["workers"] == 2
            assert cfg["output_dir"] == str(tmp_path / "env")

    def test_summary_rows_match_bcs(self, tmp_path, monkeypatch):
        # the archive keeps its members in insertion order, not f1 order
        objectives = [(6400.0, 0.002), (5000.0, 0.050), (5600.0, 0.010),
                      (6000.0, 0.005), (5400.0, 0.020), (5200.0, 0.030)]
        space = ControlSpace(load_bundled_case("case14_acdc"))
        archive = evo.ParetoArchive(len(objectives))
        archive.members = [
            evo.Individual(id=i, genome=np.full(len(space), float(i)),
                           objectives=f, violation=0.0, meta={"cstar": []})
            for i, f in enumerate(objectives)]

        archive.start = evo.Individual(
            id=len(objectives), genome=space.default_vector(),
            objectives=(12924.5, 0.0462), violation=0.0)

        class StubProblem:
            def __init__(self, net, model, corrective, workers=1):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

        monkeypatch.setattr(cli, "OpfProblem", StubProblem)
        monkeypatch.setattr(evo, "run", lambda problem, config, progress=None:
                            archive)
        assert run_cli("optimize", "--case", "bundled:case14_acdc",
                       "--seed", "1", "--no-screening",
                       "--out", str(tmp_path)) == 0
        bcs = json.loads((tmp_path / "bcs.json").read_text())
        bcs = bcs["best_compromise_solutions"]
        with (tmp_path / "summary.csv").open() as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert rows[0] == {"status": "before_optimization",
                           "f1": "12924.50", "f2": "0.046200"}
        assert len(rows) == 1 + len(bcs) == 3
        for i, (row, entry) in enumerate(zip(rows[1:], bcs)):
            assert row["status"] == f"after_optimization_bcs{i + 1}"
            assert row["f1"] == f"{entry['f1']:.2f}"
            assert row["f2"] == f"{entry['f2']:.6f}"

    def test_scheduled_point_evaluated_once(self, model_dir, tmp_path,
                                            monkeypatch):
        scheduled = ControlSpace(load_bundled_case("case14_acdc")) \
            .default_vector()
        seen = []
        batch = run.OpfProblem.evaluate_batch
        one = run.OpfProblem.evaluate_one

        def evaluate_batch(problem, genomes):
            seen.extend(genomes)
            return batch(problem, genomes)

        def evaluate_one(problem, genome):
            seen.append(genome)
            return one(problem, genome)

        monkeypatch.setattr(run.OpfProblem, "evaluate_batch", evaluate_batch)
        monkeypatch.setattr(run.OpfProblem, "evaluate_one", evaluate_one)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"screening": {
            "model_path": str(model_dir / "screening_model.json")}}))
        assert run_cli("optimize", "--config", str(cfg_path),
                       "--case", "bundled:case14_acdc", "--seed", "11",
                       "--population", "6", "--iterations", "1",
                       "--workers", "1", "--out", str(tmp_path)) == 0
        assert sum(np.array_equal(g, scheduled) for g in seen) == 1
        with (tmp_path / "summary.csv").open() as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert rows[0] == {"status": "before_optimization",
                           "f1": "12924.50", "f2": "0.046235"}

    def test_dead_worker_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(run, "_worker_eval", _die)
        assert run_cli("optimize", "--case", "bundled:case14_acdc",
                       "--seed", "1", "--no-screening", "--population", "4",
                       "--iterations", "1", "--workers", "2",
                       "--out", str(tmp_path)) == cli.EXIT_WORKER
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "evaluator process died" in errors[0]
        assert "Traceback" not in err

    def test_small_run_artifacts_pinned(self, tmp_path):
        # tripwire for arithmetic drift anywhere in the pipeline: a change
        # meant to keep the optimizer's trajectory keeps these digests,
        # and a change that moves it updates them and says so.  They hold
        # for the NumPy/LAPACK build they were taken with
        assert run_cli("optimize", "--case", "bundled:case14_acdc",
                       "--no-screening", "--seed", "1003", "--population",
                       "6", "--iterations", "2", "--out", str(tmp_path)) == 0
        digests = {name: hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest()
            for name in ("archive.csv", "bcs.json")}
        assert digests == {
            "archive.csv": "5211dc5ea5c3af31904d5172ae2b24d6"
                           "de2300a844c3226e1867bf03e4dabe48",
            "bcs.json": "d0bb5e1856570fdc0e2c706e8176f7a7"
                        "c029ec6732b0d706010709cda48883df"}

    def test_small_screened_run_artifacts_pinned(self, tmp_path):
        # the same tripwire through the screen: a model from
        # ``train-screen``, then an optimize that loads it
        common = ["--case", "bundled:case14_acdc", "--out", str(tmp_path)]
        assert run_cli("train-screen", *common, "--seed", "1",
                       "--samples", "30") == 0
        assert run_cli("optimize", *common, "--seed", "1003",
                       "--population", "6", "--iterations", "2") == 0
        digests = {name: hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest()
            for name in ("archive.csv", "bcs.json")}
        assert digests == {
            "archive.csv": "b8df90a364bd3a626ef064e5f6ee9896"
                           "9b8685e9e16cac59d82ecf4165779afc",
            "bcs.json": "f5d85b45c0b052d9c8c766374cb124ad"
                        "57110189e6823385468cf4b0b5145adf"}

    def test_train_screen_artifacts_pinned(self, tmp_path):
        # tripwire for the training arithmetic, which the screened digests
        # above see only through the optimizer: the model and validation
        # of ``train-screen --seed 1 --samples 30``, with the wall-clock
        # ``train_seconds`` masked.  They hold for the NumPy/LAPACK build
        # they were taken with
        assert run_cli("train-screen", "--case", "bundled:case14_acdc",
                       "--seed", "1", "--samples", "30",
                       "--out", str(tmp_path)) == 0
        model = (tmp_path / "screening_model.json").read_bytes()
        validation = re.sub(
            rb'"train_seconds": [^,\n]+', b'"train_seconds": 0',
            (tmp_path / "screen_validation.json").read_bytes())
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in (("screening_model.json", model),
                                      ("screen_validation.json", validation))}
        assert digests == {
            "screening_model.json": "55d6815e3032d5ab66f076e056731870"
                                    "55de39fa3b4a062698dac8c9024d4796",
            "screen_validation.json": "c043f2411e5d857bdbfed6cfe5accf34"
                                      "0342a114e99e2d494e6bff44b1f28975"}

    def test_decide_missing_archive(self, tmp_path):
        code = run_cli("decide", "--archive", str(tmp_path / "none.json"),
                       "--seed", "1", "--out", str(tmp_path))
        assert code == cli.EXIT_IO
