"""Composite security index, Lasso training and contingency filtering."""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from acdcopf import cli, opfcore, powerflow, screen
from acdcopf.netmodel import ControlSpace, apply_contingency
from acdcopf.screen import (DROOP_WIDTH, SecurityIndexParams, classify,
                            composite_index, filter_contingencies,
                            lambda_max, lasso_fit, lasso_objective,
                            prediction_error)

from conftest import training_set

from oracles import cold_exact_index, lasso_fit_residual, lasso_kkt_violation
from oracles import lasso_objective as oracle_objective
from oracles import lasso_subgradient_oracle


@pytest.fixture(scope="module")
def cv_rows(acdc_net):
    """The standardized rows, centred responses and penalty grid that
    ``train-screen --seed 1 --samples 30`` cross-validates over."""
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["seed"] = 1
    cfg["screening"]["samples"] = 30
    seen = []
    fit = screen.fit_screening_model

    def capture(net, train, **kwargs):
        seen.append(train)
        return fit(net, train, **kwargs)

    screen.fit_screening_model = capture
    try:
        cli.train_screening_model(acdc_net, cfg)
    finally:
        screen.fit_screening_model = fit
    z, _, _, active = screen.standardize(seen[0].x)
    x = z[:, active]
    y = seen[0].y - seen[0].y.mean()
    lmax = lambda_max(x, y)
    grid = np.geomspace(screen.LAMBDA_MIN_FACTOR * lmax, lmax,
                        screen.GRID_SIZE)[::-1]
    return x, y, grid


def index_params(n_bus=1, n_branch=1):
    return SecurityIndexParams(
        h_min=np.full(n_bus, 0.90), h_max=np.full(n_bus, 1.10),
        a_min=np.full(n_bus, 0.85), a_max=np.full(n_bus, 1.15),
        p_secure=np.full(n_branch, 1.0), p_alarm=np.full(n_branch, 1.5))


class FakeAc:
    def __init__(self, vm, flows):
        self.vm = np.asarray(vm, dtype=float)
        self.p_branch = np.asarray(flows, dtype=float)


class FakeState:
    def __init__(self, vm, flows, converged=True):
        self.ac = FakeAc(vm, flows)
        self.converged = converged


class TestCompositeIndex:
    def test_all_secure_is_zero(self):
        state = FakeState([1.0, 1.05, 0.95], [0.5, -0.8])
        params = index_params(3, 2)
        assert composite_index(state, params) == 0.0

    def test_single_violation_hand_value(self):
        # U = 0.88 against H_min = 0.90, A_min = 0.85: q = 0.4, and the
        # fourth-power mean of one term returns it unchanged
        state = FakeState([0.88], [0.0])
        params = index_params(1, 1)
        assert composite_index(state, params) == pytest.approx(0.4, abs=1e-12)
        assert classify(0.4) == "alarm"

    def test_flow_violation_uses_magnitude(self):
        state = FakeState([1.0], [-1.25])
        params = index_params(1, 1)
        assert composite_index(state, params) == pytest.approx(0.5, abs=1e-12)

    def test_unconverged_sentinel(self):
        state = FakeState([1.0], [0.0], converged=False)
        assert composite_index(state, index_params()) == screen.PI_MAX

    def test_monotone_in_violations(self):
        rng = np.random.default_rng(5)
        params = index_params(4, 3)
        for _ in range(300):
            vm = rng.uniform(0.8, 1.2, 4)
            flows = rng.uniform(-2.0, 2.0, 3)
            base = composite_index(FakeState(vm, flows), params)
            vm2 = vm.copy()
            j = rng.integers(0, 4)
            vm2[j] = vm2[j] + 0.05 if vm2[j] > 1.0 else vm2[j] - 0.05
            worse = composite_index(FakeState(vm2, flows), params)
            assert worse >= base - 1e-12

    def test_classification_thresholds(self):
        assert classify(0.0) == "secure"
        assert classify(1e-9) == "alarm"
        assert classify(1.0) == "alarm"
        assert classify(1.0 + 1e-12) == "insecure"

    def test_zero_iff_no_security_crossing(self, acdc_net, base_eval):
        params = SecurityIndexParams.from_network(acdc_net)
        value = composite_index(base_eval.state, params)
        vm = base_eval.state.ac.vm
        flows = np.abs(base_eval.state.ac.p_branch)
        crossed = (np.any(vm > params.h_max) or np.any(vm < params.h_min)
                   or np.any(flows > params.p_secure))
        assert (value == 0.0) == (not crossed)


class TestPredictionError:
    def test_paper_positive(self):
        assert prediction_error(3.3688, 3.3386) == pytest.approx(0.9046,
                                                                 abs=5e-4)

    def test_exact_match(self):
        assert prediction_error(2.5, 2.5) == 0.0

    def test_paper_negative(self):
        assert prediction_error(2.3926, 2.5000) == pytest.approx(-4.2960,
                                                                 abs=5e-4)

    def test_zero_exact_undefined(self):
        assert prediction_error(0.3, 0.0) is None


class TestTrainingSet:
    def test_row_count(self, acdc_net):
        train = training_set(acdc_net, 5, seed=3)
        n_ac = sum(1 for k in acdc_net.contingencies if k.kind == "ac_line")
        assert train.x.shape == (5 * n_ac,
                                 len(acdc_net.contingencies) + 24)
        assert len(train.row_outage) == 5 * n_ac

    def test_zero_width_box_constant_controls(self, acdc_net, acdc_space):
        # at width 0 only the droop slopes vary, within DROOP_WIDTH of
        # their range around the case point
        train = training_set(acdc_net, 4, seed=3, width=0.0)
        controls = train.x[:, len(acdc_net.contingencies):]
        droop = np.array(acdc_space.kinds) == "droop"
        assert droop.any()
        assert np.all(controls[:, ~droop].std(axis=0) < 1e-12)
        assert np.all(controls[:, droop].std(axis=0) > 0.0)
        reach = np.abs(controls - acdc_space.default_vector())[:, droop]
        span = (acdc_space.hi - acdc_space.lo)[droop]
        assert np.all(reach <= DROOP_WIDTH * span + 1e-12)

    def test_responses_nonnegative(self, acdc_net):
        train = training_set(acdc_net, 4, seed=3)
        assert np.all(train.y >= 0.0)

    def test_dc_columns_stay_zero(self, acdc_net):
        train = training_set(acdc_net, 3, seed=3)
        dc_cols = [i for i, k in enumerate(acdc_net.contingencies)
                   if k.kind == "dc_line"]
        assert np.all(train.x[:, dc_cols] == 0.0)


class TestExactIndices:
    """Training rows come from one base solve per sample and a warm
    solve per outage variant (``screen.exact_indices``)."""

    def test_agrees_with_cold_oracle(self, acdc_net, acdc_space):
        # the first 4 control samples of ``train-screen --seed 1``
        screening = cli.DEFAULT_CONFIG["screening"]
        controls = screen.sample_controls(acdc_space, screening["samples"],
                                          screening["width"], 1)[:4]
        train = screen.build_training_set(
            acdc_net, controls, screen.outage_variants(acdc_net))
        exact, diverged = map(np.array, zip(*(
            cold_exact_index(acdc_net, acdc_space, controls[si],
                             acdc_net.contingency(kid))
            for si, kid in zip(train.row_sample, train.row_outage))))
        assert train.flagged.any()
        assert np.array_equal(train.flagged, diverged)
        assert np.abs(train.y - exact).max() <= 1e-6

    def test_work_counts(self, acdc_net, monkeypatch):
        calls = dict.fromkeys(("solve_acdc", "solve_acdc_stack", "warm",
                               "solve_ac", "solve_ac_stack", "stacked",
                               "solve_dc"), 0)

        def counting(name):
            solve = getattr(powerflow, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "solve_acdc_stack" and kwargs["warm"] is not None:
                    calls["warm"] += len(args[0])
                if name == "solve_ac_stack":
                    calls["stacked"] += len(args[0])
                return solve(*args, **kwargs)
            return wrapper

        for name in ("solve_acdc", "solve_acdc_stack", "solve_ac",
                     "solve_ac_stack", "solve_dc"):
            monkeypatch.setattr(powerflow, name, counting(name))
        training_set(acdc_net, 3, seed=1)
        # per sample one base solve and one stack of its 17 outages warm
        # from it; the outages keep the DC grid and the controls, so only
        # the base solves the DC grid.  The stacks make the 96 outage AC
        # solves that 51 separate coupled solves made, in one stacked AC
        # solve per outer iteration
        assert calls == {"solve_acdc": 3, "solve_acdc_stack": 3, "warm": 51,
                         "solve_ac": 9, "solve_ac_stack": 6, "stacked": 96,
                         "solve_dc": 3}


class TestSampling:
    def test_sample_controls_pinned(self, acdc_space):
        """The control samples of the ``train-screen`` defaults (90
        samples, width 0.005, seed 1); the digest was taken when the
        Latin hypercube came from ``scipy.stats.qmc``."""
        controls = screen.sample_controls(acdc_space, 90, 0.005, 1)
        assert controls.shape == (90, len(acdc_space))
        assert hashlib.sha256(controls.tobytes()).hexdigest() == (
            "25f33d8351348153f8d585fc7e6023989e35146d1ba2479438948c15aa2b0a1c")

    @pytest.mark.parametrize("n,d,seed", [(1, 3, 0), (2, 1, 9), (7, 5, 42),
                                          (90, 24, 1), (30, 24, 3)])
    def test_latin_hypercube_matches_scipy(self, n, d, seed):
        from scipy.stats import qmc
        expect = qmc.LatinHypercube(d=d, seed=seed).random(n=n)
        np.testing.assert_array_equal(screen.latin_hypercube(n, d, seed),
                                      expect)

    def test_one_point_per_stratum(self):
        unit = screen.latin_hypercube(13, 4, 5)
        for column in unit.T:
            assert sorted(np.floor(column * 13).astype(int)) == list(range(13))


class TestRankCorrelation:
    def test_matches_spearmanr(self):
        from scipy.stats import spearmanr
        rng = np.random.default_rng(21)

        def draw(n, tied):
            if tied:
                return rng.integers(0, rng.integers(2, 6), size=n) * 0.5
            return rng.normal(size=n)

        checked = 0
        for n in range(3, 21):
            for tie_a, tie_b in ((False, False), (True, False),
                                 (False, True), (True, True)):
                for _ in range(25):
                    a, b = draw(n, tie_a), draw(n, tie_b)
                    if np.all(a == a[0]) or np.all(b == b[0]):
                        continue
                    assert screen.rank_correlation(a, b) == (
                        spearmanr(a, b).statistic)
                    checked += 1
        assert checked > 1500

    def test_average_ranks_of_ties(self):
        np.testing.assert_array_equal(
            screen.average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0])),
            [4.0, 1.0, 4.0, 2.0, 4.0])

    def test_constant_input_is_nan(self):
        assert np.isnan(screen.rank_correlation([1.0, 1.0, 1.0], [1, 2, 3]))
        assert np.isnan(screen.rank_correlation([1, 2, 3], [5.0, 5.0, 5.0]))


class TestLassoFit:
    @pytest.mark.parametrize("index", [3, 14, 26])
    def test_gram_matches_residual_reference(self, cv_rows, index):
        """The Gram-matrix updates agree with the residual updates on the
        rows ``train-screen`` cross-validates, cold and warm-started from
        the fit at the grid's previous (larger) penalty."""
        x, y, grid = cv_rows
        lam = grid[index]
        warm = lasso_fit_residual(x, y, grid[index - 1])
        for sigma0 in (None, warm):
            np.testing.assert_allclose(
                lasso_fit(x, y, lam, sigma0=sigma0),
                lasso_fit_residual(x, y, lam, sigma0=sigma0),
                rtol=0.0, atol=1e-12)

    def test_kkt_bound_on_training_rows(self, cv_rows):
        """After a coordinate's last update, each later update in the
        sweep (at most ``LASSO_TOL`` on a standardized column) moves its
        gradient by at most twice that, so the subgradient conditions
        hold to ``2 p LASSO_TOL``."""
        x, y, grid = cv_rows
        bound = 2 * x.shape[1] * screen.LASSO_TOL
        for lam in grid[[3, 14, 26]]:
            assert lasso_kkt_violation(x, y, lasso_fit(x, y, lam), lam) <= bound

    def test_lambda_max_gives_exact_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        lmax = lambda_max(x, y)
        assert np.all(lasso_fit(x, y, lmax) == 0.0)
        assert np.all(lasso_fit(x, y, 1.5 * lmax) == 0.0)
        # just below the threshold at least one coefficient activates
        assert np.any(lasso_fit(x, y, 0.99 * lmax) != 0.0)

    def test_orthonormal_unpenalised_limit(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(40, 5)))
        y = rng.normal(size=40)
        sigma = lasso_fit(q, y, 0.0)
        np.testing.assert_allclose(sigma, q.T @ y, atol=1e-10)

    def test_objective_matches_subgradient_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = rng.normal(size=(20, 5))
            y = rng.normal(size=20)
            lam = rng.uniform(0.01, 0.3)
            sigma = lasso_fit(x, y, lam)
            mine = lasso_objective(x, y, sigma, lam)
            _, oracle = lasso_subgradient_oracle(x, y, lam, steps=40000)
            assert mine <= oracle + 1e-5

    def test_kkt_conditions(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 8))
        y = rng.normal(size=50)
        sigma = lasso_fit(x, y, 0.1)
        assert lasso_kkt_violation(x, y, sigma, 0.1) <= 1e-6

    def test_objective_non_increasing_across_sweeps(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(25, 6))
        y = rng.normal(size=25)
        lam = 0.05
        prev = lasso_objective(x, y, np.zeros(6), lam)
        monkeypatch.setattr(screen, "LASSO_TOL", 0.0)
        for sweeps in range(1, 8):
            monkeypatch.setattr(screen, "LASSO_MAX_SWEEPS", sweeps)
            sigma = lasso_fit(x, y, lam)
            obj = lasso_objective(x, y, sigma, lam)
            assert obj <= prev + 1e-12
            prev = obj

    def test_penalty_term_monotone_in_lambda(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        prev = None
        for lam in (0.01, 0.05, 0.1, 0.3):
            sigma = lasso_fit(x, y, lam)
            penalty = lam * np.sum(np.abs(sigma))
            obj_pen = np.sum(np.abs(sigma))
            if prev is not None:
                assert obj_pen <= prev + 1e-9   # l1 norm shrinks with lambda
            prev = obj_pen

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lasso_fit(np.ones((4, 2)), np.ones(5), 0.1)


class TestModel:
    def test_interpolation_when_unpenalised(self, acdc_net, acdc_space):
        # exactly-fitting synthetic responses are reproduced on training rows
        rng = np.random.default_rng(14)
        train = training_set(acdc_net, 4, seed=4)
        z, mean, scale, active = screen.standardize(train.x)
        true_sigma = rng.normal(size=int(active.sum()))
        y = 1.7 + z[:, active] @ true_sigma
        sigma = lasso_fit(z[:, active], y - y.mean(), 0.0)
        np.testing.assert_allclose(y.mean() + z[:, active] @ sigma, y,
                                   atol=1e-6)

    def test_zero_sigma_predicts_mean(self, acdc_net, acdc_space,
                                      screening_model):
        model = dataclasses.replace(
            screening_model, sigma=np.zeros_like(screening_model.sigma))
        u = acdc_space.default_vector()
        for k in acdc_net.contingencies[:3]:
            assert model.predict(acdc_net, u, k) == \
                pytest.approx(max(model.y_mean, 0.0))

    def test_unknown_contingency(self, acdc_net, acdc_space, screening_model):
        from acdcopf.netmodel import Contingency
        ghost = Contingency("ac_line", "L99", "L99(0-0)")
        with pytest.raises(KeyError):
            screening_model.predict(acdc_net, acdc_space.default_vector(),
                                    ghost)

    def test_save_load_round_trip(self, screening_model, tmp_path):
        path = tmp_path / "model.json"
        screening_model.save(path)
        again = screen.ScreeningModel.load(path)
        np.testing.assert_array_equal(again.sigma, screening_model.sigma)
        assert again.lam == screening_model.lam
        assert again.fingerprint == screening_model.fingerprint

    def test_byte_identical_retrain(self, acdc_net, tmp_path):
        paths = []
        for tag in ("a", "b"):
            train = training_set(acdc_net, 12, seed=9)
            model = screen.fit_screening_model(acdc_net, train, seed=9)
            path = tmp_path / f"model_{tag}.json"
            model.save(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestFiltering:
    def test_dc_lines_always_included(self, acdc_net, acdc_space,
                                      screening_model):
        u = acdc_space.default_vector()
        critical = filter_contingencies(screening_model, acdc_net, u)
        dc = [k for k in critical if k.kind == "dc_line"]
        assert len(dc) == 3

    def test_secure_predictions_leave_dc_only(self, acdc_net, acdc_space,
                                              screening_model):
        tame = dataclasses.replace(
            screening_model, sigma=np.zeros_like(screening_model.sigma),
            y_mean=0.0)
        critical = filter_contingencies(tame, acdc_net,
                                        acdc_space.default_vector())
        assert all(k.kind == "dc_line" for k in critical)

    def test_insecure_predictions_join_critical_set(self, acdc_net,
                                                    acdc_space,
                                                    screening_model):
        u = acdc_space.default_vector()
        ranked = screen.rank_contingencies(screening_model, acdc_net, u)
        insecure = [k.branch_id for k, pred, cls in ranked
                    if cls == "insecure"]
        assert "L1" in insecure and "L3" in insecure
        critical = filter_contingencies(screening_model, acdc_net, u)
        assert [k.branch_id for k in critical[:len(insecure)]] == insecure
        # sorted descending by prediction
        preds = [pred for _, pred, _ in ranked]
        assert preds == sorted(preds, reverse=True)

    def test_enlarging_flow_limit_never_raises_exact_index(self, acdc_net,
                                                           acdc_space,
                                                           base_eval):
        import pickle
        k = acdc_net.contingency("L3")
        net_k = apply_contingency(acdc_net, k)
        res = opfcore.evaluate(net_k, acdc_space,
                               acdc_space.default_vector(),
                               warm=base_eval.state)
        params = SecurityIndexParams.from_network(net_k)
        base_value = composite_index(res.state, params)
        relaxed = pickle.loads(pickle.dumps(params))
        relaxed.p_secure = relaxed.p_secure * 1.2
        relaxed.p_alarm = relaxed.p_alarm * 1.2
        assert composite_index(res.state, relaxed) <= base_value + 1e-12
