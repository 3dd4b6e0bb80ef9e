"""Objectives, constraint reports and corrective feasibility."""

import copy
import itertools
import math
import pickle

import numpy as np
import pytest

from acdcopf import netmodel, opfcore, powerflow
from acdcopf.netmodel import ControlSpace, apply_contingency, network_from_dict
from acdcopf.opfcore import (CorrectiveLimits, corrective_feasibility,
                             generation_cost, probe_moves, violation_gradient,
                             voltage_deviation)
from acdcopf.powerflow import solve_acdc

from conftest import (bench_literal, network_to_dict, same_elements,
                      scalar_ybus, two_bus_case)


ELEMENT_LISTS = ("generators", "branches", "shunts", "converters")


def element_of(net, comp):
    """The element of ``net`` that control component ``comp`` sets."""
    if comp.kind in ("p_g", "u_g"):
        return next(g for g in net.generators if str(g.bus) == comp.key)
    if comp.kind == "q_c":
        return next(sh for sh in net.shunts if str(sh.bus) == comp.key)
    if comp.kind == "tap":
        return next(br for br in net.branches if br.outage_id == comp.key)
    return next(c for c in net.converters if c.name == comp.key)


def halfway_to_far_bounds(space):
    """Every control component halfway to its farther bound, taps
    included."""
    far = np.where(space.hi - space.base > space.base - space.lo,
                   space.hi, space.lo)
    return space.snap(space.base + 0.5 * (far - space.base))


def diverging_controls(space):
    """Absurd transfer schedule: every converter drawing its full active
    and reactive rating collapses the AC solve."""
    u = space.default_vector().copy()
    for name in ("P_s:VSC1", "P_s:VSC2", "P_s:VSC3",
                 "Q_s:VSC1", "Q_s:VSC2", "Q_s:VSC3"):
        u[space.index[name]] = 1.0
    return u


def spread_point(space):
    """A sound dispatch of ``case14_acdc`` away from the schedule whose 20
    outages are all correctable in the 0.15 box."""
    u = space.default_vector()
    for name, val in (("P_G:bus2", 0.7), ("P_G:bus3", 0.7),
                      ("P_G:bus6", 0.5), ("P_G:bus8", 0.45),
                      ("P_s:VSC1", -0.3), ("P_s:VSC2", 0.35),
                      ("P_s:VSC3", -0.05)):
        u[space.index[name]] = val
    return u


def probe_point(space):
    """The benchmark's N-1 probe point: L10(7-8) and L12(8-9) cannot be
    corrected at it, and the outage of L5(4-7) overloads P_L:L12 (8-9)."""
    return space.snap(bench_literal("PROBE_GENOME"))


class TestObjectives:
    def test_constant_cost_limit(self, acdc_net, acdc_space, base_eval):
        import pickle
        net = pickle.loads(pickle.dumps(acdc_net))
        for gen in net.generators:
            gen.alpha = gen.beta = 0.0
        f1 = generation_cost(base_eval.state, net)
        assert f1 == pytest.approx(sum(g.gamma for g in net.generators))

    def test_single_generator_hand_value(self, two_bus_net):
        space = ControlSpace(two_bus_net)
        res = opfcore.evaluate(two_bus_net, space, space.default_vector())
        gen = two_bus_net.generators[0]
        gen.alpha, gen.beta, gen.gamma = 1.0, 2.0, 3.0
        res.state.gen_p = np.array([2.0])
        assert generation_cost(res.state, two_bus_net) == pytest.approx(11.0)

    def test_unconverged_rejected(self, acdc_net, acdc_space):
        res = opfcore.evaluate(acdc_net, acdc_space,
                               diverging_controls(acdc_space))
        assert not res.state.converged
        with pytest.raises(ValueError):
            generation_cost(res.state, acdc_net)
        with pytest.raises(ValueError):
            voltage_deviation(res.state, acdc_net)

    def test_deviation_zero_at_setpoints(self, acdc_net, base_eval):
        state_copy = base_eval.state
        vm_save = state_copy.ac.vm.copy()
        dc_save = state_copy.dc.u.copy()
        state_copy.ac.vm = np.array([b.u_set for b in acdc_net.buses])
        state_copy.dc.u = np.array([b.u_set for b in acdc_net.dc_buses])
        try:
            assert voltage_deviation(state_copy, acdc_net) == 0.0
        finally:
            state_copy.ac.vm = vm_save
            state_copy.dc.u = dc_save

    def test_deviation_hand_value(self, acdc_net, base_eval):
        state = base_eval.state
        vm_save = state.ac.vm.copy()
        dc_save = state.dc.u.copy()
        vm = np.array([b.u_set for b in acdc_net.buses])
        vm[3] += 0.02
        dc = np.array([b.u_set for b in acdc_net.dc_buses])
        dc[1] += 0.01
        state.ac.vm, state.dc.u = vm, dc
        try:
            assert voltage_deviation(state, acdc_net) == \
                pytest.approx(0.0004 + 0.0001, abs=1e-15)
        finally:
            state.ac.vm, state.dc.u = vm_save, dc_save

    def test_deviation_permutation_invariant(self, acdc_net, acdc_space,
                                             base_eval):
        f2 = voltage_deviation(base_eval.state, acdc_net)
        # relabel by reversing bus order in both the case and the state;
        # the preset voltages come from the plan built at load
        doc = network_to_dict(acdc_net)
        doc["ac_buses"].reverse()
        net = network_from_dict(doc)
        state = pickle.loads(pickle.dumps(base_eval.state))
        state.ac.vm = state.ac.vm[::-1]
        assert voltage_deviation(state, net) == pytest.approx(f2, rel=1e-12)


class TestEvaluate:
    def test_feasible_point(self, base_eval):
        assert base_eval.report.total_violation == 0.0
        assert all(np.isfinite(base_eval.objectives))

    def test_constructed_voltage_violation_magnitude(self):
        case = two_bus_case()
        case["ac_buses"][1]["u_max"] = 0.95   # base solution sits near 0.9987
        net = network_from_dict(case)
        space = ControlSpace(net)
        res = opfcore.evaluate(net, space, space.default_vector())
        viols = res.report.violations()
        assert len(viols) == 1
        group, name, value = viols[0]
        assert (group, name) == ("ac_voltage", "U:bus2")
        assert value == pytest.approx(res.state.ac.vm[1] - 0.95, abs=1e-12)

    def test_diverging_point_penalised(self, acdc_net, acdc_space):
        res = opfcore.evaluate(acdc_net, acdc_space,
                               diverging_controls(acdc_space))
        assert not res.state.converged
        assert res.state.failure_stage in ("ac", "dc", "coupling")
        assert res.objectives == (math.inf, math.inf)
        assert res.report.total_violation == opfcore.PENALTY_UNCONVERGED
        # the report of an unconverged state has one source
        assert vars(res.report) == vars(
            opfcore.constraint_report(res.net, res.state))

    def test_total_violation_stored_at_build(self, acdc_net, acdc_space):
        res = opfcore.evaluate(acdc_net, acdc_space,
                               halfway_to_far_bounds(acdc_space))
        report = res.report
        assert report.violations()
        # a value set when the report is built, not recomputed on a read
        assert "total_violation" in vars(report)
        assert report.total_violation == pytest.approx(
            report.penalty + sum(v for *_, v in report.violations()),
            rel=1e-12)
        made = opfcore.ConstraintReport(
            groups={"a": (("x", "y"), np.array([0.5, -1.0])),
                    "b": (("z",), np.array([0.25]))},
            converged=True, penalty=2.0)
        assert made.total_violation == 2.75

    def test_purity(self, acdc_net, acdc_space):
        u = acdc_space.default_vector()
        u[acdc_space.index["P_G:bus3"]] = 0.42
        a = opfcore.evaluate(acdc_net, acdc_space, u)
        b = opfcore.evaluate(acdc_net, acdc_space, u)
        assert a.objectives == b.objectives
        assert a.report.total_violation == b.report.total_violation

    def test_input_network_untouched(self, acdc_net, acdc_space):
        space = acdc_space
        u = halfway_to_far_bounds(space)
        assert np.all(u != space.base)
        before = pickle.dumps(acdc_net)
        res = opfcore.evaluate(acdc_net, space, u)
        assert pickle.dumps(acdc_net) == before
        for comp, value in zip(space.components, u):
            assert getattr(element_of(res.net, comp), comp.kind) == value
        assert not np.array_equal(res.net.plan.branches.ybus,
                                  acdc_net.plan.branches.ybus)

        # the variant's own taps again, every other control moved back:
        # the admittance matrix is shared, not rebuilt
        taps = [i for i, kind in enumerate(space.kinds) if kind == "tap"]
        v = space.default_vector()
        v[taps] = u[taps]
        variant = pickle.dumps(res.net)
        again = opfcore.evaluate(res.net, space, v)
        assert pickle.dumps(res.net) == variant
        assert again.net.plan.branches.ybus is res.net.plan.branches.ybus

    def test_case_point_is_the_network(self, acdc_net, acdc_space):
        # every stepped case value (the T:L5 tap 0.975 included) is its
        # own grid point, so the scheduled point copies nothing
        u = acdc_space.default_vector()
        np.testing.assert_array_equal(u, acdc_space.base)
        assert opfcore.apply_controls(acdc_net, acdc_space, u) is acdc_net

    def test_only_changed_elements_copied(self, acdc_net, acdc_space):
        space = acdc_space
        u = halfway_to_far_bounds(space)
        first = opfcore.apply_controls(acdc_net, space, u)
        # the variant's own controls again: nothing is copied
        again = opfcore.apply_controls(first, space, u)
        for elements in ELEMENT_LISTS:
            assert all(a is b for a, b in zip(getattr(again, elements),
                                              getattr(first, elements)))
        assert again.plan is first.plan

        # one setpoint moved: one element copied, the plan shared
        i = space.index["P_s:VSC1"]
        v = u.copy()
        v[i] = 0.5 * (u[i] + space.base[i])
        probe = opfcore.apply_controls(first, space, v)
        copied = [new for elements in ELEMENT_LISTS
                  for new, old in zip(getattr(probe, elements),
                                      getattr(first, elements))
                  if new is not old]
        assert copied == [element_of(probe, space.components[i])]
        assert copied[0].p_s == v[i]
        assert probe.plan is first.plan


def constrained_two_bus(p_limit):
    """2-bus pair with a second parallel line; outage of one line can
    overload the other unless generation is adjusted."""
    case = two_bus_case(p_d=0.5, x=0.1)
    case["ac_branches"].append(dict(case["ac_branches"][0]))
    for br in case["ac_branches"]:
        br["p_min"], br["p_max"] = -p_limit, p_limit
        br["p_secure"], br["p_alarm"] = 0.8 * p_limit, 1.2 * p_limit
    # a local generator at the load bus lets corrective action help
    case["ac_buses"][1]["kind"] = "pv"
    case["generators"].append(
        {"bus": 2, "p_g": 0.0, "p_min": 0.0, "p_max": 0.6, "q_min": -2.0,
         "q_max": 2.0, "u_g": 1.0, "alpha": 2.0, "beta": 0.0, "gamma": 0.0})
    return network_from_dict(case)


class TestCorrectiveFeasibility:
    def test_zero_adjustment_feasible(self, acdc_net, acdc_space):
        lims = CorrectiveLimits.from_fraction(acdc_space, 0.15)
        u = spread_point(acdc_space)
        k = acdc_net.contingency("DC1")
        out = corrective_feasibility(acdc_net, acdc_space, u, k, lims)
        assert out.feasible
        np.testing.assert_array_equal(out.u_k, acdc_space.snap(u))
        assert out.probes == 1

    def test_degenerate_box_returns_residual(self):
        net = constrained_two_bus(p_limit=0.3)
        space = ControlSpace(net)
        lims = CorrectiveLimits(du_max=np.zeros(len(space)))
        k = net.contingency("L1")
        out = corrective_feasibility(net, space, space.default_vector(),
                                     k, lims)
        assert not out.feasible
        # residual equals the untouched post-contingency violation
        from acdcopf.netmodel import apply_contingency
        net_k = apply_contingency(net, k)
        res = opfcore.evaluate(net_k, space, space.default_vector())
        assert out.residual == pytest.approx(res.report.total_violation)

    def test_single_shift_fix_matches_bruteforce(self):
        # outage of one parallel line leaves the other at 0.5 > 0.3 limit;
        # raising the local generator inside the box restores feasibility
        net = constrained_two_bus(p_limit=0.3)
        space = ControlSpace(net)
        du = np.zeros(len(space))
        du[space.index["P_G:bus2"]] = 0.35
        lims = CorrectiveLimits(du_max=du)
        k = net.contingency("L1")
        u0 = space.default_vector()
        mine = corrective_feasibility(net, space, u0, k, lims)
        oracle = bruteforce_box(net, space, u0, k, lims, resolution=0.01)
        assert mine.feasible == oracle is True or mine.feasible == oracle
        assert mine.feasible

    @pytest.mark.parametrize("budget,probed", [
        (4, [(0.0, 1.0), (0.02, 1.0), (0.02, 1.02), (0.02, 0.98)]),
        (30, [(0.0, 1.0), (0.02, 1.0), (0.02, 1.02), (0.02, 0.98),
              (0.01, 1.0), (0.02, 1.01), (0.02, 0.99), (0.015, 1.0),
              (0.02, 1.005), (0.02, 0.995)]),
    ])
    def test_probe_sequence(self, budget, probed, monkeypatch):
        # an outage the box cannot correct: scales, then components by
        # sensitivity, then signs, descent first.  Raising P_G:bus2 (dV/du
        # = -1) relieves the overloaded line; the flow over the lossless
        # line does not depend on U_G:bus2 (dV/du at round-off), so U_G
        # keeps + before -, and warm-started probes see that tie to
        # round-off, so no U_G move is accepted.  A candidate solved
        # before (the - move back to u0 after the accepted + move) is
        # skipped, and the budget stops the search
        net = constrained_two_bus(p_limit=0.3)
        space = ControlSpace(net)
        du = np.zeros(len(space))
        du[space.index["P_G:bus2"]] = du[space.index["U_G:bus2"]] = 0.02
        calls = []
        evaluate = opfcore.evaluate

        def recording(net_k, space, u, **kwargs):
            calls.append((round(float(u[space.index["P_G:bus2"]]), 6),
                          round(float(u[space.index["U_G:bus2"]]), 6)))
            return evaluate(net_k, space, u, **kwargs)

        monkeypatch.setattr(opfcore, "evaluate", recording)
        out = corrective_feasibility(net, space, space.default_vector(),
                                     net.contingency("L1"),
                                     CorrectiveLimits(du_max=du),
                                     max_probes=budget)
        assert not out.feasible
        assert out.probes == len(calls)
        assert calls == probed

    def test_probes_warm_start_from_best_probe(self, monkeypatch):
        # the first probe starts from the pre-contingency state; every
        # later one from the state of the best probe so far
        net = constrained_two_bus(p_limit=0.3)
        space = ControlSpace(net)
        du = np.zeros(len(space))
        du[space.index["P_G:bus2"]] = 0.02
        base = opfcore.evaluate(net, space, space.default_vector())
        calls = []
        evaluate = opfcore.evaluate

        def recording(net_k, space, u, **kwargs):
            res = evaluate(net_k, space, u, **kwargs)
            calls.append((kwargs["warm"], res))
            return res

        monkeypatch.setattr(opfcore, "evaluate", recording)
        out = corrective_feasibility(net, space, space.default_vector(),
                                     net.contingency("L1"),
                                     CorrectiveLimits(du_max=du),
                                     base_state=base.state)
        # u0, then P_G:bus2 +0.02 (accepted), then the rejected moves
        # -0.01 and -0.005 (the + moves clip to the best point, and -0.02
        # lands back on u0, which was solved)
        assert [float(res.u[space.index["P_G:bus2"]])
                for _, res in calls] == [0.0, 0.02, 0.01, 0.015]
        assert calls[0][0] is base.state
        assert calls[1][0] is calls[0][1].state
        assert all(warm is calls[1][1].state for warm, _ in calls[2:])
        assert out.probes == len(calls)

    def test_warm_probes_save_newton_iterations(self, acdc_net, acdc_space,
                                                monkeypatch):
        # the 20 checks of the spread point: 467 AC Newton iterations
        # when every probe started from the pre-contingency state, 272
        # with warm-started probes and converter powers
        base = opfcore.evaluate(acdc_net, acdc_space,
                                spread_point(acdc_space))
        lims = CorrectiveLimits.from_fraction(acdc_space, 0.15)
        iterations = []
        solve_ac = powerflow.solve_ac

        def counting(*args, **kwargs):
            ac = solve_ac(*args, **kwargs)
            iterations.append(ac.iterations)
            return ac

        monkeypatch.setattr(powerflow, "solve_ac", counting)
        for k in acdc_net.contingencies:
            out = corrective_feasibility(
                base.net, acdc_space, base.u, k, lims,
                net_k=apply_contingency(base.net, k), base_state=base.state)
            assert out.feasible
        assert sum(iterations) < 0.8 * 467

    def test_monotone_in_box_size(self):
        net = constrained_two_bus(p_limit=0.3)
        space = ControlSpace(net)
        k = net.contingency("L1")
        u0 = space.default_vector()
        verdicts = []
        for frac in (0.0, 0.1, 0.3, 0.6, 1.0):
            du = np.zeros(len(space))
            du[space.index["P_G:bus2"]] = frac * 0.6
            lims = CorrectiveLimits(du_max=du)
            verdicts.append(bruteforce_box(net, space, u0, k, lims, 0.01))
            mine = corrective_feasibility(net, space, u0, k, lims)
            assert mine.feasible == verdicts[-1]
        # once feasible, larger boxes stay feasible
        first = verdicts.index(True) if True in verdicts else len(verdicts)
        assert all(verdicts[first:])


class TestOneControlProbes:
    def test_delta_equals_every_control(self, acdc_net, acdc_space):
        # a probe evaluates its candidate on the variant of the best
        # probe, which differs from it in one control: bit for bit what
        # applying every control to the outage variant gives
        space = acdc_space
        rng = np.random.default_rng(7)
        base = opfcore.evaluate(acdc_net, space, spread_point(space))
        span = space.hi - space.lo
        for _ in range(16):
            k = acdc_net.contingencies[rng.integers(20)]
            net_k = apply_contingency(base.net, k)
            best_u = space.snap(base.u + rng.uniform(-0.1, 0.1, len(span))
                                * span)
            best = opfcore.evaluate(net_k, space, best_u, warm=base.state)
            warm = best.state if best.state.converged else base.state
            i = rng.integers(len(space))
            cand = best_u.copy()
            cand[i] = rng.uniform(space.lo[i], space.hi[i])
            cand = space.snap(cand)
            delta = opfcore.evaluate(best.net, space, cand, warm=warm)
            full = opfcore.evaluate(net_k, space, cand, warm=warm)
            assert same_elements(delta.net, full.net), k.label
            assert pickle.dumps(delta.state) == pickle.dumps(full.state)
            assert (delta.report.total_violation.hex()
                    == full.report.total_violation.hex())
            assert delta.objectives == full.objectives

    def test_probe_copies_one_element(self, acdc_net, acdc_space,
                                      monkeypatch):
        # work-count guard over whole checks: every probe after the
        # first moves one control of the best probe's variant and copies
        # one element, and none builds a plan part.  A non-tap move keeps
        # the variant's plan; a tap move keeps the topology of its branch
        # plan (the same arrays) and recomputes the admittance values
        space = acdc_space
        base = opfcore.evaluate(acdc_net, space, space.default_vector())
        lims = CorrectiveLimits.from_fraction(space, 0.15)
        builds = []
        for name in ("bus_plan", "branch_plan", "dc_plan"):
            monkeypatch.setattr(netmodel, name,
                                lambda *args, build=getattr(netmodel, name):
                                builds.append(1) or build(*args))
        probes = []
        evaluate = opfcore.evaluate

        def recording(net, space, u, **kwargs):
            before = len(builds)
            res = evaluate(net, space, u, **kwargs)
            probes.append((net, res, len(builds) - before))
            return res

        monkeypatch.setattr(opfcore, "evaluate", recording)
        kinds = set()
        for label in ("L1", "L2", "L3"):
            k = acdc_net.contingency(label)
            out = corrective_feasibility(
                base.net, space, base.u, k, lims,
                net_k=apply_contingency(base.net, k), base_state=base.state)
            assert out.probes > 2
            for net, res, built in probes[1:]:
                moved = [comp for comp, value in zip(space.components, res.u)
                         if getattr(element_of(net, comp), comp.kind) != value]
                assert len(moved) == 1
                copied = [new for elements in ELEMENT_LISTS
                          for new, old in zip(getattr(res.net, elements),
                                              getattr(net, elements))
                          if new is not old]
                assert copied == [element_of(res.net, moved[0])]
                assert built == 0
                kinds.add(moved[0].kind)
                if moved[0].kind != "tap":
                    assert res.net.plan is net.plan
                    continue
                new, old = res.net.plan.branches, net.plan.branches
                assert new is not old
                for name in ("f", "t", "pat_r", "pat_c", "jac_src", "jac_dst",
                             "index", "limits"):
                    assert getattr(new, name) is getattr(old, name), name
                assert np.array_equal(new.ybus, scalar_ybus(res.net))
                assert res.net.plan.buses is net.plan.buses
                assert res.net.plan.dc is net.plan.dc
            probes.clear()
        assert "tap" in kinds and len(kinds) > 2


# the control kinds that enter the AC equations directly
AC_KINDS = ("p_g", "u_g", "q_s", "q_c")


def post_contingency(net, space, u, outage):
    """``(net_k, result)``: the outage variant of the network carrying
    ``u``, and the ``u0`` probe of its corrective check."""
    base = opfcore.evaluate(net, space, u)
    net_k = apply_contingency(base.net, net.contingency(outage))
    return net_k, opfcore.evaluate(net_k, space, u, warm=base.state)


class TestViolationGradient:
    @pytest.mark.parametrize("point,outage", [
        ("probe", "L5"),        # ac_flow
        ("default", "L2"),      # ac_angle, gen_q, ac_flow
        ("default", "L3"),      # ac_voltage, ac_angle, gen_q, ac_flow
    ])
    def test_matches_central_differences(self, acdc_net, acdc_space, point,
                                         outage):
        # central differences of the total violation at h = 1e-6, in a
        # copy of the space without grids so that the shunt Q_C:bus9
        # moves continuously; a component at a bound is left out (its
        # difference is one-sided).  The agreement seen is 2e-8 or
        # better: the AC-only gradient misses only the small pull of the
        # AC voltages on the droop stations' losses
        space = acdc_space
        u = probe_point(space) if point == "probe" else space.default_vector()
        net_k, res = post_contingency(acdc_net, space, u, outage)
        assert res.report.total_violation > 0
        grad = violation_gradient(res.net, space, res.state)
        continuous = copy.copy(space)
        continuous.step = np.zeros(len(space))
        continuous._stepped = np.flatnonzero(continuous.step)
        h = 1e-6
        checked = 0
        for i, kind in enumerate(space.kinds):
            if kind not in AC_KINDS:
                assert grad[i] == 0.0, space.names[i]
            elif space.lo[i] + h < u[i] < space.hi[i] - h:
                step = h * np.eye(len(space))[i]
                up, down = (opfcore.evaluate(net_k, continuous, u + d,
                                             warm=res.state)
                            .report.total_violation for d in (step, -step))
                assert grad[i] == pytest.approx((up - down) / (2 * h),
                                                rel=1e-6, abs=1e-7), \
                    space.names[i]
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("slack_p_max,gen_q_max,violated,expected", [
        # over the lossless lines every unit of P_G:bus2 is a unit less
        # at the slack, and neither the shunt nor the set magnitudes move
        # the slack's output
        (0.3, 2.0, ("gen_p_slack", "P_G:bus1"),
         {"P_G:bus2": -1.0, "U_G:bus1": 0.0, "U_G:bus2": 0.0,
          "Q_C:bus2": 0.0}),
        # with both magnitudes set, every unit of the shunt at bus 2 is a
        # unit less that the generator there gives
        (10.0, -1.0, ("gen_q", "Q_G:bus2"), {"Q_C:bus2": -1.0}),
    ])
    def test_generator_limits_hand_values(self, slack_p_max, gen_q_max,
                                          violated, expected):
        # slack bus 1 and PV bus 2 with a generator and a shunt, joined by
        # two lossless lines; the 0.5 load at bus 2
        case = two_bus_case(p_d=0.5, x=0.1)
        case["ac_branches"].append(dict(case["ac_branches"][0]))
        case["ac_buses"][1]["kind"] = "pv"
        case["generators"][0]["p_max"] = slack_p_max
        case["generators"].append(
            {"bus": 2, "p_g": 0.0, "p_min": 0.0, "p_max": 0.6,
             "q_min": -2.0, "q_max": gen_q_max, "u_g": 1.0, "alpha": 1.0,
             "beta": 0.0, "gamma": 0.0})
        case["shunts"].append({"bus": 2, "q_c": 0.1, "q_min": 0.0,
                               "q_max": 0.5, "q_step": 0.1})
        net = network_from_dict(case)
        space = ControlSpace(net)
        res = opfcore.evaluate(net, space, space.default_vector())
        assert [(group, name) for group, name, _ in
                res.report.violations()] == [violated]
        grad = violation_gradient(res.net, space, res.state)
        for name, value in expected.items():
            assert grad[space.index[name]] == pytest.approx(value, abs=1e-9)

    def test_descent_move_tried_first(self, acdc_net, acdc_space,
                                      monkeypatch):
        # L5(4-7) at the probe point overloads P_L:L12 (8-9), which
        # lowering P_G:bus8 relieves most: the probe after u0 makes that
        # move, where the kind order started with the converter setpoints
        u0 = probe_point(acdc_space)
        net_k, res = post_contingency(acdc_net, acdc_space, u0, "L5")
        assert [name for _, name, _ in res.report.violations()] == \
            ["P_L:L12"]
        lims = CorrectiveLimits.from_fraction(acdc_space, 0.15)
        i = acdc_space.index["P_G:bus8"]
        grad = violation_gradient(res.net, acdc_space, res.state)
        assert probe_moves(acdc_space, lims, grad, True)[0] == (i, -1.0)
        assert acdc_space.kinds[probe_moves(acdc_space, lims, None,
                                            True)[0][0]] == "p_s"
        probed = []
        evaluate = opfcore.evaluate

        def recording(net_k, space, u, **kwargs):
            probed.append(space.snap(u))
            return evaluate(net_k, space, u, **kwargs)

        monkeypatch.setattr(opfcore, "evaluate", recording)
        corrective_feasibility(acdc_net, acdc_space, u0,
                               acdc_net.contingency("L5"), lims, net_k=net_k)
        move = probed[1] - u0
        assert np.flatnonzero(move).tolist() == [i]
        assert move[i] == pytest.approx(-lims.du_max[i])


class TestProbeOrder:
    @pytest.mark.parametrize("include_discrete", [True, False])
    def test_ranking_permutes_the_kind_order(self, acdc_space,
                                             include_discrete):
        # the same (component, sign) moves as the kind order: a width of
        # 0 drops a component, ``include_discrete=False`` drops the
        # stepped ones; the ranking only reorders them
        space = acdc_space
        lims = CorrectiveLimits.from_fraction(space, 0.15)
        lims.du_max[space.index["P_G:bus3"]] = 0.0
        grad = np.random.default_rng(1).normal(size=len(space))
        grad[[space.kinds[i] not in AC_KINDS for i in range(len(space))]] = 0
        kind_order = probe_moves(space, lims, None, include_discrete)
        ranked = probe_moves(space, lims, grad, include_discrete)
        assert sorted(ranked) == sorted(kind_order)
        moved = {i for i, _ in kind_order}
        assert space.index["P_G:bus3"] not in moved
        assert (space.index["T:L5"] in moved) == include_discrete
        scores = [abs(grad[i]) * lims.du_max[i] for i, _ in ranked[::2]]
        assert scores == sorted(scores, reverse=True)
        # descent first; the zero-gradient kinds keep their order and +, -
        assert all(sign == (-1.0 if grad[i] > 0 else 1.0)
                   for i, sign in ranked[::2])
        tail = [move for move in ranked if grad[move[0]] == 0]
        assert tail == [move for move in kind_order if grad[move[0]] == 0]
        assert probe_moves(space, lims, np.zeros(len(space)),
                           include_discrete) == kind_order

    @pytest.mark.parametrize("include_discrete", [True, False])
    def test_probes_stay_in_box_and_budget(self, acdc_net, acdc_space,
                                           monkeypatch, include_discrete):
        # every probe of the 20 checks at the probe point: inside the
        # corrective box and the control bounds, stepped components kept
        # unless included, no point solved twice (or again within
        # rounding) in a check, and at most the budget
        space = acdc_space
        u0 = probe_point(space)
        base = opfcore.evaluate(acdc_net, space, u0)
        lims = CorrectiveLimits.from_fraction(space, 0.15)
        probed = []
        evaluate = opfcore.evaluate

        def recording(net_k, space, u, **kwargs):
            probed.append(space.snap(u))
            return evaluate(net_k, space, u, **kwargs)

        monkeypatch.setattr(opfcore, "evaluate", recording)
        stepped = space.step > 0
        for k in acdc_net.contingencies:
            probed.clear()
            out = corrective_feasibility(
                base.net, space, u0, k, lims, base_state=base.state,
                max_probes=12, include_discrete=include_discrete)
            assert out.probes == len(probed) <= 12
            for i, u in enumerate(probed):
                assert all(np.abs(u - v).max() > 1e-12 for v in probed[:i])
            for u in probed:
                assert np.all(np.abs(u - u0) <= lims.du_max + 1e-12)
                assert np.all((space.lo <= u) & (u <= space.hi))
                if not include_discrete:
                    assert np.array_equal(u[stepped], u0[stepped])


def bruteforce_box(net, space, u0, k, lims, resolution):
    """Grid-search oracle over the corrective box (free dims only)."""
    from acdcopf.netmodel import apply_contingency
    net_k = apply_contingency(net, k)
    u0 = space.snap(u0)
    free = [i for i in range(len(space)) if lims.du_max[i] > 0]
    axes = []
    for i in free:
        lo = max(space.lo[i], u0[i] - lims.du_max[i])
        hi = min(space.hi[i], u0[i] + lims.du_max[i])
        n = int(round((hi - lo) / resolution)) + 1
        axes.append(np.linspace(lo, hi, n))
    if not free:
        res = opfcore.evaluate(net_k, space, u0)
        return res.report.total_violation <= 1e-6
    for combo in itertools.product(*axes):
        u = u0.copy()
        for i, v in zip(free, combo):
            u[i] = v
        res = opfcore.evaluate(net_k, space, u)
        if res.report.total_violation <= 1e-6:
            return True
    return False
