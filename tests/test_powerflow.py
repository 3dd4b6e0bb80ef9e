"""Solvers: AC Newton-Raphson, DC grid with droop, coupled alternation."""

import cmath
import copy
import dataclasses
import hashlib
import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acdcopf import cli, opfcore, powerflow, screen
from acdcopf.netmodel import (ConverterStation, apply_contingency,
                              branch_admittance, branch_values, dc_plan,
                              network_from_dict)
from acdcopf.powerflow import (TOL_COUPLE, PowerFlowConfigError, solve_ac,
                               solve_acdc, solve_dc)

from conftest import case_variant, two_bus_case
from oracles import (dc_newton_by_rows, dense_ds_dv, newton_without_stop,
                     oracle_solve_ac, two_bus_closed_form)


def ac_inputs(net):
    return powerflow.assemble_ac_inputs(net)


class TestSolveAc:
    def test_ieee14_matches_reference(self, ac_net):
        p, q, vm = ac_inputs(ac_net)
        t0 = time.perf_counter()
        state = solve_ac(ac_net, p, q, vm)
        elapsed = time.perf_counter() - t0
        assert state.converged
        assert state.max_mismatch <= 1e-8
        assert elapsed < 0.1
        vm_ref, va_ref, ok = oracle_solve_ac(ac_net, p, q, vm)
        assert ok
        assert np.max(np.abs(state.vm - vm_ref)) < 1e-6
        assert np.max(np.abs(state.va - va_ref)) < 1e-6

    def test_ieee14_anchors_published_solution(self, ac_net):
        # published magnitudes for the standard case; the bundled case
        # models the bus-9 compensator as constant reactive power, hence
        # the loose tolerance
        published = [1.060, 1.045, 1.010, 1.019, 1.020, 1.070, 1.062,
                     1.090, 1.056, 1.051, 1.057, 1.055, 1.050, 1.036]
        p, q, vm = ac_inputs(ac_net)
        state = solve_ac(ac_net, p, q, vm)
        assert np.max(np.abs(state.vm - np.array(published))) < 0.01

    def test_two_bus_no_load_flat(self):
        net = network_from_dict(two_bus_case(p_d=0.0, q_d=0.0))
        p, q, vm = ac_inputs(net)
        state = solve_ac(net, p, q, vm)
        assert state.converged
        np.testing.assert_allclose(state.vm, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(state.va, [0.0, 0.0], atol=1e-12)
        p_branch, _ = powerflow.branch_flows(net, state.vm, state.va)
        np.testing.assert_allclose(p_branch, [0.0], atol=1e-12)

    def test_two_bus_closed_form(self):
        net = network_from_dict(two_bus_case(p_d=0.5, q_d=0.0, x=0.1))
        p, q, vm = ac_inputs(net)
        state = solve_ac(net, p, q, vm)
        v2, theta = two_bus_closed_form(0.5, 0.0, 0.1)
        assert state.converged
        assert abs(state.vm[1] - v2) < 1e-8
        assert abs(state.va[1] - theta) < 1e-8

    def test_divergence_reported(self):
        net = network_from_dict(two_bus_case(p_d=9.0))   # far beyond loadability
        p, q, vm = ac_inputs(net)
        state = solve_ac(net, p, q, vm)
        assert not state.converged
        assert not state.singular
        assert state.max_mismatch > 0

    def test_divergence_stop_cuts_no_converging_solve(self, acdc_net,
                                                      acdc_space, base_eval,
                                                      monkeypatch):
        # every AC solve of the coupled solves at random control points,
        # cold and warm, on the case and on every outage variant, against
        # the loop without the stop: the same verdict, the same converged
        # state bit for bit, and a diverged solve no longer.  Some of the
        # converging solves grow at their first step, which the stop
        # leaves alone
        pairs = []
        solve = powerflow.solve_ac

        def both(*args, **kwargs):
            state = solve(*args, **kwargs)
            pairs.append((state, newton_without_stop(*args, **kwargs)))
            return state

        monkeypatch.setattr(powerflow, "solve_ac", both)
        space = acdc_space
        nets = [acdc_net] + [apply_contingency(acdc_net, k)
                             for k in acdc_net.contingencies]
        rng = np.random.default_rng(15)
        span = space.hi - space.lo
        transfers = [i for i, kind in enumerate(space.kinds)
                     if kind in ("p_s", "q_s")]
        for j in range(15):
            # near the schedule, anywhere in the box, and anywhere with
            # the converter transfers at their bounds (many diverge)
            u = (space.base + rng.normal(0.0, 0.1, len(space)) * span
                 if j % 3 == 0 else rng.uniform(space.lo, space.hi))
            if j % 3 == 2:
                u[transfers] = rng.choice((-1.0, 1.0), len(transfers))
            for net in nets:
                for warm in (None, base_eval.state):
                    opfcore.evaluate(net, space, u, warm=warm)
        stopped = grew_first = 0
        for state, (vm, va, mismatches, converged) in pairs:
            iterations = len(mismatches) - 1
            assert state.converged == converged
            if converged:
                assert state.iterations == iterations
                assert state.vm.tobytes() == vm.tobytes()
                assert state.va.tobytes() == va.tobytes()
                grew_first += iterations > 1 and mismatches[1] > mismatches[0]
            else:
                assert state.iterations <= iterations
                stopped += state.iterations < iterations
        assert sum(state.converged for state, _ in pairs) > 1000
        assert stopped > 20
        assert grew_first > 0

    def test_power_balance(self, ac_net):
        p, q, vm = ac_inputs(ac_net)
        state = solve_ac(ac_net, p, q, vm)
        load = sum(b.p_d for b in ac_net.buses)
        injections = state.p_inj.sum()     # generation minus load
        flows_loss = 0.0
        v = state.vm * np.exp(1j * state.va)
        s = v * np.conj(ac_net.plan.branches.ybus @ v)
        assert abs(injections - s.real.sum()) < 1e-9
        # total generation = load + losses, expressed through injections
        assert injections == pytest.approx(s.real.sum(), abs=1e-9)
        assert injections >= -1e-9
        assert load > 0 and injections < load  # losses are a few percent

    @pytest.mark.parametrize("case", ["acdc_net", "ac_net"])
    def test_branch_flows_equal_branch_formula(self, case, request):
        # the vectorised flows reproduce the per-branch complex formula
        # bit for bit, which keeps every artifact byte-identical
        net = request.getfixturevalue(case)
        rng = np.random.default_rng(3)
        for _ in range(200):
            vm = rng.uniform(0.85, 1.15, net.n_bus)
            va = rng.uniform(-0.6, 0.6, net.n_bus)
            v = vm * np.exp(1j * va)
            p_ref = np.empty(len(net.branches))
            q_ref = np.empty(len(net.branches))
            for i, br in enumerate(net.branches):
                f = net.bus_index[br.from_bus]
                t = net.bus_index[br.to_bus]
                yff, yft, _ = branch_admittance(br)
                s_f = v[f] * np.conj(yff * v[f] + yft * v[t])
                p_ref[i], q_ref[i] = s_f.real, s_f.imag
            p, q = powerflow.branch_flows(net, vm, va)
            assert np.array_equal(p, p_ref)
            assert np.array_equal(q, q_ref)

    def test_pattern_jacobian_matches_dense(self, acdc_net, acdc_space):
        # dS/dV over the admittance pattern against MATPOWER's dense
        # products, and the Newton Jacobian against the dense blocks, on
        # the case, every outage variant and a moved tap
        u = acdc_space.default_vector()
        i = acdc_space.index["T:L5"]
        u[i] = acdc_space.hi[i]
        nets = [acdc_net, opfcore.apply_controls(acdc_net, acdc_space, u)]
        nets += [apply_contingency(acdc_net, k) for k in acdc_net.contingencies]
        rng = np.random.default_rng(5)
        for net in nets:
            br, bp = net.plan.branches, net.plan.buses
            v = rng.uniform(0.9, 1.1, net.n_bus) * np.exp(
                1j * rng.uniform(-0.4, 0.4, net.n_bus))
            dense = dense_ds_dv(br.ybus, v)
            pattern = powerflow.ds_dv(br, v, br.ybus @ v)
            for d, p in zip(dense, pattern):
                scattered = np.zeros_like(d)
                scattered[br.pat_r, br.pat_c] = p
                assert np.abs(scattered - d).max() <= 1e-14 * np.abs(d).max()
                # no entry of the dense form lies outside the pattern
                assert not d[scattered == 0].any()
            rows = [(bp.pvpq, "real"), (bp.pq, "imag")]
            ref = np.block([[getattr(d[np.ix_(r, c)], part)
                             for d, c in zip(dense, (bp.pvpq, bp.pq))]
                            for r, part in rows])
            jac = powerflow.newton_jacobian(br, *pattern, len(bp.mis_index))
            assert np.abs(jac - ref).max() <= 1e-14 * np.abs(ref).max()


def station(g=0.0206, b=-3.6028, a_loss=0.011, b_loss=0.003,
            c_loss=0.0043):
    return ConverterStation(name="VSC", pcc_bus=1, dc_bus=1, g=g, b=b,
                            a_loss=a_loss, b_loss=b_loss, c_loss=c_loss)


def series_terms(conv):
    """Coupling-branch admittance and resistance of one station, as its
    DC plan holds them."""
    plan = dc_plan(make_dc_buses([conv.dc_bus]), [], [conv])
    return plan.y_series[0], plan.r_series[0]


def station_quantities(v_pcc, p_s, q_s, conv):
    """One station on its own, injecting what its AC side delivers."""
    terms = powerflow._station_terms(v_pcc, p_s, q_s, conv,
                                     series_terms(conv)[0])
    p_c, _, p_loss, _, _ = terms
    return powerflow._converter_state(conv, p_s, q_s, terms, p_c - p_loss)


def capability_margin(net, base_state, p_s, q_s, r_min=0.0, r_max=1.0):
    """Capability entry of ``constraint_report`` for the first converter
    moved to ``(p_s, q_s)`` with annulus radii ``r_min``/``r_max``."""
    net = pickle.loads(pickle.dumps(net))
    conv = net.converters[0]
    conv.p_center = conv.q_center = 0.0
    conv.r_min, conv.r_max = r_min, r_max
    state = copy.copy(base_state)
    state.converters = ([dataclasses.replace(base_state.converters[0],
                                             p_s=p_s, q_s=q_s)]
                        + base_state.converters[1:])
    _, values = opfcore.constraint_report(net, state).groups["capability"]
    return values[0]


class TestConverterPrimitives:
    def test_equal_phasors_no_transfer(self):
        v_pcc = 1.03 * cmath.exp(0.2j)
        st = station_quantities(v_pcc, 0.0, 0.0, station())
        assert st.u_c == pytest.approx(1.03, abs=1e-15)
        assert st.delta_c == pytest.approx(0.2, abs=1e-15)
        assert st.p_c == pytest.approx(0.0, abs=1e-15)
        assert st.q_c == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # a lossless reactance of 0.1 p.u. carrying 10*sin(0.1) from a
        # PCC at angle 0.1 puts the converter terminal at 1 p.u., angle 0
        p_s = 10.0 * math.sin(0.1)
        q_s = 10.0 * (1.0 - math.cos(0.1))
        st = station_quantities(cmath.exp(0.1j), p_s, q_s,
                                           station(g=0.0, b=-10.0))
        assert p_s == pytest.approx(0.9983, abs=5e-4)
        assert st.u_c == pytest.approx(1.0, abs=1e-12)
        assert st.delta_c == pytest.approx(0.0, abs=1e-12)
        assert st.p_c == pytest.approx(p_s, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(vm=st.floats(0.9, 1.1), va=st.floats(-0.5, 0.5),
           p_s=st.floats(-1.0, 1.0), q_s=st.floats(-1.0, 1.0),
           g=st.floats(0.0, 2.0), b=st.floats(-15.0, -1.0),
           losses=st.tuples(*[st.floats(0.0, 0.05)] * 3))
    def test_loss_identity_sampled(self, vm, va, p_s, q_s, g, b, losses):
        # the two-port identities of the station model, at a PCC phasor
        # of the type the coupled solve passes (a NumPy complex)
        conv = station(g=g, b=b, a_loss=losses[0], b_loss=losses[1],
                       c_loss=losses[2])
        y_ser, r_br = series_terms(conv)
        assert r_br == (1.0 / complex(g, b)).real and y_ser == complex(g, b)
        v_pcc = np.complex128(vm * cmath.exp(1j * va))
        state = station_quantities(v_pcc, p_s, q_s, conv)
        # series conduction loss, then the station loss: what the AC side
        # delivers is the net DC power of the squared series current
        k = (p_s * p_s + q_s * q_s) / abs(v_pcc) ** 2
        assert abs(p_s - state.p_c - r_br * state.i_c ** 2) <= 1e-12
        assert abs(state.p_c - state.p_loss
                   - powerflow._net_dc_power(conv, r_br, p_s, k)) <= 1e-12
        assert state.p_c - state.p_dc == pytest.approx(state.p_loss,
                                                       abs=1e-15)
        assert state.p_loss >= conv.a_loss

    def test_loss_zero_coefficients(self):
        st = station_quantities(
            1.02 + 0j, 0.7, -0.3, station(a_loss=0.0, b_loss=0.0, c_loss=0.0))
        assert st.p_loss == 0.0
        assert st.p_dc == st.p_c

    def test_no_load_loss(self):
        st = station_quantities(1.0 + 0j, 0.0, 0.0, station())
        assert st.p_loss == 0.011

    def test_loss_hand_value(self):
        st = station_quantities(1.0 + 0j, 0.5, 0.0, station())
        assert st.i_c == pytest.approx(0.5, abs=1e-15)
        assert st.p_loss == pytest.approx(0.013575, abs=1e-12)

    def test_droop_schedule_inverted_by_pcc_solve(self):
        # at nominal PCC voltage the scheduled DC power, the station model
        # and the PCC-power inversion agree on one net-DC-power expression
        conv = station()
        r_br = series_terms(conv)[1]
        for p_s, q_s in ((-0.862, 0.0111), (0.968, -0.1237), (0.3, 0.4)):
            p_dc = powerflow.derive_droop_schedule(conv, r_br, p_s, q_s)
            st = station_quantities(1.0 + 0j, p_s, q_s, conv)
            assert st.p_dc == pytest.approx(p_dc, abs=1e-12)
            p_s_back = powerflow._solve_ps_for_pdc(1.0 + 0j, q_s, conv, r_br,
                                                   p_dc, 0.0)
            assert p_s_back == pytest.approx(p_s, abs=1e-12)

    def test_inversion_reports_unreachable_target(self):
        # with a quadratic loss coefficient of 1, at most about 0.24 p.u.
        # reaches the DC side at nominal PCC voltage
        conv = station(c_loss=1.0)
        assert powerflow._solve_ps_for_pdc(1.0 + 0j, 0.0, conv,
                                           series_terms(conv)[1], 0.9,
                                           0.5) is None

    def test_capability_center(self, acdc_net, base_eval):
        assert capability_margin(acdc_net, base_eval.state, 0.0, 0.0) <= 0.0

    def test_capability_boundary_inside(self, acdc_net, base_eval):
        assert capability_margin(acdc_net, base_eval.state, 0.8, 0.6) <= 1e-15

    def test_capability_above(self, acdc_net, base_eval):
        assert capability_margin(acdc_net, base_eval.state, 0.9, 0.6) > 0.0

    def test_capability_below(self, acdc_net, base_eval):
        assert capability_margin(acdc_net, base_eval.state, 0.1, 0.0,
                                 r_min=0.5) > 0.0


def make_dc_buses(ids):
    from acdcopf.netmodel import DcBus
    return [DcBus(id=i) for i in ids]


def make_dc_branches(edges, y=10.0):
    from acdcopf.netmodel import DcBranch
    out = []
    for i, (f, t) in enumerate(edges):
        br = DcBranch(from_bus=f, to_bus=t, y=y)
        br.outage_id = f"DC{i+1}"
        out.append(br)
    return out


def dc_grid(stations, branches):
    """Plan and the per-bus ``droop``, ``u0``, ``p0`` arrays of a DC grid
    with buses 1..n: ``stations`` holds one ``(mode, droop, u0, p0)`` per
    bus, or None for a bus without a converter."""
    n = len(stations)
    convs = [ConverterStation(name=f"C{bus}", pcc_bus=bus, dc_bus=bus, g=0.0,
                              b=-10.0, mode=st[0])
             for bus, st in enumerate(stations, 1) if st is not None]
    rows = [(0.0, 1.0, 0.0) if st is None else st[1:] for st in stations]
    droop, u0, p0 = np.array(rows, dtype=float).T.copy()
    return dc_plan(make_dc_buses(range(1, n + 1)), branches, convs), \
        droop, u0, p0


class TestSolveDc:
    def test_flat_no_disturbance(self):
        branches = make_dc_branches([(1, 2), (2, 3), (1, 3)], y=50.0)
        state = solve_dc(*dc_grid([("droop", 0.02, 1.0, 0.0)] * 3, branches))
        assert state.converged
        np.testing.assert_allclose(state.u, 1.0, atol=1e-12)
        np.testing.assert_allclose(state.branch_i, 0.0, atol=1e-10)

    def test_two_bus_hand_solution(self):
        branches = make_dc_branches([(1, 2)], y=10.0)
        state = solve_dc(*dc_grid([("const_p", 0.0, 1.0, 0.101),
                                   ("const_vdc", 0.0, 1.0, 0.0)], branches))
        assert state.converged
        assert state.u[0] == pytest.approx(1.01, abs=1e-9)
        assert state.i_inj[0] == pytest.approx(0.1, abs=1e-9)
        assert state.p_inj[0] == pytest.approx(0.101, abs=1e-9)

    def test_equal_droop_shares_equally(self):
        branches = make_dc_branches([(1, 2), (2, 3), (1, 3)], y=200.0)
        state = solve_dc(*dc_grid([("droop", 0.05, 1.0, 0.0),
                                   ("droop", 0.05, 1.0, 0.0),
                                   ("const_p", 0.0, 1.0, -0.4)], branches))
        assert state.converged
        d1 = state.p_inj[0] - 0.0
        d2 = state.p_inj[1] - 0.0
        assert d1 == pytest.approx(d2, abs=1e-7)
        assert d1 > 0.19

    def test_all_const_p_rejected(self):
        branches = make_dc_branches([(1, 2)])
        with pytest.raises(PowerFlowConfigError):
            solve_dc(*dc_grid([("const_p", 0.0, 1.0, 0.1),
                               ("const_p", 0.0, 1.0, -0.1)], branches))

    def test_power_balance_equals_line_losses(self):
        branches = make_dc_branches([(1, 2), (2, 3), (1, 3)], y=100.0)
        state = solve_dc(*dc_grid([("droop", 0.05, 1.0, 0.6),
                                   ("droop", 0.05, 1.0, -0.3),
                                   ("droop", 0.05, 1.0, -0.28)], branches))
        assert state.converged
        losses = sum(i * i / br.y
                     for i, br in zip(state.branch_i, branches))
        assert state.p_inj.sum() == pytest.approx(losses, abs=1e-6)

    def test_bus_without_converter_passes_power_through(self):
        # 1 (const_vdc) - 2 (no converter) - 3 (const_p): bus 2 injects
        # nothing and the set voltage holds
        branches = make_dc_branches([(1, 2), (2, 3)], y=20.0)
        state = solve_dc(*dc_grid([("const_vdc", 0.0, 1.02, 0.0), None,
                                   ("const_p", 0.0, 1.0, 0.3)], branches))
        assert state.converged
        assert state.u[0] == 1.02
        assert abs(state.p_inj[1]) <= 1e-8
        assert state.p_inj[2] == pytest.approx(0.3, abs=1e-8)
        assert state.branch_i[0] == pytest.approx(state.branch_i[1],
                                                  abs=1e-9)

    def test_rows_from_plan_equal_row_by_row_solve(self):
        # the plan's rows give every voltage and iteration count of a
        # solve formed bus by bus, bit for bit, in every mode mix
        rng = np.random.default_rng(5)
        branches = make_dc_branches([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)],
                                    y=30.0)
        modes = ["droop", "const_p", "const_vdc", None]
        for _ in range(40):
            mix = list(rng.choice(modes, size=4))
            if not {"droop", "const_vdc"} & set(mix):
                continue
            stations = [None if m is None else
                        (m, rng.uniform(0.01, 0.1), rng.uniform(0.97, 1.03),
                         rng.uniform(-0.4, 0.4)) for m in mix]
            plan, droop, u0, p0 = dc_grid(stations, branches)
            state = solve_dc(plan, droop, u0, p0)
            u, iterations = dc_newton_by_rows(plan.ydc, mix, droop, u0, p0,
                                              powerflow.TOL_DC,
                                              powerflow.MAX_DC)
            assert np.array_equal(state.u, u), mix
            assert state.iterations == iterations


def bus_mismatch(net, state):
    """Largest bus mismatch of a converged solve against the variant's
    ``ybus``, the injections rebuilt from the elements and the solved
    converter and generator outputs."""
    spec = np.zeros(net.n_bus, dtype=complex)
    for bus in net.buses:
        spec[net.bus_index[bus.id]] -= complex(bus.p_d, bus.q_d)
    for gen, p, q in zip(net.generators, state.gen_p, state.gen_q):
        spec[net.bus_index[gen.bus]] += complex(p, q)
    for sh in net.shunts:
        spec[net.bus_index[sh.bus]] += 1j * sh.q_c
    for conv, cs in zip(net.converters, state.converters):
        spec[net.bus_index[conv.pcc_bus]] -= complex(cs.p_s, cs.q_s)
    v = state.ac.vm * np.exp(1j * state.ac.va)
    return np.max(np.abs(v * np.conj(net.plan.branches.ybus @ v) - spec))


class TestSolveAcdc:
    def test_bundled_base_point(self, acdc_net, acdc_space, base_eval):
        state = base_eval.state
        assert state.converged
        assert state.outer_iterations <= 10
        # slack output near the published operating point; bundled case
        # data is a documented substitute, hence the loose band
        assert state.gen_p[0] == pytest.approx(2.324, abs=0.15)
        assert max(cs.residual for cs in state.converters) <= 1e-6

    def test_coupling_residual_every_converter(self, base_eval):
        for cs in base_eval.state.converters:
            assert abs(cs.p_c - cs.p_dc - cs.p_loss) <= 1e-6

    def test_ac_power_balance(self, acdc_net, base_eval):
        state = base_eval.state
        v = state.ac.vm * np.exp(1j * state.ac.va)
        s = v * np.conj(acdc_net.plan.branches.ybus @ v)
        assert np.max(np.abs(state.ac.p_inj - s.real)) < 1e-9

    def test_dc_power_balance(self, acdc_net, base_eval):
        dc = base_eval.state.dc
        losses = sum(i * i / br.y
                     for i, br in zip(dc.branch_i, acdc_net.dc_branches))
        assert dc.p_inj.sum() == pytest.approx(losses, abs=1e-6)

    def test_decoupled_limit_matches_ac_only(self, acdc_net, acdc_space):
        # zero transfers and lossless converters must reproduce the plain
        # AC solution of the same network
        net = pickle.loads(pickle.dumps(acdc_net))
        for conv in net.converters:
            conv.a_loss = conv.b_loss = conv.c_loss = 0.0
            conv.p_s = conv.q_s = 0.0
        state = solve_acdc(net)
        assert state.converged
        p, q, vm = ac_inputs(net)
        ac_only = solve_ac(net, p, q, vm)
        np.testing.assert_allclose(state.ac.vm, ac_only.vm, atol=1e-9)
        np.testing.assert_allclose(state.ac.va, ac_only.va, atol=1e-9)

    def test_droop_reference_shift_direction(self, acdc_net, acdc_space):
        u = acdc_space.default_vector()
        res0 = opfcore.evaluate(acdc_net, acdc_space, u)
        u2 = u.copy()
        u2[acdc_space.index["U_dc0:VSC2"]] += 0.01
        res1 = opfcore.evaluate(acdc_net, acdc_space, u2)
        p0 = res0.state.converters[1].p_dc
        p1 = res1.state.converters[1].p_dc
        assert p1 > p0          # raising the reference raises the injection

    def test_bitwise_determinism(self, acdc_net, acdc_space):
        u = acdc_space.default_vector()
        a = opfcore.evaluate(acdc_net, acdc_space, u)
        b = opfcore.evaluate(acdc_net, acdc_space, u)
        assert a.objectives == b.objectives
        np.testing.assert_array_equal(a.state.ac.vm, b.state.ac.vm)
        np.testing.assert_array_equal(a.state.ac.va, b.state.ac.va)
        np.testing.assert_array_equal(a.state.dc.u, b.state.dc.u)

    def test_warm_start_agrees_with_cold_start(self, acdc_net, base_eval):
        # each outage of the scheduled point, solved from the
        # pre-contingency state and from a flat start: the same verdict,
        # the same solution to the coupling tolerance, and no more outer
        # iterations from the warm state
        for k in acdc_net.contingencies:
            net_k = apply_contingency(base_eval.net, k)
            warm = solve_acdc(net_k, warm=base_eval.state)
            cold = solve_acdc(net_k)
            assert warm.converged == cold.converged, k.label
            assert warm.failure_stage == cold.failure_stage, k.label
            if not cold.converged:
                continue
            np.testing.assert_allclose(warm.ac.vm, cold.ac.vm, rtol=0,
                                       atol=1e-7)
            np.testing.assert_allclose(warm.ac.va, cold.ac.va, rtol=0,
                                       atol=TOL_COUPLE)
            np.testing.assert_allclose(
                [cs.p_s for cs in warm.converters],
                [cs.p_s for cs in cold.converters], rtol=0, atol=TOL_COUPLE)
            assert warm.outer_iterations <= cold.outer_iterations, k.label

    def test_unservable_station_fails_coupling(self, acdc_net):
        # VSC2 cannot deliver the DC power its droop asks for; the solve
        # stops at the first failed inversion instead of iterating on
        net = pickle.loads(pickle.dumps(acdc_net))
        net.converters[1].c_loss = 1.0
        state = solve_acdc(net)
        assert not state.converged
        assert state.failure_stage == "coupling"
        assert state.outer_iterations == 1

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_power_balance_at_convergence(self, acdc_net, acdc_space, data):
        for net, space in ((acdc_net, acdc_space),
                           case_variant("mixed_modes"),
                           case_variant("shunt_on_gen_bus")):
            frac = np.array(data.draw(st.lists(
                st.floats(0.0, 1.0), min_size=len(space),
                max_size=len(space))))
            u = space.snap(space.lo + frac * (space.hi - space.lo))
            net_u = opfcore.apply_controls(net, space, u)
            state = solve_acdc(net_u)
            if state.converged:
                assert bus_mismatch(net_u, state) <= 1e-6

    @pytest.mark.parametrize("name", ["mixed_modes", "shunt_on_gen_bus"])
    def test_variant_case_point_balanced(self, name):
        net, space = case_variant(name)
        result = opfcore.evaluate(net, space, space.default_vector())
        assert result.state.converged
        assert bus_mismatch(result.net, result.state) <= 1e-8
        if name == "mixed_modes":
            vdc = net.converters[0]
            assert result.state.dc.u[net.plan.dc.index[vdc.dc_bus]] == \
                vdc.u_dc0
            # a const_p station delivers its AC side's power to the DC grid
            cs = result.state.converters[2]
            assert cs.p_s == net.converters[2].p_s
            assert abs(cs.p_c - cs.p_loss - result.state.dc.p_inj[
                net.plan.dc.index[net.converters[2].dc_bus]]) <= 1e-6

    def test_failure_stage_labelled(self, acdc_net, acdc_space):
        u = acdc_space.default_vector()
        u[acdc_space.index["P_s:VSC2"]] = 1.0
        u[acdc_space.index["P_s:VSC1"]] = 1.0
        u[acdc_space.index["P_s:VSC3"]] = 1.0
        u[acdc_space.index["P_G:bus2"]] = 0.0
        res = opfcore.evaluate(acdc_net, acdc_space, u)
        if not res.state.converged:
            assert res.state.failure_stage in ("ac", "dc", "coupling")


def scheduled_dc_inputs(net):
    """Per-DC-bus ``droop``, ``u0`` and ``p0`` of a network whose stations
    are droop or const_vdc: the DC references of the scheduled PCC
    powers."""
    rows = net.plan.dc.conv_rows
    droop, u0, p0 = (np.zeros(len(net.dc_buses)) for _ in range(3))
    droop[rows] = [c.droop for c in net.converters]
    u0[rows] = [c.u_dc0 for c in net.converters]
    p0[rows] = [powerflow.derive_droop_schedule(c, r_br, c.p_s, c.q_s)
                for c, r_br in zip(net.converters, net.plan.dc.r_series)]
    return droop, u0, p0


def state_digest(state):
    """sha256 of the solved voltages, flows, DC state and outputs."""
    arrays = (state.ac.vm, state.ac.va, state.ac.p_branch, state.ac.q_branch,
              state.dc.u, state.dc.p_inj, state.dc.branch_i, state.gen_p,
              state.gen_q, np.array([[cs.p_s, cs.q_s, cs.p_dc]
                                     for cs in state.converters]))
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestDcReuse:
    """The DC grid is solved only when its inputs change."""

    @pytest.fixture
    def dc_solves(self, monkeypatch):
        calls = []
        solve = powerflow.solve_dc

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(powerflow, "solve_dc", counting)
        return calls

    @staticmethod
    def moved(space, u, name):
        u = u.copy()
        i = space.index[name]
        u[i] = u[i] + 0.25 * (space.hi[i] - space.lo[i])
        if u[i] > space.hi[i]:
            u[i] -= 0.5 * (space.hi[i] - space.lo[i])
        return space.snap(u)

    @pytest.mark.parametrize("name", ["P_G:bus2", "U_G:bus1", "T:L5",
                                      "Q_C:bus9"])
    def test_ac_side_move_reuses_warm_dc_solution(self, acdc_net, acdc_space,
                                                  base_eval, dc_solves,
                                                  name):
        warm = base_eval.state
        res = opfcore.evaluate(acdc_net, acdc_space,
                               self.moved(acdc_space, base_eval.u, name),
                               warm=warm)
        assert res.state.converged
        assert res.state.outer_iterations > 1
        assert dc_solves == []
        ref = solve_dc(res.net.plan.dc, *scheduled_dc_inputs(res.net),
                       u_start=warm.dc.u)
        for key in ("u", "i_inj", "p_inj", "branch_i", "branch_p"):
            assert (getattr(res.state.dc, key).tobytes()
                    == getattr(ref, key).tobytes()), key
        assert res.state.dc.iterations == ref.iterations == 0

    @pytest.mark.parametrize("name", ["P_s:VSC1", "Q_s:VSC2", "U_dc0:VSC3",
                                      "R:VSC1", "DC1"])
    def test_dc_side_change_solves_dc(self, acdc_net, acdc_space, base_eval,
                                      dc_solves, name):
        if name.startswith("DC"):
            net, u = (apply_contingency(acdc_net, acdc_net.contingency(name)),
                      base_eval.u)
        else:
            net, u = acdc_net, self.moved(acdc_space, base_eval.u, name)
        res = opfcore.evaluate(net, acdc_space, u, warm=base_eval.state)
        assert res.state.converged
        assert len(dc_solves) == 1

    def test_cold_solve_solves_dc_once(self, base_eval, dc_solves):
        # the bundled case has only droop stations: its DC inputs do not
        # depend on the AC side
        state = solve_acdc(base_eval.net)
        assert state.outer_iterations > 1
        assert len(dc_solves) == 1
        assert state_digest(state) == state_digest(base_eval.state)

    def test_const_p_state_unchanged(self, dc_solves):
        # a const_p station's p0 follows the AC side: one DC solve per
        # outer iteration, and the states of the solve that called the DC
        # solver in every outer iteration, bit for bit (digests taken with
        # that solve, for the NumPy/LAPACK build they were taken with)
        net, space = case_variant("mixed_modes")
        cold = opfcore.evaluate(net, space, space.default_vector())
        assert cold.state.converged
        assert len(dc_solves) == cold.state.outer_iterations > 1
        u = self.moved(space, space.default_vector(), "P_G:bus2")
        warm = opfcore.evaluate(net, space, u, warm=cold.state)
        assert warm.state.converged
        assert [state_digest(cold.state), state_digest(warm.state)] == [
            "9ef5684e2826a6182cc5eb764072df66c69c592bfc632a5a28165caf2305694e",
            "fac8966a0ad685aa76a586bc89c44e011400317aa401ba013ddc61a07ee75d48"]


def assert_same_ac(stacked, single, arrays=("vm", "va", "p_inj", "q_inj")):
    """Two AC solves reached the same state, bit for bit."""
    for key in ("iterations", "converged", "singular", "max_mismatch"):
        assert getattr(stacked, key) == getattr(single, key), key
    for key in arrays:
        assert (getattr(stacked, key).tobytes()
                == getattr(single, key).tobytes()), key


def assert_same_state(stacked, single):
    """Two coupled solves reached the same state, bit for bit."""
    for key in ("converged", "failure_stage", "outer_iterations"):
        assert getattr(stacked, key) == getattr(single, key), key
    assert_same_ac(stacked.ac, single.ac, ("vm", "va", "p_inj", "q_inj",
                                           "p_branch", "q_branch"))
    if single.converged:
        assert state_digest(stacked) == state_digest(single)


class TestStack:
    """The stacked solves of one network's outage variants
    (``solve_acdc_stack``, ``solve_ac_stack``) against the single path,
    system by system."""

    @staticmethod
    def outage_states(net, space, u, warm):
        """Stacked and single-path states of every AC outage of ``net``
        at ``u``, warm from the base solve or cold; the number of
        diverged outages."""
        variants = screen.outage_variants(net)
        u = space.snap(u)
        net_u = opfcore.apply_controls(net, space, u)
        base = solve_acdc(net_u) if warm else None
        start = base if base is not None and base.converged else None
        stacked = powerflow.solve_acdc_stack(
            screen.variants_at(net_u, space, u, variants),
            net_u.plan.branches, warm=start)
        single = [solve_acdc(opfcore.apply_controls(net_k, space, u),
                             warm=start) for net_k, _ in variants.values()]
        for a, b in zip(stacked, single, strict=True):
            assert_same_state(a, b)
        return sum(not state.converged for state in single)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_training_samples(self, acdc_net, acdc_space, seed):
        # every outage at the 30 samples of ``train-screen --seed <seed>
        # --samples 30``, warm as in training and cold
        width = cli.DEFAULT_CONFIG["screening"]["width"]
        diverged = sum(
            self.outage_states(acdc_net, acdc_space, u, warm)
            for u in screen.sample_controls(acdc_space, 30, width, seed)
            for warm in (True, False))
        assert diverged > 0

    def test_mixed_modes(self):
        # a const_vdc and a const_p station: a DC solve per system in
        # every outer iteration
        net, space = case_variant("mixed_modes")
        points = [space.default_vector(),
                  *screen.sample_controls(space, 12, 0.05, 4)]
        converged = sum(
            len(net.contingencies)
            - self.outage_states(net, space, u, warm)
            for u in points for warm in (True, False))
        assert converged > 100

    def test_failing_systems_stop_alone(self, acdc_net):
        # in one stack: a system whose mismatch grows, one whose step
        # leaves a non-positive magnitude, one with a singular Jacobian
        # (bus 14 cut off by zero admittances) and two that converge
        p, q, vm = ac_inputs(acdc_net)
        cut = [dataclasses.replace(br, g=0.0, b=0.0, b_charge=0.0)
               if 14 in (br.from_bus, br.to_bus) else br
               for br in acdc_net.branches]
        isolated = copy.copy(acdc_net)
        isolated.branches = cut
        bp = acdc_net.plan.branches
        isolated.plan = dataclasses.replace(
            acdc_net.plan, branches=dataclasses.replace(bp, **branch_values(
                cut, bp.f, bp.t, bp.pat_r, bp.pat_c, acdc_net.n_bus)))
        systems = [(acdc_net, p, q), (acdc_net, 3 * p, 3 * q),
                   (acdc_net, 4 * p, 4 * q), (isolated, p, q),
                   (acdc_net, p, 10 * q)]
        nets, ps, qs = zip(*systems)
        stacked = powerflow.solve_ac_stack(list(nets), bp, np.stack(ps),
                                           np.stack(qs), vm)
        single = [solve_ac(net, p_s, q_s, vm) for net, p_s, q_s in systems]
        for a, b in zip(stacked, single, strict=True):
            assert_same_ac(a, b)
        converged, grown, negative, singular, loaded = single
        assert converged.converged and loaded.converged
        assert not grown.converged and grown.iterations < powerflow.MAX_NR
        assert grown.vm.min() > 0.0
        assert not negative.converged and negative.vm.min() <= 0.0
        assert singular.singular

    def test_networks_must_share_all_but_branches(self, acdc_net,
                                                  acdc_space):
        other = opfcore.apply_controls(
            acdc_net, acdc_space, TestDcReuse.moved(
                acdc_space, acdc_space.default_vector(), "P_G:bus2"))
        with pytest.raises(ValueError, match="AC branches"):
            powerflow.solve_acdc_stack([acdc_net, other],
                                       acdc_net.plan.branches)
