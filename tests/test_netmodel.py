"""Grid model: loading, validation, contingencies, discrete snapping."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acdcopf import netmodel, opfcore
from acdcopf.netmodel import (CaseParseError, CaseValidationError,
                              ControlSpace, IslandingError, apply_contingency,
                              build_plan, load_case, network_from_dict)

from conftest import (network_to_dict, radial_three_bus_case, same_elements,
                      same_plan_arrays, scalar_ybus, two_bus_case,
                      write_case)


class TestLoadCase:
    def test_bundled_acdc_counts(self, acdc_net):
        assert len(acdc_net.buses) == 14
        assert len(acdc_net.generators) == 5
        assert len(acdc_net.branches) == 17
        assert len(acdc_net.dc_branches) == 3
        assert len(acdc_net.converters) == 3
        assert [s.bus for s in acdc_net.shunts] == [9]

    def test_minimal_two_bus(self, two_bus_net):
        assert len(two_bus_net.branches) == 1
        assert not two_bus_net.dc_buses

    def test_voltage_limit_order_names_bus(self, tmp_path):
        case = two_bus_case()
        case["ac_buses"][1]["u_min"] = 1.2
        case["ac_buses"][1]["u_max"] = 1.1
        with pytest.raises(CaseValidationError, match="bus 2"):
            load_case(write_case(tmp_path, case))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CaseParseError):
            load_case(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CaseParseError):
            load_case(tmp_path / "nope.json")

    def test_duplicate_bus_ids(self, tmp_path):
        case = two_bus_case()
        case["ac_buses"].append(dict(case["ac_buses"][1]))
        with pytest.raises(CaseValidationError, match="duplicate"):
            load_case(write_case(tmp_path, case))

    def test_disconnected_graph_named(self, tmp_path):
        case = two_bus_case()
        case["ac_buses"].append(
            {"id": 7, "kind": "pq", "u_min": 0.5, "u_max": 1.5,
             "a_min": 0.4, "a_max": 1.6, "h_min": 0.5, "h_max": 1.5})
        with pytest.raises(CaseValidationError, match=r"\[7\]"):
            load_case(write_case(tmp_path, case))

    def test_two_slacks_rejected(self, tmp_path):
        case = two_bus_case()
        case["ac_buses"][1]["kind"] = "slack"
        with pytest.raises(CaseValidationError, match="slack"):
            load_case(write_case(tmp_path, case))

    def test_alarm_inside_security_rejected(self, tmp_path):
        case = two_bus_case()
        case["ac_buses"][0]["a_min"] = 0.6   # above h_min = 0.5
        with pytest.raises(CaseValidationError, match="alarm"):
            load_case(write_case(tmp_path, case))

    def test_flow_alarm_must_exceed_security(self, tmp_path):
        case = two_bus_case()
        case["ac_branches"][0]["p_alarm"] = 50.0
        with pytest.raises(CaseValidationError, match="P_A > P_H"):
            load_case(write_case(tmp_path, case))

    @pytest.mark.parametrize("section,index,key,value", [
        ("ac_branches", 0, "g", float("nan")),
        ("ac_branches", 3, "b", float("-inf")),
        ("ac_branches", 2, "p_secure", float("nan")),
        ("ac_branches", 5, "p_max", float("inf")),
        ("converters", 1, "c_loss", float("nan")),
        ("ac_buses", 4, "u_max", float("inf")),
        ("dc_branches", 0, "y", float("inf")),
    ])
    def test_non_finite_number_named(self, tmp_path, section, index, key,
                                     value):
        case = json.loads(netmodel.bundled_case_path("case14_acdc")
                          .read_text())
        case[section][index][key] = value
        path = write_case(tmp_path, case)
        # the file holds the bare JSON literals that Python's parser accepts
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(CaseValidationError,
                           match=rf"{section}\[{index}\]: {key} is not finite"):
            load_case(path)

    @pytest.mark.parametrize("field,value,name", [
        ("limits", {"p_s": [float("-inf"), 1.0]}, "limits: p_s"),
        ("base_mva", float("nan"), "base_mva"),
    ])
    def test_non_finite_case_level_number(self, tmp_path, field, value, name):
        case = two_bus_case()
        case[field] = value
        with pytest.raises(CaseValidationError, match=name):
            load_case(write_case(tmp_path, case))

    @pytest.mark.parametrize("edit,error,named", [
        (lambda c: c["limits"].update(bogus=[0, 1]), CaseParseError,
         "limits: unknown key 'bogus'"),
        (lambda c: c["limits"].update(u_g=5), CaseParseError,
         "limits: u_g must be a pair"),
        (lambda c: c["limits"].update(u_g=[0.9, 1.0, 1.1]), CaseParseError,
         "limits: u_g must be a pair"),
        (lambda c: c.update(limits=[1, 2]), CaseParseError,
         "limits must be a JSON object"),
        (lambda c: c["ac_buses"].append(1), CaseParseError,
         r"ac_buses\[14\] must be a JSON object"),
        (lambda c: c.update(shunts=5), CaseParseError,
         "shunts must be a JSON list"),
        (lambda c: c.update(base_mva="x"), CaseParseError,
         "base_mva must be a number"),
        (lambda c: c["limits"].update(u_g=[1.1, 0.9]), CaseValidationError,
         "limits: u_g lower bound 1.1 exceeds upper bound 0.9"),
    ], ids=["limits-unknown-key", "limits-scalar", "limits-three-values",
            "limits-not-object", "entry-not-object", "section-not-list",
            "base-mva-string",
            "limits-reversed-pair"])
    def test_malformed_section_or_entry_named(self, tmp_path, edit, error,
                                              named):
        case = json.loads(netmodel.bundled_case_path("case14_acdc")
                          .read_text())
        edit(case)
        with pytest.raises(error, match=named):
            load_case(write_case(tmp_path, case))

    def test_second_shunt_on_a_bus_rejected(self, tmp_path):
        # both would be the control Q_C:bus3
        case = json.loads(netmodel.bundled_case_path("case14_acdc")
                          .read_text())
        case["shunts"] = [
            {"bus": 3, "q_c": 0.1, "q_min": 0.0, "q_max": 0.2, "q_step": 0.01},
            {"bus": 9, "q_c": 0.19, "q_min": 0.0, "q_max": 0.5,
             "q_step": 0.01},
            {"bus": 3, "q_c": 0.05, "q_min": 0.0, "q_max": 0.1,
             "q_step": 0.01}]
        with pytest.raises(CaseValidationError,
                           match=r"shunts\[2\]: bus 3 already has shunts\[0\]"):
            load_case(write_case(tmp_path, case))

    def test_dc_grid_without_voltage_control_rejected(self, tmp_path):
        case = json.loads(netmodel.bundled_case_path("case14_acdc")
                          .read_text())
        for conv in case["converters"]:
            conv["mode"] = "const_p"
        with pytest.raises(CaseValidationError,
                           match="no droop or const_vdc converter"):
            load_case(write_case(tmp_path, case))
        case["converters"][1]["mode"] = "const_vdc"
        assert load_case(write_case(tmp_path, case)).plan.dc.vdc_rows.size

    def test_removed_p_dc0_rejected(self, tmp_path):
        # nothing read the field; a case naming it is rejected like any
        # unknown key
        case = json.loads(netmodel.bundled_case_path("case14_acdc")
                          .read_text())
        case["converters"][0]["p_dc0"] = 0.0
        with pytest.raises(CaseParseError, match=r"converters\[0\].*p_dc0"):
            load_case(write_case(tmp_path, case))

    @pytest.mark.parametrize("value", ["x", True, None])
    def test_non_numeric_field_named(self, tmp_path, value):
        # a bool would load as 1.0 and a string would fail deep in the
        # solver; both, and null, are parse errors that name the field
        case = json.loads(netmodel.bundled_case_path("case14_acdc")
                          .read_text())
        case["ac_buses"][3]["p_d"] = value
        with pytest.raises(CaseParseError,
                           match=r"ac_buses\[3\]\.p_d must be a number"):
            load_case(write_case(tmp_path, case))

    def test_round_trip(self, acdc_net):
        doc = network_to_dict(acdc_net)
        again = network_from_dict(doc)
        assert network_to_dict(again) == doc
        assert [b.outage_id for b in again.branches] == \
            [b.outage_id for b in acdc_net.branches]


@settings(max_examples=20, deadline=None)
@given(frac=st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24))
def test_round_trip_keeps_elements_and_plan(acdc_net, acdc_space, frac):
    # a network that carries a control vector (taps moved included) is
    # written and loaded again: the same elements and an equal plan,
    # constants and Jacobian pattern included
    space = acdc_space
    u = space.snap(space.lo + np.array(frac) * (space.hi - space.lo))
    net = opfcore.apply_controls(acdc_net, space, u)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(network_to_dict(net)))
        again = load_case(path)
    assert same_elements(again, net)
    assert same_plan_arrays(again.plan, net.plan)


class TestContingencies:
    def test_list_covers_all_branches(self, acdc_net):
        assert len(acdc_net.contingencies) == 17 + 3
        assert not acdc_net.excluded_contingencies

    def test_labels_follow_file_order(self, acdc_net):
        labels = [k.label for k in acdc_net.contingencies]
        assert labels[0] == "L1(1-2)"
        assert "L4(3-4)" in labels
        assert "L3(2-3)" in labels
        assert labels[-1] == "DC3(1-3)"

    def test_apply_ac_outage(self, acdc_net):
        k = acdc_net.contingency("L4")
        reduced = apply_contingency(acdc_net, k)
        assert len(reduced.branches) == 16
        assert len(acdc_net.branches) == 17
        assert all(b.outage_id != "L4" for b in reduced.branches)

    def test_apply_does_not_mutate(self, acdc_net):
        before = network_to_dict(acdc_net)
        apply_contingency(acdc_net, acdc_net.contingency("L1"))
        assert network_to_dict(acdc_net) == before

    def test_dc_ring_outage(self, acdc_net):
        reduced = apply_contingency(acdc_net, acdc_net.contingency("DC1"))
        assert len(reduced.dc_branches) == 2
        ids = {b.id for b in reduced.dc_buses}
        assert ids == {1, 2, 3}

    def test_radial_outage_islands(self, radial_net):
        # every outage in a loaded radial chain drops load from the slack
        assert len(radial_net.contingencies) == 0
        assert len(radial_net.excluded_contingencies) == 2
        leaf = radial_net.contingency("L2")
        with pytest.raises(IslandingError):
            apply_contingency(radial_net, leaf)

    def test_unknown_outage_id(self, acdc_net):
        with pytest.raises(KeyError):
            acdc_net.contingency("L99")


def constants_follow_elements(net) -> None:
    """The constant parts of ``net``'s plan say what its elements say."""
    bp, br, dc = net.plan.buses, net.plan.branches, net.plan.dc
    rows = net.bus_index
    assert bp.p_d.tolist() == [b.p_d for b in net.buses]
    assert bp.vm_set.tolist() == [b.u for b in net.buses]
    assert bp.u_set.tolist() == [b.u_set for b in net.buses]
    assert bp.gen_rows.tolist() == [rows[g.bus] for g in net.generators]
    assert bp.shunt_rows.tolist() == [rows[s.bus] for s in net.shunts]
    assert bp.pcc_rows.tolist() == [rows[c.pcc_bus] for c in net.converters]
    assert [net.generators[j].bus for j in bp.slack_gens] == \
        [b.id for b in net.buses if b.kind == "slack"]
    names, lo, hi = br.limits["ac_flow"]
    assert names == tuple(f"P_L:{b.outage_id}" for b in net.branches)
    assert lo.tolist() == [b.p_min for b in net.branches]
    assert hi.tolist() == [b.p_max for b in net.branches]
    assert br.index == {b.outage_id: i for i, b in enumerate(net.branches)}
    names, lo, hi = dc.limits["dc_current"]
    assert names == tuple(f"I_dc:{b.outage_id}" for b in net.dc_branches)
    assert hi.tolist() == [b.i_max for b in net.dc_branches]
    assert dc.capability == tuple(f"capability:{c.name}"
                                  for c in net.converters)
    # the Jacobian pattern: every diagonal, in bus order, then every
    # other entry of the admittance matrix
    n = net.n_bus
    assert br.pat_r[:n].tolist() == br.pat_c[:n].tolist() == list(range(n))
    pattern = set(zip(br.pat_r.tolist(), br.pat_c.tolist()))
    assert pattern == set(zip(*np.nonzero(scalar_ybus(net)))) | {
        (i, i) for i in range(n)}
    assert np.array_equal(br.pat_y, br.ybus[br.pat_r, br.pat_c])


class TestSolverPlan:
    def test_no_plan_is_stale(self, acdc_net, acdc_space):
        base = acdc_net.plan
        assert same_plan_arrays(base, build_plan(acdc_net))
        constants_follow_elements(acdc_net)
        for k in acdc_net.contingencies:
            net_k = apply_contingency(acdc_net, k)
            assert same_plan_arrays(net_k.plan, build_plan(net_k)), k.label
            constants_follow_elements(net_k)
            assert net_k.plan.buses is base.buses
            kept = net_k.plan.dc if k.kind == "ac_line" else net_k.plan.branches
            assert kept is (base.dc if k.kind == "ac_line" else base.branches)

        space = acdc_space
        u = space.base.copy()           # the case point, taps unmoved
        unmoved = opfcore.apply_controls(acdc_net, space, u)
        assert unmoved.plan is base

        i = space.index["T:L5"]
        u[i] = space.hi[i] if u[i] < space.hi[i] else space.lo[i]
        moved = opfcore.apply_controls(acdc_net, space, u)
        assert same_plan_arrays(moved.plan, build_plan(moved))
        constants_follow_elements(moved)
        for net in (acdc_net, moved):
            assert np.array_equal(net.plan.branches.ybus, scalar_ybus(net))
        assert not np.array_equal(moved.plan.branches.yff_i,
                                  base.branches.yff_i)
        assert moved.plan.buses is base.buses
        assert moved.plan.dc is base.dc

    def test_dc_rows_follow_converter_modes(self, acdc_net):
        doc = network_to_dict(acdc_net)
        doc["converters"][0]["mode"] = "const_vdc"
        doc["converters"][2]["mode"] = "const_p"
        net = network_from_dict(doc)
        for variant in [net] + [apply_contingency(net, k)
                                for k in net.contingencies]:
            dc = variant.plan.dc
            assert same_plan_arrays(variant.plan, build_plan(variant))
            assert dc.conv_rows.tolist() == [0, 1, 2]
            assert dc.vdc_rows.tolist() == [0]
            assert dc.free_rows.tolist() == [1, 2]
            assert dc.droop_rows.tolist() == [1]
        base = acdc_net.plan.dc
        assert base.vdc_rows.size == 0
        assert base.free_rows.tolist() == base.droop_rows.tolist() == [0, 1, 2]

    def test_plan_is_read_only(self, acdc_net):
        with pytest.raises(ValueError):
            acdc_net.plan.branches.ybus[0, 0] = 0.0
        with pytest.raises(ValueError):
            acdc_net.plan.dc.ydc[0, 0] = 0.0


class TestControlSpace:
    def test_component_order(self, acdc_space):
        kinds = acdc_space.kinds
        order = ["p_g", "u_g", "tap", "q_c", "p_s", "q_s", "u_dc0", "droop"]
        seen = [k for k in order for _ in range(kinds.count(k))]
        assert kinds == seen
        assert len(acdc_space) == 24

    def test_snap_tap_example(self, acdc_space):
        # nearest multiple of 0.0125 above 0.9 to 1.0061 is 1.0
        i = acdc_space.index["T:L5"]
        u = acdc_space.default_vector()
        u[i] = 1.0061
        snapped = acdc_space.snap(u)
        assert snapped[i] == pytest.approx(1.0, abs=1e-12)

    def test_snap_identity_on_grid(self, acdc_space):
        u = acdc_space.default_vector()
        i = acdc_space.index["Q_C:bus9"]
        u[i] = 0.25                     # exactly on the 0.01 grid
        snapped = acdc_space.snap(u)
        assert snapped[i] == pytest.approx(0.25, abs=1e-15)

    def test_snap_idempotent(self, acdc_space):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.uniform(acdc_space.lo - 0.5, acdc_space.hi + 0.5)
            once = acdc_space.snap(u)
            twice = acdc_space.snap(once)
            np.testing.assert_array_equal(once, twice)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_snap_idempotent_bit_for_bit(self, acdc_space, data):
        # inside and outside the box: a corrective probe snaps its
        # candidate, and evaluate snaps it again
        space = acdc_space
        span = space.hi - space.lo
        frac = np.array(data.draw(st.lists(
            st.floats(-1.0, 2.0, allow_subnormal=False),
            min_size=len(space), max_size=len(space))))
        once = space.snap(space.lo + frac * span)
        assert once.tobytes() == space.snap(once).tobytes()

    def test_snap_grid_distance(self, acdc_space):
        rng = np.random.default_rng(4)
        stepped = acdc_space.step > 0
        for _ in range(100):
            u = rng.uniform(acdc_space.lo, acdc_space.hi)
            snapped = acdc_space.snap(u)
            err = np.abs(snapped - u)[stepped]
            assert np.all(err <= acdc_space.step[stepped] / 2 + 1e-12)
            k = (snapped[stepped] - acdc_space.lo[stepped]) \
                / acdc_space.step[stepped]
            assert np.all(np.abs(k - np.round(k)) < 1e-9)

    def test_out_of_bounds_clamped(self, acdc_space):
        u = acdc_space.default_vector()
        i = acdc_space.index["P_s:VSC1"]
        u[i] = 5.0
        snapped = acdc_space.snap(u)
        assert snapped[i] == acdc_space.hi[i]
