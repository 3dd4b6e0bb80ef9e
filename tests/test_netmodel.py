"""Grid model: loading, validation, contingencies, discrete snapping."""

import copy
import json

import numpy as np
import pytest

from acdcopf import netmodel
from acdcopf.netmodel import (CaseParseError, CaseValidationError,
                              ControlSpace, IslandingError, apply_contingency,
                              load_case, network_from_dict, network_to_dict)

from conftest import radial_three_bus_case, two_bus_case, write_case


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

    def test_round_trip(self, acdc_net):
        doc = network_to_dict(acdc_net)
        again = network_from_dict(doc)
        assert network_to_dict(again) == doc
        assert [b.outage_id for b in again.branches] == \
            [b.outage_id for b in acdc_net.branches]


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
        snapped, clamped = acdc_space.snap(u)
        assert snapped[i] == pytest.approx(1.0, abs=1e-12)
        assert not clamped[i]

    def test_snap_identity_on_grid(self, acdc_space):
        u = acdc_space.default_vector()
        i = acdc_space.index["Q_C:bus9"]
        u[i] = 0.25                     # exactly on the 0.01 grid
        snapped, _ = acdc_space.snap(u)
        assert snapped[i] == pytest.approx(0.25, abs=1e-15)

    def test_snap_idempotent(self, acdc_space):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.uniform(acdc_space.lo - 0.5, acdc_space.hi + 0.5)
            once, _ = acdc_space.snap(u)
            twice, _ = acdc_space.snap(once)
            np.testing.assert_array_equal(once, twice)

    def test_snap_grid_distance(self, acdc_space):
        rng = np.random.default_rng(4)
        stepped = acdc_space.step > 0
        for _ in range(100):
            u = rng.uniform(acdc_space.lo, acdc_space.hi)
            snapped, _ = acdc_space.snap(u)
            err = np.abs(snapped - u)[stepped]
            assert np.all(err <= acdc_space.step[stepped] / 2 + 1e-12)
            k = (snapped[stepped] - acdc_space.lo[stepped]) \
                / acdc_space.step[stepped]
            assert np.all(np.abs(k - np.round(k)) < 1e-9)

    def test_out_of_bounds_clamped_and_flagged(self, acdc_space):
        u = acdc_space.default_vector()
        i = acdc_space.index["P_s:VSC1"]
        u[i] = 5.0
        snapped, clamped = acdc_space.snap(u)
        assert snapped[i] == acdc_space.hi[i]
        assert clamped[i]
        assert clamped.sum() == 1
