"""Each benchmark check passes on a sound output and fails on a doctored one.

Run with ``python3 -m pytest perfbench``.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_checks as bc  # noqa: E402
from acdcopf import decide, opfcore, screen  # noqa: E402
from acdcopf.netmodel import (ControlSpace, apply_contingency,  # noqa: E402
                              bundled_case_path, load_case)


@pytest.fixture(scope="module")
def grid():
    path = bundled_case_path("case14_acdc")
    net = load_case(path)
    space = ControlSpace(net)
    case = bc.CaseData(json.loads(path.read_text()))
    return net, space, case


def _solved(grid, outage=None):
    net, space, case = grid
    u = space.default_vector()
    net_k = net
    if outage is not None:
        net_k = apply_contingency(net, net.contingency(outage))
    res = opfcore.evaluate(net_k, space, u)
    assert res.state.converged
    return res, dict(zip(space.names, u.tolist()))


def _members():
    objs = [(5500.0, 0.046), (5520.0, 0.044), (5560.0, 0.043),
            (5900.0, 0.036), (5950.0, 0.035), (6000.0, 0.0345)]
    return [{"id": i, "f1": f1, "f2": f2, "violation": 0.0,
             "genome": [float(i), 1.0]} for i, (f1, f2) in enumerate(objs)]


def test_archive_check_rejects_dominated_member():
    members = _members()
    assert bc.archive_failures(members, 1e-6) == []
    worse = dict(members[1], id=99, f1=5530.0, f2=0.045)
    assert bc.archive_failures(members + [worse], 1e-6)


def test_archive_check_rejects_infeasible_member():
    members = _members()
    members[2]["violation"] = 1e-3
    assert bc.archive_failures(members, 1e-6)


def test_box_check_rejects_genome_outside_corrective_box(grid):
    _, space, case = grid
    u0 = space.default_vector()
    du = 0.15 * (space.hi - space.lo)
    inside = np.clip(u0 + 0.9 * du, space.lo, space.hi)
    assert bc.box_failures(case, space.names, u0, inside, 0.15) == []
    i = space.index["P_s:VSC1"]
    outside = u0.copy()
    outside[i] += 1.01 * du[i]
    assert bc.box_failures(case, space.names, u0, outside, 0.15)


def test_bcs_check_rejects_entry_not_in_archive():
    members = _members()
    names = ["x0", "x1"]
    objs = np.array([[m["f1"], m["f2"]] for m in members])
    entries = []
    for sel in decide.select_bcs(objs, n_clusters=2, seed=1):
        m = members[sel.member_index]
        entries.append({"cluster": sel.cluster, "d": sel.d, "f1": m["f1"],
                        "f2": m["f2"],
                        "genome": dict(zip(names, m["genome"])),
                        "memberships": sel.memberships.tolist()})
    assert bc.bcs_failures(members, names, entries) == []
    stray = copy.deepcopy(entries)
    stray[0]["f1"] += 1.0
    assert bc.bcs_failures(members, names, stray)
    # memberships of no fuzzy C-means fixed point
    skewed = copy.deepcopy(entries)
    skewed[0]["memberships"] = [0.5, 0.5]
    assert bc.bcs_failures(members, names, skewed)
    # an archive member that is not its cluster's best compromise
    other = copy.deepcopy(entries)
    pick = next(m for m in members
                if m["f1"] not in [e["f1"] for e in entries])
    other[0].update(f1=pick["f1"], f2=pick["f2"],
                    genome=dict(zip(names, pick["genome"])))
    assert bc.bcs_failures(members, names, other)


def test_power_balance_rejects_perturbed_bus_voltage(grid):
    _, _, case = grid
    for outage in (None, "L3", "DC1"):
        res, controls = _solved(grid, outage)
        point = bc.OperatingPoint.from_state(res.state)
        assert bc.power_balance_mismatch(case, point, controls,
                                         outage) < bc.TOL_BALANCE
        point.vm[6] += 1e-4
        assert bc.power_balance_mismatch(case, point, controls,
                                         outage) > bc.TOL_BALANCE


def test_power_balance_rejects_wrong_outage(grid):
    _, _, case = grid
    res, controls = _solved(grid, "L3")
    point = bc.OperatingPoint.from_state(res.state)
    assert bc.power_balance_mismatch(case, point, controls) > bc.TOL_BALANCE


def test_objectives_and_limits_match_the_program(grid):
    _, _, case = grid
    for outage in (None, "L10"):
        res, controls = _solved(grid, outage)
        point = bc.OperatingPoint.from_state(res.state)
        f1, f2 = bc.objectives(case, point, controls, outage)
        assert f1 == pytest.approx(res.objectives[0], rel=bc.TOL_OBJ_REL)
        assert f2 == pytest.approx(res.objectives[1], rel=bc.TOL_OBJ_REL)
        assert bc.limit_violation(case, point, controls, outage) == \
            pytest.approx(res.report.total_violation, rel=1e-9, abs=1e-12)


def test_lasso_kkt_rejects_perturbed_coefficient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 6))
    y = x @ np.array([1.0, -0.5, 0.0, 0.0, 0.2, 0.0]) + 0.1 * rng.normal(size=80)
    z, mean, scale, active = screen.standardize(x)
    lam = 0.05
    sigma = screen.lasso_fit(z[:, active], y - y.mean(), lam)
    model = {"sigma": sigma.tolist(), "lambda": lam, "x_mean": mean.tolist(),
             "x_scale": scale.tolist(), "active": active.astype(int).tolist()}
    tol = bc.lasso_kkt_tolerance(int(active.sum()))
    assert bc.lasso_kkt_gap(x, y, model) <= tol
    doctored = dict(model, sigma=(sigma + np.eye(6)[2] * 1e-3).tolist())
    assert bc.lasso_kkt_gap(x, y, doctored) > tol
