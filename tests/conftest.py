"""Shared fixtures: bundled networks, a trained screening model and small
hand-built cases."""

import ast
import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from acdcopf import cli, netmodel, opfcore, screen
from acdcopf.netmodel import ControlSpace, load_bundled_case, network_from_dict


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_literal(name):
    """The literal top-level setting ``name`` of ``perfbench/run.py``, read
    without importing it (importing it edits the environment)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name):
            return ast.literal_eval(node.value)
    raise KeyError(name)


@pytest.fixture(scope="session")
def acdc_net():
    return load_bundled_case("case14_acdc")


@pytest.fixture(scope="session")
def ac_net():
    return load_bundled_case("case14_ac")


@pytest.fixture(scope="session")
def acdc_space(acdc_net):
    return ControlSpace(acdc_net)


@pytest.fixture(scope="session")
def base_eval(acdc_net, acdc_space):
    return opfcore.evaluate(acdc_net, acdc_space, acdc_space.default_vector())


def training_set(net, n_samples, seed,
                 width=cli.DEFAULT_CONFIG["screening"]["width"]):
    """Training rows at ``n_samples`` points of the Latin-hypercube box."""
    controls = screen.sample_controls(ControlSpace(net), n_samples, width,
                                      seed)
    return screen.build_training_set(net, controls,
                                     screen.outage_variants(net))


@pytest.fixture(scope="session")
def screening_model(acdc_net):
    train = training_set(acdc_net, 60, seed=1)
    return screen.fit_screening_model(acdc_net, train, seed=1)


def two_bus_case(p_d=0.5, q_d=0.0, x=0.1, r=0.0):
    """Minimal 2-bus AC case: slack feeding one PQ load over one line."""
    d = r * r + x * x
    return {
        "version": "acdc-case/1",
        "name": "two_bus",
        "base_mva": 100.0,
        "ac_buses": [
            {"id": 1, "kind": "slack", "u": 1.0, "u_min": 0.5, "u_max": 1.5,
             "a_min": 0.4, "a_max": 1.6, "h_min": 0.5, "h_max": 1.5,
             "delta_min": -1.5, "delta_max": 1.5},
            {"id": 2, "kind": "pq", "p_d": p_d, "q_d": q_d, "u_min": 0.5,
             "u_max": 1.5, "a_min": 0.4, "a_max": 1.6, "h_min": 0.5,
             "h_max": 1.5, "delta_min": -1.5, "delta_max": 1.5},
        ],
        "ac_branches": [
            {"from_bus": 1, "to_bus": 2, "g": r / d if d else 0.0,
             "b": -x / d if d else 0.0, "p_min": -99.0, "p_max": 99.0,
             "p_alarm": 99.9, "p_secure": 99.0},
        ],
        "generators": [
            {"bus": 1, "p_min": 0.0, "p_max": 10.0, "q_min": -10.0,
             "q_max": 10.0, "u_g": 1.0, "alpha": 1.0, "beta": 0.0,
             "gamma": 0.0},
        ],
        "shunts": [], "converters": [], "dc_buses": [], "dc_branches": [],
        "limits": {},
    }


@pytest.fixture
def two_bus_net():
    return network_from_dict(two_bus_case())


def radial_three_bus_case():
    """Slack - middle - leaf chain; the leaf branch outage islands a load."""
    case = two_bus_case(p_d=0.1)
    case["name"] = "radial_three_bus"
    case["ac_buses"].append(
        {"id": 3, "kind": "pq", "p_d": 0.2, "u_min": 0.5, "u_max": 1.5,
         "a_min": 0.4, "a_max": 1.6, "h_min": 0.5, "h_max": 1.5,
         "delta_min": -1.5, "delta_max": 1.5})
    case["ac_branches"].append(
        {"from_bus": 2, "to_bus": 3, "g": 0.0, "b": -10.0, "p_min": -99.0,
         "p_max": 99.0, "p_alarm": 99.9, "p_secure": 99.0})
    return case


@pytest.fixture
def radial_net():
    return network_from_dict(radial_three_bus_case())


def write_case(tmp_path, case, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(case))
    return path


def network_to_dict(net) -> dict:
    """Serialize back to the ``acdc-case/1`` schema (round-trip stable)."""

    def strip(obj, drop=("outage_id", "label")):
        d = dataclasses.asdict(obj)
        for key in drop:
            d.pop(key, None)
        return d

    return {
        "version": netmodel.CASE_SCHEMA_VERSION,
        "name": net.name,
        "base_mva": net.base_mva,
        "ac_buses": [strip(b) for b in net.buses],
        "ac_branches": [strip(b) for b in net.branches],
        "generators": [strip(g) for g in net.generators],
        "shunts": [strip(s) for s in net.shunts],
        "converters": [strip(c) for c in net.converters],
        "dc_buses": [strip(b) for b in net.dc_buses],
        "dc_branches": [strip(b) for b in net.dc_branches],
        "limits": {k: list(v)
                   for k, v in dataclasses.asdict(net.bounds).items()},
    }


def same_elements(a, b) -> bool:
    """Networks ``a`` and ``b`` hold equal elements, list by list."""
    return all([dataclasses.asdict(x) for x in getattr(a, elements)]
               == [dataclasses.asdict(y) for y in getattr(b, elements)]
               for elements in ("buses", "branches", "generators", "shunts",
                                "converters", "dc_buses", "dc_branches"))


def same_plan_arrays(x, y) -> bool:
    """Plan parts ``x`` and ``y`` hold equal arrays (bit for bit),
    indices and maps."""
    if isinstance(x, np.ndarray):
        return (x.dtype == y.dtype and x.shape == y.shape
                and x.tobytes() == y.tobytes())
    if hasattr(x, "__dataclass_fields__"):
        return all(same_plan_arrays(getattr(x, f), getattr(y, f))
                   for f in x.__dataclass_fields__)
    if isinstance(x, dict):
        return (isinstance(y, dict) and list(x) == list(y)
                and all(same_plan_arrays(x[key], y[key]) for key in x))
    if isinstance(x, tuple) and any(isinstance(v, np.ndarray) for v in x):
        return (isinstance(y, tuple) and len(x) == len(y)
                and all(same_plan_arrays(a, b) for a, b in zip(x, y)))
    return type(x) is type(y) and x == y


def scalar_ybus(net):
    """Bus admittance matrix summed entry by entry in branch order."""
    ybus = np.zeros((net.n_bus, net.n_bus), dtype=complex)
    for br in net.branches:
        f, t = net.bus_index[br.from_bus], net.bus_index[br.to_bus]
        yff, yft, ytt = netmodel.branch_admittance(br)
        ybus[f, f] += yff
        ybus[t, t] += ytt
        ybus[f, t] += yft
        ybus[t, f] += yft
    return ybus


@functools.cache
def case_variant(name):
    """The bundled case with VSC1 const_vdc and VSC3 const_p
    (``mixed_modes``), or with its shunt on generator bus 3
    (``shunt_on_gen_bus``), and its control space.  The bundled case has
    only droop stations and no shunt on a generator bus."""
    doc = network_to_dict(load_bundled_case("case14_acdc"))
    if name == "mixed_modes":
        doc["converters"][0]["mode"] = "const_vdc"
        doc["converters"][2]["mode"] = "const_p"
    else:
        doc["shunts"][0]["bus"] = 3
    net = network_from_dict(doc)
    return net, ControlSpace(net)
