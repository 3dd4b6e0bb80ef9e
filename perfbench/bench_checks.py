"""Property checks on the optimizer's artifacts.

Every formula here is written from the case file and the method's
definitions, not taken from the program: the admittance matrix, branch
flows, operating limits, objectives, dominance, the corrective box, grey
relational projection, fuzzy C-means and the Lasso optimality
conditions.  The program supplies only the solved states that
are checked.  Each ``*_failures`` function returns a list of messages;
an empty list means the property holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TOL_BALANCE = 1e-6      # p.u. power mismatch at a converged point
TOL_OBJ_REL = 1e-9      # relative agreement of recomputed objectives
TOL_BOX = 1e-9          # control-vector units
TOL_MEMBERSHIP = 1e-9   # FCM rows must sum to one
TOL_FCM = 1e-3          # reported vs. recomputed FCM memberships
LASSO_STEP_TOL = 1e-7   # coordinate-descent stop: largest last update


# ---------------------------------------------------------------------------
# Case data


class CaseData:
    """Plain view of an ``acdc-case/1`` document with the schema defaults."""

    def __init__(self, doc: dict):
        self.buses = [_with_defaults(b, _BUS_DEFAULTS) for b in doc["ac_buses"]]
        self.branches = [_with_defaults(b, _BRANCH_DEFAULTS)
                         for b in doc["ac_branches"]]
        self.generators = [_with_defaults(g, _GEN_DEFAULTS)
                           for g in doc["generators"]]
        self.shunts = [_with_defaults(s, _SHUNT_DEFAULTS)
                       for s in doc.get("shunts", [])]
        self.converters = [_with_defaults(c, _CONV_DEFAULTS)
                           for c in doc.get("converters", [])]
        self.dc_buses = [_with_defaults(b, _DC_BUS_DEFAULTS)
                         for b in doc.get("dc_buses", [])]
        self.dc_branches = [_with_defaults(b, _DC_BRANCH_DEFAULTS)
                            for b in doc.get("dc_branches", [])]
        self.limits = dict(_LIMIT_DEFAULTS)
        self.limits.update({k: tuple(v) for k, v in doc.get("limits", {}).items()})
        self.bus_pos = {b["id"]: i for i, b in enumerate(self.buses)}
        self.dc_pos = {b["id"]: i for i, b in enumerate(self.dc_buses)}
        self.slack = next(i for i, b in enumerate(self.buses)
                          if b["kind"] == "slack")
        self.slack_bus = self.buses[self.slack]["id"]
        # outage ids follow the file order: L1.. for AC, DC1.. for DC lines
        self.ac_ids = [f"L{i + 1}" for i in range(len(self.branches))]
        self.dc_ids = [f"DC{i + 1}" for i in range(len(self.dc_branches))]

    def control_ranges(self) -> dict[str, tuple[float, float]]:
        """Declared (lo, hi) of every control component, by artifact name."""
        ranges = {}
        for g in self.generators:
            if g["bus"] != self.slack_bus:
                ranges[f"P_G:bus{g['bus']}"] = (g["p_min"], g["p_max"])
        for g in self.generators:
            ranges[f"U_G:bus{g['bus']}"] = self.limits["u_g"]
        for oid, br in zip(self.ac_ids, self.branches):
            if br["tap_min"] < br["tap_max"]:
                ranges[f"T:{oid}"] = (br["tap_min"], br["tap_max"])
        for sh in self.shunts:
            if sh["q_min"] < sh["q_max"]:
                ranges[f"Q_C:bus{sh['bus']}"] = (sh["q_min"], sh["q_max"])
        for kind, key in (("P_s", "p_s"), ("Q_s", "q_s")):
            for c in self.converters:
                ranges[f"{kind}:{c['name']}"] = self.limits[key]
        for c in self.converters:
            if c["mode"] in ("droop", "const_vdc"):
                ranges[f"U_dc0:{c['name']}"] = self.limits["u_dc0"]
        for c in self.converters:
            if c["mode"] == "droop":
                ranges[f"R:{c['name']}"] = self.limits["droop"]
        return ranges


_BUS_DEFAULTS = {"p_d": 0.0, "q_d": 0.0, "u_min": 0.9, "u_max": 1.1,
                 "delta_min": -math.pi / 4, "delta_max": math.pi / 4,
                 "u_set": 1.0}
_BRANCH_DEFAULTS = {"b_charge": 0.0, "tap": 1.0, "tap_min": 1.0,
                    "tap_max": 1.0, "p_min": -99.0, "p_max": 99.0}
_GEN_DEFAULTS = {"p_g": 0.0, "p_min": 0.0, "p_max": 1.0, "q_min": -1.0,
                 "q_max": 1.0, "alpha": 0.0, "beta": 0.0, "gamma": 0.0}
_SHUNT_DEFAULTS = {"q_c": 0.0, "q_min": 0.0, "q_max": 0.0}
_CONV_DEFAULTS = {"p_s": 0.0, "q_s": 0.0, "p_center": 0.0, "q_center": 0.0,
                  "r_min": 0.0, "r_max": 99.0, "mode": "droop"}
_DC_BUS_DEFAULTS = {"u_min": 0.9, "u_max": 1.1, "u_set": 1.0}
_DC_BRANCH_DEFAULTS = {"i_min": -99.0, "i_max": 99.0, "p_min": -99.0,
                       "p_max": 99.0}
_LIMIT_DEFAULTS = {"u_g": (0.9, 1.1), "p_s": (-1.0, 1.0), "q_s": (-1.0, 1.0),
                   "u_dc0": (0.9, 1.1), "droop": (-10.0, 10.0)}


def _with_defaults(item: dict, defaults: dict) -> dict:
    out = dict(defaults)
    out.update({k: v for k, v in item.items() if not k.startswith("_")})
    return out


# ---------------------------------------------------------------------------
# Network equations


@dataclass
class OperatingPoint:
    """A solved point as the checks see it (all per-unit, case order)."""

    vm: np.ndarray           # AC bus voltage magnitudes
    va: np.ndarray           # AC bus voltage angles (rad)
    gen_q: np.ndarray        # generator reactive outputs
    conv_p: np.ndarray       # PCC-side active power into each converter
    conv_q: np.ndarray
    dc_u: np.ndarray         # DC bus voltages

    @classmethod
    def from_state(cls, state) -> "OperatingPoint":
        return cls(vm=np.array(state.ac.vm, dtype=float),
                   va=np.array(state.ac.va, dtype=float),
                   gen_q=np.array(state.gen_q, dtype=float),
                   conv_p=np.array([c.p_s for c in state.converters]),
                   conv_q=np.array([c.q_s for c in state.converters]),
                   dc_u=(np.array(state.dc.u, dtype=float)
                         if state.dc is not None else np.zeros(0)))


def _in_service(case: CaseData, outage: str | None):
    return [(oid, br) for oid, br in zip(case.ac_ids, case.branches)
            if oid != outage]


def _branch_terms(br: dict, tap: float):
    """Pi-model entries (yff, yft, ytf, ytt), off-nominal tap at the from end."""
    ys = complex(br["g"], br["b"])
    ysh = 0.5j * br["b_charge"]
    tap = tap if tap != 0.0 else 1.0
    return (ys + ysh) / tap ** 2, -ys / tap, -ys / tap, ys + ysh


def _tap(br: dict, oid: str, controls: dict) -> float:
    return float(controls.get(f"T:{oid}", br["tap"]))


def admittance(case: CaseData, controls: dict,
               outage: str | None = None) -> np.ndarray:
    """Bus admittance matrix with control taps applied and ``outage`` open."""
    n = len(case.buses)
    y = np.zeros((n, n), dtype=complex)
    for oid, br in _in_service(case, outage):
        f, t = case.bus_pos[br["from_bus"]], case.bus_pos[br["to_bus"]]
        yff, yft, ytf, ytt = _branch_terms(br, _tap(br, oid, controls))
        y[f, f] += yff
        y[f, t] += yft
        y[t, f] += ytf
        y[t, t] += ytt
    return y


def _complex_voltage(point: OperatingPoint) -> np.ndarray:
    return point.vm * np.exp(1j * point.va)


def bus_injections(case: CaseData, point: OperatingPoint, controls: dict,
                   outage: str | None = None) -> np.ndarray:
    """Complex power leaving the network at every bus, ``V * conj(Y V)``."""
    v = _complex_voltage(point)
    return v * np.conj(admittance(case, controls, outage) @ v)


def slack_output(case: CaseData, point: OperatingPoint, controls: dict,
                 outage: str | None = None) -> float:
    """Active output of the slack generator implied by the bus balance."""
    s = bus_injections(case, point, controls, outage)
    p = s[case.slack].real + case.buses[case.slack]["p_d"]
    for c, p_s in zip(case.converters, point.conv_p):
        if c["pcc_bus"] == case.slack_bus:
            p += p_s
    return float(p)


def _gen_p(case: CaseData, point, controls, outage) -> list[float]:
    out = []
    for g in case.generators:
        if g["bus"] == case.slack_bus:
            out.append(slack_output(case, point, controls, outage))
        else:
            out.append(float(controls.get(f"P_G:bus{g['bus']}", g["p_g"])))
    return out


def power_balance_mismatch(case: CaseData, point: OperatingPoint,
                           controls: dict, outage: str | None = None) -> float:
    """Largest bus power mismatch (p.u.) between the network equations and
    the specified injections: loads, generator set-points and reactive
    outputs, shunt set-points and converter PCC powers.  The slack bus
    active power is free and excluded."""
    s_calc = bus_injections(case, point, controls, outage)
    s_spec = np.array([complex(-b["p_d"], -b["q_d"]) for b in case.buses])
    for gi, g in enumerate(case.generators):
        i = case.bus_pos[g["bus"]]
        p = (0.0 if g["bus"] == case.slack_bus
             else float(controls.get(f"P_G:bus{g['bus']}", g["p_g"])))
        s_spec[i] += complex(p, point.gen_q[gi])
    for sh in case.shunts:
        q_c = float(controls.get(f"Q_C:bus{sh['bus']}", sh["q_c"]))
        s_spec[case.bus_pos[sh["bus"]]] += 1j * q_c
    for c, p_s, q_s in zip(case.converters, point.conv_p, point.conv_q):
        s_spec[case.bus_pos[c["pcc_bus"]]] -= complex(p_s, q_s)
    mismatch = np.abs(s_calc - s_spec)
    mismatch[case.slack] = abs(s_calc[case.slack].imag
                               - s_spec[case.slack].imag)
    return float(np.max(mismatch))


def objectives(case: CaseData, point: OperatingPoint, controls: dict,
               outage: str | None = None) -> tuple[float, float]:
    """Generation cost ($/h) and squared voltage deviation (AC and DC)."""
    f1 = sum(g["alpha"] * p * p + g["beta"] * p + g["gamma"]
             for g, p in zip(case.generators,
                             _gen_p(case, point, controls, outage)))
    f2 = sum((vm - b["u_set"]) ** 2 for vm, b in zip(point.vm, case.buses))
    f2 += sum((u - b["u_set"]) ** 2 for u, b in zip(point.dc_u, case.dc_buses))
    return float(f1), float(f2)


def _excess(value: float, lo: float, hi: float) -> float:
    return max(value - hi, lo - value, 0.0)


def limit_violation(case: CaseData, point: OperatingPoint, controls: dict,
                    outage: str | None = None) -> float:
    """Sum of every operating-limit excess at a solved point: AC voltage
    and angle, generator reactive and slack active output, from-side AC
    flows, DC voltage, DC line current and power, converter capability."""
    total = 0.0
    for b, vm, va in zip(case.buses, point.vm, point.va):
        total += _excess(vm, b["u_min"], b["u_max"])
        total += _excess(va, b["delta_min"], b["delta_max"])
    for g, q in zip(case.generators, point.gen_q):
        total += _excess(q, g["q_min"], g["q_max"])
    for g, p in zip(case.generators, _gen_p(case, point, controls, outage)):
        if g["bus"] == case.slack_bus:
            total += _excess(p, g["p_min"], g["p_max"])
    v = _complex_voltage(point)
    for oid, br in _in_service(case, outage):
        f, t = case.bus_pos[br["from_bus"]], case.bus_pos[br["to_bus"]]
        yff, yft, _, _ = _branch_terms(br, _tap(br, oid, controls))
        p_from = (v[f] * np.conj(yff * v[f] + yft * v[t])).real
        total += _excess(p_from, br["p_min"], br["p_max"])
    for b, u in zip(case.dc_buses, point.dc_u):
        total += _excess(u, b["u_min"], b["u_max"])
    for oid, br in zip(case.dc_ids, case.dc_branches):
        if oid == outage or not len(point.dc_u):
            continue
        u_f = point.dc_u[case.dc_pos[br["from_bus"]]]
        u_t = point.dc_u[case.dc_pos[br["to_bus"]]]
        i = br["y"] * (u_f - u_t)
        total += _excess(i, br["i_min"], br["i_max"])
        total += _excess(u_f * i, br["p_min"], br["p_max"])
    for c, p_s, q_s in zip(case.converters, point.conv_p, point.conv_q):
        r = math.hypot(p_s - c["p_center"], q_s - c["q_center"])
        total += _excess(r, c["r_min"], c["r_max"])
    return total


# ---------------------------------------------------------------------------
# Artifact checks


def dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def archive_failures(members: list[dict], tol_feas: float) -> list[str]:
    """Members (dicts with f1, f2, violation) are finite, feasible and
    mutually non-dominated."""
    out = []
    if not members:
        out.append("archive is empty")
    for m in members:
        f = (m["f1"], m["f2"])
        if not all(math.isfinite(x) for x in f + (m["violation"],)):
            out.append(f"member {m['id']}: non-finite entry")
        if m["violation"] > tol_feas:
            out.append(f"member {m['id']}: violation {m['violation']:.3g} "
                       f"> {tol_feas:g}")
    for a in members:
        for b in members:
            if a is not b and dominates((a["f1"], a["f2"]), (b["f1"], b["f2"])):
                out.append(f"member {a['id']} dominates member {b['id']}")
    return out


def box_failures(case: CaseData, names: list[str], u0, u_k,
                 fraction: float) -> list[str]:
    """The corrected setting stays inside the declared bounds and within
    ``fraction`` of each component's range from the pre-contingency one."""
    ranges = case.control_ranges()
    out = []
    for name, a, b in zip(names, u0, u_k):
        lo, hi = ranges[name]
        if not lo - TOL_BOX <= b <= hi + TOL_BOX:
            out.append(f"{name}={b:.6g} outside [{lo:g}, {hi:g}]")
        if abs(b - a) > fraction * (hi - lo) + TOL_BOX:
            out.append(f"{name} moved {abs(b - a):.6g} > "
                       f"{fraction:g} x range {hi - lo:g}")
    return out


def grp_scores(points: np.ndarray, weights=(0.5, 0.5),
               resolution: float = 0.5) -> np.ndarray:
    """Grey relational projection score of each (minimised) point within
    its cluster: min-max benefit normalisation, grey relational
    coefficients against the best and the worst reference, weighted
    projection, then ``d = (V0-V-)^2 / ((V0-V-)^2 + (V0-V+)^2)``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    span = pts.max(axis=0) - pts.min(axis=0)
    benefit = (pts.max(axis=0) - pts) / np.where(span > 0, span, 1.0)

    def grey(ref):
        gap = np.abs(benefit - ref)
        if gap.max() <= 0:
            return np.ones_like(gap)
        return (gap.min() + resolution * gap.max()) / (gap + resolution * gap.max())

    proj = w ** 2 / np.linalg.norm(w)
    v_plus = grey(benefit.max(axis=0)) @ proj
    v_minus = grey(benefit.min(axis=0)) @ proj
    v_zero = proj.sum()
    far = (v_zero - v_minus) ** 2
    near = (v_zero - v_plus) ** 2
    total = far + near
    return np.divide(far, total, out=np.full(len(pts), 0.5), where=total > 0)


def _fcm(x: np.ndarray, centres: np.ndarray, fuzziness: float) -> np.ndarray:
    """Alternate membership and centre updates to a fixed point."""
    mu = np.full((len(x), len(centres)), 1.0 / len(centres))
    for _ in range(2000):
        d2 = ((x[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
        at_centre = d2 < 1e-24
        inv = np.where(at_centre, 0.0, 1.0 / np.maximum(d2, 1e-300)) \
            ** (1.0 / (fuzziness - 1.0))
        new = inv / inv.sum(axis=1, keepdims=True)
        hard = at_centre.any(axis=1)
        new[hard] = at_centre[hard] / at_centre[hard].sum(axis=1, keepdims=True)
        done = np.max(np.abs(new - mu)) < 1e-13
        mu = new
        w = mu ** fuzziness
        centres = (w.T @ x) / w.sum(axis=0)[:, None]
        if done:
            break
    return mu


def fcm_fixed_points(points: np.ndarray, n_clusters: int,
                     fuzziness: float = 2.0, max_starts: int = 200
                     ) -> list[np.ndarray]:
    """Distinct fuzzy C-means membership matrices of the min-max
    normalised points, one run from each choice of ``n_clusters`` points
    as initial centres.  Fuzzy C-means has local optima, and which one a
    run reaches depends on its start."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    span = x.max(axis=0) - x.min(axis=0)
    x = (x - x.min(axis=0)) / np.where(span > 0, span, 1.0)
    if len(x) < n_clusters or n_clusters == 1:
        return [np.ones((len(x), 1))]
    found: list[np.ndarray] = []
    starts = itertools.islice(itertools.combinations(range(len(x)), n_clusters),
                              max_starts)
    for start in starts:
        mu = _fcm(x, x[list(start)], fuzziness)
        if not any(_same_partition(mu, other, 1e-6) for other in found):
            found.append(mu)
    return found


def _label_orders(n_clusters: int):
    return [list(p) for p in itertools.permutations(range(n_clusters))]


def _same_partition(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return any(np.allclose(a[:, p], b, rtol=0, atol=tol)
               for p in _label_orders(a.shape[1]))


def _same_genome(member: dict, entry: dict, names: list[str]) -> bool:
    genome = entry["genome"]
    return all(genome.get(n) == v for n, v in zip(names, member["genome"]))


def bcs_failures(members: list[dict], names: list[str], entries: list[dict],
                 n_clusters: int = 2, weights=(0.5, 0.5)) -> list[str]:
    """Each best compromise solution is an archive member, its membership
    row sums to one, the rows are those of a fuzzy C-means fixed point on
    the archive (up to the order of the cluster labels), and each entry
    has the highest grey relational score of its cluster under that
    partition (ties go to the lower first objective)."""
    out = []
    objs = np.array([[m["f1"], m["f2"]] for m in members])
    found = []
    for e in entries:
        label = f"bcs cluster {e['cluster']}"
        if abs(sum(e["memberships"]) - 1.0) > TOL_MEMBERSHIP:
            out.append(f"{label}: memberships sum to {sum(e['memberships'])}")
        hits = [i for i, m in enumerate(members)
                if m["f1"] == e["f1"] and m["f2"] == e["f2"]
                and _same_genome(m, e, names)]
        if not hits:
            out.append(f"{label}: f1={e['f1']} f2={e['f2']} is not an "
                       f"archive member")
            continue
        found.append((e, hits[0]))
    if not found:
        return out
    rows = next((mu[:, p] for mu in fcm_fixed_points(objs, n_clusters)
                 for p in _label_orders(mu.shape[1])
                 if all(np.allclose(mu[i, p], e["memberships"], rtol=0,
                                    atol=TOL_FCM) for e, i in found)), None)
    if rows is None:
        out.append("bcs membership rows match no fuzzy C-means fixed point "
                   "of the archive")
        return out
    assignment = np.argmax(rows, axis=1)
    for e, i in found:
        label = f"bcs cluster {e['cluster']}"
        cluster = np.flatnonzero(assignment == assignment[i])
        d = grp_scores(objs[cluster], weights)
        best = d.max()
        tied = cluster[np.abs(d - best) <= 1e-12]
        expect = tied[np.argmin(objs[tied, 0])]
        if i != expect:
            out.append(f"{label}: member {members[i]['id']} has score "
                       f"{d[list(cluster).index(i)]:.6f}, cluster best is "
                       f"member {members[expect]['id']} at {best:.6f}")
    return out


def lasso_kkt_gap(x: np.ndarray, y: np.ndarray, model: dict) -> float:
    """Largest violation of the Lasso subgradient conditions for
    ``min (1/N)||y - Z s||^2 + lam ||s||_1`` on the standardised training
    rows; infinite when the stored standardisation does not match them."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    active = std > 1e-12
    if (not np.array_equal(active, np.asarray(model["active"], dtype=bool))
            or not np.allclose(mean, model["x_mean"], rtol=1e-12, atol=1e-12)
            or not np.allclose(std[active], np.asarray(model["x_scale"])[active],
                               rtol=1e-12, atol=1e-15)):
        return math.inf
    z = (x[:, active] - mean[active]) / std[active]
    sigma = np.asarray(model["sigma"], dtype=float)[active]
    lam = float(model["lambda"])
    grad = 2.0 / len(y) * (z.T @ (z @ sigma - (y - y.mean())))
    gap = np.where(sigma > 0, np.abs(grad + lam),
                   np.where(sigma < 0, np.abs(grad - lam),
                            np.maximum(np.abs(grad) - lam, 0.0)))
    return float(gap.max())


def lasso_kkt_tolerance(n_features: int) -> float:
    """Gap a converged coordinate descent can leave: after a coordinate's
    last update, each later update in the sweep (at most LASSO_STEP_TOL on
    a standardised column) moves its gradient by at most twice that."""
    return 2.0 * n_features * LASSO_STEP_TOL
