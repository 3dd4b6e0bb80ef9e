"""Problem definition: objectives, constraints and corrective feasibility.

A control vector is written into a network variant once
(``apply_controls`` copies only the elements whose values it changes; a
changed tap rebuilds the branch part of the solver plan), the coupled
power flow is run on that variant, and both objectives plus a full
constraint report are produced.  Post-contingency corrective feasibility
searches for an adjusted control vector inside the per-component
corrective box.

``evaluate`` and ``corrective_feasibility`` are pure and reentrant; they
are designed to be fanned out across worker processes.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .netmodel import (CONTROL_KINDS, Contingency, ControlSpace, Network,
                       apply_contingency, branch_plan)
from .powerflow import SystemState, solve_acdc

PENALTY_UNCONVERGED = 1e3
TOL_FEAS = 1e-6
MAX_PROBES = 30

# pattern-search priority: converter setpoints first, then generators,
# then discrete controls and droop slopes
_KIND_PRIORITY = {"p_s": 0, "q_s": 1, "u_dc0": 2, "p_g": 3, "u_g": 4,
                  "tap": 5, "q_c": 6, "droop": 7}


def apply_taps(net: Network, taps: dict[str, float]) -> Network:
    """Network variant with the taps (by branch outage id) applied; the
    branch part of the solver plan (admittance matrix included) is rebuilt
    only when a tap changes."""
    variant = _with_fields(net, "branches", "outage_id",
                           {key: {"tap": tap} for key, tap in taps.items()})
    if variant is not net:
        variant.plan = dataclasses.replace(net.plan, branches=branch_plan(
            net.n_bus, net.bus_index, variant.branches))
    return variant


def apply_controls(net: Network, space: ControlSpace,
                   u: np.ndarray) -> Network:
    """Network variant whose elements carry the control vector ``u``.

    ``net`` is never mutated; only the elements whose values a control
    changes are copied, and ``net`` itself is returned when none is.  A
    control of an absent element (the outaged branch of a contingency
    variant) is ignored.
    """
    taps: dict[str, float] = {}
    settings: dict[tuple[str, str], dict[str, dict[str, float]]] = {}
    for comp, value in zip(space.components, u):
        if comp.kind == "tap":      # apply_taps rebuilds the branch plan
            taps[comp.key] = float(value)
        else:
            _, elements, name = CONTROL_KINDS[comp.kind]
            settings.setdefault((elements, name), {}).setdefault(
                comp.key, {})[comp.kind] = float(value)
    variant = apply_taps(net, taps)
    for (elements, name), by_key in settings.items():
        variant = _with_fields(variant, elements, name, by_key)
    return variant


def _with_fields(net: Network, elements: str, name: str,
                 by_key: dict[str, dict[str, float]]) -> Network:
    """``net`` whose ``elements`` named ``key`` (their ``name`` attribute)
    carry the fields ``by_key[key]``; ``net`` and an element are copied
    only when one of their values changes."""
    old = getattr(net, elements)
    new = []
    for el in old:
        values = by_key.get(str(getattr(el, name)), {})
        changed = {f: v for f, v in values.items() if getattr(el, f) != v}
        new.append(dataclasses.replace(el, **changed) if changed else el)
    if all(a is b for a, b in zip(new, old)):
        return net
    return dataclasses.replace(net, **{elements: new})


# ---------------------------------------------------------------------------
# Objectives


def generation_cost(state: SystemState, net: Network) -> float:
    """Total quadratic generation cost in $/h, slack output included."""
    if not state.converged:
        raise ValueError("cannot evaluate cost of an unconverged state")
    total = 0.0
    for gen, p in zip(net.generators, state.gen_p):
        total += gen.alpha * p * p + gen.beta * p + gen.gamma
    return total


def voltage_deviation(state: SystemState, net: Network) -> float:
    """Sum of squared deviations from preset voltages, AC and DC buses."""
    if not state.converged:
        raise ValueError("cannot evaluate deviation of an unconverged state")
    u_set = np.array([b.u_set for b in net.buses])
    f2 = float(np.sum((state.ac.vm - u_set) ** 2))
    if net.dc_buses and state.dc is not None:
        u_set_dc = np.array([b.u_set for b in net.dc_buses])
        f2 += float(np.sum((state.dc.u - u_set_dc) ** 2))
    return f2


# ---------------------------------------------------------------------------
# Constraint report


@dataclass
class ConstraintReport:
    """Signed violation magnitudes per constraint, grouped.

    Positive values are violations, non-positive values are margins.
    ``total_violation`` is zero exactly when the flow converged and every
    entry is non-positive.
    """

    groups: dict[str, tuple[list[str], np.ndarray]]
    converged: bool
    penalty: float = 0.0

    @property
    def total_violation(self) -> float:
        total = self.penalty
        for _, values in self.groups.values():
            total += float(np.maximum(values, 0.0).sum())
        return total

    def violations(self) -> list[tuple[str, str, float]]:
        out = []
        for group, (names, values) in self.groups.items():
            for name, v in zip(names, values):
                if v > 0.0:
                    out.append((group, name, float(v)))
        return out


def _bound_violation(value, lo, hi):
    return np.maximum(value - hi, lo - value)


def constraint_report(net: Network, state: SystemState) -> ConstraintReport:
    """Evaluate all operating constraints on a solved system state."""
    if not state.converged:
        return ConstraintReport(groups={}, converged=False,
                                penalty=PENALTY_UNCONVERGED)
    groups: dict[str, tuple[list[str], np.ndarray]] = {}
    ac = state.ac

    names = [f"U:bus{b.id}" for b in net.buses]
    lo = np.array([b.u_min for b in net.buses])
    hi = np.array([b.u_max for b in net.buses])
    groups["ac_voltage"] = (names, _bound_violation(ac.vm, lo, hi))

    names = [f"delta:bus{b.id}" for b in net.buses]
    lo = np.array([b.delta_min for b in net.buses])
    hi = np.array([b.delta_max for b in net.buses])
    groups["ac_angle"] = (names, _bound_violation(ac.va, lo, hi))

    if net.generators:
        names = [f"Q_G:bus{g.bus}" for g in net.generators]
        lo = np.array([g.q_min for g in net.generators])
        hi = np.array([g.q_max for g in net.generators])
        groups["gen_q"] = (names, _bound_violation(state.gen_q, lo, hi))

        slack_bus = net.buses[net.slack_index].id
        names, vals = [], []
        for gen, p in zip(net.generators, state.gen_p):
            if gen.bus == slack_bus:
                names.append(f"P_G:bus{gen.bus}")
                vals.append(max(p - gen.p_max, gen.p_min - p))
        groups["gen_p_slack"] = (names, np.array(vals))

    if net.branches:
        names = [f"P_L:{br.outage_id}" for br in net.branches]
        lo = np.array([br.p_min for br in net.branches])
        hi = np.array([br.p_max for br in net.branches])
        groups["ac_flow"] = (names, _bound_violation(ac.p_branch, lo, hi))

    if net.dc_buses and state.dc is not None:
        dc = state.dc
        names = [f"U_dc:bus{b.id}" for b in net.dc_buses]
        lo = np.array([b.u_min for b in net.dc_buses])
        hi = np.array([b.u_max for b in net.dc_buses])
        groups["dc_voltage"] = (names, _bound_violation(dc.u, lo, hi))

        if net.dc_branches:
            names = [f"I_dc:{br.outage_id}" for br in net.dc_branches]
            lo = np.array([br.i_min for br in net.dc_branches])
            hi = np.array([br.i_max for br in net.dc_branches])
            groups["dc_current"] = (names, _bound_violation(dc.branch_i, lo, hi))

            names = [f"P_dc:{br.outage_id}" for br in net.dc_branches]
            lo = np.array([br.p_min for br in net.dc_branches])
            hi = np.array([br.p_max for br in net.dc_branches])
            groups["dc_flow"] = (names, _bound_violation(dc.branch_p, lo, hi))

    if net.converters:
        names, vals = [], []
        for conv, cs in zip(net.converters, state.converters):
            names.append(f"capability:{conv.name}")
            r = math.hypot(cs.p_s - conv.p_center, cs.q_s - conv.q_center)
            vals.append(max(r - conv.r_max, conv.r_min - r))
        groups["capability"] = (names, np.array(vals))

    return ConstraintReport(groups=groups, converged=True)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class EvalResult:
    objectives: tuple[float, float]
    report: ConstraintReport
    state: SystemState
    u: np.ndarray
    net: Network               # the variant carrying ``u`` that was solved


def evaluate(net: Network, space: ControlSpace, u: np.ndarray, *,
             warm: SystemState | None = None,
             trace: list | None = None) -> EvalResult:
    """Run the coupled power flow on ``apply_controls(net, space, u)`` and
    score one control vector; the result keeps that variant as ``net``.

    An unconverged flow yields invalid (infinite) objectives and a report
    whose total violation is the divergence penalty.
    """
    u = space.snap(u)
    net_v = apply_controls(net, space, u)
    state = solve_acdc(net_v, warm=warm, trace=trace)
    if not state.converged:
        report = ConstraintReport(groups={}, converged=False,
                                  penalty=PENALTY_UNCONVERGED)
        return EvalResult(objectives=(math.inf, math.inf), report=report,
                          state=state, u=u, net=net_v)
    report = constraint_report(net_v, state)
    return EvalResult(objectives=(generation_cost(state, net_v),
                                  voltage_deviation(state, net_v)),
                      report=report, state=state, u=u, net=net_v)


# ---------------------------------------------------------------------------
# Corrective feasibility


@dataclass
class CorrectiveLimits:
    """Maximal per-component corrective adjustment (control-vector units)."""

    du_max: np.ndarray

    @classmethod
    def from_fraction(cls, space: ControlSpace,
                      fraction: float = 0.15) -> "CorrectiveLimits":
        """Default box: ``fraction`` of each component's full range."""
        du = fraction * (space.hi - space.lo)
        if np.any(du < 0):
            raise ValueError("corrective limits must be nonnegative")
        return cls(du_max=du)


@dataclass
class CorrectiveResult:
    feasible: bool
    u_k: np.ndarray
    residual: float            # minimal total violation achieved
    probes: int


def corrective_feasibility(net: Network, space: ControlSpace,
                           u0: np.ndarray, k: Contingency,
                           lims: CorrectiveLimits, *,
                           net_k: Network | None = None,
                           base_state: SystemState | None = None,
                           max_probes: int = MAX_PROBES,
                           tol_feas: float = TOL_FEAS,
                           include_discrete: bool = True) -> CorrectiveResult:
    """Search the corrective box for a feasible post-contingency setting.

    Greedy coordinate pattern search from ``u0``: converter setpoints are
    probed first, then generator controls, then discrete controls.  The
    probe budget bounds the cost per contingency; the search is
    deterministic.  Each probe's coupled solve is warm-started from the
    solved post-contingency state of the best probe so far: from
    ``base_state`` (the pre-contingency state) until a probe converges,
    then from the ``u0`` probe and from each accepted improvement.
    """
    if net_k is None:
        net_k = apply_contingency(net, k)
    u0 = space.snap(u0)
    warm = base_state

    def post_violation(u):
        res = evaluate(net_k, space, u, warm=warm)
        return res.report.total_violation, res.state

    best_u = u0.copy()
    best_v, state = post_violation(u0)
    if state.converged:
        warm = state
    probes = 1
    if best_v <= tol_feas:
        return CorrectiveResult(True, best_u, best_v, probes)

    order = sorted(range(len(space)),
                   key=lambda i: (_KIND_PRIORITY.get(space.kinds[i], 9), i))
    if not include_discrete:
        order = [i for i in order if space.step[i] == 0]
    order = [i for i in order if lims.du_max[i] > 0]

    box_lo = np.maximum(space.lo, u0 - lims.du_max)
    box_hi = np.minimum(space.hi, u0 + lims.du_max)

    for scale, idx, sign in itertools.product((1.0, 0.5, 0.25), order,
                                              (1.0, -1.0)):
        if probes >= max_probes or best_v <= tol_feas:
            break
        raw = best_u[idx] + sign * scale * lims.du_max[idx]
        raw = min(max(raw, box_lo[idx]), box_hi[idx])
        step = space.step[idx]
        if step > 0:
            raw = space.lo[idx] + round((raw - space.lo[idx]) / step) * step
            if raw > box_hi[idx] + 1e-12:
                raw -= step
            if raw < box_lo[idx] - 1e-12:
                raw += step
            if not box_lo[idx] - 1e-12 <= raw <= box_hi[idx] + 1e-12:
                continue
        cand = best_u.copy()
        cand[idx] = raw
        cand = space.snap(cand)    # the grid value that ``evaluate`` solves
        if cand[idx] == best_u[idx]:
            continue
        v, state = post_violation(cand)
        probes += 1
        if v < best_v - 1e-12:
            best_v = v
            best_u = cand
            if state.converged:
                warm = state

    return CorrectiveResult(best_v <= tol_feas, best_u, best_v, probes)
