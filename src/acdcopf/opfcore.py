"""Problem definition: objectives, constraints and corrective feasibility.

A control vector is written into a network variant once
(``apply_controls`` copies only the elements whose values it changes; a
changed tap recomputes the admittance values of the branch plan over the
kept sparsity pattern and Jacobian positions), the coupled
power flow is run on that variant, and both objectives plus a full
constraint report are produced; the constraint names and bounds and the
preset voltages come from the solver plan.

A corrective probe is one :func:`evaluate` call.  The first probe of a
check applies the point's controls to the outage variant; every later
probe moves one control of the best probe so far and is evaluated on
that probe's variant, so it copies one element (and recomputes the
admittance values only for a tap move) and pays for little more than its
Newton steps.  Post-contingency corrective feasibility
searches for an adjusted control vector inside the per-component
corrective box, trying first the moves that a first-order sensitivity
says lower the violation most: one adjoint solve with the AC Newton
Jacobian at the uncorrected post-contingency state
(:func:`violation_gradient`).  That gradient sees the AC-side limits
and the controls in the AC equations (``p_g``, ``u_g``, ``q_s``,
``q_c``); every other kind scores 0 and, with a check whose uncorrected
state does not converge, keeps the fixed kind order.

``evaluate`` and ``corrective_feasibility`` are pure and reentrant; they
are designed to be fanned out across worker processes.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .netmodel import (CONTROL_KINDS, Contingency, ControlSpace, Network,
                       apply_contingency, branch_values)
from .powerflow import SystemState, ds_dv, newton_jacobian, solve_acdc

PENALTY_UNCONVERGED = 1e3
TOL_FEAS = 1e-6
MAX_PROBES = 30

# pattern-search priority among moves of equal sensitivity: converter
# setpoints first, then generators, then discrete controls and droop slopes
_KIND_PRIORITY = {"p_s": 0, "q_s": 1, "u_dc0": 2, "p_g": 3, "u_g": 4,
                  "tap": 5, "q_c": 6, "droop": 7}


def apply_taps(net: Network, taps: dict[str, float]) -> Network:
    """Network variant with the taps (by branch outage id) applied; only a
    branch whose tap changes is copied, and only then are the admittance
    values of the branch plan recomputed, over the kept topology of
    ``net``.  The tap of an absent branch (the outaged one) is ignored."""
    branches = net.branches
    index = net.plan.branches.index
    new = None
    for key, tap in taps.items():
        pos = index.get(key)
        if pos is not None and branches[pos].tap != tap:
            new = new or list(branches)
            new[pos] = dataclasses.replace(new[pos], tap=tap)
    if new is None:
        return net
    variant = copy.copy(net)
    variant.branches = new
    bp = net.plan.branches
    variant.plan = dataclasses.replace(net.plan, branches=dataclasses.replace(
        bp, **branch_values(new, bp.f, bp.t, bp.pat_r, bp.pat_c, net.n_bus)))
    return variant


def apply_controls(net: Network, space: ControlSpace,
                   u: np.ndarray) -> Network:
    """Network variant whose elements carry the control vector ``u``.

    ``net`` is never mutated; only the elements whose values a control
    changes are copied, and ``net`` itself is returned when none is.  A
    control of an absent element (the outaged branch of a contingency
    variant) is ignored.  The element of a control is found by its
    position (:attr:`ControlSpace.positions`), so a probe that moves one
    control from the variant of its best point copies one element.
    """
    taps: dict[str, float] = {}
    changed: dict[tuple[str, int], dict[str, float]] = {}
    for comp, pos, value in zip(space.components, space.positions,
                                u.tolist()):
        if comp.kind == "tap":
            taps[comp.key] = value
            continue
        elements = CONTROL_KINDS[comp.kind][1]
        if getattr(getattr(net, elements)[pos], comp.kind) != value:
            changed.setdefault((elements, pos), {})[comp.kind] = value
    variant = apply_taps(net, taps)
    if not changed:
        return variant
    if variant is net:
        variant = copy.copy(net)
    for (elements, pos), values in changed.items():
        new = list(getattr(variant, elements))
        new[pos] = dataclasses.replace(new[pos], **values)
        setattr(variant, elements, new)
    return variant


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
    f2 = float(np.sum((state.ac.vm - net.plan.buses.u_set) ** 2))
    if net.dc_buses and state.dc is not None:
        f2 += float(np.sum((state.dc.u - net.plan.dc.u_set) ** 2))
    return f2


# ---------------------------------------------------------------------------
# Constraint report


@dataclass
class ConstraintReport:
    """Signed violation magnitudes per constraint, grouped.

    Positive values are violations, non-positive values are margins.
    ``total_violation``, the penalty plus the positive entries summed
    group by group, is computed once when the report is built; it is
    zero exactly when the flow converged and every entry is non-positive.
    """

    groups: dict[str, tuple[tuple[str, ...], np.ndarray]]
    converged: bool
    penalty: float = 0.0
    total_violation: float = field(init=False)

    def __post_init__(self) -> None:
        total = self.penalty
        for _, values in self.groups.values():
            total += float(np.maximum(values, 0.0).sum())
        self.total_violation = total

    def violations(self) -> list[tuple[str, str, float]]:
        out = []
        for group, (names, values) in self.groups.items():
            for name, v in zip(names, values):
                if v > 0.0:
                    out.append((group, name, float(v)))
        return out


def _bound_violation(value, lo, hi):
    return np.maximum(value - hi, lo - value)


def _ac_limits(net: Network, state: SystemState
               ) -> dict[str, tuple[tuple[str, ...], np.ndarray, np.ndarray,
                                    np.ndarray]]:
    """Names, solved values and bounds of the AC-side limits of a
    converged state, by group: the groups :func:`violation_gradient`
    linearises."""
    bp = net.plan.buses
    values = {"ac_voltage": state.ac.vm, "ac_angle": state.ac.va,
              "gen_q": state.gen_q, "ac_flow": state.ac.p_branch}
    if net.generators:
        values["gen_p_slack"] = state.gen_p[bp.slack_gens]
    limits = bp.limits | net.plan.branches.limits
    return {group: (names, values[group], lo, hi)
            for group, (names, lo, hi) in limits.items()}


def constraint_report(net: Network, state: SystemState) -> ConstraintReport:
    """Evaluate all operating constraints on a solved system state."""
    if not state.converged:
        return ConstraintReport(groups={}, converged=False,
                                penalty=PENALTY_UNCONVERGED)
    groups = {group: (names, _bound_violation(value, lo, hi))
              for group, (names, value, lo, hi)
              in _ac_limits(net, state).items()}

    dcp = net.plan.dc
    if state.dc is not None:
        dc = state.dc
        values = {"dc_voltage": dc.u, "dc_current": dc.branch_i,
                  "dc_flow": dc.branch_p}
        for group, (names, lo, hi) in dcp.limits.items():
            groups[group] = (names, _bound_violation(values[group], lo, hi))

    if net.converters:
        vals = []
        for conv, cs in zip(net.converters, state.converters):
            r = math.hypot(cs.p_s - conv.p_center, cs.q_s - conv.q_center)
            vals.append(max(r - conv.r_max, conv.r_min - r))
        groups["capability"] = (dcp.capability, np.array(vals))

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

    An unconverged flow yields invalid (infinite) objectives and the
    :func:`constraint_report` of an unconverged state, whose total
    violation is the divergence penalty.
    """
    u = space.snap(u)
    net_v = apply_controls(net, space, u)
    state = solve_acdc(net_v, warm=warm, trace=trace)
    objectives = ((generation_cost(state, net_v),
                   voltage_deviation(state, net_v)) if state.converged
                  else (math.inf, math.inf))
    return EvalResult(objectives=objectives,
                      report=constraint_report(net_v, state), state=state,
                      u=u, net=net_v)


# ---------------------------------------------------------------------------
# Corrective feasibility


def violation_gradient(net: Network, space: ControlSpace,
                       state: SystemState) -> np.ndarray | None:
    """First-order sensitivity ``dV/du`` of the total violation ``V`` at
    the converged ``state`` of ``net``, the variant that carries ``u``.

    One adjoint solve with the AC Newton Jacobian at ``state``
    (``J^T lam = dV/dx`` for the Newton unknowns ``x``).  Only the AC
    side is linearised, with the converter powers held where ``state``
    has them: the positive entries of the ``ac_voltage``, ``ac_angle``,
    ``gen_q``, ``gen_p_slack`` and ``ac_flow`` groups, and the controls
    that enter the AC equations directly (``p_g``, ``u_g``, ``q_s``,
    ``q_c``).  Every other control kind, and every DC-side or
    capability violation, gets 0.  None when the Jacobian is singular or
    the gradient is not finite.
    """
    n = net.n_bus
    bp, br = net.plan.buses, net.plan.branches
    v = state.ac.vm * np.exp(1j * state.ac.va)
    pattern = ds_dv(br, v, br.ybus @ v)
    jac = newton_jacobian(br, *pattern, len(bp.mis_index))
    ds_dva, ds_dvm = (np.zeros((n, n), dtype=complex) for _ in range(2))
    ds_dva[br.pat_r, br.pat_c], ds_dvm[br.pat_r, br.pat_c] = pattern
    ds = np.hstack((ds_dva, ds_dvm))       # dS_bus / d(va, vm), n x 2n
    # +1 above the upper bound, -1 below the lower one, 0 inside
    side = {group: (value > hi).astype(float) - (value < lo)
            for group, (_, value, lo, hi) in _ac_limits(net, state).items()}
    gen_bus = bp.gen_rows
    w = np.zeros(2 * n)                    # dV / d(va, vm) of every bus
    w[:n] += side["ac_angle"]
    w[n:] += side["ac_voltage"]
    w_q = np.zeros(n)                      # dV / d(generator Q) by bus
    if net.generators:
        w += side["gen_q"] @ ds[gen_bus].imag
        np.add.at(w_q, gen_bus, side["gen_q"])
        w += side["gen_p_slack"] @ ds[gen_bus[gen_bus == bp.slack]].real
    if net.branches:
        w += side["ac_flow"] @ _flow_derivative(net, v)

    try:
        lam = np.linalg.solve(jac.T, np.concatenate((w[bp.pvpq],
                                                     w[n + bp.pq])))
    except np.linalg.LinAlgError:
        return None
    # adjoint of the P equation (pvpq) and the Q equation (pq) of each bus
    lam_p, lam_q = np.zeros(n), np.zeros(n)
    lam_p[bp.pvpq] = lam[:len(bp.pvpq)]
    lam_q[bp.pq] = lam[len(bp.pvpq):]
    # a set magnitude moves V directly and through the mismatch it leaves
    d_vm_set = np.zeros(n)
    d_vm_set[bp.fixed] = (w[n:] - lam_p @ ds_dvm.real
                          - lam_q @ ds_dvm.imag)[bp.fixed]
    by_kind = {"p_g": lam_p, "u_g": d_vm_set, "q_c": lam_q - w_q,
               "q_s": w_q - lam_q}
    pcc = {c.name: net.bus_index[c.pcc_bus] for c in net.converters}
    grad = np.zeros(len(space))
    for i, comp in enumerate(space.components):
        if comp.kind in by_kind:
            bus = (pcc[comp.key] if comp.kind == "q_s"
                   else net.bus_index[int(comp.key)])
            grad[i] = by_kind[comp.kind][bus]
    return grad if np.all(np.isfinite(grad)) else None


def _flow_derivative(net: Network, v: np.ndarray) -> np.ndarray:
    """``d p_branch / d(va, vm)``: the from-side active flow of every
    branch against every bus angle and magnitude."""
    br = net.plan.branches
    n, rows = len(v), np.arange(len(br.f))
    vm = np.abs(v)
    # the transfer term v_f * conj(y_ft * v_t) of the from-side power
    c = v[br.f] * np.conj((br.yft_r + 1j * br.yft_i) * v[br.t])
    d = np.zeros((len(rows), 2 * n))
    d[rows, br.f] = -c.imag
    d[rows, br.t] = c.imag
    d[rows, n + br.f] = 2.0 * vm[br.f] * br.yff_r + c.real / vm[br.f]
    d[rows, n + br.t] = c.real / vm[br.t]
    return d


@dataclass
class CorrectiveLimits:
    """Maximal per-component corrective adjustment (control-vector units)."""

    du_max: np.ndarray

    @classmethod
    def from_fraction(cls, space: ControlSpace,
                      fraction: float) -> "CorrectiveLimits":
        """Box of ``fraction`` of each component's full range."""
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


def probe_moves(space: ControlSpace, lims: CorrectiveLimits,
                grad: np.ndarray | None,
                include_discrete: bool) -> list[tuple[int, float]]:
    """``(component, sign)`` of each move of the corrective search, in the
    order tried at every scale.

    The components are those with a corrective width (continuous ones
    only unless ``include_discrete``), in kind order, then stably sorted
    by ``|grad_i| * du_max_i``, descending; each is tried first in the
    descent direction of ``grad``, ``+`` first where ``grad_i`` is 0.
    ``grad`` None keeps the kind order.
    """
    grad = np.zeros(len(space)) if grad is None else grad
    order = sorted(range(len(space)),
                   key=lambda i: (_KIND_PRIORITY.get(space.kinds[i], 9), i))
    if not include_discrete:
        order = [i for i in order if space.step[i] == 0]
    order = [i for i in order if lims.du_max[i] > 0]
    order.sort(key=lambda i: -abs(grad[i]) * lims.du_max[i])   # stable
    return [(i, sign) for i in order
            for sign in ((-1.0, 1.0) if grad[i] > 0 else (1.0, -1.0))]


def corrective_feasibility(net: Network, space: ControlSpace,
                           u0: np.ndarray, k: Contingency,
                           lims: CorrectiveLimits, *,
                           net_k: Network | None = None,
                           base_state: SystemState | None = None,
                           max_probes: int = MAX_PROBES,
                           tol_feas: float = TOL_FEAS,
                           include_discrete: bool = True) -> CorrectiveResult:
    """Search the corrective box for a feasible post-contingency setting.

    Greedy coordinate pattern search from ``u0``, at the scales 1, 1/2
    and 1/4 of each component's corrective width.  The moves are ranked
    by the first-order sensitivity of the total violation at the ``u0``
    probe (:func:`violation_gradient`): components by ``|dV/du_i| *
    du_max_i``, descending, each tried first in the descent direction.
    That gradient sees only the AC side, so components of equal score
    (every kind but ``p_g``, ``u_g``, ``q_s`` and ``q_c``, and every
    component when only DC-side or capability limits are violated) keep
    the kind order: converter setpoints, then generator controls, then
    discrete controls and droop slopes, ``+`` before ``-``.  When the
    ``u0`` probe does not converge, the kind order alone is used.

    The probe budget bounds the cost per contingency; a candidate within
    1e-12 of a point already solved in this check (in every component) is
    skipped and not counted; the search is deterministic.  Each probe
    after the first is evaluated on the network variant of the best probe
    so far, from which it moves one control.  Its coupled solve is
    warm-started from the solved post-contingency state of the best probe
    so far: from ``base_state`` (the pre-contingency state) until a probe
    converges, then from the ``u0`` probe and from each accepted
    improvement.
    """
    if net_k is None:
        net_k = apply_contingency(net, k)
    u0 = space.snap(u0)
    warm = base_state

    best = evaluate(net_k, space, u0, warm=warm)
    best_u = u0.copy()
    best_v = best.report.total_violation
    probes = 1
    if best_v <= tol_feas:
        return CorrectiveResult(True, best_u, best_v, probes)
    grad = None
    if best.state.converged:
        warm = best.state
        grad = violation_gradient(best.net, space, best.state)
    moves = probe_moves(space, lims, grad, include_discrete)

    box_lo = np.maximum(space.lo, u0 - lims.du_max)
    box_hi = np.minimum(space.hi, u0 + lims.du_max)
    solved = u0[None, :]           # every point solved in this check

    for scale, (idx, sign) in itertools.product((1.0, 0.5, 0.25), moves):
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
        # a move back by the step just taken lands on a solved point, or
        # within rounding of it (best + du - du)
        if np.abs(solved - cand).max(axis=1).min() <= 1e-12:
            continue
        solved = np.vstack((solved, cand))
        # ``cand`` moves one control from ``best_u``, so the variant of the
        # best probe differs from the candidate's in one element
        res = evaluate(best.net, space, cand, warm=warm)
        probes += 1
        if res.report.total_violation < best_v - 1e-12:
            best, best_v, best_u = res, res.report.total_violation, cand
            if res.state.converged:
                warm = res.state

    return CorrectiveResult(best_v <= tol_feas, best_u, best_v, probes)
