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
probe is evaluated on the variant of the best probe so far, so it copies
only the elements whose controls it moves (and recomputes the admittance
values only for a tap move) and pays for little more than its Newton
steps.  Post-contingency corrective feasibility searches for an adjusted
control vector inside the per-component corrective box.  At the
uncorrected post-contingency state, one bordered linear solve through
the coupled AC/DC fixed point gives the sensitivity of every limit, AC,
DC and converter capability alike, to every control
(:func:`sensitivities`).  From it a linear corrective step proposes the
move that clears the violated limits to first order, and the same model
ends a check that no move in the box can clear; otherwise a pattern
search tries one control at a time, the most effective first.

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
from .powerflow import (SystemState, derive_droop_schedule, ds_dv,
                        solve_acdc)

PENALTY_UNCONVERGED = 1e3
TOL_FEAS = 1e-6
MAX_PROBES = 30
# the linear corrective step aims each violated limit CLEARANCE (p.u.)
# inside its bound, and RIDGE (in units of the box width) keeps its
# least-squares problem positive definite; the model is rebuilt at most
# RELINEARISE times per check.  A check ends early when its linear models
# leave more than STOP_MARGIN (p.u.) of total violation everywhere in the
# box and the verified candidates, at least one, confirm it, or when its
# first MAX_DIVERGED probes all diverge, which leaves nothing to linearise
CLEARANCE = 1e-3
RIDGE = 1e-9
RELINEARISE = 1
STOP_MARGIN = 1e-3
MAX_DIVERGED = 4

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


def _limits(net: Network, state: SystemState
            ) -> dict[str, tuple[tuple[str, ...], np.ndarray, np.ndarray,
                                 np.ndarray]]:
    """Names, solved values and bounds of every limit of a converged
    state, by group, in report order: the AC groups, the DC groups when
    the DC grid was solved, and the capability circle of each converter
    (the distance of its ``(p_s, q_s)`` from the centre)."""
    bp, dcp = net.plan.buses, net.plan.dc
    values = {"ac_voltage": state.ac.vm, "ac_angle": state.ac.va,
              "gen_q": state.gen_q, "ac_flow": state.ac.p_branch}
    if net.generators:
        values["gen_p_slack"] = state.gen_p[bp.slack_gens]
    limits = bp.limits | net.plan.branches.limits
    if state.dc is not None:
        dc = state.dc
        values |= {"dc_voltage": dc.u, "dc_current": dc.branch_i,
                   "dc_flow": dc.branch_p}
        limits |= dcp.limits
    if net.converters:
        convs = net.converters
        values["capability"] = np.array([
            math.hypot(cs.p_s - c.p_center, cs.q_s - c.q_center)
            for c, cs in zip(convs, state.converters)])
        limits["capability"] = (dcp.capability,
                                np.array([c.r_min for c in convs]),
                                np.array([c.r_max for c in convs]))
    return {group: (names, values[group], lo, hi)
            for group, (names, lo, hi) in limits.items()}


def constraint_report(net: Network, state: SystemState) -> ConstraintReport:
    """Evaluate all operating constraints on a solved system state."""
    if not state.converged:
        return ConstraintReport(groups={}, converged=False,
                                penalty=PENALTY_UNCONVERGED)
    return ConstraintReport(
        groups={group: (names, _bound_violation(value, lo, hi))
                for group, (names, value, lo, hi)
                in _limits(net, state).items()},
        converged=True)


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


@dataclass
class Sensitivity:
    """First-order model of every limit at a converged state: the signed
    violation of each limit entry (the :func:`constraint_report` values,
    group by group) and its derivative against every control component.
    """

    value: np.ndarray          # one entry per limit
    jac: np.ndarray            # d value / d u, limits x controls

    @property
    def gradient(self) -> np.ndarray:
        """``dV/du`` of the total violation ``V``: the rows of the
        violated entries, summed."""
        return (self.value > 0.0).astype(float) @ self.jac


def sensitivities(net: Network, space: ControlSpace,
                  state: SystemState) -> Sensitivity | None:
    """Derivatives of every limit at the converged ``state`` of ``net``,
    the variant that carries ``u``, through the coupled AC/DC fixed point.

    The state is ``y``: the bus angles and magnitudes, the ``p_s`` and
    ``q_s`` of every station and the DC voltages.  A control either sets
    an entry of ``y`` (``U_G`` a set magnitude, ``Q_s`` and a const_p
    station's ``P_s`` the station power, a const_vdc station's ``U_dc0``
    its DC voltage) or enters an equation.  The equations are the AC
    mismatch (P at pvpq, Q at pq), the free DC rows (power balance, or the
    droop law with the scheduled ``P_s``/``Q_s`` through
    :func:`~acdcopf.powerflow.derive_droop_schedule`; a const_p station's
    balance takes what its AC side delivers) and one coupling row per
    droop and const_vdc station (its AC side delivers what the DC grid
    draws at its bus).  The unknowns are the AC Newton unknowns, the
    settled ``p_s`` of those stations and the free DC voltages, so one
    bordered linear solve, with one right-hand side per control, gives
    ``dy/du``; each limit's derivative follows from it.  None when the
    bordered matrix is singular or a derivative is not finite.
    """
    n, nu = net.n_bus, len(space)
    bp, br, dcp = net.plan.buses, net.plan.branches, net.plan.dc
    convs = net.converters if state.converters else []
    dc = state.dc if convs else None
    nc, nd = len(convs), 0 if dc is None else len(dc.u)
    ip, iq, iu = 2 * n, 2 * n + nc, 2 * n + 2 * nc     # offsets in y
    ny = iu + nd
    vm = state.ac.vm
    v = vm * np.exp(1j * state.ac.va)
    ds_dva, ds_dvm = (np.zeros((n, n), dtype=complex) for _ in range(2))
    ds_dva[br.pat_r, br.pat_c], ds_dvm[br.pat_r, br.pat_c] = ds_dv(
        br, v, br.ybus @ v)
    pcc, fixed = bp.pcc_rows, set(bp.fixed.tolist())
    js = np.arange(nc)

    # d(S - S_spec) of every bus: the power its generator (or the slack)
    # makes up, so also the gen_q and gen_p_slack rows
    bus_y = np.zeros((n, ny), dtype=complex)
    bus_y[:, :n], bus_y[:, n:ip] = ds_dva, ds_dvm
    bus_y[pcc, ip + js] += 1.0
    bus_y[pcc, iq + js] += 1j
    bus_u = np.zeros((n, nu), dtype=complex)
    flow_y = np.zeros((len(br.f), ny))
    flow_y[:, :ip] = _flow_derivative(net, v)
    flow_u = np.zeros((len(br.f), nu))
    set_y = np.zeros((ny, nu))           # the entries of y a control sets
    station_controls: dict[tuple[str, int], int] = {}   # -> column
    for c, (comp, pos) in enumerate(zip(space.components, space.positions)):
        kind = comp.kind
        if kind == "p_g":
            bus_u[bp.gen_rows[pos], c] = -1.0
        elif kind == "q_c":
            bus_u[bp.shunt_rows[pos], c] = -1j
        elif kind == "u_g" and bp.gen_rows[pos] in fixed:
            set_y[n + bp.gen_rows[pos], c] = 1.0
        elif kind == "tap":
            p = br.index.get(comp.key)
            if p is None:                # the outaged branch
                continue
            f, t = br.f[p], br.t[p]
            tap = net.branches[p].tap
            yff = complex(br.yff_r[p], br.yff_i[p])
            yft = complex(br.yft_r[p], br.yft_i[p])
            # y_ff = y / tap^2 and y_ft = y_tf = -y_s / tap
            ds_f = v[f] * np.conj(-2.0 * yff / tap * v[f] - yft / tap * v[t])
            bus_u[f, c] += ds_f
            bus_u[t, c] += v[t] * np.conj(-yft / tap * v[f])
            flow_u[p, c] = ds_f.real
        elif nc:
            station_controls[kind, pos] = c
            if kind == "q_s":
                set_y[iq + pos, c] = 1.0
            elif kind == "p_s" and convs[pos].mode == "const_p":
                set_y[ip + pos, c] = 1.0
            elif kind == "u_dc0" and convs[pos].mode == "const_vdc":
                set_y[iu + dcp.conv_rows[pos], c] = 1.0

    # equations: the AC mismatch, then the free DC rows, then one
    # coupling row per droop and const_vdc station
    pvpq, pq = bp.pvpq, bp.pq
    m_ac = len(pvpq) + len(pq)
    free = dcp.free_rows if nd else np.zeros(0, dtype=int)
    settled = [j for j, c in enumerate(convs) if c.mode != "const_p"]
    size = m_ac + len(free) + len(settled)
    eq_y, eq_u = np.zeros((size, ny)), np.zeros((size, nu))
    eq_y[:len(pvpq)], eq_y[len(pvpq):m_ac] = bus_y[pvpq].real, bus_y[pq].imag
    eq_u[:len(pvpq)], eq_u[len(pvpq):m_ac] = bus_u[pvpq].real, bus_u[pq].imag
    if nd:
        u_dc = dc.u
        i_dc = dcp.ydc @ u_dc
        d_p = np.diag(i_dc) + u_dc[:, None] * dcp.ydc   # dP_dc / du_dc
        eq_y[m_ac:m_ac + len(free), iu:] = d_p[free]     # power balance
        row_of = {r: m_ac + i for i, r in enumerate(free.tolist())}
        for j, c in enumerate(convs):
            r = int(dcp.conv_rows[j])
            r_br = dcp.r_series[j]
            d_vm, d_p_s, d_q_s = _delivery_derivatives(
                c, r_br, vm[pcc[j]], state.converters[j].p_s, c.q_s)
            if c.mode == "const_p":
                # its DC bus takes what the AC side delivers
                e = row_of[r]
                eq_y[e, n + pcc[j]] -= d_vm
                eq_y[e, ip + j] -= d_p_s
                eq_y[e, iq + j] -= d_q_s
                continue
            e = m_ac + len(free) + settled.index(j)
            eq_y[e, n + pcc[j]] = d_vm
            eq_y[e, ip + j] = d_p_s
            eq_y[e, iq + j] = d_q_s
            eq_y[e, iu:] = -d_p[r]
            if c.mode != "droop":
                continue
            # u - u_dc0 - R (p0 - P_dc) with p0 from the scheduled p_s, q_s
            e = row_of[r]
            eq_y[e, iu:] = c.droop * d_p[r]
            eq_y[e, iu + r] += 1.0
            p0 = derive_droop_schedule(c, r_br, c.p_s, c.q_s)
            _, s_p, s_q = _delivery_derivatives(c, r_br, 1.0, c.p_s, c.q_s)
            eq_y[e, iq + j] -= c.droop * s_q
            for kind, value in (("u_dc0", -1.0),
                                ("droop", u_dc[r] * i_dc[r] - p0),
                                ("p_s", -c.droop * s_p)):
                if (kind, j) in station_controls:
                    eq_u[e, station_controls[kind, j]] = value
    unknowns = np.concatenate((pvpq, n + pq, ip + np.array(settled, dtype=int),
                               iu + free))
    try:
        d_z = np.linalg.solve(eq_y[:, unknowns], -(eq_y @ set_y + eq_u))
    except np.linalg.LinAlgError:
        return None
    d_y = set_y
    d_y[unknowns] += d_z

    # every limit's value against y and u, in report order
    values, rows = [], []
    for group, (_, value, lo, hi) in _limits(net, state).items():
        if group in ("ac_voltage", "ac_angle"):
            jac = d_y[n:ip] if group == "ac_voltage" else d_y[:n]
        elif group == "gen_q":
            jac = bus_y[bp.gen_rows].imag @ d_y + bus_u[bp.gen_rows].imag
        elif group == "gen_p_slack":
            slack = np.full(len(value), bp.slack)
            jac = bus_y[slack].real @ d_y + bus_u[slack].real
        elif group == "ac_flow":
            jac = flow_y @ d_y + flow_u
        elif group == "dc_voltage":
            jac = d_y[iu:]
        elif group == "dc_current":
            jac = dcp.y[:, None] * (d_y[iu + dcp.f] - d_y[iu + dcp.t])
        elif group == "dc_flow":
            u_f, u_t = dc.u[dcp.f], dc.u[dcp.t]
            jac = (dcp.y * (2.0 * u_f - u_t))[:, None] * d_y[iu + dcp.f] \
                - (dcp.y * u_f)[:, None] * d_y[iu + dcp.t]
        else:                            # capability
            p_s = np.array([cs.p_s for cs in state.converters])
            q_s = np.array([c.q_s for c in convs])
            dp = p_s - [c.p_center for c in convs]
            dq = q_s - [c.q_center for c in convs]
            jac = (dp[:, None] * d_y[ip + js] + dq[:, None] * d_y[iq + js]) \
                / np.maximum(value, 1e-12)[:, None]
        # the nearer bound is the one the signed violation measures
        side = np.where(value - hi >= lo - value, 1.0, -1.0)
        values.append(_bound_violation(value, lo, hi))
        rows.append(side[:, None] * jac)
    value = np.concatenate(values)
    jac = np.concatenate(rows) if rows else np.zeros((0, nu))
    return Sensitivity(value, jac) if np.all(np.isfinite(jac)) else None


def _delivery_derivatives(conv, r_br: float, vm: float, p_s: float,
                          q_s: float) -> tuple[float, float, float]:
    """Derivatives against ``(|V_pcc|, p_s, q_s)`` of the DC-side power
    ``p_s - R K - loss(sqrt(K))`` a station delivers, with ``K = (p_s^2 +
    q_s^2) / |V_pcc|^2`` (:func:`~acdcopf.powerflow.derive_droop_schedule`
    at ``|V_pcc| = 1``)."""
    k = (p_s * p_s + q_s * q_s) / (vm * vm)
    i_c = math.sqrt(k)
    d_k = -r_br - conv.c_loss - (0.0 if i_c < 1e-12
                                 else conv.b_loss / (2.0 * i_c))
    return (-2.0 * k / vm * d_k, 1.0 + 2.0 * p_s / (vm * vm) * d_k,
            2.0 * q_s / (vm * vm) * d_k)


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


def _box_least_squares(a: np.ndarray, b: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``argmin |a s - b|^2 + RIDGE |s|^2`` over ``lo <= s <= hi`` by an
    active set on the bounds (bounded-variable least squares), from the
    point ``s`` of the box, whose components at a bound start bound:
    solve for the free components with the others at their bounds, move
    towards that solution until a free component meets its bound, and
    bind it; at the free optimum, free the bound whose multiplier pulls
    inwards most.  A component with ``lo == hi`` stays there."""
    n = a.shape[1]
    m = a.T @ a + RIDGE * np.eye(n)
    r = a.T @ b
    movable = lo < hi
    at = np.where(movable, np.where(s <= lo, -1, np.where(s >= hi, 1, 0)),
                  -1)                  # -1 at lo, 1 at hi, 0 free
    for _ in range(4 * n + 4):
        free = at == 0
        z = s.copy()
        if free.any():
            m_f = m[free]
            z[free] = np.linalg.solve(m_f[:, free],
                                      r[free] - m_f[:, ~free] @ s[~free])
        d = z - s
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(d > 0, (hi - s) / d,
                             np.where(d < 0, (lo - s) / d, np.inf))
        reach[~free] = np.inf
        t = min(1.0, reach.min(initial=np.inf))
        s = np.clip(s + t * d, lo, hi)
        if t < 1.0:                    # a free component met its bound
            hit = reach <= t
            at[hit] = np.where(d[hit] > 0, 1, -1)
            continue
        grad = m @ s - r
        pull = np.where(movable, np.where(at < 0, -grad, at * grad), 0.0)
        j = int(np.argmax(pull)) if n else 0
        if not n or pull[j] <= 1e-15:
            break
        at[j] = 0
    return s


def _on_grid(space: ControlSpace, cand: np.ndarray, keep: np.ndarray,
             lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``cand`` with every stepped component moved to its nearest grid
    point inside ``[lo, hi]`` (one step inwards when the nearest lies
    outside), or back to its value in ``keep`` when there is none; then
    snapped, so it is the grid value that :func:`evaluate` solves."""
    s = space.step > 0
    step, base = space.step[s], space.lo[s]
    raw = base + np.round((cand[s] - base) / step) * step
    raw = np.where(raw > hi[s] + 1e-12, raw - step, raw)
    raw = np.where(raw < lo[s] - 1e-12, raw + step, raw)
    inside = (lo[s] - 1e-12 <= raw) & (raw <= hi[s] + 1e-12)
    cand = cand.copy()
    cand[s] = np.where(inside, raw, keep[s])
    return space.snap(cand)


def linear_step(space: ControlSpace, sens: Sensitivity, u: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, movable: np.ndarray,
                du_max: np.ndarray) -> tuple[float, np.ndarray]:
    """``(floor, candidate)`` of the linear model ``sens`` taken at ``u``
    over the corrective box ``[lo, hi]`` of the ``movable`` components.

    ``floor`` bounds the linearised total violation from below at every
    point of the box: the largest of each violated limit's minimum over
    the box and of their sum's.  The candidate solves, in units of
    ``du_max``, the box-constrained least-squares problem that puts every
    violated limit, and every limit the move would push over, ``CLEARANCE``
    inside its bound; moves under 1e-9 of ``du_max`` are dropped, and the
    stepped components go to their nearest grid points.  The droop slopes
    are left where they are: the droop law multiplies a slope by the power
    deviation, so their first-order model holds only for small moves, and
    the pattern search tries them.
    """
    free = np.flatnonzero(movable)
    width = du_max[free]
    a = sens.jac[:, free] * width
    s_lo, s_hi = (lo - u)[free] / width, (hi - u)[free] / width
    g = sens.value
    bad = g > 0.0
    rows = np.vstack((a[bad], a[bad].sum(axis=0)))
    floor = float((np.append(g[bad], g[bad].sum())
                   + np.minimum(rows * s_lo, rows * s_hi).sum(axis=1)).max())

    linear = np.array([space.kinds[i] != "droop" for i in free], dtype=bool)
    s_lo, s_hi = np.where(linear, s_lo, 0.0), np.where(linear, s_hi, 0.0)
    # no move when a move can clear the violation, else the corner that
    # lowers the summed violation most: the solution binds most components
    s = np.where(floor <= STOP_MARGIN, np.clip(0.0, s_lo, s_hi),
                 np.where(rows[-1] > 0, s_lo, s_hi))
    aimed = bad
    for _ in range(len(g)):
        s = _box_least_squares(a[aimed], -CLEARANCE - g[aimed], s_lo, s_hi,
                               s)
        pushed = aimed | (g + a @ s > 0.0)
        if (pushed == aimed).all():
            break
        aimed = pushed
    cand = u.copy()
    cand[free] += np.where(np.abs(s) < 1e-9, 0.0, s) * width
    return floor, _on_grid(space, cand, u, lo, hi)


def corrective_feasibility(net: Network, space: ControlSpace,
                           u0: np.ndarray, k: Contingency,
                           lims: CorrectiveLimits, *,
                           net_k: Network | None = None,
                           base_state: SystemState | None = None,
                           max_probes: int = MAX_PROBES,
                           tol_feas: float = TOL_FEAS,
                           include_discrete: bool = True) -> CorrectiveResult:
    """Search the corrective box for a feasible post-contingency setting.

    The first probe solves ``u0``.  When it is violated and converged,
    :func:`sensitivities` linearises every limit there through the
    coupled AC/DC fixed point, and a linear corrective step
    (:func:`linear_step`, after Capitanescu and Wehenkel, IEEE TPWRS
    23(4), 2008) proposes the move that clears the violated limits to
    first order inside the box; one probe verifies it.  An improving
    candidate is linearised once more and its own step verified.  The
    check ends there when it is feasible, or when every linear model
    said that no point of the box brings the total violation under
    ``STOP_MARGIN`` and every verified candidate, at least one, converged
    above it.

    Otherwise a greedy coordinate pattern search continues from the best
    probe, at the scales 1, 1/2 and 1/4 of each component's corrective
    width.  Its moves are ranked by the first-order sensitivity of the
    total violation at the ``u0`` probe (:attr:`Sensitivity.gradient`):
    components by ``|dV/du_i| * du_max_i``, descending, each tried first
    in the descent direction; components of equal score keep the kind
    order (converter setpoints, then generator controls, then discrete
    controls and droop slopes, ``+`` before ``-``), which is the whole
    order when the ``u0`` probe does not converge.  With nothing to
    linearise, such a check ends when its first ``MAX_DIVERGED`` probes
    have all diverged.

    The probe budget bounds the cost per contingency; a candidate within
    1e-12 of a point already solved in this check (in every component) is
    skipped and not counted; the search is deterministic.  Each probe
    after the first is evaluated on the network variant of the best probe
    so far, and a pattern-search probe moves one control of it.  Its
    coupled solve is warm-started from the solved post-contingency state
    of the best probe so far: from ``base_state`` (the pre-contingency
    state) until a probe converges, then from the ``u0`` probe and from
    each accepted improvement.
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
    sens = None
    if best.state.converged:
        warm = best.state
        sens = sensitivities(best.net, space, best.state)
    moves = probe_moves(space, lims, None if sens is None else sens.gradient,
                        include_discrete)

    box_lo = np.maximum(space.lo, u0 - lims.du_max)
    box_hi = np.minimum(space.hi, u0 + lims.du_max)
    solved = u0[None, :]           # every point solved in this check
    movable = lims.du_max > 0
    if not include_discrete:
        movable &= space.step == 0

    def seen(cand):
        # a move back by the step just taken lands on a solved point, or
        # within rounding of it (best + du - du)
        return np.abs(solved - cand).max(axis=1).min() <= 1e-12

    hopeless = sens is not None
    for relinearised in range(1 + RELINEARISE):
        if sens is None or probes >= max_probes:
            break
        floor, cand = linear_step(space, sens, best_u, box_lo, box_hi,
                                  movable, lims.du_max)
        hopeless = hopeless and floor > STOP_MARGIN
        if seen(cand):
            break
        solved = np.vstack((solved, cand))
        res = evaluate(best.net, space, cand, warm=warm)
        probes += 1
        hopeless = (hopeless and res.state.converged
                    and res.report.total_violation > STOP_MARGIN)
        if res.report.total_violation >= best_v - 1e-12:
            break
        best, best_v, best_u = res, res.report.total_violation, cand
        warm = res.state
        if best_v <= tol_feas or relinearised == RELINEARISE:
            break
        sens = sensitivities(best.net, space, best.state)
    # the stop rule needs a verified candidate: the linear one can fall
    # back on ``u0`` (grid snapping, or no move but the droop slopes')
    if (hopeless and probes > 1) or best_v <= tol_feas:
        return CorrectiveResult(best_v <= tol_feas, best_u, best_v, probes)

    for scale, (idx, sign) in itertools.product((1.0, 0.5, 0.25), moves):
        if probes >= max_probes or best_v <= tol_feas:
            break
        if not best.state.converged and probes >= MAX_DIVERGED:
            break
        cand = best_u.copy()
        cand[idx] = min(max(best_u[idx] + sign * scale * lims.du_max[idx],
                            box_lo[idx]), box_hi[idx])
        cand = _on_grid(space, cand, best_u, box_lo, box_hi)
        if seen(cand):
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
