"""Steady-state solvers for the hybrid AC/DC grid.

The coupled problem is solved sequentially: a Newton-Raphson AC solve and
a Newton DC-grid solve alternate, exchanging converter-station power
through the station loss model and the voltage-power droop characteristic
``U_dc - U_dc0 = R * (P_dc0 - P_dc)`` until the coupling residual at every
converter is below tolerance.

A coupled solve repeats no work whose inputs did not change.  The DC
grid is solved once when no station is const_p (its inputs do not depend
on the AC side), and not at all when the warm state holds the converged
DC solution of the same inputs; the branch flows are computed once, for
the final AC state; and an AC Newton whose largest mismatch grows after
the first step stops there as not converged.

The solvers read every setpoint (the controls) from the network
elements; a control vector arrives as the variant
:func:`acdcopf.opfcore.apply_controls` builds.  Everything else comes
from the network's :class:`~acdcopf.netmodel.SolverPlan`, built once per
(network, contingency, taps): the AC Newton unknowns, the admittance
sparsity pattern with the Jacobian position of every entry, the
per-branch terms of the vectorised from-side flows (MATPOWER's ``Yf``),
the load and bus setpoint vectors with the bus rows of the generators,
shunts and converter PCCs, and the DC conductance matrix with the DC rows
that the converter modes fix.  No solve builds or repairs a plan, and
:func:`solve_acdc` reads the network elements once per solve.

One network under several AC branch plans (its AC-outage variants at
one control point) can be solved as one stack (:func:`solve_acdc_stack`):
each plan runs its own coupling loop, but the AC solves of an outer
iteration are one Newton over all of them (:func:`solve_ac_stack`), with
one stacked ``np.linalg.solve`` per step.  Each system's state is
bit-identical to its own :func:`solve_acdc`.

The Jacobian is formed entry by entry over the sparsity pattern with
MATPOWER's ``dSbus_dV`` element formulas (:func:`ds_dv`); it agrees with
the dense ``diag(V) @ ...`` products to rounding (about 2e-16 relative),
not bit for bit.  The branch flows spell out the complex products in
real arithmetic, and the station model keeps NumPy's complex division,
because other forms round differently.

Sign conventions
----------------
``P_s``/``Q_s`` is the power flowing from the PCC bus into the converter
branch (positive rectifies, AC to DC).  ``P_dc`` is the power a converter
injects into the DC network.  Station bookkeeping uses the power arriving
at the converter terminal, which at convergence equals ``P_dc + P_loss``.

All functions are pure: identical inputs give bit-identical outputs, and
any number of concurrent solves may share a read-only network.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .netmodel import BranchPlan, DcPlan, Network

TOL_AC = 1e-8
TOL_DC = 1e-8
TOL_COUPLE = 1e-6
MAX_NR = 20
MAX_DC = 20
MAX_OUTER = 50


class PowerFlowConfigError(Exception):
    """The solve is structurally impossible (e.g. no DC voltage control)."""


@dataclass
class AcState:
    vm: np.ndarray             # per-bus voltage magnitude
    va: np.ndarray             # per-bus voltage angle (rad)
    p_inj: np.ndarray          # solved net active injection per bus
    q_inj: np.ndarray
    iterations: int
    max_mismatch: float
    converged: bool
    singular: bool = False
    # from-side flow per branch, which solve_acdc fills for its final state
    p_branch: np.ndarray | None = None
    q_branch: np.ndarray | None = None


@dataclass
class DcState:
    u: np.ndarray              # per-DC-bus voltage
    i_inj: np.ndarray          # per-DC-bus injected current
    p_inj: np.ndarray          # per-DC-bus injected power
    branch_i: np.ndarray       # per-branch current (from side)
    branch_p: np.ndarray       # per-branch power flow (from side)
    iterations: int
    converged: bool
    # the plan and copies of the droop, u0 and p0 arrays solved for
    inputs: tuple = field(repr=False)


@dataclass
class ConverterState:
    name: str
    p_s: float                 # actual PCC-side power into the branch
    q_s: float
    p_c: float                 # power arriving at the converter terminal
    q_c: float
    p_loss: float
    i_c: float
    u_c: float
    delta_c: float
    p_dc: float                # injection into the DC network
    residual: float            # |p_c - p_dc - p_loss|


@dataclass
class SystemState:
    ac: AcState
    dc: DcState | None
    converters: list[ConverterState]
    outer_iterations: int
    converged: bool
    failure_stage: str = ""    # "" | ac | dc | coupling
    gen_p: np.ndarray = field(default=None)
    gen_q: np.ndarray = field(default=None)


# ---------------------------------------------------------------------------
# Converter station primitives


def _station_loss(conv, i_c: float, k: float) -> float:
    """Station loss ``a + b*I_c + c*I_c^2`` with ``k = I_c^2``."""
    return conv.a_loss + conv.b_loss * i_c + conv.c_loss * k


def _net_dc_power(conv, r_br: float, p_s: float, k: float) -> float:
    """DC-side power ``p_s - R*K - loss(sqrt(K))`` of a station drawing
    ``p_s`` at the PCC with squared series current ``K``."""
    return p_s - r_br * k - _station_loss(conv, math.sqrt(k), k)


def _station_terms(v_pcc: complex, p_s: float, q_s: float, conv,
                   y_ser: complex):
    """Arriving power ``(p_c, q_c)``, station loss, series current
    magnitude and terminal voltage phasor of one station whose coupling
    branch has the admittance ``y_ser`` (``DcPlan.y_series``).

    Closed form: the series current follows from the PCC power, and the
    terminal voltage from the voltage drop over the coupling impedance.
    ``v_pcc`` is a NumPy complex, so the division is NumPy's: Python's
    complex division rounds differently.
    """
    i_ser = np.conj(complex(p_s, q_s) / v_pcc)
    v_c = v_pcc - i_ser / y_ser
    s_into = v_c * np.conj(i_ser)          # power arriving at the terminal
    i_c = abs(i_ser)
    p_loss = _station_loss(conv, i_c, i_c * i_c)
    return s_into.real, s_into.imag, p_loss, i_c, v_c


def _converter_state(conv, p_s: float, q_s: float, terms,
                     p_dc: float) -> ConverterState:
    """State of a station drawing ``p_s``/``q_s`` with the
    :func:`_station_terms` ``terms`` and injecting ``p_dc`` into the DC
    network."""
    p_c, q_c, p_loss, i_c, v_c = terms
    return ConverterState(
        name=conv.name, p_s=p_s, q_s=q_s, p_c=p_c, q_c=q_c, p_loss=p_loss,
        i_c=i_c, u_c=abs(v_c), delta_c=math.atan2(v_c.imag, v_c.real),
        p_dc=p_dc, residual=abs(p_c - p_dc - p_loss))


def _solve_ps_for_pdc(v_pcc: complex, q_s: float, conv, r_br: float,
                      p_dc_target: float, p_s_guess: float) -> float | None:
    """Invert the station model: PCC power that delivers ``p_dc_target``.

    Scalar Newton on ``h(p_s) = p_s - R_br*K - loss(sqrt(K)) - p_dc_target``
    with ``K = (p_s^2 + q_s^2) / |V_pcc|^2`` and the coupling-branch
    resistance ``r_br`` (``DcPlan.r_series``), in Python floats; smooth and
    well conditioned for realistic loss coefficients.  Returns None when
    ``|h|`` does not fall below 1e-13, e.g. when the target exceeds what
    the station can deliver at this PCC voltage.
    """
    u = float(abs(v_pcc))
    u_s2 = u * u
    q_s, p_dc_target, p_s = float(q_s), float(p_dc_target), float(p_s_guess)
    for _ in range(60):
        k = (p_s * p_s + q_s * q_s) / u_s2
        i_c = math.sqrt(k)
        h = _net_dc_power(conv, r_br, p_s, k) - p_dc_target
        if abs(h) < 1e-13:
            return p_s
        dk = 2.0 * p_s / u_s2
        di = 0.0 if i_c < 1e-12 else p_s / (u_s2 * i_c)
        dh = 1.0 - r_br * dk - conv.b_loss * di - conv.c_loss * dk
        if abs(dh) < 1e-12:
            return None
        p_s -= h / dh
    return None


# ---------------------------------------------------------------------------
# AC Newton-Raphson


def ds_dv(br: BranchPlan, v: np.ndarray, i_bus: np.ndarray):
    """Bus power derivatives ``(dS/dVa, dS/dVm)`` at voltages ``v`` with
    ``i_bus = ybus @ v`` (MATPOWER's ``dSbus_dV``), at the entries of the
    admittance sparsity pattern (``br.pat_r``, ``br.pat_c``); every other
    entry is zero.  ``v``, ``i_bus`` and ``br.pat_y`` may carry a trailing
    system axis (:func:`solve_ac_stack`)."""
    n = len(v)                     # the diagonal entries come first
    v_r = v[br.pat_r]
    vn = v / np.abs(v)
    # -Y_rc V_c, and I_r - Y_rr V_r on the diagonal
    d = -(br.pat_y * v[br.pat_c])
    d[:n] += i_bus
    ds_dva = 1j * (v_r * np.conj(d))
    ds_dvm = v_r * np.conj(br.pat_y * vn[br.pat_c])
    ds_dvm[:n] += np.conj(i_bus) * vn
    return ds_dva, ds_dvm


def newton_jacobian(br: BranchPlan, ds_dva: np.ndarray,
                    ds_dvm: np.ndarray, size: int) -> np.ndarray:
    """The ``size x size`` AC Newton Jacobian (P at pvpq, then Q at pq,
    against the angles at pvpq, then the magnitudes at pq) from the
    pattern values of :func:`ds_dv`, with their trailing system axis."""
    systems = ds_dva.shape[1:]
    jac = np.zeros((size * size,) + systems)
    # the float view of each system's stacked pattern values
    values = np.ascontiguousarray(
        np.concatenate((ds_dva, ds_dvm)).T).view(float).T
    jac[br.jac_dst] = values[br.jac_src]
    return jac.reshape((size, size) + systems)


def solve_ac(net: Network, p_inj: np.ndarray, q_inj: np.ndarray,
             vm_setpoint: np.ndarray, *,
             vm0: np.ndarray | None = None,
             va0: np.ndarray | None = None) -> AcState:
    """Newton-Raphson AC power flow in polar form.

    ``p_inj``/``q_inj`` are the specified net injections per bus (load,
    shunt and converter terms already folded in); the slack entry of
    ``p_inj`` and the PV/slack entries of ``q_inj`` are ignored.
    ``vm_setpoint`` fixes the magnitude at PV and slack buses.  Stops at
    a mismatch of ``TOL_AC``, after ``MAX_NR`` iterations, or, not
    converged, as soon as the largest mismatch grows from one iteration
    to the next after the first step.  The branch flows are left to the
    caller (:func:`branch_flows`).
    """
    n = net.n_bus
    br, bp = net.plan.branches, net.plan.buses
    ybus = br.ybus
    pq, pvpq = bp.pq, bp.pvpq

    vm = np.ones(n) if vm0 is None else vm0.astype(float).copy()
    va = np.zeros(n) if va0 is None else va0.astype(float).copy()
    vm[bp.fixed] = vm_setpoint[bp.fixed]
    va[bp.slack] = 0.0

    spec = np.concatenate([p_inj[pvpq], q_inj[pq]])
    na = len(pvpq)                 # angle unknowns, then magnitude unknowns
    converged = False
    singular = False
    iterations = 0
    max_mismatch = last_mismatch = math.inf

    for it in range(MAX_NR + 1):
        v = vm * np.exp(1j * va)
        i_bus = ybus @ v
        s_calc = v * np.conj(i_bus)
        mis = spec - s_calc.view(float).take(bp.mis_index)
        max_mismatch = float(np.abs(mis).max()) if mis.size else 0.0
        iterations = it
        if max_mismatch <= TOL_AC:
            converged = True
            break
        # diverging: the mismatch grew after the first step
        if it == MAX_NR or (it >= 2 and max_mismatch > last_mismatch):
            break
        last_mismatch = max_mismatch

        jac = newton_jacobian(br, *ds_dv(br, v, i_bus), len(spec))
        try:
            dx = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            singular = True
            break
        va[pvpq] += dx[:na]
        vm[pq] += dx[na:]
        if not ((vm > 0.0) & (vm < math.inf)).all():
            # the only exit after the step: the injections are recomputed
            v = vm * np.exp(1j * va)
            s_calc = v * np.conj(ybus @ v)
            break

    return AcState(vm=vm, va=va, p_inj=s_calc.real, q_inj=s_calc.imag,
                   iterations=iterations, max_mismatch=max_mismatch,
                   converged=converged, singular=singular)


def solve_ac_stack(net: Network, branches: list[BranchPlan],
                   p_inj: np.ndarray, q_inj: np.ndarray,
                   vm_setpoint: np.ndarray, *, vm0: np.ndarray,
                   va0: np.ndarray) -> list[AcState]:
    """:func:`solve_ac` of several systems at once, one Newton step of
    all the systems still iterating per stacked ``np.linalg.solve``.

    Each system is ``net`` with one of ``branches`` as its AC branch
    plan, and the sparsity pattern of ``net.plan.branches`` holds every
    entry of each one's admittance matrix: the outage and tap variants of
    ``net``'s branches.  ``p_inj`` and the starting voltages ``vm0`` and
    ``va0`` carry a leading system axis; ``q_inj`` and ``vm_setpoint``
    may be shared.  Each system
    stops by :func:`solve_ac`'s rules, and its state is bit-identical to
    its own :func:`solve_ac`: its ``ybus @ v`` is its own product (a
    stacked product may round differently), and a stack holding a singular
    Jacobian is solved system by system on that iteration.
    """
    bp, pattern = net.plan.buses, net.plan.branches
    pq, pvpq = bp.pq, bp.pvpq
    ybus = [b.ybus for b in branches]
    # each system's admittance values on the shared pattern (0 at the
    # entries of a dropped branch)
    pat_y = np.stack([y[pattern.pat_r, pattern.pat_c] for y in ybus], axis=1)
    count, n = p_inj.shape

    vm, va = vm0.astype(float), va0.astype(float)
    vm[:, bp.fixed] = vm_setpoint[..., bp.fixed]
    va[:, bp.slack] = 0.0

    spec = np.concatenate([p_inj[:, pvpq],
                           np.broadcast_to(q_inj, p_inj.shape)[:, pq]], axis=1)
    na, size = len(pvpq), spec.shape[1]
    s_calc = np.zeros((count, n), dtype=complex)
    max_mismatch = np.full(count, math.inf)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    singular = np.zeros(count, dtype=bool)
    run = np.arange(count)         # the systems still iterating

    for it in range(MAX_NR + 1):
        v = vm[run] * np.exp(1j * va[run])
        i_bus = np.stack([ybus[s] @ v_s for s, v_s in zip(run.tolist(), v)])
        s_run = v * np.conj(i_bus)
        mis = spec[run] - s_run.view(float)[:, bp.mis_index]
        mism = np.abs(mis).max(axis=1) if size else np.zeros(len(run))
        done = mism <= TOL_AC
        converged[run[done]] = True
        # diverging: the mismatch grew after the first step
        stop = done | (it == MAX_NR) | ((it >= 2) & (mism > max_mismatch[run]))
        s_calc[run], max_mismatch[run], iterations[run] = s_run, mism, it
        keep = ~stop
        run, v, i_bus, mis = run[keep], v[keep], i_bus[keep], mis[keep]
        if not run.size:
            break

        # the Jacobian formulas take the system axis last
        br = dataclasses.replace(pattern, pat_y=pat_y[:, run])
        jac = newton_jacobian(br, *ds_dv(br, v.T, i_bus.T),
                              size).transpose(2, 0, 1)
        try:
            dx = np.linalg.solve(jac, mis[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            dx = np.zeros_like(mis)
            solved = np.ones(len(run), dtype=bool)
            for i in range(len(run)):
                try:
                    dx[i] = np.linalg.solve(jac[i], mis[i])
                except np.linalg.LinAlgError:
                    solved[i] = False
            singular[run[~solved]] = True
            run, dx = run[solved], dx[solved]
        va[np.ix_(run, pvpq)] += dx[:, :na]
        vm[np.ix_(run, pq)] += dx[:, na:]
        vm_run = vm[run]
        bad = ~((vm_run > 0.0) & (vm_run < math.inf)).all(axis=1)
        for s in run[bad].tolist():
            # the only exit after the step: the injections are recomputed
            v_s = vm[s] * np.exp(1j * va[s])
            s_calc[s] = v_s * np.conj(ybus[s] @ v_s)
        run = run[~bad]
        if not run.size:
            break

    return [AcState(vm=vm[s].copy(), va=va[s].copy(), p_inj=s_calc[s].real,
                    q_inj=s_calc[s].imag, iterations=int(iterations[s]),
                    max_mismatch=float(max_mismatch[s]),
                    converged=bool(converged[s]), singular=bool(singular[s]))
            for s in range(count)]


def branch_flows(bp: BranchPlan, vm: np.ndarray,
                 va: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From-side complex power flow ``v_f * conj(y_ff*v_f + y_ft*v_t)`` of
    every AC branch of the plan ``bp``, in real arithmetic (bit-identical
    to the scalar complex formula)."""
    v = vm * np.exp(1j * va)
    vr, vi = v.real, v.imag
    fr, fi, tr, ti = vr[bp.f], vi[bp.f], vr[bp.t], vi[bp.t]
    ir = (bp.yff_r * fr - bp.yff_i * fi) + (bp.yft_r * tr - bp.yft_i * ti)
    ii = (bp.yff_r * fi + bp.yff_i * fr) + (bp.yft_r * ti + bp.yft_i * tr)
    return fr * ir + fi * ii, fi * ir - fr * ii


# ---------------------------------------------------------------------------
# DC grid Newton solve


def solve_dc(plan: DcPlan, droop: np.ndarray, u0: np.ndarray,
             p0: np.ndarray, *, u_start: np.ndarray | None = None) -> DcState:
    """Newton solve of the DC network with droop characteristics.

    ``droop``, ``u0`` (droop reference or const_vdc setpoint) and ``p0``
    (droop reference or const_p injection, 0 at a bus without converter)
    hold one entry per DC bus.  Node power balance and the droop law are
    driven to ``TOL_DC`` in at most ``MAX_DC`` iterations.  Without a
    droop or const_vdc converter the voltage profile is undetermined and
    :class:`PowerFlowConfigError` is raised.
    """
    n = len(plan.index)
    ydc = plan.ydc
    free, dr = plan.free_rows, plan.droop_rows
    if not (plan.vdc_rows.size or dr.size):
        raise PowerFlowConfigError(
            "DC grid has no droop or const_vdc converter; voltage undetermined")

    u = np.ones(n) if u_start is None else u_start.astype(float).copy()
    u[plan.vdc_rows] = u0[plan.vdc_rows]
    row_scale = np.ones(n)            # a droop row's Jacobian is R * dP/dU
    row_scale[dr] = droop[dr]

    converged = False
    iterations = 0
    for it in range(MAX_DC + 1):
        i_inj = ydc @ u
        p_inj = u * i_inj
        res = p_inj - p0                  # power balance
        res[dr] = (u - u0 - droop * (p0 - p_inj))[dr]
        f_res = res[free]
        iterations = it
        if free.size == 0 or np.max(np.abs(f_res)) <= TOL_DC:
            converged = True
            break
        if it == MAX_DC:
            break

        # dP_i/dU_j = delta_ij * I_i + U_i * Y_ij
        jac = (np.diag(i_inj) + u[:, None] * ydc) * row_scale[:, None]
        jac[dr, dr] += 1.0
        try:
            du = np.linalg.solve(jac[free][:, free], f_res)
        except np.linalg.LinAlgError:
            break
        u[free] -= du
        if not np.all(np.isfinite(u)) or np.any(u <= 0):
            break

    i_inj = ydc @ u
    p_inj = u * i_inj
    branch_i = plan.y * (u[plan.f] - u[plan.t])
    branch_p = u[plan.f] * branch_i
    return DcState(u=u, i_inj=i_inj, p_inj=p_inj, branch_i=branch_i,
                   branch_p=branch_p, iterations=iterations, converged=converged,
                   inputs=(plan, droop.copy(), u0.copy(), p0.copy()))


def _solves(dc: DcState | None, plan: DcPlan, droop: np.ndarray,
            u0: np.ndarray, p0: np.ndarray) -> bool:
    """Whether ``dc`` is a converged solve of these inputs: the same plan
    and bit-equal arrays.  :func:`solve_dc` started from it would stop at
    once and return the same arrays."""
    if dc is None or not dc.converged:
        return False
    plan_s, *arrays = dc.inputs
    return plan_s is plan and all(
        a.tobytes() == b.tobytes() for a, b in zip(arrays, (droop, u0, p0)))


# ---------------------------------------------------------------------------
# Coupled AC/DC solve


def assemble_ac_inputs(net: Network):
    """Per-bus specified injections of the loads, generators and shunts,
    and the magnitude setpoints; :func:`solve_acdc` subtracts the
    converter terms."""
    bp = net.plan.buses
    p_inj, q_inj, vm_set = bp.p_load.copy(), bp.q_load.copy(), bp.vm_set.copy()
    # a bus has at most one generator and one shunt
    p_inj[bp.gen_rows] += [gen.p_g for gen in net.generators]
    vm_set[bp.gen_rows] = [gen.u_g for gen in net.generators]
    q_inj[bp.shunt_rows] += [sh.q_c for sh in net.shunts]
    return p_inj, q_inj, vm_set


def derive_droop_schedule(conv, r_br: float, p_s: float, q_s: float) -> float:
    """Scheduled DC injection implied by the scheduled PCC power, for a
    coupling-branch resistance ``r_br`` (``DcPlan.r_series``).

    Evaluated at nominal voltage: the droop characteristic absorbs the
    (small) mismatch between this estimate and the converged solution.
    """
    return _net_dc_power(conv, r_br, p_s, p_s * p_s + q_s * q_s)


def solve_acdc(net: Network, *, warm: SystemState | None = None,
               trace: list | None = None) -> SystemState:
    """Alternating AC/DC solve at the setpoints the network carries.

    A ``warm`` state seeds the AC voltages and the DC voltages; when it
    converged with the same converters, it also seeds the PCC power of
    every droop and const_vdc station with the power that station
    settled at.  The DC references still come from the scheduled
    ``p_s``, so a warm start moves only the starting guess, not the
    solution.

    The DC grid is solved only when its inputs change.  Without a
    const_p station they are fixed for the whole solve (the plan,
    ``droop``, ``u0`` and the ``p0`` of the scheduled ``p_s``/``q_s``),
    so the DC grid is solved once, and not at all when the warm state's
    converged DC solution is for the same inputs; a const_p station's
    ``p0`` follows the AC side, which takes one DC solve per outer
    iteration.  A DC solution that is reused reports 0 iterations, as
    the solve it stands for would.  The branch flows are computed once,
    for the final AC state.

    Failure of an inner stage is reported through ``converged=False``
    plus ``failure_stage`` in {"ac", "dc", "coupling"}; "coupling" also
    covers a station whose model cannot deliver the DC-side power.
    """
    loop = _Coupling(net, warm)
    while loop.outer < MAX_OUTER:
        ac = solve_ac(net, loop.p_inj(), loop.q_inj, loop.vm_set,
                      vm0=loop.vm0, va0=loop.va0)
        if loop.step(ac, trace):
            break
    return loop.state()


def solve_acdc_stack(net: Network, branches: list[BranchPlan], *,
                     warm: SystemState | None = None) -> list[SystemState]:
    """:func:`solve_acdc` of ``net`` with each of ``branches`` as its AC
    branch plan, all warm from ``warm``, with the AC solves of every
    outer iteration stacked (:func:`solve_ac_stack`).

    ``net.plan.branches`` is the sparsity pattern: it holds every entry
    of each plan's admittance matrix, as it does for the plans of
    ``net``'s AC-outage variants at any taps.  Each state is
    bit-identical to ``solve_acdc`` of ``net`` carrying that plan, warm
    from ``warm``.
    """
    base = _Coupling(net, warm)
    loops = [base.fork(b) for b in branches]
    run = loops
    while run:
        acs = solve_ac_stack(
            net, [loop.branches for loop in run],
            np.stack([loop.p_inj() for loop in run]), base.q_inj, base.vm_set,
            vm0=np.stack([loop.vm0 for loop in run]),
            va0=np.stack([loop.va0 for loop in run]))
        run = [loop for loop, ac in zip(run, acs)
               if not loop.step(ac) and loop.outer < MAX_OUTER]
    return [loop.state() for loop in loops]


class _Coupling:
    """One coupled solve around its AC solves: the specified AC
    injections and the DC inputs, then per outer iteration the station
    terms, the DC solve, the coupling residual and the back-substituted
    PCC powers (:meth:`step`), and the final state (:meth:`state`).
    :func:`solve_acdc` runs one and :func:`solve_acdc_stack` one per
    branch plan."""

    def __init__(self, net: Network, warm: SystemState | None):
        convs = net.converters
        dcp = net.plan.dc
        self.net, self.convs, self.dcp = net, convs, dcp
        self.branches = net.plan.branches
        self.pcc = net.plan.buses.pcc_rows
        self.p_load, self.q_inj, self.vm_set = assemble_ac_inputs(net)
        self.p_s = np.array([c.p_s for c in convs], dtype=float)
        self.q_s = np.array([c.q_s for c in convs], dtype=float)
        self.q_inj[self.pcc] -= self.q_s
        # one entry per DC bus; a const_p station's p0 is set per iteration
        rows = dcp.conv_rows
        self.droop, self.u0, self.p0 = (np.zeros(len(net.dc_buses))
                                        for _ in range(3))
        self.droop[rows] = [c.droop for c in convs]
        self.u0[rows] = [c.u_dc0 for c in convs]
        self.p0[rows] = [derive_droop_schedule(c, dcp.r_series[j], c.p_s,
                                               c.q_s)
                         for j, c in enumerate(convs)]

        # the start of the next AC solve: a flat start when cold
        self.vm0, self.va0 = ((warm.ac.vm, warm.ac.va) if warm is not None
                              else (np.ones(net.n_bus), np.zeros(net.n_bus)))
        # the last DC solution: the start of the next DC solve, or that
        # solve itself when the inputs are unchanged
        self.solved = warm.dc if warm is not None else None
        if (warm is not None and warm.converged
                and [cs.name for cs in warm.converters]
                == [c.name for c in convs]):
            for j, c in enumerate(convs):
                if c.mode != "const_p":
                    self.p_s[j] = warm.converters[j].p_s

        self.ac: AcState | None = None
        self.dc: DcState | None = None
        self.terms: list[tuple] = []    # _station_terms of each station
        self.p_dc_ac: list[float] = []  # the DC power each AC side delivers
        self.p_dc_dc: list[float] = []  # and the DC injection at its DC bus
        self.outer = 0
        self.failure = ""
        self.converged = False

    def fork(self, branches: BranchPlan) -> "_Coupling":
        """The same solve, before its first iteration, with ``branches``
        as the AC branch plan."""
        loop = copy.copy(self)
        loop.branches = branches
        loop.p_s, loop.p0 = self.p_s.copy(), self.p0.copy()
        return loop

    def p_inj(self) -> np.ndarray:
        """Specified active injections at the current PCC powers."""
        p_inj = self.p_load.copy()
        p_inj[self.pcc] -= self.p_s
        return p_inj

    def step(self, ac: AcState, trace: list | None = None) -> bool:
        """Take the AC state ``ac`` of the next outer iteration; True when
        the solve has ended."""
        self.outer += 1
        self.ac = ac
        if not ac.converged:
            self.failure = "ac"
            return True
        self.vm0, self.va0 = ac.vm, ac.va
        convs, dcp = self.convs, self.dcp
        if not convs:
            self.converged = True
            return True

        rows, y_ser = dcp.conv_rows, dcp.y_series
        p_s, q_s, p0 = self.p_s, self.q_s, self.p0
        v_pcc = ac.vm[self.pcc] * np.exp(1j * ac.va[self.pcc])
        self.terms = [_station_terms(v_pcc[j], p_s[j], q_s[j], c, y_ser[j])
                      for j, c in enumerate(convs)]
        self.p_dc_ac = [p_c - p_loss for p_c, _, p_loss, _, _ in self.terms]

        # a const_p station injects what its AC side delivers
        for j in dcp.const_p:
            p0[rows[j]] = self.p_dc_ac[j]
        solved = self.solved
        if _solves(solved, dcp, self.droop, self.u0, p0):
            if solved.iterations:
                solved = dataclasses.replace(solved, iterations=0)
            dc = solved
        else:
            dc = solve_dc(dcp, self.droop, self.u0, p0,
                          u_start=None if solved is None else solved.u)
        self.dc = dc
        if not dc.converged:
            self.failure = "dc"
            return True
        self.solved = dc

        # coupling residual: AC-side delivery vs DC-side absorption
        self.p_dc_dc = dc.p_inj[rows].tolist()
        residual = max(abs(p - q) for p, q in zip(self.p_dc_ac, self.p_dc_dc))
        if trace is not None:
            trace.append((self.outer, ac.iterations, dc.iterations, residual))
        if residual <= TOL_COUPLE:
            self.converged = True
            return True

        # back-substitute the DC solution into the AC-side schedules
        p_s_new = [p_s[j] if c.mode == "const_p"
                   else _solve_ps_for_pdc(v_pcc[j], q_s[j], c,
                                          dcp.r_series[j], self.p_dc_dc[j],
                                          p_s[j])
                   for j, c in enumerate(convs)]
        if None in p_s_new:            # a station cannot deliver its target
            return True
        p_s[:] = p_s_new
        return False

    def state(self) -> SystemState:
        """The solved state after the last :meth:`step`."""
        ac, dc, convs = self.ac, self.dc, self.convs
        failure = self.failure
        if not self.converged and not failure:
            failure = "coupling"
        conv_states: list[ConverterState] = []
        if ac.converged and self.terms:
            dc_side = dc is not None and dc.converged
            conv_states = [_converter_state(
                c, self.p_s[j], self.q_s[j], self.terms[j],
                self.p_dc_dc[j] if dc_side and c.mode != "const_p"
                else self.p_dc_ac[j]) for j, c in enumerate(convs)]

        ac.p_branch, ac.q_branch = branch_flows(self.branches, ac.vm, ac.va)
        state = SystemState(ac=ac, dc=dc, converters=conv_states,
                            outer_iterations=self.outer,
                            converged=self.converged, failure_stage=failure)
        if self.converged:
            _fill_generator_outputs(self.net, state, self.p_s, self.q_s)
        return state


def _fill_generator_outputs(net: Network, state: SystemState,
                            p_s_act: np.ndarray, q_s_act: np.ndarray) -> None:
    """Recover generator P/Q from solved bus injections and the settled
    PCC powers; a bus has at most one generator, converter and shunt."""
    ac, bp, n = state.ac, net.plan.buses, net.n_bus
    p_s, q_s, q_c = (np.zeros(n) for _ in range(3))
    p_s[bp.pcc_rows] += p_s_act
    q_s[bp.pcc_rows] += q_s_act
    q_c[bp.shunt_rows] = [sh.q_c for sh in net.shunts]
    rows = bp.gen_rows
    gen_p = np.array([gen.p_g for gen in net.generators], dtype=float)
    slack = rows[bp.slack_gens]
    gen_p[bp.slack_gens] = ac.p_inj[slack] + bp.p_d[slack] + p_s[slack]
    state.gen_p = gen_p
    state.gen_q = ac.q_inj[rows] + bp.q_d[rows] + q_s[rows] - q_c[rows]
