"""Independent reference implementations used as test oracles.

Each oracle deliberately avoids the production code paths: the AC power
flow is solved with MINPACK's hybrid root finder on the raw mismatch
equations, the indicator and projection oracles are literal
straight-line translations of their definitions, and the Lasso oracle is
a projected-subgradient descent.  The residual-update Lasso is the
reference the Gram-matrix ``screen.lasso_fit`` is checked against.  They
are slow and simple on purpose.  Two references do share production
code: ``newton_without_stop`` is the AC Newton loop of
``powerflow.solve_ac`` without its divergence stop, which the stop is
checked against, and ``cold_exact_index`` is the cold per-row solve the
warm-started ``screen.exact_indices`` is checked against.
"""

import math

import numpy as np
from scipy.optimize import fsolve

from acdcopf import opfcore
from acdcopf.netmodel import apply_contingency
from acdcopf.powerflow import MAX_NR, TOL_AC, ds_dv, newton_jacobian
from acdcopf.screen import (LASSO_MAX_SWEEPS, LASSO_TOL, SecurityIndexParams,
                            composite_index)


def oracle_solve_ac(net, p_inj, q_inj, vm_setpoint, xtol=1e-13):
    """Reference AC power flow: root-find the polar mismatch equations.

    Unknowns are the non-slack angles and the PQ-bus magnitudes; the
    solver is scipy's MINPACK wrapper with a numerically estimated
    Jacobian, entirely independent of the production Newton code.
    """
    n = net.n_bus
    ybus = net.plan.branches.ybus
    slack = net.plan.buses.slack
    kinds = [b.kind for b in net.buses]
    pv = [i for i, k in enumerate(kinds) if k == "pv"]
    pq = [i for i, k in enumerate(kinds) if k == "pq"]
    pvpq = pv + pq

    def residual(x):
        va = np.zeros(n)
        vm = vm_setpoint.astype(float).copy()
        va[pvpq] = x[:len(pvpq)]
        vm[pq] = x[len(pvpq):]
        v = vm * np.exp(1j * va)
        s = v * np.conj(ybus @ v)
        return np.concatenate([s.real[pvpq] - p_inj[pvpq],
                               s.imag[pq] - q_inj[pq]])

    x0 = np.concatenate([np.zeros(len(pvpq)), np.ones(len(pq))])
    x, info, ier, msg = fsolve(residual, x0, xtol=xtol, full_output=True)
    va = np.zeros(n)
    vm = vm_setpoint.astype(float).copy()
    va[pvpq] = x[:len(pvpq)]
    vm[pq] = x[len(pvpq):]
    return vm, va, ier == 1


def newton_without_stop(net, p_inj, q_inj, vm_setpoint, *, vm0=None,
                        va0=None):
    """The AC Newton loop of ``powerflow.solve_ac`` without the stop on a
    growing mismatch: it ends at a mismatch of ``TOL_AC``, after
    ``MAX_NR`` iterations, at a singular Jacobian or at a magnitude that
    is not positive and finite.  Returns ``(vm, va, mismatches,
    converged)``, with the largest mismatch of every iteration."""
    br, bp = net.plan.branches, net.plan.buses
    pq, pvpq = bp.pq, bp.pvpq
    vm = np.ones(net.n_bus) if vm0 is None else vm0.astype(float).copy()
    va = np.zeros(net.n_bus) if va0 is None else va0.astype(float).copy()
    vm[bp.fixed] = vm_setpoint[bp.fixed]
    va[bp.slack] = 0.0
    spec = np.concatenate([p_inj[pvpq], q_inj[pq]])
    na = len(pvpq)
    mismatches = []
    for it in range(MAX_NR + 1):
        v = vm * np.exp(1j * va)
        i_bus = br.ybus @ v
        mis = spec - (v * np.conj(i_bus)).view(float).take(bp.mis_index)
        mismatches.append(float(np.abs(mis).max()) if mis.size else 0.0)
        if mismatches[-1] <= TOL_AC:
            return vm, va, mismatches, True
        if it == MAX_NR:
            break
        jac = newton_jacobian(br, *ds_dv(br, v, i_bus), len(spec))
        try:
            dx = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            break
        va[pvpq] += dx[:na]
        vm[pq] += dx[na:]
        if not ((vm > 0.0) & (vm < math.inf)).all():
            break
    return vm, va, mismatches, False


def cold_exact_index(net, space, u, k):
    """Exact composite index of outage ``k`` at control vector ``u``, and
    whether its flow diverged: the outage variant and its security limits
    built for this one row, and a full ``opfcore.evaluate`` from a flat
    start."""
    net_k = apply_contingency(net, k)
    res = opfcore.evaluate(net_k, space, u)
    params = SecurityIndexParams.from_network(net_k)
    return composite_index(res.state, params), not res.state.converged


def two_bus_closed_form(p_load, q_load, x_line, v_slack=1.0):
    """Closed-form receiving-end voltage of a lossless 2-bus feeder.

    Solves the quadratic ``V2^4 + (2QX - V1^2) V2^2 + X^2(P^2+Q^2) = 0``
    for the high-voltage root.
    """
    v1sq = v_slack * v_slack
    b = 2 * q_load * x_line - v1sq
    c = x_line * x_line * (p_load * p_load + q_load * q_load)
    v2sq = (-b + math.sqrt(b * b - 4 * c)) / 2.0
    v2 = math.sqrt(v2sq)
    theta = -math.asin(p_load * x_line / (v_slack * v2))
    return v2, theta


def eps_indicator_bruteforce(set_a, set_b):
    """Literal translation: smallest eps such that every b is covered."""
    worst = -math.inf
    for b in set_b:
        best = math.inf
        for a in set_a:
            need = max(a[i] - b[i] for i in range(len(a)))
            best = min(best, need)
        worst = max(worst, best)
    return worst


def ibea_fitness_bruteforce(norm_objs, kappa):
    n = len(norm_objs)
    fv = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            if i == j:
                continue
            ind = eps_indicator_bruteforce([norm_objs[j]], [norm_objs[i]])
            total += -math.exp(-ind / kappa)
        fv.append(total)
    return fv


def lasso_objective(x, y, sigma, lam):
    r = y - x @ sigma
    return float(r @ r) / len(y) + lam * float(np.sum(np.abs(sigma)))


def lasso_kkt_violation(x, y, sigma, lam):
    """Largest violation of the Lasso's subgradient optimality conditions."""
    grad = 2.0 / len(y) * (x.T @ (x @ sigma - y))
    violation = np.where(sigma == 0, np.abs(grad) - lam,
                         np.abs(grad + lam * np.sign(sigma)))
    return float(np.max(violation, initial=0.0))


def lasso_fit_residual(x, y, lam, sigma0=None):
    """Reference coordinate descent on the residual ``y - X sigma``.

    The same sweeps, soft threshold and stopping rule as
    ``screen.lasso_fit``, which keeps ``X^T r`` on the Gram matrix
    instead; each update here takes a dot product over all rows.
    """
    n, p = x.shape
    col_sq = np.einsum("ij,ij->j", x, x)
    sigma = np.zeros(p) if sigma0 is None else sigma0.astype(float).copy()
    resid = y - x @ sigma
    thresh = lam * n / 2.0
    guard = thresh * (1.0 + 1e-12)     # keeps zeros exact at lambda_max
    for _ in range(LASSO_MAX_SWEEPS):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] <= 0:
                continue
            old = sigma[j]
            rho = x[:, j] @ resid + col_sq[j] * old
            shrunk = (rho - thresh if rho > guard
                      else rho + thresh if rho < -guard else 0.0)
            new = shrunk / col_sq[j]
            if new != old:
                resid += x[:, j] * (old - new)
                sigma[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta <= LASSO_TOL:
            break
    return sigma


def lasso_subgradient_oracle(x, y, lam, steps=200000):
    """Projected-subgradient descent with averaging; slow but independent."""
    n, p = x.shape
    sigma = np.zeros(p)
    best = sigma.copy()
    best_obj = lasso_objective(x, y, sigma, lam)
    lipschitz = 2.0 / n * np.linalg.norm(x, 2) ** 2 + lam * math.sqrt(p)
    for t in range(1, steps + 1):
        grad = 2.0 / n * (x.T @ (x @ sigma - y)) + lam * np.sign(sigma)
        sigma = sigma - (1.0 / (lipschitz * math.sqrt(t))) * grad
        obj = lasso_objective(x, y, sigma, lam)
        if obj < best_obj:
            best_obj = obj
            best = sigma.copy()
    return best, best_obj


def grp_oracle(points, weights, rho=0.5):
    """Step-by-step grey relational projection, scalar loops throughout."""
    points = [list(map(float, row)) for row in points]
    n = len(points)
    m = len(points[0])
    lo = [min(row[k] for row in points) for k in range(m)]
    hi = [max(row[k] for row in points) for k in range(m)]
    z = []
    for row in points:
        z.append([(hi[k] - row[k]) / (hi[k] - lo[k]) if hi[k] > lo[k] else 0.0
                  for k in range(m)])
    z_best = [max(z[i][k] for i in range(n)) for k in range(m)]
    z_worst = [min(z[i][k] for i in range(n)) for k in range(m)]

    def gamma(reference):
        deltas = [[abs(z[i][k] - reference[k]) for k in range(m)]
                  for i in range(n)]
        dmax = max(max(row) for row in deltas)
        if dmax <= 0:
            return [[1.0] * m for _ in range(n)]
        dmin = min(min(row) for row in deltas)
        return [[(dmin + rho * dmax) / (deltas[i][k] + rho * dmax)
                 for k in range(m)] for i in range(n)]

    g_plus = gamma(z_best)
    g_minus = gamma(z_worst)
    wnorm = math.sqrt(sum(w * w for w in weights))
    proj = [w * w / wnorm for w in weights]
    v0 = sum(proj)
    d = []
    for i in range(n):
        vp = sum(g_plus[i][k] * proj[k] for k in range(m))
        vn = sum(g_minus[i][k] * proj[k] for k in range(m))
        num = (v0 - vn) ** 2
        den = num + (v0 - vp) ** 2
        d.append(num / den if den > 0 else 0.5)
    return d


def dc_newton_by_rows(ydc, modes, droop, u0, p0, tol, max_iter):
    """DC grid Newton solve formed row by row from a flat start: the set
    voltage of a const_vdc bus, the droop law of a droop bus and the power
    balance of a const_p bus or a bus without converter (mode None).
    Returns the voltages and the iteration count at the stop."""
    n = len(modes)
    u = np.ones(n)
    free = [i for i in range(n) if modes[i] != "const_vdc"]
    for i in range(n):
        if modes[i] == "const_vdc":
            u[i] = u0[i]
    for it in range(max_iter + 1):
        i_inj = ydc @ u
        p_inj = u * i_inj
        f = np.empty(len(free))
        for r, i in enumerate(free):
            if modes[i] == "droop":
                f[r] = u[i] - u0[i] - droop[i] * (p0[i] - p_inj[i])
            elif modes[i] == "const_p":
                f[r] = p_inj[i] - p0[i]
            else:
                f[r] = p_inj[i]
        if not free or np.max(np.abs(f)) <= tol or it == max_iter:
            return u, it
        jac_p = np.diag(i_inj) + u[:, None] * ydc
        jac = np.empty((len(free), len(free)))
        for r, i in enumerate(free):
            if modes[i] == "droop":
                jac[r, :] = droop[i] * jac_p[i, free]
                jac[r, r] += 1.0
            else:
                jac[r, :] = jac_p[i, free]
        u[free] -= np.linalg.solve(jac, f)


def dense_ds_dv(ybus, v):
    """MATPOWER's ``dSbus_dV`` in its dense matrix form:
    ``dS/dVa = j diag(V) conj(diag(I) - Y diag(V))`` and
    ``dS/dVm = diag(V) conj(Y diag(V/|V|)) + conj(diag(I)) diag(V/|V|)``."""
    diag_v, diag_i = np.diag(v), np.diag(ybus @ v)
    diag_vn = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    return ds_dva, ds_dvm
