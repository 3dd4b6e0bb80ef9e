"""Contingency screening: composite security index and Lasso filtering.

The composite index aggregates voltage and flow crossings of the security
limits, scaled by the alarm bands, into one scalar: 0 is secure, values
in (0, 1] are an alarm state, values above 1 are insecure.  A Lasso
regression predicts the index from the outage identity (one-hot) and the
control vector, so the critical contingency set can be re-filtered
cheaply for every candidate operating point: insecure AC lines plus,
always, all DC lines.

The caller supplies the training control points (:func:`sample_controls`
draws a Latin-hypercube box around the case point).  The penalty is
always chosen by cross-validation; the coordinate-descent stopping rule
(``LASSO_TOL``, ``LASSO_MAX_SWEEPS``) and the penalty grid are module
constants.  The training rows, ``rank --exact`` and the ``train-screen``
error table share :func:`exact_indices`, and the last two
:func:`rank_contingencies`.
"""

from __future__ import annotations

import copy
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import opfcore, powerflow
from .netmodel import Contingency, ControlSpace, Network, apply_contingency
from .powerflow import SystemState

log = logging.getLogger(__name__)

PI_MAX = 10.0                  # severity sentinel for divergent flows
INDEX_EXPONENT = 2             # the index is a 2n-th power mean, n = 2
# training-box half-width of the droop slopes, as a fraction of their
# range: their declared range is far wider than their useful scale, so
# they do not take the ``screening.width`` of the other controls
DROOP_WIDTH = 0.0005
MODEL_SCHEMA_VERSION = "screening-model/1"
# penalty cross-validation: folds, and a log grid of penalties from
# LAMBDA_MIN_FACTOR times the all-zero penalty up to it
CV_FOLDS = 5
GRID_SIZE = 30
LAMBDA_MIN_FACTOR = 1e-4
# coordinate descent stops when no coefficient moves by more than
# LASSO_TOL in a sweep, or after LASSO_MAX_SWEEPS sweeps
LASSO_TOL = 1e-7
LASSO_MAX_SWEEPS = 10000


@dataclass
class SecurityIndexParams:
    """Voltage/flow security and alarm limits."""

    h_min: np.ndarray = None   # per-bus voltage security limits
    h_max: np.ndarray = None
    a_min: np.ndarray = None   # per-bus voltage alarm limits
    a_max: np.ndarray = None
    p_secure: np.ndarray = None    # per-branch flow security limits
    p_alarm: np.ndarray = None

    @classmethod
    def from_network(cls, net: Network) -> "SecurityIndexParams":
        return cls(
            h_min=np.array([b.h_min for b in net.buses]),
            h_max=np.array([b.h_max for b in net.buses]),
            a_min=np.array([b.a_min for b in net.buses]),
            a_max=np.array([b.a_max for b in net.buses]),
            p_secure=np.array([br.p_secure for br in net.branches]),
            p_alarm=np.array([br.p_alarm for br in net.branches]),
        )


def composite_index(state: SystemState, params: SecurityIndexParams) -> float:
    """Composite security index of a solved state; 0 when nothing crosses
    a security limit.

    An unconverged state is treated as maximal severity and returns the
    ``PI_MAX`` sentinel (callers that need the distinction should check
    ``state.converged`` themselves).
    """
    if not state.converged:
        return PI_MAX
    n2 = 2 * INDEX_EXPONENT
    vm = state.ac.vm
    over = vm > params.h_max
    under = vm < params.h_min
    q_hi = np.where(over, (vm - params.h_max)
                    / (params.a_max - params.h_max), 0.0)
    q_lo = np.where(under, (params.h_min - vm)
                    / (params.h_min - params.a_min), 0.0)
    flow = np.abs(state.ac.p_branch)
    q_p = np.where(flow > params.p_secure,
                   (flow - params.p_secure)
                   / (params.p_alarm - params.p_secure), 0.0)
    total = (np.sum(q_hi ** n2) + np.sum(q_lo ** n2) + np.sum(q_p ** n2))
    return float(total ** (1.0 / n2))


def outage_variants(net: Network) -> dict[Contingency, tuple]:
    """Variant and :class:`SecurityIndexParams` of each AC-line outage."""
    nets = {k: apply_contingency(net, k) for k in net.contingencies
            if k.kind == "ac_line"}
    return {k: (net_k, SecurityIndexParams.from_network(net_k))
            for k, net_k in nets.items()}


def variants_at(net_u: Network, space: ControlSpace, u: np.ndarray,
                variants: dict) -> list[Network]:
    """The :func:`outage_variants` at the snapped controls ``u``, which
    ``net_u`` carries (``opfcore.apply_controls(net, space, u)``): that
    network with each outage's branches, at the taps of ``u``.  Equal to
    ``apply_controls(net_k, space, u)`` of each variant, but sharing the
    other elements of ``net_u``, as :func:`powerflow.solve_acdc_stack`
    requires."""
    taps = {c.key: value for c, value in zip(space.components, u.tolist())
            if c.kind == "tap"}
    nets = []
    for net_k, _ in variants.values():
        outage = copy.copy(net_u)
        outage.branches, outage.plan = net_k.branches, net_k.plan
        nets.append(opfcore.apply_taps(outage, taps))
    return nets


def exact_indices(net: Network, space: ControlSpace, u: np.ndarray,
                  variants: dict) -> dict[Contingency, tuple[float, bool]]:
    """Exact composite index at ``u`` of each of the
    :func:`outage_variants`, and whether its flow diverged.

    As a corrective check solves its first probe: one coupled solve of
    ``net`` at ``u``, then each variant warm-started from that base state
    (cold when the base does not converge).  The controls are applied
    once (:func:`variants_at`), and the variants are solved as one stack
    (:func:`powerflow.solve_acdc_stack`), each bit-identical to its own
    ``solve_acdc``.  Only the solved states are read: no objectives and
    no constraint report.
    """
    u = space.snap(u)
    net_u = opfcore.apply_controls(net, space, u)
    base = powerflow.solve_acdc(net_u)
    states = powerflow.solve_acdc_stack(
        variants_at(net_u, space, u, variants), net_u.plan.branches,
        warm=base if base.converged else None)
    return {k: (composite_index(state, params), not state.converged)
            for (k, (_, params)), state in zip(variants.items(), states)}


def classify(pi_value: float) -> str:
    if pi_value > 1.0:
        return "insecure"
    if pi_value > 0.0:
        return "alarm"
    return "secure"


def prediction_error(pi_pred: float, pi_exact: float) -> float | None:
    """Relative prediction error in percent; None when undefined."""
    if pi_exact == 0:
        return None
    return (pi_pred - pi_exact) / pi_exact * 100.0


# ---------------------------------------------------------------------------
# Training data


@dataclass
class TrainingSet:
    x: np.ndarray                       # one row per (sample, AC outage)
    y: np.ndarray                       # exact composite index per row
    feature_names: list[str]
    row_outage: np.ndarray              # outage id per row
    row_sample: np.ndarray              # control-sample index per row
    flagged: np.ndarray                 # rows whose flow diverged (sentinel)

    def rows(self, keep: np.ndarray) -> "TrainingSet":
        """The rows where the boolean mask ``keep`` is true."""
        return replace(self, x=self.x[keep], y=self.y[keep],
                       row_outage=self.row_outage[keep],
                       row_sample=self.row_sample[keep],
                       flagged=self.flagged[keep])


def sample_controls(space: ControlSpace, n_samples: int, width: float,
                    seed: int) -> np.ndarray:
    """Latin-hypercube control samples snapped onto discrete grids, in a
    box centred on the case point whose half-width is ``width`` of each
    control's range (``DROOP_WIDTH`` for droop slopes)."""
    unit = latin_hypercube(n_samples, len(space), seed)
    centre = space.default_vector()
    half = (np.where(np.array(space.kinds) == "droop", DROOP_WIDTH, width)
            * (space.hi - space.lo))
    lo = np.maximum(space.lo, centre - half)
    hi = np.minimum(space.hi, centre + half)
    raw = lo + unit * (hi - lo)
    return np.vstack([space.snap(row) for row in raw])


def latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """``n`` points of a randomized Latin hypercube in ``[0, 1)^d``.

    The same draws, in the same order, as SciPy's
    ``qmc.LatinHypercube(d, seed=seed).random(n)``: a uniform jitter per
    cell, then one shuffled stratum order per dimension.
    """
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - jitter) / n


def rank_correlation(a, b) -> float:
    """Spearman rank correlation of two samples (average ranks for ties);
    NaN when either sample is constant or has fewer than two values."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or np.all(a == a[0]) or np.all(b == b[0]):
        return float("nan")
    ranks = np.column_stack((average_ranks(a), average_ranks(b)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks from 1, tied values sharing the mean of their ranks."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(a)]
    ranks = np.empty(len(a))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def encode_row(net: Network, u: np.ndarray, outage_id: str) -> np.ndarray:
    one_hot = np.zeros(len(net.contingencies))
    for i, k in enumerate(net.contingencies):
        if k.branch_id == outage_id:
            one_hot[i] = 1.0
            break
    else:
        raise KeyError(f"unknown contingency id {outage_id!r}")
    return np.concatenate([one_hot, u])


def build_training_set(net: Network, controls: np.ndarray,
                       variants: dict) -> TrainingSet:
    """Simulate every AC-line outage (``variants``, the
    :func:`outage_variants` of ``net``) at each control point (row) of
    ``controls``.

    Each row pairs an outage one-hot with the control vector; the
    response is the exact post-contingency composite index of
    :func:`exact_indices` (divergent flows get the severity sentinel and
    are flagged).
    """
    space = ControlSpace(net)
    rows = [(si, k.branch_id, *index) for si, u in enumerate(controls)
            for k, index in exact_indices(net, space, u, variants).items()]
    samples, outages, y, flagged = map(np.array, zip(*rows))
    return TrainingSet(
        x=np.vstack([encode_row(net, controls[si], kid)
                     for si, kid in zip(samples, outages)]),
        y=y,
        feature_names=([f"outage:{k.branch_id}" for k in net.contingencies]
                       + list(space.names)),
        row_outage=outages, row_sample=samples, flagged=flagged)


# ---------------------------------------------------------------------------
# Lasso (cyclic coordinate descent)


def lasso_fit(x: np.ndarray, y: np.ndarray, lam: float, *,
              sigma0: np.ndarray | None = None) -> np.ndarray:
    """Minimize ``(1/N)*||y - X sigma||^2 + lam * sum|sigma|``.

    Cyclic coordinate descent with exact soft-threshold updates; expects
    standardized (or at least well-scaled) columns.  Iterates until the
    largest coordinate update is below ``LASSO_TOL``.  The updates keep
    ``X^T r`` for the residual ``r = y - X sigma`` on the Gram matrix
    ``X^T X``, so a sweep costs O(p^2) whatever the number of rows (the
    covariance updates of Friedman, Hastie and Tibshirani, J. Stat.
    Softw. 33(1), 2010).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: X {x.shape}, y {y.shape}")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    n, p = x.shape
    gram = x.T @ x                      # symmetric: row j is column j
    col_sq = gram.diagonal().tolist()
    sigma = np.zeros(p) if sigma0 is None else sigma0.astype(float).copy()
    grad = x.T @ y - gram @ sigma
    thresh = lam * n / 2.0
    for _ in range(LASSO_MAX_SWEEPS):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] <= 0:
                continue
            old = sigma[j]
            rho = grad[j] + col_sq[j] * old
            new = math_soft(rho, thresh) / col_sq[j]
            if new != old:
                grad += gram[j] * (old - new)
                sigma[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta <= LASSO_TOL:
            break
    return sigma


def math_soft(value: float, threshold: float) -> float:
    # the relative guard keeps coefficients exactly zero at the all-zero
    # penalty boundary despite rounding in the threshold product
    guard = threshold * (1.0 + 1e-12)
    if value > guard:
        return value - threshold
    if value < -guard:
        return value + threshold
    return 0.0


def lasso_objective(x, y, sigma, lam) -> float:
    r = y - x @ sigma
    return float(r @ r / len(y) + lam * np.sum(np.abs(sigma)))


def lambda_max(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty at which the all-zero coefficient vector is optimal."""
    return float(2.0 / len(y) * np.max(np.abs(x.T @ y)))


# ---------------------------------------------------------------------------
# Model wrapper: standardization, cross-validation, prediction


@dataclass
class ScreeningModel:
    """Trained predictor mapping (outage, control vector) to the index."""

    feature_names: list[str]
    sigma: np.ndarray          # coefficients on standardized features
    lam: float
    x_mean: np.ndarray
    x_scale: np.ndarray        # 1.0 for dropped (constant) columns
    active: np.ndarray         # mask of non-constant columns
    y_mean: float
    n_obs: int
    cv_table: list[tuple[float, float]] = field(default_factory=list)
    fingerprint: str = ""

    def predict_row(self, row: np.ndarray) -> float:
        z = (row - self.x_mean) / self.x_scale
        value = self.y_mean + float(z[self.active] @ self.sigma[self.active])
        return max(value, 0.0)

    def predict(self, net: Network, u: np.ndarray, k: Contingency) -> float:
        return self.predict_row(encode_row(net, u, k.branch_id))

    def to_dict(self) -> dict:
        return {
            "version": MODEL_SCHEMA_VERSION,
            "feature_names": self.feature_names,
            "sigma": self.sigma.tolist(),
            "lambda": self.lam,
            "x_mean": self.x_mean.tolist(),
            "x_scale": self.x_scale.tolist(),
            "active": self.active.astype(int).tolist(),
            "y_mean": self.y_mean,
            "n_obs": self.n_obs,
            "cv_table": [[l, s] for l, s in self.cv_table],
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScreeningModel":
        if d.get("version") != MODEL_SCHEMA_VERSION:
            raise ValueError(f"unsupported model version {d.get('version')!r}")
        return cls(
            feature_names=list(d["feature_names"]),
            sigma=np.array(d["sigma"]),
            lam=float(d["lambda"]),
            x_mean=np.array(d["x_mean"]),
            x_scale=np.array(d["x_scale"]),
            active=np.array(d["active"], dtype=bool),
            y_mean=float(d["y_mean"]),
            n_obs=int(d["n_obs"]),
            cv_table=[(float(l), float(s)) for l, s in d.get("cv_table", [])],
            fingerprint=d.get("fingerprint", ""),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True,
                                         indent=1) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScreeningModel":
        return cls.from_dict(json.loads(Path(path).read_text()))


def model_fingerprint(net: Network, space: ControlSpace) -> str:
    import hashlib
    payload = json.dumps([net.name,
                          [k.branch_id for k in net.contingencies],
                          space.names]).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def standardize(x: np.ndarray):
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    active = scale > 1e-12
    safe = np.where(active, scale, 1.0)
    return (x - mean) / safe, mean, safe, active


def fit_screening_model(net: Network, train: TrainingSet, *,
                        seed: int = 0) -> ScreeningModel:
    """Standardize, cross-validate the penalty and fit the final model.

    The penalty is chosen by k-fold cross-validation over a log grid
    below the smallest all-zero penalty; ties prefer the sparser model.
    Sentinel rows stay in the regression (their outage intercepts absorb
    them, which keeps divergent outages ranked on top).
    """
    z, mean, scale, active = standardize(train.x)
    y_mean = float(train.y.mean())
    y_c = train.y - y_mean
    za = z[:, active]

    lmax = lambda_max(za, y_c)
    grid = np.geomspace(LAMBDA_MIN_FACTOR * lmax, lmax, GRID_SIZE)[::-1]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y_c))
    scores = np.zeros(GRID_SIZE)
    for test_idx in np.array_split(order, CV_FOLDS):
        mask = np.ones(len(y_c), dtype=bool)
        mask[test_idx] = False
        sigma_warm = None
        for gi, lam_g in enumerate(grid):
            sigma_warm = lasso_fit(za[mask], y_c[mask], lam_g,
                                   sigma0=sigma_warm)
            pred = za[test_idx] @ sigma_warm
            scores[gi] += float(np.mean((pred - y_c[test_idx]) ** 2))
    scores /= CV_FOLDS
    cv_table = [(float(l), float(s)) for l, s in zip(grid, scores)]
    # the largest penalty (the grid descends) within half a percent of the
    # best score
    lam = float(grid[np.argmax(scores <= scores.min() * 1.005)])

    sigma_a = lasso_fit(za, y_c, lam)
    sigma = np.zeros(train.x.shape[1])
    sigma[active] = sigma_a
    return ScreeningModel(
        feature_names=train.feature_names, sigma=sigma, lam=lam,
        x_mean=mean, x_scale=scale, active=active, y_mean=y_mean,
        n_obs=len(train.y), cv_table=cv_table,
        fingerprint=model_fingerprint(net, ControlSpace(net)))


# ---------------------------------------------------------------------------
# Ranking and filtering


def rank_contingencies(model: ScreeningModel, net: Network, u: np.ndarray
                       ) -> list[tuple[Contingency, float, str]]:
    """``(outage, predicted index, class)`` per AC outage at ``u``, by
    descending prediction, ties by outage id."""
    entries = []
    for k in net.contingencies:
        if k.kind == "ac_line":
            pred = model.predict(net, u, k)
            entries.append((k, pred, classify(pred)))
    entries.sort(key=lambda e: (-e[1], e[0].branch_id))
    return entries


def filter_contingencies(model: ScreeningModel, net: Network,
                         u: np.ndarray) -> list[Contingency]:
    """Critical set: predicted-insecure AC lines, in rank order, plus all
    DC lines."""
    critical = [k for k, _, cls in rank_contingencies(model, net, u)
                if cls == "insecure"]
    return critical + [k for k in net.contingencies if k.kind == "dc_line"]
