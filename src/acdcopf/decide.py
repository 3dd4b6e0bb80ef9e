"""Decision analysis on the final archive.

Fuzzy C-means splits the trade-off front into clusters (two by default,
one per objective emphasis); grey relational projection then scores each
cluster's members against positive and negative ideal references, and the
highest-scoring member of each cluster is reported as that cluster's best
compromise solution.  The fuzzy C-means exponent ``FCM_FUZZINESS``, its
stopping rule and the grey resolution coefficient are module constants.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

FCM_FUZZINESS = 2.0            # fuzzy C-means membership exponent m > 1
FCM_TOL = 1e-9                 # fuzzy C-means: stop at this loss change
FCM_MAX_ITER = 300             # or after this many updates
GREY_RESOLUTION = 0.5          # grey relational distinguishing coefficient


@dataclass
class FcmResult:
    memberships: np.ndarray    # 1-per-row soft assignments, rows sum to 1
    centers: np.ndarray
    loss_history: list[float]


def _kmeanspp_init(points: np.ndarray, n_clusters: int,
                   rng: np.random.Generator) -> np.ndarray:
    centers = [points[rng.integers(len(points))]]
    while len(centers) < n_clusters:
        d2 = np.min([np.sum((points - c) ** 2, axis=1) for c in centers],
                    axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(len(points))])
            continue
        centers.append(points[rng.choice(len(points), p=d2 / total)])
    return np.array(centers)


def fcm_cluster(points: np.ndarray, n_clusters: int = 2,
                seed: int = 0) -> FcmResult:
    """Fuzzy C-means with alternating membership/center updates.

    Memberships of each point sum to one; a point coinciding with a
    center receives hard membership there.  Stops when the loss change
    falls to ``FCM_TOL``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if n < n_clusters:
        raise ValueError(f"{n} points cannot form {n_clusters} clusters")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(points, n_clusters, rng)

    exponent = 2.0 / (FCM_FUZZINESS - 1.0)
    loss_prev = np.inf
    history: list[float] = []
    for _ in range(FCM_MAX_ITER):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        zero = d2 < 1e-24
        mu = np.empty((n, n_clusters))
        for i in range(n):
            if np.any(zero[i]):
                mu[i] = 0.0
                mu[i, np.argmax(zero[i])] = 1.0
            else:
                ratio = (d2[i][:, None] / d2[i][None, :]) ** (exponent / 2.0)
                mu[i] = 1.0 / ratio.sum(axis=1)
        w = mu ** FCM_FUZZINESS
        centers = (w.T @ points) / w.sum(axis=0)[:, None]
        loss = float(np.sum(w * d2))
        history.append(loss)
        if abs(loss_prev - loss) <= FCM_TOL:
            break
        loss_prev = loss
    return FcmResult(memberships=mu, centers=centers, loss_history=history)


# ---------------------------------------------------------------------------
# Grey relational projection


def grp_rank(points: np.ndarray, weights=(0.5, 0.5)) -> np.ndarray:
    """Priority membership ``d`` in [0, 1] of each solution within one
    cluster.

    Objectives (minimized) are min-max normalized within the cluster; a
    constant objective gets a unit denominator so all its coefficients
    tie.  Grey relational coefficients against the componentwise best
    and worst are projected with squared-weight projection, and
    ``d = (V0-V-)^2 / ((V0-V-)^2 + (V0-V+)^2)`` scores each solution.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise ValueError("empty cluster")
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    denom = np.where(span > 0, span, 1.0)
    # benefit orientation: 1 is best because objectives are minimized
    z = (points.max(axis=0) - points) / denom

    z_best = z.max(axis=0)
    z_worst = z.min(axis=0)

    def coefficients(reference: np.ndarray) -> np.ndarray:
        delta = np.abs(z - reference)
        d_max = delta.max()
        if d_max <= 0:
            return np.ones_like(delta)
        d_min = delta.min()
        return ((d_min + GREY_RESOLUTION * d_max)
                / (delta + GREY_RESOLUTION * d_max))

    proj = weights ** 2 / np.sqrt(np.sum(weights ** 2))
    v_plus = coefficients(z_best) @ proj
    v_minus = coefficients(z_worst) @ proj
    v_zero = float(np.sum(proj))

    num = (v_zero - v_minus) ** 2
    den = num + (v_zero - v_plus) ** 2
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.5)


# ---------------------------------------------------------------------------
# Best compromise selection


@dataclass
class BcsSelection:
    cluster: int
    member_index: int          # index into the archive member list
    d: float
    memberships: np.ndarray    # FCM membership row of the chosen member


def select_bcs(objectives: np.ndarray, n_clusters: int = 2,
               weights=(0.5, 0.5), seed: int = 0) -> list[BcsSelection]:
    """Cluster the archive objectives and pick each cluster's highest-d
    member (ties broken by lower first objective).

    Archives smaller than the cluster count fall back to a single
    cluster with a warning; one-cluster FCM gives every member
    membership 1.
    """
    objectives = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = len(objectives)
    if n == 0:
        raise ValueError("empty archive")
    if n < n_clusters:
        log.warning("archive of %d smaller than %d clusters; using one",
                    n, n_clusters)
        n_clusters = 1

    lo = objectives.min(axis=0)
    span = objectives.max(axis=0) - lo
    norm = (objectives - lo) / np.where(span > 0, span, 1.0)
    fcm = fcm_cluster(norm, n_clusters=n_clusters, seed=seed)
    assignment = np.argmax(fcm.memberships, axis=1)

    selections: list[BcsSelection] = []
    for c in range(n_clusters):
        idx = np.flatnonzero(assignment == c)
        if idx.size == 0:
            log.warning("cluster %d is empty; skipped", c)
            continue
        d = grp_rank(objectives[idx], weights=weights)
        best_d = d.max()
        tied = idx[np.abs(d - best_d) < 1e-15]
        chosen = int(tied[np.argmin(objectives[tied, 0])])
        selections.append(BcsSelection(
            cluster=c, member_index=chosen,
            d=float(best_d), memberships=fcm.memberships[chosen]))
    return selections
