"""K-means, soft assignments, Hungarian label mapping, and external metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DataError, RangeError
from .pairs import row_blocks

VAR_FLOOR = 1e-6
# Lloyd iterations a kmeans fit runs at most before it stops unconverged
_MAX_ITER = 300


@dataclass(frozen=True)
class ClusterModel:
    """The cluster centers of a k-means fit."""

    centers: np.ndarray    # (K, d)


@dataclass(frozen=True)
class SoftAssignment:
    """Row-stochastic N x K assignment matrix P with its derived hard labels.

    P is what the clustering head hands its consumers: xi_select reads its
    confidences, and dgae's KL(Q||P) reads it with its kernel. A Student-t
    assignment keeps the kernel it normalized as (z, centers, s), the
    embedding (N x d, not copied), the centers (K x d) and
    s = (1 + ||z_i - mu_k||^2)^-1 (N x K); a reader rebuilds z_i - mu_k
    for the rows it reads, so no N x K x d array outlives the call that
    builds it. kernel is None for other assignments.
    """

    matrix: np.ndarray
    kernel: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2:
            raise DataError("assignment matrix must be 2-D")
        if np.any(m < -1e-12):
            raise DataError("assignment entries must be >= 0")
        if not np.allclose(m.sum(axis=1), 1.0, atol=1e-9):
            raise DataError("assignment rows must sum to 1")

    def labels(self) -> np.ndarray:
        """Hard labels y(P): per-row argmax, ties to the lowest index."""
        return np.argmax(self.matrix, axis=1).astype(np.int64)


def _squared_distances(z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (N, K); z_i - mu_k is built
    one row block (row_blocks) at a time."""
    n, k = z.shape[0], centers.shape[0]
    out = np.empty((n, k))
    for r0, r1 in row_blocks(n, k * centers.shape[1]):
        diff = z[r0:r1, None, :] - centers[None, :, :]
        np.einsum("nkd,nkd->nk", diff, diff, out=out[r0:r1])
    return out


def cluster_means(z: np.ndarray, labels: np.ndarray, k: int) -> tuple:
    """(means, counts) of z's rows per cluster id in [0, K), one np.bincount per column from
    0.0 in row order; rows labelled K or above are ignored, an empty cluster's mean is 0."""
    counts = np.bincount(labels, minlength=k)[:k]
    sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in z.T], axis=1)[:k]
    return sums / np.maximum(counts, 1)[:, None], counts


def _variances_for(z: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-cluster, per-dimension variances of z, floored at VAR_FLOOR;
    clusters with fewer than two members carry all-floor variances."""
    var = np.full_like(centers, VAR_FLOOR)
    for k in range(centers.shape[0]):
        members = z[labels == k]
        if members.shape[0] >= 2:
            var[k] = np.maximum(members.var(axis=0), VAR_FLOOR)
    return var


def kmeans(z: np.ndarray, k: int, seed: int):
    """Lloyd's algorithm with k-means++ seeding.

    Deterministic for a fixed seed. Empty clusters are reseeded to the
    point farthest from its assigned center.

    Each assignment step reads approx = ||z||^2 - 2 z.c + ||c||^2 from one
    BLAS product, yet gives the labels the exact distances
    (_squared_distances) give, at any BLAS thread count. With u the unit
    roundoff, approx and the exact distance to center c lie within
    (2d+2)u and (d+2)u times (||z_i|| + ||c||)^2 of the true one (to first
    order, in any summation order), so they differ by at most (3d+4)u of
    it. Row i keeps the argmin of approx only when no other center lies
    within best + slack_i, where slack_i has two terms:

    * 16 (d+2) u (||z_i|| + max_k ||c_k||)^2, above twice that gap;
    * (d+2) times the smallest normal double, above the absolute error
      of the products that underflow.

    Every other row (ties, overflow, underflow) takes the argmin of the
    exact distances. With no empty cluster, the centers are cluster_means.
    numpy's axis-0 mean sums a single column pairwise, so at d = 1 (not d >= 2)
    it may differ from them; that is why _variances_for keeps ndarray.var.

    Returns
    -------
    (ClusterModel, ndarray)
        Fitted centers and the hard labels.
    """
    z = np.asarray(z, dtype=np.float64)
    n, d = z.shape
    if k < 1:
        raise RangeError(f"kmeans needs K >= 1, got K={k}")
    if n < k:
        raise RangeError(f"kmeans needs N >= K, got N={n}, K={k}")
    if not np.isfinite(z).all():
        raise DataError("kmeans needs a finite embedding")
    rng = np.random.default_rng(seed)

    # k-means++ seeding: D^2-weighted draws
    centers = np.empty((k, d), dtype=np.float64)
    centers[0] = z[rng.integers(0, n)]
    d2 = np.sum((z - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = z[idx]
        d2 = np.minimum(d2, np.sum((z - centers[j]) ** 2, axis=1))

    # approx = [-2C | ||c||^2 | 1] @ [z^T; 1; ||z||^2], a (K, N) product
    zz = np.einsum("nd,nd->n", z, z)
    lifted = np.vstack([z.T, np.ones(n), zz])
    z_norm = np.sqrt(zz)
    unit = np.finfo(np.float64).eps / 2.0
    rel, floor = 16 * (d + 2) * unit, (d + 2) * np.finfo(np.float64).tiny

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_MAX_ITER):
        cc = np.einsum("kd,kd->k", centers, centers)
        approx = np.hstack([-2.0 * centers, cc[:, None], np.ones((k, 1))]) @ lifted
        slack = rel * (z_norm + np.sqrt(cc.max())) ** 2 + floor
        near = approx <= approx.min(axis=0) + slack
        new_labels = np.argmax(near, axis=0)
        unsure = np.flatnonzero(np.count_nonzero(near, axis=0) != 1)
        if unsure.size:
            new_labels[unsure] = np.argmin(_squared_distances(z[unsure], centers), axis=1)
        # lifted[:d].T is z with each column contiguous, which bincount reads without a copy
        means, counts = cluster_means(lifted[:d].T, new_labels, k)
        if counts.all():
            centers = means
        else:
            dist = _squared_distances(z, centers)
            for j in range(k):
                members = new_labels == j
                if not members.any():
                    far = int(np.argmax(dist[np.arange(n), new_labels]))
                    centers[j] = z[far]
                    new_labels[far] = j
                else:
                    centers[j] = z[members].mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels

    return ClusterModel(centers), labels


def gaussian_soft_assign(z: np.ndarray, centers: np.ndarray,
                         labels: np.ndarray) -> SoftAssignment:
    """Softmax of the negative half Mahalanobis distances to each center.

    p'_ij = exp(-0.5 (z_i-mu_j)^T Sigma_j^-1 (z_i-mu_j)) / sum_j' exp(...)
    with a per-row max shift for overflow safety. Sigma_j is the diagonal
    of cluster j's variances under labels (one id in [0, K) per row of z),
    floored at VAR_FLOOR so no kernel divides by zero. z_i - mu_j and its
    scaled copy are built one row block (row_blocks) at a time into the
    (N, K) log-kernel, as _squared_distances builds its distances.
    """
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if z.shape[1] != centers.shape[1]:
        raise DataError("embedding dim does not match the centers")
    if labels.shape != (z.shape[0],):
        raise DataError(f"labels shape {labels.shape} does not match Z rows {z.shape[0]}")
    inverse = 1.0 / _variances_for(z, centers, labels)
    log_kernel = np.empty((z.shape[0], centers.shape[0]))
    for r0, r1 in row_blocks(z.shape[0], centers.size):
        diff = z[r0:r1, None, :] - centers[None, :, :]
        np.einsum("nkd,nkd->nk", diff * inverse[None, :, :], diff, out=log_kernel[r0:r1])
    log_kernel *= -0.5
    log_kernel -= log_kernel.max(axis=1, keepdims=True)
    p = np.exp(log_kernel)
    p /= p.sum(axis=1, keepdims=True)
    return SoftAssignment(p)


def student_t_assign(z: np.ndarray, centers: np.ndarray) -> SoftAssignment:
    """Student's t (DEC-style) soft assignment.

    p_ij = (1+||z_i-mu_j||^2)^-1 / sum_j' (1+||z_i-mu_j'||^2)^-1,
    returned with its kernel (z, centers, s) (see SoftAssignment). The
    distances come one row block at a time (_squared_distances), so the
    call holds at most one row block (row_blocks) of z_i - mu_j.
    """
    z = np.asarray(z, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    s = 1.0 / (1.0 + _squared_distances(z, centers))
    p = s / s.sum(axis=1, keepdims=True)
    return SoftAssignment(p, kernel=(z, centers, s))


def _contingency(truth: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    """K x K counts w[t, p] of nodes with truth t and prediction p."""
    return np.bincount(truth * k + pred, minlength=k * k).reshape(k, k)


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """col4row of a minimum-cost perfect matching of a square cost matrix.

    Shortest augmenting paths (Crouse 2016), transcribed from scipy's
    rectangular LSAP solver for the square case, in its order and with its
    tie rules: `remaining` is filled in reverse (a constant matrix gives
    the identity) and shrunk by swap-remove, and at an equal lowest path
    cost a free column wins. It therefore picks the same columns as
    scipy.optimize.linear_sum_assignment, ties included.
    """
    c = np.asarray(cost, dtype=np.float64).tolist()
    n = len(c)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # Dijkstra on reduced costs from row cur to the nearest free column
        short = [math.inf] * n
        rows, cols = [], []
        remaining = list(range(n - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows.append(i)
            ci, ui = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < short[j]:
                    path[j] = i
                    short[j] = r
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    lowest = short[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - short[col4row[i]]
        for j in cols:
            v[j] -= min_val - short[j]
        # flip the path's matched and unmatched edges, from the sink back to cur
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.int64)


def hungarian_map(truth_labels: np.ndarray, pred_labels: np.ndarray, k: int) -> np.ndarray:
    """Best bijection pi from predicted cluster ids onto truth ids.

    pi maximizes sum_i 1[pi(pred_i) == truth_i], solved as a linear
    assignment on the K x K contingency matrix.

    Returns
    -------
    ndarray of int, length K
        pi[pred_id] = truth_id.
    """
    truth = np.asarray(truth_labels, dtype=np.int64)
    pred = np.asarray(pred_labels, dtype=np.int64)
    if truth.shape != pred.shape:
        raise DataError("label vectors must have equal length")
    if truth.min(initial=0) < 0 or truth.max(initial=0) >= k:
        raise DataError("truth labels outside [0, K)")
    if pred.min(initial=0) < 0 or pred.max(initial=0) >= k:
        raise DataError("pred labels outside [0, K)")
    w = _contingency(truth, pred, k)
    # rows = truth ids, cols = pred ids; maximize matched mass
    pi = np.empty(k, dtype=np.int64)
    pi[_min_cost_assignment(w.max() - w)] = np.arange(k)
    return pi


def relabel_truth(truth_labels: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Express truth labels in the predicted-cluster index space (pi^-1)."""
    inv = np.empty_like(pi)
    inv[pi] = np.arange(pi.shape[0])
    return inv[np.asarray(truth_labels, dtype=np.int64)]


def _entropy(counts: np.ndarray) -> float:
    n = counts.sum()
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log(p)))


def evaluate_clustering(pred_labels: np.ndarray, truth_labels: np.ndarray, k: int) -> dict:
    """External clustering metrics against ground truth.

    Returns
    -------
    dict
        acc: best-mapping accuracy (Hungarian); nmi: mutual information
        normalized by sqrt(H(pred) H(truth)), natural logs; ari: adjusted
        Rand index; degenerate: True when either labeling is single-class,
        in which case nmi is reported as 0.
    """
    pred = np.asarray(pred_labels, dtype=np.int64)
    truth = np.asarray(truth_labels, dtype=np.int64)
    if pred.shape != truth.shape:
        raise DataError("label vectors must have equal length")
    n = pred.shape[0]
    pi = hungarian_map(truth, pred, k)
    acc = float(np.mean(pi[pred] == truth))

    w = _contingency(truth, pred, k)
    row = w.sum(axis=1)
    col = w.sum(axis=0)
    h_truth = _entropy(row)
    h_pred = _entropy(col)
    degenerate = h_truth == 0.0 or h_pred == 0.0
    if degenerate:
        nmi = 0.0
    else:
        mask = w > 0
        nz = w[mask].astype(np.float64)
        outer = np.outer(row, col)[mask].astype(np.float64)
        mi = float(np.sum(nz / n * np.log(nz * n / outer)))
        nmi = mi / np.sqrt(h_truth * h_pred)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(w.astype(np.float64)).sum()
    sum_row = comb2(row.astype(np.float64)).sum()
    sum_col = comb2(col.astype(np.float64)).sum()
    expected = sum_row * sum_col / comb2(float(n)) if n >= 2 else 0.0
    denom = 0.5 * (sum_row + sum_col) - expected
    ari = 1.0 if denom == 0.0 else float((sum_ij - expected) / denom)

    return {"acc": acc, "nmi": float(nmi), "ari": ari, "degenerate": bool(degenerate)}


def build_cluster_graph(labels: np.ndarray, k: int) -> sp.csr_matrix:
    """Block matrix with a_ij = 1/|C_k| for co-members of cluster k.

    The diagonal is included (a_ii = 1/|C_k|), so each row of a block
    sums to 1. Used both for the predicted-label clustering graph and
    the ground-truth supervision graph.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise DataError("labels outside [0, K)")
    n = labels.shape[0]
    # Q diag(1/|C_k|) Q^T with Q the N x K one-hot of labels (empty clusters floored at 1)
    q = sp.csr_matrix((np.ones(n), labels, np.arange(n + 1)), shape=(n, k))
    out = (q @ sp.diags(1.0 / np.maximum(np.bincount(labels, minlength=k), 1)) @ q.T).tocsr()
    out.sort_indices()
    return out
