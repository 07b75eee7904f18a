"""Gradient-alignment metrics, identity residuals, and run traces.

Two global cosines track the health of pseudo-supervised training:

* lambda_fr compares the clustering-loss parameter gradient under the
  model's own (pseudo-label) targets against the gradient under
  ground-truth targets. Low values mean the pseudo-supervision pulls the
  encoder away from where real supervision would.
* lambda_fd compares the gradient of L_C(Z, A), the Laplacian term of
  Proposition 1's split of the reconstruction loss, toward the
  current self-supervision graph and toward the ground-truth-rewired
  target graph. Low values mean the graph being reconstructed pulls the
  encoder away from the similarities the clustering needs.

Both use the plain (unweighted) loss forms so they stay anchored to the
decomposition identities checked by decomposition_residuals. Both read
what the training epoch already holds: the caches of its eval-mode encode
(Z and its weights), dgae's Student-t P, and the self-supervision graph
with its edge keys; neither encodes, reads the model or reads the
encode's pair pass. A standalone call passes encode(model,
normalize_adjacency(graph, "propagation"), graph.x)[1].
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .clustering import (SoftAssignment, build_cluster_graph, cluster_means, hungarian_map,
                         relabel_truth)
from .errors import DataError, StateError
from .graphio import AttributedGraph, key_pairs, upper_keys, write_text_atomic
from .linalg import Cosine, cosine
from .models import backprop_theta, centroid_kmeans_loss, dgae_clus_loss, flatten_theta
from .operators import SelfSupervisionGraph
from .pairs import kmeans_grad_z, laplacian_quadratic, recon_loss, regularizer_R


def _cluster_mean_grad(z: np.ndarray, labels: np.ndarray, rows: np.ndarray | None,
                       k: int) -> np.ndarray:
    """kmeans_grad_z of the cluster graph of labels restricted to rows.

    That graph's rows sum to 1, so the gradient is 2 (z_i - mean of z over
    i's cluster within rows) for i in rows (all nodes when rows is None)
    and 0 elsewhere: O(N d), where the graph itself holds sum_k |C_k|^2 entries.
    """
    idx = np.arange(z.shape[0]) if rows is None else np.asarray(rows, dtype=np.int64)
    z_idx, lab = z[idx], labels[idx]
    means, _ = cluster_means(z_idx, lab, k)
    grad = np.zeros_like(z)
    grad[idx] = 2.0 * (z_idx - means[lab])
    return grad


def lambda_fr(graph: AttributedGraph, pred: np.ndarray, caches: dict,
              omega: np.ndarray | None = None, *, assignment: SoftAssignment | None = None,
              pseudo_grad_z: np.ndarray | None = None) -> tuple[Cosine, Cosine]:
    """Cosines between pseudo-supervised and supervised clustering gradients.

    The pseudo side uses pred, the hard labels the model actually trains
    on, restricted to the node indices omega when given; the supervised
    side uses Hungarian-mapped ground truth over all nodes. caches are an
    eval-mode encode's, with Z = caches["pairs"].z and the weights the
    gradients are taken at. dgae also needs assignment, the Student-t
    assignment P = student_t_assign(Z, centers) its epoch builds, and may
    hand over pseudo_grad_z, the pseudo side's gradient w.r.t. Z (its
    step's KL gradient over omega, or over every node when omega is None).

    Returns (value, baseline): the baseline's pseudo side covers every
    node, so it is value itself when omega is None or holds every node
    (omega's indices are distinct, as xi_select returns them).
    """
    labels = graph.labels
    if labels is None:
        raise DataError("lambda_fr needs ground-truth labels")
    z = caches["pairs"].z
    dgae = caches["arch"] == "dgae"
    if dgae and assignment is None:
        raise StateError("dgae's lambda_fr needs the epoch's Student-t assignment")
    k = graph.k_clusters

    def theta_grad(target_labels, rows, grad_z=None):
        # the gradient w.r.t. Z of the clustering loss the arch trains, toward target_labels
        if grad_z is None:
            grad_z = (dgae_clus_loss(assignment, target_labels, rows=rows, grad_centers=False)[1]
                      if dgae else _cluster_mean_grad(z, target_labels, rows, k))
        return flatten_theta(backprop_theta(caches, grad_z))

    q_prime_labels = relabel_truth(labels, hungarian_map(labels, pred, k))
    g_sup = theta_grad(q_prime_labels, None)
    value = cosine(theta_grad(pred, omega, pseudo_grad_z), g_sup)
    if omega is None or omega.size == z.shape[0]:
        return value, value
    return value, cosine(theta_grad(pred, None), g_sup)


def lambda_fd(graph: AttributedGraph, a_cs: SelfSupervisionGraph,
              a_sup_target: SelfSupervisionGraph, caches: dict) -> tuple[Cosine, Cosine]:
    """Cosines between the gradients of L_C(Z, A) toward the current
    self-supervision graph and toward the supervised target graph.

    L_C = laplacian_quadratic(Z, A) is the Laplacian term of Proposition
    1's split of the plain reconstruction loss. The split's other term,
    L_R, holds the sigmoid(Z Z^T) Z part of every reconstruction
    gradient, which is the same for every target, beside a degree term.
    L_C's gradient is kmeans_grad_z, O(E d), so no pair pass is read.
    caches are as in lambda_fr. Returns (value, baseline): the baseline's
    gradient is toward graph.adjacency instead of a_cs, so it is value
    itself when a_cs adds and deletes no edge.
    """
    z = caches["pairs"].z

    def theta_grad(a: sp.spmatrix) -> np.ndarray:
        return flatten_theta(backprop_theta(caches, kmeans_grad_z(z, a)))

    g_sup = theta_grad(a_sup_target.adjacency)
    value = cosine(theta_grad(a_cs.adjacency), g_sup)
    if a_cs.added_keys.size == 0 and a_cs.deleted_keys.size == 0:
        return value, value
    return value, cosine(theta_grad(graph.adjacency), g_sup)


def decomposition_residuals(z: np.ndarray, a_self: sp.spmatrix,
                            labels_pred: np.ndarray, gamma: float, k: int) -> dict:
    """Relative residuals of the three loss identities, each computed
    from two independent code paths.

    prop1: plain pairwise BCE == Laplacian quadratic + remainder.
    prop2: Laplacian form of the cluster graph == centroid k-means.
    thm1:  clustering + gamma * BCE == combined-graph Laplacian + remainder.
    """
    z = np.asarray(z, dtype=np.float64)
    labels_pred = np.asarray(labels_pred, dtype=np.int64)
    a = a_self.tocsr()

    bce = recon_loss(z, a, weighting="plain")
    split = laplacian_quadratic(z, a) + regularizer_R(z, a)
    prop1 = abs(bce - split) / (1.0 + abs(bce))

    a_clus = build_cluster_graph(labels_pred, k)
    lap_form = laplacian_quadratic(z, a_clus)
    centroid_form = centroid_kmeans_loss(z, labels_pred, k)
    prop2 = abs(lap_form - centroid_form) / (1.0 + abs(centroid_form))

    lhs = centroid_form + gamma * bce
    combined = (a_clus + gamma * a).tocsr()
    rhs = laplacian_quadratic(z, combined) + gamma * regularizer_R(z, a)
    thm1 = abs(lhs - rhs) / (1.0 + abs(lhs))

    return {"prop1_rel": float(prop1), "prop2_rel": float(prop2), "thm1_rel": float(thm1)}


def graph_evolution_stats(a_cs: SelfSupervisionGraph, labels: np.ndarray) -> dict:
    """True/false link counts of the evolved graph, split by provenance."""
    labels = np.asarray(labels, dtype=np.int64)
    n = a_cs.adjacency.shape[0]

    def split(keys: np.ndarray) -> tuple:
        u, v = key_pairs(keys, n).T
        same = labels[u] == labels[v]
        return int(same.sum()), int((~same).sum())

    edges = upper_keys(a_cs.adjacency)
    links_true, links_false = split(edges)
    added_true, added_false = split(a_cs.added_keys)
    deleted_true, deleted_false = split(a_cs.deleted_keys)
    return {
        "links_total": int(edges.size),
        "links_true": links_true,
        "links_false": links_false,
        "links_added_true": added_true,
        "links_added_false": added_false,
        "links_deleted_true": deleted_true,
        "links_deleted_false": deleted_false,
    }


TRACE_COLUMNS = (
    "epoch", "lambda_fr", "lambda_fr_degenerate", "lambda_fr_baseline",
    "lambda_fd", "lambda_fd_degenerate", "lambda_fd_baseline",
    "omega_size", "acc_all", "acc_omega", "acc_complement", "nmi", "ari",
    "links_total", "links_true", "links_false",
    "links_added_true", "links_added_false",
    "links_deleted_true", "links_deleted_false",
    "l_total", "l_clus", "l_bce", "l_C_self", "l_R_self", "l_C_clus",
    "gamma", "wall_time",
)


@dataclass
class DiagnosticTrace:
    """Per-epoch training record with a fixed CSV column order."""

    rows: list = field(default_factory=list)

    def append(self, **kwargs) -> None:
        unknown = set(kwargs) - set(TRACE_COLUMNS)
        if unknown:
            raise DataError(f"unknown trace columns: {sorted(unknown)}")
        self.rows.append({col: kwargs.get(col) for col in TRACE_COLUMNS})

    def column(self, name: str) -> list:
        if name not in TRACE_COLUMNS:
            raise DataError(f"unknown trace column {name!r}")
        return [row[name] for row in self.rows]

    def to_csv(self, path) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(TRACE_COLUMNS)
        for row in self.rows:
            writer.writerow(["" if row[c] is None else row[c] for c in TRACE_COLUMNS])
        write_text_atomic(path, buf.getvalue())
