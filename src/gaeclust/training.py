"""Clustering-phase training loop with the reliable-set rewiring schedule.

The loop alternates plain gradient steps with two periodic refreshes:
every m1 epochs the reliable set is re-sampled from the current
assignment confidences, and every m2 epochs the self-supervision graph
is rebuilt around the centroid nodes. gae/vgae variants keep training
pure reconstruction against the evolving graph; dgae adds the
assignment-sharpening divergence restricted to reliable rows. The run
stops at the epoch cap or as soon as the reliable set covers the
configured fraction of the nodes.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from .clustering import (SoftAssignment, evaluate_clustering, hard_target, hungarian_map,
                         kmeans, onehot_assignment, student_t_assign)
from .diagnostics import DiagnosticTrace, graph_evolution_stats, lambda_fd, lambda_fr
from .errors import StateError, TrainingError
from .graphio import AttributedGraph, normalize_adjacency
from .linalg import AdamState, adam_step
from .models import (GaeModel, TrainConfig, backprop_theta, centroid_kmeans_loss,
                     dgae_clus_loss, encode, feature_operand, laplacian_quadratic,
                     recon_grad_z, recon_loss, reconstruction_step, regularizer_R)
from .operators import (SelfSupervisionGraph, build_supervised_target, compute_centroid_nodes,
                        passthrough_graph, upsilon_transform, xi_select)


def model_assignment(model: GaeModel, z: np.ndarray, k: int, seed: int):
    """Current cluster assignment of the embedding.

    dgae reads its own trainable centers (soft Student-t rows); the
    reconstruction-only architectures run k-means and return the hard
    labels together with the fitted ClusterModel so confidences can be
    rebuilt downstream.

    Returns
    -------
    (SoftAssignment, ClusterModel or None)
    """
    if model.arch == "dgae":
        if model.centers is None:
            raise StateError("dgae model has no cluster centers; run init or train_joint first")
        return student_t_assign(z, model.centers), None
    cm, labels = kmeans(z, k, seed)
    return onehot_assignment(labels, k), cm


def _dgae_step(model: GaeModel, caches: dict, z: np.ndarray, p: SoftAssignment,
               a_cs: SelfSupervisionGraph, rows: np.ndarray, gamma: float):
    """One Adam step on KL(Q||P) over the given rows plus gamma times the
    pos-weighted reconstruction of the self-supervision graph, read from
    the pair pass in caches. p is the Student-t assignment of z to the
    model's centers (the epoch's model_assignment). Returns (total, l_clus,
    l_bce)."""
    q = hard_target(p)
    if rows.size:
        l_clus, grad_z, grad_centers = dgae_clus_loss(p, q, z, model.centers, rows=rows)
    else:
        l_clus = 0.0
        grad_z = np.zeros_like(z)
        grad_centers = np.zeros_like(model.centers)
    l_bce = None
    if gamma > 0.0 and a_cs.adjacency.nnz > 0:
        pairs = caches["pairs"]
        l_bce = recon_loss(pairs, a_cs.adjacency, weighting="pos_weighted")
        grad_z = grad_z + gamma * recon_grad_z(pairs, a_cs.adjacency, weighting="pos_weighted")
    grads = backprop_theta(model, caches, grad_z)
    grads["centers"] = grad_centers
    params = dict(model.weights)
    params["centers"] = model.centers
    updated = adam_step(model.adam, params, grads)
    model.centers = updated.pop("centers")
    model.weights = updated
    total = l_clus + (gamma * l_bce if l_bce is not None else 0.0)
    if not np.isfinite(total):
        raise TrainingError("clustering loss diverged (non-finite)")
    return total, l_clus, l_bce


def train_joint(model: GaeModel, graph: AttributedGraph, cfg: TrainConfig, *,
                seed: int = 0, a_prop: sp.csr_matrix | None = None):
    """Run the clustering phase on a pretrained model.

    seed seeds every k-means fit of the run; a_prop, when given, is the
    graph's propagation matrix, which saves normalizing it again.

    Returns
    -------
    (GaeModel, DiagnosticTrace, dict)
        The trained model, the per-epoch trace, and a run-info dict with
        stop_reason ("epoch_cap" or "omega_converged"), epochs_run,
        wall_time_s, omega_sizes ([epoch, size] at each re-sampling),
        empty_omega_epochs, metrics (None without labels),
        pred_labels, and the final self_supervision graph and omega (the
        sorted int64 indices of the last reliable set).
    """
    x = feature_operand(graph.features)
    n = graph.n_nodes
    k = graph.k_clusters
    truth = graph.labels
    arch = model.arch
    base = cfg.ablation.split(":")[0]
    delay = cfg.correction_delay
    if a_prop is None:
        a_prop = normalize_adjacency(graph, "propagation")

    # the clustering phase gets a fresh optimizer, as in pretraining
    model.adam = AdamState(lr=cfg.lr)

    # every epoch, the diagnostics, l_R_self and the gae and dgae steps read
    # this eval-mode encode and its one pair pass (swept only if one of them
    # needs it); it is redone after each step, and the last one is evaluated
    z_eval, caches = encode(model, a_prop, x, training=False)
    if arch == "dgae" and model.centers is None:
        model.centers = kmeans(z_eval, k, seed)[0].centers.copy()

    trace = DiagnosticTrace()
    all_nodes = np.arange(n, dtype=np.int64)
    omega = all_nodes
    a_cs = passthrough_graph(graph.adjacency)
    xi_on = cfg.rethink and base != "no_xi"
    upsilon_on = cfg.rethink and base != "no_upsilon"
    # the protection ablation rewires once, around every node, then keeps that graph
    protect = base == "fd_protection_single_step"
    alpha1 = 0.0 if base == "no_alpha1" else cfg.alpha1
    alpha2 = 0.0 if base == "no_alpha2" else cfg.alpha2

    omega_sizes = []
    empty_omega_epochs = 0
    stop_reason = "epoch_cap"
    t0 = time.perf_counter()

    for epoch in range(cfg.train_epochs):
        active = cfg.rethink and epoch >= delay
        phase = epoch - delay
        p_pred, cm_pred = model_assignment(model, z_eval, k, seed)

        # periodic operator refreshes (reliable set first, then rewiring)
        xi_due = active and xi_on and phase % cfg.m1 == 0
        ups_due = active and upsilon_on and (phase == 0 if protect else phase % cfg.m2 == 0)
        converged = False
        if xi_due:
            omega = xi_select(z_eval, p_pred, cm_pred, alpha1, alpha2)
            omega_sizes.append([epoch, int(omega.size)])
            converged = omega.size >= cfg.convergence_fraction * n
        if ups_due:
            src = omega if xi_on and not protect else all_nodes
            if src.size > 0:
                pi = compute_centroid_nodes(z_eval, p_pred, src, k)
                a_cs = upsilon_transform(graph.adjacency, p_pred, src, pi,
                                         allow_add=base != "no_add_edge",
                                         allow_drop=base != "no_drop_edge")
        if active and omega.size == 0:
            empty_omega_epochs += 1

        # metrics and diagnostics reflect the state at the start of the epoch
        pred = p_pred.labels()
        row = {"epoch": epoch, "omega_size": int(omega.size), "gamma": cfg.gamma}
        if truth is not None:
            scores = evaluate_clustering(pred, truth, k)
            row.update(acc_all=scores["acc"], nmi=scores["nmi"], ari=scores["ari"])
            hit = hungarian_map(truth, pred, k)[pred] == truth
            reliable = np.isin(all_nodes, omega)
            for col, sel in (("acc_omega", hit[reliable]), ("acc_complement", hit[~reliable])):
                row[col] = float(np.mean(sel)) if sel.size else None
            row.update(graph_evolution_stats(a_cs, truth))
            if epoch % cfg.diag_stride == 0:
                fr, fr_base = lambda_fr(model, graph, p_pred,
                                        omega=omega if active and xi_on else None,
                                        encoded=(z_eval, caches))
                a_sup = build_supervised_target(graph.adjacency, truth, z_eval, k)
                fd, fd_base = lambda_fd(model, graph, a_cs, a_sup, encoded=(z_eval, caches))
                row.update(lambda_fr=fr.value, lambda_fr_degenerate=fr.degenerate,
                           lambda_fr_baseline=fr_base.value,
                           lambda_fd=fd.value, lambda_fd_degenerate=fd.degenerate,
                           lambda_fd_baseline=fd_base.value)
        if epoch % cfg.diag_stride == 0:
            row.update(l_C_self=laplacian_quadratic(z_eval, a_cs.adjacency),
                       l_R_self=regularizer_R(caches["pairs"], a_cs.adjacency),
                       l_C_clus=centroid_kmeans_loss(z_eval, pred, k))

        # gradient step
        if arch == "dgae":
            total, l_clus, l_bce = _dgae_step(model, caches, z_eval, p_pred, a_cs,
                                              omega, cfg.gamma)
            row.update(l_total=total, l_clus=l_clus, l_bce=l_bce)
        else:
            # a vgae step draws its own training sample
            loss = reconstruction_step(model, a_prop, x, a_cs.adjacency,
                                       encoded=(z_eval, caches) if arch == "gae" else None)
            row.update(l_total=loss, l_bce=loss)
        z_eval, caches = encode(model, a_prop, x, training=False)
        row["wall_time"] = time.perf_counter() - t0
        trace.append(**row)
        if converged:
            # the scheduled rewiring and step of the converged epoch still
            # ran, so the final graph reflects the last reliable set
            stop_reason = "omega_converged"
            break

    wall = time.perf_counter() - t0
    pred_fin = model_assignment(model, z_eval, k, seed)[0].labels()
    metrics = evaluate_clustering(pred_fin, truth, k) if truth is not None else None
    info = {
        "stop_reason": stop_reason,
        "epochs_run": len(trace.rows),
        "wall_time_s": float(wall),
        "omega_sizes": omega_sizes,
        "empty_omega_epochs": empty_omega_epochs,
        "metrics": metrics,
        "pred_labels": pred_fin,
        "embedding": z_eval,
        "self_supervision": a_cs,
        "omega": omega,
    }
    return model, trace, info
