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

from .clustering import (evaluate_clustering, gaussian_soft_assign, hungarian_map, kmeans,
                         student_t_assign)
from .diagnostics import DiagnosticTrace, graph_evolution_stats, lambda_fd, lambda_fr
from .errors import ConfigError, StateError, TrainingError
from .graphio import AttributedGraph, normalize_adjacency
from .linalg import AdamState, adam_step
from .models import (GaeModel, TrainConfig, backprop_theta, centroid_kmeans_loss,
                     dgae_clus_loss, encode, reconstruction_step)
from .operators import (SelfSupervisionGraph, build_supervised_target, compute_centroid_nodes,
                        passthrough_graph, upsilon_transform, xi_select)
from .pairs import edge_logits, laplacian_quadratic, recon_grad_z, recon_loss, regularizer_R


def model_assignment(model: GaeModel, z: np.ndarray, k: int, seed: int):
    """The clustering head's hard labels of the embedding, and the fit
    they come from.

    dgae's head is its trainable centers: fit is the Student-t assignment
    P of z to them, which Xi, the step's KL term and lambda_FR read, and
    the labels are its row argmax. gae and vgae run k-means: fit is the
    fitted ClusterModel, whose centers give Xi its Gaussian P.

    Returns
    -------
    (ndarray of int64, SoftAssignment or ClusterModel)
    """
    if model.arch == "dgae":
        if model.centers is None:
            raise StateError("dgae model has no cluster centers; run init or train_joint first")
        p = student_t_assign(z, model.centers)
        return p.labels(), p
    cm, labels = kmeans(z, k, seed)
    return labels, cm


def check_xi_clusters(cfg: TrainConfig, k_clusters: int) -> None:
    """Raise ConfigError when Xi runs within cfg's epoch cap, under rethink
    with an ablation other than no_xi and a correction delay below
    train_epochs, on fewer than the two clusters xi_select needs."""
    ablation, delay = cfg.parse_ablation()
    if cfg.rethink and ablation != "no_xi" and delay < cfg.train_epochs and k_clusters < 2:
        raise ConfigError(f"the reliable-set selection needs k_clusters >= 2, got {k_clusters}; "
                          "run without rethink or with the no_xi ablation")


def _dgae_step(model: GaeModel, caches: dict, kl: tuple, a_cs: SelfSupervisionGraph, gamma: float):
    """One Adam step on kl, the (loss, grad_z, grad_centers) of KL(Q||P)
    from dgae_clus_loss, plus gamma times the pos-weighted reconstruction
    of the self-supervision graph, read from the pair pass in caches (no
    such term at gamma = 0 or on a graph without edges). Returns
    (total, l_clus, l_bce)."""
    l_clus, grad_z, grad_centers = kl
    l_bce = None
    if gamma > 0.0 and a_cs.adjacency.nnz > 0:
        pairs = caches["pairs"]
        logits = edge_logits(pairs, a_cs.adjacency)
        # the edge logits and the gradient's target products need no pass, so
        # they come first: on an epoch without l_R_self they run before the read
        grad_z = grad_z + gamma * recon_grad_z(pairs, a_cs.adjacency,
                                               weighting="pos_weighted", logits=logits)
        l_bce = recon_loss(pairs, a_cs.adjacency, weighting="pos_weighted", logits=logits)
    total = l_clus + (gamma * l_bce if l_bce is not None else 0.0)
    if not np.isfinite(total):  # before the step, which would move weights, centers and moments
        raise TrainingError("clustering loss diverged (non-finite)")
    grads = {**backprop_theta(caches, grad_z), "centers": grad_centers}
    params = {**model.weights, "centers": model.centers}
    updated = adam_step(model.adam, params, grads)
    model.centers = updated.pop("centers")
    model.weights = updated
    return total, l_clus, l_bce


def train_joint(model: GaeModel, graph: AttributedGraph, cfg: TrainConfig, *, seed: int = 0):
    """Run the clustering phase on a pretrained model.

    Each epoch assigns, runs Xi every m1 and Upsilon every m2 epochs on
    the assignment's labels, records a trace row and takes one gradient
    step. seed seeds every k-means fit of the run.

    Returns
    -------
    (GaeModel, DiagnosticTrace, dict)
        The trained model, the per-epoch trace, and a run-info dict with
        stop_reason ("epoch_cap" or "omega_converged"), epochs_run,
        wall_time_s, omega_sizes ([epoch, size] at each re-sampling),
        empty_omega_epochs, metrics (None without labels), pred_labels,
        embedding (the final eval-mode Z), and the final self_supervision
        graph and omega (the sorted int64 indices of the last reliable set).
    """
    check_xi_clusters(cfg, graph.k_clusters)
    x = graph.x
    n, k, truth = graph.n_nodes, graph.k_clusters, graph.labels
    ablation, delay = cfg.parse_ablation()
    a_prop = normalize_adjacency(graph, "propagation")

    # the clustering phase gets a fresh optimizer, as in pretraining
    model.adam = AdamState(lr=cfg.lr)

    # every epoch, the diagnostics, l_R_self and the gae and dgae steps read
    # this eval-mode encode and its one pair pass; it is redone after each
    # step, and the last one is evaluated. The pass of an encode that the
    # next epoch reads is started at once, so it is swept while k-means, Xi,
    # Upsilon, the previous row's lambda_FD and the epoch's pass-free terms
    # run; a vgae step draws a sample of its own, so a vgae epoch reads the
    # pass only for its diagnostics row.
    dgae = model.arch == "dgae"
    steps_on_pass = model.arch == "gae" or (dgae and cfg.gamma > 0.0)

    def reads_pass(epoch: int) -> bool:
        return epoch < cfg.train_epochs and (steps_on_pass or epoch % cfg.diag_stride == 0)

    z_eval, caches = encode(model, a_prop, x, training=False)
    if reads_pass(0):
        caches["pairs"].start()
    if dgae and model.centers is None:
        model.centers = kmeans(z_eval, k, seed)[0].centers.copy()

    trace = DiagnosticTrace()
    omega = all_nodes = np.arange(n, dtype=np.int64)
    a_cs = passthrough_graph(graph.adjacency)
    xi_on = cfg.rethink and ablation != "no_xi"
    upsilon_on = cfg.rethink and ablation != "no_upsilon"
    # the protection ablation rewires once, around every node, then keeps that graph
    protect = ablation == "fd_protection_single_step"
    alpha1 = 0.0 if ablation == "no_alpha1" else cfg.alpha1
    alpha2 = 0.0 if ablation == "no_alpha2" else cfg.alpha2

    omega_sizes = []
    empty_omega_epochs = 0
    converged = False
    t0 = time.perf_counter()

    for epoch in range(cfg.train_epochs):
        active = cfg.rethink and epoch >= delay
        phase = epoch - delay
        pred, fit = model_assignment(model, z_eval, k, seed)

        # periodic operator refreshes (reliable set first, then rewiring)
        if active and xi_on and phase % cfg.m1 == 0:
            # gae and vgae read the Gaussian P of the k-means fit, built only here
            omega = xi_select(fit if dgae else gaussian_soft_assign(z_eval, fit.centers, pred),
                              alpha1, alpha2)
            omega_sizes.append([epoch, int(omega.size)])
            converged = omega.size >= cfg.convergence_fraction * n
        if active and upsilon_on and (phase == 0 if protect else phase % cfg.m2 == 0):
            src = omega if xi_on and not protect else all_nodes
            if src.size > 0:
                pi = compute_centroid_nodes(z_eval, pred, src, k)
                a_cs = upsilon_transform(graph.adjacency, pred, src, pi,
                                         allow_add=ablation != "no_add_edge",
                                         allow_drop=ablation != "no_drop_edge")
        empty_omega_epochs += int(active and omega.size == 0)

        # what reads no pair pass runs first, while the helpers sweep it: the
        # dgae step's KL term over Omega (Q the one-hot of pred, P the Student-t
        # fit), then the row's metrics, l_C_self, l_C_clus, lambda_FR and
        # supervised target
        diag = epoch % cfg.diag_stride == 0
        kl = fd_args = None
        if dgae:
            kl = dgae_clus_loss(fit, pred, rows=omega)
        row = {"epoch": epoch, "omega_size": int(omega.size), "gamma": cfg.gamma}
        if truth is not None:
            scores = evaluate_clustering(pred, truth, k)
            row.update(acc_all=scores["acc"], nmi=scores["nmi"], ari=scores["ari"])
            hit = hungarian_map(truth, pred, k)[pred] == truth
            reliable = np.isin(all_nodes, omega)
            for col, sel in (("acc_omega", hit[reliable]), ("acc_complement", hit[~reliable])):
                row[col] = float(np.mean(sel)) if sel.size else None
            row.update(graph_evolution_stats(a_cs, truth))
        if diag:
            row.update(l_C_self=laplacian_quadratic(z_eval, a_cs.adjacency),
                       l_C_clus=centroid_kmeans_loss(z_eval, pred, k))
            if truth is not None:
                # the pseudo side's gradient is the step's KL gradient over Omega
                fr, fr_base = lambda_fr(graph, pred, caches, omega,
                                        assignment=fit if dgae else None,
                                        pseudo_grad_z=kl[1] if dgae else None)
                row.update(lambda_fr=fr.value, lambda_fr_degenerate=fr.degenerate,
                           lambda_fr_baseline=fr_base.value)
                # lambda_FD's arguments, for its call once the next pass sweeps;
                # the encode's caches keep the pre-step weights
                fd_args = (graph, a_cs, build_supervised_target(graph.adjacency, truth, z_eval, k),
                           caches)
            # the epoch's first read of the pass, which waits for the sweep
            row["l_R_self"] = regularizer_R(caches["pairs"], a_cs.adjacency)

        if dgae:
            total, l_clus, l_bce = _dgae_step(model, caches, kl, a_cs, cfg.gamma)
            row.update(l_total=total, l_clus=l_clus, l_bce=l_bce)
        else:
            # a vgae step draws its own training sample
            loss, bce = reconstruction_step(model, a_prop, x, a_cs.adjacency,
                                            caches if model.arch == "gae" else None)
            row.update(l_total=loss, l_bce=bce)
        # the epoch's Student-t P and encode go before the next encode; fd_args
        # keeps the encode for lambda_FD, which runs while the next pass sweeps
        del fit, kl, z_eval, caches
        z_eval, caches = encode(model, a_prop, x, training=False)
        if not converged and reads_pass(epoch + 1):
            caches["pairs"].start()
        if fd_args is not None:
            fd, fd_base = lambda_fd(*fd_args)
            row.update(lambda_fd=fd.value, lambda_fd_degenerate=fd.degenerate,
                       lambda_fd_baseline=fd_base.value)
        del fd_args
        row["wall_time"] = time.perf_counter() - t0
        trace.append(**row)
        if converged:
            # the scheduled rewiring and step of the converged epoch still
            # ran, so the final graph reflects the last reliable set
            break

    wall = time.perf_counter() - t0
    pred_fin = model_assignment(model, z_eval, k, seed)[0]
    metrics = evaluate_clustering(pred_fin, truth, k) if truth is not None else None
    info = {
        "stop_reason": "omega_converged" if converged else "epoch_cap",
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
