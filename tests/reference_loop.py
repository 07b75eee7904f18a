"""A dense reference of gae's clustering phase, plain and rethink, written
from the definitions of arXiv 2107.08562 (Mrabah et al., "Rethinking Graph
Auto-Encoder Models for Attributed Graph Clustering") for a reader to check
line by line.

Everything is dense numpy over N x N matrices: no pair pass, no sparse
product, no blocking. The loop calls the package's kmeans and nothing else
of it; tests/test_clustering.py::TestLloydOracle judges kmeans bitwise, so
k-means ties cannot make this loop and train_joint part ways. It follows
train_joint's schedule: each epoch clusters Z, runs Xi every m1 and Upsilon
every m2 epochs, scores the epoch and takes one Adam step on the
reconstruction of the self-supervision graph. pytest does not collect this
file (it is no test_*.py); tests/test_training.py::TestDenseReference runs it.
"""

import itertools

import numpy as np

from gaeclust.clustering import kmeans

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
VAR_FLOOR = 1e-6  # the floor of a cluster's per-dimension variance in the Gaussian P


def propagation(a):
    """The GCN renormalization D~^-1/2 (A + I) D~^-1/2 of Kipf & Welling."""
    a_hat = a + np.eye(a.shape[0])
    d = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return d[:, None] * a_hat * d[None, :]


def encode(w, a_prop, x):
    """Z = A~ ReLU(A~ X W1) W2, with the pre-activation and hidden layer."""
    p1 = a_prop @ x @ w["w1"]
    h = np.maximum(p1, 0.0)
    return a_prop @ h @ w["w2"], p1, h


def sigmoid(l):
    return 1.0 / (1.0 + np.exp(-l))


def softplus(l):
    return np.logaddexp(0.0, l)


def reconstruction(z, a):
    """The pos-weighted BCE of sigmoid(Z Z^T) against the 0/1 target A over
    all N^2 pairs, and its gradient in Z. With 2E entries of A, a positive
    pair weighs w = (N^2 - 2E) / 2E and the sum is scaled by 1 / (2 (N^2 - 2E))."""
    n, two_e = a.shape[0], a.sum()
    w, scale = (n * n - two_e) / two_e, 0.5 / (n * n - two_e)
    l = z @ z.T
    loss = scale * np.sum(w * a * softplus(-l) + (1.0 - a) * softplus(l))
    g = scale * ((1.0 - a) * sigmoid(l) - w * a * sigmoid(-l))  # d loss / d l_ij
    return loss, (g + g.T) @ z


def backprop(w, a_prop, x, p1, h, grad_z):
    """d loss / d W1 and W2 from d loss / d Z through encode."""
    grad_h = (a_prop.T @ grad_z @ w["w2"].T) * (p1 > 0.0)
    return {"w1": x.T @ a_prop.T @ grad_h, "w2": (a_prop @ h).T @ grad_z}


def adam(w, grads, state, lr):
    """One Adam step on every weight, in place."""
    state["t"] += 1
    t = state["t"]
    for key, g in grads.items():
        m = state["m"][key] = ADAM_BETA1 * state["m"].get(key, 0.0) + (1.0 - ADAM_BETA1) * g
        v = state["v"][key] = ADAM_BETA2 * state["v"].get(key, 0.0) + (1.0 - ADAM_BETA2) * g * g
        m_hat, v_hat = m / (1.0 - ADAM_BETA1 ** t), v / (1.0 - ADAM_BETA2 ** t)
        w[key] = w[key] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def gaussian_p(z, centers, labels):
    """The assignment P gae hands Xi: responsibilities of diagonal Gaussians
    at the k-means centers, a cluster's variances those of its members."""
    var = np.full_like(centers, VAR_FLOOR)
    for j in range(centers.shape[0]):
        if np.sum(labels == j) >= 2:
            var[j] = np.maximum(z[labels == j].var(axis=0), VAR_FLOOR)
    log_kernel = -0.5 * np.sum((z[:, None, :] - centers[None]) ** 2 / var[None], axis=2)
    p = np.exp(log_kernel - log_kernel.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def xi(p, alpha1, alpha2):
    """Omega: the nodes whose highest score lambda1 >= alpha1 and whose
    margin lambda1 - lambda2 over the second highest >= alpha2."""
    lam2, lam1 = np.sort(p, axis=1)[:, -2:].T
    return np.flatnonzero((lam1 >= alpha1) & (lam1 - lam2 >= alpha2))


def upsilon(a, z, labels, omega):
    """A rewired around centroid nodes, with the added and dropped edges.

    A cluster's centroid node is the Omega member nearest the mean of its
    Omega members. Every Omega member of the cluster links to it when the
    centroid node carries the cluster's label, and an edge of A between two
    Omega members of different clusters is dropped."""
    add = np.zeros_like(a)
    for c in np.unique(labels[omega]):
        members = omega[labels[omega] == c]
        centroid = omega[np.argmin(np.sum((z[omega] - z[members].mean(axis=0)) ** 2, axis=1))]
        if labels[centroid] == c:
            add[members, centroid] = add[centroid, members] = 1.0
    np.fill_diagonal(add, 0.0)
    add *= 1.0 - a  # an edge of A is no addition
    reliable = np.isin(np.arange(a.shape[0]), omega)
    drop = a * np.outer(reliable, reliable) * (labels[:, None] != labels[None, :])
    return a - drop + add, add, drop


def accuracy(truth, pred, k):
    """Accuracy under the best one-to-one map of clusters to labels."""
    return max(float(np.mean(np.asarray(perm)[pred] == truth))
               for perm in itertools.permutations(range(k)))


def train_gae(w, a, x, truth, k, *, epochs, lr, rethink, alpha1, alpha2, m1, m2,
              convergence_fraction, seed):
    """gae's clustering phase from the weights w on dense A and X. Returns
    the trace columns it reproduces, one dict per epoch, the final weights
    and the final accuracy."""
    a_prop, n = propagation(a), a.shape[0]
    same = np.triu(truth[:, None] == truth[None, :], 1)
    w, state = dict(w), {"t": 0, "m": {}, "v": {}}
    omega, a_cs, added, dropped = np.arange(n), a, np.zeros_like(a), np.zeros_like(a)
    z, p1, h = encode(w, a_prop, x)
    rows = []
    for epoch in range(epochs):
        fit, pred = kmeans(z, k, seed)
        converged = False
        if rethink and epoch % m1 == 0:
            omega = xi(gaussian_p(z, fit.centers, pred), alpha1, alpha2)
            converged = omega.size >= convergence_fraction * n
        if rethink and epoch % m2 == 0 and omega.size > 0:
            a_cs, added, dropped = upsilon(a, z, pred, omega)
        loss, grad_z = reconstruction(z, a_cs)
        sq = np.sum(z * z, axis=1)
        row = {"omega_size": omega.size, "acc_all": accuracy(truth, pred, k),
               "l_total": loss, "l_bce": loss,
               "l_C_self": 0.5 * np.sum(a_cs * (sq[:, None] + sq[None, :] - 2.0 * z @ z.T)),
               "l_R_self": np.sum(softplus(z @ z.T)) - np.sum(a_cs * sq[:, None])}
        for name, edges in (("links", a_cs), ("links_added", added), ("links_deleted", dropped)):
            upper = np.triu(edges, 1) > 0
            row[f"{name}_true"], row[f"{name}_false"] = int(np.sum(upper & same)), int(
                np.sum(upper & ~same))
        row["links_total"] = row["links_true"] + row["links_false"]
        rows.append(row)
        adam(w, backprop(w, a_prop, x, p1, h, grad_z), state, lr)
        z, p1, h = encode(w, a_prop, x)
        if converged:
            break
    return rows, w, accuracy(truth, kmeans(z, k, seed)[1], k)
