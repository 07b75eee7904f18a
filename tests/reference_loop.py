"""A dense reference of the clustering phase of gae, vgae and dgae, plain
and rethink, written from the definitions of arXiv 2107.08562 (Mrabah et
al., "Rethinking Graph Auto-Encoder Models for Attributed Graph
Clustering") for a reader to check line by line. vgae follows Kipf &
Welling (arXiv 1611.07308) and dgae's clustering head DEC (Xie et al.,
arXiv 1511.06335).

Everything is dense numpy over N x N matrices: no pair pass, no sparse
product, no blocking. The loop calls the package's kmeans and nothing else
of it; tests/test_clustering.py::TestLloydOracle judges kmeans bitwise, so
k-means ties cannot make this loop and train_joint part ways. It follows
train_joint's schedule: each epoch clusters Z, runs Xi every m1 and Upsilon
every m2 epochs, scores the epoch and takes one Adam step. gae and vgae
step on the reconstruction of the self-supervision graph, vgae at a
sample of its posterior plus the prior KL; dgae steps on KL(Q||P) over
Omega plus gamma times that reconstruction, its centers with its weights.
Each row also holds Lambda_FD, the cosine of the weight gradients of
Proposition 1's L_C(Z, A) toward the self-supervision graph and toward
the supervised target, with its baseline toward A.
pytest does not collect this file (it is no test_*.py);
tests/test_training.py::TestDenseReference runs it.
"""

import itertools

import numpy as np

from gaeclust.clustering import kmeans

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
VAR_FLOOR = 1e-6  # the floor of a cluster's per-dimension variance in the Gaussian P
P_FLOOR = 1e-12  # the floor of p under the log of KL(Q||P)


def propagation(a):
    """The GCN renormalization D~^-1/2 (A + I) D~^-1/2 of Kipf & Welling."""
    a_hat = a + np.eye(a.shape[0])
    d = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return d[:, None] * a_hat * d[None, :]


def trunk(w, a_prop, x):
    """M = A~ ReLU(A~ X W1), the layer every head reads, with the pre-activation."""
    p1 = a_prop @ x @ w["w1"]
    return a_prop @ np.maximum(p1, 0.0), p1


def trunk_grad(w, a_prop, x, p1, grad_m):
    """d loss / d W1 from d loss / d M through the trunk."""
    return x.T @ a_prop.T @ ((a_prop.T @ grad_m) * (p1 > 0.0))


def encode(arch, w, a_prop, x):
    """The eval-mode embedding (vgae's mean mu), with M, the pre-activation
    and vgae's log-sigma (None for gae and dgae)."""
    m, p1 = trunk(w, a_prop, x)
    if arch == "vgae":
        return m @ w["w2_mu"], m, p1, m @ w["w2_logstd"]
    return m @ w["w2"], m, p1, None


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


def prior_kl(mu, logstd):
    """KL(N(mu, sigma^2) || N(0, I)) summed over nodes and dimensions and
    scaled by 1/N^2, and its gradients in mu and log sigma."""
    n_sq, sigma_sq = mu.shape[0] ** 2, np.exp(2.0 * logstd)
    loss = 0.5 * np.sum(mu * mu + sigma_sq - 1.0 - 2.0 * logstd) / n_sq
    return loss, mu / n_sq, (sigma_sq - 1.0) / n_sq


def student_t(z, centers):
    """DEC's soft assignment p_ik proportional to (1 + ||z_i - mu_k||^2)^-1,
    with the kernel s_ik = (1 + ||z_i - mu_k||^2)^-1 itself."""
    s = 1.0 / (1.0 + np.sum((z[:, None, :] - centers[None]) ** 2, axis=2))
    return s / s.sum(axis=1, keepdims=True), s


def clustering_kl(z, centers, pred, omega):
    """KL(Q||P) over the rows Omega, Q the one-hot of pred and P the
    Student-t assignment, p floored under the log; and its gradients in Z
    and the centers, 2 s_ik (q_ik - p_ik) (z_i - mu_k) summed over k for
    z_i and, negated, over i in Omega for mu_k."""
    p, s = student_t(z, centers)
    q = np.eye(centers.shape[0])[pred]
    rows = np.isin(np.arange(z.shape[0]), omega)[:, None]
    loss = -np.sum(rows * q * np.log(np.maximum(p, P_FLOOR)))
    coeff = 2.0 * rows * s * (q - p)
    diff = z[:, None, :] - centers[None]
    return loss, np.sum(coeff[:, :, None] * diff, axis=1), -np.sum(coeff[:, :, None] * diff, axis=0)


def adam(w, grads, state, lr):
    """One Adam step on every parameter, in place."""
    state["t"] += 1
    t = state["t"]
    for key, g in grads.items():
        m = state["m"][key] = ADAM_BETA1 * state["m"].get(key, 0.0) + (1.0 - ADAM_BETA1) * g
        v = state["v"][key] = ADAM_BETA2 * state["v"].get(key, 0.0) + (1.0 - ADAM_BETA2) * g * g
        m_hat, v_hat = m / (1.0 - ADAM_BETA1 ** t), v / (1.0 - ADAM_BETA2 ** t)
        w[key] = w[key] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def gaussian_p(z, centers, labels):
    """The assignment P gae and vgae hand Xi: responsibilities of diagonal
    Gaussians at the k-means centers, a cluster's variances those of its
    members."""
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


def theta_grad(arch, w, a_prop, x, m, p1, grad_z):
    """Every encoder weight's gradient from d loss / d Z at the eval-mode
    embedding, flattened into one vector (vgae's Z is mu, so its log-sigma
    head gets none)."""
    w2 = w["w2_mu"] if arch == "vgae" else w["w2"]
    return np.concatenate([trunk_grad(w, a_prop, x, p1, grad_z @ w2.T).ravel(),
                           (m.T @ grad_z).ravel()])


def laplacian_grad(z, a):
    """d L_C / d Z = 2 L Z, L = D - A, for L_C(Z, A) = 1/2 sum_ij a_ij
    ||z_i - z_j||^2 and a symmetric A: the Laplacian term of Proposition
    1's split of the plain BCE."""
    return 2.0 * (np.diag(a.sum(axis=1)) - a) @ z


def cosine(u, v):
    return u @ v / (np.linalg.norm(u) * np.linalg.norm(v))


def lambda_fd(arch, w, a_prop, x, z, m, p1, a_cs, a, truth):
    """Lambda_FD and its baseline: the cosines of L_C's weight gradients
    toward a_cs and toward A with L_C's gradient toward the supervised
    target, Upsilon of A around every node under the true labels."""
    target = upsilon(a, z, truth, np.arange(a.shape[0]))[0]
    grad = lambda graph: theta_grad(arch, w, a_prop, x, m, p1, laplacian_grad(z, graph))
    g_sup = grad(target)
    return cosine(grad(a_cs), g_sup), cosine(grad(a), g_sup)


def accuracy(truth, pred, k):
    """Accuracy under the best one-to-one map of clusters to labels."""
    return max(float(np.mean(np.asarray(perm)[pred] == truth))
               for perm in itertools.permutations(range(k)))


def assign(arch, z, centers, k, seed):
    """Hard labels and the P that Xi reads: dgae's Student-t assignment to
    its centers, and for gae and vgae the Gaussian P of a k-means fit."""
    if arch == "dgae":
        p, _ = student_t(z, centers)
        return np.argmax(p, axis=1), p
    fit, pred = kmeans(z, k, seed)
    return pred, gaussian_p(z, fit.centers, pred)


def step(arch, w, a_prop, x, a_cs, z, m, p1, logstd, *, pred, omega, gamma, rng):
    """The epoch's loss columns and the gradients of every parameter.

    gae reconstructs a_cs from Z. vgae reconstructs it from the sample
    mu + sigma * eps, eps drawn from rng, and adds the prior KL; l_bce is
    the reconstruction alone and l_total the sum. dgae adds gamma times the
    reconstruction from Z to KL(Q||P) over Omega."""
    if arch == "gae":
        loss, grad_z = reconstruction(z, a_cs)
        return {"l_total": loss, "l_bce": loss}, {
            "w1": trunk_grad(w, a_prop, x, p1, grad_z @ w["w2"].T), "w2": m.T @ grad_z}
    if arch == "vgae":
        eps = rng.standard_normal(z.shape)
        bce, grad_sample = reconstruction(z + np.exp(logstd) * eps, a_cs)
        kl, kl_mu, kl_logstd = prior_kl(z, logstd)
        grad_mu, grad_logstd = grad_sample + kl_mu, grad_sample * eps * np.exp(logstd) + kl_logstd
        grad_m = grad_mu @ w["w2_mu"].T + grad_logstd @ w["w2_logstd"].T
        return {"l_total": bce + kl, "l_bce": bce}, {
            "w1": trunk_grad(w, a_prop, x, p1, grad_m),
            "w2_mu": m.T @ grad_mu, "w2_logstd": m.T @ grad_logstd}
    l_clus, grad_z, grad_centers = clustering_kl(z, w["centers"], pred, omega)
    bce, grad_bce = reconstruction(z, a_cs)
    grad_z = grad_z + gamma * grad_bce
    return {"l_total": l_clus + gamma * bce, "l_clus": l_clus, "l_bce": bce}, {
        "w1": trunk_grad(w, a_prop, x, p1, grad_z @ w["w2"].T), "w2": m.T @ grad_z,
        "centers": grad_centers}


def train(arch, w, a, x, truth, k, *, epochs, lr, rethink, alpha1, alpha2, m1, m2,
          convergence_fraction, seed, gamma=0.0, rng=None):
    """arch's clustering phase from the weights w on dense A and X; rng
    draws vgae's samples, and dgae's centers start at a k-means fit of Z.
    Returns the trace columns it reproduces, one dict per epoch, the final
    parameters (dgae's centers under "centers") and the final accuracy."""
    a_prop, n = propagation(a), a.shape[0]
    same = np.triu(truth[:, None] == truth[None, :], 1)
    w, state = dict(w), {"t": 0, "m": {}, "v": {}}
    omega, a_cs, added, dropped = np.arange(n), a, np.zeros_like(a), np.zeros_like(a)
    z, m, p1, logstd = encode(arch, w, a_prop, x)
    if arch == "dgae":
        w["centers"] = kmeans(z, k, seed)[0].centers.copy()
    rows = []
    for epoch in range(epochs):
        pred, p = assign(arch, z, w.get("centers"), k, seed)
        converged = False
        if rethink and epoch % m1 == 0:
            omega = xi(p, alpha1, alpha2)
            converged = omega.size >= convergence_fraction * n
        if rethink and epoch % m2 == 0 and omega.size > 0:
            a_cs, added, dropped = upsilon(a, z, pred, omega)
        losses, grads = step(arch, w, a_prop, x, a_cs, z, m, p1, logstd, pred=pred,
                             omega=omega, gamma=gamma, rng=rng)
        sq = np.sum(z * z, axis=1)
        fd, fd_baseline = lambda_fd(arch, w, a_prop, x, z, m, p1, a_cs, a, truth)
        row = {"omega_size": omega.size, "acc_all": accuracy(truth, pred, k), **losses,
               "lambda_fd": fd, "lambda_fd_baseline": fd_baseline,
               "l_C_self": 0.5 * np.sum(a_cs * (sq[:, None] + sq[None, :] - 2.0 * z @ z.T)),
               "l_R_self": np.sum(softplus(z @ z.T)) - np.sum(a_cs * sq[:, None])}
        for name, edges in (("links", a_cs), ("links_added", added), ("links_deleted", dropped)):
            upper = np.triu(edges, 1) > 0
            row[f"{name}_true"], row[f"{name}_false"] = int(np.sum(upper & same)), int(
                np.sum(upper & ~same))
        row["links_total"] = row["links_true"] + row["links_false"]
        rows.append(row)
        adam(w, grads, state, lr)
        z, m, p1, logstd = encode(arch, w, a_prop, x)
        if converged:
            break
    return rows, w, accuracy(truth, assign(arch, z, w.get("centers"), k, seed)[0], k)
