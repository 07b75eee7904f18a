"""Two-layer GCN auto-encoders, their training steps and checkpoints.

Architectures
-------------
gae   Z = A~ ReLU(A~ X W1) W2, inner-product decoder sigmoid(Z Z^T).
vgae  same trunk with mu / log-sigma heads and a reparameterized sample
      during training (Z = mu at evaluation).
dgae  gae trunk plus trainable cluster centers and a KL(Q||P) clustering
      loss, read from the Student-t soft assignment P of Z to the centers
      (clustering.student_t_assign) that the clustering head hands it.

All gradients are closed form (no autodiff); each one is verified against
central finite differences in the test suite.

Features
--------
pretrain and train_joint hand encode the graph's stored X, graph.x: a
CSR matrix when at most graphio._SPARSE_FEATURES of the entries are
stored (bag-of-words features such as Cora's are ~1% dense), and the
dense array otherwise. encode and backprop_theta multiply X through the
same lines in both representations.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import re
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .clustering import SoftAssignment
from .errors import (ConfigError, DataError, NumericsError, ShapeError,
                     StateError, TrainingError)
from .graphio import AttributedGraph, normalize_adjacency, write_text_atomic
from .linalg import AdamState, adam_step
from .pairs import PairPass, edge_logits, recon_grad_z, recon_loss, row_blocks

HIDDEN_DIM = 32
EMBED_DIM = 16

VALID_MODELS = ("gae", "vgae", "dgae")

VALID_ABLATIONS = (
    "none",
    "no_alpha1",
    "no_alpha2",
    "no_xi",
    "no_add_edge",
    "no_drop_edge",
    "no_upsilon",
    "fd_protection_single_step",
)


# the check of a config field by its annotation: (type, what it is called);
# a bool is no number
_FIELD_CHECKS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


@dataclass
class TrainConfig:
    """Hyper-parameters shared by pretraining and the joint loop."""

    gamma: float = 0.001
    lr: float = 0.01
    pretrain_epochs: int = 200
    train_epochs: int = 200
    alpha1: float = 0.3
    alpha2: float | None = None  # defaults to alpha1 / 2
    m1: int = field(default=20, metadata={"help": "epochs between reliable-set refreshes"})
    m2: int = field(default=15, metadata={"help": "epochs between graph rewrites"})
    rethink: bool = field(default=False, metadata={"help": "run the reliable-set rewiring loop"})
    convergence_fraction: float = 0.9
    diag_stride: int = 1
    ablation: str = "none"

    def __post_init__(self):
        hints = typing.get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            hint = hints[f.name]
            if type(None) in typing.get_args(hint):  # X | None
                if value is None:
                    continue
                hint = typing.get_args(hint)[0]
            if hint not in _FIELD_CHECKS:
                continue  # a field of a type of its own keeps its own check
            kind, called = _FIELD_CHECKS[hint]
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be {called}, got {value!r}")
        if not 0.0 <= self.alpha1 <= 1.0:
            raise ConfigError("alpha1 must lie in [0, 1]")
        if self.alpha2 is None:
            self.alpha2 = self.alpha1 / 2.0
        # NaN fails every comparison, so these chains reject it too
        if not 0.0 <= self.alpha2 < np.inf:
            raise ConfigError("alpha2 must be finite and >= 0")
        if self.m1 < 1 or self.m2 < 1:
            raise ConfigError("M1 and M2 must be >= 1")
        if not 0.0 <= self.gamma < np.inf:
            raise ConfigError("gamma must be finite and >= 0")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError("lr must be finite and > 0")
        if self.pretrain_epochs < 0 or self.train_epochs < 0:
            raise ConfigError("pretrain_epochs and train_epochs must be >= 0")
        if not 0.0 < self.convergence_fraction <= 1.0:
            raise ConfigError("convergence_fraction must lie in (0, 1]")
        if self.diag_stride < 1:
            raise ConfigError("diag_stride must be >= 1")
        self.parse_ablation()
        if not self.rethink and self.ablation != "none":
            raise ConfigError(f"ablation {self.ablation!r} needs rethink=true")

    def parse_ablation(self) -> tuple:
        """(name, delay) of the ablation: its name before any ':', and the
        epoch the corrections start at, which only fr_correction_delay:<digits>
        moves from 0. Raises ConfigError for any other string."""
        name, _, delay = self.ablation.partition(":")
        if name == "fr_correction_delay":
            # no leading zeros, so one delay has one spelling and one run tag
            if not re.fullmatch("0|[1-9][0-9]*", delay):
                raise ConfigError("fr_correction_delay needs an epoch count of digits without "
                                  "leading zeros, e.g. 'fr_correction_delay:30'")
            return name, int(delay)
        if self.ablation not in VALID_ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        return name, 0


@dataclass
class GaeModel:
    """Weights, optimizer state, and rng of one auto-encoder instance."""

    arch: str
    weights: dict
    adam: AdamState
    rng: np.random.Generator
    centers: np.ndarray | None = None
    # how the weights were pretrained (graph hash and config), recorded by
    # the experiment harness so a shared checkpoint is never reused stale
    provenance: dict | None = None
    # the kernel set (OpenBLAS core type, numpy SIMD extensions) the weights
    # were computed under, recorded by the harness; kept out of provenance,
    # since another set moves output bytes but leaves the weights valid
    kernels: dict | None = None

    @property
    def in_dim(self) -> int:
        return self.weights["w1"].shape[0]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(arch: str, in_dim: int, seed: int) -> GaeModel:
    """Glorot-initialized model; deterministic for a fixed seed."""
    if arch not in VALID_MODELS:
        raise ConfigError(f"unknown arch {arch!r}")
    rng = np.random.default_rng(seed)
    weights = {"w1": _glorot(rng, in_dim, HIDDEN_DIM)}
    if arch == "vgae":
        weights["w2_mu"] = _glorot(rng, HIDDEN_DIM, EMBED_DIM)
        weights["w2_logstd"] = _glorot(rng, HIDDEN_DIM, EMBED_DIM)
    else:
        weights["w2"] = _glorot(rng, HIDDEN_DIM, EMBED_DIM)
    return GaeModel(arch=arch, weights=weights, adam=AdamState(), rng=rng)


def encode(model: GaeModel, a_prop: sp.csr_matrix, x, training: bool = False):
    """Forward pass Z = A~ ReLU(A~ X W1) W2, with A~ = a_prop from normalize_adjacency.

    x is the dense feature array or its CSR matrix (graph.x holds the
    one graphio.feature_operand picks); both give the same Z up to
    rounding. Returns (Z, caches); caches hold only what is read later: the
    "arch" and a shallow copy of the "weights" dict the pass ran with, "a", "x",
    the bool ReLU "mask" A~ X W1 > 0, "m2" = A~ ReLU(A~ X W1), vgae's "mu", "logstd"
    and (training) "eps", and the PairPass "pairs", which sweeps Z Z^T's upper triangle in strips
    of pairs._TILE_DOUBLES blocks on first use (or from PairPass.start()).
    A weight update binds new arrays (adam_step) and leaves them as they
    are. For vgae, training mode draws a reparameterized sample Z = mu +
    sigma * eps from the model rng; evaluation mode returns mu.
    """
    if not sp.issparse(x):
        x = np.asarray(x, dtype=np.float64)
    w = dict(model.weights)
    if x.shape[1] != w["w1"].shape[0]:
        raise ShapeError(f"feature dim {x.shape[1]} != W1 rows {w['w1'].shape[0]}")
    p1 = a_prop @ (x @ w["w1"])
    mask = p1 > 0.0
    m2 = a_prop @ np.maximum(p1, 0.0, out=p1)
    caches = {"arch": model.arch, "weights": w, "a": a_prop, "x": x, "mask": mask, "m2": m2,
              "training": training}
    if model.arch == "vgae":
        mu = m2 @ w["w2_mu"]
        logstd = m2 @ w["w2_logstd"]
        caches.update({"mu": mu, "logstd": logstd})
        if training:
            eps = model.rng.standard_normal(mu.shape)
            z = mu + np.exp(logstd) * eps
            caches["eps"] = eps
        else:
            z = mu
    else:
        z = m2 @ w["w2"]
    # a non-finite log-sigma breaks backprop even where exp() left Z finite
    if not np.all(np.isfinite(z)) or not np.all(np.isfinite(caches.get("logstd", 0.0))):
        raise NumericsError("encode produced non-finite activations")
    caches["pairs"] = PairPass(z)
    return z, caches


def backprop_theta(caches: dict, grad_z: np.ndarray,
                   grad_mu_extra: np.ndarray | None = None,
                   grad_logstd_extra: np.ndarray | None = None) -> dict:
    """Chain rule from dL/dZ back to the encoder weights, at the weights
    the caches were encoded with (encode's "weights" and "arch"), whatever
    the model holds now.

    grad_mu_extra / grad_logstd_extra carry loss terms that hit the
    variational heads directly (the Gaussian prior KL).
    """
    a, m2, w = caches["a"], caches["m2"], caches["weights"]
    grads = {}
    if caches["arch"] == "vgae":
        d_mu = np.array(grad_z, dtype=np.float64)
        if caches["training"]:
            d_logstd = grad_z * caches["eps"] * np.exp(caches["logstd"])
        else:
            d_logstd = np.zeros_like(caches["logstd"])
        if grad_mu_extra is not None:
            d_mu += grad_mu_extra
        if grad_logstd_extra is not None:
            d_logstd = d_logstd + grad_logstd_extra
        grads["w2_mu"] = m2.T @ d_mu
        grads["w2_logstd"] = m2.T @ d_logstd
        d_m2 = d_mu @ w["w2_mu"].T + d_logstd @ w["w2_logstd"].T
        del d_mu, d_logstd
    else:
        grads["w2"] = m2.T @ grad_z
        d_m2 = grad_z @ w["w2"].T
    # each (N, h) intermediate goes as soon as the next one exists
    d_h = a.T @ d_m2
    del d_m2
    d_h *= caches["mask"]
    d_p1 = a.T @ d_h
    del d_h
    grads["w1"] = caches["x"].T @ d_p1
    return grads


def flatten_theta(arrays: dict) -> np.ndarray:
    """Deterministic flattening (sorted keys) of a weight/gradient dict."""
    return np.concatenate([np.asarray(arrays[k], dtype=np.float64).ravel()
                           for k in sorted(arrays)])




def centroid_kmeans_loss(z: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Independent centroid-form k-means objective sum_k sum_{i in C_k} ||z_i - mu_k||^2."""
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    total = 0.0
    for c in range(k):
        members = z[labels == c]
        if members.shape[0]:
            total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total


def dgae_clus_loss(p: SoftAssignment, labels: np.ndarray, rows: np.ndarray | None = None,
                   grad_centers: bool = True):
    """KL(Q||P) with the gradient through the Student-t kernel.

    P is a Student-t assignment, student_t_assign(z, centers), read with
    its kernel for the selected rows. The frozen target Q is the one-hot
    of labels, one cluster id in [0, K) per row of P. rows restricts the
    divergence (and its gradients) to these rows. Q - P, its coefficients
    and z_i - mu_k are built for the selected rows only, one row block
    (row_blocks) at a time; the centers' gradient, a sum over those rows,
    carries from block to block and keeps the bits of one einsum over them
    all.

    Returns
    -------
    (loss, grad_z, grad_centers)
        The loss floors p at 1e-12 under each positive q entry;
        grad_centers is None when not asked for.
    """
    if p.kernel is None:
        raise DataError("dgae_clus_loss needs a Student-t assignment and its kernel")
    z, centers, s = p.kernel
    (n, k), d = s.shape, z.shape[1]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match P rows {n}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise DataError("labels outside [0, K)")
    idx = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    p, lab = p.matrix, labels[idx]
    # q log(q / p) is -log p at each row's label and 0 elsewhere; summing the
    # whole (rows, K) array keeps the order of the adds
    terms = np.zeros((idx.size, k))
    terms[np.arange(idx.size), lab] = -np.log(np.maximum(p[idx, lab], 1e-12))
    loss = float(terms.sum())
    del terms

    # d/dz_i KL = 2 sum_k s_ik (q_ik - p_ik) (z_i - mu_k), s = (1+d^2)^-1,
    # with q_i the one-hot of label i, built one row block at a time. The
    # centers' gradient sums coeff (z_i - mu_k) over the rows: stack[0]
    # carries the sum of the blocks before, and adding it and a block's rows
    # in row order from a zero carry is einsum's row-order sum, bit for bit
    # (for K d > 1: numpy sums a single column pairwise, einsum in SIMD lanes)
    grad_z = np.zeros((n, d))
    blocks = row_blocks(idx.size, k * d)
    # the carry row, then the rows of one block (the first is the largest)
    stack = np.zeros((1 + (blocks[0][1] if blocks else 0), k, d))
    for r0, r1 in blocks:
        block = idx[r0:r1]
        q = np.zeros((block.size, k))
        q[np.arange(block.size), lab[r0:r1]] = 1.0
        coeff = 2.0 * s[block] * (q - p[block])
        diff = stack[1:1 + block.size]
        np.subtract(z[block][:, None, :], centers[None, :, :], out=diff)
        grad_z[block] = np.einsum("nk,nkd->nd", coeff, diff)
        if grad_centers:
            diff *= coeff[:, :, None]
            stack[0] = np.add.reduce(stack[:1 + block.size], axis=0)
    if not grad_centers:
        return loss, grad_z, None
    return loss, grad_z, -stack[0]


def vgae_kl_prior(mu: np.ndarray, logstd: np.ndarray):
    """Gaussian prior KL scaled by 1/N^2, with gradients for both heads.

    Per node and dimension the term is 0.5 (mu^2 + sigma^2 - 1 - log sigma^2).
    1/N^2 is the reference VGAE's scale (Kipf & Welling 2016: 0.5/N times a
    mean over nodes), the scale of the pos-weighted reconstruction loss; at
    1/N the KL outweighs that loss and mu collapses to the prior.
    """
    mu = np.asarray(mu, dtype=np.float64)
    logstd = np.asarray(logstd, dtype=np.float64)
    n_sq = float(mu.shape[0]) ** 2
    sigma_sq = np.exp(2.0 * logstd)
    loss = float(0.5 * np.sum(mu * mu + sigma_sq - 1.0 - 2.0 * logstd) / n_sq)
    return loss, mu / n_sq, (sigma_sq - 1.0) / n_sq


def reconstruction_step(model: GaeModel, a_prop: sp.csr_matrix, x,
                        a_target: sp.spmatrix, caches: dict | None = None) -> tuple:
    """One full-batch Adam step on the pos-weighted reconstruction loss.

    Shared by pretraining and the first-group (gae/vgae) joint loop;
    returns (loss, bce) before the update: the loss stepped on and its
    pos-weighted BCE, equal for gae, while vgae's loss adds the prior KL
    (vgae_kl_prior) to it. caches are those of the caller's encode of
    the current weights, pair pass included; a gae eval-mode encode
    serves, while vgae needs a training-mode sample. Without them the
    model is encoded here and its pass started at once.
    The gradient, whose target products need no pass, is taken before
    the loss.
    """
    training = model.arch == "vgae"
    if caches is None:
        caches = encode(model, a_prop, x, training=training)[1]
        # the pass sweeps on the helpers while the gradient's target products run
        caches["pairs"].start()
    if caches["training"] != training:
        raise StateError(f"{model.arch} steps on a {'training' if training else 'eval'}-mode encode")
    pairs, a = caches["pairs"], a_target.tocsr()
    l_e = edge_logits(pairs, a)
    grad_z = recon_grad_z(pairs, a, weighting="pos_weighted", logits=l_e)
    loss = bce = recon_loss(pairs, a, weighting="pos_weighted", logits=l_e)
    if model.arch == "vgae":
        kl, d_mu, d_logstd = vgae_kl_prior(caches["mu"], caches["logstd"])
        loss = bce + kl
        grads = backprop_theta(caches, grad_z, d_mu, d_logstd)
    else:
        grads = backprop_theta(caches, grad_z)
    if not np.isfinite(loss):
        raise TrainingError("reconstruction loss diverged (non-finite)")
    model.weights = adam_step(model.adam, model.weights, grads)
    return loss, bce


def pretrain(model: GaeModel, graph: AttributedGraph, cfg: TrainConfig) -> GaeModel:
    """Full-batch reconstruction pretraining: cfg.pretrain_epochs Adam steps at cfg.lr."""
    model.adam.lr = cfg.lr
    a_prop = normalize_adjacency(graph, "propagation")
    for _ in range(cfg.pretrain_epochs):
        reconstruction_step(model, a_prop, graph.x, graph.adjacency)
    return model


CHECKPOINT_VERSION = 3


def _sidecar(path) -> Path:
    """The file beside checkpoint path that holds its arrays' bytes."""
    path = Path(path)
    return path.with_name(path.name + ".f8")


def save_checkpoint(model: GaeModel, path) -> None:
    """Write a model as a version-3 checkpoint (layout: README, Outputs).

    The arrays go, in the header's order, as raw little-endian float64
    into _sidecar(path); the JSON header at path lists them and
    carries the sidecar's sha256. The sidecar is written first and the
    header second, each atomically. Arrays keep their exact float64
    bytes, so load_checkpoint restores them bitwise and equal models give
    byte-identical files.
    """
    arrays = [("weights", k, v) for k, v in sorted(model.weights.items())]
    arrays += [("m", k, v) for k, v in sorted(model.adam.m.items())]
    arrays += [("v", k, v) for k, v in sorted(model.adam.v.items())]
    if model.centers is not None:
        arrays.append(("centers", "centers", model.centers))
    arrays = [(group, name, np.ascontiguousarray(a, dtype="<f8")) for group, name, a in arrays]
    raw = b"".join(a for _, _, a in arrays)  # C-contiguous arrays join without a copy each
    header = {
        "format_version": CHECKPOINT_VERSION,
        "arch": model.arch,
        "arrays": [[group, name, list(a.shape)] for group, name, a in arrays],
        "adam": {"lr": model.adam.lr, "step_count": model.adam.step_count},
        "rng_state": model.rng.bit_generator.state,
        "provenance": model.provenance,
        "kernels": model.kernels,
        "f8_sha256": hashlib.sha256(raw).hexdigest(),
    }
    write_text_atomic(_sidecar(path), raw)
    write_text_atomic(path, json.dumps(header))


def _shape(dims) -> tuple:
    """A header shape as a tuple of non-negative ints, or ValueError."""
    shape = tuple(dims)
    if not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"bad array shape {dims!r}")
    return shape


def load_checkpoint(path) -> GaeModel:
    """Inverse of save_checkpoint; restores weights, Adam state, and rng.

    An unreadable or malformed header, another format version, a sidecar
    that is missing, shorter or longer than the header's arrays, or fails
    the header's sha256, or arrays and Adam state that do not fit the
    arch's weights raise StateError: centers must be 2-D with EMBED_DIM
    columns, Adam's lr a finite number > 0 and its step_count an int >= 0,
    and its m and v moments must be shaped like their arrays, none before
    the first step and one per weight after it.
    """
    try:
        header = json.loads(Path(path).read_text())
        if header["format_version"] != CHECKPOINT_VERSION:
            raise StateError(f"{path} has checkpoint format version {header['format_version']!r}"
                             f", not {CHECKPOINT_VERSION}: delete it and pretrain again")
        entries = [(group, name, _shape(dims)) for group, name, dims in header["arrays"]]
        sidecar = _sidecar(path)
        try:
            raw = np.fromfile(sidecar, dtype=np.uint8)
        except FileNotFoundError:
            raise StateError(f"{path} has no array sidecar {sidecar.name}: copy both files "
                             "of a checkpoint") from None
        size = 8 * sum(math.prod(shape) for _, _, shape in entries)
        if raw.size != size:
            raise StateError(f"{sidecar} holds {raw.size} bytes, the arrays of its header "
                             f"{size}: copy both files of a checkpoint")
        if hashlib.sha256(raw).hexdigest() != header["f8_sha256"]:
            raise StateError(f"{sidecar} fails the sha256 in {path}: it is not the "
                             "checkpoint's own sidecar, or it is damaged")
        flat = raw.view("<f8")
        groups, start = {group: {} for group in ("weights", "m", "v", "centers")}, 0
        for group, name, shape in entries:
            if group not in groups or name in groups[group]:
                raise ValueError(f"unknown or repeated array {group}/{name}")
            stop = start + math.prod(shape)
            # a native float64 copy per array, so none is a view that pins the whole sidecar
            groups[group][name] = flat[start:stop].reshape(shape).astype(np.float64)
            start = stop
        arch, weights, centers = header["arch"], groups["weights"], groups["centers"]
        if arch not in VALID_MODELS or set(weights) != (
                {"w1", "w2_mu", "w2_logstd"} if arch == "vgae" else {"w1", "w2"}):
            raise ValueError(f"arch {arch!r} with weights {sorted(weights)}")
        if set(centers) - {"centers"}:
            raise ValueError(f"centers group holds {sorted(centers)}")
        centers = centers.get("centers")
        if centers is not None and (centers.ndim != 2 or centers.shape[1] != EMBED_DIM):
            raise ValueError(f"centers of shape {centers.shape}")
        lr, step_count = header["adam"]["lr"], header["adam"]["step_count"]
        # a bool is no number and no count
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not 0.0 < lr < math.inf:
            raise ValueError(f"adam lr {lr!r}")
        if isinstance(step_count, bool) or not isinstance(step_count, int) or step_count < 0:
            raise ValueError(f"adam step_count {step_count!r}")
        # no moments before the first Adam step, and after it one per weight,
        # plus the centers' once dgae's step ran, each shaped like its array
        params = weights if centers is None else {**weights, "centers": centers}
        m, v = groups["m"], groups["v"]
        required, allowed = (set(), set()) if step_count == 0 else (set(weights), set(params))
        if not (set(m) == set(v) and required <= set(m) <= allowed) or any(
                m[k].shape != params[k].shape or v[k].shape != params[k].shape for k in m):
            raise ValueError(f"adam moments {sorted(m)}, {sorted(v)} at step {step_count} "
                             f"for arrays {sorted(params)}")
        bits = np.random.PCG64()
        bits.state = header["rng_state"]
        return GaeModel(arch=arch, weights=weights,
                        adam=AdamState(lr=lr, step_count=step_count, m=m, v=v),
                        rng=np.random.Generator(bits), centers=centers,
                        provenance=header["provenance"], kernels=header["kernels"])
    except (OSError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise StateError(f"cannot read checkpoint {path}: {exc!r}") from exc
