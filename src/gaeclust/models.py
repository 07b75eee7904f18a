"""Two-layer GCN auto-encoders and every loss/gradient pair they train on.

Architectures
-------------
gae   Z = A~ ReLU(A~ X W1) W2, inner-product decoder sigmoid(Z Z^T).
vgae  same trunk with mu / log-sigma heads and a reparameterized sample
      during training (Z = mu at evaluation).
dgae  gae trunk plus trainable cluster centers and a KL(Q||P) clustering
      loss over Student-t soft assignments.

All gradients are closed form (no autodiff); each one is verified against
central finite differences in the test suite.

Pair losses
-----------
The reconstruction BCE over sigmoid(Z Z^T) and the remainder L_R of its
Laplacian decomposition are sums over all N^2 pairs. Each embedding gets
one pair pass (PairPass, which encode attaches to its caches). The
logits l = Z Z^T are symmetric, so the pass sweeps the upper triangle
only, in strips of rows [i0, i1) against the columns i0:, and keeps

    S = sum_ij softplus(l_ij)    and    sigmoid(L) @ Z.

A strip computes s = sigmoid(|l|) once per entry; sigmoid(l) - 1/2 =
sign(l) (s - 1/2), and softplus(l) = (l + |l|) / 2 - log s. The log part
of S is one log per column of the product of that column's r factors s
in [1/2, 1], which stays >= 2^-r, a normal double for r <= 500 rows. The
logit sums need no pass over l: the strip's is zs . (sum_{j >= i0} z_j)
and its diagonal block's zs . zs, with zs = sum_{i0 <= i < i1} z_i.
A strip's square diagonal block is counted once; its off-diagonal part
counts twice in S and reaches sigmoid(L) @ Z for the rows [i0, i1)
directly and for the rows i1: through its transpose. A target A enters
afterwards only through its stored entries e = (i, j),
O(E) work, because every pair term is linear in a_ij
(w a softplus(-l) + (1 - a) softplus(l) = softplus(l) + a (w softplus(-l) - softplus(l))):

    loss  scale * (S + sum_e a_e (w softplus(-l_e) - softplus(l_e)))
    grad  scale * (2 sigmoid(L) @ Z + C @ Z + C^T @ Z),
          C_e = a_e ((w - 1) sigmoid(l_e) - w)

with (w, scale) = (1, 1) for the plain sum and ((N^2-2E)/2E, 1/(2(N^2-2E)))
for pos_weighted. At w = 1, (w - 1) sigmoid(l_e) - w is exactly -1, so the
plain gradient's C is -A and needs no edge logits. Losses and gradients
against any number of targets thus cost one O(N^2 d / 2) pass plus O(E d)
each; a caller scoring one target twice (loss and gradient) computes its
edge logits l_e once (edge_logits) and hands them to both.

The strips run on pair_sweep_workers threads, one per usable core (this
module pins numpy's OpenBLAS to one thread when it loads; README says
why): the thread that reads the pass and, when there is more than one
strip, pair_sweep_workers - 1 pool helpers. PairPass.start()
sets the helpers sweeping before the read; train_joint starts each pass
the next epoch reads, so it is swept while the loop runs k-means, Xi,
Upsilon and every term of the epoch that needs no pass, and the first
reader sweeps the strips left and waits for the fold. Each thread claims
the next strip, computes its part of S, its rows and its transpose part,
and folds every finished strip that is next in strip order with the adds
of a serial sweep, so S and sigmoid(L) @ Z are bitwise the same for any
worker count. Memory: a strip starting at row i0 has
max(1, _TILE_DOUBLES // (N - i0)) rows, and each thread reuses two
blocks of _TILE_DOUBLES doubles for it (2 MB each, or two rows of N - i0
doubles near the top of a graph larger than the budget); at most
2 x workers strips are claimed ahead of the fold, so at most that many
results (r x d and (N - i1) x d doubles) wait in it. That is independent
of the graph apart from those N x d results, and the pass never
materializes an N x N matrix.

Features
--------
pretrain and train_joint hand encode the node features through
feature_operand: as a CSR matrix when at most _SPARSE_FEATURES of the
entries are non-zero (bag-of-words features such as Cora's are ~1%
dense), and as the dense array otherwise. encode and backprop_theta
multiply X through the same lines in both representations.
"""

from __future__ import annotations

import base64
import contextvars
import ctypes
import functools
import json
import numbers
import os
import re
import threading
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import (ConfigError, DataError, NumericsError, ShapeError,
                     StateError, TrainingError)
from .graphio import AttributedGraph, normalize_adjacency, write_text_atomic
from .linalg import AdamState, adam_step

HIDDEN_DIM = 32
EMBED_DIM = 16

# strip budget of the pair pass: doubles per block (2 MB), small enough
# that the few blocks one strip touches stay near the core's cache. A strip
# has r = 1 or r^2 <= _TILE_DOUBLES rows, so r <= isqrt(_TILE_DOUBLES) = 500,
# and the sweep's column products of r factors in [1/2, 1] stay >= 2^-500,
# well above the smallest normal double (2^-1022).
_TILE_DOUBLES = 250_000

# densest feature matrix encode gets as CSR. X @ W1 plus X^T @ G (N x 32)
# in CSR breaks even with BLAS between 20% and 25% non-zeros at both
# N=2708, J=1433 and N=19717, J=500 (one BLAS thread) and is 2.2-2.6x
# faster at 10%, so the cut-off sits below break-even with PubMed's 10.0%
# inside.
_SPARSE_FEATURES = 0.12

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
    m1: int = 20
    m2: int = 15
    rethink: bool = False
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

    @property
    def in_dim(self) -> int:
        return self.weights["w1"].shape[0]

    def weight_ids(self) -> tuple:
        return tuple(id(self.weights[k]) for k in sorted(self.weights))


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


def feature_operand(x: np.ndarray):
    """X as encode should take it: CSR when at most _SPARSE_FEATURES of
    its entries are non-zero, the dense float64 array otherwise.

    One boolean mask of X both counts the non-zeros and locates them (NaN
    counts, -0.0 does not); the CSR arrays equal sp.csr_matrix(x)'s."""
    x = np.asarray(x, dtype=np.float64)
    flat = np.flatnonzero(x != 0)
    if flat.size > _SPARSE_FEATURES * x.size:
        return x
    rows, cols = np.divmod(flat, x.shape[1])
    indptr = np.zeros(x.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=x.shape[0]), out=indptr[1:])
    return sp.csr_matrix((x.ravel()[flat], cols, indptr), shape=x.shape)


def encode(model: GaeModel, a_prop: sp.csr_matrix, x, training: bool = False):
    """Forward pass Z = A~ ReLU(A~ X W1) W2, with A~ = a_prop from normalize_adjacency.

    x is the dense feature array or its CSR matrix (feature_operand
    picks one); both give the same Z up to rounding. Returns (Z, caches);
    caches hold the intermediates backprop_theta needs, x included, and
    the embedding's PairPass (caches["pairs"]), which sweeps the upper
    triangle of Z Z^T in strips of _TILE_DOUBLES blocks on first use (or
    from PairPass.start()).
    Any weight update invalidates them. For vgae, training mode draws a
    reparameterized sample Z = mu + sigma * eps from the model rng;
    evaluation mode returns mu.
    """
    if not sp.issparse(x):
        x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.weights["w1"].shape[0]:
        raise ShapeError(f"feature dim {x.shape[1]} != W1 rows {model.weights['w1'].shape[0]}")
    p1 = a_prop @ (x @ model.weights["w1"])
    h = np.maximum(p1, 0.0)
    m2 = a_prop @ h
    caches = {"a": a_prop, "x": x, "p1": p1, "h": h, "m2": m2,
              "weight_ids": model.weight_ids(), "training": training}
    if model.arch == "vgae":
        mu = m2 @ model.weights["w2_mu"]
        logstd = m2 @ model.weights["w2_logstd"]
        caches.update({"mu": mu, "logstd": logstd})
        if training:
            eps = model.rng.standard_normal(mu.shape)
            z = mu + np.exp(logstd) * eps
            caches["eps"] = eps
        else:
            z = mu
    else:
        z = m2 @ model.weights["w2"]
    # a non-finite log-sigma breaks backprop even where exp() left Z finite
    if not np.all(np.isfinite(z)) or not np.all(np.isfinite(caches.get("logstd", 0.0))):
        raise NumericsError("encode produced non-finite activations")
    caches["pairs"] = PairPass(z)
    return z, caches


def backprop_theta(model: GaeModel, caches: dict, grad_z: np.ndarray,
                   grad_mu_extra: np.ndarray | None = None,
                   grad_logstd_extra: np.ndarray | None = None) -> dict:
    """Chain rule from dL/dZ back to the encoder weights.

    grad_mu_extra / grad_logstd_extra carry loss terms that hit the
    variational heads directly (the Gaussian prior KL).

    Raises StateError when the caches were built against different
    weights than the model currently holds.
    """
    if caches["weight_ids"] != model.weight_ids():
        raise StateError("stale caches: weights changed since encode")
    a = caches["a"]
    m2 = caches["m2"]
    grads = {}
    if model.arch == "vgae":
        d_mu = np.array(grad_z, dtype=np.float64)
        if caches["training"]:
            sigma = np.exp(caches["logstd"])
            d_logstd = grad_z * caches["eps"] * sigma
        else:
            d_logstd = np.zeros_like(caches["logstd"])
        if grad_mu_extra is not None:
            d_mu += grad_mu_extra
        if grad_logstd_extra is not None:
            d_logstd = d_logstd + grad_logstd_extra
        grads["w2_mu"] = m2.T @ d_mu
        grads["w2_logstd"] = m2.T @ d_logstd
        d_m2 = d_mu @ model.weights["w2_mu"].T + d_logstd @ model.weights["w2_logstd"].T
    else:
        grads["w2"] = m2.T @ grad_z
        d_m2 = grad_z @ model.weights["w2"].T
    d_h = a.T @ d_m2
    d_p1 = d_h * (caches["p1"] > 0.0)
    grads["w1"] = caches["x"].T @ (a.T @ d_p1)
    return grads


def flatten_theta(arrays: dict) -> np.ndarray:
    """Deterministic flattening (sorted keys) of a weight/gradient dict."""
    return np.concatenate([np.asarray(arrays[k], dtype=np.float64).ravel()
                           for k in sorted(arrays)])


def _strips(n: int):
    """(i0, i1) of each upper-triangle strip of an N x N pair pass, top to bottom."""
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, _TILE_DOUBLES // (n - i0)))
        yield i0, i1
        i0 = i1


@functools.cache
def _openblas_function(name: str, restype, argtypes=()):
    """The function name of the OpenBLAS library numpy loaded, or None."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so")):
        try:
            function = getattr(ctypes.CDLL(str(lib)), name)
        except (OSError, AttributeError):
            continue
        function.restype, function.argtypes = restype, list(argtypes)
        return function
    return None


if (_set_threads := _openblas_function("scipy_openblas_set_num_threads64_", None, (ctypes.c_int,))):
    _set_threads(1)  # the pin the module docstring names: one thread for every BLAS call


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs a call on now, or None when that cannot be read."""
    getter = _openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return None if getter is None else getter()


def blas_core() -> str | None:
    """The CPU core type numpy's OpenBLAS dispatches its kernels for (e.g.
    'SkylakeX'), or None when that cannot be read."""
    getter = _openblas_function("scipy_openblas_get_corename64_", ctypes.c_char_p)
    name = None if getter is None else getter()
    return None if name is None else name.decode("ascii", "replace")


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pair_sweep_workers() -> int:
    """Threads a pair sweep runs its strips on, its reader included: one per usable core."""
    return usable_cores()


@functools.cache
def _sweep_pool(helpers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=helpers, thread_name_prefix="pair-sweep")


# a forked child has none of its parent's threads, so it starts pools of its own
os.register_at_fork(after_in_child=_sweep_pool.cache_clear)


# two blocks of _TILE_DOUBLES doubles per thread that sweeps strips, reused strip after strip
_strip_buffers = threading.local()


def _strip_blocks(rows: int, cols: int) -> tuple:
    """This thread's two strip blocks, as (rows, cols) views."""
    size = rows * cols
    blocks = getattr(_strip_buffers, "blocks", None)
    if blocks is None or blocks[0].size < size:
        blocks = _strip_buffers.blocks = (np.empty(max(size, _TILE_DOUBLES)),
                                          np.empty(max(size, _TILE_DOUBLES)))
    return tuple(b[:size].reshape(rows, cols) for b in blocks)


def _strip_sums(z: np.ndarray, i0: int, i1: int, tail: np.ndarray) -> tuple:
    """One strip's share of the pair sweep: (its part of sum_ij softplus(l_ij),
    its rows (sigmoid(L) - 1/2)[i0:i1, i0:] @ z[i0:], and its transpose part
    (sigmoid(L) - 1/2)[i0:i1, i1:]^T @ z[i0:i1] for the rows i1:). tail holds
    the column sums of z[i0:]."""
    r = i1 - i0
    logits, e = _strip_blocks(r, z.shape[0] - i0)
    np.matmul(z[i0:i1], z[i0:].T, out=logits)
    np.abs(logits, out=e)
    # softplus(l) = max(l, 0) - log(sigmoid(|l|)), and max(l, 0) = (l + |l|) / 2;
    # the strip sum counts twice less its diagonal block once. The logit
    # sums come from column sums of Z.
    zs = z[i0:i1].sum(axis=0)
    relu = 0.5 * (zs @ tail + e.sum())
    relu_diag = 0.5 * (zs @ zs + e[:, :r].sum())
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    np.reciprocal(e, out=e)
    # e = sigmoid(|l|) in [1/2, 1]: a column's product over the r rows
    # stays >= 2^-r (see _TILE_DOUBLES), so one log per column sums its logs
    log_sig = np.log(np.multiply.reduce(e, axis=0))
    part = float(2.0 * (relu - log_sig.sum()) - relu_diag + log_sig[:r].sum())
    # sigmoid(l) - 1/2 = sign(l) * (sigmoid(|l|) - 1/2)
    e -= 0.5
    np.copysign(e, logits, out=e)
    return part, e @ z[i0:], e[:, r:].T @ z[i0:i1]


class _Sweep:
    """One pair sweep of z, its strips claimed by whichever thread is free.

    A thread in work() claims the next strip under one condition, at most
    2 x workers strips ahead of the fold, sweeps it, stores its result and
    folds every stored result that is next in strip order, with the adds of
    a serial sweep; so the sums are the same bits whichever thread swept
    which strip. A strip that raises ends the sweep: no strip is claimed
    after it, and join() raises it.
    """

    def __init__(self, z: np.ndarray, workers: int):
        self.z = z
        # each strip's column sums of z[i0:], by the serial sweep's running subtraction
        self.strips, tail = [], z.sum(axis=0)
        for i0, i1 in _strips(z.shape[0]):
            self.strips.append((i0, i1, tail.copy()))
            tail -= z[i0:i1].sum(axis=0)
        self.ahead = 2 * workers
        self.cond = threading.Condition()
        self.claimed = self.folded = 0
        self.ready = {}
        self.error = None
        self.softplus_sum = 0.0
        # (sigmoid(L) - 1/2) @ Z; sigmoid(L) - 1/2 is symmetric, so its upper triangle covers it
        self.sigmoid_z = np.zeros_like(z)

    def _stopped(self) -> bool:
        return self.error is not None or self.claimed == len(self.strips)

    def work(self) -> None:
        """Claim and sweep strips until every strip is claimed or one has raised."""
        while True:
            with self.cond:
                self.cond.wait_for(lambda: self._stopped()
                                   or self.claimed - self.folded < self.ahead)
                if self._stopped():
                    return
                index = self.claimed
                self.claimed += 1
            try:
                result = _strip_sums(self.z, *self.strips[index])
            except BaseException as exc:
                with self.cond:
                    self.error = self.error or exc
                    self.cond.notify_all()
                return
            with self.cond:
                self.ready[index] = result
                while self.folded in self.ready:
                    part, own, across = self.ready.pop(self.folded)
                    i0, i1, _ = self.strips[self.folded]
                    self.softplus_sum += part
                    self.sigmoid_z[i0:i1] += own
                    self.sigmoid_z[i1:] += across
                    self.folded += 1
                self.cond.notify_all()

    def join(self) -> tuple:
        """(sum_ij softplus(l_ij), sigmoid(L) @ Z) once every strip is folded;
        raises what the first failing strip raised."""
        with self.cond:
            self.cond.wait_for(lambda: self.error is not None
                               or self.folded == len(self.strips))
            if self.error is not None:
                raise self.error
        self.sigmoid_z += 0.5 * self.z.sum(axis=0)
        return self.softplus_sum, self.sigmoid_z


def _pair_sweep(z: np.ndarray) -> _Sweep:
    """The sweep of z's pair pass, handed to pair_sweep_workers() - 1 pool
    helpers when there are more workers and strips than one; whoever reads
    the sums sweeps the strips still unclaimed and joins it."""
    workers = pair_sweep_workers()
    sweep = _Sweep(z, workers)
    if workers > 1 and len(sweep.strips) > 1:
        pool = _sweep_pool(workers - 1)
        for _ in range(workers - 1):
            # each helper runs in a copy of the caller's context, np.errstate included
            pool.submit(contextvars.copy_context().run, sweep.work)
    return sweep


def _check_target(a_target: sp.spmatrix, n: int) -> sp.csr_matrix:
    a = a_target.tocsr()
    if a.shape != (n, n):
        raise ShapeError(f"target shape {a.shape} does not match Z rows {n}")
    return a


def _weighting(a: sp.csr_matrix, weighting: str) -> tuple:
    """(positive-class weight w, global scale) of a BCE weighting."""
    if weighting == "plain":
        return 1.0, 1.0
    if weighting == "pos_weighted":
        n_pairs = a.shape[0] * a.shape[0]
        two_e = a.nnz
        if two_e == 0 or two_e >= n_pairs:
            raise DataError("pos_weighted needs 0 < edges < all pairs")
        return (n_pairs - two_e) / two_e, 0.5 / (n_pairs - two_e)
    raise DataError(f"unknown weighting {weighting!r}")


class PairPass:
    """The pair pass of one embedding Z, swept on first use or from start().

    recon_loss, recon_grad_z and regularizer_R accept a PairPass in place
    of Z and then share its one O(N^2 d) sweep (see the module docstring);
    each target adds O(E d). encode attaches one to its caches; a weight
    update makes a new embedding and so a new pass.
    """

    def __init__(self, z: np.ndarray):
        self.z = np.asarray(z, dtype=np.float64)
        self._sweep = None
        self._sums = None

    def start(self) -> PairPass:
        """Begin the sweep on the pool helpers, if there are any, so it runs
        behind the caller's other work; the first read joins it. Returns self."""
        if self._sweep is None and self._sums is None:
            self._sweep = _pair_sweep(self.z)
        return self

    def sums(self) -> tuple:
        """(sum_ij softplus(l_ij), sigmoid(L) @ Z), swept once; the caller
        sweeps the strips no helper has claimed, then waits for the fold."""
        if self._sums is None:
            sweep = self._sweep if self._sweep is not None else _pair_sweep(self.z)
            self._sweep = None
            sweep.work()
            self._sums = sweep.join()
        return self._sums


def _as_pairs(z) -> PairPass:
    return z if isinstance(z, PairPass) else PairPass(z)


def edge_logits(z, a_target: sp.spmatrix) -> np.ndarray:
    """z_i . z_j for every stored entry (i, j) of the target's CSR form, in
    storage order. z is the embedding or its PairPass."""
    z = z.z if isinstance(z, PairPass) else np.asarray(z, dtype=np.float64)
    a = _check_target(a_target, z.shape[0])
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return np.einsum("ed,ed->e", z[rows], z[a.indices])


def _target_logits(pairs: PairPass, a: sp.csr_matrix, logits) -> np.ndarray:
    """The caller's edge logits of a on pairs.z, or computed here when None."""
    if logits is None:
        return edge_logits(pairs, a)
    if np.shape(logits) != a.data.shape:
        raise ShapeError(f"{np.shape(logits)} edge logits for a target with {a.nnz} entries")
    return logits


def recon_loss(z, a_target: sp.spmatrix, weighting: str = "plain",
               logits: np.ndarray | None = None) -> float:
    """Binary cross-entropy between sigmoid(Z Z^T) and a target graph.

    weighting "plain" is the unweighted sum over all N^2 ordered pairs
    (the form every decomposition identity is stated in). "pos_weighted"
    is the mean BCE with positive-class weight (N^2-2E)/(2E) and global
    scale N^2/(2(N^2-2E)), the loss used for training. 2E is the number
    of stored target entries; each pair term is linear in its target
    value, so weighted targets are scored exactly too. z is the embedding
    or its PairPass; logits, when given, are edge_logits(z, a_target).
    """
    pairs = _as_pairs(z)
    a = _check_target(a_target, pairs.z.shape[0])
    w, scale = _weighting(a, weighting)
    l_e = _target_logits(pairs, a, logits)
    # a (w softplus(-l) - softplus(l)) turns the all-pairs softplus sum
    # into the weighted BCE on the stored entries
    edges = a.data @ (w * np.logaddexp(0.0, -l_e) - np.logaddexp(0.0, l_e))
    softplus_sum, _ = pairs.sums()
    return scale * (softplus_sum + float(edges))


def recon_grad_z(z, a_target: sp.spmatrix, weighting: str = "plain",
                 logits: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of recon_loss w.r.t. Z (z is the embedding or its
    PairPass; logits as in recon_loss, which the plain weighting never reads).

    Accumulates both index roles of each row (z_i appears as z_i^T z_j
    and z_j^T z_i), which doubles the single-sum printed gradient form
    on symmetric inputs; verified against finite differences.
    """
    pairs = _as_pairs(z)
    a = _check_target(a_target, pairs.z.shape[0])
    w, scale = _weighting(a, weighting)
    # the target's products come before the read, which may wait for the sweep
    if weighting == "plain":
        # C = -A; negating a product gives the bits of the product of -A
        cz, ctz = -(a @ pairs.z), -(a.T @ pairs.z)
    else:
        coef = a.data * ((w - 1.0) * expit(_target_logits(pairs, a, logits)) - w)
        c = sp.csr_matrix((coef, a.indices, a.indptr), shape=a.shape)
        cz, ctz = c @ pairs.z, c.T @ pairs.z
    _, sigmoid_z = pairs.sums()
    # sigmoid(L) is symmetric, so both index roles of its part are equal
    return scale * (2.0 * sigmoid_z + cz + ctz)


def laplacian_quadratic(z: np.ndarray, a_any: sp.spmatrix) -> float:
    """L_C(Z, A) = 1/2 sum_ij a_ij ||z_i - z_j||^2 for any weighted A."""
    z = np.asarray(z, dtype=np.float64)
    a = a_any.tocsr()
    if a.shape[0] != z.shape[0]:
        raise ShapeError("adjacency and Z disagree on N")
    cross = float(np.einsum("nd,nd->", z, a @ z))
    return _degree_term(z, a) - cross


def _degree_term(z: np.ndarray, a: sp.csr_matrix) -> float:
    """1/2 sum_ij a_ij (||z_i||^2 + ||z_j||^2), the degree part of L_C and L_R."""
    row_sums = np.asarray(a.sum(axis=1)).ravel()
    col_sums = np.asarray(a.sum(axis=0)).ravel()
    sq = np.einsum("nd,nd->n", z, z)
    return float(0.5 * (row_sums @ sq + col_sums @ sq))


def regularizer_R(z, a_self: sp.spmatrix) -> float:
    """L_R(Z, A) = sum_ij log(1+exp(z_i.z_j)) - 1/2 a_ij(||z_i||^2+||z_j||^2).

    z is the embedding or its PairPass.
    """
    pairs = _as_pairs(z)
    a = _check_target(a_self, pairs.z.shape[0])
    softplus_sum, _ = pairs.sums()
    return softplus_sum - _degree_term(pairs.z, a)


def kmeans_grad_z(z: np.ndarray, a_clus: sp.spmatrix) -> np.ndarray:
    """Exact gradient of the embedded k-means loss in its Laplacian form,
    laplacian_quadratic(Z, A_clus) (both pair roles accumulated)."""
    z = np.asarray(z, dtype=np.float64)
    a = a_clus.tocsr()
    row_sums = np.asarray(a.sum(axis=1)).ravel()
    col_sums = np.asarray(a.sum(axis=0)).ravel()
    return (row_sums + col_sums)[:, None] * z - (a @ z) - (a.T @ z)


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


def dgae_clus_loss(z: np.ndarray, centers: np.ndarray, labels: np.ndarray,
                   rows: np.ndarray | None = None, kernel: tuple | None = None,
                   grad_centers: bool = True):
    """KL(Q||P) with the gradient through the Student-t kernel.

    P = student_t(z, centers) is taken for the selected rows from kernel,
    the (diff, s) of student_t_assign(z, centers).kernel, or built here
    for those rows when kernel is None (its rows are bitwise those of
    student_t_assign's full P either way). The frozen target Q is the
    one-hot of labels, one cluster id in [0, K) per row of z. rows
    restricts the divergence (and its gradients) to these rows.

    Returns
    -------
    (loss, grad_z, grad_centers)
        The loss floors p at 1e-12 under each positive q entry;
        grad_centers is None when not asked for.
    """
    z = np.asarray(z, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (z.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} does not match Z rows {z.shape[0]}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= centers.shape[0]:
        raise DataError("labels outside [0, K)")
    idx = np.arange(z.shape[0]) if rows is None else np.asarray(rows, dtype=np.int64)
    if kernel is None:
        diff = z[idx][:, None, :] - centers[None, :, :]
        s = 1.0 / (1.0 + np.einsum("nkd,nkd->nk", diff, diff))
    else:
        diff, s = kernel
        if s.shape != (z.shape[0], centers.shape[0]):
            raise ShapeError(f"kernel of shape {s.shape} for {z.shape[0]} rows and "
                             f"{centers.shape[0]} centers")
        if rows is not None:
            diff, s = diff[idx], s[idx]
    p = s / s.sum(axis=1, keepdims=True)
    hit = (np.arange(idx.size), labels[idx])
    q = np.zeros_like(p)
    q[hit] = 1.0
    # q log(q / p) is -log p at each row's label and 0 elsewhere; summing the
    # whole (rows, K) array keeps the order of the adds
    terms = np.zeros_like(p)
    terms[hit] = -np.log(np.maximum(p[hit], 1e-12))
    loss = float(terms.sum())

    # d/dz_i KL = 2 sum_k s_ik (q_ik - p_ik) (z_i - mu_k), s = (1+d^2)^-1
    coeff = 2.0 * s * (q - p)
    grad_rows = np.einsum("nk,nkd->nd", coeff, diff)
    grad_z = np.zeros_like(z)
    grad_z[idx] = grad_rows
    if not grad_centers:
        return loss, grad_z, None
    return loss, grad_z, -np.einsum("nk,nkd->kd", coeff, diff)


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
                        a_target: sp.spmatrix, encoded: tuple | None = None) -> float:
    """One full-batch Adam step on the pos-weighted reconstruction loss.

    Shared by pretraining and the first-group (gae/vgae) joint loop;
    returns the loss value before the update. encoded is the caller's
    (Z, caches) of the current weights, pair pass included; a gae
    eval-mode encode serves, while vgae needs a training-mode sample.
    Without it the model is encoded here.
    """
    training = model.arch == "vgae"
    if encoded is None:
        encoded = encode(model, a_prop, x, training=training)
    _, caches = encoded
    if caches["training"] != training:
        raise StateError(f"{model.arch} steps on a {'training' if training else 'eval'}-mode encode")
    pairs, a = caches["pairs"], a_target.tocsr()
    l_e = edge_logits(pairs, a)
    loss = recon_loss(pairs, a, weighting="pos_weighted", logits=l_e)
    grad_z = recon_grad_z(pairs, a, weighting="pos_weighted", logits=l_e)
    if model.arch == "vgae":
        kl, d_mu, d_logstd = vgae_kl_prior(caches["mu"], caches["logstd"])
        loss += kl
        grads = backprop_theta(model, caches, grad_z, d_mu, d_logstd)
    else:
        grads = backprop_theta(model, caches, grad_z)
    if not np.isfinite(loss):
        raise TrainingError("reconstruction loss diverged (non-finite)")
    model.weights = adam_step(model.adam, model.weights, grads)
    return loss


def pretrain(model: GaeModel, graph: AttributedGraph, cfg: TrainConfig) -> GaeModel:
    """Full-batch reconstruction pretraining: cfg.pretrain_epochs Adam steps at cfg.lr."""
    model.adam.lr = cfg.lr
    a_prop = normalize_adjacency(graph, "propagation")
    x = feature_operand(graph.features)
    for _ in range(cfg.pretrain_epochs):
        reconstruction_step(model, a_prop, x, graph.adjacency)
    return model


CHECKPOINT_VERSION = 2


def _pack(a: np.ndarray) -> dict:
    """An array as {"shape", "f8": base64 of its little-endian float64 bytes}."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack(packed: dict) -> np.ndarray:
    """Inverse of _pack; a malformed entry raises KeyError, TypeError or ValueError."""
    flat = np.frombuffer(base64.b64decode(packed["f8"], validate=True), dtype="<f8")
    return flat.reshape(packed["shape"]).astype(np.float64)


def save_checkpoint(model: GaeModel, path) -> None:
    """Write a model as a version-2 JSON checkpoint (layout: README, Outputs).

    Arrays keep their exact float64 bytes, so load_checkpoint restores
    them bitwise and equal models give byte-identical files.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "arch": model.arch,
        "weights": {k: _pack(v) for k, v in sorted(model.weights.items())},
        "adam": {
            "lr": model.adam.lr,
            "step_count": model.adam.step_count,
            "m": {k: _pack(v) for k, v in sorted(model.adam.m.items())},
            "v": {k: _pack(v) for k, v in sorted(model.adam.v.items())},
        },
        "centers": None if model.centers is None else _pack(model.centers),
        "rng_state": model.rng.bit_generator.state,
        "provenance": model.provenance,
    }
    write_text_atomic(path, json.dumps(payload))


def load_checkpoint(path) -> GaeModel:
    """Inverse of save_checkpoint; restores weights, Adam state, and rng.
    An unreadable or malformed file, or another format version, raises StateError."""
    try:
        payload = json.loads(Path(path).read_text())
        if payload["format_version"] != CHECKPOINT_VERSION:
            raise StateError(f"{path} has checkpoint format version {payload['format_version']!r}"
                             f", not {CHECKPOINT_VERSION}: delete it and pretrain again")
        arch, adam, centers = payload["arch"], payload["adam"], payload["centers"]
        weights = {k: _unpack(v) for k, v in payload["weights"].items()}
        if arch not in VALID_MODELS or set(weights) != (
                {"w1", "w2_mu", "w2_logstd"} if arch == "vgae" else {"w1", "w2"}):
            raise ValueError(f"arch {arch!r} with weights {sorted(weights)}")
        bits = np.random.PCG64()
        bits.state = payload["rng_state"]
        return GaeModel(arch=arch, weights=weights,
                        adam=AdamState(lr=adam["lr"], step_count=adam["step_count"],
                                       m={k: _unpack(v) for k, v in adam["m"].items()},
                                       v={k: _unpack(v) for k, v in adam["v"].items()}),
                        rng=np.random.Generator(bits),
                        centers=None if centers is None else _unpack(centers),
                        provenance=payload["provenance"])
    except (OSError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise StateError(f"cannot read checkpoint {path}: {exc!r}") from exc
