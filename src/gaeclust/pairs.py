"""The pair engine: every sum over the N^2 pairs of sigmoid(Z Z^T).

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
for pos_weighted. Losses and gradients against any number of targets thus
cost one O(N^2 d / 2) pass plus O(E d) each; the pass keeps the edge
logits l_e of the last target object it scored, so a step that scores one
target twice (gradient, then loss) gathers them once. C takes sigmoid(l_e)
from numpy's exp, as the strips do.

Sweep
-----
One PairPass per embedding owns its strips, their fold and its sums. The
strips run on pair_sweep_workers threads, one per usable core: the
thread that reads the pass and, when there is more than one strip,
pair_sweep_workers - 1 pool helpers. PairPass.start() sets the helpers
sweeping before the read; train_joint starts each pass the next epoch
reads (every gae and dgae epoch, a vgae epoch only for its diagnostics
row), so it is swept while the loop runs k-means, Xi, Upsilon and every
term of the epoch that needs no pass, and the first reader sweeps the
strips left and waits for the fold. Each thread claims the next strip,
computes its part of S, its rows and its transpose part, and folds every
finished strip that is next in strip order with the adds of a serial
sweep, so S and sigmoid(L) @ Z are bitwise the same for any worker count
and whichever thread swept which strip (tests/test_models.py checks 1, 2
and 3 workers, with and without start(); the byte gate holds at 2 and 3).
A strip that raises, such as a FloatingPointError under the caller's
np.errstate, stops the claims and is raised by every read of that pass.

Memory: a strip starting at row i0 has max(1, _TILE_DOUBLES // (N - i0))
rows; each thread reuses for it one block of _TILE_DOUBLES doubles (2 MB,
or a row of N - i0 near the top) plus as many int8 signs of l (0.25 MB).
The block holds -|l|, made by setting the sign bit of l, and then
s - 1/2 >= +0, so its product by the signs +-1 is bitwise
copysign(s - 1/2, l) (tests/test_models.py::TestStripArithmetic). At
most 2 x workers strips are claimed ahead of the fold, so at most that
many results (r x d and (N - i1) x d doubles) wait in it. That is
independent of the graph apart from those N x d results, and the pass
never materializes an N x N matrix. Per-node x per-cluster and per-edge
temporaries have a smaller budget of their own, _BLOCK_DOUBLES (256 KB,
so that a block stays in a core's L2 cache), and row_blocks cuts their
rows into blocks of at most that many doubles: edge_logits gathers the
endpoints of one block of edges at a time, never as two E x d arrays, and
the clustering head (clustering._squared_distances, gaussian_soft_assign,
models.dgae_clus_loss) builds z_i - mu_k for one block of nodes at a
time, never as an N x K x d tensor. A block's rows are computed
independently, and a sum over rows (dgae's centers gradient, at K d > 1)
carries exactly from block to block in row order, so unlike a strip's, a
block's size moves no bit.

Threads
-------
Loading this module (which gaeclust.models and so `import gaeclust` do)
sets numpy's OpenBLAS to one thread: the bits of a BLAS product change
with the threads it is split over, so the pin is what makes one seed give
one set of output bytes at any OPENBLAS_NUM_THREADS, for each pair of
OpenBLAS core type and numpy SIMD set (blas_core and numpy_simd in
results.json). The count is process-global, so it is pinned once here
rather than at each entry point, for the library, the CLI, test
subprocesses and the benchmark alike, and for a library caller's own BLAS
work; a caller that raises it again after the import gives up byte
stability. Where numpy's BLAS is not scipy-openblas nothing is pinned and
blas_threads() is None: set that BLAS's thread variable (MKL_NUM_THREADS,
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS) to 1 before Python starts.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ShapeError

# strip budget of the pair pass: doubles per block (2 MB), small enough that
# the few blocks one strip touches stay near the core's cache. A strip has
# r = 1 or r^2 <= _TILE_DOUBLES rows, so r <= isqrt(_TILE_DOUBLES) = 500, and
# the sweep's column products of r factors in [1/2, 1] stay >= 2^-500, well
# above the smallest normal double (2^-1022). The strip boundaries fix the
# bits of the sweep's sums, so this budget is not row_blocks'.
_TILE_DOUBLES = 250_000

# budget of a row_blocks block: doubles per block (256 KB), so that a block
# of per-node x per-cluster or per-edge temporaries stays in a core's L2 cache
_BLOCK_DOUBLES = 32_768


def row_blocks(n: int, width: int):
    """(r0, r1) of consecutive blocks of the rows [0, n), each at most
    max(1, _BLOCK_DOUBLES // width) rows: rows of width doubles fill at most
    _BLOCK_DOUBLES doubles per block. No caller's bits depend on the
    blocks' size (see the module docstring)."""
    step = max(1, _BLOCK_DOUBLES // max(1, width))
    return [(r0, min(n, r0 + step)) for r0 in range(0, n, step)]


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


# per thread that sweeps strips, a block of _TILE_DOUBLES doubles and its int8 signs, reused
_strip_buffers = threading.local()


def _strip_blocks(rows: int, cols: int) -> tuple:
    """This thread's strip block and sign block, as (rows, cols) views."""
    size = rows * cols
    blocks = getattr(_strip_buffers, "blocks", None)
    if blocks is None or blocks[0].size < size:
        blocks = _strip_buffers.blocks = (np.empty(max(size, _TILE_DOUBLES)),
                                          np.empty(max(size, _TILE_DOUBLES), dtype=np.int8))
    return tuple(b[:size].reshape(rows, cols) for b in blocks)


def _strip_sums(z: np.ndarray, i0: int, i1: int, tail: np.ndarray) -> tuple:
    """One strip's share of the pair sweep: (its part of sum_ij softplus(l_ij),
    its rows (sigmoid(L) - 1/2)[i0:i1, i0:] @ z[i0:], and its transpose part
    (sigmoid(L) - 1/2)[i0:i1, i1:]^T @ z[i0:i1] for the rows i1:). tail holds
    the column sums of z[i0:]."""
    r = i1 - i0
    e, sign = _strip_blocks(r, z.shape[0] - i0)
    np.matmul(z[i0:i1], z[i0:].T, out=e)
    np.signbit(e, out=sign.view(np.bool_))  # sign(l) = +-1, -1 at -0.0 too
    sign *= -2
    sign += 1
    bits = e.view(np.uint64)  # e = -|l|: the sign bit set, as np.copysign(e, -1.0) sets it
    bits |= np.uint64(1 << 63)
    # softplus(l) = max(l, 0) - log(sigmoid(|l|)), and max(l, 0) = (l + |l|) / 2;
    # the strip sum counts twice less its diagonal block once. The logit
    # sums come from column sums of Z; e = -|l| sums to exactly -sum |l|.
    zs = z[i0:i1].sum(axis=0)
    relu = 0.5 * (zs @ tail - e.sum())
    relu_diag = 0.5 * (zs @ zs - e[:, :r].sum())
    np.exp(e, out=e)
    e += 1.0
    np.reciprocal(e, out=e)
    # e = sigmoid(|l|) in [1/2, 1]: a column's product over the r rows
    # stays >= 2^-r (see _TILE_DOUBLES), so one log per column sums its logs
    log_sig = np.log(np.multiply.reduce(e, axis=0))
    part = float(2.0 * (relu - log_sig.sum()) - relu_diag + log_sig[:r].sum())
    # sigmoid(l) - 1/2 = sign(l) * (sigmoid(|l|) - 1/2), exact as sigmoid(|l|) - 1/2 >= +0
    e -= 0.5
    e *= sign
    return part, e @ z[i0:], e[:, r:].T @ z[i0:i1]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) by numpy's exp, as the strips compute it. Like
    scipy.special.expit it raises no floating-point error: exp(-x) may
    overflow to inf (sigmoid 0) or underflow (sigmoid 1)."""
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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
    each target adds O(E d), and the pass keeps the edge logits of the
    last one. encode attaches one to its caches; a weight update makes a
    new embedding and so a new pass. A strip that raises ends the sweep:
    no strip is claimed after it, and every read raises it.
    """

    def __init__(self, z: np.ndarray):
        self.z = np.asarray(z, dtype=np.float64)
        self._cond = None  # set by _begin, once per pass
        self._sums = None
        self._target = self._logits = None

    def _begin(self) -> None:
        """Set up the strips and, when there are more workers and strips than
        one, hand them to pair_sweep_workers() - 1 pool helpers."""
        z = self.z
        # each strip's column sums of z[i0:], by the serial sweep's running subtraction
        self._strips, tail = [], z.sum(axis=0)
        for i0, i1 in _strips(z.shape[0]):
            self._strips.append((i0, i1, tail.copy()))
            tail -= z[i0:i1].sum(axis=0)
        workers = pair_sweep_workers()
        self._ahead = 2 * workers
        self._claimed = self._folded = 0
        self._ready = {}
        self._error = None
        self._softplus_sum = 0.0
        # (sigmoid(L) - 1/2) @ Z; sigmoid(L) - 1/2 is symmetric, so its upper triangle covers it
        self._sigmoid_z = np.zeros_like(z)
        self._cond = threading.Condition()
        if workers > 1 and len(self._strips) > 1:
            pool = _sweep_pool(workers - 1)
            for _ in range(workers - 1):
                # each helper runs in a copy of the caller's context, np.errstate included
                pool.submit(contextvars.copy_context().run, self._work)

    def _stopped(self) -> bool:
        return self._error is not None or self._claimed == len(self._strips)

    def _work(self) -> None:
        """Claim the next strip, at most 2 x workers ahead of the fold, sweep
        it and fold every stored result next in strip order, with the adds of
        a serial sweep; until every strip is claimed or one has raised."""
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._stopped()
                                    or self._claimed - self._folded < self._ahead)
                if self._stopped():
                    return
                index = self._claimed
                self._claimed += 1
            try:
                result = _strip_sums(self.z, *self._strips[index])
            except BaseException as exc:
                with self._cond:
                    self._error = self._error or exc
                    self._cond.notify_all()
                return
            with self._cond:
                self._ready[index] = result
                while self._folded in self._ready:
                    part, own, across = self._ready.pop(self._folded)
                    i0, i1, _ = self._strips[self._folded]
                    self._softplus_sum += part
                    self._sigmoid_z[i0:i1] += own
                    self._sigmoid_z[i1:] += across
                    self._folded += 1
                self._cond.notify_all()

    def start(self) -> PairPass:
        """Begin the sweep on the pool helpers, if there are any, so it runs
        behind the caller's other work; the first read joins it. Returns self."""
        if self._cond is None:
            self._begin()
        return self

    def sums(self) -> tuple:
        """(sum_ij softplus(l_ij), sigmoid(L) @ Z), swept once; the caller
        sweeps the strips no helper has claimed, then waits for the fold.
        Raises what the first failing strip raised."""
        if self._sums is None:
            if self._cond is None:
                self._begin()
            self._work()
            with self._cond:
                self._cond.wait_for(lambda: self._error is not None
                                    or self._folded == len(self._strips))
                if self._error is not None:
                    raise self._error
                if self._sums is None:
                    self._sigmoid_z += 0.5 * self.z.sum(axis=0)
                    self._sums = self._softplus_sum, self._sigmoid_z
        return self._sums

    def edge_logits(self, a: sp.csr_matrix) -> np.ndarray:
        """edge_logits(self.z, a), kept for the last target scored: the same
        object a, which is not changed in place, reads them again, and any
        other object is computed afresh."""
        if a is not self._target:
            self._target, self._logits = a, edge_logits(self.z, a)
        return self._logits


def _as_pairs(z) -> PairPass:
    return z if isinstance(z, PairPass) else PairPass(z)


def edge_logits(z, a_target: sp.spmatrix) -> np.ndarray:
    """z_i . z_j for every stored entry (i, j) of the target's CSR form, in
    storage order. The endpoints are gathered in blocks of edges whose two
    (edges, d) gathers fill one row block (row_blocks), never for all E at
    once."""
    z = np.asarray(z, dtype=np.float64)
    a = _check_target(a_target, z.shape[0])
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    out = np.empty(a.nnz)
    for e0, e1 in row_blocks(a.nnz, 2 * z.shape[1]):
        np.einsum("ed,ed->e", z[rows[e0:e1]], z[a.indices[e0:e1]], out=out[e0:e1])
    return out


def recon_loss(z, a_target: sp.spmatrix, weighting: str = "plain") -> float:
    """Binary cross-entropy between sigmoid(Z Z^T) and a target graph.

    weighting "plain" is the unweighted sum over all N^2 ordered pairs
    (the form every decomposition identity is stated in). "pos_weighted"
    is the mean BCE with positive-class weight (N^2-2E)/(2E) and global
    scale N^2/(2(N^2-2E)), the loss used for training. 2E is the number
    of stored target entries; each pair term is linear in its target
    value, so weighted targets are scored exactly too. z is the embedding
    or its PairPass.
    """
    pairs = _as_pairs(z)
    a = _check_target(a_target, pairs.z.shape[0])
    w, scale = _weighting(a, weighting)
    l_e = pairs.edge_logits(a)
    # a (w softplus(-l) - softplus(l)) turns the all-pairs softplus sum
    # into the weighted BCE on the stored entries
    edges = a.data @ (w * np.logaddexp(0.0, -l_e) - np.logaddexp(0.0, l_e))
    softplus_sum, _ = pairs.sums()
    return scale * (softplus_sum + float(edges))


def recon_grad_z(z, a_target: sp.spmatrix, weighting: str = "plain") -> np.ndarray:
    """Exact gradient of recon_loss w.r.t. Z (z is the embedding or its
    PairPass).

    Accumulates both index roles of each row (z_i appears as z_i^T z_j
    and z_j^T z_i), which doubles the single-sum printed gradient form
    on symmetric inputs; verified against finite differences.
    """
    pairs = _as_pairs(z)
    a = _check_target(a_target, pairs.z.shape[0])
    w, scale = _weighting(a, weighting)
    # the target's products come before the read, which may wait for the sweep
    coef = a.data * ((w - 1.0) * _sigmoid(pairs.edge_logits(a)) - w)
    c = sp.csr_matrix((coef, a.indices, a.indptr), shape=a.shape)
    cz, ctz = c @ pairs.z, c.T @ pairs.z
    _, sigmoid_z = pairs.sums()
    # sigmoid(L) is symmetric, so both index roles of its part are equal
    return scale * (2.0 * sigmoid_z + cz + ctz)


def laplacian_quadratic(z: np.ndarray, a_any: sp.spmatrix) -> float:
    """L_C(Z, A) = 1/2 sum_ij a_ij ||z_i - z_j||^2 for any weighted A."""
    z = np.asarray(z, dtype=np.float64)
    a = _check_target(a_any, z.shape[0])
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


def kmeans_grad_z(z: np.ndarray, a_any: sp.spmatrix) -> np.ndarray:
    """Exact gradient of L_C(Z, A) = laplacian_quadratic(Z, A) for any
    weighted A (both pair roles accumulated), O(E d): the embedded k-means
    loss for the cluster graph A_clus, and the Laplacian term of the
    reconstruction (Proposition 1) for a self-supervision graph."""
    z = np.asarray(z, dtype=np.float64)
    a = _check_target(a_any, z.shape[0])
    row_sums = np.asarray(a.sum(axis=1)).ravel()
    col_sums = np.asarray(a.sum(axis=0)).ravel()
    return (row_sums + col_sums)[:, None] * z - (a @ z) - (a.T @ z)
