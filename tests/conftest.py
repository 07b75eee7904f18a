"""Shared builders for the test suite, and what the suite checks.

Run it with `python3 -m pytest tests/ -v` from the root of a checkout.
Any warning fails a test (`filterwarnings` in pyproject.toml).

Oracles. The suite checks the package against independent code written
into the tests: a step-by-step Adam recurrence, brute-force permutation
matching, a line-by-line simulator of the rewiring pass, double-loop loss
re-summations, central finite differences at both the embedding and the
weight level, sklearn cross-checks of the clustering metrics (skipped
without sklearn) and hypothesis property tests of the algebraic
identities. tests/reference_loop.py is a dense loop written from the
paper's definitions, and test_training.py::TestDenseReference holds
train_joint's gae, vgae and dgae runs, plain and rethink, to it at 1e-10
relative.

k-means (the clustering of gae and vgae, and dgae's first centers)
assigns each Lloyd step from one BLAS product, ||z||^2 - 2 z.c +
||c||^2, and keeps a node's nearest center from it only when no other
center lies within a slack of it: 16 (d+2) u (||z|| + max ||c||)^2, more
than twice the worst gap between that product and the exact distance (u
the unit roundoff), plus (d+2) times the smallest normal double for
products that underflow. Every other node (ties, overflow, underflow) is
assigned from the exact distances, and each center is summed by
np.bincount in node order, so labels and centers are bitwise those of
the plain Lloyd loop at any BLAS thread count;
test_clustering.py::TestLloydOracle compares bytes with that loop, in
process and in subprocesses at 1 and 2 BLAS threads. A fit keeps only
labels and centers: the per-cluster variances of gae's and vgae's
Gaussian P are computed by gaussian_soft_assign on the epochs where Xi
runs, and the oracle compares those bytes too.

The byte gate. test_output_bytes.py runs gae, vgae and dgae, each plain
and with rethink, on a generated 1200-node graph in one subprocess
(output_hashes.py --gate, about 3 s), and compares the sha256 of every
checkpoint, edge list, .deleted sidecar and trace (without wall_time),
and of the JSON report of verify_theory(100, 0) (the cluster graph, the
pair kernels and every closed-form gradient), with the committed table
output_bytes.txt. A checkpoint's line hashes
its JSON header, whose f8_sha256 pins the bytes of its .f8 sidecar.
Output bytes depend on the OpenBLAS core type and numpy's SIMD dispatch,
so the subprocess pins both, OPENBLAS_CORETYPE=Haswell and
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", with the pair
sweep on 2 workers; a second test runs the same list on 3 workers
against the same table. It keeps the host's BLAS thread count, so it
also checks gaeclust's own pin of that count (the pairs module
docstring). The gate skips only on a host that lacks those kernels (no
X86_V3, that is AVX2 and FMA3, or no scipy-openblas), and the skip
reason says which. Any x86-64-v3 host with the same numpy and OpenBLAS
builds should give the same table; that is unverified, since it was made
on one CPU type. A change that moves output bytes regenerates the table
with the command in test_output_bytes.py's docstring, and says so as a
behaviour change. output_hashes.py without --gate prints the larger
table of 12 runs at N=2708 for a by-hand comparison of two checkouts.

The shipping checklist. test_acceptance.py prints one PASS/FAIL/SKIP line
per criterion after the run summary (pytest_terminal_summary below). The
three criteria that reproduce published accuracy and runtime bands need
a real citation dataset: GAECLUST_DATA must name a directory holding
cora/ in the dataset format of README.md, which has a conversion recipe;
without it they skip with that reason. The checklist ends with a scale
check that pushes a 19717-node graph through one reconstruction epoch
under a 600 MB memory budget.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import gaeclust.pairs
from gaeclust import make_graph
from gaeclust.graphio import normalize_adjacency
from gaeclust.models import encode
from gaeclust.pairs import PairPass

# one verdict line per shipping criterion, filled in by test_acceptance.py
# and echoed after the test summary so a plain pytest run prints the list
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def planted_partition(n, k, p_in, p_out, seed, feature_dim=None, feature_scale=1.5):
    """Random k-community graph with cluster-informative features.

    feature_dim None uses degree one-hot columns (the structural-feature
    setting); otherwise features are Gaussian blobs around per-cluster
    means.
    """
    rng = np.random.default_rng(seed)
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    labels = np.repeat(np.arange(k), sizes)
    # one draw per pair i < j, in row-major order
    i, j = np.triu_indices(n, 1)
    p = np.where(labels[i] == labels[j], p_in, p_out)
    keep = rng.random(i.size) < p
    edges = np.stack([i[keep], j[keep]], axis=1).astype(np.int64)
    feats = None  # make_graph's degree one-hot default
    if feature_dim is not None:
        means = rng.standard_normal((k, feature_dim)) * feature_scale
        feats = means[labels] + rng.standard_normal((n, feature_dim))
    return make_graph(n, edges, features=feats, labels=labels, k_clusters=k,
                      name="planted")


def eval_caches(model, graph):
    """The caches of the eval-mode encode of graph.x that train_joint's epoch
    hands the diagnostics, for calling them outside the loop."""
    return encode(model, normalize_adjacency(graph, "propagation"), graph.x)[1]


def traced_peak(fn):
    """Peak bytes tracemalloc sees while fn runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grad_close(got, fd, tol=1e-6):
    """Max-abs error of got against a finite-difference gradient, relative to
    1 + max |fd|, below tol."""
    return float(np.max(np.abs(got - fd))) / (1.0 + float(np.max(np.abs(fd)))) < tol


def random_graph(rng, n, p=0.3):
    """Symmetric random adjacency with empty diagonal, as CSR."""
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(np.float64)
    return sp.csr_matrix(dense)


def pair_targets(rng, n):
    """Four n-node pair-pass targets: symmetric 0/1, directed 0/1, symmetric
    weighted, and directed with weights in [-1, 3)."""
    sym = random_graph(rng, n, p=0.2)
    directed = sp.csr_matrix(np.triu(rng.random((n, n)) < 0.2, k=1).astype(np.float64))
    weighted = sym.copy()
    weighted.data = rng.uniform(0.1, 2.0, size=weighted.nnz)
    weighted = (weighted + weighted.T).tocsr()
    skew = directed.copy()
    skew.data = rng.uniform(-1.0, 3.0, size=skew.nnz)
    return {"symmetric": sym, "asymmetric": directed, "weighted": weighted,
            "asymmetric_weighted": skew}


def set_workers(monkeypatch, workers):
    """Make every pair sweep run its strips on this many threads, whatever the host."""
    monkeypatch.setattr(gaeclust.pairs, "pair_sweep_workers", lambda: workers)


def reference_sweep(z, matmul=np.matmul):
    """The strip body the pair sweep had before its logit sums came from column
    sums of Z and its log part from column products: log1p(exp(-|l|)) per
    entry and explicit logit sums. Its logits come from matmul."""
    n = z.shape[0]
    softplus_sum = 0.0
    sigmoid_z = np.zeros_like(z)
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, gaeclust.pairs._TILE_DOUBLES // (n - i0)))
        r = i1 - i0
        logits = matmul(z[i0:i1], z[i0:].T)
        e = np.abs(logits)
        relu = 0.5 * (logits.sum() + e.sum())
        relu_diag = 0.5 * (logits[:, :r].sum() + e[:, :r].sum())
        np.negative(e, out=e)
        np.exp(e, out=e)
        log1p = np.log1p(e)
        softplus_sum += float(2.0 * (relu + log1p.sum()) - relu_diag - log1p[:, :r].sum())
        e += 1.0
        np.reciprocal(e, out=e)
        e -= 0.5
        np.copysign(e, logits, out=e)
        sigmoid_z[i0:i1] += e @ z[i0:]
        sigmoid_z[i1:] += e[:, r:].T @ z[i0:i1]
        i0 = i1
    sigmoid_z += 0.5 * z.sum(axis=0)
    return softplus_sum, sigmoid_z


def assert_sweep_matches_reference(z):
    """The pass of z, read with and without an earlier start(), against
    reference_sweep; returns its softplus sum."""
    got_s, got_g = PairPass(z).sums()
    started_s, started_g = PairPass(z).start().sums()
    assert started_s == got_s and np.array_equal(started_g, got_g)
    want_s, want_g = reference_sweep(z)
    assert np.array_equal(got_g, want_g)
    assert got_s == pytest.approx(want_s, rel=1e-12)
    return got_s


@pytest.fixture(scope="session")
def blobs2():
    """Well-separated 2-community graph (converges almost immediately)."""
    return planted_partition(20, 2, 0.8, 0.05, seed=42)


@pytest.fixture(scope="session")
def blobs3():
    """Noisier 3-community graph that keeps the rewiring loop busy."""
    return planted_partition(60, 3, 0.30, 0.10, seed=5, feature_dim=8)


@pytest.fixture()
def tiny_path_graph():
    """Path 0-1-2 plus isolated node 3, constant features."""
    edges = np.array([[0, 1], [1, 2]])
    feats = np.ones((4, 3))
    labels = np.array([0, 0, 1, 1])
    return make_graph(4, edges, features=feats, labels=labels, k_clusters=2,
                      name="path")
