"""Shared builders for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from gaeclust import make_graph
from gaeclust.graphio import normalize_adjacency
from gaeclust.models import encode

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


def eval_encode(model, graph):
    """The eval-mode (Z, caches) of graph.x that train_joint's epoch hands
    the diagnostics, for calling them outside the loop."""
    return encode(model, normalize_adjacency(graph, "propagation"), graph.x)


def random_graph(rng, n, p=0.3):
    """Symmetric random adjacency with empty diagonal, as CSR."""
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(np.float64)
    return sp.csr_matrix(dense)


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
