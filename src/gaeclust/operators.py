"""Reliable-node sampling and self-supervision graph rewriting.

Two operators drive the "R-" training regime:

* xi_select picks the decidable nodes Omega whose top assignment
  confidence clears alpha1 and whose top-two margin clears alpha2, and
  returns them as a sorted int64 array of node indices.
* upsilon_transform rebuilds the reconstruction target from the original
  graph: every reliable node gains an edge to its cluster's centroid
  node, and reliable cross-cluster edges are dropped, yielding K
  star-shaped subgraphs as Omega grows. Its SelfSupervisionGraph keeps
  the added and deleted edges as graphio.edge_keys; save_edge_list is
  where they become "u<TAB>v" lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .clustering import SoftAssignment, _squared_distances, cluster_means
from .errors import OperatorError, RangeError
from .graphio import (adjacency_from_keys, edge_keys, key_pairs, sorted_unique, upper_keys,
                      write_tsv)

ABSENT = -1  # centroid sentinel for clusters with no reliable member


@dataclass(frozen=True)
class SelfSupervisionGraph:
    """The rewired reconstruction target plus per-edge provenance.

    Edges currently present are partitioned into original (inherited
    from A) and added (created by the transform); deleted_keys lists
    the original edges the transform removed. Both key arrays hold
    sorted int64 graphio.edge_keys of the adjacency's node count.
    """

    adjacency: sp.csr_matrix
    added_keys: np.ndarray
    deleted_keys: np.ndarray


def passthrough_graph(a: sp.csr_matrix) -> SelfSupervisionGraph:
    """A as its own supervision graph (baseline regime, no rewiring)."""
    none = np.empty(0, dtype=np.int64)
    return SelfSupervisionGraph(a.copy(), none, none)


def xi_select(p: SoftAssignment, alpha1: float, alpha2: float) -> np.ndarray:
    """Select the decidable nodes Omega, as a sorted int64 index array.

    p is the clustering head's soft assignment P. lambda1 is the row
    maximum, lambda2 the largest entry strictly below it (lambda2 :=
    lambda1 on a constant row, which zeroes the margin and excludes the
    node). Omega keeps the rows with lambda1 >= alpha1 and
    lambda1 - lambda2 >= alpha2.
    """
    mat = p.matrix
    if mat.shape[1] < 2:
        raise RangeError("xi_select needs K >= 2 (the runner-up score is undefined)")
    lam1 = mat.max(axis=1)
    below = np.where(mat < lam1[:, None], mat, -np.inf)
    lam2 = below.max(axis=1)
    constant = ~np.isfinite(lam2)
    lam2 = np.where(constant, lam1, lam2)
    keep = (lam1 >= alpha1) & (lam1 - lam2 >= alpha2)
    return np.flatnonzero(keep).astype(np.int64)


def compute_centroid_nodes(z: np.ndarray, labels: np.ndarray, omega: np.ndarray,
                           k: int) -> np.ndarray:
    """Nearest reliable node to each cluster's reliable-member mean.

    labels holds each node's cluster id (the hard labels of the
    assignment); mu~_j averages the embeddings of Omega members labelled j;
    pi[j] is the Omega member (over ALL of Omega) closest to mu~_j in L2,
    ties to the lowest index. Returns pi as a length-K int64 array of node
    indices, with the ABSENT sentinel for clusters without reliable
    members; when every cluster is absent (Omega empty) an OperatorError
    is raised. omega is a sorted node index array, as xi_select returns.
    """
    if omega.size == 0:
        raise OperatorError("cannot compute centroid nodes from an empty reliable set")
    z_omega = np.asarray(z, dtype=np.float64)[omega]
    means, counts = cluster_means(z_omega, labels[omega], k)
    present = np.flatnonzero(counts)
    if present.size == 0:
        raise OperatorError("every cluster lacks reliable members")
    pi = np.full(k, ABSENT, dtype=np.int64)
    pi[present] = omega[np.argmin(_squared_distances(z_omega, means[present]), axis=0)]
    return pi


def upsilon_transform(a: sp.csr_matrix, labels: np.ndarray, omega: np.ndarray,
                      pi: np.ndarray, allow_add: bool = True,
                      allow_drop: bool = True) -> SelfSupervisionGraph:
    """Rewire a fresh copy of A into the clustering-oriented target.

    labels holds each node's cluster id, as for compute_centroid_nodes;
    pi is the int64 array of compute_centroid_nodes: one centroid node
    index or ABSENT per cluster. Every reliable node i with cluster k1
    gains the edge (i, pi[k1]) when that edge is absent from A, pi[k1] is
    neither ABSENT nor i, and the centroid's own cluster is k1; an edge of
    A is dropped when both ends are reliable and their clusters differ.
    Drops only touch edges of A and adds only edges outside it, so the two
    rules are independent of each other and of node order. The result is
    symmetric and self-loop free. allow_add / allow_drop gate the two
    rules for the edge-ablation experiments.
    """
    n = a.shape[0]
    original = upper_keys(a)
    u, v = key_pairs(original, n).T
    reliable = np.isin(np.arange(n), omega)
    drop = np.zeros(original.shape, dtype=bool)
    if allow_drop:
        drop = reliable[u] & reliable[v] & (labels[u] != labels[v])
    added = np.empty(0, dtype=np.int64)
    if allow_add:
        i = np.flatnonzero(reliable)
        k1 = labels[i]
        j = np.full(i.shape, ABSENT, dtype=np.int64)
        known = k1 < pi.shape[0]
        j[known] = pi[k1[known]]
        ok = (j != ABSENT) & (j != i)
        ok[ok] = labels[j[ok]] == k1[ok]
        added = sorted_unique(edge_keys(i[ok], j[ok], n))
        added = added[np.isin(added, original, assume_unique=True, invert=True)]
    kept = np.sort(np.concatenate([original[~drop], added]))
    return SelfSupervisionGraph(adjacency_from_keys(n, kept), added, original[drop])


def build_supervised_target(a: sp.csr_matrix, truth_labels: np.ndarray,
                            z: np.ndarray, k: int) -> SelfSupervisionGraph:
    """The transform every training run is measured against.

    Applies upsilon_transform over the full node set with ground-truth
    labels, giving the clustering-oriented graph a perfectly
    supervised run would converge to. The output is invariant to label
    permutations, so truth labels can be passed in any indexing.
    """
    omega = np.arange(a.shape[0], dtype=np.int64)
    pi = compute_centroid_nodes(z, truth_labels, omega, k)
    return upsilon_transform(a, truth_labels, omega, pi)


def save_edge_list(ssg: SelfSupervisionGraph, path) -> None:
    """Write "u<TAB>v<TAB>{O,A}" rows plus a .deleted sidecar, each atomically."""
    path = Path(path)
    n = ssg.adjacency.shape[0]
    keys = upper_keys(ssg.adjacency)
    tags = np.where(np.isin(keys, ssg.added_keys, assume_unique=True), "A", "O")
    write_tsv(path, *key_pairs(keys, n).T, tags)
    write_tsv(path.with_suffix(path.suffix + ".deleted"), *key_pairs(ssg.deleted_keys, n).T)
