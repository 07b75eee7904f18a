"""Reliable-node selection and self-supervision graph rewriting."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gaeclust import (
    ABSENT,
    ClusterModel,
    OperatorError,
    RangeError,
    SoftAssignment,
    build_supervised_target,
    compute_centroid_nodes,
    gaussian_soft_assign,
    onehot_assignment,
    passthrough_graph,
    save_edge_list,
    upsilon_transform,
    xi_select,
)

from conftest import random_graph


def random_soft(rng, n, k, with_ties=False):
    mat = rng.random((n, k)) + 0.05
    if with_ties and n >= 4:
        mat[0] = 1.0                      # constant row
        mat[1, :2] = mat[1, :2].max()     # duplicated maximum
    mat /= mat.sum(axis=1, keepdims=True)
    return SoftAssignment(mat)


def oracle_select(mat, alpha1, alpha2):
    """Row-by-row scalar re-implementation of the selection rule."""
    keep = []
    for i in range(mat.shape[0]):
        row = mat[i]
        lam1 = row.max()
        below = row[row < lam1]
        lam2 = lam1 if below.size == 0 else below.max()
        if lam1 >= alpha1 and lam1 - lam2 >= alpha2:
            keep.append(i)
    return np.array(keep, dtype=np.int64)


class TestXiSelect:
    def test_thousand_rows_match_oracle(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((1000, 3))
        p = random_soft(rng, 1000, 4, with_ties=True)
        for alpha1, alpha2 in [(0.0, 0.0), (0.3, 0.05), (0.5, 0.2), (0.9, 0.5), (0.26, 0.13)]:
            got = xi_select(z, p, None, alpha1, alpha2)
            # Omega is the sorted int64 index array itself
            assert got.dtype == np.int64 and np.all(np.diff(got) > 0)
            assert np.array_equal(got, oracle_select(p.matrix, alpha1, alpha2)), (alpha1, alpha2)

    def test_constant_row_excluded(self):
        # a constant row has zero margin, so any positive alpha2 drops it
        mat = np.array([[0.5, 0.5], [0.9, 0.1]])
        p = SoftAssignment(mat)
        got = xi_select(np.zeros((2, 1)), p, None, 0.0, 1e-9)
        assert np.array_equal(got, [1])

    def test_duplicated_max_margin_uses_strictly_below(self):
        mat = np.array([[0.4, 0.4, 0.2]])
        p = SoftAssignment(mat)
        # the margin is 0.4 - 0.2, not 0.4 - 0.4
        assert np.array_equal(xi_select(np.zeros((1, 1)), p, None, 0.0, 0.19), [0])
        assert xi_select(np.zeros((1, 1)), p, None, 0.0, 0.21).size == 0

    def test_hard_assignment_requires_model(self):
        p = onehot_assignment(np.array([0, 1]), 2)
        with pytest.raises(OperatorError, match="ClusterModel"):
            xi_select(np.zeros((2, 2)), p, None, 0.5, 0.25)

    def test_hard_assignment_uses_gaussian_confidences(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((30, 2))
        model = ClusterModel(np.array([[2.0, 0.0], [-2.0, 0.0]]), np.ones((2, 2)))
        hard = onehot_assignment((z[:, 0] < 0).astype(int), 2)
        got = xi_select(z, hard, model, 0.6, 0.2)
        resp = gaussian_soft_assign(z, model).matrix
        assert np.array_equal(got, oracle_select(resp, 0.6, 0.2))

    def test_needs_two_clusters(self):
        p = SoftAssignment(np.ones((3, 1)))
        with pytest.raises(RangeError):
            xi_select(np.zeros((3, 1)), p, None, 0.5, 0.25)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_tighter_thresholds_shrink_omega(self, seed, a1, a2, da1, da2):
        rng = np.random.default_rng(seed)
        p = random_soft(rng, 20, 3)
        z = np.zeros((20, 2))
        loose = set(xi_select(z, p, None, a1, a2).tolist())
        tight = set(xi_select(z, p, None, a1 + da1, a2 + da2).tolist())
        assert tight <= loose


class TestCentroidNodes:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, k = int(rng.integers(5, 25)), int(rng.integers(2, 5))
            z = rng.standard_normal((n, 4))
            p = random_soft(rng, n, k)
            omega = xi_select(z, p, None, 0.2, 0.0)
            if omega.size == 0:
                continue
            labels = p.labels()
            got = compute_centroid_nodes(z, labels, omega, k)
            for j in range(k):
                members = [i for i in omega if labels[i] == j]
                if not members:
                    assert got[j] == ABSENT
                    continue
                mu = np.mean([z[i] for i in members], axis=0)
                best, best_d = None, np.inf
                for i in omega:
                    d = float(np.sum((z[i] - mu) ** 2))
                    if d < best_d - 1e-15:
                        best, best_d = i, d
                assert got[j] == best

    def test_nearest_over_all_reliable_not_just_members(self):
        # the centroid node for cluster 0 may belong to another cluster
        z = np.array([[0.0], [4.0], [1.9]])
        got = compute_centroid_nodes(z, np.array([0, 0, 1]), np.arange(3), 2)
        # mu~_0 = 2.0; node 2 (cluster 1) sits at 1.9, closer than 0 or 4
        assert got[0] == 2

    def test_tie_goes_to_lowest_index(self):
        z = np.array([[-1.0], [1.0]])
        got = compute_centroid_nodes(z, np.array([0, 0]), np.arange(2), 2)
        # mu~_0 = 0, both nodes at distance 1
        assert got[0] == 0

    def test_empty_reliable_set(self):
        labels = random_soft(np.random.default_rng(3), 4, 2).labels()
        with pytest.raises(OperatorError, match="empty"):
            compute_centroid_nodes(np.zeros((4, 2)), labels, np.empty(0, dtype=np.int64), 2)

    def test_all_clusters_absent(self):
        # reliable members all carry labels outside [0, k)
        with pytest.raises(OperatorError, match="lacks"):
            compute_centroid_nodes(np.zeros((1, 2)), np.array([2]), np.arange(1), 2)


def simulate_rewrite(a_dense, labels, omega_set, pi, allow_add=True, allow_drop=True):
    """Line-by-line scalar simulation of the rewiring pass."""
    n = a_dense.shape[0]
    original = {(u, v) for u in range(n) for v in range(u + 1, n) if a_dense[u, v]}
    edges = set(original)
    added, deleted = set(), set()
    for i in sorted(omega_set):
        k1 = int(labels[i])
        j = int(pi[k1]) if k1 < len(pi) else ABSENT
        if allow_add and j != ABSENT and j != i:
            pair = (min(i, j), max(i, j))
            if pair not in original and int(labels[j]) == k1:
                edges.add(pair)
                added.add(pair)
        if allow_drop:
            for l in range(n):
                if a_dense[i, l] and int(labels[l]) != k1 and l in omega_set:
                    pair = (min(i, l), max(i, l))
                    if pair in edges:
                        edges.remove(pair)
                        deleted.add(pair)
    return edges, added, deleted


def as_pairs(arr):
    return {(int(u), int(v)) for u, v in arr}


FLAGS = [(True, True), (True, False), (False, True), (False, False)]


def check_against_simulation(a, labels, omega, pi, flags):
    """upsilon_transform equals simulate_rewrite; returns the simulated
    (added, deleted) sets."""
    got = upsilon_transform(a, labels, omega, pi, allow_add=flags[0], allow_drop=flags[1])
    edges, added, deleted = simulate_rewrite(
        a.toarray(), labels, set(omega.tolist()), pi,
        allow_add=flags[0], allow_drop=flags[1])
    coo = sp.triu(got.adjacency, k=1).tocoo()
    assert {(int(u), int(v)) for u, v in zip(coo.row, coo.col)} == edges
    # sorted int64 (u, v) rows, as the edge-list writer expects
    assert got.added_edges.tolist() == sorted(map(list, added))
    assert got.deleted_edges.tolist() == sorted(map(list, deleted))
    assert got.added_edges.dtype == got.deleted_edges.dtype == np.int64
    # structural invariants
    dense = got.adjacency.toarray()
    assert np.array_equal(dense, dense.T)
    assert dense.diagonal().sum() == 0
    original = {(u, v) for u, v in zip(*sp.triu(a, k=1).nonzero())}
    assert added.isdisjoint(original)
    assert deleted <= original
    return added, deleted


class TestUpsilonTransform:
    def test_fifty_random_graphs_match_simulation(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n, k = int(rng.integers(4, 20)), int(rng.integers(2, 5))
            a = random_graph(rng, n, p=0.35)
            z = rng.standard_normal((n, 3))
            p = random_soft(rng, n, k)
            omega = xi_select(z, p, None, 0.15, 0.0)
            if omega.size == 0:
                continue
            labels = p.labels()
            pi = compute_centroid_nodes(z, labels, omega, k)
            check_against_simulation(a, labels, omega, pi, FLAGS[trial % 4])

    def test_large_random_graphs_match_simulation(self):
        # hand-built centroids: ABSENT, a random node (often of another
        # cluster) or a member; labels >= len(pi); nodes that are their own centroid
        rng = np.random.default_rng(11)
        counts = {flags: np.zeros(2, dtype=int) for flags in FLAGS}
        for trial in range(16):
            n, k = int(rng.integers(100, 201)), int(rng.integers(2, 7))
            a = random_graph(rng, n, p=float(rng.uniform(0.01, 0.08)))
            labels = rng.integers(0, k, size=n)
            omega = np.flatnonzero(rng.random(n) < rng.uniform(0.2, 1.0))
            kp = int(rng.integers(1, k + 1))
            pi = np.array([ABSENT if r < 0.25 else int(rng.integers(0, n)) if r < 0.5
                           else int(rng.choice(np.flatnonzero(labels == j)))
                           for j, r in enumerate(rng.random(kp))])
            added, deleted = check_against_simulation(a, labels, omega, pi, FLAGS[trial % 4])
            counts[FLAGS[trial % 4]] += [len(added), len(deleted)]
        # every enabled rule fired somewhere, every disabled one never did
        assert np.all(counts[(True, True)] > 0)
        assert counts[(True, False)][0] > 0 and counts[(True, False)][1] == 0
        assert counts[(False, True)][0] == 0 and counts[(False, True)][1] > 0

    def test_hand_worked_example(self):
        # square 0-1-2-3-0 with labels [0,0,1,1]; all nodes reliable;
        # centroids: node 0 for cluster 0, node 2 for cluster 1
        a = sp.csr_matrix(np.array([
            [0, 1, 0, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [1, 0, 1, 0],
        ], dtype=float))
        got = upsilon_transform(a, np.array([0, 0, 1, 1]), np.arange(4), np.array([0, 2]))
        # cross-cluster edges (1,2) and (0,3) drop; (0,1) stays; (2,3) stays
        expected = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ], dtype=float)
        assert np.array_equal(got.adjacency.toarray(), expected)
        assert got.added_edges.shape == (0, 2)
        assert as_pairs(got.deleted_edges) == {(1, 2), (0, 3)}

    def test_no_self_loop_when_centroid_is_self(self):
        a = sp.csr_matrix((2, 2), dtype=np.float64)
        got = upsilon_transform(a, np.array([0, 1]), np.arange(2), np.array([0, 1]))
        assert got.adjacency.nnz == 0

    def test_add_skipped_when_centroid_label_differs(self):
        # pi[0] points at node 1, but node 1 belongs to cluster 1
        a = sp.csr_matrix((2, 2), dtype=np.float64)
        got = upsilon_transform(a, np.array([0, 1]), np.arange(2), np.array([1, ABSENT]))
        assert got.adjacency.nnz == 0
        assert got.added_edges.shape == (0, 2)

    def test_drop_requires_both_ends_reliable(self):
        a = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=float))
        got = upsilon_transform(a, np.array([0, 1]), np.array([0]), np.array([0, ABSENT]))
        assert got.adjacency.nnz == 2  # the cross edge survives
        assert got.deleted_edges.shape == (0, 2)

    def test_absent_cluster_adds_nothing(self):
        a = sp.csr_matrix((3, 3), dtype=np.float64)
        got = upsilon_transform(a, np.array([0, 0, 1]), np.array([2]), np.array([ABSENT, 2]))
        assert got.adjacency.nnz == 0

    def test_full_star_structure_from_empty_graph(self):
        rng = np.random.default_rng(5)
        n, k = 12, 3
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every cluster populated
        a = sp.csr_matrix((n, n), dtype=np.float64)
        z = labels[:, None].astype(float) + rng.standard_normal((n, 1)) * 0.01
        pi = compute_centroid_nodes(z, labels, np.arange(n), k)
        got = upsilon_transform(a, labels, np.arange(n), pi)
        deg = np.asarray(got.adjacency.sum(axis=1)).ravel()
        for j in range(k):
            members = np.flatnonzero(labels == j)
            hub = pi[j]
            assert deg[hub] == members.size - 1
            for i in members:
                if i != hub:
                    assert deg[i] == 1
                    assert got.adjacency[i, hub] == 1.0


class TestSupervisedTarget:
    def test_invariant_to_label_permutation(self, blobs3):
        z = np.random.default_rng(6).standard_normal((blobs3.n_nodes, 4))
        base = build_supervised_target(blobs3.adjacency, blobs3.labels, z, blobs3.k_clusters)
        perm = np.array([2, 0, 1])
        swapped = build_supervised_target(blobs3.adjacency, perm[blobs3.labels], z,
                                          blobs3.k_clusters)
        assert np.array_equal(base.adjacency.toarray(), swapped.adjacency.toarray())

    def test_removes_every_cross_cluster_edge(self, blobs3):
        z = np.random.default_rng(7).standard_normal((blobs3.n_nodes, 4))
        got = build_supervised_target(blobs3.adjacency, blobs3.labels, z, blobs3.k_clusters)
        coo = sp.triu(got.adjacency, k=1).tocoo()
        for u, v in zip(coo.row, coo.col):
            assert blobs3.labels[u] == blobs3.labels[v]

    def test_k_inferred_from_labels(self):
        a = sp.csr_matrix((4, 4), dtype=np.float64)
        z = np.arange(4.0)[:, None]
        got = build_supervised_target(a, np.array([0, 0, 1, 1]), z, 2)
        assert got.adjacency.nnz == 4  # two one-edge stars


class TestEdgeListIO:
    def test_provenance_tags_and_sidecar(self, tmp_path):
        a = sp.csr_matrix(np.array([
            [0, 1, 0],
            [1, 0, 1],
            [0, 1, 0],
        ], dtype=float))
        labels = np.array([0, 0, 1])
        z = np.array([[0.0], [0.1], [5.0]])
        pi = compute_centroid_nodes(z, labels, np.arange(3), 2)
        got = upsilon_transform(a, labels, np.arange(3), pi)
        target = tmp_path / "edges.tsv"
        save_edge_list(got, target)
        rows = [line.split("\t") for line in target.read_text().splitlines()]
        parsed = {(int(u), int(v)): tag for u, v, tag in rows}
        coo = sp.triu(got.adjacency, k=1).tocoo()
        assert set(parsed) == {(int(u), int(v)) for u, v in zip(coo.row, coo.col)}
        added = as_pairs(got.added_edges)
        for pair, tag in parsed.items():
            assert tag == ("A" if pair in added else "O")
        dels = [line.split("\t") for line in
                (tmp_path / "edges.tsv.deleted").read_text().splitlines()]
        assert {(int(u), int(v)) for u, v in dels} == as_pairs(got.deleted_edges)

    def test_bytes_match_the_set_based_writer(self, tmp_path):
        def set_based_files(ssg):
            added = {(int(u), int(v)) for u, v in ssg.added_edges}
            coo = sp.triu(ssg.adjacency, k=1).tocoo()
            rows = [f"{u}\t{v}\t{'A' if (u, v) in added else 'O'}"
                    for u, v in sorted(zip(coo.row.tolist(), coo.col.tolist()))]
            dels = [f"{u}\t{v}" for u, v in ssg.deleted_edges]
            return ["\n".join(lines) + ("\n" if lines else "") for lines in (rows, dels)]

        rng = np.random.default_rng(12)
        n, k = 150, 4
        a = random_graph(rng, n, p=0.05)
        z = rng.standard_normal((n, 3))
        p = random_soft(rng, n, k)
        omega = xi_select(z, p, None, 0.3, 0.0)
        labels = p.labels()
        graphs = [upsilon_transform(a, labels, omega, compute_centroid_nodes(z, labels, omega, k)),
                  build_supervised_target(a, rng.integers(0, k, size=n), z, k),
                  passthrough_graph(a),
                  passthrough_graph(sp.csr_matrix((n, n)))]
        for ssg in graphs:
            save_edge_list(ssg, tmp_path / "edges.tsv")
            expected = set_based_files(ssg)
            assert (tmp_path / "edges.tsv").read_text() == expected[0]
            assert (tmp_path / "edges.tsv.deleted").read_text() == expected[1]
        assert graphs[0].added_edges.size and graphs[0].deleted_edges.size

    def test_failed_save_leaves_the_old_files(self, tmp_path, monkeypatch, blobs3):
        target = tmp_path / "edges.tsv"
        save_edge_list(passthrough_graph(blobs3.adjacency), target)
        files = (target, tmp_path / "edges.tsv.deleted")
        before = [f.read_bytes() for f in files]
        real_write = Path.write_text

        def torn_write(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2])
            raise OSError("disk full")
        monkeypatch.setattr(Path, "write_text", torn_write)
        omega = np.arange(blobs3.n_nodes)
        z = np.random.default_rng(0).standard_normal((blobs3.n_nodes, 2))
        rewired = upsilon_transform(blobs3.adjacency, blobs3.labels, omega,
                                    compute_centroid_nodes(z, blobs3.labels, omega, 3))
        with pytest.raises(OSError):
            save_edge_list(rewired, target)
        monkeypatch.undo()
        assert [f.read_bytes() for f in files] == before

    def test_passthrough_has_no_provenance(self, blobs3):
        got = passthrough_graph(blobs3.adjacency)
        assert np.array_equal(got.adjacency.toarray(), blobs3.adjacency.toarray())
        assert got.added_edges.size == 0
        assert got.deleted_edges.size == 0
        _, _, tags = got._tagged_edges()
        assert tags.size == blobs3.n_edges and np.all(tags == "O")
