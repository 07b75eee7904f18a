"""Dataset container, text format, featurization, and perturbations."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gaeclust import (
    AttributedGraph,
    DataError,
    FormatError,
    RangeError,
    adjacency_from_edges,
    load_dataset,
    make_graph,
    normalize_adjacency,
    perturb_graph,
    save_dataset,
)

from conftest import planted_partition


class TestAdjacencyFromEdges:
    def test_symmetric_binary_zero_diagonal(self):
        a = adjacency_from_edges(4, np.array([[0, 1], [2, 3], [1, 3]]))
        dense = a.toarray()
        assert np.array_equal(dense, dense.T)
        assert dense.diagonal().sum() == 0
        assert set(np.unique(dense)) <= {0.0, 1.0}
        assert a.nnz == 6

    def test_duplicates_and_reversals_collapse(self):
        a = adjacency_from_edges(3, np.array([[0, 1], [1, 0], [0, 1], [1, 2]]))
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(a.toarray(), expected)

    def test_empty_edge_list(self):
        a = adjacency_from_edges(5, np.empty((0, 2)))
        assert a.shape == (5, 5)
        assert a.nnz == 0


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        bad = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="symmetric"):
            AttributedGraph(2, bad, np.ones((2, 1)), None, 1)

    def test_self_loop_rejected(self):
        bad = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="diagonal"):
            AttributedGraph(2, bad, np.ones((2, 1)), None, 1)

    def test_nonbinary_rejected(self):
        bad = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(DataError, match="binary"):
            AttributedGraph(2, bad, np.ones((2, 1)), None, 1)

    def test_feature_rows_must_match(self):
        a = adjacency_from_edges(3, np.array([[0, 1]]))
        with pytest.raises(DataError, match="feature row count"):
            AttributedGraph(3, a, np.ones((2, 1)), None, 1)

    def test_nan_features_rejected(self):
        a = adjacency_from_edges(2, np.array([[0, 1]]))
        feats = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError, match="NaN"):
            AttributedGraph(2, a, feats, None, 1)

    def test_label_range_checked(self):
        a = adjacency_from_edges(2, np.array([[0, 1]]))
        with pytest.raises(DataError, match="labels"):
            AttributedGraph(2, a, np.ones((2, 1)), np.array([0, 2]), 2)

    def test_k_clusters_positive(self):
        a = adjacency_from_edges(2, np.array([[0, 1]]))
        with pytest.raises(DataError, match="k_clusters"):
            AttributedGraph(2, a, np.ones((2, 1)), None, 0)

    def test_edge_array_sorted_upper(self):
        g = make_graph(4, np.array([[3, 1], [2, 0], [1, 0]]))
        assert np.array_equal(g.edge_array(), np.array([[0, 1], [0, 2], [1, 3]]))

    def test_degrees_and_edge_count(self):
        g = make_graph(4, np.array([[0, 1], [1, 2], [1, 3]]))
        assert np.array_equal(np.asarray(g.adjacency.sum(axis=1)).ravel(), [1, 3, 1, 1])
        assert g.n_edges == 3


class TestDatasetFormat:
    def test_round_trip_exact(self, tmp_path, blobs3):
        save_dataset(blobs3, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.n_nodes == blobs3.n_nodes
        assert back.k_clusters == blobs3.k_clusters
        assert back.name == blobs3.name
        assert np.array_equal(back.edge_array(), blobs3.edge_array())
        assert np.array_equal(back.labels, blobs3.labels)
        # repr of float64 parses back to the identical bits
        assert np.array_equal(back.features, blobs3.features)

    def test_failed_save_leaves_the_old_files(self, tmp_path, monkeypatch):
        old = make_graph(3, np.array([[0, 1]]), labels=np.array([0, 1, 1]), k_clusters=2)
        save_dataset(old, tmp_path / "d")
        before = {f.name: f.read_bytes() for f in (tmp_path / "d").iterdir()}
        real_write = Path.write_text

        def torn_write(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2])
            raise OSError("disk full")
        monkeypatch.setattr(Path, "write_text", torn_write)
        new = make_graph(3, np.array([[0, 1], [1, 2]]), labels=np.array([1, 0, 0]),
                         k_clusters=2)
        with pytest.raises(OSError):
            save_dataset(new, tmp_path / "d")
        monkeypatch.undo()
        after = {f.name: f.read_bytes() for f in (tmp_path / "d").iterdir()
                 if f.suffix != ".tmp"}
        assert after == before

    def test_unlabeled_save_removes_old_labels(self, tmp_path):
        save_dataset(make_graph(3, np.array([[0, 1]]), labels=np.array([0, 1, 1]),
                                k_clusters=2), tmp_path / "d")
        save_dataset(make_graph(3, np.array([[0, 1]])), tmp_path / "d")
        assert load_dataset(tmp_path / "d").labels is None

    def test_missing_features_defaults_to_degree_onehot(self, tmp_path):
        g = make_graph(4, np.array([[0, 1], [1, 2], [1, 3]]), labels=np.array([0, 0, 1, 1]),
                       k_clusters=2)
        save_dataset(g, tmp_path / "d")
        (tmp_path / "d" / "features.tsv").unlink()
        back = load_dataset(tmp_path / "d")
        # degrees 1,3,1,1 -> bins [1, 3]
        expected = np.array([[1, 0], [0, 1], [1, 0], [1, 0]], dtype=float)
        assert np.array_equal(back.features, expected)

    def test_missing_labels_is_fine(self, tmp_path):
        g = make_graph(3, np.array([[0, 1]]))
        save_dataset(g, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.labels is None

    def test_empty_graph_round_trip(self, tmp_path):
        g = make_graph(3, np.empty((0, 2)))
        save_dataset(g, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.n_edges == 0
        assert back.n_nodes == 3

    @pytest.mark.parametrize(
        "breakage, message",
        [
            (lambda d: (d / "meta.json").unlink(), "meta.json"),
            (lambda d: (d / "edges.tsv").unlink(), "edges.tsv"),
            (lambda d: (d / "meta.json").write_text("{nope"), "JSON"),
            (lambda d: (d / "meta.json").write_text('{"n_nodes": 3}'), "k_clusters"),
            (lambda d: (d / "edges.tsv").write_text("0 1 2\n"), "expected"),
            (lambda d: (d / "edges.tsv").write_text("0 x\n"), "non-integer"),
            (lambda d: (d / "edges.tsv").write_text("1 1\n"), "self-loop"),
            (lambda d: (d / "edges.tsv").write_text("0 9\n"), "out of range"),
            (lambda d: (d / "features.tsv").write_text("1.0\n"), "rows"),
            (lambda d: (d / "features.tsv").write_text("1.0\nnan\n2.0\n"), "non-finite"),
            (lambda d: (d / "labels.tsv").write_text("0\n"), "lines"),
            (lambda d: (d / "labels.tsv").write_text("0\n0\n7\n"), "outside"),
        ],
    )
    def test_malformed_datasets_raise(self, tmp_path, breakage, message):
        g = make_graph(3, np.array([[0, 1], [1, 2]]), features=np.ones((3, 1)),
                       labels=np.array([0, 0, 1]), k_clusters=2)
        save_dataset(g, tmp_path / "d")
        breakage(tmp_path / "d")
        with pytest.raises(FormatError, match=message):
            load_dataset(tmp_path / "d")

    def test_blank_edge_lines_skipped(self, tmp_path):
        g = make_graph(3, np.array([[0, 1]]))
        save_dataset(g, tmp_path / "d")
        (tmp_path / "d" / "edges.tsv").write_text("0\t1\n\n1\t2\n")
        back = load_dataset(tmp_path / "d")
        assert back.n_edges == 2

    def test_meta_name_defaults_to_directory(self, tmp_path):
        g = make_graph(2, np.array([[0, 1]]))
        save_dataset(g, tmp_path / "mycorpus")
        meta = json.loads((tmp_path / "mycorpus" / "meta.json").read_text())
        del meta["dataset_name"]
        (tmp_path / "mycorpus" / "meta.json").write_text(json.dumps(meta))
        assert load_dataset(tmp_path / "mycorpus").name == "mycorpus"


class TestFeaturization:
    def test_degree_onehot_hand_case(self):
        # degrees: 3,2,2,1,0 -> bins [0,1,2,3]
        feats = make_graph(5, np.array([[0, 1], [0, 2], [0, 3], [1, 2]])).features
        expected = np.zeros((5, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 2] = expected[3, 1] = expected[4, 0] = 1
        assert np.array_equal(feats, expected)

class TestNormalizeAdjacency:
    def dense_oracle(self, a_dense, add_loops):
        a = a_dense + np.eye(a_dense.shape[0]) if add_loops else a_dense
        deg = a.sum(axis=1)
        inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        return inv[:, None] * a * inv[None, :]

    def test_propagation_matches_dense_oracle(self, blobs3):
        got = normalize_adjacency(blobs3, "propagation")
        expected = self.dense_oracle(blobs3.adjacency.toarray(), add_loops=True)
        assert np.allclose(got.matrix.toarray(), expected, atol=1e-15)

    def test_propagation_isolated_node_self_entry(self, tiny_path_graph):
        got = normalize_adjacency(tiny_path_graph, "propagation").matrix.toarray()
        # isolated node has degree 1 after the self-loop: entry 1/1 = 1
        assert got[3, 3] == 1.0

    def test_unknown_mode(self, tiny_path_graph):
        with pytest.raises(RangeError):
            normalize_adjacency(tiny_path_graph, "row")


class TestPerturbations:
    def test_add_edges_count_and_superset(self, blobs3):
        out = perturb_graph(blobs3, "add_random_edges", 7, seed=3)
        assert out.n_edges == blobs3.n_edges + 7
        old = {tuple(e) for e in blobs3.edge_array()}
        new = {tuple(e) for e in out.edge_array()}
        assert old < new

    def test_add_edges_deterministic(self, blobs3):
        a = perturb_graph(blobs3, "add_random_edges", 5, seed=9)
        b = perturb_graph(blobs3, "add_random_edges", 5, seed=9)
        assert np.array_equal(a.edge_array(), b.edge_array())

    def test_add_too_many_edges(self):
        g = make_graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        with pytest.raises(RangeError):
            perturb_graph(g, "add_random_edges", 1, seed=0)

    def test_drop_edges_count_and_subset(self, blobs3):
        out = perturb_graph(blobs3, "drop_random_edges", 10, seed=4)
        assert out.n_edges == blobs3.n_edges - 10
        old = {tuple(e) for e in blobs3.edge_array()}
        new = {tuple(e) for e in out.edge_array()}
        assert new < old

    def test_drop_too_many_edges(self, tiny_path_graph):
        with pytest.raises(RangeError):
            perturb_graph(tiny_path_graph, "drop_random_edges", 3, seed=0)

    def test_feature_noise_sigma_zero_identity(self, blobs3):
        out = perturb_graph(blobs3, "feature_gaussian_noise", 0.0, seed=1)
        assert np.array_equal(out.features, blobs3.features)
        assert np.array_equal(out.adjacency.toarray(), blobs3.adjacency.toarray())

    def test_feature_noise_deterministic(self, blobs3):
        a = perturb_graph(blobs3, "feature_gaussian_noise", 0.5, seed=2)
        b = perturb_graph(blobs3, "feature_gaussian_noise", 0.5, seed=2)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, blobs3.features)

    def test_negative_sigma_rejected(self, blobs3):
        with pytest.raises(RangeError):
            perturb_graph(blobs3, "feature_gaussian_noise", -0.1, seed=0)

    def test_drop_feature_columns(self, blobs3):
        out = perturb_graph(blobs3, "drop_feature_columns", 3, seed=6)
        assert out.features.shape == (blobs3.n_nodes, blobs3.features.shape[1] - 3)

    def test_cannot_drop_all_columns(self, blobs3):
        j = blobs3.features.shape[1]
        with pytest.raises(RangeError):
            perturb_graph(blobs3, "drop_feature_columns", j, seed=0)

    def test_unknown_kind(self, blobs3):
        with pytest.raises(RangeError):
            perturb_graph(blobs3, "shuffle_labels", 1, seed=0)

    @pytest.mark.parametrize("kind", ["add_random_edges", "drop_random_edges",
                                      "drop_feature_columns"])
    @pytest.mark.parametrize("amount", [5.7, 0.5, float("nan"), float("inf")])
    def test_fractional_count_refused(self, kind, amount):
        n = 20
        ring = make_graph(n, np.array([[i, (i + 1) % n] for i in range(n)]),
                          features=np.eye(n))
        with pytest.raises(RangeError, match="whole"):
            perturb_graph(ring, kind, amount, seed=0)

    def test_whole_float_count_is_a_count(self):
        n = 20
        ring = make_graph(n, np.array([[i, (i + 1) % n] for i in range(n)]))
        out = perturb_graph(ring, "add_random_edges", 5.0, seed=0)
        assert out.n_edges == 25
        assert np.array_equal(out.edge_array(),
                              perturb_graph(ring, "add_random_edges", 5, seed=0).edge_array())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_round_trip_random_graphs(tmp_path_factory, data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(possible), max_size=20)) if possible else []
    k = data.draw(st.integers(min_value=1, max_value=4))
    labels = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n)))
    feats = np.array(data.draw(st.lists(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=64), min_size=2, max_size=2),
        min_size=n, max_size=n)))
    g = make_graph(n, np.array(chosen).reshape(-1, 2), features=feats, labels=labels,
                   k_clusters=k)
    target = tmp_path_factory.mktemp("rt")
    save_dataset(g, target)
    back = load_dataset(target)
    assert np.array_equal(back.edge_array(), g.edge_array())
    assert np.array_equal(back.features, g.features)
    assert np.array_equal(back.labels, g.labels)
