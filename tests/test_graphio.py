"""Dataset container, text format, featurization, and perturbations."""

import dataclasses
import json
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gaeclust.models
import gaeclust.training
from gaeclust import (DataError, FormatError, RangeError, TrainConfig, graphio, init_model,
                      load_dataset, make_graph, pretrain, save_dataset, train_joint)
from gaeclust.graphio import (AttributedGraph, adjacency_from_edges, edge_keys, feature_operand,
                              key_pairs, normalize_adjacency, perturb_graph, sorted_unique,
                              upper_keys)
from gaeclust.models import EMBED_DIM, backprop_theta, encode

from conftest import dense, planted_partition, random_graph, traced_peak


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


def coo_adjacency(n_nodes, edges):
    """adjacency_from_edges as it was built through a COO matrix before
    adjacency_from_keys: the oracle of the CSR arrays and their dtypes."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        u = np.minimum(edges[:, 0], edges[:, 1])
        v = np.maximum(edges[:, 0], edges[:, 1])
        keys = np.unique(u * n_nodes + v)
        u, v = keys // n_nodes, keys % n_nodes
        row, col = np.concatenate([u, v]), np.concatenate([v, u])
        a = sp.csr_matrix((np.ones(row.shape[0]), (row, col)), shape=(n_nodes, n_nodes))
    else:
        a = sp.csr_matrix((n_nodes, n_nodes), dtype=np.float64)
    a.sum_duplicates()
    a.data[:] = 1.0
    a.sort_indices()
    return a


class TestEdgeKeys:
    @pytest.mark.parametrize("n, p", [(0, 0.0), (1, 0.0), (6, 0.0), (2, 1.0), (7, 1.0),
                                      (40, 0.1), (300, 0.02)])
    def test_upper_keys_match_triu(self, n, p):
        a = random_graph(np.random.default_rng(n), n, p)
        want = np.sort(edge_keys(*sp.triu(a, k=1).nonzero(), n))
        got = upper_keys(a)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        # the same entries with each row's indices in random order
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        order = np.lexsort((np.random.default_rng(1).random(a.nnz), rows))
        shuffled = sp.csr_matrix((a.data[order], a.indices[order], a.indptr), shape=a.shape)
        if a.nnz > n:
            assert not shuffled.has_sorted_indices
        assert np.array_equal(upper_keys(shuffled), want)

    def test_keys_sort_pairs_lexicographically(self):
        u, v = np.array([3, 0, 2, 1, 4]), np.array([1, 4, 0, 0, 3])
        keys = edge_keys(u, v, 5)
        assert np.array_equal(keys, edge_keys(v, u, 5))
        pairs = key_pairs(np.sort(keys), 5)
        assert pairs.tolist() == [[0, 1], [0, 2], [0, 4], [1, 3], [3, 4]]

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (2, 5), (10, 0), (10, 30), (2708, 5278)])
    def test_adjacency_matches_coo_builder(self, n, m):
        rng = np.random.default_rng(m)
        edges = rng.integers(0, max(n, 1), size=(m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        # duplicates and reversed pairs collapse
        edges = np.concatenate([edges, edges[: m // 3, ::-1], edges[: m // 5]])
        got, want = adjacency_from_edges(n, edges), coo_adjacency(n, edges)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.has_sorted_indices


INT64_ARRAYS = st.lists(st.integers(-20, 20) | st.integers(-2 ** 63, 2 ** 63 - 1),
                       max_size=40).map(lambda v: np.array(v, dtype=np.int64))


def assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestSortedSetOperations:
    """sorted_unique and the set operations src/ builds on it equal numpy's own."""

    @settings(max_examples=200, deadline=None)
    @given(a=INT64_ARRAYS, b=INT64_ARRAYS)
    def test_equal_numpys_on_random_keys(self, a, b):
        u, v = sorted_unique(a), sorted_unique(b)
        assert_same(u, np.unique(a))
        # upsilon_transform's added keys, against sorted distinct original keys
        assert_same(u[np.isin(u, v, assume_unique=True, invert=True)], np.setdiff1d(a, v))
        # add_random_edges' growing key set
        assert_same(sorted_unique(np.concatenate([v, a])), np.union1d(v, a))
        # save_edge_list's tags: both sides sorted and distinct
        assert_same(np.isin(u, v, assume_unique=True), np.isin(u, v))

    @pytest.mark.parametrize("a", [[], [7], [-3] * 5, [2 ** 63 - 1, -2 ** 63, 2 ** 63 - 1],
                                   [5, 5, 1, 1, 5]])
    def test_empty_single_and_repeated_keys(self, a):
        a = np.array(a, dtype=np.int64)
        assert_same(sorted_unique(a), np.unique(a))
        assert_same(sorted_unique(a.astype(np.int32)), np.unique(a.astype(np.int32)))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_kept_columns_equal_setdiff1d(self, data):
        # drop_feature_columns draws distinct columns to drop
        j = data.draw(st.integers(min_value=1, max_value=30))
        drop = np.array(data.draw(st.lists(st.integers(0, j - 1), unique=True)), dtype=np.int64)
        assert_same(np.delete(np.arange(j), drop), np.setdiff1d(np.arange(j), drop))


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        bad = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="symmetric"):
            AttributedGraph(2, bad, np.ones((2, 1)), None, 1)

    @pytest.mark.parametrize("a, refusal", [
        (sp.csr_matrix(([1.0], ([0], [1])), shape=(3, 3)), "symmetric"),
        # a CSC matrix's arrays are the CSR arrays of its transpose
        (sp.csc_matrix(([1.0], ([0], [1])), shape=(3, 3)), "symmetric"),
        # an explicit zero without its mirror entry is symmetric by value
        (sp.csr_matrix(([1.0, 0.0, 1.0], [1, 2, 0], [0, 2, 3, 3]), shape=(3, 3)), "binary"),
        (sp.csr_matrix(([1.0, 0.0, 1.0, 0.0], [1, 2, 0, 0], [0, 2, 3, 4]), shape=(3, 3)),
         "binary"),
        # non-canonical CSR: unsorted column indices in row 0
        (sp.csr_matrix(([1.0, 1.0, 1.0, 1.0], [2, 1, 0, 0], [0, 2, 3, 4]), shape=(3, 3)), None),
        (sp.csr_matrix(([1.0, 1.0, 1.0], [2, 1, 0], [0, 2, 3, 3]), shape=(3, 3)), "symmetric"),
    ], ids=["asymmetric", "asymmetric-csc", "unmirrored-zero", "mirrored-zeros",
            "unsorted-symmetric", "unsorted-asymmetric"])
    def test_symmetry_is_judged_as_the_exact_compare_judges_it(self, a, refusal):
        # the array compare of the canonical case decides nothing else
        assert bool((a != a.T).nnz) == (refusal == "symmetric")
        if refusal is None:
            assert AttributedGraph(3, a, np.ones((3, 1)), None, 1).adjacency is a
        else:
            with pytest.raises(DataError, match=refusal):
                AttributedGraph(3, a, np.ones((3, 1)), None, 1)

    def test_self_loop_rejected(self):
        bad = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="diagonal"):
            AttributedGraph(2, bad, np.ones((2, 1)), None, 1)

    def test_nonbinary_rejected(self):
        bad = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(DataError, match="binary"):
            AttributedGraph(2, bad, np.ones((2, 1)), None, 1)

    def test_adjacency_shape_must_match(self):
        a = adjacency_from_edges(2, np.array([[0, 1]]))
        with pytest.raises(DataError, match=r"adjacency shape \(2, 2\) does not match n_nodes=3"):
            AttributedGraph(3, a, np.ones((3, 1)), None, 1)

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

    def test_label_count_checked(self):
        a = adjacency_from_edges(2, np.array([[0, 1]]))
        with pytest.raises(DataError, match="labels length does not match n_nodes"):
            AttributedGraph(2, a, np.ones((2, 1)), np.array([0, 1, 1]), 2)

    def test_k_clusters_positive(self):
        a = adjacency_from_edges(2, np.array([[0, 1]]))
        with pytest.raises(DataError, match="k_clusters"):
            AttributedGraph(2, a, np.ones((2, 1)), None, 0)

    def test_k_clusters_at_most_n_nodes(self):
        # the same rule as load_dataset's, so no graph in memory is one a dataset may not be
        a = adjacency_from_edges(2, np.array([[0, 1]]))
        AttributedGraph(2, a, np.ones((2, 1)), None, 2)
        with pytest.raises(DataError, match=r"k_clusters must lie in \[1, n_nodes\]"):
            AttributedGraph(2, a, np.ones((2, 1)), None, 3)

    def test_edge_array_sorted_upper(self):
        g = make_graph(4, np.array([[3, 1], [2, 0], [1, 0]]))
        assert np.array_equal(g.edge_array(), np.array([[0, 1], [0, 2], [1, 3]]))

    def test_degrees_and_edge_count(self):
        g = make_graph(4, np.array([[0, 1], [1, 2], [1, 3]]))
        assert np.array_equal(np.asarray(g.adjacency.sum(axis=1)).ravel(), [1, 3, 1, 1])
        assert g.n_edges == 3


def write_meta(text):
    """A breakage that replaces meta.json with text."""
    return lambda d: (d / "meta.json").write_text(text)


def declare_nodes(n, empty_labels):
    """A breakage that declares n nodes over an empty edge list and no
    features, with an empty labels.tsv or none."""
    def breakage(d):
        (d / "meta.json").write_text(f'{{"n_nodes": {n}, "k_clusters": 2}}')
        (d / "edges.tsv").write_text("")
        (d / "features.tsv").unlink()
        if empty_labels:
            (d / "labels.tsv").write_text("")
        else:
            (d / "labels.tsv").unlink()
    return breakage


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
        assert np.array_equal(dense(back.x), blobs3.x)

    @pytest.mark.parametrize("kind", ["special", "integers", "binary", "noise"])
    def test_features_file_is_the_repr_of_every_entry(self, tmp_path, kind):
        # the writer formats only stored entries; the file stays byte for
        # byte the one that writes repr(float(v)) for each of the N x J values
        rng = np.random.default_rng(4)
        x = np.zeros((30, 40))
        if kind == "special":
            x.flat[rng.choice(x.size, 60, replace=False)] = rng.choice(
                [-0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, -2.5], 60)
        elif kind == "integers":
            x.flat[rng.choice(x.size, 90, replace=False)] = rng.integers(-10 ** 6, 10 ** 6, 90)
        elif kind == "binary":
            x = (rng.random((30, 40)) < 0.05).astype(np.float64)
        else:
            x = rng.standard_normal((30, 40))
            x[:, 3] = -0.0
            x[5] = 0.0
        g = make_graph(30, np.array([[0, 1]]), features=x)
        assert sp.issparse(g.x) == (kind != "noise")
        save_dataset(g, tmp_path / "d")
        old = "\n".join(" ".join(repr(float(v)) for v in row) for row in x) + "\n"
        assert (tmp_path / "d" / "features.tsv").read_bytes() == old.encode()
        assert_bitwise(dense(load_dataset(tmp_path / "d").x), x)

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
        assert np.array_equal(dense(back.x), expected)

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
            (write_meta("[3, 2]"), "object"),
            # counts are JSON integers: no strings, nulls, fractions or bools
            (write_meta('{"n_nodes": "abc", "k_clusters": 2}'), "n_nodes must be an integer"),
            (write_meta('{"n_nodes": null, "k_clusters": 2}'), "n_nodes must be an integer"),
            (write_meta('{"n_nodes": 3.7, "k_clusters": 2}'), "n_nodes must be an integer"),
            (write_meta('{"n_nodes": 3.0, "k_clusters": 2}'), "n_nodes must be an integer"),
            (write_meta('{"n_nodes": true, "k_clusters": 2}'), "n_nodes must be an integer"),
            (write_meta('{"n_nodes": 3, "k_clusters": "2"}'), "k_clusters must be an integer"),
            (write_meta('{"n_nodes": 3, "k_clusters": null}'), "k_clusters must be an integer"),
            (write_meta('{"n_nodes": 3, "k_clusters": 2.5}'), "k_clusters must be an integer"),
            (write_meta('{"n_nodes": 3, "k_clusters": true}'), "k_clusters must be an integer"),
            # a graph has nodes: scipy refuses -1, and 0 left labels.min() nothing to scan
            (declare_nodes(-1, empty_labels=False), "n_nodes must be at least 1, got -1"),
            (declare_nodes(0, empty_labels=True), "n_nodes must be at least 1, got 0"),
            # k-means needs 1 <= K <= N, so a count outside fails at load, not after pretraining
            (write_meta('{"n_nodes": 3, "k_clusters": 0}'), r"must lie in \[1, 3\], got 0"),
            (write_meta('{"n_nodes": 3, "k_clusters": 4}'), r"must lie in \[1, 3\], got 4"),
            (lambda d: (d / "edges.tsv").write_text("0 1 2\n"), "expected"),
            (lambda d: (d / "edges.tsv").write_text("0 x\n"), "non-integer"),
            (lambda d: (d / "edges.tsv").write_text("1 1\n"), "self-loop"),
            (lambda d: (d / "edges.tsv").write_text("0 9\n"), "out of range"),
            (lambda d: (d / "features.tsv").write_text("1.0\n"), "rows"),
            (lambda d: (d / "features.tsv").write_text("1.0\nnan\n2.0\n"), "non-finite"),
            (lambda d: (d / "labels.tsv").write_text("0\n"), "lines"),
            (lambda d: (d / "labels.tsv").write_text("0\n0\n7\n"), "outside"),
            # N ids on one line, or N lines of two ids, are not N lines of one id
            pytest.param(lambda d: (d / "labels.tsv").write_text("0 1 1\n"),
                         "labels.tsv has 1 lines of 3 ids", id="labels-on-one-line"),
            pytest.param(lambda d: (d / "labels.tsv").write_text("0\t0\n0\t0\n1\t1\n"),
                         "labels.tsv has 3 lines of 2 ids", id="labels-in-two-columns"),
            # an empty file holds no rows: np.loadtxt's warning must not escape
            pytest.param(lambda d: (d / "labels.tsv").write_text(""), "lines",
                         id="empty-labels"),
            pytest.param(lambda d: (d / "features.tsv").write_text(""), "rows",
                         id="empty-features"),
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


def loop_parse(text, n_nodes):
    """edges.tsv as load_dataset read it line by line before np.loadtxt:
    the oracle of what loads and what raises."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edges.tsv line {lineno}: expected 'u<TAB>v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"edges.tsv line {lineno}: non-integer node id") from exc
        if u == v:
            raise FormatError(f"edges.tsv line {lineno}: self-loop {u}")
        if u < 0 or v < 0 or u >= n_nodes or v >= n_nodes:
            raise FormatError(f"edges.tsv line {lineno}: node id out of range [0, {n_nodes})")
        edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestEdgeReader:
    @pytest.mark.parametrize("text", [
        "0\t1\n1\t2\n",
        "0 1\n0 1 2\n",           # ragged
        "0 1\n2\n",
        "0 1 2\n3 0 1\n",         # even, but three columns
        "# comment\n0 1\n",
        "#0 1\n",
        "0 1 # note\n",
        "0\t1\r\n1\t2\r\n",       # CRLF
        "0 \t1\n1\t 2\n",          # mixed tabs and spaces
        "  0\t1  \n\t1 2\t\n",     # whitespace at the line edges
        "0 1\n\n \n1 2\n",
        "0 1",                     # no final newline
        "",
        "\n \n\t\n",
        "0 x\n", "1.5 2\n", "1 1\n", "0 3\n", "-1 2\n", "2 0\n2 2\n",
    ])
    def test_matches_loop_parser(self, tmp_path, text):
        d = tmp_path / "d"
        save_dataset(make_graph(3, np.empty((0, 2))), d)
        (d / "edges.tsv").write_bytes(text.encode())
        try:
            want = loop_parse(text, 3)
        except FormatError:
            with pytest.raises(FormatError):
                load_dataset(d)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_dataset(d)
        assert np.array_equal(got.edge_array(), make_graph(3, want).edge_array())


class TestFeaturization:
    def test_degree_onehot_hand_case(self):
        # degrees: 3,2,2,1,0 -> bins [0,1,2,3]
        feats = dense(make_graph(5, np.array([[0, 1], [0, 2], [0, 3], [1, 2]])).x)
        expected = np.zeros((5, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 2] = expected[3, 1] = expected[4, 0] = 1
        assert np.array_equal(feats, expected)

class TestFeatureStorage:
    def test_the_rule_is_idempotent(self):
        rng = np.random.default_rng(2)
        sparse = np.where(rng.random((20, 30)) < 0.1, rng.standard_normal((20, 30)), 0.0)
        for x in (sparse, rng.standard_normal((20, 30))):
            g = make_graph(20, np.array([[0, 1]]), features=x)
            assert sp.issparse(g.x) == (x is sparse)
            assert graphio.feature_operand(g.x) is g.x
            again = dataclasses.replace(g, labels=None)
            assert again.x is g.x
            assert_bitwise(dense(again.x), x)

    def test_sparse_input_is_brought_to_the_rule(self):
        # duplicates summed, unsorted indices sorted, stored +0.0 dropped,
        # stored -0.0 kept; past the cut-off the dense array
        coo = sp.coo_matrix(([1.0, 2.0, 0.0, -0.0, 3.0], ([1, 1, 2, 3, 0], [4, 4, 0, 2, 9])),
                            shape=(5, 10))
        x = graphio.feature_operand(coo)
        assert isinstance(x, sp.csr_matrix) and x.has_canonical_format
        want = np.zeros((5, 10))
        want[1, 4], want[3, 2], want[0, 9] = 3.0, -0.0, 3.0
        assert x.nnz == 3
        assert_bitwise(graphio.dense_features(x), want)
        full = graphio.feature_operand(sp.csr_matrix(np.ones((5, 10))))
        assert isinstance(full, np.ndarray) and np.array_equal(full, np.ones((5, 10)))

    def test_csr_with_duplicate_and_unsorted_indices_is_summed(self):
        # built directly, so its indices reach feature_operand as given
        x = sp.csr_matrix(([1.5, -0.0, 2.0, 0.25, 4.0, 3.0], [3, 0, 3, 1, 2, 0], [0, 3, 3, 6]),
                          shape=(3, 20))
        assert not x.has_canonical_format
        want = sp.csr_matrix(([-0.0, 3.5, 3.0, 0.25, 4.0], [0, 3, 0, 1, 2], [0, 2, 2, 5]),
                             shape=(3, 20))
        got = graphio.feature_operand(x)
        assert isinstance(got, sp.csr_matrix) and got.has_canonical_format
        assert not x.has_canonical_format  # the caller's matrix is left as it was
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert_bitwise(got.data, want.data)

    def test_dense_storage_gives_a_fresh_copy(self):
        x = np.random.default_rng(3).standard_normal((6, 4))
        g = make_graph(6, np.array([[0, 1]]), features=x)
        assert isinstance(g.x, np.ndarray)
        copy = g.features
        copy[0, 0] = 1.0  # a view would reach the graph
        assert not np.shares_memory(copy, g.x)
        assert_bitwise(g.x, np.random.default_rng(3).standard_normal((6, 4)))
        assert_bitwise(g.features, g.x)

    def test_one_dimensional_features_are_refused(self):
        with pytest.raises(DataError, match="N x J"):
            make_graph(3, np.array([[0, 1]]), features=np.ones(3))


class TestNormalizeAdjacency:
    def dense_oracle(self, a_dense, add_loops):
        a = a_dense + np.eye(a_dense.shape[0]) if add_loops else a_dense
        deg = a.sum(axis=1)
        inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        return inv[:, None] * a * inv[None, :]

    def test_propagation_matches_dense_oracle(self, blobs3):
        got = normalize_adjacency(blobs3, "propagation")
        expected = self.dense_oracle(blobs3.adjacency.toarray(), add_loops=True)
        assert np.allclose(got.toarray(), expected, atol=1e-15)

    @pytest.mark.parametrize("seed, n, p", [(0, 1, 0.5), (1, 7, 0.0), (2, 30, 0.1),
                                            (3, 64, 0.4), (4, 200, 0.03)])
    def test_propagation_equals_two_diagonal_products_bitwise(self, seed, n, p):
        # the form normalize_adjacency had: D~^-1/2 @ (A+I) @ D~^-1/2 as two sparse products
        a = random_graph(np.random.default_rng(seed), n, p)
        graph = make_graph(n, np.argwhere(sp.triu(a).toarray()))
        a_loop = (graph.adjacency + sp.eye(n, format="csr")).tocsr()
        d_inv = sp.diags(1.0 / np.sqrt(np.asarray(a_loop.sum(axis=1)).ravel()))
        want = (d_inv @ a_loop @ d_inv).tocsr()
        want.sort_indices()
        got = normalize_adjacency(graph, "propagation")
        assert got.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and np.array_equal(g.view(np.uint8), w.view(np.uint8)), name

    def test_propagation_isolated_node_self_entry(self, tiny_path_graph):
        got = normalize_adjacency(tiny_path_graph, "propagation").toarray()
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

    @pytest.mark.parametrize("m", [0, 1, 7, 40, None])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_add_edges_match_the_scalar_rejection_loop(self, blobs3, m, seed):
        # m None fills a 12-node graph up to every pair
        graph = blobs3 if m is not None else make_graph(12, np.array([[0, 1], [2, 3], [9, 4]]))
        n, keys = graph.n_nodes, upper_keys(graph.adjacency)
        m = n * (n - 1) // 2 - keys.size if m is None else m
        rng, taken = np.random.default_rng(seed), set(keys.tolist())
        while len(taken) < keys.size + m:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                taken.add(n * min(u, v) + max(u, v))
        got = upper_keys(perturb_graph(graph, "add_random_edges", m, seed).adjacency)
        assert np.array_equal(got, sorted(taken))

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
        assert np.array_equal(out.x, blobs3.x)
        assert np.array_equal(out.adjacency.toarray(), blobs3.adjacency.toarray())

    def test_feature_noise_deterministic(self, blobs3):
        a = perturb_graph(blobs3, "feature_gaussian_noise", 0.5, seed=2)
        b = perturb_graph(blobs3, "feature_gaussian_noise", 0.5, seed=2)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, blobs3.x)

    def test_negative_sigma_rejected(self, blobs3):
        with pytest.raises(RangeError):
            perturb_graph(blobs3, "feature_gaussian_noise", -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, blobs3, sigma):
        with pytest.raises(RangeError, match="finite"):
            perturb_graph(blobs3, "feature_gaussian_noise", sigma, seed=0)

    def test_negative_zero_sigma_draws_as_zero(self, blobs3):
        got = perturb_graph(blobs3, "feature_gaussian_noise", -0.0, seed=1)
        want = perturb_graph(blobs3, "feature_gaussian_noise", 0.0, seed=1)
        assert np.array_equal(got.x.view(np.uint64), want.x.view(np.uint64))

    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_feature_noise_adds_to_the_dense_x(self, blobs3, form):
        graph = blobs3 if form == "dense" else bag_of_words_graph()
        assert sp.issparse(graph.x) == (form == "csr")
        got = perturb_graph(graph, "feature_gaussian_noise", 0.3, seed=4)
        want = dense(graph.x) + np.random.default_rng(4).normal(0.0, 0.3, size=graph.x.shape)
        assert isinstance(got.x, np.ndarray)
        assert np.array_equal(got.x.view(np.uint64), want.view(np.uint64))

    def test_drop_feature_columns(self, blobs3):
        out = perturb_graph(blobs3, "drop_feature_columns", 3, seed=6)
        assert out.x.shape == (blobs3.n_nodes, blobs3.x.shape[1] - 3)

    def test_cannot_drop_all_columns(self, blobs3):
        j = blobs3.x.shape[1]
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
    if k > n:
        # neither a graph in memory nor a dataset may hold more clusters than nodes
        with pytest.raises(DataError, match="k_clusters must lie in"):
            make_graph(n, np.array(chosen).reshape(-1, 2), features=feats, labels=labels,
                       k_clusters=k)
        return
    g = make_graph(n, np.array(chosen).reshape(-1, 2), features=feats, labels=labels,
                   k_clusters=k)
    target = tmp_path_factory.mktemp("rt")
    save_dataset(g, target)
    back = load_dataset(target)
    assert np.array_equal(back.edge_array(), g.edge_array())
    assert np.array_equal(dense(back.x), dense(g.x))
    assert np.array_equal(back.labels, g.labels)


def write_features(path, text, n_nodes=None):
    """A dataset directory with no edges and the given features.tsv text."""
    path.mkdir(parents=True, exist_ok=True)
    if n_nodes is None:
        n_nodes = max(1, len(text.splitlines()))
    (path / "meta.json").write_text(json.dumps({"n_nodes": n_nodes, "k_clusters": 1}))
    (path / "edges.tsv").write_text("")
    (path / "features.tsv").write_bytes(text.encode())
    return path


def gen_layout(x):
    """benchmarks/gen.py's layout: one digit per binary entry, "0 1 ... 1\\n"."""
    x = np.asarray(x, dtype=np.uint8)
    buf = np.full((x.shape[0], 2 * x.shape[1]), ord(" "), dtype=np.uint8)
    buf[:, 0::2] = x + ord("0")
    buf[:, -1] = ord("\n")
    return buf.tobytes().decode()


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def feature_texts(draw):
    """features.tsv text in the layouts the repo writes and their neighbours."""
    n = draw(st.integers(min_value=1, max_value=6))
    j = draw(st.integers(min_value=1, max_value=5))
    sep = draw(st.sampled_from([" ", "\t"]))
    kind = draw(st.sampled_from(["gen", "repr", "fixed", "padded", "int"]))

    def cells(strategy):
        return [[draw(strategy) for _ in range(j)] for _ in range(n)]

    if kind == "gen":
        return gen_layout(cells(st.integers(min_value=0, max_value=1)))
    if kind == "repr":
        # save_dataset writes repr of each float64, " "-separated
        binary = draw(st.booleans())
        values = cells(st.integers(min_value=0, max_value=1) if binary
                       else st.floats(-1e6, 1e6, allow_nan=False, width=64))
        return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in values)
    if kind == "fixed":
        p = draw(st.integers(min_value=0, max_value=6))
        values = cells(st.floats(-1e3, 1e3, allow_nan=False, width=64))
        return "".join(sep.join(f"{v:.{p}f}" for v in row) + "\n" for row in values)
    if kind == "padded":
        # one sign, digit count and fraction length per column: every line
        # shares one layout, with a mix of token shapes, "-0.0" included
        shape = [(draw(st.booleans()), draw(st.integers(1, 9)), draw(st.integers(0, 7)))
                 for _ in range(j)]
        lines = []
        for _ in range(n):
            tokens = []
            for neg, d, f in shape:
                m = draw(st.integers(min_value=0, max_value=10 ** (d + f) - 1))
                digits = f"{m:0{d + f}d}"
                frac = "." + digits[d:] if f else ""
                tokens.append(("-" if neg else "") + digits[:d] + frac)
            lines.append(sep.join(tokens) + "\n")
        return "".join(lines)
    values = cells(st.integers(min_value=-10 ** 17, max_value=10 ** 17))
    return "".join(sep.join(str(v) for v in row) + "\n" for row in values)


@settings(max_examples=150, deadline=None)
@given(text=feature_texts())
def test_features_parse_bitwise_like_loadtxt(tmp_path_factory, text):
    d = write_features(tmp_path_factory.mktemp("feat"), text)
    want = np.loadtxt(d / "features.tsv", dtype=np.float64, ndmin=2)
    graph = load_dataset(d)
    assert_bitwise(dense(graph.x), want)
    # the storage follows the stored share, whichever parser read the file
    stored = np.count_nonzero(want.view(np.uint64))
    assert sp.issparse(graph.x) == (stored <= graphio._SPARSE_FEATURES * want.size)


class TestFeaturesReader:
    @pytest.mark.parametrize("text", [
        "1e3 2.5e-1\n3e0 4E2\n",                    # exponents
        "# header\n1 2\n3 4\n",                     # comment line
        "1 2 #c\n3 4 #d\n",                          # trailing comments
        "1 2\n\n3 4\n",                              # blank line
        "1 2\r\n3 4\r\n",                            # CRLF
        "1\t2\n3 4\n",                               # separators move
        "1 2\n3 4",                                   # no final newline
        "1234567890123456 1\n1234567890123457 2\n",  # 16 digits
        "0.1234567890123456\n0.6543210987654321\n",  # 16 digits after the point
        ".5 1\n.5 2\n",
        "5. 1\n5. 2\n",
        "+1 2\n+3 4\n",
        "1 2\n3\n",                                  # ragged rows
        "- 1\n- 2\n",                                # a lone minus
        "1 x\n2 y\n",
        " -0.50\t12\n -3.25\t07\n",                 # mixed token shapes
        "-0 0 \n-0 1 \n",
        "1 2 34 5\n6 7 89 0\n",                     # uneven token offsets
    ])
    def test_other_files_go_to_loadtxt(self, tmp_path, text):
        d = write_features(tmp_path / "d", text, n_nodes=2)
        assert graphio._read_fixed_layout(d / "features.tsv") is None
        try:
            want = np.loadtxt(d / "features.tsv", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            with pytest.raises(FormatError) as err:
                load_dataset(d)
            assert str(err.value) == f"features.tsv: {exc}"
        else:
            assert_bitwise(dense(load_dataset(d).x), want)

    @pytest.mark.parametrize("text, shape", [
        ("0 0 0 0 0 0 0 0 0 1\n", (1, 10)),
        ("0\n" * 9 + "1\n", (10, 1)),
        ("0\n", (1, 1)),
        ("0.00\t0.00\t0.00\t0.00\t1.25\n0.00\t0.00\t0.00\t0.00\t0.00\n", (2, 5)),  # tabs
        (" 0.0\t0.0\t0.0\t0.0\t0.5\t\n 0.0\t0.0\t0.0\t0.0\t0.0\t\n", (2, 5)),  # edge whitespace
        ("0 0 0 0 0 0 0 0 0 1\n0 0 0 0 0 0 0 0 0 0\n", (2, 10)),  # 5% stored: CSR
    ])
    def test_fixed_layout_shapes(self, tmp_path, text, shape):
        # sparse files of unsigned tokens come back as their CSR
        d = write_features(tmp_path / "d", text)
        got = graphio._read_fixed_layout(d / "features.tsv")
        assert sp.issparse(got) and got.shape == shape
        assert_bitwise(dense(got), np.loadtxt(d / "features.tsv", ndmin=2))
        graph = load_dataset(d)
        assert sp.issparse(graph.x)
        assert_bitwise(dense(graph.x), dense(got))

    @pytest.mark.parametrize("text, shape", [
        ("0 1 1\n", (1, 3)),
        ("0\n1\n1\n", (3, 1)),
        ("7\n", (1, 1)),
        ("-0.50\t-1.25\n-3.00\t-0.75\n", (2, 2)),     # signed fractions, tabs
        (" -0.5\t-1.2\t\n -3.0\t-0.7\t\n", (2, 2)),   # and edge whitespace
    ])
    def test_dense_or_signed_layouts_go_to_loadtxt(self, tmp_path, text, shape):
        # one layout throughout, but too many entries stored, or a sign
        d = write_features(tmp_path / "d", text)
        assert graphio._read_fixed_layout(d / "features.tsv") is None
        want = np.loadtxt(d / "features.tsv", dtype=np.float64, ndmin=2)
        assert want.shape == shape
        graph = load_dataset(d)
        assert isinstance(graph.x, np.ndarray)
        assert_bitwise(graph.x, want)

    def test_stores_csr_or_dense_by_the_stored_share(self, tmp_path):
        # 3 of 25 entries (12%) stored is CSR; 5 of 25 and a '-' layout,
        # which stores every entry, go to np.loadtxt and stay dense
        x = np.zeros((5, 5), dtype=np.uint8)
        x[[0, 2, 4], [1, 3, 0]] = 1
        cases = [(gen_layout(x), True), (gen_layout(np.eye(5)), False),
                 ("-0 -1\n-0 -0\n-0 -0\n-0 -0\n-0 -0\n", False)]
        for i, (text, sparse) in enumerate(cases):
            d = write_features(tmp_path / str(i), text)
            got = graphio._read_fixed_layout(d / "features.tsv")
            want = np.loadtxt(d / "features.tsv", ndmin=2)
            if sparse:
                assert sp.issparse(got)
                assert_bitwise(dense(got), want)
            else:
                assert got is None
            assert_bitwise(dense(load_dataset(d).x), want)
            assert sp.issparse(load_dataset(d).x) == sparse

    def test_goes_to_loadtxt_once_past_the_stored_share(self, tmp_path):
        # three sparse blocks, then a last block dense enough to take the
        # stored count past _SPARSE_FEATURES of the whole file
        step = graphio._BLOCK_BYTES // 40
        rng = np.random.default_rng(1)
        x = (rng.random((4 * step, 20)) < 0.02).astype(np.uint8)
        x[3 * step:] = rng.random((step, 20)) < 0.9
        assert x[:3 * step].sum() <= graphio._SPARSE_FEATURES * x.size < x.sum()
        head = write_features(tmp_path / "head", gen_layout(x[:3 * step]))
        assert sp.issparse(graphio._read_fixed_layout(head / "features.tsv"))
        d = write_features(tmp_path / "d", gen_layout(x))
        assert graphio._read_fixed_layout(d / "features.tsv") is None
        graph = load_dataset(d)
        assert isinstance(graph.x, np.ndarray)
        assert_bitwise(graph.x, x.astype(np.float64))

    def test_features_are_a_fresh_array_with_negative_zeros(self, tmp_path):
        # mixed token shapes go to np.loadtxt, whose "-0.0" the CSR X stores
        rows = ["0.0 " * 4 + "-0.0 " + "0.0 " * 5 + "1.0 " + "0.0 " * 9, "0.0 " * 20]
        d = write_features(tmp_path / "d", "".join(r.strip() + "\n" for r in rows * 3))
        want = np.loadtxt(d / "features.tsv", dtype=np.float64, ndmin=2)
        assert np.signbit(want[:, 4]).sum() == 3
        graph = load_dataset(d)
        assert sp.issparse(graph.x) and graph.x.nnz == 6
        first = graph.features
        assert isinstance(first, np.ndarray) and first.flags.writeable
        assert_bitwise(first, want)
        first[:] = 7.0  # a view would reach the graph
        second = graph.features
        assert not np.shares_memory(first, second)
        assert_bitwise(second, want)
        assert_bitwise(graphio.dense_features(graph.x)[2:5], want[2:5])

    def test_mismatch_after_parsed_blocks_goes_to_loadtxt(self, tmp_path):
        # more than one _BLOCK_BYTES block; the last line swaps a space for
        # a tab at the same length, so earlier blocks parse before the miss
        rng = np.random.default_rng(0)
        x = (rng.random((graphio._BLOCK_BYTES // 40 + 50, 20)) < 0.3).astype(np.uint8)
        text = gen_layout(x)
        assert text[-3] == " "
        text = text[:-3] + "\t" + text[-2:]
        assert len(text) > graphio._BLOCK_BYTES
        d = write_features(tmp_path / "d", text)
        assert graphio._read_fixed_layout(d / "features.tsv") is None
        want = np.loadtxt(d / "features.tsv", dtype=np.float64, ndmin=2)
        assert_bitwise(want, x.astype(np.float64))
        assert_bitwise(dense(load_dataset(d).x), want)


@st.composite
def edited_gen_files(draw):
    """A gen-layout features.tsv of at least 3 blocks, its row count no
    multiple of 8, with lines of odd or even width (an optional leading
    space), and one edit: a byte replaced, or a newline moved."""
    n_cols = draw(st.integers(min_value=2, max_value=30))
    lead = draw(st.sampled_from(["", " "]))
    width = len(lead) + 2 * n_cols
    step = draw(st.integers(min_value=1, max_value=5))
    block_bytes = step * width + draw(st.integers(min_value=0, max_value=width - 1))
    n_rows = draw(st.integers(min_value=3 * step, max_value=60).filter(lambda r: r % 8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    x = (rng.random((n_rows, n_cols)) < 0.03).astype(np.uint8)
    data = bytearray("".join(lead + line + "\n"
                             for line in gen_layout(x).splitlines()).encode())
    kind = draw(st.sampled_from(["digit", "byte", "newline"]))
    at = draw(st.integers(min_value=0, max_value=len(data) - 1))
    if kind == "digit":  # a digit of a token becomes another digit: the file still fits
        row, col = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        data[row * width + len(lead) + 2 * col] = draw(st.integers(ord("0"), ord("9")))
        fits = True
    elif kind == "byte":
        old = data[at]
        data[at] = draw(st.one_of(st.sampled_from(list(b"0: \t\n-./\r")),
                                  st.integers(min_value=0, max_value=255)))
        digits = range(ord("0"), ord("9") + 1)
        fits = data[at] == old or (old in digits and data[at] in digits)
    else:
        newlines = [i for i, b in enumerate(data) if b == ord("\n")]
        source = newlines[draw(st.integers(min_value=0, max_value=n_rows - 1))]
        del data[source]
        data.insert(at, ord("\n"))
        fits = at == source
    return bytes(data), n_rows, block_bytes, fits


@settings(max_examples=200, deadline=None)
@given(case=edited_gen_files())
def test_edited_gen_files_parse_like_loadtxt(tmp_path_factory, case):
    data, n_rows, block_bytes, fits = case
    d = write_features(tmp_path_factory.mktemp("edit"), "", n_nodes=n_rows)
    (d / "features.tsv").write_bytes(data)
    try:
        want = np.loadtxt(d / "features.tsv", dtype=np.float64, ndmin=2)
    except ValueError:
        want = None
    with unittest.mock.patch.object(graphio, "_BLOCK_BYTES", block_bytes):
        got = graphio._read_fixed_layout(d / "features.tsv")
        if want is None or want.shape[0] != n_rows:
            with pytest.raises(FormatError):
                load_dataset(d)
        else:
            assert_bitwise(dense(load_dataset(d).x), want)
    # the word scan returns None exactly when the file leaves the template
    # or stores more than _SPARSE_FEATURES of its entries
    if fits and np.count_nonzero(want) <= graphio._SPARSE_FEATURES * want.size:
        assert_bitwise(dense(got), want)
    else:
        assert got is None


@pytest.mark.parametrize("edit", ["digit-to-colon", "space-to-tab", "moved-newline"])
def test_edits_that_leave_the_template_go_to_loadtxt(tmp_path, edit):
    # several blocks of an odd row count; ':' is '0' XOR 10, one above the digits
    x = (np.random.default_rng(3).random((graphio._BLOCK_BYTES // 40 * 3 + 5, 20)) < 0.05)
    data = bytearray(gen_layout(x).encode())
    middle = len(data) // 2 // 40 * 40
    if edit == "digit-to-colon":
        data[middle] = ord(":")
    elif edit == "space-to-tab":
        data[middle + 1] = ord("\t")
    else:
        del data[middle + 39]
        data.insert(middle + 37, ord("\n"))
    d = write_features(tmp_path / "d", "", n_nodes=x.shape[0])
    (d / "features.tsv").write_bytes(data)
    assert graphio._read_fixed_layout(d / "features.tsv") is None
    try:
        want = np.loadtxt(d / "features.tsv", dtype=np.float64, ndmin=2)
    except ValueError:
        with pytest.raises(FormatError):
            load_dataset(d)
    else:
        assert edit == "space-to-tab"
        assert_bitwise(dense(load_dataset(d).x), want)


@pytest.fixture(scope="module")
def cora_sized(tmp_path_factory):
    """A Cora-sized binary X (2708 x 1433, ~1.5% ones) and 5278 edges, as
    dataset directories in gen.py's and in save_dataset's layout."""
    rng = np.random.default_rng(0)
    x = (rng.random((2708, 1433)) < 0.015).astype(np.float64)
    pairs = rng.integers(0, 2708, size=(6000, 2))
    edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)[:5278]
    graph = make_graph(2708, edges, features=x)
    saved = tmp_path_factory.mktemp("cora_saved")
    save_dataset(graph, saved)
    gen = tmp_path_factory.mktemp("cora_gen")
    for name in ("meta.json", "edges.tsv"):
        (gen / name).write_bytes((saved / name).read_bytes())
    (gen / "features.tsv").write_text(gen_layout(x))
    return x, {"gen": gen, "save_dataset": saved}


@pytest.mark.parametrize("layout", ["gen", "save_dataset"])
class TestFixedLayoutAtScale:
    def test_takes_the_fast_path(self, cora_sized, monkeypatch, layout):
        x, dirs = cora_sized

        real_loadtxt = np.loadtxt

        def no_loadtxt(fname, *args, **kwargs):
            if Path(fname).name == "features.tsv":
                raise AssertionError("features.tsv went to np.loadtxt")
            return real_loadtxt(fname, *args, **kwargs)
        monkeypatch.setattr(graphio.np, "loadtxt", no_loadtxt)
        assert_bitwise(dense(load_dataset(dirs[layout]).x), x)

    def test_peak_memory_below_a_dense_x(self, cora_sized, layout):
        x, dirs = cora_sized
        load_dataset(dirs[layout])  # warm: first-call caches are no part of the peak
        graph = load_dataset(dirs[layout])
        assert sp.issparse(graph.x)
        assert traced_peak(lambda: load_dataset(dirs[layout])) < x.size * 8

    def test_peak_memory_within_loadtxt(self, cora_sized, layout):
        path = cora_sized[1][layout]
        load_dataset(path)  # warm: first-call caches are no part of the peak
        loadtxt_peak = traced_peak(
            lambda: np.loadtxt(path / "features.tsv", dtype=np.float64, ndmin=2))
        assert traced_peak(lambda: load_dataset(path)) <= loadtxt_peak


def bag_of_words_graph(n=40, dim=60, k=3, seed=0):
    """planted_partition structure with sparse 0/1 features (~4% non-zero)."""
    base = planted_partition(n, k, 0.4, 0.05, seed=seed)
    rng = np.random.default_rng(seed)
    words = (rng.random((n, dim)) < 0.04).astype(np.float64)
    return make_graph(n, base.edge_array(), features=words, labels=base.labels,
                      k_clusters=k, name="bow")


def spy_on_encode(monkeypatch, seen):
    """Record, for every encode call pretrain or train_joint makes, the
    feature operand it kept in caches["x"]."""
    real = gaeclust.models.encode

    def spy(model, a_prop, x, training=False):
        z, caches = real(model, a_prop, x, training)
        seen.append(caches["x"])
        return z, caches

    monkeypatch.setattr(gaeclust.models, "encode", spy)
    monkeypatch.setattr(gaeclust.training, "encode", spy)


class TestFeatureOperand:
    def test_density_picks_the_representation(self):
        rng = np.random.default_rng(0)
        sparse = (rng.random((50, 80)) < 0.05).astype(np.float64)
        assert sp.issparse(feature_operand(sparse))
        assert np.array_equal(feature_operand(sparse).toarray(), sparse)
        dense = rng.standard_normal((50, 80))
        assert isinstance(feature_operand(dense), np.ndarray)

    def test_csr_equals_scipys_array_for_array(self):
        rng = np.random.default_rng(1)
        x = np.where(rng.random((60, 90)) < 0.05, rng.integers(-3, 4, (60, 90)), 0.0)
        x[7] = 0.0  # an empty row
        x[3, :4] = -0.0  # stored: its bits are not +0.0's
        x[5, 2], x[9, 80] = np.nan, -np.nan  # non-zeros, as for scipy
        stored = x.view(np.uint64) != 0
        ours, ref = feature_operand(x), sp.csr_matrix(stored.astype(np.float64))
        for name in ("indptr", "indices", "data"):
            assert getattr(ours, name).dtype == getattr(ref, name).dtype
        assert np.array_equal(ours.indptr, ref.indptr)
        assert np.array_equal(ours.indices, ref.indices)
        assert np.array_equal(ours.data.view(np.uint64), x[stored].view(np.uint64))
        assert np.isnan(ours.data).sum() == 2
        assert np.signbit(ours.data).sum() == np.signbit(x[stored]).sum() >= 4

    def test_cut_off_counts_non_zeros(self):
        x = np.zeros((10, 50))
        x.flat[:60] = 1.0  # exactly 12% of the entries
        assert sp.issparse(feature_operand(x))
        x.flat[60] = -1.0
        assert isinstance(feature_operand(x), np.ndarray)

    @pytest.mark.parametrize("arch", ["gae", "vgae", "dgae"])
    def test_sparse_graph_trains_on_csr(self, monkeypatch, arch):
        graph = bag_of_words_graph()
        seen = []
        spy_on_encode(monkeypatch, seen)
        model = init_model(arch, graph.x.shape[1], seed=0)
        pretrain(model, graph, TrainConfig(pretrain_epochs=2))
        assert len(seen) == 2
        train_joint(model, graph, TrainConfig(train_epochs=2, rethink=True, m1=1, m2=1))
        assert len(seen) > 2
        assert all(sp.issparse(x) for x in seen)
        assert sp.issparse(graph.x)

    def test_noisy_features_stay_dense(self, monkeypatch):
        graph = perturb_graph(bag_of_words_graph(), "feature_gaussian_noise", 0.1, seed=0)
        assert isinstance(graph.x, np.ndarray)
        seen = []
        spy_on_encode(monkeypatch, seen)
        model = init_model("gae", graph.x.shape[1], seed=0)
        pretrain(model, graph, TrainConfig(pretrain_epochs=2))
        train_joint(model, graph, TrainConfig(train_epochs=1))
        assert seen and all(isinstance(x, np.ndarray) for x in seen)

    @pytest.mark.parametrize("arch", ["gae", "vgae", "dgae"])
    @pytest.mark.parametrize("training", [False, True])
    def test_csr_and_dense_agree(self, arch, training):
        graph = bag_of_words_graph(seed=1)
        a_prop = normalize_adjacency(graph, "propagation")
        x_csr = graph.x
        assert sp.issparse(x_csr)
        model = init_model(arch, graph.x.shape[1], seed=2)
        grad_z = np.random.default_rng(3).standard_normal((graph.n_nodes, EMBED_DIM))
        out = []
        for x in (graphio.dense_features(x_csr), x_csr):
            model.rng = np.random.default_rng(4)  # the same vgae sample on both
            z, caches = encode(model, a_prop, x, training=training)
            out.append((z, backprop_theta(caches, grad_z)))
        (z_dense, g_dense), (z_csr, g_csr) = out
        assert np.max(np.abs(z_csr - z_dense)) <= 1e-12 * np.max(np.abs(z_dense))
        for name in g_dense:
            assert (np.max(np.abs(g_csr[name] - g_dense[name]))
                    <= 1e-12 * np.max(np.abs(g_dense[name]))), name
