"""Alignment cosines, identity residuals, evolution stats, traces."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gaeclust import DataError, StateError, init_model, make_graph
from gaeclust.clustering import build_cluster_graph, student_t_assign
from gaeclust.diagnostics import (TRACE_COLUMNS, DiagnosticTrace, _cluster_mean_grad,
                                  decomposition_residuals, graph_evolution_stats, lambda_fd,
                                  lambda_fr)
from gaeclust.graphio import normalize_adjacency
from gaeclust.linalg import cosine
from gaeclust.models import EMBED_DIM, backprop_theta, dgae_clus_loss, encode, flatten_theta
from gaeclust.operators import (build_supervised_target, compute_centroid_nodes, passthrough_graph,
                                save_edge_list, upsilon_transform)
from gaeclust.pairs import kmeans_grad_z, recon_grad_z

from conftest import eval_caches, random_graph


class TestLambdaFr:
    def test_exactly_one_when_pseudo_equals_truth(self, blobs3):
        model = init_model("gae", blobs3.features.shape[1], seed=0)
        got, _ = lambda_fr(blobs3, blobs3.labels, eval_caches(model, blobs3))
        assert got.value == 1.0
        assert not got.degenerate

    def test_invariant_to_pseudo_label_permutation(self, blobs3):
        # the Hungarian map reindexes truth into the prediction's space,
        # so a relabeled perfect prediction still aligns exactly
        model = init_model("gae", blobs3.features.shape[1], seed=0)
        perm = np.array([2, 0, 1])
        got, _ = lambda_fr(blobs3, perm[blobs3.labels], eval_caches(model, blobs3))
        assert got.value == 1.0

    def test_full_omega_equals_unrestricted(self, blobs3):
        model = init_model("gae", blobs3.features.shape[1], seed=1)
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 3, blobs3.n_nodes)
        full = np.arange(blobs3.n_nodes)
        caches = eval_caches(model, blobs3)
        assert lambda_fr(blobs3, pred, caches, full) == lambda_fr(blobs3, pred, caches)

    def test_omega_restriction_changes_pseudo_side_only(self, blobs3):
        model = init_model("gae", blobs3.features.shape[1], seed=1)
        rng = np.random.default_rng(3)
        noisy = blobs3.labels.copy()
        flip = rng.choice(blobs3.n_nodes, size=20, replace=False)
        noisy[flip] = (noisy[flip] + 1) % 3
        caches = eval_caches(model, blobs3)
        restricted, baseline = lambda_fr(blobs3, noisy, caches, np.arange(0, blobs3.n_nodes, 2))
        unrestricted, same = lambda_fr(blobs3, noisy, caches)
        assert restricted.value != unrestricted.value
        # the baseline is the unrestricted cosine, which is its own baseline
        assert baseline == unrestricted and same is unrestricted

    def test_explicit_labels_override_graph(self, blobs3):
        model = init_model("gae", blobs3.features.shape[1], seed=0)
        shuffled = dataclasses.replace(blobs3, labels=np.roll(blobs3.labels, 7))
        caches = eval_caches(model, blobs3)
        assert lambda_fr(shuffled, blobs3.labels, caches)[0].value != 1.0
        assert lambda_fr(blobs3, blobs3.labels, caches)[0].value == 1.0

    def test_requires_labels(self, blobs3):
        g = make_graph(blobs3.n_nodes, blobs3.edge_array(), features=blobs3.features,
                       k_clusters=3)
        model = init_model("gae", g.features.shape[1], seed=0)
        with pytest.raises(DataError):
            lambda_fr(g, np.zeros(g.n_nodes, dtype=np.int64), eval_caches(model, g))

    def test_dgae_without_centers(self, blobs3):
        # without centers there is no Student-t P to hand over, and
        # lambda_fr builds none of its own
        model = init_model("dgae", blobs3.features.shape[1], seed=0)
        with pytest.raises(StateError):
            lambda_fr(blobs3, blobs3.labels, eval_caches(model, blobs3))

    def test_dgae_perfect_pseudo_is_exactly_one(self, blobs3):
        model = init_model("dgae", blobs3.features.shape[1], seed=0)
        model.centers = np.random.default_rng(4).standard_normal((3, EMBED_DIM))
        caches = eval_caches(model, blobs3)
        p = student_t_assign(caches["pairs"].z, model.centers)
        pred = p.labels()
        # force truth to match the model's own hard labels
        got, _ = lambda_fr(dataclasses.replace(blobs3, labels=pred), pred, caches,
                           assignment=p)
        assert got.value == 1.0

    def test_zero_embedding_degenerate(self):
        g = make_graph(6, np.array([[0, 1], [2, 3], [4, 5]]),
                       features=np.zeros((6, 2)),
                       labels=np.array([0, 0, 1, 1, 0, 1]), k_clusters=2)
        model = init_model("gae", 2, seed=0)
        got, _ = lambda_fr(g, g.labels, eval_caches(model, g))
        assert got.degenerate
        assert got.value == 0.0


class TestClusterMeanGrad:
    """The O(N d) clustering gradient against kmeans_grad_z of the cluster graph."""

    def oracle(self, z, labels, rows, k):
        n = z.shape[0]
        if rows is None:
            return kmeans_grad_z(z, build_cluster_graph(labels, k))
        sub = build_cluster_graph(labels[rows], k).tocoo()
        a = sp.csr_matrix((sub.data, (rows[sub.row], rows[sub.col])), shape=(n, n))
        return kmeans_grad_z(z, a)

    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_cluster_graph_oracle(self, subset):
        rng = np.random.default_rng(5)
        n, k = 40, 5
        z = rng.standard_normal((n, 4))
        labels = rng.choice([0, 1, 3, 4], size=n)  # cluster 2 is empty
        rows = np.sort(rng.choice(n, size=17, replace=False)) if subset else None
        if subset:
            labels[rows] = np.where(labels[rows] == 4, 0, labels[rows])  # so is 4 within rows
        want = self.oracle(z, labels, rows, k)
        got = _cluster_mean_grad(z, labels, rows, k)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if subset:
            outside = np.setdiff1d(np.arange(n), rows)
            assert not got[outside].any()

    def test_empty_rows_give_zero(self):
        z = np.random.default_rng(6).standard_normal((5, 3))
        got = _cluster_mean_grad(z, np.zeros(5, dtype=np.int64), np.array([], dtype=np.int64), 2)
        assert not got.any()


class TestExactNegation:
    def test_opposite_hard_targets_negate_kl_gradients(self):
        # a point equidistant from two centers has p = [1/2, 1/2] exactly,
        # so opposite one-hot targets produce bitwise-negated gradients
        z = np.zeros((1, 2))
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        p = student_t_assign(z, centers)
        assert np.array_equal(p.matrix, [[0.5, 0.5]])
        _, ga, _ = dgae_clus_loss(p, np.array([0]))
        _, gb, _ = dgae_clus_loss(p, np.array([1]))
        assert np.array_equal(ga, -gb)
        assert np.any(ga != 0.0)
        assert cosine(ga, gb).value == -1.0

    def test_backprop_is_exactly_odd(self, blobs3):
        # negating dL/dZ negates every parameter gradient bitwise, so the
        # alignment cosine reaches exactly -1 on opposing objectives
        model = init_model("gae", blobs3.features.shape[1], seed=5)
        a_prop = normalize_adjacency(blobs3, "propagation")
        z, caches = encode(model, a_prop, blobs3.features)
        g = recon_grad_z(z, blobs3.adjacency)
        fwd = flatten_theta(backprop_theta(caches, g))
        rev = flatten_theta(backprop_theta(caches, -g))
        assert np.array_equal(fwd, -rev)
        assert cosine(fwd, rev).value == -1.0


class TestLambdaFd:
    def test_exactly_one_for_identical_graphs(self, blobs3):
        model = init_model("gae", blobs3.features.shape[1], seed=0)
        ssg = passthrough_graph(blobs3.adjacency)
        got, _ = lambda_fd(blobs3, ssg, passthrough_graph(blobs3.adjacency),
                           eval_caches(model, blobs3))
        assert got.value == 1.0

    def test_matches_componentwise_assembly(self, blobs3):
        model = init_model("vgae", blobs3.features.shape[1], seed=1)
        a_prop = normalize_adjacency(blobs3, "propagation")
        z, caches = encode(model, a_prop, blobs3.features)
        target = build_supervised_target(blobs3.adjacency, blobs3.labels, z,
                                         blobs3.k_clusters)
        current = passthrough_graph(blobs3.adjacency)
        g_cs = flatten_theta(backprop_theta(caches,
                                            recon_grad_z(z, current.adjacency)))
        g_sup = flatten_theta(backprop_theta(caches,
                                             recon_grad_z(z, target.adjacency)))
        expected = float(g_cs @ g_sup / (np.linalg.norm(g_cs) * np.linalg.norm(g_sup)))
        got, _ = lambda_fd(blobs3, current, target, caches)
        assert got.value == pytest.approx(expected, abs=1e-12)

    def test_rewired_graph_aligns_better_than_original(self, blobs3):
        # a partially rewired graph sits between the original and the
        # supervised target, so its alignment should not be worse
        model = init_model("gae", blobs3.features.shape[1], seed=2)
        a_prop = normalize_adjacency(blobs3, "propagation")
        z, caches = encode(model, a_prop, blobs3.features)
        target = build_supervised_target(blobs3.adjacency, blobs3.labels, z,
                                         blobs3.k_clusters)
        omega = np.arange(blobs3.n_nodes)
        pi = compute_centroid_nodes(z, blobs3.labels, omega, 3)
        rewired = upsilon_transform(blobs3.adjacency, blobs3.labels, omega, pi)
        base, same = lambda_fd(blobs3, passthrough_graph(blobs3.adjacency), target, caches)
        improved, baseline = lambda_fd(blobs3, rewired, target, caches)
        assert improved.value >= base.value
        # the baseline reconstructs the original adjacency; an unrewired
        # graph is its own baseline
        assert baseline == base and same is base


class TestResiduals:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 2.0))
    def test_identities_hold_to_machine_precision(self, seed, gamma):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(3, 15)), int(rng.integers(2, 4))
        a = random_graph(rng, n, p=0.4)
        z = rng.standard_normal((n, 4))
        labels = rng.integers(0, k, size=n)
        out = decomposition_residuals(z, a, labels, gamma, k)
        assert out["prop1_rel"] < 1e-12
        assert out["prop2_rel"] < 1e-12
        assert out["thm1_rel"] < 1e-12

    def test_k_inferred(self):
        rng = np.random.default_rng(8)
        a = random_graph(rng, 6, p=0.5)
        z = rng.standard_normal((6, 3))
        out = decomposition_residuals(z, a, np.array([0, 1, 2, 0, 1, 2]), 0.5, 3)
        assert out["prop2_rel"] < 1e-12


class TestEvolutionStats:
    def test_hand_case(self):
        labels = np.array([0, 0, 1, 1])
        a_orig = sp.csr_matrix(np.array([
            [0, 1, 1, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 1],
            [0, 0, 1, 0],
        ], dtype=float))
        omega = np.arange(4)
        z = np.array([[0.0], [0.1], [5.0], [5.1]])
        pi = compute_centroid_nodes(z, labels, omega, 2)
        ssg = upsilon_transform(a_orig, labels, omega, pi)
        out = graph_evolution_stats(ssg, labels)
        # cross edge (0,2) deleted; same-cluster adds fill each pair
        assert out["links_false"] == 0
        assert out["links_deleted_false"] == 1
        assert out["links_deleted_true"] == 0
        assert out["links_added_false"] == 0
        assert out["links_total"] == out["links_true"] + out["links_false"]

    def test_passthrough_counts(self, blobs3):
        ssg = passthrough_graph(blobs3.adjacency)
        out = graph_evolution_stats(ssg, blobs3.labels)
        assert out["links_total"] == blobs3.n_edges
        assert out["links_added_true"] == out["links_added_false"] == 0
        assert out["links_deleted_true"] == out["links_deleted_false"] == 0
        same = sum(1 for u, v in blobs3.edge_array()
                   if blobs3.labels[u] == blobs3.labels[v])
        assert out["links_true"] == same

    def test_random_rewired_graphs_match_the_written_edge_lists(self, tmp_path):
        # brute-force counts over the "u<TAB>v<TAB>tag" lines and the
        # .deleted sidecar that save_edge_list writes for the same graph;
        # odd trials score against the rewiring's own labels, even ones
        # against an unrelated labelling
        rng = np.random.default_rng(13)
        both = 0
        for trial in range(30):
            n, k = int(rng.integers(10, 80)), int(rng.integers(2, 6))
            a = random_graph(rng, n, p=float(rng.uniform(0.05, 0.3)))
            labels = rng.integers(0, k, size=n)
            omega = np.flatnonzero(rng.random(n) < rng.uniform(0.3, 1.0))
            if omega.size == 0:
                continue
            z = rng.standard_normal((n, 3))
            ssg = upsilon_transform(a, labels, omega, compute_centroid_nodes(z, labels, omega, k))
            truth = labels if trial % 2 else rng.integers(0, k, size=n)
            save_edge_list(ssg, tmp_path / "edges.tsv")
            want = dict.fromkeys(["links_total", "links_true", "links_false",
                                  "links_added_true", "links_added_false",
                                  "links_deleted_true", "links_deleted_false"], 0)
            for line in (tmp_path / "edges.tsv").read_text().splitlines():
                u, v, tag = line.split("\t")
                kind = "true" if truth[int(u)] == truth[int(v)] else "false"
                want["links_total"] += 1
                want[f"links_{kind}"] += 1
                if tag == "A":
                    want[f"links_added_{kind}"] += 1
            for line in (tmp_path / "edges.tsv.deleted").read_text().splitlines():
                u, v = line.split("\t")
                want["links_deleted_" + ("true" if truth[int(u)] == truth[int(v)] else "false")] += 1
            assert graph_evolution_stats(ssg, truth) == want, trial
            added = want["links_added_true"] + want["links_added_false"]
            deleted = want["links_deleted_true"] + want["links_deleted_false"]
            both += added > 0 and deleted > 0
        # most graphs were rewired by both rules (24 of 30 at this seed)
        assert both >= 20


class TestTrace:
    def test_append_and_column(self):
        trace = DiagnosticTrace()
        trace.append(epoch=0, acc_all=0.5, omega_size=3)
        trace.append(epoch=1, acc_all=0.75, omega_size=4)
        assert trace.column("acc_all") == [0.5, 0.75]
        assert trace.rows[0]["lambda_fr"] is None

    def test_unknown_column_rejected(self):
        trace = DiagnosticTrace()
        with pytest.raises(DataError):
            trace.append(epoch=0, accuracy=1.0)
        with pytest.raises(DataError):
            trace.column("accuracy")

    def test_csv_layout(self, tmp_path):
        trace = DiagnosticTrace()
        trace.append(epoch=0, acc_all=0.5, lambda_fr=0.9)
        trace.to_csv(tmp_path / "t.csv")
        with open(tmp_path / "t.csv") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_COLUMNS
        row = dict(zip(rows[0], rows[1]))
        assert row["epoch"] == "0"
        assert row["lambda_fr"] == "0.9"
        assert row["nmi"] == ""  # unset columns serialize empty

    def test_csv_bytes_keep_crlf_row_ends(self, tmp_path):
        trace = DiagnosticTrace()
        trace.append(epoch=0, acc_all=0.5, lambda_fr=0.9)
        trace.to_csv(tmp_path / "t.csv")
        set_cells = {"epoch": "0", "lambda_fr": "0.9", "acc_all": "0.5"}
        row = ",".join(set_cells.get(c, "") for c in TRACE_COLUMNS)
        expected = ",".join(TRACE_COLUMNS) + "\r\n" + row + "\r\n"
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    def test_failed_csv_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        trace = DiagnosticTrace()
        trace.append(epoch=0, acc_all=0.5)
        target = tmp_path / "t.csv"
        trace.to_csv(target)
        before = target.read_bytes()
        trace.append(epoch=1, acc_all=0.75)
        real_write = Path.write_text

        def torn_write(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2])
            raise OSError("disk full")
        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            trace.to_csv(target)
        monkeypatch.undo()
        assert target.read_bytes() == before

    def test_summary_and_json(self, tmp_path):
        trace = DiagnosticTrace()
        assert trace.summary() == {"epochs": 0}
        trace.append(epoch=0, acc_all=0.4, nmi=0.1, ari=0.0, omega_size=2, links_total=9)
        trace.append(epoch=1, acc_all=0.9, nmi=0.8, ari=0.7, omega_size=5, links_total=7)
        s = trace.summary()
        assert s["epochs"] == 2
        assert s["final_acc"] == 0.9
        assert s["best_epoch_acc"] == 0.9
        assert s["final_omega_size"] == 5
        trace.to_json(tmp_path / "t.json")
        assert json.loads((tmp_path / "t.json").read_text()) == s
