"""K-means, soft assignments, Hungarian mapping, external metrics."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gaeclust.clustering
from gaeclust import DataError, RangeError
from gaeclust.clustering import (VAR_FLOOR, SoftAssignment, _min_cost_assignment, _variances_for,
                                 build_cluster_graph, cluster_means, evaluate_clustering,
                                 gaussian_soft_assign, hungarian_map, kmeans, relabel_truth,
                                 student_t_assign)


def separated_blobs(seed=0, n_per=15, k=3, d=4, spread=0.05, gap=10.0):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((k, d)) * gap
    labels = np.repeat(np.arange(k), n_per)
    z = means[labels] + rng.standard_normal((k * n_per, d)) * spread
    return z, labels, means


class TestContainers:
    def test_cluster_model_shape_mismatch(self):
        # the Gaussian P takes one label per embedding row
        with pytest.raises(DataError):
            gaussian_soft_assign(np.zeros((4, 2)), np.zeros((2, 2)), np.zeros(3, dtype=np.int64))

    def test_cluster_model_variance_floor(self):
        # a cluster of two equal points has variance 0, read as VAR_FLOOR
        z = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [7.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        centers = np.array([[0.0, 0.0], [6.0, 5.0]])
        assert np.array_equal(_variances_for(z, centers, labels)[0], [VAR_FLOOR, VAR_FLOOR])
        p = gaussian_soft_assign(z + 1e-3, centers, labels).matrix
        log_k = [[-0.5 * np.sum((zi + 1e-3 - c) ** 2 / v) for c, v in
                  zip(centers, [[VAR_FLOOR, VAR_FLOOR], [1.0, VAR_FLOOR]])] for zi in z]
        want = np.exp(np.array(log_k) - np.max(log_k, axis=1, keepdims=True))
        assert np.allclose(p, want / want.sum(axis=1, keepdims=True), atol=1e-12)

    def test_assignment_rows_must_sum_to_one(self):
        with pytest.raises(DataError):
            SoftAssignment(np.array([[0.5, 0.4]]))

    def test_assignment_rejects_negative(self):
        with pytest.raises(DataError):
            SoftAssignment(np.array([[1.2, -0.2]]))

    def test_assignment_must_be_a_matrix(self):
        with pytest.raises(DataError, match="assignment matrix must be 2-D"):
            SoftAssignment(np.array([0.5, 0.5]))

    def test_labels_tie_to_lowest_index(self):
        p = SoftAssignment(np.array([[0.5, 0.5], [0.2, 0.8]]))
        assert np.array_equal(p.labels(), [0, 1])


class TestKmeans:
    def test_recovers_separated_blobs(self):
        z, truth, means = separated_blobs(seed=1)
        model, labels = kmeans(z, 3, seed=0)
        assert evaluate_clustering(labels, truth, 3)["acc"] == 1.0
        # centers land on the blob means up to the intra-blob spread
        pi = hungarian_map(truth, labels, 3)
        for j in range(3):
            assert np.linalg.norm(model.centers[j] - means[pi[j]]) < 0.2

    def test_lloyd_fixed_point(self):
        # after convergence each center is the mean of its members and
        # each point sits with its nearest center
        z, _, _ = separated_blobs(seed=2, spread=1.0, gap=3.0)
        model, labels = kmeans(z, 3, seed=5)
        for j in range(3):
            members = z[labels == j]
            assert members.shape[0] > 0
            assert np.allclose(model.centers[j], members.mean(axis=0), atol=1e-12)
        d2 = ((z[:, None, :] - model.centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d2, axis=1), labels)

    def test_deterministic_for_seed(self):
        z, _, _ = separated_blobs(seed=3, spread=2.0, gap=2.0)
        m1, l1 = kmeans(z, 4, seed=7)
        m2, l2 = kmeans(z, 4, seed=7)
        assert np.array_equal(l1, l2)
        assert np.array_equal(m1.centers, m2.centers)
        assert np.array_equal(_variances_for(z, m1.centers, l1), _variances_for(z, m2.centers, l2))

    def test_n_less_than_k(self):
        with pytest.raises(RangeError):
            kmeans(np.zeros((2, 3)), 3, seed=0)

    def test_duplicate_points_keep_all_clusters(self):
        z = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
        _, labels = kmeans(z, 3, seed=0)
        assert set(labels.tolist()) == {0, 1, 2}

    def test_variances_floored_for_singletons(self):
        z = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0]])
        model, labels = kmeans(z, 2, seed=0)
        singleton = np.flatnonzero(np.bincount(labels, minlength=2) == 1)[0]
        variances = _variances_for(z, model.centers, labels)
        assert np.array_equal(variances[singleton], [VAR_FLOOR, VAR_FLOOR])

    def test_k_below_one(self):
        with pytest.raises(RangeError):
            kmeans(np.zeros((3, 2)), 0, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding(self, bad):
        z = np.zeros((5, 2))
        z[3, 1] = bad
        with pytest.raises(DataError):
            kmeans(z, 2, seed=0)


class TestClusterMeans:
    @staticmethod
    def row_order_means(z, labels, k):
        """Each cluster's rows added one at a time, from 0.0, in row order."""
        sums, counts = np.zeros((k, z.shape[1])), np.zeros(k, dtype=np.int64)
        for row, label in zip(z, labels):
            if label < k:
                sums[label] += row
                counts[label] += 1
        return sums / np.maximum(counts, 1)[:, None], counts

    @pytest.mark.parametrize("d", [1, 16])
    def test_bit_equal_to_a_row_order_sum(self, d):
        rng = np.random.default_rng(d)
        z, labels = rng.standard_normal((300, d)) * 1e3, rng.integers(0, 5, 300)
        means, counts = cluster_means(z, labels, 5)
        want_means, want_counts = self.row_order_means(z, labels, 5)
        assert means.tobytes() == want_means.tobytes()
        assert np.array_equal(counts, want_counts)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_bit_equal_to_the_axis_0_mean_from_two_columns(self, d):
        # numpy adds the rows of a 2-column block in order, but one column pairwise
        rng = np.random.default_rng(d)
        z, labels = rng.standard_normal((300, d)) * 1e3, rng.integers(0, 7, 300)
        means, _ = cluster_means(z, labels, 7)
        for j in range(7):
            assert means[j].tobytes() == z[labels == j].mean(axis=0).tobytes()

    def test_labels_at_or_above_k_are_ignored_and_an_empty_mean_is_zero(self):
        rng = np.random.default_rng(4)
        z, labels = rng.standard_normal((50, 3)), rng.choice([0, 2, 4, 9], size=50)
        means, counts = cluster_means(z, labels, 4)
        assert means.shape == (4, 3)
        assert np.array_equal(counts, [np.sum(labels == j) for j in range(4)])
        assert not means[[1, 3]].any()
        kept = labels < 4
        assert means.tobytes() == cluster_means(z[kept], labels[kept], 4)[0].tobytes()


def reference_kmeans(z, k, seed, max_iter=300):
    """The Lloyd loop kmeans replaced: einsum distances and one boolean mask
    per cluster. Returns (centers, variances, labels)."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, z.shape[1]), dtype=np.float64)
    centers[0] = z[rng.integers(0, n)]
    d2 = np.sum((z - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = z[idx]
        d2 = np.minimum(d2, np.sum((z - centers[j]) ** 2, axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        diff = z[:, None, :] - centers[None, :, :]
        dist = np.einsum("nkd,nkd->nk", diff, diff)
        new_labels = np.argmin(dist, axis=1)
        for j in range(k):
            members = new_labels == j
            if not members.any():
                far = int(np.argmax(dist[np.arange(n), new_labels]))
                centers[j] = z[far]
                new_labels[far] = j
            else:
                centers[j] = z[members].mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels

    variances = np.full_like(centers, VAR_FLOOR)
    for j in range(k):
        members = z[labels == j]
        if members.shape[0] >= 2:
            variances[j] = np.maximum(members.var(axis=0), VAR_FLOOR)
    return centers, variances, labels


def kmeans_bytes(z, k, seed):
    """(labels, centers, variances) bytes of kmeans and of reference_kmeans;
    kmeans's variances are those gaussian_soft_assign reads of its fit."""
    model, labels = kmeans(z, k, seed)
    centers, variances, ref_labels = reference_kmeans(z, k, seed)
    return ((labels.tobytes(), model.centers.tobytes(),
             _variances_for(z, model.centers, labels).tobytes()),
            (ref_labels.tobytes(), centers.tobytes(), variances.tobytes()))


def lattice_with_ties(seed, n, d, offset=0.0):
    """Integer points, ten of them twice, plus each point shifted by 1/2:
    exact midpoints between lattice centers. An offset far from 0 makes
    ||z||^2 - 2 z.c + ||c||^2 cancel, so it misorders near ties."""
    z = np.random.default_rng(seed).integers(-2, 3, (n, d)).astype(np.float64)
    z = np.vstack([z, z[:10]])
    return np.vstack([z, z + 0.5]) + offset


def far_from_the_origin(offset):
    """Unit Gaussian data around offset: ||z||^2 - 2 z.c + ||c||^2 cancels
    to a few ulps of ||z||^2, which misorders many near centers."""
    return np.random.default_rng(3).standard_normal((200, 4)) + offset


def cora_sized_blobs():
    """N=2708, d=16, seven overlapping blobs: Lloyd runs many iterations."""
    z, _, _ = separated_blobs(seed=11, n_per=387, k=7, d=16, spread=1.0, gap=0.6)
    return z[:2708]


class TestLloydOracle:
    """kmeans returns reference_kmeans's labels, centers and variances bit for bit."""

    @pytest.mark.parametrize("scale", [1e-162, 1e-6, 1.0, 1e3, 1e150])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_gaussian_scales(self, scale, k):
        z = np.random.default_rng(k).standard_normal((60, 4)) * scale
        for seed in range(3):
            got, want = kmeans_bytes(z, k, seed)
            assert got == want

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_far_from_the_origin(self, offset):
        z = far_from_the_origin(offset)
        for seed in range(3):
            got, want = kmeans_bytes(z, 5, seed)
            assert got == want

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_n_equals_k(self, k):
        z = np.random.default_rng(k + 10).standard_normal((k, 3))
        got, want = kmeans_bytes(z, k, 0)
        assert got == want

    def test_lattice_ties_take_the_exact_path(self, monkeypatch):
        exact_rows = []
        exact = gaeclust.clustering._squared_distances

        def spy(z, centers):
            exact_rows.append(z.shape[0])
            return exact(z, centers)

        monkeypatch.setattr(gaeclust.clustering, "_squared_distances", spy)
        for (d, k), offset in itertools.product(((1, 4), (2, 3), (3, 7)), (0.0, 1e6)):
            z = lattice_with_ties(d, 40, d, offset)
            exact_rows.clear()
            for seed in range(4):
                got, want = kmeans_bytes(z, k, seed)
                assert got == want
            # some step sent its tied rows, and only those, to the exact distances
            assert any(0 < rows < z.shape[0] for rows in exact_rows)

    def test_empty_cluster_reseed(self):
        z = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
        for seed in range(10):
            got, want = kmeans_bytes(z, 3, seed)
            assert got == want

    def test_cora_sized(self):
        got, want = kmeans_bytes(cora_sized_blobs(), 7, 0)
        assert got == want

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        cases = [(cora_sized_blobs(), 7, 0), (lattice_with_ties(3, 40, 2), 3, 1),
                 (far_from_the_origin(1e6), 5, 0)]
        args = []
        for i, (z, k, seed) in enumerate(cases):
            np.save(tmp_path / f"z{i}.npy", z)
            args += [str(tmp_path / f"z{i}.npy"), str(k), str(seed)]
        # the import pins OpenBLAS to one thread; the setter then restores the asked count
        script = ("import ctypes, hashlib, os, sys, numpy as np\n"
                  "import gaeclust.pairs as m\n"
                  "from gaeclust.clustering import _variances_for, kmeans\n"
                  "threads = int(os.environ['OPENBLAS_NUM_THREADS'])\n"
                  "set_threads = m._openblas_function('scipy_openblas_set_num_threads64_', None,\n"
                  "                                   (ctypes.c_int,))\n"
                  "if set_threads:\n"
                  "    set_threads(threads)\n"
                  "    assert m.blas_threads() == threads\n"
                  "for path, k, seed in zip(*[iter(sys.argv[1:])] * 3):\n"
                  "    z = np.load(path)\n"
                  "    model, labels = kmeans(z, int(k), int(seed))\n"
                  "    for a in (labels, model.centers, _variances_for(z, model.centers, labels)):\n"
                  "        print(hashlib.sha256(a.tobytes()).hexdigest())\n")
        # the reference's einsum and masks call no BLAS
        want = [hashlib.sha256(b).hexdigest()
                for z, k, seed in cases for b in kmeans_bytes(z, k, seed)[1]]
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(gaeclust.clustering.__file__).parents[1])}
            out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                                 capture_output=True, text=True, check=True).stdout
            assert out.split() == want, f"OPENBLAS_NUM_THREADS={threads}"


class TestSoftAssignments:
    def test_gaussian_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 3))
        centers = rng.standard_normal((3, 3))
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        variances = np.stack([z[labels == j].var(axis=0) for j in range(3)])
        p = gaussian_soft_assign(z, centers, labels).matrix
        for i in range(8):
            kern = np.array([
                np.exp(-0.5 * np.sum((z[i] - centers[j]) ** 2 / variances[j]))
                for j in range(3)
            ])
            assert np.allclose(p[i], kern / kern.sum(), atol=1e-12)

    def test_gaussian_dim_mismatch(self):
        with pytest.raises(DataError):
            gaussian_soft_assign(np.zeros((4, 2)), np.zeros((2, 3)), np.zeros(4, dtype=np.int64))

    def test_gaussian_overflow_safe(self):
        # huge distances underflow to a still-valid row-stochastic matrix
        # one point, so both clusters carry the floor variance
        p = gaussian_soft_assign(np.array([[0.0]]), np.array([[0.0], [1e4]]), np.array([0])).matrix
        assert np.allclose(p, [[1.0, 0.0]])

    def test_student_t_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((5, 2))
        centers = rng.standard_normal((4, 2))
        p = student_t_assign(z, centers).matrix
        for i in range(5):
            s = np.array([1.0 / (1.0 + np.sum((z[i] - c) ** 2)) for c in centers])
            assert np.allclose(p[i], s / s.sum(), atol=1e-14)

    def test_student_t_hand_case(self):
        # one point at distance 0 and 2 from the centers:
        # s = [1, 1/5] -> p = [5/6, 1/6]
        p = student_t_assign(np.array([[0.0]]), np.array([[0.0], [2.0]])).matrix
        assert np.allclose(p, [[5.0 / 6.0, 1.0 / 6.0]], atol=1e-15)

    def test_closer_center_gets_more_mass(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((10, 2))
        centers = np.array([[0.0, 0.0], [5.0, 5.0]])
        p = student_t_assign(z, centers)
        d2 = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(p.labels(), np.argmin(d2, axis=1))


def labels_with_contingency(w):
    """truth and pred label vectors with w[t, p] nodes of truth t and prediction p."""
    k = w.shape[0]
    cells = np.repeat(np.arange(k * k), w.ravel())
    return cells // k, cells % k


def assert_picks_scipys_columns(w):
    """The matcher and hungarian_map choose scipy's columns, ties included."""
    from scipy.optimize import linear_sum_assignment  # the oracle; the package never imports it
    k = w.shape[0]
    rows, cols = linear_sum_assignment(w.max() - w)
    assert np.array_equal(rows, np.arange(k))
    assert np.array_equal(_min_cost_assignment(w.max() - w), cols)
    want = np.empty(k, dtype=np.int64)
    want[cols] = rows
    truth, pred = labels_with_contingency(w)
    assert np.array_equal(hungarian_map(truth, pred, k), want)


class TestHungarian:
    def brute_force_best(self, truth, pred, k):
        best_acc, best_pi = -1.0, None
        for perm in itertools.permutations(range(k)):
            pi = np.array(perm)
            acc = float(np.mean(pi[pred] == truth))
            if acc > best_acc:
                best_acc, best_pi = acc, pi
        return best_acc, best_pi

    def test_hand_case(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])  # swapped ids, perfect clustering
        pi = hungarian_map(truth, pred, 2)
        assert np.array_equal(pi, [1, 0])
        assert np.all(pi[pred] == truth)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_exhaustive_search(self, k):
        rng = np.random.default_rng(k)
        for _ in range(25):
            n = int(rng.integers(k, 40))
            truth = rng.integers(0, k, size=n)
            pred = rng.integers(0, k, size=n)
            pi = hungarian_map(truth, pred, k)
            got = float(np.mean(pi[pred] == truth))
            best, _ = self.brute_force_best(truth, pred, k)
            assert got == best
            assert sorted(pi.tolist()) == list(range(k))

    def test_relabel_truth_inverts_pi(self):
        truth = np.array([0, 0, 1, 2, 2, 1])
        pred = np.array([2, 2, 0, 1, 1, 0])
        pi = hungarian_map(truth, pred, 3)
        relabeled = relabel_truth(truth, pi)
        # in the predicted index space, truth should coincide with a
        # perfect prediction
        assert np.array_equal(pi[relabeled], truth)
        assert np.array_equal(relabeled, pred)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            hungarian_map(np.array([0, 1]), np.array([0]), 2)

    def test_label_range(self):
        with pytest.raises(DataError):
            hungarian_map(np.array([0, 2]), np.array([0, 1]), 2)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_pred_label_range(self, bad):
        with pytest.raises(DataError, match=r"pred labels outside \[0, K\)"):
            hungarian_map(np.array([0, 1]), np.array([0, bad]), 2)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_picks_scipys_columns_on_dense_ties(self, data):
        k = data.draw(st.integers(1, 10))
        assert_picks_scipys_columns(data.draw(hnp.arrays(np.int64, (k, k),
                                                         elements=st.integers(0, 3))))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_picks_scipys_columns_up_to_k50(self, data):
        k = data.draw(st.integers(1, 50))
        assert_picks_scipys_columns(data.draw(hnp.arrays(np.int64, (k, k),
                                                         elements=st.integers(0, 300))))

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
    def test_constant_matrix_maps_to_identity(self, k):
        assert np.array_equal(_min_cost_assignment(np.full((k, k), 5)), np.arange(k))
        truth, pred = labels_with_contingency(np.full((k, k), 2, dtype=np.int64))
        assert np.array_equal(hungarian_map(truth, pred, k), np.arange(k))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matched_mass_is_the_brute_force_best(self, data):
        k = data.draw(st.integers(1, 6))
        w = data.draw(hnp.arrays(np.int64, (k, k), elements=st.integers(0, 3)))
        truth, pred = labels_with_contingency(w)
        pi = hungarian_map(truth, pred, k)
        best = max(sum(w[t, p] for p, t in enumerate(perm))
                   for perm in itertools.permutations(range(k)))
        assert w[pi, np.arange(k)].sum() == best

    def test_a_labelled_run_never_loads_scipy_optimize(self, tmp_path):
        # a subprocess, since this module's oracle imports scipy.optimize here
        script = ("import sys\n"
                  "import numpy as np\n"
                  "import gaeclust\n"
                  "rng = np.random.default_rng(0)\n"
                  "labels = np.repeat(np.arange(3), 10)\n"
                  "p = np.where(labels[:, None] == labels[None, :], 0.4, 0.05)\n"
                  "edges = np.argwhere(np.triu(rng.random((30, 30)) < p, k=1))\n"
                  "feats = labels[:, None] + rng.standard_normal((30, 4))\n"
                  "graph = gaeclust.make_graph(30, edges, features=feats, labels=labels,\n"
                  "                            k_clusters=3)\n"
                  "gaeclust.save_dataset(graph, sys.argv[1])\n"
                  "result = gaeclust.run(gaeclust.ExperimentConfig(\n"
                  "    dataset=sys.argv[1], out=sys.argv[2], model='dgae', rethink=True,\n"
                  "    seeds=(0,), pretrain_epochs=2, train_epochs=2, m1=1, m2=1))\n"
                  "assert result.data['per_seed'][0]['acc'] is not None\n"
                  "print('scipy.optimize' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(gaeclust.clustering.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "d"),
                              str(tmp_path / "runs")], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False"]


class TestMetrics:
    def test_perfect_clustering(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        out = evaluate_clustering(pred, truth, 3)
        assert out["acc"] == 1.0
        assert out["nmi"] == pytest.approx(1.0, abs=1e-12)
        assert out["ari"] == pytest.approx(1.0, abs=1e-12)
        assert not out["degenerate"]

    def test_hand_computed_case(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        out = evaluate_clustering(pred, truth, 2)
        assert out["acc"] == 0.75
        # mutual information and entropies from the contingency
        # {w00: 1, w01: 1, w11: 2}, n = 4, computed term by term
        mi = (0.25 * np.log(4 / 2) + 0.25 * np.log(4 / 6) + 0.5 * np.log(8 / 6))
        h_truth = np.log(2.0)
        h_pred = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
        assert out["nmi"] == pytest.approx(mi / np.sqrt(h_truth * h_pred), abs=1e-12)
        # pair counts: sum_ij C(w,2) = 1, rows 2, cols 3, C(4,2) = 6
        expected_idx = 2 * 3 / 6
        assert out["ari"] == pytest.approx((1 - expected_idx) / (0.5 * (2 + 3) - expected_idx),
                                           abs=1e-12)

    def test_single_class_prediction_degenerate(self):
        truth = np.array([0, 1, 0, 1])
        pred = np.zeros(4, dtype=np.int64)
        out = evaluate_clustering(pred, truth, 2)
        assert out["degenerate"]
        assert out["nmi"] == 0.0
        assert out["acc"] == 0.5

    def test_against_sklearn(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(11)
        for k in (2, 3, 5):
            for _ in range(10):
                n = int(rng.integers(2 * k, 60))
                truth = rng.integers(0, k, size=n)
                pred = rng.integers(0, k, size=n)
                if len(np.unique(truth)) < 2 or len(np.unique(pred)) < 2:
                    continue
                out = evaluate_clustering(pred, truth, k)
                assert out["nmi"] == pytest.approx(
                    sk.normalized_mutual_info_score(truth, pred,
                                                    average_method="geometric"),
                    abs=1e-10)
                assert out["ari"] == pytest.approx(
                    sk.adjusted_rand_score(truth, pred), abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_metric_ranges(self, k, data):
        n = data.draw(st.integers(k, 25))
        truth = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        pred = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        out = evaluate_clustering(pred, truth, k)
        assert 0.0 <= out["acc"] <= 1.0
        assert 0.0 <= out["nmi"] <= 1.0 + 1e-12
        assert out["ari"] <= 1.0 + 1e-12
        # the best bijection can always include the largest contingency
        # cell, so accuracy is at least that cell's share
        cont = np.zeros((k, k))
        np.add.at(cont, (truth, pred), 1.0)
        assert out["acc"] >= cont.max() / n - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="label vectors must have equal length"):
            evaluate_clustering(np.array([0, 1, 1]), np.array([0, 1]), 2)


class TestClusterGraph:
    def test_hand_case(self):
        labels = np.array([0, 1, 0, 1, 1])
        got = build_cluster_graph(labels, 2).toarray()
        expected = np.zeros((5, 5))
        for block, w in (((0, 2), 0.5), ((1, 3, 4), 1.0 / 3.0)):
            for i in block:
                for j in block:
                    expected[i, j] = w
        assert np.allclose(got, expected, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 4, size=30)
        got = build_cluster_graph(labels, 4)
        assert np.allclose(np.asarray(got.sum(axis=1)).ravel(), 1.0)

    def test_empty_cluster_skipped(self):
        labels = np.zeros(3, dtype=np.int64)
        got = build_cluster_graph(labels, 2).toarray()
        assert np.allclose(got, np.full((3, 3), 1.0 / 3.0))

    def test_diagonal_included(self):
        got = build_cluster_graph(np.array([0, 1]), 2).toarray()
        assert np.array_equal(got, np.eye(2))

    def test_label_range(self):
        with pytest.raises(DataError):
            build_cluster_graph(np.array([0, 5]), 3)
