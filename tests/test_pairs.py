"""The pair engine (gaeclust.pairs): the losses against brute force and
finite differences, the gradient's add order, the edge sigmoid, the edge
logits, the sweep's worker threads, what a sweeping thread holds and the
decomposition identities."""

import contextvars
import gc
import itertools
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import gaeclust.pairs
import gaeclust.training
from gaeclust import DataError, ShapeError, TrainConfig, init_model, pretrain, save_dataset
from gaeclust.clustering import build_cluster_graph, student_t_assign
from gaeclust.graphio import normalize_adjacency
from gaeclust.linalg import finite_diff_grad
from gaeclust.models import centroid_kmeans_loss, dgae_clus_loss, encode
from gaeclust.operators import passthrough_graph
from gaeclust.pairs import (PairPass, kmeans_grad_z, laplacian_quadratic, recon_grad_z, recon_loss,
                            regularizer_R)

from conftest import (assert_bits_equal, assert_sweep_matches_reference, grad_close, pair_targets,
                      planted_partition, random_graph, reference_sweep, set_workers)


class TestReconLoss:
    def brute_plain(self, z, a_dense):
        total = 0.0
        for i in range(z.shape[0]):
            for j in range(z.shape[0]):
                logit = float(z[i] @ z[j])
                total += np.logaddexp(0.0, logit) - a_dense[i, j] * logit
        return total

    def brute_pos_weighted(self, z, a_dense):
        n = z.shape[0]
        two_e = int(a_dense.sum())
        w = (n * n - two_e) / two_e
        norm = n * n / (2.0 * (n * n - two_e))
        total = 0.0
        for i in range(n):
            for j in range(n):
                logit = float(z[i] @ z[j])
                total += (w * a_dense[i, j] * np.logaddexp(0.0, -logit)
                          + (1 - a_dense[i, j]) * np.logaddexp(0.0, logit))
        return norm * total / (n * n)

    def test_plain_matches_brute_force(self):
        rng = np.random.default_rng(10)
        a = random_graph(rng, 9, p=0.4)
        z = rng.standard_normal((9, 4))
        assert recon_loss(z, a, "plain") == pytest.approx(
            self.brute_plain(z, a.toarray()), rel=1e-12)

    def test_pos_weighted_matches_brute_force(self):
        rng = np.random.default_rng(11)
        a = random_graph(rng, 8, p=0.4)
        z = rng.standard_normal((8, 3))
        assert recon_loss(z, a, "pos_weighted") == pytest.approx(
            self.brute_pos_weighted(z, a.toarray()), rel=1e-12)

    @pytest.mark.parametrize("weighting", ["plain", "pos_weighted"])
    def test_grad_matches_finite_diff(self, weighting):
        rng = np.random.default_rng(12)
        a = random_graph(rng, 7, p=0.4)
        z = rng.standard_normal((7, 3)) * 0.5
        got = recon_grad_z(z, a, weighting)
        fd = finite_diff_grad(lambda y: recon_loss(y, a, weighting), z.copy())
        assert grad_close(got, fd)

    def test_tiling_invariance(self, monkeypatch):
        rng = np.random.default_rng(13)
        a = random_graph(rng, 23, p=0.3)
        z = rng.standard_normal((23, 4))
        whole_l = recon_loss(z, a, "pos_weighted")
        whole_g = recon_grad_z(z, a, "plain")
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 50)
        tiled_l = recon_loss(z, a, "pos_weighted")
        tiled_g = recon_grad_z(z, a, "plain")
        assert tiled_l == pytest.approx(whole_l, rel=1e-13)
        assert np.allclose(tiled_g, whole_g, atol=1e-11)

    def test_pos_weighted_rejects_empty_graph(self):
        with pytest.raises(DataError):
            recon_loss(np.zeros((3, 2)), sp.csr_matrix((3, 3)), "pos_weighted")

    def test_unknown_weighting(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DataError):
            recon_loss(np.zeros((2, 2)), a, "focal")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            recon_loss(np.zeros((3, 2)), sp.csr_matrix((4, 4)), "plain")


class TestReconGradAddOrder:
    """recon_grad_z adds scale * (2 sigmoid(L) Z + C Z + C^T Z) left to right,
    with C from its formula, on a fresh pass and on one that kept the
    target's edge logits."""

    @pytest.mark.parametrize("weighting", ["plain", "pos_weighted"])
    @pytest.mark.parametrize("target", ["symmetric", "asymmetric_weighted"])
    def test_bitwise_equal_to_the_formula(self, weighting, target):
        rng = np.random.default_rng(27)
        n = 37
        z = rng.standard_normal((n, 5)) * 1.5
        a = pair_targets(rng, n)[target]
        _, sigmoid_z = PairPass(z).sums()
        w, scale = ((1.0, 1.0) if weighting == "plain" else
                    ((n * n - a.nnz) / a.nnz, 0.5 / (n * n - a.nnz)))
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        logits = np.einsum("ed,ed->e", z[rows], z[a.indices])
        # the kernel's sigmoid; at w = 1 this is C = -A
        sigmoid = 1.0 / (1.0 + np.exp(-logits))
        c = sp.csr_matrix((a.data * ((w - 1.0) * sigmoid - w), a.indices, a.indptr),
                          shape=a.shape)
        cz, ctz = c @ z, c.T @ z
        want = scale * (2.0 * sigmoid_z + cz + ctz)
        for source in (z, PairPass(z), PairPass(z).start()):
            assert np.array_equal(recon_grad_z(source, a, weighting), want)
            # a pass reads the edge logits it kept
            assert np.array_equal(recon_grad_z(source, a, weighting), want)


class TestExpit:
    """pairs._sigmoid, the pos-weighted gradient's sigmoid(l_e), takes numpy's
    exp as the strips do, and imports no scipy.special."""

    def test_numpy_exp_against_scipy_on_a_grid(self):
        big = np.log(np.finfo(np.float64).max)  # where exp starts to overflow
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300,
                 0.5, 36.7, 37.0, 709.78, -709.78, 709.79, -709.79, big, -big,
                 np.nextafter(big, np.inf), -np.nextafter(big, np.inf), 745.2, -745.2,
                 1e300, -1e300, np.finfo(np.float64).max, -np.finfo(np.float64).max,
                 np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(5)
        x = np.concatenate([edges, rng.standard_normal(20_000) * 12.0,
                            np.linspace(-760.0, 760.0, 20_001)])
        with np.errstate(all="raise"):
            got = gaeclust.pairs._sigmoid(x)
        want = expit(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        # +-0, +-inf and NaN; exp(-x) overflowing (sigmoid 0) or below half an
        # ulp of 1 (sigmoid 1): the same bits whatever exp kernel numpy runs
        exact = (x == 0.0) | np.isinf(x) | np.isnan(x) | (-x > big) | (x >= 37.0)
        assert np.array_equal(got[exact].view(np.uint64), want[exact].view(np.uint64))
        # elsewhere numpy's SIMD exp may differ from libm's in the last bits
        ulps = np.abs(got[~exact].view(np.int64) - want[~exact].view(np.int64))
        assert ulps.max() <= 4

    def test_empty(self):
        assert gaeclust.pairs._sigmoid(np.empty(0)).shape == (0,)

    def test_a_pretraining_epoch_never_loads_scipy_special(self, tmp_path):
        # a subprocess, since this module imports scipy.special for its oracles
        script = ("import sys\n"
                  "import numpy as np\n"
                  "import gaeclust\n"
                  "rng = np.random.default_rng(0)\n"
                  "edges = np.argwhere(np.triu(rng.random((40, 40)) < 0.2, k=1))\n"
                  "graph = gaeclust.make_graph(40, edges, features=rng.random((40, 6)))\n"
                  "model = gaeclust.init_model('gae', 6, seed=0)\n"
                  "gaeclust.pretrain(model, graph, gaeclust.TrainConfig(pretrain_epochs=1))\n"
                  "assert model.adam.step_count == 1\n"
                  "print('scipy.special' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(gaeclust.pairs.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False"]


class TestEdgeLogits:
    def spy(self, monkeypatch) -> list:
        calls = []
        real = gaeclust.pairs.edge_logits
        monkeypatch.setattr(gaeclust.pairs, "edge_logits",
                            lambda *args: calls.append(1) or real(*args))
        return calls

    def test_once_per_pretraining_step(self, blobs2, monkeypatch):
        calls = self.spy(monkeypatch)
        model = init_model("gae", blobs2.x.shape[1], seed=0)
        pretrain(model, blobs2, TrainConfig(pretrain_epochs=3))
        assert len(calls) == 3

    def test_once_per_dgae_step(self, blobs3, monkeypatch):
        model = init_model("dgae", blobs3.x.shape[1], seed=0)
        z, caches = encode(model, normalize_adjacency(blobs3, "propagation"), blobs3.x,
                           training=False)
        model.centers = z[:3].copy()
        p = student_t_assign(z, model.centers)
        kl = dgae_clus_loss(p, p.labels())
        calls = self.spy(monkeypatch)
        _, _, l_bce = gaeclust.training._dgae_step(model, caches, kl,
                                                   passthrough_graph(blobs3.adjacency), gamma=0.5)
        assert l_bce is not None
        assert len(calls) == 1

    def test_never_in_a_plain_gradient(self, monkeypatch):
        rng = np.random.default_rng(28)
        z = rng.standard_normal((20, 3))
        a = pair_targets(rng, 20)["weighted"]
        calls = self.spy(monkeypatch)
        recon_grad_z(z, a, "pos_weighted")
        recon_loss(z, a, "plain")
        assert len(calls) == 2

    @pytest.mark.parametrize("weighting", ["plain", "pos_weighted"])
    def test_interleaved_targets_score_as_on_a_fresh_pass(self, weighting):
        rng = np.random.default_rng(30)
        n = 24
        z = rng.standard_normal((n, 4))
        a = pair_targets(rng, n)["weighted"]
        # b has a's nnz on other entries: a relabelling of its nodes
        perm = rng.permutation(n)
        b = a[perm][:, perm].tocsr()
        assert b.nnz == a.nnz and (a != b).nnz > 0
        pairs = PairPass(z)
        for target in (a, b, a):
            grad = recon_grad_z(pairs, target, weighting)
            loss = np.float64(recon_loss(pairs, target, weighting))
            assert_bits_equal(grad, recon_grad_z(PairPass(z), target, weighting))
            assert_bits_equal(loss, np.float64(recon_loss(PairPass(z), target, weighting)))


def read_within(pairs, seconds=30.0):
    """pairs.sums() on a thread of its own, in a copy of the caller's context
    (np.errstate included); fails the test when the read hangs."""
    out = {}
    context = contextvars.copy_context()

    def read():
        try:
            out["sums"] = context.run(pairs.sums)
        except BaseException as exc:
            out["error"] = exc

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(seconds)
    assert not reader.is_alive(), "the read of the pair pass hangs"
    if "error" in out:
        raise out["error"]
    return out["sums"]


def join_helpers(workers):
    """Return once each of a sweep's workers - 1 pool helpers has finished its
    earlier tasks, its sweeping calls included: each probe submitted to the
    pool waits for all the others, so each runs on a helper of its own."""
    helpers = workers - 1
    if helpers == 0:
        return
    all_in = threading.Barrier(helpers)
    pool = gaeclust.pairs._sweep_pool(helpers)
    for future in [pool.submit(all_in.wait, 30.0) for _ in range(helpers)]:
        future.result(60.0)


def blas_env(threads):
    """os.environ with OPENBLAS_NUM_THREADS at threads (unset for None) and src on the path."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = str(Path(gaeclust.pairs.__file__).parents[1])
    return env


class TestSweepWorkers:
    # BLAS runs on one thread, so the sweep takes every core whatever its count reads
    @pytest.mark.parametrize("cores, threads, workers", [
        (2, 1, 2), (2, 2, 2), (2, None, 2), (8, 3, 8), (1, 1, 1), (1, 4, 1),
    ])
    def test_cores_over_blas_threads(self, monkeypatch, cores, threads, workers):
        monkeypatch.setattr(gaeclust.pairs, "usable_cores", lambda: cores)
        monkeypatch.setattr(gaeclust.pairs, "blas_threads", lambda: threads)
        assert gaeclust.pairs.pair_sweep_workers() == workers

    def test_reads_the_live_blas_thread_count(self):
        counts = []
        for threads in ("1", "2", None):
            out = subprocess.run(
                [sys.executable, "-c", "import sys, gaeclust.models; "
                 "print(sys.modules['gaeclust.pairs'].blas_threads())"],
                env=blas_env(threads), capture_output=True, text=True, check=True).stdout
            counts.append(out.strip())
        # the import pins numpy's OpenBLAS to one thread whatever it was started
        # with; another BLAS reads None
        assert counts in (["1", "1", "1"], ["None", "None", "None"])

    def test_one_checkpoint_at_any_blas_thread_count(self, tmp_path):
        if gaeclust.pairs.blas_threads() is None:
            pytest.skip("numpy's BLAS is no scipy-openblas, which gaeclust.pairs pins to "
                        "one thread")
        # 600 nodes: OpenBLAS splits the sweep's products over its threads when it may
        save_dataset(planted_partition(600, 4, 0.02, 0.002, seed=3), tmp_path / "data")
        script = ("import sys\n"
                  "from gaeclust.experiments import ExperimentConfig, pretrain_only\n"
                  "config = ExperimentConfig(dataset=sys.argv[1], model='gae', out=sys.argv[2],\n"
                  "                          seeds=(0,), pretrain_epochs=3)\n"
                  "print(pretrain_only(config)['checkpoints'][0]['sha256'])\n")
        runs = {threads: subprocess.Popen(
                    [sys.executable, "-c", script, str(tmp_path / "data"),
                     str(tmp_path / f"out{threads}")],
                    env=blas_env(threads), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True)
                for threads in ("1", "2", None)}
        outputs = {threads: proc.communicate(timeout=120) for threads, proc in runs.items()}
        for threads, proc in runs.items():
            assert proc.returncode == 0, outputs[threads][1]
        digests = {threads: out.strip() for threads, (out, _) in outputs.items()}
        assert len(set(digests.values())) == 1, digests

    def test_reads_the_blas_core_type(self):
        # OPENBLAS_CORETYPE forces a core type OpenBLAS dispatches for, where it is
        # built for several; Haswell kernels run on any CPU that runs this suite's
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": str(Path(gaeclust.pairs.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", "import gaeclust.pairs as m; print(m.blas_core())"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() in ("Haswell", "None")

    def test_one_strip_runs_inline(self, monkeypatch):
        set_workers(monkeypatch, 3)
        monkeypatch.setattr(gaeclust.pairs, "_sweep_pool", None)  # would fail if called
        z = np.random.default_rng(19).standard_normal((30, 4))
        assert len(list(gaeclust.pairs._strips(30))) == 1
        assert_sweep_matches_reference(z)

    def test_workers_raise_in_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 182)
        set_workers(monkeypatch, 3)
        z = np.full((40, 2), 1e160)
        z[::2] *= -1.0
        with np.errstate(all="raise"):
            for pairs in (PairPass(z), PairPass(z).start()):
                with pytest.raises(FloatingPointError):
                    read_within(pairs)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_strip_ends_the_sweep(self, monkeypatch, workers):
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 182)
        set_workers(monkeypatch, workers)
        real = gaeclust.pairs._strip_sums
        handed = {}  # per strip, weakrefs to the blocks it was handed

        def strip_sums(z, i0, i1, tail, blocks):
            handed[i0] = [weakref.ref(b) for b in blocks]
            result = real(z, i0, i1, tail, blocks)  # so the strip raises holding its blocks
            if i0 == 0:  # the fold waits for this strip, which never comes
                raise ValueError("strip 0")
            return result

        monkeypatch.setattr(gaeclust.pairs, "_strip_sums", strip_sums)
        z = np.random.default_rng(20).standard_normal((40, 2))
        for start in (False, True):
            handed.clear()
            pairs = PairPass(z).start() if start else PairPass(z)
            with pytest.raises(ValueError, match="strip 0"):
                read_within(pairs)
            join_helpers(workers)
            # every other thread freed its blocks; the error's traceback keeps
            # those of the strip that raised, and they die with it
            held = {id(ref()) for refs in handed.values() for ref in refs if ref() is not None}
            assert held == {id(ref()) for ref in handed[0]}
            del pairs
            gc.collect()
            assert all(ref() is None for refs in handed.values() for ref in refs)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_allocation_ends_the_sweep(self, monkeypatch, workers):
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 182)
        set_workers(monkeypatch, workers)
        real = gaeclust.pairs._strip_workspace
        z = np.random.default_rng(23).standard_normal((40, 2))
        for start in (False, True):
            calls = itertools.count()

            def strip_workspace(size):
                if next(calls) == 0:  # the pass's first allocation fails, the rest succeed
                    raise MemoryError("strip workspace")
                return real(size)

            monkeypatch.setattr(gaeclust.pairs, "_strip_workspace", strip_workspace)
            pairs = PairPass(z).start() if start else PairPass(z)
            # the strip never comes, so the fold would wait for it unless the
            # failure ends the sweep as a failing strip does
            with pytest.raises(MemoryError, match="strip workspace") as first:
                read_within(pairs)
            with pytest.raises(MemoryError) as again:
                read_within(pairs)
            assert again.value is first.value

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_failed_pass_raises_again_without_a_new_sweep(self, monkeypatch, workers):
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 182)
        set_workers(monkeypatch, workers)
        begun = []
        real_begin, real_sums = PairPass._begin, gaeclust.pairs._strip_sums
        monkeypatch.setattr(PairPass, "_begin", lambda self: begun.append(1) or real_begin(self))

        def strip_sums(z, i0, i1, tail, blocks):
            if i0 == 0:
                raise ValueError("strip 0")
            return real_sums(z, i0, i1, tail, blocks)

        monkeypatch.setattr(gaeclust.pairs, "_strip_sums", strip_sums)
        pairs = PairPass(np.random.default_rng(22).standard_normal((40, 2)))
        with pytest.raises(ValueError, match="strip 0") as first:
            read_within(pairs)
        with pytest.raises(ValueError) as again:
            read_within(pairs)
        assert again.value is first.value
        assert len(begun) == 1

    def test_an_unread_pass_does_not_block_the_next(self, monkeypatch):
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 182)
        set_workers(monkeypatch, 2)
        rng = np.random.default_rng(21)
        stuck, z = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
        release = threading.Event()
        real = gaeclust.pairs._strip_sums

        def strip_sums(zz, i0, i1, tail, blocks):
            if zz is stuck:  # the unread pass holds the one helper thread
                release.wait(60.0)
            return real(zz, i0, i1, tail, blocks)

        monkeypatch.setattr(gaeclust.pairs, "_strip_sums", strip_sums)
        PairPass(stuck).start()
        try:
            _, got = read_within(PairPass(z).start())
        finally:
            release.set()
        assert np.array_equal(got, reference_sweep(z)[1])


class TestSweepWorkingSet:
    def test_a_sweeping_thread_holds_one_block_and_its_signs(self, monkeypatch):
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 2_000)
        tile = gaeclust.pairs._TILE_DOUBLES
        real = gaeclust.pairs._strip_sums
        z = np.random.default_rng(0).standard_normal((200, 4))
        assert len(list(gaeclust.pairs._strips(200))) > 4
        for workers in (1, 2):
            set_workers(monkeypatch, workers)
            every_worker_sweeps = threading.Barrier(workers)
            handed = {}  # per sweeping thread, weakrefs to the blocks of its first strip
            same, kinds = [], []  # per strip, whether it got those; per thread, the blocks' kind

            def strip_sums(z, i0, i1, tail, blocks):
                refs = handed.get(threading.get_ident())
                if refs is None:
                    refs = handed[threading.get_ident()] = [weakref.ref(b) for b in blocks]
                    kinds.append([(b.dtype, b.size, b.nbytes) for b in blocks])
                    every_worker_sweeps.wait(30.0)
                same.append(all(ref() is b for ref, b in zip(refs, blocks)))
                return real(z, i0, i1, tail, blocks)

            monkeypatch.setattr(gaeclust.pairs, "_strip_sums", strip_sums)
            read_within(PairPass(z).start())
            assert len(handed) == workers
            # one allocation per thread and pass, reused for each of its strips
            assert len(same) == len(list(gaeclust.pairs._strips(200))) and all(same)
            assert kinds == [[(np.float64, tile, 8 * tile), (np.int8, tile, tile)]] * workers
            # once the read returns and the helpers end their share, no block is held
            join_helpers(workers)
            assert [ref() for refs in handed.values() for ref in refs] == [None] * 2 * workers


class TestDecomposition:
    def brute_laplacian(self, z, a_dense):
        total = 0.0
        for i in range(z.shape[0]):
            for j in range(z.shape[0]):
                total += 0.5 * a_dense[i, j] * float(np.sum((z[i] - z[j]) ** 2))
        return total

    def brute_remainder(self, z, a_dense):
        total = 0.0
        for i in range(z.shape[0]):
            for j in range(z.shape[0]):
                logit = float(z[i] @ z[j])
                total += np.logaddexp(0.0, logit) - 0.5 * a_dense[i, j] * (
                    float(z[i] @ z[i]) + float(z[j] @ z[j]))
        return total

    def test_laplacian_matches_brute_force_weighted(self):
        rng = np.random.default_rng(14)
        a = sp.csr_matrix(rng.random((6, 6)) * (rng.random((6, 6)) < 0.5))
        z = rng.standard_normal((6, 3))
        assert laplacian_quadratic(z, a) == pytest.approx(
            self.brute_laplacian(z, a.toarray()), rel=1e-12)

    def test_remainder_matches_brute_force(self):
        rng = np.random.default_rng(15)
        a = random_graph(rng, 6, p=0.5)
        z = rng.standard_normal((6, 3))
        assert regularizer_R(z, a) == pytest.approx(
            self.brute_remainder(z, a.toarray()), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bce_splits_into_laplacian_plus_remainder(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = random_graph(rng, n, p=0.4)
        z = rng.standard_normal((n, 3))
        left = recon_loss(z, a, "plain")
        right = laplacian_quadratic(z, a) + regularizer_R(z, a)
        assert left == pytest.approx(right, rel=1e-10, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cluster_graph_laplacian_is_centroid_kmeans(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(4, 20)), int(rng.integers(2, 4))
        labels = rng.integers(0, k, size=n)
        z = rng.standard_normal((n, 4))
        a_clus = build_cluster_graph(labels, k)
        assert laplacian_quadratic(z, a_clus) == pytest.approx(
            centroid_kmeans_loss(z, labels, k), rel=1e-10, abs=1e-10)

    def test_kmeans_grad_matches_finite_diff(self):
        rng = np.random.default_rng(16)
        labels = rng.integers(0, 3, size=10)
        a_clus = build_cluster_graph(labels, 3)
        z = rng.standard_normal((10, 4))
        got = kmeans_grad_z(z, a_clus)
        fd = finite_diff_grad(lambda y: laplacian_quadratic(y, a_clus), z.copy())
        assert grad_close(got, fd)

    @pytest.mark.parametrize("fn", [laplacian_quadratic, kmeans_grad_z])
    def test_mismatched_target_is_refused(self, fn):
        with pytest.raises(ShapeError, match=r"target shape \(4, 4\) does not match Z rows 3"):
            fn(np.zeros((3, 2)), sp.csr_matrix((4, 4)))
